"""Checks on the repository around the package: its source and its README."""

import ast
import re
from pathlib import Path

import iqtomo

ROOT = Path(__file__).resolve().parents[1]


def test_no_invariant_rests_on_assert():
    # python -O drops assert statements, so a check written as one would silently vanish
    sources = sorted((ROOT / "src" / "iqtomo").glob("*.py"))
    assert sources
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_the_readme_library_sketch_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, flags=re.DOTALL | re.MULTILINE)
    assert len(blocks) == 1
    namespace: dict = {}
    exec(compile(blocks[0], "README.md", "exec"), namespace)
    assert round(namespace["b_z"], 4) == -0.8826
    assert isinstance(namespace["rho"], iqtomo.DensityMatrix)

"""One rule per scalar: every reader of a seed, count, id or step size refuses
the same bad values with the same message, ``<name> must <rule>, got <value>``."""

import json

import numpy as np
import pytest

from iqtomo import (
    BVector,
    ComponentParams,
    DensityMatrix,
    IQDataset,
    MixtureParams,
    Trajectory,
    load_dataset,
    load_trajectory,
    observe_trajectory,
    sample_outcomes,
    simulate_trajectory,
    synthesize_iq,
    unitary_superoperator,
)
from iqtomo.cli import main
from iqtomo.qcore import json_integer, json_number
from iqtomo.readout import DatasetFormatError, simulate_datasets

SEED_RULE = "be an integer in [0, 2**64)"
# 2**64 is a valid step count or id: only seeds and shot counts have an upper bound
INTEGERS = ["true", "1.5", "-1", '"7"', "null"]
SEEDS = INTEGERS + [str(2**64)]
COUNTS = INTEGERS + ["0"]
# dt's rule depends on what is wrong with the value
DT_RULES = {
    "true": "hold JSON numbers",
    "-1": "be > 0",
    '"7"': "hold JSON numbers",
    "null": "hold JSON numbers",
    "0": "be > 0",
    "-0.02": "be > 0",
    "1e400": "hold finite numbers",
}

# (reader, name in the message, rule or None for dt, bad values as JSON text)
FIELDS = [
    ("config", "seed", SEED_RULE, SEEDS),
    # argparse refuses what is not an int before the rule sees it
    ("seed_flag", "seed", SEED_RULE, ["-1", str(2**64)]),
    ("config", "n_per_axis", "be an integer in [1, 2**63)", COUNTS + [str(2**63)]),
    ("config", "qhi.steps", "be an integer >= 1", COUNTS),
    ("config", "qhi.trajectories", "be an integer >= 1", COUNTS),
    ("config", "qhi.dt", None, DT_RULES),
    ("dataset_header", "header seed", SEED_RULE, SEEDS),
    ("trajectory_header", "trajectory id", "be an integer >= 0", INTEGERS),
    ("trajectory_header", "trajectory dt", None, DT_RULES),
    ("IQDataset", "seed", SEED_RULE, SEEDS),
    ("Trajectory", "trajectory id", "be an integer >= 0", INTEGERS),
    ("Trajectory", "trajectory dt", None, DT_RULES),
]
CASES = [
    pytest.param(reader, name, rule or DT_RULES[text], text, id=f"{reader}-{name}-{text}")
    for reader, name, rule, texts in FIELDS
    for text in texts
]
_OBSERVATIONS = (BVector(b=np.zeros(3), delta=np.zeros(3)),) * 2


def _message(reader, name, text, tmp_path, capsys):
    """The error message ``reader`` gives for ``name`` set to ``text``, with its
    exit code or error type and line checked and their prefix removed."""
    if reader in ("config", "seed_flag"):
        source = ["--seed", text]
        if reader == "config":
            section, _, key = name.rpartition(".")
            body = f'{{"{key}": {text}}}'
            path = tmp_path / "c.json"
            path.write_text(f'{{"{section}": {body}}}' if section else body, encoding="utf-8")
            source = ["--config", str(path)]
        code = main(["simulate", *source, "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 1 and err.startswith("error: ") and err.endswith("\n")
        assert not (tmp_path / "o").exists()
        return err[len("error: ") : -1]
    if reader == "dataset_header":
        path = tmp_path / "d.jsonl"
        path.write_text(f'{{"obs": "z", "seed": {text}}}\n{{"i": 0.0, "q": 0.0, "truth": null}}\n')
        with pytest.raises(DatasetFormatError) as err:
            load_dataset(str(path))
        assert err.value.line == 1
        return str(err.value).removeprefix("line 1: ")
    if reader == "trajectory_header":
        header = {"id": "0", "dt": "0.02"} | {name.split()[1]: text}
        step = '{{"step": {}, "b": [0.0, 0.0, 1.0]}}'
        path = tmp_path / "t.jsonl"
        path.write_text(
            f'{{"id": {header["id"]}, "dt": {header["dt"]}}}\n{step.format(0)}\n{step.format(1)}\n'
        )
        with pytest.raises(ValueError) as err:
            load_trajectory(str(path))
        assert str(err.value).startswith("line 1: ")
        return str(err.value).removeprefix("line 1: ")
    with pytest.raises(ValueError) as err:
        if reader == "IQDataset":
            IQDataset("z", [0.0], [0.0], [0], seed=json.loads(text))
        else:
            kwargs = {"trajectory_id": 0, "dt": 0.02} | {
                "trajectory_id" if name == "trajectory id" else "dt": json.loads(text)
            }
            Trajectory(observations=_OBSERVATIONS, **kwargs)
    return str(err.value)


@pytest.mark.parametrize("reader, name, rule, text", CASES)
def test_every_reader_refuses_a_bad_scalar_with_the_shared_message(
    tmp_path, capsys, reader, name, rule, text
):
    message = _message(reader, name, text, tmp_path, capsys)
    assert message == f"{name} must {rule}, got {json.loads(text)!r}"


class TestJsonInteger:
    @pytest.mark.parametrize("item", [0, 2**64 - 1, np.uint64(2**64 - 1), np.int8(5)])
    def test_python_and_numpy_integers_in_range_pass_as_int(self, item):
        value = json_integer(item, "seed", 0, 2**64)
        assert type(value) is int and value == int(item)

    @pytest.mark.parametrize("item", [True, np.bool_(True), 7.0, np.float64(7.0), "7", None, -1, 2**64])
    def test_everything_else_is_refused(self, item):
        with pytest.raises(ValueError, match=r"^seed must be an integer in \[0, 2\*\*64\), got "):
            json_integer(item, "seed", 0, 2**64)

    def test_bound_that_is_not_a_power_of_two_reads_as_a_number(self):
        with pytest.raises(ValueError, match=r"^count must be an integer in \[1, 3\), got 3$"):
            json_integer(3, "count", 1, 3)


@pytest.mark.parametrize("item", [np.float32(0.25), np.float64(0.25), np.int64(2), 0.25, 2])
def test_json_number_accepts_numpy_reals(item):
    value = json_number(item, "x")
    assert type(value) is float and value == float(item)


def test_float32_dt_still_constructs():
    trajectory = Trajectory(trajectory_id=0, dt=np.float32(0.02), observations=_OBSERVATIONS)
    assert type(trajectory.dt) is float and trajectory.dt == float(np.float32(0.02))


class TestReadoutEntryPoints:
    """A seed or shot count that would alias another (2**64 as 0, 1.5 as 1,
    True as 1) is refused once per call, with the shared message."""

    SEEDS = [2**64, -1, 1.5, True, np.float64(3.0)]
    # Generator.binomial takes a C long, so 2**63 shots would overflow it
    COUNTS = [0, 2.5, True, -3, 2**63]
    CASES = [("seed", SEED_RULE, v) for v in SEEDS] + [
        ("shot count", "be an integer in [1, 2**63)", v) for v in COUNTS
    ]
    MIXTURE = MixtureParams(
        zero=ComponentParams(0.5, np.array([2.5, 2.0]), np.eye(2)),
        one=ComponentParams(0.5, np.array([-2.5, 2.0]), np.eye(2)),
    )
    RHO = DensityMatrix(np.eye(2) / 2)

    @staticmethod
    def _refuses(call, name, rule, value):
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == f"{name} must {rule}, got {value!r}"

    @staticmethod
    def _args(name, value):
        """(shot count, seed) with ``name`` set to ``value`` and the other valid."""
        return (value, 1) if name == "shot count" else (10, value)

    @pytest.mark.parametrize("name, rule, value", CASES)
    def test_sample_outcomes(self, name, rule, value):
        n, seed = self._args(name, value)
        self._refuses(lambda: sample_outcomes(self.RHO, "z", n, seed), name, rule, value)

    @pytest.mark.parametrize(
        "name, rule, value",
        [c for c in CASES if c[0] == "seed"]
        + [(k, "be an integer >= 0", v) for k in ("n0", "n1") for v in (-1, 2.5, True)],
    )
    def test_synthesize_iq(self, name, rule, value):
        kwargs = {"n0": 3, "n1": 4, "seed": 1} | {name: value}
        self._refuses(
            lambda: synthesize_iq(theta0=self.MIXTURE.zero, theta1=self.MIXTURE.one, **kwargs),
            name,
            rule,
            value,
        )

    @pytest.mark.parametrize("name, rule, value", CASES)
    def test_simulate_datasets(self, name, rule, value):
        n, seed = self._args(name, value)
        self._refuses(lambda: simulate_datasets(self.RHO, self.MIXTURE, n, seed), name, rule, value)

    @pytest.mark.parametrize("name, rule, value", CASES)
    def test_observe_trajectory(self, name, rule, value):
        n, seed = self._args(name, value)
        traj = simulate_trajectory(unitary_superoperator(np.eye(2)), self.RHO, 2)
        self._refuses(
            lambda: observe_trajectory(traj, mode="sampled", n=n, theta=self.MIXTURE, seed=seed),
            name,
            rule,
            value,
        )

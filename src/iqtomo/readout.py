"""Dispersive readout simulation and I-Q dataset persistence.

Measurement shots are binomial draws against the diagonal of the measured
state in each Pauli eigenbasis; each shot is then given an I-Q plane
coordinate drawn from its class cloud (Gaussian for the qubit states,
uniform disc for contamination).

All randomness flows through a counter-based Philox bit generator, with
normal deviates produced by an explicit Box-Muller transform on its
uniform stream, so identical seeds give bit-identical datasets across
platforms.

One core draws every I-Q point: ``_draw_points`` takes the outcome counts,
both clouds' means and Cholesky factors (``cloud_factors``, which also
rejects a numerically singular covariance) and one generator.
``synthesize_iq`` calls it and then shuffles and records provenance.
Sampled trajectory observation computes ``cloud_factors`` once per
trajectory and calls ``axis_points`` once per (step, axis) block, which
draws that block's outcome count and points from their own two streams
and skips the shuffle.  A block does not build a generator per stream: it
re-keys one Philox generator, which then draws the same numbers as a new
generator with that key.  ``ContaminationSpec`` keeps its disc inside the
float range, so every drawn coordinate is finite, with no numpy warning.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import re
import tempfile
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .discriminate import (
    LABEL_NAMES,
    LABEL_NOISE,
    LABEL_ONE,
    LABEL_ZERO,
    ComponentParams,
    ContaminationSpec,
    MixtureParams,
)
from .qcore import (
    AXES, DensityMatrix, bloch_from_density, json_integer, json_number, json_object, json_text
)

_MASK64 = 0xFFFFFFFFFFFFFFFF
_GOLDEN64 = 0x9E3779B97F4A7C15
# the labels a dataset's truth column may hold: unknown, zero, one, noise
_TRUTH_CODES = (-1, LABEL_ZERO, LABEL_ONE, LABEL_NOISE)


# (mean, Cholesky factor of the covariance) of the zero cloud, then the one cloud
CloudFactors = tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]


class DatasetFormatError(ValueError):
    """Malformed dataset file; carries the offending 1-based line number."""

    def __init__(self, message: str, line: int):
        self.line = line
        super().__init__(f"line {line}: {message}")


def axis_seed(base_seed: int, axis: str) -> int:
    """Per-axis stream seed: base XOR (axis index + 1) * golden-ratio mix."""
    idx = AXES.index(axis)
    return (int(base_seed) ^ ((idx + 1) * _GOLDEN64 & _MASK64)) & _MASK64


def _splitmix64(x: int) -> int:
    x = (x + _GOLDEN64) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def mix_seed(base_seed: int, *salts: int) -> int:
    """Derive an independent substream seed from a base seed and salts."""
    out = int(base_seed) & _MASK64
    for salt in salts:
        out = _splitmix64(out ^ ((int(salt) * _GOLDEN64) & _MASK64))
    return out


def _philox(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.uint64(seed & _MASK64)))


def _rekey(rng: np.random.Generator, seed: int) -> np.random.Generator:
    """``rng``, a Philox generator, re-keyed in place to the stream of ``_philox(seed)``."""
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": np.zeros(4, np.uint64), "key": np.array([seed & _MASK64, 0], np.uint64)},
        "buffer": np.zeros(4, np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return rng


def _standard_normal(rng: np.random.Generator, n: int) -> np.ndarray:
    """Box-Muller deviates from the counter-based uniform stream."""
    if n == 0:
        return np.empty(0)
    pairs = (n + 1) // 2
    u1 = 1.0 - rng.random(pairs)  # (0, 1], keeps the log finite
    u2 = rng.random(pairs)
    radius = np.sqrt(-2.0 * np.log(u1))
    angle = 2.0 * np.pi * u2
    out = np.empty(2 * pairs)
    out[0::2] = radius * np.cos(angle)
    out[1::2] = radius * np.sin(angle)
    return out[:n]


def _uniform_disc(rng: np.random.Generator, n: int, center: tuple[float, float], radius: float) -> np.ndarray:
    if n == 0:
        return np.empty((0, 2))
    r = radius * np.sqrt(rng.random(n))
    phi = 2.0 * np.pi * rng.random(n)
    return np.stack([center[0] + r * np.cos(phi), center[1] + r * np.sin(phi)], axis=1)


@dataclass(frozen=True, eq=False)
class IQDataset:
    """One observable's worth of I-Q readout records.

    ``truth`` holds per-sample generator labels as small ints
    (0 = zero, 1 = one, 2 = noise, -1 = unknown).  The dataset is immutable:
    ``i``, ``q`` and ``truth`` are its own read-only contiguous copies, so
    every check made here still holds when the dataset is saved.
    """

    observable: str
    i: np.ndarray
    q: np.ndarray
    truth: np.ndarray
    seed: int
    mixture: Optional[MixtureParams] = None

    def __post_init__(self) -> None:
        if self.observable not in AXES:
            raise ValueError(f"observable must be one of {AXES}, got {self.observable!r}")
        if self.mixture is not None and not isinstance(self.mixture, MixtureParams):
            raise ValueError(f"mixture must be None or a MixtureParams, got {self.mixture!r}")
        i = np.array(self.i, dtype=float)
        q = np.array(self.q, dtype=float)
        truth = np.asarray(self.truth)
        if not (i.shape == q.shape == truth.shape) or i.ndim != 1:
            raise ValueError("i, q and truth must be 1-d arrays of equal length")
        if i.size < 1:
            raise ValueError("dataset must contain at least one sample")
        if not (np.all(np.isfinite(i)) and np.all(np.isfinite(q))):
            raise ValueError("i/q coordinates must be finite")
        # before the int8 cast, which would wrap 258 to 2
        if not np.isin(truth, _TRUTH_CODES).all():
            raise ValueError(f"truth labels must be among {list(_TRUTH_CODES)}")
        object.__setattr__(self, "seed", json_integer(self.seed, "seed", 0, 2**64))
        truth = truth.astype(np.int8)  # always a copy
        for name, arr in (("i", i), ("q", q), ("truth", truth)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def n_samples(self) -> int:
        return int(self.i.size)

    def points(self) -> np.ndarray:
        return np.stack([self.i, self.q], axis=1)

    def truth_counts(self) -> tuple[int, int, int]:
        """(n_zero, n_one, n_noise) from generator labels; unknowns ignored."""
        return (
            int(np.count_nonzero(self.truth == LABEL_ZERO)),
            int(np.count_nonzero(self.truth == LABEL_ONE)),
            int(np.count_nonzero(self.truth == LABEL_NOISE)),
        )


def sample_outcomes(rho: DensityMatrix, axis: str, n: int, seed: int) -> tuple[int, int]:
    """Draw n projective outcomes for one Pauli axis; returns (n0, n1).

    The zero-outcome probability is p0 = (1 + r_axis) / 2 for r the Bloch
    vector of ``rho``.
    """
    if n < 1:
        raise ValueError("shot count must be >= 1")
    n0 = _outcome_count(bloch_from_density(rho)[AXES.index(axis)], n, _philox(seed))
    return n0, n - n0


def _outcome_count(r: float, n: int, rng: np.random.Generator) -> int:
    """Zero outcomes among ``n`` shots of an axis whose Bloch component is ``r``."""
    p0 = min(max(0.5 * (1.0 + r), 0.0), 1.0)
    return int(np.count_nonzero(rng.random(n) < p0))


def cloud_factors(theta0: ComponentParams, theta1: ComponentParams) -> CloudFactors:
    """(mean, Cholesky factor) of each cloud, zero first.

    Raises ValueError for a covariance whose determinant is at most 1e-12.
    """
    factors = []
    for comp in (theta0, theta1):
        if float(np.linalg.det(comp.cov)) <= 1e-12:
            raise ValueError("component covariance is numerically singular")
        factors.append((comp.mean, np.linalg.cholesky(comp.cov)))
    return factors[0], factors[1]


def _draw_points(
    n0: int,
    n1: int,
    factors: CloudFactors,
    contamination: Optional[ContaminationSpec],
    rng: np.random.Generator,
) -> np.ndarray:
    """I-Q points of ``n0`` zero, ``n1`` one and ``floor(w (n0 + n1) / (1 - w))``
    contamination shots of weight ``w``, drawn from ``rng`` and stacked in that order."""
    blocks = []
    for count, (mean, chol) in zip((n0, n1), factors):
        z = _standard_normal(rng, 2 * count).reshape(count, 2)
        blocks.append(mean + z @ chol.T)
    if contamination is not None:
        w = contamination.weight
        n_noise = math.floor(w * (n0 + n1) / (1.0 - w))
        blocks.append(_uniform_disc(rng, n_noise, contamination.center, contamination.radius))
    return np.concatenate(blocks, axis=0)


def axis_points(
    r: float,
    n: int,
    factors: CloudFactors,
    contamination: Optional[ContaminationSpec],
    outcome_seed: int,
    iq_seed: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """The I-Q points :func:`simulate_axis` draws for ``n`` shots of an axis
    with Bloch component ``r``, before its shuffle: zero-cloud points first,
    then one-cloud points, then contamination.  ``factors`` come from
    :func:`cloud_factors`.  ``rng`` is any Philox generator: it is re-keyed
    to ``outcome_seed``, then to ``iq_seed``, so it draws what two new
    generators with those keys would."""
    n0 = _outcome_count(r, n, _rekey(rng, outcome_seed))
    return _draw_points(n0, n - n0, factors, contamination, _rekey(rng, iq_seed))


def synthesize_iq(
    n0: int,
    n1: int,
    theta0: ComponentParams,
    theta1: ComponentParams,
    contamination: Optional[ContaminationSpec] = None,
    seed: int = 0,
    observable: str = "z",
) -> IQDataset:
    """Generate an I-Q dataset with exact class counts.

    ``n0`` and ``n1`` samples are drawn from the two Gaussian clouds and
    ``floor(w (n0 + n1) / (1 - w))`` contamination samples from the uniform
    disc, so the realised contamination fraction approximates its weight
    ``w``.  Sample order is a seed-deterministic shuffle, and the recorded
    mixture provenance carries the realised class fractions.
    """
    if n0 < 0 or n1 < 0 or n0 + n1 < 1:
        raise ValueError("need n0, n1 >= 0 with n0 + n1 >= 1")
    n_state = n0 + n1
    rng = _philox(seed)
    xy = _draw_points(n0, n1, cloud_factors(theta0, theta1), contamination, rng)
    truth = np.concatenate(
        [
            np.full(n0, LABEL_ZERO, dtype=np.int8),
            np.full(n1, LABEL_ONE, dtype=np.int8),
            np.full(xy.shape[0] - n_state, LABEL_NOISE, dtype=np.int8),
        ]
    )
    perm = rng.permutation(xy.shape[0])
    xy = xy[perm]
    truth = truth[perm]

    noise_weight = contamination.weight if contamination is not None else 0.0
    state_fraction = 1.0 - noise_weight
    mixture = MixtureParams(
        zero=ComponentParams(state_fraction * n0 / n_state, theta0.mean, theta0.cov),
        one=ComponentParams(state_fraction * n1 / n_state, theta1.mean, theta1.cov),
        noise=contamination,
    )
    return IQDataset(
        observable=observable,
        i=xy[:, 0],
        q=xy[:, 1],
        truth=truth,
        seed=int(seed),
        mixture=mixture,
    )


def simulate_axis(
    state: DensityMatrix,
    axis: str,
    n: int,
    mixture: MixtureParams,
    outcome_seed: int,
    iq_seed: int,
) -> IQDataset:
    """``n`` shots of one Pauli axis: outcomes drawn with ``outcome_seed``,
    then their I-Q points drawn from ``mixture`` with ``iq_seed``."""
    n0, n1 = sample_outcomes(state, axis, n, outcome_seed)
    return synthesize_iq(
        n0,
        n1,
        mixture.zero,
        mixture.one,
        contamination=mixture.noise,
        seed=iq_seed,
        observable=axis,
    )


def simulate_datasets(
    state: DensityMatrix, mixture: MixtureParams, n: int, seed: int
) -> dict[str, IQDataset]:
    """The three per-axis datasets of one run; axis ``a`` draws from ``axis_seed(seed, a)``."""
    datasets = {}
    for axis in AXES:
        stream = axis_seed(seed, axis)
        datasets[axis] = simulate_axis(state, axis, n, mixture, stream, mix_seed(stream, 1))
    return datasets


# ---------------------------------------------------------------------------
# Persistence: JSON-lines datasets, CSV export
# ---------------------------------------------------------------------------


def write_text_atomic(path: str, text: str) -> None:
    """Write via a sibling temp file + rename so readers never see partials;
    ValueError for an empty path, which names no file."""
    if not path:
        raise ValueError("output path must not be empty")
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def write_csv_lines(path: str, header: Sequence[str], lines: Iterable[str]) -> None:
    """Write a header row and preformatted newline-terminated rows, atomically.

    Every CSV artifact goes through here.  Its fields are ints,
    ``float.__repr__`` strings, axis, label and method names; none of these
    holds a comma, a quote or a line break, so no field needs CSV quoting.
    """
    write_text_atomic(path, ",".join(header) + "\n" + "".join(lines))


# save_dataset writes each sample line as json.dumps(record, sort_keys=True)
# would: keys in the order i, q, truth and floats printed by float.__repr__.
_LABEL_TOKENS = tuple(json.dumps(name) for name in LABEL_NAMES)
_TOKEN_CODES = {token: code for code, token in enumerate(_LABEL_TOKENS)} | {"null": -1}
# JSON numbers with a fraction or an exponent; json.loads parses these with
# float(), as numpy does.  Integers stay on the json.loads path, which keeps
# them ints: "-0" loads as 0.0, not -0.0, and 400 digits overflow float().
_JSON_FLOAT = r"-?(?:0|[1-9][0-9]*)(?:\.[0-9]+(?:[eE][+-]?[0-9]+)?|[eE][+-]?[0-9]+)"
_CANONICAL_SAMPLE = re.compile(
    rf'^\{{"i": ({_JSON_FLOAT}), "q": ({_JSON_FLOAT}), "truth": ({"|".join(_TOKEN_CODES)})\}}\n',
    re.MULTILINE,
)
_BLOCK_CHARS = 1 << 16


def save_dataset(dataset: IQDataset, path: str) -> None:
    """Write a dataset as JSON-lines: one header line, one line per sample.

    Every sample line reads ``{"i": <float repr>, "q": <float repr>,
    "truth": "zero"|"one"|"noise"|null}``.
    """
    header: dict = {"obs": dataset.observable, "seed": dataset.seed}
    if dataset.mixture is not None:
        header["mixture"] = dataset.mixture.to_json_dict()
    lines = [json.dumps(header, sort_keys=True)]
    lines += [
        f'{{"i": {i_val!r}, "q": {q_val!r}, "truth": {_LABEL_TOKENS[t_val] if t_val >= 0 else "null"}}}'
        for i_val, q_val, t_val in zip(
            dataset.i.tolist(), dataset.q.tolist(), dataset.truth.tolist()
        )
    ]
    write_text_atomic(path, "\n".join(lines) + "\n")


def load_dataset(path: str) -> IQDataset:
    """Read a JSON-lines dataset; reports the line number of any defect.

    Lines are numbered as ``str.splitlines`` splits them.  Samples are read
    in blocks of about 64 KiB.  A block made only of canonical sample lines,
    as :func:`save_dataset` writes them, with finite coordinates, is
    converted with one numpy call per column; any other block is parsed and
    checked line by line, and that path reports every defect.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            blocks = _line_blocks(handle)
            try:
                (observable, seed, mixture), parsed, n_lines = _parse_blocks(blocks)
            except DatasetFormatError:
                for _ in blocks:  # text that does not decode outranks a malformed line
                    pass
                raise
    except UnicodeDecodeError:
        with open(path, "r", encoding="utf-8") as handle:
            handle.read()  # raises again, with the byte offset counted from the file start
        raise
    if not any(i_part.size for i_part, _, _ in parsed):
        raise DatasetFormatError("dataset contains no samples", line=n_lines)
    i_arr, q_arr, truth = (np.concatenate(parts) for parts in zip(*parsed))
    return IQDataset(observable, i_arr, q_arr, truth, seed=seed, mixture=mixture)


def _line_blocks(handle) -> Iterator[str]:
    """The text of ``handle`` in pieces of whole lines, about _BLOCK_CHARS long."""
    while lines := handle.readlines(_BLOCK_CHARS):
        yield "".join(lines)


def _parse_blocks(blocks: Iterator[str]) -> tuple[tuple, list[list], int]:
    """Header fields, each block's (i, q, truth) columns, and the file's line count."""
    first = next(blocks, "")
    if not first:
        raise DatasetFormatError("empty file, expected a header line", line=1)
    # the header ends at the first "\n" or at an earlier splitlines break
    first_line = first[: first.find("\n") + 1 or len(first)].splitlines(keepends=True)[0]
    header = _parse_header(first_line.splitlines()[0])
    parsed = []
    next_line = 2
    for block in itertools.chain([first[len(first_line) :]], blocks):
        if block:
            *columns, n_block_lines = _parse_samples(block, next_line)
            parsed.append(columns)
            next_line += n_block_lines
    return header, parsed, next_line - 1


def _parse_header(raw: str) -> tuple[str, int, Optional[MixtureParams]]:
    """(observable, seed, mixture) from the header line."""
    try:
        header = json_object(
            json_text(raw, "header"), "header", required=("obs",), optional=("seed", "mixture")
        )
        observable = header["obs"]
        if observable not in AXES:
            raise ValueError(f"unknown observable {observable!r}")
        seed = json_integer(header.get("seed", 0), "header seed", 0, 2**64)
        mixture = header.get("mixture")
        if mixture is not None:
            try:
                mixture = MixtureParams.from_json_dict(mixture)
            except ValueError as exc:
                raise ValueError(f"invalid mixture parameters: {exc}") from exc
    except ValueError as exc:
        raise DatasetFormatError(str(exc), line=1) from exc
    return observable, seed, mixture


def _parse_samples(block: str, first_line: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """(i, q, truth, line count) of a block whose first line is ``first_line``."""
    text = block if block.endswith("\n") else block + "\n"
    rows = _CANONICAL_SAMPLE.findall(text)
    # a match is always one whole line, so as many matches as lines is every line
    if rows and len(rows) == text.count("\n"):
        i_txt, q_txt, t_txt = zip(*rows)
        i_vals = np.array(i_txt, dtype=float)
        q_vals = np.array(q_txt, dtype=float)
        # a coordinate such as 1e400 converts to inf; the per-line path reports its line
        if np.isfinite(i_vals).all() and np.isfinite(q_vals).all():
            truth = np.array([_TOKEN_CODES[token] for token in t_txt], dtype=np.int8)
            return i_vals, q_vals, truth, len(rows)
    raw_lines = block.splitlines()
    values: list[float] = []  # i, q and truth code of each sample in turn
    for lineno, raw in enumerate(raw_lines, start=first_line):
        if not raw.strip():
            continue
        try:
            record = json_object(
                json_text(raw, "sample"), "sample", required=("i", "q"), optional=("truth",)
            )
            i_val = json_number(record["i"], "sample i")
            q_val = json_number(record["q"], "sample q")
            label = record.get("truth")
            if label is not None and label not in LABEL_NAMES:
                raise ValueError(f"unknown truth label {label!r}")
            values += (i_val, q_val, -1 if label is None else LABEL_NAMES.index(label))
        except ValueError as exc:
            raise DatasetFormatError(str(exc), line=lineno) from exc
    i_col, q_col, t_col = np.array(values, dtype=float).reshape(-1, 3).T
    return i_col, q_col, t_col.astype(np.int8), len(raw_lines)


def export_csv(dataset: IQDataset, path: str) -> None:
    """Write samples as CSV with columns obs, i, q, truth."""
    obs = dataset.observable
    write_csv_lines(
        path,
        ["obs", "i", "q", "truth"],
        (
            f"{obs},{i_val!r},{q_val!r},{LABEL_NAMES[t_val] if t_val >= 0 else ''}\n"
            for i_val, q_val, t_val in zip(
                dataset.i.tolist(), dataset.q.tolist(), dataset.truth.tolist()
            )
        ),
    )

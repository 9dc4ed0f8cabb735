"""Dispersive readout simulation and I-Q dataset persistence.

Measurement shots are binomial draws against the diagonal of the measured
state in each Pauli eigenbasis; each shot is then given an I-Q plane
coordinate drawn from its class cloud (Gaussian for the qubit states,
uniform disc for contamination).

All randomness flows through a counter-based Philox bit generator: normal
deviates are numpy's ziggurat (``standard_normal``), outcome counts are
``binomial`` draws, and no BLAS call draws a point.  A fixed seed gives the
same bits under one numpy release; NEP 19 does not freeze the ziggurat or
binomial streams across releases.

One core draws every I-Q point: ``draw_shots`` takes the outcome counts of
one or more blocks, one stream seed per block, both clouds' means and
Cholesky factors (``cloud_factors``, which also rejects a numerically
singular covariance) and the re-key function of one Philox generator
(``rekeyer``: it swaps the key of one state template), which it calls per
block; the generator then draws what a new one with that key would.  It
writes I and Q as two contiguous columns: every block's zero shots, then
every block's one shots, then every block's contamination, and runs each
cloud's Cholesky map and the disc transform once over each segment.
``synthesize_iq`` draws one block and then permutes the two columns and
the truth column and records provenance; sampled trajectory observation
draws the three axes of one step together (``outcome_counts`` re-keys the
same generator for their outcome counts) and skips the permutation.
``ContaminationSpec`` keeps its disc inside the float range, so every
drawn coordinate is finite, with no numpy warning.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import re
import tempfile
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, Sequence

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
Rekey = Callable[[int], "np.random.Generator"]  # see rekeyer; a string, so import skips numpy.random


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


def trajectory_seeds(seed: int, trajectory_id: int, n_states: int) -> list[list[list[int]]]:
    """``[stream, mix_seed(stream, 1), mix_seed(stream, 2)]`` for each step, then axis index, of a
    trajectory, ``stream = mix_seed(seed, trajectory_id, step, axis index)``: each salt level
    in one ``_splitmix64`` pass over uint64 arrays, on which products wrap silently."""
    salts = np.arange(max(n_states, len(AXES)), dtype=np.uint64) * np.uint64(_GOLDEN64)
    steps = _splitmix64(np.uint64(mix_seed(seed, trajectory_id)) ^ salts[:n_states])
    streams = _splitmix64(steps[:, None, None] ^ salts[: len(AXES), None])
    return np.concatenate([streams, _splitmix64(streams ^ salts[1:3])], axis=2).tolist()


def rekeyer(rng: np.random.Generator) -> Rekey:
    """A function that re-keys ``rng``, a Philox generator, in place to the stream of
    a new ``Philox(key=seed)`` and returns it.  It sets one state template, built
    here, changing only its key; the generator copies what it is set to."""
    state = {"bit_generator": "Philox", "state": {"counter": [0] * 4, "key": [0, 0]},
             "buffer": [0] * 4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}

    def rekey(seed: int) -> np.random.Generator:
        state["state"]["key"][0] = seed & _MASK64
        rng.bit_generator.state = state
        return rng

    return rekey


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
    n = json_integer(n, "shot count", 1, 2**63)
    seed = json_integer(seed, "seed", 0, 2**64)
    rekey = rekeyer(np.random.Generator(np.random.Philox(key=0)))
    return outcome_counts(bloch_from_density(rho)[AXES.index(axis)], n, seed, rekey)


def outcome_counts(r: float, n: int, seed: int, rekey: Rekey) -> tuple[int, int]:
    """(n0, n1) among ``n`` shots of an axis whose Bloch component is ``r``: one
    binomial draw by the generator that ``rekey`` (see :func:`rekeyer`) keys to ``seed``."""
    p0 = min(max(0.5 * (1.0 + r), 0.0), 1.0)
    n0 = int(rekey(seed).binomial(n, p0))
    return n0, n - n0


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


def _cholesky_map(i: np.ndarray, q: np.ndarray, mean: np.ndarray, chol: np.ndarray) -> None:
    """``(i, q) <- mean + chol @ (i, q)`` per shot, in place.

    Each coordinate is two products and one sum, as in the row product
    ``z @ chol.T``, then the mean; one ufunc per operation, so no
    multiply-add is fused and a shot maps the same alone or among others.
    """
    lower = i * chol[1, 0]
    i *= chol[0, 0]
    i += q * chol[0, 1]
    q *= chol[1, 1]
    q += lower
    i += mean[0]
    q += mean[1]


def draw_shots(
    counts: Sequence[tuple[int, int]],
    seeds: Sequence[int],
    factors: CloudFactors,
    contamination: Optional[ContaminationSpec],
    rekey: Rekey,
) -> tuple[np.ndarray, np.ndarray, list[list[slice]]]:
    """I and Q columns of the shots of every block, and each block's (zero,
    one, contamination) segments of them.

    Block k has ``counts[k] = (n0, n1)`` state shots and ``floor(w (n0 + n1)
    / (1 - w))`` contamination shots of weight ``w``.  It draws from the
    generator that ``rekey`` (see :func:`rekeyer`) keys to ``seeds[k]``:
    standard normals for the zero shots, then the one shots, then uniforms
    for the contamination, each segment as its I column, then its Q column.
    The columns hold every block's zero shots, then every block's one shots,
    then every block's contamination, each in block order.  ``factors``
    come from :func:`cloud_factors`.
    """
    w = 0.0 if contamination is None else contamination.weight
    sizes = [n0 for n0, _ in counts] + [n1 for _, n1 in counts]
    sizes += [math.floor(w * (n0 + n1) / (1.0 - w)) for n0, n1 in counts]
    edges = list(itertools.accumulate(sizes, initial=0))
    cuts = [slice(a, b) for a, b in zip(edges, edges[1:])]
    blocks = [cuts[k :: len(counts)] for k in range(len(counts))]
    i = np.empty(edges[-1])
    q = np.empty(edges[-1])
    for block, seed in zip(blocks, seeds):
        rng = rekey(seed)
        for draw, cut in zip((rng.standard_normal, rng.standard_normal, rng.random), block):
            draw(out=i[cut])
            draw(out=q[cut])
    zero_end, state_end = edges[len(counts)], edges[2 * len(counts)]
    for (mean, chol), part in zip(factors, (slice(0, zero_end), slice(zero_end, state_end))):
        _cholesky_map(i[part], q[part], mean, chol)
    if contamination is not None:
        # the disc: radius r sqrt(u) from the I uniforms, angle 2 pi u from the Q ones
        radius, angle = i[state_end:], q[state_end:]
        np.sqrt(radius, out=radius)
        radius *= contamination.radius
        angle *= 2.0 * np.pi
        cos = np.cos(angle)
        np.sin(angle, out=angle)
        angle *= radius
        radius *= cos
        radius += contamination.center[0]
        angle += contamination.center[1]
    return i, q, blocks


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
    n0 = json_integer(n0, "n0", 0)
    n1 = json_integer(n1, "n1", 0)
    seed = json_integer(seed, "seed", 0, 2**64)
    if n0 + n1 < 1:
        raise ValueError("need n0, n1 >= 0 with n0 + n1 >= 1")
    n_state = n0 + n1
    rng = np.random.Generator(np.random.Philox(key=0))  # draw_shots keys it to seed
    i, q, _ = draw_shots([(n0, n1)], [seed], cloud_factors(theta0, theta1), contamination, rekeyer(rng))
    truth = np.repeat(
        np.array([LABEL_ZERO, LABEL_ONE, LABEL_NOISE], dtype=np.int8), [n0, n1, i.size - n_state]
    )
    perm = rng.permutation(i.size)

    noise_weight = contamination.weight if contamination is not None else 0.0
    state_fraction = 1.0 - noise_weight
    mixture = MixtureParams(
        zero=ComponentParams(state_fraction * n0 / n_state, theta0.mean, theta0.cov),
        one=ComponentParams(state_fraction * n1 / n_state, theta1.mean, theta1.cov),
        noise=contamination,
    )
    return IQDataset(
        observable=observable,
        i=i[perm],
        q=q[perm],
        truth=truth[perm],
        seed=seed,
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
    n = json_integer(n, "shot count", 1, 2**63)
    seed = json_integer(seed, "seed", 0, 2**64)
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
_CANONICAL_BLOCK = re.compile(
    rf'(?:\{{"i": {_JSON_FLOAT}, "q": {_JSON_FLOAT}, "truth": (?:{"|".join(_TOKEN_CODES)})\}}\n)+'
)
# deleting these characters leaves a canonical line's three values, space-separated
_STRIP = str.maketrans("", "", '{}":,iqtruh')
_STRIPPED_CODES = {token.translate(_STRIP): code for token, code in _TOKEN_CODES.items()}
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
    in blocks of about 64 KiB.  A block that one regular-expression match
    shows to hold only canonical sample lines, as :func:`save_dataset`
    writes them, is stripped to its values and split into tokens once, and
    each column is converted with one numpy call.  A block with a
    non-finite coordinate, or any other block, is parsed and checked line
    by line, and that path reports every defect.
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
    if _CANONICAL_BLOCK.fullmatch(text):
        tokens = text.translate(_STRIP).split()
        i_vals = np.array(tokens[0::3], dtype=float)
        q_vals = np.array(tokens[1::3], dtype=float)
        # a coordinate such as 1e400 converts to inf; the per-line path reports its line
        if np.isfinite(i_vals).all() and np.isfinite(q_vals).all():
            truth = np.fromiter(map(_STRIPPED_CODES.__getitem__, tokens[2::3]), np.int8, i_vals.size)
            return i_vals, q_vals, truth, i_vals.size
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

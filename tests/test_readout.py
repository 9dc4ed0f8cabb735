import dataclasses
import json
import os
import tempfile
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iqtomo import (
    ComponentParams,
    ContaminationSpec,
    DatasetFormatError,
    DensityMatrix,
    IQDataset,
    axis_seed,
    export_csv,
    load_dataset,
    sample_outcomes,
    save_dataset,
    synthesize_iq,
)
from iqtomo.readout import _rekey
from oracles import load_dataset_reference, save_dataset_reference

GOLDEN = 0x9E3779B97F4A7C15
MASK = 0xFFFFFFFFFFFFFFFF


def _same_dataset(a: IQDataset, b: IQDataset) -> bool:
    return (
        a.observable == b.observable
        and a.seed == b.seed
        and np.array_equal(a.i, b.i)
        and np.array_equal(a.q, b.q)
        and np.array_equal(a.truth, b.truth)
    )


def _bit_identical(a: IQDataset, b: IQDataset) -> bool:
    """Same columns bit for bit (so -0.0 differs from 0.0), same header fields."""
    return (
        _same_dataset(a, b)
        and a.i.tobytes() == b.i.tobytes()
        and a.q.tobytes() == b.q.tobytes()
        and (a.mixture is None) == (b.mixture is None)
        and (a.mixture is None or a.mixture.to_json_dict() == b.mixture.to_json_dict())
    )


def _load_outcome(load, path):
    """What a loader makes of a file: its dataset, or its error type, message and line."""
    try:
        return load(path)
    except ValueError as exc:
        return (type(exc).__name__, str(exc), getattr(exc, "line", None))


def test_axis_seed_derivation():
    for base in (0, 1, 2**63 + 17):
        for idx, axis in enumerate("xyz"):
            assert axis_seed(base, axis) == (base ^ ((idx + 1) * GOLDEN & MASK)) & MASK


def test_axis_seed_rejects_unknown_axis():
    with pytest.raises(ValueError):
        axis_seed(0, "q")


@pytest.mark.parametrize("key", [0, 1, 2**64 - 1])
def test_rekeyed_generator_draws_the_stream_of_a_new_one(key):
    rng = np.random.Generator(np.random.Philox(key=12345))
    rng.random(5)
    rng.integers(0, 2**32, dtype=np.uint32)  # leaves a buffered half word behind
    _rekey(rng, key)
    fresh = np.random.Generator(np.random.Philox(key=key))
    assert rng.random(9).tobytes() == fresh.random(9).tobytes()
    assert rng.integers(0, 2**32, size=5, dtype=np.uint32).tobytes() == fresh.integers(
        0, 2**32, size=5, dtype=np.uint32
    ).tobytes()
    assert rng.bit_generator.state["state"]["key"].tolist() == [key, 0]


class TestSampleOutcomes:
    def test_pure_zero_all_zero_outcomes(self):
        rho = DensityMatrix(np.diag([1.0, 0.0]))
        assert sample_outcomes(rho, "z", 250, 9) == (250, 0)

    def test_maximally_mixed_concentrates(self):
        n0, n1 = sample_outcomes(DensityMatrix(np.eye(2) / 2), "z", 10**6, 1)
        assert n0 + n1 == 10**6
        assert abs(n0 / 10**6 - 0.5) <= 0.002

    def test_reference_state_z_counts(self, rho22):
        # p0 = (1 - 0.888)/2 = 0.056, so n0 concentrates near 560
        n0, _ = sample_outcomes(rho22, "z", 10**4, 123)
        assert abs(n0 - 560) <= 127

    def test_deterministic(self, rho22):
        assert sample_outcomes(rho22, "y", 5000, 77) == sample_outcomes(rho22, "y", 5000, 77)

    def test_rejects_empty(self, rho22):
        with pytest.raises(ValueError, match="^shot count must be >= 1$"):
            sample_outcomes(rho22, "z", 0, 1)

    def test_binomial_concentration_over_seeds(self, rho22):
        n = 10**6
        p = (1.0 - 0.888) / 2
        bound = 4 * np.sqrt(p * (1 - p) / n)
        bad = 0
        for seed in range(100):
            n0, _ = sample_outcomes(rho22, "z", n, seed)
            if abs(n0 / n - p) > bound:
                bad += 1
        assert bad <= 1


class TestSynthesizeIq:
    def test_exact_label_counts(self, sep5_mixture):
        noise = ContaminationSpec(weight=0.1)
        d = synthesize_iq(
            30, 70, sep5_mixture.zero, sep5_mixture.one, contamination=noise, seed=4
        )
        zeros, ones, noisy = d.truth_counts()
        assert (zeros, ones) == (30, 70)
        assert noisy == int(0.1 * 100 / 0.9)  # floor(alpha*n/(1-alpha))

    def test_rejects_empty(self, sep5_mixture):
        with pytest.raises(ValueError):
            synthesize_iq(0, 0, sep5_mixture.zero, sep5_mixture.one, seed=1)

    def test_rejects_singular_covariance(self):
        # outright singular matrices never get past ComponentParams
        with pytest.raises(ValueError):
            ComponentParams(0.5, np.zeros(2), np.array([[1.0, 1.0], [1.0, 1.0]]))
        # near-singular ones (det <= 1e-12) are refused by the synthesizer
        flat = ComponentParams(0.5, np.zeros(2), np.diag([1e-5, 1e-8]))
        other = ComponentParams(0.5, np.ones(2), np.eye(2))
        with pytest.raises(ValueError, match="^component covariance is numerically singular$"):
            synthesize_iq(5, 5, flat, other, seed=1)
        with pytest.raises(ValueError, match="^component covariance is numerically singular$"):
            synthesize_iq(5, 5, other, flat, seed=1)

    def test_tight_cloud_concentrates(self):
        theta0 = ComponentParams(0.5, np.array([2.5, 2.0]), 1e-6 * np.eye(2))
        theta1 = ComponentParams(0.5, np.array([-2.5, 2.0]), np.eye(2))
        d = synthesize_iq(5, 0, theta0, theta1, seed=2)
        assert np.abs(d.points() - [2.5, 2.0]).max() <= 0.01

    def test_sample_means_near_component_means(self, sep5_mixture):
        d = synthesize_iq(5000, 5000, sep5_mixture.zero, sep5_mixture.one, seed=8)
        pts = d.points()
        for code, mean in ((0, [2.5, 2.0]), (1, [-2.5, 2.0])):
            got = pts[d.truth == code].mean(axis=0)
            assert np.abs(got - mean).max() <= 0.05

    def test_noise_samples_stay_in_disc(self, sep5_mixture):
        noise = ContaminationSpec(weight=0.2, center=(0.0, 2.0), radius=6.0)
        d = synthesize_iq(
            200, 200, sep5_mixture.zero, sep5_mixture.one, contamination=noise, seed=3
        )
        contaminated = d.points()[d.truth == 2]
        assert contaminated.shape[0] == int(0.2 * 400 / 0.8)
        radii = np.linalg.norm(contaminated - [0.0, 2.0], axis=1)
        assert radii.max() <= 6.0

    def test_bit_identical_for_same_seed(self, sep5_mixture):
        a = synthesize_iq(100, 50, sep5_mixture.zero, sep5_mixture.one, seed=42)
        b = synthesize_iq(100, 50, sep5_mixture.zero, sep5_mixture.one, seed=42)
        assert _same_dataset(a, b)
        c = synthesize_iq(100, 50, sep5_mixture.zero, sep5_mixture.one, seed=43)
        assert not _same_dataset(a, c)

    def test_provenance_mixture_recorded(self, sep5_mixture):
        d = synthesize_iq(75, 25, sep5_mixture.zero, sep5_mixture.one, seed=5)
        assert d.mixture is not None
        assert d.mixture.zero.weight == pytest.approx(0.75)
        assert d.mixture.noise is None


class TestDatasetFiles:
    def test_round_trip(self, tmp_path, sep5_mixture):
        noise = ContaminationSpec(weight=0.05)
        d = synthesize_iq(
            40, 60, sep5_mixture.zero, sep5_mixture.one, contamination=noise, seed=6,
            observable="y",
        )
        path = tmp_path / "d.jsonl"
        save_dataset(d, str(path))
        back = load_dataset(str(path))
        assert _same_dataset(d, back)
        assert back.mixture is not None
        assert back.mixture.noise.radius == 6.0

    def test_missing_obs_field(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"seed": 1}\n{"i": 0.0, "q": 0.0, "truth": null}\n')
        with pytest.raises(DatasetFormatError, match="obs") as err:
            load_dataset(str(path))
        assert err.value.line == 1

    def test_malformed_sample_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"obs": "z", "seed": 1}\n{"i": 0.0, "q": 0.0, "truth": null}\nnot json\n'
        )
        with pytest.raises(DatasetFormatError) as err:
            load_dataset(str(path))
        assert err.value.line == 3

    @pytest.mark.parametrize("field", ["i", "q"])
    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_sample_line_number(self, tmp_path, field, value):
        path = tmp_path / "bad.jsonl"
        bad = {"i": "0.5", "q": "-0.5", field: value}
        path.write_text(
            '{"obs": "z", "seed": 1}\n{"i": 0.0, "q": 0.0, "truth": null}\n\n'
            f'{{"i": {bad["i"]}, "q": {bad["q"]}, "truth": null}}\n'
            '{"i": 1.0, "q": 1.0, "truth": null}\n'
        )
        with pytest.raises(DatasetFormatError) as err:
            load_dataset(str(path))
        assert err.value.line == 4

    def test_unknown_truth_label(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"obs": "z", "seed": 1}\n{"i": 0.0, "q": 0.0, "truth": "two"}\n')
        with pytest.raises(DatasetFormatError):
            load_dataset(str(path))

    def test_empty_dataset_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text('{"obs": "z", "seed": 1}\n')
        with pytest.raises(DatasetFormatError):
            load_dataset(str(path))

    def test_large_file_parses_quickly(self, tmp_path, sep5_mixture):
        d = synthesize_iq(5000, 5000, sep5_mixture.zero, sep5_mixture.one, seed=7)
        path = tmp_path / "big.jsonl"
        save_dataset(d, str(path))
        start = time.perf_counter()
        load_dataset(str(path))
        assert time.perf_counter() - start < 0.1

    def test_save_is_deterministic(self, tmp_path, sep5_mixture):
        d = synthesize_iq(20, 20, sep5_mixture.zero, sep5_mixture.one, seed=9)
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_dataset(d, str(p1))
        save_dataset(d, str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_export_csv(self, tmp_path):
        d = IQDataset("z", [1.5, -2.0], [0.25, 3.0], [0, 1], seed=0)
        path = tmp_path / "d.csv"
        export_csv(d, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "obs,i,q,truth"
        assert lines[1] == "z,1.5,0.25,zero"
        assert lines[2] == "z,-2.0,3.0,one"

    def test_header_seed_default(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"obs": "x"}\n{"i": 1.0, "q": 2.0, "truth": null}\n')
        d = load_dataset(str(path))
        assert d.seed == 0
        assert d.truth[0] == -1


SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308, 1e16, 1e-7]
FINITE_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(SPECIAL_FLOATS)
)


def _canonical_lines() -> list[str]:
    """Lines of a save_dataset file (header first) whose samples span three 64 KiB blocks."""
    zero = ComponentParams(0.5, np.array([2.5, 2.0]), np.eye(2))
    one = ComponentParams(0.5, np.array([-2.5, 2.0]), np.eye(2))
    d = synthesize_iq(1500, 1350, zero, one, contamination=ContaminationSpec(weight=0.05), seed=11)
    truth = d.truth.copy()
    truth[::7] = -1
    d = IQDataset(d.observable, d.i, d.q, truth, seed=d.seed, mixture=d.mixture)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "d.jsonl")
        save_dataset(d, path)
        with open(path, encoding="utf-8") as handle:
            return handle.read().split("\n")[:-1]


CANONICAL = _canonical_lines()
# a sample line in the first block and one in the second (the header is line 1)
FIRST_BLOCK = 5
SECOND_BLOCK = 1 + next(
    k for k in range(1, len(CANONICAL)) if sum(len(x) + 1 for x in CANONICAL[:k]) > 70_000
)


def _set(field: str, token: str):
    """Mutation: write ``token`` as the raw JSON value of ``field``."""

    def mutate(line: str) -> str:
        record = json.loads(line)
        parts = [f'"{k}": {token if k == field else json.dumps(v)}' for k, v in record.items()]
        return "{" + ", ".join(parts) + "}"

    return mutate


LINE_MUTATIONS = {
    "extra_spaces": lambda line: line.replace(": ", ":  ").replace("{", "{ "),
    "trailing_space": lambda line: line + " ",
    "reordered_keys": lambda line: json.dumps(dict(reversed(json.loads(line).items()))),
    "integer": _set("i", "3"),
    "negative_zero_integer": _set("q", "-0"),
    "long_integer": _set("i", "123456789012345678901234567890"),
    "exponent": _set("i", "1.5e-7"),
    "upper_exponent": _set("q", "2E+3"),
    "bare_exponent": _set("i", "-1e5"),
    "negative_zero_float": _set("i", "-0.0"),
    "overflowing_exponent": _set("q", "1e400"),
    "number_as_string": _set("i", '"1.25"'),
    "nan_as_string": _set("q", '"nan"'),
    "nan_literal": _set("i", "NaN"),
    "bool_coordinate": _set("i", "true"),
    "escaped_label": _set("truth", '"\\u007aero"'),
    "unknown_label": _set("truth", '"two"'),
    "missing_truth": lambda line: line[: line.index(', "truth"')] + "}",
    "missing_q": lambda line: line.replace(', "q"', ', "r"'),
    "array_record": lambda line: "[1, 2]",
    "bad_json": lambda line: "not json",
    "empty_line": lambda line: "\n" + line,
    "blank_line": lambda line: " \t\n" + line,
    "two_records": lambda line: line + line,
    "split_record": lambda line: line.replace(", ", "\n", 1),
    "lone_cr": lambda line: line + "\r",
    "vertical_tab_break": lambda line: line + "\x0b" + line,
    "line_separator_break": lambda line: line + "\u2028" + line,
}


# the per-line reference loader accepts these (or, for "nan", fails on the
# non-finite value); load_dataset takes a coordinate only as a JSON number
REJECTED_MUTATIONS = {
    "number_as_string": "non-numeric coordinate i='1.25'",
    "nan_as_string": "non-numeric coordinate q='nan'",
    "bool_coordinate": "non-numeric coordinate i=True",
}


class TestDatasetReaderWriter:
    """The block reader and template writer against the per-line json oracles."""

    def test_second_block_line_is_past_the_first_block(self):
        assert sum(len(x) + 1 for x in CANONICAL[: SECOND_BLOCK - 1]) > 65_536
        assert len("\n".join(CANONICAL)) > 2 * 65_536

    def test_save_matches_reference_writer(self, tmp_path):
        # magnitudes from 1e-300 to 1e300, so reprs with and without exponents
        rng = np.random.default_rng(5)
        values = rng.standard_normal(2500) * 10.0 ** rng.integers(-300, 300, 2500)
        values[: len(SPECIAL_FLOATS)] = SPECIAL_FLOATS
        d = IQDataset("x", values, values[::-1], np.arange(values.size) % 4 - 1, seed=2**64 - 1)
        save_dataset(d, str(tmp_path / "a.jsonl"))
        save_dataset_reference(d, str(tmp_path / "b.jsonl"))
        assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()
        assert _bit_identical(load_dataset(str(tmp_path / "a.jsonl")), d)

    @settings(max_examples=150, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(FINITE_FLOATS, FINITE_FLOATS, st.integers(-1, 2)), min_size=1, max_size=40
        ),
        observable=st.sampled_from(["x", "y", "z"]),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_round_trip_is_bit_identical(self, rows, observable, seed):
        i_vals, q_vals, truth = zip(*rows)
        d = IQDataset(observable, list(i_vals), list(q_vals), list(truth), seed=seed)
        with tempfile.TemporaryDirectory() as tmp:
            path, reference = os.path.join(tmp, "a.jsonl"), os.path.join(tmp, "b.jsonl")
            save_dataset(d, path)
            save_dataset_reference(d, reference)
            with open(path, "rb") as got, open(reference, "rb") as want:
                assert got.read() == want.read()
            assert _bit_identical(load_dataset(path), d)

    def test_saved_coordinates_cannot_be_made_non_finite(self, tmp_path):
        d = IQDataset("z", [1.0, 2.0], [0.0, 0.0], [0, 1], seed=1)
        with pytest.raises(ValueError, match="read-only"):
            d.i[1] = np.nan
        path = str(tmp_path / "d.jsonl")
        save_dataset(d, path)
        assert load_dataset(path).i.tolist() == [1.0, 2.0]

    @pytest.mark.parametrize("where", [FIRST_BLOCK, SECOND_BLOCK], ids=["block1", "block2"])
    @pytest.mark.parametrize("name", sorted(LINE_MUTATIONS))
    def test_mutated_line_matches_reference_loader(self, tmp_path, name, where):
        lines = list(CANONICAL)
        lines[where - 1] = LINE_MUTATIONS[name](lines[where - 1])
        path = tmp_path / "d.jsonl"
        path.write_bytes(("\n".join(lines) + "\n").encode("utf-8"))
        got = _load_outcome(load_dataset, str(path))
        if name in REJECTED_MUTATIONS:
            assert got == ("DatasetFormatError", f"line {where}: {REJECTED_MUTATIONS[name]}", where)
            return
        want = _load_outcome(load_dataset_reference, str(path))
        if isinstance(want, IQDataset):
            assert isinstance(got, IQDataset) and _bit_identical(got, want)
        else:
            assert got == want

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "\n",
            " \t",
            '{"obs": "z"}',
            '{"obs": "z"}\n\n \n',
            '{"obs": "z"}\x0b{"i": 1.0, "q": 2.0, "truth": null}\n',
            '{"obs": "z"}\r\n{"i": 1.0, "q": 2.0, "truth": "one"}',
            "\r\n".join(CANONICAL) + "\r\n",
            "\r".join(CANONICAL),
            "\n".join(CANONICAL),
            "\n".join(CANONICAL[:SECOND_BLOCK] + ["", "{", "}"] + CANONICAL[SECOND_BLOCK:]),
        ],
        ids=[
            "empty", "newline", "blank", "header_only", "header_and_blank_lines",
            "vertical_tab_after_header", "crlf_no_final_newline", "crlf", "cr",
            "no_final_newline", "broken_line_in_second_block",
        ],
    )
    def test_whole_file_matches_reference_loader(self, tmp_path, text):
        path = tmp_path / "d.jsonl"
        path.write_bytes(text.encode("utf-8"))
        got = _load_outcome(load_dataset, str(path))
        want = _load_outcome(load_dataset_reference, str(path))
        if isinstance(want, IQDataset):
            assert isinstance(got, IQDataset) and _bit_identical(got, want)
        else:
            assert got == want

    @pytest.mark.parametrize(
        "defect_line, undecodable_at",
        [(None, 100), (None, 200_000), (5, 200_000), (1, 200_000), (SECOND_BLOCK, 70_000)],
    )
    def test_undecodable_file_matches_reference_loader(self, tmp_path, defect_line, undecodable_at):
        lines = list(CANONICAL)
        if defect_line is not None:
            lines[defect_line - 1] = "not json"
        data = ("\n".join(lines) + "\n").encode("utf-8")
        path = tmp_path / "d.jsonl"
        path.write_bytes(data[:undecodable_at] + b"\xff" + data[undecodable_at:])
        got = _load_outcome(load_dataset, str(path))
        assert got == _load_outcome(load_dataset_reference, str(path))
        assert got[0] == "UnicodeDecodeError" and f"position {undecodable_at}" in got[1]

    @pytest.mark.parametrize(
        "header, sample, line, message",
        [
            ('{"obs": "z", "seed": null}', None, 1, "invalid seed None"),
            ('{"obs": "z", "seed": 1.5e400}', None, 1, "invalid seed inf"),
            (None, '{"i": 1' + "0" * 400 + ', "q": 0.0, "truth": null}', 3, "out of float range"),
            (None, '{"i": 0.5, "q": 0.0, "truth": ["zero"]}', 3, "unknown truth label ['zero']"),
        ],
        ids=["null_seed", "overflowing_seed", "400_digit_coordinate", "list_label"],
    )
    def test_escapes_are_format_errors(self, tmp_path, header, sample, line, message):
        path = tmp_path / "d.jsonl"
        path.write_text(
            (header or '{"obs": "z", "seed": 1}')
            + '\n{"i": 0.0, "q": 0.0, "truth": null}\n'
            + (sample or '{"i": 1.0, "q": 1.0, "truth": "one"}')
            + "\n"
        )
        with pytest.raises(DatasetFormatError) as err:
            load_dataset(str(path))
        assert err.value.line == line
        assert message in str(err.value)

    @pytest.mark.parametrize("seed", ["1.5", '"7"', "-3", "true", "7.0", str(2**64)])
    def test_header_seed_must_be_an_unsigned_64_bit_integer(self, tmp_path, seed):
        path = tmp_path / "d.jsonl"
        path.write_text(f'{{"obs": "z", "seed": {seed}}}\n{{"i": 0.0, "q": 0.0, "truth": null}}\n')
        with pytest.raises(DatasetFormatError) as err:
            load_dataset(str(path))
        assert str(err.value).startswith(f"line 1: invalid seed {json.loads(seed)!r}: ")

    def test_largest_header_seed_round_trips(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text(f'{{"obs": "z", "seed": {2**64 - 1}}}\n{{"i": 0.5, "q": 0.0, "truth": null}}\n')
        d = load_dataset(str(path))
        assert d.seed == 2**64 - 1
        save_dataset(d, str(tmp_path / "e.jsonl"))
        assert (tmp_path / "e.jsonl").read_text() == path.read_text()


class TestIQDataset:
    def test_rejects_bad_observable(self):
        with pytest.raises(ValueError):
            IQDataset("w", [0.0], [0.0], [0], seed=1)

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            IQDataset("z", [0.0, 1.0], [0.0], [0, 0], seed=1)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            IQDataset("z", [np.nan], [0.0], [0], seed=1)

    @pytest.mark.parametrize("seed", [-1, 2**64, 1.5, True, "7", None])
    def test_rejects_seed_outside_unsigned_64_bits(self, seed):
        with pytest.raises(ValueError, match="seed must be an integer"):
            IQDataset("z", [0.0], [0.0], [0], seed=seed)

    @pytest.mark.parametrize("mixture", [{"alpha": 1}, "wide", 0, []], ids=["dict", "string", "zero", "list"])
    def test_rejects_a_mixture_that_is_not_mixture_params(self, mixture):
        with pytest.raises(ValueError, match="^mixture must be None or a MixtureParams"):
            IQDataset("z", [0.0], [0.0], [0], seed=1, mixture=mixture)

    def test_numpy_integer_seed_is_stored_as_int(self):
        d = IQDataset("z", [0.0], [0.0], [0], seed=np.uint64(2**64 - 1))
        assert type(d.seed) is int and d.seed == 2**64 - 1

    @pytest.mark.parametrize("name", ["observable", "i", "q", "truth", "seed", "mixture"])
    def test_fields_cannot_be_set_after_construction(self, name):
        d = IQDataset("z", [0.0], [0.0], [0], seed=1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(d, name, -1)
        assert (d.observable, d.i.tolist(), d.truth.tolist(), d.seed) == ("z", [0.0], [0], 1)

    @pytest.mark.parametrize(
        "truth",
        [[0, 5], [-2, 0], np.array([0, 258], dtype=np.int64), [0, 0.5], [0, np.nan], [0, "1"], [0, None]],
        ids=["five", "minus_two", "wraps_to_noise", "fraction", "nan", "string", "none"],
    )
    def test_rejects_truth_outside_the_labels(self, truth):
        with pytest.raises(ValueError, match=r"truth labels must be among \[-1, 0, 1, 2\]"):
            IQDataset("z", [0.0, 1.0], [0.0, 1.0], truth, seed=1)

    def test_accepts_every_label(self):
        d = IQDataset("z", [0.0] * 4, [0.0] * 4, np.array([-1, 0, 1, 2], dtype=np.int64), seed=1)
        assert d.truth.dtype == np.int8 and d.truth.tolist() == [-1, 0, 1, 2]

    def test_columns_are_read_only_contiguous_copies(self):
        xy = np.arange(12.0).reshape(6, 2)
        truth = np.zeros(6, dtype=np.int8)
        d = IQDataset("z", xy[:, 0], xy[:, 1], truth, seed=1)
        for got, given in ((d.i, xy[:, 0]), (d.q, xy[:, 1]), (d.truth, truth)):
            assert got.flags.c_contiguous and not got.flags.writeable
            assert not np.shares_memory(got, given)
        xy[:] = -1.0
        truth[:] = 1
        assert d.i.tolist() == [0.0, 2.0, 4.0, 6.0, 8.0, 10.0]
        assert d.truth.tolist() == [0] * 6

    def test_truth_counts(self):
        d = IQDataset("z", [0.0] * 4, [0.0] * 4, [0, 1, 1, 2], seed=1)
        assert d.truth_counts() == (1, 2, 1)

import json
import time

import numpy as np
import pytest

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


def test_axis_seed_derivation():
    for base in (0, 1, 2**63 + 17):
        for idx, axis in enumerate("xyz"):
            assert axis_seed(base, axis) == (base ^ ((idx + 1) * GOLDEN & MASK)) & MASK


def test_axis_seed_rejects_unknown_axis():
    with pytest.raises(ValueError):
        axis_seed(0, "q")


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
        with pytest.raises(ValueError):
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
        with pytest.raises(ValueError):
            synthesize_iq(5, 5, flat, other, seed=1)

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

    def test_truth_counts(self):
        d = IQDataset("z", [0.0] * 4, [0.0] * 4, [0, 1, 1, 2], seed=1)
        assert d.truth_counts() == (1, 2, 1)

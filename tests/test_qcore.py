import itertools
import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from iqtomo import (
    DensityMatrix,
    bloch_from_density,
    density_from_bloch,
    frobenius_distance,
    pauli,
)
from oracles import (
    bloch_from_density_reference,
    density_from_bloch_reference,
    density_problem_reference,
    psd_unit_trace_project,
)

# the two bundled reference reconstructions (simulator counts / joint fit)
RECON_SIMULATOR = np.array([[0.0571, -0.0003 + 0.2321j], [-0.0003 - 0.2321j, 0.9429]])
RECON_JOINT = np.array([[0.0544, -0.0002 + 0.2240j], [-0.0002 - 0.2240j, 0.9456]])


def _random_density(rng: np.random.Generator) -> DensityMatrix:
    r = rng.normal(size=3)
    r *= rng.uniform() ** (1 / 3) / np.linalg.norm(r)
    return density_from_bloch(r)


def test_pauli_values():
    assert np.array_equal(pauli("x"), [[0, 1], [1, 0]])
    assert np.array_equal(pauli("z"), [[1, 0], [0, -1]])
    assert np.array_equal(pauli("y"), [[0, -1j], [1j, 0]])


def test_pauli_rejects_unknown_axis():
    with pytest.raises(ValueError):
        pauli("w")


class TestDensityMatrix:
    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(np.array([[0.5, 0.3], [0.1, 0.5]]))

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(np.diag([0.6, 0.6]))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.diag([1.2, -0.2]))

    # the suite turns numpy RuntimeWarnings into errors: these are rejected without overflow
    @pytest.mark.parametrize(
        "m",
        [
            [[1e308, -1e308], [1e308, 1.0]],
            [[0.5, 1e308j], [1e308j, 0.5]],
            [[0.5, 1.7e308 + 1.7e308j], [-1.7e308 + 1.7e308j, 0.5]],
        ],
        ids=["real", "imaginary", "complex"],
    )
    def test_rejects_huge_non_hermitian_without_overflow(self, m):
        with pytest.raises(ValueError, match="^density matrix is not Hermitian$"):
            DensityMatrix(np.array(m))

    @pytest.mark.parametrize(
        "m",
        [[[np.nan, 0.0], [0.0, 0.5]], [[0.5, np.inf], [np.inf, 0.5]]],
        ids=["nan_diagonal", "inf_off_diagonal"],
    )
    def test_rejects_non_finite_entries(self, m):
        with pytest.raises(ValueError, match="^density matrix entries must be finite$"):
            DensityMatrix(np.array(m))

    def test_rejects_overflowing_trace_without_overflow(self):
        with pytest.raises(ValueError, match=r"^density matrix trace inf\+0j != 1$"):
            DensityMatrix(np.diag([1e308, 1e308]))

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.sampled_from([0.0, 0.5, -1.0, 1e154, -1e200, 1e308, -1.7976931348623157e308, 5e-324]),
            min_size=8,
            max_size=8,
        )
    )
    def test_huge_json_entries_raise_only_value_error(self, entries):
        obj = {"re": [entries[0:2], entries[2:4]], "im": [entries[4:6], entries[6:8]]}
        try:
            DensityMatrix.from_json_dict(obj)
        except ValueError:
            pass

    def test_matrix_is_read_only(self, rho22):
        with pytest.raises(ValueError):
            rho22.matrix[0, 0] = 0.3

    def test_json_round_trip(self, rho22):
        payload = json.loads(json.dumps(rho22.to_json_dict()))
        assert DensityMatrix.from_json_dict(payload) == rho22

    def test_bloch_of_reference(self, rho22):
        np.testing.assert_allclose(bloch_from_density(rho22), [0.0, -0.458, -0.888], atol=1e-12)


def test_bloch_round_trip_examples():
    assert density_from_bloch([0, 0, 0]) == DensityMatrix(np.eye(2) / 2)
    np.testing.assert_allclose(
        density_from_bloch([0, 0, 1]).matrix, np.diag([1.0, 0.0]), atol=1e-15
    )
    assert np.array_equal(bloch_from_density(DensityMatrix(np.diag([1.0, 0.0]))), [0, 0, 1])


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_bloch_round_trip_random(seed):
    rng = np.random.default_rng(seed)
    rho = _random_density(rng)
    again = density_from_bloch(bloch_from_density(rho))
    assert frobenius_distance(rho, again) <= 1e-12


def test_density_from_bloch_rejects_outside_ball():
    with pytest.raises(ValueError):
        density_from_bloch([1.1, 0, 0])
    with pytest.raises(ValueError, match="must be finite"):
        density_from_bloch([np.nan, 0, 0])
    # norms within the 1e-9 validation band are rescaled onto the sphere
    rho = density_from_bloch([1.0 + 5e-10, 0, 0])
    assert np.linalg.norm(bloch_from_density(rho)) <= 1.0


# Bloch components with both zeros, subnormals and exact values, and the
# generic floats of the unit interval
_COMPONENT = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 0.5, -0.5, 1.0, -1.0]),
    st.floats(min_value=-1.0, max_value=1.0),
)


class TestScalarFormsMatchNumpy:
    """The scalar single-qubit code against its numpy matrix forms in ``oracles``."""

    @pytest.mark.parametrize(
        "r",
        [r for r in itertools.product([0.0, -0.0, 0.5, -0.5, 1.0, -1.0], repeat=3) if np.linalg.norm(r) <= 1.0],
    )
    def test_density_from_bloch_signed_zeros(self, r):
        assert density_from_bloch(r).matrix.tobytes() == density_from_bloch_reference(r).tobytes()

    @settings(max_examples=500, deadline=None)
    @given(st.tuples(_COMPONENT, _COMPONENT, _COMPONENT))
    def test_density_from_bloch_inside_the_ball(self, r):
        assume(np.linalg.norm(r) <= 1.0)
        rho = density_from_bloch(r)
        assert rho.matrix.tobytes() == density_from_bloch_reference(r).tobytes()
        assert bloch_from_density(rho).tobytes() == bloch_from_density_reference(rho.matrix).tobytes()

    @settings(max_examples=500, deadline=None)
    @given(
        st.tuples(_COMPONENT, _COMPONENT, _COMPONENT),
        st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1e-9, exclude_min=True)),
    )
    def test_density_from_bloch_on_and_just_outside_the_sphere(self, direction, excess):
        norm = np.linalg.norm(direction)
        assume(norm > 0.0)
        r = np.array(direction) / norm * (1.0 + excess)
        assume(np.linalg.norm(r) <= 1.0 + 1e-9)
        rho = density_from_bloch(r)
        assert rho.matrix.tobytes() == density_from_bloch_reference(r).tobytes()
        assert bloch_from_density(rho).tobytes() == bloch_from_density_reference(rho.matrix).tobytes()

    @settings(max_examples=1000, deadline=None)
    @given(
        st.tuples(_COMPONENT, _COMPONENT, st.floats(0.0, 1.0)),
        st.tuples(*[st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, 4e-13, -4e-13])] * 4),
    )
    def test_bloch_from_density_with_signed_zeros_and_hermiticity_defects(self, entries, defects):
        u, v, p = entries
        # Hermitian up to the defects: imaginary diagonal parts and m10 != conj(m01)
        m = np.array(
            [
                [complex(p, defects[0]), complex(0.5 * u, 0.5 * v)],
                [complex(0.5 * u + defects[1], defects[2] - 0.5 * v), complex(1.0 - p, defects[3])],
            ]
        )
        try:
            rho = DensityMatrix(m)
        except ValueError:
            assume(False)
        assert bloch_from_density(rho).tobytes() == bloch_from_density_reference(rho.matrix).tobytes()

    @settings(max_examples=1000, deadline=None)
    @given(
        direction=st.tuples(_COMPONENT, _COMPONENT, _COMPONENT),
        radius=st.one_of(st.floats(0.0, 1.5), st.floats(1.0 - 1e-10, 1.0 + 1e-10)),
        skew=st.sampled_from([0.0, 1e-14, 4e-13, 6e-13, 1e-10]),
        trace_shift=st.sampled_from([0.0, 5e-13, 2e-12, -3e-12]),
    )
    def test_checks_agree_with_eigvalsh_away_from_the_thresholds(self, direction, radius, skew, trace_shift):
        norm = np.linalg.norm(direction)
        assume(norm > 0.0)
        r = np.array(direction) / norm * radius
        m = 0.5 * (np.eye(2) + r[0] * pauli("x") + r[1] * pauli("y") + r[2] * pauli("z"))
        # an anti-Hermitian part and a trace offset, each on both sides of its tolerance
        m = m + skew * np.array([[1j, 0.3 + 0.2j], [-0.3 + 0.2j, -0.5j]]) + 0.5 * trace_shift * np.eye(2)
        assume(abs(np.linalg.eigvalsh(m).min() + 1e-12) > 1e-14)
        assume(abs(np.abs(0.5 * m - 0.5 * m.conj().T).max() - 0.5e-12) > 1e-15)
        try:
            DensityMatrix(m)
            got = None
        except ValueError as exc:
            got = str(exc)
        assert got == density_problem_reference(m)


def test_bloch_norm_one_iff_pure():
    rng = np.random.default_rng(5)
    for _ in range(50):
        rho = _random_density(rng)
        norm = np.linalg.norm(bloch_from_density(rho))
        det = np.linalg.det(rho.matrix).real
        assert norm <= 1.0 + 1e-12
        assert (norm >= 1.0 - 1e-6) == (det <= 1e-6)


def test_frobenius_distance_examples(rho22):
    assert frobenius_distance(rho22, rho22) == 0.0
    assert frobenius_distance(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])) == pytest.approx(
        np.sqrt(2)
    )
    # the two reference reconstructions are 0.0121 apart, not the recorded 0.64
    assert frobenius_distance(RECON_SIMULATOR, RECON_JOINT) == pytest.approx(0.01208, abs=5e-4)


class TestPsdUnitTraceProject:
    def test_fixed_point_on_density_matrices(self, rho22):
        assert frobenius_distance(psd_unit_trace_project(rho22.matrix), rho22) <= 1e-12

    def test_clips_negative_eigenvalue(self):
        got = psd_unit_trace_project(np.diag([2.0, -1.0]))
        np.testing.assert_allclose(got.matrix, np.diag([1.0, 0.0]), atol=1e-12)

    def test_shifts_excess_trace(self):
        got = psd_unit_trace_project(np.diag([0.7, 0.7]))
        np.testing.assert_allclose(got.matrix, np.diag([0.5, 0.5]), atol=1e-12)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            psd_unit_trace_project(np.array([[1.0, 1.0], [0.0, 0.0]]))

    def test_idempotent_and_non_expansive(self):
        rng = np.random.default_rng(17)
        for _ in range(1000):
            m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            h = (m + m.conj().T) / 2
            p = psd_unit_trace_project(h)
            assert frobenius_distance(psd_unit_trace_project(p.matrix), p) <= 1e-12
            q = psd_unit_trace_project(h + 0.1 * np.eye(2))
            # projections onto a convex set are non-expansive
            assert frobenius_distance(p, q) <= 0.1 * np.sqrt(2) + 1e-12

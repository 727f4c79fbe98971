import dataclasses
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qcorr.measures
import qcorr.states
from oracle_reference import _d1_eigen_axes
from qcorr.errors import DimensionError, StateError
from qcorr.measures import (
    X_PATTERN_TOL,
    MeasureReport,
    _covariance_array,
    _five_axes_d1,
    _local_x_d1,
    correlation_distance,
    covariance_matrix,
    d1_x_state,
    full_report,
    mmc,
    negativity,
    singular_values_3,
)
from qcorr.oracles import SearchConfig, d1_oracle, mmc_oracle
from qcorr.states import (
    _PAULI,
    _pauli_coefficients,
    DensityMatrix,
    ProbTable2x2,
    XStateParams,
    bell_diagonal,
    bloch_matrix,
    cc_state,
    correlation_tensor,
    cq_state,
    is_x_shaped,
    partial_trace,
    partial_transpose,
    pauli,
    pure_state,
    qubit_state,
    rho_d,
    rho_theta,
    x_state,
)
from qcorr.stateio import report_to_record, state_from_record
from qcorr.verify import (
    CLOSED_TOL,
    ORACLE_TOL,
    locally_rotated,
    near_werner_params,
    random_bloch_vector,
    random_density_matrix,
    random_local_unitary,
    random_x_params,
)

BULK = SearchConfig(coarse_grid=(32, 64), refine_iters=40)
FINE = SearchConfig(coarse_grid=(128, 256), refine_iters=300)


class TestCovarianceMatrix:
    def test_product_state_vanishes(self):
        rho = DensityMatrix(np.kron(qubit_state((0.3, 0.1, -0.5)), qubit_state((0, 0.7, 0.2))))
        assert np.abs(covariance_matrix(rho)).max() <= 1e-14

    def test_pure_state(self):
        q = covariance_matrix(pure_state(0.6))
        assert np.allclose(q, np.diag([0.6, -0.6, 0.36]), atol=1e-12)

    def test_rho_theta(self):
        theta = 0.7
        s2 = math.sin(2 * theta)
        q = covariance_matrix(rho_theta(theta))
        assert np.allclose(q, np.diag([s2 / 2, -s2 / 2, s2 * s2 / 4]), atol=1e-12)


@pytest.fixture(scope="module")
def coefficient_states():
    """1000 seeded random states of rank 1 to 4, the edge states, and X, cq, cc and Werner states."""
    rng = np.random.default_rng(389)
    states = [random_density_matrix(rng, 1 + k % 4) for k in range(1000)]
    states += [DensityMatrix(m) for m in EDGE_STATES.values()]
    states += [x_state(random_x_params(rng)) for _ in range(50)]
    states += [cq_state(0.3, 0.0, 0.0, (1.0, 0.0, 0.0), (0.0, -0.0, -1.0))]
    states += [
        cq_state(rng.random(), *rng.uniform(-4.0, 4.0, 2).tolist(), random_bloch_vector(rng), random_bloch_vector(rng))
        for _ in range(50)
    ]
    states += [cc_state(ProbTable2x2(0.5, 0.0, 0.5, -0.0), math.pi / 2, 0.0, 0.0, -0.0)]
    states += [
        cc_state(ProbTable2x2(*rng.dirichlet(np.ones(4)).tolist()), *rng.uniform(-4.0, 4.0, 4).tolist())
        for _ in range(50)
    ]
    return states + [bell_diagonal(c, c, c) for c in (-1.0, -0.5, 0.0, 0.2, 1.0 / 3.0)]


def _einsum_coefficients(rho: DensityMatrix) -> np.ndarray:
    return np.einsum("ijab,ba->ij", _PAULI, rho.mat).real


class TestCoefficientBits:
    """The covariance and the Pauli coefficients keep the bits of their numpy forms."""

    def test_pauli_coefficients_are_np_einsum_s(self, coefficient_states):
        for rho in coefficient_states:
            assert _pauli_coefficients(rho).tobytes() == _einsum_coefficients(rho).tobytes()

    def test_covariance_is_t_minus_outer_ab(self, coefficient_states):
        for rho in coefficient_states:
            c = _einsum_coefficients(rho)
            expected = c[1:, 1:] - np.outer(c[1:, 0], c[0, 1:])
            got = covariance_matrix(rho)
            assert got.dtype == np.float64 and got.shape == (3, 3)
            assert got.tobytes() == expected.tobytes()

    def test_covariance_of_signed_zeros_and_subnormals(self):
        # Every entry's product and difference rounds as numpy's, -0.0 and underflow included.
        corners = [0.0, -0.0, 5e-324, -5e-324, 1e-200, -1e-200, 0.5, -1.0, 3.0]
        rng = np.random.default_rng(397)
        for _ in range(2000):
            c = rng.choice(corners, size=(4, 4))
            expected = c[1:, 1:] - np.outer(c[1:, 0], c[0, 1:])
            assert _covariance_array(c.tolist()).tobytes() == expected.tobytes(), c

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_covariance_is_state_error(self, value):
        # No valid state gives one; the check singular_values_3 makes runs on the floats.
        c = np.eye(4)
        c[2, 1] = value
        with pytest.raises(StateError, match="non-finite"):
            _covariance_array(c.tolist())


class TestSingularValues3:
    def test_zero_matrix(self):
        got = singular_values_3(np.zeros((3, 3)))
        assert np.array_equal(got, np.zeros(3)) and not np.signbit(got).any()

    def test_pure_state_covariance_values(self):
        q = np.diag([0.6, -0.6, 0.36])
        assert np.allclose(singular_values_3(q), [0.6, 0.6, 0.36], atol=1e-14)

    def test_rank_one(self):
        n = np.array([0.0, 0.0, 1.0])
        delta = np.array([1.0, 0.0, 0.0]) - np.array([0.0, 0.0, 1.0])
        q = 2 * 0.3 * 0.7 * np.outer(n, delta)
        got = singular_values_3(q)
        expected_top = 2 * 0.3 * 0.7 * np.linalg.norm(delta)
        assert got[0] == pytest.approx(expected_top, abs=1e-12)
        assert got[1] == pytest.approx(0.0, abs=1e-12)
        assert got[2] == pytest.approx(0.0, abs=1e-12)
        assert not np.signbit(got).any()
        # brute-force cross-check through the Gram matrix spectrum
        gram = np.linalg.eigvalsh(q.T @ q)
        assert np.allclose(np.sort(got**2), np.clip(gram, 0, None), atol=1e-12)

    def test_wrong_shape(self):
        with pytest.raises(DimensionError):
            singular_values_3(np.zeros((2, 2)))

    @pytest.mark.parametrize(
        "value, reason",
        [
            (np.diag([0.5, 0.2, 0.1]) + 1e-3j, "dtype complex128"),
            ([["a"] * 3] * 3, "dtype <U1"),
            ([[0.5, 0.0, 0.0], [0.2]], "list"),
        ],
        ids=["complex", "text", "ragged"],
    )
    def test_complex_or_non_numeric_is_dimension_error(self, value, reason):
        # numpy would drop the imaginary part behind a ComplexWarning and return a plausible number.
        with pytest.raises(DimensionError, match="3x3 real matrix, got " + re.escape(reason)):
            singular_values_3(value)

    def test_gram_negative_beyond_roundoff_is_state_error(self, monkeypatch):
        # q^T q is never indefinite in exact arithmetic, so the spectrum is patched.
        monkeypatch.setattr(qcorr.measures, "_eigvalsh", lambda h: [-1e-10, 0.25, 1.0])
        with pytest.raises(StateError, match="negative beyond roundoff"):
            singular_values_3(np.eye(3))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_entry_is_state_error(self, value):
        q = np.diag([0.5, 0.2, 0.1])
        q[1, 2] = value
        with pytest.raises(StateError, match="non-finite"):
            singular_values_3(q)

    def test_clamp_turns_negative_zero_into_positive_zero(self, monkeypatch):
        # eigvalsh returned no -0.0 on the matrices tried, so the spectrum is patched.
        monkeypatch.setattr(qcorr.measures, "_eigvalsh", lambda h: [-1e-15, -0.0, 1.0])
        got = singular_values_3(np.eye(3))
        assert got.tolist() == [1.0, 0.0, 0.0] and not np.signbit(got).any()

    def test_clamp_keeps_a_nan(self, monkeypatch):
        # A Gram matrix that overflowed gives NaNs, which must not read as zeros.
        monkeypatch.setattr(qcorr.measures, "_eigvalsh", lambda h: [math.nan, 0.25, 1.0])
        got = singular_values_3(np.eye(3))
        assert got[:2].tolist() == [1.0, 0.5] and math.isnan(got[2])

    def test_transpose_invariance(self):
        # generic random matrices; the Gram-based route loses the 1e-10
        # guarantee only on exactly singular inputs, where sqrt amplifies
        # eigenvalue roundoff
        rng = np.random.default_rng(19)
        for _ in range(200):
            q = rng.standard_normal((3, 3))
            a = singular_values_3(q)
            b = singular_values_3(q.T)
            assert np.abs(a - b).max() <= 1e-10


NOT_STATES = [np.zeros((4, 4)), np.eye(4), np.eye(4).tolist(), None]


@pytest.mark.parametrize(
    "measure",
    [covariance_matrix, mmc, correlation_distance, negativity, full_report, d1_oracle, mmc_oracle],
)
@pytest.mark.parametrize("value", NOT_STATES, ids=["zeros", "eye", "list", "None"])
def test_measures_take_only_a_density_matrix(measure, value):
    # A raw array is never validated, so it could turn garbage into a plausible
    # number: d1_oracle read zeros as d1 = 0.  The oracles take the same rule.
    with pytest.raises(StateError, match="DensityMatrix"):
        measure(value)


class TestMmc:
    def test_rho_d_spot(self):
        assert mmc(rho_d(0.1, 0.2)) == pytest.approx(0.8, abs=1e-12)

    def test_product_state(self):
        rho = DensityMatrix(np.kron(qubit_state((0.2, 0, 0.4)), qubit_state((0, 0, -0.9))))
        assert mmc(rho) <= 1e-12

    def test_bell_diagonal_spot(self):
        assert mmc(bell_diagonal(0.5, -0.3, 0.2)) == pytest.approx(0.5, abs=1e-12)

    def test_classical_quantum_formula(self):
        rng = np.random.default_rng(41)
        for _ in range(1000):
            p1 = rng.random()
            theta = rng.random() * math.pi / 2
            phi = rng.random() * 2 * math.pi
            a1, a2 = random_bloch_vector(rng), random_bloch_vector(rng)
            got = mmc(cq_state(p1, theta, phi, a1, a2))
            expected = 2 * p1 * (1 - p1) * np.linalg.norm(a1 - a2)
            assert got == pytest.approx(expected, abs=1e-10)

    def test_classical_classical_is_covariance(self):
        from qcorr.oracles import classical_cov

        rng = np.random.default_rng(43)
        for _ in range(1000):
            table = ProbTable2x2.from_array(rng.dirichlet(np.ones(4)).reshape(2, 2))
            rho = cc_state(
                table,
                rng.random() * math.pi / 2,
                rng.random() * 2 * math.pi,
                rng.random() * math.pi / 2,
                rng.random() * 2 * math.pi,
            )
            assert mmc(rho) == pytest.approx(abs(classical_cov(table)), abs=1e-10)


class TestCorrelationDistance:
    def test_pure_state_spot(self):
        assert correlation_distance(pure_state(0.6)) == pytest.approx(0.78, abs=1e-12)

    def test_rho_theta_spot(self):
        assert correlation_distance(rho_theta(math.pi / 4)) == pytest.approx(0.625, abs=1e-12)

    def test_equals_mmc_for_rank_one(self):
        rng = np.random.default_rng(47)
        for _ in range(200):
            rho = cq_state(
                rng.random(),
                rng.random() * math.pi / 2,
                rng.random() * 2 * math.pi,
                random_bloch_vector(rng),
                random_bloch_vector(rng),
            )
            assert correlation_distance(rho) == pytest.approx(mmc(rho), abs=1e-12)

    def test_matches_direct_trace_norm(self):
        # the singular-value expression must agree with the defining distance
        rng = np.random.default_rng(53)
        for _ in range(200):
            rho = random_density_matrix(rng)
            product = np.kron(partial_trace(rho, "A"), partial_trace(rho, "B"))
            direct = float(np.abs(np.linalg.eigvalsh(rho.mat - product)).sum())
            assert correlation_distance(rho) == pytest.approx(direct, abs=1e-10)

    def test_dominates_mmc(self):
        rng = np.random.default_rng(59)
        for _ in range(1000):
            rho = random_density_matrix(rng)
            assert mmc(rho) <= correlation_distance(rho) + 1e-10


class TestNegativity:
    def test_pure_states(self):
        for n in (0.0, 0.3, 0.7, 1.0):
            assert negativity(pure_state(n)) == pytest.approx(n, abs=1e-12)

    def test_separable_families_vanish(self):
        # rho_d at s = s_max sits exactly on the separability boundary, so a
        # few ulp of eigenvalue noise can survive the clamp
        assert negativity(rho_d(0.1, 0.2)) == pytest.approx(0.0, abs=1e-12)
        assert negativity(cq_state(0.3, 0.5, 1.0, (0.5, 0, 0), (0, 0, 0.8))) == pytest.approx(
            0.0, abs=1e-12
        )
        table = ProbTable2x2(0.4, 0.1, 0.2, 0.3)
        assert negativity(cc_state(table, 0.3, 0.9)) == pytest.approx(0.0, abs=1e-12)

    def test_rho_theta_spot(self):
        expected = (2 * math.sqrt(2) - 2) / 4
        assert negativity(rho_theta(math.pi / 4)) == pytest.approx(expected, abs=1e-12)

    def test_rho_theta_always_entangled(self):
        for theta in np.linspace(0.1, 1.4, 14):
            assert negativity(rho_theta(theta)) > 0


def _x_zero(r11, r33, f14, f23) -> XStateParams:
    # rho11 + rho22 = 1/2, so x = 0; f14 and f23 scale the coherences inside PSD.
    r22, r44 = 0.5 - r11, 0.5 - r33
    return XStateParams(
        rho11=r11,
        rho22=r22,
        rho33=r33,
        rho44=r44,
        rho14=f14 * math.sqrt(r11 * r44),
        rho23=f23 * math.sqrt(r22 * r33),
    )


_unit = st.floats(0.0, 1.0)
x_zero_params = st.builds(_x_zero, st.floats(0.0, 0.5), st.floats(0.0, 0.5), _unit, _unit)


class TestD1XState:
    def test_rho_d_spot(self):
        value, method = d1_x_state(XStateParams.from_density_matrix(rho_d(0.1, 0.2)))
        assert value == pytest.approx(0.48, abs=1e-12)
        assert method == "closed_form"

    def test_rho_theta_spot(self):
        value, method = d1_x_state(XStateParams.from_density_matrix(rho_theta(math.pi / 4)))
        assert value == pytest.approx(0.5, abs=1e-12)
        assert method == "closed_form"

    def test_bell_diagonal_spot(self):
        value, _ = d1_x_state(XStateParams.from_density_matrix(bell_diagonal(0.5, -0.3, 0.2)))
        assert value == pytest.approx(0.3, abs=1e-12)

    def test_bell_diagonal_intermediate_any_ordering(self):
        # orderings that put the intermediate coefficient in each slot,
        # including one where the anti-diagonal entries have opposite signs
        for c in [(0.5, -0.3, 0.2), (-0.3, 0.5, 0.2), (0.2, -0.3, 0.5)]:
            rho = bell_diagonal(*c)
            value, _ = d1_x_state(XStateParams.from_density_matrix(rho))
            assert value == pytest.approx(np.sort(np.abs(c))[1], abs=1e-12)

    def test_degenerate_case_is_exact(self):
        params = XStateParams.from_density_matrix(bell_diagonal(0.4, -0.4, 0.4))
        value, method = d1_x_state(params)
        assert method == "closed_form"
        assert value == pytest.approx(0.4, abs=1e-12)

    def test_rho_d_quarter_w_is_zero_without_degeneracy(self):
        value, method = d1_x_state(XStateParams.from_density_matrix(rho_d(0.25, 0.2)))
        assert value == 0.0
        assert method == "closed_form"

    def test_near_degenerate_denominator_value(self):
        # x = 1e-8 and |alpha_i| = 0.2, next to the degenerate set; d1 = 0.2
        params = XStateParams(
            rho11=0.300000005,
            rho22=0.2,
            rho33=0.2,
            rho44=0.299999995,
            rho14=0.1,
            rho23=0.0,
        )
        value, method = d1_x_state(params)
        assert method == "closed_form"
        assert value == pytest.approx(0.2, abs=1e-12)

    @pytest.mark.parametrize("x", [1e-5, 1e-7, 3e-8])
    def test_near_werner_family_is_exact(self, x):
        value, method = d1_x_state(near_werner_params(x))
        assert method == "closed_form"
        assert value == pytest.approx(1.0 / 3.0, abs=1e-12)

    @given(x_zero_params)
    @settings(max_examples=300, deadline=None)
    @example(XStateParams.from_density_matrix(bell_diagonal(0.4, -0.4, 0.4)))
    @example(XStateParams.from_density_matrix(bell_diagonal(-0.7, -0.7, -0.7)))
    @example(XStateParams.from_density_matrix(bell_diagonal(0.25, 0.25, -0.25)))
    @example(near_werner_params(0.0))
    def test_x_zero_is_median_alpha(self, params):
        # x = 0 makes A's marginal maximally mixed, so d1 is the middle singular
        # value of the diagonal correlation tensor (Courant-Fischer).
        alpha = (
            2.0 * (params.rho23 + params.rho14),
            2.0 * (params.rho23 - params.rho14),
            1.0 - 2.0 * (params.rho22 + params.rho33),
        )
        value, method = d1_x_state(params)
        assert method == "closed_form"
        assert abs(value - float(np.median(np.abs(alpha)))) <= CLOSED_TOL

    def test_matches_oracle_on_random_x_states(self):
        rng = np.random.default_rng(61)
        for _ in range(40):
            params = random_x_params(rng)
            closed, _ = d1_x_state(params)
            assert closed == pytest.approx(d1_oracle(x_state(params), BULK), abs=2e-3)


def _bell_state(v) -> np.ndarray:
    v = np.array(v) / math.sqrt(2.0)
    return np.outer(v, v)


def _subnormal_off_pattern() -> np.ndarray:
    m = np.eye(4, dtype=complex) / 4
    for i, j in ((0, 1), (0, 2), (1, 3), (2, 3)):
        m[i, j] = m[j, i] = 1e-310
    m[1, 3], m[3, 1] = 1e-310j, -1e-310j
    return m


EDGE_STATES = {
    "maximally_mixed": np.eye(4) / 4,
    "product_00": np.diag([1.0, 0.0, 0.0, 0.0]),
    "phi_plus": _bell_state([1, 0, 0, 1]),
    "phi_minus": _bell_state([1, 0, 0, -1]),
    "psi_plus": _bell_state([0, 1, 1, 0]),
    "psi_minus": _bell_state([0, 1, -1, 0]),
    "subnormal_off_pattern": _subnormal_off_pattern(),
    # Not X-shaped up to rotations: d1 takes the five axes and _eigh.
    "mixture": random_density_matrix(np.random.default_rng(17), 3).mat,
}


def _float_bits(report: MeasureReport):
    # The report's fields with every float as its hex form, so -0.0 and 0.0 differ.
    return [
        [x.hex() for x in v] if isinstance(v, tuple) else v.hex() if isinstance(v, float) else v
        for v in dataclasses.astuple(report)
    ]


class TestFullReport:
    def test_pure_state_bundle(self):
        rep = full_report(pure_state(0.6))
        assert rep.mmc == pytest.approx(0.6, abs=1e-12)
        assert rep.correlation_distance == pytest.approx(0.78, abs=1e-12)
        assert rep.negativity == pytest.approx(0.6, abs=1e-12)
        assert rep.d1 == pytest.approx(0.6, abs=1e-12)
        assert rep.d1_method == "closed_form"
        assert rep.singular_values[0] >= rep.singular_values[1] >= rep.singular_values[2]

    def test_maximally_mixed_all_zero(self):
        rep = full_report(DensityMatrix(np.eye(4) / 4))
        assert rep.mmc == 0.0
        assert rep.correlation_distance == 0.0
        assert rep.negativity == 0.0
        assert rep.d1 == pytest.approx(0.0, abs=1e-12)

    def test_classical_classical_spot(self):
        rho = cc_state(ProbTable2x2(0.4, 0.1, 0.2, 0.3), 0.0, 0.0)
        rep = full_report(rho)
        assert rep.mmc == pytest.approx(0.4, abs=1e-12)
        assert rep.correlation_distance == pytest.approx(0.4, abs=1e-12)
        assert rep.negativity == 0.0
        assert rep.d1 == pytest.approx(0.0, abs=1e-12)

    def test_x_pattern_routing(self):
        # Every route is a closed form: X-shaped, locally X, or the five axes.
        assert full_report(bell_diagonal(0.5, -0.3, 0.2)).d1_method == "closed_form"
        rng = np.random.default_rng(67)
        rho = random_density_matrix(rng, components=4)
        assert _local_x_d1(bloch_matrix(rho).tolist()) is None
        assert full_report(rho).d1_method == "closed_form"

    def test_report_invariants_on_random_states(self):
        rng = np.random.default_rng(71)
        for _ in range(50):
            rep = full_report(random_density_matrix(rng))
            assert rep.mmc == rep.singular_values[0]
            assert rep.mmc - 1e-12 <= rep.correlation_distance <= 1.5 * rep.mmc + 1e-12

    def test_numeric_fields_are_python_floats(self):
        rng = np.random.default_rng(73)
        states = [
            bell_diagonal(0.5, -0.3, 0.2),
            DensityMatrix(np.eye(4) / 4),
            locally_rotated(rho_d(0.1, 0.2), rng),
            random_density_matrix(rng, components=3),
        ]
        for rho in states:
            rep = full_report(rho)
            values = [rep.mmc, rep.correlation_distance, rep.negativity, rep.d1]
            values += [*rep.singular_values, *rep.bloch_a, *rep.bloch_b]
            assert all(type(v) is float for v in values)

    def test_x_route_d1_matches_d1_x_state_bit_for_bit(self):
        # Complex anti-diagonal phases and off-pattern entries just below
        # X_PATTERN_TOL: the route reads the entries XStateParams would.
        rng = np.random.default_rng(331)
        below = 0.999 * X_PATTERN_TOL
        for _ in range(2000):
            p = random_x_params(rng)
            m = np.diag([p.rho11, p.rho22, p.rho33, p.rho44]).astype(complex)
            m[0, 3] = p.rho14 * np.exp(1j * rng.uniform(-math.pi, math.pi))
            m[1, 2] = p.rho23 * np.exp(1j * rng.uniform(-math.pi, math.pi))
            for i, j in ((0, 1), (0, 2), (1, 3), (2, 3)):
                if rng.random() < 0.5:
                    m[i, j] = below * np.exp(1j * rng.uniform(-math.pi, math.pi))
            m[3, 0], m[2, 1] = m[0, 3].conjugate(), m[1, 2].conjugate()
            for i, j in ((0, 1), (0, 2), (1, 3), (2, 3)):
                m[j, i] = m[i, j].conjugate()
            rho = DensityMatrix(m)
            assert is_x_shaped(rho.mat, X_PATTERN_TOL)
            rep = full_report(rho)
            expected, _ = d1_x_state(XStateParams.from_density_matrix(rho))
            assert rep.d1_method == "closed_form"
            assert rep.d1.hex() == expected.hex()

    @pytest.mark.parametrize(
        "record",
        [
            {"family": "pure", "params": {"n": 0.6}},
            {"family": "cq", "params": {"p1": 0.3, "theta": 0.4, "phi": 0.2, "a1": [0.1, 0.5, -0.3], "a2": [0, -0.2, 0.7]}},
            {"family": "cc", "params": {"p": [[0.4, 0.1], [0.2, 0.3]], "theta_a": 0.3, "phi_a": 0.5}},
            {"family": "x", "params": {"rho11": 0.3, "rho22": 0.2, "rho33": 0.1, "rho44": 0.4, "rho14": 0.25, "rho23": 0.1}},
            {"family": "rho_d", "params": {"w": 0.1, "s": 0.2}},
            {"family": "rho_theta", "params": {"theta": 0.8}},
            {"family": "bell_diagonal", "params": {"c": [0.5, -0.3, 0.2]}},
            {"family": "raw", "params": {"re": (np.eye(4) / 4).tolist(), "im": np.zeros((4, 4)).tolist()}},
        ],
        ids=lambda record: record["family"],
    )
    def test_two_eigvalsh_calls_per_closed_form_record(self, monkeypatch, record):
        # One on the stacked matrix and partial transpose, one on the 3x3 Gram,
        # both through the seam and none through numpy's wrapper; the Pauli
        # coefficients skip np.einsum's wrapper too.
        real, real_public, real_einsum = qcorr.states._eigvalsh, np.linalg.eigvalsh, np.einsum
        shapes, public, einsums = [], [], []

        def counting(h):
            shapes.append(np.shape(h))
            return real(h)

        def counting_public(h):
            public.append(np.shape(h))
            return real_public(h)

        def counting_einsum(*args, **kwargs):
            einsums.append(args[0])
            return real_einsum(*args, **kwargs)

        monkeypatch.setattr(qcorr.states, "_eigvalsh", counting)
        monkeypatch.setattr(qcorr.measures, "_eigvalsh", counting)
        monkeypatch.setattr(np.linalg, "eigvalsh", counting_public)
        monkeypatch.setattr(np, "einsum", counting_einsum)
        assert full_report(state_from_record(record)).d1_method == "closed_form"
        assert sorted(shapes) == [(2, 4, 4), (3, 3)]
        assert public == [] and einsums == []

    @pytest.mark.parametrize("mat", EDGE_STATES.values(), ids=EDGE_STATES.keys())
    def test_edge_states_warn_nothing_and_match_numpy_s_route(self, monkeypatch, mat):
        # numpy's wrapper runs LAPACK under an errstate that silences the
        # over/divide flags; the seam calls the gufunc bare.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            seam = full_report(DensityMatrix(mat))
        monkeypatch.setattr(qcorr.states, "_eigvalsh", lambda h: np.linalg.eigvalsh(h).tolist())
        monkeypatch.setattr(qcorr.measures, "_eigvalsh", lambda h: np.linalg.eigvalsh(h).tolist())
        monkeypatch.setattr(qcorr.measures, "_eigh", lambda h: (lambda w, v: (w.tolist(), v))(*np.linalg.eigh(h)))
        public = full_report(DensityMatrix(mat))
        assert repr(_float_bits(seam)) == repr(_float_bits(public))

    def test_inconsistent_report_rejected(self):
        with pytest.raises(ValueError):
            MeasureReport(
                mmc=0.5,
                correlation_distance=0.9,  # above 1.5 * mmc
                negativity=0.0,
                d1=0.1,
                d1_method="closed_form",
                singular_values=(0.5, 0.1, 0.0),
                bloch_a=(0, 0, 0),
                bloch_b=(0, 0, 0),
            )


# Generic cq states on which the 64x128 grid plus 40 refine steps alone used to
# stop at d1 = 1.0e-4 and 3.9e-3.
MISSED_CQ_RECORDS = [
    {"family": "cq", "params": {
        "p1": 0.7297296676399261, "theta": 1.1445642901251563, "phi": 3.9978674073766456,
        "a1": [-0.715795767631048, 0.5394313364056318, 0.3307437601239708],
        "a2": [-0.5220437541903601, 0.43173852093886933, 0.1975885731372346]}},
    {"family": "cq", "params": {
        "p1": 0.36336183993397303, "theta": 1.2424237539063505, "phi": 1.1682154301345848,
        "a1": [0.3869525533519482, -0.10743789742547423, 0.48003701728284764],
        "a2": [-0.25673912091845, -0.7769853073995477, 0.06909740506054]}},
]


class TestZeroDiscordReports:
    @pytest.mark.parametrize("record", MISSED_CQ_RECORDS)
    def test_recorded_search_misses_are_closed(self, record):
        rep = full_report(state_from_record(record))
        assert rep.d1_method == "closed_form"
        assert rep.d1 <= 1e-12

    @pytest.mark.parametrize("record", MISSED_CQ_RECORDS)
    def test_eigen_axes_close_the_recorded_search_misses(self, record):
        # The default search alone stops near 1e-8 here.  The five-axis route,
        # which serves states just beyond the locally-X tolerance, gives 0:
        # R has rank one, so a lies along the top eigenvector of T T^T, and
        # the part of a normal to either other eigenvector is a itself.
        rho = state_from_record(record)
        r = bloch_matrix(rho)
        assert d1_oracle(rho) > 1e-9
        assert _five_axes_d1(r, r.tolist()) <= 1e-12

    def test_random_cq_states(self):
        rng = np.random.default_rng(139)
        for _ in range(200):
            rho = cq_state(
                rng.random(),
                rng.random() * math.pi / 2,
                rng.random() * 2 * math.pi,
                random_bloch_vector(rng),
                random_bloch_vector(rng),
            )
            rep = full_report(rho)
            assert rep.d1_method == "closed_form"
            assert rep.d1 <= 1e-12

    def test_random_cc_states(self):
        rng = np.random.default_rng(149)
        for _ in range(200):
            table = ProbTable2x2.from_array(rng.dirichlet(np.ones(4)).reshape(2, 2))
            angles = rng.random(4) * (math.pi / 2, 2 * math.pi, math.pi / 2, 2 * math.pi)
            rep = full_report(cc_state(table, *angles))
            assert rep.d1_method == "closed_form"
            assert rep.d1 <= 1e-12

    def test_never_above_the_search(self):
        # The route and the search evaluate the kernel at different axes, so
        # at a shared minimum they may round apart by an ulp.
        rng = np.random.default_rng(151)
        for _ in range(20):
            rho = random_density_matrix(rng)
            assert full_report(rho).d1 <= d1_oracle(rho) + CLOSED_TOL

    def test_repeated_reports_bit_identical(self):
        rng = np.random.default_rng(157)
        states = [state_from_record(r) for r in MISSED_CQ_RECORDS]
        states += [random_density_matrix(rng) for _ in range(4)]
        for rho in states:
            first = report_to_record(full_report(rho))
            second = report_to_record(full_report(rho))
            assert repr(first) == repr(second)


class TestLocalUnitaryInvariance:
    def test_mmc_distance_negativity(self):
        rng = np.random.default_rng(73)
        for _ in range(50):
            rho = random_density_matrix(rng)
            u = np.kron(random_local_unitary(rng), random_local_unitary(rng))
            rotated = DensityMatrix(u @ rho.mat @ u.conj().T)
            assert mmc(rotated) == pytest.approx(mmc(rho), abs=1e-10)
            assert correlation_distance(rotated) == pytest.approx(
                correlation_distance(rho), abs=1e-10
            )
            assert negativity(rotated) == pytest.approx(negativity(rho), abs=1e-10)

    def test_rotated_x_state_d1(self):
        # A rotated X state is in general not X-shaped; its d1 is still the
        # unrotated closed form.
        rng = np.random.default_rng(79)
        for _ in range(200):
            params = random_x_params(rng)
            u = np.kron(random_local_unitary(rng), random_local_unitary(rng))
            rotated = DensityMatrix(u @ x_state(params).mat @ u.conj().T)
            exact, _ = d1_x_state(params)
            assert abs(full_report(rotated).d1 - exact) <= CLOSED_TOL

    def test_d1_on_locally_x_states(self):
        rng = np.random.default_rng(89)
        states = [locally_rotated(x_state(random_x_params(rng)), rng) for _ in range(40)]
        states += [
            cq_state(0.3, 0.5, 1.0, (0.5, 0.0, 0.0), (0.0, 0.0, 0.8)),
            cc_state(ProbTable2x2(0.4, 0.1, 0.2, 0.3), 0.3, 0.9, 1.2, 2.0),
            locally_rotated(pure_state(0.6), rng),
            locally_rotated(bell_diagonal(0.5, -0.3, 0.2), rng),
        ]
        for rho in states:
            rep = full_report(rho)
            assert rep.d1_method == "closed_form"
            assert abs(full_report(locally_rotated(rho, rng)).d1 - rep.d1) <= CLOSED_TOL

    def test_d1_on_mixtures(self):
        # Both sides take the five axes, which rotate with the state.
        rng = np.random.default_rng(97)
        for _ in range(40):
            rho = random_density_matrix(rng, components=int(rng.integers(2, 7)))
            rep = full_report(rho)
            assert rep.d1_method == "closed_form"
            assert abs(full_report(locally_rotated(rho, rng)).d1 - rep.d1) <= CLOSED_TOL


def _coupled(params: XStateParams, coupling: float) -> DensityMatrix:
    # The X state plus coupling * sigma_x (x) sigma_z / 4: T_13 = coupling, so
    # A's Bloch vector (along z) misses being an eigenvector of T T^T by the
    # relative coupling / |R| that the closed-form route tests.
    return DensityMatrix(x_state(params).mat + 0.25 * coupling * np.kron(pauli(1), pauli(3)))


# Non-X states whose d1 is known, each X-shaped up to local rotations.  The
# three X states have (t1, t2, t3) = (0.24, -0.16, 0.7), (0.3, -0.1, 0.14) and
# (0.4, -0.2, 0.06), so a, along z, lies on T's largest, middle and smallest
# singular axis in turn; the others have a = 0 (Werner, Bell-diagonal,
# maximally entangled, I/4) or rank R = 1 (cq, cc).
LOCAL_X_CASES = [
    pytest.param(XStateParams(0.45, 0.1, 0.05, 0.4, 0.1, 0.02), None, id="a on largest axis"),
    pytest.param(XStateParams(0.34, 0.18, 0.25, 0.23, 0.1, 0.05), None, id="a on middle axis"),
    pytest.param(XStateParams(0.3, 0.22, 0.25, 0.23, 0.15, 0.05), None, id="a on smallest axis"),
    pytest.param(rho_d(0.1, 0.2), 0.48, id="rho_d"),
    pytest.param(rho_theta(math.pi / 4), 0.5, id="rho_theta"),
    pytest.param(pure_state(0.6), 0.6, id="pure"),
    pytest.param(pure_state(1.0), 1.0, id="maximally entangled"),
    pytest.param(bell_diagonal(-0.3, -0.3, -0.3), 0.3, id="werner"),
    pytest.param(bell_diagonal(0.5, -0.3, 0.2), 0.3, id="bell_diagonal"),
    pytest.param(cq_state(0.3, 0.0, 0.0, (0.5, 0.1, 0.0), (0.0, -0.3, 0.8)), 0.0, id="cq at a pole"),
    pytest.param(cc_state(ProbTable2x2(0.4, 0.1, 0.2, 0.3), 0.3, 0.9, 1.2, 2.0), 0.0, id="cc"),
    pytest.param(DensityMatrix(np.eye(4) / 4), 0.0, id="I/4"),
]
NEAR_MISS = XStateParams(0.35, 0.25, 0.15, 0.25, 0.12, 0.05)


def _a_zero_state(rng) -> DensityMatrix:
    """(I + I (x) b.sigma + sum_ij T_ij sigma_i (x) sigma_j) / 4: A's Bloch vector is 0.

    With |b| + t1 + t2 + t3 <= 1 it is a state: each term's spectrum lies in
    [-weight, weight].  b != 0 and rotated T keep it off the X pattern.
    """
    weights = rng.dirichlet(np.ones(5))[:4]
    direction = rng.standard_normal(3)
    b = weights[0] * direction / np.linalg.norm(direction)
    u, v = (np.linalg.qr(rng.standard_normal((3, 3)))[0] for _ in range(2))
    t = u @ np.diag(weights[1:]) @ v.T
    eye2 = np.eye(2)
    m = np.eye(4) + sum(b[j] * np.kron(eye2, pauli(j + 1)) for j in range(3))
    m = m + sum(t[i, j] * np.kron(pauli(i + 1), pauli(j + 1)) for i in range(3) for j in range(3))
    return DensityMatrix(m / 4)


class TestLocalXRoute:
    @pytest.mark.parametrize("rho, known", LOCAL_X_CASES)
    def test_known_values(self, rho, known):
        # known is None for an X state given by its parameters: the closed form.
        if known is None:
            known, _ = d1_x_state(rho)
            rho = x_state(rho)
        rng = np.random.default_rng(101)
        for state in (rho, locally_rotated(rho, rng), locally_rotated(rho, rng)):
            d1 = _local_x_d1(bloch_matrix(state).tolist())
            assert d1 is not None and abs(d1 - known) <= CLOSED_TOL
            if not is_x_shaped(state.mat):
                rep = full_report(state)
                assert (rep.d1, rep.d1_method) == (d1, "closed_form")

    # The reference names the check: the locally-X route matches the search
    # at CLOSED_TOL, and the five-axis route, which serves the larger
    # coupling, is held to the oracle from both sides.
    @pytest.mark.parametrize("scale, reference", [(10.0, "oracle"), (0.1, "closed_form")])
    def test_near_miss(self, scale, reference):
        coupling = scale * X_PATTERN_TOL * float(np.linalg.norm(bloch_matrix(x_state(NEAR_MISS))))
        rho = locally_rotated(_coupled(NEAR_MISS, coupling), np.random.default_rng(103))
        rep = full_report(rho)
        assert rep.d1_method == "closed_form"
        assert (_local_x_d1(bloch_matrix(rho).tolist()) is None) == (reference == "oracle")
        fine = min(d1_oracle(rho, FINE), _d1_eigen_axes(rho))
        if reference == "closed_form":
            assert abs(rep.d1 - fine) <= CLOSED_TOL
        else:
            assert fine - ORACLE_TOL <= rep.d1 <= fine + CLOSED_TOL
        # d1 is 1-Lipschitz in R, and the coupling moves R by about 1e-11.
        assert abs(rep.d1 - d1_x_state(NEAR_MISS)[0]) <= CLOSED_TOL

    def test_a_zero_states_against_the_fine_oracle(self):
        rng = np.random.default_rng(109)
        for _ in range(20):
            rho = _a_zero_state(rng)
            assert not is_x_shaped(rho.mat)
            rep = full_report(rho)
            oracle = d1_oracle(rho, FINE)
            assert rep.d1_method == "closed_form"
            assert oracle - ORACLE_TOL <= rep.d1 <= oracle + CLOSED_TOL

    def test_generic_mixtures_take_the_search(self):
        # They are not locally X, so they take the five axes.
        rng = np.random.default_rng(107)
        for _ in range(1000):
            rho = random_density_matrix(rng, components=int(rng.integers(2, 7)))
            assert _local_x_d1(bloch_matrix(rho).tolist()) is None


def _near_x_state(rng) -> DensityMatrix:
    # A locally rotated X state mixed with a random state at weight 1e-9 to 1e-3.
    weight = 10.0 ** rng.uniform(-9.0, -3.0)
    x = locally_rotated(x_state(random_x_params(rng)), rng)
    mat = (1.0 - weight) * x.mat + weight * random_density_matrix(rng).mat
    return DensityMatrix(0.5 * (mat + mat.conj().T))


class TestFiveAxes:
    @pytest.mark.parametrize("kind", ["mixture", "near_x"])
    def test_against_the_fine_oracle(self, kind):
        # The route takes the least of five axes' values; the fine search
        # bounds d1 from above, within its accuracy.
        rng = np.random.default_rng(163 if kind == "mixture" else 167)
        checked = 0
        while checked < 50:
            rho = random_density_matrix(rng) if kind == "mixture" else _near_x_state(rng)
            if _local_x_d1(bloch_matrix(rho).tolist()) is not None:
                continue
            rep = full_report(rho)
            oracle = d1_oracle(rho, FINE)
            assert rep.d1_method == "closed_form"
            assert oracle - ORACLE_TOL <= rep.d1 <= oracle + CLOSED_TOL
            checked += 1


class TestPartialTransposeInvariance:
    def test_d1_on_ppt_states(self):
        # Transposing B flips the sign of T's second column.  d1 sees T only
        # through T T^T, so a PPT state and its partial transpose share d1.
        rng = np.random.default_rng(83)
        checked = 0
        while checked < 150:
            w = rng.random()
            rho = DensityMatrix(w * random_density_matrix(rng).mat + (1.0 - w) * np.eye(4) / 4)
            if negativity(rho) > 0.0:
                continue
            flipped = DensityMatrix(partial_transpose(rho))
            assert abs(full_report(flipped).d1 - full_report(rho).d1) <= 1e-12
            assert abs(d1_oracle(flipped) - d1_oracle(rho)) <= 1e-12
            checked += 1


SWAP = np.eye(4)[[0, 2, 1, 3]]


def _gram_state(entries):
    g = np.array(entries[:16]).reshape(4, 4) + 1j * np.array(entries[16:]).reshape(4, 4)
    mat = g @ g.conj().T
    return DensityMatrix(mat / np.trace(mat).real)


_gram_entries = st.lists(st.floats(-1.0, 1.0), min_size=32, max_size=32).filter(
    lambda e: sum(x * x for x in e) > 1e-2
)


class TestSwapSymmetry:
    @given(st.builds(_gram_state, _gram_entries))
    @settings(max_examples=200, deadline=None)
    @example(cq_state(0.3, 0.4, 1.1, (0.2, -0.5, 0.1), (0.0, 0.3, -0.6)))
    @example(rho_d(0.1, 0.2))
    @example(pure_state(0.6))
    def test_mmc_distance_negativity(self, rho):
        # d1 is left out: it measures A only, so swapping A and B changes it.
        swapped = DensityMatrix(SWAP @ rho.mat @ SWAP)
        assert mmc(swapped) == pytest.approx(mmc(rho), abs=1e-10)
        assert correlation_distance(swapped) == pytest.approx(correlation_distance(rho), abs=1e-10)
        assert negativity(swapped) == pytest.approx(negativity(rho), abs=1e-10)


def _isometry(rng) -> np.ndarray:
    # A Stinespring isometry C^2 -> C^2 (x) C^2, output qubit first: the Q of a
    # complex Gaussian 4x2 matrix, so its two columns are orthonormal.
    return np.linalg.qr(rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2)))[0]


def _channel(rho: DensityMatrix, v: np.ndarray, side: str) -> DensityMatrix:
    """The channel with isometry ``v`` applied to subsystem ``side``, the environment traced out."""
    kraus = v.reshape(2, 2, 2).transpose(1, 0, 2)  # K_e = (I (x) <e|) v
    eye = np.eye(2)
    ops = [np.kron(k, eye) if side == "A" else np.kron(eye, k) for k in kraus]
    out = sum(op @ rho.mat @ op.conj().T for op in ops)
    return DensityMatrix(0.5 * (out + out.conj().T))


class TestLocalChannels:
    """Monotonicity under a local channel (a CPTP map on one qubit)."""

    def test_isometry_gives_a_trace_preserving_channel(self):
        v = _isometry(np.random.default_rng(113))
        kraus = v.reshape(2, 2, 2).transpose(1, 0, 2)
        assert np.abs(sum(k.conj().T @ k for k in kraus) - np.eye(2)).max() <= 1e-14

    @pytest.mark.parametrize("side", ["A", "B"])
    def test_mmc_distance_negativity_do_not_rise(self, side):
        # A channel maps Q to M_A Q M_B^T with ||M|| <= 1, the trace norm
        # contracts, and negativity does not rise under local operations.
        rng = np.random.default_rng(127 if side == "A" else 131)
        for _ in range(100):
            rho = random_density_matrix(rng)
            before, after = full_report(rho), full_report(_channel(rho, _isometry(rng), side))
            assert after.mmc <= before.mmc + CLOSED_TOL
            assert after.correlation_distance <= before.correlation_distance + CLOSED_TOL
            assert after.negativity <= before.negativity + CLOSED_TOL

    def test_d1_does_not_rise_under_a_channel_on_b(self):
        # The measurement on A commutes with a channel on B, and the trace norm contracts.
        rng = np.random.default_rng(137)
        for _ in range(60):
            rho = random_density_matrix(rng)
            after = full_report(_channel(rho, _isometry(rng), "B"))
            assert after.d1 <= full_report(rho).d1 + CLOSED_TOL

    def test_a_channel_on_a_can_raise_d1(self):
        # (|00><00| + |1+><1+|) / 2 is classical on A.  Measuring A in the z
        # basis and preparing |0> or |+> (v|0> = |00>, v|1> = |+>|1>) gives
        # (|00><00| + |++><++|) / 2, whose d1 on A is 1/2.
        zero, one, plus = np.eye(2)[0], np.eye(2)[1], np.array([1.0, 1.0]) / math.sqrt(2.0)

        def proj(x, y):
            return np.outer(np.kron(x, y), np.kron(x, y))

        rho = DensityMatrix(0.5 * (proj(zero, zero) + proj(one, plus)))
        v = np.column_stack([np.kron(zero, zero), np.kron(plus, one)])
        before, after = full_report(rho), full_report(_channel(rho, v, "A"))
        assert before.d1 <= CLOSED_TOL
        assert abs(after.d1 - 0.5) <= CLOSED_TOL


def test_d1_at_most_mmc_when_a_vanishes():
    # With a = 0, Q = T: mmc is t1(T) and d1 the middle singular value t2(T).
    rng = np.random.default_rng(139)
    for _ in range(200):
        rho = _a_zero_state(rng)
        t = np.linalg.svd(correlation_tensor(rho), compute_uv=False)
        rep = full_report(rho)
        assert abs(rep.mmc - t[0]) <= CLOSED_TOL and abs(rep.d1 - t[1]) <= CLOSED_TOL
        assert rep.d1 <= rep.mmc + CLOSED_TOL

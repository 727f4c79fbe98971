import math

import numpy as np
import pytest

from qcorr.errors import StateError
from qcorr.states import (
    _PAULI,
    _pauli_coefficients,
    PSD_TOL,
    TRACE_TOL,
    DensityMatrix,
    ProbTable2x2,
    XStateParams,
    bell_diagonal,
    bloch_vectors,
    cc_state,
    correlation_tensor,
    cq_state,
    is_x_shaped,
    partial_trace,
    partial_transpose,
    pauli,
    projector_pair,
    pure_state,
    qubit_state,
    rho_d,
    rho_d_smax,
    rho_theta,
    x_state,
)
from qcorr.verify import random_density_matrix


def axis_of(theta, phi):
    """Bloch axis of the first projector returned by projector_pair."""
    return np.array(
        [
            math.sin(2 * theta) * math.cos(phi),
            math.sin(2 * theta) * math.sin(phi),
            math.cos(2 * theta),
        ]
    )


class TestPauli:
    def test_values(self):
        assert np.allclose(pauli(3), np.diag([1, -1]))
        assert np.allclose(pauli(1) @ pauli(1), np.eye(2))

    def test_commutator(self):
        comm = pauli(1) @ pauli(2) - pauli(2) @ pauli(1)
        assert np.allclose(comm, 2j * pauli(3))

    def test_bad_index(self):
        with pytest.raises(StateError):
            pauli(0)
        with pytest.raises(StateError):
            pauli(4)


class TestProjectorPair:
    def test_computational_basis(self):
        p1, p2 = projector_pair(0.0, 0.0)
        assert np.allclose(p1, np.diag([1.0, 0.0]))
        assert np.allclose(p2, np.diag([0.0, 1.0]))

    def test_diagonal_basis(self):
        p1, _ = projector_pair(math.pi / 4, 0.0)
        assert np.allclose(p1, np.full((2, 2), 0.5))

    def test_projector_algebra_random_angles(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            theta = rng.random() * math.pi
            phi = rng.random() * 2 * math.pi
            p1, p2 = projector_pair(theta, phi)
            assert np.abs(p1 + p2 - np.eye(2)).max() <= 1e-12
            assert np.abs(p1 @ p2).max() <= 1e-12
            assert np.abs(p1 @ p1 - p1).max() <= 1e-12
            assert np.abs(p2 @ p2 - p2).max() <= 1e-12
            assert np.trace(p1).real == pytest.approx(1.0, abs=1e-12)


class TestQubitState:
    def test_maximally_mixed(self):
        assert np.allclose(qubit_state((0, 0, 0)), np.eye(2) / 2)

    def test_poles_and_equator(self):
        assert np.allclose(qubit_state((0, 0, 1)), np.diag([1.0, 0.0]))
        assert np.allclose(qubit_state((1, 0, 0)), np.full((2, 2), 0.5))

    def test_eigenvalues(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            v = rng.standard_normal(3)
            v = v / np.linalg.norm(v) * rng.random()
            r = np.linalg.norm(v)
            eigs = np.linalg.eigvalsh(qubit_state(v))
            assert np.allclose(eigs, [(1 - r) / 2, (1 + r) / 2], atol=1e-12)

    def test_norm_above_one_rejected(self):
        with pytest.raises(StateError):
            qubit_state((1.0, 0.5, 0.0))


class TestDensityMatrixValidation:
    def test_rejects_wrong_shape(self):
        with pytest.raises(StateError):
            DensityMatrix(np.eye(2) / 2)

    def test_rejects_non_hermitian(self):
        m = np.diag([0.25, 0.25, 0.25, 0.25]).astype(complex)
        m[0, 1] = 1e-3
        with pytest.raises(StateError, match="Hermitian"):
            DensityMatrix(m)

    def test_rejects_wrong_trace(self):
        with pytest.raises(StateError, match="trace"):
            DensityMatrix(np.eye(4) / 2)

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(StateError, match="positive semidefinite"):
            DensityMatrix(np.diag([0.6, 0.6, -0.1, -0.1]))

    def test_rejects_nan_off_diagonal_pair(self):
        m = np.eye(4, dtype=complex) / 4
        m[0, 1] = m[1, 0] = np.nan
        with pytest.raises(StateError, match="non-finite"):
            DensityMatrix(m)

    def test_rejects_infinite_diagonal_entry(self):
        m = np.eye(4) / 4
        m[2, 2] = np.inf
        with pytest.raises(StateError, match="non-finite"):
            DensityMatrix(m)

    def test_matrix_is_read_only(self):
        rho = pure_state(0.5)
        with pytest.raises(ValueError):
            rho.mat[0, 0] = 2.0


class TestPureState:
    def test_product_limit(self):
        assert np.allclose(pure_state(0.0).mat, np.diag([1.0, 0, 0, 0]))

    def test_bell_limit(self):
        expected = np.zeros((4, 4))
        expected[0, 0] = expected[0, 3] = expected[3, 0] = expected[3, 3] = 0.5
        assert np.allclose(pure_state(1.0).mat, expected)

    def test_intermediate_entries(self):
        m = pure_state(0.6).mat
        assert m[0, 0].real == pytest.approx(0.9)
        assert m[3, 3].real == pytest.approx(0.1)
        assert m[0, 3].real == pytest.approx(0.3)

    def test_rank_one(self):
        for n in (0.2, 0.5, 0.9):
            eigs = np.linalg.eigvalsh(pure_state(n).mat)
            assert eigs[2] <= 1e-10

    def test_out_of_range(self):
        with pytest.raises(StateError):
            pure_state(1.2)
        with pytest.raises(StateError):
            pure_state(-0.1)


class TestClassicalQuantum:
    def test_pure_weight_is_product(self):
        a1 = (0.3, -0.2, 0.4)
        rho = cq_state(1.0, 0.4, 0.9, a1, (0, 0, 1))
        p1, _ = projector_pair(0.4, 0.9)
        assert np.allclose(rho.mat, np.kron(p1, qubit_state(a1)), atol=1e-14)

    def test_classical_mixture(self):
        rho = cq_state(0.5, 0.0, 0.0, (0, 0, 1), (0, 0, -1))
        assert np.allclose(rho.mat, np.diag([0.5, 0, 0, 0.5]))

    def test_marginal_commutes_with_projector(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            theta = rng.random() * math.pi / 2
            phi = rng.random() * 2 * math.pi
            a1 = rng.standard_normal(3)
            a1 = a1 / np.linalg.norm(a1) * rng.random()
            a2 = rng.standard_normal(3)
            a2 = a2 / np.linalg.norm(a2) * rng.random()
            rho = cq_state(rng.random(), theta, phi, a1, a2)
            p1, _ = projector_pair(theta, phi)
            red = partial_trace(rho, "A")
            assert np.abs(red @ p1 - p1 @ red).max() <= 1e-12

    def test_invalid_probability(self):
        with pytest.raises(StateError):
            cq_state(1.5, 0.0, 0.0, (0, 0, 0), (0, 0, 0))


class TestClassicalClassical:
    def test_uniform_table(self):
        table = ProbTable2x2(0.25, 0.25, 0.25, 0.25)
        assert np.allclose(cc_state(table, 0.7, 1.3).mat, np.eye(4) / 4, atol=1e-14)

    def test_diagonal_table(self):
        table = ProbTable2x2(0.5, 0.0, 0.0, 0.5)
        assert np.allclose(cc_state(table, 0.0, 0.0).mat, np.diag([0.5, 0, 0, 0.5]))

    def test_general_table_computational_basis(self):
        table = ProbTable2x2(0.4, 0.1, 0.2, 0.3)
        assert np.allclose(cc_state(table, 0.0, 0.0).mat, np.diag([0.4, 0.1, 0.2, 0.3]))

    def test_nan_table_rejected(self):
        with pytest.raises(StateError, match="finite"):
            ProbTable2x2(0.5, math.nan, 0.0, 0.5)

    def test_matches_cq_construction(self):
        # a cc state is a cq state whose B-side states are mixtures of the
        # B projectors, i.e. Bloch vectors proportional to the +/- B axis
        rng = np.random.default_rng(31)
        for _ in range(50):
            p = rng.dirichlet(np.ones(4)) * 0.96 + 0.01
            p = p / p.sum()
            table = ProbTable2x2(p[0], p[1], p[2], p[3])
            theta, phi = rng.random() * math.pi / 2, rng.random() * 2 * math.pi
            rho_cc = cc_state(table, theta, phi)
            n_b = axis_of(theta, phi)
            p_row1 = p[0] + p[1]
            p_row2 = p[2] + p[3]
            a1 = (p[0] - p[1]) / p_row1 * n_b
            a2 = (p[2] - p[3]) / p_row2 * n_b
            rho_cq = cq_state(p_row1, theta, phi, a1, a2)
            assert np.abs(rho_cc.mat - rho_cq.mat).max() <= 1e-12

    def test_bad_table(self):
        with pytest.raises(StateError):
            ProbTable2x2(0.5, 0.5, 0.5, -0.5)
        with pytest.raises(StateError):
            ProbTable2x2(0.5, 0.5, 0.5, 0.5)


class TestXState:
    def test_identity_quarter(self):
        params = XStateParams(0.25, 0.25, 0.25, 0.25, 0.0, 0.0)
        assert np.allclose(x_state(params).mat, np.eye(4) / 4)

    def test_reproduces_rho_d(self):
        rho = rho_d(0.1, 0.2)
        rebuilt = x_state(XStateParams.from_density_matrix(rho))
        assert np.abs(rho.mat - rebuilt.mat).max() <= 1e-14

    def test_reproduces_rho_theta(self):
        rho = rho_theta(0.8)
        rebuilt = x_state(XStateParams.from_density_matrix(rho))
        assert np.abs(rho.mat - rebuilt.mat).max() <= 1e-14

    def test_reproduces_bell_diagonal(self):
        rho = bell_diagonal(0.5, -0.3, 0.2)
        rebuilt = x_state(XStateParams.from_density_matrix(rho))
        assert np.abs(rho.mat - rebuilt.mat).max() <= 1e-14

    def test_block_constraint_enforced(self):
        with pytest.raises(StateError):
            XStateParams(0.25, 0.25, 0.25, 0.25, 0.3, 0.0)

    def test_negative_entry_rejected(self):
        with pytest.raises(StateError):
            XStateParams(0.25, 0.25, 0.25, 0.25, -0.1, 0.0)

    @pytest.mark.parametrize(
        "params",
        [
            (0.25, 0.25, 0.25, 0.25, 0.25 - 0.5 * PSD_TOL, 0.0),
            (0.5 * PSD_TOL, 0.5, 0.25, 0.25 - 0.5 * PSD_TOL, 0.0, 0.0),
        ],
    )
    def test_accepts_blocks_down_to_psd_tolerance(self, params):
        # Eigenvalues down to PSD_TOL pass DensityMatrix, so they must pass here.
        rebuilt = XStateParams.from_density_matrix(x_state(XStateParams(*params)))
        assert rebuilt == XStateParams(*params)

    def test_rejects_nan_parameter(self):
        with pytest.raises(StateError, match="finite"):
            XStateParams(0.25, 0.25, 0.25, 0.25, math.nan, 0.0)
        with pytest.raises(StateError, match="finite"):
            XStateParams(math.nan, 0.25, 0.25, 0.25, 0.0, 0.0)


class TestRhoD:
    def test_smax_value(self):
        assert rho_d_smax(0.1) == pytest.approx(0.2, abs=1e-15)

    def test_matrix_layout(self):
        m = rho_d(0.1, 0.2).mat
        assert np.allclose(np.diag(m), [0.1, 0.1, 0.4, 0.4])
        for i in range(4):
            assert m[i, 3 - i].real == pytest.approx(0.2)

    def test_s_beyond_smax_rejected(self):
        with pytest.raises(StateError):
            rho_d(0.1, 0.21)

    def test_w_out_of_range(self):
        with pytest.raises(StateError):
            rho_d(0.5, 0.1)


class TestRhoTheta:
    def test_quarter_pi_matrix(self):
        m = rho_theta(math.pi / 4).mat
        assert np.allclose(np.diag(m), [0.25, 0.0, 0.5, 0.25])
        assert m[0, 3].real == pytest.approx(0.25)

    def test_small_theta_limit_is_uncorrelated(self):
        m = rho_theta(1e-8).mat
        assert np.allclose(m, np.diag([0.5, 0.0, 0.5, 0.0]), atol=1e-7)

    def test_range_enforced(self):
        with pytest.raises(StateError):
            rho_theta(0.0)
        with pytest.raises(StateError):
            rho_theta(math.pi / 2)


class TestBellDiagonal:
    def test_origin_is_maximally_mixed(self):
        assert np.allclose(bell_diagonal(0, 0, 0).mat, np.eye(4) / 4)

    def test_vertex_is_bell_state(self):
        assert np.abs(bell_diagonal(1, -1, 1).mat - pure_state(1.0).mat).max() <= 1e-14

    def test_outside_tetrahedron_rejected(self):
        with pytest.raises(StateError, match="tetrahedron"):
            bell_diagonal(0.9, -0.5, 0.3)

    def test_marginals_maximally_mixed(self):
        rho = bell_diagonal(0.5, -0.3, 0.2)
        assert np.allclose(partial_trace(rho, "A"), np.eye(2) / 2, atol=1e-14)
        assert np.allclose(partial_trace(rho, "B"), np.eye(2) / 2, atol=1e-14)


class TestPartialTrace:
    def test_product_state_recovery(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            a = rng.standard_normal(3)
            a = a / np.linalg.norm(a) * rng.random()
            b = rng.standard_normal(3)
            b = b / np.linalg.norm(b) * rng.random()
            rho = DensityMatrix(np.kron(qubit_state(a), qubit_state(b)))
            assert np.abs(partial_trace(rho, "A") - qubit_state(a)).max() <= 1e-12
            assert np.abs(partial_trace(rho, "B") - qubit_state(b)).max() <= 1e-12

    def test_bell_marginals(self):
        rho = pure_state(1.0)
        assert np.allclose(partial_trace(rho, "A"), np.eye(2) / 2)
        assert np.allclose(partial_trace(rho, "B"), np.eye(2) / 2)

    def test_rho_theta_marginal(self):
        red = partial_trace(rho_theta(math.pi / 4), "A")
        assert np.allclose(red, np.diag([0.25, 0.75]), atol=1e-14)

    def test_bad_side(self):
        with pytest.raises(ValueError):
            partial_trace(pure_state(0.5), "C")


class TestPartialTranspose:
    def test_diagonal_unchanged(self):
        rho = DensityMatrix(np.diag([0.4, 0.1, 0.2, 0.3]))
        assert np.array_equal(partial_transpose(rho), rho.mat)

    def test_bell_spectrum(self):
        eigs = np.linalg.eigvalsh(partial_transpose(pure_state(1.0)))
        assert np.allclose(eigs, [-0.5, 0.5, 0.5, 0.5], atol=1e-12)

    def test_involution_and_trace(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            rho = DensityMatrix((m @ m.conj().T) / np.trace(m @ m.conj().T).real)
            pt = partial_transpose(rho)
            assert np.abs(pt - pt.conj().T).max() <= 1e-12
            assert np.trace(pt).real == pytest.approx(1.0, abs=1e-12)
            back = pt.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
            assert np.abs(back - rho.mat).max() <= 1e-14


class TestBlochAndCorrelation:
    def test_maximally_mixed(self):
        rho = DensityMatrix(np.eye(4) / 4)
        a, b = bloch_vectors(rho)
        assert np.allclose(a, 0) and np.allclose(b, 0)
        assert np.allclose(correlation_tensor(rho), np.zeros((3, 3)))

    def test_pure_state_marginals(self):
        for n in (0.3, 0.6, 1.0):
            a, b = bloch_vectors(pure_state(n))
            z = math.sqrt(1 - n * n)
            assert np.allclose(a, [0, 0, z], atol=1e-12)
            assert np.allclose(b, [0, 0, z], atol=1e-12)

    def test_bell_diagonal_tensor(self):
        rho = bell_diagonal(0.5, -0.3, 0.2)
        a, b = bloch_vectors(rho)
        assert np.allclose(a, 0, atol=1e-14) and np.allclose(b, 0, atol=1e-14)
        assert np.allclose(correlation_tensor(rho), np.diag([0.5, -0.3, 0.2]), atol=1e-14)

    def test_pure_state_tensor(self):
        t = correlation_tensor(pure_state(0.6))
        assert np.allclose(t, np.diag([0.6, -0.6, 1.0]), atol=1e-12)

    def test_pauli_coefficients_rebuild_the_state(self):
        rng = np.random.default_rng(149)
        for _ in range(50):
            rho = random_density_matrix(rng)
            c = _pauli_coefficients(rho)
            assert abs(c[0, 0] - 1.0) <= TRACE_TOL
            rebuilt = np.einsum("ij,ijab->ab", c, _PAULI) / 4
            assert np.abs(rebuilt - rho.mat).max() <= 1e-12


class TestXPattern:
    def test_x_shaped_families(self):
        assert is_x_shaped(rho_d(0.2, 0.1).mat)
        assert is_x_shaped(bell_diagonal(0.3, 0.2, -0.1).mat)
        assert is_x_shaped(np.eye(4) / 4)

    def test_off_pattern_entry_detected(self):
        m = np.eye(4, dtype=complex) / 4
        m[0, 1] = m[1, 0] = 1e-6
        assert not is_x_shaped(m)

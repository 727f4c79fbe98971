import cmath
import itertools
import math
import warnings

import numpy as np
import pytest
from numpy.linalg import LinAlgError

import qcorr.states
from qcorr.errors import DimensionError, StateError
from qcorr.oracles import disturbance_norms
from qcorr.stateio import state_to_record
from qcorr.states import (
    _PAULI,
    _eigh,
    _eigvalsh,
    _pauli_coefficients,
    HERMITICITY_TOL,
    PSD_TOL,
    TRACE_TOL,
    DensityMatrix,
    ProbTable2x2,
    XStateParams,
    bell_diagonal,
    bloch_matrix,
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
from qcorr.verify import random_bloch_vector, random_density_matrix, random_x_params

from oracle_reference import (
    bell_diagonal_pauli_sum,
    cc_state_kron,
    cq_state_kron,
    pure_state_zeros,
    qubit_state_einsum,
    rho_d_zeros,
    rho_theta_zeros,
    x_state_zeros,
)


# X states whose blocks have an eigenvalue at PSD_TOL / 2.
X_AT_PSD_TOLERANCE = [
    (0.25, 0.25, 0.25, 0.25, 0.25 - 0.5 * PSD_TOL, 0.0),
    (0.5 * PSD_TOL, 0.5, 0.25, 0.25 - 0.5 * PSD_TOL, 0.0, 0.0),
]


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

    @pytest.mark.parametrize(
        "a", [np.array([0.1, 0.2, 0.3]) + 1j, [0.1, 0.2, 0.3 + 0j]], ids=["complex array", "one complex entry"]
    )
    def test_complex_vector_is_state_error(self, a):
        # A cast to float would drop the imaginary part behind a ComplexWarning and give a plausible state.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(StateError, match="real 3-vector"):
                qubit_state(a)
            with pytest.raises(StateError, match="real 3-vector"):
                cq_state(0.5, 0.3, 0.2, a, (0.0, 0.0, 1.0))


class TestDensityMatrixValidation:
    def test_rejects_wrong_shape(self):
        with pytest.raises(StateError):
            DensityMatrix(np.eye(2) / 2)

    @pytest.mark.parametrize(
        "mat", ["abc", [[0.25, 0.0], [0.25]], object(), {"mat": 1}], ids=["text", "ragged", "object", "dict"]
    )
    def test_rejects_what_is_no_array_of_numbers(self, mat):
        with pytest.raises(StateError, match="4x4 array of numbers"):
            DensityMatrix(mat)

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

    def test_stored_pt_spectrum_is_eigvalsh_bit_for_bit(self):
        rng = np.random.default_rng(311)
        states = [random_density_matrix(rng, rank) for rank in (1, 2, 3, 4) for _ in range(50)]
        states += [
            pure_state(0.6),
            cq_state(0.3, 0.4, 0.2, (0.1, 0.5, -0.3), (0.0, -0.2, 0.7)),
            cc_state(ProbTable2x2(0.4, 0.1, 0.2, 0.3), 0.3, 0.5, 0.9, -0.4),
            x_state(XStateParams(0.3, 0.2, 0.1, 0.4, 0.25, 0.1)),
            rho_d(0.1, 0.2),
            rho_theta(0.8),
            bell_diagonal(0.5, -0.3, 0.2),
        ]
        states += [x_state(XStateParams(*params)) for params in X_AT_PSD_TOLERANCE]
        for rho in states:
            expected = np.linalg.eigvalsh(partial_transpose(rho)).tolist()
            assert isinstance(rho.pt_spectrum, tuple)
            assert [e.hex() for e in rho.pt_spectrum] == [e.hex() for e in expected]

    def test_hermiticity_decision_and_message_are_numpy_s(self):
        # Deviations within 8 ulps of HERMITICITY_TOL at random phases: Python's
        # abs, which validation tries first, may differ from numpy's in the
        # last bit, and numpy's must still decide and be reported.
        rng = np.random.default_rng(331)
        decided = set()
        ulp = math.ulp(HERMITICITY_TOL)
        for _ in range(2000):
            m = np.eye(4, dtype=complex) / 4
            i, j = (int(k) for k in rng.integers(0, 4, 2))
            size = HERMITICITY_TOL + int(rng.integers(-8, 9)) * ulp
            if i == j:
                m[i, i] += 0.5j * size * rng.choice([-1.0, 1.0])  # deviation 2 |Im m_ii|
            else:
                m[i, j] = size * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
            expected = float(np.abs(m - m.conj().T).max())
            rejected = expected > HERMITICITY_TOL
            decided.add(rejected)
            if rejected:
                with pytest.raises(StateError, match=f"max deviation {expected:.3e}$"):
                    DensityMatrix(m)
            else:
                DensityMatrix(m)
        assert decided == {True, False}

    def test_overflowing_deviation_is_not_hermitian(self):
        # Each part of m01 - conj(m10) is finite, its modulus is not.
        m = np.eye(4, dtype=complex) / 4
        m[0, 1] = 1.5e308 + 1.5e308j
        with pytest.raises(StateError, match="not Hermitian: max deviation inf"):
            DensityMatrix(m)

    def test_diagonal_imaginary_parts_fail_the_complex_trace(self):
        # Each diagonal entry deviates by 2 * 4e-13, within HERMITICITY_TOL;
        # their imaginary parts sum to 1.6e-12, beyond TRACE_TOL.
        DensityMatrix(np.eye(4) / 4 + 2e-13j * np.eye(4))
        with pytest.raises(StateError, match="trace"):
            DensityMatrix(np.eye(4) / 4 + 4e-13j * np.eye(4))

    def test_psd_decision_and_message_are_eigvalsh_s(self):
        # Spectra whose least eigenvalue straddles PSD_TOL, in random bases.
        rng = np.random.default_rng(313)
        decided = set()
        for _ in range(300):
            z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            u, _ = np.linalg.qr(z)
            low = PSD_TOL * rng.uniform(0.98, 1.02)
            rest = rng.dirichlet(np.ones(3)) * (1.0 - low)
            m = (u * np.array([low, *rest])) @ u.conj().T
            m = 0.5 * (m + m.conj().T)
            smallest = float(np.linalg.eigvalsh(m)[0])
            rejected = smallest < PSD_TOL
            decided.add(rejected)
            if rejected:
                with pytest.raises(StateError, match=f"eigenvalue {smallest:.3e}$"):
                    DensityMatrix(m)
            else:
                DensityMatrix(m)
        assert decided == {True, False}


@pytest.fixture(scope="module")
def lapack_inputs():
    """The production path's LAPACK inputs for 20 000 seeded states of rank 1 to 4.

    Per state: the matrix stacked on its partial transpose (validation), the
    Gram matrix Q^T Q of its covariance matrix, and the stack of
    a a^T - T T^T and T T^T that the five-axes d1 route diagonalizes.
    """
    rng = np.random.default_rng(367)
    stacks, grams, pairs = [], [], []
    for k in range(20_000):
        rho = random_density_matrix(rng, 1 + k % 4)
        c = _pauli_coefficients(rho)
        q = c[1:, 1:] - c[1:, :1] * c[:1, 1:]
        a, t = c[1:, 0], c[1:, 1:]
        s = t @ t.T
        stacks.append(np.stack([rho.mat, partial_transpose(rho)]))
        grams.append(q.T @ q)
        pairs.append(np.stack([np.outer(a, a) - s, s]))
    return stacks, grams, pairs


class TestLapackSeam:
    def test_eigvalsh_is_numpy_s_bit_for_bit(self, lapack_inputs):
        stacks, grams, _ = lapack_inputs
        for h in (*stacks, *grams):
            assert np.array(_eigvalsh(h)).tobytes() == np.linalg.eigvalsh(h).tobytes()

    def test_eigh_is_numpy_s_bit_for_bit(self, lapack_inputs):
        for h in lapack_inputs[2]:
            w, v = _eigh(h)
            expected_w, expected_v = np.linalg.eigh(h)
            assert np.array(w).tobytes() == expected_w.tobytes() and v.tobytes() == expected_v.tobytes()

    def test_nan_output_is_linalg_error(self, monkeypatch):
        # LAPACK failure leaves NaNs; one anywhere in the output must raise.
        real = qcorr.states._umath_linalg

        at = 0

        class OneNan:
            @staticmethod
            def eigvalsh_lo(a, signature):
                w = real.eigvalsh_lo(a, signature=signature)
                w.flat[at] = math.nan
                return w

            @staticmethod
            def eigh_lo(a, signature):
                w, v = real.eigh_lo(a, signature=signature)
                w.flat[at] = math.nan
                return w, v

        monkeypatch.setattr(qcorr.states, "_umath_linalg", OneNan)
        for at in range(3):
            with pytest.raises(LinAlgError):
                _eigvalsh(np.eye(3))
        for at in range(6):
            with pytest.raises(LinAlgError):
                _eigh(np.stack([np.eye(3), np.eye(3)]))
        for at in range(8):
            with pytest.raises(LinAlgError):
                DensityMatrix(np.eye(4) / 4)


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

    def test_text_table_rejected(self):
        with pytest.raises(StateError, match="real 2x2 array"):
            ProbTable2x2.from_array("ab")

    def test_complex_table_rejected(self):
        table = np.array([[0.4, 0.1], [0.2, 0.3]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for value in (table + 0.5j, table + 0j):
                with pytest.raises(StateError, match="real 2x2 array"):
                    ProbTable2x2.from_array(value)


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

    @pytest.mark.parametrize("params", X_AT_PSD_TOLERANCE)
    def test_accepts_blocks_down_to_psd_tolerance(self, params):
        # Eigenvalues down to PSD_TOL pass DensityMatrix, so they must pass here.
        rebuilt = XStateParams.from_density_matrix(x_state(XStateParams(*params)))
        assert rebuilt == XStateParams(*params)

    def test_rejects_nan_parameter(self):
        with pytest.raises(StateError, match="finite"):
            XStateParams(0.25, 0.25, 0.25, 0.25, math.nan, 0.0)
        with pytest.raises(StateError, match="finite"):
            XStateParams(math.nan, 0.25, 0.25, 0.25, 0.0, 0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", range(6))
    def test_rejects_non_finite_in_every_field(self, field, value):
        params = [0.25, 0.25, 0.25, 0.25, 0.0, 0.0]
        params[field] = value
        with pytest.raises(StateError, match="finite"):
            XStateParams(*params)


class TestRhoD:
    def test_smax_value(self):
        assert rho_d_smax(0.1) == pytest.approx(0.2, abs=1e-15)

    @pytest.mark.parametrize("w", [0.0, 0.5, 0.6, -0.1, math.nan, math.inf])
    def test_smax_rejects_w_out_of_range(self, w):
        # As rho_d rejects it, not a math domain error or a NaN bound.
        with pytest.raises(StateError, match=r"\(0, 1/2\)"):
            rho_d_smax(w)

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

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("index", range(3))
    def test_rejects_non_finite_coefficient(self, index, value):
        # A NaN used to pass the tetrahedron check; an inf warned in numpy first.
        c = [0.1, -0.2, 0.3]
        c[index] = value
        with pytest.raises(StateError, match="Bell-diagonal coefficients must be finite"):
            bell_diagonal(*c)

    def test_matrix_bits_match_the_pauli_sum(self):
        corners = [0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 5e-324, -5e-324]
        points = [c for c in itertools.product(corners, repeat=3)]
        points += [(1, -1, 1), (-1, 1, 1), (1, 1, -1), (-1, -1, -1), (0, 0, 0)]
        points += [tuple(np.float64(x) for x in (0.5, -0.3, 0.2))]
        vertices = np.array([[1.0, -1.0, 1.0], [-1.0, 1.0, 1.0], [1.0, 1.0, -1.0], [-1.0, -1.0, -1.0]])
        rng = np.random.default_rng(317)
        points += [tuple(w @ vertices) for w in rng.dirichlet(np.ones(4), 2000).tolist()]
        built = 0
        for c in points:
            try:
                rho = bell_diagonal(*c)
            except StateError:
                continue
            assert rho.mat.tobytes() == bell_diagonal_pauli_sum(*c).tobytes(), c
            built += 1
        assert built >= 2000

    def test_marginals_maximally_mixed(self):
        rho = bell_diagonal(0.5, -0.3, 0.2)
        assert np.allclose(partial_trace(rho, "A"), np.eye(2) / 2, atol=1e-14)
        assert np.allclose(partial_trace(rho, "B"), np.eye(2) / 2, atol=1e-14)


# Signed zeros, the least subnormal and the range ends, where a rewrite of the
# constructors' arithmetic would first show a different bit.
_SIGNED = [0.0, -0.0, 5e-324, -5e-324]
_BLOCH_CORNERS = [
    (0.0, 0.0, 0.0), (-0.0, -0.0, -0.0), (0.0, 0.0, 1.0), (0.0, 0.0, -1.0),
    (5e-324, -5e-324, 0.0), (1.0, 0.0, 0.0), (0.0, -1.0, 0.0),
]
_ANGLE_CORNERS = [0.0, -0.0, math.pi / 2]
_TABLE_CORNERS = [
    (1.0, 0.0, 0.0, 0.0), (0.0, -0.0, 0.0, 1.0), (0.5, 0.0, 0.5, -0.0),
    (1.0, 5e-324, -0.0, 0.0), (0.25, 0.25, 0.25, 0.25),
]


def _qubit_points(rng):
    points = list(itertools.product(_SIGNED + [1.0, -1.0, 0.5, -0.5], repeat=3))
    return [(p,) for p in points] + [(random_bloch_vector(rng).tolist(),) for _ in range(2000)]


def _cq_points(rng):
    points = [
        (p1, theta, phi, a1, a2)
        for p1 in (0.0, -0.0, 1.0, 5e-324, 0.5)
        for theta, phi in itertools.product(_ANGLE_CORNERS, repeat=2)
        for a1, a2 in itertools.product(_BLOCH_CORNERS, repeat=2)
    ]
    for _ in range(2000):
        p1, (theta, phi) = rng.random(), rng.uniform(-4.0, 4.0, 2).tolist()
        points.append((p1, theta, phi, random_bloch_vector(rng).tolist(), random_bloch_vector(rng).tolist()))
    return points


def _cc_points(rng):
    corners = itertools.product(_TABLE_CORNERS, itertools.product(_ANGLE_CORNERS, repeat=4))
    points = [(ProbTable2x2(*t), *angles) for t, angles in corners]
    for _ in range(2000):
        table = ProbTable2x2(*rng.dirichlet(np.ones(4)).tolist())
        points.append((table, *rng.uniform(-4.0, 4.0, 4).tolist()))
    return points


def _pure_points(rng):
    return [(n,) for n in [0.0, -0.0, 5e-324, 0.5, 1.0 - 2.0**-53, 1.0, *rng.random(2000).tolist()]]


def _x_points(rng):
    points = [
        (1.0, 0.0, -0.0, 0.0, -0.0, 0.0),
        (0.5, 5e-324, 0.0, 0.5, 0.5, 0.0),
        (-0.0, 0.5, 0.5, 0.0, 0.0, 0.5),
        (0.25, 0.25, 0.25, 0.25, 5e-324, 0.25),
        *X_AT_PSD_TOLERANCE,
    ]
    return [(XStateParams(*p),) for p in points] + [(random_x_params(rng),) for _ in range(2000)]


def _rho_d_points(rng):
    points = [(w, s) for w in (5e-324, 0.1, 0.25, 0.5 - 2.0**-54) for s in (5e-324, rho_d_smax(w))]
    for w in rng.uniform(0.0, 0.5, 2000).tolist():
        points.append((w, rng.uniform(0.0, 1.0) * rho_d_smax(w)))
    return points


def _rho_theta_points(rng):
    points = [(5e-324,), (math.pi / 4,), (math.nextafter(math.pi / 2, 0.0),)]
    return points + [(t,) for t in rng.uniform(0.0, math.pi / 2, 2000).tolist()]


CONSTRUCTOR_FORMS = [
    pytest.param(qubit_state, qubit_state_einsum, _qubit_points, id="qubit_state"),
    pytest.param(lambda *a: cq_state(*a).mat, cq_state_kron, _cq_points, id="cq_state"),
    pytest.param(lambda *a: cc_state(*a).mat, cc_state_kron, _cc_points, id="cc_state"),
    pytest.param(lambda n: pure_state(n).mat, pure_state_zeros, _pure_points, id="pure_state"),
    pytest.param(lambda p: x_state(p).mat, x_state_zeros, _x_points, id="x_state"),
    pytest.param(lambda w, s: rho_d(w, s).mat, rho_d_zeros, _rho_d_points, id="rho_d"),
    pytest.param(lambda t: rho_theta(t).mat, rho_theta_zeros, _rho_theta_points, id="rho_theta"),
]


@pytest.mark.parametrize("construct, reference, points", CONSTRUCTOR_FORMS)
def test_constructor_bits_match_the_numpy_form(construct, reference, points):
    # Each constructor must give its numpy form's bytes, signed zeros and
    # subnormals included.
    built = 0
    for args in points(np.random.default_rng(337)):
        try:
            got = construct(*args)
        except StateError:
            continue
        assert got.tobytes() == reference(*args).tobytes(), args
        built += 1
    assert built >= 2000


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

    def test_result_is_a_new_writeable_array(self):
        rho = bell_diagonal(0.5, -0.3, 0.2)
        before = rho.mat.copy()
        pt = partial_transpose(rho)
        assert pt.flags.writeable and not np.shares_memory(pt, rho.mat)
        pt[:] = 0.0
        assert np.array_equal(rho.mat, before)


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
        assert not is_x_shaped(m.tolist())
        assert is_x_shaped(m.tolist(), 1e-5)

    def test_nan_entry_is_not_x_shaped(self):
        m = np.eye(4, dtype=complex) / 4
        m[3, 1] = np.nan
        assert not is_x_shaped(m) and not is_x_shaped(m.tolist())

    @pytest.mark.parametrize("mat", [np.zeros((3, 3)), np.zeros((4, 5)), np.zeros(16), [[0.0] * 4] * 3, 0.25])
    def test_other_shapes_raise_dimension_error(self, mat):
        with pytest.raises(DimensionError, match="4x4"):
            is_x_shaped(mat)


# A valid X state as a raw matrix, a NaN matrix, the valid one as nested lists,
# None, text, and the valid rows with the last one cut short.
_VALID = rho_d(0.2, 0.1).mat
RAW_INPUTS = {
    "ndarray": _VALID,
    "nan": np.full((4, 4), np.nan),
    "list": _VALID.tolist(),
    "None": None,
    "text": "abcd",
    "ragged": _VALID.tolist()[:3] + [[0.0] * 3],
}

READERS = {
    "_pauli_coefficients": _pauli_coefficients,
    "bloch_vectors": bloch_vectors,
    "correlation_tensor": correlation_tensor,
    "bloch_matrix": bloch_matrix,
    "partial_trace": lambda rho: partial_trace(rho, "A"),
    "partial_transpose": partial_transpose,
    "from_density_matrix": XStateParams.from_density_matrix,
    "state_to_record": state_to_record,
    "is_x_shaped": is_x_shaped,
    "disturbance_norms": lambda mat: disturbance_norms(mat, [0.1], [0.2]),
}
# The two that read a plain matrix, with the error each raises or what it
# returns: is_x_shaped is a predicate on one, and disturbance_norms validates
# one as a DensityMatrix first.  Every other reader raises StateError.
MATRIX_OUTCOMES = {
    "is_x_shaped": {
        "ndarray": True, "nan": False, "list": True, "None": DimensionError, "text": DimensionError,
        "ragged": DimensionError,
    },
    "disturbance_norms": {
        "ndarray": "as on the state", "nan": StateError, "list": "as on the state", "None": StateError,
        "text": StateError, "ragged": StateError,
    },
}
CONTRACT = [
    (name, kind, MATRIX_OUTCOMES.get(name, {}).get(kind, StateError)) for name in READERS for kind in RAW_INPUTS
]


@pytest.mark.parametrize("reader, kind, outcome", CONTRACT, ids=[f"{n}-{k}" for n, k, _ in CONTRACT])
def test_state_readers_take_only_a_density_matrix(reader, kind, outcome):
    # Nothing reads a state off an unvalidated array: a raw array could hold
    # anything, and reading a NaN matrix as a state gives NaN Bloch vectors.
    call, value = READERS[reader], RAW_INPUTS[kind]
    if isinstance(outcome, type):
        with pytest.raises(outcome, match=None if reader in MATRIX_OUTCOMES else "DensityMatrix"):
            call(value)
    elif outcome == "as on the state":
        assert call(value).tobytes() == call(DensityMatrix(_VALID)).tobytes()
    else:
        assert call(value) is outcome

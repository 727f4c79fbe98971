import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qcorr import linalg
from qcorr.errors import DimensionError, HermiticityError, StateError
from qcorr.states import partial_transpose, pure_state

SIGMA1 = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA3 = np.array([[1, 0], [0, -1]], dtype=complex)


def _hermitian(dim):
    elems = st.floats(-1.0, 1.0)
    return st.tuples(
        arrays(np.float64, (dim, dim), elements=elems),
        arrays(np.float64, (dim, dim), elements=elems),
    ).map(lambda ab: ((ab[0] + 1j * ab[1]) + (ab[0] + 1j * ab[1]).conj().T) / 2)


hermitian_matrices = st.sampled_from((2, 3, 4)).flatmap(_hermitian)
real_3x3 = arrays(np.float64, (3, 3), elements=st.floats(-2.0, 2.0))
complex_2x2 = st.tuples(
    arrays(np.float64, (2, 2), elements=st.floats(-1.0, 1.0)),
    arrays(np.float64, (2, 2), elements=st.floats(-1.0, 1.0)),
).map(lambda ab: ab[0] + 1j * ab[1])


class TestKron:
    def test_identity_times_identity(self):
        assert np.array_equal(linalg.kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_sigma3_times_identity(self):
        assert np.allclose(linalg.kron(SIGMA3, np.eye(2)), np.diag([1, 1, -1, -1]))

    def test_sigma1_times_sigma1_is_antidiagonal(self):
        expected = np.zeros((4, 4))
        for i in range(4):
            expected[i, 3 - i] = 1.0
        assert np.allclose(linalg.kron(SIGMA1, SIGMA1), expected)

    def test_dimension_overflow_rejected(self):
        with pytest.raises(DimensionError):
            linalg.kron(np.eye(4), np.eye(2))
        with pytest.raises(DimensionError):
            linalg.kron(np.eye(2), np.eye(3))

    @given(complex_2x2, complex_2x2, complex_2x2, complex_2x2)
    @settings(max_examples=100)
    def test_mixed_product_rule(self, a, b, c, d):
        lhs = linalg.kron(a, b) @ linalg.kron(c, d)
        rhs = linalg.kron(a @ c, b @ d)
        assert np.abs(lhs - rhs).max() <= 1e-12


class TestTraceNorm:
    def test_zero_matrix(self):
        assert linalg.trace_norm_hermitian(np.zeros((4, 4))) == 0.0

    def test_balanced_diagonal(self):
        assert linalg.trace_norm_hermitian(np.diag([0.5, -0.5])) == pytest.approx(1.0)

    def test_bell_partial_transpose(self):
        pt = partial_transpose(pure_state(1.0))
        assert linalg.trace_norm_hermitian(pt) == pytest.approx(2.0, abs=1e-12)

    def test_rejects_non_hermitian(self):
        with pytest.raises(HermiticityError):
            linalg.trace_norm_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @given(hermitian_matrices)
    @settings(max_examples=100)
    def test_dominates_trace(self, h):
        assert linalg.trace_norm_hermitian(h) >= abs(np.trace(h).real) - 1e-12


class TestSingularValues3:
    def test_zero_matrix(self):
        assert np.array_equal(linalg.singular_values_3(np.zeros((3, 3))), np.zeros(3))

    def test_pure_state_covariance_values(self):
        q = np.diag([0.6, -0.6, 0.36])
        assert np.allclose(linalg.singular_values_3(q), [0.6, 0.6, 0.36], atol=1e-14)

    def test_rank_one(self):
        n = np.array([0.0, 0.0, 1.0])
        delta = np.array([1.0, 0.0, 0.0]) - np.array([0.0, 0.0, 1.0])
        q = 2 * 0.3 * 0.7 * np.outer(n, delta)
        got = linalg.singular_values_3(q)
        expected_top = 2 * 0.3 * 0.7 * np.linalg.norm(delta)
        assert got[0] == pytest.approx(expected_top, abs=1e-12)
        assert got[1] == pytest.approx(0.0, abs=1e-12)
        assert got[2] == pytest.approx(0.0, abs=1e-12)
        # brute-force cross-check through the Gram matrix spectrum
        gram = np.linalg.eigvalsh(q.T @ q)
        assert np.allclose(np.sort(got**2), np.clip(gram, 0, None), atol=1e-12)

    def test_wrong_shape(self):
        with pytest.raises(DimensionError):
            linalg.singular_values_3(np.zeros((2, 2)))

    def test_gram_negative_beyond_roundoff_is_state_error(self, monkeypatch):
        # q^T q is never indefinite in exact arithmetic, so the spectrum is patched.
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda h: np.array([-1e-10, 0.25, 1.0]))
        with pytest.raises(StateError, match="negative beyond roundoff"):
            linalg.singular_values_3(np.eye(3))

    def test_transpose_invariance(self):
        # generic random matrices; the Gram-based route loses the 1e-10
        # guarantee only on exactly singular inputs, where sqrt amplifies
        # eigenvalue roundoff
        rng = np.random.default_rng(19)
        for _ in range(200):
            q = rng.standard_normal((3, 3))
            a = linalg.singular_values_3(q)
            b = linalg.singular_values_3(q.T)
            assert np.abs(a - b).max() <= 1e-10


class TestBasicAlgebra:
    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            linalg.kron(np.zeros((2, 3)), np.eye(2))
        with pytest.raises(DimensionError):
            linalg.trace_norm_hermitian(np.zeros((2, 3)))

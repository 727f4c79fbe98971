"""Small dense linear-algebra kernel: 2x2..4x4 complex matrices, 3x3 real ones.

All functions operate on plain numpy arrays, never mutate their inputs, and
return fresh arrays or Python scalars.  Dimensions are restricted to what
two-qubit work actually needs.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, HermiticityError, StateError

HERMITICITY_TOL = 1e-12

_ALLOWED_DIMS = (2, 3, 4)


def _as_matrix(a, what: str = "operand") -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"{what} must be a square matrix, got shape {a.shape}")
    if a.shape[0] not in _ALLOWED_DIMS:
        raise DimensionError(
            f"{what} dimension must be one of {_ALLOWED_DIMS}, got {a.shape[0]}"
        )
    return a


def require_hermitian(h, tol: float = HERMITICITY_TOL) -> np.ndarray:
    """Return ``h`` as a complex array; raise if not Hermitian within ``tol``."""
    h = _as_matrix(h, "hermitian input")
    dev = float(np.abs(h - h.conj().T).max())
    if dev > tol:
        raise HermiticityError(
            f"matrix deviates from Hermiticity by {dev:.3e} (tolerance {tol:.1e})"
        )
    return h


def kron(a, b) -> np.ndarray:
    """Tensor (Kronecker) product; the result dimension must not exceed 4."""
    a = _as_matrix(a)
    b = _as_matrix(b, "second operand")
    if a.shape[0] * b.shape[0] > 4:
        raise DimensionError(
            f"kron result dimension {a.shape[0] * b.shape[0]} exceeds the supported maximum 4"
        )
    return np.kron(a, b)


def trace_norm_hermitian(h) -> float:
    """Sum of absolute eigenvalues of a Hermitian matrix."""
    h = require_hermitian(h)
    return float(np.abs(np.linalg.eigvalsh(h)).sum())


def singular_values_3(q) -> np.ndarray:
    """Singular values of a real 3x3 matrix, descending.

    Computed as the square roots of the spectrum of ``q^T q``; eigenvalues in
    ``[-1e-14, 0)`` are clamped to zero.  Anything more negative raises
    :class:`StateError`: ``q`` is a state's covariance matrix, and no valid
    state gives one.
    """
    q = np.asarray(q, dtype=float)
    if q.shape != (3, 3):
        raise DimensionError(f"expected a 3x3 real matrix, got shape {q.shape}")
    gram = np.linalg.eigvalsh(q.T @ q)[::-1]
    if gram[-1] < -1e-14:
        raise StateError(
            f"Gram eigenvalue {gram[-1]:.3e} is negative beyond roundoff"
        )
    return np.sqrt(np.clip(gram, 0.0, None))


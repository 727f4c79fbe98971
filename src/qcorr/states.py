"""Two-qubit density matrices, Pauli/Bloch machinery, the disturbance kernel, and the named state families.

Conventions: computational basis ordered |00>, |01>, |10>, |11> with subsystem
A as the first tensor factor, so A-side observables are sigma_i (x) I and
B-side observables are I (x) sigma_j.  All angles are radians.

Every function that reads a state takes a validated :class:`DensityMatrix`
and raises :class:`StateError` for anything else; :func:`is_x_shaped` is a
predicate on a plain 4x4 matrix.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

try:  # numpy 2 renamed numpy.core to numpy._core
    from numpy._core.multiarray import c_einsum
except ImportError:
    from numpy.core.multiarray import c_einsum

from .errors import DimensionError, StateError

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_TOL = -1e-10  # smallest admissible eigenvalue of a density matrix
BLOCH_TOL = 1e-12

_SIGMA = np.array(
    [
        [[0, 1], [1, 0]],
        [[0, -1j], [1j, 0]],
        [[1, 0], [0, -1]],
    ],
    dtype=complex,
)
_EYE2 = np.eye(2, dtype=complex)
# _PAULI[i, j] = sigma_i (x) sigma_j with sigma_0 = I, for i, j = 0..3.
_PAULI = np.array([[np.kron(si, sj) for sj in (_EYE2, *_SIGMA)] for si in (_EYE2, *_SIGMA)])

# Flat indices of a 4x4 matrix and of its partial transpose on B: one take() stacks both.
_SPECTRA_INDEX = np.stack(
    [np.arange(16).reshape(4, 4), np.arange(16).reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)]
)


def _eigvalsh(a: np.ndarray) -> list:
    """Ascending eigenvalues of a Hermitian matrix or stack, as (nested) Python floats.

    ``np.linalg.eigvalsh``'s bits from its gufunc on the same lower triangle, without the wrapper's
    conversion, type resolution and ``errstate``, whose fixed cost dominates a call this small.
    ``a`` is float64 or complex128.  A LAPACK failure leaves NaNs, sought on the floats, and
    raises numpy's ``LinAlgError`` after a ``RuntimeWarning`` for the invalid flag it sets.
    """
    return _checked(_umath_linalg.eigvalsh_lo(a, signature="D->d" if a.dtype.kind == "c" else "d->d"))


def _eigh(a: np.ndarray) -> tuple[list, np.ndarray]:
    """``np.linalg.eigh`` of a real symmetric float64 stack, as :func:`_eigvalsh` calls it; values as floats."""
    w, v = _umath_linalg.eigh_lo(a, signature="d->dd")
    return _checked(w), v


def _checked(w: np.ndarray) -> list:
    values = w.tolist()
    if any(map(math.isnan, values if w.ndim == 1 else sum(values, []))):  # a row, or a stack's rows joined
        raise LinAlgError("Eigenvalues did not converge")
    return values


def pauli(i: int) -> np.ndarray:
    """Standard Pauli matrix sigma_i for i in {1, 2, 3}."""
    if i not in (1, 2, 3):
        raise StateError(f"Pauli index must be 1, 2 or 3, got {i!r}")
    return _SIGMA[i - 1].copy()


def _qubit_rows(a) -> list:
    try:  # a same-kind cast takes bool, integer and float entries; complex ones would lose their imaginary part
        v = np.asarray(a).astype(float, casting="same_kind", copy=False)
    except (TypeError, ValueError) as exc:
        raise StateError("Bloch vector must be a real 3-vector") from exc
    if v.shape != (3,):
        raise StateError(f"Bloch vector must have exactly 3 components, got shape {v.shape}")
    if np.count_nonzero(np.isfinite(v)) < 3:
        raise StateError("Bloch vector has non-finite components")
    norm = math.sqrt(float(v.dot(v)))  # what np.linalg.norm computes for a real 1-D v
    if norm > 1.0 + BLOCH_TOL:
        raise StateError(f"Bloch vector norm {norm:.12g} exceeds 1")
    x, y, z = v.tolist()
    # The bits of 0.5 * (I + einsum(a, sigma)): adding to the identity's 1.0 or +0.0 leaves no -0.0.
    re, im, im_conj = 0.5 * (0.0 + x), 0.5 * (0.0 + y), 0.5 * (0.0 - y)
    return [[0.5 * (1.0 + z), complex(re, im_conj)], [complex(re, im), 0.5 * (1.0 - z)]]


def projector_pair(theta: float, phi: float) -> np.ndarray:
    """Orthogonal rank-1 projectors along the axis with polar angle 2*theta, azimuth phi.

    Returned stacked, shape (2, 2, 2), so ``p1, p2 = projector_pair(...)``
    unpacks them.  P1 + P2 = I, P1 P2 = 0, and P1[0, 0] = cos(theta)^2.
    """
    if not (math.isfinite(theta) and math.isfinite(phi)):
        raise StateError(f"projector angles must be finite, got ({theta}, {phi})")
    ct2 = math.cos(theta) ** 2
    st2 = math.sin(theta) ** 2
    off = 0.5 * math.sin(2.0 * theta) * cmath.exp(-1j * phi)
    return np.array([[[ct2, off], [off.conjugate(), st2]], [[st2, -off], [-off.conjugate(), ct2]]])


def qubit_state(a) -> np.ndarray:
    """Single-qubit state (I + a . sigma) / 2 for a real Bloch vector a with |a| <= 1."""
    return np.array(_qubit_rows(a))


class DensityMatrix:
    """Validated 4x4 two-qubit density matrix.

    Construction rejects (rather than repairs) anything that is not a 4x4
    array of numbers, Hermitian within 1e-12, of unit trace within 1e-12, and
    positive semidefinite down to eigenvalue -1e-10.  The Hermiticity
    deviation is taken on Python complex numbers; above half the tolerance
    ``np.abs(m - m.conj().T).max()`` recomputes it, decides and is reported,
    as Python's ``abs`` may differ from numpy's in the last bit.  Validation
    computes the spectra of the matrix and of its partial transpose on B in
    one call on the two stacked, through :func:`_eigvalsh`: numpy's
    ``eigvalsh`` gufunc without the Python wrapper, whose fixed cost is a
    large share of a call on one stack, and bit for bit what
    ``np.linalg.eigvalsh`` returns.  The second spectrum is kept as
    ``pt_spectrum``, a tuple of four floats in ascending order, which
    :func:`qcorr.measures.negativity` reads.
    """

    __slots__ = ("mat", "pt_spectrum")

    def __init__(self, mat):
        try:
            m = np.array(mat, dtype=complex, order="C")  # a copy the caller cannot change
        except (TypeError, ValueError) as exc:
            raise StateError(f"density matrix must be a 4x4 array of numbers, got {type(mat).__name__}") from exc
        if m.shape != (4, 4):
            raise StateError(f"density matrix must be 4x4, got shape {m.shape}")
        if np.count_nonzero(np.isfinite(m)) < 16:  # cheaper than .all() on a 4x4
            raise StateError("density matrix has non-finite entries")
        (d0, m01, m02, m03), (m10, d1, m12, m13), (m20, m21, d2, m23), (m30, m31, m32, d3) = m.tolist()
        try:
            herm_dev = max(
                abs(m01 - m10.conjugate()), abs(m02 - m20.conjugate()), abs(m03 - m30.conjugate()),
                abs(m12 - m21.conjugate()), abs(m13 - m31.conjugate()), abs(m23 - m32.conjugate()),
                2.0 * abs(d0.imag), 2.0 * abs(d1.imag), 2.0 * abs(d2.imag), 2.0 * abs(d3.imag),
            )
        except OverflowError:  # Python's complex abs raises where numpy's reads inf
            herm_dev = math.inf
        if herm_dev > 0.5 * HERMITICITY_TOL:
            herm_dev = float(np.abs(m - m.conj().T).max())
            if herm_dev > HERMITICITY_TOL:
                raise StateError(f"density matrix is not Hermitian: max deviation {herm_dev:.3e}")
        tr = (d0 + d1) + (d2 + d3)  # paired as m.trace() pairs them
        if abs(tr - 1.0) > TRACE_TOL:
            raise StateError(f"density matrix trace {tr:.15g} differs from 1")
        spectrum, pt_spectrum = _eigvalsh(m.take(_SPECTRA_INDEX))
        if spectrum[0] < PSD_TOL:
            raise StateError(
                f"density matrix is not positive semidefinite: eigenvalue {spectrum[0]:.3e}"
            )
        m.setflags(write=False)
        self.mat = m
        self.pt_spectrum = tuple(pt_spectrum)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DensityMatrix(\n{np.array_str(self.mat, precision=6)}\n)"


def _density_matrix(rho) -> DensityMatrix:
    # Every state reader takes validated states only; a raw array could hold anything.
    if not isinstance(rho, DensityMatrix):
        raise StateError(f"expected a DensityMatrix, got {type(rho).__name__}")
    return rho


@dataclass(frozen=True)
class XStateParams:
    """Parameters of an X-shaped state: diagonal plus real non-negative anti-diagonal.

    Each 2x2 block must have eigenvalues >= PSD_TOL, the bound
    :class:`DensityMatrix` applies, so every X-shaped density matrix passes.
    """

    rho11: float
    rho22: float
    rho33: float
    rho44: float
    rho14: float
    rho23: float

    def __post_init__(self):
        if not (
            PSD_TOL <= self.rho11 < math.inf
            and PSD_TOL <= self.rho22 < math.inf
            and PSD_TOL <= self.rho33 < math.inf
            and PSD_TOL <= self.rho44 < math.inf
            and 0.0 <= self.rho14 < math.inf
            and 0.0 <= self.rho23 < math.inf
        ):
            raise StateError(
                f"X-state parameters must be finite, the diagonal at least {PSD_TOL:g} "
                "and rho14, rho23 non-negative"
            )
        total = sum((self.rho11, self.rho22, self.rho33, self.rho44))
        if abs(total - 1.0) > TRACE_TOL:
            raise StateError(f"X-state diagonal sums to {total:.15g}, expected 1")
        if self.rho14**2 > (self.rho11 - PSD_TOL) * (self.rho44 - PSD_TOL):
            raise StateError("X-state outer block violates rho14^2 <= rho11*rho44")
        if self.rho23**2 > (self.rho22 - PSD_TOL) * (self.rho33 - PSD_TOL):
            raise StateError("X-state inner block violates rho23^2 <= rho22*rho33")

    @classmethod
    def from_density_matrix(cls, rho: DensityMatrix) -> "XStateParams":
        """Read X parameters off a matrix with the X sparsity pattern.

        Phases of the anti-diagonal entries are dropped: they can always be
        removed by local diagonal unitaries, which leave every measure used
        here unchanged.
        """
        return cls(*_x_entries(_density_matrix(rho).mat.tolist()))


def _x_entries(rows) -> tuple[float, float, float, float, float, float]:
    # rho11..rho44, |rho14| and |rho23| of a 4x4 matrix given as rows of Python complex numbers.
    (m00, _, _, m03), (_, m11, m12, _), (_, _, m22, _), (_, _, _, m33) = rows
    return m00.real, m11.real, m22.real, m33.real, abs(m03), abs(m12)


@dataclass(frozen=True)
class ProbTable2x2:
    """Joint distribution of two binary (+1/-1) random variables."""

    p11: float
    p12: float
    p21: float
    p22: float

    def __post_init__(self):
        entries = (self.p11, self.p12, self.p21, self.p22)
        if not all(0.0 <= p < math.inf for p in entries):
            raise StateError("probability table entries must be finite and non-negative")
        total = sum(entries)
        if abs(total - 1.0) > TRACE_TOL:
            raise StateError(f"probability table sums to {total:.15g}, expected 1")

    @classmethod
    def from_array(cls, table) -> "ProbTable2x2":
        try:  # bool, integer and float entries, as _qubit_rows takes them
            t = np.asarray(table).astype(float, casting="same_kind", copy=False)
        except (TypeError, ValueError) as exc:
            raise StateError(f"probability table must be a real 2x2 array, got {type(table).__name__}") from exc
        if t.shape != (2, 2):
            raise StateError(f"probability table must be 2x2, got shape {t.shape}")
        (p11, p12), (p21, p22) = t.tolist()
        return cls(p11=p11, p12=p12, p21=p21, p22=p22)


def is_x_shaped(mat, tol: float = 1e-12) -> bool:
    """True if every entry off the diagonal/anti-diagonal has magnitude below ``tol``.

    A predicate on a matrix, not a state reader: ``mat`` is a 4x4 array, or
    its rows as nested lists (``ndarray.tolist()``), and any other shape
    raises :class:`DimensionError`.  A NaN entry makes the matrix not
    X-shaped.
    """
    rows = mat if isinstance(mat, list) else np.asarray(mat).tolist()
    try:
        (_, m01, m02, _), (m10, _, _, m13), (m20, _, _, m23), (_, m31, m32, _) = rows
    except (TypeError, ValueError) as exc:
        raise DimensionError(f"expected a 4x4 matrix or its rows, got {type(mat).__name__}") from exc
    return (
        abs(m01) < tol and abs(m02) < tol and abs(m10) < tol and abs(m13) < tol
        and abs(m20) < tol and abs(m23) < tol and abs(m31) < tol and abs(m32) < tol
    )


def pure_state(n: float) -> DensityMatrix:
    """Pure two-qubit state with negativity ``n``.

    For n in [0, 1] this is the rank-1 state with Schmidt coefficients fixed by
    sqrt(1 - n^2); n = 0 is a product state, n = 1 the Bell state (|00>+|11>)/sqrt(2).
    """
    if not 0.0 <= n <= 1.0:
        raise StateError(f"pure-state parameter must lie in [0, 1], got {n}")
    c = math.sqrt(1.0 - n * n)
    h, zero = n / 2.0, [0.0] * 4
    return DensityMatrix([[(1.0 + c) / 2.0, 0.0, 0.0, h], zero, zero, [h, 0.0, 0.0, (1.0 - c) / 2.0]])


def cq_state(p1: float, theta: float, phi: float, a1, a2) -> DensityMatrix:
    """Classical-quantum state p1 * P1 (x) rho(a1) + (1-p1) * P2 (x) rho(a2).

    P1, P2 is the projector pair at (theta, phi) on subsystem A and rho(a) the
    qubit state with Bloch vector a on subsystem B.  Zero discord by construction.
    """
    if not 0.0 <= p1 <= 1.0:
        raise StateError(f"probability p1 must lie in [0, 1], got {p1}")
    pa = projector_pair(theta, phi)
    qb = np.array([_qubit_rows(a1), _qubit_rows(a2)])
    k1, k2 = (pa[:, :, None, :, None] * qb[:, None, :, None, :]).reshape(2, 4, 4)
    # Scalar weights: multiplying by a weight array signs some zeros otherwise.
    return DensityMatrix(p1 * k1 + (1.0 - p1) * k2)


def cc_state(
    p: ProbTable2x2,
    theta_a: float,
    phi_a: float,
    theta_b: float | None = None,
    phi_b: float | None = None,
) -> DensityMatrix:
    """Classical-classical state sum_jk p_jk P_j(A) (x) P_k(B).

    B-side angles default to the A-side ones.
    """
    if theta_b is None:
        theta_b = theta_a
    if phi_b is None:
        phi_b = phi_a
    pa = projector_pair(theta_a, phi_a)
    pb = projector_pair(theta_b, phi_b)
    # The four P_j (x) P_k in one broadcast multiply, in the order of the table.
    kron = (pa[:, None, :, None, :, None] * pb[None, :, None, :, None, :]).reshape(4, 4, 4)
    weights = np.array([p.p11, p.p12, p.p21, p.p22])
    # Summed in turn onto +0.0, the order and start that set the signed zeros.
    return DensityMatrix(np.add.reduce(weights[:, None, None] * kron, axis=0, initial=0.0))


def x_state(params: XStateParams) -> DensityMatrix:
    """Density matrix with the X sparsity pattern described by ``params``."""
    p = params
    return DensityMatrix([[p.rho11, 0.0, 0.0, p.rho14], [0.0, p.rho22, p.rho23, 0.0],
                          [0.0, p.rho23, p.rho33, 0.0], [p.rho14, 0.0, 0.0, p.rho44]])


def rho_d_smax(w: float) -> float:
    """Largest admissible anti-diagonal entry for the discordant separable family, for w in (0, 1/2)."""
    if not 0.0 < w < 0.5:
        raise StateError(f"parameter w must lie in (0, 1/2), got {w}")
    return math.sqrt(w / 2.0 - w * w)


def rho_d(w: float, s: float) -> DensityMatrix:
    """Separable but (for w != 1/4) discordant X state.

    Diagonal (w, w, 1/2-w, 1/2-w), anti-diagonal entries all equal to s with
    0 < s <= sqrt(w/2 - w^2); at the upper bound the state sits on the
    separability boundary with a zero eigenvalue of the partial transpose.
    """
    smax = rho_d_smax(w)
    if not 0.0 < s <= smax + 1e-12:
        raise StateError(f"parameter s must lie in (0, {smax:.12g}], got {s}")
    v = 0.5 - w
    return DensityMatrix([[w, 0.0, 0.0, s], [0.0, w, s, 0.0], [0.0, s, v, 0.0], [s, 0.0, 0.0, v]])


def rho_theta(theta: float) -> DensityMatrix:
    """One-parameter entangled X family on theta in (0, pi/2)."""
    if not 0.0 < theta < math.pi / 2.0:
        raise StateError(f"theta must lie in (0, pi/2), got {theta}")
    top, bottom = 0.5 * math.cos(theta) ** 2, 0.5 * math.sin(theta) ** 2
    off = 0.25 * math.sin(2.0 * theta)
    return DensityMatrix([[top, 0.0, 0.0, off], [0.0] * 4, [0.0, 0.0, 0.5, 0.0], [off, 0.0, 0.0, bottom]])


def bell_diagonal(c1: float, c2: float, c3: float) -> DensityMatrix:
    """Bell-diagonal state (I (x) I + sum_j c_j sigma_j (x) sigma_j) / 4.

    Valid exactly when (c1, c2, c3) is finite and lies in the tetrahedron
    making all four Bell-basis eigenvalues non-negative.
    """
    if not (math.isfinite(c1) and math.isfinite(c2) and math.isfinite(c3)):
        raise StateError(f"Bell-diagonal coefficients must be finite, got ({c1}, {c2}, {c3})")
    smallest = min(
        0.25 * (1.0 - c1 - c2 - c3),
        0.25 * (1.0 - c1 + c2 + c3),
        0.25 * (1.0 + c1 - c2 + c3),
        0.25 * (1.0 + c1 + c2 - c3),
    )
    if smallest < PSD_TOL:
        raise StateError(
            f"coefficients ({c1}, {c2}, {c3}) lie outside the Bell-diagonal "
            f"tetrahedron: eigenvalue {smallest:.3e}"
        )
    # 0.25 * (I + c1 XX + c2 YY + c3 ZZ) as numpy's complex arithmetic gives
    # it, signed zeros included.  Each product of a c_j with a zero of a Pauli
    # term is a signed zero, and adding it to the identity's entry (1.0, or
    # +0.0 off the diagonal, hence the 0.0 + below) leaves no -0.0, so the
    # imaginary parts and the entries off the X pattern are +0.0.
    d0 = 0.25 * (1.0 + c3)
    d1 = 0.25 * (1.0 - c3)
    o14 = 0.25 * (0.0 + c1 - c2)
    o23 = 0.25 * (0.0 + c1 + c2)
    return DensityMatrix(
        [[d0, 0.0, 0.0, o14], [0.0, d1, o23, 0.0], [0.0, o23, d1, 0.0], [o14, 0.0, 0.0, d0]]
    )


def partial_trace(rho: DensityMatrix, side: str) -> np.ndarray:
    """Reduced 2x2 state of one subsystem; side 'A' traces out B and vice versa."""
    r = _density_matrix(rho).mat.reshape(2, 2, 2, 2)
    if side == "A":
        return np.einsum("ikjk->ij", r)
    if side == "B":
        return np.einsum("ikil->kl", r)
    raise ValueError(f"side must be 'A' or 'B', got {side!r}")


def partial_transpose(rho: DensityMatrix) -> np.ndarray:
    """Transpose of the second tensor factor; Hermitian and trace 1, possibly non-PSD.

    The result is a new, writeable array that shares no memory with ``rho.mat``.
    """
    return _density_matrix(rho).mat.take(_SPECTRA_INDEX[1])


def _pauli_coefficients(rho: DensityMatrix) -> np.ndarray:
    """C_ij = tr(rho sigma_i (x) sigma_j), sigma_0 = I: a = C[1:, 0], b = C[0, 1:], T = C[1:, 1:]."""
    # c_einsum is what np.einsum calls when, as by default, it does not optimise: its bits, no wrapper.
    return c_einsum("ijab,ba->ij", _PAULI, _density_matrix(rho).mat).real


def bloch_vectors(rho: DensityMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Marginal Bloch vectors (a, b) with a_i = tr(rho sigma_i (x) I), b_j = tr(rho I (x) sigma_j)."""
    c = _pauli_coefficients(rho)
    return c[1:, 0], c[0, 1:]


def correlation_tensor(rho: DensityMatrix) -> np.ndarray:
    """3x3 matrix of raw correlations T_ij = tr(rho sigma_i (x) sigma_j)."""
    return _pauli_coefficients(rho)[1:, 1:]


def bloch_matrix(rho: DensityMatrix) -> np.ndarray:
    """R = [a | T], rows 1..3 of the Pauli coefficients C_ij = tr(rho sigma_i (x) sigma_j), 3x4.

    ``rho - P(rho)`` does not involve B's Bloch vector, so every measurement
    disturbance is a function of R alone.
    """
    return _pauli_coefficients(rho)[1:]


def _leg(r, w):
    # x = w^T R for one frame vector w, with x0^2 and x1^2 + x2^2 + x3^2.
    (r00, r01, r02, r03), (r10, r11, r12, r13), (r20, r21, r22, r23) = r
    w0, w1, w2 = w
    x0 = w0 * r00 + w1 * r10 + w2 * r20
    x1 = w0 * r01 + w1 * r11 + w2 * r21
    x2 = w0 * r02 + w1 * r12 + w2 * r22
    x3 = w0 * r03 + w1 * r13 + w2 * r23
    return x0, x1, x2, x3, x0 * x0, x1 * x1 + x2 * x2 + x3 * x3


def _terms(p, q):
    # E, X and Y from the legs p = _leg(r, u) and q = _leg(r, v).
    p0, p1, p2, p3, p00, pp = p
    q0, q1, q2, q3, q00, qq = q
    return p00 + pp + q00 + qq, p00 - pp - q00 + qq, 2.0 * (p0 * q0 - (p1 * q1 + p2 * q2 + p3 * q3))


def frame_norms(r, u, v):
    """Trace norms of rho - P_n(rho), from R = ``bloch_matrix(rho)``.

    ``r`` is the 3x4 matrix R, as an array or as its rows of Python floats
    (``R.tolist()``).  ``u = (u0, u1, u2)`` and ``v = (v0, v1, v2)`` are the
    components of an orthonormal frame of the plane normal to the measurement
    axis n.  Each component is either an array, giving one norm per frame
    (components broadcast against each other, as on the oracle's grid), or a
    float, giving the norm of one frame.  With p = u^T R, q = v^T R and the
    Lorentz product <x, y> = x0 y0 - x.y, the norm is
    sqrt((E + hypot(X, Y)) / 2) with E = |p|^2 + |q|^2, X = <p,p> - <q,q> and
    Y = 2<p,q>, a sum of non-negative terms with no cancellation (Ciccarello,
    Tufarelli & Giovannetti, NJP 16, 013038, 2014).  It is computed in two
    legs, p with its squares from u and q with its squares from v, and their
    combination.  Every sum is written out term by term, left to right, so
    arrays and floats round alike and nothing depends on BLAS.  ``np.hypot``
    serves floats too, so one frame given as floats gives the bits it gives
    as one node of an array.
    """
    e, x, y = _terms(_leg(r, u), _leg(r, v))
    half = 0.5 * (e + np.hypot(x, y))
    # Both square roots are correctly rounded, so they agree bit for bit.
    return np.sqrt(half) if isinstance(half, np.ndarray) else math.sqrt(half)

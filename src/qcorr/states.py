"""Two-qubit density matrices, Pauli/Bloch machinery, and the named state families.

Conventions: computational basis ordered |00>, |01>, |10>, |11> with subsystem
A as the first tensor factor, so A-side observables are sigma_i (x) I and
B-side observables are I (x) sigma_j.  All angles are radians.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import StateError

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

# Entries allowed to be nonzero in an X-shaped matrix: diagonal + anti-diagonal.
_X_MASK = np.zeros((4, 4), dtype=bool)
for _i in range(4):
    _X_MASK[_i, _i] = True
    _X_MASK[_i, 3 - _i] = True


def pauli(i: int) -> np.ndarray:
    """Standard Pauli matrix sigma_i for i in {1, 2, 3}."""
    if i not in (1, 2, 3):
        raise StateError(f"Pauli index must be 1, 2 or 3, got {i!r}")
    return _SIGMA[i - 1].copy()


def _as_bloch(vec, what: str = "Bloch vector") -> np.ndarray:
    try:
        v = np.asarray(vec, dtype=float)
    except (TypeError, ValueError) as exc:
        raise StateError(f"{what} must be a real 3-vector") from exc
    if v.shape != (3,):
        raise StateError(f"{what} must have exactly 3 components, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise StateError(f"{what} has non-finite components")
    norm = float(np.linalg.norm(v))
    if norm > 1.0 + BLOCH_TOL:
        raise StateError(f"{what} norm {norm:.12g} exceeds 1")
    return v


def projector_pair(theta: float, phi: float) -> tuple[np.ndarray, np.ndarray]:
    """Orthogonal rank-1 projectors along the axis with polar angle 2*theta, azimuth phi.

    P1 + P2 = I, P1 P2 = 0, and P1[0, 0] = cos(theta)^2.
    """
    ct2 = math.cos(theta) ** 2
    st2 = math.sin(theta) ** 2
    off = 0.5 * math.sin(2.0 * theta) * cmath.exp(-1j * phi)
    p1 = np.array([[ct2, off], [off.conjugate(), st2]], dtype=complex)
    p2 = np.array([[st2, -off], [-off.conjugate(), ct2]], dtype=complex)
    return p1, p2


def qubit_state(a) -> np.ndarray:
    """Single-qubit state (I + a . sigma) / 2 for a Bloch vector a with |a| <= 1."""
    a = _as_bloch(a)
    return 0.5 * (_EYE2 + np.einsum("k,kij->ij", a, _SIGMA))


class DensityMatrix:
    """Validated 4x4 two-qubit density matrix.

    Construction rejects (rather than repairs) anything that is not Hermitian
    within 1e-12, unit trace within 1e-12, and positive semidefinite down to
    eigenvalue -1e-10.
    """

    __slots__ = ("mat",)

    def __init__(self, mat):
        m = np.asarray(mat, dtype=complex)
        if m.shape != (4, 4):
            raise StateError(f"density matrix must be 4x4, got shape {m.shape}")
        if not np.isfinite(m).all():
            raise StateError("density matrix has non-finite entries")
        herm_dev = float(np.abs(m - m.conj().T).max())
        if herm_dev > HERMITICITY_TOL:
            raise StateError(
                f"density matrix is not Hermitian: max deviation {herm_dev:.3e}"
            )
        tr = complex(m.trace())
        if abs(tr - 1.0) > TRACE_TOL:
            raise StateError(f"density matrix trace {tr:.15g} differs from 1")
        smallest = float(np.linalg.eigvalsh(m)[0])
        if smallest < PSD_TOL:
            raise StateError(
                f"density matrix is not positive semidefinite: eigenvalue {smallest:.3e}"
            )
        m = m.copy()
        m.setflags(write=False)
        self.mat = m

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DensityMatrix(\n{np.array_str(self.mat, precision=6)}\n)"


def _as_mat(rho) -> np.ndarray:
    if isinstance(rho, DensityMatrix):
        return rho.mat
    return np.asarray(rho, dtype=complex)


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
        diag = (self.rho11, self.rho22, self.rho33, self.rho44)
        if not all(PSD_TOL <= v < math.inf for v in diag) or not all(
            0.0 <= v < math.inf for v in (self.rho14, self.rho23)
        ):
            raise StateError(
                f"X-state parameters must be finite, the diagonal at least {PSD_TOL:g} "
                "and rho14, rho23 non-negative"
            )
        total = sum(diag)
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
        m = rho.mat
        return cls(
            rho11=float(m[0, 0].real),
            rho22=float(m[1, 1].real),
            rho33=float(m[2, 2].real),
            rho44=float(m[3, 3].real),
            rho14=float(abs(m[0, 3])),
            rho23=float(abs(m[1, 2])),
        )


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
        t = np.asarray(table, dtype=float)
        if t.shape != (2, 2):
            raise StateError(f"probability table must be 2x2, got shape {t.shape}")
        return cls(p11=float(t[0, 0]), p12=float(t[0, 1]), p21=float(t[1, 0]), p22=float(t[1, 1]))


def is_x_shaped(mat: np.ndarray, tol: float = 1e-12) -> bool:
    """True if every entry off the diagonal/anti-diagonal has magnitude below ``tol``."""
    m = np.asarray(mat)
    return bool(np.abs(m[~_X_MASK]).max() < tol)


def pure_state(n: float) -> DensityMatrix:
    """Pure two-qubit state with negativity ``n``.

    For n in [0, 1] this is the rank-1 state with Schmidt coefficients fixed by
    sqrt(1 - n^2); n = 0 is a product state, n = 1 the Bell state (|00>+|11>)/sqrt(2).
    """
    if not 0.0 <= n <= 1.0:
        raise StateError(f"pure-state parameter must lie in [0, 1], got {n}")
    c = math.sqrt(1.0 - n * n)
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = (1.0 + c) / 2.0
    m[3, 3] = (1.0 - c) / 2.0
    m[0, 3] = m[3, 0] = n / 2.0
    return DensityMatrix(m)


def cq_state(p1: float, theta: float, phi: float, a1, a2) -> DensityMatrix:
    """Classical-quantum state p1 * P1 (x) rho(a1) + (1-p1) * P2 (x) rho(a2).

    P1, P2 is the projector pair at (theta, phi) on subsystem A and rho(a) the
    qubit state with Bloch vector a on subsystem B.  Zero discord by construction.
    """
    if not 0.0 <= p1 <= 1.0:
        raise StateError(f"probability p1 must lie in [0, 1], got {p1}")
    proj1, proj2 = projector_pair(theta, phi)
    m = p1 * np.kron(proj1, qubit_state(a1)) + (1.0 - p1) * np.kron(
        proj2, qubit_state(a2)
    )
    return DensityMatrix(m)


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
    table = ((p.p11, p.p12), (p.p21, p.p22))
    m = np.zeros((4, 4), dtype=complex)
    for j in range(2):
        for k in range(2):
            m += table[j][k] * np.kron(pa[j], pb[k])
    return DensityMatrix(m)


def x_state(params: XStateParams) -> DensityMatrix:
    """Density matrix with the X sparsity pattern described by ``params``."""
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = params.rho11
    m[1, 1] = params.rho22
    m[2, 2] = params.rho33
    m[3, 3] = params.rho44
    m[0, 3] = m[3, 0] = params.rho14
    m[1, 2] = m[2, 1] = params.rho23
    return DensityMatrix(m)


def rho_d_smax(w: float) -> float:
    """Largest admissible anti-diagonal entry for the discordant separable family."""
    return math.sqrt(w / 2.0 - w * w)


def rho_d(w: float, s: float) -> DensityMatrix:
    """Separable but (for w != 1/4) discordant X state.

    Diagonal (w, w, 1/2-w, 1/2-w), anti-diagonal entries all equal to s with
    0 < s <= sqrt(w/2 - w^2); at the upper bound the state sits on the
    separability boundary with a zero eigenvalue of the partial transpose.
    """
    if not 0.0 < w < 0.5:
        raise StateError(f"parameter w must lie in (0, 1/2), got {w}")
    smax = rho_d_smax(w)
    if not 0.0 < s <= smax + 1e-12:
        raise StateError(f"parameter s must lie in (0, {smax:.12g}], got {s}")
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = m[1, 1] = w
    m[2, 2] = m[3, 3] = 0.5 - w
    for i in range(4):
        m[i, 3 - i] = s
    return DensityMatrix(m)


def rho_theta(theta: float) -> DensityMatrix:
    """One-parameter entangled X family on theta in (0, pi/2)."""
    if not 0.0 < theta < math.pi / 2.0:
        raise StateError(f"theta must lie in (0, pi/2), got {theta}")
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = 0.5 * math.cos(theta) ** 2
    m[2, 2] = 0.5
    m[3, 3] = 0.5 * math.sin(theta) ** 2
    m[0, 3] = m[3, 0] = 0.25 * math.sin(2.0 * theta)
    return DensityMatrix(m)


def bell_diagonal(c1: float, c2: float, c3: float) -> DensityMatrix:
    """Bell-diagonal state (I (x) I + sum_j c_j sigma_j (x) sigma_j) / 4.

    Valid exactly when (c1, c2, c3) lies in the tetrahedron making all four
    Bell-basis eigenvalues non-negative.
    """
    lam = 0.25 * np.array(
        [
            1.0 - c1 - c2 - c3,
            1.0 - c1 + c2 + c3,
            1.0 + c1 - c2 + c3,
            1.0 + c1 + c2 - c3,
        ]
    )
    if float(lam.min()) < PSD_TOL:
        raise StateError(
            f"coefficients ({c1}, {c2}, {c3}) lie outside the Bell-diagonal "
            f"tetrahedron: eigenvalue {float(lam.min()):.3e}"
        )
    m = 0.25 * (_PAULI[0, 0] + c1 * _PAULI[1, 1] + c2 * _PAULI[2, 2] + c3 * _PAULI[3, 3])
    return DensityMatrix(m)


def partial_trace(rho: DensityMatrix, side: str) -> np.ndarray:
    """Reduced 2x2 state of one subsystem; side 'A' traces out B and vice versa."""
    r = rho.mat.reshape(2, 2, 2, 2)
    if side == "A":
        return np.einsum("ikjk->ij", r)
    if side == "B":
        return np.einsum("ikil->kl", r)
    raise ValueError(f"side must be 'A' or 'B', got {side!r}")


def partial_transpose(rho: DensityMatrix) -> np.ndarray:
    """Transpose of the second tensor factor; Hermitian and trace 1, possibly non-PSD."""
    return rho.mat.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4).copy()


def _pauli_coefficients(rho) -> np.ndarray:
    """C_ij = tr(rho sigma_i (x) sigma_j), sigma_0 = I: a = C[1:, 0], b = C[0, 1:], T = C[1:, 1:]."""
    return np.real(np.einsum("ijab,ba->ij", _PAULI, _as_mat(rho)))


def bloch_vectors(rho) -> tuple[np.ndarray, np.ndarray]:
    """Marginal Bloch vectors (a, b) with a_i = tr(rho sigma_i (x) I), b_j = tr(rho I (x) sigma_j).

    ``rho`` is a :class:`DensityMatrix` or a raw 4x4 array.
    """
    c = _pauli_coefficients(rho)
    return c[1:, 0], c[0, 1:]


def correlation_tensor(rho) -> np.ndarray:
    """3x3 matrix of raw correlations T_ij = tr(rho sigma_i (x) sigma_j); ``rho`` as in :func:`bloch_vectors`."""
    return _pauli_coefficients(rho)[1:, 1:]

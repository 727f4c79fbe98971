"""Test-only references for the oracles, the d1 kernel and the family constructors.

Nothing in ``src/qcorr`` calls these.  They evaluate the same quantities from
the definitions or along the slower path the production code was checked
against, so the tests compare the package with code it does not share.
"""

import math

import numpy as np

from qcorr.states import (
    _EYE2,
    _PAULI,
    _SIGMA,
    DensityMatrix,
    ProbTable2x2,
    XStateParams,
    bloch_matrix,
    frame_norms,
    projector_pair,
)


def measurement_map(rho: DensityMatrix, theta: float, phi: float) -> DensityMatrix:
    """Dephase subsystem A in the projector basis at (theta, phi).

    Returns sum_k (P_k (x) I) rho (P_k (x) I); applying the map twice with the
    same angles changes nothing.
    """
    p1, p2 = projector_pair(theta, phi)
    k1 = np.kron(p1, _EYE2)
    k2 = np.kron(p2, _EYE2)
    return DensityMatrix(k1 @ rho.mat @ k1 + k2 @ rho.mat @ k2)


def bell_diagonal_pauli_sum(c1: float, c2: float, c3: float) -> np.ndarray:
    """The Bell-diagonal matrix as numpy's complex sum of Pauli products; ``bell_diagonal`` must match its bits."""
    return 0.25 * (_PAULI[0, 0] + c1 * _PAULI[1, 1] + c2 * _PAULI[2, 2] + c3 * _PAULI[3, 3])


# The family constructors in numpy's complex arithmetic; each constructor,
# built from Python floats, must match its form's bits.


def _kron2(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    # np.kron of two 2x2 matrices by broadcasting.
    return (x[:, None, :, None] * y[None, :, None, :]).reshape(4, 4)


def qubit_state_einsum(a) -> np.ndarray:
    """(I + a . sigma) / 2 as numpy's einsum over the Pauli matrices."""
    return 0.5 * (_EYE2 + np.einsum("k,kij->ij", np.asarray(a, dtype=float), _SIGMA))


def cq_state_kron(p1: float, theta: float, phi: float, a1, a2) -> np.ndarray:
    """p1 P1 (x) rho(a1) + (1 - p1) P2 (x) rho(a2), one Kronecker product per term."""
    proj1, proj2 = projector_pair(theta, phi)
    k1, k2 = _kron2(proj1, qubit_state_einsum(a1)), _kron2(proj2, qubit_state_einsum(a2))
    return p1 * k1 + (1.0 - p1) * k2


def cc_state_kron(p: ProbTable2x2, theta_a: float, phi_a: float, theta_b: float, phi_b: float):
    """sum_jk p_jk P_j (x) P_k, each weighted product added into np.zeros in table order."""
    pa = projector_pair(theta_a, phi_a)
    pb = projector_pair(theta_b, phi_b)
    table = ((p.p11, p.p12), (p.p21, p.p22))
    m = np.zeros((4, 4), dtype=complex)
    for j in range(2):
        for k in range(2):
            m += table[j][k] * _kron2(pa[j], pb[k])
    return m


def pure_state_zeros(n: float) -> np.ndarray:
    c = math.sqrt(1.0 - n * n)
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = (1.0 + c) / 2.0
    m[3, 3] = (1.0 - c) / 2.0
    m[0, 3] = m[3, 0] = n / 2.0
    return m


def x_state_zeros(params: XStateParams) -> np.ndarray:
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = params.rho11
    m[1, 1] = params.rho22
    m[2, 2] = params.rho33
    m[3, 3] = params.rho44
    m[0, 3] = m[3, 0] = params.rho14
    m[1, 2] = m[2, 1] = params.rho23
    return m


def rho_d_zeros(w: float, s: float) -> np.ndarray:
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = m[1, 1] = w
    m[2, 2] = m[3, 3] = 0.5 - w
    for i in range(4):
        m[i, 3 - i] = s
    return m


def rho_theta_zeros(theta: float) -> np.ndarray:
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = 0.5 * math.cos(theta) ** 2
    m[2, 2] = 0.5
    m[3, 3] = 0.5 * math.sin(theta) ** 2
    m[0, 3] = m[3, 0] = 0.25 * math.sin(2.0 * theta)
    return m


def classical_cov_from_moments(p: ProbTable2x2) -> float:
    """Same covariance via <XY> - <X><Y>; must agree with :func:`classical_cov`."""
    ex = p.p11 + p.p12 - p.p21 - p.p22
    ey = p.p11 + p.p21 - p.p12 - p.p22
    exy = p.p11 + p.p22 - p.p12 - p.p21
    return exy - ex * ey


def _d1_eigen_axes(rho: DensityMatrix) -> float:
    """The smallest disturbance over the three eigen-axes of M = R R^T, each framed by the other two.

    Every axis bounds d1 from above.  On a zero-discord state (rank R <= 1)
    the top eigen-axis gives 0 to rounding.
    """
    r = bloch_matrix(rho)
    _, e = np.linalg.eigh(r @ r.T)
    rows, (e0, e1, e2) = r.tolist(), e.T.tolist()
    return min(frame_norms(rows, e1, e2), frame_norms(rows, e0, e2), frame_norms(rows, e0, e1))

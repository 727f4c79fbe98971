"""Test-only references for the oracles and the d1 search.

Nothing in ``src/qcorr`` calls these.  They evaluate the same quantities from
the definitions or along the slower path the production code was checked
against, so the tests compare the package with code it does not share.
"""

import math

import numpy as np

from qcorr.measures import _eigen_axes_min
from qcorr.oracles import _grid_frames, _grid_node, bloch_matrix, frame_norms
from qcorr.states import _EYE2, _PAULI, DensityMatrix, ProbTable2x2, projector_pair


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


def classical_cov_from_moments(p: ProbTable2x2) -> float:
    """Same covariance via <XY> - <X><Y>; must agree with :func:`classical_cov`."""
    ex = p.p11 + p.p12 - p.p21 - p.p22
    ey = p.p11 + p.p21 - p.p12 - p.p22
    exy = p.p11 + p.p22 - p.p12 - p.p21
    return exy - ex * ey


def _d1_eigen_axes(rho: DensityMatrix) -> float:
    # The smallest disturbance over the three eigen-axes of M = R R^T, as full_report takes it.
    return _eigen_axes_min(bloch_matrix(rho))


def _turn(a, b, s: float, c: float) -> tuple[float, float, float]:
    # c (a + s b) for float triples a and b.
    a0, a1, a2 = a
    b0, b1, b2 = b
    return (c * (a0 + s * b0), c * (a1 + s * b1), c * (a2 + s * b2))


def _compass_frames(n, u, v, step: float) -> list[tuple]:
    """Axes and frames one compass step of length ``step`` away: +u, -u, +v, -v.

    ``n``, ``u`` and ``v`` are float triples; so is every vector returned, as
    four (n', u', v') candidates.  The step rotates the frame with the axis,
    n' = c (n +- s u), u' = c (u -+ s n), v' = v with c = 1 / sqrt(1 + s^2),
    so no frame is rebuilt from scratch.  The vector a move keeps is the
    object passed in, which lets the refinement reuse its leg.
    """
    c = 1.0 / math.sqrt(1.0 + step * step)
    return [
        (_turn(n, u, step, c), _turn(u, n, -step, c), v),
        (_turn(n, u, -step, c), _turn(u, n, step, c), v),
        (_turn(n, v, step, c), u, _turn(v, n, -step, c)),
        (_turn(n, v, -step, c), u, _turn(v, n, step, c)),
    ]


def _reference_d1(rho, cfg, stop_below=None):
    # The search with every node and every refine candidate through frame_norms.
    r = bloch_matrix(rho).tolist()
    grid_n, grid_u, grid_v, step = _grid_frames(*cfg.coarse_grid)
    vals = frame_norms(r, grid_u, grid_v)
    k = int(np.argmin(vals))
    best = float(vals.flat[k])
    n, u, v = (_grid_node(f, *divmod(k, vals.shape[1])) for f in (grid_n, grid_u, grid_v))
    for _ in range(cfg.refine_iters):
        if stop_below is not None and best <= stop_below:
            return best
        moved = None
        for cand in _compass_frames(n, u, v, step):
            val = frame_norms(r, cand[1], cand[2])
            if val < best:
                best, moved = val, cand
        if moved is None:
            step *= 0.5
        else:
            n, u, v = moved
    return best

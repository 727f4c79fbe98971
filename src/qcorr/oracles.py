"""Brute-force evaluators that cross-check the closed-form measures.

Everything here works directly from the definitions: the one-sided measurement
disturbance is minimized over a deterministic angle grid with pattern-search
refinement, set by :class:`SearchConfig`, and the covariance-matrix norm is
maximized by cyclic Jacobi sweeps, which take no settings.  Neither draws a
random number, so results are reproducible bit-for-bit.  Both oracles take a
validated :class:`DensityMatrix` and raise :class:`StateError` for anything
else.  Their LAPACK calls go through public ``np.linalg``, not through the
production path's helpers in :mod:`qcorr.states`.

Every disturbance value the d1 search returns or compares comes from
:func:`qcorr.states.frame_norms`, a closed expression in R = [a | T] and an
orthonormal frame (u, v) normal to the axis.  The whole grid goes through it
at once, as arrays that broadcast over the (n_theta, n_phi) nodes, and
``np.argmin`` picks the node; each refine candidate goes through it as a
frame of plain floats, which round as the grid's arrays do.
:func:`disturbance_norms` evaluates the same norm from the definition, by
eigenvalues of rho - P(rho); it is the reference the kernel is tested against.
Production d1 (:func:`qcorr.measures.full_report`) shares the kernel but none
of this search.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
from .states import (
    _EYE2,
    _SIGMA,
    _density_matrix,
    DensityMatrix,
    ProbTable2x2,
    bloch_matrix,
    frame_norms,
    pauli,
)


def _is_int(value) -> bool:
    # Python and numpy integers; a bool is no size.
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass(frozen=True)
class SearchConfig:
    """Deterministic search parameters of :func:`d1_oracle`."""

    coarse_grid: tuple[int, int] = (64, 128)
    refine_iters: int = 40

    def __post_init__(self):
        grid = self.coarse_grid
        if not (isinstance(grid, (tuple, list)) and len(grid) == 2 and all(map(_is_int, grid))):
            raise ValueError(f"coarse grid must be two integers between 32x64 and 1024x2048, got {grid!r}")
        nt, nph = grid
        if not (32 <= nt <= 1024 and 64 <= nph <= 2048):
            raise ValueError(f"coarse grid must lie between 32x64 and 1024x2048, got {nt}x{nph}")
        if not (_is_int(self.refine_iters) and 20 <= self.refine_iters <= 10_000):
            raise ValueError(f"refine_iters must be an integer in [20, 10000], got {self.refine_iters!r}")


DEFAULT_SEARCH = SearchConfig()

# Factor applied to the compass step after a refine step that finds no better axis.
_REFINE_SHRINK = 0.5


def disturbance_norms(rho, thetas, phis) -> np.ndarray:
    """Trace norm of rho - P(rho) for a batch of measurement angles.

    ``thetas`` and ``phis`` are paired 1-d arrays; row k of the result is the
    sum of the absolute eigenvalues of rho - P(rho), with P the dephasing of
    subsystem A in the projector basis at ``(thetas[k], phis[k])``.  Besides
    a :class:`DensityMatrix`, ``rho`` may be a raw 4x4 matrix, which is
    validated as one first, so anything that is not a state raises
    :class:`StateError`.
    """
    mat = (rho if isinstance(rho, DensityMatrix) else DensityMatrix(rho)).mat
    t = np.atleast_1d(np.asarray(thetas, dtype=float))
    p = np.atleast_1d(np.asarray(phis, dtype=float))
    if t.shape != p.shape:
        raise DimensionError(f"angle arrays differ in shape: {t.shape} vs {p.shape}")
    polar = 2.0 * t
    axes = np.stack(
        [np.sin(polar) * np.cos(p), np.sin(polar) * np.sin(p), np.cos(polar)], axis=-1
    )
    proj1 = 0.5 * (_EYE2 + np.einsum("gk,kab->gab", axes, _SIGMA))
    proj2 = _EYE2 - proj1
    k1 = np.einsum("gab,cd->gacbd", proj1, _EYE2).reshape(-1, 4, 4)
    k2 = np.einsum("gab,cd->gacbd", proj2, _EYE2).reshape(-1, 4, 4)
    delta = mat - (k1 @ mat @ k1 + k2 @ mat @ k2)
    eig = np.linalg.eigvalsh(delta)
    return np.abs(eig).sum(axis=-1)


@functools.lru_cache(maxsize=4)
def _grid_frames(n_theta: int, n_phi: int) -> tuple[tuple, tuple, tuple, float]:
    """Axes n, frames (u, v) and first refine step of the hemisphere search grid.

    Node (i, j) sits at the i-th doubled polar angle in [0, pi/2] and the j-th
    azimuth.  Each of n, u and v is a triple of components that broadcast to
    (n_theta, n_phi), the layout :func:`frame_norms` takes.  v depends only
    on the azimuth, so its components are (1, n_phi); the third components of
    n and u depend only on the polar angle, so they are (n_theta, 1).  Every
    component is cut from the full meshgrid arrays rather than recomputed,
    so each node holds the bits it would in a full array.  The step is a
    Python float, which keeps the refinement's arithmetic on Python floats.
    """
    polar = 2.0 * np.linspace(0.0, math.pi / 4.0, n_theta)
    phis = np.linspace(0.0, 2.0 * math.pi, n_phi, endpoint=False)
    pg, ph = np.meshgrid(polar, phis, indexing="ij")
    sp, cp, sph, cph = np.sin(pg), np.cos(pg), np.sin(ph), np.cos(ph)
    n = (sp * cph, sp * sph, cp[:, :1])
    u = (cp * cph, cp * sph, -sp[:, :1])
    v = (-sph[:1], cph[:1], np.zeros((1, n_phi)))
    for arr in (*n, *u, *v):
        arr.setflags(write=False)
    return n, u, v, float(max(polar[1] - polar[0], phis[1] - phis[0]))


def _grid_node(frame, i: int, j: int) -> tuple[float, float, float]:
    # Node (i, j) of a broadcast grid frame; an axis of length 1 is read at 0.
    return tuple(float(c[i % c.shape[0], j % c.shape[1]]) for c in frame)


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
    so no frame is rebuilt from scratch.
    """
    c = 1.0 / math.sqrt(1.0 + step * step)
    return [
        (_turn(n, u, step, c), _turn(u, n, -step, c), v),
        (_turn(n, u, -step, c), _turn(u, n, step, c), v),
        (_turn(n, v, step, c), u, _turn(v, n, -step, c)),
        (_turn(n, v, -step, c), u, _turn(v, n, step, c)),
    ]


def d1_oracle(rho: DensityMatrix, cfg: SearchConfig | None = None, *, stop_below: float | None = None) -> float:
    """Minimal trace-norm disturbance under one-sided projective measurements.

    Evaluates every node of a hemisphere grid of measurement axes (antipodal
    axes give the same map) with :func:`frame_norms` and starts from the
    first least one in row-major order.  It then refines with a compass
    search (Kolda, Lewis & Torczon, SIAM Rev. 45, 385, 2003) on that node's
    frame: each step tries the four candidates of :func:`_compass_frames` in
    order, moves to the best that beats the current value (the first of
    equal ones), and halves the step when none does.  The steps live in the tangent plane of the axis sphere, so
    the search does not degrade near the poles of the angle chart.  When
    ``stop_below`` is given, the search returns as soon as the running
    minimum drops to it; the result is then only an upper bound, which is all
    the callers using it need.  A minimum of exactly 0 ends the search too:
    no norm is below 0.
    """
    cfg = DEFAULT_SEARCH if cfg is None else cfg
    r = bloch_matrix(rho).tolist()
    grid_n, grid_u, grid_v, step = _grid_frames(*cfg.coarse_grid)
    vals = frame_norms(r, grid_u, grid_v)
    k = int(np.argmin(vals))
    best = float(vals.flat[k])
    n, u, v = (_grid_node(f, *divmod(k, vals.shape[1])) for f in (grid_n, grid_u, grid_v))
    stop = 0.0 if stop_below is None else max(stop_below, 0.0)
    for _ in range(cfg.refine_iters):
        if best <= stop:
            return best
        moved = None
        for cand in _compass_frames(n, u, v, step):
            val = frame_norms(r, cand[1], cand[2])
            # Strict < keeps the first of equally good candidates.
            if val < best:
                best, moved = val, cand
        if moved is None:
            step *= _REFINE_SHRINK
        else:
            n, u, v = moved
    return best


# Local observables A_i (x) I, I (x) B_j and their products, built once.
_A_OPS = [np.kron(pauli(i), _EYE2) for i in (1, 2, 3)]
_B_OPS = [np.kron(_EYE2, pauli(j)) for j in (1, 2, 3)]
_AB_OPS = [[a_op @ b_op for b_op in _B_OPS] for a_op in _A_OPS]


def _covariance_by_traces(rho: DensityMatrix) -> np.ndarray:
    # Plain element-by-element evaluation of q_ij = <A_i B_j> - <A_i><B_j>,
    # kept deliberately separate from the vectorized production path.
    a = np.array([np.trace(rho.mat @ op).real for op in _A_OPS])
    b = np.array([np.trace(rho.mat @ op).real for op in _B_OPS])
    q = np.empty((3, 3))
    for i in range(3):
        for j in range(3):
            q[i, j] = np.trace(rho.mat @ _AB_OPS[i][j]).real - a[i] * b[j]
    return q


def _jacobi_rotation(m: np.ndarray, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Orthonormal x and y turned within their plane onto the eigenvectors of
    # M restricted to it, the one with the larger z^T M z first: the angle is
    # that of the top eigenvector of [[rxx, rxy], [rxy, ryy]].  A
    # rounding-level rxy turns them by a rounding-level angle, whatever the gap.
    rxx = x @ m @ x
    rxy = x @ m @ y
    ryy = y @ m @ y
    angle = 0.5 * math.atan2(2.0 * rxy, rxx - ryy)
    c, s = math.cos(angle), math.sin(angle)
    return c * x + s * y, c * y - s * x


# Cap on mmc_oracle's cyclic Jacobi sweeps; no state measured has needed more than 7.
_JACOBI_SWEEPS = 30


def mmc_oracle(rho: DensityMatrix) -> float:
    """Maximize |<a, Q b>| over unit vectors a, b by cyclic Jacobi on M = Q Q^T.

    Starting from the coordinate basis x, y, z, each sweep turns the pairs
    (x, y), (x, z) and (y, z) onto the eigenvectors of M restricted to their
    plane.  Cyclic Jacobi converges from any basis (Forsythe & Henrici,
    Trans. AMS 94, 1, 1960), so nothing depends on a start, and it is the
    accurate reference for symmetric eigenproblems (Demmel & Veselic, SIAM
    J. Matrix Anal. Appl. 13, 1204, 1992).  The sweeps stop once every
    off-diagonal |x_i^T M x_j| is at most eps * max|M|, or after
    ``_JACOBI_SWEEPS``.  The result is the largest |Q^T x| over the basis.
    That is |<x, Q b>| at b = Q^T x / |Q^T x|, a value the definition's
    objective actually reaches, so the oracle can only err low.
    """
    q = _covariance_by_traces(_density_matrix(rho))
    m = q @ q.T
    floor = np.finfo(float).eps * np.abs(m).max()
    x, y, z = np.eye(3)
    for _ in range(_JACOBI_SWEEPS):
        if max(abs(x @ m @ y), abs(x @ m @ z), abs(y @ m @ z)) <= floor:
            break
        x, y = _jacobi_rotation(m, x, y)
        x, z = _jacobi_rotation(m, x, z)
        y, z = _jacobi_rotation(m, y, z)
    return float(max(np.linalg.norm(q.T @ v) for v in (x, y, z)))


def classical_cov(p: ProbTable2x2) -> float:
    """Covariance of the two +/-1 variables of a joint table, closed expression."""
    return (
        p.p11
        + p.p22
        - p.p12
        - p.p21
        + (p.p12 - p.p21) ** 2
        - (p.p11 - p.p22) ** 2
    )

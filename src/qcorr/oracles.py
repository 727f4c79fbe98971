"""Brute-force evaluators that cross-check the closed-form measures.

Everything here works directly from the definitions: the one-sided measurement
disturbance is minimized over a deterministic angle grid with pattern-search
refinement, and the covariance-matrix norm is maximized by alternating
optimization from a grid of unit-vector starts.  Results are reproducible
bit-for-bit for a fixed :class:`SearchConfig`.

The grid and the refinement evaluate the disturbance with :func:`frame_norms`,
a closed expression in R = [a | T] and an orthonormal frame normal to the
axis.  :func:`disturbance_norms` evaluates the same norm from the definition,
by eigenvalues of rho - P(rho); it is the reference the kernel is tested
against.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import DimensionError
from .states import (
    _EYE2,
    _SIGMA,
    _as_mat,
    DensityMatrix,
    ProbTable2x2,
    bloch_vectors,
    correlation_tensor,
    pauli,
    projector_pair,
)


@dataclass(frozen=True)
class SearchConfig:
    """Deterministic search parameters for the brute-force evaluators."""

    coarse_grid: tuple[int, int] = (64, 128)
    refine_iters: int = 40
    seed: int = 0

    def __post_init__(self):
        nt, nph = self.coarse_grid
        if nt < 32 or nph < 64:
            raise ValueError(f"coarse grid must be at least 32x64, got {nt}x{nph}")
        if self.refine_iters < 20:
            raise ValueError(f"refine_iters must be at least 20, got {self.refine_iters}")


DEFAULT_SEARCH = SearchConfig()

# Factor applied to the compass step after a refine step that finds no better axis.
_REFINE_SHRINK = 0.5


def measurement_map(rho: DensityMatrix, theta: float, phi: float) -> DensityMatrix:
    """Dephase subsystem A in the projector basis at (theta, phi).

    Returns sum_k (P_k (x) I) rho (P_k (x) I); applying the map twice with the
    same angles changes nothing.
    """
    p1, p2 = projector_pair(theta, phi)
    k1 = linalg.kron(p1, _EYE2)
    k2 = linalg.kron(p2, _EYE2)
    return DensityMatrix(k1 @ rho.mat @ k1 + k2 @ rho.mat @ k2)


def disturbance_norms(rho, thetas, phis) -> np.ndarray:
    """Trace norm of rho - P(rho) for a batch of measurement angles.

    ``thetas`` and ``phis`` are paired 1-d arrays; row k of the result equals
    ``trace_norm_hermitian(rho - measurement_map(rho, thetas[k], phis[k]))``.
    """
    mat = _as_mat(rho)
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


def bloch_matrix(rho) -> np.ndarray:
    """R = [a | T]: A's Bloch vector beside the correlation tensor, 3x4.

    ``rho - P(rho)`` does not involve B's Bloch vector, so every measurement
    disturbance is a function of R alone.
    """
    a, _ = bloch_vectors(rho)
    return np.column_stack([a, correlation_tensor(rho)])


def _rows_times(frame: np.ndarray, r: np.ndarray) -> np.ndarray:
    # frame @ r written out, so the sums never depend on BLAS threading.
    return frame[:, 0, None] * r[0] + frame[:, 1, None] * r[1] + frame[:, 2, None] * r[2]


def frame_norms(r: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Trace norms of rho - P_n(rho), one per frame, from R = ``bloch_matrix(rho)``.

    Row k of ``u`` and ``v`` is an orthonormal frame of the plane normal to
    measurement axis n_k.  With p = u^T R, q = v^T R and the Lorentz product
    <x, y> = x0 y0 - x.y, the norm is
    sqrt((|p|^2 + |q|^2 + hypot(<p,p> - <q,q>, 2<p,q>)) / 2), a sum of
    non-negative terms with no cancellation (Ciccarello, Tufarelli &
    Giovannetti, NJP 16, 013038, 2014).
    """
    p = _rows_times(u, r)
    q = _rows_times(v, r)
    p0, q0, pv, qv = p[:, 0], q[:, 0], p[:, 1:], q[:, 1:]
    pp, qq, pq = (pv * pv).sum(-1), (qv * qv).sum(-1), (pv * qv).sum(-1)
    euclid = p0 * p0 + pp + q0 * q0 + qq
    lorentz = np.hypot(p0 * p0 - pp - q0 * q0 + qq, 2.0 * (p0 * q0 - pq))
    return np.sqrt(0.5 * (euclid + lorentz))


@functools.lru_cache(maxsize=4)
def _grid_frames(n_theta: int, n_phi: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Axes n, frames (u, v) and first refine step of the hemisphere search grid."""
    polar = 2.0 * np.linspace(0.0, math.pi / 4.0, n_theta)
    phis = np.linspace(0.0, 2.0 * math.pi, n_phi, endpoint=False)
    pg, ph = np.meshgrid(polar, phis, indexing="ij")
    sp, cp, sph, cph = np.sin(pg), np.cos(pg), np.sin(ph), np.cos(ph)
    n = np.stack([sp * cph, sp * sph, cp], axis=-1).reshape(-1, 3)
    u = np.stack([cp * cph, cp * sph, -sp], axis=-1).reshape(-1, 3)
    v = np.stack([-sph, cph, np.zeros_like(ph)], axis=-1).reshape(-1, 3)
    for arr in (n, u, v):
        arr.setflags(write=False)
    return n, u, v, max(polar[1] - polar[0], phis[1] - phis[0])


def _compass_frames(n, u, v, step: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Axes and frames one compass step of length ``step`` away: +u, -u, +v, -v.

    The step rotates the frame with the axis, n' = c (n +- s u),
    u' = c (u -+ s n), v' = v with c = 1 / sqrt(1 + s^2), so no frame is
    rebuilt from scratch.
    """
    c = 1.0 / math.sqrt(1.0 + step * step)
    sn = step * n
    cand_n = c * np.stack([n + step * u, n - step * u, n + step * v, n - step * v])
    cand_u = np.stack([c * (u - sn), c * (u + sn), u, u])
    cand_v = np.stack([v, v, c * (v - sn), c * (v + sn)])
    return cand_n, cand_u, cand_v


def d1_oracle(rho: DensityMatrix, cfg: SearchConfig | None = None, *, stop_below: float | None = None) -> float:
    """Minimal trace-norm disturbance under one-sided projective measurements.

    Scans a hemisphere grid of measurement axes (antipodal axes give the same
    map) and refines around the best cell with a compass pattern search.  The
    refinement steps live in the tangent plane of the axis sphere, so it does
    not degrade near the poles of the angle chart.  When ``stop_below`` is
    given, the search returns as soon as the running minimum drops below it;
    the result is then only an upper bound, which is all the callers using it
    need.
    """
    cfg = DEFAULT_SEARCH if cfg is None else cfg
    r = bloch_matrix(rho)
    grid_n, grid_u, grid_v, step = _grid_frames(*cfg.coarse_grid)
    vals = frame_norms(r, grid_u, grid_v)
    k = int(np.argmin(vals))
    best = float(vals[k])
    n, u, v = grid_n[k], grid_u[k], grid_v[k]
    for _ in range(cfg.refine_iters):
        if stop_below is not None and best <= stop_below:
            return best
        cand_n, cand_u, cand_v = _compass_frames(n, u, v, step)
        cand_vals = frame_norms(r, cand_u, cand_v)
        j = int(np.argmin(cand_vals))
        if cand_vals[j] < best:
            best = float(cand_vals[j])
            n, u, v = cand_n[j], cand_u[j], cand_v[j]
        else:
            step *= _REFINE_SHRINK
    return best


def _covariance_by_traces(rho: DensityMatrix) -> np.ndarray:
    # Plain element-by-element evaluation of q_ij = <A_i B_j> - <A_i><B_j>,
    # kept deliberately separate from the vectorized production path.
    a_ops = [linalg.kron(pauli(i), _EYE2) for i in (1, 2, 3)]
    b_ops = [linalg.kron(_EYE2, pauli(j)) for j in (1, 2, 3)]
    a = np.array([np.trace(rho.mat @ op).real for op in a_ops])
    b = np.array([np.trace(rho.mat @ op).real for op in b_ops])
    q = np.empty((3, 3))
    for i in range(3):
        for j in range(3):
            both = a_ops[i] @ b_ops[j]
            q[i, j] = np.trace(rho.mat @ both).real - a[i] * b[j]
    return q


def _unit_rows(v: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(v, axis=1, keepdims=True)
    ok = norms > 1e-300
    fallback = np.zeros_like(v)
    fallback[:, 0] = 1.0
    return np.where(ok, v / np.where(ok, norms, 1.0), fallback)


def _sphere_grid(n_polar: int, n_azimuth: int) -> np.ndarray:
    th = np.linspace(0.0, math.pi, n_polar)
    ph = np.linspace(0.0, 2.0 * math.pi, n_azimuth, endpoint=False)
    tg, pg = np.meshgrid(th, ph, indexing="ij")
    return np.stack(
        [np.sin(tg) * np.cos(pg), np.sin(tg) * np.sin(pg), np.cos(tg)], axis=-1
    ).reshape(-1, 3)


def _krylov_polish(q: np.ndarray, a: np.ndarray, rounds: int = 3) -> np.ndarray:
    # Exact maximization of |Q^T a| over the plane spanned by a and (Q Q^T) a.
    # Once alternating ascent has confined a to the top-two singular subspace,
    # that plane contains the leading singular vector exactly, so the 2x2
    # restricted eigenproblem (closed-form solve) finishes the job even when
    # the top singular values are too close for power iteration to separate.
    m = q @ q.T
    for _ in range(rounds):
        w = m @ a
        w_perp = w - (a @ w) * a
        norm = np.linalg.norm(w_perp)
        if norm < 1e-300:
            break
        e = w_perp / norm
        raa = a @ m @ a
        rae = a @ m @ e
        ree = e @ m @ e
        half_gap = 0.5 * (raa - ree)
        radius = math.hypot(half_gap, rae)
        # rotation angle toward the top eigenvector of [[raa, rae], [rae, ree]]
        top = 0.5 * (raa + ree) + radius
        direction = np.array([rae, top - raa])
        dnorm = np.linalg.norm(direction)
        if dnorm < 1e-300:
            break
        direction /= dnorm
        a = direction[0] * a + direction[1] * e
        a /= np.linalg.norm(a)
    return a


def mmc_oracle(rho: DensityMatrix, cfg: SearchConfig | None = None) -> float:
    """Maximize |<a, Q b>| over unit vectors a, b by alternating optimization.

    Starts are taken on a spherical grid plus a few seeded random directions;
    each start alternates b = Q^T a / |Q^T a| and a = Q b / |Q b| until the
    objective changes by less than 1e-12.  The best iterate then gets an exact
    two-dimensional subspace polish, which removes the slow-convergence error
    left by near-degenerate top singular values.  The result equals the
    largest singular value of the covariance matrix Q.
    """
    cfg = DEFAULT_SEARCH if cfg is None else cfg
    q = _covariance_by_traces(rho)
    starts = _sphere_grid(max(cfg.coarse_grid[0] // 4, 8), max(cfg.coarse_grid[1] // 4, 16))
    rng = np.random.default_rng(cfg.seed)
    extra = _unit_rows(rng.standard_normal((8, 3)))
    a = np.vstack([starts, extra])
    b = _unit_rows(a @ q)
    prev = np.full(len(a), -1.0)
    for _ in range(500):
        a = _unit_rows(b @ q.T)
        b = _unit_rows(a @ q)
        vals = np.abs(np.einsum("ki,ij,kj->k", a, q, b))
        if float(np.abs(vals - prev).max()) < 1e-12:
            break
        prev = vals
    best = _krylov_polish(q, a[int(np.argmax(vals))])
    b_best = _unit_rows((q.T @ best)[None, :])[0]
    polished = abs(best @ q @ b_best)
    return max(float(vals.max()), float(polished))


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


def classical_cov_from_moments(p: ProbTable2x2) -> float:
    """Same covariance via <XY> - <X><Y>; must agree with :func:`classical_cov`."""
    ex = p.p11 + p.p12 - p.p21 - p.p22
    ey = p.p11 + p.p21 - p.p12 - p.p22
    exy = p.p11 + p.p22 - p.p12 - p.p21
    return exy - ex * ey

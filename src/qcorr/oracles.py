"""Brute-force evaluators that cross-check the closed-form measures.

Everything here works directly from the definitions: the one-sided measurement
disturbance is minimized over a deterministic angle grid with pattern-search
refinement, and the covariance-matrix norm is maximized by alternating
optimization from a grid of unit-vector starts.  Results are reproducible
bit-for-bit for a fixed :class:`SearchConfig`.

The grid and the refinement evaluate the disturbance with :func:`frame_norms`,
a closed expression in R = [a | T] and an orthonormal frame (u, v) normal to
the axis.  A frame is passed as its three components.  For the grid they are
arrays that broadcast over the (n_theta, n_phi) nodes, with the terms that
depend on one angle only stored once per row or column; for the refinement
they are plain floats, one compass candidate per call, with R's entries read
as floats once per search.  Both go through the same kernel and the same
rounding.  :func:`disturbance_norms` evaluates the same norm from the
definition, by eigenvalues of rho - P(rho); it is the reference the kernel is
tested against.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
from .states import (
    _EYE2,
    _SIGMA,
    _as_mat,
    _pauli_coefficients,
    DensityMatrix,
    ProbTable2x2,
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
    k1 = np.kron(p1, _EYE2)
    k2 = np.kron(p2, _EYE2)
    return DensityMatrix(k1 @ rho.mat @ k1 + k2 @ rho.mat @ k2)


def disturbance_norms(rho, thetas, phis) -> np.ndarray:
    """Trace norm of rho - P(rho) for a batch of measurement angles.

    ``thetas`` and ``phis`` are paired 1-d arrays; row k of the result is the
    sum of the absolute eigenvalues of
    ``rho - measurement_map(rho, thetas[k], phis[k])``.
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
    """R = [a | T], rows 1..3 of the Pauli coefficients C_ij = tr(rho sigma_i (x) sigma_j), 3x4.

    ``rho - P(rho)`` does not involve B's Bloch vector, so every measurement
    disturbance is a function of R alone.
    """
    return _pauli_coefficients(rho)[1:]


def frame_norms(r, u, v):
    """Trace norms of rho - P_n(rho), from R = ``bloch_matrix(rho)``.

    ``r`` is the 3x4 matrix R, as an array or as its rows of Python floats
    (``R.tolist()``, which :func:`d1_oracle` reads once per search).
    ``u = (u0, u1, u2)`` and ``v = (v0, v1, v2)`` are the components of an
    orthonormal frame of the plane normal to the measurement axis n.  Each
    component is either an array, giving one norm per frame (components
    broadcast against each other, as in :func:`_grid_frames`), or a float,
    giving the norm of one frame.  With p = u^T R, q = v^T R and the Lorentz
    product <x, y> = x0 y0 - x.y, the norm is
    sqrt((|p|^2 + |q|^2 + hypot(<p,p> - <q,q>, 2<p,q>)) / 2), a sum of
    non-negative terms with no cancellation (Ciccarello, Tufarelli &
    Giovannetti, NJP 16, 013038, 2014).  Every sum is written out term by
    term, left to right, so arrays and floats round alike and nothing depends
    on BLAS.
    """
    (r00, r01, r02, r03), (r10, r11, r12, r13), (r20, r21, r22, r23) = r
    u0, u1, u2 = u
    v0, v1, v2 = v
    p0 = u0 * r00 + u1 * r10 + u2 * r20
    p1 = u0 * r01 + u1 * r11 + u2 * r21
    p2 = u0 * r02 + u1 * r12 + u2 * r22
    p3 = u0 * r03 + u1 * r13 + u2 * r23
    q0 = v0 * r00 + v1 * r10 + v2 * r20
    q1 = v0 * r01 + v1 * r11 + v2 * r21
    q2 = v0 * r02 + v1 * r12 + v2 * r22
    q3 = v0 * r03 + v1 * r13 + v2 * r23
    pp = p1 * p1 + p2 * p2 + p3 * p3
    qq = q1 * q1 + q2 * q2 + q3 * q3
    pq = p1 * q1 + p2 * q2 + p3 * q3
    p00 = p0 * p0
    q00 = q0 * q0
    euclid = p00 + pp + q00 + qq
    # np.hypot on floats too: math.hypot rounds differently on some pairs, and
    # a refined frame must give the bits its grid node gives.
    lorentz = np.hypot(p00 - pp - q00 + qq, 2.0 * (p0 * q0 - pq))
    half = 0.5 * (euclid + lorentz)
    # Both square roots are correctly rounded, so they agree bit for bit.
    return np.sqrt(half) if isinstance(half, np.ndarray) else math.sqrt(half)


@functools.lru_cache(maxsize=4)
def _grid_frames(n_theta: int, n_phi: int) -> tuple[tuple, tuple, tuple, float]:
    """Axes n, frames (u, v) and first refine step of the hemisphere search grid.

    Node (i, j) sits at the i-th polar angle and the j-th azimuth.  Each of n,
    u and v is a triple of components that broadcast to (n_theta, n_phi), the
    layout :func:`frame_norms` takes.  v depends only on the azimuth, so its
    components are (1, n_phi); the third components of n and u depend only on
    the polar angle, so they are (n_theta, 1).  Every component is cut from
    the full meshgrid arrays rather than recomputed, so each node holds the
    bits it would in a full array.  The step is a Python float, which keeps
    the refinement's arithmetic on Python floats.
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

    Scans a hemisphere grid of measurement axes (antipodal axes give the same
    map) and refines around the best cell with a compass pattern search.  The
    refinement steps live in the tangent plane of the axis sphere, so it does
    not degrade near the poles of the angle chart.  When ``stop_below`` is
    given, the search returns as soon as the running minimum drops below it;
    the result is then only an upper bound, which is all the callers using it
    need.
    """
    cfg = DEFAULT_SEARCH if cfg is None else cfg
    r = bloch_matrix(rho).tolist()
    grid_n, grid_u, grid_v, step = _grid_frames(*cfg.coarse_grid)
    vals = frame_norms(r, grid_u, grid_v)
    k = int(np.argmin(vals))  # the first minimum in row-major node order
    best = float(vals.flat[k])
    n, u, v = (_grid_node(frame, *divmod(k, vals.shape[1])) for frame in (grid_n, grid_u, grid_v))
    for _ in range(cfg.refine_iters):
        if stop_below is not None and best <= stop_below:
            return best
        # Strict < keeps the first of equally good candidates, in +u, -u, +v, -v order.
        moved = None
        for cand in _compass_frames(n, u, v, step):
            val = frame_norms(r, cand[1], cand[2])
            if val < best:
                best, moved = val, cand
        if moved is None:
            step *= _REFINE_SHRINK
        else:
            n, u, v = moved
    return best


def _covariance_by_traces(rho: DensityMatrix) -> np.ndarray:
    # Plain element-by-element evaluation of q_ij = <A_i B_j> - <A_i><B_j>,
    # kept deliberately separate from the vectorized production path.
    a_ops = [np.kron(pauli(i), _EYE2) for i in (1, 2, 3)]
    b_ops = [np.kron(_EYE2, pauli(j)) for j in (1, 2, 3)]
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

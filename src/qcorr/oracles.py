"""Brute-force evaluators that cross-check the closed-form measures.

Everything here works directly from the definitions: the one-sided measurement
disturbance is minimized over a deterministic angle grid with pattern-search
refinement, and the covariance-matrix norm is maximized by alternating
optimization from a grid of unit-vector starts.  Results are reproducible
bit-for-bit for a fixed :class:`SearchConfig`.

Every disturbance value the d1 search returns or compares with ``<`` comes
from :func:`frame_norms`, a closed expression in R = [a | T] and an
orthonormal frame (u, v) normal to the axis, or from the same expressions
written out term by term in the same order.  A frame is passed as its three
components.  For the grid they are arrays that broadcast over the
(n_theta, n_phi) nodes, with the terms that depend on one angle only stored
once per row or column; for one node or one refine candidate they are plain
floats, with R's entries read as floats once per search.  Both round alike,
so a node's float frame gives the node's bits.  :func:`disturbance_norms`
evaluates the same norm from the definition, by eigenvalues of rho - P(rho);
it is the reference the kernel is tested against.

The search ranks cheaply and decides with the kernel.  On the grid,
:func:`_screen` evaluates the squared norm at every node as three products of
polar features, a 6x6 weight matrix read off R R^T or R eta R^T, and azimuth
features.  The nodes within a proven margin of the screen's minimum are the
candidates.  A few of them go through the kernel one float frame at a time
and the first strict minimum picks the node; more, as on a tied pole row or
an identity-like state, send the rows that hold them through the kernel and
``np.argmin`` picks it (:func:`_grid_minimum`).  The refinement is a compass
search with R, the frame and its legs held in local floats; each candidate
is ranked with ``math.hypot``, only one whose rank lies within a proven
relative margin of the best value is evaluated with ``np.hypot`` and
compared, and only the move taken turns the axis (:func:`_d1_search`).
BLAS and ``math.hypot`` thus choose which candidates the kernel sees but
never set a returned value, so the search returns the bits a kernel
evaluation of every node and every candidate would.
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
)


@dataclass(frozen=True)
class SearchConfig:
    """Deterministic search parameters for the brute-force evaluators."""

    coarse_grid: tuple[int, int] = (64, 128)
    refine_iters: int = 40
    seed: int = 0

    def __post_init__(self):
        nt, nph = self.coarse_grid
        if not (32 <= nt <= 1024 and 64 <= nph <= 2048):
            raise ValueError(f"coarse grid must lie between 32x64 and 1024x2048, got {nt}x{nph}")
        if not 20 <= self.refine_iters <= 10_000:
            raise ValueError(f"refine_iters must lie in [20, 10000], got {self.refine_iters}")


DEFAULT_SEARCH = SearchConfig()

# Factor applied to the compass step after a refine step that finds no better axis.
_REFINE_SHRINK = 0.5

# At most this many candidate grid nodes are decided one float frame at a time;
# more go through the kernel by rows (see _grid_minimum).  A float frame costs
# about 6.3 us and one 128-node row about 55 us (CPython 3.11, numpy 2.4, one
# core of a 2-core x86-64 Xeon), so the two cross between 8 and 9 nodes.
_NODE_LIMIT = 8


def disturbance_norms(rho, thetas, phis) -> np.ndarray:
    """Trace norm of rho - P(rho) for a batch of measurement angles.

    ``thetas`` and ``phis`` are paired 1-d arrays; row k of the result is the
    sum of the absolute eigenvalues of rho - P(rho), with P the dephasing of
    subsystem A in the projector basis at ``(thetas[k], phis[k])``.
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


def _norm(e, x, y, hypot):
    # sqrt((E + hypot(X, Y)) / 2); ``hypot`` is np.hypot for the kernel and
    # math.hypot only to rank refine candidates.
    half = 0.5 * (e + hypot(x, y))
    # Both square roots are correctly rounded, so they agree bit for bit.
    return np.sqrt(half) if isinstance(half, np.ndarray) else math.sqrt(half)


def frame_norms(r, u, v):
    """Trace norms of rho - P_n(rho), from R = ``bloch_matrix(rho)``.

    ``r`` is the 3x4 matrix R, as an array or as its rows of Python floats
    (``R.tolist()``, as :func:`_grid_minimum` passes it for single nodes).
    ``u = (u0, u1, u2)`` and ``v = (v0, v1, v2)`` are the components of an
    orthonormal frame of the plane normal to the measurement axis n.  Each
    component is either an array, giving one norm per frame (components
    broadcast against each other, as in :func:`_grid_frames`), or a float,
    giving the norm of one frame.  With p = u^T R, q = v^T R and the Lorentz
    product <x, y> = x0 y0 - x.y, the norm is
    sqrt((E + hypot(X, Y)) / 2) with E = |p|^2 + |q|^2, X = <p,p> - <q,q> and
    Y = 2<p,q>, a sum of non-negative terms with no cancellation (Ciccarello,
    Tufarelli & Giovannetti, NJP 16, 013038, 2014).  It is computed in two
    legs, p with its squares from u and q with its squares from v, and their
    combination; :func:`_d1_search` writes the same expressions out inline
    for its refine candidates.  Every sum is written out term by term, left
    to right, so arrays and floats round alike and nothing depends on BLAS.
    ``np.hypot`` serves floats too: ``math.hypot`` rounds differently on some
    pairs, and a refined frame must give the bits its grid node gives.
    """
    return _norm(*_terms(_leg(r, u), _leg(r, v)), np.hypot)


def _grid_angles(n_theta: int, n_phi: int) -> tuple[np.ndarray, np.ndarray]:
    # Doubled polar angles and azimuths of the hemisphere search grid.
    polar = 2.0 * np.linspace(0.0, math.pi / 4.0, n_theta)
    return polar, np.linspace(0.0, 2.0 * math.pi, n_phi, endpoint=False)


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
    polar, phis = _grid_angles(n_theta, n_phi)
    pg, ph = np.meshgrid(polar, phis, indexing="ij")
    sp, cp, sph, cph = np.sin(pg), np.cos(pg), np.sin(ph), np.cos(ph)
    n = (sp * cph, sp * sph, cp[:, :1])
    u = (cp * cph, cp * sph, -sp[:, :1])
    v = (-sph[:1], cph[:1], np.zeros((1, n_phi)))
    for arr in (*n, *u, *v):
        arr.setflags(write=False)
    return n, u, v, float(max(polar[1] - polar[0], phis[1] - phis[0]))


@functools.lru_cache(maxsize=4)
def _grid_features(n_theta: int, n_phi: int) -> tuple[np.ndarray, np.ndarray]:
    """Polar features Fp, (n_theta, 6), and azimuth features Fa, (6, n_phi), of the grid.

    With P the doubled polar angle and phi the azimuth, the columns of Fp are
    cos^2 P, cos P sin P, sin^2 P, cos P, sin P and 1, and the rows of Fa are
    cos^2 phi, cos phi sin phi, sin^2 phi, cos phi, sin phi and 1.
    """
    polar, phis = _grid_angles(n_theta, n_phi)
    cp, sp, c, s = np.cos(polar), np.sin(polar), np.cos(phis), np.sin(phis)
    fp = np.stack([cp * cp, cp * sp, sp * sp, cp, sp, np.ones(n_theta)], axis=1)
    fa = np.stack([c * c, c * s, s * s, c, s, np.ones(n_phi)])
    fp.setflags(write=False)
    fa.setflags(write=False)
    return fp, fa


def _screen(r: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """f^2 = (E + sqrt(X^2 + Y^2)) / 2 on every node of the grid, by matrix products.

    With A = R R^T and B = R eta R^T (eta = diag(1, -1, -1, -1)),
    E = u^T A u + v^T A v, X = u^T B u - v^T B v and Y = 2 u^T B v.  On the
    grid u = (cos P cos phi, cos P sin phi, -sin P) and
    v = (-sin phi, cos phi, 0), so each of E/2, X/2 and Y/2 is Fp W Fa for
    the features of :func:`_grid_features` and a 6x6 weight matrix W read off
    A or B.  The result ranks nodes and never becomes a returned value.
    """
    a, t = r[:, :1], r[:, 1:]
    aa, tt = a @ a.T, t @ t.T
    (a00, a01, a02), (_, a11, a12), (_, _, a22) = (aa + tt).tolist()
    (b00, b01, b02), (_, b11, b12), (_, _, b22) = (aa - tt).tolist()
    z = (0.0,) * 6
    w = np.array(
        [
            # u^T M u, spread over the first three polar features, plus or
            # minus v^T M v on the constant one: E with M = A, X with M = B.
            [
                (a00, 2.0 * a01, a11, 0.0, 0.0, 0.0),
                (0.0, 0.0, 0.0, -2.0 * a02, -2.0 * a12, 0.0),
                (0.0, 0.0, 0.0, 0.0, 0.0, a22),
                z,
                z,
                (a11, -2.0 * a01, a00, 0.0, 0.0, 0.0),
            ],
            [
                (b00, 2.0 * b01, b11, 0.0, 0.0, 0.0),
                (0.0, 0.0, 0.0, -2.0 * b02, -2.0 * b12, 0.0),
                (0.0, 0.0, 0.0, 0.0, 0.0, b22),
                z,
                z,
                (-b11, 2.0 * b01, -b00, 0.0, 0.0, 0.0),
            ],
            # Y / 2 = u^T B v, on cos P and sin P.
            [z, z, z, (b01, b11 - b00, -b01, 0.0, 0.0, 0.0), (0.0, 0.0, 0.0, -b12, b02, 0.0), z],
        ]
    )
    w[:2] *= 0.5
    fp, fa = _grid_features(*shape)
    half_e, half_x, half_y = fp @ w @ fa
    # In place, on the product's fresh rows: this runs once per search.
    half_x *= half_x
    half_y *= half_y
    half_x += half_y
    half_e += np.sqrt(half_x, out=half_x)
    return half_e


def _screen_margin(r: np.ndarray) -> float:
    # delta = 2^-30 |R|^2 + 2^-1000: nodes whose screen value lies within it of
    # the screen's minimum are candidates; see _grid_minimum.
    return 2.0**-30 * float(np.vdot(r, r)) + 2.0**-1000


def _grid_minimum(r: np.ndarray, shape: tuple[int, int]) -> tuple[int, float]:
    """(k, f): the first node in row-major order with the least kernel value, and that value.

    :func:`_screen` ranks the nodes.  The candidates are the nodes whose
    screen value lies within the margin delta = 2^-30 |R|^2 + 2^-1000 of the
    screen's minimum m.  Up to ``_NODE_LIMIT`` of them go through
    :func:`frame_norms` one float frame at a time, in row-major order, and
    the first strict minimum decides; a float frame gives its grid node's
    bits.  More candidates, as on a pole row where all n_phi nodes share the
    axis z, on identity-like states where every node ties, or on a NaN
    anywhere in the screen, send the rows from the first to the last
    candidate through the kernel at once, and ``np.argmin`` over them
    decides.

    Why no tie is lost: suppose |screen - kernel^2| <= eps on every node, and
    let f be the least kernel value over the grid.  A node that ties f has
    screen <= f^2 + eps, and the node where the screen is least has kernel
    >= f, so m >= f^2 - eps.  Every node tying f thus has screen <= m + 2 eps
    and is a candidate once delta >= 2 eps.  The kernel works elementwise,
    so the candidates, or the rows that hold them, keep the full grid's
    values in row-major order: their first minimum is the grid's first
    minimum, bit for bit.

    Why delta >= 2 eps on every valid state: with R_i the rows of R, every
    entry of A and B is at most |R_i| |R_j| in size, so the entries of either
    add up to at most (sum_i |R_i|)^2 <= 3 |R|^2, and the terms of each of
    E/2, X/2 and Y/2 at a node add up in size to at most 3 |R|^2, since every
    feature and frame component lies in [-1, 1].  Each is then accurate to
    a few tens of unit roundoffs (2^-53) times 3 |R|^2, whatever order and
    FMA use BLAS picks, and so is the kernel's own f^2; its float frame and
    the features differ by a few roundoffs.  The square root adds nothing:
    hypot is 1-Lipschitz, and X^2 + Y^2 sums non-negative terms.  That puts
    eps near 2^-45 |R|^2, with 2^-1000 covering products that underflow.
    The tests measure eps on every node of four grid shapes over mixed,
    rotated-X, cq, cc, pure, Bell-diagonal, identity and near-identity states.
    """
    screen = _screen(r, shape)
    row_min = screen.min(axis=1)
    threshold = row_min.min() + _screen_margin(r)
    # Written with > so that a NaN anywhere keeps every row and node, as the full grid would.
    kept = np.flatnonzero(~(row_min > threshold))
    first, last = kept[[0, -1]]
    _, grid_u, grid_v, _ = _grid_frames(*shape)
    n_phi = shape[1]
    # Each kept row holds a candidate, so more rows than _NODE_LIMIT need no node count.
    if kept.size <= _NODE_LIMIT:
        nodes = np.flatnonzero(~(screen[first : last + 1] > threshold)) + int(first) * n_phi
        if nodes.size <= _NODE_LIMIT:
            entries, found = r.tolist(), []
            for k in nodes.tolist():
                i, j = divmod(k, n_phi)
                found.append((frame_norms(entries, _grid_node(grid_u, i, j), _grid_node(grid_v, i, j)), k))
            # On equal values the lower node index wins: the first in row-major order.
            best, k = min(found)
            return k, best
    # Freed before the kernel allocates its row-sized temporaries: held, it
    # made a 64-row decide about 30% slower (measured on I/4).
    del screen
    rows = slice(first, last + 1)
    u0, u1, u2 = grid_u
    vals = frame_norms(r, (u0[rows], u1[rows], u2[rows]), grid_v)
    j = int(np.argmin(vals))
    return int(first) * n_phi + j, float(vals.flat[j])


def _grid_node(frame, i: int, j: int) -> tuple[float, float, float]:
    # Node (i, j) of a broadcast grid frame; an axis of length 1 is read at 0.
    return tuple(float(c[i % c.shape[0], j % c.shape[1]]) for c in frame)


# A refine candidate whose math.hypot rank is not below best (1 + _RANK_REL) + _RANK_ABS
# cannot beat best under np.hypot; see _d1_search.
_RANK_REL = 2.0**-40
_RANK_ABS = 2.0**-500


def _d1_search(r: np.ndarray, cfg: SearchConfig | None = None, stop_below: float | None = None) -> float:
    """:func:`d1_oracle` from R = ``bloch_matrix(rho)``.

    The grid minimum comes from :func:`_grid_minimum`.  The refinement is a
    compass search (Kolda, Lewis & Torczon, SIAM Rev. 45, 385, 2003) on the
    frame (n, u, v) of that node.  A step of length s tries +u, -u, +v and
    -v in that order: the move along +-u turns u' = c (u -+ s n) and keeps v,
    the move along +-v turns v' = c (v -+ s n) and keeps u, with
    c = 1 / sqrt(1 + s^2), so no frame is rebuilt from scratch.  Only the
    move taken also turns the axis, n' = c (n +- s u) or c (n +- s v), from
    the frame the step started from.  R's entries are read into floats once,
    and each candidate's leg and its E, X and Y are written out with
    :func:`frame_norms`' expressions in its order, so a candidate gets the
    bits ``frame_norms`` gives its frame.  A step that finds no better
    candidate halves s.

    Each candidate is ranked with ``math.hypot`` in place of ``np.hypot``;
    only a candidate ranked below best (1 + 2^-40) + 2^-500, with best as
    the step began (it only falls within a step, so this threshold skips
    less, never more), is evaluated with ``np.hypot`` and compared with
    ``<``.  Both hypot functions are within
    1 ulp of the exact value (CPython documents this for ``math.hypot`` since
    3.10; glibc lists 1 ulp for ``hypot``), and the two evaluations share E,
    X and Y.  So the two hypots differ by at most 2^-51 relative (or 2^-1073
    when subnormal); adding the non-negative E, halving and the correctly
    rounded square root keep the two norms within 2^-49 relative of each
    other, and where the half-sum is subnormal, within
    sqrt(8 * 2^-1074) < 2^-535.  A candidate whose kernel value is below best
    therefore ranks below best (1 + 2^-49) + 2^-535, under the threshold even
    after it is rounded: no candidate that could move the search is skipped,
    and every value returned or compared comes from the kernel.  A best value
    of exactly 0 ends the refinement: no norm is below 0.
    """
    cfg = DEFAULT_SEARCH if cfg is None else cfg
    k, best = _grid_minimum(r, cfg.coarse_grid)
    grid_n, grid_u, grid_v, step = _grid_frames(*cfg.coarse_grid)
    node = divmod(k, cfg.coarse_grid[1])
    (n0, n1, n2), (u0, u1, u2), (v0, v1, v2) = (_grid_node(f, *node) for f in (grid_n, grid_u, grid_v))
    entries = r.tolist()
    (r00, r01, r02, r03), (r10, r11, r12, r13), (r20, r21, r22, r23) = entries
    p0, p1, p2, p3, p00, pp = _leg(entries, (u0, u1, u2))
    q0, q1, q2, q3, q00, qq = _leg(entries, (v0, v1, v2))
    # No norm is below 0, so a minimum of 0 is final.
    stop = 0.0 if stop_below is None else max(stop_below, 0.0)
    c = 1.0 / math.sqrt(1.0 + step * step)
    for _ in range(cfg.refine_iters):
        if best <= stop:
            return best
        rank_below = best + best * _RANK_REL + _RANK_ABS
        moved = None
        # u' = c (u + t n) with t = -s for +u, then t = s for -u; v's leg q is kept.
        for t in (-step, step):
            w0, w1, w2 = c * (u0 + t * n0), c * (u1 + t * n1), c * (u2 + t * n2)
            x0 = w0 * r00 + w1 * r10 + w2 * r20
            x1 = w0 * r01 + w1 * r11 + w2 * r21
            x2 = w0 * r02 + w1 * r12 + w2 * r22
            x3 = w0 * r03 + w1 * r13 + w2 * r23
            x00, xx = x0 * x0, x1 * x1 + x2 * x2 + x3 * x3
            e = x00 + xx + q00 + qq
            x = x00 - xx - q00 + qq
            y = 2.0 * (x0 * q0 - (x1 * q1 + x2 * q2 + x3 * q3))
            if math.sqrt(0.5 * (e + math.hypot(x, y))) < rank_below:
                val = math.sqrt(0.5 * (e + np.hypot(x, y)))
                # Strict < keeps the first of equally good candidates, in +u, -u, +v, -v order.
                if val < best:
                    best, moved = val, (True, t, w0, w1, w2, x0, x1, x2, x3, x00, xx)
        # v' = c (v + t n) likewise; u's leg p is kept.
        for t in (-step, step):
            w0, w1, w2 = c * (v0 + t * n0), c * (v1 + t * n1), c * (v2 + t * n2)
            x0 = w0 * r00 + w1 * r10 + w2 * r20
            x1 = w0 * r01 + w1 * r11 + w2 * r21
            x2 = w0 * r02 + w1 * r12 + w2 * r22
            x3 = w0 * r03 + w1 * r13 + w2 * r23
            x00, xx = x0 * x0, x1 * x1 + x2 * x2 + x3 * x3
            e = p00 + pp + x00 + xx
            x = p00 - pp - x00 + xx
            y = 2.0 * (p0 * x0 - (p1 * x1 + p2 * x2 + p3 * x3))
            if math.sqrt(0.5 * (e + math.hypot(x, y))) < rank_below:
                val = math.sqrt(0.5 * (e + np.hypot(x, y)))
                if val < best:
                    best, moved = val, (False, t, w0, w1, w2, x0, x1, x2, x3, x00, xx)
        if moved is None:
            step *= _REFINE_SHRINK
            c = 1.0 / math.sqrt(1.0 + step * step)
            continue
        along_u, t, w0, w1, w2, *leg = moved
        # n' = c (n + s a) for the turned vector a, with s = -t, from this step's frame.
        s = -t
        if along_u:
            n0, n1, n2 = c * (n0 + s * u0), c * (n1 + s * u1), c * (n2 + s * u2)
            (u0, u1, u2), (p0, p1, p2, p3, p00, pp) = (w0, w1, w2), leg
        else:
            n0, n1, n2 = c * (n0 + s * v0), c * (n1 + s * v1), c * (n2 + s * v2)
            (v0, v1, v2), (q0, q1, q2, q3, q00, qq) = (w0, w1, w2), leg
    return best


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
    return _d1_search(bloch_matrix(rho), cfg, stop_below)


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

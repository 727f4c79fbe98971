"""The four correlation measures for two-qubit states.

mmc                  largest singular value t1 of the covariance matrix Q
correlation_distance (|t1+t2+t3| + |t1+t2-t3| + |t1-t2+t3| + |-t1+t2+t3|) / 4
negativity           trace norm of the partial transpose minus 1
d1                   minimal trace-norm disturbance under one-sided projective
                     measurement; one closed form on every state that a local
                     rotation makes X-shaped, otherwise the least disturbance
                     over at most five closed-form axes

d1 depends only on R = [a | T] (A's Bloch vector beside the correlation
tensor) and does not change under local rotations on either side.  So the
X-state closed form holds whenever a = 0 or a is an eigenvector of T T^T:
then rotations on A and B bring a onto the z axis and T to a diagonal.  The
cq and cc families and every other zero-discord state (rank R <= 1; Dakic,
Vedral & Brukner, PRL 105, 190502, 2010), every pure state (by its Schmidt
form), every Werner or Bell-diagonal state and every locally rotated X state
qualify.  ``full_report`` takes the closed form on a state whose R lies
within ``X_PATTERN_TOL`` |R| of such an R, so its d1 is then within
sqrt(3) * 1e-12 of exact.  Every other state takes the disturbance kernel
:func:`qcorr.states.frame_norms` at the axes of :func:`_five_axes_d1`.  No
route searches, and ``d1_method`` reads "closed_form" on every state; the
search in :mod:`qcorr.oracles` only checks the routes.

The measures take a validated :class:`DensityMatrix` and raise
:class:`StateError` for anything else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, StateError
from .states import (
    DensityMatrix,
    XStateParams,
    _density_matrix,
    _eigh,
    _eigvalsh,
    _pauli_coefficients,
    _x_entries,
    frame_norms,
    is_x_shaped,
)

X_PATTERN_TOL = 1e-12


@dataclass(frozen=True)
class MeasureReport:
    """All four measures for one state, plus the data they derive from."""

    mmc: float
    correlation_distance: float
    negativity: float
    d1: float
    d1_method: str
    singular_values: tuple[float, float, float]
    bloch_a: tuple[float, float, float]
    bloch_b: tuple[float, float, float]

    def __post_init__(self):
        # Both bounds hold on every valid state; StateError marks numbers that broke them.
        if abs(self.mmc - self.singular_values[0]) > 1e-12:
            raise StateError("mmc must equal the largest singular value")
        low = self.mmc - 1e-12
        high = 1.5 * self.mmc + 1e-12
        if not low <= self.correlation_distance <= high:
            raise StateError(
                "correlation distance must lie between mmc and 1.5*mmc, got "
                f"{self.correlation_distance} for mmc {self.mmc}"
            )


def _covariance(c: np.ndarray) -> np.ndarray:
    # Q = T - a b^T from the Pauli coefficients C; the products of np.outer(a, b).
    return c[1:, 1:] - c[1:, :1] * c[:1, 1:]


def covariance_matrix(rho: DensityMatrix) -> np.ndarray:
    """Q_ij = tr(rho sigma_i (x) sigma_j) - a_i b_j with marginal Bloch vectors a, b."""
    return _covariance(_pauli_coefficients(rho))


def _singular_values(q) -> list[float]:
    # singular_values_3 as a descending list of Python floats.
    q = np.asarray(q, dtype=float)
    if q.shape != (3, 3):
        raise DimensionError(f"expected a 3x3 real matrix, got shape {q.shape}")
    if np.count_nonzero(np.isfinite(q)) < 9:
        raise StateError("matrix has non-finite entries")
    low, mid, top = _eigvalsh(q.T @ q)
    if low < -1e-14:
        raise StateError(f"Gram eigenvalue {low:.3e} is negative beyond roundoff")
    # Clamped as np.maximum(gram, 0.0) clamps: -0.0 becomes +0.0 and a NaN stays.
    return [0.0 if g <= 0.0 else math.sqrt(g) for g in (top, mid, low)]


def singular_values_3(q) -> np.ndarray:
    """Singular values of a real 3x3 matrix, descending.

    Computed as the square roots of the spectrum of ``q^T q``, which
    :func:`qcorr.states._eigvalsh` takes from numpy's LAPACK gufunc: the bits
    of ``np.linalg.eigvalsh`` without its wrapper, whose fixed cost is a large
    share of a call on one 3x3 matrix.  Eigenvalues in ``[-1e-14, 0)`` are
    clamped to zero.  Anything more negative, and any non-finite entry of
    ``q``, raises :class:`StateError`: ``q`` is a state's covariance matrix,
    and no valid state gives one.  A complex or non-numeric ``q`` raises
    :class:`DimensionError` rather than losing its imaginary part.
    """
    try:
        arr = np.asarray(q)
    except (TypeError, ValueError) as exc:  # a ragged nesting, say
        raise DimensionError(f"expected a 3x3 real matrix, got {type(q).__name__}") from exc
    if arr.dtype.kind not in "biuf":
        raise DimensionError(f"expected a 3x3 real matrix, got dtype {arr.dtype}")
    return np.array(_singular_values(arr))


def mmc(rho: DensityMatrix) -> float:
    """Maximal mutual correlation: the largest singular value of Q."""
    return _singular_values(covariance_matrix(rho))[0]


def _distance_from_singular_values(t: list[float]) -> float:
    t1, t2, t3 = t
    return 0.25 * (
        abs(t1 + t2 + t3) + abs(t1 + t2 - t3) + abs(t1 - t2 + t3) + abs(-t1 + t2 + t3)
    )


def correlation_distance(rho: DensityMatrix) -> float:
    """Trace-norm distance between rho and the product of its marginals.

    Evaluates to t1 when t1 >= t2 + t3 and to (t1 + t2 + t3) / 2 otherwise.
    """
    return _distance_from_singular_values(_singular_values(covariance_matrix(rho)))


def negativity(rho: DensityMatrix) -> float:
    """Normalized negativity ||rho^PT||_1 - 1, clamped at zero.

    The clamp only absorbs eigenvalue noise on separability-boundary states;
    the exact value is never below zero.  ``rho`` was checked Hermitian on
    construction, and partial transposition only permutes entries, so the
    spectrum is ``eigvalsh``'s, which validation computed together with the
    state's own, through numpy's LAPACK gufunc (:func:`qcorr.states._eigvalsh`),
    and stored as ``rho.pt_spectrum``: no LAPACK call here.
    """
    e0, e1, e2, e3 = _density_matrix(rho).pt_spectrum
    # Summed in the order numpy sums four elements.
    value = abs(e0) + abs(e1) + abs(e2) + abs(e3) - 1.0
    return value if value > 0.0 else 0.0


def _x_form_d1(x2: float, s1: float, s2: float, s3: float, r1: float) -> float:
    """d1 of R = [a | T] in X form: a = (0, 0, x) and T = diag(t1, t2, t3).

    Takes x2 = x^2 and s_i = t_i^2 with s1 >= s2; ``r1`` is |t1| as the caller
    has it, returned when both weights vanish.  With big = max(s3, s2 + x2)
    and small = min(s3, s1), d1^2 = (s1 w1 + small w2) / (w1 + w2) for the
    weights w1 = big - small and w2 = s1 - s2 (Ciccarello, Tufarelli &
    Giovannetti, NJP 16, 013038, 2014).  Both weights are non-negative, so
    d1^2 is a convex combination of s1 and small and nothing cancels.  When
    both vanish, s1 = small and d1 = |t1|; on Werner-type states
    (x = 0, s1 = s2 = s3) that is the exact common value.
    """
    big = max(s3, s2 + x2)
    small = min(s3, s1)
    w1 = big - small
    w2 = s1 - s2
    if w1 + w2 == 0.0:
        return r1
    return math.sqrt((s1 * w1 + small * w2) / (w1 + w2))


def _x_entries_d1(rho11: float, rho22: float, rho33: float, rho14: float, rho23: float) -> float:
    """d1 of an X-shaped state from its diagonal and the moduli rho14, rho23 >= 0.

    The state's X form has x = 2(rho11 + rho22) - 1 and
    t = (2(rho23 + rho14), 2(rho23 - rho14), 1 - 2(rho22 + rho33)), and
    rho14, rho23 >= 0 gives |t1| >= |t2|; d1 is :func:`_x_form_d1` of
    x^2 and s_i = t_i^2.
    """
    x = 2.0 * (rho11 + rho22) - 1.0
    a1 = 2.0 * (rho23 + rho14)
    a2 = 2.0 * (rho23 - rho14)
    a3 = 1.0 - 2.0 * (rho22 + rho33)
    return _x_form_d1(x * x, a1 * a1, a2 * a2, a3 * a3, abs(a1))


def d1_x_state(params: XStateParams) -> tuple[float, str]:
    """Trace-norm discord of an X-shaped state, with the method that produced it.

    d1 is :func:`_x_entries_d1` of the parameters; the method always reads
    "closed_form".
    """
    d1 = _x_entries_d1(params.rho11, params.rho22, params.rho33, params.rho14, params.rho23)
    return d1, "closed_form"


def _dot(x, y) -> float:
    return x[0] * y[0] + x[1] * y[1] + x[2] * y[2]


def _frame_rows(t, h):
    """e, f and the rows (T^T e, T^T f, T^T h) of T along an orthonormal frame (e, f, h) of unit h.

    The frame is Duff et al.'s (JCGT 6(1), 2017), with no division near zero.
    """
    h0, h1, h2 = h
    sign = math.copysign(1.0, h2)
    k = -1.0 / (sign + h2)
    m = h0 * h1 * k
    e = (1.0 + sign * h0 * h0 * k, sign * m, -sign * h0)
    f = (m, sign + h1 * h1 * k, -h1)
    (t00, t01, t02), (t10, t11, t12), (t20, t21, t22) = t
    return e, f, [
        (w0 * t00 + w1 * t10 + w2 * t20, w0 * t01 + w1 * t11 + w2 * t21, w0 * t02 + w1 * t12 + w2 * t22)
        for w0, w1, w2 in (e, f, h)
    ]


def _local_x_d1(rows: list) -> float | None:
    """d1 of R = [a | T] by the X-state closed form, or None if R is not X-shaped up to rotations.

    ``rows`` holds R's rows as Python floats (``ndarray.tolist()``).
    Rotations on A and B bring R to X form, a = (0, 0, x) and T diagonal,
    exactly when a = 0 or a is an eigenvector of T T^T; d1 does not change
    under them.  With |a| <= tol = ``X_PATTERN_TOL``, d1 is the middle
    singular value of T: the closed form at x = 0 picks the middle s_i.
    Otherwise, for a unit axis h and a frame (e, f) normal to it, the rows of
    T along the frame are p = T^T e, q = T^T f and u = T^T h.  The closed form
    is evaluated on a nearby R' that is exactly in X form up to rotations:
    a' = |a| h, and either p and q stripped of their components along u
    (moving T by sqrt((p.u)^2 + (q.u)^2) / |u|) or u set to zero (moving T by
    |u|).  Then x^2 = |a|^2, s3 = |u|^2 (or 0), and s1 >= s2 are the
    eigenvalues of the Gram matrix of p and q, with s2 = |p x q|^2 / s1 so
    that a rank-one T gives s2 = 0 to rounding.  h is a / |a|, and if that
    misses, one shift-invert step from it toward the nearest eigenvector of
    T T^T, which serves states whose tiny a carries rounding in its
    direction.  R' is used only when |R - R'| <= tol |R|.  d1 is 1-Lipschitz
    in R (the trace norm of a 4x4 operator is at most twice its
    Hilbert-Schmidt norm, which here is |R_res| / 2), so the result is within
    tol |R| <= sqrt(3) tol of the exact d1, beside rounding; the a = 0 branch
    is within |a| <= tol.  Any other R returns None.
    """
    a = [row[0] for row in rows]
    t = [row[1:] for row in rows]
    x2 = _dot(a, a)
    if x2 <= X_PATTERN_TOL * X_PATTERN_TOL:
        return float(np.linalg.svd(t, compute_uv=False)[1])
    norm = math.sqrt(x2)
    unit = [v / norm for v in a]
    budget = X_PATTERN_TOL * math.sqrt(x2 + _dot(t[0], t[0]) + _dot(t[1], t[1]) + _dot(t[2], t[2]))
    h, moved = unit, 0.0
    for first in (True, False):
        e, f, (p, q, u) = _frame_rows(t, h)
        s3, pu, qu = _dot(u, u), _dot(p, u), _dot(q, u)
        left = max(budget - moved, 0.0)
        if pu * pu + qu * qu <= left * left * s3:
            if s3 > 0.0:
                p = [x - (pu / s3) * y for x, y in zip(p, u)]
                q = [x - (qu / s3) * y for x, y in zip(q, u)]
            break
        if s3 <= left * left:
            s3 = 0.0
            break
        if not first:
            return None
        # Toward the eigenvector of T T^T nearest h: (s3 I - G) c = (p.u, q.u)
        # in the frame (e, f), G the Gram matrix of p and q.  Moving a costs at
        # most |a| |c|.
        pp, qq, pq = _dot(p, p), _dot(q, q), _dot(p, q)
        det = (s3 - pp) * (s3 - qq) - pq * pq
        if det == 0.0:
            return None
        c0 = ((s3 - qq) * pu + pq * qu) / det
        c1 = (pq * pu + (s3 - pp) * qu) / det
        if norm * math.hypot(c0, c1) > budget:
            return None
        v = [x + c0 * y + c1 * z for x, y, z in zip(h, e, f)]
        length = math.sqrt(_dot(v, v))
        h = [x / length for x in v]
        moved = norm * math.dist(h, unit)
    pp, qq, pq = _dot(p, p), _dot(q, q), _dot(p, q)
    c0, c1, c2 = p[1] * q[2] - p[2] * q[1], p[2] * q[0] - p[0] * q[2], p[0] * q[1] - p[1] * q[0]
    s1 = 0.5 * (pp + qq) + math.hypot(0.5 * (pp - qq), pq)
    s2 = min(s1, (c0 * c0 + c1 * c1 + c2 * c2) / s1) if s1 > 0.0 else 0.0
    return _x_form_d1(x2, s1, s2, s3, math.sqrt(s1))


def _five_axes_d1(r: np.ndarray, rows: list) -> float:
    """d1 of R = [a | T] as the least disturbance over at most five axes.

    ``r`` is R and ``rows`` its rows as Python floats.  The eigenpairs of B
    and S below come from one call on the two stacked through
    :func:`qcorr.states._eigh`, numpy's ``eigh`` gufunc without the Python
    wrapper, whose fixed cost is a large share of a call on two 3x3
    matrices; they are ``np.linalg.eigh``'s bit for bit.  With S = T T^T,
    A = a a^T + S and B = a a^T - S, the disturbance at a unit axis n is
    f(n), with f(n)^2 = (E + hypot(X, Y)) / 2 as :func:`frame_norms`
    evaluates it: E is the trace of A compressed to the plane normal to n,
    and hypot(X, Y) the gap between the two eigenvalues of B compressed to
    that plane.  Equivalently, f(n)^2 is the largest (a.x)^2 + y^T S y over
    orthonormal pairs (x, y) spanning that plane.  The axes are:

    - the two normals of the circular sections of B's quadric (Born & Wolf,
      *Principles of Optics*, section 15.3), n = +-sqrt((b1 - b2)/(b1 - b3)) e1
      + sqrt((b2 - b3)/(b1 - b3)) e3 for B's eigenpairs b1 >= b2 >= b3, e_k.
      The plane normal to n is spanned by e2 and -sqrt((b2 - b3)/(b1 - b3)) e1
      +- sqrt((b1 - b2)/(b1 - b3)) e3.  Skipped when b1 = b3;
    - for each unit eigenvector y_k of S, the part of a normal to y_k,
      normalised.  The plane normal to it is spanned by y_k and a x y_k,
      normalised; skipped where a x y_k vanishes, that is where a is along
      y_k and the state is locally X.

    What is proved.  f^2 is smooth wherever the compressed B has two
    distinct eigenvalues, and non-smooth exactly at the circular normals,
    where it has one double eigenvalue.  At a smooth minimum, by the envelope
    theorem (Danskin, *The Theory of Max-Min*, 1967), the maximizing pair
    (x, y) is a critical point of (a.x)^2 + y^T S y over orthonormal pairs
    (Edelman, Arias & Smith, SIAM J. Matrix Anal. Appl. 20, 303, 1998).  Its
    Lagrange conditions (a.x) a = alpha x + beta y and S y = beta x + gamma y
    leave two cases: a.x = 0, so that alpha = beta = 0, y is an eigenvector
    y_k of S and x is along a x y_k, which gives the three y_k axes above; or
    a in the span of x and y, that is n on the great circle normal to a.  So
    every minimum of f lies at a circular normal, at a y_k axis or on that
    great circle.

    What is only checked.  That no minimum lies only on the great circle
    normal to a.  Several thousand random states and arbitrary R, compared
    with a fine ``d1_oracle`` and with dense scans of the circle, showed
    none; the ``oracle.report_d1_not_above_oracle`` and
    ``oracle.report_d1_matches_oracle`` checks of ``qcorr verify`` hold the
    route to the oracle on random mixtures and on near-X states.  Every
    value taken is f at some axis, an upper bound on d1, so the route can
    only miss d1 from above.
    """
    a, t = r[:, 0], r[:, 1:]
    s = t @ t.T
    w, e = _eigh(np.stack([np.outer(a, a) - s, s]))
    (b3, b2, b1), _ = w.tolist()
    (e3, e2, e1), ys = e.transpose(0, 2, 1).tolist()
    values = []
    if b1 > b3:
        on_e1 = math.sqrt((b1 - b2) / (b1 - b3))
        on_e3 = math.sqrt((b2 - b3) / (b1 - b3))
        for sign in (1.0, -1.0):
            # The normal sign on_e1 e1 + on_e3 e3; the plane normal to it holds e2 and v.
            v = [sign * on_e1 * z - on_e3 * x for x, z in zip(e1, e3)]
            values.append(frame_norms(rows, e2, v))
    a0, a1, a2 = (row[0] for row in rows)
    for y in ys:
        y0, y1, y2 = y
        cross = (a1 * y2 - a2 * y1, a2 * y0 - a0 * y2, a0 * y1 - a1 * y0)
        length = math.sqrt(_dot(cross, cross))
        if length > 0.0:
            values.append(frame_norms(rows, y, [c / length for c in cross]))
    return min(values)


def full_report(rho: DensityMatrix) -> MeasureReport:
    """Compute all four measures for one state.

    d1 takes the X-state closed form whenever the matrix has the X sparsity
    pattern (off-pattern entries below ``X_PATTERN_TOL`` = 1e-12).  Otherwise
    it takes the same closed form when local rotations make the state
    X-shaped, that is when a = 0 or a is an eigenvector of T T^T, up to a
    move of R by at most ``X_PATTERN_TOL`` |R|, which bounds the error of d1
    by sqrt(3) * 1e-12 (:func:`_local_x_d1`).  Every other state takes the
    least disturbance over the five axes of :func:`_five_axes_d1`.  None of
    them searches, and ``d1_method`` reads "closed_form" on every state.
    ``d1_oracle(rho, SearchConfig(...))`` is the independent search that
    checks them.
    """
    # One matrix of Pauli coefficients gives Q, a, b and R = C[1:].
    c = _pauli_coefficients(rho)
    t = _singular_values(_covariance(c))
    b_row, *r_rows = c.tolist()
    rows = rho.mat.tolist()
    if is_x_shaped(rows, X_PATTERN_TOL):
        # The entries XStateParams.from_density_matrix reads, without validating rho again.
        rho11, rho22, rho33, _, rho14, rho23 = _x_entries(rows)
        d1 = _x_entries_d1(rho11, rho22, rho33, rho14, rho23)
    else:
        d1 = _local_x_d1(r_rows)
        if d1 is None:
            d1 = _five_axes_d1(c[1:], r_rows)
    return MeasureReport(
        mmc=t[0],
        correlation_distance=_distance_from_singular_values(t),
        negativity=negativity(rho),
        d1=float(d1),
        d1_method="closed_form",
        singular_values=tuple(t),
        bloch_a=tuple(row[0] for row in r_rows),
        bloch_b=tuple(b_row[1:]),
    )

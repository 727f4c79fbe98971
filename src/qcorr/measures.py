"""The four correlation measures for two-qubit states.

mmc                  largest singular value t1 of the covariance matrix Q
correlation_distance (|t1+t2+t3| + |t1+t2-t3| + |t1-t2+t3| + |-t1+t2+t3|) / 4
negativity           trace norm of the partial transpose minus 1
d1                   minimal trace-norm disturbance under one-sided projective
                     measurement; one closed form on every X-shaped state,
                     otherwise a grid-search minimization that also tries the
                     eigen-axes of M = R R^T
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, StateError
from .oracles import bloch_matrix, d1_oracle, frame_norms
from .states import (
    DensityMatrix,
    XStateParams,
    _pauli_coefficients,
    bloch_vectors,
    is_x_shaped,
    partial_transpose,
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


def covariance_matrix(rho: DensityMatrix) -> np.ndarray:
    """Q_ij = tr(rho sigma_i (x) sigma_j) - a_i b_j with marginal Bloch vectors a, b."""
    c = _pauli_coefficients(rho)
    return c[1:, 1:] - np.outer(c[1:, 0], c[0, 1:])


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


def mmc(rho: DensityMatrix) -> float:
    """Maximal mutual correlation: the largest singular value of Q."""
    return float(singular_values_3(covariance_matrix(rho))[0])


def _distance_from_singular_values(t) -> float:
    t1, t2, t3 = (float(v) for v in t)
    return 0.25 * (
        abs(t1 + t2 + t3) + abs(t1 + t2 - t3) + abs(t1 - t2 + t3) + abs(-t1 + t2 + t3)
    )


def correlation_distance(rho: DensityMatrix) -> float:
    """Trace-norm distance between rho and the product of its marginals.

    Evaluates to t1 when t1 >= t2 + t3 and to (t1 + t2 + t3) / 2 otherwise.
    """
    return _distance_from_singular_values(singular_values_3(covariance_matrix(rho)))


def negativity(rho: DensityMatrix) -> float:
    """Normalized negativity ||rho^PT||_1 - 1, clamped at zero.

    The clamp only absorbs eigenvalue noise on separability-boundary states;
    the exact value is never below zero.  ``rho`` was checked Hermitian on
    construction, and partial transposition only permutes entries, so the
    spectrum comes straight from ``eigvalsh``.
    """
    value = float(np.abs(np.linalg.eigvalsh(partial_transpose(rho))).sum()) - 1.0
    return value if value > 0.0 else 0.0


def d1_x_state(params: XStateParams) -> tuple[float, str]:
    """Trace-norm discord of an X-shaped state, with the method that produced it.

    In terms of x = 2(rho11 + rho22) - 1 and
    alpha = (2(rho23 + rho14), 2(rho23 - rho14), 1 - 2(rho22 + rho33)), with
    s_i = alpha_i^2, big = max(s3, s2 + x^2) and small = min(s3, s1),
    d1^2 = (s1 w1 + small w2) / (w1 + w2) for the weights w1 = big - small and
    w2 = s1 - s2 (Ciccarello, Tufarelli & Giovannetti, NJP 16, 013038, 2014).
    Both weights are non-negative (rho14, rho23 >= 0 gives |alpha1| >= |alpha2|),
    so d1^2 is a convex combination of s1 and small and nothing cancels.  When
    both weights vanish, s1 = small and d1 = |alpha1|; on Werner-type states
    (x = 0, |alpha1| = |alpha2| = |alpha3|) that is the exact common value.
    The method always reads "closed_form".
    """
    x = 2.0 * (params.rho11 + params.rho22) - 1.0
    a1 = 2.0 * (params.rho23 + params.rho14)
    a2 = 2.0 * (params.rho23 - params.rho14)
    a3 = 1.0 - 2.0 * (params.rho22 + params.rho33)
    s1, s2, s3 = a1 * a1, a2 * a2, a3 * a3
    big = max(s3, s2 + x * x)
    small = min(s3, s1)
    w1 = big - small
    w2 = s1 - s2
    if w1 + w2 == 0.0:
        return abs(a1), "closed_form"
    return math.sqrt((s1 * w1 + small * w2) / (w1 + w2)), "closed_form"


def _d1_eigen_axes(rho: DensityMatrix) -> float:
    """Smallest disturbance over the three eigen-axes of M = R R^T, R = [a | T].

    Each eigenvector's frame is the other two.  Zero discord means rank R <= 1
    (Dakic, Vedral & Brukner, PRL 105, 190502, 2010), and then the top
    eigen-axis gives 0 to rounding, which a grid search can miss.
    """
    r = bloch_matrix(rho)
    _, e = np.linalg.eigh(r @ r.T)
    rows, (e0, e1, e2) = r.tolist(), e.T.tolist()
    return min(frame_norms(rows, e1, e2), frame_norms(rows, e0, e2), frame_norms(rows, e0, e1))


def full_report(rho: DensityMatrix) -> MeasureReport:
    """Compute all four measures for one state.

    d1 takes the closed-form route whenever the matrix has the X sparsity
    pattern (off-pattern entries below 1e-12); anything borderline goes to the
    default ``d1_oracle`` search, which also tries the eigen-axes of M.  A
    finer search of one state is ``d1_oracle(rho, SearchConfig(...))``.
    """
    t = singular_values_3(covariance_matrix(rho))
    a, b = bloch_vectors(rho)
    if is_x_shaped(rho.mat, X_PATTERN_TOL):
        d1, method = d1_x_state(XStateParams.from_density_matrix(rho))
    else:
        d1, method = min(d1_oracle(rho), _d1_eigen_axes(rho)), "oracle"
    return MeasureReport(
        mmc=float(t[0]),
        correlation_distance=_distance_from_singular_values(t),
        negativity=negativity(rho),
        d1=float(d1),
        d1_method=method,
        singular_values=(float(t[0]), float(t[1]), float(t[2])),
        bloch_a=tuple(float(v) for v in a),
        bloch_b=tuple(float(v) for v in b),
    )

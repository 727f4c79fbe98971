"""Seeded input streams for the benchmark workloads, with a reference for every case.

Each case is the JSON text of a state record, exactly what a user hands to
``qcorr measures --inline``, plus the intervals its report must fall in.  The
generators here are the benchmark's own: a change to the package cannot change
the inputs.  References come from the definitions (numpy, written here) or from
the families' known values; the one exception is the ``d1`` of a rotated X
state, whose reference is the package's X-state closed form on the unrotated
state, which the search path must reproduce.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import count

import numpy as np
from qcorr import XStateParams, d1_x_state

CLOSED_TOL = 1e-10
SEARCH_TOL = 2e-3
# cq/cc states have zero discord.  The default search (40 refine steps) leaves
# d1 above this on about 1 generic cq state in 500 (up to 4e-3 seen); those
# failures are the package's and are counted as such.
ZERO_DISCORD_TOL = 1e-6
GRID_SLACK = 1e-12  # rounding between two evaluations of one disturbance value

# report_closed cycles through these families; report_search through these kinds,
# so every batch of one cycle has the same mix on every seed.
CLOSED_FAMILIES = ("x", "bell_diagonal", "rho_theta", "rho_d", "pure")
SEARCH_KINDS = ("mixture", "rotated_x", "cq", "werner", "mixture", "rotated_x", "cc", "werner")

_PAULI = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=complex)
_I2 = np.eye(2, dtype=complex)
_A_OPS = np.array([np.kron(s, _I2) for s in _PAULI])
_B_OPS = np.array([np.kron(_I2, s) for s in _PAULI])
_AB_OPS = np.array([[np.kron(si, sj) for sj in _PAULI] for si in _PAULI])
_BELL_VERTICES = np.array([[1, -1, 1], [-1, 1, 1], [1, 1, -1], [-1, -1, -1]], dtype=float)
# Werner-type sign patterns: product -1, so every magnitude in [0, 1] is a valid state.
_WERNER_SIGNS = np.array([[-1, -1, -1], [-1, 1, 1], [1, -1, 1], [1, 1, -1]], dtype=float)


def angle_grid(n_theta: int, n_phi: int) -> tuple[np.ndarray, np.ndarray]:
    """Flattened (theta, phi) nodes laid out as the package's d1 search grid."""
    return tuple(
        g.ravel()
        for g in np.meshgrid(
            np.linspace(0.0, math.pi / 4.0, n_theta),
            np.linspace(0.0, 2.0 * math.pi, n_phi, endpoint=False),
            indexing="ij",
        )
    )


# Every 9th polar and 8th azimuthal node of the default 64x128 search grid.
SUB_GRID = angle_grid(8, 16)


@dataclass(frozen=True)
class Case:
    """One state record and the checks its report must pass.

    ``bounds`` holds (report key, low, high); ``method`` is the required
    ``d1_method`` or None.
    """

    kind: str
    text: str
    bounds: tuple[tuple[str, float, float], ...]
    method: str | None = None

    def passes(self, report: dict | None) -> bool:
        if report is None:
            return False
        if self.method is not None and report.get("d1_method") != self.method:
            return False
        # Written so that NaN fails every comparison.
        return all(lo <= report.get(key, math.nan) <= hi for key, lo, hi in self.bounds)


def _near(key: str, value: float, tol: float) -> tuple[str, float, float]:
    return key, value - tol, value + tol


def _record(family: str, **params) -> str:
    return json.dumps({"family": family, "params": params})


def _raw(mat: np.ndarray) -> str:
    mat = 0.5 * (mat + mat.conj().T)
    return _record("raw", re=mat.real.tolist(), im=mat.imag.tolist())


def reference_measures(mat: np.ndarray) -> tuple[float, float, float]:
    """(mmc, correlation distance, negativity) straight from the definitions."""
    a = np.einsum("kij,ji->k", _A_OPS, mat).real
    b = np.einsum("kij,ji->k", _B_OPS, mat).real
    corr = np.einsum("klij,ji->kl", _AB_OPS, mat).real
    t = np.linalg.svd(corr - np.outer(a, b), compute_uv=False)
    distance = 0.25 * (
        abs(t[0] + t[1] + t[2]) + abs(t[0] + t[1] - t[2])
        + abs(t[0] - t[1] + t[2]) + abs(-t[0] + t[1] + t[2])
    )
    pt = mat.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
    neg = float(np.abs(np.linalg.eigvalsh(pt)).sum()) - 1.0
    return float(t[0]), float(distance), max(neg, 0.0)


def subgrid_disturbance_min(mat: np.ndarray) -> float:
    """Smallest ||rho - Pi(rho)||_1 over the 8x16 sub-grid of measurement axes on A."""
    theta, phi = SUB_GRID
    v = np.stack([np.cos(theta), np.exp(1j * phi) * np.sin(theta)], axis=-1)
    p1 = v[:, :, None] * v[:, None, :].conj()
    r = mat.reshape(2, 2, 2, 2)
    dephased = sum(
        np.einsum("gxy,ybzc,gzw->gxbwc", p, r, p) for p in (p1, _I2 - p1)
    ).reshape(-1, 4, 4)
    return float(np.abs(np.linalg.eigvalsh(mat - dephased)).sum(axis=-1).min())


def _x_params(rng: np.random.Generator) -> dict:
    d = rng.dirichlet(np.ones(4))
    return {
        "rho11": float(d[0]), "rho22": float(d[1]), "rho33": float(d[2]), "rho44": float(d[3]),
        "rho14": float(rng.random() * math.sqrt(d[0] * d[3])),
        "rho23": float(rng.random() * math.sqrt(d[1] * d[2])),
    }


def _x_matrix(p: dict) -> np.ndarray:
    m = np.diag([p["rho11"], p["rho22"], p["rho33"], p["rho44"]]).astype(complex)
    m[0, 3] = m[3, 0] = p["rho14"]
    m[1, 2] = m[2, 1] = p["rho23"]
    return m


def _haar_2x2(rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _ball(rng: np.random.Generator) -> list[float]:
    v = rng.standard_normal(3)
    return (v / np.linalg.norm(v) * rng.random() ** (1.0 / 3.0)).tolist()


def _closed_case(family: str, rng: np.random.Generator) -> Case:
    if family == "x":
        p = _x_params(rng)
        m, cd, neg = reference_measures(_x_matrix(p))
        known = {"mmc": m, "correlation_distance": cd, "negativity": neg}
        text = _record("x", **p)
    elif family == "bell_diagonal":
        c = rng.dirichlet(np.ones(4)) @ _BELL_VERTICES
        mags = np.sort(np.abs(c))
        lam_max = max(  # weight of the dominant Bell state
            0.25 * (1.0 - c[0] - c[1] - c[2]), 0.25 * (1.0 - c[0] + c[1] + c[2]),
            0.25 * (1.0 + c[0] - c[1] + c[2]), 0.25 * (1.0 + c[0] + c[1] - c[2]),
        )
        known = {"d1": float(mags[1]), "mmc": float(mags[2]), "negativity": max(2.0 * lam_max - 1.0, 0.0)}
        text = _record("bell_diagonal", c=c.tolist())
    elif family == "rho_theta":
        theta = 0.01 + rng.random() * (math.pi / 2.0 - 0.02)
        s2 = math.sin(2.0 * theta)
        known = {
            "negativity": (math.sqrt(6.0 - 2.0 * math.cos(4.0 * theta)) - 2.0) / 4.0,
            "d1": 0.5 * s2, "mmc": 0.5 * s2, "correlation_distance": 0.5 * s2 + 0.125 * s2 * s2,
        }
        text = _record("rho_theta", theta=theta)
    elif family == "rho_d":
        w = 0.02 + 0.46 * rng.random()
        s = (0.05 + 0.95 * rng.random()) * math.sqrt(w / 2.0 - w * w)
        known = {
            "mmc": 4.0 * s, "correlation_distance": 4.0 * s, "negativity": 0.0,
            "d1": 4.0 * s * abs(1.0 - 4.0 * w) / math.sqrt(16.0 * s * s + (1.0 - 4.0 * w) ** 2),
        }
        text = _record("rho_d", w=w, s=s)
    else:  # pure
        n = 0.01 + 0.98 * rng.random()
        known = {"negativity": n, "d1": n, "mmc": n, "correlation_distance": n + 0.5 * n * n}
        text = _record("pure", n=n)
    bounds = tuple(_near(k, v, CLOSED_TOL) for k, v in known.items())
    return Case(family, text, bounds, method="closed_form")


def _mixture(rng: np.random.Generator) -> np.ndarray:
    weights = rng.dirichlet(np.ones(int(rng.integers(1, 7))))
    mat = np.zeros((4, 4), dtype=complex)
    for w in weights:
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        v /= np.linalg.norm(v)
        mat += w * np.outer(v, v.conj())
    return mat


def _search_case(kind: str, rng: np.random.Generator) -> Case:
    if kind == "mixture":
        mat = _mixture(rng)
        return Case(kind, _raw(mat), (("d1", 0.0, subgrid_disturbance_min(mat) + GRID_SLACK),))
    if kind == "rotated_x":
        p = _x_params(rng)
        x = _x_matrix(p)
        u = np.kron(_haar_2x2(rng), _haar_2x2(rng))
        m, cd, neg = reference_measures(x)
        d1, _ = d1_x_state(XStateParams(**p))
        bounds = (
            _near("mmc", m, CLOSED_TOL), _near("correlation_distance", cd, CLOSED_TOL),
            _near("negativity", neg, CLOSED_TOL), _near("d1", d1, SEARCH_TOL),
        )
        return Case(kind, _raw(u @ x @ u.conj().T), bounds)
    if kind == "cq":
        text = _record(
            "cq", p1=0.05 + 0.9 * rng.random(), theta=rng.random() * math.pi / 2.0,
            phi=rng.random() * 2.0 * math.pi, a1=_ball(rng), a2=_ball(rng),
        )
        return Case(kind, text, (("d1", 0.0, ZERO_DISCORD_TOL),))
    if kind == "cc":
        angles = rng.random(4) * (math.pi / 2.0, 2.0 * math.pi, math.pi / 2.0, 2.0 * math.pi)
        text = _record(
            "cc", p=rng.dirichlet(np.ones(4)).reshape(2, 2).tolist(),
            theta_a=angles[0], phi_a=angles[1], theta_b=angles[2], phi_b=angles[3],
        )
        return Case(kind, text, (("d1", 0.0, ZERO_DISCORD_TOL),))
    # werner: |c1| = |c2| = |c3|, the degenerate branch of the X-state closed form
    mag = 0.05 + 0.9 * rng.random()
    c = mag * _WERNER_SIGNS[int(rng.integers(4))]
    return Case(kind, _record("bell_diagonal", c=c.tolist()), (_near("d1", mag, SEARCH_TOL),))


def cases(workload: str, seed: int):
    """Endless, seed-determined stream of cases for ``workload``."""
    tag = {"report_closed": 1, "report_search": 2}[workload]
    rng = np.random.default_rng([seed, tag])
    for i in count():
        if workload == "report_closed":
            yield _closed_case(CLOSED_FAMILIES[i % len(CLOSED_FAMILIES)], rng)
        else:
            yield _search_case(SEARCH_KINDS[i % len(SEARCH_KINDS)], rng)


def cycle_length(workload: str) -> int:
    """Cases in one full cycle of the workload's mix."""
    return {"report_closed": len(CLOSED_FAMILIES), "report_search": len(SEARCH_KINDS)}[workload]

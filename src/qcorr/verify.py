"""Built-in verification suite: closed forms against oracles on every state family.

Each check group returns :class:`VerifyResult` rows; inequality checks encode
the violation magnitude (expected 0), ensemble checks the worst deviation over
the sample.  All randomness is seeded, so a run is reproducible end to end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .measures import (
    correlation_distance,
    d1_x_state,
    full_report,
    mmc,
    negativity,
)
from .oracles import (
    DEFAULT_SEARCH,
    SearchConfig,
    _is_int,
    classical_cov,
    d1_oracle,
    mmc_oracle,
)
from .states import (
    DensityMatrix,
    ProbTable2x2,
    XStateParams,
    bell_diagonal,
    cc_state,
    cq_state,
    pure_state,
    rho_d,
    rho_d_smax,
    rho_theta,
    x_state,
)

CLOSED_TOL = 1e-10
ORACLE_TOL = 2e-3

# Cheaper but still admissible search used for the large sampled ensembles.
_BULK_DEFAULT = SearchConfig(coarse_grid=(32, 64), refine_iters=60)


@dataclass(frozen=True)
class VerifyResult:
    """Outcome of one check: passed iff |expected - actual| <= tolerance."""

    check_id: str
    expected: float
    actual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return abs(self.expected - self.actual) <= self.tolerance


def format_line(result: VerifyResult) -> str:
    status = "PASS" if result.passed else "FAIL"
    return (
        f"{status} {result.check_id} expected={result.expected:.12g} "
        f"actual={result.actual:.12g} tol={result.tolerance:g}"
    )


def _configs(overrides: dict | None) -> tuple[SearchConfig, SearchConfig, int]:
    """(single-state config, bulk-ensemble config, ensemble seed).

    ``overrides`` maps SearchConfig fields to values, and ``seed`` to the
    ensemble seed (default 0), a non-negative integer; each one replaces only
    its own setting, a field in both configs.
    """
    overrides = dict(overrides or {})
    seed = overrides.pop("seed", 0)
    if not (_is_int(seed) and seed >= 0):
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    return replace(DEFAULT_SEARCH, **overrides), replace(_BULK_DEFAULT, **overrides), int(seed)


def random_density_matrix(rng: np.random.Generator, components: int | None = None) -> DensityMatrix:
    """Random mixture of random pure states (1 to 6 components unless fixed)."""
    k = int(components) if components is not None else int(rng.integers(1, 7))
    weights = rng.dirichlet(np.ones(k))
    mat = np.zeros((4, 4), dtype=complex)
    for w in weights:
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        v /= np.linalg.norm(v)
        mat += w * np.outer(v, v.conj())
    mat = 0.5 * (mat + mat.conj().T)
    return DensityMatrix(mat)


def random_bloch_vector(rng: np.random.Generator) -> np.ndarray:
    """Uniform random vector in the closed unit ball."""
    v = rng.standard_normal(3)
    norm = np.linalg.norm(v)
    if norm < 1e-12:
        return np.zeros(3)
    return v / norm * rng.random() ** (1.0 / 3.0)


def random_local_unitary(rng: np.random.Generator) -> np.ndarray:
    """Haar-random 2x2 unitary: QR of a complex Gaussian matrix, R's diagonal phases divided out."""
    q, r = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def locally_rotated(rho: DensityMatrix, rng: np.random.Generator) -> DensityMatrix:
    """U rho U^dagger for a Haar-random U = U_A (x) U_B, made exactly Hermitian."""
    u = np.kron(random_local_unitary(rng), random_local_unitary(rng))
    mat = u @ rho.mat @ u.conj().T
    return DensityMatrix(0.5 * (mat + mat.conj().T))


def random_x_params(rng: np.random.Generator) -> XStateParams:
    """Random valid X-state parameters (diagonal Dirichlet, blocks scaled inside PSD)."""
    d = rng.dirichlet(np.ones(4))
    return XStateParams(
        rho11=float(d[0]),
        rho22=float(d[1]),
        rho33=float(d[2]),
        rho44=float(d[3]),
        rho14=float(rng.random() * math.sqrt(d[0] * d[3])),
        rho23=float(rng.random() * math.sqrt(d[1] * d[2])),
    )


_BELL_SIGNS = np.array(
    [[1, -1, 1], [-1, 1, 1], [1, 1, -1], [-1, -1, -1]], dtype=float
)


def near_werner_params(x: float) -> XStateParams:
    """X state with |alpha1| = |alpha2| = |alpha3| = 1/3 and the given x; d1 = 1/3."""
    return XStateParams(
        rho11=1.0 / 3.0 + 0.5 * x,
        rho22=1.0 / 6.0,
        rho33=1.0 / 6.0,
        rho44=1.0 / 3.0 - 0.5 * x,
        rho14=1.0 / 6.0,
        rho23=0.0,
    )


def random_bell_coefficients(rng: np.random.Generator) -> np.ndarray:
    """Random point of the Bell-diagonal tetrahedron via random vertex weights."""
    return rng.dirichlet(np.ones(4)) @ _BELL_SIGNS


def check_pure(overrides: dict | None = None) -> list[VerifyResult]:
    spot_cfg, _, _ = _configs(overrides)
    dev_n = dev_d1 = dev_m = dev_c = dev_oracle = 0.0
    for n in (0.1, 0.25, 0.6, 0.9, 1.0):
        rho = pure_state(n)
        rep = full_report(rho)
        dev_n = max(dev_n, abs(rep.negativity - n))
        dev_d1 = max(dev_d1, abs(rep.d1 - n))
        dev_m = max(dev_m, abs(rep.mmc - n))
        dev_c = max(dev_c, abs(rep.correlation_distance - (n + 0.5 * n * n)))
        dev_oracle = max(dev_oracle, abs(d1_oracle(rho, spot_cfg) - n))
    return [
        VerifyResult("pure.negativity_equals_n", 0.0, dev_n, CLOSED_TOL),
        VerifyResult("pure.d1_equals_n", 0.0, dev_d1, CLOSED_TOL),
        VerifyResult("pure.mmc_equals_n", 0.0, dev_m, CLOSED_TOL),
        VerifyResult("pure.correlation_distance_formula", 0.0, dev_c, CLOSED_TOL),
        VerifyResult("pure.d1_oracle_equals_n", 0.0, dev_oracle, ORACLE_TOL),
    ]


def check_classical_quantum(overrides: dict | None = None) -> list[VerifyResult]:
    _, bulk_cfg, seed = _configs(overrides)
    rng = np.random.default_rng(seed + 101)
    dev_formula = dev_cd = max_neg = max_d1 = 0.0
    count_at_one = 0
    for _ in range(200):
        p1 = rng.random()
        theta = rng.random() * math.pi / 2.0
        phi = rng.random() * 2.0 * math.pi
        a1 = random_bloch_vector(rng)
        a2 = random_bloch_vector(rng)
        rho = cq_state(p1, theta, phi, a1, a2)
        m = mmc(rho)
        expected_m = 2.0 * p1 * (1.0 - p1) * float(np.linalg.norm(a1 - a2))
        dev_formula = max(dev_formula, abs(m - expected_m))
        dev_cd = max(dev_cd, abs(correlation_distance(rho) - m))
        max_neg = max(max_neg, negativity(rho))
        max_d1 = max(max_d1, d1_oracle(rho, bulk_cfg, stop_below=1e-7))
        if m >= 1.0 - 1e-12:
            count_at_one += 1
    limit = cq_state(0.5, 0.3, 1.1, (0.0, 0.0, 1.0), (0.0, 0.0, -1.0))
    return [
        VerifyResult("cq.mmc_closed_form", 0.0, dev_formula, CLOSED_TOL),
        VerifyResult("cq.correlation_distance_equals_mmc", 0.0, dev_cd, CLOSED_TOL),
        VerifyResult("cq.negativity_zero", 0.0, max_neg, CLOSED_TOL),
        VerifyResult("cq.d1_oracle_zero", 0.0, max_d1, 1e-6),
        VerifyResult("cq.mmc_strictly_below_one", 0.0, float(count_at_one), 0.0),
        VerifyResult("cq.orthogonal_limit_mmc", 1.0, mmc(limit), CLOSED_TOL),
    ]


def check_classical_classical(overrides: dict | None = None) -> list[VerifyResult]:
    _, bulk_cfg, seed = _configs(overrides)
    rng = np.random.default_rng(seed + 202)
    dev_cov = dev_cd = max_neg = max_d1 = 0.0
    for _ in range(200):
        table = ProbTable2x2.from_array(rng.dirichlet(np.ones(4)).reshape(2, 2))
        angles = rng.random(4) * (math.pi / 2.0, 2.0 * math.pi, math.pi / 2.0, 2.0 * math.pi)
        rho = cc_state(table, angles[0], angles[1], angles[2], angles[3])
        m = mmc(rho)
        dev_cov = max(dev_cov, abs(m - abs(classical_cov(table))))
        dev_cd = max(dev_cd, abs(correlation_distance(rho) - m))
        max_neg = max(max_neg, negativity(rho))
        max_d1 = max(max_d1, d1_oracle(rho, bulk_cfg, stop_below=1e-7))
    spot_table = ProbTable2x2(0.4, 0.1, 0.2, 0.3)
    spot = cc_state(spot_table, 0.3, 1.1, 0.7, 2.0)
    return [
        VerifyResult("cc.mmc_equals_covariance", 0.0, dev_cov, CLOSED_TOL),
        VerifyResult("cc.correlation_distance_equals_mmc", 0.0, dev_cd, CLOSED_TOL),
        VerifyResult("cc.negativity_zero", 0.0, max_neg, CLOSED_TOL),
        VerifyResult("cc.d1_oracle_zero", 0.0, max_d1, 1e-6),
        VerifyResult("cc.spot_table_mmc", 0.4, mmc(spot), CLOSED_TOL),
    ]


def check_discordant_separable(overrides: dict | None = None) -> list[VerifyResult]:
    dev_m = dev_c = dev_d1 = max_neg = 0.0
    strict_failures = 0
    for w in np.linspace(0.05, 0.45, 9):
        smax = rho_d_smax(w)
        for frac in (0.25, 0.5, 0.75, 1.0):
            s = frac * smax
            rep = full_report(rho_d(w, s))
            expected_d1 = 4.0 * s * abs(1.0 - 4.0 * w) / math.sqrt(
                16.0 * s * s + (1.0 - 4.0 * w) ** 2
            )
            dev_m = max(dev_m, abs(rep.mmc - 4.0 * s))
            dev_c = max(dev_c, abs(rep.correlation_distance - 4.0 * s))
            dev_d1 = max(dev_d1, abs(rep.d1 - expected_d1))
            max_neg = max(max_neg, rep.negativity)
            if not rep.d1 < rep.mmc:
                strict_failures += 1
    spot = full_report(rho_d(0.1, 0.2))
    return [
        VerifyResult("rho_d.mmc_equals_4s", 0.0, dev_m, CLOSED_TOL),
        VerifyResult("rho_d.correlation_distance_equals_4s", 0.0, dev_c, CLOSED_TOL),
        VerifyResult("rho_d.d1_closed_form", 0.0, dev_d1, CLOSED_TOL),
        VerifyResult("rho_d.negativity_zero", 0.0, max_neg, CLOSED_TOL),
        VerifyResult("rho_d.d1_strictly_below_mmc", 0.0, float(strict_failures), 0.0),
        VerifyResult("rho_d.spot_d1", 0.48, spot.d1, CLOSED_TOL),
        VerifyResult("rho_d.spot_mmc", 0.8, spot.mmc, CLOSED_TOL),
    ]


def check_entangled_family(overrides: dict | None = None) -> list[VerifyResult]:
    dev_n = dev_d1 = dev_m = dev_c = 0.0
    chain_failures = 0
    for k in range(1, 51):
        theta = (math.pi / 2.0) * k / 51.0
        rep = full_report(rho_theta(theta))
        s2 = math.sin(2.0 * theta)
        expected_n = (math.sqrt(6.0 - 2.0 * math.cos(4.0 * theta)) - 2.0) / 4.0
        dev_n = max(dev_n, abs(rep.negativity - expected_n))
        dev_d1 = max(dev_d1, abs(rep.d1 - 0.5 * s2))
        dev_m = max(dev_m, abs(rep.mmc - 0.5 * s2))
        dev_c = max(dev_c, abs(rep.correlation_distance - (0.5 * s2 + 0.125 * s2 * s2)))
        chain_ok = (
            rep.negativity < rep.d1
            and abs(rep.d1 - rep.mmc) <= CLOSED_TOL
            and rep.mmc < rep.correlation_distance
        )
        if not chain_ok:
            chain_failures += 1
    spot = full_report(rho_theta(math.pi / 4.0))
    return [
        VerifyResult("rho_theta.negativity_formula", 0.0, dev_n, CLOSED_TOL),
        VerifyResult("rho_theta.d1_equals_half_sin2theta", 0.0, dev_d1, CLOSED_TOL),
        VerifyResult("rho_theta.mmc_equals_half_sin2theta", 0.0, dev_m, CLOSED_TOL),
        VerifyResult("rho_theta.correlation_distance_formula", 0.0, dev_c, CLOSED_TOL),
        VerifyResult("rho_theta.strict_chain", 0.0, float(chain_failures), 0.0),
        VerifyResult(
            "rho_theta.spot_negativity", (math.sqrt(8.0) - 2.0) / 4.0, spot.negativity, CLOSED_TOL
        ),
        VerifyResult("rho_theta.spot_d1", 0.5, spot.d1, CLOSED_TOL),
        VerifyResult("rho_theta.spot_mmc", 0.5, spot.mmc, CLOSED_TOL),
        VerifyResult("rho_theta.spot_correlation_distance", 0.625, spot.correlation_distance, CLOSED_TOL),
    ]


def check_bell_diagonal(overrides: dict | None = None) -> list[VerifyResult]:
    _, bulk_cfg, seed = _configs(overrides)
    rng = np.random.default_rng(seed + 303)
    dev_closed = dev_oracle = dev_m = 0.0
    chain_failures = 0
    for _ in range(500):
        c = random_bell_coefficients(rng)
        rho = bell_diagonal(*c)
        sorted_abs = np.sort(np.abs(c))
        c0, cplus = float(sorted_abs[1]), float(sorted_abs[2])
        rep = full_report(rho)
        dev_closed = max(dev_closed, abs(rep.d1 - c0))
        dev_m = max(dev_m, abs(rep.mmc - cplus))
        oracle_val = d1_oracle(rho, bulk_cfg, stop_below=c0 + 5e-4)
        dev_oracle = max(dev_oracle, abs(oracle_val - c0))
        chain_ok = (
            rep.negativity <= rep.d1 + CLOSED_TOL
            and rep.d1 <= rep.mmc + CLOSED_TOL
            and rep.mmc <= rep.correlation_distance + CLOSED_TOL
        )
        if not chain_ok:
            chain_failures += 1
    spot = full_report(bell_diagonal(0.5, -0.3, 0.2))
    return [
        VerifyResult("bell_diagonal.d1_closed_form_equals_c0", 0.0, dev_closed, CLOSED_TOL),
        VerifyResult("bell_diagonal.d1_oracle_equals_c0", 0.0, dev_oracle, ORACLE_TOL),
        VerifyResult("bell_diagonal.mmc_equals_cplus", 0.0, dev_m, CLOSED_TOL),
        VerifyResult("bell_diagonal.measure_chain", 0.0, float(chain_failures), 0.0),
        VerifyResult("bell_diagonal.spot_d1", 0.3, spot.d1, CLOSED_TOL),
        VerifyResult("bell_diagonal.spot_mmc", 0.5, spot.mmc, CLOSED_TOL),
        VerifyResult("bell_diagonal.spot_negativity", 0.0, spot.negativity, CLOSED_TOL),
    ]


def check_global_bound(overrides: dict | None = None) -> list[VerifyResult]:
    _, _, seed = _configs(overrides)
    rng = np.random.default_rng(seed + 404)
    worst = 0.0
    for _ in range(10_000):
        rho = random_density_matrix(rng)
        worst = max(worst, mmc(rho) - correlation_distance(rho))
    return [
        VerifyResult(
            "global.mmc_below_correlation_distance", 0.0, max(0.0, worst), CLOSED_TOL
        )
    ]


def check_oracle_consistency(overrides: dict | None = None) -> list[VerifyResult]:
    spot_cfg, bulk_cfg, seed = _configs(overrides)
    rng = np.random.default_rng(seed + 505)
    dev_mmc = dev_d1 = 0.0
    for _ in range(500):
        params = random_x_params(rng)
        rho = x_state(params)
        dev_mmc = max(dev_mmc, abs(mmc_oracle(rho) - mmc(rho)))
        closed, _ = d1_x_state(params)
        dev_d1 = max(dev_d1, abs(closed - d1_oracle(rho, bulk_cfg)))
    value = d1_oracle(bell_diagonal(0.4, -0.4, 0.4), spot_cfg)
    # Werner-type states (x = 0, |alpha1| = |alpha2| = |alpha3| = c) and the
    # near-Werner family (x small, |alpha_i| = 1/3), where a plain quotient
    # form of the closed form cancels: d1 = c exactly.
    dev_exact = 0.0
    for c in np.linspace(0.05, 1.0, 20):
        for signs in _BELL_SIGNS:
            werner = XStateParams.from_density_matrix(bell_diagonal(*(c * signs)))
            dev_exact = max(dev_exact, abs(d1_x_state(werner)[0] - c))
    for x in (1e-5, 1e-6, 1e-7, 3e-8, 1e-9, 0.0):
        near = near_werner_params(x)
        dev_exact = max(dev_exact, abs(d1_x_state(near)[0] - 1.0 / 3.0))
    # Locally rotated X states, and rotated Werner and Bell-diagonal states
    # (a = 0), are not X-shaped; their d1 is the unrotated state's closed form.
    unrotated = [random_x_params(rng) for _ in range(60)]
    unrotated += [
        XStateParams.from_density_matrix(bell_diagonal(*random_bell_coefficients(rng)))
        for _ in range(20)
    ]
    unrotated += [
        XStateParams.from_density_matrix(bell_diagonal(*(rng.random() * _BELL_SIGNS[k % 4])))
        for k in range(20)
    ]
    dev_rot_oracle = dev_rot_report = 0.0
    for params in unrotated:
        rho = locally_rotated(x_state(params), rng)
        closed, _ = d1_x_state(params)
        dev_rot_oracle = max(dev_rot_oracle, abs(d1_oracle(rho, bulk_cfg) - closed))
        dev_rot_report = max(dev_rot_report, abs(full_report(rho).d1 - closed))
    # Production d1 against the search on random mixtures and on locally
    # rotated X states mixed with a random state at weight 1e-3; all but the
    # pure ones take the five axes.  Every axis bounds d1 from above, so
    # production may not exceed the search beyond rounding; a missed class of
    # minima would put it above by more.  Drawn from their own stream, so the
    # checks above keep their samples.
    mix_rng = np.random.default_rng(seed + 707)
    mixed = [random_density_matrix(mix_rng) for _ in range(100)]
    for _ in range(50):
        near = locally_rotated(x_state(random_x_params(mix_rng)), mix_rng).mat
        mat = (1.0 - 1e-3) * near + 1e-3 * random_density_matrix(mix_rng).mat
        mixed.append(DensityMatrix(0.5 * (mat + mat.conj().T)))
    above = dev_mixed = 0.0
    for rho in mixed:
        gap = full_report(rho).d1 - d1_oracle(rho, bulk_cfg)
        above = max(above, gap)
        dev_mixed = max(dev_mixed, abs(gap))
    return [
        VerifyResult("oracle.mmc_matches_closed_form", 0.0, dev_mmc, 1e-9),
        VerifyResult("oracle.d1_closed_matches_oracle", 0.0, dev_d1, ORACLE_TOL),
        VerifyResult("oracle.degenerate_case_value", 0.4, value, ORACLE_TOL),
        VerifyResult("oracle.degenerate_case_exact", 0.0, dev_exact, CLOSED_TOL),
        VerifyResult("oracle.d1_oracle_rotated_closed_form", 0.0, dev_rot_oracle, ORACLE_TOL),
        VerifyResult("oracle.report_rotated_closed_form", 0.0, dev_rot_report, CLOSED_TOL),
        VerifyResult("oracle.report_d1_not_above_oracle", 0.0, above, CLOSED_TOL),
        VerifyResult("oracle.report_d1_matches_oracle", 0.0, dev_mixed, ORACLE_TOL),
    ]


def check_conjecture_sweep(overrides: dict | None = None) -> list[VerifyResult]:
    _, bulk_cfg, seed = _configs(overrides)
    rng = np.random.default_rng(seed + 606)
    violations = 0
    for _ in range(10_000):
        rho = random_density_matrix(rng)
        rep = full_report(rho)
        m = rep.mmc
        if rep.d1 <= m + 1e-3:
            continue
        # The search confirms a state the closed forms put above mmc.
        d1 = d1_oracle(rho, bulk_cfg, stop_below=m + 1e-3)
        if d1 > m + ORACLE_TOL:
            violations += 1
    return [
        VerifyResult("conjecture.d1_above_mmc_count", 0.0, float(violations), math.inf)
    ]


ALL_CHECKS = [
    ("pure", check_pure),
    ("cq", check_classical_quantum),
    ("cc", check_classical_classical),
    ("rho_d", check_discordant_separable),
    ("rho_theta", check_entangled_family),
    ("bell_diagonal", check_bell_diagonal),
    ("global", check_global_bound),
    ("oracle", check_oracle_consistency),
    ("conjecture", check_conjecture_sweep),
]


def run_checks(prefix: str | None = None, overrides: dict | None = None) -> list[VerifyResult]:
    """Run all (or prefix-filtered) check groups and return their results.

    ``overrides`` maps SearchConfig fields (``coarse_grid``, ``refine_iters``)
    and the ensemble ``seed`` to values that replace the suite's own settings
    one by one.  The seed draws the sampled ensembles only; no oracle reads it.
    """
    _configs(overrides)  # an invalid override fails before any group runs
    results: list[VerifyResult] = []
    for name, fn in ALL_CHECKS:
        if prefix and not (name.startswith(prefix) or prefix.startswith(name)):
            continue
        results.extend(fn(overrides))
    if prefix:
        results = [r for r in results if r.check_id.startswith(prefix)]
    return results

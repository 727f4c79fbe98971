"""Workload runners: one closed-loop caller, every layer timed from outside the package.

The untraced runner gives the end-to-end metrics.  The traced runner calls the
layers' public functions one by one, in the order ``full_report`` uses them,
records a span around each call, and reduces the spans to per-layer metrics.
Nothing inside ``qcorr`` is patched.
"""

from __future__ import annotations

import json
import math
import statistics
import time
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path

import numpy as np
from qcorr import (
    DEFAULT_SEARCH,
    DensityMatrix,
    XStateParams,
    bloch_vectors,
    covariance_matrix,
    d1_oracle,
    d1_x_state,
    disturbance_norms,
    full_report,
    is_x_shaped,
    mmc,
    mmc_oracle,
    negativity,
    report_to_record,
    run_checks,
    singular_values_3,
    state_from_record,
)
from qcorr.measures import X_PATTERN_TOL

import host
import streams

# The suite's nine check groups, in run order; a fixed set keeps passes comparable.
VERIFY_GROUPS = ("pure", "cq", "cc", "rho_d", "rho_theta", "bell_diagonal", "global", "oracle", "conjecture")
# States per sweep-sized job (wall_s), and per generated chunk: whole cycles of the mix.
BATCH = {"report_closed": 500, "report_search": 8}
MMC_ORACLE_TOL = 1e-9
TRACED_STATES = 2000  # enough for stable layer medians; bounds the span file

GRID = streams.angle_grid(*DEFAULT_SEARCH.coarse_grid)
PREFILTER = streams.SUB_GRID
SMALL_BATCH = (np.full(4, math.pi / 8.0), np.array([0.0, 0.5, 1.0, 1.5]) * math.pi)


@dataclass
class Metric:
    value: float
    unit: str
    n: int  # samples behind the value


@dataclass
class Result:
    attempted: int = 0
    failed: int = 0
    metrics: dict[str, Metric] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)
    spans_path: Path | None = None

    def tally(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(what)

    def put(self, name: str, value: float, unit: str, n: int) -> None:
        self.metrics[name] = Metric(float(value), unit, n)


@dataclass(frozen=True)
class Sizes:
    """How much work a run does besides the timed loop; the self-test shrinks these."""

    setup_launches: int = 7
    import_launches: int = 5
    verify_groups: tuple[str, ...] = VERIFY_GROUPS


def percentile(weighted: list[tuple[float, int]], q: float) -> float:
    """Nearest-rank percentile of sorted (value, count) pairs: the smallest
    value with at least q of the samples at or below it."""
    rank = max(1, math.ceil(q * sum(k for _, k in weighted)))
    seen = 0
    for value, k in weighted:
        seen += k
        if seen >= rank:
            return value
    raise ValueError("no samples")


def measures_path(text: str) -> str:
    """The body of ``qcorr measures``: parse the record, report, emit JSON."""
    return json.dumps(report_to_record(full_report(state_from_record(json.loads(text)))))


def _check(res: Result, case: streams.Case, output: str | None, err: str = "") -> None:
    report = None if output is None else json.loads(output)
    res.tally(case.passes(report), f"{case.kind}: {err or case.text} -> {output}")


def _try_path(text: str) -> tuple[str | None, str]:
    try:
        return measures_path(text), ""
    except Exception as exc:  # counted as a failed operation, the run goes on
        return None, f"{type(exc).__name__}: {exc}"


def _setup(res: Result, first: streams.Case, sizes: Sizes) -> None:
    """setup_s: a cold ``qcorr measures`` on the workload's first record, launch to output."""
    argv = ["-m", "qcorr.cli", "measures", "--inline", first.text]
    launches = host.cold_launches(argv, sizes.setup_launches)
    for _, stdout in launches:
        res.tally(first.passes(json.loads(_last_line(stdout) or "null")), f"cold qcorr measures: {first.text}")
    res.put("setup_s", statistics.median(s for s, _ in launches), "s", len(launches))


def _last_line(stdout: str) -> str:
    lines = stdout.strip().splitlines()
    return lines[-1] if lines else ""


def run_report(workload: str, seed: int, seconds: float, sizes: Sizes = Sizes()) -> Result:
    res = Result()
    stream = streams.cases(workload, seed)
    first = next(stream)
    _setup(res, first, sizes)
    for case in islice(stream, streams.cycle_length(workload)):  # warm-up, untimed
        _check(res, case, *_try_path(case.text))

    # Other tenants of the host slow single calls by up to 2x, in bursts that
    # cover anywhere from 10% to 100% of a 10 s window, so medians and means of
    # raw latencies do not repeat from run to run.  Minima do: a kind's quiet
    # latency is the fastest of its k states in the run (min of k), and every
    # state is charged its kind's quiet latency.
    # Only running minima, counts and sums are kept, so memory does not grow
    # with the number of states a run gets through.
    quiet: dict[str, float] = {}
    count: dict[str, int] = {}
    busy = 0.0
    while busy < seconds:
        batch = list(islice(stream, BATCH[workload]))
        outputs = []
        for case in batch:
            t0 = time.perf_counter()
            out, err = _try_path(case.text)
            t = time.perf_counter() - t0
            busy += t
            quiet[case.kind] = min(quiet.get(case.kind, math.inf), t)
            count[case.kind] = count.get(case.kind, 0) + 1
            outputs.append((out, err))
        for case, (out, err) in zip(batch, outputs):
            _check(res, case, out, err)

    charged = sorted((quiet[kind], count[kind]) for kind in quiet)
    n = sum(count.values())
    total = sum(t * k for t, k in charged)
    res.put("states_per_s", n / total, "1/s", n)
    res.put("latency_p50_ms", 1e3 * percentile(charged, 0.5), "ms", n)
    res.put("latency_p90_ms", 1e3 * percentile(charged, 0.9), "ms", n)
    res.put("wall_s", BATCH[workload] * total / n, "s", n)
    res.put("raw.states_per_s", n / busy, "1/s", n)
    res.put("peak_rss_mb", host.peak_rss_mb(), "MB", 1)
    return res


def _verify_group(res: Result, group: str) -> list:
    results = run_checks(prefix=group)
    for r in results:
        res.tally(bool(r.passed) and r.check_id.startswith(group + "."), r.check_id)
    return results


class Spans:
    """In-memory span log: id, request, parent id, layer name, start and end (ns)."""

    def __init__(self):
        self.rows: list[list] = []

    def open(self, request: int, name: str, parent: int | None = None) -> int:
        self.rows.append([len(self.rows), request, parent, name, time.perf_counter_ns(), 0])
        return len(self.rows) - 1

    def close(self, span: int) -> None:
        self.rows[span][5] = time.perf_counter_ns()

    def call(self, request: int, parent: int, name: str, fn, *args):
        span = self.open(request, name, parent)
        try:
            return fn(*args)
        finally:
            self.close(span)

    def seconds(self) -> dict[str, dict[int, float]]:
        """Layer name -> request -> span duration in seconds."""
        out: dict[str, dict[int, float]] = {}
        for _, request, _, name, start, end in self.rows:
            if end:  # spans left open by a failed call carry no duration
                out.setdefault(name, {})[request] = (end - start) * 1e-9
        return out

    def write(self, path: Path) -> None:
        """JSON lines: a header naming the fields, then one array per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            fh.write(json.dumps(["id", "request", "parent", "name", "start_ns", "end_ns"]) + "\n")
            for row in self.rows:
                fh.write(json.dumps(row) + "\n")


def _d1_route(rho):
    """d1 the way full_report picks it: closed form on X-shaped states, else the oracle."""
    if is_x_shaped(rho.mat, X_PATTERN_TOL):
        return d1_x_state(XStateParams.from_density_matrix(rho))
    return d1_oracle(rho), "oracle"


def _d1_closed_probe(rho):
    # from_density_matrix reads only the X entries, so on any state this is the
    # X part, itself a valid state (a pinching of rho).
    return d1_x_state(XStateParams.from_density_matrix(rho))


def _emit(report) -> str:
    return json.dumps(report_to_record(report))


def _parse(text: str):
    return state_from_record(json.loads(text))


def _trace_path(spans: Spans, res: Result, request: int, case: streams.Case, untraced: list) -> None:
    """One state: the bare path, the same path with spans, then full_report's layers one by one."""

    def bare():
        t0 = time.perf_counter()
        out, _ = _try_path(case.text)
        untraced.append(time.perf_counter() - t0)
        return out

    def traced():
        root = spans.open(request, "path")
        try:
            rho = spans.call(request, root, "stateio.parse", _parse, case.text)
            report = spans.call(request, root, "measures.full_report", full_report, rho)
            return spans.call(request, root, "stateio.emit", _emit, report), rho
        finally:
            spans.close(root)

    # Alternate the order so neither variant always runs on warm caches.
    if request % 2:
        out, (traced_out, rho) = bare(), traced()
    else:
        traced_out, rho = traced()
        out = bare()
    _check(res, case, traced_out)
    res.tally(out == traced_out, f"{case.kind}: bare and traced paths disagree: {case.text}")

    root = spans.open(request, "layers")
    spans.call(request, root, "states.validate", DensityMatrix, rho.mat)
    q = spans.call(request, root, "measures.covariance_matrix", covariance_matrix, rho)
    spans.call(request, root, "linalg.singular_values_3", singular_values_3, q)
    spans.call(request, root, "states.bloch_vectors", bloch_vectors, rho)
    spans.call(request, root, "states.is_x_shaped", is_x_shaped, rho.mat, X_PATTERN_TOL)
    spans.call(request, root, "measures.d1", _d1_route, rho)
    spans.call(request, root, "measures.negativity", negativity, rho)
    spans.close(root)
    probe = spans.open(request, "probe")
    span = spans.open(request, "measures.d1_x_state", probe)
    _, method = _d1_closed_probe(rho)
    spans.close(span)
    spans.close(probe)
    if method != "closed_form":  # the degenerate X branch: an oracle call, not the closed form
        spans.rows[span][3] = "measures.d1_x_state.oracle_fallback"


def _trace_oracles(spans: Spans, res: Result, request: int, case: streams.Case) -> None:
    rho = _parse(case.text)
    root = spans.open(request, "oracles")
    spans.call(request, root, "oracles.grid", disturbance_norms, rho.mat, *GRID)
    spans.call(request, root, "oracles.d1_oracle", d1_oracle, rho)
    spans.call(request, root, "oracles.prefilter", disturbance_norms, rho.mat, *PREFILTER)
    spans.call(request, root, "oracles.small_batch", disturbance_norms, rho.mat, *SMALL_BATCH)
    value = spans.call(request, root, "oracles.mmc_oracle", mmc_oracle, rho)
    spans.close(root)
    res.tally(abs(value - mmc(rho)) <= MMC_ORACLE_TOL, f"mmc_oracle vs mmc: {case.text}")


def _trace_verify(spans: Spans, res: Result, request: int, groups) -> list:
    root = spans.open(request, "verify.pass")
    results = []
    for group in groups:
        results += spans.call(request, root, f"verify.{group}", _verify_group, res, group)
    spans.close(root)
    return results


def _guarded(res: Result, case: streams.Case, step, *args) -> None:
    try:
        step(*args)
    except Exception as exc:  # counted as a failed operation, the run goes on
        res.tally(False, f"{case.kind}: {type(exc).__name__}: {exc}")


_IMPORT_PROBE = "import time; t = time.perf_counter(); import qcorr; print(time.perf_counter() - t)"


def run_traced(workload: str, seed: int, seconds: float, sizes: Sizes = Sizes()) -> Result:
    """Per-layer metrics for ``workload``; every layer is reported on every workload.

    Half of ``seconds`` (at most TRACED_STATES states) goes to the path and
    its layers over the workload's stream, half to the oracle kernels over the
    same states; then one verify
    suite pass and cold imports.  Layers a workload's path does not reach are
    probed with the workload's own states.
    """
    res = Result()
    spans = Spans()
    untraced: list[float] = []
    stream = streams.cases(workload, seed)
    head: list[streams.Case] = []  # the states phase one saw, replayed in phase two
    deadline = time.perf_counter() + seconds / 2.0
    while (time.perf_counter() < deadline or len(head) < 8) and len(head) < TRACED_STATES:
        head.append(next(stream))
        _guarded(res, head[-1], _trace_path, spans, res, len(head) - 1, head[-1], untraced)
    deadline = time.perf_counter() + seconds / 2.0
    for request, case in enumerate(head):
        if request >= 8 and time.perf_counter() > deadline:
            break
        _guarded(res, case, _trace_oracles, spans, res, request, case)
    checks = _trace_verify(spans, res, 0, sizes.verify_groups)

    imports = host.cold_launches(["-c", _IMPORT_PROBE], sizes.import_launches)
    import_s = [float(_last_line(out) or "nan") for _, out in imports]
    for value in import_s:
        res.tally(math.isfinite(value), "cold import qcorr")

    _layer_metrics(res, spans.seconds(), untraced)
    res.put("cli.import_s", statistics.median(import_s), "s", len(import_s))
    res.put("verify.checks_run", len(checks), "count", 1)
    violations = [r.actual for r in checks if r.check_id == "conjecture.d1_above_mmc_count"]
    res.put("verify.conjecture_violations", sum(violations), "count", 1)
    res.spans_path = host.ROOT / ".perfbench" / f"trace-{workload}-seed{seed}.jsonl"
    spans.write(res.spans_path)
    return res


def _layer_metrics(res: Result, sec: dict[str, dict[int, float]], untraced: list[float]) -> None:
    def med(name: str) -> float:
        return statistics.median(sec[name].values())

    def put(metric: str, name: str, scale: float, unit: str) -> None:
        res.put(metric, scale * med(name), unit, len(sec[name]))

    put("states.validate_us", "states.validate", 1e6, "us")
    put("states.bloch_us", "states.bloch_vectors", 1e6, "us")
    put("states.x_pattern_us", "states.is_x_shaped", 1e6, "us")
    put("linalg.singular_values_us", "linalg.singular_values_3", 1e6, "us")
    cov = sec["measures.covariance_matrix"]
    svd = sec["linalg.singular_values_3"]
    cov_svd = statistics.median(cov[r] + svd[r] for r in cov)
    res.put("measures.covariance_svd_us", 1e6 * cov_svd, "us", len(cov))
    put("measures.negativity_us", "measures.negativity", 1e6, "us")
    put("measures.d1_closed_us", "measures.d1_x_state", 1e6, "us")
    put("measures.full_report_us", "measures.full_report", 1e6, "us")
    put("stateio.parse_us", "stateio.parse", 1e6, "us")
    put("stateio.emit_us", "stateio.emit", 1e6, "us")

    grid, oracle = sec["oracles.grid"], sec["oracles.d1_oracle"]
    put("oracles.d1_oracle_ms", "oracles.d1_oracle", 1e3, "ms")
    put("oracles.grid_ms", "oracles.grid", 1e3, "ms")
    res.put("oracles.refine_ms", 1e3 * statistics.median(oracle[r] - grid[r] for r in oracle), "ms", len(oracle))
    res.put("oracles.grid_angles_per_s", len(GRID[0]) / med("oracles.grid"), "1/s", len(grid))
    put("oracles.prefilter_us", "oracles.prefilter", 1e6, "us")
    put("oracles.small_batch_us", "oracles.small_batch", 1e6, "us")
    put("oracles.mmc_oracle_ms", "oracles.mmc_oracle", 1e3, "ms")

    for name, by_request in sec.items():
        if name.startswith("verify."):
            res.put(f"{name}_s", by_request[0], "s", 1)

    path_parts = ("stateio.parse", "stateio.emit", "states.bloch_vectors", "states.is_x_shaped",
                  "measures.d1", "measures.negativity")
    covered = sum(med(name) for name in path_parts) + cov_svd
    bare = statistics.median(untraced)
    res.put("trace.coverage", covered / bare, "share", len(untraced))
    res.put("trace.overhead_share", med("path") / bare - 1.0, "share", len(untraced))

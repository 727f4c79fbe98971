"""qcorr benchmark: one workload per process, one closed-loop caller.

    python3 perfbench/run.py --workload report_closed --seed 1 --seconds 30 --trace 0

Run from a source checkout; the package is imported from ``src/``.  Prints a
provenance line, one ``metric`` line per measurement (value, unit, sample
count), and, last, a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``.  Spans of a traced run go to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import host

WORKLOADS = ("report_closed", "report_search")


def prepare() -> None:
    """Cap BLAS threads at nproc (before numpy loads) and put the package on the path."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(host.nproc())
    sys.path.insert(0, str(host.SRC))


def run(workload: str, seed: int, seconds: float, trace: bool, sizes=None):
    import workloads

    sizes = sizes or workloads.Sizes()
    if trace:
        return workloads.run_traced(workload, seed, seconds, sizes)
    return workloads.run_report(workload, seed, seconds, sizes)


def report_lines(res, workload: str, seed: int, trace: bool) -> list[str]:
    """Everything the run prints; the last line is the result object."""
    lines = ["provenance " + json.dumps(host.provenance(host.ROOT, workload, seed))]
    for name, m in res.metrics.items():
        lines.append(f"metric {name} {m.value!r} {m.unit} n={m.n}")
    lines.append(f"metric failed_share {res.failed / res.attempted!r} share n={res.attempted}")
    lines += [f"failure {what}" for what in res.failures]
    if res.spans_path is not None:
        lines.append(f"spans {res.spans_path.relative_to(host.ROOT)}")
    bench = json.loads((host.ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in bench["per_layer" if trace else "end_to_end"] if m["name"] in res.metrics]
    lines.append(json.dumps({
        "correct": res.failed == 0,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {n: {"value": res.metrics[n].value, "unit": res.metrics[n].unit} for n in names},
    }))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (host.SRC / "qcorr" / "__init__.py").is_file():
        print(f"error: no qcorr sources under {host.SRC}; run from a source checkout", file=sys.stderr)
        return 2
    prepare()
    res = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in report_lines(res, args.workload, args.seed, bool(args.trace)):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Self-test of the benchmark at tiny sizes (about 20 s):

    python3 perfbench/selftest.py

Checks that every workload prints every metric with its unit and sample count,
that the result line carries exactly the metrics BENCHMARK.json declares, that
a deliberately wrong reference trips the correctness gate, and that the
benchmark exits non-zero without printing a result when the sources are absent.
To stay small, the verify suite is cut to two quick groups; their per-group
metrics stand in for the seven skipped ones.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile

import run

run.prepare()

import host  # noqa: E402
import streams  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((host.ROOT / "BENCHMARK.json").read_text())
TINY = workloads.Sizes(setup_launches=1, import_launches=1, verify_groups=("rho_d", "rho_theta"))
SKIPPED = {f"verify.{g}_s" for g in workloads.VERIFY_GROUPS if g not in TINY.verify_groups}


def _printed(lines: list[str]) -> dict[str, str]:
    units = {}
    for line in lines:
        if line.startswith("metric "):
            _, name, value, unit, samples = line.split()
            float(value)
            assert samples.startswith("n=") and int(samples[2:]) >= 1, line
            units[name] = unit
    return units


def check_workload(workload: str, trace: bool, seconds: float) -> dict[str, str]:
    res = run.run(workload, 3, seconds, trace, TINY)
    lines = run.report_lines(res, workload, 3, trace)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, res.failures
    declared = {m["name"]: m["unit"] for m in BENCH["per_layer" if trace else "end_to_end"]}
    if trace:
        declared = {k: v for k, v in declared.items() if k not in SKIPPED}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == declared, (workload, trace, set(got) ^ set(declared))
    printed = _printed(lines)
    assert printed["failed_share"] == "share"
    assert all(printed[name] == unit for name, unit in got.items())
    return printed


def check_wrong_reference_trips_gate() -> None:
    """Cases 0 (the cold CLI launch) and 8 (in the first timed batch) carry a wrong mmc."""
    real = streams.cases

    def tampered(workload, seed):
        for i, case in enumerate(real(workload, seed)):
            if i in (0, 8):
                bounds = tuple(
                    (key, lo + 1e-6, hi + 1e-6) if key == "mmc" else (key, lo, hi)
                    for key, lo, hi in case.bounds
                )
                case = dataclasses.replace(case, bounds=bounds)
            yield case

    streams.cases = tampered
    try:
        res = workloads.run_report("report_closed", 3, 0.2, TINY)
    finally:
        streams.cases = real
    result = json.loads(run.report_lines(res, "report_closed", 3, False)[-1])
    assert result["failed"] == 2 and not result["correct"], result


def check_refuses_without_sources() -> None:
    scratch = host.ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        shutil.copy(host.ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(host.ROOT / "perfbench", f"{tmp}/perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "report_closed", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=60,
        )
    assert proc.returncode != 0 and proc.stdout == "", (proc.returncode, proc.stdout)


def main() -> int:
    printed: dict[str, str] = {}
    for workload in run.WORKLOADS:
        printed |= check_workload(workload, trace=False, seconds=0.5)
    for workload in run.WORKLOADS:
        printed |= check_workload(workload, trace=True, seconds=1.0)
    wanted = {m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]} - SKIPPED
    assert wanted | {"failed_share"} <= set(printed), wanted - set(printed)
    check_wrong_reference_trips_gate()
    check_refuses_without_sources()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command line front end: measure reports, parameter sweeps, verification.

Exit codes: 0 success, 2 bad input, verify setting or filter, 3 invalid state, 4 failed checks.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import sys

from .errors import RecordError, StateError
from .measures import full_report
from .stateio import (
    report_to_record,
    state_from_record,
    sweep_from_record,
)
from .verify import format_line, run_checks

SWEEP_COLUMNS = ("value", "mmc", "correlation_distance", "negativity", "d1", "t1", "t2", "t3", "error")


def _grid(text: str) -> tuple[int, int]:
    try:
        nt, nph = text.lower().split("x")
        return int(nt), int(nph)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"grid must look like 64x128, got {text!r}"
        ) from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcorr",
        description="Correlation measures for two-qubit states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_out=False):
        p.add_argument("--spec", help="path to a JSON record file")
        p.add_argument("--inline", help="JSON record given directly on the command line")
        if with_out:
            p.add_argument("--out", help="output path (default: stdout)")

    p_measures = sub.add_parser("measures", help="report all measures for one state")
    add_common(p_measures)

    p_sweep = sub.add_parser("sweep", help="sweep one family parameter, write CSV")
    add_common(p_sweep, with_out=True)

    p_verify = sub.add_parser("verify", help="run the built-in verification suite")
    p_verify.add_argument("--filter", help="only run checks whose id starts with this prefix")
    # Stored under the SearchConfig fields they set, the names run_checks takes.
    p_verify.add_argument("--grid", type=_grid, dest="coarse_grid", metavar="GRID",
                          help="d1_oracle's coarse search grid, e.g. 64x128")
    p_verify.add_argument("--refine", type=int, dest="refine_iters", metavar="REFINE",
                          help="d1_oracle's pattern-search refinement iterations")
    p_verify.add_argument("--seed", type=int, help="seed for sampled ensembles")
    return parser


def _load_record(args) -> dict:
    if bool(args.spec) == bool(args.inline):
        raise RecordError("provide exactly one of --spec or --inline")
    if args.inline:
        text = args.inline
        source = "--inline"
    else:
        try:
            with open(args.spec, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise RecordError(f"cannot read {args.spec}: {exc}") from exc
        source = args.spec
    try:
        record = json.loads(text)
    except json.JSONDecodeError as exc:
        raise RecordError(f"invalid JSON in {source}: {exc}") from exc
    return record


def _cmd_measures(args) -> int:
    record = _load_record(args)
    rho = state_from_record(record)
    report = full_report(rho)
    print(json.dumps(report_to_record(report)))
    return 0


def _sweep_row(spec, value) -> dict:
    # DictWriter writes "" for every column a row leaves out.
    row = {"value": repr(float(value))}
    try:
        record = report_to_record(full_report(state_from_record(spec.record_for(value))))
    except StateError as exc:
        row["error"] = str(exc)
        return row
    row.update((key, repr(record[key])) for key in SWEEP_COLUMNS[1:-1])
    return row


def _cmd_sweep(args) -> int:
    record = _load_record(args)
    spec = sweep_from_record(record)
    # Open the output before any row is computed, so a bad path fails at once.
    if args.out:
        try:
            out = open(args.out, "w", newline="", encoding="utf-8")
        except OSError as exc:
            raise RecordError(f"cannot write {args.out}: {exc}") from exc
    else:
        out = contextlib.nullcontext(sys.stdout)
    with out as fh:
        writer = csv.DictWriter(fh, fieldnames=SWEEP_COLUMNS)
        writer.writeheader()
        for value in spec.values():
            writer.writerow(_sweep_row(spec, value))
    return 0


def _cmd_verify(args) -> int:
    # Each flag given replaces only its own setting.
    flags = {key: getattr(args, key) for key in ("coarse_grid", "refine_iters", "seed")}
    results = run_checks(prefix=args.filter, overrides={k: v for k, v in flags.items() if v is not None})
    for result in results:
        print(format_line(result))
    failed = sum(1 for r in results if not r.passed)
    print(f"{len(results) - failed} passed, {failed} failed")
    return 0 if failed == 0 else 4


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "measures":
            return _cmd_measures(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        return _cmd_verify(args)
    except StateError as exc:
        print(f"invalid state: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:  # pragma: no cover - thin wrapper
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    console_main()

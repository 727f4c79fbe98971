import csv
import dataclasses
import io
import itertools
import json
import math

import numpy as np
import pytest

from qcorr import cli, measures, verify
from qcorr.stateio import report_to_record, state_from_record
from qcorr.verify import VerifyResult, near_werner_params


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# Neither invariant below breaks on a valid state, so each test breaks one
# numerically, on the calls whose index is in ``at``, and checks the CLI's
# handling of the StateError that follows.


def break_gram(monkeypatch, at):
    """Give singular_values_3 a Gram spectrum negative beyond roundoff."""
    real = measures._eigvalsh
    calls = itertools.count()

    def eigvalsh(h):
        if np.shape(h) == (3, 3) and next(calls) in at:
            return [-1e-10, 0.25, 1.0]
        return real(h)

    monkeypatch.setattr(measures, "_eigvalsh", eigvalsh)


def break_report(monkeypatch, at):
    """Give MeasureReport a correlation distance above 1.5 mmc."""
    real = measures._distance_from_singular_values
    calls = itertools.count()
    monkeypatch.setattr(
        measures,
        "_distance_from_singular_values",
        lambda t: 10.0 if next(calls) in at else real(t),
    )


BREAKERS = {
    "gram": (break_gram, "Gram eigenvalue"),
    "report": (break_report, "correlation distance"),
}


class TestMeasures:
    def test_inline_pure_state(self, capsys):
        code, out, _ = run_cli(
            capsys, "measures", "--inline", '{"family": "pure", "params": {"n": 0.6}}'
        )
        assert code == 0
        record = json.loads(out)
        assert record["mmc"] == pytest.approx(0.6, abs=1e-12)
        assert record["negativity"] == pytest.approx(0.6, abs=1e-12)
        assert record["d1"] == pytest.approx(0.6, abs=1e-12)
        assert record["correlation_distance"] == pytest.approx(0.78, abs=1e-12)

    def test_raw_identity_all_zero(self, capsys):
        record = {
            "family": "raw",
            "params": {"re": (np.eye(4) / 4).tolist(), "im": np.zeros((4, 4)).tolist()},
        }
        code, out, _ = run_cli(capsys, "measures", "--inline", json.dumps(record))
        assert code == 0
        report = json.loads(out)
        for key in ("mmc", "correlation_distance", "negativity"):
            assert report[key] == 0.0
        assert abs(report["d1"]) <= 1e-9

    def test_spec_file(self, capsys, tmp_path):
        path = tmp_path / "state.json"
        path.write_text('{"family": "rho_d", "params": {"w": 0.1, "s": 0.2}}')
        code, out, _ = run_cli(capsys, "measures", "--spec", str(path))
        assert code == 0
        assert json.loads(out)["d1"] == pytest.approx(0.48, abs=1e-12)

    def test_parse_error_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "measures", "--inline", "{not json")
        assert code == 2
        assert "error" in err

    def test_missing_file_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "measures", "--spec", "/nonexistent/state.json")
        assert code == 2

    def test_unknown_family_exit_2(self, capsys):
        code, _, _ = run_cli(
            capsys, "measures", "--inline", '{"family": "ghz", "params": {}}'
        )
        assert code == 2

    def test_invalid_state_exit_3(self, capsys):
        code, _, err = run_cli(
            capsys,
            "measures",
            "--inline",
            '{"family": "bell_diagonal", "params": {"c": [0.9, -0.5, 0.3]}}',
        )
        assert code == 3
        assert "tetrahedron" in err

    @pytest.mark.parametrize("breaker", sorted(BREAKERS))
    def test_broken_invariant_exit_3(self, capsys, monkeypatch, breaker):
        patch, message = BREAKERS[breaker]
        patch(monkeypatch, at={0})
        code, out, err = run_cli(
            capsys, "measures", "--inline", '{"family": "pure", "params": {"n": 0.6}}'
        )
        assert (code, out) == (3, "")
        assert err.startswith("invalid state:") and message in err

    def test_infinite_bell_coefficient_exit_3(self, capsys):
        # (inf, -inf, 0) once passed the tetrahedron check as NaN and warned in numpy.
        record = {"family": "bell_diagonal", "params": {"c1": math.inf, "c2": -math.inf, "c3": 0.0}}
        text = json.dumps(record)
        assert "Infinity" in text
        code, out, err = run_cli(capsys, "measures", "--inline", text)
        assert (code, out) == (3, "")
        assert err.startswith("invalid state: Bell-diagonal") and "finite" in err
        assert err.count("\n") == 1

    def test_nan_raw_record_exit_3(self, capsys):
        re = (np.eye(4) / 4).tolist()
        re[0][1] = re[1][0] = math.nan
        record = {"family": "raw", "params": {"re": re, "im": np.zeros((4, 4)).tolist()}}
        code, out, err = run_cli(capsys, "measures", "--inline", json.dumps(record))
        assert code == 3
        assert out == ""
        assert "non-finite" in err

    def test_near_werner_x_record(self, capsys):
        # x = 3e-8 with |alpha_i| = 1/3, next to the degenerate set; d1 = 1/3
        params = dataclasses.asdict(near_werner_params(3e-8))
        record = json.dumps({"family": "x", "params": params})
        code, out, _ = run_cli(capsys, "measures", "--inline", record)
        assert code == 0
        rec = json.loads(out)
        assert rec["d1_method"] == "closed_form"
        assert rec["d1"] == pytest.approx(1.0 / 3.0, abs=1e-12)

    @pytest.mark.parametrize(
        "diagonal, rho14",
        [((0.25, 0.25, 0.25, 0.25), 0.25 + 5e-11), ((-5e-11, 0.5, 0.25, 0.25 + 5e-11), 0.0)],
    )
    def test_x_record_at_psd_tolerance_takes_closed_form(self, capsys, diagonal, rho14):
        # Both matrices have an eigenvalue of -5e-11, which DensityMatrix accepts.
        re = np.diag(diagonal)
        re[0, 3] = re[3, 0] = rho14
        record = {"family": "raw", "params": {"re": re.tolist(), "im": np.zeros((4, 4)).tolist()}}
        code, out, err = run_cli(capsys, "measures", "--inline", json.dumps(record))
        assert (code, err) == (0, "")
        assert json.loads(out)["d1_method"] == "closed_form"

    def test_requires_exactly_one_source(self, capsys):
        code, _, _ = run_cli(capsys, "measures")
        assert code == 2

    def test_deterministic_output(self, capsys):
        args = ("measures", "--inline", '{"family": "rho_theta", "params": {"theta": 0.7}}')
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second


class TestSweep:
    def _read(self, path):
        with open(path, newline="") as fh:
            return list(csv.DictReader(fh))

    def test_rho_theta_d1_column(self, capsys, tmp_path):
        out = tmp_path / "sweep.csv"
        record = {"family": "rho_theta", "param": "theta", "start": 0.1, "stop": 1.4, "steps": 14}
        code, _, _ = run_cli(
            capsys, "sweep", "--inline", json.dumps(record), "--out", str(out)
        )
        assert code == 0
        rows = self._read(out)
        assert len(rows) == 14
        values = [float(r["value"]) for r in rows]
        assert values == sorted(values)
        for row in rows:
            theta = float(row["value"])
            assert float(row["d1"]) == pytest.approx(0.5 * math.sin(2 * theta), abs=1e-10)
            assert row["error"] == ""

    def test_pure_family_negativity_equals_d1(self, capsys, tmp_path):
        out = tmp_path / "pure.csv"
        record = {"family": "pure", "param": "n", "start": 0.0, "stop": 1.0, "steps": 11}
        code, _, _ = run_cli(capsys, "sweep", "--inline", json.dumps(record), "--out", str(out))
        assert code == 0
        for row in self._read(out):
            assert float(row["negativity"]) == pytest.approx(float(row["d1"]), abs=1e-9)

    def test_rho_d_quarter_w_zero_d1(self, capsys, tmp_path):
        out = tmp_path / "rho_d.csv"
        record = {
            "family": "rho_d",
            "param": "s",
            "start": 0.05,
            "stop": 0.25,
            "steps": 5,
            "fixed": {"w": 0.25},
        }
        code, _, _ = run_cli(capsys, "sweep", "--inline", json.dumps(record), "--out", str(out))
        assert code == 0
        for row in self._read(out):
            assert float(row["d1"]) == 0.0

    def test_invalid_rows_marked_and_sweep_continues(self, capsys, tmp_path):
        out = tmp_path / "partial.csv"
        # s_max(0.1) = 0.2, so the top of this range is invalid
        record = {
            "family": "rho_d",
            "param": "s",
            "start": 0.1,
            "stop": 0.3,
            "steps": 5,
            "fixed": {"w": 0.1},
        }
        code, _, _ = run_cli(capsys, "sweep", "--inline", json.dumps(record), "--out", str(out))
        assert code == 0
        rows = self._read(out)
        assert len(rows) == 5
        good = [r for r in rows if r["error"] == ""]
        bad = [r for r in rows if r["error"] != ""]
        assert len(good) == 3 and len(bad) == 2
        for row in bad:
            assert row["mmc"] == ""

    @pytest.mark.parametrize("breaker", sorted(BREAKERS))
    def test_broken_invariant_marks_row_and_sweep_continues(self, capsys, tmp_path, monkeypatch, breaker):
        patch, message = BREAKERS[breaker]
        patch(monkeypatch, at={1})
        out = tmp_path / "broken.csv"
        record = {"family": "pure", "param": "n", "start": 0.1, "stop": 0.9, "steps": 3}
        code, _, _ = run_cli(capsys, "sweep", "--inline", json.dumps(record), "--out", str(out))
        assert code == 0
        rows = self._read(out)
        assert [r["value"] for r in rows] == ["0.1", "0.5", "0.9"]
        assert message in rows[1]["error"] and rows[1]["mmc"] == ""
        assert all(r["error"] == "" and float(r["mmc"]) == float(r["value"]) for r in (rows[0], rows[2]))

    def test_header_and_round_trip_precision(self, capsys, tmp_path):
        out = tmp_path / "header.csv"
        record = {"family": "pure", "param": "n", "start": 0.1, "stop": 0.9, "steps": 3}
        run_cli(capsys, "sweep", "--inline", json.dumps(record), "--out", str(out))
        with open(out, newline="") as fh:
            header = fh.readline().strip()
        assert header == "value,mmc,correlation_distance,negativity,d1,t1,t2,t3,error"
        for row in self._read(out):
            n = float(row["value"])
            # CSV fields reproduce the internal values exactly
            assert float(row["mmc"]) == n

    def test_stdout_when_no_out(self, capsys):
        record = {"family": "pure", "param": "n", "start": 0.1, "stop": 0.5, "steps": 2}
        code, out, _ = run_cli(capsys, "sweep", "--inline", json.dumps(record))
        assert code == 0
        assert out.startswith("value,")

    def test_unwritable_out_exit_2_before_any_row(self, capsys, tmp_path, monkeypatch):
        def no_rows(rho):
            pytest.fail("a row was computed before the output was opened")

        monkeypatch.setattr(cli, "full_report", no_rows)
        out = tmp_path / "missing" / "sweep.csv"
        record = {"family": "pure", "param": "n", "start": 0.1, "stop": 0.5, "steps": 3}
        code, stdout, err = run_cli(capsys, "sweep", "--inline", json.dumps(record), "--out", str(out))
        assert code == 2
        assert stdout == ""
        assert err.startswith(f"error: cannot write {out}")
        assert not out.exists()

    @pytest.mark.parametrize(
        "bounds",
        [{"start": 0.1, "stop": 0.9, "steps": 10**12}, {"start": -math.inf, "stop": 0.9, "steps": 3}],
    )
    def test_bad_range_exit_2_before_any_row(self, capsys, monkeypatch, bounds):
        def no_rows(rho):
            pytest.fail("a row was computed for a rejected range")

        monkeypatch.setattr(cli, "full_report", no_rows)
        record = {"family": "pure", "param": "n", **bounds}
        code, stdout, err = run_cli(capsys, "sweep", "--inline", json.dumps(record))
        assert code == 2
        assert stdout == ""
        assert err.startswith("error: ")

    def test_columns_are_the_report_record(self, capsys):
        record = {"family": "rho_theta", "param": "theta", "start": 0.2, "stop": 1.2, "steps": 3}
        code, out, _ = run_cli(capsys, "sweep", "--inline", json.dumps(record))
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        for row in rows:
            theta = float(row["value"])
            rho = state_from_record({"family": "rho_theta", "params": {"theta": theta}})
            expected = report_to_record(measures.full_report(rho))
            assert {k: row[k] for k in cli.SWEEP_COLUMNS[1:-1]} == {
                k: repr(expected[k]) for k in cli.SWEEP_COLUMNS[1:-1]
            }
            assert row["error"] == ""

    def test_bad_sweep_record_exit_2(self, capsys):
        record = {"family": "pure", "param": "w", "start": 0.1, "stop": 0.5, "steps": 3}
        code, _, _ = run_cli(capsys, "sweep", "--inline", json.dumps(record))
        assert code == 2


# Each case is a record error: an unknown key or parameter (IGNORED_KEYS),
# or a missing, ill-typed or conflicting one (RECORD_ERRORS).  Cases given for
# both commands put the same parameters in a measures record and in a sweep's
# fixed parameters, with the swept value added to the former.
_RANGE = {"start": 0.01, "stop": 0.2, "steps": 3}
_CC = {"p": [[0.4, 0.1], [0.2, 0.3]], "phi_a": 0.0}
_CQ = {"theta": 0.3, "phi": 0.0, "a1": [1, 0, 0], "a2": [0, 0, 1]}
_HUGE = 10**400  # a JSON integer beyond the float range
_RAW = {"re": (np.eye(4) / 4).tolist(), "im": np.zeros((4, 4)).tolist()}


def _both(family, param, fixed):
    return {
        "measures": {"family": family, "params": {**fixed, param: _RANGE["start"]}},
        "sweep": {"family": family, "param": param, **_RANGE, "fixed": fixed},
    }


IGNORED_KEYS = {
    "unknown pure parameter": _both("pure", "n", {"bogus": 1}),
    "misspelt cc angle": _both("cc", "theta_a", {**_CC, "theta_B": 1.0}),
    "unknown top-level key": {
        "measures": {"family": "rho_d", "params": {"w": 0.1, "s": 0.1}, "parms": {}},
        "sweep": {"family": "rho_d", "param": "s", **_RANGE, "fixd": {"w": 0.1}},
    },
}
RECORD_ERRORS = {
    "swept parameter also fixed": {
        "sweep": {"family": "rho_d", "param": "s", **_RANGE, "fixed": {"w": 0.1, "s": 0.1}},
    },
    "c beside swept c1": _both("bell_diagonal", "c1", {"c": [0.1, 0.2, 0.3]}),
    "cc table without angles": {
        "measures": {"family": "cc", "params": {"p": [[2, 0], [0, -1]]}},
        "sweep": {"family": "cc", "param": "phi_a", **_RANGE, "fixed": {"p": [[2, 0], [0, -1]]}},
    },
    "missing rho_d w": _both("rho_d", "s", {}),
    "string rho_d w": _both("rho_d", "s", {"w": "big"}),
    "bool rho_d w": _both("rho_d", "s", {"w": True}),
    "huge rho_d w": _both("rho_d", "s", {"w": _HUGE}),
    "bell c1 without c3": _both("bell_diagonal", "c1", {"c2": 0.1}),
    "short cq vector": _both("cq", "p1", {**_CQ, "a1": [1, 0]}),
    "bool cq vector": _both("cq", "p1", {**_CQ, "a1": [True, False, False]}),
    "string cq vector": _both("cq", "p1", {**_CQ, "a2": ["0", "0", "1"]}),
    "huge cq vector entry": _both("cq", "p1", {**_CQ, "a2": [0, 0, _HUGE]}),
    "string raw matrix": {
        "measures": {
            "family": "raw",
            "params": {**_RAW, "re": [list(map(str, row)) for row in _RAW["re"]]},
        },
    },
    "nested raw entry": {
        "measures": {"family": "raw", "params": {**_RAW, "im": [[0, 0, 0, [0]], *_RAW["im"][1:]]}},
    },
    "list as family": {
        "measures": {"family": ["rho_d"], "params": {"w": 0.1, "s": 0.1}},
        "sweep": {"family": ["rho_d"], "param": "s", **_RANGE, "fixed": {"w": 0.1}},
    },
}


def assert_exit_2_before_any_output(capsys, monkeypatch, records):
    def no_rows(rho):
        pytest.fail("a report was computed for a rejected record")

    monkeypatch.setattr(cli, "full_report", no_rows)
    for command, record in records.items():
        code, out, err = run_cli(capsys, command, "--inline", json.dumps(record))
        assert (code, out) == (2, ""), command
        assert err.startswith("error: "), command


@pytest.mark.parametrize("case", sorted(IGNORED_KEYS))
def test_ignored_parameter_exit_2_before_any_output(capsys, monkeypatch, case):
    assert_exit_2_before_any_output(capsys, monkeypatch, IGNORED_KEYS[case])


@pytest.mark.parametrize("case", sorted(RECORD_ERRORS))
def test_record_error_exits_2_before_any_output(capsys, monkeypatch, case):
    assert_exit_2_before_any_output(capsys, monkeypatch, RECORD_ERRORS[case])


def test_infinite_angle_is_an_invalid_state(capsys):
    fixed = {"theta": math.inf, "phi": 0.0, "a1": [1, 0, 0], "a2": [0, 0, 1]}
    record = {"family": "cq", "params": {**fixed, "p1": 0.3}}
    code, out, err = run_cli(capsys, "measures", "--inline", json.dumps(record))
    assert (code, out) == (3, "")
    assert err.startswith("invalid state:") and "finite" in err
    record = {"family": "cq", "param": "p1", **_RANGE, "fixed": fixed}
    code, out, _ = run_cli(capsys, "sweep", "--inline", json.dumps(record))
    rows = list(csv.DictReader(io.StringIO(out)))
    assert code == 0 and len(rows) == 3
    assert all("finite" in row["error"] and row["mmc"] == "" for row in rows)


class TestVerify:
    def test_filtered_run_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--filter", "pure")
        assert code == 0
        lines = [l for l in out.splitlines() if l.startswith(("PASS", "FAIL"))]
        assert lines and all(l.startswith("PASS") for l in lines)
        assert all(l.split()[1].startswith("pure") for l in lines)

    def test_spot_filter_runs_subset(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--filter", "rho_d.spot")
        assert code == 0
        lines = [l for l in out.splitlines() if l.startswith("PASS")]
        assert len(lines) == 2

    def test_failure_exit_4(self, capsys, monkeypatch):
        broken = [VerifyResult("fabricated.check", 1.0, 0.0, 1e-12)]
        monkeypatch.setattr(cli, "run_checks", lambda prefix=None, overrides=None: broken)
        code, out, _ = run_cli(capsys, "verify")
        assert code == 4
        assert "FAIL fabricated.check" in out

    def test_passed_is_derived_not_set(self):
        assert not VerifyResult("derived.check", 1.0, 0.0, 0.5).passed
        assert VerifyResult("derived.check", 1.0, 0.75, 0.5).passed
        with pytest.raises(TypeError):
            VerifyResult("derived.check", 1.0, 0.75, 0.5, passed=True)

    def test_default_seed_flag_changes_nothing(self, capsys):
        # a flag overrides only its own field; the bulk ensembles keep their grid
        _, plain, _ = run_cli(capsys, "verify", "--filter", "cq")
        _, seeded, _ = run_cli(capsys, "verify", "--filter", "cq", "--seed", "0")
        assert seeded == plain

    def test_grid_flag_parsing(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "--filter", "rho_d.spot", "--grid", "32x64")
        assert code == 0

    def test_bad_grid_flag(self, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main(["verify", "--grid", "nonsense"])
        assert err.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["measures", "--grid", "64x128"],
            ["measures", "--seed", "0"],
            ["sweep", "--refine", "40"],
        ],
    )
    def test_search_flags_are_verify_only(self, capsys, argv):
        record = '{"family": "pure", "params": {"n": 0.6}}'
        with pytest.raises(SystemExit) as err:
            cli.main(argv + ["--inline", record])
        assert err.value.code == 2

    def test_undersized_grid_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "--filter", "rho_d.spot", "--grid", "8x8")
        assert code == 2

    @pytest.mark.parametrize(
        "flags", [["--grid", "100000x100000"], ["--grid", "64x2049"], ["--refine", "10001"]]
    )
    def test_oversized_search_exit_2_before_any_check(self, capsys, monkeypatch, flags):
        # The bound is checked before any group runs, so no check may start.
        monkeypatch.setattr(verify, "ALL_CHECKS", [("boom", lambda overrides: pytest.fail("ran"))])
        code, out, err = run_cli(capsys, "verify", *flags)
        assert (code, out) == (2, "")
        assert err.startswith("error:") and ("1024x2048" in err or "10000" in err)

    @pytest.mark.parametrize(
        "flags",
        [
            ["--seed", "-1"],
            ["--filter", "pure", "--seed", "-500"],
            ["--filter", "cq", "--seed", "-101"],
            ["--filter", "cq", "--seed", "-500"],
        ],
    )
    def test_negative_seed_exit_2_before_any_check(self, capsys, monkeypatch, flags):
        # The seed is checked once, before any group runs, whatever the filter.
        monkeypatch.setattr(verify, "ALL_CHECKS", [("boom", lambda overrides: pytest.fail("ran"))])
        code, out, err = run_cli(capsys, "verify", *flags)
        assert (code, out) == (2, "")
        assert err.startswith("error: seed must be a non-negative integer")

    @pytest.mark.parametrize("seed", [-1, 1.5, True, "0"], ids=repr)
    def test_run_checks_rejects_seed(self, seed):
        with pytest.raises(ValueError, match="seed"):
            verify.run_checks(prefix="rho_d.spot", overrides={"seed": seed})

import csv
import dataclasses
import io
import itertools
import json
import math

import numpy as np
import pytest

from qcorr import cli, measures
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
    real = np.linalg.eigvalsh
    calls = itertools.count()

    def eigvalsh(h):
        if np.shape(h) == (3, 3) and next(calls) in at:
            return np.array([-1e-10, 0.25, 1.0])
        return real(h)

    monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)


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


# Each record names a parameter that its state has no use for.
_CC = {"p": [[0.4, 0.1], [0.2, 0.3]], "theta_a": 0.3, "phi_a": 0.0}
_RANGE = {"start": 0.01, "stop": 0.2, "steps": 3}
IGNORED_PARAMETER_RECORDS = {
    "unknown pure parameter": ("measures", {"family": "pure", "params": {"n": 0.5, "bogus": 1}}),
    "misspelt cc angle": ("measures", {"family": "cc", "params": {**_CC, "theta_B": 1.0}}),
    "swept parameter also fixed": (
        "sweep",
        {"family": "rho_d", "param": "s", **_RANGE, "fixed": {"w": 0.1, "s": 0.1}},
    ),
    "c beside swept c1": (
        "sweep",
        {"family": "bell_diagonal", "param": "c1", **_RANGE, "fixed": {"c": [0.1, 0.2, 0.3]}},
    ),
}


@pytest.mark.parametrize("case", sorted(IGNORED_PARAMETER_RECORDS))
def test_ignored_parameter_exit_2_before_any_output(capsys, monkeypatch, case):
    def no_rows(rho):
        pytest.fail("a report was computed for a rejected record")

    monkeypatch.setattr(cli, "full_report", no_rows)
    command, record = IGNORED_PARAMETER_RECORDS[case]
    code, out, err = run_cli(capsys, command, "--inline", json.dumps(record))
    assert (code, out) == (2, "")
    assert err.startswith("error: ")


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

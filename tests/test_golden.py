"""`qcorr measures` output on a committed corpus (tests/data/golden_reports.json).

Closed-form records must print byte for byte what the corpus holds.  Records
whose d1 came from the search must match in every other field bit for bit and
in d1 within ORACLE_TOL.  make_golden_reports.py next to the corpus wrote it.
"""

import json
from pathlib import Path

import pytest

from qcorr import cli
from qcorr.verify import ORACLE_TOL

CASES = json.loads(
    (Path(__file__).with_name("data") / "golden_reports.json").read_text(encoding="utf-8")
)


def _measures(capsys, record) -> str:
    code = cli.main(["measures", "--inline", json.dumps(record)])
    out = capsys.readouterr().out
    assert code == 0
    return out


def test_corpus_covers_both_routes():
    methods = [case["report"]["d1_method"] for case in CASES]
    families = {case["record"]["family"] for case in CASES}
    assert methods.count("closed_form") >= 50 and methods.count("oracle") >= 10
    assert families == {"pure", "rho_d", "rho_theta", "bell_diagonal", "x", "cq", "cc", "raw"}


@pytest.mark.parametrize(
    "case", [c for c in CASES if c["report"]["d1_method"] == "closed_form"]
)
def test_closed_form_records_byte_identical(capsys, case):
    assert _measures(capsys, case["record"]) == json.dumps(case["report"]) + "\n"


@pytest.mark.parametrize(
    "case", [c for c in CASES if c["report"]["d1_method"] == "oracle"]
)
def test_search_records(capsys, case):
    actual = json.loads(_measures(capsys, case["record"]))
    expected = case["report"]
    assert abs(actual.pop("d1") - expected.pop("d1")) <= ORACLE_TOL
    assert repr(actual) == repr(expected)

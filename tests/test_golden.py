"""`qcorr measures` output on a committed corpus (tests/data/golden_reports.json).

Every record must print byte for byte what the corpus holds.  The records
whose d1 takes the five-axis route, those neither X-shaped nor X-shaped up to
local rotations, are held to the oracle as well.  make_golden_reports.py next
to the corpus wrote it.
"""

import json
from pathlib import Path

import pytest

from qcorr import cli
from qcorr.measures import X_PATTERN_TOL, _local_x_d1
from qcorr.oracles import d1_oracle
from qcorr.stateio import state_from_record
from qcorr.states import bloch_matrix, is_x_shaped
from qcorr.verify import CLOSED_TOL, ORACLE_TOL

CASES = json.loads(
    (Path(__file__).with_name("data") / "golden_reports.json").read_text(encoding="utf-8")
)


def _five_axes(case) -> bool:
    rho = state_from_record(case["record"])
    return not is_x_shaped(rho.mat, X_PATTERN_TOL) and _local_x_d1(bloch_matrix(rho).tolist()) is None


FIVE_AXES = [case for case in CASES if _five_axes(case)]


def _measures(capsys, record) -> str:
    code = cli.main(["measures", "--inline", json.dumps(record)])
    out = capsys.readouterr().out
    assert code == 0
    return out


def test_corpus_covers_both_routes():
    # The X-state closed form, on X-shaped and locally X states, and the five axes.
    methods = {case["report"]["d1_method"] for case in CASES}
    families = {case["record"]["family"] for case in CASES}
    assert methods == {"closed_form"}
    assert len(CASES) - len(FIVE_AXES) >= 50 and len(FIVE_AXES) >= 10
    assert families == {"pure", "rho_d", "rho_theta", "bell_diagonal", "x", "cq", "cc", "raw"}


@pytest.mark.parametrize("case", CASES)
def test_closed_form_records_byte_identical(capsys, case):
    assert _measures(capsys, case["record"]) == json.dumps(case["report"]) + "\n"


@pytest.mark.parametrize("case", FIVE_AXES)
def test_search_records(capsys, case):
    # The records the default search served before the five-axis route: d1
    # is not above the oracle, and not below it by more than its accuracy.
    d1 = json.loads(_measures(capsys, case["record"]))["d1"]
    oracle = d1_oracle(state_from_record(case["record"]))
    assert oracle - ORACLE_TOL <= d1 <= oracle + CLOSED_TOL

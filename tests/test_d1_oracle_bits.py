"""`d1_oracle` bit for bit on a committed table (tests/data/d1_oracle_bits.json).

The table holds the exact bits of the oracle on seeded non-X states and on
states with ties, where the first-of-equals rules decide the bits, at the
default search, at 32x64/60 and at 32x64/60 with ``stop_below``, and of the
kernel ``states.frame_norms`` at the three eigen-axes of M = R R^T
(``oracle_reference._d1_eigen_axes``), so a rewrite of the kernel, the grid
or the refinement that changes any rounding fails here.
make_d1_oracle_bits.py next to the table wrote it.
"""

import json
from collections import Counter
from pathlib import Path

import pytest

from oracle_reference import _d1_eigen_axes
from qcorr.measures import full_report
from qcorr.oracles import SearchConfig, d1_oracle
from qcorr.stateio import state_from_record
from qcorr.states import is_x_shaped
from qcorr.verify import CLOSED_TOL

CASES = json.loads(
    (Path(__file__).with_name("data") / "d1_oracle_bits.json").read_text(encoding="utf-8")
)
SMALL = SearchConfig(coarse_grid=(32, 64), refine_iters=60)
# The kinds of tie appended after the 60 seeded cases, with their counts.
TIE_KINDS = {
    "x_pole": 4, "cq_pole": 4, "rotated_pure": 4, "rotated_bell_c1_c2": 4,
    "werner": 4, "rotated_werner": 4, "identity": 1, "near_identity": 4,
}


def test_table_covers_non_x_states():
    # 60 seeded non-X states, then the states with ties, tagged by kind.
    seeded, ties = CASES[:60], CASES[60:]
    assert not any("kind" in c or is_x_shaped(state_from_record(c["record"]).mat) for c in seeded)
    assert Counter(c["kind"] for c in ties) == TIE_KINDS


@pytest.mark.parametrize("case", CASES)
def test_d1_oracle_bit_exact(case):
    rho = state_from_record(case["record"])
    bits = case["d1_oracle"]
    stop_below = float.fromhex(bits["stop_below"])
    assert d1_oracle(rho).hex() == bits["default"]
    assert d1_oracle(rho, SMALL).hex() == bits["small"]
    stopped = d1_oracle(rho, SMALL, stop_below=stop_below)
    assert stopped.hex() == bits["small_stopped"]
    assert stopped <= stop_below


@pytest.mark.parametrize("case", CASES)
def test_d1_eigen_axes_bit_exact(case):
    # Any axis bounds d1 from above, so production d1 is not above the eigen-axes either.
    rho = state_from_record(case["record"])
    value = _d1_eigen_axes(rho)
    assert value.hex() == case["d1_eigen_axes"]
    assert full_report(rho).d1 <= value + CLOSED_TOL

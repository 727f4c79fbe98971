import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from qcorr.errors import RecordError, StateError
from qcorr.measures import full_report
from qcorr.stateio import (
    _FAMILIES,
    FAMILIES,
    MAX_SWEEP_STEPS,
    SWEEPABLE_PARAMS,
    SweepSpec,
    report_to_record,
    state_from_record,
    state_to_record,
    sweep_from_record,
)
from qcorr.states import (
    DensityMatrix,
    ProbTable2x2,
    XStateParams,
    bell_diagonal,
    cc_state,
    cq_state,
    pure_state,
    rho_d,
    rho_theta,
    x_state,
)
from qcorr.verify import random_density_matrix


class TestStateFromRecord:
    def test_vector_and_scalar_coefficients_together_rejected(self):
        params = {"c": [0.5, -0.3, 0.2], "c1": 0.5}
        with pytest.raises(RecordError, match="not both"):
            state_from_record({"family": "bell_diagonal", "params": params})

    def test_unknown_family(self):
        with pytest.raises(RecordError, match="family"):
            state_from_record({"family": "ghz", "params": {}})

    def test_missing_params(self):
        with pytest.raises(RecordError):
            state_from_record({"family": "pure"})
        with pytest.raises(RecordError, match="missing parameter"):
            state_from_record({"family": "pure", "params": {}})

    def test_non_numeric_parameter(self):
        with pytest.raises(RecordError):
            state_from_record({"family": "pure", "params": {"n": "big"}})

    def test_invalid_state_raises_state_error(self):
        with pytest.raises(StateError):
            state_from_record(
                {"family": "bell_diagonal", "params": {"c": [0.9, -0.5, 0.3]}}
            )

    def test_bad_shape(self):
        with pytest.raises(RecordError, match="shape"):
            state_from_record({"family": "raw", "params": {"re": [[1.0]], "im": [[0.0]]}})


_X = {"rho11": 0.1, "rho22": 0.2, "rho33": 0.3, "rho44": 0.4, "rho14": 0.15, "rho23": 0.2}
_X_EQUAL = {"rho11": 0.1, "rho22": 0.1, "rho33": 0.4, "rho44": 0.4, "rho14": 0.2, "rho23": 0.2}
_CC = {"p": [[0.4, 0.1], [0.2, 0.3]], "theta_a": 0.3, "phi_a": 0.2}
_CC_TABLE = ProbTable2x2(0.4, 0.1, 0.2, 0.3)
_CQ = {"p1": 0.3, "theta": 0.4, "phi": 1.1, "a1": [1, 0, 0], "a2": [0, 0.6, 0.8]}
_CQ_POLE = {"p1": 0.3, "theta": 0.0, "phi": 0.0, "a1": [1, 0, 0], "a2": [0, 0, 1]}
_COMPLEX = cq_state(0.3, 0.4, 1.1, [1, 0, 0], [0, 0.6, 0.8]).mat
# Each family record beside the direct constructor call it must reproduce.
RECORD_BUILDS = {
    "pure": ("pure", {"n": 0.6}, lambda: pure_state(0.6)),
    "cq": ("cq", _CQ, lambda: cq_state(0.3, 0.4, 1.1, [1, 0, 0], [0, 0.6, 0.8])),
    "cc default b": ("cc", _CC, lambda: cc_state(_CC_TABLE, 0.3, 0.2)),
    "cc explicit b": (
        "cc",
        {**_CC, "theta_b": 1.0, "phi_b": 2.5},
        lambda: cc_state(_CC_TABLE, 0.3, 0.2, 1.0, 2.5),
    ),
    "cq at the pole": ("cq", _CQ_POLE, lambda: cq_state(0.3, 0.0, 0.0, [1, 0, 0], [0, 0, 1])),
    "cc default b at the pole": (
        "cc",
        {**_CC, "theta_a": 0.0, "phi_a": 0.0},
        lambda: cc_state(_CC_TABLE, 0.0, 0.0),
    ),
    "x": ("x", _X, lambda: x_state(XStateParams(**_X))),
    "x equal blocks": ("x", _X_EQUAL, lambda: x_state(XStateParams(**_X_EQUAL))),
    "rho_d": ("rho_d", {"w": 0.1, "s": 0.2}, lambda: rho_d(0.1, 0.2)),
    "rho_theta": ("rho_theta", {"theta": 0.7}, lambda: rho_theta(0.7)),
    "rho_theta quarter pi": (
        "rho_theta",
        {"theta": math.pi / 4},
        lambda: rho_theta(math.pi / 4),
    ),
    "bell c": ("bell_diagonal", {"c": [0.5, -0.3, 0.2]}, lambda: bell_diagonal(0.5, -0.3, 0.2)),
    "bell c1 c2 c3": (
        "bell_diagonal",
        {"c1": 0.5, "c2": -0.3, "c3": 0.2},
        lambda: bell_diagonal(0.5, -0.3, 0.2),
    ),
    "raw": (
        "raw",
        {"re": _COMPLEX.real.tolist(), "im": _COMPLEX.imag.tolist()},
        lambda: DensityMatrix(_COMPLEX),
    ),
    "raw identity quarter": (
        "raw",
        {"re": (np.eye(4) / 4).tolist(), "im": np.zeros((4, 4)).tolist()},
        lambda: DensityMatrix(np.eye(4) / 4),
    ),
}


@pytest.mark.parametrize("case", sorted(RECORD_BUILDS))
def test_record_builds_the_constructor_state(case):
    family, params, build = RECORD_BUILDS[case]
    rho = state_from_record(json.loads(json.dumps({"family": family, "params": params})))
    assert rho.mat.tobytes() == build().mat.tobytes()


def test_readme_record_table_lists_every_parameter():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("| family | params |\n|---|---|\n")[1].split("\n\n")[0]
    listed = {}
    for row in table.splitlines():
        family, params = row.strip("|").split("|")
        listed[family.strip().strip("`")] = set(re.findall(r"`(\w+)`", params))
    assert listed == {family: set(shapes) for family, (_, shapes) in _FAMILIES.items()}
    assert tuple(listed) == FAMILIES


class TestRoundTrip:
    def test_raw_record_round_trips_bit_exactly(self):
        rng = np.random.default_rng(127)
        for _ in range(20):
            rho = random_density_matrix(rng)
            text = json.dumps(state_to_record(rho))
            back = state_from_record(json.loads(text))
            assert np.array_equal(back.mat, rho.mat)

    def test_report_record_flat_and_precise(self):
        rep = full_report(pure_state(0.6))
        record = report_to_record(rep)
        assert record["d1_method"] == "closed_form"
        numeric = {k: v for k, v in record.items() if k != "d1_method"}
        assert all(isinstance(v, float) for v in numeric.values())
        # JSON round trip preserves every numeric field exactly
        back = json.loads(json.dumps(record))
        assert all(back[k] == v for k, v in numeric.items())
        assert set(record) == {
            "mmc",
            "correlation_distance",
            "negativity",
            "d1",
            "d1_method",
            "t1",
            "t2",
            "t3",
            "bloch_a_x",
            "bloch_a_y",
            "bloch_a_z",
            "bloch_b_x",
            "bloch_b_y",
            "bloch_b_z",
        }


class TestSweepSpec:
    def test_valid_record(self):
        spec = sweep_from_record(
            {"family": "rho_theta", "param": "theta", "start": 0.1, "stop": 1.4, "steps": 14}
        )
        values = spec.values()
        assert len(values) == 14
        assert values[0] == pytest.approx(0.1)
        assert values[-1] == pytest.approx(1.4)

    def test_record_for_value_merges_fixed(self):
        spec = SweepSpec(family="rho_d", param="s", start=0.01, stop=0.2, steps=5, fixed={"w": 0.1})
        record = spec.record_for(0.15)
        assert record == {"family": "rho_d", "params": {"w": 0.1, "s": 0.15}}

    def test_sweeping_vector_component(self):
        spec = SweepSpec(
            family="bell_diagonal",
            param="c1",
            start=0.0,
            stop=0.4,
            steps=3,
            fixed={"c2": -0.3, "c3": 0.2},
        )
        rho = state_from_record(spec.record_for(0.4))
        assert np.abs(rho.mat - bell_diagonal(0.4, -0.3, 0.2).mat).max() == 0.0

    def test_sweepable_parameters_are_the_scalar_ones(self):
        assert SWEEPABLE_PARAMS == {
            "pure": ("n",),
            "cq": ("p1", "theta", "phi"),
            "cc": ("theta_a", "phi_a", "theta_b", "phi_b"),
            "x": ("rho11", "rho22", "rho33", "rho44", "rho14", "rho23"),
            "rho_d": ("w", "s"),
            "rho_theta": ("theta",),
            "bell_diagonal": ("c1", "c2", "c3"),
        }

    def test_invalid_specs(self):
        with pytest.raises(RecordError):
            sweep_from_record({"family": "raw", "param": "n", "start": 0, "stop": 1, "steps": 3})
        with pytest.raises(RecordError):
            sweep_from_record({"family": "pure", "param": "w", "start": 0, "stop": 1, "steps": 3})
        with pytest.raises(RecordError):
            sweep_from_record({"family": "pure", "param": "n", "start": 0, "stop": 1, "steps": 1})
        with pytest.raises(RecordError):
            sweep_from_record({"family": "pure", "param": "n", "start": 1, "stop": 0, "steps": 4})
        with pytest.raises(RecordError):
            sweep_from_record({"family": "pure", "param": "n", "start": 0, "stop": 1})

    @pytest.mark.parametrize(
        "start, stop",
        [(-math.inf, 0.9), (0.1, math.inf), (math.nan, 0.9), (-1e308, 1e308)],
    )
    def test_non_finite_range_rejected(self, start, stop):
        record = {"family": "pure", "param": "n", "start": start, "stop": stop, "steps": 3}
        with pytest.raises(RecordError, match="must be finite"):
            sweep_from_record(record)

    def test_steps_cap(self):
        record = {"family": "pure", "param": "n", "start": 0.1, "stop": 0.9}
        assert len(sweep_from_record({**record, "steps": MAX_SWEEP_STEPS}).values()) == MAX_SWEEP_STEPS
        with pytest.raises(RecordError, match="steps must lie in"):
            sweep_from_record({**record, "steps": MAX_SWEEP_STEPS + 1})
        with pytest.raises(RecordError, match="steps must lie in"):
            sweep_from_record({**record, "steps": 10**12})

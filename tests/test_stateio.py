import json
import math

import numpy as np
import pytest

from qcorr.errors import RecordError, StateError
from qcorr.measures import full_report
from qcorr.stateio import (
    MAX_SWEEP_STEPS,
    SWEEPABLE_PARAMS,
    SweepSpec,
    report_to_record,
    state_from_record,
    state_to_record,
    sweep_from_record,
)
from qcorr.states import bell_diagonal, pure_state, rho_theta
from qcorr.verify import random_density_matrix


class TestStateFromRecord:
    def test_pure(self):
        rho = state_from_record({"family": "pure", "params": {"n": 0.6}})
        assert np.abs(rho.mat - pure_state(0.6).mat).max() == 0.0

    def test_cq(self):
        record = {
            "family": "cq",
            "params": {"p1": 0.3, "theta": 0.0, "phi": 0.0, "a1": [1, 0, 0], "a2": [0, 0, 1]},
        }
        rho = state_from_record(record)
        assert rho.mat[0, 0].real == pytest.approx(0.3 * 0.5)

    def test_cc_with_default_b_angles(self):
        record = {
            "family": "cc",
            "params": {"p": [[0.4, 0.1], [0.2, 0.3]], "theta_a": 0.0, "phi_a": 0.0},
        }
        rho = state_from_record(record)
        assert np.allclose(rho.mat, np.diag([0.4, 0.1, 0.2, 0.3]))

    def test_x(self):
        record = {
            "family": "x",
            "params": {
                "rho11": 0.1,
                "rho22": 0.1,
                "rho33": 0.4,
                "rho44": 0.4,
                "rho14": 0.2,
                "rho23": 0.2,
            },
        }
        rho = state_from_record(record)
        assert rho.mat[0, 3].real == pytest.approx(0.2)

    def test_rho_d_and_rho_theta(self):
        rho = state_from_record({"family": "rho_d", "params": {"w": 0.1, "s": 0.2}})
        assert rho.mat[0, 0].real == pytest.approx(0.1)
        rho = state_from_record({"family": "rho_theta", "params": {"theta": math.pi / 4}})
        assert np.abs(rho.mat - rho_theta(math.pi / 4).mat).max() == 0.0

    def test_bell_diagonal_both_forms(self):
        by_vector = state_from_record(
            {"family": "bell_diagonal", "params": {"c": [0.5, -0.3, 0.2]}}
        )
        by_scalars = state_from_record(
            {"family": "bell_diagonal", "params": {"c1": 0.5, "c2": -0.3, "c3": 0.2}}
        )
        expected = bell_diagonal(0.5, -0.3, 0.2)
        assert np.abs(by_vector.mat - expected.mat).max() == 0.0
        assert np.abs(by_scalars.mat - expected.mat).max() == 0.0

    def test_vector_and_scalar_coefficients_together_rejected(self):
        params = {"c": [0.5, -0.3, 0.2], "c1": 0.5}
        with pytest.raises(RecordError, match="not both"):
            state_from_record({"family": "bell_diagonal", "params": params})

    def test_raw_identity_quarter(self):
        re = (np.eye(4) / 4).tolist()
        im = np.zeros((4, 4)).tolist()
        rho = state_from_record({"family": "raw", "params": {"re": re, "im": im}})
        assert np.allclose(rho.mat, np.eye(4) / 4)

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

"""Tagged-record serialization for states, sweeps, and measure reports.

A state record is a mapping {"family": <name>, "params": {...}} with
family-specific numeric parameters; "raw" supplies a full 4x4 matrix as two
real arrays.  Floats are emitted with ``repr`` so every value round-trips
bit-exactly through JSON.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import RecordError
from .measures import MeasureReport
from .states import (
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

# Every family's parameters and their shapes, () for a scalar; a record may
# carry no other parameter.
_PARAM_SHAPES = {
    "pure": {"n": ()},
    "cq": {"p1": (), "theta": (), "phi": (), "a1": (3,), "a2": (3,)},
    "cc": {"p": (2, 2), "theta_a": (), "phi_a": (), "theta_b": (), "phi_b": ()},
    "x": dict.fromkeys(("rho11", "rho22", "rho33", "rho44", "rho14", "rho23"), ()),
    "rho_d": {"w": (), "s": ()},
    "rho_theta": {"theta": ()},
    "bell_diagonal": {"c": (3,), "c1": (), "c2": (), "c3": ()},
    "raw": {"re": (4, 4), "im": (4, 4)},
}
FAMILIES = tuple(_PARAM_SHAPES)


def _check_names(family: str, names) -> None:
    known = _PARAM_SHAPES[family]
    unknown = [name for name in names if name not in known]
    if unknown:
        raise RecordError(
            f"unknown parameters {unknown} for family {family!r}; expected some of {tuple(known)}"
        )
    if "c" in names and any(name in names for name in ("c1", "c2", "c3")):
        raise RecordError("give Bell-diagonal coefficients as 'c' or as 'c1', 'c2', 'c3', not both")


def _number(params: dict, key: str, default=None) -> float:
    if key not in params:
        if default is not None:
            return default
        raise RecordError(f"missing parameter {key!r}")
    value = params[key]
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise RecordError(f"parameter {key!r} must be a real number, got {value!r}")
    return float(value)


def _array(params: dict, key: str, shape: tuple[int, ...]) -> np.ndarray:
    if key not in params:
        raise RecordError(f"missing parameter {key!r}")
    try:
        arr = np.asarray(params[key], dtype=float)
    except (TypeError, ValueError) as exc:
        raise RecordError(f"parameter {key!r} must be a numeric array") from exc
    if arr.shape != shape:
        raise RecordError(f"parameter {key!r} must have shape {shape}, got {arr.shape}")
    return arr


def _bell_coeffs(params: dict) -> tuple[float, float, float]:
    if "c" in params:
        c = _array(params, "c", (3,))
        return float(c[0]), float(c[1]), float(c[2])
    return (_number(params, "c1"), _number(params, "c2"), _number(params, "c3"))


def state_from_record(record) -> DensityMatrix:
    """Build a density matrix from a tagged record.

    Malformed records raise :class:`RecordError`; structurally fine records
    whose parameters describe an invalid state raise :class:`StateError` from
    the family constructor.
    """
    if not isinstance(record, dict):
        raise RecordError(f"state record must be a mapping, got {type(record).__name__}")
    family = record.get("family")
    if family not in FAMILIES:
        raise RecordError(f"unknown state family {family!r}; expected one of {FAMILIES}")
    params = record.get("params")
    if not isinstance(params, dict):
        raise RecordError("state record must carry a 'params' mapping")
    _check_names(family, params)

    if family == "pure":
        return pure_state(_number(params, "n"))
    if family == "cq":
        return cq_state(
            _number(params, "p1"),
            _number(params, "theta"),
            _number(params, "phi"),
            _array(params, "a1", (3,)),
            _array(params, "a2", (3,)),
        )
    if family == "cc":
        table = ProbTable2x2.from_array(_array(params, "p", (2, 2)))
        theta_a = _number(params, "theta_a")
        phi_a = _number(params, "phi_a")
        theta_b = _number(params, "theta_b") if "theta_b" in params else None
        phi_b = _number(params, "phi_b") if "phi_b" in params else None
        return cc_state(table, theta_a, phi_a, theta_b, phi_b)
    if family == "x":
        return x_state(
            XStateParams(
                rho11=_number(params, "rho11"),
                rho22=_number(params, "rho22"),
                rho33=_number(params, "rho33"),
                rho44=_number(params, "rho44"),
                rho14=_number(params, "rho14"),
                rho23=_number(params, "rho23"),
            )
        )
    if family == "rho_d":
        return rho_d(_number(params, "w"), _number(params, "s"))
    if family == "rho_theta":
        return rho_theta(_number(params, "theta"))
    if family == "bell_diagonal":
        return bell_diagonal(*_bell_coeffs(params))
    # raw
    re = _array(params, "re", (4, 4))
    im = _array(params, "im", (4, 4))
    return DensityMatrix(re + 1j * im)


def state_to_record(rho: DensityMatrix) -> dict:
    """Serialize a density matrix as a raw record; entries round-trip bit-exactly."""
    return {
        "family": "raw",
        "params": {
            "re": rho.mat.real.tolist(),
            "im": rho.mat.imag.tolist(),
        },
    }


def report_to_record(report: MeasureReport) -> dict:
    """Flatten a measure report into named real numbers plus the d1 method tag."""
    t1, t2, t3 = report.singular_values
    ax, ay, az = report.bloch_a
    bx, by, bz = report.bloch_b
    return {
        "mmc": report.mmc,
        "correlation_distance": report.correlation_distance,
        "negativity": report.negativity,
        "d1": report.d1,
        "d1_method": report.d1_method,
        "t1": t1,
        "t2": t2,
        "t3": t3,
        "bloch_a_x": ax,
        "bloch_a_y": ay,
        "bloch_a_z": az,
        "bloch_b_x": bx,
        "bloch_b_y": by,
        "bloch_b_z": bz,
    }


# Rows take about a millisecond each, so this many already take minutes; the
# cap also bounds the array np.linspace allocates up front.
MAX_SWEEP_STEPS = 10**6

# The scalar parameters of each family that has any.
SWEEPABLE_PARAMS = {
    family: tuple(name for name, shape in shapes.items() if shape == ())
    for family, shapes in _PARAM_SHAPES.items()
    if () in shapes.values()
}


@dataclass(frozen=True)
class SweepSpec:
    """One family parameter swept over an inclusive linear range."""

    family: str
    param: str
    start: float
    stop: float
    steps: int
    fixed: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.family not in SWEEPABLE_PARAMS:
            raise RecordError(f"family {self.family!r} cannot be swept")
        if self.param not in SWEEPABLE_PARAMS[self.family]:
            raise RecordError(
                f"parameter {self.param!r} is not sweepable for family {self.family!r}; "
                f"choose from {SWEEPABLE_PARAMS[self.family]}"
            )
        if self.param in self.fixed:
            raise RecordError(f"parameter {self.param!r} is swept and cannot also be fixed")
        _check_names(self.family, [*self.fixed, self.param])
        if not 2 <= self.steps <= MAX_SWEEP_STEPS:
            raise RecordError(f"steps must lie in [2, {MAX_SWEEP_STEPS}], got {self.steps}")
        if not math.isfinite(self.stop - self.start):
            raise RecordError(
                f"start, stop and their difference must be finite, got [{self.start}, {self.stop}]"
            )
        if not self.start < self.stop:
            raise RecordError(f"start must be below stop, got [{self.start}, {self.stop}]")

    def values(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.steps)

    def record_for(self, value: float) -> dict:
        params = dict(self.fixed)
        params[self.param] = float(value)
        return {"family": self.family, "params": params}


def sweep_from_record(record) -> SweepSpec:
    if not isinstance(record, dict):
        raise RecordError(f"sweep record must be a mapping, got {type(record).__name__}")
    for key in ("family", "param", "start", "stop", "steps"):
        if key not in record:
            raise RecordError(f"sweep record is missing {key!r}")
    steps = record["steps"]
    if isinstance(steps, bool) or not isinstance(steps, numbers.Integral):
        raise RecordError(f"steps must be an integer, got {steps!r}")
    fixed = record.get("fixed", {})
    if not isinstance(fixed, dict):
        raise RecordError("sweep 'fixed' must be a mapping")
    return SweepSpec(
        family=record["family"],
        param=record["param"],
        start=_number(record, "start"),
        stop=_number(record, "stop"),
        steps=int(steps),
        fixed=dict(fixed),
    )

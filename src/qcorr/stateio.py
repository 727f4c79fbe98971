"""Tagged-record serialization for states, sweeps, and measure reports.

A state record is {"family": <name>, "params": {...}} and nothing else; "raw"
supplies a full 4x4 matrix as two real arrays.  ``_FAMILIES`` is the schema.
A record is read in two phases: checking it against the table raises only
:class:`RecordError` (an unknown key, an unknown, missing or ill-typed
parameter), and only then does the family constructor run, raising only
:class:`StateError`.  A sweep checks its record before any row.  Floats are
emitted with ``repr`` so every value round-trips bit-exactly through JSON.
"""

from __future__ import annotations

import itertools
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
    _density_matrix,
    bell_diagonal,
    cc_state,
    cq_state,
    pure_state,
    rho_d,
    rho_theta,
    x_state,
)

# Each family's constructor, called with the record's parameters as keywords,
# and the shape of every parameter it may carry, () for a real number.
_FAMILIES = {
    "pure": (pure_state, {"n": ()}),
    "cq": (cq_state, {"p1": (), "theta": (), "phi": (), "a1": (3,), "a2": (3,)}),
    "cc": (
        lambda p, **angles: cc_state(ProbTable2x2.from_array(p), **angles),
        {"p": (2, 2), "theta_a": (), "phi_a": (), "theta_b": (), "phi_b": ()},
    ),
    "x": (
        lambda **entries: x_state(XStateParams(**entries)),
        dict.fromkeys(("rho11", "rho22", "rho33", "rho44", "rho14", "rho23"), ()),
    ),
    "rho_d": (rho_d, {"w": (), "s": ()}),
    "rho_theta": (rho_theta, {"theta": ()}),
    # "c" stands for c1, c2, c3 together.
    "bell_diagonal": (bell_diagonal, {"c": (3,), "c1": (), "c2": (), "c3": ()}),
    "raw": (lambda re, im: DensityMatrix(re + 1j * im), {"re": (4, 4), "im": (4, 4)}),
}
# Every other parameter is required.
_OPTIONAL = frozenset({"theta_b", "phi_b", "c"})
FAMILIES = tuple(_FAMILIES)


def _check_keys(what: str, record, allowed: tuple[str, ...]) -> None:
    if not isinstance(record, dict):
        raise RecordError(f"{what} record must be a mapping, got {type(record).__name__}")
    unknown = [key for key in record if key not in allowed]
    if unknown:
        raise RecordError(f"unknown keys {unknown} in {what} record; expected some of {allowed}")


def _real_type(t: type) -> bool:
    # float and int, the types JSON numbers parse to, skip the slower ABC check.
    return t is float or t is int or (issubclass(t, numbers.Real) and not issubclass(t, bool))


def _read(name: str, value, shape: tuple[int, ...]):
    """``value`` as a float if ``shape`` is (), else as a float array of ``shape``."""
    try:
        if not shape:
            if _real_type(type(value)):
                return float(value)
        else:
            # np.array parses numeric strings and takes bools, so the
            # elements' types are checked too: once per type, not per element.
            arr = np.array(value, dtype=float)
            if arr.shape == shape:
                elements = value if len(shape) == 1 else itertools.chain.from_iterable(value)
                if all(map(_real_type, set(map(type, elements)))):
                    return arr
    except (TypeError, ValueError, OverflowError):
        pass  # not a nested sequence of numbers, or an integer beyond the float range
    what = "a real number" if not shape else f"an array of real numbers of shape {shape}"
    raise RecordError(f"parameter {name!r} must be {what}, got {value!r}")


def _read_params(family: str, params: dict) -> dict:
    """Check ``params`` against the family's table and read every value; raises only RecordError."""
    shapes = _FAMILIES[family][1]
    unknown = [name for name in params if name not in shapes]
    if unknown:
        raise RecordError(
            f"unknown parameters {unknown} for family {family!r}; expected some of {tuple(shapes)}"
        )
    if "c" in params and not params.keys().isdisjoint(("c1", "c2", "c3")):
        raise RecordError("give Bell-diagonal coefficients as 'c' or as 'c1', 'c2', 'c3', not both")
    values = {name: _read(name, value, shapes[name]) for name, value in params.items()}
    if "c" in values:
        values.update(zip(("c1", "c2", "c3"), values.pop("c").tolist()))
    for name in shapes:
        if name not in values and name not in _OPTIONAL:
            raise RecordError(f"missing parameter {name!r}")
    return values


def state_from_record(record) -> DensityMatrix:
    """Build a density matrix from a tagged record.

    Malformed records raise :class:`RecordError` before any state is built;
    well-formed records whose parameters describe an invalid state raise
    :class:`StateError` from the family constructor.
    """
    _check_keys("state", record, ("family", "params"))
    family = record.get("family")
    if family not in FAMILIES:
        raise RecordError(f"unknown state family {family!r}; expected one of {FAMILIES}")
    params = record.get("params")
    if not isinstance(params, dict):
        raise RecordError("state record must carry a 'params' mapping")
    return _FAMILIES[family][0](**_read_params(family, params))


def state_to_record(rho: DensityMatrix) -> dict:
    """Serialize a density matrix as a raw record; entries round-trip bit-exactly."""
    m = _density_matrix(rho).mat
    return {"family": "raw", "params": {"re": m.real.tolist(), "im": m.imag.tolist()}}


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


# Every sweepable family takes the d1 closed form, so a row takes 0.05-0.1 ms
# (CPython 3.11, one core of an x86-64 Xeon) and this many one to two minutes;
# the cap also bounds the array np.linspace allocates up front.
MAX_SWEEP_STEPS = 10**6

# The scalar parameters of each family that has any.
SWEEPABLE_PARAMS = {
    family: tuple(name for name, shape in shapes.items() if shape == ())
    for family, (_, shapes) in _FAMILIES.items()
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
        if not isinstance(self.family, str) or self.family not in SWEEPABLE_PARAMS:
            raise RecordError(f"family {self.family!r} cannot be swept")
        if self.param not in SWEEPABLE_PARAMS[self.family]:
            raise RecordError(
                f"parameter {self.param!r} is not sweepable for family {self.family!r}; "
                f"choose from {SWEEPABLE_PARAMS[self.family]}"
            )
        if self.param in self.fixed:
            raise RecordError(f"parameter {self.param!r} is swept and cannot also be fixed")
        _read_params(self.family, {**self.fixed, self.param: self.start})
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
    required = ("family", "param", "start", "stop", "steps")
    _check_keys("sweep", record, (*required, "fixed"))
    for key in required:
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
        start=_read("start", record["start"], ()),
        stop=_read("stop", record["stop"], ()),
        steps=int(steps),
        fixed=dict(fixed),
    )

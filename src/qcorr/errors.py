"""Exception types shared across the package."""


class QcorrError(Exception):
    """Base class for all qcorr errors."""


class DimensionError(QcorrError, ValueError):
    """Operand dimensions are unsupported or inconsistent."""


class StateError(QcorrError, ValueError):
    """Invalid state parameters, or a matrix violating density-matrix invariants."""


class RecordError(QcorrError, ValueError):
    """A state or sweep record could not be interpreted."""

"""Correlation measures for two-qubit quantum states.

Computes and cross-validates four quantities on 4x4 density matrices: the
maximal mutual correlation (operator norm of the covariance matrix of local
observables), the correlation distance to the product of marginals, the
negativity of the partial transpose, and the trace-norm measurement discord.
"""

from .errors import (
    DimensionError,
    QcorrError,
    RecordError,
    StateError,
)
from .measures import (
    MeasureReport,
    correlation_distance,
    covariance_matrix,
    d1_x_state,
    full_report,
    mmc,
    negativity,
    singular_values_3,
)
from .oracles import (
    DEFAULT_SEARCH,
    SearchConfig,
    classical_cov,
    d1_oracle,
    disturbance_norms,
    mmc_oracle,
)
from .states import (
    DensityMatrix,
    ProbTable2x2,
    XStateParams,
    bell_diagonal,
    bloch_vectors,
    cc_state,
    correlation_tensor,
    cq_state,
    is_x_shaped,
    partial_trace,
    partial_transpose,
    pauli,
    projector_pair,
    pure_state,
    qubit_state,
    rho_d,
    rho_d_smax,
    rho_theta,
    x_state,
)
from .stateio import (
    report_to_record,
    state_from_record,
    state_to_record,
    sweep_from_record,
)
from .verify import VerifyResult, format_line, run_checks

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_SEARCH",
    "DensityMatrix",
    "DimensionError",
    "MeasureReport",
    "ProbTable2x2",
    "QcorrError",
    "RecordError",
    "SearchConfig",
    "StateError",
    "VerifyResult",
    "XStateParams",
    "bell_diagonal",
    "bloch_vectors",
    "cc_state",
    "classical_cov",
    "correlation_distance",
    "correlation_tensor",
    "covariance_matrix",
    "cq_state",
    "d1_oracle",
    "d1_x_state",
    "disturbance_norms",
    "format_line",
    "full_report",
    "is_x_shaped",
    "mmc",
    "mmc_oracle",
    "negativity",
    "partial_trace",
    "partial_transpose",
    "pauli",
    "projector_pair",
    "pure_state",
    "qubit_state",
    "report_to_record",
    "rho_d",
    "rho_d_smax",
    "rho_theta",
    "run_checks",
    "singular_values_3",
    "state_from_record",
    "state_to_record",
    "sweep_from_record",
    "x_state",
]

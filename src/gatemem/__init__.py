"""Detect and quantify gate-history memory in quantum processors.

The package reconstructs quantum channels from measurement counts,
tests whether sequential gates compose independently, and scores the
memory with CP-violation, averaged and worst-case channel distances, a
memory-length scan, and a relative-entropy proxy, all validated against
a built-in system-environment simulator with a tunable memory coupling.
"""

from .channels import (
    ChoiMatrix,
    GateLabel,
    QuantumChannel,
    apply,
    choi_from_superop,
    compose,
    ideal_channel,
    identity_channel,
    invert,
    random_channel,
)
from .exceptions import (
    ConvergenceError,
    DimensionError,
    GatememError,
    IncompleteDataError,
    LabelError,
    SingularChannelError,
    SolverError,
    SupportError,
    ValidationError,
)
from .nonmarkov import (
    AvgDistanceResult,
    ConditionalMap,
    DistanceMatrix,
    MemoryScan,
    avg_trace_distance,
    conditional_map,
    conditional_vs_marginal_matrix,
    cp_violation,
    diamond_distance,
    diamond_lower_bound,
    gate_dependence_matrix,
    markovian_choi_reference,
    memory_scan,
    process_tensor_proxy,
    statistical_floor,
)
from .qcore import (
    DensityMatrix,
    haar_random_unitary,
    relative_entropy,
    trace_distance,
)
from .simulator import (
    SEModel,
    SpamSpec,
    build_default_model,
    cji_circuit,
    extract_channel,
    run_sequence,
    sample_counts,
)
from .tomography import (
    CountRecord,
    TomographyFrame,
    TomographyResult,
    build_frame,
    enumerate_circuits,
    expected_distribution,
    mle_state,
    process_tomography,
)

__version__ = "0.1.0"

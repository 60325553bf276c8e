"""Detect and quantify gate-history memory in quantum processors.

The package reconstructs quantum channels from measurement counts,
tests whether sequential gates compose independently, and scores the
memory with CP-violation, averaged and worst-case channel distances, a
memory-length scan, and a relative-entropy proxy, all validated against
a built-in system-environment simulator with a tunable memory coupling.

``import gatemem`` imports no submodule.  The public names below, and
the submodules themselves, load on first access (PEP 562), so a command
line process pays only for the modules its command runs.
"""

import importlib

# The public names, by the submodule that defines them.
_EXPORTS = {
    "channels": (
        "ChoiMatrix GateLabel QuantumChannel apply choi_from_superop compose "
        "ideal_channel identity_channel invert random_channel"
    ).split(),
    "exceptions": (
        "ConvergenceError DimensionError GatememError IncompleteDataError "
        "LabelError SingularChannelError SolverError ValidationError"
    ).split(),
    "nonmarkov": (
        "AvgDistanceResult ConditionalMap DistanceMatrix MemoryScan "
        "avg_trace_distance conditional_map conditional_vs_marginal_matrix "
        "cp_violation diamond_distance diamond_lower_bound gate_dependence_matrix "
        "markovian_choi_reference memory_scan process_tensor_proxy "
        "statistical_floor"
    ).split(),
    "qcore": "DensityMatrix haar_random_unitary trace_distance".split(),
    "simulator": (
        "SEModel SpamSpec build_default_model cji_circuit extract_channel "
        "run_sequence sample_counts"
    ).split(),
    "tomography": (
        "CountRecord TomographyFrame TomographyResult build_frame "
        "enumerate_circuits expected_distribution mle_state process_tomography"
    ).split(),
}

_SUBMODULES = (
    "channels", "cli", "errprop", "exceptions", "nonmarkov", "pipeline",
    "qcore", "sdp", "serialize", "simulator", "tomography",
)

_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_ORIGIN)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_ORIGIN[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})

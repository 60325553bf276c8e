"""Exception types shared across the package, and the one way to name an error's item."""

import contextlib


class GatememError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(GatememError):
    """A domain object failed its construction invariants."""


class DimensionError(ValidationError):
    """Operands have inconsistent or unsupported dimensions."""


class LabelError(ValidationError):
    """Unknown gate, preparation, or measurement label."""


class SingularChannelError(GatememError):
    """A channel superoperator is numerically singular.  Carries both
    extreme singular values."""

    def __init__(self, message: str, sigma_min: float, sigma_max: float):
        super().__init__(message)
        self.sigma_min = sigma_min
        self.sigma_max = sigma_max


class IncompleteDataError(ValidationError):
    """Tomography input does not cover every required configuration.
    ``missing`` lists the absent labels."""

    def __init__(self, message: str, missing):
        super().__init__(message)
        self.missing = list(missing)


class ConvergenceError(GatememError):
    """An iterative estimator hit its iteration cap.  ``last_iterate``
    holds the final (non-converged) estimate."""

    def __init__(self, message: str, last_iterate, iterations: int):
        super().__init__(message)
        self.last_iterate = last_iterate
        self.iterations = iterations


class SolverError(GatememError):
    """The SDP solver could not certify the requested gap.  ``gap`` is
    the best primal-dual gap achieved."""

    def __init__(self, message: str, gap: float):
        super().__init__(message)
        self.gap = gap


@contextlib.contextmanager
def context(prefix: str):
    """An error of the package raised in the block keeps its type and
    fields and gains the prefix ``<prefix>: ``, outermost block first."""
    try:
        yield
    except GatememError as err:
        err.args = (f"{prefix}: {err}", *err.args[1:])
        raise

"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument is outside the mathematical domain of an operation."""


class BracketError(RuntimeError):
    """A root bracket could not be established (no sign change)."""


class ConvergenceError(RuntimeError):
    """``dist.find_root`` hit its iteration cap before converging.

    The last iterate is attached as ``best_estimate``.
    """

    def __init__(self, message: str, best_estimate: float):
        super().__init__(message)
        self.best_estimate = best_estimate


class SimulationFailureError(RuntimeError):
    """A simulated rejection rate cannot be trusted: too many replicates
    failed analysis, or numpy's Philox state is not laid out as the
    substream reset expects."""


class DecompositionError(ValueError):
    """A matrix factorization failed (e.g. input not positive definite)."""


class InsufficientDataError(ValueError):
    """A fitted analysis has too few observations to estimate its parameters."""


class ConfigError(ValueError):
    """A design file violates the schema; the message names the field."""

"""Exception types shared across the simulator."""


class BmsimError(Exception):
    """Base class for all simulator errors."""


class InvalidInputError(BmsimError, ValueError):
    """A caller violated an operation precondition."""


class ScenarioValidationError(BmsimError, ValueError):
    """A scenario file failed validation. `field` names the offending entry."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")


class InvariantViolation(BmsimError, RuntimeError):
    """A runtime invariant check failed; the run is aborted."""

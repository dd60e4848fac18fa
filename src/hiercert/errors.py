"""Exception hierarchy shared by all modules.

The CLI maps these onto exit codes: validation problems (bad inputs,
malformed configs, impossible requests) exit with 1, runtime and numeric
failures exit with 2.
"""


class HiercertError(Exception):
    """Base class for all package errors."""


class ValidationError(HiercertError):
    """Invalid argument, malformed input data, or broken invariant."""


class ConfigError(ValidationError):
    """Config-file problem, annotated with the offending field and a hint."""

    def __init__(self, field: str, message: str, hint: str = ""):
        self.field = field
        self.hint = hint
        super().__init__(f"field '{field}': {message}" + (f" (hint: {hint})" if hint else ""))


class RoutingMismatchError(HiercertError):
    """The probability argmax lies outside the routed label subset."""


class DegeneratePartitionError(ValidationError):
    """Confusion structure carries no off-diagonal signal to cluster on."""


class UndefinedSeparationError(ValidationError):
    """Separation score is undefined (fewer than two clusters)."""


class CapabilityError(HiercertError):
    """Operation requires a capability the classifier does not have (e.g. gradients)."""


class TrainingDivergenceError(HiercertError):
    """Training loss became non-finite."""

    def __init__(self, epoch: int, loss: float):
        self.epoch = epoch
        self.loss = loss
        super().__init__(f"training diverged at epoch {epoch}: loss={loss!r}")

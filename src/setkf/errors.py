"""Exception hierarchy: model validation, numerical failures, configuration."""


class SetkfError(Exception):
    """Base class for all package-specific errors."""


class ModelValidationError(SetkfError):
    """A matrix bundle failed structural validation."""


class DimensionMismatch(ModelValidationError):
    pass


class NotPositiveDefinite(ModelValidationError):
    def __init__(self, which, detail=""):
        self.which = which
        msg = f"matrix {which!r} is not symmetric positive-definite"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class NotDetectable(ModelValidationError):
    pass


class NotStabilizable(ModelValidationError):
    pass


class UnstableSystem(SetkfError):
    """The operation requires a strictly stable transition matrix."""


class NumericalError(SetkfError):
    """Base class for runtime numerical failures."""


class SingularInnovation(NumericalError):
    pass


class NoConvergence(NumericalError):
    def __init__(self, max_iter, what="doubling"):
        self.max_iter = max_iter
        super().__init__(f"{what} did not converge within {max_iter} doublings")


class MissingMeasurement(SetkfError):
    pass


class InconsistentArgs(SetkfError):
    pass


class Infeasible(SetkfError):
    pass


class CalibrationFailed(SetkfError):
    pass


class ConfigError(SetkfError):
    """Malformed configuration file or invalid scenario combination."""


"""Exception hierarchy shared across the package."""


class BforageError(Exception):
    """Base class for all library errors."""


class ConfigError(BforageError):
    """A parameter or configuration value is unusable."""


class BudgetError(ConfigError):
    """The iteration budget is below the minimum of one generation."""


class LatticeError(ConfigError):
    """No weight tuple exists on the requested lattice."""


class UsageError(BforageError):
    """Command line was malformed (unknown verb, bad flag, missing seed)."""


class InfeasibleError(BforageError):
    """A decision vector violates the variable bounds."""


class DomainError(BforageError):
    """An argument or a computed value lies outside a function's domain."""


class ReferencePointError(BforageError):
    """A point fails to dominate the hypervolume reference point."""


class DegenerateTraceError(BforageError):
    """A trace is too short for rate computation or contains an exact zero."""


class SchemaError(BforageError):
    """A data file does not match its expected schema; the message names the file and line."""

    def __init__(self, message: str, line: int | None = None, path=None):
        if line is not None:
            message = f"line {line}: {message}"
        if path is not None:
            message = f"{path}: {message}"
        super().__init__(message)
        self.line = line

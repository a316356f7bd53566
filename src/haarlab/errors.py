"""Exception types shared across the package."""


class HaarLabError(Exception):
    """Base class for all package-specific errors."""


class DomainError(HaarLabError):
    """An argument is outside the mathematical domain of an operation."""


class PreconditionError(HaarLabError):
    """A structural precondition of an operation is violated."""


class UsageError(HaarLabError):
    """The command line names no usable invocation."""


class SchemaError(HaarLabError):
    """Serialized input does not match the expected schema."""

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message if field is None else f"{field}: {message}")
        self.field = field

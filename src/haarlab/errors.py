"""Exception types shared across the package."""


class HaarLabError(Exception):
    """Base class for all package-specific errors.

    `field` names the input at fault where one is known: a field of a
    document (SchemaError) or a command-line option (DomainError).
    """

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message if field is None else f"{field}: {message}")
        self.field = field


class DomainError(HaarLabError):
    """An argument is outside the mathematical domain of an operation."""


class PreconditionError(HaarLabError):
    """A structural precondition of an operation is violated."""


class UsageError(HaarLabError):
    """The command line names no usable invocation."""


class SchemaError(HaarLabError):
    """Serialized input does not match the expected schema."""

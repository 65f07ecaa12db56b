"""Exception types shared across the package."""


class RoughAlgError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(RoughAlgError, ValueError):
    """A value failed construction-time validation; ``field`` names the parameter, when known."""

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field


def check_types(kind: type, **arguments) -> None:
    """A ValidationError, its ``field`` the argument's name, for the first argument that is not a kind."""
    for field, value in arguments.items():
        if not isinstance(value, kind):
            article = "an" if kind.__name__[0] in "AEIOUaeiou" else "a"
            raise ValidationError(f"{field} must be {article} {kind.__name__}, not {type(value).__name__}", field)


class ParseError(ValidationError):
    """Malformed input text; carries 1-based line/column when known."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + loc)
        self.line = line
        self.column = column


class PreconditionError(RoughAlgError):
    """An operation's precondition does not hold; carries the demonstrating witness."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class SearchLimitError(RoughAlgError):
    """A search stopped early.  ``count`` is exact for the explored prefix."""

    def __init__(self, message: str, count: int, reason: str):
        super().__init__(message)
        self.count = count
        self.reason = reason

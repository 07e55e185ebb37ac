"""Exception hierarchy shared across the package.

Everything user-facing derives from DomainError so the CLI can map
domain failures to exit code 1 uniformly.
"""


class DomainError(Exception):
    """Base class for all domain-level failures."""


class AlgebraError(DomainError):
    """Problems in the symbolic representation algebra: an unknown symbol, a
    degree outside the supported range, or a type without reductions."""


class ParameterError(DomainError):
    """An argument is outside its documented range."""


class DatasetError(DomainError):
    """Problems generating or ingesting eigenvalue datasets (a singular curve,
    say); `row` is the index of the first offending record, when one is at
    fault."""

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message)
        self.row = row


class DatasetFormatError(DatasetError):
    """Malformed dataset file; the message names the offending line."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")

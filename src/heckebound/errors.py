"""Exception hierarchy shared across the package.

Everything user-facing derives from DomainError so the CLI can map
domain failures to exit code 1 uniformly.
"""


class DomainError(Exception):
    """Base class for all domain-level failures."""


class AlgebraError(DomainError):
    """Problems in the symbolic representation algebra."""


class UnsupportedDegreeError(AlgebraError):
    """Tensor/symmetric power degree outside the supported range."""


class UnsupportedReductionError(AlgebraError):
    """No isobaric decomposition is known for this atom under the assumption."""


class EvaluationError(AlgebraError):
    """Numeric character evaluation is missing a required symbol value."""


class MonomialExcludedError(AlgebraError):
    """The dihedral (monomial) type has no reductions in the atom vocabulary."""


class ParameterError(DomainError):
    """An argument is outside its documented range."""


class DatasetError(DomainError):
    """Problems generating or ingesting eigenvalue datasets; `row` is the
    index of the first offending record, when one is at fault."""

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message)
        self.row = row


class SingularCurveError(DatasetError):
    """The requested Weierstrass model is singular."""


class DatasetFormatError(DatasetError):
    """Malformed dataset file; the message names the offending line."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")

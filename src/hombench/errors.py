"""Error types shared across the workbench.

Every failure mode that callers are expected to handle gets its own class so
the CLI can map them to exit codes (2 for unreadable input or a wrong usage, 3
for violated preconditions) without string matching.
"""


class WorkbenchError(Exception):
    """Base class for all workbench errors."""


class DimensionMismatch(WorkbenchError):
    """Operands have incompatible shapes."""


class SingularMap(WorkbenchError):
    """A map that must be invertible is not."""


class InvalidInput(WorkbenchError):
    """A construction received an object that fails its validity precondition."""


class UsageError(InvalidInput):
    """A verb received documents of the wrong number or kind for its name."""


class TwistMismatch(WorkbenchError):
    """Paired structures whose twists must be mutually dual are not."""


class Pro1Violation(WorkbenchError):
    """The tensor does not intertwine the twists, so the dual product is undefined."""


class NotAnSMatrix(WorkbenchError):
    """The tensor fails the symmetric solution conditions."""


class AsymmetricInput(WorkbenchError):
    """A tensor or form does not have the required symmetry."""


class IntertwinerViolation(WorkbenchError):
    """The linear map does not intertwine the given twists."""


class ParseError(WorkbenchError):
    """A document is not well formed canonical text."""


class UnsupportedKind(WorkbenchError):
    """The document kind has no standalone handler for this verb."""


class UnknownSlug(WorkbenchError):
    """No check or construction is registered under this name."""


class BudgetExceeded(WorkbenchError):
    """An exhaustive enumeration would exceed the configured budget."""

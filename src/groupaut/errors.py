"""Exception types shared across the package."""


class GroupAutError(Exception):
    """Base class for every error raised by this library."""


class ContextError(GroupAutError):
    """Two scalars live in fields that cannot be joined inside the supported tower."""


class DomainError(GroupAutError):
    """An operation was applied outside its mathematical domain.

    Examples: inverting zero, inverting a non-monomial Laurent element,
    taking the square root of a negative rational.
    """


class DescriptorError(GroupAutError):
    """A group descriptor is malformed (dependent generators, zero generator, ...)."""


class UnsupportedError(GroupAutError):
    """The request is well-formed but outside the supported fragment."""


class SingularMatrixError(GroupAutError):
    """A matrix that must be invertible is singular."""


class BudgetExceededError(GroupAutError):
    """A bounded search ran out of budget without an answer.

    This is a report of "unknown", never a silent success.
    """


class ConsistencyError(GroupAutError):
    """Two independent decision routes disagreed; indicates an internal bug."""


class ParseError(GroupAutError):
    """Input text could not be parsed; carries the character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position

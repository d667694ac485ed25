"""Test support: a scalar's coordinates as Fractions.

``_embedded`` was ``ExactScalar._embedded`` until the package stopped
reading it; several tests still compare against that Fraction view, so one
verbatim copy lives here as a function of the scalar.
"""

from fractions import Fraction

from groupaut.scalars import ContextKind

_FORMAL = ContextKind.FORMAL


def _embedded(self, ctx) -> tuple:
    """The coordinates of self over the basis of ctx, as Fractions."""
    den = self.den
    if ctx.kind is _FORMAL:
        return tuple((k, Fraction(n, den)) for k, n in self._lift(ctx))
    return tuple(Fraction(n, den) for n in self._lift(ctx))

"""Exception hierarchy for the kummerwit library.

Every error raised on a violated operation contract derives from
KummerwitError, so callers (and the CLI) can distinguish usage problems
from genuine verification failures.
"""


class KummerwitError(Exception):
    """Base class for all library errors."""


# -- field / polynomial construction ----------------------------------------

class CompositeP(KummerwitError):
    """The characteristic passed as p is not an odd prime."""


class ReducibleModulus(KummerwitError):
    """A field modulus candidate is reducible over F_p."""


class BothZero(KummerwitError):
    """gcd(0, 0) requested."""


class NotCoprime(KummerwitError):
    """Arguments required to be coprime are not."""


class ZeroInput(KummerwitError):
    """A nonzero element was required."""


class BadModulus(KummerwitError):
    """An integer modulus outside the operation's domain."""


class BadEll(KummerwitError):
    """The auxiliary prime l is excluded (equals p or r, or not prime)."""


# -- curves ------------------------------------------------------------------

class BadN(KummerwitError):
    """Curve exponent N is not coprime to the characteristic."""


class OffCurve(KummerwitError):
    """A point does not satisfy the curve equation."""


class TorsionPoint(KummerwitError):
    """A non-torsion point was required."""


class DistinctnessFailure(KummerwitError):
    """Multiples of a point collided; the input was torsion after all."""


# -- Kummer local analysis ----------------------------------------------------

class ZetaMissing(KummerwitError):
    """l-th roots of unity are not in the base field (l does not divide q-1)."""


class LthPowerInput(KummerwitError):
    """The radicand is already an l-th power, so the extension is trivial."""


class UntrackedLabel(KummerwitError):
    """A place-state operation referenced a label that is not tracked."""


class PoleViolation(KummerwitError):
    """The place is a pole of the element the lemma requires it not to be."""


# -- witnesses ----------------------------------------------------------------

class SizeMismatch(KummerwitError):
    """|A| > |B|: the injection builder refuses."""


class ZeroInA(KummerwitError):
    """The input set may not contain zero."""


class UnitA(KummerwitError):
    """The shift element must be neither zero nor a unit."""


# -- searches -------------------------------------------------------------------

class SearchExhausted(KummerwitError):
    """A guarded unbounded search hit its configured ceiling."""


class WorkBound(KummerwitError):
    """An input whose work would exceed a documented cap is refused."""

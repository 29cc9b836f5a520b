"""Exception types shared across the package."""


class CongcertError(Exception):
    """Base class for all package errors."""


class InvalidParameter(CongcertError, ValueError):
    """A constructor or operation argument violates its preconditions."""


class NonUnitConstantTerm(CongcertError, ValueError):
    """Inversion requested for a factor whose constant term is not a unit."""


class EmptyMultiset(CongcertError, ValueError):
    """A period computation needs a nonempty part multiset."""


class InvalidWindow(CongcertError, ValueError):
    """Periodicity check window is too small for the candidate period."""


class NoPeriodFound(CongcertError):
    """The formula period failed the empirical prefix check; signals a bug."""


class RuleValidationFailed(CongcertError):
    """A check of the split (B's support, A*B = G) or of a witness failed:
    congcert itself is wrong, so no verdict is given; abort."""


class SplitFailed(CongcertError):
    """The target does not split into a periodic head and a tail supported
    on multiples of the progression modulus: the only INAPPLICABLE."""


class SpaceTooLarge(CongcertError):
    """Candidate enumeration exceeded the configured cap."""


class ComplexityGuard(CongcertError):
    """Brute-force enumeration refused an input above its configured cap."""


class ParseError(CongcertError, ValueError):
    """Text is not in the instance syntax (an instance file, or a value's
    `parse`)."""


class SemanticError(CongcertError, ValueError):
    """Instance file parsed but declares inconsistent values."""

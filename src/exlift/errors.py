"""Exception types shared across the library and mapped to CLI exit codes."""


class ExliftError(Exception):
    """Base class for all library errors.  When the construction replays a
    certificate's recorded witnesses, ``check`` names the verifier check
    the error fails ("" where it fails none by name)."""

    def __init__(self, message: str = "", check: str = ""):
        super().__init__(message)
        self.check = check


class InvalidSpec(ExliftError):
    """Malformed ring spec, monoid table, or certificate payload."""


class GuardExceeded(ExliftError):
    """A construction or search would exceed a configured resource guard."""


class DimensionMismatch(ExliftError):
    pass


class RingMismatch(ExliftError):
    pass


class NotAUnit(ExliftError):
    pass


class NotFredholm(ExliftError):
    pass


class PreconditionFailed(ExliftError):
    """An operation's stated hypothesis does not hold for the given input."""


class HypothesisFailed(ExliftError):
    """An order ideal of an abstract monoid fails a hypothesis of
    ``lemma13_check`` (separativity or refinement).  Nothing else raises
    it: over a finite ring the lifting theorem's hypotheses hold by
    theorem."""


class SearchExhausted(ExliftError):
    """An existence-backed search found nothing.

    The theory guarantees a witness, so this signals an implementation bug
    or a truncation artifact, never a routine negative answer.  When the
    construction replays recorded witnesses, a miss means the record is
    wrong.
    """


class NotDownwardClosed(ExliftError):
    """An order-ideal candidate fails downward closure (truncation artifact)."""


class VerificationFailed(ExliftError):
    """A certificate failed replay verification (used by the CLI layer)."""

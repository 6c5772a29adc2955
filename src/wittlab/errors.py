"""Exception types shared across the library."""


class WittlabError(Exception):
    """Base class for all library-specific errors."""


class ParamsMismatch(WittlabError):
    """Witt vectors with different (p, k, base ring) were combined."""


class LengthTooShort(WittlabError):
    """An operator that shortens a Witt vector was applied at length 1."""


class LengthMismatch(WittlabError):
    """A Witt vector of the wrong length was supplied."""


class InternalIntegralityFailure(WittlabError):
    """An exact division by a power of p failed while solving a ghost
    system.  Integrality of these solutions is a theorem, so this always
    signals an implementation bug, never bad user input."""


class GroupMismatch(WittlabError):
    """Two functors over different cyclic groups were combined."""


class NotASubgroup(WittlabError):
    """A divisor argument does not define a subgroup in context."""


class MackeyAxiomFailure(WittlabError):
    """A Mackey functor or a map of Mackey functors breaks one of the
    Mackey axioms; the message names the axiom and where it fails."""


class TambaraAxiomFailure(WittlabError):
    """A Green or Tambara functor, or a map of Green functors, breaks
    one of its ring or norm axioms; the message names the axiom and
    where it fails.  A component of a map of Green functors that is not
    a ring map also sets ``witness``: its level and the failing
    generators with both sides of the equation."""

    witness = None


class InternalInvariantFailure(WittlabError):
    """A result that holds by theorem for validated inputs failed to
    hold.  Like InternalIntegralityFailure, this always signals an
    implementation bug, never bad user input."""


class ActionOrderInvalid(WittlabError):
    """A group action whose order does not divide the group order."""


class UnsupportedInput(WittlabError):
    """A Tambara functor outside the supported norm classes."""


class PrimeDividesN(WittlabError):
    """The prime p must be coprime to the order n of the base group."""


class NotApplicable(WittlabError):
    """An operation restricted to n = 1 was called with n > 1."""


class EvenPrime(WittlabError):
    """Witt complex machinery requires an odd prime."""


class MalformedData(WittlabError):
    """Structurally invalid input to the Witt complex checker."""

"""Exception types shared across the package."""

from __future__ import annotations

from typing import Any


class GroupoidLabError(Exception):
    """Base class for every error raised by groupoidlab."""


class InvalidInput(GroupoidLabError):
    """Malformed user input (JSON schema, CLI arguments, config bounds)."""


class AxiomViolation(GroupoidLabError):
    """An algebraic axiom failed exhaustive checking.

    ``kind`` names the failed axiom, ``witness`` is a counterexample
    (typically the offending element or triple).
    """

    def __init__(self, kind: str, witness: Any = None):
        self.kind = kind
        self.witness = witness
        super().__init__(kind if witness is None else f"{kind}: {witness!r}")


class OrderMismatch(GroupoidLabError):
    def __init__(self, left: int, right: int):
        self.left = left
        self.right = right
        super().__init__(f"group orders differ: {left} != {right}")


class UnsupportedSize(GroupoidLabError):
    """Requested constructor parameters fall outside the supported range."""


class NonAbelianVertex(GroupoidLabError):
    def __init__(self, obj: int, witness: Any = None):
        self.obj = obj
        self.witness = witness
        super().__init__(f"vertex group at object {obj} is not abelian")


class TransportAmbiguity(GroupoidLabError):
    """Conjugation transport depended on the connecting morphism."""

    def __init__(self, witness: Any = None):
        self.witness = witness
        super().__init__(f"transport ambiguity: {witness!r}")


class BudgetExceeded(GroupoidLabError):
    def __init__(self, size: int, limit: int):
        self.size = size
        self.limit = limit
        super().__init__(f"carrier size {size} exceeds enumeration budget {limit}")


class NotInvariant(GroupoidLabError):
    """A carrier set was not setwise invariant under the automorphism group."""

    def __init__(self, automorphism: Any, element: Any):
        self.automorphism = automorphism
        self.element = element
        super().__init__(f"carrier not invariant: {element!r} leaves the set")


class RegularityFailure(GroupoidLabError):
    def __init__(self, witness: Any = None):
        self.witness = witness
        super().__init__(f"group action is not regular: {witness!r}")


class DecompositionFailure(GroupoidLabError):
    def __init__(self, reason: str, witness: Any = None):
        self.reason = reason
        self.witness = witness
        super().__init__(reason if witness is None else f"{reason}: {witness!r}")


class NoProbeAvailable(GroupoidLabError):
    """Too few objects to pick a probe disjoint from the paths at hand."""


class ClaimFailure(GroupoidLabError):
    def __init__(self, claim_id: str, witness: Any = None):
        self.claim_id = claim_id
        self.witness = witness
        super().__init__(f"claim {claim_id} failed" + ("" if witness is None else f": {witness!r}"))


class TransitionNotEpi(GroupoidLabError):
    def __init__(self, edge: Any, reason: str = "not an epimorphism"):
        self.edge = edge
        self.reason = reason
        super().__init__(f"transition {edge}: {reason}")


class FunctorialityFailure(GroupoidLabError):
    def __init__(self, triple: Any):
        self.triple = triple
        super().__init__(f"transition maps do not compose along {triple}")


class NotDirected(GroupoidLabError):
    def __init__(self, pair: Any):
        self.pair = pair
        super().__init__(f"index pair {pair} has no upper bound")


class NotWellDefined(GroupoidLabError):
    def __init__(self, witness: Any = None):
        self.witness = witness
        super().__init__(f"restriction map not well defined: {witness!r}")


class ReportMergeError(GroupoidLabError):
    """A malformed report, or conflicting duplicate claim entries, while
    merging reports."""

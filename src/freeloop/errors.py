"""Exception types shared by the engine modules.

Every domain error carries a stable machine-readable ``code`` (its class
name) so the CLI can report failures one-to-one and scripts can switch on
them.  Domain errors signal violated preconditions in otherwise well-formed
input; malformed input files raise :class:`SchemaError` instead.
"""


class DomainError(Exception):
    """A precondition or invariant of an engine operation was violated."""

    @property
    def code(self) -> str:
        return type(self).__name__


class SchemaError(ValueError):
    """An input document does not match the expected JSON shape."""


class InternalInvariant(DomainError):
    """A result the engine just computed breaks a property its own theory
    guarantees; this is a defect in freeloop, not in the input."""


# -- graphs ----------------------------------------------------------------

class BadId(DomainError, TypeError):
    """An id is neither a string nor an integer label.  A ``TypeError`` too,
    so code that caught the ``TypeError`` this used to be keeps working."""


class DanglingEndpoint(DomainError):
    def __init__(self, edge: str, vertex: str):
        super().__init__(f"edge {edge!r} references undeclared vertex {vertex!r}")
        self.edge = edge
        self.vertex = vertex


class DuplicateId(DomainError):
    def __init__(self, kind: str, ident: str):
        super().__init__(f"duplicate {kind} id {ident!r}")
        self.ident = ident


class UnknownVertex(DomainError):
    def __init__(self, vertex: str):
        super().__init__(f"unknown vertex {vertex!r}")
        self.vertex = vertex


class UnknownEdge(DomainError):
    def __init__(self, edge: str):
        super().__init__(f"unknown edge {edge!r}")
        self.edge = edge


class VertexSetMismatch(DomainError):
    pass


# -- words -----------------------------------------------------------------

class BadSign(DomainError):
    pass


class NotComposable(DomainError):
    def __init__(self, position=None, detail=""):
        at = "" if position is None else f" at position {position}"
        super().__init__(f"letters do not compose{at}" + (f": {detail}" if detail else ""))
        self.position = position


class NotReduced(DomainError):
    pass


class HostMismatch(DomainError):
    pass


class DifferentTrees(DomainError):
    def __init__(self, u: str, v: str):
        super().__init__(f"vertices {u!r} and {v!r} lie in different trees")
        self.u = u
        self.v = v


class UnknownLetter(DomainError):
    def __init__(self, edge: str, side=None):
        where = f" on side {side}" if side else ""
        super().__init__(f"letter references unknown generator {edge!r}{where}")
        self.edge = edge
        self.side = side


# -- retract ---------------------------------------------------------------

class EmptyObjectSet(DomainError):
    pass


class UnknownSide(DomainError):
    pass


class Disconnected(DomainError):
    pass


class NotDistinct(DomainError):
    pass


class NoArrowInA(DomainError):
    pass


class NoArrowInB(DomainError):
    pass


# -- van Kampen / PBP ------------------------------------------------------

class PointInDeletedSet(DomainError):
    def __init__(self, vertex: str):
        super().__init__(f"point {vertex!r} lies in a deleted set")
        self.vertex = vertex


class SetsNotDisjoint(DomainError):
    pass


class DeletedSetsAdjacent(DomainError):
    def __init__(self, edge: str):
        super().__init__(
            f"edge {edge!r} joins the two deleted sets; subdivide it "
            "(insert a midpoint vertex) to model disjoint closed sets"
        )
        self.edge = edge


class NotACover(DomainError):
    pass


class EdgeAcrossPieces(DomainError):
    def __init__(self, edge: str):
        super().__init__(f"edge {edge!r} has endpoints in neither piece entirely")
        self.edge = edge


class PieceMissesIntersection(DomainError):
    pass


class EmptyIntersection(DomainError):
    pass


class PbiHolds(DomainError):
    pass

"""Exception types shared across the workbench."""


class DblError(Exception):
    """Base class for all workbench errors."""


class BoundaryMismatch(DblError):
    """Cells were combined along boundaries that do not match."""


class MalformedTables(DblError):
    """A composition table entry has an inconsistent boundary."""


class SizeBound(DblError):
    """A requested enumeration exceeds the supported size bound."""


class DomainMismatch(DblError):
    """Functor data is inconsistent with its domain or codomain."""


class ChainMismatch(DblError):
    """Transformations or modifications were composed out of order."""


class NotPseudo(DblError):
    """An operation requiring pseudo functors received a lax one."""


class EnumerationBound(DblError):
    """Candidate enumeration exceeded the caller-supplied bound."""


class NotHomCodomain(DblError):
    """The functor's codomain is not a hom double category."""


class NontrivialUU(DblError):
    """Strictification requires all (u,U) squares to be identities."""


class NotUnitary(DblError):
    """An operation requiring a unitary functor received a non-unitary one."""


class NotDecomposable(DblError):
    """An operation requiring a decomposable functor received another one."""


class RelationViolated(DblError):
    """A presentation relation failed to hold under an assignment."""


class CarrierMismatch(DblError):
    """Two monads in a distributive law live on different carriers."""


class NotTrivialDomain(DblError):
    """A monad was read off a functor whose domain is not the point."""


class NotFlat(DblError):
    """An operation requiring a flat double category received another one."""

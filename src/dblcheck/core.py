"""Finite strict double categories with total composition tables.

Cells of each kind (objects, horizontal 1-cells, vertical 1-cells, squares)
are interned: a cell is an integer index into per-kind lists, and equality of
cells is equality of indices.  Squares come in three backends, composed
through one set of accessors (see ``DoubleCat``):

* ``explicit`` — squares are listed and both square compositions are stored
  as total tables on composable pairs;
* ``flat`` — there is at most one square per boundary, membership is decided
  by a predicate on boundary quadruples, squares are interned on demand, and
  the composition of squares is derived from the 1-cell compositions;
* interned — every cell carries a payload and composites are computed on
  payloads (``hom.InternedDoubleCat``).

Orientation conventions used throughout: a square has a top and a bottom
horizontal 1-cell and a left and a right vertical 1-cell; ``hcomp`` glues
left-to-right (the left factor first) and ``vcomp`` glues top-to-bottom (the
top factor first).  ``hcomp_h(f, g)`` is the composite "f then g".
"""

from bisect import bisect_right
from collections import Counter
from functools import cached_property, lru_cache
from itertools import accumulate, chain, product as iproduct, repeat
from operator import attrgetter
import random

from .errors import (BoundaryMismatch, DblError, MalformedTables, NotFlat,
                     SizeBound)

OBJECT = "object"
HCELL = "hcell"
VCELL = "vcell"
SQUARE = "square"


class Record:
    """A record whose fields are its ``__slots__``, or the ``fields`` its
    class statement names: records compare by class and fields and print
    as ``Name(field=value, ...)``, as dataclasses do.  A plain record is
    mutable and unhashable."""
    __slots__ = ()
    __hash__ = None
    _names = ()

    def __init_subclass__(cls, fields=None):
        names = fields or cls.__slots__
        if names:
            cls._names = names
            # the fields' values, as one value for a one-field record
            cls._key = attrgetter(*names)

    def __eq__(self, other):
        cls = self.__class__
        if other.__class__ is cls:
            return cls._key(self) == cls._key(other)
        return NotImplemented

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, ", ".join(
            "%s=%r" % (name, getattr(self, name)) for name in self._names))


# sets a field of a frozen record in its constructor
init_field = object.__setattr__


class FrozenRecord(Record):
    """A record that is hashable by its fields and refuses assignment
    once built; its constructor sets each field with ``init_field``."""
    __slots__ = ()

    def __hash__(self):
        return hash(self._key(self))

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)

    def __reduce__(self):  # copy and pickle through the constructor
        return type(self), tuple(getattr(self, name) for name in self._names)


class CellRef(FrozenRecord):
    """Reference to an interned cell: a kind tag and a per-kind index."""
    __slots__ = ("kind", "id")

    def __init__(self, kind, id):
        init_field(self, "kind", kind)
        init_field(self, "id", id)

    # written out: evaluated pastings compare CellRefs in volume
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.kind == other.kind and self.id == other.id
        return NotImplemented

    def __hash__(self):
        return hash((self.kind, self.id))


class ValidationReport(Record, fields=("failures", "sampled", "reduced")):
    """Outcome of a law check: a verdict plus per-law failure witnesses.

    ``sampled`` maps each law family that was checked on a seeded sample of
    its instances, not on all of them, to ``{"draws": n, "seed": k}``.
    ``reduced`` maps each law family that was decided without evaluating
    its instances, because other checks imply it, to its instance count.
    A report can pass with sampled or reduced families; it then says so
    here.  ``checked``, unset but for ``monads.verify_comp_diagram``,
    counts the distributive laws that check compared.
    """
    __slots__ = ("failures", "sampled", "reduced", "checked")

    def __init__(self, failures=None, sampled=None, reduced=None):
        self.failures = [] if failures is None else failures
        self.sampled = {} if sampled is None else sampled
        self.reduced = {} if reduced is None else reduced

    @property
    def passed(self):
        return not self.failures

    def add(self, law, /, **witness):
        self.failures.append((law, witness))

    def expect(self, law, keys, lhs, rhs, witness):
        """Evaluate a row of instances of one law: for each key of
        ``keys``, in order, ``lhs(*key)`` and then ``rhs(*key)``.  A side
        that raises ``DblError``, such as a missing flat composite, records
        ``error`` and unequal sides record ``lhs`` and ``rhs``, each with
        the fields ``witness`` names set to the key's first entries; the
        row goes on with the next key."""
        for key in keys:
            try:
                left = lhs(*key)
                right = rhs(*key)
            except DblError as exc:
                self.add(law, error=str(exc), **dict(zip(witness, key)))
                continue
            if left != right:
                self.add(law, lhs=left, rhs=right, **dict(zip(witness, key)))

    def mark_sampled(self, law, draws, seed):
        self.sampled[law] = {"draws": draws, "seed": seed}

    def merge(self, other, prefix=""):
        for law, witness in other.failures:
            self.failures.append((prefix + law, witness))
        for law, info in other.sampled.items():
            self.sampled[prefix + law] = info
        for law, n in other.reduced.items():
            self.reduced[prefix + law] = n

    def laws_failed(self):
        return sorted({law for law, _ in self.failures})

    def __repr__(self):
        if self.passed:
            return "ValidationReport(passed%s)" % "".join(
                "; %s %s" % (mode, ", ".join(sorted(laws)))
                for mode, laws in (("sampled", self.sampled),
                                   ("reduced", self.reduced)) if laws)
        return "ValidationReport(failed: %s)" % ", ".join(self.laws_failed())


class DoubleCat:
    """A finite strict double category backed by composition tables.

    Every backend composes through the six accessors ``hcomp_h``,
    ``vcomp_v``, ``hcomp_sq``, ``vcomp_sq``, ``sq_v_id`` and ``sq_h_id``.
    Each checks that its operands compose, then reads its table (``_hh``,
    ``_vv``, ``_hs``, ``_vs``, ``_sqvid``, ``_sqhid``).  A 1-cell composite
    missing there comes from ``hcomp_h_fn``/``vcomp_v_fn``, or is an error
    when that is None.  A missing square is an error on an explicit
    category, which is given every entry, raised before anything is
    composed; otherwise the accessor composes the square's frame through
    ``hcomp_h``/``vcomp_v`` and ``_square_on`` gets the square on it: a
    flat category (``set_flat``) decides it by ``find_square``, an
    interned one (``hom.InternedDoubleCat``) composes payloads.

    A computed entry is kept.  That is sound: a square is interned once
    per boundary (flat) or per key (interned) and never decided again, cell
    ids only grow, and the 1-cell composites a square composite reads are
    kept, so a stored entry is what computing it again would give.  An
    entry is stored only under cell ids of 0 or more, since
    ``sq_bounds[-1]`` names another square once one more is interned.
    Nothing outside this module reads or writes the tables.
    """

    # set by a backend that interns each composite of payloads
    interned = False
    # compute a 1-cell composite missing from its table, if not None
    hcomp_h_fn = vcomp_v_fn = None

    def __init__(self, name="D"):
        self.name = name
        self.objects = []
        self.hnames, self.hsrc, self.htgt = [], [], []
        self.vnames, self.vsrc, self.vtgt = [], [], []
        self._h_id, self._v_id = [], []
        self._hh, self._vv = {}, {}
        self.flat = False
        self.square_pred = None
        self.sq_names = []
        self.sq_bounds = []
        self._sq_by_bound = {}
        self._hs, self._vs = {}, {}
        self._sqhid, self._sqvid = {}, {}

    # -- construction ------------------------------------------------------

    def add_object(self, name):
        self.objects.append(name)
        self._h_id.append(None)
        self._v_id.append(None)
        return len(self.objects) - 1

    def add_hcell(self, name, src, tgt, identity_of=None):
        self.hnames.append(name)
        self.hsrc.append(src)
        self.htgt.append(tgt)
        f = len(self.hnames) - 1
        if identity_of is not None:
            self._h_id[identity_of] = f
        return f

    def add_vcell(self, name, src, tgt, identity_of=None):
        self.vnames.append(name)
        self.vsrc.append(src)
        self.vtgt.append(tgt)
        u = len(self.vnames) - 1
        if identity_of is not None:
            self._v_id[identity_of] = u
        return u

    def add_square(self, name, top, bottom, left, right):
        if self.flat:
            raise MalformedTables("flat categories intern squares on demand")
        self._check_square_boundary(top, bottom, left, right)
        self.sq_names.append(name)
        bound = (top, bottom, left, right)
        self.sq_bounds.append(bound)
        s = len(self.sq_bounds) - 1
        self._sq_by_bound.setdefault(bound, []).append(s)
        return s

    def set_flat(self, pred):
        """Switch to the flat backend with the given boundary predicate."""
        self.flat = True
        self.square_pred = pred

    def set_hh(self, f, g, h):
        self._hh[(f, g)] = h

    def set_vv(self, u, v, w):
        self._vv[(u, v)] = w

    def set_hs(self, a, b, c):
        self._hs[(a, b)] = c

    def set_vs(self, a, b, c):
        self._vs[(a, b)] = c

    def set_sq_h_id(self, u, s):
        self._sqhid[u] = s

    def set_sq_v_id(self, f, s):
        self._sqvid[f] = s

    def _check_square_boundary(self, top, bottom, left, right):
        # a negative id would read the last 1-cell of its kind
        nh, nv = len(self.hnames), len(self.vnames)
        if not (0 <= top < nh and 0 <= bottom < nh
                and 0 <= left < nv and 0 <= right < nv):
            raise BoundaryMismatch(
                "square boundary names no 1-cells: top %r bottom %r "
                "left %r right %r" % (top, bottom, left, right))
        if not self._closes(top, bottom, left, right):
            raise BoundaryMismatch(
                "square boundary does not close: top %s bottom %s left %s right %s"
                % (self.hnames[top], self.hnames[bottom],
                   self.vnames[left], self.vnames[right]))

    def _closes(self, top, bottom, left, right):
        """Whether four 1-cells of self meet at the corners of a square."""
        return (self.hsrc[top] == self.vsrc[left]
                and self.htgt[top] == self.vsrc[right]
                and self.hsrc[bottom] == self.vtgt[left]
                and self.htgt[bottom] == self.vtgt[right])

    # -- basic accessors ---------------------------------------------------

    @property
    def n_objects(self):
        return len(self.objects)

    @property
    def n_hcells(self):
        return len(self.hnames)

    @property
    def n_vcells(self):
        return len(self.vnames)

    @property
    def n_squares(self):
        return len(self.sq_bounds)

    def h_id(self, a):
        return self._h_id[a]

    def v_id(self, a):
        return self._v_id[a]

    def is_h_identity(self, f):
        return self._h_id[self.hsrc[f]] == f

    def is_v_identity(self, u):
        return self._v_id[self.vsrc[u]] == u

    def sq_top(self, s):
        return self.sq_bounds[s][0]

    def sq_bottom(self, s):
        return self.sq_bounds[s][1]

    def sq_left(self, s):
        return self.sq_bounds[s][2]

    def sq_right(self, s):
        return self.sq_bounds[s][3]

    def hcells_between(self, a, b):
        return [f for f in range(self.n_hcells)
                if self.hsrc[f] == a and self.htgt[f] == b]

    def vcells_between(self, a, b):
        return [u for u in range(self.n_vcells)
                if self.vsrc[u] == a and self.vtgt[u] == b]

    # -- 1-cell composition ------------------------------------------------

    def hcomp_h(self, f, g):
        """Composite 1h-cell "f then g"."""
        if self.htgt[f] != self.hsrc[g]:
            raise BoundaryMismatch("hcomp_h: %s then %s not composable"
                                   % (self.hnames[f], self.hnames[g]))
        try:
            return self._hh[f, g]
        except KeyError:
            if self.hcomp_h_fn is None:
                raise MalformedTables(
                    "hcomp_h table missing entry (%s, %s)"
                    % (self.hnames[f], self.hnames[g])) from None
        c = self._hh[f, g] = self.hcomp_h_fn(f, g)
        return c

    def vcomp_v(self, u, v):
        """Composite 1v-cell "u then v" (u on top)."""
        if self.vtgt[u] != self.vsrc[v]:
            raise BoundaryMismatch("vcomp_v: %s then %s not composable"
                                   % (self.vnames[u], self.vnames[v]))
        try:
            return self._vv[u, v]
        except KeyError:
            if self.vcomp_v_fn is None:
                raise MalformedTables(
                    "vcomp_v table missing entry (%s, %s)"
                    % (self.vnames[u], self.vnames[v])) from None
        c = self._vv[u, v] = self.vcomp_v_fn(u, v)
        return c

    # -- squares -----------------------------------------------------------

    def square_exists(self, top, bottom, left, right):
        """True when a square of self has this boundary; ids that name no
        1-cells, or sides that do not close, bound none."""
        bound = (top, bottom, left, right)
        if bound in self._sq_by_bound:
            return True
        if not self.flat:
            return False
        nh, nv = range(len(self.hnames)), range(len(self.vnames))
        return (top in nh and bottom in nh and left in nv and right in nv
                and self._closes(top, bottom, left, right)
                and self.square_pred(top, bottom, left, right))

    def _flat_square_on(self, bound):
        """On a flat self, whether a square has the closing boundary
        ``bound``."""
        return bound in self._sq_by_bound or self.square_pred(*bound)

    def find_square(self, top, bottom, left, right):
        """The square with the given boundary, or None.

        In the flat backend the square is interned on first sight, named by
        its sides, and found again by its boundary from then on; the square
        composites and identity squares computed through it are kept in the
        square tables (see ``DoubleCat``).  In the explicit backend the
        boundary must carry at most one square.
        """
        bound = (top, bottom, left, right)
        hit = self._sq_by_bound.get(bound)
        if hit is not None:
            if len(hit) > 1:
                raise MalformedTables("boundary carries several squares")
            return hit[0]
        if not self.flat:
            return None
        self._check_square_boundary(top, bottom, left, right)
        if not self.square_pred(top, bottom, left, right):
            return None
        name = "[%s/%s;%s/%s]" % (self.hnames[top], self.hnames[bottom],
                                  self.vnames[left], self.vnames[right])
        self.sq_names.append(name)
        self.sq_bounds.append(bound)
        s = len(self.sq_bounds) - 1
        self._sq_by_bound[bound] = [s]
        return s

    def is_square_on(self, s, bounds):
        """True when s is the id of a square of self with boundary
        ``bounds``; an id out of range, or None, is on no boundary."""
        return (s is not None and 0 <= s < len(self.sq_bounds)
                and self.sq_bounds[s] == bounds)

    def squares_with_boundary(self, top, bottom, left, right):
        if self.flat:
            s = self.find_square(top, bottom, left, right)
            return [] if s is None else [s]
        return list(self._sq_by_bound.get((top, bottom, left, right), []))

    def _square_on(self, op, bound, x, y=None):
        """The square on the closing frame ``bound`` of the entry that the
        accessor ``op`` misses for x (and y), or None: on a flat self the
        one ``find_square`` decides.  An interned backend overrides it."""
        return self.find_square(*bound)

    def sq_h_id(self, u):
        """The horizontal identity square Id^u on a 1v-cell u."""
        try:
            return self._sqhid[u]
        except KeyError:
            if not (self.flat or self.interned):
                raise MalformedTables(
                    "sq_h_id missing for %s" % self.vnames[u]) from None
        s = self._square_on("sq_h_id", (self.h_id(self.vsrc[u]),
                                        self.h_id(self.vtgt[u]), u, u), u)
        if s is None:
            raise MalformedTables("flat category misses Id^%s" % self.vnames[u])
        if u >= 0:
            self._sqhid[u] = s
        return s

    def sq_v_id(self, f):
        """The vertical identity square Id_f on a 1h-cell f."""
        try:
            return self._sqvid[f]
        except KeyError:
            if not (self.flat or self.interned):
                raise MalformedTables(
                    "sq_v_id missing for %s" % self.hnames[f]) from None
        s = self._square_on("sq_v_id", (f, f, self.v_id(self.hsrc[f]),
                                        self.v_id(self.htgt[f])), f)
        if s is None:
            raise MalformedTables("flat category misses Id_%s" % self.hnames[f])
        if f >= 0:
            self._sqvid[f] = s
        return s

    def sq_id_obj(self, a):
        """The doubly-identity square on an object."""
        return self.sq_h_id(self.v_id(a))

    def hcomp_sq(self, s1, s2):
        """Horizontal composite, s1 on the left."""
        b1, b2 = self.sq_bounds[s1], self.sq_bounds[s2]
        if b1[3] != b2[2]:
            raise BoundaryMismatch("hcomp_sq: shared vertical edge differs")
        try:
            return self._hs[s1, s2]
        except KeyError:
            if not (self.flat or self.interned):
                raise MalformedTables("hcomp_sq table missing an entry") from None
        top = self.hcomp_h(b1[0], b2[0])
        bottom = self.hcomp_h(b1[1], b2[1])
        s = self._square_on("hcomp_sq", (top, bottom, b1[2], b2[3]), s1, s2)
        if s is None:
            raise MalformedTables("flat category not closed under hcomp_sq")
        if s1 >= 0 and s2 >= 0:
            self._hs[s1, s2] = s
        return s

    def vcomp_sq(self, s1, s2):
        """Vertical composite, s1 on top."""
        b1, b2 = self.sq_bounds[s1], self.sq_bounds[s2]
        if b1[1] != b2[0]:
            raise BoundaryMismatch("vcomp_sq: shared horizontal edge differs")
        try:
            return self._vs[s1, s2]
        except KeyError:
            if not (self.flat or self.interned):
                raise MalformedTables("vcomp_sq table missing an entry") from None
        left = self.vcomp_v(b1[2], b2[2])
        right = self.vcomp_v(b1[3], b2[3])
        s = self._square_on("vcomp_sq", (b1[0], b2[1], left, right), s1, s2)
        if s is None:
            raise MalformedTables("flat category not closed under vcomp_sq")
        if s1 >= 0 and s2 >= 0:
            self._vs[s1, s2] = s
        return s

    def hcomp_sq_many(self, squares):
        out = squares[0]
        for s in squares[1:]:
            out = self.hcomp_sq(out, s)
        return out

    def vcomp_sq_many(self, squares):
        out = squares[0]
        for s in squares[1:]:
            out = self.vcomp_sq(out, s)
        return out

    def globular_v(self, s):
        """True when the square's vertical sides are identities (f => g shape)."""
        return self.is_v_identity(self.sq_left(s)) and self.is_v_identity(self.sq_right(s))

    def globular_h(self, s):
        """True when the square's horizontal sides are identities (u => v shape)."""
        return self.is_h_identity(self.sq_top(s)) and self.is_h_identity(self.sq_bottom(s))

    def vertical_inverse(self, s):
        """The two-sided vcomp inverse of a vertically globular square, or None."""
        if not self.globular_v(s):
            return None
        f, g = self.sq_top(s), self.sq_bottom(s)
        for t in self.squares_with_boundary(g, f, self.sq_left(s), self.sq_right(s)):
            if (self.vcomp_sq(s, t) == self.sq_v_id(f)
                    and self.vcomp_sq(t, s) == self.sq_v_id(g)):
                return t
        return None

    def iter_squares(self):
        """All square ids; flat squares are interned during the scan."""
        if not self.flat:
            yield from range(self.n_squares)
            return
        for bound in self.iter_flat_boundaries():
            yield self.find_square(*bound)

    # -- enumeration of flat squares ---------------------------------------

    def iter_flat_boundaries(self):
        """All boundary quadruples with a square, scanning the boundary space."""
        if not self.flat:
            raise NotFlat("iter_flat_boundaries needs the flat backend")
        vgrp = {}
        for u in range(self.n_vcells):
            vgrp.setdefault(self.vsrc[u], []).append(u)
        hgrp = {}
        for f in range(self.n_hcells):
            hgrp.setdefault((self.hsrc[f], self.htgt[f]), []).append(f)
        for left in range(self.n_vcells):
            for right in range(self.n_vcells):
                tops = hgrp.get((self.vsrc[left], self.vsrc[right]), [])
                bottoms = hgrp.get((self.vtgt[left], self.vtgt[right]), [])
                for top in tops:
                    for bottom in bottoms:
                        if self.square_pred(top, bottom, left, right):
                            yield (top, bottom, left, right)

    def materialize_flat_squares(self):
        """Intern every flat square; returns the number of squares."""
        for bound in self.iter_flat_boundaries():
            self.find_square(*bound)
        return self.n_squares

    # -- cell refs ---------------------------------------------------------

    def cell_name(self, ref):
        if ref.kind == OBJECT:
            return self.objects[ref.id]
        if ref.kind == HCELL:
            return self.hnames[ref.id]
        if ref.kind == VCELL:
            return self.vnames[ref.id]
        return self.sq_names[ref.id]

    def __repr__(self):
        return "DoubleCat(%s: %d objects, %d h, %d v, %d squares%s)" % (
            self.name, self.n_objects, self.n_hcells, self.n_vcells,
            self.n_squares, ", flat" if self.flat else "")


# -- validation -------------------------------------------------------------


def validate_double_category(d, closure_limit=None, max_checks=None, seed=0):
    """Check the strict double-category laws exhaustively.

    For the explicit backend this checks table totality and boundaries,
    associativity and unitality of all four compositions, identity-square
    functoriality, and interchange on all 2x2 grids.  Once the totality and
    boundary passes hold, every composite a law asks for is of a composable
    pair, so the laws read it from the row of composites of its first cell
    that those passes kept, ``row[g]`` for ``f`` then ``g``; only the 1-cell
    unit laws and cells a lazy composite added call the composition.
    With ``max_checks``, the square associativity and interchange laws are
    checked on a sample of that many draws, seeded by ``seed``, whenever
    they have more instances; the report's ``sampled`` names those laws.
    For the flat backend
    equality of squares is determined by the boundary, so associativity,
    unitality and interchange are automatic once composites exist; what is
    checked is the existence of identity squares and closure of the square
    set under both compositions.  ``closure_limit`` bounds the number of
    composable pairs of flat squares; a larger category fails with
    ``flat-too-large`` rather than being checked in part.

    Product reduction: the laws of a product hold componentwise.  When d
    is an explicit ``dc_product`` of explicit factors, its 1-cell and
    identity checks pass, both factors pass an exhaustive validation (once
    when they are one category), neither d nor a factor has been edited
    since ``dc_product`` built d (their cell lists and square tables, read
    in order, equal the snapshot taken then; d's square tables are filled
    on first read and compared with the record of that fill instead), and
    every 1-cell composite of d is the componentwise one, the square
    checks are not evaluated: each is listed in ``reduced`` with its
    instance count, the product of the factors' counts.  Any difference
    from the snapshot or a fill record, even an entry removed and put
    back at the end of its table, takes the square pass.
    Under ``max_checks`` this is tried only when no check of a factor has
    more instances than both ``max_checks`` and the number of composable
    pairs of squares of d, which the square pass evaluates in full in any
    case.  Otherwise the square pass runs as above, so a failing report
    is the full pass's.
    """
    rep = ValidationReport()
    _validate_one_cat(rep, "h", d.n_hcells, d.hsrc, d.htgt,
                      d.hcomp_h, d._hh, d.h_id, d.n_objects, d)
    _validate_one_cat(rep, "v", d.n_vcells, d.vsrc, d.vtgt,
                      d.vcomp_v, d._vv, d.v_id, d.n_objects, d)
    _identity_cells(rep, d)
    if not rep.passed:
        return rep
    if d.flat:
        _validate_flat_squares(rep, d, closure_limit)
    elif not _reduce_product(rep, d, max_checks):
        _validate_explicit_squares(rep, d, max_checks, seed)
    return rep


def _reduce_product(rep, d, max_checks):
    """Mark every square check of the explicit product d as reduced, and
    return True, when its factors decide them; see
    ``validate_double_category``."""
    factors = getattr(d, "_factors", None)
    if factors is None or any(x.flat for x in factors):
        return False
    d1, d2 = factors
    counts1 = _square_pass_counts(d1)
    counts2 = counts1 if d2 is d1 else _square_pass_counts(d2)
    counts = {law: n * counts2[law] for law, n in counts1.items()}
    if max_checks is not None:
        limit = max(max_checks,
                    counts["hcomp-sq-total"] + counts["vcomp-sq-total"])
        if max(chain(counts1.values(), counts2.values())) > limit:
            return False
    for x in (d1,) if d2 is d1 else factors:
        try:
            if not validate_double_category(x).passed:
                return False
        except (DblError, LookupError):  # tables too broken to read
            return False
    if not _is_product_of(d, d1, d2):
        return False
    rep.reduced.update(counts)
    return True


def _square_pass_counts(d):
    """The instance count of each check of ``_validate_explicit_squares``
    on the explicit d, from its boundaries alone, in report order."""
    bounds = d.sq_bounds
    tops, bottoms, lefts, rights = (
        [b[i] for b in bounds] for i in range(4))
    hpairs, vpairs = composable_square_pairs(bounds)
    # a 2x2 grid is a top left square a with a square b on its right edge
    # and c on its bottom edge, then a square e with top left (bottom of
    # b, right of c): group a by those two edges, b by its left edge and
    # c by its top edge
    corners = Counter(zip(rights, bottoms))
    below, beside = {}, {}
    for t, o, l, r in bounds:
        below.setdefault(l, Counter())[o] += 1
        beside.setdefault(t, Counter())[r] += 1
    top_left = Counter(zip(tops, lefts))
    grids = sum(k * m * n * top_left[x, y]
                for (r, o), k in corners.items()
                for x, m in below.get(r, {}).items()
                for y, n in beside.get(o, {}).items())
    ns, nh, nv = d.n_squares, d.n_hcells, d.n_vcells
    return {
        "sq-v-id-missing": nh, "sq-v-id-boundary": nh,
        "sq-h-id-missing": nv, "sq-h-id-boundary": nv,
        "sq-obj-id": d.n_objects,
        "hcomp-sq-total": hpairs, "hcomp-sq-boundary": hpairs,
        "vcomp-sq-total": vpairs, "vcomp-sq-boundary": vpairs,
        "vcomp-sq-unit": ns, "hcomp-sq-unit": ns,
        "hcomp-sq-assoc": composable_triples(lefts, rights),
        "vcomp-sq-assoc": composable_triples(tops, bottoms),
        "sq-v-id-functorial": sum(map(Counter(d.hsrc).__getitem__, d.htgt)),
        "sq-h-id-functorial": sum(map(Counter(d.vsrc).__getitem__, d.vtgt)),
        "interchange": grids,
    }


def _is_product_of(d, d1, d2):
    """Whether d and its factors are as ``dc_product`` built them: the
    snapshot it stored as ``_built`` equals one taken now, each square
    table of d is unread or equals its fill record, and every 1-cell
    composite in d's tables is the componentwise one.  The 1-cell tables
    are not in the snapshot, since the 1-cell pass fills them after
    construction; the factors have passed validation, so their
    composites, read through ``hcomp_h``/``vcomp_v`` because a lazy table
    fills on use, exist on every composable pair."""
    if getattr(d, "_built", None) != _product_snapshot(d, d1, d2):
        return False
    v = vars(d)
    if any(t in v and (tuple(v[t]), tuple(v[t].values()))
           != v.get(t + "_filled") for t in ("_hs", "_vs")):
        return False
    nh2, nv2 = d2.n_hcells, d2.n_vcells
    return all(h == comp1(f // n2, g // n2) * n2 + comp2(f % n2, g % n2)
               for table, comp1, comp2, n2 in (
                   (d._hh, d1.hcomp_h, d2.hcomp_h, nh2),
                   (d._vv, d1.vcomp_v, d2.vcomp_v, nv2))
               for (f, g), h in table.items())


def _product_snapshot(p, d1, d2):
    """The sizes, cell lists and identity square tables of the explicit
    product p and of its factors, and the factors' square tables, each
    table as its keys and then its values in insertion order.  The tuples
    share their items with the live objects, so ``==`` on two snapshots
    of unedited categories compares by identity, at C speed."""
    cats = (p, d1, d2)
    return tuple((d.n_objects, d.n_hcells, d.n_vcells, d.n_squares)
                 for d in cats) + tuple(
        tuple(x) for d in cats
        for x in (d.hsrc, d.htgt, d.vsrc, d.vtgt, d._h_id, d._v_id,
                  d.sq_bounds, d._sqvid, d._sqvid.values(), d._sqhid,
                  d._sqhid.values())) + tuple(
        tuple(x) for d in (d1, d2)
        for x in (d._hs, d._hs.values(), d._vs, d._vs.values()))


def validate_one_cell_tables(d):
    """The 1-cell table pass of ``validate_double_category`` alone: the
    endpoints of every listed 1-cell composite, a composite with the right
    endpoints on every composable pair, and the identity 1-cells, under
    the same labels.  The associativity and unit laws are left out."""
    rep = ValidationReport()
    _one_cell_table(rep, "h", d.n_hcells, d.hsrc, d.htgt, d.hcomp_h, d._hh)
    _one_cell_table(rep, "v", d.n_vcells, d.vsrc, d.vtgt, d.vcomp_v, d._vv)
    _identity_cells(rep, d)
    return rep


def _identity_cells(rep, d):
    for a in range(d.n_objects):
        if d.h_id(a) is None:
            rep.add("h-identity-missing", object=CellRef(OBJECT, a))
        if d.v_id(a) is None:
            rep.add("v-identity-missing", object=CellRef(OBJECT, a))


def _one_cell_table(rep, tag, n, src, tgt, comp, table):
    """Check the endpoints of the listed composites, then compose every
    composable pair; the rows of composites, ``rows[f][g]`` for f then g,
    or None on a failure."""
    bad = False
    for (f, g), h in list(table.items()):
        if tgt[f] != src[g] or src[h] != src[f] or tgt[h] != tgt[g]:
            rep.add(tag + "-table-boundary", first=f, second=g)
            bad = True
    if bad:
        return None
    # every composite, also one a lazy composition function computes now,
    # must exist and have the right endpoints before a law composes it
    rows = [{} for _ in range(n)]
    for f in range(n):
        for g in range(n):
            if tgt[f] != src[g]:
                continue
            try:
                fg = rows[f][g] = comp(f, g)
            except MalformedTables:
                rep.add(tag + "-table-total", first=f, second=g)
                bad = True
                continue
            if src[fg] != src[f] or tgt[fg] != tgt[g]:
                rep.add(tag + "-table-boundary", first=f, second=g)
                bad = True
    return None if bad else rows


def _validate_one_cat(rep, tag, n, src, tgt, comp, table, ident, n_objects, d):
    rows = _one_cell_table(rep, tag, n, src, tgt, comp, table)
    if rows is None:
        return
    # a composite the pass above added (id n or more) has no row, so its
    # own composites go through comp, the left side first
    for f, row_f in enumerate(rows):
        for g, fg in row_f.items():
            row_fg = rows[fg] if fg < n else None
            for h, gh in rows[g].items():
                left = row_fg[h] if row_fg is not None else comp(fg, h)
                if left != (row_f[gh] if gh < n else comp(f, gh)):
                    rep.add(tag + "-assoc", first=f, second=g, third=h)
    for f in range(n):
        left_id = ident(src[f])
        right_id = ident(tgt[f])
        if left_id is None or right_id is None:
            continue
        if comp(left_id, f) != f or comp(f, right_id) != f:
            rep.add(tag + "-unit", cell=f)


def _validate_flat_squares(rep, d, closure_limit):
    for f in range(d.n_hcells):
        if not d.square_exists(f, f, d.v_id(d.hsrc[f]), d.v_id(d.htgt[f])):
            rep.add("sq-v-id-missing", hcell=CellRef(HCELL, f))
    for u in range(d.n_vcells):
        if not d.square_exists(d.h_id(d.vsrc[u]), d.h_id(d.vtgt[u]), u, u):
            rep.add("sq-h-id-missing", vcell=CellRef(VCELL, u))
    bounds = []
    for bound in d.iter_flat_boundaries():
        bounds.append(bound)
        if closure_limit is not None and len(bounds) > closure_limit:
            # with identity squares present every square closes at least
            # one pair, so the pair count exceeds the limit as well
            rep.add("flat-too-large", limit=closure_limit, squares=len(bounds))
            return
    if closure_limit is not None:
        pairs = sum(composable_square_pairs(bounds))
        if pairs > closure_limit:
            rep.add("flat-too-large", limit=closure_limit, pairs=pairs)
            return
    nh, nv = d.n_hcells, d.n_vcells
    pos = {b: i for i, b in enumerate(bounds)}
    # misses are reported in the order of a scan over squares s, checking
    # for each s its pairs as right factor, then as top factor:
    # (position of s, h before v, position of the other square)
    missing = [(pos[b2], 0, pos[b1]) for b1, b2 in
               _hcomp_closure_misses(bounds, d._hh, nh, nv)]
    # vertical closure is horizontal closure of the transposed squares
    transposed = ((l, r, t, o) for t, o, l, r in bounds)
    missing += [(pos[t, h, l1, r1], 1, pos[h, o, l2, r2])
                for (l1, r1, t, h), (l2, r2, _, o) in
                _hcomp_closure_misses(transposed, d._vv, nv, nh)]
    for i, vertical, j in sorted(missing):
        if vertical:
            rep.add("vcomp-sq-closure", top=bounds[i], bottom=bounds[j])
        else:
            rep.add("hcomp-sq-closure", left=bounds[j], right=bounds[i])


def composable_square_pairs(bounds):
    """The numbers of horizontally and of vertically composable pairs of
    squares with the given boundaries."""
    tops, bottoms, lefts, rights = (Counter(b[i] for b in bounds)
                                    for i in range(4))
    return (sum(n * lefts[e] for e, n in rights.items()),
            sum(n * tops[e] for e, n in bottoms.items()))


@lru_cache(maxsize=1024)
def row_keys(n, head=(), tail=()):
    """The keys ``head + (i,) + tail`` for i in ``range(n)``, in order: a
    law row over one index between fixed cells.  Kept per arguments, so
    that a row of one instance, the common case on small domains, costs
    a lookup and not an iterator."""
    return tuple(head + (i,) + tail for i in range(n))


def composable_pairs(src, tgt):
    """Yield each composable pair ``(f, g)`` of 1-cells with these
    endpoints, ``tgt[f] == src[g]``, in the order of f and then of g.

    The lists are read live: the range of f is fixed when the walk starts,
    the range of g is read again for each f.  A cell appended while the
    pairs of f are yielded, say by a lazy composite, is a candidate g from
    the next f on, but never a first cell f."""
    for f in range(len(tgt)):
        b = tgt[f]
        for g in range(len(src)):
            if src[g] == b:
                yield f, g


def composable_triples(src, tgt):
    """The number of composable triples of 1-cells with these endpoints."""
    into, out = Counter(tgt), Counter(src)
    return sum(into[a] * out[b] for a, b in zip(src, tgt))


def flat_validation_steps(d):
    """A bound, from 1-cell data alone, on the loop steps that
    ``validate_double_category`` takes on the flat d: every pair and every
    composable triple of 1-cells of each kind, and every boundary the
    square scan tests.  The closure pass over the squares found is not
    counted: per shared edge and left top edge it tests the right squares'
    bitsets merged by their composite top edge (``_hcomp_closure_misses``)."""
    hcells = Counter(zip(d.hsrc, d.htgt))
    sides = Counter(zip(d.vsrc, d.vtgt)).items()
    scan = sum(m * n * hcells[a, b] * hcells[c, e]
               for (a, c), m in sides for (b, e), n in sides)
    return (d.n_hcells ** 2 + d.n_vcells ** 2 + scan
            + composable_triples(d.hsrc, d.htgt)
            + composable_triples(d.vsrc, d.vtgt))


def _hcomp_closure_misses(bounds, comp, n_outer, n_inner):
    """Yield each pair of boundaries ``(t1, o1, l, m)``, ``(t2, o2, m, r)``
    whose composite ``(comp[t1, t2], comp[o1, o2], l, r)`` is not in
    ``bounds``.  Outer edges ``t, o`` range over ``n_outer`` cells, inner
    edges ``l, m, r`` over ``n_inner`` cells; ``comp`` is total on
    composable outer edges.

    The squares on either side of a shared edge ``m`` are grouped by their
    outer edges, and a group keeps its free inner edges as a Python-int
    bitset: the left group spread out (bit ``l*n_inner``), the right group
    plain (bit ``r``).  Their product has bit ``l*n_inner + r`` for every
    pair in the two groups, so one mask test checks all those pairs.

    For each top edge ``t1`` on the left, the right groups whose tops
    compose with ``t1`` to one ``T`` and which share a bottom edge ``o2``
    meet the same mask, so their bitsets are merged by OR first; the
    product distributes over that OR, as a right bitset lies below bit
    ``n_inner``.  Only a hit goes back to the groups merged into it, to
    name the pairs that miss.
    """
    lefts, rights = {}, {}
    have = [0] * (n_outer * n_outer)
    for t, o, l, r in bounds:
        group = lefts.setdefault(r, {}).setdefault(t, {})
        group[o] = group.get(o, 0) | 1 << l * n_inner
        group = rights.setdefault(l, {})
        group[t, o] = group.get((t, o), 0) | 1 << r
        have[t * n_outer + o] |= 1 << l * n_inner + r
    lacking = [~bits for bits in have]
    rows = [[0] * n_outer for _ in range(n_outer)]
    for (f, g), h in comp.items():
        rows[f][g] = h
    for m, tops in lefts.items():
        group2 = list(rights.get(m, {}).items())
        for t1, group1 in tops.items():
            row_t = rows[t1]
            # (T * n_outer, o2) -> [merged bits, [(t2, bits), ...]]
            merged = {}
            for (t2, o2), bits in group2:
                key = row_t[t2] * n_outer, o2
                entry = merged.get(key)
                if entry is None:
                    merged[key] = [bits, [(t2, bits)]]
                else:
                    entry[0] |= bits
                    entry[1].append((t2, bits))
            merged = list(merged.items())
            for o1, spread in group1.items():
                row_o = rows[o1]
                for (base, o2), (bits, parts) in merged:
                    miss = bits * spread & lacking[base + row_o[o2]]
                    if not miss:
                        continue
                    for t2, bits in parts:
                        hit = bits * spread & miss
                        while hit:
                            low = hit & -hit
                            l, r = divmod(low.bit_length() - 1, n_inner)
                            yield (t1, o1, l, m), (t2, o2, m, r)
                            hit ^= low


def _validate_explicit_squares(rep, d, max_checks=None, seed=0):
    bounds = d.sq_bounds
    hh, vv = d._hh, d._vv
    sqv, sqh = d._sqvid, d._sqhid
    hsrc, htgt, vsrc, vtgt = d.hsrc, d.htgt, d.vsrc, d.vtgt
    h_id, v_id = d._h_id, d._v_id
    for f in range(d.n_hcells):
        if f not in sqv:
            rep.add("sq-v-id-missing", hcell=CellRef(HCELL, f))
        elif bounds[sqv[f]] != (f, f, v_id[hsrc[f]], v_id[htgt[f]]):
            rep.add("sq-v-id-boundary", hcell=CellRef(HCELL, f))
    for u in range(d.n_vcells):
        if u not in sqh:
            rep.add("sq-h-id-missing", vcell=CellRef(VCELL, u))
        elif bounds[sqh[u]] != (h_id[vsrc[u]], h_id[vtgt[u]], u, u):
            rep.add("sq-h-id-boundary", vcell=CellRef(VCELL, u))
    if not rep.passed:
        return
    for a in range(d.n_objects):
        if sqh[v_id[a]] != sqv[h_id[a]]:
            rep.add("sq-obj-id", object=CellRef(OBJECT, a))
    by_left, by_top, by_tl = {}, {}, {}
    for s, (t, _, l, _) in enumerate(bounds):
        by_left.setdefault(l, []).append(s)
        by_top.setdefault(t, []).append(s)
        by_tl.setdefault((t, l), []).append(s)
    hpairs = _SquarePairs(bounds, by_left, 3)
    vpairs = _SquarePairs(bounds, by_top, 1)
    hs = _check_square_table(rep, "hcomp-sq", ("left", "right"), d._hs,
                             hpairs, bounds, hh)
    # vertical composition is horizontal composition of transposed squares
    vs = _check_square_table(rep, "vcomp-sq", ("top", "bottom"), d._vs,
                             vpairs, [(l, r, t, o) for t, o, l, r in bounds],
                             vv)
    if not rep.passed:
        return
    # from here on every composite asked for is of a composable pair, so
    # it is in the row of its first square: hs[s1][s2], vs[s1][s2]
    for s, (t, o, l, r) in enumerate(bounds):
        if vs[sqv[t]][s] != s or vs[s][sqv[o]] != s:
            rep.add("vcomp-sq-unit", square=CellRef(SQUARE, s))
        if hs[sqh[l]][s] != s or hs[s][sqh[r]] != s:
            rep.add("hcomp-sq-unit", square=CellRef(SQUARE, s))
    rng = random.Random(seed)
    biggest = max(map(len, chain(by_left.values(), by_top.values())),
                  default=0)

    def triples(law, pairs):
        """For each pair (s1, s2) of ``pairs``, the s3 with (s2, s3) in
        ``pairs`` as well: all of them, or a seeded sample of triples."""
        if max_checks is None or len(pairs) * biggest <= max_checks:
            for s1, s2 in pairs:
                yield s1, s2, pairs.rows[s2]
            return
        rep.mark_sampled(law, max_checks, seed)
        for _ in range(max_checks):
            s1, s2 = pairs[rng.randrange(len(pairs))]
            grp = pairs.rows[s2]
            if grp:
                yield s1, s2, (grp[rng.randrange(len(grp))],)

    for law, comp, pairs in (("hcomp-sq-assoc", hs, hpairs),
                             ("vcomp-sq-assoc", vs, vpairs)):
        for s1, s2, s3s in triples(law, pairs):
            row1, row2 = comp[s1], comp[s2]
            row12 = comp[row1[s2]]
            for s3 in s3s:
                if row12[s3] != row1[row2[s3]]:
                    rep.add(law, first=CellRef(SQUARE, s1),
                            second=CellRef(SQUARE, s2),
                            third=CellRef(SQUARE, s3))
    for f, g in composable_pairs(hsrc, htgt):
        if hs[sqv[f]][sqv[g]] != sqv[hh[f, g]]:
            rep.add("sq-v-id-functorial", first=CellRef(HCELL, f),
                    second=CellRef(HCELL, g))
    for u, v in composable_pairs(vsrc, vtgt):
        if vs[sqh[u]][sqh[v]] != sqh[vv[u, v]]:
            rep.add("sq-h-id-functorial", first=CellRef(VCELL, u),
                    second=CellRef(VCELL, v))

    def grids():
        """For each 2x2 grid's top left, top right and bottom left square,
        its bottom right squares: all grids, or a seeded sample."""
        big_top = max(map(len, by_top.values()), default=0)
        big_tl = max(map(len, by_tl.values()), default=0)
        if max_checks is None or len(hpairs) * big_top * big_tl <= max_checks:
            for a, b in hpairs:
                for c in vpairs.rows[a]:
                    yield a, b, c, by_tl.get((bounds[b][1], bounds[c][3]), ())
            return
        rep.mark_sampled("interchange", max_checks, seed)
        for _ in range(max_checks):
            a, b = hpairs[rng.randrange(len(hpairs))]
            cs = vpairs.rows[a]
            if not cs:
                continue
            c = cs[rng.randrange(len(cs))]
            es = by_tl.get((bounds[b][1], bounds[c][3]), [])
            if es:
                yield a, b, c, (es[rng.randrange(len(es))],)

    for a, b, c, es in grids():
        ab, ac = vs[hs[a][b]], hs[vs[a][c]]
        ce, be = hs[c], vs[b]
        for e in es:
            if ab[ce[e]] != ac[be[e]]:
                rep.add("interchange", tl=CellRef(SQUARE, a),
                        tr=CellRef(SQUARE, b), bl=CellRef(SQUARE, c),
                        br=CellRef(SQUARE, e))


class _SquarePairs:
    """The pairs ``(s1, s2)`` of squares with ``s2`` in ``rows[s1]``, in the
    order of ``s1`` and then of its row, as a read-only sequence.  Row
    ``s1`` is the group of squares on the far side of edge ``side`` of
    ``s1``, so the pairs are the composable ones."""

    def __init__(self, bounds, groups, side):
        self.rows = [groups.get(b[side], ()) for b in bounds]
        self.starts = list(accumulate(map(len, self.rows), initial=0))

    def __len__(self):
        return self.starts[-1]

    def __getitem__(self, i):
        s1 = bisect_right(self.starts, i) - 1
        return s1, self.rows[s1][i - self.starts[s1]]

    def __iter__(self):
        for s1, row in enumerate(self.rows):
            for s2 in row:
                yield s1, s2


def _check_square_table(rep, law, sides, table, pairs, bounds, edge_comp):
    """Check that ``table`` composes every pair of squares ``(t1, o1, l, m)``,
    ``(t2, o2, m, r)`` to one with boundary ``(edge_comp[t1, t2],
    edge_comp[o1, o2], l, r)``, reporting ``<law>-total`` and
    ``<law>-boundary`` failures in pair order.  ``edge_comp`` is total on
    the outer edges of such pairs.

    The pairs that share a first square are looked up and compared with
    the boundaries they call for as one row; only a row that differs is
    scanned pair by pair for its witnesses.  Returns the rows, one per
    first square ``s1`` as ``{s2: table.get((s1, s2))}``, for the laws.
    """
    rows = {}
    for (f, g), h in edge_comp.items():
        rows.setdefault(f, {})[g] = h
    sq_bound = bounds.__getitem__
    composites = []
    for s1, group in enumerate(pairs.rows):
        got = list(map(table.get, zip(repeat(s1), group)))
        composites.append(dict(zip(group, got)))
        if not group:
            continue
        t1, o1, l1, _ = bounds[s1]
        row_t, row_o = rows[t1], rows[o1]
        want = [(row_t[t2], row_o[o2], l1, r2)
                for t2, o2, _, r2 in map(sq_bound, group)]
        if None not in got and list(map(sq_bound, got)) == want:
            continue
        for s2, s, w in zip(group, got, want):
            if s is None:
                rep.add(law + "-total", **{sides[0]: CellRef(SQUARE, s1),
                                           sides[1]: CellRef(SQUARE, s2)})
            elif bounds[s] != w:
                rep.add(law + "-boundary", **{sides[0]: CellRef(SQUARE, s1),
                                              sides[1]: CellRef(SQUARE, s2)})
    return composites


# -- product ----------------------------------------------------------------


PRODUCT_SQUARE_CAP = 250000


class _ExplicitProduct(DoubleCat):
    """An explicit ``dc_product``, its square tables filled on first read."""

    def __init__(self, name):
        super().__init__(name)
        del self._hs, self._vs

    def _fill(self, table):
        n, ns2, rows = self._rows
        rows1, rows2 = rows[table]
        # every id is one shared int, so the large tables hold no int of
        # their own
        ids = list(range(n))
        t = {}
        for (a1, b1), c1 in rows1:
            x, y, z = a1 * ns2, b1 * ns2, c1 * ns2
            for (a2, b2), c2 in rows2:
                t[ids[x + a2], ids[y + b2]] = ids[z + c2]
        vars(self)[table + "_filled"] = (tuple(t), tuple(t.values()))
        return t

    _hs = cached_property(lambda self: self._fill("_hs"))
    _vs = cached_property(lambda self: self._fill("_vs"))


def dc_product(d1, d2):
    """Cartesian product of double categories, cells componentwise.

    The factors are kept as ``_factors``.  The cell of each kind pairing
    x1 of d1 with x2 of d2 has id ``x1 * n2 + x2``, n2 the number of
    cells of that kind of d2: the first factor is outer.  Other modules
    read that layout through ``product_cell`` (components to id),
    ``product_projections`` (id to components) and ``product_cells``
    (every cell with its components, in id order).  A flat product
    interns its squares as they are found, so only its objects and
    1-cells follow the layout.  An explicit product also keeps
    ``_built``, a snapshot of its own and its factors' cell lists and of
    the factors' square tables (``_product_snapshot``); validation decides
    its square laws from the factors while that snapshot still holds.
    Its square tables list the pairs of factor entries, the first
    factor's outer, and share one int object per square id.  Each is
    filled on its first read from the factor entries captured at build
    time, and the fill records its keys and values, in order, beside it
    as ``_hs_filled``/``_vs_filled``; a table unequal to its record has
    been edited.
    """
    p = (DoubleCat if d1.flat or d2.flat else _ExplicitProduct)(
        "%sx%s" % (d1.name, d2.name))
    p._factors = (d1, d2)
    for a1 in range(d1.n_objects):
        for a2 in range(d2.n_objects):
            p.add_object("(%s,%s)" % (d1.objects[a1], d2.objects[a2]))
    no2 = d2.n_objects

    def obj(a1, a2):
        return a1 * no2 + a2

    nh2, nv2 = d2.n_hcells, d2.n_vcells
    for f1 in range(d1.n_hcells):
        for f2 in range(nh2):
            p.add_hcell("(%s,%s)" % (d1.hnames[f1], d2.hnames[f2]),
                        obj(d1.hsrc[f1], d2.hsrc[f2]),
                        obj(d1.htgt[f1], d2.htgt[f2]))
    for u1 in range(d1.n_vcells):
        for u2 in range(nv2):
            p.add_vcell("(%s,%s)" % (d1.vnames[u1], d2.vnames[u2]),
                        obj(d1.vsrc[u1], d2.vsrc[u2]),
                        obj(d1.vtgt[u1], d2.vtgt[u2]))
    for a1 in range(d1.n_objects):
        for a2 in range(d2.n_objects):
            p._h_id[obj(a1, a2)] = d1.h_id(a1) * nh2 + d2.h_id(a2)
            p._v_id[obj(a1, a2)] = d1.v_id(a1) * nv2 + d2.v_id(a2)
    p.hcomp_h_fn = lambda f, g: (
        d1.hcomp_h(f // nh2, g // nh2) * nh2 + d2.hcomp_h(f % nh2, g % nh2))
    p.vcomp_v_fn = lambda u, v: (
        d1.vcomp_v(u // nv2, v // nv2) * nv2 + d2.vcomp_v(u % nv2, v % nv2))
    if d1.flat and d2.flat:
        # the product passes its predicate closing boundaries only, whose
        # components close in their factors
        def pred(top, bottom, left, right):
            return (d1._flat_square_on((top // nh2, bottom // nh2,
                                        left // nv2, right // nv2))
                    and d2._flat_square_on((top % nh2, bottom % nh2,
                                            left % nv2, right % nv2)))
        p.set_flat(pred)
        return p
    if d1.flat or d2.flat:
        raise MalformedTables(
            "product needs both factors explicit or both flat; materialize first")
    if d1.n_squares * d2.n_squares > PRODUCT_SQUARE_CAP:
        raise SizeBound("product square count above cap")
    ns2 = d2.n_squares
    for s1 in range(d1.n_squares):
        for s2 in range(ns2):
            t1, b1, l1, r1 = d1.sq_bounds[s1]
            t2, b2, l2, r2 = d2.sq_bounds[s2]
            p.add_square("(%s,%s)" % (d1.sq_names[s1], d2.sq_names[s2]),
                         t1 * nh2 + t2, b1 * nh2 + b2, l1 * nv2 + l2, r1 * nv2 + r2)
    p._rows = (p.n_squares, ns2, {
        "_hs": (tuple(d1._hs.items()), tuple(d2._hs.items())),
        "_vs": (tuple(d1._vs.items()), tuple(d2._vs.items()))})
    for u1, s1 in d1._sqhid.items():
        for u2, s2 in d2._sqhid.items():
            p.set_sq_h_id(u1 * nv2 + u2, s1 * ns2 + s2)
    for f1, s1 in d1._sqvid.items():
        for f2, s2 in d2._sqvid.items():
            p.set_sq_v_id(f1 * nh2 + f2, s1 * ns2 + s2)
    p._built = _product_snapshot(p, d1, d2)
    return p


def explicit_clone(d):
    """Explicit-table copy of a flat double category, with identical ids.

    Products need both factors on the same backend; cloning the flat one
    keeps every cell id stable, so structures indexed against the original
    keep working against the clone and its products.
    """
    if not d.flat:
        return d
    d.materialize_flat_squares()
    e = DoubleCat(d.name)
    e.objects = list(d.objects)
    e.hnames, e.hsrc, e.htgt = list(d.hnames), list(d.hsrc), list(d.htgt)
    e.vnames, e.vsrc, e.vtgt = list(d.vnames), list(d.vsrc), list(d.vtgt)
    e._h_id, e._v_id = list(d._h_id), list(d._v_id)
    e.hcomp_h_fn = d.hcomp_h
    e.vcomp_v_fn = d.vcomp_v
    for s in range(d.n_squares):
        e.add_square(d.sq_names[s], *d.sq_bounds[s])
    for f in range(d.n_hcells):
        e.set_sq_v_id(f, d.sq_v_id(f))
    for u in range(d.n_vcells):
        e.set_sq_h_id(u, d.sq_h_id(u))
    _derive_flat_tables(e)
    return e


# the count of the cells of each kind, by attribute name
_KIND_COUNT = {OBJECT: "n_objects", HCELL: "n_hcells", VCELL: "n_vcells",
               SQUARE: "n_squares"}


def product_cell(p, kind, x1, x2):
    """The id of the cell of one kind of the product p that pairs x1 of
    its first factor with x2 of its second."""
    return x1 * getattr(p._factors[1], _KIND_COUNT[kind]) + x2


def product_cells(p, kind):
    """The cells of one kind of the product p as ``(x, x1, x2)``, in id
    order: x is ``product_cell(p, kind, x1, x2)``."""
    n1, n2 = (getattr(d, _KIND_COUNT[kind]) for d in p._factors)
    return ((x1 * n2 + x2, x1, x2) for x1 in range(n1) for x2 in range(n2))


def product_projections(d1, d2):
    """Index maps from the cells of ``dc_product(d1, d2)`` back to their
    components, the inverse of ``product_cell``."""
    n2 = {kind: getattr(d2, count) for kind, count in _KIND_COUNT.items()}

    def proj1(kind, idx):
        return idx // n2[kind]

    def proj2(kind, idx):
        return idx % n2[kind]

    return proj1, proj2


# -- pasting terms ----------------------------------------------------------


class Gen(FrozenRecord):
    __slots__ = ("name",)

    def __init__(self, name):
        init_field(self, "name", name)


class HComp(FrozenRecord):
    __slots__ = ("left", "right")

    def __init__(self, left, right):
        init_field(self, "left", left)
        init_field(self, "right", right)


class VComp(FrozenRecord):
    __slots__ = ("top", "bottom")

    def __init__(self, top, bottom):
        init_field(self, "top", top)
        init_field(self, "bottom", bottom)


class HId(FrozenRecord):
    __slots__ = ("of",)

    def __init__(self, of):
        init_field(self, "of", of)


class VId(FrozenRecord):
    __slots__ = ("of",)

    def __init__(self, of):
        init_field(self, "of", of)


def eval_pasting(d, term, env):
    """Evaluate a pasting term to a CellRef of d under a generator assignment.

    HComp/VComp act on 1-cells or on squares; HId turns an object into its
    horizontal identity 1-cell and a 1v-cell u into Id^u; VId turns an object
    into its vertical identity 1-cell and a 1h-cell f into Id_f.
    """
    if isinstance(term, Gen):
        cell = env[term.name]
        if not isinstance(cell, CellRef):
            raise BoundaryMismatch("environment values must be CellRefs")
        return cell
    if isinstance(term, HId):
        cell = eval_pasting(d, term.of, env)
        if cell.kind == OBJECT:
            return CellRef(HCELL, d.h_id(cell.id))
        if cell.kind == VCELL:
            return CellRef(SQUARE, d.sq_h_id(cell.id))
        raise BoundaryMismatch("HId expects an object or a 1v-cell")
    if isinstance(term, VId):
        cell = eval_pasting(d, term.of, env)
        if cell.kind == OBJECT:
            return CellRef(VCELL, d.v_id(cell.id))
        if cell.kind == HCELL:
            return CellRef(SQUARE, d.sq_v_id(cell.id))
        raise BoundaryMismatch("VId expects an object or a 1h-cell")
    if isinstance(term, HComp):
        a = eval_pasting(d, term.left, env)
        b = eval_pasting(d, term.right, env)
        if a.kind == HCELL and b.kind == HCELL:
            return CellRef(HCELL, d.hcomp_h(a.id, b.id))
        if a.kind == SQUARE and b.kind == SQUARE:
            return CellRef(SQUARE, d.hcomp_sq(a.id, b.id))
        raise BoundaryMismatch("HComp expects two 1h-cells or two squares")
    if isinstance(term, VComp):
        a = eval_pasting(d, term.top, env)
        b = eval_pasting(d, term.bottom, env)
        if a.kind == VCELL and b.kind == VCELL:
            return CellRef(VCELL, d.vcomp_v(a.id, b.id))
        if a.kind == SQUARE and b.kind == SQUARE:
            return CellRef(SQUARE, d.vcomp_sq(a.id, b.id))
        raise BoundaryMismatch("VComp expects two 1v-cells or two squares")
    raise BoundaryMismatch("not a pasting term: %r" % (term,))


# -- fixtures ---------------------------------------------------------------


def trivial():
    """The terminal double category: one cell of each kind."""
    d = DoubleCat("trivial")
    a = d.add_object("*")
    d.add_hcell("1_*", a, a, identity_of=a)
    d.add_vcell("1^*", a, a, identity_of=a)
    d.set_hh(0, 0, 0)
    d.set_vv(0, 0, 0)
    d.set_flat(lambda t, b, l, r: True)
    return d


def _derive_flat_tables(d):
    """Fill explicit square tables by boundary lookup (flat data only)."""
    ns = d.n_squares
    for s1 in range(ns):
        for s2 in range(ns):
            if d.sq_right(s1) == d.sq_left(s2):
                want = (d.hcomp_h(d.sq_top(s1), d.sq_top(s2)),
                        d.hcomp_h(d.sq_bottom(s1), d.sq_bottom(s2)),
                        d.sq_left(s1), d.sq_right(s2))
                hit = d._sq_by_bound.get(want)
                if hit is None or len(hit) != 1:
                    raise MalformedTables("flat table derivation failed")
                d.set_hs(s1, s2, hit[0])
            if d.sq_bottom(s1) == d.sq_top(s2):
                want = (d.sq_top(s1), d.sq_bottom(s2),
                        d.vcomp_v(d.sq_left(s1), d.sq_left(s2)),
                        d.vcomp_v(d.sq_right(s1), d.sq_right(s2)))
                hit = d._sq_by_bound.get(want)
                if hit is None or len(hit) != 1:
                    raise MalformedTables("flat table derivation failed")
                d.set_vs(s1, s2, hit[0])


def free_double_category(name, objects, hcells=(), vcells=(), squares=()):
    """The free double category on ``(name, src, tgt)`` 1h- and 1v-cells
    and ``(name, top, bottom, left, right)`` squares, over cell names.

    Ids follow the construction: the objects; per kind the identity
    1-cells ``1_x``/``1^x`` in object order, then the given 1-cells; the
    identity squares ``Id_f``/``Id^u`` as ``from_json`` adds them, then the
    given squares.  The given cells must not compose with each other;
    where they do, deriving the square tables raises ``MalformedTables``
    unless one square already has the composite's boundary.
    """
    d = DoubleCat(name)
    oid = {nm: d.add_object(nm) for nm in objects}
    hid, vid = {}, {}
    _add_identity_cells(d, hid, vid)
    for nm, src, tgt in hcells:
        hid[nm] = d.add_hcell(nm, oid[src], oid[tgt])
    for nm, src, tgt in vcells:
        vid[nm] = d.add_vcell(nm, oid[src], oid[tgt])
    _fill_unit_rows(d)
    _add_identity_squares(d, {}, {}, {})
    for nm, top, bottom, left, right in squares:
        d.add_square(nm, hid[top], hid[bottom], vid[left], vid[right])
    _derive_flat_tables(d)
    return d


def walk_h():
    """The free double category on one 1h-cell ``a: 0 -> 1``."""
    return free_double_category("walk_h", ["0", "1"], [("a", "0", "1")])


def walk_v():
    """The free double category on one 1v-cell ``x: 0 -> 1``."""
    return free_double_category("walk_v", ["0", "1"], vcells=[("x", "0", "1")])


def walk_sq():
    """The free double category on one square ``s`` framed by t, b, l, r."""
    return free_double_category(
        "walk_sq", ["00", "01", "10", "11"], [("t", "00", "01"), ("b", "10", "11")],
        [("l", "00", "10"), ("r", "01", "11")], [("s", "t", "b", "l", "r")])


def parity():
    """A non-flat fixture: one object, Z2 worth of 1-cells each way, and two
    squares on every boundary distinguished by a sign that adds under both
    compositions.  Every globular square is invertible, which makes this the
    workhorse for pseudo-functor and mutation tests."""
    d = DoubleCat("parity")
    a = d.add_object("*")
    h0 = d.add_hcell("1_*", a, a, identity_of=a)
    h1 = d.add_hcell("h", a, a)
    v0 = d.add_vcell("1^*", a, a, identity_of=a)
    v1 = d.add_vcell("v", a, a)
    for x in (h0, h1):
        for y in (h0, h1):
            d.set_hh(x, y, x ^ y)
    for x in (v0, v1):
        for y in (v0, v1):
            d.set_vv(x, y, x ^ y)
    idx = {}
    for top in (h0, h1):
        for bottom in (h0, h1):
            for left in (v0, v1):
                for right in (v0, v1):
                    for sign in (0, 1):
                        nm = "s[%d%d%d%d:%d]" % (top, bottom, left, right, sign)
                        s = d.add_square(nm, top, bottom, left, right)
                        idx[(top, bottom, left, right, sign)] = s
    sign_of = {s: k[4] for k, s in idx.items()}
    for s1 in range(d.n_squares):
        t1, b1, l1, r1 = d.sq_bounds[s1]
        for s2 in range(d.n_squares):
            t2, b2, l2, r2 = d.sq_bounds[s2]
            sgn = sign_of[s1] ^ sign_of[s2]
            if r1 == l2:
                d.set_hs(s1, s2, idx[(t1 ^ t2, b1 ^ b2, l1, r2, sgn)])
            if b1 == t2:
                d.set_vs(s1, s2, idx[(t1, b2, l1 ^ l2, r1 ^ r2, sgn)])
    for f in (h0, h1):
        d.set_sq_v_id(f, idx[(f, f, v0, v0, 0)])
    for u in (v0, v1):
        d.set_sq_h_id(u, idx[(h0, h0, u, u, 0)])
    d.parity_index = idx
    d.parity_sign = sign_of
    return d


def _enum_matrices(a, b):
    """All Boolean matrices X->Y with |X|=a, |Y|=b, as frozensets of (y, x)."""
    cells = [(y, x) for y in range(b) for x in range(a)]
    out = []
    for bits in range(1 << len(cells)):
        out.append(frozenset(c for i, c in enumerate(cells) if bits >> i & 1))
    return out


def _enum_functions(a, b):
    if a == 0:
        return [()]
    if b == 0:
        return []
    return list(iproduct(range(b), repeat=a))


def bool_matrix_double_category(max_size):
    """Boolean matrices: objects are index sets of size 0..max_size, 1h-cells
    are Boolean matrices with matrix product, 1v-cells are functions, and a
    square exists iff M(y,x)=1 implies N(g y, f x)=1.  Flat."""
    if max_size > 3:
        raise SizeBound("bool_matrix_double_category supports max_size <= 3")
    d = DoubleCat("bool%d" % max_size)
    sizes = list(range(max_size + 1))
    for n in sizes:
        d.add_object(str(n))
    d.hmat = []
    hindex = {}
    for a in sizes:
        for b in sizes:
            for m in _enum_matrices(a, b):
                ident = (a == b and m == frozenset((x, x) for x in range(a)))
                f = d.add_hcell("M%d" % d.n_hcells, a, b,
                                identity_of=a if ident else None)
                d.hmat.append(m)
                hindex[(a, b, m)] = f
    d.hindex = hindex
    d.vfun = []
    vindex = {}
    for a in sizes:
        for b in sizes:
            for fn in _enum_functions(a, b):
                ident = (a == b and fn == tuple(range(a)))
                u = d.add_vcell("f%d" % d.n_vcells, a, b,
                                identity_of=a if ident else None)
                d.vfun.append(fn)
                vindex[(a, b, fn)] = u
    d.vindex = vindex

    def hh(f, g):
        a, b = d.hsrc[f], d.htgt[f]
        c = d.htgt[g]
        m, n = d.hmat[f], d.hmat[g]
        out = frozenset((z, x) for z in range(c) for x in range(a)
                        if any((y, x) in m and (z, y) in n for y in range(b)))
        return hindex[(a, c, out)]

    def vv(u, v):
        a = d.vsrc[u]
        c = d.vtgt[v]
        fu, fv = d.vfun[u], d.vfun[v]
        return vindex[(a, c, tuple(fv[fu[x]] for x in range(a)))]

    d.hcomp_h_fn = hh
    d.vcomp_v_fn = vv

    def pred(top, bottom, left, right):
        m, n = d.hmat[top], d.hmat[bottom]
        f, g = d.vfun[left], d.vfun[right]
        return all((g[y], f[x]) in n for (y, x) in m)

    d.set_flat(pred)
    return d


FIXTURES = {
    "trivial": trivial,
    "walk_h": walk_h,
    "walk_v": walk_v,
    "walk_sq": walk_sq,
    "parity": parity,
    "bool1": lambda: bool_matrix_double_category(1),
    "bool2": lambda: bool_matrix_double_category(2),
}


# -- JSON format ------------------------------------------------------------


def to_json(d):
    """Serialize to the presentation format (flat squares as boundary list)."""
    doc = {
        "objects": list(d.objects),
        "hcells": [{"name": d.hnames[f], "src": d.objects[d.hsrc[f]],
                    "tgt": d.objects[d.htgt[f]]} for f in range(d.n_hcells)],
        "vcells": [{"name": d.vnames[u], "src": d.objects[d.vsrc[u]],
                    "tgt": d.objects[d.vtgt[u]]} for u in range(d.n_vcells)],
        "flat": d.flat,
        "hcomp_h": [[d.hnames[f], d.hnames[g], d.hnames[h]]
                    for (f, g), h in sorted(d._hh.items())],
        "vcomp_v": [[d.vnames[u], d.vnames[v], d.vnames[w]]
                    for (u, v), w in sorted(d._vv.items())],
    }
    if d.flat:
        bounds = list(d.iter_flat_boundaries())
        doc["squares"] = [{"top": d.hnames[t], "bottom": d.hnames[b],
                           "left": d.vnames[l], "right": d.vnames[r]}
                          for (t, b, l, r) in bounds]
    else:
        doc["squares"] = [{"name": d.sq_names[s], "top": d.hnames[d.sq_top(s)],
                           "bottom": d.hnames[d.sq_bottom(s)],
                           "left": d.vnames[d.sq_left(s)],
                           "right": d.vnames[d.sq_right(s)]}
                          for s in range(d.n_squares)]
        doc["hcomp_sq"] = [[d.sq_names[a], d.sq_names[b], d.sq_names[c]]
                           for (a, b), c in sorted(d._hs.items())]
        doc["vcomp_sq"] = [[d.sq_names[a], d.sq_names[b], d.sq_names[c]]
                           for (a, b), c in sorted(d._vs.items())]
        doc["sq_v_id"] = {d.hnames[f]: d.sq_names[s] for f, s in d._sqvid.items()}
        doc["sq_h_id"] = {d.vnames[u]: d.sq_names[s] for u, s in d._sqhid.items()}
    return doc


def from_json(doc):
    """Build a DoubleCat from the presentation format.

    Identities named ``1_<obj>`` / ``1^<obj>`` / ``Id_<h>`` / ``Id^<v>`` are
    recognized; missing identity 1-cells and, in the explicit backend,
    missing identity squares are generated.  A name listed twice among
    the objects, the 1h-cells, the 1v-cells or the named squares, and a
    pair given two different composites, raise ``MalformedTables``.
    """
    d = DoubleCat("json")
    oid = {}
    for nm in doc["objects"]:
        _new_name(oid, nm, "object")
        oid[nm] = d.add_object(nm)
    hid, vid = {}, {}
    for key, ids, add, ident_name, kind in (
            ("hcells", hid, d.add_hcell, "1_%s", "1h-cell"),
            ("vcells", vid, d.add_vcell, "1^%s", "1v-cell")):
        for c in doc.get(key, []):
            _new_name(ids, c["name"], kind)
            ident = oid[c["src"]] if c["name"] == ident_name % c["src"] \
                and c["src"] == c["tgt"] else None
            ids[c["name"]] = add(c["name"], oid[c["src"]], oid[c["tgt"]],
                                 identity_of=ident)
    _add_identity_cells(d, hid, vid)
    _set_rows(d._hh, doc, "hcomp_h", hid)
    _set_rows(d._vv, doc, "vcomp_v", vid)
    _fill_unit_rows(d)
    if doc.get("flat", False):
        bounds = set()
        for s in doc.get("squares", []):
            bounds.add((hid[s["top"]], hid[s["bottom"]],
                        vid[s["left"]], vid[s["right"]]))
        for f in range(d.n_hcells):
            bounds.add((f, f, d.v_id(d.hsrc[f]), d.v_id(d.htgt[f])))
        for u in range(d.n_vcells):
            bounds.add((d.h_id(d.vsrc[u]), d.h_id(d.vtgt[u]), u, u))
        d.set_flat(lambda t, b, l, r: (t, b, l, r) in bounds)
        return d
    sid = {}
    for s in doc.get("squares", []):
        _new_name(sid, s["name"], "square")
        sid[s["name"]] = d.add_square(s["name"], hid[s["top"]], hid[s["bottom"]],
                                      vid[s["left"]], vid[s["right"]])
    _add_identity_squares(d, sid, doc.get("sq_v_id", {}),
                          doc.get("sq_h_id", {}))
    _set_rows(d._hs, doc, "hcomp_sq", sid)
    _set_rows(d._vs, doc, "vcomp_sq", sid)
    _fill_identity_square_composites(d)
    return d


def _add_identity_cells(d, hid, vid):
    """Add the ``1_x``/``1^x`` that an object x lacks to d, hid and vid."""
    for o, nm in enumerate(d.objects):
        if d._h_id[o] is None:
            hid["1_%s" % nm] = d.add_hcell("1_%s" % nm, o, o, identity_of=o)
        if d._v_id[o] is None:
            vid["1^%s" % nm] = d.add_vcell("1^%s" % nm, o, o, identity_of=o)


def _fill_unit_rows(d):
    """Add each 1-cell's unit rows to d; listed rows stay for validation."""
    hh, vv = d._hh.setdefault, d._vv.setdefault
    for o in range(d.n_objects):
        hh((d.h_id(o), d.h_id(o)), d.h_id(o))
        vv((d.v_id(o), d.v_id(o)), d.v_id(o))
    for f in range(d.n_hcells):
        hh((d.h_id(d.hsrc[f]), f), f)
        hh((f, d.h_id(d.htgt[f])), f)
    for u in range(d.n_vcells):
        vv((d.v_id(d.vsrc[u]), u), u)
        vv((u, d.v_id(d.vtgt[u])), u)


def _add_identity_squares(d, sid, svid, shid):
    """Set each 1-cell's identity square: the one ``svid``/``shid`` names,
    else ``Id_f``/``Id^u``, added to d and sid when missing; a vertical
    identity that ``shid`` leaves out takes its object's ``Id_``."""
    for f in range(d.n_hcells):
        nm = svid.get(d.hnames[f], "Id_%s" % d.hnames[f])
        if nm not in sid:
            sid[nm] = d.add_square(nm, f, f, d.v_id(d.hsrc[f]), d.v_id(d.htgt[f]))
        d.set_sq_v_id(f, sid[nm])
    for u in range(d.n_vcells):
        nm = shid.get(d.vnames[u])
        if nm is None and d.is_v_identity(u):
            d.set_sq_h_id(u, d.sq_v_id(d.h_id(d.vsrc[u])))
            continue
        if nm is None:
            nm = "Id^%s" % d.vnames[u]
        if nm not in sid:
            sid[nm] = d.add_square(nm, d.h_id(d.vsrc[u]), d.h_id(d.vtgt[u]), u, u)
        d.set_sq_h_id(u, sid[nm])


def _new_name(ids, name, kind):
    if name in ids:
        raise MalformedTables("%s %r is listed twice" % (kind, name))


def _set_rows(table, doc, key, ids):
    """Enter the composition rows ``doc[key]`` in ``table``; a pair may
    be listed again only with the same composite."""
    for a, b, c in doc.get(key, []):
        pair = ids[a], ids[b]
        if table.setdefault(pair, ids[c]) != ids[c]:
            raise MalformedTables("%s gives (%s, %s) two composites"
                                  % (key, a, b))


def _fill_identity_square_composites(d):
    """Complete square tables on pairs involving identity squares that the
    tables leave out."""
    hs, vs = d._hs.setdefault, d._vs.setdefault
    for s in range(d.n_squares):
        vs((d.sq_v_id(d.sq_top(s)), s), s)
        vs((s, d.sq_v_id(d.sq_bottom(s))), s)
        hs((d.sq_h_id(d.sq_left(s)), s), s)
        hs((s, d.sq_h_id(d.sq_right(s))), s)


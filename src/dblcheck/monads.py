"""Monads and distributive laws inside a double category.

A monad is an object with a horizontal endo-1-cell, a globular unit square
and a globular multiplication square; equivalently a lax functor from the
terminal double category ``*``, and ``check_monad`` checks it as one, so
the monad laws are the lax functor laws, written once.  A distributive law
is a pair of monads on the same carrier with a swap square, equivalently a
quasi functor from the terminal pair, so composing the two monads along
the swap is a special case of strictification and is implemented that
way.

In a flat double category the laws are automatic and a monad is just the
existence of the unit and multiplication squares; on Boolean matrices this
makes monads on an n-element carrier exactly the preorders on n elements.
"""

import functools
import random

from .core import ValidationReport, trivial
from .errors import (CarrierMismatch, MalformedTables, NotFlat,
                     NotTrivialDomain)
from .functor import LaxDoubleFunctor, check_lax_functor
from .hom import FLAVORS, hom_double_category
from .quasi import QuasiFunctor, check_quasi_functor
from .strictify import strictify0


class Monad:
    """A monad in the double category d on the object carrier."""

    def __init__(self, d, carrier, endo, unit, mult, name="T"):
        self.d = d
        self.carrier = carrier
        self.endo = endo
        self.unit = unit
        self.mult = mult
        self.name = name

    def data(self):
        return (self.carrier, self.endo, self.unit, self.mult)

    def __repr__(self):
        return "Monad(%s on %s: endo %s)" % (
            self.name, self.d.objects[self.carrier],
            self.d.hnames[self.endo])


# check_monad's names for lax functor failures, keyed on (label, side)
MONAD_LABELS = {
    ("lx.f.hex", None): "mnd.assoc",
    ("lx.f.u", "left"): "mnd.unit-l",
    ("lx.f.u", "right"): "mnd.unit-r",
    ("wf-compositor-boundary", None): "mnd.mult-boundary",
    ("wf-unitor-boundary", None): "mnd.unit-boundary",
}


def check_monad(m):
    """Check m as the lax functor ``lax_from_monad(m)`` out of ``*``.

    Its compositor is the multiplication and its unitor the unit, so the
    functor's boundary checks are the monad's and its compositor
    associativity and unit laws are the monad's associativity and unit
    laws.  Failures are renamed through ``MONAD_LABELS`` and their witness
    gains ``monad``, the name of m.
    """
    rep = check_lax_functor(lax_from_monad(m))
    rep.failures = [(MONAD_LABELS.get((law, witness.get("side")), law),
                     {"monad": m.name, **witness})
                    for law, witness in rep.failures]
    return rep


def lax_from_monad(m, dom=None):
    """The lax functor out of the terminal double category packaging m."""
    d = m.d
    if dom is None:
        dom = trivial()
    x, f = m.carrier, m.endo
    # an id the codomain lacks maps nothing, so check_wellformed reports it
    vmap = {0: d.v_id(x)} if 0 <= x < d.n_objects else {}
    try:
        sqmap = {0: d.sq_v_id(f)} if 0 <= f < d.n_hcells else {}
    except MalformedTables:
        sqmap = {}
    return LaxDoubleFunctor(dom, d, {0: x}, {0: f}, vmap, sqmap,
                            {(0, 0): m.mult}, {0: m.unit}, name=m.name)


def monad_from_lax(F, name=None):
    """The monad carried by a lax functor out of the terminal double
    category."""
    dom = F.dom
    if dom.n_objects != 1 or dom.n_hcells != 1 or dom.n_vcells != 1:
        raise NotTrivialDomain("monads come from functors out of the "
                               "terminal double category")
    return Monad(F.cod, F.obj(0), F.h(0), F.unitor(0), F.compositor(0, 0),
                 name=name or F.name)


class DistributiveLaw:
    """Two monads on one carrier with a swap square s.t => t.s.

    The swap square runs from the composite "t then s" down to "s then t"
    with identity verticals.  The law is also a quasi functor from the
    terminal pair, ``quasi``, with t as the first family and s as the
    second, so strictification applies verbatim.  It is built on first
    use: enumerating the laws of bool3 makes hundreds of laws.
    """

    def __init__(self, mt, ms, swap, name="L"):
        if mt.d is not ms.d or mt.carrier != ms.carrier:
            raise CarrierMismatch("distributive law needs both monads on "
                                  "one carrier")
        self.mt = mt
        self.ms = ms
        self.swap = swap
        self.name = name

    @functools.cached_property
    def quasi(self):
        t1, t2 = trivial(), trivial()
        return QuasiFunctor(
            t1, t2, self.mt.d,
            {0: lax_from_monad(self.mt, t2)}, {0: lax_from_monad(self.ms, t1)},
            {(0, 0): self.swap}, name=self.name)

    @property
    def d(self):
        return self.mt.d

    def __repr__(self):
        return "DistributiveLaw(%s: %s over %s)" % (
            self.name, self.mt.name, self.ms.name)


def check_distributive_law(lw):
    """Check both monads and the surviving interchange laws of the swap."""
    rep = ValidationReport()
    rep.merge(check_monad(lw.mt), prefix="t.")
    rep.merge(check_monad(lw.ms), prefix="s.")
    if not rep.passed:
        return rep
    rep.merge(check_quasi_functor(lw.quasi, trivial_uU=True))
    return rep


def comp(lw, name=None):
    """The composite monad of a distributive law, by strictification.

    The strictified functor lives over the product of two terminal double
    categories, which is again terminal, so it is itself a monad: the endo
    is "s then t", the multiplication comes from the compositor pasting,
    and the unit from the unitor pasting.
    """
    P = strictify0(lw.quasi)
    return monad_from_lax(P, name=name or "comp(%s)" % lw.name)


def _direct_composite(lw, name=None):
    """The composite monad written out directly, for cross-checking."""
    d = lw.d
    t, s = lw.mt.endo, lw.ms.endo
    endo = d.hcomp_h(s, t)
    unit = d.hcomp_sq(lw.ms.unit, lw.mt.unit)
    mult = d.vcomp_sq(
        d.hcomp_sq_many([d.sq_v_id(s), lw.swap, d.sq_v_id(t)]),
        d.hcomp_sq(lw.ms.mult, lw.mt.mult))
    return Monad(d, lw.mt.carrier, endo, unit, mult,
                 name=name or "direct(%s)" % lw.name)


def mnd_double_category(d, oplax=False, bound=None):
    """The double category of monads in d, as a hom double category.

    Objects are monads, horizontal cells lax transformations, vertical
    cells oplax transformations, squares modifications.  With oplax=True
    the orientations are swapped instead.
    """
    flavor = FLAVORS["hop"] if oplax else FLAVORS["hop*"]
    return hom_double_category(trivial(), d, flavor, bound)


def enumerate_monads(d, carrier):
    """All monads on a carrier object of a flat double category.

    Flatness makes the laws automatic, so a monad is an endo-1-cell whose
    unit and multiplication squares exist.
    """
    if not d.flat:
        raise NotFlat("monad enumeration needs a flat double category")
    vid = d.v_id(carrier)
    out = []
    for t in range(d.n_hcells):
        if d.hsrc[t] != carrier or d.htgt[t] != carrier:
            continue
        unit = d.find_square(d.h_id(carrier), t, vid, vid)
        if unit is None:
            continue
        mult = d.find_square(d.hcomp_h(t, t), t, vid, vid)
        if mult is None:
            continue
        out.append(Monad(d, carrier, t, unit, mult,
                         name="T%d" % len(out)))
    return out


def enumerate_distributive_laws(d, carrier):
    """All distributive laws between monads on a carrier of a flat d."""
    vid = d.v_id(carrier)
    laws = []
    monads = enumerate_monads(d, carrier)
    for mt in monads:
        for ms in monads:
            swap = d.find_square(d.hcomp_h(mt.endo, ms.endo),
                                 d.hcomp_h(ms.endo, mt.endo), vid, vid)
            if swap is not None:
                laws.append(DistributiveLaw(mt, ms, swap))
    return laws


def verify_comp_diagram(d, sample=None, seed=0):
    """Check that strictification and the direct composite formula agree.

    Every distributive law in d is composed both ways and the resulting
    monads are compared cell by cell; with a sample size smaller than the
    number of laws, a seeded random subset of the laws is used instead of
    all of them, and the report's ``sampled`` names ``comp-diagram``.
    """
    if not d.flat:
        raise NotFlat("the comparison enumerates distributive laws, which "
                      "needs a flat double category")
    laws = []
    for carrier in range(d.n_objects):
        laws.extend(enumerate_distributive_laws(d, carrier))
    rep = ValidationReport()
    if sample is not None and sample < len(laws):
        laws = random.Random(seed).sample(laws, sample)
        rep.mark_sampled("comp-diagram", sample, seed)
    rep.checked = len(laws)
    rep.expect("comp-diagram", ((repr(lw), lw) for lw in laws),
               lambda name, lw: comp(lw).data(),
               lambda name, lw: _direct_composite(lw).data(), ("law",))
    return rep

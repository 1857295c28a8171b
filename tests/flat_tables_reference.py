"""All-pairs square tables: the reference for the walks over
``dblcheck.core.square_partners``.

Each function here tries every ordered pair of squares and keeps those
that compose.  The library reads the composable pairs from
``square_partners`` instead; its tables must be these, entry for entry and
in the same insertion order.
"""

from dblcheck.errors import MalformedTables


def derive_flat_tables(d):
    """Fill explicit square tables by boundary lookup (flat data only),
    testing every pair of squares."""
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


def parity_square_tables(d):
    """The square tables of the ``parity()`` fixture d, from its index and
    signs: the composite of two squares adds their signs."""
    idx, sign_of = d.parity_index, d.parity_sign
    hs, vs = {}, {}
    for s1 in range(d.n_squares):
        t1, b1, l1, r1 = d.sq_bounds[s1]
        for s2 in range(d.n_squares):
            t2, b2, l2, r2 = d.sq_bounds[s2]
            sgn = sign_of[s1] ^ sign_of[s2]
            if r1 == l2:
                hs[s1, s2] = idx[(t1 ^ t2, b1 ^ b2, l1, r2, sgn)]
            if b1 == t2:
                vs[s1, s2] = idx[(t1, b2, l1 ^ l2, r1 ^ r2, sgn)]
    return hs, vs


def pair_counts(bounds):
    """The numbers of horizontally and of vertically composable pairs of
    squares with these boundaries, counted pair by pair."""
    return (sum(b1[3] == b2[2] for b1 in bounds for b2 in bounds),
            sum(b1[1] == b2[0] for b1 in bounds for b2 in bounds))

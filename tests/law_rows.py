"""The rows of a law catalogue as single instances.

A catalogue (``functor._lax_functor_laws``, ``quasi._q_cell_laws``, ...)
emits ``emit(law, keys, lhs, rhs, witness)`` once per run of instances of
one law.  ``instances`` turns an ``emit(law, lhs, rhs, **witness)`` that
takes one instance at a time, its two sides as thunks, into such a row
emit, for tests that count, evaluate or compare instances one by one.
"""

from functools import partial


def instances(emit):
    """The row emit that hands each key of a row to ``emit`` in order."""
    def row(law, keys, lhs, rhs, witness):
        for key in keys:
            emit(law, partial(lhs, *key), partial(rhs, *key),
                 **dict(zip(witness, key)))
    return row

"""The value types keep their record semantics.

Each of the twelve types is built twice from scratch, so the two copies
share no object but their inputs.  Equal copies compare equal and hash
equal, and the hash is that of the tuple of the listed fields, so sets of
records iterate in the same order under every type definition that keeps
it.  Fields cannot be assigned or deleted, and the repr is
``Name(field=value, ...)`` over the same fields.
"""

from __future__ import annotations

import itertools

import pytest

from trailkit import WordJ, build_fundamental, construct_envelope, validate_gcm
from trailkit.sgraph import CoeffVector, binary_fusion
from trailkit.sl2_engine import Sl2Config
from trailkit.trails import enumerate_trails, group_ts_classes, trail_function

G2 = [[2, -1], [-3, 2]]
G2_WORD = (1, 2, 1, 2, 1, 2)
_memo_keys = itertools.count()


def _word() -> WordJ:
    return WordJ(validate_gcm(G2), G2_WORD)


def _memoized_word() -> WordJ:
    """A G2 word whose memo holds a key that no other call's memo holds;
    the memo takes no part in equality or the hash."""
    w = _word()
    w.memoized(next(_memo_keys), tuple)
    return w


def _trails():
    w = _word()
    return enumerate_trails(build_fundamental(w.cartan, 2), w)


def _envelope():
    w = _word()
    return construct_envelope(build_fundamental(w.cartan, 2), w)


def _graph():
    return binary_fusion(CoeffVector.make((2, 3, 1)))


RECORDS = {
    "CartanData": (lambda: validate_gcm(G2),
                   ("gcm", "symmetrizer", "finite_type", "type_tag")),
    "WordJ": (_memoized_word, ("cartan", "letters")),
    "LinearFunctionBJ": (lambda: trail_function(_trails()[-1]), ("terms",)),
    "Trail": (lambda: _trails()[-1], ("word", "t", "exps")),
    "TsClass": (lambda: group_ts_classes(_trails(), 2, 6)[-1],
                ("s", "j", "positions", "a", "members", "k_tuples", "l_min",
                 "c", "c_primes")),
    "ClassBlock": (lambda: _envelope().global_blocks[-1],
                   ("s", "c", "driving", "points", "functions", "lower",
                    "vertices", "lower_vertices", "exceptional")),
    "EnvelopeLayer": (lambda: _envelope().layers[-1],
                      ("j", "s", "blocks", "discarded", "functions", "class_a",
                       "forward_ok", "forward_vertex_ok")),
    "Envelope": (_envelope, ("t", "word", "layers", "global_blocks",
                             "functions", "driving", "extremal")),
    "CoeffVector": (lambda: CoeffVector.make((2, 3, 1)),
                    ("c", "order_lift", "theta")),
    "SVertex": (lambda: _graph().vertices[-1], ("label", "func")),
    "SGraph": (_graph, ("coeffs", "vertices", "edges", "pointed_chain")),
    "Sl2Config": (lambda: Sl2Config((4, 3, 4), (3, 2, 4), (1, 0, 2)),
                  ("a", "k", "l")),
}


@pytest.mark.parametrize("name", RECORDS)
def test_record_semantics(name):
    build, fields = RECORDS[name]
    x, y = build(), build()
    assert type(x).__name__ == name and type(x)._fields == fields
    values = tuple(getattr(x, f) for f in fields)
    # equal copies
    assert x is not y and x == y and not x != y
    assert hash(x) == hash(y) == hash(values)
    # immutable
    for f in fields:
        with pytest.raises(AttributeError):
            setattr(x, f, getattr(y, f))
        with pytest.raises(AttributeError):
            delattr(x, f)
    assert x == y
    # Name(field=value, ...)
    shown = ", ".join(f"{f}={v!r}" for f, v in zip(fields, values))
    assert repr(x) == f"{name}({shown})"

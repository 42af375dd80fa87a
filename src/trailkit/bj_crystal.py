"""Crystal operations on the exponent lattice of a reduced word.

An element is a finitely supported tuple of exponents m_j >= 0, one per
word position, stored as its sorted (position, m_j) pairs with every kept
m_j positive; the composite crystal is the product of one elementary
crystal per letter with the j-th letter as the j-th factor from the right.
On such a product the raising and lowering rules reduce to the Kashiwara
functions r_i^k: the lowering operator adds 1 at the i-occurrence with the
least k among those maximizing r_i^k, the raising operator removes 1 at
the greatest such k and is defined only while the maximum is positive.

The crystal has one pairing convention, the dual one: r_i^k pairs the
coroot of each later letter with alpha_i.  Its one owner is
:func:`trails.kashiwara_function`, whose functions the crystal reads, so
crystal data and trail data live on the same surface.  (The transposed
pairing equals it on every symmetric Cartan matrix and matched the trail
functions on no B3 or C3 word, so it is gone.)
"""

from __future__ import annotations

from operator import add

from .cartan_core import WordJ
from .errors import ConfigError, NotApplicable
from .trails import kashiwara_function


def _kashiwara_columns(word: WordJ):
    """Per position q, the change of every Kashiwara value when m_q grows by
    1: entry p (0-based) of column q is the coefficient of m_q in r_i^k, for
    (i, k) the occurrence at position p.  These are the functions of
    :func:`trails.kashiwara_function`, one row per position, transposed;
    built once per word."""

    def build():
        cols = [[0] * word.m for _ in range(word.m)]
        for p in range(word.m):
            for q, c in kashiwara_function(word, *word.occurrence(p + 1)).terms:
                cols[q - 1][p] = c
        return tuple(map(tuple, cols))

    return word.memoized("kashiwara_columns", build)


def generate_binf(word: WordJ,
                  depth: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """All elements reachable from the empty element by at most ``depth``
    lowering steps, as (position, m) pairs.

    A breadth-first search on exponent tuples.  Each tuple carries its
    Kashiwara values, one per position, and a lowering step by label i adds
    1 at the least i-occurrence q maximizing r_i^k, which adds the integer
    column of q to those values (:func:`_kashiwara_columns`).  A step adds
    1 to the total of the exponents, so the search finds each element at
    the depth equal to its total.  The elements come depth by depth, each
    depth sorted.
    """
    if depth < 0:
        raise ConfigError("depth must be non-negative")
    cartan = word.cartan
    start = (0,) * word.m
    seen = {start}
    levels = [[(start, start)]]     # (exponents, Kashiwara values) per depth
    if depth:
        for i in cartan.labels:
            if word.count(i) == 0:
                raise NotApplicable(f"letter {i} does not occur in the word")
        cols = _kashiwara_columns(word)
        occurrences = [[word.position(i, k) - 1
                        for k in range(1, word.count(i) + 1)]
                       for i in cartan.labels]
        for _ in range(depth):
            nxt = []
            for x, r in levels[-1]:
                for ps in occurrences:
                    # the least occurrence among those maximizing r_i^k
                    q = max(ps, key=r.__getitem__)
                    y = x[:q] + (x[q] + 1,) + x[q + 1:]
                    if y not in seen:
                        seen.add(y)
                        nxt.append((y, tuple(map(add, r, cols[q]))))
            levels.append(nxt)
    return tuple(b for level in levels for b in sorted(
        tuple((j, v) for j, v in enumerate(x, start=1) if v)
        for x, _ in level))

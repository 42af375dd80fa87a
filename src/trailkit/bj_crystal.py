"""Crystal operations on the exponent lattice of a reduced word.

An element is a finitely supported tuple of exponents m_j >= 0, one per
word position; the composite crystal is the product of one elementary
crystal per letter with the j-th letter as the j-th factor from the right.
On such a product the raising and lowering rules reduce to the Kashiwara
functions r_i^k: the lowering operator adds 1 at the i-occurrence with the
least k among those maximizing r_i^k, the raising operator removes 1 at
the greatest such k and is defined only while the maximum is positive.

Two pairing conventions are supported.  "dual" evaluates r_i^k with the
pairing rows indexed by the traversed letters, matching the trail
functions of this package; "straight" transposes the pairing.  The default
is "dual" so that crystal data and trail data live on the same surface.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add

from .cartan_core import CartanData, WordJ
from .errors import ConfigError, NotApplicable
from .trails import _as_word

CONVENTIONS = ("dual", "straight")


@dataclass(frozen=True)
class BJElement:
    """Finitely supported exponents, stored as sorted (position, m) pairs
    with every kept m positive."""

    coords: tuple[tuple[int, int], ...] = ()

    @property
    def total(self) -> int:
        return sum(v for _, v in self.coords)


def _kashiwara_columns(word: WordJ, convention: str):
    """Per position q, the change of every Kashiwara value when m_q grows by
    1: entry p (0-based) of column q is the coefficient of m_q in r_i^k, for
    (i, k) the occurrence at position p.  Built once per word and
    convention."""

    def build():
        letters, pairing = word.letters, word.cartan.pairing
        dual = convention == "dual"
        cols = []
        for q, b in enumerate(letters):
            col = [0] * word.m
            for p, a in enumerate(letters[:q]):
                col[p] = pairing(b, a) if dual else pairing(a, b)
            col[q] = 1
            cols.append(tuple(col))
        return tuple(cols)

    return word.memoized(("kashiwara_columns", convention), build)


def generate_binf(cartan: CartanData, word, depth: int,
                  convention: str = "dual") -> frozenset[BJElement]:
    """All elements reachable from the empty element by at most ``depth``
    lowering steps.

    A breadth-first search on exponent tuples.  Each tuple carries its
    Kashiwara values, one per position, and a lowering step by label i adds
    1 at the least i-occurrence q maximizing r_i^k, which adds the integer
    column of q to those values (:func:`_kashiwara_columns`).
    """
    word = _as_word(cartan, word)
    if depth < 0:
        raise ConfigError("depth must be non-negative")
    start = (0,) * word.m
    seen = {start}
    if depth:
        if convention not in CONVENTIONS:
            raise ConfigError(f"unknown convention {convention!r}")
        for i in cartan.labels:
            if word.count(i) == 0:
                raise NotApplicable(f"letter {i} does not occur in the word")
        cols = _kashiwara_columns(word, convention)
        occurrences = [[word.position(i, k) - 1
                        for k in range(1, word.count(i) + 1)]
                       for i in cartan.labels]
        frontier = [(start, start)]
        for _ in range(depth):
            nxt = []
            for x, r in frontier:
                for ps in occurrences:
                    # the least occurrence among those maximizing r_i^k
                    q = max(ps, key=r.__getitem__)
                    y = x[:q] + (x[q] + 1,) + x[q + 1:]
                    if y not in seen:
                        seen.add(y)
                        nxt.append((y, tuple(map(add, r, cols[q]))))
            frontier = nxt
    return frozenset(
        BJElement(tuple((j, v) for j, v in enumerate(x, start=1) if v))
        for x in seen)


def dump_elements(elems) -> list[dict]:
    """Deterministic JSON-ready listing, shallowest first."""
    order = sorted((b.total, b.coords) for b in elems)
    return [{"coords": [[j, m] for j, m in coords], "total": total}
            for total, coords in order]

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
from .errors import ConfigError, ConsistencyError, NotApplicable
from .trails import _as_word, kashiwara_function

CONVENTIONS = ("dual", "straight")


@dataclass(frozen=True)
class BJElement:
    """Finitely supported exponents, stored as sorted (position, m) pairs
    with every kept m positive."""

    coords: tuple[tuple[int, int], ...] = ()

    @staticmethod
    def make(values=None) -> "BJElement":
        if not values:
            return BJElement()
        items = []
        for j, m in sorted(dict(values).items()):
            if j < 1 or m < 0:
                raise ConsistencyError(f"bad exponent entry ({j}, {m})")
            if m:
                items.append((int(j), int(m)))
        return BJElement(tuple(items))

    def m(self, j: int) -> int:
        for q, v in self.coords:
            if q == j:
                return v
        return 0

    def as_dict(self) -> dict[int, int]:
        return dict(self.coords)

    @property
    def total(self) -> int:
        return sum(v for _, v in self.coords)

    def bump(self, j: int, delta: int) -> "BJElement":
        d = self.as_dict()
        d[j] = d.get(j, 0) + delta
        if d[j] < 0:
            raise ConsistencyError(f"exponent at {j} would become {d[j]}")
        return BJElement.make(d)


def b_infinity() -> BJElement:
    return BJElement()


def _sigmas(cartan: CartanData, word: WordJ, i: int,
            b: BJElement, convention: str) -> list[int]:
    """Values r_i^k(b) for k = 1..count(i), in the chosen convention."""
    if convention not in CONVENTIONS:
        raise ConfigError(f"unknown convention {convention!r}")
    cartan.check_label(i)
    n = word.count(i)
    if n == 0:
        raise NotApplicable(f"letter {i} does not occur in the word")
    values = b.as_dict()
    if convention == "dual":
        return [kashiwara_function(cartan, word, i, k).evaluate(values)
                for k in range(1, n + 1)]
    out = []
    for k in range(1, n + 1):
        u = word.position(i, k)
        total = values.get(u, 0)
        for j in range(u + 1, word.m + 1):
            total += cartan.pairing(i, word.letters[j - 1]) * values.get(j, 0)
        out.append(total)
    return out


def crystal_epsilon(cartan: CartanData, word, i: int, b: BJElement,
                    convention: str = "dual") -> int:
    """Largest Kashiwara-function value; string length left for raising."""
    word = _as_word(cartan, word)
    return max(_sigmas(cartan, word, i, b, convention))


def crystal_f(cartan: CartanData, word, i: int, b: BJElement,
              convention: str = "dual") -> BJElement:
    """Add one to the exponent at the least maximizing i-occurrence."""
    word = _as_word(cartan, word)
    sig = _sigmas(cartan, word, i, b, convention)
    top = max(sig)
    k = sig.index(top) + 1
    return b.bump(word.position(i, k), +1)


def crystal_e(cartan: CartanData, word, i: int, b: BJElement,
              convention: str = "dual") -> BJElement | None:
    """Remove one at the greatest maximizing i-occurrence, or None at the
    bottom of the i-string (maximum not positive)."""
    word = _as_word(cartan, word)
    sig = _sigmas(cartan, word, i, b, convention)
    top = max(sig)
    if top <= 0:
        return None
    k = len(sig) - sig[::-1].index(top)
    u = word.position(i, k)
    if b.m(u) <= 0:
        raise ConsistencyError(
            f"raising at position {u} hits an exhausted exponent")
    return b.bump(u, -1)


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
    Kashiwara values, one per position, and a lowering step at position q
    adds the integer column of q to them (:func:`_kashiwara_columns`), so
    the step is the one :func:`crystal_f` takes.
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

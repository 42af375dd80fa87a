"""Cartan/Weyl bookkeeping: generalized Cartan matrices, weights in the
fundamental-weight basis, simple reflections, reduced words and the (s,k)
occurrence calculus on words.

Conventions used throughout the package:

* ``A[i][j] = <alpha_i^vee, alpha_j>`` (pairing of coroot i with root j), so
  the simple root ``alpha_j`` has fundamental-weight coordinates given by
  column j of the matrix.
* Weights are plain integer tuples in the fundamental-weight basis; the
  pairing ``alpha_i^vee(w)`` is just ``w[i-1]``.  Node labels are 1-based.
* A word is stored as ``letters = (i_1, ..., i_m)`` with ``i_1`` acting
  first: the group element of the prefix of length j is s_{i_j} ... s_{i_1}.
  The occurrence pair (s, k) means the k-th occurrence of s in that order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import gcd, lcm
from operator import add, mul, neg, sub

from .errors import (
    ConsistencyError,
    NotFiniteTypeError,
    NotGCMError,
    NotReducedError,
    PositionMissingError,
    UnknownLetterError,
)

Weight = tuple[int, ...]


def wadd(u: Weight, v: Weight) -> Weight:
    return tuple(map(add, u, v))


def wsub(u: Weight, v: Weight) -> Weight:
    return tuple(map(sub, u, v))


def wneg(u: Weight) -> Weight:
    return tuple(map(neg, u))


def wscale(c, u):
    return tuple([c * a for a in u])


@dataclass(frozen=True)
class CartanData:
    """A validated generalized Cartan matrix with its symmetrizer.

    ``gcm[i][j]`` is 0-indexed storage; use :meth:`pairing` for the 1-based
    pairing alpha_i^vee(alpha_j).
    """

    gcm: tuple[tuple[int, ...], ...]
    symmetrizer: tuple[int, ...]
    finite_type: bool
    type_tag: str | None

    @property
    def n(self) -> int:
        return len(self.gcm)

    @property
    def labels(self) -> range:
        return range(1, self.n + 1)

    def pairing(self, i: int, j: int) -> int:
        """alpha_i^vee(alpha_j) with 1-based labels."""
        return self.gcm[i - 1][j - 1]

    def simple_root(self, i: int) -> Weight:
        """alpha_i in fundamental-weight coordinates (column i of the GCM)."""
        return tuple(row[i - 1] for row in self.gcm)

    def fundamental_weight(self, i: int) -> Weight:
        return tuple(int(k == i - 1) for k in range(self.n))

    def rho(self) -> Weight:
        return (1,) * self.n

    def check_label(self, i: int) -> None:
        """Raise UnknownLetterError unless i is an int label 1..n; a bool
        equals an int but is no label."""
        if isinstance(i, bool) or not (isinstance(i, int) and 1 <= i <= self.n):
            raise UnknownLetterError(f"label {i!r} outside 1..{self.n}")


def _symmetrizer(a: list[list[int]]) -> tuple[int, ...] | None:
    """Minimal positive integer d with d_i a_ij = d_j a_ji, or None.

    Each d_j is held as an integer pair (numerator, denominator) in lowest
    terms; every component starts at 1, and the result is scaled by the lcm
    of all denominators and divided by the gcd of all numerators.
    """
    n = len(a)
    d: list[tuple[int, int] | None] = [None] * n
    for start in range(n):
        if d[start] is not None:
            continue
        d[start] = (1, 1)
        stack = [start]
        while stack:
            i = stack.pop()
            p, q = d[i]
            for j in range(n):
                if a[i][j] == 0 or i == j:
                    continue
                num, den = p * -a[i][j], q * -a[j][i]   # both positive
                g = gcd(num, den)
                want = (num // g, den // g)
                if d[j] is None:
                    d[j] = want
                    stack.append(j)
                elif d[j] != want:
                    return None  # inconsistent cycle: not symmetrizable
    denom_lcm = lcm(*(den for _, den in d))
    ints = [num * (denom_lcm // den) for num, den in d]
    g = gcd(*ints)
    return tuple(v // g for v in ints)


def _positive_definite(sym: list[list[int]]) -> bool:
    """Exact leading-principal-minor test on a symmetric integer matrix.

    Fraction-free (Bareiss) elimination without row swaps: the pivot of
    step k is the leading principal minor of order k + 1, and each update
    divides exactly by the pivot before it.
    """
    n = len(sym)
    m = [list(row) for row in sym]
    prev = 1
    for k in range(n):
        pivot = m[k][k]
        if pivot <= 0:
            return False
        top = m[k]
        for i in range(k + 1, n):
            row = m[i]
            f = row[k]
            for j in range(k + 1, n):
                row[j] = (row[j] * pivot - f * top[j]) // prev
        prev = pivot
    return True


def _standard_gcm(family: str, n: int) -> list[list[int]]:
    a = [[2 * int(i == j) for j in range(n)] for i in range(n)]

    def edge(i, j, down=-1, up=-1):
        a[i][j] = down
        a[j][i] = up

    if family == "A":
        for i in range(n - 1):
            edge(i, i + 1)
    elif family == "B":  # alpha_n short: alpha_n^vee(alpha_{n-1}) = -2
        for i in range(n - 2):
            edge(i, i + 1)
        edge(n - 2, n - 1, down=-1, up=-2)
    elif family == "C":
        for i in range(n - 2):
            edge(i, i + 1)
        edge(n - 2, n - 1, down=-2, up=-1)
    elif family == "D":
        for i in range(n - 3):
            edge(i, i + 1)
        edge(n - 3, n - 2)
        edge(n - 3, n - 1)
    elif family == "E":
        # Bourbaki: chain 1-3-4-5-6(-7-8), node 2 hangs off node 4.
        chain = [0, 2, 3, 4, 5, 6, 7][: n - 1]
        for x, y in zip(chain, chain[1:]):
            edge(x, y)
        edge(1, 3)
    elif family == "F":
        edge(0, 1)
        edge(1, 2, down=-1, up=-2)
        edge(2, 3)
    elif family == "G":
        edge(0, 1, down=-1, up=-3)
    return a


_FAMILIES = [("A", 1, 8), ("B", 2, 8), ("C", 2, 8), ("D", 4, 8),
             ("E", 6, 8), ("F", 4, 4), ("G", 2, 2)]


def _classify_component(a: list[list[int]]) -> str | None:
    n = len(a)
    mine = sorted(sorted(row) for row in a)
    for family, lo, hi in _FAMILIES:
        if not (lo <= n <= hi):
            continue
        std = _standard_gcm(family, n)
        if sorted(sorted(row) for row in std) == mine and _relabels(std, a, []):
            return f"{family}{n}"
    return None


def _relabels(std, a, perm: list[int]) -> bool:
    """Whether ``perm`` (rows of std for the first rows of a) extends to a p
    with std[p[i]][p[j]] == a[i][j]: row by row, backtracking."""
    i = len(perm)
    return i == len(a) or any(
        _relabels(std, a, perm + [k]) for k, row in enumerate(std)
        if k not in perm and sorted(row) == sorted(a[i]) and all(
            row[p] == a[i][j] and std[p][k] == a[j][i]
            for j, p in enumerate(perm)))


def _type_tag(a: list[list[int]]) -> str | None:
    """Best-effort family label, components joined with 'x'."""
    n = len(a)
    seen: set[int] = set()
    tags = []
    for start in range(n):
        if start in seen:
            continue
        comp = [start]
        seen.add(start)
        queue = [start]
        while queue:
            i = queue.pop()
            for j in range(n):
                if j not in seen and a[i][j] != 0:
                    seen.add(j)
                    comp.append(j)
                    queue.append(j)
        comp.sort()
        block = [[a[i][j] for j in comp] for i in comp]
        tag = _classify_component(block)
        if tag is None:
            return None
        tags.append(tag)
    return "x".join(sorted(tags))


def validate_gcm(matrix) -> CartanData:
    """Validate a generalized Cartan matrix and classify finite type.

    Finite type is decided exactly: the matrix must be symmetrizable and its
    symmetrization positive definite.  A best-effort family tag (e.g. "B2",
    "A1xA1") is attached when the matrix matches a standard one up to
    simultaneous permutation.
    """
    try:
        a = [list(row) for row in matrix]
    except TypeError:
        raise NotGCMError("matrix must be a list of integer rows") from None
    n = len(a)
    if n == 0 or any(len(row) != n for row in a):
        raise NotGCMError("matrix must be square and non-empty")
    for i in range(n):
        for j in range(n):
            if not isinstance(a[i][j], int) or isinstance(a[i][j], bool):
                raise NotGCMError(f"entry [{i}][{j}] is not an integer")
            if i == j and a[i][j] != 2:
                raise NotGCMError("diagonal entries must equal 2")
            if i != j and a[i][j] > 0:
                raise NotGCMError("off-diagonal entries must be <= 0")
            if i != j and (a[i][j] == 0) != (a[j][i] == 0):
                raise NotGCMError("zero pattern must be symmetric")
    d = _symmetrizer(a)
    finite = False
    if d is not None:
        sym = [[d[i] * a[i][j] for j in range(n)] for i in range(n)]
        finite = _positive_definite(sym)
    return CartanData(
        gcm=tuple(tuple(row) for row in a),
        symmetrizer=d if d is not None else (0,) * n,
        finite_type=finite,
        type_tag=_type_tag(a) if finite else None,
    )


def require_finite(cartan: CartanData) -> None:
    if not cartan.finite_type:
        raise NotFiniteTypeError("operation requires a finite-type Cartan matrix")


def reflect(cartan: CartanData, i: int, w: Weight) -> Weight:
    """s_i(w) = w - alpha_i^vee(w) alpha_i in fundamental-weight coordinates."""
    cartan.check_label(i)
    c = w[i - 1]
    if c == 0:
        return w
    return tuple(w[k] - c * cartan.gcm[k][i - 1] for k in range(cartan.n))


def _root_supports(cartan: CartanData) -> list[list[tuple[int, int]]]:
    """For each i, the 0-based k with their nonzero entries alpha_i[k], so
    that s_i(lam) = lam - lam_i alpha_i moves those coordinates alone."""
    return [[(k, x) for k, x in enumerate(col) if x]
            for col in zip(*cartan.gcm)]


def is_reduced(cartan: CartanData, letters) -> bool:
    """True iff the letters form a reduced expression.

    Every label is checked before the first step.  The word then carries
    lam = w^{-1}(rho) by its pairings lam_k = <lam, alpha_k^vee>, from
    rho = (1, ..., 1).  By Kac, Lemma 3.11, appending letter i to a word
    of w is length-additive iff w(alpha_i) > 0, that is iff lam_i > 0; the
    new lam is s_i(lam) = lam - lam_i alpha_i, as in :func:`reflect`.
    """
    for i in letters:
        cartan.check_label(i)
    lam = list(cartan.rho())
    supports = _root_supports(cartan)
    for i in letters:
        c = lam[i - 1]
        if c <= 0:
            return False
        for k, x in supports[i - 1]:
            lam[k] -= c * x
    return True


def reduced_words_of_w0(cartan: CartanData) -> list[tuple[int, ...]]:
    """Every reduced word of the longest element w0, in lexicographic order.

    A depth-first search extends reduced words letter by letter, carrying
    lam = w^{-1}(rho) as :func:`is_reduced` does.  A reduced word is a word
    of w0 exactly when no lam_i is positive, that is when no letter
    extends it.
    """
    require_finite(cartan)
    out = []
    supports = _root_supports(cartan)
    stack = [((), list(cartan.rho()))]
    while stack:
        word, lam = stack.pop()
        grown = [i for i, c in enumerate(lam, start=1) if c > 0]
        if not grown:
            out.append(word)
        for i in reversed(grown):   # the least letter is taken first
            c = lam[i - 1]
            moved = lam[:]
            for k, x in supports[i - 1]:
                moved[k] -= c * x
            stack.append((word + (i,), moved))
    return out


@dataclass(frozen=True)
class WordJ:
    """A reduced word with its 1-based occurrence calculus.

    ``position(s, k)`` is the index j of the k-th occurrence of s counting
    from the start of ``letters`` (the first letter is the one acting
    first).  ``occurrence(j)`` inverts it.  Data derived from the word alone
    is kept per instance (:meth:`memoized`), so it lives exactly as long as
    the word.
    """

    cartan: CartanData
    letters: tuple[int, ...]
    _positions: dict = field(default_factory=dict, compare=False, repr=False)
    _memo: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        letters = tuple(self.letters)
        object.__setattr__(self, "letters", letters)
        if not is_reduced(self.cartan, letters):
            raise NotReducedError(f"word {letters} is not reduced")
        pos: dict[int, list[int]] = {}
        for j, s in enumerate(letters, start=1):
            pos.setdefault(s, []).append(j)
        object.__setattr__(self, "_positions", pos)

    def __hash__(self):
        return hash((self.cartan, self.letters))

    @property
    def m(self) -> int:
        return len(self.letters)

    def position(self, s: int, k: int) -> int:
        """1-based index of the k-th occurrence of s."""
        occ = self._positions.get(s, ())
        if not 1 <= k <= len(occ):
            raise PositionMissingError(f"no occurrence ({s},{k}) in {self.letters}")
        return occ[k - 1]

    def occurrence(self, j: int) -> tuple[int, int]:
        """(s, k) with position(s, k) == j."""
        if not 1 <= j <= self.m:
            raise PositionMissingError(f"index {j} outside [1,{self.m}]")
        s = self.letters[j - 1]
        return s, self._positions[s].index(j) + 1

    def count(self, s: int, upto: int | None = None) -> int:
        """Number of occurrences of s among the first `upto` letters."""
        occ = self._positions.get(s, ())
        if upto is None:
            return len(occ)
        return sum(1 for j in occ if j <= upto)

    def prefix_weights(self, t: int) -> tuple[Weight, ...]:
        """-w_j(omega_t) for j = 0..m, index j."""
        return self.memoized(("prefix", t), lambda: self._prefix_weights(t))

    def _prefix_weights(self, t: int) -> tuple[Weight, ...]:
        w = wneg(self.cartan.fundamental_weight(t))
        out = [w]
        for i in self.letters:
            w = reflect(self.cartan, i, w)
            out.append(w)
        return tuple(out)

    def memoized(self, key, build):
        """``build()``, computed on the first request for ``key`` and kept
        on this word.  ``key`` must determine the value given the word."""
        memo = self._memo
        if key not in memo:
            memo[key] = build()
        return memo[key]


@lru_cache(maxsize=None)
def _root_system(cartan: CartanData):
    """All positive (root, coroot) coordinate pairs, by reflection closure.

    s_i moves coordinate i alone: by <alpha_i^vee, root> (row i of the
    matrix) on a root and by <coroot, alpha_i> (column i) on a coroot.  The
    closure is finite exactly when the symmetrized matrix is positive
    definite, which is checked first: a matrix flagged finite without it
    raises NotFiniteTypeError instead of walking without end.
    """
    require_finite(cartan)
    n = cartan.n
    rows = cartan.gcm
    d = cartan.symmetrizer
    if not _positive_definite([[d[i] * x for x in row]
                               for i, row in enumerate(rows)]):
        raise NotFiniteTypeError(
            "the symmetrized Cartan matrix is not positive definite, so "
            "the root system is infinite")
    cols = tuple(zip(*rows))
    start = [(tuple(int(k == i) for k in range(n)),
              tuple(int(k == i) for k in range(n))) for i in range(n)]
    seen = set(start)
    queue = list(start)
    while queue:
        root, coroot = queue.pop()
        for i in range(n):
            p = sum(map(mul, rows[i], root))
            q = sum(map(mul, cols[i], coroot))
            if not (p or q):
                continue
            pair = (root[:i] + (root[i] - p,) + root[i + 1:],
                    coroot[:i] + (coroot[i] - q,) + coroot[i + 1:])
            if pair not in seen:
                seen.add(pair)
                queue.append(pair)
    positives = sorted(p for p in seen if all(x >= 0 for x in p[0]))
    if 2 * len(positives) != len(seen):
        raise ConsistencyError(
            "the roots do not split into positive and negative halves")
    return tuple(positives)


def positive_roots(cartan: CartanData):
    """Positive roots as (root coords, coroot coords) integer tuples."""
    return _root_system(cartan)

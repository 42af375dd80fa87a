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
from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from math import gcd

from .errors import (
    NotFiniteTypeError,
    NotGCMError,
    NotReducedError,
    PositionMissingError,
    UnknownLetterError,
)

Weight = tuple[int, ...]


def wadd(u: Weight, v: Weight) -> Weight:
    return tuple(a + b for a, b in zip(u, v))


def wsub(u: Weight, v: Weight) -> Weight:
    return tuple(a - b for a, b in zip(u, v))


def wneg(u: Weight) -> Weight:
    return tuple(-a for a in u)


def wscale(c, u):
    return tuple(c * a for a in u)


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
        if not (isinstance(i, int) and 1 <= i <= self.n):
            raise UnknownLetterError(f"label {i!r} outside 1..{self.n}")


def _symmetrizer(a: list[list[int]]) -> tuple[int, ...] | None:
    """Minimal positive integer d with d_i a_ij = d_j a_ji, or None."""
    n = len(a)
    d: list[Fraction | None] = [None] * n
    for start in range(n):
        if d[start] is not None:
            continue
        d[start] = Fraction(1)
        stack = [start]
        while stack:
            i = stack.pop()
            for j in range(n):
                if a[i][j] == 0 or i == j:
                    continue
                want = d[i] * Fraction(a[i][j], a[j][i])
                if d[j] is None:
                    d[j] = want
                    stack.append(j)
                elif d[j] != want:
                    return None  # inconsistent cycle: not symmetrizable
    denom_lcm = 1
    for x in d:
        denom_lcm = denom_lcm * x.denominator // gcd(denom_lcm, x.denominator)
    ints = [int(x * denom_lcm) for x in d]
    g = 0
    for v in ints:
        g = gcd(g, v)
    return tuple(v // g for v in ints)


def _positive_definite(sym: list[list[int]]) -> bool:
    """Exact leading-principal-minor test on a symmetric integer matrix."""
    n = len(sym)
    m = [[Fraction(x) for x in row] for row in sym]
    # Fraction-free enough for desk scale: straightforward elimination.
    for k in range(n):
        if m[k][k] <= 0:
            return False
        for i in range(k + 1, n):
            f = m[i][k] / m[k][k]
            m[i] = [x - f * y for x, y in zip(m[i], m[k])]
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
        if sorted(sorted(row) for row in std) != mine:
            continue
        for perm in permutations(range(n)):
            if all(std[perm[i]][perm[j]] == a[i][j]
                   for i in range(n) for j in range(n)):
                return f"{family}{n}"
    return None


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
        sub = [[a[i][j] for j in comp] for i in comp]
        tag = _classify_component(sub)
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


def _unit_columns(n: int) -> list[list[int]]:
    """The root coordinates of w^{-1}(alpha_i) for w = 1, by column."""
    return [[int(r == k) for r in range(n)] for k in range(n)]


def _append_letter(cartan: CartanData, cols, i: int) -> None:
    """Turn the columns of w^{-1} into those of (w s_i)^{-1}, in place."""
    ci = i - 1
    pivot = cols[ci]
    for k, f in enumerate(cartan.gcm[ci]):
        if f and k != ci:
            cols[k] = [x - f * y for x, y in zip(cols[k], pivot)]
    cols[ci] = [-x for x in pivot]


def is_reduced(cartan: CartanData, word) -> bool:
    """True iff the word is a reduced expression.

    Tracks the columns of w^{-1} on the root lattice: appending letter i is
    length-additive exactly when w^{-1}(alpha_i) is still a positive root.
    """
    for i in word:
        cartan.check_label(i)
    cols = _unit_columns(cartan.n)
    for i in word:
        if any(x < 0 for x in cols[i - 1]):
            return False
        _append_letter(cartan, cols, i)
    return True


def reduced_words_of_w0(cartan: CartanData) -> list[tuple[int, ...]]:
    """Every reduced word of the longest element w0, in lexicographic order.

    A depth-first search extends reduced words letter by letter, carrying
    the columns of w^{-1} as :func:`is_reduced` does.  A reduced word is a
    word of w0 exactly when no letter extends it.
    """
    require_finite(cartan)
    out = []
    stack = [((), _unit_columns(cartan.n))]
    while stack:
        word, cols = stack.pop()
        grown = [i for i in cartan.labels if all(x >= 0 for x in cols[i - 1])]
        if not grown:
            out.append(word)
        for i in reversed(grown):   # the least letter is taken first
            grown_cols = list(cols)
            _append_letter(cartan, grown_cols, i)
            stack.append((word + (i,), grown_cols))
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
        for i in letters:
            self.cartan.check_label(i)
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

    def prefix_weight(self, t: int, j: int) -> Weight:
        """-w_j(omega_t): the extremal weight reached after j letters."""
        if not 0 <= j <= self.m:
            raise PositionMissingError(f"prefix length {j} outside [0,{self.m}]")
        return self.memoized(("prefix", t), lambda: self._prefix_weights(t))[j]

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
    """All positive (root, coroot) coordinate pairs, by reflection closure."""
    require_finite(cartan)
    n = cartan.n
    a = cartan.gcm
    start = [(tuple(int(k == i) for k in range(n)),
              tuple(int(k == i) for k in range(n))) for i in range(n)]
    seen = set(start)
    queue = list(start)
    while queue:
        root, coroot = queue.pop()
        for i in range(n):
            p = sum(a[i][j] * root[j] for j in range(n))
            new_root = tuple(root[j] - p * int(j == i) for j in range(n))
            q = sum(a[j][i] * coroot[j] for j in range(n))
            new_coroot = tuple(coroot[j] - q * int(j == i) for j in range(n))
            pair = (new_root, new_coroot)
            if pair not in seen:
                seen.add(pair)
                queue.append(pair)
    positives = sorted(p for p in seen if all(x >= 0 for x in p[0]))
    assert 2 * len(positives) == len(seen)
    return tuple(positives)


def positive_roots(cartan: CartanData):
    """Positive roots as (root coords, coroot coords) integer tuples."""
    return _root_system(cartan)


@lru_cache(maxsize=None)
def _scaled_inverse(cartan: CartanData) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(D, D A^{-1}) with D the least common denominator of A^{-1}, so the
    scaled inverse has integer entries."""
    from .linalg import invert

    inv = invert(cartan.gcm)
    den = 1
    for row in inv:
        for x in row:
            den = den * x.denominator // gcd(den, x.denominator)
    return den, tuple(tuple(int(x * den) for x in row) for row in inv)


def root_coordinates(cartan: CartanData, w: Weight) -> tuple[int, ...] | None:
    """Integer coordinates of a weight in the simple-root basis, or None
    when the weight is not in the root lattice."""
    den, scaled = _scaled_inverse(cartan)
    out = []
    for row in scaled:
        q, r = divmod(sum(a * x for a, x in zip(row, w)), den)
        if r:
            return None
        out.append(q)
    return tuple(out)

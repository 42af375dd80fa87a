"""Trails in a fundamental lowest-weight module and their linear functions.

A trail for a reduced word ``J = (i_1, ..., i_m)`` and a node ``t`` is a
sequence of weights ``gamma_1, ..., gamma_{m+1}`` with

* (T)  ``gamma_{j+1} - gamma_j = n_j alpha_{i_j}`` for a non-negative
  integer exponent ``n_j``;
* (B)  ``gamma_1 = -s_t(omega_t)`` and ``gamma_{j+1} = -w_j(omega_t)`` for
  all ``j >= phi``, where ``phi <= m`` is the trivialization step;
* (P)  ``gamma_j`` exceeds the driving trail's weight by an element of the
  non-negative root lattice, at every step;
* realizability: the partial monomial vectors
  ``e_{i_j}^{n_j} ... e_{i_1}^{n_1} v_{-s_t omega_t}`` are all non-zero in
  ``V(-omega_t)``.

Each trail K determines a linear function ``z^K = sum_j c_j m_j`` on
exponent coordinates, with ``c_j`` the coroot pairing of ``alpha_{i_j}``
against the midpoint of ``gamma_j`` and ``gamma_{j+1}``.  Together with the
Kashiwara functions ``r_s^k`` and their consecutive differences (the closed
face functions), these tie the trail calculus to the coordinates of the
word.  Trails trivializing at a common step are grouped into classes
carrying the a/k/l/c/c' data used downstream.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from operator import ge

from .cartan_core import (
    CartanData,
    Weight,
    WordJ,
    wadd,
    wscale,
    wsub,
)
from .errors import (
    ConsistencyError,
    OpenFaceRequest,
    PositionMissingError,
    TNotInWord,
)
from .rep_builder import LowestWeightModule, apply_projective


@dataclass(frozen=True)
class LinearFunctionBJ:
    """An integer linear function sum_j c_j m_j of exponent coordinates.

    ``terms`` is the canonical representation: (position, coefficient)
    pairs sorted by 1-based position, zero coefficients dropped; a position
    below 1 is rejected.  The hash is the one the dataclass would compute,
    kept from its first use: most functions go into sets, but those built
    only to be written out are never hashed.
    """

    terms: tuple[tuple[int, int], ...]
    _hash = None    # not a field

    def __post_init__(self):
        terms = self.terms
        if not all(c for _, c in terms):
            raise ConsistencyError(f"zero coefficient in the terms {terms}")
        if any(a[0] >= b[0] for a, b in zip(terms, terms[1:])):
            raise ConsistencyError(
                f"terms {terms} are not sorted by distinct positions")
        if terms and terms[0][0] < 1:
            raise ConsistencyError(f"position below 1 in the terms {terms}")

    def __hash__(self) -> int:
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.terms,)))
        return self._hash

    @staticmethod
    def from_coeffs(coeffs) -> "LinearFunctionBJ":
        """Build from a mapping position -> coefficient."""
        return LinearFunctionBJ(
            tuple(sorted((j, c) for j, c in coeffs.items() if c != 0)))

    def as_dict(self) -> dict[int, int]:
        return dict(self.terms)

    def __add__(self, other: "LinearFunctionBJ") -> "LinearFunctionBJ":
        coeffs = self.as_dict()
        for j, c in other.terms:
            coeffs[j] = coeffs.get(j, 0) + c
        return LinearFunctionBJ.from_coeffs(coeffs)

    def __sub__(self, other: "LinearFunctionBJ") -> "LinearFunctionBJ":
        return self + other.scale(-1)

    def scale(self, c: int) -> "LinearFunctionBJ":
        if c == 0:
            return LinearFunctionBJ(())
        return LinearFunctionBJ(tuple((j, c * v) for j, v in self.terms))


def _as_word(cartan: CartanData, word) -> WordJ:
    """``word`` as a word over ``cartan``: a letter tuple is wrapped, and a
    WordJ over another matrix raises ConsistencyError."""
    if not isinstance(word, WordJ):
        return WordJ(cartan, tuple(word))
    if word.cartan != cartan:
        raise ConsistencyError(f"the word {word.letters} is over another "
                               "Cartan matrix than the module")
    return word


def _letter_roots(word: WordJ) -> tuple[Weight, ...]:
    """alpha_{i_j} for every position j (index j-1), computed once per word."""
    return word.memoized("letter_roots", lambda: tuple(
        word.cartan.simple_root(i) for i in word.letters))


def _driving_data(word: WordJ, t: int):
    """(gamma, low, exps, phi) of the driving trail of type t, built once
    per word and t: its weights gamma_1..gamma_{m+1}, their integer root
    coordinates relative to gamma_1 (the lower bounds of (P) in those
    coordinates), its exponents and its trivialization step."""
    return word.memoized(("driving", t), lambda: _build_driving_data(word, t))


def _build_driving_data(word: WordJ, t: int):
    """One pass over the prefix weights -w_j(omega_t).  The weights stay at
    -s_t(omega_t), which is -w_p(omega_t) for p the first occurrence of
    t, through p and follow the prefix weights after it.  Each step is
    n_j alpha_{i_j}, with n_j half the change at coordinate i_j, as alpha_i
    has 2 there; a step that is not such a multiple, or a negative n_j,
    raises ConsistencyError.  The root coordinates are the running sums of
    the n_j per letter."""
    if word.count(t) == 0:
        raise TNotInWord(f"letter {t} does not occur in {word.letters}")
    prefix = word.prefix_weights(t)
    p1 = word.position(t, 1)
    gamma = [prefix[p1]] * p1 + list(prefix[p1:])
    x = [0] * word.cartan.n
    low = [tuple(x)]
    exps = []
    steps = zip(word.letters, _letter_roots(word), gamma, gamma[1:])
    for j, (i, alpha, a, b) in enumerate(steps, start=1):
        n = (b[i - 1] - a[i - 1]) // 2
        if n < 0 or wsub(b, a) != wscale(n, alpha):
            raise ConsistencyError(f"the driving step at position {j} is "
                                   f"not a non-negative multiple of a root")
        x[i - 1] += n
        low.append(tuple(x))
        exps.append(n)
    gamma = tuple(gamma)
    return (gamma, tuple(low), tuple(exps),
            _trivialization_step(prefix, gamma))


def _trivialization_step(prefix, gamma) -> int:
    """phi: the least step with gamma_{j+1} = -w_j(omega_t) for j >= phi,
    where ``prefix[j]`` is -w_j(omega_t)."""
    phi = len(gamma) - 1
    while phi > 1 and gamma[phi - 1] == prefix[phi - 1]:
        phi -= 1
    return phi


@dataclass(frozen=True)
class Trail:
    """A trail, stored by its exponents n_1..n_m.

    By (T) the exponents fix every weight from gamma_1 = -s_t(omega_t), so
    construction checks that each n_j is an int (not a bool), walks them
    once, checks n_j >= 0, (P) and the end weight, and keeps the weights
    ``gamma`` and the trivialization step ``phi`` as derived attributes.
    Realizability needs a module, so :func:`enumerate_trails`, which holds
    one, checks it.  Its search checks the same axioms node by node and
    carries the weights, so it builds its trails without a second walk
    (:meth:`_walked`).
    """

    word: WordJ
    t: int
    exps: tuple[int, ...]

    def __post_init__(self):
        word = self.word
        if len(self.exps) != word.m:
            raise ConsistencyError(f"{len(self.exps)} exponents for a word "
                                   f"of length {word.m}")
        for j, n in enumerate(self.exps, start=1):
            if type(n) is not int:
                raise ConsistencyError(
                    f"exponent {n!r} at position {j} is not an int")
        # a bool equals its int as a memo key, so t is checked first
        word.cartan.check_label(self.t)
        drive, low, _, _ = _driving_data(word, self.t)
        # x holds the root coordinates of gamma_j - gamma_1, the raising
        # counts so far, so those of gamma_j - drive_j are x - low_j.
        x = [0] * word.cartan.n
        g = drive[0]
        gamma = [g]
        steps = zip(word.letters, self.exps, _letter_roots(word))
        for j, (i, n, alpha) in enumerate(steps, start=1):
            if n < 0:
                raise ConsistencyError(f"negative exponent at position {j}")
            x[i - 1] += n
            if not all(map(ge, x, low[j])):
                raise ConsistencyError(
                    f"weight at position {j} drops below the driving trail")
            if n:
                g = wadd(g, wscale(n, alpha))
            gamma.append(g)
        prefix = word.prefix_weights(self.t)
        if g != prefix[word.m]:
            raise ConsistencyError("trail does not end at -w_m(omega_t)")
        object.__setattr__(self, "gamma", tuple(gamma))
        object.__setattr__(self, "phi", _trivialization_step(prefix, gamma))

    @classmethod
    def _walked(cls, word: WordJ, t: int, exps: tuple[int, ...],
                gamma: tuple[Weight, ...], phi: int) -> "Trail":
        """The trail with exponents ``exps`` whose axioms a caller has
        already checked along the way, with the weights ``gamma`` and the
        step ``phi`` that the walk would derive; nothing is walked again."""
        K = cls.__new__(cls)
        K.__dict__.update(word=word, t=t, exps=exps, gamma=gamma, phi=phi)
        return K

    def weight(self, j: int) -> Weight:
        """gamma_j, 1-based, j in [1, m+1]."""
        return self.gamma[j - 1]

    def pairing_delta(self, j: int) -> int:
        """alpha_{i_j}^vee of the midpoint (gamma_j + gamma_{j+1})/2."""
        i = self.word.letters[j - 1]
        tot = self.gamma[j - 1][i - 1] + self.gamma[j][i - 1]
        if tot % 2:
            raise ConsistencyError(f"odd midpoint pairing at position {j}")
        return tot // 2

    def sort_key(self):
        return self.exps

    def to_json_dict(self) -> dict:
        # the writer takes the weight and exponent tuples as lists
        return {
            "gamma": self.gamma,
            "exps": self.exps,
            "phi": self.phi,
            "z": {str(j): c for j, c in trail_function(self).terms},
        }


def driving_trail(word: WordJ, t: int) -> Trail:
    """The driving trail of type t: constant at -s_t(omega_t) through the
    first occurrence of t, then the extremal weights -w_j(omega_t)."""
    word.cartan.check_label(t)
    gamma, _, exps, phi = _driving_data(word, t)
    return Trail._walked(word, t, exps, gamma, phi)


def trail_function(K: Trail) -> LinearFunctionBJ:
    """z^K: the coefficient at position j is the coroot pairing of
    alpha_{i_j} against (gamma_j + gamma_{j+1})/2, which is
    gamma_j[i_j - 1] + n_j, as alpha_{i_j} pairs to 2 with its coroot."""
    terms = tuple((j, z) for j, (i, n, g)
                  in enumerate(zip(K.word.letters, K.exps, K.gamma), start=1)
                  if (z := g[i - 1] + n))
    if terms and terms[-1][0] > K.phi:
        raise ConsistencyError(
            f"trail function supported beyond the trivialization step {K.phi}")
    return LinearFunctionBJ(terms)


def kashiwara_function(word: WordJ, s: int, k: int) -> LinearFunctionBJ:
    """r_s^k = m_s^k + sum over positions j after (s,k) of
    alpha_{i_j}^vee(alpha_s) m_j; for k = 0 the sum runs over the whole word.
    Built once per word and (s, k)."""
    word.cartan.check_label(s)
    return word.memoized(("kashiwara", s, k),
                         lambda: _build_kashiwara(word, s, k))


def _build_kashiwara(word: WordJ, s: int, k: int) -> LinearFunctionBJ:
    u = 1 if k == 0 else word.position(s, k)
    coeffs = {j: word.cartan.pairing(word.letters[j - 1], s)
              for j in range(u, word.m + 1)}
    if k:
        coeffs[u] = 1
    return LinearFunctionBJ.from_coeffs(coeffs)


def face_function(word: WordJ, s: int,
                  k: int) -> tuple[tuple[Weight, ...], LinearFunctionBJ]:
    """The closed face of type (s, k > 1): weights equal to alpha_s on the
    half-open stretch ((s,k-1), (s,k)], zero elsewhere, and its function
    m_u + sum_{v<j<u} alpha_{i_j}^vee(alpha_s) m_j + m_v."""
    if k == 1:
        raise OpenFaceRequest(
            "k = 1 is the open face; its trail is driving_trail(word, s)")
    cartan = word.cartan
    u = word.position(s, k)
    v = word.position(s, k - 1)
    alpha = cartan.simple_root(s)
    zero = tuple(0 for _ in range(cartan.n))
    weights = tuple(alpha if v < j <= u else zero
                    for j in range(1, word.m + 2))
    coeffs = {u: 1, v: 1}
    for j in range(v + 1, u):
        coeffs[j] = cartan.pairing(word.letters[j - 1], s)
    return weights, LinearFunctionBJ.from_coeffs(coeffs)


def _face_basis(word: WordJ) -> dict[int, LinearFunctionBJ]:
    """Closed-face functions keyed by their top support position (s,k),
    computed once per word."""
    return word.memoized("face_basis", lambda: _build_face_basis(word))


def _build_face_basis(word: WordJ) -> dict[int, LinearFunctionBJ]:
    basis = {}
    for s in word.cartan.labels:
        for k in range(2, word.count(s) + 1):
            _, f = face_function(word, s, k)
            basis[word.position(s, k)] = f
    return basis


def _state_key(M: LowestWeightModule, j: int, g: Weight,
               v: dict[int, int]) -> tuple:
    """The memo key of a search state at position j, weight g and non-zero
    vector v: (j, g) when g's weight space is one-dimensional, else (j, g,
    the line of v), its (index, entry) pairs in index order divided by the
    gcd of the entries and signed so that the first entry is positive.  Two
    vectors at g share a key exactly when one is a non-zero multiple of the
    other."""
    if len(M.weight_spaces[g]) == 1:
        return j, g
    items = sorted(v.items())
    d = gcd(*v.values())
    if items[0][1] < 0:
        d = -d
    return j, g, tuple((r, x // d) for r, x in items)


def enumerate_trails(M: LowestWeightModule, word) -> tuple[Trail, ...]:
    """All trails for (word, M.t), by a search on exponents over memoized
    states, in increasing order of their exponents.

    A state is a prefix of exponents seen by what its extensions depend
    on: the position j it has reached, the weight gamma_j and the line of
    its partial monomial vector.  The bounds below depend on j and
    gamma_j alone, and whether a further product e_i^n vanishes depends
    only on the line of the vector, as the e_i are linear.  So every
    prefix that reaches one state has the same completions, and the
    passing raisings of each state are computed once per call and kept
    as its children; the trails are then read off by walking them.  When
    gamma_j's weight space is one-dimensional the line is fixed by the
    weight and the key is (j, gamma_j).  Otherwise the key also holds the
    line (``_state_key``): at a weight of multiplicity > 1, prefixes reach
    non-proportional vectors, whose raisings can vanish at different
    exponents, so a weight-only key would give one of them the other's
    completions and lose trails.  A state with no completion is no one's
    child, so the walk visits only nodes on the path to a trail.

    Branches are cut when the partial monomial vector vanishes, when a
    weight drops below the driving trail, or when the deficit to the final
    extremal weight -w_m(omega_t) can no longer be filled by the remaining
    letters.  The partial monomial vectors are integer vectors over the
    integer forms of the e_i, exact up to a positive factor.  Each child
    carries its weight, and each leaf becomes a trail with the weights of
    its path.  Finite-dimensionality bounds every branch.  A state keeps
    its children in increasing n_j and the walk is depth-first, so the
    trails come out in increasing lexicographic order of their exponents.

    A node at position j raises the root coordinate of its letter i alone,
    and checks it against its bounds after step j: the driving trail's
    below, the final weight's above, and equality with the final weight
    when i does not occur after j.  No other coordinate k is checked, as by
    induction on j it meets its bounds after step j.  Step j leaves k as it
    is, and keeps its bounds: the driving trail moves only coordinate i at
    step j, and a letter other than i occurs after j exactly when it occurs
    from j on.  So k meets them as it met its bounds after step j - 1, at
    the parent node.  At j = 1 all coordinates are 0, as are the driving
    trail's; its exponents are non-negative, so the upper bounds are at
    least 0, and 0 at a letter that the word lacks.  After step m no letter
    is left, so a leaf ends at the final weight.  Raising stops once the
    coordinate reaches its upper bound, as every further raising overshoots
    it, and at a weight with no weight space, where the vector vanishes
    without a product.
    """
    word = _as_word(M.cartan, word)
    t = M.t
    m = word.m
    letters = word.letters
    # the driving data checks the premises of the induction
    drv = driving_trail(word, t)
    drive, low = drv.gamma, _driving_data(word, t)[1]
    alphas = _letter_roots(word)
    prefix = word.prefix_weights(t)
    spaces = M.weight_spaces
    # Root coordinates relative to gamma_1: a node's are its raising counts,
    # the driving trail's are the lower bounds of (P), and the final weight
    # -w_m(omega_t) = drive_{m+1} gives the upper bounds.
    high = low[m]
    # per position j: the bounds after step j of the letter's coordinate
    bounds = [None] + [(low[j][i - 1], high[i - 1], i not in letters[j:])
                       for j, i in enumerate(letters, start=1)]
    x = [0] * M.cartan.n    # the root coordinates of the state expanded
    # state key -> its children: (n_j, gamma_{j+1}, the child's children)
    # for each passing n_j with a completion; a leaf's children are ()
    memo: dict[tuple, tuple] = {}

    def expand(j: int, g: Weight, v: dict[int, int]) -> tuple:
        i = letters[j - 1]
        c = i - 1
        lo, hi, exact = bounds[j]
        alpha = alphas[j - 1]
        cols = M.e_int[i].cols
        kids = []
        start = a = x[c]
        n = 0
        while True:
            if lo <= a <= hi and (a == hi or not exact):
                if j == m:
                    # the checks above are the walk's: (P) at every node,
                    # and the end weight at the last, where no letter is
                    # left to raise by
                    kids.append((n, g, ()))
                else:
                    # _state_key, with its common case inline
                    key = ((j + 1, g) if len(spaces[g]) == 1
                           else _state_key(M, j + 1, g, v))
                    sub = memo.get(key)
                    if sub is None:
                        x[c] = a
                        sub = memo[key] = expand(j + 1, g, v)
                    if sub:
                        kids.append((n, g, sub))
            if a >= hi:     # a raising only moves a further past hi
                break
            g = wadd(g, alpha)
            if g not in spaces:
                break
            v = apply_projective(cols, v)
            if not v:
                break
            n += 1
            a += 1
        x[c] = start
        return tuple(kids)

    found: list[Trail] = []
    exps: list[int] = []    # the exponents of the current node
    gamma = [drive[0]]      # and its weights gamma_1..gamma_j

    def walk(kids: tuple):
        for n, g, sub in kids:
            exps.append(n)
            gamma.append(g)
            if sub:
                walk(sub)
            else:
                w = tuple(gamma)
                found.append(Trail._walked(word, t, tuple(exps), w,
                                           _trivialization_step(prefix, w)))
            gamma.pop()
            exps.pop()

    walk(expand(1, drive[0], M.start_vector))

    first = word.position(t, 1)
    earliest = [K for K in found if K.phi <= first]
    if earliest != [drv]:
        raise ConsistencyError(
            "the unique earliest-trivializing trail should be the driving trail")
    return tuple(found)


@dataclass(frozen=True)
class TsClass:
    """Trails of one signature, trivializing together at step j = (s, n).

    The signature is the exponents at the non-s positions before j;
    ``positions`` are the occurrences (s,1)..(s,n); ``a`` the eigenvalue
    drops; ``members`` are sorted by their exponent tuples ``k_tuples`` at
    the s-positions; ``l_min`` is the lexicographically least member, whose
    exponents ``l`` give the coefficients c_i = a^(i) - l^(i) - l^(i-1);
    each member's c'_i = k^(i) - l^(i) is in ``c_primes``.
    """

    s: int
    j: int
    positions: tuple[int, ...]
    a: tuple[int, ...]
    members: tuple[Trail, ...]
    k_tuples: tuple[tuple[int, ...], ...]
    l_min: Trail
    c: tuple[int, ...]
    c_primes: tuple[tuple[int, ...], ...]

    @property
    def n(self) -> int:
        return len(self.a)


def _partial_sums(xs) -> list[int]:
    out = [0]
    for x in xs:
        out.append(out[-1] + x)
    return out


def group_ts_classes(trails, s: int, j: int) -> list[TsClass]:
    """Partition the trails settled by step j (a position of letter s),
    those with phi <= j, by signature, and compute each class's a/l/c/c'
    data; the other trails are left out.

    The driving trail of type s is never a class member when s = t.  All
    per-class identities that the calculus guarantees are re-verified here
    from the weight data, and violations raise ConsistencyError.
    """
    trails = sorted(trails, key=Trail.sort_key)
    if not trails:
        return []
    word, t = trails[0].word, trails[0].t
    if any(K.word != word or K.t != t for K in trails):
        raise ConsistencyError("trails come from different enumerations")
    letter = word.occurrence(j)[0]  # a j off the word raises here
    if letter != s:
        raise PositionMissingError(
            f"position {j} carries letter {letter}, not {s}")
    n = word.count(s, upto=j)
    positions = tuple(word.position(s, i) for i in range(1, n + 1))

    # a signature lists the exponents at the same positions for every trail
    others = [q for q in range(j - 1) if word.letters[q] != s]
    # the driving trail is never a member of its own type: it alone
    # trivializes by the first occurrence of t
    driving_phi = word.position(t, 1) if s == t else 0
    groups: dict[tuple, list[Trail]] = {}
    for K in trails:
        if not driving_phi < K.phi <= j:
            continue
        sig = tuple(map(K.exps.__getitem__, others))
        groups.setdefault(sig, []).append(K)

    out = []
    for sig in sorted(groups):
        members = tuple(groups[sig])    # sorted, as the trails are
        k_tuples = tuple(tuple(K.exps[p - 1] for p in positions)
                         for K in members)
        a = _class_a(word, s, positions, members[0])
        for K in members[1:]:
            if _class_a(word, s, positions, K) != a:
                raise ConsistencyError("members of one class disagree on a")
        l_idx = min(range(len(members)), key=lambda q: k_tuples[q])
        l_min = members[l_idx]
        l = k_tuples[l_idx]
        a_sum, l_sum = _partial_sums(a), _partial_sums(l)
        c = tuple(a_sum[i] - l_sum[i] - l_sum[i - 1] for i in range(1, n + 1))
        _check_class_bounds(s, a, l, c, l_min, positions)
        c_primes = []
        for k in k_tuples:
            k_sum = _partial_sums(k)
            cp = tuple(k_sum[i] - l_sum[i] for i in range(1, n + 1))
            if any(cp[i] > c[i] for i in range(n)):
                raise ConsistencyError(
                    f"member c'={cp} exceeds the class bound c={c}")
            c_primes.append(cp)
        out.append(TsClass(s, j, positions, a, members, k_tuples,
                           l_min, c, tuple(c_primes)))
    return out


def _class_a(word: WordJ, s: int, positions, K: Trail) -> tuple[int, ...]:
    """The drops a_1..a_n: a_1 from the weight entering (s,1), the rest from
    the in-between segments; cross-checked against the weight data."""
    cartan = word.cartan
    a = [-K.weight(positions[0])[s - 1]]
    for i in range(1, len(positions)):
        drop = 0
        for q in range(positions[i - 1] + 1, positions[i]):
            drop -= K.exps[q - 1] * cartan.pairing(s, word.letters[q - 1])
        a.append(drop)
    a_sum, k_sum = _partial_sums(a), 0
    for i, p in enumerate(positions, start=1):
        if K.weight(p)[s - 1] != -a_sum[i] + 2 * k_sum:
            raise ConsistencyError(
                "segment drops disagree with the weight pairing")
        k_sum += K.exps[p - 1]
    return tuple(a)


def _check_class_bounds(s, a, l, c, l_min: Trail, positions) -> None:
    n = len(a)
    for i in range(n - 1):
        if l[i] > a[i + 1]:
            raise ConsistencyError(f"l_{i + 1}={l[i]} exceeds a_{i + 2}={a[i + 1]}")
    if any(x < 0 for x in c):
        raise ConsistencyError(f"negative class coefficient in c={c}")
    if c[n - 1] != 0:
        raise ConsistencyError(f"c_n={c[n - 1]} must vanish")
    for i, p in enumerate(positions, start=1):
        if c[i - 1] != -l_min.pairing_delta(p):
            raise ConsistencyError(
                "c from the exponent sums disagrees with the midpoint pairing")

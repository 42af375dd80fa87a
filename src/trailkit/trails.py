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
from operator import ge

from .cartan_core import (
    CartanData,
    Weight,
    WordJ,
    root_coordinates,
    wadd,
    wscale,
    wsub,
)
from .errors import (
    ConsistencyError,
    MixedTrivialization,
    NoMaximalTrail,
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

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(j for j, _ in self.terms)

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
    if isinstance(word, WordJ):
        return word
    return WordJ(cartan, tuple(word))


def _letter_roots(word: WordJ) -> tuple[Weight, ...]:
    """alpha_{i_j} for every position j (index j-1), computed once per word."""
    return word.memoized("letter_roots", lambda: tuple(
        word.cartan.simple_root(i) for i in word.letters))


def _driving_data(word: WordJ, t: int):
    """(gamma, low) of the driving trail of type t, computed once per word:
    its weights gamma_1..gamma_{m+1}, and their integer root coordinates
    relative to gamma_1 (the lower bounds of (P) in those coordinates)."""
    return word.memoized(("driving", t), lambda: _build_driving_data(word, t))


def _build_driving_data(word: WordJ, t: int):
    if word.count(t) == 0:
        raise TNotInWord(f"letter {t} does not occur in {word.letters}")
    p1 = word.position(t, 1)
    start = wsub(word.cartan.simple_root(t),
                 word.cartan.fundamental_weight(t))  # -s_t(omega_t)
    gamma = [start] * (p1 + 1)
    for j in range(p1 + 1, word.m + 1):
        gamma.append(word.prefix_weight(t, j))
    low = tuple(root_coordinates(word.cartan, wsub(g, start)) for g in gamma)
    return tuple(gamma), low


def _trivialization_step(word: WordJ, t: int, gamma) -> int:
    """phi: the least step with gamma_{j+1} = -w_j(omega_t) for j >= phi."""
    phi = word.m
    while phi > 1 and gamma[phi - 1] == word.prefix_weight(t, phi - 1):
        phi -= 1
    return phi


@dataclass(frozen=True)
class Trail:
    """A trail, stored by its exponents n_1..n_m.

    By (T) the exponents fix every weight from gamma_1 = -s_t(omega_t), so
    construction checks that each n_j is an int (not a bool, before any
    weight is stored), walks them once, checks n_j >= 0, (P) and the end
    weight, and keeps the weights ``gamma`` and the trivialization step
    ``phi`` as derived attributes.  Realizability needs a module, so the
    constructors that hold one (:func:`enumerate_trails`,
    :func:`make_trail`) check it.  The search of :func:`enumerate_trails`
    checks the same axioms node by node and carries the weights, so it
    builds its trails without a second walk (:meth:`_walked`).
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
        drive, low = _driving_data(word, self.t)
        # equal weights of the trails of one (word, t) share one tuple
        shared = word.memoized(("weights", self.t), dict)
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
                g = shared.setdefault(g, g)
            gamma.append(g)
        if g != word.prefix_weight(self.t, word.m):
            raise ConsistencyError("trail does not end at -w_m(omega_t)")
        object.__setattr__(self, "gamma", tuple(gamma))
        object.__setattr__(self, "phi",
                           _trivialization_step(word, self.t, gamma))

    @classmethod
    def _walked(cls, word: WordJ, t: int, exps: tuple[int, ...],
                gamma: tuple[Weight, ...]) -> "Trail":
        """The trail with exponents ``exps`` whose axioms a caller has
        already checked along the way, with the weights ``gamma`` that the
        walk would derive; nothing is walked again."""
        K = cls.__new__(cls)
        K.__dict__.update(word=word, t=t, exps=exps, gamma=gamma,
                          phi=_trivialization_step(word, t, gamma))
        return K

    @property
    def m(self) -> int:
        return self.word.m

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
        return {
            "gamma": [list(g) for g in self.gamma],
            "exps": list(self.exps),
            "phi": self.phi,
            "z": {str(j): c for j, c in trail_function(self).terms},
        }


def driving_trail(cartan: CartanData, word, t: int) -> Trail:
    """The driving trail of type t: constant at -s_t(omega_t) through the
    first occurrence of t, then the extremal weights -w_j(omega_t)."""
    word = _as_word(cartan, word)
    exps, gamma = word.memoized(("driving_trail", t),
                                lambda: _build_driving_trail(word, t))
    return Trail._walked(word, t, exps, gamma)


def _build_driving_trail(word: WordJ, t: int):
    """(exps, gamma) of the driving trail, checked by one walk."""
    drive = _driving_data(word, t)[0]
    # alpha_i has 2 at coordinate i, so a step n alpha_i raises it by 2n
    K = Trail(word, t, tuple((b[i - 1] - a[i - 1]) // 2 for i, a, b
                             in zip(word.letters, drive, drive[1:])))
    if K.gamma != drive:
        raise ConsistencyError("the driving weights do not form a trail")
    return K.exps, K.gamma


def trail_function(K: Trail) -> LinearFunctionBJ:
    """z^K: the coefficient at position j is the coroot pairing of
    alpha_{i_j} against (gamma_j + gamma_{j+1})/2."""
    coeffs = {j: K.pairing_delta(j) for j in range(1, K.m + 1)}
    f = LinearFunctionBJ.from_coeffs(coeffs)
    if any(j > K.phi for j in f.support):
        raise ConsistencyError(
            f"trail function supported beyond the trivialization step {K.phi}")
    return f


def kashiwara_function(cartan: CartanData, word, s: int, k: int) -> LinearFunctionBJ:
    """r_s^k = m_s^k + sum over positions j after (s,k) of
    alpha_{i_j}^vee(alpha_s) m_j; for k = 0 the sum runs over the whole word.
    Built once per word and (s, k)."""
    word = _as_word(cartan, word)
    cartan.check_label(s)
    return word.memoized(("kashiwara", s, k),
                         lambda: _build_kashiwara(word, s, k))


def _build_kashiwara(word: WordJ, s: int, k: int) -> LinearFunctionBJ:
    u = 1 if k == 0 else word.position(s, k)
    coeffs = {j: word.cartan.pairing(word.letters[j - 1], s)
              for j in range(u, word.m + 1)}
    if k:
        coeffs[u] = 1
    return LinearFunctionBJ.from_coeffs(coeffs)


def face_function(cartan: CartanData, word, s: int,
                  k: int) -> tuple[tuple[Weight, ...], LinearFunctionBJ]:
    """The closed face of type (s, k > 1): weights equal to alpha_s on the
    half-open stretch ((s,k-1), (s,k)], zero elsewhere, and its function
    m_u + sum_{v<j<u} alpha_{i_j}^vee(alpha_s) m_j + m_v."""
    word = _as_word(cartan, word)
    if k == 1:
        raise OpenFaceRequest(
            "k = 1 is the open face; its trail is driving_trail(cartan, word, s)")
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
            _, f = face_function(word.cartan, word, s, k)
            basis[word.position(s, k)] = f
    return basis


def _chain(M: LowestWeightModule, word: WordJ,
           exps) -> list[dict[int, int]] | None:
    """Vectors v_1..v_{m+1} along the word, each a positive multiple of the
    exact one in integers, or None if any vanishes."""
    v = M.start_vector
    out = [v]
    for i, n in zip(word.letters, exps):
        cols = M.e_int[i].cols
        for _ in range(n):
            v = apply_projective(cols, v)
            if not v:
                return None
        out.append(v)
    return out


def make_trail(M: LowestWeightModule, word, t: int, exps) -> Trail | None:
    """The trail with the given exponents, or None if the axioms or
    realizability fail.  The module must be built for ``t``."""
    word = _as_word(M.cartan, word)
    if t != M.t:
        raise ConsistencyError(f"module is built for t={M.t}, not t={t}")
    exps = tuple(exps)
    if len(exps) != word.m:
        return None
    try:
        K = Trail(word, t, exps)
    except ConsistencyError:
        return None
    if _chain(M, word, exps) is None:
        return None
    return K


def enumerate_trails(M: LowestWeightModule, word, t: int) -> frozenset[Trail]:
    """All trails for (word, t), by depth-first search on exponents.

    Branches are cut when the partial monomial vector vanishes, when a
    weight drops below the driving trail, or when the deficit to the final
    extremal weight -w_m(omega_t) can no longer be filled by the remaining
    letters.  The partial monomial vectors are integer vectors over the
    integer forms of the e_i, exact up to a positive factor.  Each node
    carries its weights, and each leaf becomes a trail with them.
    Finite-dimensionality bounds every branch.
    """
    word = _as_word(M.cartan, word)
    if t != M.t:
        raise ConsistencyError(f"module is built for t={M.t}, not t={t}")
    m = word.m
    drive, low = _driving_data(word, t)
    alphas = _letter_roots(word)
    shared = word.memoized(("weights", t), dict)
    letters_after = [set(word.letters[j:]) for j in range(m + 1)]
    # Root coordinates relative to gamma_1: a node's are its raising counts,
    # the driving trail's are the lower bounds of (P), and the final weight
    # -w_m(omega_t) = drive_{m+1} gives the upper bounds.
    high = low[m]
    found: list[Trail] = []
    exps: list[int] = []  # the exponents of the current node
    gamma = [drive[0]]    # and its weights gamma_1..gamma_j

    def admissible(x: list[int], j: int) -> bool:
        if any(a < b for a, b in zip(x, low[j])):
            return False
        return all(a <= h and (a == h or c + 1 in letters_after[j])
                   for c, (a, h) in enumerate(zip(x, high)))

    def search(j: int, x: list[int], v: dict[int, int]):
        if j > m:
            # the checks above are the walk's: (P) at every node, and the
            # end weight at the last, where no letter is left to raise by
            found.append(Trail._walked(word, t, tuple(exps), tuple(gamma)))
            return
        i = word.letters[j - 1]
        alpha = alphas[j - 1]
        cols = M.e_int[i].cols
        n = 0
        x = list(x)
        while True:
            if admissible(x, j):
                g = gamma[-1]
                if n:
                    g = wadd(g, wscale(n, alpha))
                    g = shared.setdefault(g, g)
                exps.append(n)
                gamma.append(g)
                search(j + 1, x, v)
                gamma.pop()
                exps.pop()
            n += 1
            v = apply_projective(cols, v)
            if not v:
                return
            x[i - 1] += 1

    search(1, [0] * M.cartan.n, M.start_vector)

    trails = frozenset(found)
    first = word.position(t, 1)
    drv = driving_trail(M.cartan, word, t)
    earliest = [K for K in trails if K.phi <= first]
    if earliest != [drv]:
        raise ConsistencyError(
            "the unique earliest-trivializing trail should be the driving trail")
    return trails


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

    @property
    def l(self) -> tuple[int, ...]:
        return self.k_tuples[0]


def _partial_sums(xs) -> list[int]:
    out = [0]
    for x in xs:
        out.append(out[-1] + x)
    return out


def group_ts_classes(trails, s: int, j: int) -> list[TsClass]:
    """Partition trails trivializing at step j (a position of letter s) by
    signature, and compute each class's a/l/c/c' data.

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
        if K.phi > j:
            raise MixedTrivialization(
                f"trail with phi={K.phi} does not trivialize at step {j}")
        if K.phi <= driving_phi:
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
        if c_primes[l_idx] != (0,) * n:
            raise ConsistencyError("the lex-least member must have c' = 0")
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


# No CLI path runs the face moves and minimax_decompose below yet; they are
# kept for the false-trail forensics of ROADMAP item 1, which will report
# what minimax_decompose says of each failing class.


def try_adjoin_face(K: Trail, s: int, k: int, M: LowestWeightModule) -> Trail | None:
    """K + F_s^k (k > 1) if it is again a trail, else None."""
    return _shift_face(K, s, k, M, +1)


def try_remove_face(K: Trail, s: int, k: int, M: LowestWeightModule) -> Trail | None:
    """K - F_s^k (k > 1) if it is again a trail, else None."""
    return _shift_face(K, s, k, M, -1)


def _shift_face(K: Trail, s: int, k: int, M: LowestWeightModule,
                sign: int) -> Trail | None:
    if k <= 1:
        raise OpenFaceRequest("only closed faces (k > 1) can be adjoined")
    u = K.word.position(s, k)
    v = K.word.position(s, k - 1)
    exps = list(K.exps)
    exps[v - 1] += sign
    exps[u - 1] -= sign
    if exps[v - 1] < 0 or exps[u - 1] < 0:
        return None
    return make_trail(M, K.word, K.t, exps)


def minimal_in_class(M: LowestWeightModule, cls: TsClass, K: Trail) -> bool:
    """Whether f_s kills the vector entering every position (s,i)."""
    chain = _chain(M, K.word, K.exps)
    cols = M.f_int[cls.s].cols
    return not any(apply_projective(cols, chain[p - 1]) for p in cls.positions)


def maximal_in_class(M: LowestWeightModule, cls: TsClass, K: Trail) -> bool:
    """Whether e_s kills the vector leaving every position (s,i)."""
    chain = _chain(M, K.word, K.exps)
    cols = M.e_int[cls.s].cols
    return not any(apply_projective(cols, chain[p]) for p in cls.positions)


def minimax_decompose(cls: TsClass, M: LowestWeightModule) -> tuple[Trail, tuple[int, ...]]:
    """Locate the maximal member, then strip d_l copies of the face F_s^l
    for l = 2..n in increasing order, landing on the minimal member.

    Returns (K_min, d).  Raises NoMaximalTrail when no member is maximal;
    every step of the descent is re-verified (the midpoint sign pattern,
    the defining vanishing of K_min, d_{k+1} matching K_min's coefficients,
    and the exact round trip back to K_max).
    """
    s, positions, n = cls.s, cls.positions, cls.n
    maximal = [K for K in cls.members if maximal_in_class(M, cls, K)]
    if not maximal:
        raise NoMaximalTrail(f"no maximal member among {len(cls.members)} trails")
    if len(maximal) > 1:
        raise ConsistencyError("the maximal member should be unique")
    k_max = maximal[0]
    d = tuple(k_max.pairing_delta(p) for p in positions)
    if d[0] != 0:
        raise ConsistencyError(f"d_1={d[0]} must vanish")
    if any(x < 0 for x in d):
        raise ConsistencyError(f"negative entry in d={d}")

    def check_sign_pattern(K: Trail, level: int) -> None:
        for i, p in enumerate(positions, start=1):
            val = K.pairing_delta(p)
            want = -d[i] if i < level else (0 if i == level else d[i - 1])
            if val != want:
                raise ConsistencyError(
                    f"midpoint pairing {val} at (s,{i}) after level {level}, "
                    f"expected {want}")

    K = k_max
    check_sign_pattern(K, 1)
    for level in range(2, n + 1):
        for _ in range(d[level - 1]):
            nxt = try_remove_face(K, s, level, M)
            if nxt is None:
                raise ConsistencyError(
                    f"removing a face at level {level} left the trail set")
            K = nxt
        check_sign_pattern(K, level)
    k_min = K
    if not minimal_in_class(M, cls, k_min):
        raise ConsistencyError("descent did not land on a minimal trail")
    c_min = tuple(-k_min.pairing_delta(p) for p in positions)
    if any(d[i] != c_min[i - 1] for i in range(1, n)):
        raise ConsistencyError(f"d={d} does not match shifted c={c_min}")
    back = k_min
    for level in range(2, n + 1):
        for _ in range(c_min[level - 2]):
            back = try_adjoin_face(back, s, level, M)
            if back is None:
                raise ConsistencyError("re-adjoining the faces failed")
    if back != k_max:
        raise ConsistencyError("face adjunction did not return to the maximal trail")
    return k_min, d


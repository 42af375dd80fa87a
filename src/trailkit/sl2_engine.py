"""Closed-form sl(2) tensor calculus.

Setting: n lowest-weight sl(2)-strings of lengths a_1..a_n, tensored so that
position 1 is the innermost factor, with the *nested* labelled vectors

    v_k = e^{k_n}( u_n (x) e^{k_{n-1}}( u_{n-1} (x) ... (x) e^{k_1} u_1 ) )

where each e acts diagonally on the partial tensor product and u_i is the
lowest vector of the i-th string.  ``coefficient_A`` is the closed form for
the coefficient of v_l in f^b v_k (b = total drop); two independent oracles
are provided: a first-order recurrence and a direct sparse expansion in the
plain product basis.

All arithmetic is arbitrary-precision integer; zero tests are exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from math import comb, factorial

from .errors import DomainError, NotApplicable


@dataclass(frozen=True)
class Sl2Config:
    """Labels (a, k, l) with their prefix-sum calculus.

    ``b_i = k_i - l_i`` are the per-position drops; prefix sums are 1-based:
    ``a_pref(j) = a_1 + ... + a_j`` for ``0 <= j <= n``, and
    ``a_pref(0) = 0``.  They are computed once, on first use.
    """

    a: tuple[int, ...]
    k: tuple[int, ...]
    l: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "a", tuple(self.a))
        object.__setattr__(self, "k", tuple(self.k))
        object.__setattr__(self, "l", tuple(self.l))
        if not (len(self.a) == len(self.k) == len(self.l)) or not self.a:
            raise DomainError("a, k, l must be non-empty tuples of equal length")
        if any(x < 0 for x in self.a + self.k + self.l):
            raise DomainError("labels must be non-negative")

    @property
    def n(self) -> int:
        return len(self.a)

    @property
    def b(self) -> tuple[int, ...]:
        return tuple(x - y for x, y in zip(self.k, self.l))

    @property
    def b_total(self) -> int:
        return sum(self.k) - sum(self.l)

    @property
    def has_negative_b(self) -> bool:
        return any(x < y for x, y in zip(self.k, self.l))

    @cached_property
    def _prefix(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(accumulate(x, initial=0))
                     for x in (self.a, self.k, self.l))

    def a_pref(self, j: int) -> int:
        return self._prefix[0][j]

    def k_pref(self, j: int) -> int:
        return self._prefix[1][j]

    def l_pref(self, j: int) -> int:
        return self._prefix[2][j]


def coefficient_A_factors(cfg: Sl2Config):
    """The closed form split into (b_total!, binomials, linear factors).

    The linear factors are (a^(j) + 1 - i - k^(j-1) - l^(j)) for j = 1..n and
    i = 1..b_j; in the rigid regime (see :func:`rigid_regime`) every one of
    them is positive.
    """
    if cfg.has_negative_b:
        return 0, [], []
    binomials = [comb(ki, li) for ki, li in zip(cfg.k, cfg.l)]
    linear = []
    a_pref, k_pref, l_pref = cfg._prefix
    for j, bj in enumerate(cfg.b, 1):
        base = a_pref[j] + 1 - k_pref[j - 1] - l_pref[j]
        linear.extend(base - i for i in range(1, bj + 1))
    return factorial(cfg.b_total), binomials, linear


def coefficient_A(cfg: Sl2Config) -> int:
    """Coefficient of v_l in f^b v_k (closed form); 0 when some b_i < 0."""
    head, binomials, linear = coefficient_A_factors(cfg)
    out = head
    for x in binomials:
        out *= x
    for x in linear:
        out *= x
    return out


def rigid_regime(cfg: Sl2Config) -> bool:
    """a^(j) - k^(j) - l^(j-1) >= 0 for all j: every linear factor positive."""
    return all(cfg.a_pref(j) - cfg.k_pref(j) - cfg.l_pref(j - 1) >= 0
               for j in range(1, cfg.n + 1))


def coefficient_A_oracle(cfg: Sl2Config,
                         memo: dict[tuple, int] | None = None) -> int:
    """Same coefficient by the first-order recurrence

    A_b(k, l) = -sum_t k_t (k_t + 2 k^(t-1) - a^(t) - 1) A_{b-1}(k - d_t, l)

    with base case A_0(k, l) = [k == l].

    ``memo`` maps (a, k, l) to computed values; a caller checking many
    configurations passes one dict to share them.  None keeps a fresh dict
    for this call only.
    """
    if memo is None:
        memo = {}
    a, k, l = cfg.a, cfg.k, cfg.l
    key = (a, k, l)
    if key in memo:
        return memo[key]
    if sum(k) <= sum(l):
        return 1 if k == l else 0
    total = 0
    a_pref = 0
    k_pref = 0
    for t in range(len(k)):
        a_pref += a[t]
        kt = k[t]
        if kt > 0:
            sub = Sl2Config(a, k[:t] + (kt - 1,) + k[t + 1:], l)
            total -= (kt * (kt + 2 * k_pref - a_pref - 1)
                      * coefficient_A_oracle(sub, memo))
        k_pref += kt
    memo[key] = total
    return total


# ---------------------------------------------------------------------------
# direct expansion oracle in the plain product basis
#
# States are dicts {(m_1..m_n): Fraction} over the basis (x)_i e^{m_i} u_i
# with m_i <= a_i (out-of-range components vanish).


def apply_diagonal_e(a, state):
    out: dict[tuple, Fraction] = {}
    for m, c in state.items():
        for t in range(len(a)):
            if m[t] + 1 <= a[t]:
                key = m[:t] + (m[t] + 1,) + m[t + 1:]
                y = out.get(key, 0) + c
                if y:
                    out[key] = y
                else:
                    out.pop(key, None)
    return out


def apply_diagonal_f(a, state):
    # f e^m u = m (a - m + 1) e^{m-1} u on each factor
    out: dict[tuple, Fraction] = {}
    for m, c in state.items():
        for t in range(len(a)):
            if m[t] > 0:
                key = m[:t] + (m[t] - 1,) + m[t + 1:]
                y = out.get(key, 0) + c * m[t] * (a[t] - m[t] + 1)
                if y:
                    out[key] = y
                else:
                    out.pop(key, None)
    return out


def nested_state(a, k):
    """The state of v_k = e^{k_n}(u_n (x) e^{k_{n-1}}(... e^{k_1} u_1))."""
    n = len(a)
    state: dict[tuple, Fraction] = {(): 1}
    for t in range(n):
        # tensor u_{t+1} on the left (new slot at the end of the index tuple
        # is NOT used; position t+1 is appended at index t)
        state = {m + (0,): c for m, c in state.items()}
        for _ in range(k[t]):
            state = apply_diagonal_e(a[:t + 1], state)
            if not state:
                return {}
    return state


def expansion_check(a, k, b_power: int, coeff) -> bool:
    """Oracle identity: f^{b} v_k == sum_l coeff(l) v_l in the product basis.

    ``coeff`` maps drop-tuples l (componentwise 0 <= l_i <= k_i) to integers.
    """
    lhs = nested_state(a, k)
    for _ in range(b_power):
        lhs = apply_diagonal_f(a, lhs)
    rhs: dict[tuple, Fraction] = {}
    for l, c in coeff.items():
        if not c:
            continue
        for m, x in nested_state(a, l).items():
            y = rhs.get(m, 0) + c * x
            if y:
                rhs[m] = y
            else:
                rhs.pop(m, None)
    return lhs == rhs


# ---------------------------------------------------------------------------
# the alternating vanishing sum and quasi-equality factors


def _falling(x: int, r: int) -> int:
    """x (x-1) ... (x-r+1); zero when x < 0 (negative-factorial convention)."""
    if x < 0:
        return 0
    out = 1
    for i in range(r):
        out *= x - i
    return out


def vanishing_identity(q: int, p1: int, p2: int, u: int) -> int:
    """sum_v C(q,v) (-1)^(q-v) (p2-v)!(p1+v)! / ((p2-v-u)!(p1-q+v+u+1)!).

    Contract: equals 0 for 0 <= u <= q-1 and p2 >= q (the summand is a
    polynomial in v of degree < q hit by a q-th finite difference).  Terms
    whose factorial arguments go negative are dropped.
    """
    if not 0 <= u <= q - 1:
        raise DomainError(f"need 0 <= u <= q-1, got u={u}, q={q}")
    if p2 - q < 0:
        raise DomainError(f"need p2 >= q, got p2={p2}, q={q}")
    total = 0
    for v in range(q + 1):
        sign = -1 if (q - v) % 2 else 1
        total += sign * comb(q, v) * _falling(p2 - v, u) * _falling(p1 + v, q - u - 1)
    return total


def quasi_equal_factors(p2: int, p1: int, a: int) -> list[int]:
    """Relative scalars h_v = (p2-v)! (p1+v)! C(q,v) along the shift line.

    q = p2 + p1 - a is the number of admissible unit shifts; raises
    NotApplicable when q < 0.
    """
    q = p2 + p1 - a
    if q < 0:
        raise NotApplicable(f"no shifts: p2 + p1 - a = {q} < 0")
    if a < p1:
        raise DomainError(f"need a >= p1, got a={a}, p1={p1}")
    return [factorial(p2 - v) * factorial(p1 + v) * comb(q, v)
            for v in range(q + 1)]

"""Closed-form sl(2) tensor calculus.

Setting: n lowest-weight sl(2)-strings of lengths a_1..a_n, tensored so that
position 1 is the innermost factor, with the *nested* labelled vectors

    v_k = e^{k_n}( u_n (x) e^{k_{n-1}}( u_{n-1} (x) ... (x) e^{k_1} u_1 ) )

where each e acts diagonally on the partial tensor product and u_i is the
lowest vector of the i-th string.  ``coefficient_A`` is the closed form for
the coefficient of v_l in f^b v_k (b = total drop), and
``coefficient_A_oracle`` the first-order recurrence that the ``sl2`` suite
checks it against.  The tests also check it against a direct expansion in
the plain product basis (``tests/oracles.py``).

``Sl2Config`` is the one place where labels are validated.  Every function
below reads its tuples once and computes on plain tuples of ints; the
recurrence only ever lowers some k_t > 0 by 1, so its sub-configurations
are valid by construction and build no ``Sl2Config``.

All arithmetic is arbitrary-precision integer; zero tests are exact.
"""

from __future__ import annotations

from math import comb, factorial, prod

from ._frozen import Frozen
from .errors import DomainError


class Sl2Config(Frozen):
    """Labels (a, k, l): three non-empty tuples of one length n whose
    entries are non-negative exact ``int`` values (a bool is not one).

    ``b_i = k_i - l_i`` are the per-position drops.
    """

    __slots__ = _fields = ("a", "k", "l")

    def __init__(self, a: tuple[int, ...], k: tuple[int, ...],
                 l: tuple[int, ...]):
        # tuple(x) is x for a plain tuple x, so such a field is kept as it is
        if not type(a) is type(k) is type(l) is tuple:
            a, k, l = tuple(a), tuple(k), tuple(l)
        if not (len(a) == len(k) == len(l)) or not a:
            raise DomainError("a, k, l must be non-empty tuples of equal length")
        for x in a + k + l:
            if type(x) is not int:
                raise DomainError(f"labels must be ints, got {x!r}")
            if x < 0:
                raise DomainError("labels must be non-negative")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "l", l)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.a, self.k, self.l) == (other.a, other.k, other.l)

    def __hash__(self):
        return hash((self.a, self.k, self.l))

    @property
    def n(self) -> int:
        return len(self.a)


def coefficient_A_factors(cfg: Sl2Config):
    """The closed form split into (b_total!, binomials, linear factors).

    The linear factors are (a^(j) + 1 - i - k^(j-1) - l^(j)) for j = 1..n and
    i = 1..b_j, where x^(j) = x_1 + ... + x_j; in the rigid regime,
    a^(j) - k^(j) - l^(j-1) >= 0 for all j, every one of them is positive.
    All three are empty or zero when some b_j < 0.
    """
    binomials, linear = [], []
    a_pref = k_pref = l_pref = 0
    for aj, kj, lj in zip(cfg.a, cfg.k, cfg.l):
        if kj < lj:
            return 0, [], []
        a_pref += aj
        l_pref += lj
        binomials.append(comb(kj, lj))
        top = a_pref - k_pref - l_pref          # the factor for i = 1
        linear.extend(range(top, top - (kj - lj), -1))
        k_pref += kj
    return factorial(k_pref - l_pref), binomials, linear


def coefficient_A(cfg: Sl2Config) -> int:
    """Coefficient of v_l in f^b v_k (closed form); 0 when some b_i < 0."""
    head, binomials, linear = coefficient_A_factors(cfg)
    return head * prod(binomials) * prod(linear)


def coefficient_A_oracle(cfg: Sl2Config,
                         memo: dict[tuple, int] | None = None) -> int:
    """Same coefficient by the first-order recurrence

    A_b(k, l) = -sum_t k_t (k_t + 2 k^(t-1) - a^(t) - 1) A_{b-1}(k - d_t, l)

    with base case A_0(k, l) = [k == l].

    ``memo`` maps (a, k, l) to computed values; a caller checking many
    configurations passes one dict to share them.  None keeps a fresh dict
    for this call only.
    """
    return _recurrence(cfg.a, cfg.k, cfg.l, {} if memo is None else memo)


def _recurrence(a: tuple[int, ...], k: tuple[int, ...], l: tuple[int, ...],
                memo: dict[tuple, int]) -> int:
    key = (a, k, l)
    if key in memo:
        return memo[key]
    if sum(k) <= sum(l):
        return 1 if k == l else 0
    total = 0
    a_pref = 0
    k_pref = 0
    for t, kt in enumerate(k):
        a_pref += a[t]
        if kt > 0:
            sub = k[:t] + (kt - 1,) + k[t + 1:]
            total -= (kt * (kt + 2 * k_pref - a_pref - 1)
                      * _recurrence(a, sub, l, memo))
        k_pref += kt
    memo[key] = total
    return total


# ---------------------------------------------------------------------------
# the alternating vanishing sum


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
    whose factorial arguments go negative are dropped.  Every argument must
    be an exact ``int`` (a bool is not one).
    """
    for name, x in (("q", q), ("p1", p1), ("p2", p2), ("u", u)):
        if type(x) is not int:
            raise DomainError(f"{name} must be an int, got {x!r}")
    if not 0 <= u <= q - 1:
        raise DomainError(f"need 0 <= u <= q-1, got u={u}, q={q}")
    if p2 - q < 0:
        raise DomainError(f"need p2 >= q, got p2={p2}, q={q}")
    total = 0
    for v in range(q + 1):
        sign = -1 if (q - v) % 2 else 1
        total += sign * comb(q, v) * _falling(p2 - v, u) * _falling(p1 + v, q - u - 1)
    return total

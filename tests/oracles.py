"""Reference algorithms that the tests compare the package against.

Each function here is a plain, independent form of something the package
computes another way; none of them runs in the package itself.
"""

from __future__ import annotations

from trailkit.bj_crystal import BJElement
from trailkit.cartan_core import reflect
from trailkit.errors import ConsistencyError
from trailkit.linalg import in_convex_hull
from trailkit.trails import (LinearFunctionBJ, _as_word, face_function,
                             kashiwara_function)


def evaluate(f: LinearFunctionBJ, values) -> int:
    """f at exponents given as a mapping or a sequence (index j-1)."""
    if hasattr(values, "get"):
        return sum(c * values.get(j, 0) for j, c in f.terms)
    return sum(c * values[j - 1] for j, c in f.terms)


def weyl_act(cartan, word, w):
    """Apply s_{i_m} ... s_{i_1} to w, i.e. the first letter acts first."""
    for i in word:
        w = reflect(cartan, i, w)
    return w


# --- extremality ----------------------------------------------------------
# The reference for linalg.extremal_points, which tries witnesses and
# midpoints before any LP: one certified hull LP per point against all the
# others.


def lp_extremal_points(points) -> list[int]:
    """Indices of the points not in the convex hull of the others."""
    pts = [tuple(p) for p in points]
    return [i for i, p in enumerate(pts)
            if not in_convex_hull(p, pts[:i] + pts[i + 1:])]


def lp_extremal_functions(funcs) -> frozenset:
    """Extremal elements of a set of functions, by
    :func:`lp_extremal_points` over the union of their supports."""
    fs = sorted(funcs, key=lambda f: f.terms)
    axes = sorted({q for f in fs for q, _ in f.terms})
    rows = [f.as_dict() for f in fs]
    return frozenset(fs[i] for i in lp_extremal_points(
        [tuple(d.get(q, 0) for q in axes) for d in rows]))


# --- the face cone X_t ------------------------------------------------------
# References for the integer face-cone coordinates of giant._IntegerForm and
# the linear extension built on them.


def driving_function(cartan, word, s: int) -> LinearFunctionBJ:
    """z_s^1 = r_s^0 - r_s^1 = m_s^1 + sum over positions j before (s,1) of
    alpha_{i_j}^vee(alpha_s) m_j."""
    word = _as_word(cartan, word)
    return (kashiwara_function(cartan, word, s, 0)
            - kashiwara_function(cartan, word, s, 1))


def face_cone_coordinates(word, f: LinearFunctionBJ):
    """Coordinates of f over the closed-face functions, or None.

    The face functions have unit leading coefficient at distinct top
    positions, so back-substitution from the highest position down either
    expresses f exactly or proves it is outside their integer span.
    """
    basis = {word.position(s, k): face_function(word.cartan, word, s, k)[1]
             for s in word.cartan.labels
             for k in range(2, word.count(s) + 1)}
    residual = f.as_dict()
    coords = {}
    for u in range(word.m, 0, -1):
        c = residual.get(u, 0)
        if c == 0:
            continue
        if u not in basis:
            return None
        coords[u] = c
        for j, v in basis[u].terms:
            residual[j] = residual.get(j, 0) - c * v
    return coords


def xt_leq(word, f: LinearFunctionBJ, g: LinearFunctionBJ) -> bool:
    """The cone order: g - f is a non-negative integer combination of the
    closed-face functions."""
    coords = face_cone_coordinates(word, g - f)
    return coords is not None and all(c >= 0 for c in coords.values())


def in_xt_cone(word, t: int, f: LinearFunctionBJ) -> bool:
    """Membership in X_t = z_t^1 + (non-negative span of closed faces)."""
    return xt_leq(word, driving_function(word.cartan, word, t), f)


# --- the crystal, one operator at a time --------------------------------------
# References for bj_crystal.generate_binf, which lowers by integer columns.


def make_element(values=None) -> BJElement:
    """The element with exponents ``values`` ({position: m}); a position
    below 1 or a negative m raises ConsistencyError, and zeros are
    dropped."""
    items = []
    for j, m in sorted(dict(values or {}).items()):
        if j < 1 or m < 0:
            raise ConsistencyError(f"bad exponent entry ({j}, {m})")
        if m:
            items.append((int(j), int(m)))
    return BJElement(tuple(items))


def _sigmas(cartan, word, i: int, b: BJElement, convention: str) -> list[int]:
    """Values r_i^k(b) for k = 1..count(i), in the chosen convention."""
    values = dict(b.coords)
    n = word.count(i)
    if convention == "dual":
        return [evaluate(kashiwara_function(cartan, word, i, k), values)
                for k in range(1, n + 1)]
    out = []
    for k in range(1, n + 1):
        u = word.position(i, k)
        total = values.get(u, 0)
        for j in range(u + 1, word.m + 1):
            total += cartan.pairing(i, word.letters[j - 1]) * values.get(j, 0)
        out.append(total)
    return out


def _bump(b: BJElement, j: int, delta: int) -> BJElement:
    d = dict(b.coords)
    d[j] = d.get(j, 0) + delta
    assert d[j] >= 0, (b, j, delta)
    return make_element(d)


def crystal_epsilon(cartan, word, i: int, b: BJElement,
                    convention: str = "dual") -> int:
    """Largest Kashiwara-function value; string length left for raising."""
    return max(_sigmas(cartan, _as_word(cartan, word), i, b, convention))


def crystal_f(cartan, word, i: int, b: BJElement,
              convention: str = "dual") -> BJElement:
    """Add one to the exponent at the least maximizing i-occurrence."""
    word = _as_word(cartan, word)
    sig = _sigmas(cartan, word, i, b, convention)
    k = sig.index(max(sig)) + 1
    return _bump(b, word.position(i, k), +1)


def crystal_e(cartan, word, i: int, b: BJElement,
              convention: str = "dual") -> BJElement | None:
    """Remove one at the greatest maximizing i-occurrence, or None at the
    bottom of the i-string (maximum not positive)."""
    word = _as_word(cartan, word)
    sig = _sigmas(cartan, word, i, b, convention)
    top = max(sig)
    if top <= 0:
        return None
    k = len(sig) - sig[::-1].index(top)
    return _bump(b, word.position(i, k), -1)


# --- sl(2) strings in the plain product basis ---------------------------------
# References for sl2_engine.coefficient_A.  States are dicts
# {(m_1..m_n): int} over the basis (x)_i e^{m_i} u_i with m_i <= a_i
# (out-of-range components vanish).


def rigid_regime(cfg) -> bool:
    """a^(j) - k^(j) - l^(j-1) >= 0 for all j: every linear factor of the
    closed form positive."""
    a = k = l_prev = 0
    for ai, ki, li in zip(cfg.a, cfg.k, cfg.l):
        a, k = a + ai, k + ki
        if a - k - l_prev < 0:
            return False
        l_prev += li
    return True


def apply_diagonal_e(a, state):
    out: dict[tuple, int] = {}
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
    out: dict[tuple, int] = {}
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
    state: dict[tuple, int] = {(): 1}
    for t in range(len(a)):
        # u_{t+1} takes slot t, appended at the end of the index tuple
        state = {m + (0,): c for m, c in state.items()}
        for _ in range(k[t]):
            state = apply_diagonal_e(a[:t + 1], state)
            if not state:
                return {}
    return state


def expansion_check(a, k, b_power: int, coeff) -> bool:
    """f^{b} v_k == sum_l coeff(l) v_l in the product basis.

    ``coeff`` maps drop-tuples l (componentwise 0 <= l_i <= k_i) to integers.
    """
    lhs = nested_state(a, k)
    for _ in range(b_power):
        lhs = apply_diagonal_f(a, lhs)
    rhs: dict[tuple, int] = {}
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

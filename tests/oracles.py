"""Reference algorithms that the tests compare the package against.

Each function here is a plain, independent form of something the package
computes another way; none of them runs in the package itself.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, permutations
from math import comb, factorial, gcd, lcm

from trailkit.cartan_core import (_FAMILIES, _standard_gcm, reflect,
                                  require_finite, wadd, wneg, wsub)
from trailkit.errors import (ConsistencyError, OpenFaceRequest,
                             RadicalRankMismatch)
from trailkit.linalg import in_convex_hull, integer_rref
from trailkit.rep_builder import (IntegerForm, apply_projective,
                                  freudenthal_multiplicities)
from trailkit.sgraph import CoeffVector
from trailkit.trails import (LinearFunctionBJ, Trail, _as_word,
                             _driving_data, _letter_roots,
                             _trivialization_step, driving_trail,
                             face_function, kashiwara_function)


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


# --- Cartan classification -------------------------------------------------
# The reference for cartan_core._classify_component, which matches the
# standard matrix row by row with backtracking.


def permutation_component_tag(a) -> str | None:
    """The family tag of a connected Cartan matrix, by trying every
    simultaneous relabelling of each standard matrix of its rank."""
    n = len(a)
    mine = sorted(sorted(row) for row in a)
    for family, lo, hi in _FAMILIES:
        if not lo <= n <= hi:
            continue
        std = _standard_gcm(family, n)
        if sorted(sorted(row) for row in std) != mine:
            continue
        for perm in permutations(range(n)):
            if all(std[perm[i]][perm[j]] == a[i][j]
                   for i in range(n) for j in range(n)):
                return f"{family}{n}"
    return None


# --- Weyl group by root columns, symmetrizer and definiteness by Fractions --
# The references for cartan_core.is_reduced and reduced_words_of_w0, which
# carry the single weight w^{-1}(rho), for the integer symmetrizer and the
# Bareiss minor test of cartan_core.validate_gcm, and for the reflection
# closure of cartan_core._root_system.


def _unit_columns(n: int) -> list[list[int]]:
    """The root coordinates of w^{-1}(alpha_i) for w = 1, by column."""
    return [[int(r == k) for r in range(n)] for k in range(n)]


def _append_letter(cartan, cols, i: int) -> None:
    """Turn the columns of w^{-1} into those of (w s_i)^{-1}, in place."""
    ci = i - 1
    pivot = cols[ci]
    for k, f in enumerate(cartan.gcm[ci]):
        if f and k != ci:
            cols[k] = [x - f * y for x, y in zip(cols[k], pivot)]
    cols[ci] = [-x for x in pivot]


def column_is_reduced(cartan, letters) -> bool:
    """Whether the letters form a reduced expression, by the columns of
    w^{-1} on the root lattice: appending letter i is length-additive
    exactly when w^{-1}(alpha_i) is still a positive root."""
    for i in letters:
        cartan.check_label(i)
    cols = _unit_columns(cartan.n)
    for i in letters:
        if any(x < 0 for x in cols[i - 1]):
            return False
        _append_letter(cartan, cols, i)
    return True


def column_words_of_w0(cartan) -> list[tuple[int, ...]]:
    """Every reduced word of w0 in lexicographic order, by a depth-first
    search that carries the columns of w^{-1}."""
    require_finite(cartan)
    out = []
    stack = [((), _unit_columns(cartan.n))]
    while stack:
        word, cols = stack.pop()
        grown = [i for i in cartan.labels if all(x >= 0 for x in cols[i - 1])]
        if not grown:
            out.append(word)
        for i in reversed(grown):
            grown_cols = list(cols)
            _append_letter(cartan, grown_cols, i)
            stack.append((word + (i,), grown_cols))
    return out


def fraction_symmetrizer(a) -> tuple[int, ...] | None:
    """Minimal positive integer d with d_i a_ij = d_j a_ji, or None, by
    Fractions spread along each component."""
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
                    return None
    denom_lcm = lcm(*(x.denominator for x in d))
    ints = [int(x * denom_lcm) for x in d]
    g = 0
    for v in ints:
        g = gcd(g, v)
    return tuple(v // g for v in ints)


def fraction_positive_definite(sym) -> bool:
    """Whether a symmetric integer matrix is positive definite, by Fraction
    elimination without row swaps: pivot k is the ratio of the leading
    minors of orders k + 1 and k."""
    n = len(sym)
    m = [[Fraction(x) for x in row] for row in sym]
    for k in range(n):
        if m[k][k] <= 0:
            return False
        for i in range(k + 1, n):
            f = m[i][k] / m[k][k]
            m[i] = [x - f * y for x, y in zip(m[i], m[k])]
    return True


def closure_root_system(cartan):
    """The sorted positive (root, coroot) pairs, by reflecting every pair
    in every simple reflection until nothing new appears."""
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
    if 2 * len(positives) != len(seen):
        raise ConsistencyError(
            "the roots do not split into positive and negative halves")
    return tuple(positives)


# --- row reduction over Fractions -------------------------------------------
# The reference for linalg.integer_rref, which reduces fraction-free over
# the integers.


def rref(rows) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (matrix, pivot column indices)."""
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return m, []
    nrows, ncols = len(m), len(m[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pivot_row = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        pv = m[r][c]
        if pv != 1:
            m[r] = [x / pv if x else x for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b if b else a for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


def invert(a) -> list[list[Fraction]]:
    """The inverse of a square matrix, by :func:`rref` on [A | I]."""
    n = len(a)
    red, pivots = rref([list(row) + [int(i == j) for j in range(n)]
                        for i, row in enumerate(a)])
    if pivots != list(range(n)):
        raise ConsistencyError("matrix is singular")
    return [row[n:] for row in red]


# --- the weights of a module by saturation ---------------------------------
# The reference for the weights that rep_builder.freudenthal_multiplicities
# reaches by walking the dominant weights and their orbits.


def saturated_weight_set(cartan, highest) -> dict[tuple, tuple[int, ...]]:
    """The full weight set of the irreducible module with this highest
    weight, each weight mapped to the root coordinates of highest - weight.

    Computed as the saturation closure of {highest}: from any weight walk the
    whole interval towards its image under each simple reflection.  Each
    step of a walk adds or removes one simple root, so the walk counts the
    coordinates; a weight reached again with other coordinates raises
    RadicalRankMismatch.
    """
    require_finite(cartan)
    roots = [cartan.simple_root(i) for i in cartan.labels]
    seen = {highest: (0,) * cartan.n}
    queue = [highest]
    while queue:
        mu = queue.pop()
        x = seen[mu]
        for i, alpha in enumerate(roots):
            p = mu[i]
            step, dx = (wneg(alpha), 1) if p > 0 else (alpha, -1)
            for _ in range(abs(p)):
                mu2 = wadd(mu, step)
                x = x[:i] + (x[i] + dx,) + x[i + 1:]
                if mu2 not in seen:
                    seen[mu2] = x
                    queue.append(mu2)
                elif seen[mu2] != x:
                    raise RadicalRankMismatch(
                        f"weight {mu2} reached with root coordinates "
                        f"{seen[mu2]} and {x}")
                mu = mu2
    return seen


# --- root coordinates by the inverse Cartan matrix -------------------------
# The reference for the root coordinates that the package counts along the
# walks that make its weights: the weight walks of
# rep_builder.freudenthal_multiplicities, which saturated_weight_set counts
# another way, and the driving data of trails.


@lru_cache(maxsize=None)
def _scaled_inverse(cartan) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(D, D A^{-1}) with D the least common denominator of A^{-1}, so the
    scaled inverse has integer entries.

    The fraction-free reduction of [A | I] ends at [d I | R] with R = d A^{-1};
    with g the gcd of d and the entries of R, D = d / g and D A^{-1} = R / g.
    """
    n = cartan.n
    rows = [list(row) + [int(i == j) for j in range(n)]
            for i, row in enumerate(cartan.gcm)]
    done, pivots, d = integer_rref(rows)
    if pivots != list(range(n)):
        raise ConsistencyError("the Cartan matrix is singular")
    right = [row[n:] for row in done]
    g = gcd(d, *(x for row in right for x in row))
    return d // g, tuple(tuple(x // g for x in row) for row in right)


def root_coordinates(cartan, w) -> tuple[int, ...] | None:
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


# --- the module build over Fractions ---------------------------------------
# The reference for rep_builder._build_matrices, which works on integer
# columns over one denominator each: the same level-by-level build with
# Fraction columns and a Fraction row reduction per weight.


def _fraction_e_images(e_cols, f_cols, weights, j: int, b: int):
    """e_i(f_j b) = f_j(e_i b) + delta_ij <h_i, wt b> b for every i."""
    out = {}
    for i, cols in e_cols.items():
        acc: dict[int, Fraction] = {}
        for r, x in cols[b]:
            for q, y in f_cols[j][r]:
                acc[q] = acc.get(q, 0) + x * y
        if i == j:
            acc[b] = acc.get(b, 0) + weights[b][i - 1]
        out[i] = {q: x for q, x in acc.items() if x}
    return out


def fraction_columns(cartan, t: int):
    """(weights, e_cols, f_cols) of V(omega_t): basis index 0 is the top
    vector, each column a tuple of (row, Fraction) pairs."""
    lam = cartan.fundamental_weight(t)
    fmult = freudenthal_multiplicities(cartan, lam)
    weights = [lam]
    e_cols = {i: [()] for i in cartan.labels}
    f_cols = {i: [] for i in cartan.labels}
    level = [0]
    while level:
        groups = {}
        for b in level:
            for j in cartan.labels:
                nu = wsub(weights[b], cartan.simple_root(j))
                groups.setdefault(nu, []).append((j, b))
        f_level = {}
        next_level = []
        for nu in sorted(groups):
            cands = groups[nu]
            images = [_fraction_e_images(e_cols, f_cols, weights, j, b)
                      for j, b in cands]
            keys = sorted({(i, q) for im in images for i, col in im.items()
                           for q in col})
            red, pivots = rref([[im[i].get(q, 0) for im in images]
                                for i, q in keys])
            if len(pivots) != fmult.get(nu, 0):
                raise RadicalRankMismatch(f"weight {nu}: rank {len(pivots)}")
            new = range(len(weights), len(weights) + len(pivots))
            for p in pivots:
                weights.append(nu)
                for i in cartan.labels:
                    e_cols[i].append(tuple(sorted(images[p][i].items())))
            for c, key in enumerate(cands):
                f_level[key] = tuple((new[r], red[r][c])
                                     for r in range(len(pivots)) if red[r][c])
            next_level.extend(new)
        for b in level:
            for j in cartan.labels:
                f_cols[j].append(f_level[j, b])
        level = next_level
    return weights, e_cols, f_cols


def fraction_integer_form(cols) -> IntegerForm:
    """The operator with these Fraction columns times the lcm of their
    denominators."""
    scale = lcm(1, *(x.denominator for col in cols for _, x in col))
    return IntegerForm(scale, tuple(
        tuple((r, x.numerator * (scale // x.denominator)) for r, x in col)
        for col in cols))


def fraction_build_matrices(cartan, t: int):
    """What rep_builder._build_matrices returns, from the Fraction build."""
    weights, e_cols, f_cols = fraction_columns(cartan, t)
    return (weights,
            {i: fraction_integer_form(cols) for i, cols in e_cols.items()},
            {i: fraction_integer_form(cols) for i, cols in f_cols.items()})


# --- trails one exponent tuple at a time, and the face moves -----------------
# The realizability reference for trails.enumerate_trails, which cuts its
# search where the partial monomial vector vanishes, and the moves along the
# closed faces F_s^k within a class.


def _chain(M, word, exps) -> list[dict[int, int]] | None:
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


def tree_enumerate_trails(M, word) -> frozenset[Trail]:
    """All trails for (word, M.t), by depth-first search on exponents: the
    plain tree search that expands every prefix on its own.  The reference
    for trails.enumerate_trails, which expands each state once.

    Branches are cut when the partial monomial vector vanishes, when a
    weight drops below the driving trail, or when the deficit to the final
    extremal weight -w_m(omega_t) can no longer be filled by the remaining
    letters.  The partial monomial vectors are integer vectors over the
    integer forms of the e_i, exact up to a positive factor.  Each node
    carries its weights, and each leaf becomes a trail with them.
    Finite-dimensionality bounds every branch.

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
    found: list[Trail] = []
    exps: list[int] = []    # the exponents of the current node
    gamma = [drive[0]]      # and its weights gamma_1..gamma_j
    x = [0] * M.cartan.n    # and its root coordinates

    def search(j: int, v: dict[int, int]):
        if j > m:
            # the checks above are the walk's: (P) at every node, and the
            # end weight at the last, where no letter is left to raise by
            g = tuple(gamma)
            found.append(Trail._walked(word, t, tuple(exps), g,
                                       _trivialization_step(prefix, g)))
            return
        i = letters[j - 1]
        c = i - 1
        lo, hi, exact = bounds[j]
        alpha = alphas[j - 1]
        cols = M.e_int[i].cols
        g = gamma[-1]
        start = a = x[c]
        n = 0
        while True:
            if lo <= a <= hi and (a == hi or not exact):
                x[c] = a
                exps.append(n)
                gamma.append(g)
                search(j + 1, v)
                gamma.pop()
                exps.pop()
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

    search(1, M.start_vector)

    trails = frozenset(found)
    first = word.position(t, 1)
    earliest = [K for K in trails if K.phi <= first]
    if earliest != [drv]:
        raise ConsistencyError(
            "the unique earliest-trivializing trail should be the driving trail")
    return trails


def make_trail(M, word, exps) -> Trail | None:
    """The trail of type ``M.t`` with the given exponents, or None if the
    axioms or realizability fail."""
    word = _as_word(M.cartan, word)
    exps = tuple(exps)
    if len(exps) != word.m:
        return None
    try:
        K = Trail(word, M.t, exps)
    except ConsistencyError:
        return None
    if _chain(M, word, exps) is None:
        return None
    return K


def driving_data(word, t: int):
    """(gamma, low, exps, phi) of the driving trail of type t, each part on
    its own: the weights from -s_t(omega_t) and the prefix weights, their
    root coordinates relative to gamma_1 solved by the inverse Cartan
    matrix, each exponent as half the change at its letter's coordinate,
    and phi as the least step from which every weight is a prefix weight.
    The reference for trails._driving_data, which counts them in one
    pass."""
    cartan = word.cartan
    prefix = word.prefix_weights(t)
    p1 = word.position(t, 1)
    start = wsub(cartan.simple_root(t), cartan.fundamental_weight(t))
    gamma = (start,) * (p1 + 1) + prefix[p1 + 1:]
    low = tuple(root_coordinates(cartan, wsub(g, start)) for g in gamma)
    exps = tuple((b[i - 1] - a[i - 1]) // 2
                 for i, a, b in zip(word.letters, gamma, gamma[1:]))
    phi = min(j for j in range(1, word.m + 1) if gamma[j:] == prefix[j:])
    return gamma, low, exps, phi


def try_adjoin_face(K: Trail, s: int, k: int, M) -> Trail | None:
    """K + F_s^k (k > 1) if it is again a trail, else None."""
    return _shift_face(K, s, k, M, +1)


def try_remove_face(K: Trail, s: int, k: int, M) -> Trail | None:
    """K - F_s^k (k > 1) if it is again a trail, else None."""
    return _shift_face(K, s, k, M, -1)


def _shift_face(K: Trail, s: int, k: int, M, sign: int) -> Trail | None:
    if k <= 1:
        raise OpenFaceRequest("only closed faces (k > 1) can be adjoined")
    if K.t != M.t:
        raise ConsistencyError(
            f"a trail of type t={K.t} moved in the module of t={M.t}")
    u = K.word.position(s, k)
    v = K.word.position(s, k - 1)
    exps = list(K.exps)
    exps[v - 1] += sign
    exps[u - 1] -= sign
    if exps[v - 1] < 0 or exps[u - 1] < 0:
        return None
    return make_trail(M, K.word, exps)


def minimal_in_class(M, cls, K: Trail) -> bool:
    """Whether f_s kills the vector entering every position (s,i)."""
    chain = _chain(M, K.word, K.exps)
    cols = M.f_int[cls.s].cols
    return not any(apply_projective(cols, chain[p - 1]) for p in cls.positions)


def maximal_in_class(M, cls, K: Trail) -> bool:
    """Whether e_s kills the vector leaving every position (s,i)."""
    chain = _chain(M, K.word, K.exps)
    cols = M.e_int[cls.s].cols
    return not any(apply_projective(cols, chain[p]) for p in cls.positions)


def minimax_decompose(cls, M) -> tuple[Trail, tuple[int, ...]]:
    """Locate the maximal member, then strip d_l copies of the face F_s^l
    for l = 2..n in increasing order, landing on the minimal member.

    Returns (K_min, d).  Raises ConsistencyError when no member is maximal
    or a step of the descent fails its check (the midpoint sign pattern,
    the defining vanishing of K_min, d_{k+1} matching K_min's coefficients,
    and the exact round trip back to K_max).
    """
    s, positions, n = cls.s, cls.positions, cls.n
    maximal = [K for K in cls.members if maximal_in_class(M, cls, K)]
    if len(maximal) != 1:
        raise ConsistencyError(f"{len(maximal)} maximal members among "
                               f"{len(cls.members)} trails, not one")
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
        raise ConsistencyError(
            "face adjunction did not return to the maximal trail")
    return k_min, d


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


# --- the other lift ---------------------------------------------------------
# CoeffVector.make breaks ties in c by the smaller index first; the vertex
# functions of the S-graph must not depend on that choice.


def reversed_tie_break(c) -> CoeffVector:
    """The coefficient vector of c whose lift breaks ties in c by the
    larger index first."""
    c = tuple(c)
    lift = tuple(sorted(range(1, len(c) + 1), key=lambda i: (c[i - 1], -i)))
    theta = tuple(sorted(lift[:j]).index(lift[j - 1]) + 1
                  for j in range(1, len(c) + 1))
    return CoeffVector(c, lift, theta)


# --- the face cone X_t ------------------------------------------------------
# References for the integer face-cone coordinates of giant._IntegerForm and
# the linear extension built on them.


def driving_function(cartan, word, s: int) -> LinearFunctionBJ:
    """z_s^1 = r_s^0 - r_s^1 = m_s^1 + sum over positions j before (s,1) of
    alpha_{i_j}^vee(alpha_s) m_j."""
    word = _as_word(cartan, word)
    return (kashiwara_function(word, s, 0)
            - kashiwara_function(word, s, 1))


def face_cone_coordinates(word, f: LinearFunctionBJ):
    """Coordinates of f over the closed-face functions, or None.

    The face functions have unit leading coefficient at distinct top
    positions, so back-substitution from the highest position down either
    expresses f exactly or proves it is outside their integer span.
    """
    basis = {word.position(s, k): face_function(word, s, k)[1]
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
# An element is its sorted (position, m) pairs with every kept m positive.

Element = tuple[tuple[int, int], ...]


def make_element(values=None) -> Element:
    """The element with exponents ``values`` ({position: m}); a position
    below 1 or a negative m raises ConsistencyError, and zeros are
    dropped."""
    items = []
    for j, m in sorted(dict(values or {}).items()):
        if j < 1 or m < 0:
            raise ConsistencyError(f"bad exponent entry ({j}, {m})")
        if m:
            items.append((int(j), int(m)))
    return tuple(items)


def total(b: Element) -> int:
    """The sum of the exponents of b: its depth in the crystal."""
    return sum(m for _, m in b)


def _sigmas(word, i: int, b: Element) -> list[int]:
    """Values r_i^k(b) for k = 1..count(i)."""
    values = dict(b)
    return [evaluate(kashiwara_function(word, i, k), values)
            for k in range(1, word.count(i) + 1)]


def _bump(b: Element, j: int, delta: int) -> Element:
    d = dict(b)
    d[j] = d.get(j, 0) + delta
    assert d[j] >= 0, (b, j, delta)
    return make_element(d)


def crystal_epsilon(cartan, word, i: int, b: Element) -> int:
    """Largest Kashiwara-function value; string length left for raising."""
    return max(_sigmas(_as_word(cartan, word), i, b))


def crystal_f(cartan, word, i: int, b: Element) -> Element:
    """Add one to the exponent at the least maximizing i-occurrence."""
    word = _as_word(cartan, word)
    sig = _sigmas(word, i, b)
    k = sig.index(max(sig)) + 1
    return _bump(b, word.position(i, k), +1)


def crystal_e(cartan, word, i: int, b: Element) -> Element | None:
    """Remove one at the greatest maximizing i-occurrence, or None at the
    bottom of the i-string (maximum not positive)."""
    word = _as_word(cartan, word)
    sig = _sigmas(word, i, b)
    top = max(sig)
    if top <= 0:
        return None
    k = len(sig) - sig[::-1].index(top)
    return _bump(b, word.position(i, k), -1)


# --- the sl(2) closed form from prefix sums ------------------------------------
# The reference for the one-pass sl2_engine.coefficient_A_factors.


def prefix_coefficient_A_factors(cfg):
    """sl2_engine.coefficient_A_factors from the prefix sums x^(0..n) of a,
    k and l and the drops b_j = k_j - l_j, computed up front."""
    a, k, l = cfg.a, cfg.k, cfg.l
    b = [x - y for x, y in zip(k, l)]
    if min(b) < 0:
        return 0, [], []
    a_pref, k_pref, l_pref = (list(accumulate(x, initial=0)) for x in (a, k, l))
    linear = []
    for j, bj in enumerate(b, 1):
        base = a_pref[j] + 1 - k_pref[j - 1] - l_pref[j]
        linear.extend(base - i for i in range(1, bj + 1))
    return factorial(sum(b)), [comb(x, y) for x, y in zip(k, l)], linear


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

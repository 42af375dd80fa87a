"""Exact construction of fundamental modules in finite type.

The highest-weight module V(omega_t) is built one level below the top
vector at a time (W. de Graaf, J. Pure Appl. Algebra 164 (2001)).  The
candidates at a weight are the vectors f_j b, b in the level above, each
represented by its e-images e_i(f_j b) = f_j(e_i b) + delta_ij <h_i, wt b> b
from matrices already built.  Only the top vector of an irreducible module
is killed by every e_i, so candidates are independent exactly when their
e-images are: one row reduction per weight picks the basis and gives the
f-columns of the other candidates; the e-columns are the e-images.  The
Chevalley involution then swaps the raising/lowering matrices to produce
the lowest-weight module V(-omega_t).

Two independent character oracles (Freudenthal recursion and the Weyl
dimension formula) cross-check the build; disagreement raises
RadicalRankMismatch.  Candidates are grouped only at the weights of
Freudenthal's character, where the rank of their e-images must equal the
multiplicity; a candidate at any other weight gets an empty f-column and
no e-images.  A weight the character wrongly lacks therefore has no rank
check of its own: it surfaces at a rank check further down, at the Weyl
dimension, or at the [e_i, f_i] check, since an f_j b of the true module
recorded as 0 breaks [e_j, f_j] b = <alpha_j^vee, wt b> b.  A module is
built, checked and memoized once per process; nothing is read from or
written to disk.

The build has no rational numbers: it keeps each column as sparse
integers over one positive denominator in lowest terms, and reduces each
weight's e-images fraction-free.  Each operator is kept once, as an
integer form: the lcm D of its column denominators and its columns scaled
by D.  Module vectors are integer vectors over these forms, known only up
to a positive factor, which never changes whether a vector vanishes; the
trail calculus asks nothing else of them.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from math import gcd, lcm
from operator import mul
from typing import NamedTuple

from .cartan_core import (
    CartanData,
    Weight,
    positive_roots,
    require_finite,
    wadd,
    wneg,
    wscale,
    wsub,
)
from .errors import NotExtremalWeightError, NotReducedError, RadicalRankMismatch
from .linalg import integer_rref


# ---------------------------------------------------------------------------
# character oracles


def _require_independent_roots(cartan: CartanData) -> None:
    """Raise RadicalRankMismatch unless the simple roots are linearly
    independent, that is unless the Cartan matrix has full rank.  Weights
    then have unique root coordinates, and the walks below end."""
    _, pivots, _ = integer_rref([list(row) for row in cartan.gcm])
    if len(pivots) != cartan.n:
        raise RadicalRankMismatch(
            f"the simple roots are linearly dependent: the Cartan matrix "
            f"has rank {len(pivots)}, not {cartan.n}")


def _counted(seen: dict, mu: Weight, x: tuple[int, ...]) -> bool:
    """Record the root coordinates x of highest - mu; False if mu was
    already recorded with them, RadicalRankMismatch if with others."""
    y = seen.get(mu)
    if y is None:
        seen[mu] = x
        return True
    if y != x:
        raise RadicalRankMismatch(
            f"weight {mu} reached with root coordinates {y} and {x}")
    return False


def freudenthal_multiplicities(cartan: CartanData, highest: Weight) -> dict[Weight, int]:
    """Weight multiplicities of the irreducible highest-weight module.

    Freudenthal's recursion runs over the dominant weights only, highest
    first.  Multiplicities are Weyl-invariant, so every other weight, both
    on the root strings of the recursion and in the returned dict, takes
    the multiplicity of its dominant conjugate (R. V. Moody and J. Patera,
    Bull. AMS 7 (1982)).

    The dominant weights of the module are those below ``highest`` that
    are reached from it by subtracting positive roots while staying
    dominant (J. Stembridge, Adv. Math. 136 (1998)).  Each orbit is then
    walked down from its dominant weight by the simple reflections s_i at
    weights with a positive i-th entry p, which reach every element of the
    orbit; such a step subtracts p alpha_i.  Both walks count the root
    coordinates of highest - weight, which give the recursion its heights
    and denominators, and a weight reached with other coordinates raises
    RadicalRankMismatch.
    """
    require_finite(cartan)
    _require_independent_roots(cartan)
    d = cartan.symmetrizer
    # each positive root by its root coordinates b, its coordinates
    # weighted by the symmetrizer (so (nu, beta) is their dot product with
    # nu) and its fundamental-weight coordinates, for stepping
    pos = [(b, tuple(map(mul, b, d)),
            tuple(sum(map(mul, row, b)) for row in cartan.gcm))
           for b, _ in positive_roots(cartan)]
    coords = {highest: (0,) * cartan.n}
    queue = [highest]
    for mu in queue:
        x = coords[mu]
        for b, _, beta_w in pos:
            nu = wsub(mu, beta_w)
            if min(nu) >= 0 and _counted(coords, nu, wadd(x, b)):
                queue.append(nu)
    top_down = sorted(queue, key=lambda mu: (sum(coords[mu]), mu))
    roots = [cartan.simple_root(i) for i in cartan.labels]
    dom: dict[Weight, Weight] = {}  # each weight -> its dominant conjugate
    for lam in top_down:
        dom[lam] = lam
        orbit = [lam]
        for mu in orbit:
            x = coords[mu]
            for i, p in enumerate(mu):
                if p > 0:
                    nu = tuple([a - p * r for a, r in zip(mu, roots[i])])
                    if _counted(coords, nu, x[:i] + (x[i] + p,) + x[i + 1:]):
                        dom[nu] = lam
                        orbit.append(nu)
    two_rho = wscale(2, cartan.rho())
    mult: dict[Weight, int] = {}  # dominant weights of non-zero multiplicity
    for mu in top_down:
        if mu == highest:
            mult[mu] = 1
            continue
        num = 0
        for _, bd, beta_w in pos:
            nu = wadd(mu, beta_w)
            # nu lies strictly above mu, and so does its dominant conjugate
            while (top := dom.get(nu)) in mult:
                num += mult[top] * sum(map(mul, bd, nu))
                nu = wadd(nu, beta_w)
        # denominator (|highest+rho|^2 - |mu+rho|^2) = (highest+mu+2rho, highest-mu)
        tot = wadd(wadd(highest, mu), two_rho)
        denom = sum(map(mul, map(mul, coords[mu], d), tot))
        if denom == 0:
            raise RadicalRankMismatch(f"weight {mu}: Freudenthal denominator is 0")
        val, rem = divmod(2 * num, denom)
        if rem or val < 0:
            raise RadicalRankMismatch(
                f"weight {mu}: Freudenthal multiplicity {2 * num}/{denom} is "
                f"not a non-negative integer")
        if val:
            mult[mu] = val
    return {mu: mult[lam] for mu, lam in dom.items() if lam in mult}


def weyl_dimension(cartan: CartanData, highest: Weight) -> int:
    """Closed-form dimension of the irreducible module (Weyl formula)."""
    require_finite(cartan)
    n = cartan.n
    num = den = 1
    for _, coroot in positive_roots(cartan):
        num *= sum(coroot[j] * (highest[j] + 1) for j in range(n))
        den *= sum(coroot)
    dim, rem = divmod(num, den)
    if rem:
        raise RadicalRankMismatch(f"Weyl dimension {num}/{den} is not an integer")
    return dim


# ---------------------------------------------------------------------------
# the module


IntColumns = tuple[tuple[tuple[int, int], ...], ...]


class IntegerForm(NamedTuple):
    """An operator scaled to integer entries: ``cols`` is ``scale`` times
    its rational columns, ``scale`` the lcm of their denominators."""

    scale: int
    cols: IntColumns


def _integer_form(dens: list[int], cols: list[tuple[tuple[int, int], ...]]
                  ) -> IntegerForm:
    """The IntegerForm of an operator whose column b is ``cols[b]`` over the
    denominator ``dens[b]``, each in lowest terms: the scale is their lcm."""
    scale = lcm(1, *dens)
    return IntegerForm(scale, tuple(
        col if d == scale else tuple((r, x * (scale // d)) for r, x in col)
        for d, col in zip(dens, cols)))


def apply_projective(cols: IntColumns, v: dict[int, int]) -> dict[int, int]:
    """The image of the integer vector v under integer-form columns, zero
    coordinates dropped: a positive multiple of the exact image, so it is
    empty exactly when that image vanishes."""
    out: dict[int, int] = {}
    for b, c in v.items():
        for r, x in cols[b]:
            out[r] = out.get(r, 0) + c * x
    return {r: y for r, y in out.items() if y}


class LowestWeightModule:
    """V(-omega_t): lowest-weight fundamental module with exact matrices.

    ``e_int[i]`` / ``f_int[i]`` map 1-based simple index i to the
    IntegerForm of e_i / f_i, with one sparse column per basis index; e_i
    raises the weight by alpha_i.
    """

    # The build puts the top vector of V(omega_t) at basis index 0, and the
    # Chevalley flip makes it the lowest vector of V(-omega_t).
    lowest_index = 0

    def __init__(self, cartan: CartanData, t: int, weights: tuple[Weight, ...],
                 e_int: dict[int, IntegerForm], f_int: dict[int, IntegerForm]):
        self.cartan = cartan
        self.t = t
        self.weights = weights
        self.e_int = e_int
        self.f_int = f_int
        spaces: dict[Weight, list[int]] = {}
        for idx, mu in enumerate(weights):
            spaces.setdefault(mu, []).append(idx)
        self.weight_spaces = {mu: tuple(v) for mu, v in spaces.items()}

    @property
    def dim(self) -> int:
        return len(self.weights)

    @cached_property
    def start_vector(self) -> dict[int, int]:
        """v_{-s_t omega_t}, where every trail starts, as an integer vector
        known up to a positive factor; computed once per module and never
        changed."""
        return extremal_vector(self, (self.t,))

    def weight_space(self, mu: Weight) -> tuple[int, ...]:
        return self.weight_spaces.get(mu, ())


def _lowest_terms(den: int, col: list[tuple[int, int]]):
    """(den, col) with the common factor of den > 0 and every entry removed;
    an empty column gets the denominator 1."""
    if den == 1:
        return 1, tuple(col)
    g = gcd(den, *(x for _, x in col))
    if g == 1:
        return den, tuple(col)
    return den // g, tuple((r, x // g) for r, x in col)


def _e_images(e_cols, f_cols, weights, j: int, b: int):
    """e_i(f_j b) = f_j(e_i b) + delta_ij <h_i, wt b> b for every i, from
    the columns built so far, each as (den, {row: integer}) with zeros
    dropped.  ``e_cols[i]`` and ``f_cols[j]`` are (denominators, columns)
    pairs."""
    f_dens, f_j = f_cols[j]
    out = {}
    for i, (dens, cols) in e_cols.items():
        col = cols[b]
        acc: dict[int, int] = {}
        den = dens[b]
        if col:
            common = lcm(*[f_dens[r] for r, _ in col])
            den *= common
            for r, x in col:
                if common != 1:
                    x *= common // f_dens[r]
                for q, y in f_j[r]:
                    acc[q] = acc.get(q, 0) + x * y
        if i == j:
            acc[b] = acc.get(b, 0) + den * weights[b][i - 1]
        out[i] = den, {q: x for q, x in acc.items() if x}
    return out


def _build_matrices(cartan: CartanData, t: int):
    """Highest-weight build of V(omega_t): returns (weights, e_int, f_int),
    the operators as IntegerForms.

    Basis index 0 is the top vector; each level below it holds the weights
    of the character one simple root lower, weight spaces in sorted order.
    A candidate f_j b is grouped only when wt(b) - alpha_j is a weight of
    the character; any other keeps an empty f-column, and no e-image is
    formed for it.  So a weight that the character wrongly lacks gets no
    rank check of its own; a rank check further down or ``_verify_module``
    catches it.  A column is kept as sparse integers over one positive
    denominator in lowest terms.  Each weight's matrix of e-images (a row
    per coordinate, a column per candidate) is cleared of denominators row
    by row, which leaves its reduced row echelon form as it is, and then
    reduced fraction-free; the pivots and f-coefficients are those of a
    reduction over Fractions.
    """
    lam = cartan.fundamental_weight(t)
    fmult = freudenthal_multiplicities(cartan, lam)
    roots = [(j, cartan.simple_root(j)) for j in cartan.labels]
    weights: list[Weight] = [lam]
    # (denominators, columns) of each operator, by basis index
    e_cols = {i: ([1], [()]) for i in cartan.labels}
    f_cols = {i: ([], []) for i in cartan.labels}
    level = [0]
    while level:
        groups: dict[Weight, list[tuple[int, int]]] = {}
        for b in level:
            for j, alpha in roots:
                nu = wsub(weights[b], alpha)
                if nu in fmult:
                    groups.setdefault(nu, []).append((j, b))
        f_level: dict[tuple[int, int], tuple] = {}
        next_level: list[int] = []
        for nu in sorted(groups):
            cands = groups[nu]
            images = [_e_images(e_cols, f_cols, weights, j, b) for j, b in cands]
            entries: dict[tuple[int, int], list[tuple[int, int, int]]] = {}
            for c, im in enumerate(images):
                for i, (den, col) in im.items():
                    for q, x in col.items():
                        entries.setdefault((i, q), []).append((c, x, den))
            rows = []
            for row_entries in entries.values():
                common = lcm(*(den for _, _, den in row_entries))
                row = [0] * len(cands)
                for c, x, den in row_entries:
                    row[c] = x * (common // den)
                rows.append(row)
            red, pivots, d = integer_rref(rows)
            if len(pivots) != fmult[nu]:
                raise RadicalRankMismatch(
                    f"weight {nu}: rank of the e-images {len(pivots)} != "
                    f"Freudenthal multiplicity {fmult[nu]}")
            new = range(len(weights), len(weights) + len(pivots))
            for p in pivots:
                weights.append(nu)
                for i, (den, col) in images[p].items():
                    den, col = _lowest_terms(den, sorted(col.items()))
                    e_cols[i][0].append(den)
                    e_cols[i][1].append(col)
            # candidate c is the sum of red[r][c] / d times new vector r
            for c, key in enumerate(cands):
                f_level[key] = _lowest_terms(d, [
                    (new[r], row[c]) for r, row in enumerate(red) if row[c]])
            next_level.extend(new)
        for b in level:
            for j, _ in roots:
                den, col = f_level.get((j, b), (1, ()))
                f_cols[j][0].append(den)
                f_cols[j][1].append(col)
        level = next_level
    return (weights,
            {i: _integer_form(*cols) for i, cols in e_cols.items()},
            {i: _integer_form(*cols) for i, cols in f_cols.items()})


def _verify_module(m: LowestWeightModule) -> None:
    """Build-time invariants: the Weyl dimension, columns that move weights
    by the simple roots, sl(2) commutators and the lowest vector.

    The commutator is checked on the integer forms, as
    D_e D_f (e_i f_i - f_i e_i) = D_e D_f <alpha_i^vee, mu> on every basis
    vector of weight mu.
    """
    cartan = m.cartan
    weyl = weyl_dimension(cartan, cartan.fundamental_weight(m.t))
    if m.dim != weyl:
        raise RadicalRankMismatch(
            f"dimension {m.dim} disagrees with the Weyl formula {weyl}")
    for i in cartan.labels:
        alpha = cartan.simple_root(i)
        e, f = m.e_int[i], m.f_int[i]
        for name, cols, step in (("e", e.cols, alpha), ("f", f.cols, wneg(alpha))):
            if len(cols) != m.dim or any(
                    not 0 <= r < m.dim or m.weights[r] != wadd(m.weights[b], step)
                    for b, col in enumerate(cols) for r, _ in col):
                raise RadicalRankMismatch(f"{name}_{i} does not move weights by its root")
        if apply_projective(f.cols, {m.lowest_index: 1}):
            raise RadicalRankMismatch(f"f_{i} does not kill the lowest vector")
        scale = e.scale * f.scale
        for b, mu in enumerate(m.weights):
            acc = {b: -scale * mu[i - 1]}
            for r, x in f.cols[b]:
                for q, y in e.cols[r]:
                    acc[q] = acc.get(q, 0) + x * y
            for r, x in e.cols[b]:
                for q, y in f.cols[r]:
                    acc[q] = acc.get(q, 0) - x * y
            if any(acc.values()):
                raise RadicalRankMismatch(
                    f"[e_{i}, f_{i}] is not alpha_{i}^vee on weight {mu}")


@lru_cache(maxsize=None, typed=True)
def build_fundamental(cartan: CartanData, t: int) -> LowestWeightModule:
    """Build V(-omega_t) with exact raising/lowering matrices.

    Every build passes the Weyl-dimension, weight-grading, lowest-vector
    and [e_i, f_i] checks of ``_verify_module`` before it is returned, and
    is memoized for the life of the process.  The memo is typed, so a t
    that equals a label without being an int (True) reaches the label
    check instead of a module built for that label.
    """
    require_finite(cartan)
    cartan.check_label(t)
    weights, e_int, f_int = _build_matrices(cartan, t)
    # Chevalley flip: negate weights, swap the operator families.
    module = LowestWeightModule(
        cartan, t,
        weights=tuple(wneg(mu) for mu in weights),
        e_int=f_int,
        f_int=e_int,
    )
    _verify_module(module)
    return module


# ---------------------------------------------------------------------------
# extremal vectors


def extremal_vector(m: LowestWeightModule, word) -> dict[int, int]:
    """The vector of weight -w_j omega_t along a reduced prefix, as an
    integer vector known up to a positive factor.

    Computed by successive maximal raisings e_i^{alpha_i^vee(w omega_t)} on
    the integer forms; each intermediate weight space is checked to be
    one-dimensional.
    """
    v = {m.lowest_index: 1}
    gamma = m.weights[m.lowest_index]
    for i in word:
        m.cartan.check_label(i)
        p = -gamma[i - 1]
        if p < 0:
            raise NotReducedError(f"word {tuple(word)} is not a reduced prefix")
        cols = m.e_int[i].cols
        for _ in range(p):
            v = apply_projective(cols, v)
        gamma = wadd(gamma, wscale(p, m.cartan.simple_root(i)))
        if not v or len(m.weight_space(gamma)) != 1:
            raise NotExtremalWeightError(
                f"weight {gamma} is not a multiplicity-one extremal weight")
    return v

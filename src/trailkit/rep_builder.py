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
dimension formula) cross-check every weight multiplicity during the build;
disagreement raises RadicalRankMismatch.

Each operator is kept once, as an integer form: the lcm D of its column
denominators and its columns scaled by D.  Module vectors are integer
vectors over these forms, known only up to a positive factor, which never
changes whether a vector vanishes; the trail calculus asks nothing else
of them.  Rational numbers appear only inside the build.
"""

from __future__ import annotations

import hashlib
import json
import os
from fractions import Fraction
from functools import cached_property, lru_cache
from math import lcm
from typing import NamedTuple

from .cartan_core import (
    CartanData,
    Weight,
    positive_roots,
    require_finite,
    root_coordinates,
    wadd,
    wneg,
    wscale,
    wsub,
)
from .errors import NotExtremalWeightError, NotReducedError, RadicalRankMismatch
from .linalg import rref


# ---------------------------------------------------------------------------
# character oracles


def saturated_weight_set(cartan: CartanData, highest: Weight) -> set[Weight]:
    """The full weight set of the irreducible module with this highest weight.

    Computed as the saturation closure of {highest}: from any weight walk the
    whole interval towards its image under each simple reflection.
    """
    require_finite(cartan)
    seen = {highest}
    queue = [highest]
    while queue:
        mu = queue.pop()
        for i in cartan.labels:
            p = mu[i - 1]
            alpha = cartan.simple_root(i)
            step = wneg(alpha) if p > 0 else alpha
            for _ in range(abs(p)):
                mu2 = wadd(mu, step)
                if mu2 not in seen:
                    seen.add(mu2)
                    queue.append(mu2)
                mu = mu2
    return seen


def _height(cartan: CartanData, w: Weight) -> int:
    coords = root_coordinates(cartan, w)
    assert coords is not None
    return sum(coords)


def _dominant_conjugates(cartan: CartanData, weights) -> dict[Weight, Weight]:
    """Each weight of a Weyl-stable set mapped to the dominant weight of its
    orbit.  An orbit is walked down from its dominant weight by the simple
    reflections s_i at weights with a positive i-th coordinate, which reach
    every element of the orbit."""
    roots = [cartan.simple_root(i) for i in cartan.labels]
    dom: dict[Weight, Weight] = {}
    for lam in weights:
        if min(lam) < 0:
            continue
        dom[lam] = lam
        queue = [lam]
        while queue:
            mu = queue.pop()
            for p, alpha in zip(mu, roots):
                if p > 0:
                    nu = tuple(x - p * a for x, a in zip(mu, alpha))
                    if nu not in dom:
                        dom[nu] = lam
                        queue.append(nu)
    return dom


def freudenthal_multiplicities(cartan: CartanData, highest: Weight) -> dict[Weight, int]:
    """Weight multiplicities of the irreducible highest-weight module.

    Freudenthal's recursion runs over the dominant weights only, highest
    first.  Multiplicities are Weyl-invariant, so every other weight, both
    on the root strings of the recursion and in the returned dict, takes
    the multiplicity of its dominant conjugate (R. V. Moody and J. Patera,
    Bull. AMS 7 (1982)).
    """
    require_finite(cartan)
    d = cartan.symmetrizer
    n = cartan.n
    weights = saturated_weight_set(cartan, highest)
    dom = _dominant_conjugates(cartan, weights)
    by_height = sorted((mu for mu, lam in dom.items() if mu == lam),
                       key=lambda mu: (_height(cartan, wsub(highest, mu)), mu))
    pos = positive_roots(cartan)
    # each positive root in fundamental-weight coordinates, for stepping
    pos_w = [tuple(sum(cartan.gcm[k][j] * b[j] for j in range(n)) for k in range(n))
             for b, _ in pos]
    rho = cartan.rho()
    mult: dict[Weight, int] = {}  # dominant weights of non-zero multiplicity
    for mu in by_height:
        if mu == highest:
            mult[mu] = 1
            continue
        num = 0
        for (b, _), beta_w in zip(pos, pos_w):
            nu = wadd(mu, beta_w)
            # nu lies strictly above mu, and so does its dominant conjugate
            while dom.get(nu) in mult:
                # (nu, beta) with beta in root coordinates b
                num += mult[dom[nu]] * sum(b[j] * d[j] * nu[j] for j in range(n))
                nu = wadd(nu, beta_w)
        # denominator (|highest+rho|^2 - |mu+rho|^2) = (highest+mu+2rho, highest-mu)
        diff = root_coordinates(cartan, wsub(highest, mu))
        tot = wadd(wadd(highest, mu), wadd(rho, rho))
        denom = sum(diff[j] * d[j] * tot[j] for j in range(n))
        assert denom != 0
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
    assert rem == 0
    return dim


# ---------------------------------------------------------------------------
# the module


IntColumns = tuple[tuple[tuple[int, int], ...], ...]


class IntegerForm(NamedTuple):
    """An operator scaled to integer entries: ``cols`` is ``scale`` times
    its rational columns, ``scale`` the lcm of their denominators."""

    scale: int
    cols: IntColumns


def _integer_form(cols: list[tuple[tuple[int, Fraction], ...]]
                  ) -> IntegerForm:
    """The IntegerForm of an operator given by its Fraction columns."""
    scale = lcm(1, *(x.denominator for col in cols for _, x in col))
    return IntegerForm(scale, tuple(
        tuple((r, x.numerator * (scale // x.denominator)) for r, x in col)
        for col in cols))


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

    def __init__(self, cartan: CartanData, t: int, weights: tuple[Weight, ...],
                 lowest_index: int, e_int: dict[int, IntegerForm],
                 f_int: dict[int, IntegerForm]):
        self.cartan = cartan
        self.t = t
        self.weights = weights
        self.lowest_index = lowest_index
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


def _e_images(e_cols, f_cols, weights, j: int, b: int) -> dict[int, dict[int, Fraction]]:
    """e_i(f_j b) = f_j(e_i b) + delta_ij <h_i, wt b> b for every i, as
    sparse coordinates computed from the columns built so far."""
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


def _build_matrices(cartan: CartanData, t: int):
    """Highest-weight build of V(omega_t): returns (weights, e_int, f_int),
    the operators as IntegerForms of the Fraction columns built here.

    Basis index 0 is the top vector; each level below it holds the weights
    one simple root lower, weight spaces in sorted order.
    """
    lam = cartan.fundamental_weight(t)
    fmult = freudenthal_multiplicities(cartan, lam)
    weights: list[Weight] = [lam]
    e_cols: dict[int, list[tuple]] = {i: [()] for i in cartan.labels}
    f_cols: dict[int, list[tuple]] = {i: [] for i in cartan.labels}
    level = [0]
    while level:
        groups: dict[Weight, list[tuple[int, int]]] = {}
        for b in level:
            for j in cartan.labels:
                nu = wsub(weights[b], cartan.simple_root(j))
                groups.setdefault(nu, []).append((j, b))
        f_level: dict[tuple[int, int], tuple] = {}
        next_level: list[int] = []
        for nu in sorted(groups):
            cands = groups[nu]
            images = [_e_images(e_cols, f_cols, weights, j, b) for j, b in cands]
            keys = sorted({(i, q) for im in images for i, col in im.items() for q in col})
            red, pivots = rref([[im[i].get(q, 0) for im in images] for i, q in keys])
            if len(pivots) != fmult.get(nu, 0):
                raise RadicalRankMismatch(
                    f"weight {nu}: rank of the e-images {len(pivots)} != "
                    f"Freudenthal multiplicity {fmult.get(nu, 0)}")
            new = range(len(weights), len(weights) + len(pivots))
            for p in pivots:
                weights.append(nu)
                for i in cartan.labels:
                    e_cols[i].append(tuple(sorted(images[p][i].items())))
            for c, key in enumerate(cands):
                f_level[key] = tuple((new[r], red[r][c]) for r in range(len(pivots))
                                     if red[r][c])
            next_level.extend(new)
        for b in level:
            for j in cartan.labels:
                f_cols[j].append(f_level[j, b])
        level = next_level
    return (weights,
            {i: _integer_form(cols) for i, cols in e_cols.items()},
            {i: _integer_form(cols) for i, cols in f_cols.items()})


def _verify_module(m: LowestWeightModule) -> None:
    """Build-time invariants: the Weyl dimension, columns that move weights
    by the simple roots, sl(2) commutators and the lowest vector.

    The commutator is checked on the integer forms, as
    D_e D_f (e_i f_i - f_i e_i) = D_e D_f <alpha_i^vee, mu> on every basis
    vector of weight mu.
    """
    cartan = m.cartan
    if m.dim != weyl_dimension(cartan, cartan.fundamental_weight(m.t)):
        raise RadicalRankMismatch("dimension disagrees with the Weyl formula")
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


# Version of the TRAILKIT_CACHE_DIR payload; a file of any other version
# (or none) holds matrices in another basis or encoding and is rebuilt.
CACHE_FORMAT = 3


def _cache_key(cartan: CartanData, t: int) -> str:
    payload = json.dumps({"gcm": [list(r) for r in cartan.gcm], "t": t},
                         sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()[:24]


def _cache_save(path: str, m: LowestWeightModule) -> None:
    data = {
        "format": CACHE_FORMAT,
        "t": m.t,
        "weights": m.weights,
        "E": {str(i): form._asdict() for i, form in m.e_int.items()},
        "F": {str(i): form._asdict() for i, form in m.f_int.items()},
    }
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(data, fh, sort_keys=True, separators=(",", ":"))
    os.replace(tmp, path)


def _int(x, least: int | None = None) -> int:
    """x itself if it is an int (not a bool or a float) of at least ``least``."""
    if type(x) is not int or (least is not None and x < least):
        raise ValueError(f"cached number {x!r} is not an int in range")
    return x


def _cache_load(path: str, cartan: CartanData, t: int) -> LowestWeightModule | None:
    """The cached module, or None for a miss: no readable file, a payload
    of another format version or for another t, a number that is not an
    int, a scale below 1, or a module that fails the build-time checks."""
    try:
        with open(path) as fh:
            data = json.load(fh)
        if data.get("format") != CACHE_FORMAT or data["t"] != t:
            return None

        def dec(form):
            return IntegerForm(_int(form["scale"], least=1), tuple(
                tuple((_int(r), _int(x)) for r, x in col) for col in form["cols"]))

        module = LowestWeightModule(
            cartan, t, tuple(tuple(map(_int, w)) for w in data["weights"]), 0,
            {i: dec(data["E"][str(i)]) for i in cartan.labels},
            {i: dec(data["F"][str(i)]) for i in cartan.labels})
        _verify_module(module)
    except (OSError, AttributeError, IndexError, KeyError, TypeError,
            ValueError, RadicalRankMismatch):
        return None
    return module


@lru_cache(maxsize=None)
def build_fundamental(cartan: CartanData, t: int) -> LowestWeightModule:
    """Build V(-omega_t) with exact raising/lowering matrices.

    Set TRAILKIT_CACHE_DIR to persist built modules as JSON across runs; a
    cached module passes the same checks as a fresh build before it is
    used, and a file that fails them is rebuilt and overwritten.
    """
    require_finite(cartan)
    cartan.check_label(t)
    cache_dir = os.environ.get("TRAILKIT_CACHE_DIR")
    cache_path = None
    if cache_dir:
        os.makedirs(cache_dir, exist_ok=True)
        cache_path = os.path.join(cache_dir, _cache_key(cartan, t) + ".json")
        cached = _cache_load(cache_path, cartan, t)
        if cached is not None:
            return cached
    weights, e_int, f_int = _build_matrices(cartan, t)
    # Chevalley flip: negate weights, swap the operator families.
    module = LowestWeightModule(
        cartan, t,
        weights=tuple(wneg(mu) for mu in weights),
        lowest_index=0,
        e_int=f_int,
        f_int=e_int,
    )
    _verify_module(module)
    if cache_path:
        _cache_save(cache_path, module)
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

"""Step-by-step envelope construction over a reduced word: every settled
trail function must embed into a disjoint union of class blocks, each block
being the lattice-point expansion of an S-graph around an l-minimal driving
function.

A block of type s at step j is built purely from functions: a driving
function with non-positive coefficients at the occurrences of s yields a
coefficient tuple c, the S-graph machinery turns c into lattice points and
vertex functions, and adding c'_u copies of the u-th closed face to the
driver realizes each point.  The construction never touches module vectors;
the enumerated trails serve as the ground truth that every per-step check
is measured against.

Checks per step (JSON report keys "54", "56", "57" follow the external
schema):
  - cover: every function settled before the step lies in exactly one
    block's lower part (the points whose last coordinate vanishes);
  - exact: the functions settled by the step equal the disjoint union of
    the blocks;
  - forward: each step's vertex functions reappear in the next step's
    lower blocks;
  - forward_vertex: the extremal elements among those vertex functions
    reappear in the next step's lower vertex sets (a vertex of one block
    may sit strictly inside the union, so only extremal elements are
    required to survive as vertices).

A failed cover or exact check raises :class:`FalseTrailDetected` with the
offending function and the nearest block, and is not recorded: an envelope
exists only if every layer passed both, so key "54" (cover) is always true
in a written report.  The forward checks are report data.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

from .cartan_core import CartanData, WordJ
from . import linalg
from .errors import ConsistencyError, FalseTrailDetected, UnknownLetterError
from .rep_builder import LowestWeightModule
from .sgraph import CoeffVector, binary_fusion, integer_points
from .trails import (LinearFunctionBJ, _as_word, _face_basis, driving_trail,
                     enumerate_trails, face_cone_coordinates, group_ts_classes,
                     trail_function, xt_leq)


def _fn_key(f: LinearFunctionBJ):
    return f.terms


def _extremal_subset(funcs, known: frozenset = frozenset(),
                     within: frozenset = frozenset()
                     ) -> frozenset[LinearFunctionBJ]:
    """Extremal elements of a finite set of linear functions.

    Coefficients at positions outside every support are zero throughout, so
    the union of supports serves as the coordinate axes.  ``known`` holds
    extremal elements of the set ``within``.  A point extremal in a set is
    extremal in every subset that contains it, so when ``funcs`` lies
    inside ``within`` an element of ``known`` is taken as extremal without
    an LP; otherwise every element is tested.
    """
    fs = sorted(funcs, key=_fn_key)
    if len(fs) <= 2:
        return frozenset(fs)
    if not within.issuperset(fs):
        known = frozenset()
    axes = sorted({q for f in fs for q, _ in f.terms})
    coords = [tuple(f.coeff(q) for q in axes) for f in fs]
    return frozenset(
        f for i, f in enumerate(fs)
        if f in known
        or not linalg.in_convex_hull(coords[i], coords[:i] + coords[i + 1:]))


@dataclass(frozen=True)
class ClassBlock:
    """One type-s class realized as driving function plus face multiples.

    ``points`` are the lattice tuples of the coefficient polytope;
    ``lower`` collects the functions whose last point coordinate vanishes
    (equivalently, for a block built at word step j, whose support stays
    below j).  ``vertices`` are the S-graph vertex functions and
    ``lower_vertices`` those on the face c'_{n-1} = 0, which are the
    extremal elements of the lower set; when the last entry of ``c`` is
    non-zero these are the label-n vertex functions.
    """

    s: int
    step: int | None
    c: tuple[int, ...]
    a: tuple[int, ...] | None
    driving: LinearFunctionBJ
    points: tuple[tuple[int, ...], ...]
    functions: frozenset[LinearFunctionBJ]
    lower: frozenset[LinearFunctionBJ]
    vertices: frozenset[LinearFunctionBJ]
    lower_vertices: frozenset[LinearFunctionBJ]
    exceptional: bool = False


@dataclass(frozen=True)
class EnvelopeLayer:
    j: int
    s: int
    blocks: tuple[ClassBlock, ...]
    discarded: tuple[LinearFunctionBJ, ...]
    functions: frozenset[LinearFunctionBJ]
    forward_ok: bool
    forward_vertex_ok: bool


@dataclass(frozen=True)
class Envelope:
    """The full per-step decomposition plus the whole-word sweep per type.

    ``extremal`` holds the extremal elements of ``functions``.
    """

    t: int
    word: WordJ
    layers: tuple[EnvelopeLayer, ...]
    global_blocks: tuple[ClassBlock, ...]
    functions: frozenset[LinearFunctionBJ]
    driving: LinearFunctionBJ
    extremal: frozenset[LinearFunctionBJ]

    @property
    def cartan(self) -> CartanData:
        return self.word.cartan

    def layer(self, j: int) -> EnvelopeLayer:
        return self.layers[j - 1]

    @cached_property
    def _ordered(self) -> tuple[LinearFunctionBJ, ...]:
        """The settled functions in a fixed order."""
        return tuple(sorted(self.functions, key=_fn_key))

    @cached_property
    def _type_vertices(self) -> dict:
        """Per type s, the vertex functions of the whole-word type-s
        decomposition and their indices in ``_ordered``."""
        index = {f: i for i, f in enumerate(self._ordered)}
        per_s: dict[int, set[LinearFunctionBJ]] = {}
        for b in self.global_blocks:
            per_s.setdefault(b.s, set()).update(b.vertices)
        return {s: (frozenset(zs), tuple(index[f] for f in zs))
                for s, zs in per_s.items()}

    def _vertices(self, s: int):
        found = self._type_vertices.get(s)
        if found is None:
            raise UnknownLetterError(f"no type-{s} decomposition recorded")
        return found

    def z_t(self, s: int) -> frozenset[LinearFunctionBJ]:
        """Vertex functions of the whole-word type-s decomposition."""
        return self._vertices(s)[0]

    def to_json_dict(self) -> dict:
        layers = []
        for L in self.layers:
            classes = []
            for b in sorted(L.blocks, key=lambda b: _fn_key(b.driving)):
                classes.append({
                    "s": b.s,
                    "a": list(b.a) if b.a is not None else [],
                    "c": list(b.c),
                    "z_vertices": sorted(
                        [list(p) for p in _fn_key(v)] for v in b.vertices),
                    "kz_size": len(b.points),
                })
            layers.append({
                "j": L.j,
                "classes": classes,
                "checks": {"54": True, "56": L.forward_ok,
                           "57": L.forward_vertex_ok},
            })
        return {"t": self.t, "layers": layers}


def _expand(driving: LinearFunctionBJ, faces: dict[int, LinearFunctionBJ],
            point) -> LinearFunctionBJ:
    f = driving
    for u, cp in enumerate(point, start=1):
        if cp:
            f = f + faces[u + 1].scale(cp)
    return f


def _make_block(word: WordJ, s: int, step: int | None, z: LinearFunctionBJ,
                c: tuple[int, ...], fusions: dict) -> ClassBlock:
    basis = _face_basis(word)  # the closed faces F_s^k, by position (s,k)
    faces = {k: basis[word.position(s, k)] for k in range(2, len(c) + 2)}
    if c not in fusions:  # blocks of one shape share their S-graph
        cv = CoeffVector.make(c)
        fusions[c] = (binary_fusion(cv), tuple(sorted(integer_points(cv))))
    g, pts = fusions[c]
    funcs = tuple(_expand(z, faces, p) for p in pts)
    if len(set(funcs)) != len(funcs):
        raise ConsistencyError("distinct lattice points expanded to one "
                               "function")
    lower, functions = set(), set()
    for p, f in zip(pts, funcs):
        functions.add(f)
        is_lower = not p or p[-1] == 0
        if step is not None:
            below = not f.support or f.support[-1] <= step - 1
            if below != is_lower:
                raise ConsistencyError("support bound disagrees with the "
                                       "last point coordinate")
        if is_lower:
            lower.add(f)
    # S-graph vertex functions are lattice points, so they are expanded
    # already; the lower ones are the vertices of the face c'_{n-1} = 0
    expanded = dict(zip(pts, funcs))
    vertices = frozenset(expanded[p] for p in g.functions())
    return ClassBlock(s, step, c, None, z, pts, frozenset(functions),
                      frozenset(lower), vertices, vertices & lower)


def _exceptional_block(t: int, step: int | None, zt1: LinearFunctionBJ,
                       settled: bool) -> ClassBlock:
    """The lone driving function, which belongs to no type-t class."""
    lower = frozenset({zt1}) if settled else frozenset()
    return ClassBlock(t, step, (), None, zt1, ((),), frozenset({zt1}), lower,
                      frozenset({zt1}), lower, exceptional=True)


def _linear_extension(word: WordJ, cands):
    """Deterministic linear extension of the face-cone order, least first:
    each pick is the first candidate, in function order, that no other
    remaining candidate lies below.

    Face-cone coordinates are linear, so every candidate's coordinates are
    computed once relative to the first candidate r: z - w lies in the cone
    iff both z - r and w - r have coordinates and their difference is
    non-negative.  Exactly one of them without coordinates makes the pair
    incomparable; when neither has any, ``xt_leq`` decides.
    """
    ordered = sorted(cands, key=lambda zc: _fn_key(zc[0]))
    if not ordered:
        return []
    r = ordered[0][0]
    coords = [face_cone_coordinates(word, z - r) for z, _ in ordered]

    def leq(i: int, j: int) -> bool:
        ci, cj = coords[i], coords[j]
        if ci is None and cj is None:
            return xt_leq(word, ordered[i][0], ordered[j][0])
        if ci is None or cj is None:
            return False
        return all(cj.get(u, 0) >= ci.get(u, 0)
                   for u in ci.keys() | cj.keys())

    n = len(ordered)
    above = [[j for j in range(n) if j != i and leq(i, j)] for i in range(n)]
    below = [0] * n     # remaining candidates below each one
    for js in above:
        for j in js:
            below[j] += 1
    remaining = list(range(n))
    out = []
    while remaining:
        for idx, i in enumerate(remaining):
            if below[i] == 0:
                break
        else:
            raise ConsistencyError("cycle in the face-cone order")
        out.append(ordered[remaining.pop(idx)])
        for j in above[i]:
            below[j] -= 1
    return out


def _candidates(word: WordJ, s: int, n: int, pool):
    positions = [word.position(s, k) for k in range(1, n + 1)]
    out = []
    for z in sorted(pool, key=_fn_key):
        coeffs = [z.coeff(p) for p in positions]
        if all(x <= 0 for x in coeffs):
            out.append((z, tuple(-x for x in coeffs[:-1])))
    return out


def _nearest_block(blocks, f: LinearFunctionBJ):
    best, best_d = None, None
    for b in blocks:
        for g in b.functions:
            d = sum(abs(c) for _, c in (f - g).terms)
            if best_d is None or (d, _fn_key(b.driving)) < best_d:
                best, best_d = b, (d, _fn_key(b.driving))
    return best


def _escaped(j: int, blocks, f: LinearFunctionBJ, detail: str,
             class_key=None) -> FalseTrailDetected:
    """Forensics for a function the blocks fail to account for; the class
    key defaults to the coefficient tuple of the nearest block."""
    near = _nearest_block(blocks, f)
    if near is None:
        return FalseTrailDetected(j, class_key, f, detail=detail)
    return FalseTrailDetected(j, near.c if class_key is None else class_key,
                              f, nearest=near.driving, detail=detail)


def _union(sets) -> frozenset:
    return frozenset().union(*sets)


def _check_disjoint(j: int, blocks) -> None:
    for i, a in enumerate(blocks):
        for b in blocks[i + 1:]:
            overlap = a.functions & b.functions
            if overlap:
                f = min(overlap, key=_fn_key)
                raise FalseTrailDetected(
                    j, (a.s, a.c, b.c), f,
                    nearest=b.driving,
                    detail="two blocks overlap instead of being disjoint")


def _check_layer(j: int, prev, truth, blocks) -> None:
    """Cover (every earlier function lies in a lower block) and exactness
    (the blocks produce precisely the functions settled by step j)."""
    for f in sorted(prev, key=_fn_key):
        if not any(f in b.lower for b in blocks):
            raise _escaped(j, blocks, f,
                           "settled function missing from every lower block")
    constructed = _union(b.functions for b in blocks)
    if truth - constructed:
        raise _escaped(j, blocks, min(truth - constructed, key=_fn_key),
                       "settled function not produced by any block")
    if constructed - truth:
        raise _escaped(j, blocks, min(constructed - truth, key=_fn_key),
                       "block predicts a function with no trail behind it")


def _attach_class_data(j, s, trails, fn_of, blocks):
    """Cross-check blocks against the module-level classes and keep their a.

    Each non-exceptional block must correspond to exactly one class whose
    l-minimal function is the block driver, with equal coefficient tuples,
    member functions and member coordinates.  ``fn_of`` maps each trail's
    exponents to its function.
    """
    classes = group_ts_classes([K for K in trails if K.phi <= j], s, j)
    by_driver = {fn_of[cls.l_min.exps]: cls for cls in classes}
    out = []
    for b in blocks:
        if b.exceptional:
            out.append(b)
            continue
        cls = by_driver.pop(b.driving, None)
        if cls is None:
            raise FalseTrailDetected(
                j, b.c, b.driving,
                detail="no module class is driven by this function")
        if cls.c != b.c + (0,):
            raise ConsistencyError(
                f"class coefficients {cls.c} disagree with block {b.c}")
        member_fns = frozenset(fn_of[K.exps] for K in cls.members)
        if member_fns != b.functions:
            f = min(member_fns ^ b.functions, key=_fn_key)
            raise FalseTrailDetected(
                j, b.c, f, nearest=b.driving,
                detail="class members differ from the block lattice points")
        if frozenset(cls.c_primes) != frozenset(p + (0,) for p in b.points):
            raise ConsistencyError("member coordinates disagree with the "
                                   "block lattice points")
        out.append(replace(b, a=tuple(cls.a)))
    for cls in by_driver.values():
        raise FalseTrailDetected(
            j, cls.c, fn_of[cls.l_min.exps],
            detail="module class missed by the block construction")
    return out


def _decompose(word: WordJ, t: int, s: int, step: int | None, pool,
               zt1: LinearFunctionBJ, fusions: dict, built: dict):
    """Disjoint type-s blocks driven by the functions of ``pool``, least
    driver first; a driver already inside a block is discarded.

    ``step`` is the word step of the per-step pass; ``None`` sweeps the
    whole word, including classes settling after the last occurrence of s.
    ``fusions`` is the envelope's memo of S-graphs by coefficient tuple.
    ``built`` is its memo of blocks by (s, driver, c): a block depends on
    nothing else but its step, so the sweep reuses the per-step blocks.
    """
    blocks, discarded = [], []
    if s == t:
        blocks.append(_exceptional_block(t, step, zt1, settled=True))
    n = word.count(s, upto=step)
    for z, c in _linear_extension(word, _candidates(word, s, n, pool)):
        if any(z in b.functions for b in blocks):
            discarded.append(z)
            continue
        if step is None and (s, z, c) in built:
            blocks.append(replace(built[s, z, c], step=None))
        else:
            built[s, z, c] = _make_block(word, s, step, z, c, fusions)
            blocks.append(built[s, z, c])
    _check_disjoint(word.m if step is None else step, blocks)
    return tuple(blocks), tuple(discarded)


def _forward(blocks, later, functions, extremal) -> tuple[bool, bool]:
    """Forward checks of one layer against the next (``None`` after the
    last step): its vertex functions lie in the next lower blocks, and
    their extremal elements among the next lower vertex sets.
    ``extremal`` holds the extremal elements of the envelope's
    ``functions``; those among the vertex functions need no LP."""
    if later is None:
        return True, True
    lhs = _union(b.vertices for b in blocks)
    return (lhs <= _union(b.lower for b in later),
            _extremal_subset(lhs, extremal, functions)
            <= _union(b.lower_vertices for b in later))


def construct_envelope(M: LowestWeightModule, word, t: int | None = None, *,
                       spurious: LinearFunctionBJ | None = None) -> Envelope:
    """Build and verify the step decomposition of all trail functions.

    ``spurious`` smuggles one extra function into the settled layers so the
    detection path can be exercised end to end.
    """
    if t is None:
        t = M.t
    if t != M.t:
        raise ConsistencyError(f"module was built for t={M.t}, not t={t}")
    cartan = M.cartan
    w = _as_word(cartan, word)
    trails = enumerate_trails(M, w, t)
    fn_of = {K.exps: trail_function(K) for K in trails}
    funcs = frozenset(fn_of.values())
    if len(funcs) != len(trails):
        raise ConsistencyError("two trails define one function")
    all_funcs = funcs if spurious is None else funcs | {spurious}
    t1 = w.position(t, 1)
    zt1 = trail_function(driving_trail(cartan, w, t))
    fusions: dict = {}  # c -> (S-graph, sorted lattice points)
    built: dict = {}    # (s, driver, c) -> block

    steps = []          # (j, s, blocks, discarded, settled functions)
    prev: frozenset[LinearFunctionBJ] = frozenset()
    for j, s in enumerate(w.letters, start=1):
        truth = frozenset(z for z in all_funcs
                          if not z.support or z.support[-1] <= j)
        blocks, discarded = (), ()
        if j < t1:
            if truth:
                raise FalseTrailDetected(
                    j, None, min(truth, key=_fn_key),
                    detail="function settles before the driving step")
        elif j == t1:
            blocks = (_exceptional_block(t, j, zt1, settled=False),)
            if truth != frozenset({zt1}):
                f = min(truth ^ {zt1}, key=_fn_key)
                raise FalseTrailDetected(
                    j, (), f, nearest=zt1,
                    detail="driving layer is not the single driving function")
        else:
            blocks, discarded = _decompose(w, t, s, j, prev, zt1, fusions,
                                           built)
            _check_layer(j, prev, truth, blocks)
            blocks = tuple(_attach_class_data(j, s, trails, fn_of, blocks))
        steps.append((j, s, blocks, discarded, truth))
        prev = truth
    extremal = _extremal_subset(all_funcs)
    later = [step[2] for step in steps[1:]] + [None]
    layers = tuple(
        EnvelopeLayer(*step, *_forward(step[2], nxt, all_funcs, extremal))
        for step, nxt in zip(steps, later))

    global_blocks = []
    for s in cartan.labels:
        blocks, _ = _decompose(w, t, s, None, all_funcs, zt1, fusions,
                               built)
        constructed = _union(b.functions for b in blocks)
        if constructed != all_funcs:
            raise _escaped(w.m, blocks,
                           min(constructed ^ all_funcs, key=_fn_key),
                           f"whole-word type-{s} decomposition does not match",
                           class_key=("sweep", s))
        global_blocks.extend(blocks)
    return Envelope(t, w, layers, tuple(global_blocks), all_funcs, zt1,
                    extremal)


def check_constructibility(env: Envelope, j1: int) -> dict:
    """Forward-containment report up to step j1; failures are entries."""
    t1 = env.word.position(env.t, 1)
    steps = [{"j": L.j, "s": L.s, "forward": L.forward_ok,
              "forward_vertex": L.forward_vertex_ok}
             for L in env.layers if t1 <= L.j <= j1]
    return {
        "t": env.t,
        "driving_step": t1,
        "j1": j1,
        "steps": steps,
        "pass": all(e["forward"] for e in steps),
        "pass_strong": all(e["forward_vertex"] for e in steps),
    }


def epsilon_star_values(env: Envelope, labels, b) -> dict[int, int]:
    """For each type s in ``labels``, the largest value at b among the
    type-s vertex functions, checked to agree with the maximum over every
    settled function.  Each function is evaluated once, whatever the number
    of labels; the first label whose maximum misses raises."""
    values = [z.evaluate(b) for z in env._ordered]
    full = max(values)
    out = {}
    for s in labels:
        val = max(values[i] for i in env._vertices(s)[1])
        if val != full:
            raise ConsistencyError(
                f"type-{s} maximum {val} misses the overall maximum {full}")
        out[s] = val
    return out


def epsilon_star(env: Envelope, s: int, b) -> int:
    """Largest value at b among the type-s vertex functions; checked to
    agree with the maximum over every settled function."""
    env.cartan.check_label(s)
    return epsilon_star_values(env, (s,), b)[s]


def extremality_report(env: Envelope) -> dict:
    """Extremal functions of the whole set versus per-type vertex sets.

    Containment or equality is reported, never asserted.  The extremal set
    is the one the envelope computed; this runs no LP.
    """
    ext = env.extremal
    per_s = {}
    for s in env.cartan.labels:
        zs = env.z_t(s)
        per_s[s] = {
            "z_size": len(zs),
            "containment": ext <= zs,
            "equality": ext == zs,
        }
    return {
        "t": env.t,
        "functions": len(env.functions),
        "extremal": len(ext),
        "extremal_functions": [list(map(list, _fn_key(z))) for z in
                               sorted(ext, key=_fn_key)],
        "per_s": per_s,
    }

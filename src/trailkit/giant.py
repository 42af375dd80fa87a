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

Each step after the driving one builds its blocks, checks cover and exact,
and only then matches the blocks against the module-level classes that
:func:`group_ts_classes` forms from the trails settled by the step, so an
error from grouping or matching never hides a layer error.  Blocks are
functions only; the a written for a block is that of the class it matched,
which the layer keeps in ``class_a``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from heapq import heappop, heappush
from operator import add, le

from .cartan_core import CartanData, WordJ
from . import linalg
from .errors import ConsistencyError, FalseTrailDetected, UnknownLetterError
from .rep_builder import LowestWeightModule
from .sgraph import CoeffVector, binary_fusion, integer_points
from .trails import (LinearFunctionBJ, _as_word, _face_basis, driving_trail,
                     enumerate_trails, group_ts_classes, trail_function)


def _fn_key(f: LinearFunctionBJ):
    return f.terms


class _IntegerForm:
    """The settled functions of one envelope as integer rows.

    ``funcs`` holds the functions in function order, ``index`` inverts it,
    and ``rows[i]`` holds the coefficients of ``funcs[i]`` at positions
    1..m.  The extremality test, the face-cone order and epsilon* read
    their integers from here.
    """

    def __init__(self, word: WordJ, funcs):
        self.word = word
        self.funcs = tuple(sorted(funcs, key=_fn_key))
        self.index = {f: i for i, f in enumerate(self.funcs)}
        rows = []
        for f in self.funcs:
            row = [0] * word.m
            for j, c in f.terms:
                row[j - 1] = c
            rows.append(tuple(row))
        self.rows = tuple(rows)

    @cached_property
    def by_row(self) -> dict[tuple[int, ...], LinearFunctionBJ]:
        """The function of each row."""
        return dict(zip(self.rows, self.funcs))

    @cached_property
    def columns(self) -> tuple[tuple[int, ...], ...]:
        """Per position j (index j-1), the coefficients of every function."""
        return tuple(zip(*self.rows))

    @cached_property
    def cone(self) -> tuple[tuple, ...]:
        """Per function, (residue, face coordinates, their sum).

        Back-substitution from the highest position down subtracts c copies
        of the closed face whose top position u carries the coefficient c,
        and leaves the coefficients at the other positions as the residue.
        The map is linear, so w - z lies in the integer span of the faces iff
        z and w share a residue, and then its face coordinates are the
        difference of theirs.
        """
        basis = _face_basis(self.word)
        tops = sorted(basis, reverse=True)
        out = []
        for row in self.rows:
            r = list(row)
            coords = []
            for u in tops:
                c = r[u - 1]
                coords.append(c)
                if c:
                    for j, v in basis[u].terms:
                        r[j - 1] -= c * v
            out.append((tuple(r), tuple(coords), sum(coords)))
        return tuple(out)


def _extremal_subset(form: _IntegerForm, funcs,
                     known: frozenset = frozenset(), among=None
                     ) -> frozenset[LinearFunctionBJ]:
    """Extremal elements of ``funcs``, a subset of the functions of
    ``form``, that lie in ``among`` (all of ``funcs`` by default).

    ``known`` holds extremal elements of the whole set.  A point extremal
    in a set is extremal in every subset that contains it, so only the
    points of ``among`` outside ``known`` are tested, by
    :func:`linalg.extremal_points` on the rows of ``funcs``; the others
    still span the hull.
    """
    idx = sorted(map(form.index.__getitem__, funcs))
    fs = [form.funcs[i] for i in idx]
    if among is None:
        among = funcs
    out = {f for f in fs if f in among and f in known}
    todo = [k for k, f in enumerate(fs) if f in among and f not in known]
    if todo:
        pts = [form.rows[i] for i in idx]
        out.update(fs[k] for k in linalg.extremal_points(pts, todo))
    return frozenset(out)


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
    c: tuple[int, ...]
    driving: LinearFunctionBJ
    points: tuple[tuple[int, ...], ...]
    functions: frozenset[LinearFunctionBJ]
    lower: frozenset[LinearFunctionBJ]
    vertices: frozenset[LinearFunctionBJ]
    lower_vertices: frozenset[LinearFunctionBJ]
    exceptional: bool = False


@dataclass(frozen=True)
class EnvelopeLayer:
    """One word step.  ``class_a`` pairs the driver of each
    non-exceptional block with the a of the module class it matched."""

    j: int
    s: int
    blocks: tuple[ClassBlock, ...]
    discarded: tuple[LinearFunctionBJ, ...]
    functions: frozenset[LinearFunctionBJ]
    class_a: tuple[tuple[LinearFunctionBJ, tuple[int, ...]], ...]
    forward_ok: bool
    forward_vertex_ok: bool


@dataclass(frozen=True)
class Envelope:
    """The full per-step decomposition plus the whole-word sweep per type.

    ``extremal`` holds the extremal elements of ``functions``, and ``form``
    holds ``functions`` as integer rows.
    """

    t: int
    word: WordJ
    layers: tuple[EnvelopeLayer, ...]
    global_blocks: tuple[ClassBlock, ...]
    functions: frozenset[LinearFunctionBJ]
    driving: LinearFunctionBJ
    extremal: frozenset[LinearFunctionBJ]
    form: _IntegerForm = field(repr=False, compare=False)

    @property
    def cartan(self) -> CartanData:
        return self.word.cartan

    @cached_property
    def _type_vertices(self) -> dict:
        """Per type s, the vertex functions of the whole-word type-s
        decomposition and their indices in ``form``."""
        index = self.form.index
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

    def partial_labels(self, labels) -> list[int]:
        """The labels s of ``labels`` whose type-s vertex functions miss a
        settled function.  At any other label epsilon* is the maximum over
        every settled function, so :func:`epsilon_star` has nothing
        to check there."""
        n = len(self.form.funcs)
        return [s for s in labels if len(self._vertices(s)[1]) < n]

    def z_t(self, s: int) -> frozenset[LinearFunctionBJ]:
        """Vertex functions of the whole-word type-s decomposition."""
        return self._vertices(s)[0]

    def to_json_dict(self) -> dict:
        layers = []
        for L in self.layers:
            a_of = dict(L.class_a)
            classes = []
            for b in sorted(L.blocks, key=lambda b: _fn_key(b.driving)):
                classes.append({
                    "s": b.s,
                    "a": () if b.exceptional else a_of[b.driving],
                    "c": b.c,
                    "z_vertices": sorted(map(_fn_key, b.vertices)),
                    "kz_size": len(b.points),
                })
            layers.append({
                "j": L.j,
                "classes": classes,
                "checks": {"54": True, "56": L.forward_ok,
                           "57": L.forward_vertex_ok},
            })
        return {"t": self.t, "layers": layers}


@lru_cache(maxsize=1024)
def _shape(c: tuple[int, ...]):
    """The S-graph of c and the sorted lattice points of K(c).

    Both are immutable and depend on c alone, so a process fuses each
    shape once, whatever envelope asks for it; the memo is bounded, and
    nothing needs to clear it.  A miss calls ``binary_fusion`` and
    ``integer_points`` through this module's globals.
    """
    cv = CoeffVector.make(c)
    return binary_fusion(cv), tuple(sorted(integer_points(cv)))


def _make_block(form: _IntegerForm, s: int, step: int | None,
                z: LinearFunctionBJ, c: tuple[int, ...]) -> ClassBlock:
    """The block driven by z with coefficients c: the point c' of K(c) is
    the function z + sum_u c'_u F_s^{u+1}.  Each point is expanded on an
    integer row, and a row of ``form`` gives back its own function."""
    word = form.word
    basis = _face_basis(word)
    faces = [basis[word.position(s, k)].terms
             for k in range(2, word.count(s) + 1)]
    g, pts = _shape(c)
    known = form.by_row
    base = [0] * word.m
    for j, x in z.terms:
        base[j - 1] = x
    funcs = []
    for p in pts:
        row = base[:]
        for face, cp in zip(faces, p):
            if cp:
                for j, v in face:
                    row[j - 1] += cp * v
        row = tuple(row)
        f = known.get(row)
        if f is None:
            f = LinearFunctionBJ(tuple((j, x) for j, x in
                                       enumerate(row, start=1) if x))
        funcs.append(f)
    functions = frozenset(funcs)
    if len(functions) != len(funcs):
        raise ConsistencyError("distinct lattice points expanded to one "
                               "function")
    lower = set()
    for p, f in zip(pts, funcs):
        is_lower = not p or p[-1] == 0
        if step is not None:
            below = not f.terms or f.terms[-1][0] < step
            if below != is_lower:
                raise ConsistencyError("support bound disagrees with the "
                                       "last point coordinate")
        if is_lower:
            lower.add(f)
    # S-graph vertex functions are lattice points, so they are expanded
    # already; the lower ones are the vertices of the face c'_{n-1} = 0
    expanded = dict(zip(pts, funcs))
    vertices = frozenset(expanded[p] for p in g.functions())
    lower = frozenset(lower)
    return ClassBlock(s, c, z, pts, functions, lower, vertices,
                      vertices & lower)


def _exceptional_block(t: int, zt1: LinearFunctionBJ,
                       settled: bool) -> ClassBlock:
    """The lone driving function, which belongs to no type-t class."""
    lower = frozenset({zt1}) if settled else frozenset()
    return ClassBlock(t, (), zt1, ((),), frozenset({zt1}), lower,
                      frozenset({zt1}), lower, exceptional=True)


def _linear_extension(form: _IntegerForm, cands):
    """Deterministic linear extension of the face-cone order, least first:
    each pick is the first candidate, in function order, that no other
    remaining candidate lies below.

    ``cands`` pairs each candidate's index in ``form`` with its coefficient
    tuple.  z lies below w iff they share a residue and the face
    coordinates of w dominate those of z (``_IntegerForm.cone``); the
    coordinate sum of w is then the larger, so each candidate is compared
    only with those of its residue and a larger sum.  Kahn's algorithm with
    a min-heap of positions in function order makes the picks.
    """
    ordered = sorted(cands)
    cone = form.cone
    groups: dict[tuple, list] = {}
    for k, (i, _) in enumerate(ordered):
        residue, coords, total = cone[i]
        groups.setdefault(residue, []).append((total, k, coords))
    above = [[] for _ in ordered]
    below = [0] * len(ordered)     # remaining candidates below each one
    for group in groups.values():
        group.sort()
        for a, (total, k, coords) in enumerate(group):
            for total2, k2, coords2 in group[a + 1:]:
                if total2 > total and all(map(le, coords, coords2)):
                    above[k].append(k2)
                    below[k2] += 1
    heap = [k for k, n in enumerate(below) if n == 0]
    out = []
    while heap:
        k = heappop(heap)
        out.append(ordered[k])
        for k2 in above[k]:
            below[k2] -= 1
            if below[k2] == 0:
                heappush(heap, k2)
    return out


def _candidates(form: _IntegerForm, s: int, n: int, pool):
    """The functions of ``pool`` that are non-positive at the first n
    occurrences of s, as (index in ``form``, coefficient tuple) pairs."""
    word = form.word
    positions = [word.position(s, k) - 1 for k in range(1, n + 1)]
    out = []
    for i in sorted(map(form.index.__getitem__, pool)):
        row = form.rows[i]
        coeffs = [row[p] for p in positions]
        if all(x <= 0 for x in coeffs):
            out.append((i, tuple(-x for x in coeffs[:-1])))
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
    lower = _union(b.lower for b in blocks)
    if not prev <= lower:
        raise _escaped(j, blocks, min(prev - lower, key=_fn_key),
                       "settled function missing from every lower block")
    constructed = _union(b.functions for b in blocks)
    if truth - constructed:
        raise _escaped(j, blocks, min(truth - constructed, key=_fn_key),
                       "settled function not produced by any block")
    if constructed - truth:
        raise _escaped(j, blocks, min(constructed - truth, key=_fn_key),
                       "block predicts a function with no trail behind it")


def _check_classes(j: int, s: int, trails, blocks, fn_of):
    """Cross-check blocks against the module-level type-s classes of the
    trails settled by step j, and return the (driver, a) pair of each
    matched block.

    Each non-exceptional block must correspond to exactly one class whose
    l-minimal function is the block driver, with equal coefficient tuples,
    member functions and member coordinates.  ``fn_of`` maps each trail's
    exponents to its function.
    """
    classes = {fn_of[cls.l_min.exps]: cls
               for cls in group_ts_classes(trails, s, j)}
    matched = []
    for b in blocks:
        if b.exceptional:
            continue
        cls = classes.pop(b.driving, None)
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
        matched.append((b.driving, cls.a))
    for cls in classes.values():
        raise FalseTrailDetected(
            j, cls.c, fn_of[cls.l_min.exps],
            detail="module class missed by the block construction")
    return tuple(matched)


def _decompose(form: _IntegerForm, t: int, s: int, step: int | None, pool,
               zt1: LinearFunctionBJ, built: dict):
    """Disjoint type-s blocks driven by the functions of ``pool``, least
    driver first; a driver already inside a block is discarded.

    ``step`` is the word step of the per-step pass; ``None`` sweeps the
    whole word, including classes settling after the last occurrence of s.
    ``built`` is the envelope's memo of per-step blocks by (s, driver, c).
    Since len(c) + 1 is the number of occurrences of s up to the step, the
    key fixes the step, and so every function of the block: the sweep uses
    a stored block as it is.
    """
    word = form.word
    blocks, discarded = [], []
    if s == t:
        blocks.append(_exceptional_block(t, zt1, settled=True))
    n = word.count(s, upto=step)
    for i, c in _linear_extension(form, _candidates(form, s, n, pool)):
        z = form.funcs[i]
        if any(z in b.functions for b in blocks):
            discarded.append(z)
            continue
        if step is not None:
            b = built[s, z, c] = _make_block(form, s, step, z, c)
        else:
            b = built.get((s, z, c)) or _make_block(form, s, None, z, c)
        blocks.append(b)
    _check_disjoint(word.m if step is None else step, blocks)
    return tuple(blocks), tuple(discarded)


def _forward(form: _IntegerForm, blocks, later,
             extremal) -> tuple[bool, bool]:
    """Forward checks of one layer against the next (``None`` after the
    last step): its vertex functions lie in the next lower blocks, and
    their extremal elements among the next lower vertex sets.

    Only vertex functions outside those vertex sets need a decision, and
    ``extremal``, the extremal elements of the functions of ``form``,
    decides those it holds."""
    if later is None:
        return True, True
    lhs = _union(b.vertices for b in blocks)
    outside = lhs - _union(b.lower_vertices for b in later)
    return (lhs <= _union(b.lower for b in later),
            not (outside and _extremal_subset(form, lhs, extremal, outside)))


def construct_envelope(M: LowestWeightModule, word, *,
                       spurious: LinearFunctionBJ | None = None) -> Envelope:
    """Build and verify the step decomposition of all trail functions of
    type ``M.t``.

    ``spurious`` smuggles one extra function into the settled layers so the
    detection path can be exercised end to end.
    """
    t, cartan = M.t, M.cartan
    w = _as_word(cartan, word)
    trails = enumerate_trails(M, w)
    fn_of = {K.exps: trail_function(K) for K in trails}
    funcs = frozenset(fn_of.values())
    if len(funcs) != len(trails):
        raise ConsistencyError("two trails define one function")
    all_funcs = funcs if spurious is None else funcs | {spurious}
    form = _IntegerForm(w, all_funcs)
    t1 = w.position(t, 1)
    zt1 = trail_function(driving_trail(w, t))
    built: dict = {}    # (s, driver, c) -> per-step block
    # a function settles at the last position where it is non-zero
    settling = [[] for _ in range(w.m + 1)]
    for f, row in zip(form.funcs, form.rows):
        settling[max((u for u, x in enumerate(row, 1) if x), default=0)
                 ].append(f)

    # the trails that trivialize at each step; those with phi <= j are the
    # ones that step j groups into classes
    trivializing = [[] for _ in range(w.m + 1)]
    for K in trails:
        trivializing[K.phi].append(K)
    settled_trails: list = []

    steps = []          # (j, s, blocks, discarded, settled, class_a)
    prev: frozenset[LinearFunctionBJ] = frozenset(settling[0])
    for j, s in enumerate(w.letters, start=1):
        truth = prev.union(settling[j])
        settled_trails += trivializing[j]
        blocks, discarded, class_a = (), (), ()
        if j < t1:
            if truth:
                raise FalseTrailDetected(
                    j, None, min(truth, key=_fn_key),
                    detail="function settles before the driving step")
        elif j == t1:
            blocks = (_exceptional_block(t, zt1, settled=False),)
            if truth != frozenset({zt1}):
                f = min(truth ^ {zt1}, key=_fn_key)
                raise FalseTrailDetected(
                    j, (), f, nearest=zt1,
                    detail="driving layer is not the single driving function")
        else:
            blocks, discarded = _decompose(form, t, s, j, prev, zt1, built)
            _check_layer(j, prev, truth, blocks)
            class_a = _check_classes(j, s, settled_trails, blocks, fn_of)
        steps.append((j, s, blocks, discarded, truth, class_a))
        prev = truth
    extremal = _extremal_subset(form, all_funcs)
    later = [step[2] for step in steps[1:]] + [None]
    layers = tuple(
        EnvelopeLayer(*step, *_forward(form, step[2], nxt, extremal))
        for step, nxt in zip(steps, later))

    global_blocks = []
    for s in cartan.labels:
        blocks, _ = _decompose(form, t, s, None, all_funcs, zt1, built)
        constructed = _union(b.functions for b in blocks)
        if constructed != all_funcs:
            raise _escaped(w.m, blocks,
                           min(constructed ^ all_funcs, key=_fn_key),
                           f"whole-word type-{s} decomposition does not match",
                           class_key=("sweep", s))
        global_blocks.extend(blocks)
    return Envelope(t, w, layers, tuple(global_blocks), all_funcs, zt1,
                    extremal, form)


def check_constructibility(env: Envelope) -> dict:
    """Forward-containment report from the driving step to the end of the
    word; failures are entries."""
    t1 = env.word.position(env.t, 1)
    steps = [{"j": L.j, "s": L.s, "forward": L.forward_ok,
              "forward_vertex": L.forward_vertex_ok}
             for L in env.layers if t1 <= L.j]
    return {
        "t": env.t,
        "driving_step": t1,
        "steps": steps,
        "pass": all(e["forward"] for e in steps),
        "pass_strong": all(e["forward_vertex"] for e in steps),
    }


def epsilon_star(env: Envelope, labels, elements) -> list[dict[int, int]]:
    """For each crystal element, given as its (position, exponent) pairs,
    and each type s in ``labels``: the largest value at the element among
    the type-s vertex functions, checked to agree with the maximum over
    every settled function.

    All settled functions are evaluated at once, as a sum of the integer
    columns of ``env.form`` at the element's positions.  The first element,
    and in it the first label, whose maximum misses raises; an unknown
    label raises ``UnknownLetterError`` before any element is read.
    """
    columns = env.form.columns
    vertex = [(s, env._vertices(s)[1]) for s in labels]
    zero = [0] * len(env.form.funcs)
    out = []
    for b in elements:
        values = zero
        for j, m in b:
            col = columns[j - 1]
            values = list(map(add, values, col if m == 1 else
                              [m * c for c in col]))
        full = max(values)
        vals = {}
        for s, idx in vertex:
            val = max(map(values.__getitem__, idx))
            if val != full:
                raise ConsistencyError(f"type-{s} maximum {val} misses the "
                                       f"overall maximum {full}")
            vals[s] = val
        out.append(vals)
    return out


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
        "extremal_functions": sorted(map(_fn_key, ext)),
        "per_s": per_s,
    }

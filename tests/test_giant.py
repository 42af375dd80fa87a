from __future__ import annotations

from collections import Counter

import json
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import ENVELOPE_FIXTURES, GCM, cartan_key

from trailkit import (build_fundamental, construct_envelope, giant, linalg,
                      trails, validate_gcm)
from trailkit.bj_crystal import generate_binf
from trailkit.cartan_core import _standard_gcm, reduced_words_of_w0
from trailkit.errors import (
    ConsistencyError,
    FalseTrailDetected,
    UnknownLetterError,
)
from trailkit.giant import (Envelope, check_constructibility, epsilon_star,
                           extremality_report)
from trailkit.sgraph import CoeffVector, binary_fusion
from trailkit.trails import (
    LinearFunctionBJ,
    driving_trail,
    enumerate_trails,
    trail_function,
)

from oracles import (evaluate, face_cone_coordinates, lp_extremal_functions,
                     xt_leq)


def _dicts(funcs):
    return sorted(sorted(f.as_dict().items()) for f in funcs)


# --- reference algorithms ---------------------------------------------------
# The envelope runs integer kernels for extremality and for the face-cone
# order.  These are the plain algorithms they replaced, kept as oracles;
# the extremality LP is ``oracles.lp_extremal_functions``.


def _expand(driving, faces, point):
    """The function of a lattice point by function arithmetic: the driver
    plus c'_u copies of the face F_s^{u+1}."""
    f = driving
    for u, cp in enumerate(point, start=1):
        if cp:
            f = f + faces[u + 1].scale(cp)
    return f


def _faces(word, b) -> dict:
    """The closed faces F_s^k of block b, by k."""
    basis = trails._face_basis(word)
    return {k: basis[word.position(b.s, k)] for k in range(2, len(b.c) + 2)}


def _expanded(word, b) -> frozenset:
    """The functions of block b, by :func:`_expand` over its points."""
    faces = _faces(word, b)
    return frozenset(_expand(b.driving, faces, p) for p in b.points)


def _quadratic_linear_extension(word, cands):
    """The face-cone linear extension on (function, c) pairs, comparing
    every pair of candidates: each pick is the first candidate, in function
    order, that no other remaining candidate lies below."""
    ordered = sorted(cands, key=lambda zc: zc[0].terms)
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
    below = [0] * n
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


def _named(form, cands):
    """Candidates given by index in an integer form, as (function, c)."""
    return [(form.funcs[i], c) for i, c in cands]


def _kernel_checkers(counts: Counter) -> dict:
    """Stand-ins for ``giant._extremal_subset``, ``giant._forward`` and
    ``giant._linear_extension`` that check every result against the
    reference algorithms, counting the checks in ``counts``."""
    extremal, extend = giant._extremal_subset, giant._linear_extension
    forward = giant._forward

    def extremal_checked(form, funcs, known=frozenset(), among=None):
        got = extremal(form, funcs, known, among)
        want = lp_extremal_functions(funcs)
        assert got == (want if among is None else want & among), sorted(
            f.terms for f in funcs)
        counts["extremal"] += 1
        return got

    def forward_checked(form, blocks, later, known):
        got = forward(form, blocks, later, known)
        if later is not None:
            lhs = giant._union(b.vertices for b in blocks)
            assert got == (lhs <= giant._union(b.lower for b in later),
                           lp_extremal_functions(lhs)
                           <= giant._union(b.lower_vertices for b in later))
            counts["forward"] += 1
        return got

    def extend_checked(form, cands):
        got = extend(form, cands)
        assert _named(form, got) == _quadratic_linear_extension(
            form.word, _named(form, cands))
        counts["extension"] += 1
        return got

    return {"_extremal_subset": extremal_checked,
            "_forward": forward_checked,
            "_linear_extension": extend_checked}


# --- every fixture envelope is verified end to end -------------------------


def test_fixture_envelopes_verified(envelopes):
    assert len(envelopes) == 13
    for (key, t), env in envelopes.items():
        assert len(env.layers) == env.word.m
        for L in env.layers:
            assert (L.forward_ok, L.forward_vertex_ok) == (True, True), (
                key, t, L.j)
            assert not L.discarded


def test_envelope_functions_are_the_trail_functions(envelopes, modules,
                                                    full_words):
    for (key, t), env in envelopes.items():
        M = modules["B2" if key == "B2r" else key, t]
        w = full_words[key]
        funcs = {trail_function(K) for K in enumerate_trails(M, w)}
        assert env.functions == funcs, (key, t)
        assert env.driving == trail_function(driving_trail(w, t))
        assert env.driving in env.functions


def test_block_invariants(envelopes):
    for (key, t), env in envelopes.items():
        for L in env.layers:
            for b in L.blocks:
                assert b.s == L.s
                assert b.driving in b.functions
                assert len(b.points) == len(b.functions)
                assert all(len(p) == len(b.c) for p in b.points)
                assert all(x >= 0 for x in b.c)
                assert b.vertices <= b.functions
                assert b.lower <= b.functions
                assert b.lower_vertices <= b.lower
        for b in env.global_blocks:
            assert b.vertices <= b.functions <= env.functions
        _assert_lower_vertices_match_the_lp(env)


def _assert_lower_vertices_match_the_lp(env):
    """Every per-step and global block's lower vertex set is the LP's
    extremal subset of its lower set and, when the last entry of c is
    non-zero, the expanded label-n vertex functions of its S-graph."""
    oracle = {}     # global blocks reuse per-step lower sets
    for b in [b for L in env.layers for b in L.blocks] + list(
            env.global_blocks):
        if b.lower not in oracle:
            oracle[b.lower] = lp_extremal_functions(b.lower)
        assert b.lower_vertices == oracle[b.lower], (b.s, b.c)
        if b.c and b.c[-1] != 0:
            faces = _faces(env.word, b)
            g = binary_fusion(CoeffVector.make(b.c))
            label_n = g.with_label(g.coeffs.n)
            assert b.lower_vertices == frozenset(
                _expand(b.driving, faces, g.vertices[i].func)
                for i in label_n), (b.s, b.c)


def test_blocks_expand_as_function_arithmetic(envelopes, cartans):
    # _make_block expands points on integer rows; the function arithmetic
    # of _expand gives the same functions, on every fixture envelope and on
    # every w0 word of B3 with t = 3
    envs = list(envelopes.values())
    M = build_fundamental(cartans["B3"], 3)
    for word in reduced_words_of_w0(cartans["B3"]):
        try:
            envs.append(construct_envelope(M, word))
        except FalseTrailDetected:
            pass
    blocks = 0
    for env in envs:
        for b in [b for L in env.layers for b in L.blocks] + list(
                env.global_blocks):
            if not b.exceptional:
                assert b.functions == _expanded(env.word, b), (b.s, b.c)
                blocks += 1
    assert len(envs) > 13 and blocks > 100


# --- extremality once per envelope ------------------------------------------


def test_envelope_extremal_set_is_the_plain_lp_result(envelopes):
    for (key, t), env in envelopes.items():
        assert env.extremal == lp_extremal_functions(env.functions), (key, t)
        rep = extremality_report(env)
        assert rep["extremal"] == len(env.extremal)


_points = st.lists(st.dictionaries(st.integers(1, 4), st.integers(-3, 3),
                                   max_size=4), max_size=10)


@settings(max_examples=100, deadline=None)
@given(_points, st.lists(st.booleans(), max_size=10))
def test_known_extremal_points_match_the_plain_lp(full_words, maps, keep):
    whole = frozenset(LinearFunctionBJ.from_coeffs(m) for m in maps)
    form = giant._IntegerForm(full_words["G2"], whole)
    known = giant._extremal_subset(form, whole)
    assert known == lp_extremal_functions(whole)
    part = {f for f, k in zip(form.funcs, keep) if k}
    assert (giant._extremal_subset(form, part, known)
            == giant._extremal_subset(form, part)
            == lp_extremal_functions(part))
    assert giant._extremal_subset(form, whole, among=part) == known & part


def _counting_lp(monkeypatch):
    calls = []
    real = linalg.in_convex_hull

    def counting(point, gens):
        calls.append(len(gens))
        return real(point, gens)

    monkeypatch.setattr(linalg, "in_convex_hull", counting)
    return calls


def test_known_extremal_points_skip_their_lp(monkeypatch, full_words):
    f = LinearFunctionBJ.from_coeffs
    word = full_words["G2"]
    calls = _counting_lp(monkeypatch)
    # the corners have witnesses; (1,1) has none (w = p is beaten by (0,3)
    # and w = 4p - (4,4) vanishes), so it alone is tested by LP
    whole = frozenset({f({1: 1, 2: 1}), f({}), f({2: 3}), f({1: 3})})
    form = giant._IntegerForm(word, whole)
    known = giant._extremal_subset(form, whole)
    assert known == whole - {f({1: 1, 2: 1})}
    assert calls == [3]
    calls.clear()
    assert giant._extremal_subset(form, whole, known) == known
    assert calls == [3]     # only the one point not known to be extremal
    calls.clear()
    part = whole - {f({1: 3})}    # (1,1) is extremal here: w = 3p - (1,4)
    assert giant._extremal_subset(form, part, known) == part
    assert calls == []
    # three interior points: (2,2) is the midpoint of two corners and needs
    # no LP; (2,1) is tested without (1,2), which the first LP found inside
    square = frozenset(f({1: x, 2: y}) for x, y in (
        (0, 0), (4, 0), (0, 4), (4, 4), (1, 2), (2, 1), (2, 2)))
    calls.clear()
    assert (giant._extremal_subset(giant._IntegerForm(word, square), square)
            == square - {f({1: 1, 2: 2}), f({1: 2, 2: 1}), f({1: 2, 2: 2})})
    assert calls == [6, 5]


def test_minuscule_forward_checks_and_report_run_no_lp(monkeypatch, cartans):
    calls = _counting_lp(monkeypatch)
    in_forward = []     # (vertex functions, LPs) per _forward call
    forward = giant._forward

    def marked(form, blocks, *rest):
        before = len(calls)
        out = forward(form, blocks, *rest)
        in_forward.append((len(giant._union(b.vertices for b in blocks)),
                           len(calls) - before))
        return out

    monkeypatch.setattr(giant, "_forward", marked)
    M = build_fundamental(cartans["C3"], 1)     # minuscule, dimension 6
    env = construct_envelope(M, (3, 2, 3, 1, 2, 3, 1, 2, 1))
    assert env.extremal == env.functions and len(env.functions) == 5
    assert calls == []      # the global pass finds a witness for all five
    assert len(in_forward) == env.word.m
    assert max(n for n, _ in in_forward) >= 3
    assert sum(lps for _, lps in in_forward) == 0
    calls.clear()
    rep = extremality_report(env)
    assert calls == []
    assert rep["functions"] == rep["extremal"] == len(env.functions)


def test_blocks_run_no_lp(monkeypatch, cartans):
    calls = _counting_lp(monkeypatch)
    in_blocks = []
    make = giant._make_block

    def marked(*args):
        before = len(calls)
        block = make(*args)
        in_blocks.append(len(calls) - before)
        return block

    monkeypatch.setattr(giant, "_make_block", marked)
    for t in cartans["C3"].labels:
        construct_envelope(build_fundamental(cartans["C3"], t),
                           (3, 2, 3, 1, 2, 3, 1, 2, 1))
    # witnesses certify every extremal function of these envelopes, so no
    # LP runs at all; the counter itself is checked in
    # test_known_extremal_points_skip_their_lp
    assert in_blocks and calls == []


def test_sweep_reuses_the_per_step_blocks(monkeypatch):
    built = Counter()
    make = giant._make_block

    def counting(form, s, step, z, c):
        built[s, z, c] += 1
        return make(form, s, step, z, c)

    monkeypatch.setattr(giant, "_make_block", counting)
    c3 = validate_gcm([[2, -1, 0], [-1, 2, -2], [0, -1, 2]])
    word = (3, 2, 3, 1, 2, 3, 1, 2, 1)
    reused = 0
    for t in c3.labels:
        built.clear()
        env = construct_envelope(build_fundamental(c3, t), word)
        assert max(built.values()) == 1, t
        shaped = [b for b in env.global_blocks if not b.exceptional]
        for b in shaped:
            assert b == make(env.form, b.s, None, b.driving, b.c)
        per_step = {(b.s, b.driving, b.c): b for L in env.layers
                    for b in L.blocks if not b.exceptional}
        # every per-step block matched a module class, whose a its layer keeps
        for L in env.layers:
            assert [z for z, _ in L.class_a] == [
                b.driving for b in L.blocks if not b.exceptional], (t, L.j)
        shared = [b for b in shaped if (b.s, b.driving, b.c) in per_step]
        # the sweep takes a stored block as it is, not a copy
        assert all(b is per_step[b.s, b.driving, b.c] for b in shared), t
        reused += len(shared)
    assert reused > 0


def test_layer_accessor(envelopes):
    # layer j, 1-based, is the one of word step j
    env = envelopes["G2", 2]
    assert [L.j for L in env.layers] == list(range(1, 7))


# --- the six-step type-G2 second fundamental, frozen layer by layer --------


def test_g2_t2_layer_shapes(envelopes):
    env = envelopes["G2", 2]
    shapes = []
    for L in env.layers:
        a_of = dict(L.class_a)
        shapes.append((L.j, L.s, len(L.functions), sorted(
            (b.s, b.c, a_of.get(b.driving), len(b.functions),
             len(b.vertices), len(b.lower), len(b.lower_vertices),
             b.exceptional)
            for b in L.blocks)))
    assert shapes == [
        (1, 1, 0, []),
        (2, 2, 1, [(2, (), None, 1, 1, 0, 0, True)]),
        (3, 1, 2, [(1, (1,), (1, 0), 2, 2, 1, 1, False)]),
        (4, 2, 4, [(2, (), None, 1, 1, 1, 1, True),
                   (2, (2,), (2, 0), 3, 2, 1, 1, False)]),
        (5, 1, 5, [(1, (0, 0), (1, 1, 1), 1, 1, 1, 1, False),
                   (1, (0, 1), (1, 2, 0), 2, 2, 1, 1, False),
                   (1, (1, 0), (1, 0, 2), 2, 2, 2, 2, False)]),
        (6, 2, 6, [(2, (), None, 1, 1, 1, 1, True),
                   (2, (0, 1), (2, 3, 0), 2, 2, 1, 1, False),
                   (2, (2, 0), (2, 0, 3), 3, 2, 3, 2, False)]),
    ]


def test_g2_t2_type_decompositions(envelopes):
    env = envelopes["G2", 2]
    assert _dicts(env.functions) == [
        [(1, -1), (2, 1)], [(2, -2), (3, 1)], [(2, -1), (4, 1)],
        [(3, -1), (4, 2)], [(4, -1), (5, 1)], [(6, 1)],
    ]
    assert _dicts(env.z_t(1)) == _dicts(env.functions)
    assert _dicts(env.z_t(2)) == [
        [(1, -1), (2, 1)], [(2, -2), (3, 1)],
        [(3, -1), (4, 2)], [(4, -1), (5, 1)], [(6, 1)],
    ]


def test_g2_t2_extremality_report(envelopes):
    rep = extremality_report(envelopes["G2", 2])
    assert rep["t"] == 2
    assert rep["functions"] == 6
    assert rep["extremal"] == 5
    # the type-1 vertex set carries one interior function, the type-2 set
    # is exactly the extremal set; both contain it
    assert rep["per_s"][1] == {"z_size": 6, "containment": True,
                               "equality": False}
    assert rep["per_s"][2] == {"z_size": 5, "containment": True,
                               "equality": True}


def test_g2_t2_epsilon_star(envelopes):
    env = envelopes["G2", 2]
    elems = [(), ((2, 1),), ((4, 2), (5, 1))]
    assert epsilon_star(env, (1, 2), elems) == [
        {1: val, 2: val} for val in (0, 1, 4)]


def test_epsilon_star_values_match_brute_force(envelopes, full_words):
    for (key, t), env in envelopes.items():
        labels = env.cartan.labels
        vertex_sets = {s: frozenset().union(*(b.vertices
                                              for b in env.global_blocks
                                              if b.s == s))
                       for s in labels}
        for s in labels:
            assert env.z_t(s) == vertex_sets[s]
            assert env.z_t(s) is env.z_t(s)
        for b in generate_binf(full_words[key], 3):
            (vals,) = epsilon_star(env, labels, [b])
            full = max(evaluate(z, dict(b)) for z in env.functions)
            for s in labels:
                brute = max(evaluate(z, dict(b)) for z in vertex_sets[s])
                assert vals[s] == brute == full, (key, t, s, b)


def test_epsilon_star_over_many_elements_matches_each_element(envelopes,
                                                              full_words):
    for (key, t), env in envelopes.items():
        labels = env.cartan.labels
        elems = generate_binf(full_words[key], 4)
        many = epsilon_star(env, labels, elems)
        assert len(many) == len(elems)
        for b, vals in zip(elems, many):
            assert [vals] == epsilon_star(env, labels, [b])
            full = max(evaluate(z, dict(b)) for z in env.functions)
            assert vals == {s: full for s in labels}, (key, t, b)


def test_epsilon_star_raises_when_vertices_miss_the_maximum(envelopes):
    env = envelopes["G2", 2]
    top = LinearFunctionBJ.from_coeffs({6: 1})
    assert top in env.z_t(1) and top in env.z_t(2)
    blocks = tuple(b._replace(vertices=b.vertices - {top}) if b.s == 1 else b
                   for b in env.global_blocks)
    bad = Envelope(env.t, env.word, env.layers, blocks, env.functions,
                   env.driving, env.extremal, env.form)
    assert top not in bad.z_t(1)
    b = ((6, 5),)   # only the removed function is non-zero here
    assert epsilon_star(bad, (2,), [b]) == [{2: 5}]
    message = "type-1 maximum 0 misses the overall maximum 5"
    with pytest.raises(ConsistencyError, match=message):
        epsilon_star(bad, (1,), [b])
    with pytest.raises(ConsistencyError, match=message):
        epsilon_star(bad, (1, 2), [b])
    assert epsilon_star(env, (1, 2), [b]) == [{1: 5, 2: 5}]


def test_partial_labels_miss_a_settled_function(envelopes):
    # a label is partial when its vertex functions miss a settled function;
    # at every other label epsilon* is the overall maximum, which the
    # labels skipped by `verify` keep getting from epsilon_star
    partial = {}
    for (key, t), env in envelopes.items():
        labels = tuple(env.cartan.labels)
        got = env.partial_labels(labels)
        assert got == [s for s in labels if env.z_t(s) != env.functions]
        partial[key, t] = got
        elems = generate_binf(env.word, 3)
        for b in elems:
            full = max(evaluate(f, dict(b)) for f in env.functions)
            assert epsilon_star(env, labels, [b]) == [{
                s: full for s in labels}]
    assert {k: v for k, v in partial.items() if v} == {
        ("B2r", 1): [2], ("C2", 2): [1], ("G2", 2): [2]}
    with pytest.raises(UnknownLetterError):
        envelopes["A2", 1].partial_labels((1, 7))


def test_construct_envelope_fuses_each_shape_once(monkeypatch):
    # S-graphs are memoized per process by shape, and earlier tests may have
    # filled the memo: here each shape is fused at most once, and building
    # the same envelope again fuses nothing.
    fused = Counter()
    fuse = giant.binary_fusion

    def counting(cv):
        fused[cv.c] += 1
        return fuse(cv)

    monkeypatch.setattr(giant, "binary_fusion", counting)
    c3 = validate_gcm([[2, -1, 0], [-1, 2, -2], [0, -1, 2]])
    word = (3, 2, 3, 1, 2, 3, 1, 2, 1)
    shapes, blocks = set(), 0
    for t in c3.labels:
        M = build_fundamental(c3, t)
        env = construct_envelope(M, word)
        shaped = [b for L in env.layers for b in L.blocks
                  if not b.exceptional]
        shaped += [b for b in env.global_blocks if not b.exceptional]
        shapes |= {b.c for b in shaped}
        blocks += len(shaped)
        before = sum(fused.values())
        assert construct_envelope(M, word) == env
        assert sum(fused.values()) == before, t
    assert all(n == 1 for n in fused.values())
    assert set(fused) <= shapes
    for c in shapes:    # every shape is held, with its sorted points
        g, pts = giant._shape(c)
        assert giant._shape(c)[0] is g and g.coeffs.c == c
        assert list(pts) == sorted(pts) and g.functions() <= set(pts)
    assert blocks > 3 * len(shapes)    # shapes do repeat within an envelope


def test_blocks_read_faces_from_the_word_memo(monkeypatch):
    callers = Counter()
    real = trails.face_function

    def recording(*args):
        callers[sys._getframe(1).f_globals["__name__"]] += 1
        return real(*args)

    monkeypatch.setattr(trails, "face_function", recording)
    monkeypatch.setattr(giant, "face_function", recording, raising=False)
    c3 = validate_gcm([[2, -1, 0], [-1, 2, -2], [0, -1, 2]])
    word = (3, 2, 3, 1, 2, 3, 1, 2, 1)  # a fresh WordJ: the memo starts empty
    for t in c3.labels:
        env = construct_envelope(build_fundamental(c3, t), word)
        assert any(not b.exceptional and b.c for L in env.layers
                   for b in L.blocks)
    assert callers["trailkit.giant"] == 0
    assert callers["trailkit.trails"] > 0      # the memo was built here


def _pairwise_linear_extension(word, cands):
    """The extension as computed before face-cone coordinates were shared:
    every pick compares remaining candidates pairwise through xt_leq."""
    remaining = sorted(cands, key=lambda zc: zc[0].terms)
    out = []
    while remaining:
        for idx, (z, _) in enumerate(remaining):
            if not any(xt_leq(word, w, z) for w, _ in remaining if w != z):
                out.append(remaining.pop(idx))
                break
        else:
            raise ConsistencyError("cycle in the face-cone order")
    return out


def test_linear_extension_matches_pairwise_order(monkeypatch, modules,
                                                 full_words, cartans):
    extend = giant._linear_extension
    compared = []

    def checked(form, cands):
        got = extend(form, cands)
        assert _named(form, got) == _pairwise_linear_extension(
            form.word, _named(form, cands))
        compared.append(len(cands))
        return got

    monkeypatch.setattr(giant, "_linear_extension", checked)
    for key, t in ENVELOPE_FIXTURES:
        construct_envelope(modules[cartan_key(key), t], full_words[key])
    b3 = cartans["B3"]
    words = reduced_words_of_w0(b3)
    assert len(words) == 42
    for t in b3.labels:
        M = build_fundamental(b3, t)
        for word in words:
            try:
                construct_envelope(M, word)
            except FalseTrailDetected:
                pass    # ROADMAP item 1: B3 omega_2 fails on some words
    assert max(compared) >= 5


@settings(max_examples=200, deadline=None)
@given(st.lists(st.dictionaries(st.integers(1, 6), st.integers(-2, 2),
                                max_size=4), max_size=8))
def test_linear_extension_matches_pairwise_order_off_the_face_lattice(
        full_words, coeff_maps):
    # arbitrary functions: many differences have no face-cone coordinates
    word = full_words["G2"]
    form = giant._IntegerForm(word, {LinearFunctionBJ.from_coeffs(m)
                                     for m in coeff_maps})
    cands = [(i, ()) for i in range(len(form.funcs))]
    got = _named(form, giant._linear_extension(form, cands))
    assert got == _pairwise_linear_extension(word, _named(form, cands))
    assert got == _quadratic_linear_extension(word, _named(form, cands))


# --- every reduced word of w0 in rank 3 ------------------------------------

FAMILY = ("A3", "B3", "C3")

# (type, t, word) pairs that report a false trail today (ROADMAP item 1):
# V(omega_2) of B3 and C3 has a zero weight of multiplicity 2 (B3: 3).
KNOWN_FALSE_TRAILS = {
    ("B3", 2, w) for w in (
        "132132132", "132132312", "132312132", "132312312", "132321232",
        "312132132", "312132312", "312312132", "312312312", "312321232",
        "321232132", "321232312")
} | {
    ("C3", 2, w) for w in (
        "132132132", "132132312", "132312132", "132312312",
        "312132132", "312132312", "312312132", "312312312")
}


def _family_cases():
    cases = []
    for name in FAMILY:
        cartan = validate_gcm(GCM[name])
        words = reduced_words_of_w0(cartan)
        for t in cartan.labels:
            for word in words:
                key = (name, t, "".join(map(str, word)))
                marks = ()
                if key in KNOWN_FALSE_TRAILS:
                    marks = pytest.mark.xfail(
                        strict=True, raises=FalseTrailDetected,
                        reason="false trail on a module with a weight of "
                               "multiplicity above 1 (ROADMAP item 1)")
                cases.append(pytest.param(name, t, word, marks=marks,
                                          id="-".join(map(str, key))))
    return cases


def test_family_sizes():
    sizes = {name: len(reduced_words_of_w0(validate_gcm(GCM[name])))
             for name in FAMILY}
    assert sizes == {"A3": 16, "B3": 42, "C3": 42}
    assert len(KNOWN_FALSE_TRAILS) == 20


@pytest.mark.parametrize("name,t,word", _family_cases())
def test_every_w0_word_of_rank_3(monkeypatch, cartans, name, t, word):
    # every extremal set, forward check and linear extension is checked
    # against its reference algorithm
    counts = Counter()
    for attr, checked in _kernel_checkers(counts).items():
        monkeypatch.setattr(giant, attr, checked)
    env = construct_envelope(build_fundamental(cartans[name], t), word)
    assert all((L.forward_ok, L.forward_vertex_ok) == (True, True)
               for L in env.layers)
    assert counts["forward"] == len(env.layers) - 1
    assert counts["extremal"] >= 1 and counts["extension"] > 0
    _assert_lower_vertices_match_the_lp(env)


# F4 words on which two blocks of one step share a function (ROADMAP item
# 1): the only false trails seen so far that are not "class members differ
# from the block lattice points".
F4_OVERLAPS = [(2, "134323212432314321342132", 11),
               (3, "241323243123142134213243", 12)]


@pytest.mark.parametrize("t,letters,step", [
    pytest.param(t, letters, step, id=f"F4-{t}-{letters}",
                 marks=pytest.mark.xfail(
                     strict=True, raises=FalseTrailDetected,
                     reason="two blocks overlap instead of being disjoint"))
    for t, letters, step in F4_OVERLAPS])
def test_f4_words_with_overlapping_blocks(t, letters, step):
    cartan = validate_gcm(_standard_gcm("F", 4))
    word = tuple(map(int, letters))
    try:
        construct_envelope(build_fundamental(cartan, t), word)
    except FalseTrailDetected as e:
        # pin the failure, so that another one does not pass as this xfail
        assert (e.step, e.detail) == (
            step, "two blocks overlap instead of being disjoint")
        raise


# --- small frozen fixtures --------------------------------------------------


def test_b2_t2_epsilon_star(envelopes):
    env = envelopes["B2", 2]
    assert _dicts(env.functions) == [
        [(1, -1), (2, 1)], [(2, -1), (3, 1)], [(4, 1)]]
    assert env.z_t(1) == env.z_t(2) == env.functions
    elems = [(), ((2, 1),), ((3, 2),), ((2, 1), (4, 3))]
    assert epsilon_star(env, (1, 2), elems) == [
        {1: val, 2: val} for val in (0, 1, 2, 3)]


def test_a2_t1_json_payload(envelopes):
    payload = {
        "t": 1,
        "layers": [
            {"j": 1, "classes": [{"s": 1, "a": [], "c": [], "kz_size": 1,
                                  "z_vertices": [[[1, 1]]]}],
             "checks": {"54": True, "56": True, "57": True}},
            {"j": 2, "classes": [{"s": 2, "a": [1], "c": [], "kz_size": 1,
                                  "z_vertices": [[[1, 1]]]}],
             "checks": {"54": True, "56": True, "57": True}},
            {"j": 3, "classes": [{"s": 1, "a": [], "c": [], "kz_size": 1,
                                  "z_vertices": [[[1, 1]]]}],
             "checks": {"54": True, "56": True, "57": True}},
        ],
    }
    # the report hands tuples to the writer, which writes them as lists
    assert json.loads(json.dumps(envelopes["A2", 1].to_json_dict())) == payload


def test_json_payload_checks_everywhere(envelopes):
    for env in envelopes.values():
        d = env.to_json_dict()
        assert set(d) == {"t", "layers"}
        for layer in d["layers"]:
            assert set(layer) == {"j", "classes", "checks"}
            assert layer["checks"] == {"54": True, "56": True, "57": True}
            for cls in layer["classes"]:
                assert set(cls) == {"s", "a", "c", "z_vertices", "kz_size"}


def test_minuscule_functions_all_extremal(envelopes):
    # in type A every fundamental is minuscule: every trail function is
    # extremal and every type decomposition consists of vertex functions only
    expected = {("A2", 1): 1, ("A2", 2): 2,
                ("A3", 1): 1, ("A3", 2): 2, ("A3", 3): 3}
    for (key, t), n in expected.items():
        rep = extremality_report(envelopes[key, t])
        assert rep["functions"] == rep["extremal"] == n, (key, t)
        for s, entry in rep["per_s"].items():
            assert entry == {"z_size": n, "containment": True,
                             "equality": True}, (key, t, s)


# --- constructibility reports ----------------------------------------------


def test_check_constructibility_a2():
    c = validate_gcm([[2, -1], [-1, 2]])
    env = construct_envelope(build_fundamental(c, 1), (1, 2, 1))
    assert check_constructibility(env) == {
        "t": 1, "driving_step": 1,
        "steps": [{"j": 1, "s": 1, "forward": True, "forward_vertex": True},
                  {"j": 2, "s": 2, "forward": True, "forward_vertex": True},
                  {"j": 3, "s": 1, "forward": True, "forward_vertex": True}],
        "pass": True, "pass_strong": True,
    }
    # the steps run from the driving step, here the first 2, to the end
    env = construct_envelope(build_fundamental(c, 2), (1, 2, 1))
    assert check_constructibility(env) == {
        "t": 2, "driving_step": 2,
        "steps": [{"j": 2, "s": 2, "forward": True, "forward_vertex": True},
                  {"j": 3, "s": 1, "forward": True, "forward_vertex": True}],
        "pass": True, "pass_strong": True,
    }


def test_check_constructibility_fixtures(envelopes, full_words):
    for key, t in [("B2", 1), ("C2", 2), ("G2", 1)]:
        w = full_words[key]
        rep = check_constructibility(envelopes[key, t])
        assert rep["pass"] and rep["pass_strong"], (key, t)
        assert rep["driving_step"] == w.position(t, 1)
        assert [e["j"] for e in rep["steps"]] == list(
            range(rep["driving_step"], w.m + 1))


# --- detection of functions that do not belong ------------------------------


@pytest.fixture(scope="module")
def g2_t2():
    c = validate_gcm([[2, -1], [-3, 2]])
    return build_fundamental(c, 2), (1, 2, 1, 2, 1, 2)


def test_spurious_function_in_driving_layer(g2_t2):
    M, word = g2_t2
    doubled = LinearFunctionBJ.from_coeffs({1: -2, 2: 2})
    with pytest.raises(FalseTrailDetected) as exc:
        construct_envelope(M, word, spurious=doubled)
    e = exc.value
    assert e.step == 2
    assert e.class_key == ()
    assert e.function == doubled
    assert e.nearest == LinearFunctionBJ.from_coeffs({1: -1, 2: 1})
    assert e.detail == "driving layer is not the single driving function"
    assert "false trail at step 2" in str(e)


def test_spurious_function_before_driving_step(g2_t2):
    M, word = g2_t2
    with pytest.raises(FalseTrailDetected) as exc:
        construct_envelope(M, word,
                           spurious=LinearFunctionBJ.from_coeffs({1: 3}))
    e = exc.value
    assert (e.step, e.class_key, e.nearest) == (1, None, None)
    assert e.detail == "function settles before the driving step"


def test_spurious_function_escapes_blocks(g2_t2):
    M, word = g2_t2
    cases = [
        ({5: 1}, 5, (0, 1), {3: -1, 4: 2}),
        ({4: -2, 5: 2}, 5, (0, 1), {3: -1, 4: 2}),
        ({3: -1, 4: 1}, 4, (2,), {2: -2, 3: 1}),
    ]
    for coeffs, step, class_key, near in cases:
        with pytest.raises(FalseTrailDetected) as exc:
            construct_envelope(M, word,
                               spurious=LinearFunctionBJ.from_coeffs(coeffs))
        e = exc.value
        assert e.step == step, coeffs
        assert e.class_key == class_key, coeffs
        assert e.function == LinearFunctionBJ.from_coeffs(coeffs)
        assert e.nearest == LinearFunctionBJ.from_coeffs(near), coeffs
        assert e.detail == "settled function not produced by any block"


def test_layer_errors_come_before_class_errors(g2_t2, monkeypatch):
    # a grouping error at step 5 is raised only after the layer checks of
    # step 5, so the false trail that those checks find wins
    M, word = g2_t2
    group = giant.group_ts_classes

    def failing(trails, s, j):
        if j == 5:
            raise ConsistencyError("grouping failed at step 5")
        return group(trails, s, j)

    monkeypatch.setattr(giant, "group_ts_classes", failing)
    with pytest.raises(FalseTrailDetected) as exc:
        construct_envelope(M, word,
                           spurious=LinearFunctionBJ.from_coeffs({5: 1}))
    assert exc.value.step == 5
    assert exc.value.detail == "settled function not produced by any block"
    with pytest.raises(ConsistencyError, match="grouping failed at step 5"):
        construct_envelope(M, word)


# --- guard rails -------------------------------------------------------------


def test_z_t_unknown_letter(envelopes):
    with pytest.raises(UnknownLetterError):
        envelopes["A2", 1].z_t(3)


def test_epsilon_star_unknown_letter(envelopes):
    with pytest.raises(UnknownLetterError):
        epsilon_star(envelopes["A2", 1], (7,), [])


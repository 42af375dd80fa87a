from __future__ import annotations

import gc
import itertools
import os
import random
import re
import subprocess
import sys
import weakref

import pytest
from hypothesis import given
from hypothesis import strategies as st

from trailkit import (
    LinearFunctionBJ,
    Trail,
    WordJ,
    build_fundamental,
    construct_envelope,
    driving_trail,
    enumerate_trails,
    face_function,
    group_ts_classes,
    kashiwara_function,
    trail_function,
    validate_gcm,
)
import trailkit
from trailkit import rep_builder, trails
from trailkit.cartan_core import (_standard_gcm, is_reduced,
                                  reduced_words_of_w0, wadd, wsub)
from trailkit.errors import (
    ConsistencyError,
    OpenFaceRequest,
    PositionMissingError,
    TNotInWord,
    UnknownLetterError,
)

from conftest import FULL_WORDS, GCM, cartan_key
from oracles import (driving_data, driving_function, evaluate,
                     face_cone_coordinates, in_xt_cone, make_trail,
                     minimax_decompose, tree_enumerate_trails,
                     try_adjoin_face, try_remove_face, xt_leq)
from test_rep_builder import RANK_4_FUNDAMENTALS

# every trail of every fixture module, frozen as exponent tuples
EXPECTED_TRAILS = {
    ("A2", 1): {(0, 1, 0)},
    ("A2", 2): {(0, 0, 1), (1, 0, 0)},
    ("A3", 1): {(0, 1, 0, 1, 0, 0)},
    ("A3", 2): {(0, 0, 1, 1, 1, 0), (1, 0, 0, 1, 1, 0)},
    ("A3", 3): {(0, 0, 0, 0, 1, 1), (0, 1, 0, 0, 0, 1), (0, 1, 1, 0, 0, 0)},
    ("B2", 1): {(0, 2, 1, 0)},
    ("B2", 2): {(0, 0, 1, 1), (1, 0, 0, 1), (1, 1, 0, 0)},
    ("B2r", 1): {(0, 0, 2, 1), (1, 0, 1, 1), (2, 0, 0, 1), (2, 1, 0, 0)},
    ("B2r", 2): {(0, 1, 1, 0)},
    ("C2", 1): {(0, 1, 1, 0)},
    ("C2", 2): {(0, 0, 2, 1), (1, 0, 1, 1), (2, 0, 0, 1), (2, 1, 0, 0)},
    ("G2", 1): {(0, 3, 2, 3, 1, 0)},
    ("G2", 2): {(0, 0, 1, 2, 1, 1), (1, 0, 0, 2, 1, 1), (1, 1, 0, 1, 1, 1),
                (1, 2, 0, 0, 1, 1), (1, 2, 1, 0, 0, 1), (1, 2, 1, 1, 0, 0)},
}

G2_T2_FUNCTIONS = [
    {1: -1, 2: 1},
    {2: -2, 3: 1},
    {2: -1, 4: 1},
    {3: -1, 4: 2},
    {4: -1, 5: 1},
    {6: 1},
]


def _trails_for(modules, full_words, key, t):
    return enumerate_trails(modules[cartan_key(key), t], full_words[key])


def test_trail_sets(modules, full_words):
    for (key, t), expected in EXPECTED_TRAILS.items():
        got = _trails_for(modules, full_words, key, t)
        assert {K.exps for K in got} == expected, (key, t)


def test_relabelled_b2_matches_c2(modules, full_words):
    # swapping the two B2 labels turns the word (2,1,2,1) into the C2 story
    assert EXPECTED_TRAILS[("B2r", 1)] == EXPECTED_TRAILS[("C2", 2)]
    assert EXPECTED_TRAILS[("B2r", 2)] == EXPECTED_TRAILS[("C2", 1)]


def test_g2_t2_functions(modules, full_words):
    got = {trail_function(K) for K in _trails_for(modules, full_words, "G2", 2)}
    assert got == {LinearFunctionBJ.from_coeffs(d) for d in G2_T2_FUNCTIONS}


def test_distinct_trails_define_distinct_functions(modules, full_words):
    for (key, t) in EXPECTED_TRAILS:
        ts = _trails_for(modules, full_words, key, t)
        assert len({trail_function(K) for K in ts}) == len(ts)


def test_driving_trail(modules, full_words):
    w = full_words["G2"]
    c = w.cartan
    K = driving_trail(w, 2)
    assert K.exps == (0, 0, 1, 2, 1, 1)
    assert K.phi == 2 == w.position(2, 1)
    assert trail_function(K) == driving_function(c, w, 2)
    assert driving_function(c, w, 2).as_dict() == {1: -1, 2: 1}
    assert driving_function(c, w, 1).as_dict() == {1: 1}
    # the driving trail always belongs to the enumeration
    for (key, t) in EXPECTED_TRAILS:
        word = full_words[key]
        drv = driving_trail(word, t)
        assert drv.exps in EXPECTED_TRAILS[(key, t)]
        assert drv.phi == word.position(t, 1)


def test_trail_gamma_bookkeeping(modules, full_words):
    for (key, t) in EXPECTED_TRAILS:
        w = full_words[key]
        c = w.cartan
        for K in _trails_for(modules, full_words, key, t):
            assert len(K.gamma) == w.m + 1
            start = tuple(-x for x in c.fundamental_weight(t))
            root_t = c.simple_root(t)
            assert K.gamma[0] == tuple(
                x - (-1) * r for x, r in zip(start, root_t))  # -s_t omega_t
            for j in range(1, w.m + 1):
                i = w.letters[j - 1]
                root = c.simple_root(i)
                n = K.exps[j - 1]
                assert K.gamma[j] == tuple(
                    x + n * r for x, r in zip(K.gamma[j - 1], root))
            # final point of the trail is -w0 omega_t
            assert K.gamma[-1] == w.prefix_weights(t)[w.m]


def test_trail_function_is_midpoint_pairing(modules, full_words):
    for (key, t) in EXPECTED_TRAILS:
        w = full_words[key]
        for K in _trails_for(modules, full_words, key, t):
            z = trail_function(K)
            for j in range(1, w.m + 1):
                i = w.letters[j - 1]
                tot = K.gamma[j - 1][i - 1] + K.gamma[j][i - 1]
                assert tot % 2 == 0
                assert z.as_dict().get(j, 0) == tot // 2


def test_enumerate_matches_brute_force(modules, full_words):
    for (key, t) in EXPECTED_TRAILS:
        w = full_words[key]
        M = modules[cartan_key(key), t]
        bound = max(max(e) for e in EXPECTED_TRAILS[(key, t)]) + 1
        got = set()
        for exps in itertools.product(range(bound + 1), repeat=w.m):
            K = make_trail(M, w, exps)
            if K is not None:
                assert K.exps == exps
                got.add(K)
        assert got == set(_trails_for(modules, full_words, key, t))


def test_t_outside_the_word_has_no_driving_trail(modules, cartans):
    w = WordJ(cartans["A3"], (1, 2))
    with pytest.raises(TNotInWord, match=r"letter 3 does not occur in \(1, 2\)"):
        driving_trail(w, 3)
    with pytest.raises(TNotInWord, match=r"letter 3 does not occur in \(1, 2\)"):
        enumerate_trails(modules["A3", 3], w)


def test_a_bool_t_is_not_a_label(cartans):
    # True equals 1 as a memo key, so the label is checked first: before,
    # both returned the trail of t = 1 with t stored as True
    w = WordJ(cartans["A2"], (1, 2, 1))
    driving_trail(w, 1)
    Trail(w, 1, (0, 1, 0))
    with pytest.raises(UnknownLetterError, match="label True outside"):
        Trail(w, True, (0, 1, 0))
    with pytest.raises(UnknownLetterError, match="label True outside"):
        driving_trail(w, True)


def test_a_word_over_another_matrix_is_rejected(modules, cartans):
    # the A2 module with the letters (1, 2, 1) as a G2 word: a letter tuple
    # gives the A2 trail, and the G2 word raises instead of finding none
    M = modules["A2", 1]
    g2_word = WordJ(cartans["G2"], (1, 2, 1))
    assert make_trail(M, (1, 2, 1), (0, 1, 0)).exps == (0, 1, 0)
    with pytest.raises(ConsistencyError, match="another Cartan matrix"):
        make_trail(M, g2_word, (0, 1, 0))
    with pytest.raises(ConsistencyError, match="another Cartan matrix"):
        enumerate_trails(M, g2_word)
    with pytest.raises(ConsistencyError, match="another Cartan matrix"):
        construct_envelope(M, g2_word)


def test_a_face_move_needs_the_module_of_the_trail(modules, full_words):
    K = driving_trail(full_words["G2"], 2)
    with pytest.raises(ConsistencyError, match="type t=2 moved in the "
                                               "module of t=1"):
        try_adjoin_face(K, 2, 2, modules["G2", 1])
    with pytest.raises(ConsistencyError, match="type t=2 moved in the "
                                               "module of t=1"):
        try_remove_face(K, 2, 2, modules["G2", 1])


def test_group_classes_g2_s2(modules, full_words):
    ts = _trails_for(modules, full_words, "G2", 2)
    classes = group_ts_classes([K for K in ts if K.phi <= 6], 2, 6)
    assert len(classes) == 2
    first, second = classes
    assert first.c == (2, 0, 0)
    assert first.a == (2, 0, 3)
    # l: the k-tuple of the lex-least member
    assert tuple(first.l_min.exps[p - 1] for p in first.positions) == (0, 2, 1)
    assert first.n == 3
    assert first.positions == (2, 4, 6)
    assert set(first.k_tuples) == {(0, 2, 1), (1, 1, 1), (2, 0, 1)}
    assert first.c_primes == ((0, 0, 0), (1, 0, 0), (2, 0, 0))
    assert second.c == (0, 1, 0)
    assert set(second.k_tuples) == {(2, 0, 1), (2, 1, 0)}
    # the driving trail never joins a type-t class
    driving = driving_trail(full_words["G2"], 2)
    for cls in classes:
        assert driving not in cls.members
    assert sum(len(cls.members) for cls in classes) == 5


def test_group_classes_g2_s1(modules, full_words):
    ts = _trails_for(modules, full_words, "G2", 2)
    classes = group_ts_classes([K for K in ts if K.phi <= 5], 1, 5)
    assert [cls.c for cls in classes] == [(1, 0, 0), (0, 0, 0), (0, 1, 0)]
    assert [len(cls.members) for cls in classes] == [2, 1, 2]
    # type-s classes of s != t keep every trail, driving one included
    assert sum(len(cls.members) for cls in classes) == 5


def test_group_classes_guards(modules, full_words):
    ts = sorted(_trails_for(modules, full_words, "G2", 2),
                key=lambda K: K.exps)
    with pytest.raises(PositionMissingError, match="carries letter 2, not 1"):
        group_ts_classes([K for K in ts if K.phi <= 4], 1, 4)  # letter is 2
    with pytest.raises(PositionMissingError, match="outside"):
        group_ts_classes(ts, 1, 7)         # the word has six letters


def test_group_classes_keep_the_settled_trails(cartans, full_words):
    # grouping every trail of the word gives the classes of the trails with
    # phi <= j, at every step and every t of G2 and of every w0 word of A3,
    # B3 and C3
    words = [full_words["G2"]] + [
        WordJ(cartans[name], letters) for name in ("A3", "B3", "C3")
        for letters in reduced_words_of_w0(cartans[name])]
    steps = 0
    for w in words:
        for t in w.cartan.labels:
            found = enumerate_trails(build_fundamental(w.cartan, t), w)
            for j, s in enumerate(w.letters, start=1):
                settled = [K for K in found if K.phi <= j]
                assert (group_ts_classes(found, s, j)
                        == group_ts_classes(settled, s, j)), (w.letters, t, j)
                steps += 1
    assert steps == 2 * 6 + 3 * (16 * 6 + 84 * 9)


def test_lower_members(modules, full_words):
    # the members already trivializing at the previous step
    ts = _trails_for(modules, full_words, "G2", 2)
    first, second = group_ts_classes([K for K in ts if K.phi <= 6], 2, 6)
    lower = {cls: {K.exps for K in cls.members if K.phi < cls.j}
             for cls in (first, second)}
    assert lower[first] == {
        (1, 0, 0, 2, 1, 1), (1, 1, 0, 1, 1, 1), (1, 2, 0, 0, 1, 1)}
    assert lower[second] == {(1, 2, 1, 0, 0, 1)}
    # lower <=> the function involves nothing at the closing step j
    for cls in (first, second):
        for K in cls.members:
            support = [j for j, _ in trail_function(K).terms]
            assert (K.exps in lower[cls]) == (not support
                                              or support[-1] <= 5)


def test_adjoin_and_remove_faces(modules, full_words):
    M = modules["G2", 2]
    ts = {K.exps: K for K in _trails_for(modules, full_words, "G2", 2)}
    z2 = ts[(1, 0, 0, 2, 1, 1)]
    z3 = ts[(1, 1, 0, 1, 1, 1)]
    z4 = ts[(1, 2, 0, 0, 1, 1)]
    assert try_adjoin_face(z2, 2, 2, M) == z3
    assert try_adjoin_face(z3, 2, 2, M) == z4
    assert try_adjoin_face(z4, 2, 2, M) is None      # exponent exhausted
    assert try_remove_face(z4, 2, 2, M) == z3
    assert try_remove_face(z3, 2, 2, M) == z2
    assert try_remove_face(z2, 2, 2, M) is None
    # the move along F^3 does not produce a trail here
    assert try_adjoin_face(z2, 2, 3, M) is None
    with pytest.raises(OpenFaceRequest):
        try_adjoin_face(z2, 2, 1, M)
    with pytest.raises(OpenFaceRequest):
        try_remove_face(z2, 2, 1, M)
    # adjoining a face adds its linear function
    _, face = face_function(full_words["G2"], 2, 2)
    assert trail_function(z3) == trail_function(z2) + face
    assert trail_function(z4) == trail_function(z3) + face


@given(st.dictionaries(st.integers(1, 40),
                       st.integers(-2 ** 70, 2 ** 70), max_size=12))
def test_function_hash_is_the_dataclass_hash(coeffs):
    f = LinearFunctionBJ.from_coeffs(coeffs)
    assert hash(f) == hash((f.terms,))
    g = LinearFunctionBJ(f.terms)
    assert g == f and hash(g) == hash(f)
    assert hash(f + g) == hash(((f + g).terms,))


def test_face_function_is_kashiwara_difference(full_words):
    for key, w in full_words.items():
        c = w.cartan
        for s in c.labels:
            for k in range(2, w.count(s) + 1):
                _, face = face_function(w, s, k)
                expect = kashiwara_function(w, s, k - 1) - kashiwara_function(w, s, k)
                assert face == expect, (key, s, k)


def test_face_gamma_support(full_words):
    w = full_words["G2"]
    gammas, _ = face_function(w, 2, 2)
    # the face deviates from zero strictly between the two occurrences
    assert gammas[0] == gammas[1] == (0, 0)
    assert gammas[2] == gammas[3] == (-1, 2)
    assert all(g == (0, 0) for g in gammas[4:])


def test_kashiwara_function_values(full_words):
    w = full_words["G2"]
    assert kashiwara_function(w, 2, 1).as_dict() == {2: 1, 3: -1, 4: 2, 5: -1, 6: 2}
    assert kashiwara_function(w, 2, 0).as_dict() == {1: -1, 2: 2, 3: -1, 4: 2, 5: -1, 6: 2}
    assert kashiwara_function(w, 1, 2).as_dict() == {3: 1, 4: -3, 5: 2, 6: -3}
    # r^0 - r^1 keeps only the twisted first occurrence
    diff = kashiwara_function(w, 2, 0) - kashiwara_function(w, 2, 1)
    assert diff.as_dict() == {1: -1, 2: 1}
    # built once per word; an equal word builds an equal function
    assert kashiwara_function(w, 1, 2) is kashiwara_function(w, 1, 2)
    assert (kashiwara_function(WordJ(w.cartan, w.letters), 1, 2)
            == kashiwara_function(w, 1, 2))


def test_xt_cone_membership(modules, full_words):
    w = full_words["G2"]
    funcs = sorted((trail_function(K) for K in
                    _trails_for(modules, full_words, "G2", 2)),
                   key=lambda f: f.terms)
    for z in funcs:
        assert in_xt_cone(w, 2, z)
    z1 = driving_function(w.cartan, w, 2)
    assert not in_xt_cone(w, 2, z1.scale(2))
    assert not in_xt_cone(w, 2, z1.scale(-1))


def test_xt_order(modules, full_words):
    w = full_words["G2"]
    ts = {K.exps: K for K in _trails_for(modules, full_words, "G2", 2)}
    za = trail_function(ts[(1, 0, 0, 2, 1, 1)])
    zb = trail_function(ts[(1, 1, 0, 1, 1, 1)])
    assert xt_leq(w, za, zb)
    assert not xt_leq(w, zb, za)
    assert xt_leq(w, za, za)
    # explicit cone coordinates: zb - za is exactly one face, the one whose
    # closing step is position 4 = (2, 2)
    coords = face_cone_coordinates(w, zb - za)
    assert coords is not None
    assert {q: x for q, x in coords.items() if x} == {4: 1}
    # the reverse difference still lies in the span, with a negative weight
    back = face_cone_coordinates(w, za - zb)
    assert {q: x for q, x in back.items() if x} == {4: -1}
    # a bare coordinate function is not spanned by the faces at all
    assert face_cone_coordinates(w, LinearFunctionBJ.from_coeffs({1: 1})) is None
    assert face_cone_coordinates(w, LinearFunctionBJ.from_coeffs({6: 1})) is None


def test_minimax_decompose(modules, full_words):
    M = modules["G2", 2]
    ts = _trails_for(modules, full_words, "G2", 2)
    first, second = group_ts_classes([K for K in ts if K.phi <= 6], 2, 6)
    k_min, d = minimax_decompose(first, M)
    assert k_min.exps == (1, 0, 0, 2, 1, 1)
    assert d == (0, 2, 0)
    # replaying the adjunctions from the minimal trail reaches the maximum
    K = k_min
    for pos, count in enumerate(d, start=1):
        for _ in range(count):
            K = try_adjoin_face(K, 2, pos, M)
            assert K is not None
    assert K.exps == (1, 2, 0, 0, 1, 1)
    k_min2, d2 = minimax_decompose(second, M)
    assert k_min2.exps == (1, 2, 1, 0, 0, 1)
    assert d2 == (0, 0, 1)


# --- the trail axioms, checked on construction ------------------------------


def _axiom_error(K, message, exps):
    with pytest.raises(ConsistencyError, match=f"^{re.escape(message)}$"):
        Trail(K.word, K.t, exps)


def test_trail_axiom_violations_raise(full_words):
    w = full_words["G2"]
    K = driving_trail(w, 2)                     # exps (0, 0, 1, 2, 1, 1)
    assert Trail(K.word, K.t, K.exps) == K      # the valid trail passes
    # the exponents are the whole record; gamma and phi are derived
    assert Trail._fields == ("word", "t", "exps")
    assert repr(K).startswith("Trail(word=WordJ(") and "gamma" not in repr(K)
    _axiom_error(K, "negative exponent at position 4", (0, 0, 1, -1, 1, 1))
    # position 3 stays below the driving trail
    _axiom_error(K, "weight at position 3 drops below the driving trail",
                 (0, 0, 0, 3, 2, 1))
    _axiom_error(K, "trail does not end at -w_m(omega_t)", (0, 0, 1, 2, 1, 2))


def test_make_trail_rejects_a_drop_below_the_driving_trail(modules,
                                                           full_words):
    w = full_words["G2"]
    assert make_trail(modules["G2", 2], w, (0, 0, 0, 3, 2, 1)) is None
    assert make_trail(modules["G2", 2], w, (0, 0, 1, 2, 1, 1)) is not None


def test_exponents_rebuild_every_trail_and_face_moves_stay_inside():
    # every trail of every w0 word of A3, B3 and C3: make_trail rebuilds it
    # from its exponents alone, and every closed-face move either fails or
    # lands on an enumerated trail
    moves = landed = 0
    for name in ("A3", "B3", "C3"):
        cartan = validate_gcm(GCM[name])
        for t in cartan.labels:
            M = build_fundamental(cartan, t)
            for letters in reduced_words_of_w0(cartan):
                w = WordJ(cartan, letters)
                found = enumerate_trails(M, w)
                faces = [(s, k) for s in cartan.labels
                         for k in range(2, w.count(s) + 1)]
                for K in found:
                    assert make_trail(M, w, K.exps) == K
                    for s, k in faces:
                        for move in (try_adjoin_face, try_remove_face):
                            L = move(K, s, k, M)
                            moves += 1
                            if L is not None:
                                assert L in found, (name, letters, t, K.exps)
                                landed += 1
    assert (moves, landed) == (16332, 2840)


def test_enumeration_computes_root_coordinates_once_per_position(
        cartans, monkeypatch):
    # the driving data, root coordinates of every position included, is
    # built in one pass once per (word, t); trails reuse it
    calls = []
    build = trails._build_driving_data

    def counted(word, t):
        calls.append((word.letters, t))
        return build(word, t)

    monkeypatch.setattr(trails, "_build_driving_data", counted)
    c = cartans["B3"]
    word = WordJ(c, (1, 2, 1, 3, 2, 1, 3, 2, 3))
    M = build_fundamental(c, 3)
    found = enumerate_trails(M, word)
    assert len(found) == 7
    assert calls == [(word.letters, 3)]
    assert enumerate_trails(M, word) == found
    assert all(Trail(word, 3, K.exps) == K for K in found)
    assert driving_trail(word, 3) in found
    assert calls == [(word.letters, 3)]
    assert [k for k in word._memo if k[0] == "driving"] == [("driving", 3)]


def assert_driving_data(word, t: int) -> None:
    """The driving data counted in one pass equals the reference
    ``oracles.driving_data``, and the walk of Trail rebuilds its weights
    and phi from its exponents."""
    got = trails._driving_data(word, t)
    assert got == driving_data(word, t), (word.letters, t)
    gamma, _, exps, phi = got
    K = Trail(word, t, exps)
    assert (K.gamma, K.phi) == (gamma, phi), (word.letters, t)


def test_counted_driving_data_matches_the_reference(cartans):
    # every w0 word of A3, B3 and C3 for every t
    words = 0
    for name in ("A3", "B3", "C3"):
        cartan = cartans[name]
        for letters in reduced_words_of_w0(cartan):
            word = WordJ(cartan, letters)
            for t in cartan.labels:
                assert_driving_data(word, t)
            words += 1
    assert words == 16 + 42 + 42


@pytest.mark.parametrize("bend", [(1, 0), (2, -4)])
def test_a_driving_step_off_its_root_raises(cartans, bend):
    """Each step of the driving trail is checked to be n alpha_i with
    n >= 0.  On A2 the second step raises by alpha_2 = (-1, 2); moved by
    (1, 0) it is no multiple of alpha_2, and moved by (2, -4) it is
    -alpha_2.  The word is fresh, and its memo is given the bent prefix
    weights."""
    word = WordJ(cartans["A2"], (1, 2, 1))
    prefix = word.prefix_weights(1)
    assert wsub(prefix[2], prefix[1]) == (-1, 2)
    bent = prefix[:2] + (wadd(prefix[2], bend),) + prefix[3:]
    word._memo["prefix", 1] = bent
    with pytest.raises(ConsistencyError, match="^the driving step at "
                       "position 2 is not a non-negative multiple of a root$"):
        driving_trail(word, 1)


def test_word_is_not_kept_alive_by_a_cache(cartans):
    # a word no other test builds, so no equal word is cached before it
    c = cartans["B3"]
    word = WordJ(c, (3, 2, 3, 1, 2, 3, 1, 2, 1))
    M = build_fundamental(c, 1)
    enumerate_trails(M, word)
    env = construct_envelope(M, word)
    assert env.functions
    ref = weakref.ref(word)
    del word, env
    gc.collect()
    assert ref() is None


# --- the search builds each trail with its weights --------------------------


def _greedy_w0(cartan) -> tuple[int, ...]:
    word: tuple[int, ...] = ()
    while True:
        nxt = next((i for i in cartan.labels
                    if is_reduced(cartan, word + (i,))), None)
        if nxt is None:
            return word
        word += (nxt,)


def _state(K) -> dict:
    """Every attribute a trail holds: its fields and the derived gamma
    and phi."""
    return {name: getattr(K, name) for name in K.__slots__}


def _assert_walk_rebuilds(M, word, t) -> int:
    """The memoized search finds the trails that the plain tree search of
    ``tests/oracles.py`` finds, and each equals the one that the tree
    search built and the one that the checking walk of ``Trail`` builds
    from its exponents: fields, weights, phi and hash."""
    found = enumerate_trails(M, word)
    tree = {K: K for K in tree_enumerate_trails(M, word)}
    assert set(found) == tree.keys(), word.letters
    for K in found:
        for R in (tree[K], Trail(word, t, K.exps)):
            assert R == K and hash(R) == hash(K)
            assert _state(R) == _state(K), (word.letters, t, K.exps)
            assert R.gamma == K.gamma and R.phi == K.phi
    return len(found)


def test_search_builds_the_trails_the_walk_builds(cartans):
    # every w0 word of A3, B3 and C3 for every t
    total = 0
    for name in ("A3", "B3", "C3"):
        cartan = cartans[name]
        for t in cartan.labels:
            M = build_fundamental(cartan, t)
            for letters in reduced_words_of_w0(cartan):
                total += _assert_walk_rebuilds(M, WordJ(cartan, letters), t)
    assert total > 1000


def _random_w0(cartan, seed: int) -> tuple[int, ...]:
    """A reduced word of w0 whose letters a seeded generator picks, each
    among those that keep the word reduced."""
    rng = random.Random(seed)
    word: tuple[int, ...] = ()
    while True:
        grown = [i for i in cartan.labels if is_reduced(cartan, word + (i,))]
        if not grown:
            return word
        word += (rng.choice(grown),)


def test_search_builds_the_walked_trails_up_to_rank_4():
    """The search checks at each node only the coordinate it raises; the
    walk of ``Trail`` checks (P) on every coordinate at every position.
    Every fundamental of rank <= 4 on its greedy w0, and those of B4, C4,
    D4 and F4 on one seeded random w0 word too."""
    total = 0
    for tag, t in RANK_4_FUNDAMENTALS:
        cartan = validate_gcm(_standard_gcm(tag[0], int(tag[1:])))
        M = build_fundamental(cartan, t)
        words = [_greedy_w0(cartan)]
        if tag in ("B4", "C4", "D4", "F4"):
            words.append(_random_w0(cartan, 20261020))
        for letters in words:
            total += _assert_walk_rebuilds(M, WordJ(cartan, letters), t)
    assert total == 432


@pytest.mark.parametrize("tag,t,count", [
    ("C5", 5, 131), ("C5", 4, 4), ("F4", 1, 1), ("E6", 2, 1), ("E6", 6, 98),
    ("D6", 6, 131), ("F4", 4, 118)])
def test_search_builds_the_walked_trails_on_larger_modules(tag, t, count):
    # the greedy w0 words and modules of the enumerate benchmark
    cartan = validate_gcm(_standard_gcm(tag[0], int(tag[1:])))
    word = WordJ(cartan, _greedy_w0(cartan))
    assert _assert_walk_rebuilds(build_fundamental(cartan, t), word,
                                 t) == count


def test_the_search_returns_its_trails_in_increasing_exponent_order():
    """A state keeps its children in increasing n_j and the walk is
    depth-first, so the trails come out strictly increasing in their
    exponent tuples: every fundamental of rank <= 4 on its greedy w0 and,
    for B4, C4, D4 and F4, on one seeded random w0 word, and the modules of
    the enumerate benchmark on their greedy w0."""
    total = 0
    for tag, t in RANK_4_FUNDAMENTALS + [
            ("C5", 5), ("C5", 4), ("E6", 2), ("E6", 6), ("D6", 6)]:
        cartan = validate_gcm(_standard_gcm(tag[0], int(tag[1:])))
        words = [_greedy_w0(cartan)]
        if tag in ("B4", "C4", "D4", "F4"):
            words.append(_random_w0(cartan, 20261020))
        for letters in words:
            found = enumerate_trails(build_fundamental(cartan, t),
                                     WordJ(cartan, letters))
            assert type(found) is tuple
            assert all(K.exps < L.exps for K, L in zip(found, found[1:])), (
                tag, t, letters)
            total += len(found)
    # F4 omega_1 and omega_4 are among the rank <= 4 fundamentals
    assert total == 432 + 131 + 4 + 1 + 98 + 131


def test_the_search_makes_every_raising_it_needs(monkeypatch):
    """The search raises each state once, (position, weight) or, at a
    weight of multiplicity > 1, (position, weight, line of the vector),
    however many prefixes reach it.  It checks the raised coordinate only,
    and stops raising once it reaches its upper bound, past which no
    exponent is admissible, or a weight with no weight space, where the
    vector vanishes: 516 applications of an e_i over the greedy w0 words
    of the enumerate benchmark, with the same trails.  The tree search of
    ``tests/oracles.py``, which raises every prefix on its own, takes
    4,521; before it stopped at the upper bound and at empty weight
    spaces it took 10,155."""
    runs = []
    for tag, t in (("C5", 5), ("C5", 4), ("F4", 1), ("E6", 2), ("E6", 6),
                   ("D6", 6), ("F4", 4)):
        cartan = validate_gcm(_standard_gcm(tag[0], int(tag[1:])))
        M = build_fundamental(cartan, t)
        M.start_vector
        runs.append((M, WordJ(cartan, _greedy_w0(cartan))))
    calls = []
    apply = trails.apply_projective

    def counted(cols, v):
        calls.append(1)
        return apply(cols, v)

    monkeypatch.setattr(trails, "apply_projective", counted)
    found = [len(enumerate_trails(M, word)) for M, word in runs]
    assert found == [131, 4, 1, 1, 98, 131, 118]
    assert len(calls) == 516


def test_a_state_key_holds_the_line_of_the_vector_at_a_multiple_weight(
        cartans):
    # the adjoint module of D4: its zero weight has multiplicity 4, every
    # other weight multiplicity 1
    M = build_fundamental(cartans["D4"], 2)
    zero = (0, 0, 0, 0)
    a, b, c = M.weight_space(zero)[:3]
    v = {a: 2, b: -6}
    key = trails._state_key(M, 5, zero, v)
    for k in (1, 3, -1, -2):
        assert trails._state_key(M, 5, zero, {r: k * x for r, x in v.items()}
                                 ) == key
    assert trails._state_key(M, 5, zero, {b: 3, a: -1}) == key
    others = [{a: 2, b: 6}, {a: 1}, {b: 1}, {a: 2, b: -6, c: 1}]
    keys = {trails._state_key(M, 5, zero, u) for u in others}
    assert len(keys) == 4 and key not in keys
    assert trails._state_key(M, 6, zero, v) != key
    # at a weight of multiplicity 1 every vector shares the key
    mu = M.weights[M.lowest_index]
    (r,) = M.weight_space(mu)
    assert {trails._state_key(M, 5, mu, {r: k}) for k in (1, -4, 7)} == {
        (5, mu)}


def test_driving_trail_and_start_vector_are_computed_once(cartans,
                                                          monkeypatch):
    walks, starts = [], []
    build = trails._build_driving_data
    extremal = rep_builder.extremal_vector

    def walk_counted(word, t):
        walks.append(t)
        return build(word, t)

    def start_counted(M, word):
        starts.append(word)
        return extremal(M, word)

    monkeypatch.setattr(trails, "_build_driving_data", walk_counted)
    monkeypatch.setattr(rep_builder, "extremal_vector", start_counted)
    c = cartans["C3"]
    word = WordJ(c, (3, 2, 3, 1, 2, 3, 1, 2, 1))    # its own memo
    M = build_fundamental(c, 2)
    found = enumerate_trails(M, word)
    assert enumerate_trails(M, word) == found
    assert all(make_trail(M, word, K.exps) == K for K in found)
    construct_envelope(M, word)
    K = driving_trail(word, 2)
    assert K in found and _state(K) == _state(Trail(word, 2, K.exps))
    assert walks == [2]
    # the module may have made its start vector before this test
    assert len(starts) <= 1 and M.start_vector is M.start_vector


# --- malformed input is a typed error, with or without asserts --------------


def test_malformed_trail_and_function_raise_consistency_error(full_words):
    w = full_words["A2"]
    with pytest.raises(ConsistencyError,
                       match="^2 exponents for a word of length 3$"):
        Trail(w, 1, (0, 1))
    with pytest.raises(ConsistencyError, match="zero coefficient"):
        LinearFunctionBJ(((1, 0),))
    for terms in (((2, 1), (1, 1)), ((1, 1), (1, 2))):
        with pytest.raises(ConsistencyError, match="not sorted"):
            LinearFunctionBJ(terms)


def test_a_position_below_1_is_rejected():
    # evaluated on a sequence, position 0 would read the last entry
    for terms in (((0, 5),), ((-1, 2), (3, 1))):
        with pytest.raises(ConsistencyError, match="position below 1"):
            LinearFunctionBJ(terms)
    with pytest.raises(ConsistencyError, match="position below 1"):
        LinearFunctionBJ.from_coeffs({0: 5, 2: 1})
    assert evaluate(LinearFunctionBJ(((1, 5),)), [1, 2, 3]) == 5


@pytest.mark.parametrize("bad", [1.0, True])
def test_an_exponent_that_is_not_an_int_is_rejected(modules, cartans, bad):
    w = WordJ(cartans["A2"], (1, 2, 1))
    with pytest.raises(ConsistencyError,
                       match=f"^exponent {bad!r} at position 2 is not an int$"):
        Trail(w, 1, (0, bad, 0))
    assert make_trail(modules["A2", 1], w, (0, bad, 0)) is None
    # the word's trails keep int weights
    K = make_trail(modules["A2", 1], w, (0, 1, 0))
    (L,) = enumerate_trails(modules["A2", 1], w)
    for T in (K, L, Trail(w, 1, (0, 1, 0))):
        assert all(type(x) is int for g in T.gamma for x in g), T.gamma


def test_malformed_input_is_rejected_under_python_O():
    # python -O strips assert statements; these checks must not rest on one
    code = "\n".join([
        "from trailkit import LinearFunctionBJ, Trail, WordJ, validate_gcm",
        "from trailkit.errors import ConsistencyError",
        "w = WordJ(validate_gcm([[2, -1], [-1, 2]]), (1, 2, 1))",
        "bad = [lambda: Trail(w, 1, (0, 1)),",
        "       lambda: Trail(w, 1, (0, 1.0, 0)),",
        "       lambda: LinearFunctionBJ(((1, 0),)),",
        "       lambda: LinearFunctionBJ(((2, 1), (1, 1))),",
        "       lambda: LinearFunctionBJ(((0, 5),))]",
        "for make in bad:",
        "    try:",
        "        make()",
        "    except ConsistencyError:",
        "        continue",
        "    raise SystemExit('accepted')",
        "print('rejected', __debug__)",
    ])
    src = os.path.dirname(os.path.dirname(trailkit.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["rejected", "False"]

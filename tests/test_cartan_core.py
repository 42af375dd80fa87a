from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from trailkit import WordJ, is_reduced, validate_gcm
from trailkit.cartan_core import reduced_words_of_w0, require_finite
from trailkit.errors import (
    NotFiniteTypeError,
    NotGCMError,
    NotReducedError,
    UnknownLetterError,
)

from conftest import GCM
from oracles import weyl_act


def test_fixture_matrices_are_finite_type():
    for name, m in GCM.items():
        c = validate_gcm(m)
        assert c.finite_type
        assert c.n == len(m)
        assert list(c.labels) == list(range(1, len(m) + 1))


def test_type_tags():
    assert validate_gcm(GCM["A1"]).type_tag == "A1"
    assert validate_gcm(GCM["A2"]).type_tag == "A2"
    assert validate_gcm(GCM["G2"]).type_tag == "G2"
    assert validate_gcm(GCM["B2"]).type_tag == "B2"
    # the rank-2 C matrix is the B2 diagram with the labels swapped
    assert validate_gcm(GCM["C2"]).type_tag == "B2"
    assert validate_gcm(GCM["D4"]).type_tag == "D4"


@pytest.mark.parametrize("matrix,message", [
    ([[2, -1]], "square"),
    ([], "square"),
    ([[1]], "diagonal"),
    ([[2, 1], [1, 2]], "off-diagonal"),
    ([[2, 0], [-1, 2]], "zero pattern"),
    ([[2, -1.5], [-1, 2]], "integer"),
])
def test_validate_gcm_rejects(matrix, message):
    with pytest.raises(NotGCMError, match=message):
        validate_gcm(matrix)


@pytest.mark.parametrize("matrix", [None, 3, [1, 2], [[2, -1], 5], {1: 2}])
def test_validate_gcm_rejects_non_rows(matrix):
    with pytest.raises(NotGCMError):
        validate_gcm(matrix)


def test_non_finite_matrices():
    affine = validate_gcm([[2, -2], [-2, 2]])
    assert not affine.finite_type
    assert affine.type_tag is None
    with pytest.raises(NotFiniteTypeError):
        require_finite(affine)
    hyperbolic = validate_gcm([[2, -3], [-3, 2]])
    assert not hyperbolic.finite_type


def test_pairing_and_roots():
    g2 = validate_gcm(GCM["G2"])
    assert g2.pairing(1, 2) == -1
    assert g2.pairing(2, 1) == -3
    # column j of the matrix is alpha_j in the fundamental-weight basis
    assert g2.simple_root(1) == (2, -3)
    assert g2.simple_root(2) == (-1, 2)
    assert g2.fundamental_weight(1) == (1, 0)
    assert g2.rho() == (1, 1)
    with pytest.raises(UnknownLetterError):
        g2.check_label(3)
    with pytest.raises(UnknownLetterError):
        g2.check_label(0)


def test_symmetrizer():
    # minimal positive integers d_i with d_i a_ij = d_j a_ji
    assert validate_gcm(GCM["A2"]).symmetrizer == (1, 1)
    assert validate_gcm(GCM["B2"]).symmetrizer == (2, 1)
    assert validate_gcm(GCM["C2"]).symmetrizer == (1, 2)
    assert validate_gcm(GCM["G2"]).symmetrizer == (3, 1)
    b3 = validate_gcm(GCM["B3"])
    d = b3.symmetrizer
    for i in range(3):
        for j in range(3):
            assert d[i] * b3.gcm[i][j] == d[j] * b3.gcm[j][i]


def test_word_validation():
    a2 = validate_gcm(GCM["A2"])
    b2 = validate_gcm(GCM["B2"])
    with pytest.raises(UnknownLetterError):
        WordJ(a2, (1, 3))
    with pytest.raises(NotReducedError):
        WordJ(a2, (1, 1))
    with pytest.raises(NotReducedError):
        WordJ(a2, (1, 2, 1, 2))       # longer than the longest element
    with pytest.raises(NotReducedError):
        WordJ(b2, (1, 2, 1, 2, 1))
    # both rank-2 orderings of the B2 longest word are fine
    WordJ(b2, (1, 2, 1, 2))
    WordJ(b2, (2, 1, 2, 1))


def test_word_positions():
    a3 = validate_gcm(GCM["A3"])
    w = WordJ(a3, (1, 2, 1, 3, 2, 1))
    assert w.m == 6
    assert w.count(1) == 3
    assert w.count(2) == 2
    assert w.count(3) == 1
    assert w.position(1, 1) == 1
    assert w.position(1, 2) == 3
    assert w.position(1, 3) == 6
    assert w.occurrence(4) == (3, 1)
    assert w.occurrence(5) == (2, 2)
    for j in range(1, w.m + 1):
        s, k = w.occurrence(j)
        assert w.position(s, k) == j


def test_prefix_weights_a2():
    a2 = validate_gcm(GCM["A2"])
    w = WordJ(a2, (1, 2, 1))
    assert w.prefix_weight(1, 0) == (-1, 0)
    assert w.prefix_weight(1, 1) == (1, -1)
    assert w.prefix_weight(1, 2) == (0, 1)
    assert w.prefix_weight(1, 3) == (0, 1)
    assert w.prefix_weight(2, 0) == (0, -1)
    assert w.prefix_weight(2, 1) == (0, -1)   # s_1 fixes omega_2
    assert w.prefix_weight(2, 3) == (1, 0)


def test_weyl_act_longest_element():
    a2 = validate_gcm(GCM["A2"])
    a3 = validate_gcm(GCM["A3"])
    b2 = validate_gcm(GCM["B2"])
    g2 = validate_gcm(GCM["G2"])
    # -w0 permutes the fundamental weights by the diagram flip in type A
    assert weyl_act(a2, (1, 2, 1), (1, 0)) == (0, -1)
    assert weyl_act(a3, (1, 2, 1, 3, 2, 1), (1, 0, 0)) == (0, 0, -1)
    assert weyl_act(a3, (1, 2, 1, 3, 2, 1), (0, 1, 0)) == (0, -1, 0)
    # w0 = -1 in B2 and G2
    for c, word in ((b2, (1, 2, 1, 2)), (g2, (1, 2, 1, 2, 1, 2))):
        for t in (1, 2):
            fw = c.fundamental_weight(t)
            assert weyl_act(c, word, fw) == tuple(-x for x in fw)
    # the prefix weights -w_j(omega_t) of a word are these actions
    for c, word in ((a3, (1, 2, 1, 3, 2, 1)), (g2, (1, 2, 1, 2, 1, 2))):
        w = WordJ(c, word)
        for t in c.labels:
            low = tuple(-x for x in c.fundamental_weight(t))
            for j in range(len(word) + 1):
                assert w.prefix_weight(t, j) == weyl_act(c, word[:j], low)


def test_is_reduced():
    a2 = validate_gcm(GCM["A2"])
    b2 = validate_gcm(GCM["B2"])
    assert is_reduced(a2, (1, 2, 1))
    assert is_reduced(a2, (2, 1, 2))
    assert is_reduced(a2, ())
    assert not is_reduced(a2, (1, 1))
    assert not is_reduced(a2, (1, 2, 1, 2))
    assert is_reduced(b2, (1, 2, 1, 2))


def test_reduced_words_of_w0():
    counts = {"A3": 16, "B3": 42, "C3": 42, "A4": 768, "D4": 2316}
    for name, count in counts.items():
        c = validate_gcm(GCM[name])
        words = reduced_words_of_w0(c)
        assert len(words) == count, name
        assert words == sorted(set(words)), name    # lexicographic, distinct
        n_pos = len(words[0])
        assert all(len(w) == n_pos and is_reduced(c, w) for w in words)
        # no letter extends a word of w0
        for w in words[:: max(1, count // 40)]:
            assert not any(is_reduced(c, w + (i,)) for i in c.labels)
    assert reduced_words_of_w0(validate_gcm(GCM["A2"])) == [(1, 2, 1),
                                                           (2, 1, 2)]
    with pytest.raises(NotFiniteTypeError):
        reduced_words_of_w0(validate_gcm([[2, -2], [-2, 2]]))


weights_st = st.tuples(st.integers(-6, 6), st.integers(-6, 6), st.integers(-6, 6))


@given(lam=weights_st, i=st.integers(1, 3))
def test_simple_reflection_involution(lam, i):
    c = validate_gcm(GCM["C3"])
    assert weyl_act(c, (i, i), lam) == lam


@given(lam=weights_st, i=st.integers(1, 3))
def test_simple_reflection_pairing(lam, i):
    # s_i lam = lam - <alpha_i^vee, lam> alpha_i
    c = validate_gcm(GCM["B3"])
    moved = weyl_act(c, (i,), lam)
    root = c.simple_root(i)
    assert moved == tuple(x - lam[i - 1] * r for x, r in zip(lam, root))

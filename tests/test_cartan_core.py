from __future__ import annotations

import os
import random
import subprocess
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

import trailkit
from trailkit import WordJ, is_reduced, validate_gcm
from trailkit.cartan_core import (_classify_component, _standard_gcm,
                                  _type_tag, positive_roots,
                                  reduced_words_of_w0, require_finite)
from trailkit.errors import (
    NotFiniteTypeError,
    NotGCMError,
    NotReducedError,
    UnknownLetterError,
)

from conftest import GCM
from oracles import (closure_root_system, column_is_reduced,
                     column_words_of_w0, fraction_positive_definite,
                     fraction_symmetrizer, permutation_component_tag,
                     weyl_act)


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


# every finite type of rank <= 8
FINITE_TYPES = ([("A", n) for n in range(1, 9)] + [("B", n) for n in range(2, 9)]
                + [("C", n) for n in range(2, 9)] + [("D", n) for n in range(4, 9)]
                + [("E", n) for n in range(6, 9)] + [("F", 4), ("G", 2)])


def test_type_tags_do_not_depend_on_the_labelling():
    """Three seeded simultaneous relabellings of every finite type of rank
    <= 8 keep its tag; up to rank 7 the tag is also the one of the
    reference that tries every permutation."""
    assert len(FINITE_TYPES) == 32
    rng = random.Random(20261020)
    for family, n in FINITE_TYPES:
        std = _standard_gcm(family, n)
        # the rank-2 C matrix is the B2 diagram with the labels swapped
        tag = "B2" if (family, n) == ("C", 2) else f"{family}{n}"
        assert _classify_component(std) == validate_gcm(std).type_tag == tag
        for _ in range(3):
            perm = rng.sample(range(n), n)
            a = [[std[p][q] for q in perm] for p in perm]
            assert _classify_component(a) == validate_gcm(a).type_tag == tag
            if n <= 7:
                assert permutation_component_tag(a) == tag, (tag, perm)


@pytest.mark.parametrize("matrix,finite,tag", [
    ([[2, 0, 0], [0, 2, -1], [0, -3, 2]], True, "A1xG2"),
    ([[2, -1, 0], [-3, 2, 0], [0, 0, 2]], True, "A1xG2"),
    ([[2, -2], [-2, 2]], False, None),
    ([[2, -1], [-4, 2]], False, None),
    ([[2, -3], [-3, 2]], False, None),
    ([[2, -1], [-5, 2]], False, None),
])
def test_type_tags_of_sums_and_infinite_types(matrix, finite, tag):
    c = validate_gcm(matrix)
    assert (c.finite_type, c.type_tag) == (finite, tag)
    # no standard matrix matches a sum or an infinite type as one component
    assert _classify_component(matrix) is None
    assert permutation_component_tag(matrix) is None


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
    # one lcm and one gcd over all components: A1 + G2 + A1
    sum_g2 = validate_gcm([[2, 0, 0, 0], [0, 2, -3, 0], [0, -2, 2, 0],
                           [0, 0, 0, 2]])
    assert sum_g2.symmetrizer == (2, 2, 3, 2)
    # a cycle whose products disagree is not symmetrizable
    assert validate_gcm([[2, -1, -1], [-1, 2, -1], [-2, -1, 2]]
                        ).symmetrizer == (0, 0, 0)


def random_gcm(rng: random.Random, n: int) -> list[list[int]]:
    """A random generalized Cartan matrix of rank n.  Each pair of nodes
    is joined with a probability drawn per matrix, mostly by -1 entries,
    so that finite, affine, indefinite and (from rank 3) non-symmetrizable
    matrices all occur."""
    a = [[2 * int(i == j) for j in range(n)] for i in range(n)]
    p = rng.choice((0.2, 0.4, 0.9))
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                a[i][j] = -rng.choice((1, 1, 1, 1, 2, 3, 4))
                a[j][i] = -rng.choice((1, 1, 1, 1, 2, 3, 4))
    return a


def reference_validation(a) -> tuple:
    """(symmetrizer, finite_type, type_tag) as the Fraction symmetrizer and
    the Fraction minor test give them."""
    n = len(a)
    d = fraction_symmetrizer(a)
    finite = d is not None and fraction_positive_definite(
        [[d[i] * a[i][j] for j in range(n)] for i in range(n)])
    return (d if d is not None else (0,) * n, finite,
            _type_tag(a) if finite else None)


def compare_random_gcms(seed: int, count: int, max_rank: int):
    """Compare validate_gcm with the Fraction reference on ``count`` seeded
    random matrices of rank 1..max_rank; return how many were finite,
    symmetrizable but not finite, and not symmetrizable."""
    rng = random.Random(seed)
    kinds = {"finite": 0, "infinite": 0, "non-symmetrizable": 0}
    for _ in range(count):
        a = random_gcm(rng, rng.randint(1, max_rank))
        c = validate_gcm(a)
        got = (c.symmetrizer, c.finite_type, c.type_tag)
        assert got == reference_validation(a), a
        kind = ("non-symmetrizable" if not any(c.symmetrizer) else
                "finite" if c.finite_type else "infinite")
        kinds[kind] += 1
    return kinds


def test_validation_matches_the_fraction_reference():
    kinds = compare_random_gcms(20261020, 2000, 6)
    # each kind is well represented among the seeded matrices
    assert min(kinds.values()) >= 200, kinds


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


def test_a_bad_label_is_named_before_reducedness():
    a2 = validate_gcm(GCM["A2"])
    for word in [(1, 1, 3), (1, 2, 1, 2, 0), (1, 1, True)]:
        with pytest.raises(UnknownLetterError, match="outside 1..2"):
            is_reduced(a2, word)
        with pytest.raises(UnknownLetterError, match="outside 1..2"):
            WordJ(a2, word)


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
    assert w.prefix_weights(1)[0] == (-1, 0)
    assert w.prefix_weights(1)[1] == (1, -1)
    assert w.prefix_weights(1)[2] == (0, 1)
    assert w.prefix_weights(1)[3] == (0, 1)
    assert w.prefix_weights(2)[0] == (0, -1)
    assert w.prefix_weights(2)[1] == (0, -1)   # s_1 fixes omega_2
    assert w.prefix_weights(2)[3] == (1, 0)


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
                assert w.prefix_weights(t)[j] == weyl_act(c, word[:j], low)


def test_is_reduced():
    a2 = validate_gcm(GCM["A2"])
    b2 = validate_gcm(GCM["B2"])
    assert is_reduced(a2, (1, 2, 1))
    assert is_reduced(a2, (2, 1, 2))
    assert is_reduced(a2, ())
    assert not is_reduced(a2, (1, 1))
    assert not is_reduced(a2, (1, 2, 1, 2))
    assert is_reduced(b2, (1, 2, 1, 2))


# every standard type of rank <= 6, and affine and hyperbolic matrices
RANK_6_STANDARD = [(f, n) for f, n in FINITE_TYPES if n <= 6]
INFINITE_GCMS = [
    [[2, -2], [-2, 2]],                        # affine A1
    [[2, -1], [-4, 2]],                        # affine A2 twisted
    [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]],   # affine A2
    [[2, -1, 0], [-2, 2, -2], [0, -1, 2]],     # affine, rank 3
    [[2, -1, 0], [-1, 2, -3], [0, -1, 2]],     # affine G2
    [[2, -3], [-3, 2]],                        # hyperbolic
    [[2, -1], [-5, 2]],                        # hyperbolic
    [[2, -2, 0], [-2, 2, -1], [0, -1, 2]],     # hyperbolic, rank 3
]


def _random_reduced_words(cartan, rng, walks: int, cap: int):
    """Seeded walks that grow a reduced word one letter at a time, each
    letter picked among those that keep it reduced, until no letter does
    or the word has ``cap`` letters.  Every candidate extension is
    compared with the column reference on the way."""
    count = 0
    for _ in range(walks):
        word: tuple[int, ...] = ()
        while len(word) < cap:
            grown = []
            for i in cartan.labels:
                got = is_reduced(cartan, word + (i,))
                assert got == column_is_reduced(cartan, word + (i,)), word
                count += 1
                if got:
                    grown.append(i)
            if not grown:
                break
            word += (rng.choice(grown),)
    return count


def test_is_reduced_matches_the_column_reference():
    rng = random.Random(20261020)
    count = 0
    for family, n in RANK_6_STANDARD:
        cartan = validate_gcm(_standard_gcm(family, n))
        count += _random_reduced_words(cartan, rng, 3, 10 ** 6)
        # words of random letters, mostly not reduced
        for _ in range(20):
            word = tuple(rng.choice(cartan.labels)
                         for _ in range(rng.randint(0, 2 * n * n)))
            assert is_reduced(cartan, word) == column_is_reduced(cartan, word)
            count += 1
    for matrix in INFINITE_GCMS:
        cartan = validate_gcm(matrix)
        assert not cartan.finite_type
        count += _random_reduced_words(cartan, rng, 5, 40)
    assert count > 5000, count


# the number of positive roots of each family at rank n
POSITIVE_ROOTS = {"A": lambda n: n * (n + 1) // 2, "B": lambda n: n * n,
                  "C": lambda n: n * n, "D": lambda n: n * (n - 1),
                  "E": {6: 36, 7: 63, 8: 120}.get, "F": lambda n: 24,
                  "G": lambda n: 6}


def test_root_systems_match_the_closure_reference():
    for family, n in FINITE_TYPES:
        c = validate_gcm(_standard_gcm(family, n))
        roots = positive_roots(c)
        assert len(roots) == POSITIVE_ROOTS[family](n), (family, n)
        assert roots == closure_root_system(c), (family, n)


def test_import_leaves_fractions_out():
    src = os.path.dirname(os.path.dirname(trailkit.__file__))
    code = "import sys, trailkit; print('fractions' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False"]


def test_reduced_words_of_w0():
    counts = {"A3": 16, "B3": 42, "C3": 42, "A4": 768, "D4": 2316}
    for name, count in counts.items():
        c = validate_gcm(GCM[name])
        words = reduced_words_of_w0(c)
        assert len(words) == count, name
        assert words == column_words_of_w0(c), name
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

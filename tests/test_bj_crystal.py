from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import GCM

from trailkit import WordJ, validate_gcm
from trailkit.cartan_core import reduced_words_of_w0
from trailkit.bj_crystal import (
    BJElement,
    b_infinity,
    crystal_e,
    crystal_epsilon,
    crystal_f,
    dump_elements,
    generate_binf,
)
from trailkit.errors import (
    ConfigError,
    ConsistencyError,
    NotApplicable,
    UnknownLetterError,
)


def test_element_make():
    b = BJElement.make({3: 2, 1: 1, 2: 0})
    assert b.coords == ((1, 1), (3, 2))
    assert b.m(3) == 2 and b.m(2) == 0
    assert b.as_dict() == {1: 1, 3: 2}
    assert b.total == 3
    assert BJElement.make() == BJElement.make({}) == b_infinity()
    with pytest.raises(ConsistencyError):
        BJElement.make({0: 1})
    with pytest.raises(ConsistencyError):
        BJElement.make({2: -1})


def test_element_bump():
    b = BJElement.make({2: 1})
    assert b.bump(2, 1).as_dict() == {2: 2}
    assert b.bump(2, -1) == b_infinity()
    with pytest.raises(ConsistencyError):
        b.bump(2, -2)


def test_lowering_starts_at_first_occurrence(cartans, full_words):
    # on the empty element every Kashiwara function vanishes, so the least
    # maximizing occurrence is the first one
    for key, w in full_words.items():
        c = w.cartan
        for i in c.labels:
            fb = crystal_f(c, w, i, b_infinity())
            assert fb.as_dict() == {w.position(i, 1): 1}, (key, i)


def test_raising_at_bottom_is_none(cartans, full_words):
    for key, w in full_words.items():
        for i in w.cartan.labels:
            assert crystal_e(w.cartan, w, i, b_infinity()) is None, (key, i)


def test_frozen_lowering_chain(cartans):
    c = cartans["A2"]
    b = b_infinity()
    seen = []
    for i in (1, 2, 2, 1, 1, 2):
        b = crystal_f(c, (1, 2, 1), i, b)
        seen.append(b.coords)
    assert seen == [
        ((1, 1),),
        ((1, 1), (2, 1)),
        ((1, 1), (2, 2)),
        ((1, 1), (2, 2), (3, 1)),
        ((1, 2), (2, 2), (3, 1)),
        ((1, 2), (2, 3), (3, 1)),
    ]
    assert crystal_epsilon(c, (1, 2, 1), 1, b) == 1
    assert crystal_epsilon(c, (1, 2, 1), 2, b) == 2


def test_generate_binf_sizes(cartans):
    c = cartans["A2"]
    sizes = [len(generate_binf(c, (1, 2, 1), d)) for d in range(7)]
    assert sizes == [1, 3, 7, 13, 22, 34, 50]


def test_generate_binf_nested(cartans):
    c = cartans["B2"]
    prev = generate_binf(c, (1, 2, 1, 2), 0)
    assert prev == frozenset({b_infinity()})
    for d in range(1, 4):
        cur = generate_binf(c, (1, 2, 1, 2), d)
        assert prev < cur
        prev = cur


@settings(max_examples=60, deadline=None)
@given(moves=st.lists(st.sampled_from([1, 2]), max_size=8))
def test_raising_inverts_lowering(cartans, moves):
    c = cartans["G2"]
    w = (1, 2, 1, 2, 1, 2)
    b = b_infinity()
    for i in moves:
        nxt = crystal_f(c, w, i, b)
        assert nxt.total == b.total + 1
        assert crystal_e(c, w, i, nxt) == b
        assert crystal_epsilon(c, w, i, nxt) == crystal_epsilon(c, w, i, b) + 1
        b = nxt


def test_conventions_agree_when_pairing_symmetric(cartans):
    c = cartans["A3"]
    w = (1, 2, 1, 3, 2, 1)
    for b in generate_binf(c, w, 3):
        for i in c.labels:
            assert (crystal_f(c, w, i, b)
                    == crystal_f(c, w, i, b, convention="straight"))
            assert (crystal_epsilon(c, w, i, b)
                    == crystal_epsilon(c, w, i, b, convention="straight"))


def test_conventions_differ_on_b2(cartans):
    c = cartans["B2"]
    w = (1, 2, 1, 2)
    dual = straight = b_infinity()
    for i in (2, 1, 2, 1):
        dual = crystal_f(c, w, i, dual)
        straight = crystal_f(c, w, i, straight, convention="straight")
    assert dual.coords == ((2, 2), (3, 2))
    assert straight.coords == ((1, 1), (2, 1), (3, 1), (4, 1))


def test_unknown_convention(cartans):
    with pytest.raises(ConfigError):
        crystal_f(cartans["A2"], (1, 2, 1), 1, b_infinity(),
                  convention="sideways")


def test_letter_absent(cartans):
    c = cartans["A3"]
    with pytest.raises(NotApplicable):
        crystal_f(c, (1, 2, 1), 3, b_infinity())
    with pytest.raises(UnknownLetterError):
        crystal_f(c, (1, 2, 1), 9, b_infinity())


def test_negative_depth(cartans):
    with pytest.raises(ConfigError):
        generate_binf(cartans["A2"], (1, 2, 1), -1)


def test_generate_binf_checks_only_when_it_lowers(cartans):
    c = cartans["A3"]
    assert generate_binf(c, (1, 2, 1), 0, "sideways") == {b_infinity()}
    with pytest.raises(ConfigError):
        generate_binf(c, (1, 2, 1, 3, 2, 1), 1, "sideways")
    with pytest.raises(NotApplicable, match="letter 3 does not occur"):
        generate_binf(c, (1, 2, 1), 1)


def _crystal_f_closure(cartan, word, depth, convention):
    """Every element within ``depth`` lowering steps of the empty one, each
    step taken by :func:`crystal_f`."""
    seen = frontier = {b_infinity()}
    for _ in range(depth):
        frontier = {crystal_f(cartan, word, i, b, convention)
                    for b in frontier for i in cartan.labels} - seen
        seen = seen | frontier
    return seen


def test_generate_binf_is_the_crystal_f_closure():
    checked = 0
    for name in ("A3", "B3", "C3"):
        cartan = validate_gcm(GCM[name])
        for letters in reduced_words_of_w0(cartan):
            word = WordJ(cartan, letters)
            for convention in ("dual", "straight"):
                assert (generate_binf(cartan, word, 4, convention)
                        == _crystal_f_closure(cartan, word, 4, convention)), (
                    name, letters, convention)
                checked += 1
    assert checked == 200


def test_dump_elements_deterministic(cartans):
    c = cartans["A2"]
    elems = generate_binf(c, (1, 2, 1), 2)
    out = dump_elements(elems)
    assert out == dump_elements(sorted(elems, key=lambda b: b.coords))
    assert out[:6] == [
        {"coords": [], "total": 0},
        {"coords": [[1, 1]], "total": 1},
        {"coords": [[2, 1]], "total": 1},
        {"coords": [[1, 1], [2, 1]], "total": 2},
        {"coords": [[1, 2]], "total": 2},
        {"coords": [[2, 1], [3, 1]], "total": 2},
    ]
    totals = [e["total"] for e in out]
    assert totals == sorted(totals)

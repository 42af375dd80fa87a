from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import GCM

from trailkit import WordJ, validate_gcm
from trailkit.cartan_core import reduced_words_of_w0
from trailkit.bj_crystal import generate_binf
from trailkit.errors import (
    ConfigError,
    ConsistencyError,
    NotApplicable,
    UnknownLetterError,
)

from oracles import (crystal_e, crystal_epsilon, crystal_f, make_element,
                     total)


def test_element_make():
    b = make_element({3: 2, 1: 1, 2: 0})
    assert b == ((1, 1), (3, 2))
    assert dict(b) == {1: 1, 3: 2}
    assert total(b) == 3
    assert make_element() == make_element({}) == ()
    with pytest.raises(ConsistencyError):
        make_element({0: 1})
    with pytest.raises(ConsistencyError):
        make_element({2: -1})


def test_lowering_starts_at_first_occurrence(cartans, full_words):
    # on the empty element every Kashiwara function vanishes, so the least
    # maximizing occurrence is the first one
    for key, w in full_words.items():
        c = w.cartan
        for i in c.labels:
            fb = crystal_f(c, w, i, make_element())
            assert dict(fb) == {w.position(i, 1): 1}, (key, i)


def test_raising_at_bottom_is_none(cartans, full_words):
    for key, w in full_words.items():
        for i in w.cartan.labels:
            assert crystal_e(w.cartan, w, i, make_element()) is None, (key, i)


def test_frozen_lowering_chain(cartans):
    c = cartans["A2"]
    b = make_element()
    seen = []
    for i in (1, 2, 2, 1, 1, 2):
        b = crystal_f(c, (1, 2, 1), i, b)
        seen.append(b)
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
    sizes = [len(generate_binf(WordJ(c, (1, 2, 1)), d)) for d in range(7)]
    assert sizes == [1, 3, 7, 13, 22, 34, 50]


def test_generate_binf_nested(cartans):
    w = WordJ(cartans["B2"], (1, 2, 1, 2))
    prev = frozenset(generate_binf(w, 0))
    assert prev == frozenset({make_element()})
    for d in range(1, 4):
        cur = frozenset(generate_binf(w, d))
        assert prev < cur
        prev = cur


@settings(max_examples=60, deadline=None)
@given(moves=st.lists(st.sampled_from([1, 2]), max_size=8))
def test_raising_inverts_lowering(cartans, moves):
    c = cartans["G2"]
    w = (1, 2, 1, 2, 1, 2)
    b = make_element()
    for i in moves:
        nxt = crystal_f(c, w, i, b)
        assert total(nxt) == total(b) + 1
        assert crystal_e(c, w, i, nxt) == b
        assert crystal_epsilon(c, w, i, nxt) == crystal_epsilon(c, w, i, b) + 1
        b = nxt


def test_letter_absent(cartans):
    c = cartans["A3"]
    with pytest.raises(NotApplicable):
        generate_binf(WordJ(c, (1, 2, 1)), 1)
    with pytest.raises(UnknownLetterError):
        generate_binf(WordJ(c, (1, 2, 9)), 1)


def test_negative_depth(cartans):
    with pytest.raises(ConfigError):
        generate_binf(WordJ(cartans["A2"], (1, 2, 1)), -1)


def test_generate_binf_checks_only_when_it_lowers(cartans):
    c = cartans["A3"]
    short = WordJ(c, (1, 2, 1))
    assert generate_binf(short, 0) == (make_element(),)
    with pytest.raises(NotApplicable, match="letter 3 does not occur"):
        generate_binf(short, 1)


def _crystal_f_closure(cartan, word, depth):
    """Every element within ``depth`` lowering steps of the empty one, each
    step taken by :func:`crystal_f`."""
    seen = frontier = {make_element()}
    for _ in range(depth):
        frontier = {crystal_f(cartan, word, i, b)
                    for b in frontier for i in cartan.labels} - seen
        seen = seen | frontier
    return seen


def test_generate_binf_is_the_crystal_f_closure():
    checked = 0
    for name in ("A3", "B3", "C3"):
        cartan = validate_gcm(GCM[name])
        for letters in reduced_words_of_w0(cartan):
            word = WordJ(cartan, letters)
            assert (set(generate_binf(word, 4))
                    == _crystal_f_closure(cartan, word, 4)), (name, letters)
            checked += 1
    assert checked == 100


def test_generate_binf_is_closed_under_raising():
    # raising an element of total d lands on one of total d - 1, which the
    # search reached too; the bottom of each i-string is where epsilon_i is 0
    checked = 0
    for name in ("A3", "B3", "C3"):
        cartan = validate_gcm(GCM[name])
        word = WordJ(cartan, reduced_words_of_w0(cartan)[-1])
        elems = set(generate_binf(word, 4))
        for b in elems:
            for i in cartan.labels:
                up = crystal_e(cartan, word, i, b)
                eps = crystal_epsilon(cartan, word, i, b)
                assert (up is None) == (eps <= 0), (name, b, i)
                if up is not None:
                    assert up in elems and total(up) == total(b) - 1
                    checked += 1
    assert checked == 267


def test_generate_binf_comes_depth_by_depth_each_depth_sorted(cartans):
    # the order of the report listing: by total, then by the pairs
    elems = generate_binf(WordJ(cartans["A2"], (1, 2, 1)), 2)
    assert elems[:6] == (
        (),
        ((1, 1),),
        ((2, 1),),
        ((1, 1), (2, 1)),
        ((1, 2),),
        ((2, 1), (3, 1)),
    )
    assert list(elems) == sorted(elems, key=lambda b: (total(b), b))
    assert len(set(elems)) == len(elems)
    for name in ("B3", "C3"):
        cartan = validate_gcm(GCM[name])
        for letters in reduced_words_of_w0(cartan)[:10]:
            elems = generate_binf(WordJ(cartan, letters), 4)
            assert list(elems) == sorted(elems, key=lambda b: (total(b), b))

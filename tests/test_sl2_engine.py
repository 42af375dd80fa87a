from __future__ import annotations

import itertools
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trailkit.errors import DomainError
from trailkit.sl2_engine import (
    Sl2Config,
    coefficient_A,
    coefficient_A_factors,
    coefficient_A_oracle,
    vanishing_identity,
)

from oracles import (expansion_check, nested_state,
                     prefix_coefficient_A_factors, rigid_regime)


class Pair(NamedTuple):
    x: int
    y: int


def test_config_validation():
    with pytest.raises(DomainError):
        Sl2Config((2,), (1, 1), (0,))
    with pytest.raises(DomainError):
        Sl2Config((), (), ())
    with pytest.raises(DomainError):
        Sl2Config((2,), (-1,), (0,))
    cfg = Sl2Config([2, 3], [1, 2], [0, 1])
    assert cfg.a == (2, 3)          # sequences are normalised to tuples
    assert (type(cfg.a), type(cfg.k), type(cfg.l)) == (tuple, tuple, tuple)
    # a tuple subclass comes back as a plain tuple; a plain tuple is kept
    a = (2, 3)
    cfg = Sl2Config(a, Pair(1, 2), range(2))
    assert cfg.a is a and cfg.l == (0, 1)
    assert type(cfg.k) is tuple and cfg.k == (1, 2)


@pytest.mark.parametrize("bad", [2.5, 2.0, True, "2"])
def test_config_takes_exact_ints_only(bad):
    # a float, a bool or a str label is refused at the boundary, in every
    # one of a, k and l, not carried into the arithmetic
    for labels in [((bad,), (1,), (0,)), ((2,), (bad,), (0,)),
                   ((2,), (1,), (bad,))]:
        with pytest.raises(DomainError, match="ints"):
            Sl2Config(*labels)


def test_closed_form_hand_values():
    # single factor: f e^2 u = 2 (a - 1) e u for a = 3
    assert coefficient_A(Sl2Config((3,), (2,), (1,))) == 4
    # b = 0 keeps the vector
    assert coefficient_A(Sl2Config((3, 2), (1, 2), (1, 2))) == 1
    # worked two-factor case: 2! C(1,0) C(2,1) * 2 * 3
    assert coefficient_A(Sl2Config((2, 3), (1, 2), (0, 1))) == 24
    # any raised drop kills the coefficient
    assert coefficient_A(Sl2Config((2, 3), (1, 2), (2, 0))) == 0


def test_closed_form_single_factor_formula():
    # f^b e^k u = b! C(k, k-b) (a-k+1)...(a-k+b) e^{k-b} u
    for a in range(5):
        for k in range(a + 1):
            for b in range(k + 1):
                expect = 1
                for i in range(b):
                    expect *= (k - i) * (a - k + 1 + i)
                assert coefficient_A(Sl2Config((a,), (k,), (k - b,))) == expect


def test_rigid_regime_factors_positive():
    cfg = Sl2Config((2, 3), (1, 2), (0, 1))
    assert rigid_regime(cfg)
    head, binomials, linear = coefficient_A_factors(cfg)
    assert head == 2 and binomials == [1, 2] and linear == [2, 3]
    assert all(x > 0 for x in linear)
    loose = Sl2Config((2, 2), (2, 2), (1, 1))
    assert not rigid_regime(loose)       # a^(2) - k^(2) - l^(1) = -1
    # in the rigid regime every linear factor is positive, on a grid
    rigid = 0
    for n in (1, 2, 3):
        for combo in itertools.product(range(3), repeat=3 * n):
            cfg = Sl2Config(combo[:n], combo[n:2 * n], combo[2 * n:])
            if rigid_regime(cfg):
                rigid += 1
                assert all(x > 0 for x in coefficient_A_factors(cfg)[2]), cfg
    assert rigid > 100


def test_factors_match_the_prefix_sum_reference():
    checked = 0
    for n in (1, 2, 3):
        for combo in itertools.product(range(4), repeat=3 * n):
            cfg = Sl2Config(combo[:n], combo[n:2 * n], combo[2 * n:])
            assert coefficient_A_factors(cfg) == \
                prefix_coefficient_A_factors(cfg), cfg
            checked += 1
    assert checked == 4 ** 3 + 4 ** 6 + 4 ** 9


def test_oracle_recursion_builds_no_config(monkeypatch):
    cfg = Sl2Config((4, 3, 4), (3, 2, 4), (1, 0, 2))
    built = []
    post_init = Sl2Config.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(Sl2Config, "__post_init__", counting)
    value = coefficient_A_oracle(cfg)
    assert built == []
    assert value == coefficient_A(cfg) != 0


def test_oracle_matches_closed_form_exhaustively_n2():
    rng = range(4)
    memo: dict = {}
    for a in itertools.product(rng, repeat=2):
        for k in itertools.product(rng, repeat=2):
            for l in itertools.product(rng, repeat=2):
                cfg = Sl2Config(a, k, l)
                assert coefficient_A(cfg) == coefficient_A_oracle(cfg, memo)


@st.composite
def sl2_configs(draw, n_max=3, lim=4):
    n = draw(st.integers(1, n_max))
    box = st.tuples(*[st.integers(0, lim)] * n)
    return Sl2Config(draw(box), draw(box), draw(box))


@settings(max_examples=300)
@given(cfg=sl2_configs())
def test_oracle_matches_closed_form(cfg):
    assert coefficient_A(cfg) == coefficient_A_oracle(cfg)


@given(cfg=sl2_configs())
def test_b_zero_is_identity(cfg):
    same = Sl2Config(cfg.a, cfg.k, cfg.k)
    assert coefficient_A(same) == 1


def test_nested_state_examples():
    assert nested_state((3,), (2,)) == {(2,): 1}
    assert nested_state((1, 1), (1, 0)) == {(1, 0): 1}
    assert nested_state((1, 1), (0, 1)) == {(1, 0): 1, (0, 1): 1}
    assert nested_state((2, 1), (1, 1)) == {(2, 0): 1, (1, 1): 1}
    # raising past the top of a factor truncates to zero
    assert nested_state((1,), (2,)) == {}


def test_expansion_check_small():
    a, k = (2, 2), (1, 2)
    for b in range(sum(k) + 1):
        coeff = {}
        for l in itertools.product(range(k[0] + 1), range(k[1] + 1)):
            if sum(l) == sum(k) - b:
                coeff[l] = coefficient_A(Sl2Config(a, k, l))
        assert expansion_check(a, k, b, coeff)


def test_expansion_check_rejects_wrong_coefficient():
    a, k = (2, 2), (1, 2)
    coeff = {(0, 2): coefficient_A(Sl2Config(a, k, (0, 2))) + 1,
             (1, 1): coefficient_A(Sl2Config(a, k, (1, 1)))}
    assert not expansion_check(a, k, 1, coeff)


def test_vanishing_identity_zero_on_domain():
    for q in range(1, 5):
        for p1 in range(6):
            for p2 in range(q, 7):
                for u in range(q):
                    assert vanishing_identity(q, p1, p2, u) == 0


def test_vanishing_identity_domain_errors():
    with pytest.raises(DomainError):
        vanishing_identity(3, 4, 5, 3)
    with pytest.raises(DomainError):
        vanishing_identity(3, 4, 5, -1)
    with pytest.raises(DomainError):
        vanishing_identity(0, 4, 5, 0)


@pytest.mark.parametrize("bad", [2.5, 2.0, True, "2"])
def test_vanishing_identity_takes_exact_ints_only(bad):
    good = [3, 1, 3, 1]
    for i in range(4):
        args = good[:i] + [bad] + good[i + 1:]
        with pytest.raises(DomainError, match="int"):
            vanishing_identity(*args)

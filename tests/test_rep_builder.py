from __future__ import annotations

import hashlib
import json
import os
import re
import resource
import subprocess
import sys
import time
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import comb, lcm
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trailkit

from trailkit import (
    WordJ,
    build_fundamental,
    extremal_vector,
    freudenthal_multiplicities,
    validate_gcm,
    weyl_dimension,
)
from trailkit import rep_builder
from trailkit.cartan_core import (CartanData, _standard_gcm, positive_roots,
                                  wadd, wsub)
from trailkit.errors import (NotExtremalWeightError, NotFiniteTypeError,
                             NotReducedError, RadicalRankMismatch,
                             UnknownLetterError)
from trailkit.rep_builder import apply_projective

from conftest import FULL_WORDS, GCM, cartan_key
from oracles import (fraction_build_matrices, fraction_columns,
                     fraction_integer_form, root_coordinates,
                     saturated_weight_set)

FUNDAMENTAL_DIMS = {
    "A1": (2,),
    "A2": (3, 3),
    "A3": (4, 6, 4),
    "A4": (5, 10, 10, 5),
    "B2": (5, 4),
    "B3": (7, 21, 8),
    "C2": (4, 5),
    "C3": (6, 14, 14),
    "D4": (8, 28, 8, 8),
    "G2": (14, 7),
}


def test_weyl_dimension_fundamentals(cartans):
    for name, dims in FUNDAMENTAL_DIMS.items():
        c = cartans[name]
        got = tuple(weyl_dimension(c, c.fundamental_weight(t)) for t in c.labels)
        assert got == dims, name


def test_weyl_dimension_other_weights(cartans):
    assert weyl_dimension(cartans["A2"], (1, 1)) == 8
    assert weyl_dimension(cartans["B2"], (1, 1)) == 16
    assert weyl_dimension(cartans["G2"], (1, 1)) == 64
    assert weyl_dimension(cartans["A3"], (0, 0, 0)) == 1


def test_freudenthal_matches_weyl_dimension(cartans):
    weights = {
        "A2": [(1, 0), (1, 1), (2, 1)],
        "B2": [(1, 0), (0, 1), (1, 1), (2, 0)],
        "G2": [(1, 0), (0, 1), (1, 1)],
        "A3": [(1, 0, 0), (0, 1, 0), (1, 0, 1)],
    }
    for name, lams in weights.items():
        c = cartans[name]
        for lam in lams:
            mults = freudenthal_multiplicities(c, lam)
            assert sum(mults.values()) == weyl_dimension(c, lam)
            assert mults[lam] == 1


def test_freudenthal_interior_multiplicities(cartans):
    assert freudenthal_multiplicities(cartans["A2"], (1, 1))[(0, 0)] == 2
    assert freudenthal_multiplicities(cartans["G2"], (1, 0))[(0, 0)] == 2
    assert freudenthal_multiplicities(cartans["G2"], (1, 1))[(0, 0)] == 4


def test_build_fundamental_dims(modules):
    for (name, t), m in modules.items():
        assert m.dim == FUNDAMENTAL_DIMS[name][t - 1]
        assert m.t == t


def test_build_fundamental_weight_spaces(modules, cartans):
    # the lowest-weight module mirrors the highest-weight multiplicities
    for (name, t), m in modules.items():
        c = cartans[name]
        mults = freudenthal_multiplicities(c, c.fundamental_weight(t))
        mirrored = {tuple(-x for x in mu): k for mu, k in mults.items()}
        got = {mu: len(idx) for mu, idx in m.weight_spaces.items()}
        assert got == mirrored


def _string_length(cols, v: dict) -> int:
    """Largest p with a non-zero image of the non-zero v under p
    applications of the integer-form columns."""
    p = 0
    while True:
        v = apply_projective(cols, v)
        if not v:
            return p
        p += 1


def test_lowest_vector(modules):
    for (name, t), m in modules.items():
        low = {m.lowest_index: 1}
        fw = m.cartan.fundamental_weight(t)
        assert m.weights[m.lowest_index] == tuple(-x for x in fw)
        for i in m.cartan.labels:
            assert not apply_projective(m.f_int[i].cols, low)
            assert _string_length(m.e_int[i].cols, low) == (
                1 if i == t else 0)


def test_build_fundamental_rejects(cartans):
    with pytest.raises(UnknownLetterError):
        build_fundamental(cartans["A2"], 3)
    affine = validate_gcm([[2, -2], [-2, 2]])
    with pytest.raises(NotFiniteTypeError):
        build_fundamental(affine, 1)


def test_a_bool_is_not_a_label(cartans):
    # True == 1 and hash(True) == hash(1): neither the label check nor the
    # memo may take one for the other
    c = cartans["A2"]
    module = build_fundamental(c, 1)
    with pytest.raises(UnknownLetterError, match="label True outside"):
        build_fundamental(c, True)
    assert build_fundamental(c, 1) is module and type(module.t) is int
    fresh = validate_gcm([[2, -1], [-1, 2]])
    with pytest.raises(UnknownLetterError, match="label True outside"):
        build_fundamental.__wrapped__(fresh, True)
    with pytest.raises(UnknownLetterError, match="label True outside"):
        WordJ(c, (True, 2, 1))
    assert WordJ(c, (1, 2, 1)).letters == (1, 2, 1)


def _combine(*terms) -> dict:
    """sum c v over (c, v) pairs of integer vectors, zeros dropped."""
    out: dict = {}
    for c, v in terms:
        for b, x in v.items():
            out[b] = out.get(b, 0) + c * x
    return {b: x for b, x in out.items() if x}


def test_commutator_is_coroot_action(modules):
    # (e_i f_i - f_i e_i) v = <alpha_i^vee, mu> v on every basis vector; on
    # the integer forms both products carry the scale D_e D_f
    m = modules["G2", 1]
    for idx in range(m.dim):
        v = {idx: 1}
        mu = m.weights[idx]
        for i in m.cartan.labels:
            e, f = m.e_int[i], m.f_int[i]
            lhs = _combine((1, apply_projective(e.cols,
                                                apply_projective(f.cols, v))),
                           (-1, apply_projective(f.cols,
                                                 apply_projective(e.cols, v))))
            assert lhs == _combine((e.scale * f.scale * mu[i - 1], v))


def test_serre_like_weight_bookkeeping(modules):
    # e_i moves a vector one alpha_i up
    m = modules["B2", 2]
    root = m.cartan.simple_root(1)
    for idx in range(m.dim):
        for r in apply_projective(m.e_int[1].cols, {idx: 1}):
            assert m.weights[r] == tuple(
                x + y for x, y in zip(m.weights[idx], root))


def test_extremal_vector_tracks_prefix_weights(modules, full_words):
    for key, letters in FULL_WORDS.items():
        name = cartan_key(key)
        w = full_words[key]
        for t in w.cartan.labels:
            m = modules[name, t]
            for j in range(len(letters) + 1):
                (idx,) = extremal_vector(m, letters[:j])
                assert m.weights[idx] == w.prefix_weights(t)[j]
            assert m.start_vector == extremal_vector(m, (t,))


def test_extremal_vector_rejects_a_word_that_is_not_reduced(modules):
    with pytest.raises(NotReducedError, match=r"word \(1, 1\) is not a reduced"):
        extremal_vector(modules["A2", 1], (1, 1))


def test_build_fundamental_is_memoized(cartans):
    assert build_fundamental(cartans["A2"], 1) is build_fundamental(
        validate_gcm(GCM["A2"]), 1)


def test_extremal_vector_rejects_a_vanished_vector(cartans):
    m = build_fundamental(cartans["B3"], 2)
    scale, cols = m.e_int[m.t]
    e_int = {**m.e_int, m.t: rep_builder.IntegerForm(scale, ((),) * len(cols))}
    zeroed = rep_builder.LowestWeightModule(m.cartan, m.t, m.weights, e_int,
                                            m.f_int)
    with pytest.raises(NotExtremalWeightError, match="not a multiplicity-one"):
        extremal_vector(zeroed, (m.t,))


def test_a_leftover_module_cache_is_neither_read_nor_written(
        tmp_path, monkeypatch, cartans):
    """Earlier versions read and rewrote modules under TRAILKIT_CACHE_DIR.
    A tampered file left there in that layout must not change a build, and
    the build must leave the directory as it was."""
    c, t = cartans["B2"], 1
    fresh = build_fundamental.__wrapped__(c, t)
    key = json.dumps({"gcm": [list(r) for r in c.gcm], "t": t},
                     sort_keys=True, separators=(",", ":"))
    payload = json.loads(json.dumps(
        {"format": 3, "t": t, "weights": fresh.weights,
         "E": {str(i): form._asdict() for i, form in fresh.e_int.items()},
         "F": {str(i): form._asdict() for i, form in fresh.f_int.items()}}))
    next(e for col in payload["E"]["1"]["cols"] for e in col)[1] *= 3
    cache = tmp_path / "cache"
    cache.mkdir()
    (cache / (hashlib.sha256(key.encode()).hexdigest()[:24] + ".json")
     ).write_text(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    before = {p.name: p.read_bytes() for p in cache.iterdir()}
    monkeypatch.setenv("TRAILKIT_CACHE_DIR", str(cache))
    m = build_fundamental.__wrapped__(c, t)     # skip the in-memory memo
    assert {p.name: p.read_bytes() for p in cache.iterdir()} == before
    assert (m.weights, m.e_int, m.f_int) == (fresh.weights, fresh.e_int,
                                             fresh.f_int)


# --- relations the build does not check itself --------------------------------


def _power(cols, k: int, v: dict) -> dict:
    for _ in range(k):
        v = apply_projective(cols, v)
    return v


def _serre(m, forms, i: int, j: int, v: dict) -> dict:
    """(ad x_i)^{1-a_ij} x_j applied to v, for x = e or x = f, on integer
    forms: every term applies 1-a_ij forms of x_i and one of x_j, so all
    terms carry one scale and the sum vanishes exactly when the exact one
    does."""
    k = 1 - m.cartan.pairing(i, j)
    xi, xj = forms[i].cols, forms[j].cols
    return _combine(*(((-1) ** r * comb(k, r),
                       _power(xi, k - r, apply_projective(xj, _power(xi, r, v))))
                      for r in range(k + 1)))


@pytest.mark.parametrize("name", ["G2", "B3", "C3", "D4"])
def test_commutation_and_serre_relations(cartans, name):
    c = cartans[name]
    for t in c.labels:
        m = build_fundamental(c, t)
        for idx in range(m.dim):
            v = {idx: 1}
            for i in c.labels:
                for j in c.labels:
                    if i == j:
                        continue
                    # both products carry the scale D_{e_i} D_{f_j}
                    ei, fj = m.e_int[i].cols, m.f_int[j].cols
                    comm = _combine(
                        (1, apply_projective(ei, apply_projective(fj, v))),
                        (-1, apply_projective(fj, apply_projective(ei, v))))
                    assert not comm, (name, t, i, j)
                    assert not _serre(m, m.e_int, i, j, v), (name, t, i, j)
                    assert not _serre(m, m.f_int, i, j, v), (name, t, i, j)


# --- every fundamental module up to rank 6 -------------------------------------

RANK_6_TYPES = ([("A", n) for n in range(1, 7)] + [("B", n) for n in range(2, 7)]
                + [("C", n) for n in range(3, 7)] + [("D", n) for n in range(4, 7)]
                + [("E", 6), ("F", 4), ("G", 2)])

_BUILD_ALL = """
import json, sys
from trailkit.cartan_core import _standard_gcm, validate_gcm
from trailkit.rep_builder import (build_fundamental, freudenthal_multiplicities,
                                  weyl_dimension)
for family, n in json.loads(sys.argv[1]):
    c = validate_gcm(_standard_gcm(family, n))
    for t in c.labels:
        lam = c.fundamental_weight(t)
        mult = freudenthal_multiplicities(c, lam)
        print(json.dumps([family + str(n), t, build_fundamental(c, t).dim,
                          weyl_dimension(c, lam), sum(mult.values())]),
              flush=True)
"""

ADDRESS_SPACE_CAP = 2 << 30


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_CAP, ADDRESS_SPACE_CAP))


def test_every_fundamental_up_to_rank_6_builds_in_2gb():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(trailkit.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", _BUILD_ALL, json.dumps(RANK_6_TYPES)],
        capture_output=True, text=True, env=env, timeout=600,
        preexec_fn=_cap_address_space)
    assert proc.returncode == 0, proc.stderr[-2000:]
    rows = {(name, t): (dim, weyl, freudenthal) for name, t, dim, weyl, freudenthal
            in map(json.loads, proc.stdout.splitlines())}
    assert len(rows) == sum(n for _, n in RANK_6_TYPES)
    for key, (dim, weyl, freudenthal) in rows.items():
        assert dim == weyl == freudenthal, key
    assert rows["F4", 2][0] == 1274 and rows["F4", 3][0] == 273
    assert rows["E6", 3][0] == 351


# --- the dominant-weight Freudenthal recursion and the integer forms ----------


def _freudenthal_all_weights(cartan, highest):
    """Freudenthal's recursion over every weight, highest first: the
    reference for the dominant-weight recursion of the library.  It solves
    for root coordinates with the inverse Cartan matrix, where the library
    counts them."""
    d = cartan.symmetrizer
    n = cartan.n
    weights = saturated_weight_set(cartan, highest)
    by_height = sorted(weights, key=lambda mu: (
        sum(root_coordinates(cartan, wsub(highest, mu))), mu))
    pos = positive_roots(cartan)
    pos_w = [tuple(sum(cartan.gcm[k][j] * b[j] for j in range(n))
                   for k in range(n)) for b, _ in pos]
    rho = cartan.rho()
    mult = {}
    for mu in by_height:
        if mu == highest:
            mult[mu] = 1
            continue
        num = 0
        for (b, _), beta_w in zip(pos, pos_w):
            nu = wadd(mu, beta_w)
            while nu in mult:
                num += mult[nu] * sum(b[j] * d[j] * nu[j] for j in range(n))
                nu = wadd(nu, beta_w)
        diff = root_coordinates(cartan, wsub(highest, mu))
        tot = wadd(wadd(highest, mu), wadd(rho, rho))
        denom = sum(diff[j] * d[j] * tot[j] for j in range(n))
        val, rem = divmod(2 * num, denom)
        assert rem == 0 and val >= 0, mu
        if val:
            mult[mu] = val
    return mult


def test_dominant_freudenthal_matches_the_full_recursion():
    for family, n in RANK_6_TYPES:
        c = validate_gcm(_standard_gcm(family, n))
        for t in c.labels:
            lam = c.fundamental_weight(t)
            assert (freudenthal_multiplicities(c, lam)
                    == _freudenthal_all_weights(c, lam)), (family, n, t)


def test_dominant_freudenthal_on_non_fundamental_weights(cartans):
    for name, lam in (("A2", (2, 1)), ("B2", (1, 1)), ("G2", (1, 1)),
                      ("C3", (1, 0, 1)), ("D4", (0, 1, 0, 1))):
        c = cartans[name]
        assert (freudenthal_multiplicities(c, lam)
                == _freudenthal_all_weights(c, lam)), name


RANK_4_FUNDAMENTALS = [(family + str(n), t)
                       for family, n in RANK_6_TYPES if n <= 4
                       for t in range(1, n + 1)]


# the modules that the enumerate benchmark builds
ENUMERATE_MODULES = [("C5", 5), ("C5", 4), ("F4", 1), ("E6", 2), ("E6", 6),
                     ("D6", 6), ("F4", 4)]


def test_character_matches_the_saturation_reference():
    """The character, walked over the dominant weights and their orbits,
    equals the recursion over the saturated weight set on every
    fundamental of rank <= 4, the enumerate benchmark's modules and every
    dominant weight of rank <= 3 with entries <= 2."""
    cases = [(validate_gcm(_standard_gcm(tag[0], int(tag[1:]))), t)
             for tag, t in RANK_4_FUNDAMENTALS + ENUMERATE_MODULES]
    highest = [(c, c.fundamental_weight(t)) for c, t in cases]
    for family, n in RANK_6_TYPES + [("C", 2)]:
        if n <= 3:
            c = validate_gcm(_standard_gcm(family, n))
            highest += [(c, lam) for lam in product(range(3), repeat=n)]
    assert len(highest) == 36 + 7 + 120
    for c, lam in highest:
        assert (freudenthal_multiplicities(c, lam)
                == _freudenthal_all_weights(c, lam)), (c.type_tag, lam)


def _module(tag: str, t: int):
    return build_fundamental(validate_gcm(_standard_gcm(tag[0], int(tag[1:]))), t)


@lru_cache(maxsize=None)
def _fraction_columns(tag: str, t: int):
    return _recorded_columns(_module(tag, t).cartan, t)


def _recorded_columns(cartan, t: int):
    """The Fraction columns of the reference build, flipped as
    ``build_fundamental`` flips them: (e, f) by i."""
    _, e_cols, f_cols = fraction_columns(cartan, t)
    return f_cols, e_cols


def _apply_columns(cols, u: dict) -> dict:
    out = {}
    for b, c in u.items():
        for r, x in cols[b]:
            out[r] = out.get(r, 0) + c * x
    return {r: y for r, y in out.items() if y}


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(RANK_4_FUNDAMENTALS), st.floats(0, 1, exclude_max=True),
       st.lists(st.tuples(st.booleans(), st.integers(0, 3)), max_size=12))
def test_integer_forms_agree_with_fraction_operators(instance, start, walk):
    """The integer vectors over the integer forms are a positive multiple
    of the exact images under the Fraction columns of the build, and
    vanish exactly when those do."""
    m = _module(*instance)
    e_cols, f_cols = _fraction_columns(*instance)
    idx = int(start * m.dim)
    u = {idx: Fraction(1)}
    w = {idx: 1}
    for raising, k in walk:
        i = k % m.cartan.n + 1
        if raising:
            w = apply_projective(m.e_int[i].cols, w)
            u = _apply_columns(e_cols[i], u)
        else:
            w = apply_projective(m.f_int[i].cols, w)
            u = _apply_columns(f_cols[i], u)
        assert (not u) == (not w)
        if not w:
            break
        # w is a positive multiple of the exact vector u
        assert w.keys() == u.keys()
        ratios = {Fraction(x) / u[b] for b, x in w.items()}
        assert len(ratios) == 1 and min(ratios) > 0


def test_integer_forms_scale_the_fraction_columns(modules):
    """Each stored operator is the build's Fraction columns, flipped, times
    the lcm of their denominators."""
    for m in modules.values():
        e_cols, f_cols = _recorded_columns(m.cartan, m.t)
        for fracs, ints in ((e_cols, m.e_int), (f_cols, m.f_int)):
            assert fracs.keys() == ints.keys()
            for i, cols in fracs.items():
                scale, icols = ints[i]
                assert scale == lcm(1, *(x.denominator for col in cols
                                         for _, x in col))
                assert icols == tuple(tuple((r, int(x * scale)) for r, x in col)
                                      for col in cols)


def test_verify_module_catches_a_changed_non_integer_entry(cartans):
    m = build_fundamental(cartans["C3"], 2)
    rep_builder._verify_module(m)
    forms = {"e": dict(m.e_int), "f": dict(m.f_int)}
    name, i, b, k = next(
        (name, i, b, k) for name, by_i in forms.items()
        for i, (scale, cols) in by_i.items() for b, col in enumerate(cols)
        for k, (_, x) in enumerate(col) if Fraction(x, scale) == Fraction(1, 2))
    scale, cols = forms[name][i]
    fracs = [[(r, Fraction(x, scale)) for r, x in col] for col in cols]
    fracs[b][k] = (fracs[b][k][0], Fraction(1, 3))
    forms[name][i] = fraction_integer_form(fracs)
    assert forms[name][i].scale != scale
    tampered = rep_builder.LowestWeightModule(
        m.cartan, m.t, m.weights, forms["e"], forms["f"])
    with pytest.raises(RadicalRankMismatch, match=r"\[e_\d, f_\d\] is not"):
        rep_builder._verify_module(tampered)


# --- a wrong character ----------------------------------------------------------
# The build groups candidates only at the weights of Freudenthal's
# character, so a character that lacks a weight of the module never reaches
# that weight's rank check.  It must still fail, before build_fundamental
# returns: the module then lacks a vector f_j b that the true module has,
# and f_j b = 0 breaks [e_j, f_j] b = <alpha_j^vee, wt b> b at the highest
# such weight, unless a rank check below or the Weyl dimension fails first.


@contextmanager
def edited_character(edit):
    """Within the block, rep_builder's Freudenthal character is passed
    through ``edit``, which changes the dict in place."""
    real = rep_builder.freudenthal_multiplicities

    def edited(cartan, highest):
        mult = real(cartan, highest)
        edit(mult)
        return mult

    rep_builder.freudenthal_multiplicities = edited
    try:
        yield
    finally:
        rep_builder.freudenthal_multiplicities = real


# the messages of the checks that can catch a wrong character
_BUILD_CHECKS = (
    ("rank", r"weight .*: rank of the e-images \d+ != Freudenthal multiplicity"),
    ("dimension", r"dimension \d+ disagrees with the Weyl formula \d+$"),
    ("commutator", r"\[e_\d+, f_\d+\] is not alpha_\d+\^vee on weight"),
)


def assert_each_dropped_weight_raises(cartan, t: int, weights) -> Counter:
    """A checked build of V(omega_t) (unmemoized) whose character lacks any
    one of ``weights`` raises RadicalRankMismatch; returns how many cases
    each check caught: "rank", "dimension" or "commutator"."""
    caught = Counter()
    for nu in weights:
        with edited_character(lambda mult: mult.pop(nu)):
            with pytest.raises(RadicalRankMismatch) as info:
                build_fundamental.__wrapped__(cartan, t)
        message = str(info.value)
        kind = next((kind for kind, pattern in _BUILD_CHECKS
                     if re.match(pattern, message)), None)
        assert kind, (cartan.type_tag, t, nu, message)
        caught[kind] += 1
    return caught


def test_a_weight_missing_from_the_character_is_a_rank_error():
    """The lowest weight of B2 omega_1 left out: no rank check runs there,
    and the checked build raises RadicalRankMismatch at the Weyl dimension
    instead of returning a module of dimension 4."""
    c = validate_gcm(_standard_gcm("B", 2))
    assert freudenthal_multiplicities(c, c.fundamental_weight(1))[-1, 0] == 1
    with edited_character(lambda mult: mult.pop((-1, 0))):
        weights, _, _ = rep_builder._build_matrices(c, 1)
        assert len(weights) == 4 and (-1, 0) not in weights
        with pytest.raises(RadicalRankMismatch, match=re.escape(
                "dimension 4 disagrees with the Weyl formula 5")):
            build_fundamental.__wrapped__(c, 1)


def test_every_weight_missing_from_a_rank_3_character_raises():
    caught = Counter()
    for family, n in RANK_6_TYPES:
        if n > 3:
            continue
        c = validate_gcm(_standard_gcm(family, n))
        for t in c.labels:
            lam = c.fundamental_weight(t)
            caught += assert_each_dropped_weight_raises(
                c, t, [mu for mu in freudenthal_multiplicities(c, lam)
                       if mu != lam])
    assert sum(caught.values()) == 102, caught
    assert caught["rank"] and caught["dimension"], caught


def test_every_dominant_weight_missing_from_a_rank_6_character_raises():
    cases = 0
    for family, n in RANK_6_TYPES:
        c = validate_gcm(_standard_gcm(family, n))
        for t in c.labels:
            lam = c.fundamental_weight(t)
            dominant = [mu for mu in freudenthal_multiplicities(c, lam)
                        if mu != lam and min(mu) >= 0]
            cases += sum(assert_each_dropped_weight_raises(
                c, t, dominant).values())
    assert cases == 84


def test_a_spurious_weight_that_the_build_reaches_is_a_rank_error():
    """A weight one simple root below the character, given multiplicity 1:
    the build groups its candidates, finds e-images of rank 0 and stops
    there."""
    c = validate_gcm(_standard_gcm("B", 2))
    lam = c.fundamental_weight(1)
    mult = freudenthal_multiplicities(c, lam)
    nu = min(wsub(mu, c.simple_root(j)) for mu in mult for j in c.labels
             if wsub(mu, c.simple_root(j)) not in mult)
    with edited_character(lambda mult: mult.update({nu: 1})):
        with pytest.raises(RadicalRankMismatch, match=re.escape(
                f"weight {nu}: rank of the e-images 0 != Freudenthal "
                f"multiplicity 1")):
            build_fundamental.__wrapped__(c, 1)


@pytest.mark.parametrize("tag,t", RANK_4_FUNDAMENTALS + [
    key for key in ENUMERATE_MODULES if key not in RANK_4_FUNDAMENTALS])
def test_integer_build_equals_the_fraction_build(tag, t):
    """The integer build returns exactly what the Fraction reference build
    returns: the same weights and the same integer forms."""
    c = validate_gcm(_standard_gcm(tag[0], int(tag[1:])))
    assert rep_builder._build_matrices(c, t) == fraction_build_matrices(c, t)


def test_the_build_forms_e_images_only_inside_the_character(monkeypatch):
    """Over the enumerate benchmark's modules the build forms 1,038
    e-images and runs 442 row reductions, one per weight below the top,
    besides the rank check of the Cartan matrix that its character makes
    once per build; grouping candidates at every weight one simple root
    below a level would form 2,619 e-images, 1,581 of them outside the
    character."""
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    cases = [(validate_gcm(_standard_gcm(tag[0], int(tag[1:]))), t)
             for tag, t in ENUMERATE_MODULES]
    weights = sum(len(freudenthal_multiplicities(c, c.fundamental_weight(t)))
                  for c, t in cases)
    for name in ("_e_images", "integer_rref"):
        monkeypatch.setattr(rep_builder, name,
                            counted(name, getattr(rep_builder, name)))
    for c, t in cases:
        rep_builder._build_matrices(c, t)
    assert calls == {"_e_images": 1038, "integer_rref": 442 + 7}
    assert calls["integer_rref"] == weights


def assert_counted_coordinates(cartan, t: int) -> int:
    """Every weight of V(omega_t) carries the root coordinates of
    omega_t - weight that the inverse Cartan matrix gives; returns the
    number of weights."""
    lam = cartan.fundamental_weight(t)
    coords = saturated_weight_set(cartan, lam)
    for mu, x in coords.items():
        assert x == root_coordinates(cartan, wsub(lam, mu)), (mu, x)
    return len(coords)


def test_counted_root_coordinates_match_the_inverse_cartan_matrix():
    # every fundamental of rank <= 4 and the enumerate benchmark's modules
    weights = 0
    for tag, t in RANK_4_FUNDAMENTALS + [
            key for key in ENUMERATE_MODULES if key not in RANK_4_FUNDAMENTALS]:
        c = validate_gcm(_standard_gcm(tag[0], int(tag[1:])))
        weights += assert_counted_coordinates(c, t)
    assert weights > 1000


def test_a_weight_reached_with_other_coordinates_raises():
    """Two walks to one weight must count the same coordinates.  They can
    differ only when the simple roots are dependent, as for the singular
    affine matrix of A1 passed off here as finite type: alpha_2 = -alpha_1,
    so omega_1 - alpha_1 - alpha_2 is omega_1 again.  The character checks
    the rank of the matrix before it walks a weight or asks for a root, and
    the root system checks that the symmetrized matrix is positive
    definite, so no call walks without end; each raises within 1 s."""
    c = CartanData(gcm=((2, -2), (-2, 2)), symmetrizer=(1, 1),
                   finite_type=True, type_tag=None)
    cases = [
        (lambda: freudenthal_multiplicities(c, (1, 0)), RadicalRankMismatch,
         "the simple roots are linearly dependent: the Cartan matrix has "
         "rank 1, not 2"),
        (lambda: saturated_weight_set(c, (1, 0)), RadicalRankMismatch,
         "weight (1, 0) reached with root coordinates (0, 0) and (1, 1)"),
    ] + [(call, NotFiniteTypeError,
          "the symmetrized Cartan matrix is not positive definite, so the "
          "root system is infinite")
         for call in (lambda: positive_roots(c),
                      lambda: weyl_dimension(c, (1, 0)))]
    for call, kind, message in cases:
        start = time.perf_counter()
        with pytest.raises(kind, match=re.escape(message)):
            call()
        assert time.perf_counter() - start < 1, message

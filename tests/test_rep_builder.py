from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
from fractions import Fraction
from functools import lru_cache
from math import comb, lcm
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trailkit

from trailkit import (
    WordJ,
    apply_raising_monomial,
    build_fundamental,
    extremal_vector,
    freudenthal_multiplicities,
    proportionality,
    validate_gcm,
    weyl_act,
    weyl_dimension,
)
from trailkit import rep_builder
from trailkit.cartan_core import (_standard_gcm, positive_roots, root_coordinates,
                                  wadd, wsub)
from trailkit.errors import (NotFiniteTypeError, NotReducedError,
                             RadicalRankMismatch, UnknownLetterError,
                             ZeroVectorError)

from conftest import FULL_WORDS, GCM, cartan_key

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


def test_lowest_vector(modules):
    for (name, t), m in modules.items():
        low = m.lowest_vector()
        fw = m.cartan.fundamental_weight(t)
        assert low.weight == tuple(-x for x in fw)
        for i in m.cartan.labels:
            assert m.apply_f(i, low).is_zero()
            assert m.e_string_length(i, low) == (1 if i == t else 0)


def test_build_fundamental_rejects(cartans):
    with pytest.raises(UnknownLetterError):
        build_fundamental(cartans["A2"], 3)
    affine = validate_gcm([[2, -2], [-2, 2]])
    with pytest.raises(NotFiniteTypeError):
        build_fundamental(affine, 1)


def test_commutator_is_coroot_action(modules):
    # (e_i f_i - f_i e_i) v = <alpha_i^vee, mu> v on every basis vector
    m = modules["G2", 1]
    for idx in range(m.dim):
        v = m.basis_vector(idx)
        mu = v.weight
        for i in m.cartan.labels:
            lhs = m.apply_e(i, m.apply_f(i, v)).add(
                m.apply_f(i, m.apply_e(i, v)).scale(-1))
            want = v.scale(mu[i - 1])
            assert lhs.key() == want.key()


def test_serre_like_weight_bookkeeping(modules):
    # e_i moves a vector one alpha_i up
    m = modules["B2", 2]
    root = m.cartan.simple_root(1)
    for idx in range(m.dim):
        v = m.basis_vector(idx)
        up = m.apply_e(1, v)
        if not up.is_zero():
            assert up.weight == tuple(x + r for x, r in zip(v.weight, root))


def test_extremal_vector_tracks_prefix_weights(modules, full_words):
    for key, letters in FULL_WORDS.items():
        name = cartan_key(key)
        w = full_words[key]
        for t in w.cartan.labels:
            m = modules[name, t]
            for j in range(len(letters) + 1):
                v = extremal_vector(m, letters[:j])
                assert v.weight == w.prefix_weight(t, j)
                assert len(v.coords) == 1


def test_extremal_vector_rejects_a_word_that_is_not_reduced(modules):
    with pytest.raises(NotReducedError, match=r"word \(1, 1\) is not a reduced"):
        extremal_vector(modules["A2", 1], (1, 1))


def test_apply_raising_monomial(modules):
    m = modules["A3", 2]
    v = m.lowest_vector()
    direct = m.apply_e(2, m.apply_e(2, m.apply_e(1, v)))
    assert apply_raising_monomial(m, [(1, 1), (2, 2)], v).key() == direct.key()
    assert apply_raising_monomial(m, [(2, 9)], v).is_zero()


def test_proportionality(modules):
    m = modules["A2", 1]
    v = m.lowest_vector()
    assert proportionality(v.scale(7), v) == 7
    u = m.apply_e(1, v)
    assert proportionality(u, v) is None       # different weights
    with pytest.raises(ZeroVectorError):
        proportionality(m.zero(), v)
    zero_space = modules["G2", 1].weight_space((0, 0))
    x, y = (modules["G2", 1].basis_vector(i) for i in zero_space)
    assert proportionality(x, y) is None       # same weight, independent


def test_build_fundamental_is_memoized(cartans):
    assert build_fundamental(cartans["A2"], 1) is build_fundamental(
        validate_gcm(GCM["A2"]), 1)


def test_module_cache_roundtrip(tmp_path, monkeypatch, cartans):
    monkeypatch.setenv("TRAILKIT_CACHE_DIR", str(tmp_path))
    build = build_fundamental.__wrapped__      # skip the in-memory memo
    c = cartans["B2"]
    first = build(c, 2)
    (path,) = tmp_path.iterdir()
    data = json.loads(path.read_text())
    assert data["format"] == rep_builder.CACHE_FORMAT == 3
    assert data["E"]["1"]["scale"] == first.e_int[1].scale
    monkeypatch.setattr(rep_builder, "_build_matrices", None)   # load only
    second = build(c, 2)
    assert second.weights == first.weights
    assert second.e_int == first.e_int
    assert second.f_int == first.f_int


def _entry(data, value=None):
    """The first [r, x] entry of E_1 in a cached payload, or the first
    whose x equals ``value``."""
    return next(e for col in data["E"]["1"]["cols"] for e in col
                if value is None or e[1] == value)


def _tamper_version(data):
    del data["format"]


def _tamper_format_2(data):
    """The same module in format 2, as [r, numerator, denominator] triples."""
    data["format"] = 2
    for forms in (data["E"], data["F"]):
        for i, form in forms.items():
            forms[i] = [[[r, *Fraction(x, form["scale"]).as_integer_ratio()]
                         for r, x in col] for col in form["cols"]]


def _tamper_coefficient(data):
    _entry(data)[1] *= 3


def _tamper_float(data):
    entry = _entry(data)
    entry[1] = float(entry[1])


def _tamper_bool(data):
    _entry(data, 1)[1] = True


def _tamper_scale_zero(data):
    data["E"]["1"]["scale"] = 0


def _tamper_scale_negative(data):
    data["E"]["1"]["scale"] *= -1


def _tamper_float_weight(data):
    data["weights"][0][0] = float(data["weights"][0][0])


@pytest.mark.parametrize("tamper", [
    _tamper_version, _tamper_format_2, _tamper_coefficient, _tamper_float,
    _tamper_bool, _tamper_scale_zero, _tamper_scale_negative,
    _tamper_float_weight,
], ids=["versionless", "format-2", "coefficient", "float", "bool",
        "scale-zero", "scale-negative", "float-weight"])
def test_module_cache_rebuilds_bad_file(tmp_path, monkeypatch, cartans, tamper):
    monkeypatch.setenv("TRAILKIT_CACHE_DIR", str(tmp_path))
    build = build_fundamental.__wrapped__      # skip the in-memory memo
    c = cartans["B2"]
    fresh = build(c, 1)
    (path,) = tmp_path.iterdir()
    good = path.read_bytes()
    data = json.loads(good)
    tamper(data)
    path.write_text(json.dumps(data))
    builds = []
    real = rep_builder._build_matrices
    monkeypatch.setattr(rep_builder, "_build_matrices",
                        lambda *a: builds.append(a) or real(*a))
    again = build(c, 1)
    assert builds == [(c, 1)]                  # a miss: rebuilt, not loaded
    assert (again.weights, again.e_int, again.f_int) == (
        fresh.weights, fresh.e_int, fresh.f_int)
    assert path.read_bytes() == good           # and the file overwritten


# --- relations the build does not check itself --------------------------------


def _power(apply, i: int, k: int, v):
    for _ in range(k):
        v = apply(i, v)
    return v


def _serre(m, apply, i: int, j: int, v):
    """(ad x_i)^{1-a_ij} x_j applied to v, for x = e or x = f."""
    k = 1 - m.cartan.pairing(i, j)
    total = m.zero()
    for r in range(k + 1):
        term = _power(apply, i, k - r, apply(j, _power(apply, i, r, v)))
        total = total.add(term.scale((-1) ** r * comb(k, r)))
    return total


@pytest.mark.parametrize("name", ["G2", "B3", "C3", "D4"])
def test_commutation_and_serre_relations(cartans, name):
    c = cartans[name]
    for t in c.labels:
        m = build_fundamental(c, t)
        for idx in range(m.dim):
            v = m.basis_vector(idx)
            for i in c.labels:
                for j in c.labels:
                    if i == j:
                        continue
                    comm = m.apply_e(i, m.apply_f(j, v)).add(
                        m.apply_f(j, m.apply_e(i, v)).scale(-1))
                    assert comm.is_zero(), (name, t, i, j)
                    assert _serre(m, m.apply_e, i, j, v).is_zero(), (name, t, i, j)
                    assert _serre(m, m.apply_f, i, j, v).is_zero(), (name, t, i, j)


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
    env = {k: v for k, v in os.environ.items() if k != "TRAILKIT_CACHE_DIR"}
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
    reference for the dominant-weight recursion of the library."""
    d = cartan.symmetrizer
    n = cartan.n
    weights = rep_builder.saturated_weight_set(cartan, highest)
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


def _module(tag: str, t: int):
    return build_fundamental(validate_gcm(_standard_gcm(tag[0], int(tag[1:]))), t)


@lru_cache(maxsize=None)
def _fraction_columns(tag: str, t: int):
    return _recorded_columns(_module(tag, t).cartan, t)


def _recorded_columns(cartan, t: int):
    """The Fraction columns that ``_build_matrices`` turns into integer
    forms, flipped as ``build_fundamental`` flips them: (e, f) by i."""
    seen = {}
    real = rep_builder._integer_form

    def record(cols):
        form = real(cols)
        seen[form] = tuple(cols)
        return form

    with mock.patch.object(rep_builder, "_integer_form", record):
        _, e_int, f_int = rep_builder._build_matrices(cartan, t)
    return ({i: seen[form] for i, form in f_int.items()},
            {i: seen[form] for i, form in e_int.items()})


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
    """apply_e / apply_f give exactly the images under the Fraction columns
    of the build, and the integer vectors a positive multiple of them."""
    m = _module(*instance)
    e_cols, f_cols = _fraction_columns(*instance)
    idx = int(start * m.dim)
    v = m.basis_vector(idx)
    u = {idx: Fraction(1)}
    w = {idx: 1}
    for raising, k in walk:
        i = k % m.cartan.n + 1
        if raising:
            v, w = m.apply_e(i, v), rep_builder.apply_projective(m.e_int[i].cols, w)
            u = _apply_columns(e_cols[i], u)
        else:
            v, w = m.apply_f(i, v), rep_builder.apply_projective(m.f_int[i].cols, w)
            u = _apply_columns(f_cols[i], u)
        assert v.coords == u
        assert v.is_zero() == (not w)
        if not w:
            break
        # w is a positive multiple of the exact vector v
        assert w.keys() == v.coords.keys()
        ratios = {Fraction(x) / v.coords[b] for b, x in w.items()}
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
    forms[name][i] = rep_builder._integer_form(fracs)
    assert forms[name][i].scale != scale
    tampered = rep_builder.LowestWeightModule(
        m.cartan, m.t, m.weights, m.lowest_index, forms["e"], forms["f"])
    with pytest.raises(RadicalRankMismatch, match=r"\[e_\d, f_\d\] is not"):
        rep_builder._verify_module(tampered)

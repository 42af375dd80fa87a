"""End-to-end acceptance gate: one test per numbered criterion.

Every test performs exact-equality checks at desk scale, records a
PASS/FAIL line with its elapsed time in ``RESULTS`` (rendered by the
terminal-summary hook in conftest), and enforces a wall-clock budget
where one is part of the contract.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import random
import time

import pytest

from trailkit import (
    WordJ,
    build_fundamental,
    construct_envelope,
    validate_gcm,
)
from trailkit.bj_crystal import generate_binf
from trailkit.cartan_core import is_reduced, reflect
from trailkit.cli import main as cli_main
from trailkit.errors import DomainError
from trailkit.giant import epsilon_star
from trailkit.rep_builder import freudenthal_multiplicities, weyl_dimension
from trailkit.sgraph import (
    CoeffVector,
    binary_fusion,
    display_tuple,
    integer_points,
    is_connected,
    line_count,
    neighbor_graph,
)
from trailkit.sl2_engine import (
    Sl2Config,
    coefficient_A,
    coefficient_A_oracle,
    vanishing_identity,
)
from trailkit.trails import (
    enumerate_trails,
    face_function,
    kashiwara_function,
    trail_function,
)

from oracles import (apply_diagonal_e, apply_diagonal_f, evaluate,
                     lp_extremal_points, reversed_tie_break)

RESULTS: dict[int, tuple[str, str, float]] = {}


@contextlib.contextmanager
def criterion(num: int, desc: str, budget: float | None = None):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        RESULTS[num] = ("FAIL", desc, time.perf_counter() - t0)
        raise
    dt = time.perf_counter() - t0
    if budget is not None and dt > budget:
        RESULTS[num] = ("FAIL", desc, dt)
        pytest.fail(f"criterion {num} took {dt:.1f}s, over the "
                    f"{budget:.0f}s budget")
    RESULTS[num] = ("PASS", desc, dt)


# -- 1 -----------------------------------------------------------------------

LIM = 4  # grid bound for a_i, k_i, l_i


def test_criterion_1_sl2_coefficient_three_ways():
    with criterion(1, "sl(2) closed form == recurrence == expansion, "
                      "grid n<=3 entries<=4", budget=60):
        rng = range(LIM + 1)
        for n in (1, 2, 3):
            # closed form against the downward recurrence
            for a in itertools.product(rng, repeat=n):
                memo: dict = {}  # the recurrence never changes a
                for k in itertools.product(rng, repeat=n):
                    for l in itertools.product(rng, repeat=n):
                        cfg = Sl2Config(a, k, l)
                        assert coefficient_A(cfg) == \
                            coefficient_A_oracle(cfg, memo), cfg
            # closed form against direct operator expansion: applying the
            # lowering string to the nested state of k must equal the
            # A-weighted sum of nested states over all l <= k, graded by
            # total degree
            for a in itertools.product(rng, repeat=n):
                states = {(): {(): 1}}
                for t in range(n):
                    nxt = {}
                    for prefix, st in states.items():
                        cur = {m + (0,): x for m, x in st.items()}
                        nxt[prefix + (0,)] = cur
                        for j in range(1, LIM + 1):
                            cur = apply_diagonal_e(a[: t + 1], cur)
                            nxt[prefix + (j,)] = cur
                    states = nxt
                for k in itertools.product(rng, repeat=n):
                    total_k = sum(k)
                    buckets: dict[int, list] = {}
                    for l in itertools.product(
                            *(range(x + 1) for x in k)):
                        coeff = coefficient_A(Sl2Config(a, k, l))
                        if coeff:
                            buckets.setdefault(total_k - sum(l), []).append(
                                (coeff, states[l]))
                    lhs = states[k]
                    for b in range(total_k + 1):
                        if b:
                            lhs = apply_diagonal_f(a, lhs)
                        rhs: dict = {}
                        for coeff, st in buckets.get(b, ()):
                            for m, x in st.items():
                                y = rhs.get(m, 0) + coeff * x
                                if y:
                                    rhs[m] = y
                                else:
                                    del rhs[m]
                        assert lhs == rhs, (a, k, b)


# -- 2 -----------------------------------------------------------------------


def test_criterion_2_vanishing_identity_sweep():
    with criterion(2, "alternating factorial sum == 0, q<=6 p<=8",
                   budget=60):
        checked = 0
        for q in range(1, 7):
            for p1 in range(9):
                for p2 in range(q, 9):
                    for u in range(q):
                        assert vanishing_identity(q, p1, p2, u) == 0
                        checked += 1
        assert checked == 882
        # below p2 = q the sum is genuinely non-zero; the domain guard
        # rejects it rather than returning a wrong zero
        for q, p2 in ((2, 1), (5, 3)):
            with pytest.raises(DomainError):
                vanishing_identity(q, 0, p2, 0)


# -- 3 -----------------------------------------------------------------------


def _random_reduced_word(cartan, rng, max_len):
    letters: list[int] = []
    target = rng.randint(2, max_len)
    while len(letters) < target:
        fits = [i for i in cartan.labels
                if is_reduced(cartan, letters + [i])]
        if not fits:
            break
        letters.append(rng.choice(fits))
    return WordJ(cartan, tuple(letters))


def test_criterion_3_face_identity_random_words():
    with criterion(3, "face function == Kashiwara difference on 20 random "
                      "reduced words (A3/B3/C3, len<=12)"):
        cartans = [validate_gcm(m) for m in (
            [[2, -1, 0], [-1, 2, -1], [0, -1, 2]],
            [[2, -1, 0], [-1, 2, -1], [0, -2, 2]],
            [[2, -1, 0], [-1, 2, -2], [0, -1, 2]],
        )]
        rng = random.Random(20260815)
        faces = 0
        for idx in range(20):
            c = cartans[idx % 3]
            w = _random_reduced_word(c, rng, 12)
            assert w.m <= 12 and is_reduced(c, w.letters)
            for s in c.labels:
                for k in range(2, w.count(s) + 1):
                    want = (kashiwara_function(w, s, k - 1)
                            - kashiwara_function(w, s, k))
                    assert face_function(w, s, k)[1] == want, \
                        (w.letters, s, k)
                    faces += 1
        assert faces > 40  # the sample actually exercises the identity


# -- 4 -----------------------------------------------------------------------

GCM_ALL = {
    "A1": [[2]],
    "A2": [[2, -1], [-1, 2]],
    "A3": [[2, -1, 0], [-1, 2, -1], [0, -1, 2]],
    "A4": [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -1, 2]],
    "B2": [[2, -1], [-2, 2]],
    "B3": [[2, -1, 0], [-1, 2, -1], [0, -2, 2]],
    "C2": [[2, -2], [-1, 2]],
    "C3": [[2, -1, 0], [-1, 2, -2], [0, -1, 2]],
    "D4": [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]],
    "G2": [[2, -1], [-3, 2]],
}

EXPECTED_DIMS = {
    "A1": (2,), "A2": (3, 3), "A3": (4, 6, 4), "A4": (5, 10, 10, 5),
    "B2": (5, 4), "B3": (7, 21, 8), "C2": (4, 5), "C3": (6, 14, 14),
    "D4": (8, 28, 8, 8), "G2": (14, 7),
}


def test_criterion_4_fundamental_dimensions():
    with criterion(4, "module dims == Freudenthal == Weyl for all "
                      "fundamentals of ten finite types", budget=120):
        dims = {}
        for name, gcm in GCM_ALL.items():
            c = validate_gcm(gcm)
            per_t = []
            for t in c.labels:
                M = build_fundamental(c, t)
                top = c.fundamental_weight(t)
                weyl = weyl_dimension(c, top)
                freud = sum(freudenthal_multiplicities(c, top).values())
                assert M.dim == weyl == freud, (name, t)
                per_t.append(M.dim)
            dims[name] = tuple(per_t)
        assert dims == EXPECTED_DIMS
        assert dims["B2"][0] == 5   # the five-dimensional vector module
        assert dims["A2"] == (3, 3)


# -- 5 -----------------------------------------------------------------------


def _chain_law_holds(g):
    chain = g.pointed_chain
    c = g.coeffs.c
    if [g.vertices[i].label for i in chain] != list(
            range(len(c) + 1, 0, -1)):
        return False
    for step, (a, b) in enumerate(zip(chain, chain[1:])):
        j = len(c) - step
        fa, fb = g.vertices[a].func, g.vertices[b].func
        delta = tuple(x - y for x, y in zip(fb, fa))
        if delta != tuple(c[j - 1] if q == j - 1 else 0
                          for q in range(len(c))):
            return False
    return True


def test_criterion_5_sgraph_grid():
    with criterion(5, "fusion grid len(c)<=4 entries<=3: 2^r vertices, "
                      "vertices == brute extremal set, connectivity, "
                      "chain, lift independence", budget=300):
        for r in range(1, 5):
            for c in itertools.product(range(4), repeat=r):
                cv = CoeffVector.make(c)
                g = binary_fusion(cv)
                assert len(g.vertices) == 2 ** r, c
                funcs = {v.func for v in g.vertices}
                pts = sorted(integer_points(cv))
                assert funcs == {pts[i] for i in lp_extremal_points(pts)}, c
                for j in range(1, cv.n + 1):
                    nodes, edges = neighbor_graph(g, j)
                    assert is_connected(nodes, edges), (c, j)
                assert _chain_law_holds(g), c
                if len(set(c)) < len(c):
                    alt = binary_fusion(reversed_tie_break(c))
                    assert {v.func for v in alt.vertices} == funcs, c


# -- 6 -----------------------------------------------------------------------


def test_criterion_6_worked_examples_bit_exact():
    with criterion(6, "worked examples: four-function top-label list for "
                      "c=(2,3,1) and line tables for c=(3,2)"):
        c1, c2, c3 = 2, 3, 1           # the c_2 > c_1 > c_3 arrangement
        g = binary_fusion(CoeffVector.make((c1, c2, c3)))
        v4 = {display_tuple(g.vertices[i].func) for i in g.with_label(4)}
        assert v4 == {(0, 0, 0), (0, c2 - c3, 0),
                      (0, c2 - c3, c1 - c3), (0, c1 - c3, c1 - c3)}
        assert v4 == {(0, 0, 0), (0, 2, 0), (0, 2, 1), (0, 1, 1)}

        cv = CoeffVector.make((3, 2))
        pts = integer_points(cv)
        table1 = {p[1]: line_count(cv, p, 1) for p in pts}
        table2 = {p[0]: line_count(cv, p, 2) for p in pts}
        assert tuple(table1[v] for v in sorted(table1)) == (2, 3, 4)
        assert tuple(table2[v] for v in sorted(table2)) == (3, 3, 2, 1)
        # the tables really are constant along each line class
        for p in pts:
            assert line_count(cv, p, 1) == table1[p[1]]
            assert line_count(cv, p, 2) == table2[p[0]]


# -- 7 -----------------------------------------------------------------------


def _weyl_orbit(cartan, w):
    seen = {w}
    frontier = [w]
    while frontier:
        nxt = []
        for x in frontier:
            for i in cartan.labels:
                y = reflect(cartan, i, x)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


def test_criterion_7_no_false_trails_fixtures(modules, full_words):
    fixtures = [("A2", 1), ("A2", 2), ("A3", 1), ("A3", 2), ("A3", 3),
                ("B2", 1), ("B2", 2), ("B2r", 1), ("B2r", 2),
                ("C2", 1), ("C2", 2), ("G2", 1), ("G2", 2)]
    with criterion(7, "13 fixtures: trails == union of class blocks, "
                      "step checks everywhere, minuscule all-extremal",
                   budget=900):
        for key, t in fixtures:
            M = modules["B2" if key == "B2r" else key, t]
            w = full_words[key]
            env = construct_envelope(M, w)
            trail_funcs = {trail_function(K)
                           for K in enumerate_trails(M, w)}
            assert env.functions == trail_funcs, (key, t)
            # whole-word sweep: for every auxiliary type s the union of
            # class blocks reproduces exactly the trail functions
            for s in M.cartan.labels:
                union = set()
                for b in env.global_blocks:
                    if b.s == s:
                        union |= b.functions
                assert union == trail_funcs, (key, t, s)
            # forward checks hold at every layer (cover and exactness raise
            # inside construct_envelope), and the layer content is exactly
            # the union of its blocks
            t1 = w.position(t, 1)
            for L in env.layers:
                assert L.forward_ok and L.forward_vertex_ok, (key, t, L.j)
                if L.j >= t1:
                    produced = set()
                    for b in L.blocks:
                        produced |= b.functions
                    assert produced == set(L.functions), (key, t, L.j)
            # minuscule fixtures: every weight along every trail is in the
            # Weyl orbit of the lowest weight
            if key in ("A2", "A3"):
                orbit = _weyl_orbit(M.cartan,
                                    M.weights[M.lowest_index])
                for K in enumerate_trails(M, w):
                    assert all(gz in orbit for gz in K.gamma), (key, t)


# -- 8 -----------------------------------------------------------------------


def test_criterion_8_epsilon_star_consistency(envelopes, full_words):
    with criterion(8, "dual parameter: s-independent on depth-6 crystal, "
                      "0 at the bottom, type max == full max"):
        elements = {key: generate_binf(w, 6)
                    for key, w in full_words.items()}
        for (key, t), env in envelopes.items():
            labels = env.cartan.labels
            assert epsilon_star(env, labels, [()]) == [
                {s: 0 for s in labels}], (key, t)
            values = epsilon_star(env, labels, elements[key])
            for b, vals in zip(elements[key], values, strict=True):
                assert len(set(vals.values())) == 1, (key, t, b)
                full = max(evaluate(z, dict(b))
                           for z in env.functions)
                for s in labels:
                    assert max(evaluate(z, dict(b))
                               for z in env.z_t(s)) == full, (key, t, s, b)


# -- 9 -----------------------------------------------------------------------


def test_criterion_9_fault_detection_exit_code(tmp_path, capsys):
    with criterion(9, "injected spurious function: verify exits 5 and the "
                      "forensic block names the layer"):
        cfg = tmp_path / "job.json"
        cfg.write_text(json.dumps({"cartan": [[2, -1], [-3, 2]],
                                   "word": [1, 2, 1, 2, 1, 2]}),
                       encoding="utf-8")
        rc = cli_main(["verify", "--config", str(cfg),
                       "--out", str(tmp_path), "--suite", "envelope",
                       "--inject-spurious"])
        assert rc == 5
        assert "FALSE TRAIL" in capsys.readouterr().err
        report = json.loads((tmp_path / "verify.json").read_text())
        block = report["false_trail"]
        assert block["step"] == 1          # the layer is named
        assert block["t"] == 1
        assert block["function"] == [[1, 2]]
        assert block["nearest"] == [[1, 1]]
        assert block["detail"]

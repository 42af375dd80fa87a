"""The integer convex-hull LP against the Fraction simplex it replaced, and
the extremality routine against the plain LP.

``_reference_in_convex_hull`` is the phase-one simplex with Bland's rule
over `fractions.Fraction` that `linalg.in_convex_hull` used before it
pivoted fraction-free over the integers.  It lives here only, as the oracle.
``oracles.lp_extremal_points`` runs one hull LP per point against all the
others.  Both routines take distinct integer points only.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trailkit import linalg
from trailkit.errors import ConsistencyError
from trailkit.linalg import extremal_points, in_convex_hull

from oracles import lp_extremal_points


def _reference_in_convex_hull(point, generators) -> bool:
    gens = [list(map(Fraction, g)) for g in generators]
    if not gens:
        return False
    p = list(map(Fraction, point))
    dim = len(p)
    n = len(gens)
    nrows = dim + 1
    rows = [[gens[j][r] for j in range(n)] for r in range(dim)]
    rows.append([Fraction(1)] * n)
    rhs = p + [Fraction(1)]
    for r in range(nrows):
        if rhs[r] < 0:
            rhs[r] = -rhs[r]
            rows[r] = [-x for x in rows[r]]
    tab = [rows[r] + [Fraction(int(i == r)) for i in range(nrows)] + [rhs[r]]
           for r in range(nrows)]
    basis = [n + r for r in range(nrows)]
    ncols = n + nrows
    cost = [-sum(tab[r][j] for r in range(nrows)) for j in range(n)]
    cost += [Fraction(0)] * nrows
    cost.append(-sum(rhs))
    while True:
        enter = next((j for j in range(ncols) if cost[j] < 0), None)
        if enter is None:
            break
        best = None
        for r in range(nrows):
            if tab[r][enter] > 0:
                key = (tab[r][ncols] / tab[r][enter], basis[r])
                if best is None or key < best[0]:
                    best = (key, r)
        r = best[1]
        pv = tab[r][enter]
        tab[r] = [x / pv for x in tab[r]]
        for i in range(nrows):
            if i != r and tab[i][enter] != 0:
                f = tab[i][enter]
                tab[i] = [a - f * b for a, b in zip(tab[i], tab[r])]
        if cost[enter] != 0:
            f = cost[enter]
            cost = [a - f * b for a, b in zip(cost, tab[r])]
        basis[r] = enter
    return cost[-1] == 0


def _reference_extremal_points(points) -> list[int]:
    pts = [tuple(map(Fraction, p)) for p in points]
    return [i for i, p in enumerate(pts)
            if not _reference_in_convex_hull(p, pts[:i] + pts[i + 1:])]


_INT = st.integers(-4, 4)


@st.composite
def point_sets(draw):
    """0-10 distinct integer points in dims 1-6: plain, on one line, on one
    hyperplane, or with midpoints of two others."""
    dim = draw(st.integers(1, 6))
    pts = draw(st.lists(st.tuples(*[_INT] * dim), max_size=10))
    shape = draw(st.sampled_from(["plain", "collinear", "hyperplane",
                                  "midpoints"]))
    if pts and shape == "collinear":
        base, step = pts[0], draw(st.tuples(*[_INT] * dim))
        pts = [tuple(b + k * s for b, s in zip(base, step))
               for k in draw(st.lists(st.integers(-3, 3), min_size=1,
                                      max_size=8))]
    elif pts and shape == "hyperplane":
        # the last coordinate is an integer affine function of the others
        normal, rhs = draw(st.tuples(*[_INT] * dim)), draw(_INT)
        pts = [p[:-1] + (rhs + sum(map(mul, normal, p[:-1])),) for p in pts]
    elif len(pts) >= 2 and shape == "midpoints":
        pts = [tuple(2 * x for x in p) for p in pts]
        for _ in range(draw(st.integers(1, 3))):
            i = draw(st.integers(0, len(pts) - 1))
            j = draw(st.integers(0, len(pts) - 1))
            pts.append(tuple(map(add, pts[i], pts[j])))
    return draw(st.permutations(list(dict.fromkeys(pts))[:10]))


@settings(max_examples=300, deadline=None)
@given(point_sets(), st.data())
def test_extremal_points_agree_with_the_plain_lp(pts, data):
    order = data.draw(st.permutations(range(len(pts))))
    todo = order[:data.draw(st.integers(0, len(pts)))]
    want = lp_extremal_points(pts)
    assert extremal_points(pts) == want
    assert extremal_points(pts, todo) == [i for i in todo if i in want]


@settings(max_examples=300, deadline=None)
@given(point_sets())
def test_extremal_points_agree_with_fraction_simplex(pts):
    assert extremal_points(pts) == _reference_extremal_points(pts)


@settings(max_examples=300, deadline=None)
@given(point_sets(), st.data())
def test_in_convex_hull_agrees_with_fraction_simplex(gens, data):
    dim = len(gens[0]) if gens else data.draw(st.integers(1, 6))
    probe = data.draw(st.one_of(
        st.tuples(*[_INT] * dim),
        st.sampled_from(gens) if gens else st.nothing()))
    assert in_convex_hull(probe, gens) == _reference_in_convex_hull(probe,
                                                                    gens)


@pytest.mark.parametrize("pts", [
    [(-1,), (2,), (-1,), (0,)],   # both copies of -1 would test "inside"
    [(0, 0), (3, 1), (Fraction(3), Fraction(1)), (0, 4)],
    [(0, 0), (Fraction(3, 2), 2)],
    [(0, 0), (1.0, 2)],
    [(0, 0), (True, 2)],
], ids=["repeated", "int-and-fraction-copy", "fraction", "float", "bool"])
def test_repeated_or_non_int_points_raise(pts):
    with pytest.raises(ConsistencyError, match="repeated|not an int"):
        extremal_points(pts)
    with pytest.raises(ConsistencyError, match="repeated|not an int"):
        in_convex_hull((0,) * len(pts[0]), pts)


def test_a_non_int_probe_raises():
    with pytest.raises(ConsistencyError, match="not an int"):
        in_convex_hull((Fraction(1, 2), 0), [(0, 0), (1, 0)])


def test_integer_inputs_build_no_fraction(monkeypatch):
    def forbidden(*args):
        raise AssertionError("Fraction built for integer input")
    monkeypatch.setattr(linalg, "Fraction", forbidden)
    pts = [(0, 0, 1), (4, 0, 1), (0, 4, 1), (4, 4, 1), (2, 2, 1), (1, 2, 1)]
    assert extremal_points(pts) == [0, 1, 2, 3]
    assert in_convex_hull((1, 3, 1), pts)
    assert not in_convex_hull((5, 0, 1), pts)


@pytest.mark.parametrize("probe, rhs, check", [
    ((3, 1), 0, "convex weights"),    # outside, pushed to "inside"
    ((1, 1), -1, "Farkas vector"),    # inside, pushed to "outside"
])
def test_a_wrong_answer_fails_its_certificate(monkeypatch, probe, rhs, check):
    # Overwrite the rhs column after every pivot, the cost row's included, so
    # that the simplex reaches the wrong answer; its certificate is checked
    # against the untouched rows and must fail.
    real = linalg._eliminate

    def eliminate(*args):
        return real(*args)[:-1] + [rhs]

    monkeypatch.setattr(linalg, "_eliminate", eliminate)
    square = [(0, 0), (2, 0), (0, 2), (2, 2)]
    with pytest.raises(ConsistencyError, match=check):
        in_convex_hull(probe, square)

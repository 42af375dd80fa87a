from __future__ import annotations

import gc
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trailkit.errors import ConsistencyError, DomainError, PointOutside
from trailkit.linalg import extremal_points, in_convex_hull, invert, rref
from trailkit.sgraph import (
    CoeffVector,
    binary_fusion,
    display_tuple,
    extremal_functions,
    integer_points,
    is_connected,
    line_count,
    neighbor_graph,
    polytope_membership,
    to_dot,
)

from oracles import lp_extremal_points


def _lp_extremal_set(cv) -> set:
    """The extremal lattice points of K(c) by the plain LP."""
    pts = sorted(integer_points(cv))
    return {pts[i] for i in lp_extremal_points(pts)}


# --- the exact linear-algebra oracles used everywhere below ---------------


def test_rref_and_rank():
    red, pivots = rref([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    assert pivots == [0, 1]
    assert rref([[1, 2], [3, 4]])[1] == [0, 1]
    assert rref([[1, 2], [2, 4]])[1] == [0]


def test_invert():
    assert invert([[2, 1], [1, 1]]) == [[1, -1], [-1, 2]]
    with pytest.raises(ConsistencyError):
        invert([[1, 1], [1, 1]])


def test_convex_hull_membership():
    square = [(0, 0), (2, 0), (0, 2), (2, 2)]
    assert in_convex_hull((1, 1), square)
    assert in_convex_hull((0, 0), square)
    assert not in_convex_hull((3, 1), square)
    assert not in_convex_hull((1, -1), square)
    assert not in_convex_hull((1, 1), [])


def test_extremal_points_hand_cases():
    pts = [(0, 0), (2, 0), (0, 2), (2, 2), (1, 1)]
    assert extremal_points(pts) == [0, 1, 2, 3]
    assert extremal_points(pts, [4, 2]) == [2]
    assert extremal_points([(5,)]) == [0]
    # points must be distinct
    with pytest.raises(ConsistencyError, match="repeated"):
        extremal_points([(0, 0), (0, 0), (1, 0)])


# --- coefficient vectors ---------------------------------------------------


def test_coeff_vector_make():
    cv = CoeffVector.make((2, 3, 1))
    assert cv.n == 4
    assert cv.order_lift == (3, 1, 2)
    assert cv.theta == (1, 1, 2)
    u, sub = cv.drop_max()
    assert u == 2
    assert sub.c == (2, 1)
    with pytest.raises(ValueError):
        CoeffVector.make((1, -1))
    with pytest.raises(ValueError):
        CoeffVector.make((1, 2), tie_break="weird")


def test_coeff_vector_tie_breaks():
    a = CoeffVector.make((2, 2))
    b = CoeffVector.make((2, 2), tie_break="rindex")
    assert a.order_lift == (1, 2)
    assert b.order_lift == (2, 1)


# --- the worked three-coordinate example c = (2, 3, 1) ---------------------


def test_fusion_231_vertices():
    g = binary_fusion(CoeffVector.make((2, 3, 1)))
    got = [(v.label, v.func) for v in g.vertices]
    assert got == [
        (4, (0, 0, 0)), (3, (0, 0, 1)), (4, (1, 1, 0)), (1, (2, 2, 1)),
        (4, (0, 2, 0)), (2, (0, 3, 1)), (4, (1, 2, 0)), (1, (2, 3, 1)),
    ]
    # label multiset: 2^{n-1} vertices, half of them label n
    assert sorted(v.label for v in g.vertices) == [1, 1, 2, 3, 4, 4, 4, 4]


def test_fusion_231_label4_display():
    # under c_2 > c_1 > c_3 the top label carries exactly four functions
    g = binary_fusion(CoeffVector.make((2, 3, 1)))
    v4 = {display_tuple(g.vertices[i].func) for i in g.with_label(4)}
    c1, c2, c3 = 2, 3, 1
    assert v4 == {(0, 0, 0), (0, c2 - c3, 0),
                  (0, c2 - c3, c1 - c3), (0, c1 - c3, c1 - c3)}


def test_fusion_231_neighbor_graph_square_minus_edge():
    g = binary_fusion(CoeffVector.make((2, 3, 1)))
    nodes, edges = neighbor_graph(g, 4)
    assert nodes == (0, 2, 4, 6)
    pairs = {frozenset((a, b)) for a, b, _ in edges}
    # the edge between (0,0,0) and (0,1,1) (ids 0 and 2) is missing
    assert pairs == {frozenset((0, 4)), frozenset((2, 6)), frozenset((4, 6))}
    assert is_connected(nodes, edges)


def test_fusion_231_pointed_chain():
    g = binary_fusion(CoeffVector.make((2, 3, 1)))
    chain = g.pointed_chain
    assert [g.vertices[i].label for i in chain] == [4, 3, 2, 1]
    c = g.coeffs.c
    for step, (a, b) in enumerate(zip(chain, chain[1:])):
        j = len(c) - step              # chain moves from label n down to 1
        fa, fb = g.vertices[a].func, g.vertices[b].func
        delta = tuple(x - y for x, y in zip(fb, fa))
        assert delta == tuple(c[j - 1] if q == j - 1 else 0
                              for q in range(len(c)))


def test_fusion_231_lower_functions():
    # the label-n vertices carry the functions of the previous step
    g = binary_fusion(CoeffVector.make((2, 3, 1)))
    lower = {g.vertices[i].func for i in g.with_label(g.coeffs.n)}
    assert lower == {(0, 0, 0), (0, 2, 0), (1, 1, 0), (1, 2, 0)}


# --- the worked two-coordinate example c = (3, 2) --------------------------


def test_polytope_32_points():
    cv = CoeffVector.make((3, 2))
    pts = integer_points(cv)
    assert len(pts) == 9
    assert sorted(pts) == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1),
                           (1, 2), (2, 1), (2, 2), (3, 2)]
    assert sorted(p for p in pts if p[-1] == 0) == [(0, 0), (1, 0)]
    for p in itertools.product(range(4), range(3)):
        assert polytope_membership(cv, p) == (p in pts)
    assert not polytope_membership(cv, (4, 0))
    assert not polytope_membership(cv, (-1, 0))
    with pytest.raises(ValueError):
        polytope_membership(cv, (1, 1, 1))


def test_polytope_32_extremal():
    cv = CoeffVector.make((3, 2))
    assert sorted(extremal_functions(cv)) == [(0, 0), (0, 2), (1, 0), (3, 2)]
    g = binary_fusion(cv)
    assert {v.func for v in g.vertices} == _lp_extremal_set(cv)


def test_line_tables_32():
    # type-1 lines are graded by the second coordinate, type-2 lines by the
    # first; the two frozen tables are 2,3,4 and 3,3,2,1
    cv = CoeffVector.make((3, 2))
    by_second = {0: 2, 1: 3, 2: 4}
    by_first = {0: 3, 1: 3, 2: 2, 3: 1}
    for p in integer_points(cv):
        assert line_count(cv, p, 1) == by_second[p[1]]
        assert line_count(cv, p, 2) == by_first[p[0]]
        assert line_count(cv, p, 3) == 1          # type-n lines are points
    with pytest.raises(PointOutside):
        line_count(cv, (2, 0), 1)


@pytest.mark.parametrize("u", [-1, 0, 4])
def test_line_count_rejects_a_type_outside_1_to_n(u):
    with pytest.raises(DomainError):
        line_count(CoeffVector.make((3, 2)), (0, 0), u)


def test_display_tuple():
    assert display_tuple((1, 2, 3)) == (3, 2, 1)
    assert display_tuple(()) == ()


# --- generic structure over a small grid -----------------------------------


def _all_cs(max_len=3, max_entry=3):
    for r in range(1, max_len + 1):
        yield from itertools.product(range(max_entry + 1), repeat=r)


def test_vertex_count_grid():
    for c in _all_cs():
        g = binary_fusion(CoeffVector.make(c))
        assert len(g.vertices) == 2 ** len(c), c


def test_vertices_are_extremal_grid():
    for c in _all_cs(max_len=3, max_entry=2):
        cv = CoeffVector.make(c)
        g = binary_fusion(cv)
        funcs = {v.func for v in g.vertices}
        assert funcs == _lp_extremal_set(cv) == extremal_functions(cv), c


def test_vertices_inside_polytope_grid():
    for c in _all_cs():
        cv = CoeffVector.make(c)
        g = binary_fusion(cv)
        for v in g.vertices:
            assert polytope_membership(cv, v.func), (c, v)


def test_neighbor_graphs_connected_grid():
    for c in _all_cs(max_len=3, max_entry=2):
        g = binary_fusion(CoeffVector.make(c))
        for j in range(1, len(c) + 2):
            nodes, edges = neighbor_graph(g, j)
            assert is_connected(nodes, edges), (c, j)


def test_neighbor_edge_line_law_grid():
    # the two ends of a non-degenerate type-u edge span a line with 1 + |d|
    # integer points
    for c in _all_cs(max_len=3, max_entry=3):
        cv = CoeffVector.make(c)
        g = binary_fusion(cv)
        for j in range(1, len(c) + 2):
            _, edges = neighbor_graph(g, j)
            for a, b, u in edges:
                fa, fb = g.vertices[a].func, g.vertices[b].func
                d = fa[u - 1] - fb[u - 1]
                if d == 0:
                    continue
                assert line_count(cv, fa, u) == 1 + abs(d), (c, j, a, b)
                assert line_count(cv, fb, u) == 1 + abs(d), (c, j, a, b)


def test_tie_break_independence_grid():
    # with ties in c the lift is ambiguous; the vertex functions are not
    for c in [(2, 2), (1, 1), (0, 0, 2), (2, 2, 2), (1, 2, 2), (2, 2, 1)]:
        a = binary_fusion(CoeffVector.make(c))
        b = binary_fusion(CoeffVector.make(c, tie_break="rindex"))
        assert {v.func for v in a.vertices} == {v.func for v in b.vertices}, c


def test_rigid_singleton():
    # strictly increasing c admits exactly the driving point as lower vertex
    cv = CoeffVector.make((1, 2, 3))
    g = binary_fusion(cv)
    assert (0, 0, 0) in {v.func for v in g.vertices}
    assert sorted(p for p in integer_points(cv) if p[-1] == 0) == [(0, 0, 0)]


def test_zero_vector():
    cv = CoeffVector.make((0, 0))
    assert integer_points(cv) == frozenset({(0, 0)})
    g = binary_fusion(cv)
    assert {v.func for v in g.vertices} == {(0, 0)}


def test_to_dot_deterministic():
    g = binary_fusion(CoeffVector.make((2, 3, 1)))
    out = to_dot(g)
    assert out == to_dot(binary_fusion(CoeffVector.make((2, 3, 1))))
    assert out.startswith("graph")
    assert out.endswith("}\n")
    assert 'v0 [label="4 | (0, 0, 0)"];' in out
    assert 'v0 -- v1 [label="3"];' in out
    assert out.count("--") == len(g.edges) == 7


def test_fusion_leaves_no_reference_cycle():
    gc.collect()
    gc.disable()
    try:
        g = binary_fusion(CoeffVector.make((2, 1, 2)))
        del g
        assert gc.collect() == 0
    finally:
        gc.enable()


@settings(max_examples=120)
@given(c=st.lists(st.integers(0, 4), min_size=1, max_size=4).map(tuple))
def test_fusion_properties(c):
    cv = CoeffVector.make(c)
    g = binary_fusion(cv)
    assert len(g.vertices) == 2 ** len(c)
    funcs = {v.func for v in g.vertices}
    pts = integer_points(cv)
    assert funcs <= pts
    # the chain starts at the origin and ends at c itself
    chain = g.pointed_chain
    assert g.vertices[chain[0]].func == tuple(0 for _ in c)
    assert g.vertices[chain[-1]].func == cv.c

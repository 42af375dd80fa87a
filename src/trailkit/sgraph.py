"""Canonical S-graphs by binary fusion, the convex set K(c) of coefficient
tuples, its integer points, neighbor graphs and line counts.

A coefficient vector c = (c_1, ..., c_{n-1}) of non-negative integers
determines a convex polytope K(c) of tuples c' = (c'_1, ..., c'_{n-1}):
box bounds 0 <= c'_j <= c_j together with difference constraints read off a
total order on the index set N = {1, ..., n-1} lifting the natural order on
the values.  The canonical S-graph of c is built by binary fusion on the
lift-maximal index; its 2^{n-1} vertices carry labels in {1, ..., n} and
functions which, written in the coordinates e_j = r^j - r^{j+1}, are the
extremal points of K(c).

Functions are stored as ascending (n-1)-tuples (coordinate j at index
j-1); the descending display order used for human-readable tables is
available via :func:`display_tuple`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .errors import ConsistencyError, DomainError, PointOutside
from .linalg import extremal_points


@dataclass(frozen=True)
class CoeffVector:
    """c with a total order on indices refining the natural order on values.

    ``order_lift`` lists the indices of N from lift-least to lift-greatest;
    ``theta[j-1]`` is the 1-based rank of ``order_lift[j-1]`` among the
    naturally sorted first j lift entries.
    """

    c: tuple[int, ...]
    order_lift: tuple[int, ...]
    theta: tuple[int, ...]

    @staticmethod
    def make(c, tie_break: str = "index") -> "CoeffVector":
        c = tuple(c)
        if any(x < 0 for x in c):
            raise ValueError(f"negative coefficient in {c}")
        if tie_break == "index":
            lift = tuple(sorted(range(1, len(c) + 1), key=lambda i: (c[i - 1], i)))
        elif tie_break == "rindex":
            lift = tuple(sorted(range(1, len(c) + 1), key=lambda i: (c[i - 1], -i)))
        else:
            raise ValueError(f"unknown tie break {tie_break!r}")
        theta = tuple(sorted(lift[:j]).index(lift[j - 1]) + 1
                      for j in range(1, len(c) + 1))
        return CoeffVector(c, lift, theta)

    @property
    def n(self) -> int:
        """Number of labels: |N| + 1."""
        return len(self.c) + 1

    def drop_max(self) -> tuple[int, "CoeffVector"]:
        """(u, coefficients with the lift-maximal index u removed)."""
        u = self.order_lift[-1]
        sub = self.c[:u - 1] + self.c[u:]
        lift = tuple(i if i < u else i - 1 for i in self.order_lift[:-1])
        theta = tuple(sorted(lift[:j]).index(lift[j - 1]) + 1
                      for j in range(1, len(sub) + 1))
        return u, CoeffVector(sub, lift, theta)


@dataclass(frozen=True)
class SVertex:
    label: int
    func: tuple[int, ...]


@dataclass(frozen=True)
class SGraph:
    """The canonical S-graph: vertices indexed by position, labelled edges
    as (id1, id2, label) with id1 < id2, and the pointed chain v_n..v_1."""

    coeffs: CoeffVector
    vertices: tuple[SVertex, ...]
    edges: tuple[tuple[int, int, int], ...]
    pointed_chain: tuple[int, ...]

    def with_label(self, k: int) -> tuple[int, ...]:
        return tuple(i for i, v in enumerate(self.vertices) if v.label == k)

    def functions(self) -> frozenset[tuple[int, ...]]:
        return frozenset(v.func for v in self.vertices)


def display_tuple(func: tuple[int, ...]) -> tuple[int, ...]:
    """Descending-index display order (c'_{n-1}, ..., c'_1)."""
    return tuple(reversed(func))


def _unit_span(p: int, q: int, dim: int) -> tuple[int, ...]:
    """Coordinates of r^p - r^q: +1 on [p, q), or -1 on [q, p)."""
    out = [0] * dim
    lo, hi, sign = (p, q, 1) if p < q else (q, p, -1)
    for i in range(lo, hi):
        out[i - 1] = sign
    return tuple(out)


def binary_fusion(coeffs: CoeffVector) -> SGraph:
    """Build the canonical S-graph recursively on the lift-maximal index u:
    the graph of c without c_u is embedded twice, the plus copy repeating
    coordinate u-1 into coordinate u and the minus copy repeating
    coordinate u+1 shifted by c_u - c_{u+1}, and each label-(u+1) plus
    vertex is joined to its minus twin by an edge labelled u."""
    g = _fuse(coeffs)
    _verify_sgraph(g)
    return g


def _fuse(coeffs: CoeffVector) -> SGraph:
    c = coeffs.c
    r = len(c)
    if r == 0:
        return SGraph(coeffs, (SVertex(1, ()),), (), (0,))
    u, sub_coeffs = coeffs.drop_max()
    g = _fuse(sub_coeffs)
    shift = c[u - 1] - (c[u] if u < r else 0)

    def plus_func(f):
        return f[:u - 1] + (f[u - 2] if u >= 2 else 0,) + f[u - 1:]

    def minus_func(f):
        base = f[u - 1] if u <= r - 1 else 0
        return f[:u - 1] + (base + shift,) + f[u - 1:]

    half = len(g.vertices)
    vertices = (
        tuple(SVertex(v.label + (v.label >= u), plus_func(v.func))
              for v in g.vertices)
        + tuple(SVertex(v.label + (v.label > u), minus_func(v.func))
                for v in g.vertices))
    edges = []
    for a, b, lab in g.edges:
        lab2 = lab + (lab >= u)
        edges.append((a, b, lab2))
        edges.append((a + half, b + half, lab2))
    for i, v in enumerate(g.vertices):
        if v.label == u:  # plus image has label u+1, minus image label u
            edges.append((i, i + half, u))
    return SGraph(coeffs, vertices, tuple(edges), _pointed_chain(coeffs, vertices, edges))


def _pointed_chain(coeffs: CoeffVector, vertices, edges) -> tuple[int, ...]:
    """The unique chain v_n, ..., v_1 with v_j labelled j, consecutive
    vertices joined by an edge labelled j, starting from the zero function."""
    n = coeffs.n
    adj: dict[tuple[int, int], list[int]] = {}
    for a, b, lab in edges:
        adj.setdefault((a, lab), []).append(b)
        adj.setdefault((b, lab), []).append(a)
    zero = (0,) * len(coeffs.c)
    # depth-first over partial chains, each a tuple of vertex ids
    stack = [(i,) for i, v in enumerate(vertices)
             if v.label == n and v.func == zero]
    chains = []
    while stack:
        chain = stack.pop()
        f = vertices[chain[-1]].func
        j = vertices[chain[-1]].label - 1
        if j == 0:
            chains.append(chain)
            continue
        want = tuple(x + (coeffs.c[j - 1] if i == j - 1 else 0)
                     for i, x in enumerate(f))
        stack.extend(chain + (w,) for w in adj.get((chain[-1], j), ())
                     if vertices[w].label == j and vertices[w].func == want)
    if len(chains) != 1:
        raise ConsistencyError(f"expected one pointed chain, found {len(chains)}")
    return chains[0]


def _verify_sgraph(g: SGraph) -> None:
    c, r = g.coeffs.c, len(g.coeffs.c)
    if len(g.vertices) != 2 ** r:
        raise ConsistencyError(f"vertex count {len(g.vertices)} != 2^{r}")
    for a, b, lab in g.edges:
        va, vb = g.vertices[a], g.vertices[b]
        if va.label == vb.label:
            raise ConsistencyError("edge joins equal labels")
        want = tuple(c[lab - 1] * x
                     for x in _unit_span(va.label, vb.label, r))
        if tuple(x - y for x, y in zip(va.func, vb.func)) != want:
            raise ConsistencyError(f"edge ({a},{b},{lab}) violates the "
                                   "difference rule")
    for v in g.vertices:
        k = v.label
        lhs = ((v.func[k - 2] if k >= 2 else 0)
               + (v.func[k - 1] if k <= r else 0)
               - (c[k - 1] if k <= r else 0))
        if lhs != 0:
            raise ConsistencyError(f"vertex {v} has a non-zero own-index "
                                   "coefficient")
    for p in g.functions():
        if not polytope_membership(g.coeffs, p):
            raise ConsistencyError(f"vertex function {p} escapes the polytope")


def polytope_membership(coeffs: CoeffVector, cprime) -> bool:
    """Box bounds plus the lift-order difference constraints."""
    c, lift, theta = coeffs.c, coeffs.order_lift, coeffs.theta
    cprime = tuple(cprime)
    if len(cprime) != len(c):
        raise ValueError(f"expected {len(c)} coordinates, got {len(cprime)}")
    if not all(0 <= cprime[i] <= c[i] for i in range(len(c))):
        return False
    for j in range(1, len(c) + 1):
        nj = sorted(lift[:j])
        t = theta[j - 1]
        if t < j:
            hi = nj[t]  # v_{theta(j)+1}
            if cprime[hi - 1] - cprime[lift[j - 1] - 1] < c[hi - 1] - c[lift[j - 1] - 1]:
                return False
        if t > 1:
            lo = nj[t - 2]  # v_{theta(j)-1}
            if cprime[lift[j - 1] - 1] - cprime[lo - 1] < 0:
                return False
    return True


def integer_points(coeffs: CoeffVector) -> frozenset[tuple[int, ...]]:
    """All integer tuples of the polytope (the box is finite)."""
    return frozenset(
        p for p in product(*(range(x + 1) for x in coeffs.c))
        if polytope_membership(coeffs, p))


def extremal_functions(coeffs: CoeffVector) -> frozenset[tuple[int, ...]]:
    """Extremal points of the integer-point set, by
    :func:`linalg.extremal_points`; they are the S-graph vertex functions.
    No CLI path calls it; it stays in the package because
    ``bench/tracer.py`` wraps it by name."""
    pts = sorted(integer_points(coeffs))
    return frozenset(pts[i] for i in extremal_points(pts))


def neighbor_graph(g: SGraph, j: int):
    """The graph on the label-j vertices joining pairs whose functions agree
    except in one coordinate u1 (avoiding j and j-1) where they differ by
    c_{u1} - c_{u2} for some other index u2.

    Returns (vertex ids, edges (id1, id2, u1)).
    """
    c = g.coeffs.c
    nodes = g.with_label(j)
    edges = []
    for x_pos, x in enumerate(nodes):
        for y in nodes[x_pos + 1:]:
            fx, fy = g.vertices[x].func, g.vertices[y].func
            diff = [i + 1 for i in range(len(c)) if fx[i] != fy[i]]
            if len(diff) > 1:
                continue
            for u1 in (diff or range(1, len(c) + 1)):
                if j in (u1, u1 + 1):
                    continue
                d = fx[u1 - 1] - fy[u1 - 1]
                if any(c[u2 - 1] in (c[u1 - 1] + d, c[u1 - 1] - d)
                       for u2 in range(1, len(c) + 1) if u2 != u1):
                    edges.append((x, y, u1))
                    break
    return nodes, tuple(edges)


def is_connected(nodes, edges) -> bool:
    if not nodes:
        return True
    seen = {nodes[0]}
    frontier = [nodes[0]]
    while frontier:
        v = frontier.pop()
        for a, b, _ in edges:
            for w in ((b,) if a == v else (a,) if b == v else ()):
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
    return len(seen) == len(nodes)


def line_count(coeffs: CoeffVector, point, u: int) -> int:
    """Number of integer points of the polytope on the type-u line through
    ``point`` (translates of coordinate u; a type-n line exits at once).

    For the lift-maximal u the count is checked against the closed form
    1 + (c'_{u+1} + c_u - c_{u+1}) - c'_{u-1} (clamped at 1).
    """
    if not 1 <= u <= coeffs.n:
        raise DomainError(f"line type {u} is outside 1..{coeffs.n}")
    point = tuple(point)
    if not polytope_membership(coeffs, point):
        raise PointOutside(f"{point} is not in the polytope of {coeffs.c}")
    c = coeffs.c
    if u == len(c) + 1:
        return 1
    count = 1
    for sign in (1, -1):
        v = sign
        while True:
            cand = point[:u - 1] + (point[u - 1] + v,) + point[u:]
            if not polytope_membership(coeffs, cand):
                break
            count += 1
            v += sign
    if u == coeffs.order_lift[-1]:
        cp_next = point[u] if u < len(c) else 0
        cp_prev = point[u - 2] if u >= 2 else 0
        c_next = c[u] if u < len(c) else 0
        want = max(1 + (cp_next + c[u - 1] - c_next) - cp_prev, 1)
        if count != want:
            raise ConsistencyError(
                f"type-{u} line count {count} != closed form {want}")
    return count


def to_dot(g: SGraph) -> str:
    """Deterministic DOT rendering: vertices as "label | function"."""
    lines = ["graph sgraph {"]
    for i, v in enumerate(g.vertices):
        lines.append(f'  v{i} [label="{v.label} | {v.func}"];')
    for a, b, lab in sorted(g.edges):
        lines.append(f'  v{a} -- v{b} [label="{lab}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"

"""Exact linear algebra helpers over the integers; no floats and no
fractions anywhere.

Matrices are plain lists of lists (rows).  This is deliberately small:
- a fraction-free row reduction, which the module build runs once per
  weight and the inverse Cartan matrix once per matrix;
- an exact convex-hull membership test as a phase-one simplex with Bland's
  rule that pivots fraction-free over the integers and certifies each
  answer;
- the one extremality routine of the package, which tries integer
  witnesses and midpoints before that test.

The last two take distinct points with exact `int` coordinates only.
"""

from __future__ import annotations

from itertools import chain
from operator import mul, sub
from typing import Sequence

from .errors import ConsistencyError


def _int_points(points: Sequence[Sequence]) -> list[tuple[int, ...]]:
    """``points`` as tuples.  A coordinate that is not an exact ``int`` (a
    Fraction, a float or a bool) or a repeated point raises ConsistencyError;
    :func:`extremal_points` would find each copy of a repeated point inside
    the hull through the other and drop both."""
    pts = [tuple(p) for p in points]
    if not set(map(type, chain.from_iterable(pts))) <= {int}:
        raise ConsistencyError("a point has a coordinate that is not an int")
    if len(set(pts)) < len(pts):
        raise ConsistencyError("a point is repeated")
    return pts


def _eliminate(row: list[int], prow: list[int], pv: int, f: int,
               d: int) -> list[int]:
    """(pv * row - f * prow) / d entry by entry.  The division is exact: every
    entry of the integer tableau is a minor of the input (Bareiss)."""
    if f == 0:
        return row if pv == d else [pv * x // d for x in row]
    if d == 1:
        return [pv * x - f * y for x, y in zip(row, prow)]
    return [(pv * x - f * y) // d for x, y in zip(row, prow)]


def integer_rref(rows: list[list[int]]):
    """Fraction-free Gauss-Jordan elimination (Bareiss, Math. Comp. 22,
    1968) of integer rows of one length, which it consumes: (pivot rows,
    pivot columns, d).  Every pivot entry ends equal to d > 0, so the
    reduced row echelon form of the rows is the pivot rows over d.

    Each column's pivot is an entry of least absolute value, its row
    negated if that entry is negative (as if the input row were).  A step
    turns every other row x into (pv * x - x[c] * pivot row) / d, an exact
    division as every entry is a minor of the input, then sets d = pv; rows
    that vanish are dropped."""
    done: list[list[int]] = []
    pivots: list[int] = []
    d = 1
    for c in range(len(rows[0]) if rows else 0):
        k = min((k for k, row in enumerate(rows) if row[c]),
                key=lambda k: abs(rows[k][c]), default=None)
        if k is None:
            continue
        prow = rows.pop(k)
        if prow[c] < 0:
            prow = [-x for x in prow]
        pv = prow[c]
        done = [_eliminate(row, prow, pv, row[c], d) for row in done]
        rows = [row for row in (_eliminate(row, prow, pv, row[c], d)
                                for row in rows) if any(row)]
        done.append(prow)
        pivots.append(c)
        d = pv
    return done, pivots, d


def in_convex_hull(point: Sequence, generators: Sequence[Sequence]) -> bool:
    """Exact test: does `point` lie in conv(generators)?  The generators are
    distinct and every coordinate is an ``int`` (see :func:`_int_points`).

    Phase-one simplex with Bland's rule on the feasibility problem
    sum(l_i * g_i) = p, sum(l_i) = 1, l >= 0, pivoted fraction-free over the
    integers (Bareiss, Math. Comp. 22, 1968).  The tableau holds the true
    entries times one common denominator d > 0, the absolute determinant of
    the current basis; a pivot on (r, e) keeps row r and turns every other row x,
    the cost row included, into (pv * x - x[e] * row_r) // d, after which
    d = pv.

    Every answer is certified in integers before it is returned: True by
    weights l >= 0 with sum(l_i g_i) = d p and sum(l_i) = d; False by a Farkas
    vector y with y.A_j <= 0 for every generator column A_j and y.b > 0.  A
    failed certificate raises ConsistencyError.
    """
    gens = _int_points(generators)
    (point,) = _int_points([point])
    if not gens:
        return False
    n = len(gens)
    # Constraint rows [A_r | b_r]: one per coordinate, then sum(l_i) = 1.
    rows = [[g[r] for g in gens] + [x] for r, x in enumerate(point)]
    rows.append([1] * (n + 1))
    rows = [[-x for x in row] if row[n] < 0 else row for row in rows]
    nrows = len(rows)
    ncols = n + nrows
    # Tableau: n structural + nrows artificial columns + rhs.
    tab = [row[:n] + [int(i == r) for i in range(nrows)] + [row[n]]
           for r, row in enumerate(rows)]
    basis = list(range(n, ncols))
    # Phase-one reduced-cost row (artificials cost 1, structurals 0); its
    # last entry is minus the objective value.
    sums = [-sum(col) for col in zip(*rows)]
    cost = sums[:n] + [0] * nrows + sums[n:]
    d = 1
    while True:
        enter = next((j for j in range(ncols) if cost[j] < 0), None)
        if enter is None:
            break
        # Ratio test b_i / a_i by cross-multiplying, ties broken by the
        # smallest basis index (Bland).
        r = -1
        for i, row in enumerate(tab):
            a = row[enter]
            if a > 0:
                if r < 0:
                    r, ra, rb = i, a, row[ncols]
                    continue
                lhs, rhs = row[ncols] * ra, rb * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[r]):
                    r, ra, rb = i, a, row[ncols]
        if r < 0:
            raise ConsistencyError("phase-one simplex unbounded")
        prow = tab[r]
        pv = prow[enter]
        for i, row in enumerate(tab):
            if i != r:
                tab[i] = _eliminate(row, prow, pv, row[enter], d)
        cost = _eliminate(cost, prow, pv, cost[enter], d)
        d = pv
        basis[r] = enter
    if cost[ncols] == 0:
        weights = [(j, tab[i][ncols]) for i, j in enumerate(basis)
                   if j < n and tab[i][ncols]]
        if not (all(v > 0 for _, v in weights)
                and all(sum(row[j] * v for j, v in weights) == d * row[n]
                        for row in rows)):
            raise ConsistencyError("convex weights fail their check")
        return True
    y = [d - c for c in cost[n:ncols]]
    vals = [sum(map(mul, y, col)) for col in zip(*rows)]
    if not max(vals[:n]) <= 0 < vals[n]:
        raise ConsistencyError("Farkas vector fails its check")
    return False


def extremal_points(points: Sequence[Sequence], todo=None) -> list[int]:
    """The indices in ``todo`` (default: all) of the extremal points among
    ``points``, distinct points with ``int`` coordinates.

    Axes where every point vanishes are dropped.  A point p is extremal if
    some w has w.p > w.q for every other point q; the witnesses tried are
    w = p and w = n p - (the sum of all n points), both read off p's row of
    dot products.  A point without a witness is not extremal if it is the
    midpoint of two others.  Each point left goes to the global
    :func:`in_convex_hull` (so a wrapper set on it sees every LP) against
    the points not yet found inside the hull, which is exact because
    conv(S) = conv(ext S).
    """
    pts = _int_points(points)
    todo = range(len(pts)) if todo is None else list(todo)
    axes = [col for col in zip(*pts) if any(col)]
    if axes:
        pts = list(zip(*axes))
    n = len(pts)
    total = [sum(col) for col in zip(*pts)]
    tdot = [sum(map(mul, total, q)) for q in pts]
    pending = []
    for i in todo:
        p = pts[i]
        gram = [sum(map(mul, p, q)) for q in pts]
        pp = gram[i]
        gram[i] = pp - 1        # so that the maxima run over the other points
        if max(gram) < pp:
            continue
        wq = [n * g - d for g, d in zip(gram, tdot)]
        wp = n * pp - tdot[i]
        wq[i] = wp - 1
        if max(wq) < wp:
            continue
        pending.append(i)
    inside = set()
    every = set(pts)
    for i in pending:
        twice = [2 * x for x in pts[i]]
        if any(tuple(map(sub, twice, q)) in every
               for k, q in enumerate(pts) if k != i):
            inside.add(i)
            continue
        gens = [q for k, q in enumerate(pts) if k != i and k not in inside]
        if in_convex_hull(pts[i], gens):
            inside.add(i)
    return [i for i in todo if i not in inside]

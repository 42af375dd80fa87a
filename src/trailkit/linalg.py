"""Exact linear algebra helpers; no floats anywhere.

Matrices are plain lists of lists (rows).  This is deliberately small: row
reduction and an inverse over `fractions.Fraction`, and an exact convex-hull
membership test (the extremality oracle) as a phase-one simplex with Bland's
rule that pivots fraction-free over the integers and certifies each answer.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul
from typing import Sequence

from .errors import ConsistencyError

Matrix = list[list[Fraction]]


def to_fractions(rows: Sequence[Sequence]) -> Matrix:
    return [[Fraction(x) for x in row] for row in rows]


def rref(rows: Sequence[Sequence]) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form; returns (matrix, pivot column indices)."""
    m = to_fractions(rows)
    if not m:
        return m, []
    nrows, ncols = len(m), len(m[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pivot_row = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        pv = m[r][c]
        if pv != 1:
            m[r] = [x / pv if x else x for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b if b else a for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


def rank(rows: Sequence[Sequence]) -> int:
    return len(rref(rows)[1])


def invert(a: Sequence[Sequence]) -> Matrix:
    n = len(a)
    aug = [list(map(Fraction, row)) + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(a)]
    red, pivots = rref(aug)
    if pivots != list(range(n)):
        raise ConsistencyError("matrix is singular")
    return [row[n:] for row in red]


def _integer_row(row: list) -> list[int]:
    """`row` as ints.  A row holding a non-integer is scaled by the lcm of its
    denominators, which leaves the solution set of its equation unchanged."""
    if all(type(x) is int for x in row):
        return row
    fr = [Fraction(x) for x in row]
    den = lcm(*(x.denominator for x in fr))
    return [x.numerator * (den // x.denominator) for x in fr]


def _eliminate(row: list[int], prow: list[int], pv: int, f: int,
               d: int) -> list[int]:
    """(pv * row - f * prow) / d entry by entry.  The division is exact: every
    entry of the integer tableau is a minor of the input (Bareiss)."""
    if f == 0:
        return row if pv == d else [pv * x // d for x in row]
    if d == 1:
        return [pv * x - f * y for x, y in zip(row, prow)]
    return [(pv * x - f * y) // d for x, y in zip(row, prow)]


def in_convex_hull(point: Sequence, generators: Sequence[Sequence]) -> bool:
    """Exact test: does `point` lie in conv(generators)?

    Phase-one simplex with Bland's rule on the feasibility problem
    sum(l_i * g_i) = p, sum(l_i) = 1, l >= 0, pivoted fraction-free over the
    integers (Bareiss, Math. Comp. 22, 1968).  The tableau holds the true
    entries times one common denominator d > 0, the absolute determinant of
    the current basis; a pivot on (r, e) keeps row r and turns every other row x,
    the cost row included, into (pv * x - x[e] * row_r) // d, after which
    d = pv.  Rows of the problem that hold a non-integer Fraction are scaled
    to integers first.

    Every answer is certified in integers before it is returned: True by
    weights l >= 0 with sum(l_i g_i) = d p and sum(l_i) = d; False by a Farkas
    vector y with y.A_j <= 0 for every generator column A_j and y.b > 0.  A
    failed certificate raises ConsistencyError.
    """
    gens = list(generators)
    if not gens:
        return False
    n = len(gens)
    # Constraint rows [A_r | b_r]: one per coordinate, then sum(l_i) = 1.
    rows = [_integer_row([g[r] for g in gens] + [x])
            for r, x in enumerate(point)]
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


def extremal_points(points: Sequence[Sequence]) -> list[int]:
    """Indices of points not in the convex hull of the others.

    Duplicates are never extremal (a duplicate IS in the hull of the rest).
    Integer coordinates stay ints; an axis holding a non-integer Fraction is
    scaled to integers first, which changes no hull membership.
    """
    pts = [tuple(p) for p in points]
    axes = [_integer_row(list(col)) for col in zip(*pts)]
    if axes:
        pts = list(zip(*axes))
    return [i for i, p in enumerate(pts)
            if not in_convex_hull(p, pts[:i] + pts[i + 1:])]

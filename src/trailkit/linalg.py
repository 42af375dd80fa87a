"""Exact rational linear algebra helpers.

Everything works over `fractions.Fraction`; no floats anywhere.  Matrices are
plain lists of lists (rows).  This is deliberately small: row reduction, an
inverse, and an exact convex-hull membership test via a phase-one simplex
with Bland's rule (needed as an extremality oracle at desk scale).
"""

from __future__ import annotations

from fractions import Fraction
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


def in_convex_hull(point: Sequence, generators: Sequence[Sequence]) -> bool:
    """Exact test: does `point` lie in conv(generators)?

    Phase-one simplex with Bland's rule on the feasibility problem
    sum(l_i * g_i) = p, sum(l_i) = 1, l >= 0.  Terminates (Bland) and is
    exact (Fractions).
    """
    gens = [list(map(Fraction, g)) for g in generators]
    if not gens:
        return False
    p = list(map(Fraction, point))
    dim = len(p)
    n = len(gens)
    nrows = dim + 1
    rows: Matrix = [[gens[j][r] for j in range(n)] for r in range(dim)]
    rows.append([Fraction(1)] * n)
    rhs = p + [Fraction(1)]
    for r in range(nrows):
        if rhs[r] < 0:
            rhs[r] = -rhs[r]
            rows[r] = [-x for x in rows[r]]
    # Tableau: n structural + nrows artificial columns + rhs.
    tab = [rows[r] + [Fraction(int(i == r)) for i in range(nrows)] + [rhs[r]]
           for r in range(nrows)]
    basis = [n + r for r in range(nrows)]
    ncols = n + nrows
    # Phase-one reduced-cost row (artificials cost 1, structurals 0).
    cost = [-sum(tab[r][j] for r in range(nrows)) for j in range(n)]
    cost += [Fraction(0)] * nrows
    cost.append(-sum(rhs))  # negative of the objective value
    while True:
        enter = next((j for j in range(ncols) if cost[j] < 0), None)
        if enter is None:
            break
        # Ratio test, ties broken by smallest basis index (Bland).
        best = None
        for r in range(nrows):
            if tab[r][enter] > 0:
                ratio = tab[r][ncols] / tab[r][enter]
                key = (ratio, basis[r])
                if best is None or key < best[0]:
                    best = (key, r)
        if best is None:
            raise ConsistencyError("phase-one simplex unbounded")
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


def extremal_points(points: Sequence[Sequence]) -> list[int]:
    """Indices of points not in the convex hull of the others.

    Duplicates are never extremal (a duplicate IS in the hull of the rest).
    """
    pts = [tuple(map(Fraction, p)) for p in points]
    out = []
    for i, p in enumerate(pts):
        others = [q for j, q in enumerate(pts) if j != i]
        if not in_convex_hull(p, others):
            out.append(i)
    return out

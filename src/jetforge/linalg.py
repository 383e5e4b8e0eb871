"""Sparse exact linear algebra over Scalar entries.

Elimination runs on Gaussian integers: each row is scaled to ``{column:
(re, im)}`` integer pairs, which changes neither its span nor the
solution.  The pivots are the first linearly independent columns in
graded-lex (column) order and free variables are pinned to zero, so
``rank`` and ``solve`` depend only on the matrix and right-hand side.
"""

from __future__ import annotations

import math

from .scalar import ZERO, Scalar, _from_gaussian, _to_gaussian


def mat_vec(matrix, vec):
    out = []
    for row in matrix:
        total = Scalar()
        for a, b in zip(row, vec):
            if a and b:
                total = total + a * b
        out.append(total)
    return out


def _primitive(row: dict) -> dict:
    """An integer row divided by the gcd of all its parts."""
    g = math.gcd(*[x for pair in row.values() for x in pair])
    if g == 1:
        return row
    return {j: (x // g, y // g) for j, (x, y) in row.items()}


def _eliminate(matrix, rhs=()):
    """Reduce each integer row against the pivot rows found so far.

    The right-hand side rides along as column ``n_cols``, which is never a
    pivot.  A pivot row is the row times conj(lead)/gcd(lead.re, lead.im),
    so its lead is a positive integer ``n`` (a real lead is not squared);
    it is stored as ``(n, [(column, (re, im))])`` for the entries right of
    the lead.  A row is reduced by ``row <- n*row - row[lead]*pivot_row``.
    Pivot rows and reduced rows are divided by the gcd of their parts:
    without that content step the entries blow up, and with it on pivot
    rows only, reduced rows of dense matrices still grow.  Returns
    ``(pivot_rows keyed by leading column, n_cols, consistent)``.
    """
    n_cols = len(matrix[0]) if matrix else 0
    pivot_rows = {}
    consistent = True
    for entries, b in zip(matrix, rhs or [ZERO] * len(matrix)):
        nonzero = {j: v for j, v in enumerate(entries) if v}
        if b:
            nonzero[n_cols] = b
        row = dict(zip(nonzero, _to_gaussian(nonzero.values())[1]))
        while row:
            lead = min(row)
            prow = pivot_rows.get(lead)
            if prow is None:
                if lead >= n_cols:
                    consistent = False
                else:
                    lr, li = row[lead]
                    h = math.gcd(lr, li)
                    lr, li = lr // h, li // h
                    row = _primitive(
                        {j: (x * lr + y * li, y * lr - x * li) for j, (x, y) in row.items()}
                    )
                    pivot_rows[lead] = (row.pop(lead)[0], list(row.items()))
                break
            n, rest = prow
            fr, fi = row.pop(lead)
            if n != 1:
                row = {j: (n * x, n * y) for j, (x, y) in row.items()}
            for j, (pr, pi) in rest:
                x, y = row.get(j, (0, 0))
                x -= fr * pr - fi * pi
                y -= fr * pi + fi * pr
                if x or y:
                    row[j] = (x, y)
                else:
                    del row[j]
            row = _primitive(row)
    return pivot_rows, n_cols, consistent


def rank(matrix) -> int:
    return len(_eliminate(matrix)[0])


def solve(matrix, rhs):
    """Solve M x = b exactly, free variables pinned to zero.

    Returns ``(solution, pivot_columns)``; solution is None when the
    system is inconsistent.
    """
    b = [Scalar.coerce(v) for v in rhs]
    if len(b) != len(matrix):
        raise ValueError("right-hand side length does not match row count")
    pivot_rows, n_cols, consistent = _eliminate(matrix, b)
    pivots = sorted(pivot_rows)
    if not consistent:
        return None, pivots
    # back-substitute in descending pivot order over one common denominator:
    # x[j] = xs[j] / den, and x[n_cols] = -1 makes the right-hand side entry
    # of each pivot row count with a plus sign
    den = 1
    xs = {n_cols: (-1, 0)}
    for col in reversed(pivots):
        n, rest = pivot_rows[col]
        sr = si = 0
        for j, (a, b) in rest:
            v = xs.get(j)
            if v is not None:
                sr -= a * v[0] - b * v[1]
                si -= a * v[1] + b * v[0]
        if not (sr or si):
            continue
        # x[col] = (sr + si*i) / (den*n); den grows to the lcm of the
        # reduced denominators
        g = math.gcd(sr, si, den * n)
        reduced = den * n // g
        scale = reduced // math.gcd(den, reduced)
        if scale > 1:
            xs = {j: (x * scale, y * scale) for j, (x, y) in xs.items()}
            den *= scale
        m = den // reduced
        xs[col] = (sr // g * m, si // g * m)
    del xs[n_cols]
    x = [ZERO] * n_cols
    for j, v in zip(xs, _from_gaussian(den, xs.values())):
        x[j] = v
    return x, pivots

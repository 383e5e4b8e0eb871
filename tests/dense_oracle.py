"""The dense exact solver that jetforge.linalg replaced, kept as a test oracle.

Elimination walks columns left to right and picks the first row with a
nonzero entry; the sparse solver must return identical ``(solution,
pivots)`` and rank.
"""

from __future__ import annotations

from jetforge.scalar import Scalar


def _eliminate(rows, rhs):
    """Forward elimination with unit pivots; returns pivot column list."""
    if not rows:
        return []
    n_rows = len(rows)
    n_cols = len(rows[0])
    pivots = []
    pr = 0
    for col in range(n_cols):
        if pr >= n_rows:
            break
        hit = None
        for r in range(pr, n_rows):
            if rows[r][col]:
                hit = r
                break
        if hit is None:
            continue
        if hit != pr:
            rows[pr], rows[hit] = rows[hit], rows[pr]
            if rhs is not None:
                rhs[pr], rhs[hit] = rhs[hit], rhs[pr]
        inv = Scalar(1) / rows[pr][col]
        rows[pr] = [v * inv for v in rows[pr]]
        if rhs is not None:
            rhs[pr] = rhs[pr] * inv
        for r in range(pr + 1, n_rows):
            f = rows[r][col]
            if not f:
                continue
            rows[r] = [a - f * b for a, b in zip(rows[r], rows[pr])]
            if rhs is not None:
                rhs[r] = rhs[r] - f * rhs[pr]
        pivots.append(col)
        pr += 1
    return pivots


def rank(matrix) -> int:
    rows = [list(r) for r in matrix]
    return len(_eliminate(rows, None))


def solve(matrix, rhs):
    """Solve M x = b exactly, free variables pinned to zero.

    Returns ``(solution, pivot_columns)``; solution is None when the
    system is inconsistent.
    """
    rows = [list(r) for r in matrix]
    b = [Scalar.coerce(v) for v in rhs]
    if rows and len(b) != len(rows):
        raise ValueError("right-hand side length does not match row count")
    pivots = _eliminate(rows, b)
    for r in range(len(pivots), len(rows)):
        if b[r]:
            return None, pivots
    n_cols = len(rows[0]) if rows else 0
    x = [Scalar() for _ in range(n_cols)]
    for idx in range(len(pivots) - 1, -1, -1):
        col = pivots[idx]
        total = b[idx]
        row = rows[idx]
        for j in range(col + 1, n_cols):
            if row[j] and x[j]:
                total = total - row[j] * x[j]
        x[col] = total
    return x, pivots

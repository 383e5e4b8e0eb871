"""Sparse exact linear algebra over Scalar entries.

Rows are held as ``{column: Scalar}`` dicts of their nonzeros.  The pivots
are the first linearly independent columns in graded-lex (column) order
and free variables are pinned to zero, so ``rank`` and ``solve`` depend
only on the matrix and right-hand side.
"""

from __future__ import annotations

from .scalar import ONE, ZERO, Scalar


def mat_vec(matrix, vec):
    out = []
    for row in matrix:
        total = Scalar()
        for a, b in zip(row, vec):
            if a and b:
                total = total + a * b
        out.append(total)
    return out


def _eliminate(matrix, rhs=()):
    """Reduce each sparse row against the unit pivot rows found so far.

    The right-hand side rides along as column ``n_cols``, which is never a
    pivot.  Returns ``(pivot_rows keyed by leading column, n_cols,
    consistent)``.
    """
    n_cols = len(matrix[0]) if matrix else 0
    pivot_rows = {}
    consistent = True
    for entries, b in zip(matrix, rhs or [ZERO] * len(matrix)):
        row = {j: v for j, v in enumerate(entries) if v}
        if b:
            row[n_cols] = b
        while row:
            lead = min(row)
            prow = pivot_rows.get(lead)
            if prow is None:
                if lead >= n_cols:
                    consistent = False
                else:
                    inv = ONE / row[lead]
                    pivot_rows[lead] = {j: v * inv for j, v in row.items()}
                break
            f = row[lead]
            for j, v in prow.items():
                w = row.get(j, ZERO) - f * v
                if w:
                    row[j] = w
                else:
                    del row[j]
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
    # back-substitute in descending pivot order; x[n_cols] = -1 makes the
    # right-hand side entry of each pivot row count with a plus sign
    x = [ZERO] * n_cols + [-ONE]
    for col in reversed(pivots):
        x[col] = -sum((v * x[j] for j, v in pivot_rows[col].items() if x[j]), ZERO)
    return x[:n_cols], pivots

"""Exact linear algebra over the rationals (dense Gauss-Jordan elimination).

Sizes in this project stay in the low hundreds, so Gauss-Jordan
elimination over `Fraction` is adequate and keeps results exact.  Callers
describe a system by sparse coordinate columns, such as
`GwaElement.coordinates()`, and turn it into the dense matrix that `rank`,
`nullspace_dimension` and `solve` take with `assemble`.
"""

from __future__ import annotations

from collections.abc import Hashable, Mapping
from fractions import Fraction

_ZERO = Fraction(0)


def assemble(
    columns: list[Mapping[Hashable, Fraction]], target: Mapping[Hashable, Fraction]
) -> tuple[list[list[Fraction]], list[Fraction]]:
    """Dense (matrix, rhs) of the system sum_j x_j * columns[j] = target.

    There is one row per key that occurs in a column or in the target, in
    sorted key order; keys absent from a map read as 0.
    """
    keys = sorted({key for col in [*columns, target] for key in col})
    matrix = [[col.get(key, _ZERO) for col in columns] for key in keys]
    return matrix, [target.get(key, _ZERO) for key in keys]


def _echelon(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Row-reduce in place; returns the matrix and the pivot column list."""
    if not rows:
        return rows, []
    ncols = len(rows[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def rank(matrix: list[list[Fraction]]) -> int:
    _, pivots = _echelon([row[:] for row in matrix])
    return len(pivots)


def nullspace_dimension(matrix: list[list[Fraction]], ncols: int) -> int:
    if not matrix:
        return ncols
    return ncols - rank(matrix)


def solve(matrix: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction] | None:
    """One exact solution of matrix * x = rhs (free variables set to 0), or None."""
    if not matrix:
        return []
    ncols = len(matrix[0])
    aug = [row[:] + [b] for row, b in zip(matrix, rhs)]
    aug, pivots = _echelon(aug)
    if ncols in pivots:  # pivot in the augmented column: inconsistent
        return None
    x = [Fraction(0)] * ncols
    for r, c in enumerate(pivots):
        x[c] = aug[r][ncols] - sum(
            aug[r][j] * x[j] for j in range(c + 1, ncols) if aug[r][j] != 0
        )
    return x

"""Exact linear algebra over the rationals, one independent block at a time.

Callers describe a system by sparse coordinate columns, such as
`GwaElement.coordinates()`, and turn it into the dense matrix that `rank`,
`nullspace_dimension` and `solve` take with `assemble`.

Each of the three splits its matrix into the connected components of the
nonzero pattern, where a row joins every column it touches, and runs
Gauss-Jordan elimination over `Fraction` on each component alone.  This is
exact for any matrix: after permuting rows and columns the matrix is block
diagonal, so its rank is the sum of the block ranks and the system is
consistent iff every block is and no all-zero row has a nonzero right-hand
side.  The systems this project builds are graded, so their blocks are
small even when the whole matrix is not.

`solve` sets every free variable to 0.  Gauss-Jordan makes column c a pivot
exactly when c is independent of the earlier columns, and on a block
diagonal matrix that holds iff c is independent of the earlier columns of
its own block.  So the pivots, and with them the returned vector, are the
same as one elimination of the whole matrix would give.
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


def _blocks(matrix: list[list[Fraction]]) -> tuple[list[tuple[list[int], list[int]]], list[int]]:
    """The (rows, columns) of each connected component of the nonzero
    pattern that has a row, both in ascending order, and the all-zero rows.

    Columns that no row touches belong to no block.
    """
    parent = list(range(len(matrix[0]) if matrix else 0))

    def find(c: int) -> int:
        while parent[c] != c:
            parent[c] = c = parent[parent[c]]
        return c

    # nearly every zero is the `_ZERO` that `assemble` fills in: an identity
    # test skips it without `Fraction.__bool__`, and `v` catches any other zero
    supports = [[c for c, v in enumerate(row) if v is not _ZERO and v] for row in matrix]
    for support in supports:
        if support:
            root = find(support[0])
            for c in support[1:]:
                parent[find(c)] = root
    blocks: dict[int, tuple[list[int], list[int]]] = {}
    zero_rows = []
    for i, support in enumerate(supports):
        if support:
            blocks.setdefault(find(support[0]), ([], []))[0].append(i)
        else:
            zero_rows.append(i)
    for c in range(len(parent)):
        root = find(c)
        if root in blocks:
            blocks[root][1].append(c)
    return list(blocks.values()), zero_rows


def rank(matrix: list[list[Fraction]]) -> int:
    blocks, _ = _blocks(matrix)
    return sum(
        len(_echelon([[matrix[i][c] for c in cols] for i in rows])[1]) for rows, cols in blocks
    )


def nullspace_dimension(matrix: list[list[Fraction]], ncols: int) -> int:
    return ncols - rank(matrix)


def solve(matrix: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction] | None:
    """One exact solution of matrix * x = rhs (free variables set to 0), or None."""
    blocks, zero_rows = _blocks(matrix)
    if any(rhs[i] for i in zero_rows):
        return None
    x = [_ZERO] * (len(matrix[0]) if matrix else 0)
    for rows, cols in blocks:
        aug, pivots = _echelon([[matrix[i][c] for c in cols] + [rhs[i]] for i in rows])
        if pivots[-1] == len(cols):  # pivot in the augmented column: inconsistent
            return None
        for r, p in enumerate(pivots):
            x[cols[p]] = aug[r][-1]
    return x

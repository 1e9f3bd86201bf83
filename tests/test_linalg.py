"""Exact linear algebra, cross-checked against sympy and one whole-matrix
elimination on random sparse systems and shuffled block-diagonal ones."""

import random
from fractions import Fraction

import pytest
import sympy

from gwa_skew import linalg


def random_entry(rng: random.Random) -> Fraction:
    if rng.random() < 0.35:
        return Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    return Fraction(0)


def random_system(
    rng: random.Random, consistent: bool = False
) -> tuple[list[list[Fraction]], list[Fraction], int, set[str]]:
    """(matrix, rhs, ncols, planted) of a sparse system that may have no rows,
    is often rank-deficient (rows that combine earlier rows) and, for a
    random right-hand side, often inconsistent.  `consistent` forces a
    right-hand side in the column span."""
    nrows, ncols = rng.randint(0, 7), rng.randint(1, 7)
    matrix, planted = [], set()
    for _ in range(nrows):
        if len(matrix) >= 2 and rng.random() < 0.3:
            a, b = rng.sample(matrix, 2)
            s, t = Fraction(rng.randint(-3, 3), rng.randint(1, 3)), Fraction(rng.randint(-3, 3))
            matrix.append([s * x + t * y for x, y in zip(a, b)])
            planted.add("dependent-rows")
        else:
            matrix.append([random_entry(rng) for _ in range(ncols)])
    if rng.random() < 0.5 or consistent:  # consistent by construction
        x0 = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(ncols)]
        rhs = [sum((a * x for a, x in zip(row, x0)), Fraction(0)) for row in matrix]
    else:
        rhs = [Fraction(rng.randint(-3, 3)) for _ in range(nrows)]
    return matrix, rhs, ncols, planted


def block_system(rng: random.Random) -> tuple[list[list[Fraction]], list[Fraction], int, set[str]]:
    """(matrix, rhs, ncols, planted) of a block-diagonal system with its rows
    and columns shuffled.  The blocks are consistent `random_system`s, except
    that one of several may get a random right-hand side; all-zero columns,
    all-zero rows with a nonzero right-hand side, and rows without columns
    are planted too."""
    if rng.random() < 0.1:
        rhs = [Fraction(rng.randint(0, 1)) for _ in range(rng.randint(1, 3))]
        return [[] for _ in rhs], rhs, 0, {"no-columns"}
    blocks = [random_system(rng, consistent=True) for _ in range(rng.randint(1, 3))]
    planted = set().union(*(block[3] for block in blocks))
    if len(blocks) >= 2 and rng.random() < 0.5:
        m, _, n, _ = blocks[0]
        rhs = [Fraction(rng.randint(-3, 3)) for _ in m]
        if dense_solve(m, rhs) is None:
            blocks[0] = m, rhs, n, set()
            planted.add("one-inconsistent-block")
    if rng.random() < 0.3:
        blocks.append(([], [], rng.randint(1, 2), set()))
        planted.add("zero-columns")
    if rng.random() < 0.3:
        b = Fraction(rng.choice([-2, -1, 1, 2]))
        blocks.append(([[]], [b], 0, set()))
        planted.add("zero-row-rhs")
    ncols = sum(block[2] for block in blocks)
    rows, offset = [], 0
    for m, rhs, n, _ in blocks:
        pad = [Fraction(0)] * offset, [Fraction(0)] * (ncols - offset - n)
        rows += [(pad[0] + row + pad[1], b) for row, b in zip(m, rhs)]
        offset += n
    rng.shuffle(rows)
    perm = rng.sample(range(ncols), ncols)
    return [[row[c] for c in perm] for row, _ in rows], [b for _, b in rows], ncols, planted


def dense_solve(matrix: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction] | None:
    """Oracle: one Gauss-Jordan elimination of the whole augmented matrix,
    with back substitution and free variables set to 0."""
    if not matrix:
        return []
    ncols = len(matrix[0])
    aug, pivots = linalg._echelon([row[:] + [b] for row, b in zip(matrix, rhs)])
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for r, c in enumerate(pivots):
        x[c] = aug[r][ncols] - sum(aug[r][j] * x[j] for j in range(c + 1, ncols) if aug[r][j] != 0)
    return x


def to_sympy(rows: list[list[Fraction]], ncols: int) -> sympy.Matrix:
    entries = [sympy.Rational(c.numerator, c.denominator) for row in rows for c in row]
    return sympy.Matrix(len(rows), ncols, entries)


def check_against_sympy(matrix: list[list[Fraction]], rhs: list[Fraction], ncols: int) -> set[str]:
    """Assert rank, nullity and solve against sympy and `dense_solve`; return
    the kinds of system seen."""
    A = to_sympy(matrix, ncols)
    assert linalg.rank(matrix) == A.rank()
    assert linalg.nullspace_dimension(matrix, ncols) == ncols - A.rank()
    try:
        A.gauss_jordan_solve(to_sympy([[b] for b in rhs], 1))
        consistent = True
    except ValueError:
        consistent = False
    x = linalg.solve(matrix, rhs)
    assert (x is None) == (not consistent)
    if x is not None and matrix:
        assert [sum(a * v for a, v in zip(row, x)) for row in matrix] == rhs
    # the same vector as one elimination of the whole matrix, so that
    # witnesses built from it do not change
    assert x == dense_solve(matrix, rhs)
    return {
        "empty" if not matrix else "deficient" if A.rank() < min(A.shape) else "full",
        "consistent" if consistent else "inconsistent",
    }


@pytest.mark.parametrize("seed", range(8))
def test_rank_and_solve_match_sympy(seed):
    rng = random.Random(f"gwa-skew:linalg:{seed}")
    kinds = set()
    for _ in range(40):
        matrix, rhs, ncols, _ = random_system(rng)
        kinds |= check_against_sympy(matrix, rhs, ncols)
    assert kinds == {"empty", "deficient", "full", "consistent", "inconsistent"}


@pytest.mark.parametrize("seed", range(8))
def test_block_systems_match_sympy(seed):
    rng = random.Random(f"gwa-skew:linalg:blocks:{seed}")
    kinds = set()
    for _ in range(20):
        matrix, rhs, ncols, planted = block_system(rng)
        kinds |= check_against_sympy(matrix, rhs, ncols) | planted
    assert kinds >= {
        "deficient",
        "consistent",
        "inconsistent",
        "dependent-rows",
        "one-inconsistent-block",
        "zero-row-rhs",
        "zero-columns",
        "no-columns",
    }


def test_assemble_rows_are_the_occurring_keys():
    h = Fraction(1, 2)
    columns = [{(1, 0): h}, {(0, 2): Fraction(3), (1, 0): h}]
    matrix, rhs = linalg.assemble(columns, {(-1, 0): Fraction(5)})
    assert matrix == [[0, 0], [0, 3], [h, h]]
    assert rhs == [5, 0, 0]
    assert linalg.assemble([{}, {}], {}) == ([], [])


def test_blocks_find_zeros_that_are_not_the_shared_zero():
    # `assemble` fills absent cells with one shared zero, which the support
    # scan skips by identity; a zero built elsewhere must still read as zero
    rng = random.Random("linalg:fresh-zeros")
    for _ in range(50):
        matrix, rhs, ncols, _ = random_system(rng)
        shared = [[linalg._ZERO if v == 0 else v for v in row] for row in matrix]
        fresh = [[Fraction(0) if v == 0 else v for v in row] for row in matrix]
        assert linalg._blocks(shared) == linalg._blocks(fresh)
        assert linalg.rank(shared) == linalg.rank(fresh) == to_sympy(matrix, ncols).rank()
        assert linalg.solve(shared, rhs) == linalg.solve(fresh, rhs)

"""Exact linear algebra, cross-checked against sympy on random sparse systems."""

import random
from fractions import Fraction

import pytest
import sympy

from gwa_skew import linalg


def random_entry(rng: random.Random) -> Fraction:
    if rng.random() < 0.35:
        return Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    return Fraction(0)


def random_system(rng: random.Random) -> tuple[list[list[Fraction]], list[Fraction], int]:
    """(matrix, rhs, ncols) of a sparse system that may have no rows, is
    often rank-deficient (rows that combine earlier rows) and, for a random
    right-hand side, often inconsistent."""
    nrows, ncols = rng.randint(0, 7), rng.randint(1, 7)
    matrix = []
    for _ in range(nrows):
        if len(matrix) >= 2 and rng.random() < 0.3:
            a, b = rng.sample(matrix, 2)
            s, t = Fraction(rng.randint(-3, 3), rng.randint(1, 3)), Fraction(rng.randint(-3, 3))
            matrix.append([s * x + t * y for x, y in zip(a, b)])
        else:
            matrix.append([random_entry(rng) for _ in range(ncols)])
    if rng.random() < 0.5:  # consistent by construction
        x0 = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(ncols)]
        rhs = [sum((a * x for a, x in zip(row, x0)), Fraction(0)) for row in matrix]
    else:
        rhs = [Fraction(rng.randint(-3, 3)) for _ in range(nrows)]
    return matrix, rhs, ncols


def to_sympy(rows: list[list[Fraction]], ncols: int) -> sympy.Matrix:
    entries = [sympy.Rational(c.numerator, c.denominator) for row in rows for c in row]
    return sympy.Matrix(len(rows), ncols, entries)


@pytest.mark.parametrize("seed", range(8))
def test_rank_and_solve_match_sympy(seed):
    rng = random.Random(f"gwa-skew:linalg:{seed}")
    kinds = set()
    for _ in range(40):
        matrix, rhs, ncols = random_system(rng)
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
        kinds.add("empty" if not matrix else "deficient" if A.rank() < min(A.shape) else "full")
        kinds.add("consistent" if consistent else "inconsistent")
    assert kinds == {"empty", "deficient", "full", "consistent", "inconsistent"}


def test_assemble_rows_are_the_occurring_keys():
    h = Fraction(1, 2)
    columns = [{(1, 0): h}, {(0, 2): Fraction(3), (1, 0): h}]
    matrix, rhs = linalg.assemble(columns, {(-1, 0): Fraction(5)})
    assert matrix == [[0, 0], [0, 3], [h, h]]
    assert rhs == [5, 0, 0]
    assert linalg.assemble([{}, {}], {}) == ([], [])

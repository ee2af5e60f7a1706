"""The row-echelon kernels over Q and Z/p against independent references."""

import random
from fractions import Fraction

import pytest

from hornsing.exact import nullspace, rref, solve_linear
from hornsing.odeguess import _mod_frac, _mod_null_vector

P61 = 2**61 - 1


def _random_matrix(rng, nrows, ncols, rank):
    """Rational nrows x ncols matrix of rank at most `rank`, rows shuffled,
    with some rows zero."""
    basis = [
        [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(ncols)]
        for _ in range(rank)
    ]
    rows = []
    for _ in range(nrows):
        if not basis or rng.random() < 0.15:
            rows.append([Fraction(0)] * ncols)
            continue
        coef = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in basis]
        rows.append([sum(c * b[j] for c, b in zip(coef, basis)) for j in range(ncols)])
    return rows


def _shapes():
    """(nrows, ncols, rank) covering square, wide, tall, rank-deficient and zero."""
    rng = random.Random(20240611)
    out = [(1, 1, 0), (3, 3, 0), (4, 4, 4), (2, 6, 2), (6, 2, 2), (5, 7, 3), (7, 4, 2)]
    for _ in range(60):
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
        out.append((nrows, ncols, rng.randint(0, min(nrows, ncols))))
    return out


def test_rref_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(777)
    for nrows, ncols, rank in _shapes():
        m = _random_matrix(rng, nrows, ncols, rank)
        rows, pivots = rref(m)
        want, want_pivots = sympy.Matrix(
            [[sympy.Rational(x.numerator, x.denominator) for x in row] for row in m]
        ).rref()
        assert tuple(pivots) == tuple(want_pivots)
        assert len(rows) == len(pivots)
        for i, row in enumerate(rows):
            assert row == [Fraction(int(x.p), int(x.q)) for x in want.row(i)]


def test_rref_of_empty_and_zero_matrices():
    assert rref([]) == ([], [])
    assert rref([[0, 0], [0, 0]]) == ([], [])


def test_mod_null_vector_is_canonical_nullspace_vector():
    rng = random.Random(4242)
    hits = 0
    for nrows, ncols, rank in _shapes():
        m = _random_matrix(rng, nrows, ncols, rank)
        _rows, want_pivots = rref(m)
        mod_rows = [[_mod_frac(x, P61) for x in row] for row in m]
        got = _mod_null_vector(mod_rows, ncols, P61)
        basis = nullspace(m)
        if not basis:
            assert got is None
            continue
        pivots, vec = got
        assert pivots == tuple(want_pivots)
        assert vec == [_mod_frac(x, P61) for x in basis[0]]
        hits += 1
    assert hits > 30


def test_solve_linear_inconsistent_system():
    m = [[1, 1], [2, 2]]
    assert solve_linear(m, [1, 3]) is None
    assert solve_linear([[0, 0]], [5]) is None


def test_solve_linear_underdetermined_system():
    m = [[1, 2, 3], [2, 4, 7]]
    rhs = [6, 13]
    x = solve_linear(m, rhs)
    assert x is not None
    for row, b in zip(m, rhs):
        assert sum(a * v for a, v in zip(row, x)) == b
    # the free unknown (column 1) is set to zero
    assert x == [Fraction(3), Fraction(0), Fraction(1)]

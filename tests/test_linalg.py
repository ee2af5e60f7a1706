"""The row-echelon kernels over Q and Z/p against independent references."""

import random
from fractions import Fraction

import pytest

from hornsing.exact import nullspace, rref, solve_linear
from hornsing.odeguess import _mod_echelon, _mod_frac, _mod_null_vector

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


def _reference_echelon(rows, ncols, p):
    """List-based elimination mod p: every row update reduces each entry."""
    rank = 0
    nrows = len(rows)
    for c in range(ncols):
        piv = next((i for i in range(rank, nrows) if rows[i][c]), None)
        if piv is None:
            yield c
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][c], p - 2, p)
        prow = [x * inv % p for x in rows[rank][c:]]
        rows[rank] = rows[rank][:c] + prow
        for i in range(rank + 1, nrows):
            f = rows[i][c]
            if f:
                ri = rows[i]
                rows[i] = ri[:c] + [(a - f * b) % p for a, b in zip(ri[c:], prow)]
        rank += 1


def _assert_echelon_matches_reference(m, ncols, p):
    got_rows = [list(r) for r in m]
    want_rows = [list(r) for r in m]
    got = _mod_echelon(got_rows, ncols, p)
    want = _reference_echelon(want_rows, ncols, p)
    # At the first free column, where _first_free_block stops, the pivot rows
    # found so far already agree.
    first = next(got, None)
    assert first == next(want, None)
    if first is not None:
        assert got_rows[:first] == want_rows[:first]
    free = list(got)
    assert free == list(want)
    rank = ncols - len(free) - (first is not None)
    assert got_rows[:rank] == want_rows[:rank]


def _echelon_cases(rng, p):
    """(rows, ncols): dense, sparse, duplicated rows, all-zero, no rows and a
    single column."""
    def rand(nrows, ncols, density):
        return [
            [rng.randrange(p) if rng.random() < density else 0 for _ in range(ncols)]
            for _ in range(nrows)
        ]

    for _ in range(15):
        nrows, ncols = rng.randint(1, 12), rng.randint(1, 12)
        yield rand(nrows, ncols, 1.0), ncols
        yield rand(nrows, ncols, 0.2), ncols
        base = rand(rng.randint(1, 4), ncols, 0.8)
        dup = [list(rng.choice(base)) for _ in range(nrows)] + base
        rng.shuffle(dup)
        yield dup, ncols
        yield [[0] * ncols for _ in range(nrows)], ncols
        yield [], ncols
        yield rand(nrows, 1, 0.5), 1


@pytest.mark.parametrize("p", [2, 3, 7, 101, 2**31 - 1, P61])
def test_mod_echelon_matches_list_reference(p):
    rng = random.Random(p)
    for m, ncols in _echelon_cases(rng, p):
        _assert_echelon_matches_reference(m, ncols, p)


@pytest.mark.parametrize("p", [2, 3, 7, 101, 2**31 - 1, P61])
def test_mod_echelon_worst_slot_growth(p):
    # Pivot rows [0]*r + [1] + [p-1]*... are already normalized and need no
    # update from each other, while the last row starts at 1 - c in column c.
    # Since (p-1)^2 = 1 mod p, the last row reads f = 1 at every pivot, so it
    # is updated each time with the largest multiplier p - f = p - 1 against
    # entries p - 1: its packed slots grow as far as the kernel allows.  With
    # n = 80 pivots the growth overflows a slot of 2*p.bit_length() bits for
    # every p > 2, even when rounded up to whole bytes.
    n = 80
    m = [[0] * r + [1] + [p - 1] * (n - 1 - r) for r in range(n - 1)]
    m.append([(1 - c) % p for c in range(n)])
    _assert_echelon_matches_reference(m, n, p)
    rows = [list(r) for r in m]
    assert list(_mod_echelon(rows, n, p)) == []
    assert rows[-1] == [0] * (n - 1) + [1]


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

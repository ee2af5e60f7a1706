"""The row-echelon kernels over Q and Z/p against independent references."""

import math
import random
from fractions import Fraction

import pytest

from hornsing.exact import nullspace, rref
from hornsing.odeguess import _fit_mod_p, _mod_echelon

P61 = 2**61 - 1


def _residue(x, p):
    """x mod p for a rational x; a denominator divisible by p is an error."""
    den = x.denominator % p
    if den == 0:
        raise ZeroDivisionError("denominator divisible by modulus")
    return x.numerator * pow(den, -1, p) % p


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


def _assert_reduces_to(rows, pivots, want):
    """rows hold primitive ints with a positive pivot, and x / row[pivot] is
    the sympy reduced form want."""
    assert len(rows) == len(pivots)
    for i, (row, k) in enumerate(zip(rows, pivots)):
        assert all(type(x) is int for x in row)
        assert row[k] > 0 and math.gcd(*row) == 1
        assert [Fraction(x, row[k]) for x in row] == [
            Fraction(int(x.p), int(x.q)) for x in want.row(i)
        ]


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
        # Odd rows hold their integral entries as ints, even rows as Fractions:
        # Fraction and int entries mix; the guess_ode fallback passes ints.
        m = [
            [int(x) if i % 2 and x.denominator == 1 else x for x in row]
            for i, row in enumerate(m)
        ]
        before = [[(type(x), x) for x in row] for row in m]
        rows, pivots = rref(m)
        nullspace(m)
        assert [[(type(x), x) for x in row] for row in m] == before
        want, want_pivots = sympy.Matrix(
            [[sympy.Rational(x.numerator, x.denominator) for x in row] for row in m]
        ).rref()
        assert tuple(pivots) == tuple(want_pivots)
        _assert_reduces_to(rows, pivots, want)


def test_rref_of_empty_and_zero_matrices():
    assert rref([]) == ([], [])
    assert rref([[0, 0], [0, 0]]) == ([], [])


def test_fit_mod_p_is_canonical_nullspace_vector():
    # Each matrix is read as theta-major with blocks of m = degree + 1
    # columns; over Q, r* is the block of the first free column, and f and
    # the vector are those of the a-major columns of blocks 0..r*.
    rng = random.Random(4242)
    hits = 0
    for nrows, ncols, rank in _shapes():
        m = min(d for d in range(2, ncols + 1) if ncols % d == 0) if ncols > 1 else 1
        mat = _random_matrix(rng, nrows, ncols, rank)
        mod_rows = [[_residue(x, P61) for x in row] for row in mat]
        got = _fit_mod_p(mod_rows, ncols // m - 1, m - 1, P61)
        _rows, pivots = rref(mat)
        free = set(range(ncols)).difference(pivots)
        if not free:
            assert got is None
            continue
        r_star = min(free) // m
        a_major = [[row[i * m + a] for a in range(m) for i in range(r_star + 1)] for row in mat]
        _rows, pivots = rref(a_major)
        f = min(set(range(len(a_major[0]))).difference(pivots))
        basis = nullspace(a_major)
        # The canonical vector, scaled to 1 at the first free column, is zero
        # past it, so the reader returns exactly its first f + 1 entries.
        want = [_residue(Fraction(x, basis[0][f]), P61) for x in basis[0]]
        assert got == (r_star, f, want[: f + 1])
        assert not any(want[f + 1 :])
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
    # At the first free column, where _first_null_vector stops, the pivot rows
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


def _first_null_vector(rows, ncols, p):
    """First pivot-free column f and the null vector mod p with a 1 at f and
    zeros past f, or None at full column rank; destroys rows."""
    f = next(_reference_echelon(rows, ncols, p), None)
    if f is None:
        return None
    vec = [0] * f + [1]
    for i in range(f - 1, -1, -1):
        row = rows[i]
        vec[i] = -sum(row[j] * vec[j] for j in range(i + 1, f + 1)) % p
    return f, vec


def _two_pass_fit(rows, order, degree, p):
    """The two-elimination reader _fit_mod_p replaces: the first free column
    of the theta-major rows gives r*, and the a-major rows of blocks 0..r*
    give f and the null vector."""
    m = degree + 1
    free = next(_reference_echelon([list(r) for r in rows], (order + 1) * m, p), None)
    if free is None:
        return None
    r_star = free // m
    a_major = [[row[i * m + a] for a in range(m) for i in range(r_star + 1)] for row in rows]
    return (r_star,) + _first_null_vector(a_major, (r_star + 1) * m, p)


def _fit_cases(rng, p):
    """(rows, order, degree): theta-major rows mod p, tall, square and wide,
    with 0-3 columns of a random block that are combinations of earlier ones."""
    for _ in range(40):
        order, degree = rng.randint(1, 3), rng.randint(0, 3)
        m = degree + 1
        ncols = (order + 1) * m
        nrows = rng.randint(max(1, ncols - 3), ncols + 4)
        block = rng.randint(0, order)
        dependent = rng.sample(range(block * m, (block + 1) * m), rng.randint(0, min(3, m)))
        cols = []
        for c in range(ncols):
            if c in dependent:
                coef = [rng.randrange(p) for _ in cols]
                cols.append([sum(k * col[n] for k, col in zip(coef, cols)) % p for n in range(nrows)])
            else:
                cols.append([rng.randrange(p) for _ in range(nrows)])
        yield [list(row) for row in zip(*cols)], order, degree


@pytest.mark.parametrize("p", [2, 3, 7, 101, 2**31 - 1, P61])
def test_fit_mod_p_matches_two_pass_reader(p):
    rng = random.Random(1000 + p)
    seen = set()
    for rows, order, degree in _fit_cases(rng, p):
        want = _two_pass_fit(rows, order, degree, p)
        assert _fit_mod_p([list(r) for r in rows], order, degree, p) == want
        if want is None:
            seen.add("full rank")
            continue
        end = (want[0] + 1) * (degree + 1)
        kernel = len(list(_reference_echelon([r[:end] for r in rows], end, p)))
        seen.add(("kernel", min(kernel, 3)))
        seen.add("r* < order" if want[0] < order else "r* = order")
    assert {("kernel", 2), ("kernel", 3), "r* < order"} <= seen


def test_rref_of_sparse_matrices_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(4242)
    for _ in range(80):
        nrows, ncols = rng.randint(1, 9), rng.randint(1, 30)
        m = [
            [rng.randint(-5, 5) if rng.random() < 0.15 else 0 for _ in range(ncols)]
            for _ in range(nrows)
        ]
        rows, pivots = rref(m)
        want, want_pivots = sympy.Matrix(m).rref()
        assert tuple(pivots) == tuple(want_pivots)
        _assert_reduces_to(rows, pivots, want)

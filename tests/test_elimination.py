"""Resultant, discriminant, gcd, factorization, RatFun.inverse and the
integer Bareiss rank and determinant.

Each kernel is checked against an outside oracle (sympy, skipped when it is
not installed) on seeded random inputs, and the resultant also against the
fraction-free Bareiss determinant of the MPoly Sylvester matrix written out
below as the reference.  The integer interpolation of the Kronecker split is
checked against the Fraction Vandermonde solve it replaced, and the integer
rank against the rank rref reports.
"""

import random
from fractions import Fraction

import pytest

from hornsing.exact import (
    DegreeZero,
    MPoly,
    RatFun,
    _coprime_image,
    _int_det,
    _int_rank,
    _newton_int,
    discriminant,
    divexact,
    factor_univariate,
    poly_gcd,
    resultant,
    rref,
    solve_linear,
)
from hornsing.exprio import expr_to_ratfun, parse_expr
from hornsing.horn import HornMaps, IdenticallyZeroResultant, eliminate

XY = ("x", "y")
XYT = ("x", "y", "t")
ZT = ("z", "t")


def _rand_poly(rng, vars, deg, nterms=5, bound=9):
    """Random polynomial with degree <= deg in each variable and small rational coefficients."""
    terms = {}
    for _ in range(nterms):
        e = tuple(rng.randint(0, deg) for _ in vars)
        terms[e] = Fraction(rng.randint(-bound, bound), rng.choice((1, 1, 2, 3)))
    return MPoly(vars, terms)


def _to_sympy(p, syms):
    import sympy

    out = sympy.Integer(0)
    for e, c in p.terms.items():
        term = sympy.Rational(c.numerator, c.denominator)
        for s, k in zip(syms, e):
            term *= s**k
        out += term
    return out


def _from_sympy(expr, vars, syms):
    import sympy

    terms = sympy.Poly(expr, *syms).terms()
    return MPoly(vars, {e: Fraction(int(c.p), int(c.q)) for e, c in terms})


def _outcome(fn, *args):
    try:
        return fn(*args).terms
    except (ValueError, ZeroDivisionError) as err:
        return type(err), str(err)


# ---- sympy oracles -----------------------------------------------------------


def test_poly_gcd_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(6001)
    nontrivial = 0
    for _ in range(120):
        vars = XYT[: rng.randint(1, 3)]
        syms = sympy.symbols(" ".join(vars), seq=True)
        f, g = _rand_poly(rng, vars, 2), _rand_poly(rng, vars, 2)
        if rng.random() < 0.5:
            h = _rand_poly(rng, vars, 1, nterms=3)
            f, g = f * h, g * h
        if f.is_zero() and g.is_zero():
            continue
        ours = poly_gcd(f, g)
        theirs = sympy.gcd(_to_sympy(f, syms), _to_sympy(g, syms))
        assert ours == _from_sympy(theirs, vars, syms).primitive_positive()
        nontrivial += not ours.is_constant()
    assert nontrivial > 30


def test_resultant_matches_sympy_sylvester_determinant():
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix
    from sympy.polys.subresultants_qq_zz import sylvester

    rng = random.Random(6002)
    done = 0
    while done < 60:
        vars = (XY, XYT)[done % 2]
        var = rng.choice(vars)
        syms = sympy.symbols(" ".join(vars), seq=True)
        f = _rand_poly(rng, vars, 2 + done % 2, nterms=4)
        g = _rand_poly(rng, vars, 2, nterms=4)
        if f.degree(var) < 1 or g.degree(var) < 1:
            continue
        F, G = _to_sympy(f, syms), _to_sympy(g, syms)
        # the determinant of sympy's Sylvester matrix, taken over QQ[vars]
        matrix = DomainMatrix.from_Matrix(sylvester(F, G, syms[vars.index(var)]))
        det = matrix.domain.to_sympy(matrix.det())
        assert resultant(f, g, var) == _from_sympy(det, vars, syms)
        done += 1


def test_discriminant_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(6003)
    done = 0
    while done < 40:
        vars = XYT[: 1 + done % 3]
        var = vars[-1]
        syms = sympy.symbols(" ".join(vars), seq=True)
        f = _rand_poly(rng, vars, 3, nterms=5)
        if f.degree(var) < 2:
            continue
        theirs = sympy.discriminant(_to_sympy(f, syms), syms[-1])
        assert discriminant(f, var) == _from_sympy(sympy.expand(theirs), vars, syms)
        done += 1


def test_factor_univariate_matches_sympy():
    sympy = pytest.importorskip("sympy")
    T = ("t",)
    (ts,) = sympy.symbols("t", seq=True)
    t = MPoly.variable(T, "t")
    rng = random.Random(6004)
    complete = 0
    for _ in range(60):
        p = MPoly.const(T, Fraction(rng.choice((1, -2, 3, 5)), rng.choice((1, 2, 7))))
        for _ in range(rng.randint(1, 3)):
            f = _rand_poly(rng, T, rng.choice((1, 2, 2, 4)), nterms=4)
            if f.degree("t") >= 1:
                p = p * f ** rng.randint(1, 2)
        if p.degree("t") < 1:
            p = p * (t**4 + 1)
        res = factor_univariate(p, "t")
        rebuilt = MPoly.const(T, res.unit)
        for f, m in res.factors:
            rebuilt = rebuilt * f**m
        if res.remainder is not None:
            rebuilt = rebuilt * res.remainder
        assert rebuilt == p
        if res.complete:
            complete += 1
            for f, _ in res.factors:
                assert sympy.Poly(_to_sympy(f, (ts,)), ts).is_irreducible
    assert complete > 30


# ---- the resultant against the fraction-free reference --------------------------


def _sylvester_bareiss(a, b, var):
    """Sylvester resultant by Bareiss elimination on the MPoly Sylvester matrix (reference)."""
    m, n = a.degree(var), b.degree(var)
    if m <= 0 or n <= 0:
        raise DegreeZero("resultant needs positive degree in %r" % var)
    ca, cb = a.as_univar(var), b.as_univar(var)
    zero = MPoly.zero(a.vars)
    M = []
    for cs, d, count in ((ca, m, n), (cb, n, m)):
        for i in range(count):
            row = [zero] * (m + n)
            for j, c in enumerate(cs):
                row[i + d - j] = c
            M.append(row)
    size = m + n
    sign = 1
    prev = MPoly.const(a.vars, 1)
    for k in range(size - 1):
        if M[k][k].is_zero():
            pivot = next((i for i in range(k + 1, size) if not M[i][k].is_zero()), None)
            if pivot is None:
                return zero
            M[k], M[pivot] = M[pivot], M[k]
            sign = -sign
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                M[i][j] = divexact(M[k][k] * M[i][j] - M[i][k] * M[k][j], prev)
        prev = M[k][k]
    det = M[size - 1][size - 1]
    return det if sign > 0 else -det


def _assert_matches_reference(a, b, var):
    got = _outcome(resultant, a, b, var)
    assert got == _outcome(_sylvester_bareiss, a, b, var)
    return got


def test_resultant_leading_coefficient_vanishing_at_interpolation_points():
    z, t = MPoly.variable(ZT, "z"), MPoly.variable(ZT, "t")
    # D = 3*3 + 2*2 = 13, so z = 0, 1, 2 are interpolation points where
    # the leading coefficient in t, and in the second pair both, vanish
    a = z * (z - 1) * (z - 2) * t**2 + (z + 3) * t - 1
    b = (z - 1) * t**3 + z**2 * t + 5
    assert _assert_matches_reference(a, b, "t") != {}
    c = (z - 1) * (z - 2) * t**3 - t + z
    assert _assert_matches_reference(a, c, "t") != {}
    assert _assert_matches_reference(c, a, "t") != {}
    V = ("x", "z", "t")
    x, z3, t3 = (MPoly.variable(V, v) for v in V)
    _assert_matches_reference(z3 * (z3 - 1) * x * t3**2 + t3 - x, (x - 2) * t3**2 + z3 * t3 + 1, "t")


def test_resultant_zero_when_a_factor_is_shared():
    rng = random.Random(6005)
    done = 0
    while done < 15:
        vars = (ZT, XYT)[done % 2]
        h, f, g = (_rand_poly(rng, vars, 1, nterms=3) for _ in range(3))
        a, b = f * h, g * h
        if h.degree("t") < 1 or a.is_zero() or b.is_zero():
            continue
        assert _assert_matches_reference(a, b, "t") == {}
        done += 1
    # the elimination of t from maps that are not in lowest terms collapses
    T = ("t",)
    t = MPoly.variable(T, "t")

    def unreduced(num, den):
        r = RatFun.__new__(RatFun)
        r.num, r.den = num, den
        return r

    maps = HornMaps(unreduced(t * (t - 1), t * (t + 1)), unreduced(t * (t + 2), t * 3))
    with pytest.raises(IdenticallyZeroResultant):
        eliminate(maps)


def test_resultant_without_other_variables():
    T = ("t",)
    t = MPoly.variable(T, "t")
    assert _assert_matches_reference(3 * t**3 - t + Fraction(1, 2), 2 * t**2 + 5, "t") != {}
    assert _assert_matches_reference((t - 1) * (t + 2), (t - 1) * t, "t") == {}
    # x is declared but does not occur, so no variable is interpolated
    t2 = MPoly.variable(("x", "t"), "t")
    # res = (2/3)^2 * ((3/2)^2 - 2), the product over the root 3/2 of the second
    got = _assert_matches_reference(t2**2 - 2, Fraction(2, 3) * t2 - 1, "t")
    assert got == {(0, 0): Fraction(1, 9)}
    assert _assert_matches_reference(t2 - 1, t2**2 - 2, "t") == {(0, 0): Fraction(-1)}


def test_resultant_trivariate_matches_reference():
    rng = random.Random(6006)
    done = 0
    while done < 25:
        a, b = _rand_poly(rng, XYT, 2, nterms=5), _rand_poly(rng, XYT, 2, nterms=4)
        if a.degree("t") < 1 or b.degree("t") < 1 or a.degree("x") + b.degree("x") == 0:
            continue
        if a.degree("y") + b.degree("y") == 0:
            continue
        _assert_matches_reference(a, b, "t")
        done += 1
    x, y, t = (MPoly.variable(XYT, v) for v in XYT)
    # graph polynomials of x = t^2/(16(t+1)^2), y = 1/(16(t+1)^2)
    got = _assert_matches_reference(16 * x * (t + 1) ** 2 - t**2, 16 * y * (t + 1) ** 2 - 1, "t")
    assert got != {}


def test_resultant_degree_zero_message():
    x, y = MPoly.variable(XY, "x"), MPoly.variable(XY, "y")
    for a, b in ((x + y, y + 1), (y + 1, x + y), (MPoly.const(XY, 2), x)):
        with pytest.raises(DegreeZero) as err:
            resultant(a, b, "x")
        assert str(err.value) == "resultant needs positive degree in 'x'"
        assert _outcome(resultant, a, b, "x") == _outcome(_sylvester_bareiss, a, b, "x")


# ---- poly_gcd ------------------------------------------------------------------


def test_poly_gcd_zero_coefficient_is_not_a_unit():
    x, y = MPoly.variable(XY, "x"), MPoly.variable(XY, "y")
    assert poly_gcd(x * (y**2 + 5), (x + 1) * (y**2 + 5)) == y**2 + 5
    assert poly_gcd((x + 1) * (y**2 + 5), x * (y**2 + 5)) == y**2 + 5
    assert poly_gcd(x * y, x * (y + 1)) == x
    assert poly_gcd(x**2 * (y - 1), x * (y - 1) ** 2 + (y - 1)) == y - 1


def test_poly_gcd_falls_through_when_every_image_point_is_singular():
    x, y = MPoly.variable(XY, "x"), MPoly.variable(XY, "y")
    # the leading coefficient in x vanishes at y = 3, 5 and 7, the points tried
    lead = (y - 3) * (y - 5) * (y - 7)
    h = lead * x + 1
    a, b = h * (x + y), h * (x - 2 * y + 1)
    assert not _coprime_image(a, b, 0)
    assert poly_gcd(a, b) == h.primitive_positive()
    c, d = lead * x**2 + 1, x + y
    assert not _coprime_image(c, d, 0)
    assert poly_gcd(c, d) == MPoly.const(XY, 1)


def test_poly_gcd_degree_ten_composition_matches_sympy():
    sympy = pytest.importorskip("sympy")
    ST = ("s", "t")
    syms = sympy.symbols("s t", seq=True)
    f = expr_to_ratfun(
        parse_expr("(2*x*y^2 + 4*y^3 + 7*x^2 - 2*x*y - 8*y^2 - 3*y)/(15*x^2 - 8)", XY), XY
    )
    mapping = {
        "x": expr_to_ratfun(parse_expr("(-2*s*t + 2*t^2 + 3/2)/(3*s^2 - 2)", ST), ST),
        "y": expr_to_ratfun(parse_expr("(5*t^2 + s - 3)/(4*s^2 + 8*t^2 - 7*t)", ST), ST),
    }
    img = f.substitute_ratfun(mapping)
    assert img.den.total_degree() == 10
    bases = [_to_sympy(mapping[v].num, syms) / _to_sympy(mapping[v].den, syms) for v in XY]
    expected = sympy.cancel(_to_sympy(f.num, bases) / _to_sympy(f.den, bases))
    ours = _to_sympy(img.num, syms) / _to_sympy(img.den, syms)
    assert sympy.cancel(ours - expected) == 0
    num, den = sympy.fraction(expected)
    assert sympy.Poly(den, *syms).total_degree() == img.den.total_degree()
    assert sympy.Poly(num, *syms).total_degree() == img.num.total_degree()


# ---- RatFun.inverse ----------------------------------------------------------------


def test_ratfun_inverse_matches_constructor():
    rng = random.Random(6007)
    done = 0
    while done < 80:
        num, den = _rand_poly(rng, XY, 2, nterms=4), _rand_poly(rng, XY, 2, nterms=3)
        if num.is_zero() or den.is_zero():
            continue
        r = RatFun(num, den)
        inv = r.inverse()
        ref = RatFun(r.den, r.num)
        assert (inv.num, inv.den) == (ref.num, ref.den)
        assert inv.inverse() == r
        cube = r**-3
        assert (cube.num, cube.den) == (ref.num**3, ref.den**3)
        for n in range(5):
            power, want = r**n, RatFun(r.num**n, r.den**n)
            assert (power.num, power.den) == (want.num, want.den)
        done += 1
    zero = RatFun.const(XY, 0)
    with pytest.raises(ZeroDivisionError) as got:
        zero.inverse()
    with pytest.raises(ZeroDivisionError) as ref:
        RatFun(zero.den, zero.num)
    assert str(got.value) == str(ref.value) == "rational function with zero denominator"
    with pytest.raises(ZeroDivisionError, match="zero denominator"):
        zero**-2


def _ref_interp_int(xs, ys, deg):
    """Integer Lagrange interpolation of degree deg through a Vandermonde solve, or None."""
    n = deg + 1
    mat = [[Fraction(x) ** k for k in range(n)] for x in xs]
    sol = solve_linear(mat, [Fraction(y) for y in ys])
    if sol is None or any(s.denominator != 1 for s in sol):
        return None
    return [int(s) for s in sol]


def test_newton_int_matches_vandermonde_reference():
    rng = random.Random(8128)
    integral = 0
    for _ in range(600):
        deg = rng.randint(0, 5)
        x0 = rng.randint(-4, 2)
        xs = list(range(x0, x0 + deg + 1))
        if rng.random() < 0.5:
            ys = [rng.randint(-60, 60) for _ in xs]
        else:
            coeffs = [rng.randint(-9, 9) for _ in range(deg + 1)]
            ys = [sum(c * x**k for k, c in enumerate(coeffs)) for x in xs]
        want = _ref_interp_int(xs, ys, deg)
        integral += want is not None
        assert _newton_int(ys, x0) == want
    assert 300 < integral < 600


def _planted_rank_matrices(seed, count):
    """Seeded integer matrices with some rows replaced by integer combinations
    of others, zero rows and zero columns included."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
        rows = [[rng.randint(-9, 9) for _ in range(ncols)] for _ in range(nrows)]
        for i in range(nrows):
            roll = rng.random()
            if i and roll < 0.4:
                rows[i] = [
                    sum(rng.randint(-3, 3) * rows[j][k] for j in range(i))
                    for k in range(ncols)
                ]
            elif roll < 0.5:
                rows[i] = [0] * ncols
        if rng.random() < 0.2:
            col = rng.randrange(ncols)
            for row in rows:
                row[col] = 0
        rng.shuffle(rows)
        out.append(rows)
    return out


def test_int_rank_matches_rref():
    deficient = 0
    for rows in _planted_rank_matrices(9001, 400):
        before = [list(row) for row in rows]
        rank = _int_rank(rows)
        assert rows == before
        assert rank == len(rref(rows)[1])
        deficient += rank < min(len(rows), len(rows[0]))
    assert deficient > 100
    assert _int_rank([]) == 0


def test_int_rank_matches_sympy():
    sympy = pytest.importorskip("sympy")
    for rows in _planted_rank_matrices(9002, 150):
        assert _int_rank(rows) == sympy.Matrix(rows).rank()


def test_int_det_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(9003)
    singular = 0
    for rows in _planted_rank_matrices(9004, 300):
        n = len(rows)
        square = [row[:n] + [rng.randint(-9, 9) for _ in range(n - len(row))] for row in rows]
        want = sympy.Matrix(square).det()
        singular += want == 0
        assert _int_det([list(row) for row in square]) == want
    assert singular > 50

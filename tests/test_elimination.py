"""Resultant, discriminant, gcd, factorization, RatFun.inverse and the
integer Bareiss rank.

Each kernel is checked against an outside oracle (sympy, skipped when it is
not installed) on seeded random inputs, and the resultant also against the
fraction-free Bareiss determinant of the MPoly Sylvester matrix written out
below as the reference, with pinned pairs for the steps of its subresultant
PRS: a remainder that drops two or more degrees, equal input degrees, a
first degree below the second with both odd, and Fraction coefficients.
The integer interpolation of the Kronecker search is checked against the
Fraction Vandermonde solve it replaced (`solve_linear` below, a reference
built on rref), and the integer rank against the rank rref reports.  The
heuristic gcd is checked against the PRS it falls back to, and the roots the
factor search finds against planted roots and a Fraction evaluation.
"""

import math
import random
from fractions import Fraction

import pytest

from hornsing import exact
from hornsing.exact import (
    DegreeZero,
    MPoly,
    RatFun,
    _int_rank,
    _mul_trunc,
    _newton_int,
    discriminant,
    divexact,
    factor_univariate,
    poly_gcd,
    resultant,
    rref,
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


def _gcd_cases():
    """120 seeded pairs in 1-3 variables, about half with a planted common factor."""
    rng = random.Random(6001)
    for _ in range(120):
        vars = XYT[: rng.randint(1, 3)]
        f, g = _rand_poly(rng, vars, 2), _rand_poly(rng, vars, 2)
        if rng.random() < 0.5:
            h = _rand_poly(rng, vars, 1, nterms=3)
            f, g = f * h, g * h
        if not (f.is_zero() and g.is_zero()):
            yield vars, f, g


def test_poly_gcd_matches_sympy():
    sympy = pytest.importorskip("sympy")
    nontrivial = 0
    for vars, f, g in _gcd_cases():
        syms = sympy.symbols(" ".join(vars), seq=True)
        ours = poly_gcd(f, g)
        theirs = sympy.gcd(_to_sympy(f, syms), _to_sympy(g, syms))
        assert ours == _from_sympy(theirs, vars, syms).primitive_positive()
        nontrivial += not ours.is_constant()
    assert nontrivial > 30


def _planted_gcd_pair(rng, vars, nterms):
    """(h*u, h*v, h) for seeded h of degree <= 2 and u, v of degree <= 4 per variable.

    The coefficients have numerators up to 10^6 over small denominators, so
    both products have degree up to 6 per variable.
    """
    h = _rand_poly(rng, vars, 2, nterms=4, bound=10**6)
    u = _rand_poly(rng, vars, 4, nterms=nterms, bound=10**6)
    v = _rand_poly(rng, vars, 4, nterms=nterms + 1, bound=10**6)
    return h * u, h * v, h


def test_poly_gcd_heuristic_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(6011)
    cases = [_planted_gcd_pair(rng, XYT[:n], rng.randint(4, 8)) for n in (2, 2, 2, 2, 3, 3, 3, 3)]
    # two trivariate products of 30 and 35 terms, degree 6 in each
    # variable: the primitive PRS runs for more than five minutes on this pair
    cases.append(_planted_gcd_pair(random.Random(2), XYT, 8))
    big = cases[-1]
    assert (len(big[0].terms), len(big[1].terms)) == (30, 35)
    assert all(p.degree(v) == 6 for p in big[:2] for v in XYT)
    for f, g, h in cases:
        assert not h.is_constant()
        syms = sympy.symbols(" ".join(f.vars), seq=True)
        ours = poly_gcd(f, g)
        theirs = sympy.gcd(_to_sympy(f, syms), _to_sympy(g, syms))
        assert ours == _from_sympy(theirs, f.vars, syms).primitive_positive()
        divexact(ours, h)  # raises unless the planted factor divides the gcd


def test_poly_gcd_heuristic_grows_xi_past_large_gcd_coefficients(monkeypatch):
    sympy = pytest.importorskip("sympy")
    x, y, t = (MPoly.variable(XYT, v) for v in XYT)

    def in_each(coeffs):
        out = MPoly.const(XYT, 1)
        for z in (x, y, t):
            out = out * sum((c * z**k for k, c in enumerate(coeffs)), MPoly.zero(XYT))
        return out

    # p = x^6 - x^5 - x^4 + x^2 + x - 1 = (x - 1)^3 (x^3 + 2x^2 + 2x + 1)
    a = in_each([-1, 1, 1, 0, -1, -1, 1])
    h = in_each([-1, 3, -3, 1])
    b = h * (x + y + t + 2)
    # |a| = 1 gives xi = 31 first, but h has the coefficient 27 > 31/2, so
    # the first candidate fails its trial division and xi grows
    assert max(abs(c) for c in a.terms.values()) == 1
    assert max(abs(c) for c in h.terms.values()) == 27
    lifts = []
    lift = exact._lift_slot

    def spy(poly, z, xi):
        if z == 0:
            lifts.append(xi)
        return lift(poly, z, xi)

    monkeypatch.setattr(exact, "_lift_slot", spy)
    got = poly_gcd(a, b)
    assert got == h.primitive_positive()
    assert lifts[0] == 31 and lifts[-1] > 2 * 27
    syms = sympy.symbols("x y t", seq=True)
    theirs = sympy.gcd(_to_sympy(a, syms), _to_sympy(b, syms))
    assert got == _from_sympy(theirs, XYT, syms).primitive_positive()


def test_poly_gcd_symmetric_lift_inverts_evaluation():
    rng = random.Random(6013)
    for _ in range(40):
        xi = rng.choice((31, 32, 1001, 10**12 + 1))
        # symmetric digits lie in (-xi/2, xi/2]; the extremes are included
        lo, hi = -((xi - 1) // 2), xi // 2
        g = {}
        for _ in range(rng.randint(1, 8)):
            e = tuple(rng.randint(0, 6) for _ in XYT)
            g[e] = rng.choice((lo, hi, rng.randint(lo, hi))) or 1
        for z in range(3):
            assert exact._lift_slot(exact._eval_slot(g, z, xi), z, xi) == g


def test_poly_gcd_prs_fallback_matches_heuristic(monkeypatch):
    cases = list(_gcd_cases())
    rng = random.Random(6017)
    cases += [(None,) + _planted_gcd_pair(rng, XY, 3)[:2] for _ in range(4)]
    heuristic = [poly_gcd(f, g) for _, f, g in cases]
    prs_calls = []
    pseudo_rem = exact._pseudo_rem

    def spy(A, B):
        prs_calls.append(1)
        return pseudo_rem(A, B)

    monkeypatch.setattr(exact, "_HEU_TRIES", 0)
    monkeypatch.setattr(exact, "_pseudo_rem", spy)
    assert [poly_gcd(f, g) for _, f, g in cases] == heuristic
    assert len(prs_calls) > 100


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
    inputs = []
    for _ in range(60):
        p = MPoly.const(T, Fraction(rng.choice((1, -2, 3, 5)), rng.choice((1, 2, 7))))
        for _ in range(rng.randint(1, 3)):
            f = _rand_poly(rng, T, rng.choice((1, 2, 2, 4)), nterms=4)
            if f.degree("t") >= 1:
                p = p * f ** rng.randint(1, 2)
        if p.degree("t") < 1:
            p = p * (t**4 + 1)
        inputs.append(p)
    # irreducible, yet reducible modulo every prime; and two quartics
    # without rational roots
    inputs += [t**4 - 10 * t**2 + 1, (t**4 + 3 * t + 7) * (t**4 - 5 * t**2 + 11)]
    complete = 0
    for p in inputs:
        res = factor_univariate(p, "t")
        rebuilt = MPoly.const(T, res.unit)
        for f, m in res.factors:
            rebuilt = rebuilt * f**m
        if res.remainder is not None:
            rebuilt = rebuilt * res.remainder
        assert rebuilt == p
        if res.complete:
            complete += 1
            coeff, theirs = sympy.factor_list(_to_sympy(p, (ts,)))
            theirs = [(_from_sympy(f, T, (ts,)), m) for f, m in theirs]
            assert res.unit == Fraction(int(coeff.p), int(coeff.q))
            assert sorted(res.factors, key=str) == sorted(theirs, key=str)
    assert complete == len(inputs)


def test_split_factors_finds_each_planted_root_once():
    rng = random.Random(6019)
    cases, planted = [], []
    for _ in range(40):
        # leading and trailing coefficients with many divisors, a sign
        # drawn at random, roots of multiplicity up to 3
        coeffs = [rng.choice((-1, 1)) * rng.choice((1, 6, 12, 36, 360))]
        roots = set()
        for _ in range(rng.randint(1, 4)):
            p, q = rng.choice((-1, 1)) * rng.randint(1, 12), rng.randint(1, 6)
            roots.add(Fraction(p, q))
            for _ in range(rng.choice((1, 1, 2, 3))):
                coeffs = _mul_trunc(coeffs, [-p, q], len(coeffs))
        coeffs = _mul_trunc(coeffs, [rng.choice((-5, 7, 12)), rng.randint(-3, 3), 1], len(coeffs) + 1)
        content = math.gcd(*coeffs)
        cases.append([c // content for c in coeffs])
        planted.append(roots)
    for coeffs, want in zip(cases, planted):
        factors, rest = exact._split_factors(coeffs)
        # the inputs are not squarefree: the degree-1 pass divides a repeated
        # root out once, and its other powers stay in the pieces left
        linear = [h for h in factors if len(h) == 2]
        for r in want:
            assert [-r.numerator, r.denominator] in linear
        for h in linear:
            assert exact._eval_int(coeffs, Fraction(-h[0], h[1])) == 0
        rebuilt = rest
        for h in factors:
            rebuilt = _mul_trunc(rebuilt, h, len(rebuilt) + len(h) - 2)
        assert rebuilt == coeffs


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


def _assert_prs_edge_cases(cases, var):
    """Each pair (a, b) against the Bareiss reference and, when sympy is
    installed, the determinant of sympy's Sylvester matrix.

    sympy.resultant itself is no oracle here: sympy 1.14 gives
    resultant(3*t - 2, t**3 + t + 1, t) = -53, the sign of the swapped pair,
    where the Sylvester determinant is 53.
    """
    try:
        import sympy
        from sympy.polys.matrices import DomainMatrix
        from sympy.polys.subresultants_qq_zz import sylvester
    except ImportError:
        sympy = None
    for a, b in cases:
        got = _assert_matches_reference(a, b, var)
        if sympy is not None:
            syms = sympy.symbols(" ".join(a.vars), seq=True)
            F, G = _to_sympy(a, syms), _to_sympy(b, syms)
            matrix = DomainMatrix.from_Matrix(sylvester(F, G, syms[a.vars.index(var)]))
            det = matrix.domain.to_sympy(matrix.det())
            assert got == _from_sympy(det, a.vars, syms).terms


def test_resultant_leading_coefficient_vanishing_at_interpolation_points():
    z, t = MPoly.variable(ZT, "z"), MPoly.variable(ZT, "t")
    # the leading coefficient in t, and in the second pair both leading
    # coefficients, vanish at z = 0, 1, 2, so the degree in t drops under
    # these specializations; the resultant over Q[z] must not depend on them
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
    _assert_prs_edge_cases(
        [
            # 2a - 3t*b = 5t^2 - 3t - 4 leaves the t^4 slot zero: a drop of two
            (3 * t**5 + t**2 - 2, 2 * t**4 - t + 1),
            # 2a - 2t^2*b = -10t + 2 drops three degrees below deg b = 4
            (2 * t**6 + 2 * t**5 + 3 * t**2 - 5 * t + 1, 2 * t**4 + 2 * t**3 + 3),
            # equal degrees, so the first step has delta = 0
            (2 * t**3 - t + 5, t**3 + 4 * t**2 - 1),
            # m < n with both odd, so the swap flips the sign
            (3 * t - 2, t**3 + t + 1),
            (t**3 - 2 * t + 7, 2 * t**5 + t**4 - 3),
            (Fraction(1, 2) * t**3 - Fraction(2, 3) * t + Fraction(1, 5), Fraction(3, 7) * t**2 - t + Fraction(1, 2)),
        ],
        "t",
    )


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
    half, third = Fraction(1, 2), Fraction(1, 3)
    _assert_prs_edge_cases(
        [
            # (y+1)a - x*t*b = (y^2 + y + x^2)t^2 - 2x*t - y - 1 drops two degrees
            (x * t**5 + y * t**2 - 1, (y + 1) * t**4 - x * t + 2),
            # x*a - x*t*b = x drops three degrees
            (x * t**4 + y * t**3 + t + 1, x * t**3 + y * t**2 + 1),
            # equal degrees, so the first step has delta = 0
            (x * t**2 + y * t + 1, y * t**2 + t - x),
            (x * t**3 + y, (x + y) * t**3 + t**2 - 1),
            # m < n with both odd, so the swap flips the sign
            (x * t + y, t**3 + x * y * t - 1),
            (t**3 - x * t + y, y * t**5 + x * t**2 - 1),
            (half * x * t**2 + third * y * t - Fraction(1, 5), Fraction(3, 4) * t**3 + x * t - Fraction(1, 7) * y),
            # Fractions with negative leading coefficients in t
            (-half * x * t**2 + y * t - third, -Fraction(5, 7) * y * t**3 + third * x * t + 1),
        ],
        "t",
    )
    # four variables with t between the others: the lift reads three slots back
    V = ("x", "t", "y", "z")
    x, t, y, z = (MPoly.variable(V, v) for v in V)
    _assert_prs_edge_cases(
        [
            (x * t**2 + y * t - z, z * t**2 + x * y * t + 1),
            (x * y * z * t**3 - (x + y) * t + z**2, (x - z) * t**2 + y * t - x),
            # the top degree in each other variable sits on the leading coefficient
            ((x**2 * y - z) * t**2 + x * z * t + y**2, (y * z**2 + 1) * t + x - 3),
            # m < n with both odd, and a drop of two degrees in the PRS
            (x * t + y * z, t**3 + x * z * t - y),
            (x * t**5 + y * t**2 - z, (y + z) * t**4 - x * t + 2),
            (
                -half * x * y * t**2 + third * z * t - Fraction(1, 5),
                -Fraction(3, 4) * z * t**3 + x * t - Fraction(1, 7) * y,
            ),
            (-Fraction(2, 9) * (x - y) * t**3 + z * t - half, -third * t**2 + Fraction(7, 2) * x * z),
        ],
        "t",
    )


def test_resultant_degree_zero_message():
    x, y = MPoly.variable(XY, "x"), MPoly.variable(XY, "y")
    for a, b in ((x + y, y + 1), (y + 1, x + y), (MPoly.const(XY, 2), x)):
        with pytest.raises(DegreeZero) as err:
            resultant(a, b, "x")
        assert str(err.value) == "resultant needs positive degree in 'x'"
        assert _outcome(resultant, a, b, "x") == _outcome(_sylvester_bareiss, a, b, "x")


def test_unknown_variable_message():
    x, y = MPoly.variable(XY, "x"), MPoly.variable(XY, "y")
    for call in (lambda: resultant(x + y, x * y - 1, "z"), lambda: discriminant(x**2 + y, "z")):
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == "unknown variable 'z'"


# ---- poly_gcd ------------------------------------------------------------------


def test_poly_gcd_zero_coefficient_is_not_a_unit():
    x, y = MPoly.variable(XY, "x"), MPoly.variable(XY, "y")
    assert poly_gcd(x * (y**2 + 5), (x + 1) * (y**2 + 5)) == y**2 + 5
    assert poly_gcd((x + 1) * (y**2 + 5), x * (y**2 + 5)) == y**2 + 5
    assert poly_gcd(x * y, x * (y + 1)) == x
    assert poly_gcd(x**2 * (y - 1), x * (y - 1) ** 2 + (y - 1)) == y - 1


def test_poly_gcd_falls_through_when_every_image_point_is_singular():
    x, y = MPoly.variable(XY, "x"), MPoly.variable(XY, "y")
    # the leading coefficient in x vanishes at the integer points y = 3, 5 and 7
    lead = (y - 3) * (y - 5) * (y - 7)
    h = lead * x + 1
    a, b = h * (x + y), h * (x - 2 * y + 1)
    assert poly_gcd(a, b) == h.primitive_positive()
    c, d = lead * x**2 + 1, x + y
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


def solve_linear(matrix, rhs):
    """One exact solution of matrix * x = rhs, or None if inconsistent.

    Reduces the augmented matrix with rref: a pivot in the last column means
    inconsistent.  Free unknowns are set to zero.
    """
    ncols = len(matrix[0]) if matrix else 0
    rows, pivots = rref([list(row) + [b] for row, b in zip(matrix, rhs)])
    if pivots and pivots[-1] == ncols:
        return None
    x = [Fraction(0)] * ncols
    for row, pc in zip(rows, pivots):
        x[pc] = Fraction(row[ncols], row[pc])
    return x


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
        xs = list(range(deg + 1))
        if rng.random() < 0.5:
            ys = [rng.randint(-60, 60) for _ in xs]
        else:
            coeffs = [rng.randint(-9, 9) for _ in range(deg + 1)]
            ys = [sum(c * x**k for k, c in enumerate(coeffs)) for x in xs]
        want = _ref_interp_int(xs, ys, deg)
        integral += want is not None
        assert _newton_int(ys) == want
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

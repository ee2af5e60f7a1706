import math
import random
import time
from fractions import Fraction

import pytest

from hornsing import exact
from hornsing.exact import (
    DegreeTooLow,
    DegreeZero,
    MPoly,
    RatFun,
    ZeroInput,
    _clear,
    _mul_trunc,
    _uni_coeff_ints,
    discriminant,
    divexact,
    factor_univariate,
    nullspace,
    poly_gcd,
    resultant,
    rref,
    squarefree_decomposition,
    squarefree_primitive,
)

XY = ("x", "y")


def P(vars, text_terms):
    """Tiny term-dict helper: {(2,0): 1, ...} -> MPoly."""
    return MPoly(vars, {e: Fraction(c) for e, c in text_terms.items()})


def x_(vars=XY):
    return MPoly.variable(vars, vars[0])


def y_(vars=XY):
    return MPoly.variable(vars, vars[1])


# ---- basic ring sanity -------------------------------------------------------


def test_canonical_form_drops_zeros():
    p = x_() - x_()
    assert p.is_zero()
    assert p.terms == {}


def test_multiplication_exact():
    x, y = x_(), y_()
    p = (x + y) * (x - y)
    assert p == x**2 - y**2


def test_graded_lex_leading_term():
    x, y = x_(), y_()
    p = x * y + x**2 + y + 3
    assert p.leading_exps() == (2, 0)
    assert (x * y + y**2).leading_exps() == (1, 1)


def test_canonical_string_examples():
    x, y = x_(), y_()
    s2 = 256 * (x - y) ** 2 - 32 * (x + y) + 1
    assert s2.canonical_str() == "256*x^2 - 512*x*y + 256*y^2 - 32*x - 32*y + 1"
    assert MPoly.zero(XY).canonical_str() == "0"
    assert (-2 * x + 2 * y).canonical_str() == "x - y"


def test_substitute_and_shift():
    n, m = MPoly.variable(("n", "m"), "n"), MPoly.variable(("n", "m"), "m")
    p = n**2 + m
    assert p.shift("n", 1) == n**2 + 2 * n + 1 + m
    q = p.substitute({"n": m, "m": n}, ("n", "m"))
    assert q == m**2 + n


def test_divexact_roundtrip():
    x, y = x_(), y_()
    a = (x + y) ** 3 * (x - 2 * y)
    assert divexact(a, (x + y) ** 2) == (x + y) * (x - 2 * y)
    with pytest.raises(ValueError):
        divexact(x**2 + y, x + 1)


# ---- gcd ---------------------------------------------------------------------


def test_gcd_basic():
    x, y = x_(), y_()
    assert poly_gcd(x**2 - y**2, x - y) == x - y
    z = MPoly.zero(XY)
    assert poly_gcd(z, z).is_zero()
    assert poly_gcd(z, 3 * (x + y)) == x + y


def test_gcd_chi_products():
    # gcd of the two susceptibility singularity products in (k, r)
    KR = ("k", "r")
    k = MPoly.variable(KR, "k")
    r = MPoly.variable(KR, "r")
    f_shared1 = k**2 - 1
    f_shared2 = 3 * r**2 * k - r - k - k**2 * r
    chi3 = (
        f_shared1
        * (3 * k * r + r + 4 * k**2)
        * (k**2 * r + 3 * k * r + 4)
        * (k**2 * r + r + k)
        * f_shared2
        * (4 + 3 * k * r + 4 * k + 4 * k**2)
        * (r + k)
        * (k * r + 1)
    )
    chi4 = f_shared1 * (k * r + 1 + k**2) * f_shared2
    g = poly_gcd(chi3, chi4)
    assert g == (f_shared1 * f_shared2).primitive_positive()


# ---- resultant and discriminant ----------------------------------------------


def test_resultant_simple():
    X = ("x",)
    x = MPoly.variable(X, "x")
    r = resultant(x**2 - 2, x - 1, "x")
    assert r == MPoly.const(X, -1)


def test_resultant_degree_zero_error():
    x, y = x_(), y_()
    with pytest.raises(DegreeZero):
        resultant(x + y, y + 1, "x")


def test_resultant_cubic_elimination():
    # eliminating the parameter from two binary cubics gives the degree-3 curve
    V = ("A", "x", "y")
    A = MPoly.variable(V, "A")
    x = MPoly.variable(V, "x")
    y = MPoly.variable(V, "y")
    r = resultant(27 * x * (A + 1) ** 3 - A**3, 27 * y * (A + 1) ** 3 - 1, "A")
    curve = squarefree_primitive(r).with_vars(XY)
    xx, yy = x_(), y_()
    delta = (
        19683 * (xx + yy) ** 3
        - 2187 * (xx**2 + yy**2 - 7 * xx * yy)
        + 81 * (xx + yy)
        - 1
    )
    assert curve == delta.primitive_positive()


def test_resultant_quadratic_elimination():
    V = ("t", "x", "y")
    t = MPoly.variable(V, "t")
    x = MPoly.variable(V, "x")
    y = MPoly.variable(V, "y")
    xx, yy = x_(), y_()
    # x = t^2/(16(t+1)^2), y = 1/(16(t+1)^2) sweep out a conic component.
    r = resultant(16 * x * (t + 1) ** 2 - t**2, 16 * y * (t + 1) ** 2 - 1, "t")
    curve = squarefree_primitive(r).with_vars(XY)
    s2 = 256 * (xx - yy) ** 2 - 32 * (xx + yy) + 1
    assert curve == s2
    # The reciprocal maps x = (t+1)^2/(16t^2), y = (t+1)^2/16 land on the
    # image of that conic under (x, y) -> (1/(16^2 x), 1/(16^2 y)) rescaled.
    r2 = resultant((t + 1) ** 2 - 16 * x * t**2, (t + 1) ** 2 - 16 * y, "t")
    curve2 = squarefree_primitive(r2).with_vars(XY)
    recip = 256 * xx**2 * yy**2 - 32 * xx * yy * (xx + yy) + (xx - yy) ** 2
    assert curve2 == recip


def test_discriminant_quadratic():
    V = ("x", "b", "c")
    x = MPoly.variable(V, "x")
    b = MPoly.variable(V, "b")
    c = MPoly.variable(V, "c")
    assert discriminant(x**2 + b * x + c, "x") == b**2 - 4 * c


def test_discriminant_factored_example():
    KR = ("k", "r")
    k = MPoly.variable(KR, "k")
    r = MPoly.variable(KR, "r")
    d = discriminant(-r * k**2 + (3 * r**2 - 1) * k - r, "k")
    assert d == (3 * r - 1) * (3 * r + 1) * (r - 1) * (r + 1)


def test_discriminant_cubic_and_degree_error():
    X = ("x",)
    x = MPoly.variable(X, "x")
    assert discriminant(x**3 - x, "x") == MPoly.const(X, 4)
    with pytest.raises(DegreeTooLow):
        discriminant(x + 1, "x")


# ---- squarefree primitive part -------------------------------------------------


def test_squarefree_primitive_examples():
    x, y = x_(), y_()
    assert squarefree_primitive(4 * (x - y) ** 2 * x) == x * (x - y)
    assert squarefree_primitive(-3 * (2 * x + 2 * y)) == x + y
    X = ("x",)
    xx = MPoly.variable(X, "x")
    p = (1 - 27 * xx) ** 2 * (1 - 216 * xx)
    sq = squarefree_primitive(p)
    assert sq == ((1 - 27 * xx) * (1 - 216 * xx)).primitive_positive()
    with pytest.raises(ZeroInput):
        squarefree_primitive(MPoly.zero(XY))


def test_squarefree_primitive_idempotent_on_example():
    x, y = x_(), y_()
    p = squarefree_primitive((x + y) ** 3 * (x - y))
    assert squarefree_primitive(p) == p


def test_equal_values_hash_equal():
    # == holds only between values of one type, so equal values hash equal
    # and a set or dict never holds an MPoly and its RatFun or constant apart.
    x = x_()
    assert RatFun.from_poly(x) != x and x != RatFun.from_poly(x)
    assert MPoly.const(XY, 3) != 3 and RatFun.const(XY, 3) != MPoly.const(XY, 3)
    pairs = [
        (MPoly.const(XY, Fraction(3)), MPoly.const(XY, 3)),
        (x * x - 1, (x - 1) * (x + 1)),
        (RatFun(x * x - 1, x - 1), RatFun.from_poly(x + 1)),
        (RatFun(2 * x, 4 * x * x), RatFun(MPoly.const(XY, Fraction(1, 2)), x)),
    ]
    for a, b in pairs:
        assert a == b and hash(a) == hash(b)


# ---- nullspace -----------------------------------------------------------------


def test_nullspace_full_rank_empty():
    m = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)], [Fraction(1), Fraction(1)]]
    assert nullspace(m) == []


def test_nullspace_simple_kernel():
    m = [[Fraction(1), Fraction(2), Fraction(3)]]
    basis = nullspace(m)
    assert len(basis) == 2
    for vec in basis:
        assert sum(c * v for c, v in zip(m[0], vec)) == 0


# ---- factorization --------------------------------------------------------------


def test_factor_univariate_rational_roots():
    X = ("t",)
    t = MPoly.variable(X, "t")
    p = 6 * t**3 - 5 * t**2 - 2 * t + 1
    res = factor_univariate(p, "t")
    assert res.complete
    rebuilt = MPoly.const(X, res.unit)
    for f, m in res.factors:
        rebuilt = rebuilt * f**m
    assert rebuilt == p


def test_factor_univariate_head_style():
    # heads coming out of operator conversion: t-power, linear roots, residual
    X = ("t",)
    t = MPoly.variable(X, "t")
    p = t**4 * (1 - 54 * t) * (1 + 11 * t - t**2) ** 2
    res = factor_univariate(p, "t")
    names = {f.canonical_str(): m for f, m in res.factors}
    assert names["t"] == 4
    assert names["54*t - 1"] == 1
    assert names["t^2 - 11*t - 1"] == 2
    assert res.complete


def test_factor_univariate_splits_off_the_variable_power_first(monkeypatch):
    # t^k is split off before the squarefree split, so that split never
    # gets a zero constant term and runs no gcd per power of t
    X = ("t",)
    t = MPoly.variable(X, "t")
    seen = []

    def spy(p, var):
        assert p.coeff_list(var)[0] != 0
        seen.append(p)
        return squarefree_decomposition(p, var)

    monkeypatch.setattr(exact, "squarefree_decomposition", spy)
    res = factor_univariate(t**15 * (t + 1), "t")
    assert (res.unit, res.factors, res.remainder) == (1, [(t, 15), (t + 1, 1)], None)
    assert seen == [t + 1]
    # so the root 0 needs no factor search, which stops at its candidate
    # cap: lcm(1..40) has 36,864 divisors, too many candidate roots
    L = math.lcm(*range(1, 41))
    rest = L * t**2 + t + L
    for k in (1, 3):
        res = factor_univariate(-3 * t**k * rest, "t")
        assert (res.unit, res.factors, res.remainder) == (-3, [(t, k)], rest)


def test_factor_univariate_irreducible_quadratic():
    X = ("t",)
    t = MPoly.variable(X, "t")
    res = factor_univariate(t**2 + t + 1, "t")
    assert res.complete
    assert res.factors == [(t**2 + t + 1, 1)]


def test_factor_univariate_kronecker_quartic():
    X = ("t",)
    t = MPoly.variable(X, "t")
    p = (t**2 + t + 1) * (t**2 + 2)
    res = factor_univariate(p, "t")
    assert res.complete
    assert sorted(f.canonical_str() for f, _ in res.factors) == [
        "t^2 + 2",
        "t^2 + t + 1",
    ]


def test_factor_univariate_proves_irreducibility():
    # no rational root, and no factor of degree 2 or 3 either
    X = ("t",)
    t = MPoly.variable(X, "t")
    for p in (t**4 - 10 * t**2 + 1, t**4 + 1, t**4 + t**3 + t**2 + t + 1, t**5 - t - 1, t**6 + t + 1):
        res = factor_univariate(p, "t")
        assert (res.unit, res.factors, res.remainder) == (1, [(p, 1)], None)
    a, b = t**4 + 3 * t + 7, t**4 - 5 * t**2 + 11
    res = factor_univariate(a * b, "t")
    assert (res.unit, res.factors, res.remainder) == (1, [(a, 1), (b, 1)], None)


def test_factor_search_stops_at_its_candidate_cap():
    # degrees 8 and 9, no rational root: the degree-g candidates grow with
    # the divisors of g values until one degree has more than _MAX_CANDIDATES
    X = ("t",)
    t = MPoly.variable(X, "t")
    p = (t**8 + 3 * t + 1) * (t**9 - t**2 + 5)
    start = time.perf_counter()
    res = factor_univariate(p, "t")
    assert time.perf_counter() - start < 2
    assert (res.unit, res.factors, res.remainder) == (1, [], p)


def test_factor_search_checks_a_value_before_dividing(monkeypatch):
    # a product of irreducibles of degrees 3, 3, 4 and 5: each candidate h
    # whose h(g) does not divide the quotient's value at g is refused
    # without a division, and the factors are still found
    sympy = pytest.importorskip("sympy")
    (ts,) = sympy.symbols("t", seq=True)
    T = ("t",)
    rng = random.Random(1)
    p = MPoly.const(T, 1)
    for degree in (3, 3, 4, 5):
        while True:
            coeffs = [rng.randint(-5, 5) for _ in range(degree)] + [rng.randint(1, 3)]
            if coeffs[0] and sympy.Poly(coeffs[::-1], ts).is_irreducible:
                break
        p = p * MPoly(T, {(i,): c for i, c in enumerate(coeffs)})
    divisions = []
    divide = exact._poly_divmod_int

    def spy(a, b):
        divisions.append(b)
        return divide(a, b)

    monkeypatch.setattr(exact, "_poly_divmod_int", spy)
    res = factor_univariate(p, "t")
    coeff, theirs = sympy.factor_list(sympy.Poly(p.coeff_list("t")[::-1], ts).as_expr())
    theirs = [(MPoly(T, {(i,): int(c) for i, c in enumerate(sympy.Poly(f, ts).all_coeffs()[::-1])}), m)
              for f, m in theirs]
    assert res.complete and res.unit == int(coeff)
    assert sorted(res.factors, key=str) == sorted(theirs, key=str)
    assert [f.degree("t") for f, _ in res.factors] == [3, 3, 4, 5]
    # 861 divisions; without the value check the search runs 14,436
    assert len(divisions) < 1000


def test_divisors():
    assert exact._divisors(0) is None
    assert exact._divisors(1) == [1]
    assert exact._divisors(-12) == [1, 2, 3, 4, 6, 12]
    # lcm(1..40) has 36,864 divisors, lcm(1..50) 442,368, past _MAX_DIVISORS
    assert len(exact._divisors(math.lcm(*range(1, 41)))) == 36864
    assert exact._divisors(math.lcm(*range(1, 51))) is None
    # two primes above _TRIAL_DIVISION_BOUND: trial division cannot split it
    assert exact._divisors((10**6 + 3) * (10**6 + 33)) is None
    assert exact._divisors(2 * (10**6 + 3)) == [1, 2, 10**6 + 3, 2 * (10**6 + 3)]


# ---- rational functions ----------------------------------------------------------


def test_ratfun_normalization():
    x, y = x_(), y_()
    f = RatFun((x**2 - y**2) * 2, (x - y) * 4)
    assert f.num == Fraction(1, 2) * (x + y)
    assert f.den == MPoly.const(XY, 1)
    g = RatFun(x, -2 * (y - 1))
    assert g.den.leading_coeff() > 0
    h = RatFun(6 * x, MPoly.const(XY, -4))
    assert h.num == Fraction(-3, 2) * x
    assert h.den == MPoly.const(XY, 1)


def test_ratfun_arithmetic_and_eval():
    T = ("t",)
    t = MPoly.variable(T, "t")
    f = RatFun(t, 1 - t)
    g = f + 1
    assert g == RatFun(MPoly.const(T, 1), 1 - t)
    assert f.evaluate({"t": Fraction(1, 2)}) == 1


def test_ratfun_compose():
    T = ("t",)
    U = ("u",)
    t = MPoly.variable(T, "t")
    u = MPoly.variable(U, "u")
    f = RatFun(t**2, 1 - t)
    img = f.substitute_ratfun({"t": RatFun(u + 1, u)})
    expected = RatFun((u + 1) ** 2, -u * (u + 1) + u**2)
    assert img == expected


# ---- randomized property suites (fixed seed, >= 100 instances each) ---------------


def _rand_poly(rng, vars, deg, coeff_bound=8, nterms=6):
    terms = {}
    for _ in range(nterms):
        e = []
        total = rng.randint(0, deg)
        remaining = total
        for _v in vars[:-1]:
            k = rng.randint(0, remaining)
            e.append(k)
            remaining -= k
        e.append(remaining)
        c = rng.randint(-coeff_bound, coeff_bound)
        if c:
            terms[tuple(e)] = terms.get(tuple(e), 0) + c
    return MPoly(vars, {e: Fraction(c) for e, c in terms.items() if c})


def test_property_gcd_divisibility():
    rng = random.Random(20260825)
    done = 0
    while done < 100:
        f = _rand_poly(rng, XY, 3)
        g = _rand_poly(rng, XY, 3)
        h = _rand_poly(rng, XY, 2)
        if f.is_zero() or g.is_zero() or h.is_zero():
            continue
        d = poly_gcd(f * h, g * h)
        # d must be divisible by h (up to content/sign)
        q = None
        try:
            q = divexact(d, h.primitive_positive())
        except ValueError:
            q = None
        assert q is not None
        done += 1


def test_property_resultant_vs_common_factor():
    rng = random.Random(4040)
    done = 0
    while done < 100:
        f = _rand_poly(rng, XY, 3)
        g = _rand_poly(rng, XY, 3)
        if f.degree("x") < 1 or g.degree("x") < 1:
            continue
        r = resultant(f, g, "x")
        common = poly_gcd(f, g)
        if common.degree("x") >= 1:
            assert r.is_zero()
        else:
            # no common factor in x: resultant generically nonzero; verify the
            # converse direction instead, which is an exact theorem
            if r.is_zero():
                assert poly_gcd(f, g).degree("x") >= 1
        done += 1


def test_property_resultant_detects_built_common_factor():
    rng = random.Random(90909)
    done = 0
    while done < 100:
        h = _rand_poly(rng, XY, 2)
        f = _rand_poly(rng, XY, 2)
        g = _rand_poly(rng, XY, 2)
        if h.degree("x") < 1 or f.is_zero() or g.is_zero():
            continue
        a, b = f * h, g * h
        if a.degree("x") < 1 or b.degree("x") < 1:
            continue
        assert resultant(a, b, "x").is_zero()
        done += 1


def test_property_squarefree_primitive_invariance():
    rng = random.Random(777)
    done = 0
    while done < 100:
        f = _rand_poly(rng, XY, 3)
        if f.is_zero():
            continue
        s = squarefree_primitive(f)
        assert squarefree_primitive(s) == s
        scale = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        assert squarefree_primitive(f * scale) == s
        g = _rand_poly(rng, XY, 2)
        if not g.is_zero():
            assert squarefree_primitive(f * g**2) == squarefree_primitive(f * g)
        done += 1


def _evaluate_reference(p, env):
    """Value of p at env, one Fraction product per term."""
    total = Fraction(0)
    for e, c in p.terms.items():
        term = Fraction(c)
        for v, k in zip(p.vars, e):
            term *= Fraction(env[v]) ** k
        total += term
    return total


def test_property_evaluate_matches_term_by_term_reference():
    rng = random.Random(2400)
    XYZ = ("x", "y", "z")
    values = [Fraction(0), Fraction(1), Fraction(-1), Fraction(-5, 3), Fraction(7, 4)]
    polys = [MPoly.zero(XYZ), MPoly.const(XYZ, Fraction(-7, 3)), MPoly.const(XYZ, 5)]
    for _ in range(200):
        terms = {
            tuple(rng.randint(0, 4) for _ in XYZ): Fraction(
                rng.randint(-30, 30), rng.choice((1, 1, 2, 3, 6, 35))
            )
            for _ in range(rng.randint(1, 7))
        }
        polys.append(MPoly(XYZ, terms))
    for p in polys:
        for _ in range(6):
            env = {
                v: rng.choice(values + [Fraction(rng.randint(-9, 9), rng.randint(1, 9))])
                for v in XYZ
            }
            got = p.evaluate(env)
            assert type(got) is Fraction
            assert got == _evaluate_reference(p, env)
    # integer and int-valued points too
    p = polys[-1]
    assert p.evaluate({"x": 2, "y": -3, "z": 0}) == _evaluate_reference(
        p, {"x": 2, "y": -3, "z": 0}
    )
    assert MPoly.zero(XYZ).evaluate({"x": 1, "y": 2, "z": 3}) == 0


def test_property_nullspace_exactness():
    rng = random.Random(515151)
    for _ in range(100):
        nrows = rng.randint(1, 5)
        ncols = rng.randint(1, 5)
        m = [
            [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(ncols)]
            for _ in range(nrows)
        ]
        basis = nullspace(m)
        free = sorted(set(range(ncols)).difference(rref(m)[1]))
        assert len(basis) == len(free)
        for vec, f in zip(basis, free):
            assert all(type(v) is int for v in vec)
            assert math.gcd(*vec) == 1
            # positive at its own free column, zero at the others
            assert vec[f] > 0 and not any(vec[g] for g in free if g != f)
            for row in m:
                assert sum(c * v for c, v in zip(row, vec)) == 0
        # rank-nullity: dim(kernel) = ncols - rank
        rank = ncols - len(basis)
        assert 0 <= rank <= min(nrows, ncols)


def test_property_factor_reconstruction():
    rng = random.Random(31337)
    X = ("t",)
    t = MPoly.variable(X, "t")
    done = 0
    while done < 100:
        nf = rng.randint(1, 3)
        p = MPoly.const(X, rng.choice([1, 2, -3, 5]))
        for _ in range(nf):
            kind = rng.randint(0, 2)
            if kind == 0:
                f = rng.randint(1, 5) * t - rng.randint(-4, 4)
            elif kind == 1:
                f = t**2 + rng.randint(-3, 3) * t + rng.randint(-3, 3)
            else:
                f = t + rng.randint(-5, 5)
            if f.is_zero() or f.is_constant():
                continue
            p = p * f ** rng.randint(1, 2)
        if p.is_constant():
            continue
        res = factor_univariate(p, "t")
        rebuilt = MPoly.const(X, res.unit)
        for f, m in res.factors:
            rebuilt = rebuilt * f**m
        if res.remainder is not None:
            rebuilt = rebuilt * res.remainder
        assert rebuilt == p
        done += 1


def _compose_reference(f, mapping):
    """Term-by-term composition in RatFun arithmetic, a gcd on every + and *."""
    tvars = next(iter(mapping.values())).vars

    def image(p):
        out = RatFun.const(tvars, 0)
        for e, c in p.terms.items():
            term = RatFun.const(tvars, c)
            for v, k in zip(p.vars, e):
                if k:
                    if mapping.get(v) is None:
                        raise ValueError("unmapped variable %r" % v)
                    term = term * mapping[v] ** k
            out = out + term
        return out

    return image(f.num) / image(f.den)


def _outcome(compose, f, mapping):
    try:
        img = compose(f, mapping)
    except (ValueError, ZeroDivisionError) as err:
        return type(err), str(err)
    return img.num.terms, img.den.terms


ST = ("s", "t")


def _rand_nonzero(rng, vars, deg, nterms):
    while True:
        p = _rand_poly(rng, vars, deg, nterms=nterms)
        if not p.is_zero():
            return p


def _rand_compose_case(rng):
    """A random f in x, y and a map to s, t with constant or polynomial denominators."""
    f = RatFun(_rand_poly(rng, XY, rng.randint(0, 3), nterms=4), _rand_nonzero(rng, XY, 2, 3))
    mapping = {}
    for v in XY:
        if rng.random() < 0.5:
            den = MPoly.const(ST, rng.randint(1, 5))
        else:
            den = _rand_nonzero(rng, ST, 1, 2)
        mapping[v] = RatFun(_rand_poly(rng, ST, 2, nterms=2), den)
    return f, mapping


def _compose_edge_cases():
    x, y = x_(), y_()
    s, t = MPoly.variable(ST, "s"), MPoly.variable(ST, "t")
    seven, two = MPoly.const(XY, 7), MPoly.const(ST, 2)
    same = {"x": RatFun(s, t + 1), "y": RatFun(s, t + 1)}
    return [
        # den sent to zero, in the second case together with the num
        (RatFun(x + 2 * y, x - y), same),
        (RatFun(x - 1, y - 2), {"x": RatFun.const(ST, 1), "y": RatFun.const(ST, 2)}),
        # num sent to zero
        (RatFun(x - y, x + y + 3), same),
        # y unmapped in the num, in the den, and absent from f
        (RatFun(x * y + 1, x + 2), {"x": RatFun(s, t + 1)}),
        (RatFun(x + 1, y**2 + x), {"x": RatFun(s, t + 1)}),
        (RatFun(x**3 - 1, x**2 + 5), {"x": RatFun(s * t, t**2 + 1)}),
        # degree 3 in x upstairs, 0 downstairs, and the reverse
        (RatFun(x**3 * y + 2, seven), {"x": RatFun(s, t), "y": RatFun(t, s + 1)}),
        (RatFun(y + 1, x**3 + x * y**2 + 4), {"x": RatFun(s**2, t), "y": RatFun(two, s)}),
    ]


def test_property_substitute_ratfun_matches_reference():
    rng = random.Random(20261018)
    cases = [_rand_compose_case(rng) for _ in range(100)] + _compose_edge_cases()
    uneven = 0
    for f, mapping in cases:
        got = _outcome(RatFun.substitute_ratfun, f, mapping)
        assert got == _outcome(_compose_reference, f, mapping)
        uneven += any(f.num.degree(v) != f.den.degree(v) for v in XY)
    assert uneven > 60
    # images with rational coefficients upstairs over a polynomial drawn with
    # rational coefficients too, which substitute_ratfun clears before composing
    cleared = sum(
        any(type(c) is Fraction for c in image.num.terms.values()) and not image.den.is_constant()
        for _, mapping in cases
        for image in mapping.values()
    )
    assert cleared > 20
    outcomes = [_outcome(RatFun.substitute_ratfun, f, m) for f, m in _compose_edge_cases()]
    assert outcomes[0] == (ZeroDivisionError, "division by zero rational function")
    assert outcomes[1] == (ZeroDivisionError, "division by zero rational function")
    assert outcomes[2][0] == {}
    assert outcomes[3] == outcomes[4] == (ValueError, "unmapped variable 'y'")


def test_property_substitute_ratfun_matches_sympy():
    sympy = pytest.importorskip("sympy")
    s, t = sympy.symbols("s t")

    def to_sympy(p, bases):
        out = sympy.Integer(0)
        for e, c in p.terms.items():
            term = sympy.Rational(c.numerator, c.denominator)
            for base, k in zip(bases, e):
                term *= base**k
            out += term
        return out

    rng = random.Random(1018)
    cases = [_rand_compose_case(rng) for _ in range(60)] + _compose_edge_cases()[:3]
    for f, mapping in cases:
        bases = [to_sympy(mapping[v].num, (s, t)) / to_sympy(mapping[v].den, (s, t)) for v in XY]
        num = sympy.cancel(to_sympy(f.num, bases))
        den = sympy.cancel(to_sympy(f.den, bases))
        if den == 0:
            with pytest.raises(ZeroDivisionError):
                f.substitute_ratfun(mapping)
            continue
        img = f.substitute_ratfun(mapping)
        ours = to_sympy(img.num, (s, t)) / to_sympy(img.den, (s, t))
        assert sympy.cancel(ours - num / den) == 0


def test_squarefree_decomposition_multiplicities():
    x, y = x_(), y_()
    p = (x - y) * (x + y) ** 2 * (x - 2 * y) ** 3
    parts = dict((m, f) for f, m in squarefree_decomposition(p, "x"))
    assert parts[1] == x - y
    assert parts[2] == x + y
    assert parts[3] == x - 2 * y


def test_strip_monomials():
    from hornsing.exact import strip_monomials

    x, y = x_(), y_()
    exps, rest = strip_monomials(x**2 * y * (x + y) * (x - 3))
    assert exps == (2, 1)
    assert rest == (x + y) * (x - 3)
    exps, rest = strip_monomials(x + y + 1)
    assert exps == (0, 0)
    assert rest == x + y + 1


# ---- arithmetic kernels against sympy, and the public constructor -------------

XYZ = ("x", "y", "z")


def _assert_invariant(p, vars):
    """Keys are int tuples of length len(vars); values are nonzero ints, or
    Fractions with denominator > 1 (never a float or an integral Fraction)."""
    assert p.vars == vars
    for e, c in p.terms.items():
        assert type(e) is tuple and len(e) == len(vars)
        assert all(type(k) is int and k >= 0 for k in e)
        if type(c) is int:
            assert c != 0
        else:
            assert type(c) is Fraction and c.denominator > 1


def _small_poly(rng, vars, nterms=5):
    terms = {}
    for _ in range(rng.randint(0, nterms)):
        e = tuple(rng.randint(0, 3) for _ in vars)
        terms[e] = Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 5)))
    return MPoly(vars, terms)


def _sympy_of(p, syms):
    import sympy

    out = sympy.Integer(0)
    for e, c in p.terms.items():
        term = sympy.Rational(c.numerator, c.denominator)
        for s, k in zip(syms, e):
            term *= s**k
        out += term
    return out


def test_property_arithmetic_kernels_match_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(20261018)
    for _ in range(120):
        vars = XYZ[: rng.randint(1, 3)]
        syms = sympy.symbols(vars)
        a, b = _small_poly(rng, vars), _small_poly(rng, vars)
        sa, sb = _sympy_of(a, syms), _sympy_of(b, syms)
        k = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        sk = sympy.Rational(k.numerator, k.denominator)
        checks = [
            (a + b, sa + sb), (a - b, sa - sb), (a * b, sa * sb), (-a, -sa),
            (a * k, sa * sk), (k * a, sa * sk), (a + k, sa + sk), (k - a, sk - sa),
            (a * a, sa**2), (a - a, 0),
        ]
        checks += [(a.derivative(v), sympy.diff(sa, s)) for v, s in zip(vars, syms)]
        for ours, want in checks:
            _assert_invariant(ours, vars)
            assert sympy.expand(_sympy_of(ours, syms) - want) == 0
        for v, s in zip(vars, syms):
            coeffs = a.as_univar(v)
            want = sympy.Poly(sa, s).all_coeffs()[::-1]
            assert len(coeffs) == len(want)
            for c, w in zip(coeffs, want):
                _assert_invariant(c, vars)
                assert c.degree(v) <= 0
                assert sympy.expand(_sympy_of(c, syms) - w) == 0
            back = MPoly.from_univar(v, coeffs)
            _assert_invariant(back, vars)
            assert back == a


def test_property_divexact_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(1018)
    inexact = 0
    for _ in range(120):
        vars = XYZ[: rng.randint(1, 3)]
        syms = sympy.symbols(vars)
        a, b = _small_poly(rng, vars), _small_poly(rng, vars, 3)
        if b.is_zero():
            continue
        for num in (a * b, a * b + _small_poly(rng, vars, 2)):
            want = sympy.cancel(_sympy_of(num, syms) / _sympy_of(b, syms))
            if sympy.denom(want).is_number:
                q = divexact(num, b)
                _assert_invariant(q, vars)
                assert sympy.expand(_sympy_of(q, syms) - want) == 0
            else:
                inexact += 1
                with pytest.raises(ValueError, match="inexact polynomial division"):
                    divexact(num, b)
    assert inexact > 20


def test_public_constructor_validates_and_coerces():
    with pytest.raises(ValueError, match="bad exponent tuple"):
        MPoly(XY, {(1, -1): 1})
    with pytest.raises(ValueError, match="bad exponent tuple"):
        MPoly(XY, {(1,): 1})
    with pytest.raises(ValueError, match="bad exponent tuple"):
        MPoly(XY, {(1, 0, 0): 1})
    p = MPoly(["x", "y"], {(1, 0): 2, ("1", "0"): Fraction(1, 2), (0, 2): 0, ("0", 1): Fraction(3, 4)})
    assert p.vars == XY
    assert p.terms == {(1, 0): Fraction(5, 2), (0, 1): Fraction(3, 4)}
    _assert_invariant(p, XY)
    assert MPoly(XY, {(2, 1): 3, ("2", "1"): -3}).is_zero()


def _coprime_pair_with(rng, h):
    """A RatFun whose numerator or denominator was built with the factor h."""
    n, d = _small_poly(rng, XY, 3), _small_poly(rng, XY, 3)
    if d.is_zero():
        d = MPoly.const(XY, rng.randint(1, 4))
    return RatFun(n * h, d) if rng.random() < 0.5 else RatFun(n, d * h)


def test_property_ratfun_products_match_full_gcd():
    rng = random.Random(611)
    for _ in range(80):
        h = _small_poly(rng, XY, 2) + 1
        f, g = _coprime_pair_with(rng, h), _coprime_pair_with(rng, h)
        prod = f * g
        want = RatFun(f.num * g.num, f.den * g.den)
        assert (prod.num.terms, prod.den.terms) == (want.num.terms, want.den.terms)
        _assert_invariant(prod.num, XY)
        _assert_invariant(prod.den, XY)
        if g.is_zero():
            with pytest.raises(ZeroDivisionError):
                f / g
            continue
        quo = f / g
        want = RatFun(f.num * g.den, f.den * g.num)
        assert (quo.num.terms, quo.den.terms) == (want.num.terms, want.den.terms)


def test_integral_coefficients_are_stored_as_int():
    x, y = x_(), y_()
    half = Fraction(1, 2)
    cases = [
        ((x * half) * (2 * y), {(1, 1): 1}),
        (x * half + x * half, {(1, 0): 1}),
        ((x**2 * half).derivative("x"), {(1, 0): 1}),
        (divexact(2 * x + 4 * y, MPoly.const(XY, 2)), {(1, 0): 1, (0, 1): 2}),
        (divexact(6 * x - 4, MPoly.const(XY, Fraction(2, 3))), {(1, 0): 9, (0, 0): -6}),
        (divexact((3 * y + 2) * (2 * x + 1), 3 * y + 2), {(1, 0): 2, (0, 0): 1}),
        (divexact(x + 1, 2 * x + 2), {(0, 0): half}),
        ((x * Fraction(2, 3) + Fraction(4, 3)).primitive_positive(), {(1, 0): 1, (0, 0): 2}),
        ((-x * Fraction(5, 2) + 5).primitive_positive(), {(1, 0): 1, (0, 0): -2}),
    ]
    for p, want in cases:
        _assert_invariant(p, XY)
        assert p.terms == want
        assert {e: type(c) for e, c in p.terms.items()} == {e: type(c) for e, c in want.items()}
    # resultant of an input with a denominator: la^n scales it back exactly
    a, b = x * half + y, x**2 - y
    r = resultant(a, b, "x")
    _assert_invariant(r, XY)
    assert r * 4 == resultant(2 * a, b, "x")
    r = resultant(x * Fraction(1, 3) + y, x * Fraction(1, 5) + 1, "x")
    _assert_invariant(r, XY)
    assert r.terms == {(0, 1): Fraction(-1, 5), (0, 0): Fraction(1, 3)}
    # the RatFun constructor rescales num and den by the den content
    f = RatFun(2 * x + 4, 2 * y)
    assert (f.num.terms, f.den.terms) == ({(1, 0): 1, (0, 0): 2}, {(0, 1): 1})
    f = RatFun(x * Fraction(3, 2) + 3, MPoly.const(XY, 6))
    assert (f.num.terms, f.den.terms) == ({(1, 0): Fraction(1, 4), (0, 0): half}, {(0, 0): 1})
    for p in (f.num, f.den, RatFun(x * y + 3, -3 * x - 6).den):
        _assert_invariant(p, XY)
    # an int-built and a Fraction-built polynomial are equal and hash alike
    ints = MPoly(XY, {(1, 0): 3, (0, 0): -2})
    fracs = MPoly(XY, {(1, 0): Fraction(3), (0, 0): Fraction(-2)})
    wrapped = MPoly._trusted(XY, {(1, 0): Fraction(3), (0, 0): Fraction(-2)})
    assert ints.terms == fracs.terms and type(fracs.terms[(1, 0)]) is int
    assert ints == fracs == wrapped and hash(ints) == hash(fracs) == hash(wrapped)
    assert ints == 3 * x - 2 and MPoly.const(XY, Fraction(4)) == MPoly.const(XY, 4)
    # the accessors still return Fractions
    p = 3 * x**2 + half * y - 2
    assert type(p.leading_coeff()) is Fraction and p.leading_coeff() == 3
    assert type(MPoly.const(XY, 7).constant_value()) is Fraction
    assert type(MPoly.zero(XY).constant_value()) is Fraction
    assert all(type(c) is Fraction for c in (x**2 - 2).coeff_list("x"))


def test_non_rational_coefficients_raise_type_error():
    x = x_()
    for bad in (0.1, 0.5, 0.0, "1/3", 1j, None):
        with pytest.raises(TypeError):
            MPoly(XY, {(1, 0): bad})
        with pytest.raises(TypeError):
            MPoly.const(XY, bad)
        with pytest.raises(TypeError):
            RatFun.const(XY, bad)
        for op in (
            lambda: x * bad, lambda: bad * x, lambda: x + bad, lambda: bad + x,
            lambda: x - bad, lambda: bad - x,
        ):
            with pytest.raises(TypeError):
                op()
    assert MPoly.const(XY, True).terms == {(0, 0): 1}
    assert type(MPoly.const(XY, True).terms[(0, 0)]) is int
    # a RatFun operand is no longer read as a polynomial: RatFun's reflected
    # operator takes over
    r = RatFun(x, y_() + 1)
    assert x + r == RatFun(x * y_() + 2 * x, y_() + 1)
    assert x * r == RatFun(x**2, y_() + 1)


# ---- the integer-coefficient toolkit -------------------------------------------


def test_coeff_list_reads_one_variable():
    assert MPoly.zero(XY).coeff_list("x") == [0]
    p = P(XY, {(0, 0): 3, (2, 0): Fraction(-1, 2)})
    assert p.coeff_list("x") == [3, 0, Fraction(-1, 2)]
    assert P(XY, {(0, 3): 2}).coeff_list("y") == [0, 0, 0, 2]
    assert MPoly.const(XY, 7).coeff_list("y") == [7]
    with pytest.raises(ValueError):
        p.coeff_list("y")
    with pytest.raises(ValueError):
        P(XY, {(1, 1): 1}).coeff_list("x")


def _frac_gcd(a, b):
    """gcd on rationals by the former pairwise fold: gcd of numerators over lcm of denominators."""
    if a == 0 and b == 0:
        return Fraction(0)
    num = math.gcd(a.numerator, b.numerator)
    den = a.denominator * b.denominator // math.gcd(a.denominator, b.denominator)
    return Fraction(num, den)


def _fold_content(values):
    c = Fraction(0)
    for v in values:
        c = _frac_gcd(c, v)
    return c


def _seeded_rationals(rng, n):
    """Rationals with zeros, negatives, shared factors and denominators above 2^200."""
    bigs = [rng.getrandbits(210) | (1 << 205) for _ in range(3)]
    out = []
    for _ in range(n):
        if rng.random() < 0.2:
            out.append(Fraction(0))
            continue
        den = rng.choice((1, 2, 6, 35)) * math.prod(rng.sample(bigs, rng.randint(0, 2)))
        num = rng.choice((-1, 1)) * rng.randint(1, 10**6) * rng.choice((1, 12, bigs[0]))
        out.append(Fraction(num, den))
    return out


def test_content_and_uni_coeff_ints_match_frac_gcd_fold():
    rng = random.Random(1313)
    T = ("t", "u")
    t = MPoly.variable(T, "t")
    big = 0
    for _ in range(300):
        values = _seeded_rationals(rng, rng.randint(0, 8))
        l, ints = _clear(values)
        assert [Fraction(c, l) for c in ints] == values
        assert Fraction(math.gcd(*ints), l) == _fold_content(values)
        p = MPoly(T, {(k, 0): c for k, c in enumerate(values)})
        want = _fold_content(p.terms.values())
        big += any(c.denominator > 2**200 for c in p.terms.values())
        if p.is_zero():
            continue
        prim = p * (1 / want)
        want_ints = [int(c.constant_value()) for c in prim.as_univar("t")]
        assert _uni_coeff_ints(p, "t") == (want, want_ints)
        assert _uni_coeff_ints(-p * t, "t") == (want, [0] + [-c for c in want_ints])
    assert big > 100


def _poly_mul(a, b):
    """Full product of coefficient lists, the former list product of odeguess."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def test_mul_trunc_at_full_length_matches_full_product():
    rng = random.Random(1314)
    for _ in range(300):
        a, b = ([rng.choice((0, 0, 1, -3, 10**30, rng.randint(-9, 9)))
                 for _ in range(rng.randint(1, 7))] for _ in range(2))
        if rng.random() < 0.3:
            a = [Fraction(c, rng.randint(1, 9)) for c in a]
        got = _mul_trunc(a, b, len(a) + len(b) - 2)
        assert got == _poly_mul(a, b)
        assert len(got) == len(a) + len(b) - 1
        order = rng.randint(0, len(a) + len(b))
        assert _mul_trunc(a, b, order) == (_poly_mul(a, b) + [0] * order)[: order + 1]

import random
from fractions import Fraction

import pytest

from hornsing.exprio import EvaluationError, parse_expr, parse_spec_text, expr_to_ratfun
from hornsing.series import (
    BiSeries,
    HyperSpec,
    IncompatibleSpec,
    InsufficientOrder,
    NonzeroAtOrigin,
    OrderMismatch,
    RatioPole,
    UniSeries,
    check_compatibility,
    compose_rational,
    diagonal,
    expand_from_formula,
    expand_from_ratios,
    expand_spec,
    hadamard,
    hyper_from_spec,
    ratfun_series,
    restrict,
    uniseries_from_entries,
)

NM = ("n", "m")
T = ("t",)


def rf_nm(text):
    return expr_to_ratfun(parse_expr(text, NM), NM)


def rf_t(text):
    return expr_to_ratfun(parse_expr(text, T), T)


def formula(text):
    return parse_expr(text, NM)


H2 = parse_spec_text(
    """[spec]
name = h2
kind = ratio
vars = n m
alpha1 = (3*n+3*m+1)*(3*n+3*m+2)*(3*n+3*m+3)/(n+1)^3
alpha2 = (3*n+3*m+1)*(3*n+3*m+2)*(3*n+3*m+3)/(m+1)^3
"""
)

BAT16 = parse_spec_text(
    """[spec]
name = bat16
kind = ratio
vars = n m
alpha1 = 2*(2*n+2*m+1)*(2*n+2*m+2)*(2*n+1)/(n+1)^3
alpha2 = 2*(2*n+2*m+1)*(2*n+2*m+2)*(2*m+1)/(m+1)^3
"""
)


def test_check_compatibility():
    assert check_compatibility(hyper_from_spec(H2))
    assert check_compatibility(HyperSpec(rf_nm("n+1"), rf_nm("m+2")))
    assert not check_compatibility(HyperSpec(rf_nm("(n+m+1)/(n+1)"), rf_nm("1")))


def test_hyper_from_spec_long_ratio():
    text = "[spec]\nname = long\nkind = ratio\nvars = n m\n"
    text += "alpha1 = " + "+".join(["n"] * 3000) + "+1\nalpha2 = m+1\n"
    spec = hyper_from_spec(parse_spec_text(text))
    assert spec.alpha1 == rf_nm("3000*n+1")
    assert spec.alpha2 == rf_nm("m+1")


def test_expand_h2():
    b = expand_from_ratios(hyper_from_spec(H2), 2)
    assert b.coeff(0, 0) == 1
    assert b.coeff(1, 0) == 6
    assert b.coeff(0, 1) == 6
    assert b.coeff(2, 0) == 90
    assert b.coeff(0, 2) == 90
    assert b.coeff(1, 1) == 720


def test_expand_constant_spec():
    b = expand_from_ratios(HyperSpec(rf_nm("1"), rf_nm("1")), 5)
    for n in range(6):
        for m in range(6 - n):
            assert b.coeff(n, m) == 1


def test_expand_bat16():
    b = expand_from_ratios(hyper_from_spec(BAT16), 4)
    assert b.coeff(1, 1) == 96
    assert b.coeff(2, 1) == 2160
    assert b.coeff(2, 2) == 90720
    for n in range(5):
        for m in range(5 - n):
            assert b.coeff(n, m) == b.coeff(m, n)


def test_expand_incompatible():
    with pytest.raises(IncompatibleSpec):
        expand_from_ratios(HyperSpec(rf_nm("(n+m+1)/(n+1)"), rf_nm("1")), 3)


def test_expand_ratio_pole():
    spec = HyperSpec(rf_nm("1/(n-1)"), rf_nm("1"))
    assert check_compatibility(spec)
    with pytest.raises(RatioPole):
        expand_from_ratios(spec, 3)


DEFBAT5 = "fact(n+m)^2*fact(2*n+2*m)/(fact(n)^4*fact(m)^4)"
ASYM = "fact(2*n+2*m)/(fact(n)*fact(m))^2*sum(k,0,m,binom(m,k)^2*binom(2*k,k))"
POCH = (
    "poch(1/2,n)^3*poch(1/2,m)^3*poch(1/2,n+m)"
    "*sum(k,0,3*(n+m),binom(6*(n+m)+1,k))"
    "/(poch(1,n+m)^3*fact(n)*fact(m))"
)
KDF4 = (
    "poch(1/2,n)^4*poch(1/2,m)^4*poch(1/2,n+m)"
    "*sum(k,0,3*(n+m),binom(6*(n+m)+1,k))"
    "/(poch(1,n+m)^4*fact(n)*fact(m))"
)


def test_expand_from_formula():
    b = expand_from_formula(formula(DEFBAT5), 2)
    assert b.coeff(1, 1) == 96
    b = expand_from_formula(formula(ASYM), 2)
    assert b.coeff(1, 1) == 72
    b = expand_from_formula(formula(POCH), 1)
    assert b.coeff(0, 1) == 4


def test_expand_formula_error():
    with pytest.raises(EvaluationError):
        expand_from_formula(formula("fact(n-2)"), 2)


def test_expand_spec_dispatch():
    spec = parse_spec_text(
        "[spec]\nname = ones\nkind = formula\nvars = n m\ncoeff = 1\n"
    )
    assert expand_spec(spec, 3) == BiSeries(
        3, {(n, m): 1 for n in range(4) for m in range(4 - n)}
    )
    assert expand_spec(H2, 1).coeff(1, 0) == 6


def test_restrict_diagonal_h2():
    b = expand_from_ratios(hyper_from_spec(H2), 4)
    s = restrict(b, rf_t("t"), rf_t("t"), 4)
    assert s.coeffs == [1, 12, 900, 94080, 11988900]


def test_restrict_weighted_line():
    b = expand_from_ratios(hyper_from_spec(H2), 1)
    s = restrict(b, rf_t("t"), rf_t("2*t"), 1)
    assert s.coeff(1) == 18


def test_restrict_kdf4_integer_series():
    b = expand_from_formula(formula(KDF4), 10)
    s = restrict(b, rf_t("8*t"), rf_t("-8*t/(1-8*t)"), 10)
    assert s.coeffs == [
        1,
        0,
        3712,
        29696,
        200548864,
        3206881280,
        19834947190784,
        475525692391424,
        2563440070583656448,
        81888089229259702272,
        385245530810291762757632,
    ]
    assert all(c.denominator == 1 for c in s.coeffs)


def test_restrict_rejections():
    b = expand_from_ratios(hyper_from_spec(H2), 2)
    with pytest.raises(NonzeroAtOrigin):
        restrict(b, rf_t("1+t"), rf_t("t"), 2)
    with pytest.raises(NonzeroAtOrigin):
        restrict(b, rf_t("(1+t)/t"), rf_t("t"), 2)
    with pytest.raises(InsufficientOrder):
        restrict(b, rf_t("t"), rf_t("t"), 3)
    # Valuation 2 maps stretch a short double series twice as far.
    s = restrict(b, rf_t("t^2"), rf_t("t^2"), 4)
    assert s.coeffs == [1, 0, 12, 0, 900]


def test_restrict_zero_map():
    b = expand_from_ratios(hyper_from_spec(H2), 3)
    s = restrict(b, rf_t("t"), rf_t("0"), 3)
    assert s.coeffs == [1, 6, 90, 1680]


def test_ratfun_series():
    assert ratfun_series(rf_t("1/(1-4*t)"), 3) == [1, 4, 16, 64]
    assert ratfun_series(rf_t("(2+t)/(1+t)"), 2) == [2, -1, 1]
    with pytest.raises(NonzeroAtOrigin):
        ratfun_series(rf_t("1/t"), 2)


def hyp2f1(a, b, c, order):
    coeffs = [Fraction(1)]
    for k in range(order):
        coeffs.append(coeffs[-1] * (a + k) * (b + k) / ((c + k) * (k + 1)))
    return UniSeries(order, coeffs)


def test_hadamard_basics():
    a = UniSeries(4, [1, 5, -2, Fraction(7, 3), 0])
    assert hadamard(a, UniSeries.geometric(4)) == a
    ones = UniSeries.geometric(5)
    alt = UniSeries(5, [0, 1, 0, 1, 0, 1])
    assert hadamard(ones, alt) == alt
    with pytest.raises(OrderMismatch):
        hadamard(a, ones)


def test_hadamard_product_identity():
    order = 6
    f0 = hyp2f1(Fraction(1, 3), Fraction(2, 3), Fraction(1), order)
    f1 = compose_rational(f0, rf_t("-27*t"), order)
    inner = compose_rational(f0, rf_t("-27*t/(1-4*t)^3"), order)
    f2 = inner * UniSeries(order, ratfun_series(rf_t("1/(1-4*t)"), order))
    had = hadamard(f1, f2)
    b = expand_from_ratios(hyper_from_spec(H2), order)
    assert had == restrict(b, rf_t("t"), rf_t("t"), order)
    assert had.coeffs[:5] == [1, 12, 900, 94080, 11988900]


def test_compose_rational():
    order = 4
    ident = UniSeries(order, [0, 1, 0, 0, 0])
    g = rf_t("-27*t/(1-4*t)^3")
    assert compose_rational(ident, g, order).coeffs == [
        0,
        -27,
        -324,
        -2592,
        -17280,
    ]
    a = UniSeries(order, [3, 1, 4, 1, 5])
    assert compose_rational(a, rf_t("t"), order) == a
    geo = UniSeries.geometric(4)
    assert compose_rational(geo, rf_t("t^2"), 4).coeffs == [1, 0, 1, 0, 1]
    with pytest.raises(NonzeroAtOrigin):
        compose_rational(a, rf_t("1-t"), order)
    with pytest.raises(InsufficientOrder):
        compose_rational(UniSeries(2, [1, 1, 1]), rf_t("t"), 5)


def test_uniseries_arithmetic():
    a = UniSeries(3, [1, 2, 3, 4])
    b = UniSeries(3, [0, 1, 0, 0])
    assert (a * b).coeffs == [0, 1, 2, 3]
    assert (a + b).coeffs == [1, 3, 3, 4]
    assert (a - b).coeffs == [1, 1, 3, 4]
    assert (2 * a).coeffs == [2, 4, 6, 8]
    assert a.theta().coeffs == [0, 2, 6, 12]
    assert a.derivative().coeffs == [2, 6, 12]
    assert a.truncate(1).coeffs == [1, 2]
    assert a.valuation() == 0
    assert b.valuation() == 1
    assert UniSeries.zero(2).valuation() is None


def test_restrict_diagonal_matches_sums_random():
    rng = random.Random(4242)
    t_map = rf_t("t")
    for _ in range(100):
        order = rng.randrange(0, 7)
        coeffs = {}
        for n in range(order + 1):
            for m in range(order + 1 - n):
                if rng.random() < 0.7:
                    coeffs[(n, m)] = Fraction(
                        rng.randrange(-30, 31), rng.randrange(1, 4)
                    )
        b = BiSeries(order, coeffs)
        got = restrict(b, t_map, t_map, order)
        brute = [Fraction(0)] * (order + 1)
        for k in range(order + 1):
            for n in range(k + 1):
                brute[k] += b.coeff(n, k - n)
        assert got.coeffs == brute
        assert diagonal(b) == got


def test_hadamard_algebra_random():
    rng = random.Random(99)
    for _ in range(100):
        order = rng.randrange(0, 8)

        def rand():
            return UniSeries(
                order,
                [
                    Fraction(rng.randrange(-9, 10), rng.randrange(1, 5))
                    for _ in range(order + 1)
                ],
            )

        a, b, c = rand(), rand(), rand()
        assert hadamard(a, b) == hadamard(b, a)
        assert hadamard(hadamard(a, b), c) == hadamard(a, hadamard(b, c))
        assert hadamard(a, UniSeries.geometric(order)) == a


def test_uniseries_from_entries():
    u = uniseries_from_entries({(0,): Fraction(1), (2,): Fraction(5)})
    assert u.order == 2
    assert u.coeffs == [1, 0, 5]

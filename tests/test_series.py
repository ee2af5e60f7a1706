import math
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
    RatioPole,
    UniSeries,
    check_compatibility,
    expand_from_formula,
    expand_from_ratios,
    expand_spec,
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


def test_hadamard_product_identity():
    order = 6
    f0 = hyp2f1(Fraction(1, 3), Fraction(2, 3), Fraction(1), order)
    f1 = [c * (-27) ** k for k, c in enumerate(f0.coeffs)]
    # f0(g(t)) by Horner's rule in truncated series arithmetic
    g = UniSeries(order, ratfun_series(rf_t("-27*t/(1-4*t)^3"), order))
    inner = UniSeries(order, [0] * (order + 1))
    for c in reversed(f0.coeffs):
        inner = inner * g + UniSeries(order, [c] + [0] * order)
    f2 = inner * UniSeries(order, ratfun_series(rf_t("1/(1-4*t)"), order))
    had = UniSeries(order, [a * b for a, b in zip(f1, f2.coeffs)])
    b = expand_from_ratios(hyper_from_spec(H2), order)
    assert had == restrict(b, rf_t("t"), rf_t("t"), order)
    assert had.coeffs[:5] == [1, 12, 900, 94080, 11988900]


def test_uniseries_arithmetic():
    a = UniSeries(3, [1, 2, 3, 4])
    b = UniSeries(3, [0, 1, 0, 0])
    assert (a * b).coeffs == [0, 1, 2, 3]
    assert (a + b).coeffs == [1, 3, 3, 4]
    assert (a - b).coeffs == [1, 1, 3, 4]
    assert (2 * a).coeffs == [2, 4, 6, 8]
    assert a.theta().coeffs == [0, 2, 6, 12]
    assert a.derivative().coeffs == [2, 6, 12]


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


def test_uniseries_from_entries():
    u = uniseries_from_entries({(0,): Fraction(1), (2,): Fraction(5)})
    assert u.order == 2
    assert u.coeffs == [1, 0, 5]


# ---------------------------------------------------------------------------
# Fraction references: the term-by-term restriction and ratio walk that the
# integer kernels of restrict and expand_from_ratios replaced.


def _ref_mul_trunc(a, b, order):
    out = [Fraction(0)] * (order + 1)
    for i, ai in enumerate(a):
        if i > order:
            break
        if not ai:
            continue
        top = order - i
        for j, bj in enumerate(b):
            if j > top:
                break
            if bj:
                out[i + j] += ai * bj
    return out


def _ref_power_table(coeffs, order):
    one = [Fraction(0)] * (order + 1)
    one[0] = Fraction(1)
    table = [one]
    val = next((k for k, c in enumerate(coeffs) if c), None)
    if val is None or val > order:
        return table
    power = list(coeffs)
    k = 1
    while k * val <= order:
        table.append(power)
        power = _ref_mul_trunc(power, coeffs, order)
        k += 1
    return table


def _ref_restrict(b, xp, yp, order):
    maps = []
    for r in (xp, yp):
        coeffs = ratfun_series(r, order)
        if coeffs[0] != 0:
            raise NonzeroAtOrigin("substitution map does not vanish at t = 0")
        maps.append(coeffs)
    vals = []
    for coeffs in maps:
        val = next((k for k, c in enumerate(coeffs) if c), None)
        if val is not None:
            vals.append(val)
    if vals:
        needed = -(-order // min(vals))
        if b.order < needed:
            raise InsufficientOrder(
                "restriction to t-order %d needs the double series through"
                " total degree %d, have %d" % (order, needed, b.order)
            )
    xpow = _ref_power_table(maps[0], order)
    ypow = _ref_power_table(maps[1], order)
    total = [Fraction(0)] * (order + 1)
    for n in range(len(xpow)):
        row = [Fraction(0)] * (order + 1)
        nonzero = False
        for m in range(len(ypow)):
            if n + m > b.order:
                break
            c = b.coeff(n, m)
            if not c:
                continue
            ym = ypow[m]
            for k in range(order + 1):
                if ym[k]:
                    row[k] += c * ym[k]
            nonzero = True
        if nonzero:
            xn = xpow[n]
            for k, value in enumerate(_ref_mul_trunc(xn, row, order)):
                total[k] += value
    return UniSeries(order, total)


def _ref_ratio_at(r, n, m):
    try:
        return r.evaluate({"n": Fraction(n), "m": Fraction(m)})
    except ZeroDivisionError:
        raise RatioPole(
            "ratio denominator vanishes at (n, m) = (%d, %d)" % (n, m)
        ) from None


def _ref_expand_from_ratios(s, order):
    if not check_compatibility(s):
        raise IncompatibleSpec("the two term ratios fail the mixed-step identity")
    c = {(0, 0): Fraction(1)}
    for n in range(order):
        c[(n + 1, 0)] = c[(n, 0)] * _ref_ratio_at(s.alpha1, n, 0)
    for n in range(order + 1):
        for m in range(order - n):
            c[(n, m + 1)] = c[(n, m)] * _ref_ratio_at(s.alpha2, n, m)
    return BiSeries(order, c)


def _outcome(fn, *args):
    """The result of fn(*args), or the type and message of what it raised."""
    try:
        return fn(*args)
    except (NonzeroAtOrigin, InsufficientOrder, RatioPole, IncompatibleSpec) as exc:
        return type(exc), str(exc)


ODD_MAPS = (
    "3/7*t - 5/2*t^2",
    "(2*t)/(3-5*t)",
    "t^3/(1+t/2)",
    "0",
    "t^2",
    "-t^2/(1-t)^2",
    "t^3",
    "2/9*t^3 + t^4",
    "t",
    "-t/(1-8*t)",
    "1+t",
    "1/t",
)


def _rand_biseries(rng, order, density=0.7):
    coeffs = {}
    for n in range(order + 1):
        for m in range(order + 1 - n):
            if rng.random() < density:
                coeffs[(n, m)] = Fraction(rng.randrange(-40, 41), rng.randrange(1, 13))
    return BiSeries(order, coeffs)


def test_restrict_matches_fraction_reference_random():
    rng = random.Random(7001)
    maps = [rf_t(text) for text in ODD_MAPS]
    for _ in range(400):
        b = _rand_biseries(rng, rng.randrange(0, 12), rng.choice((0.0, 0.3, 0.9)))
        xp, yp = rng.choice(maps), rng.choice(maps)
        order = rng.randrange(0, 13)
        want = _outcome(_ref_restrict, b, xp, yp, order)
        assert _outcome(restrict, b, xp, yp, order) == want


def test_restrict_matches_fraction_reference_on_rational_maps():
    b = expand_from_ratios(hyper_from_spec(KDF3), 21)
    for x_text in ODD_MAPS[:9]:
        for y_text in ODD_MAPS[:9]:
            xp, yp = rf_t(x_text), rf_t(y_text)
            for order in (0, 1, 7, 20):
                want = _outcome(_ref_restrict, b, xp, yp, order)
                assert _outcome(restrict, b, xp, yp, order) == want


KDF3 = parse_spec_text(
    """[spec]
name = kdf3
kind = ratio
vars = n m
alpha1 = (1/2+n)^3*(1/2+n+m)/((1+n+m)^3*(n+1))
alpha2 = (1/2+m)^3*(1/2+n+m)/((1+n+m)^3*(m+1))
"""
)


# the ratios of c_{n,m} = 1/(n*m - 3): alpha1(n, 0) = 1, and alpha2 has its
# first pole in row n = 1
POLE_IN_ALPHA2 = HyperSpec(rf_nm("(n*m-3)/(n*m+m-3)"), rf_nm("(n*m-3)/(n*m+n-3)"))


def _expand_specs():
    return [
        hyper_from_spec(H2),
        hyper_from_spec(BAT16),
        hyper_from_spec(KDF3),
        HyperSpec(rf_nm("1"), rf_nm("1")),
        HyperSpec(rf_nm("0"), rf_nm("2/3")),
        HyperSpec(rf_nm("(2*n+3*m+1)/7"), rf_nm("(3*n+3*m+3)*(4*m+5)/(5*(4*m+5)*(m+1))")),
        # poles: alpha1 at n = 2, alpha2 in row n = 1 at m = 2, both at once
        HyperSpec(rf_nm("1/(n-2)"), rf_nm("1")),
        POLE_IN_ALPHA2,
        HyperSpec(rf_nm("(n*m-3)/((n*m+m-3)*(n-2))"), POLE_IN_ALPHA2.alpha2),
        HyperSpec(rf_nm("(n+m+1)/(n+1)"), rf_nm("1")),
    ]


def test_expand_from_ratios_matches_fraction_reference():
    specs = _expand_specs()
    for s in specs:
        for order in (0, 1, 2, 3, 6, 12):
            want = _outcome(_ref_expand_from_ratios, s, order)
            assert _outcome(expand_from_ratios, s, order) == want


def test_expand_ratio_pole_messages():
    with pytest.raises(RatioPole, match=r"^ratio denominator vanishes at \(n, m\) = \(2, 0\)$"):
        expand_from_ratios(HyperSpec(rf_nm("1/(n-2)"), rf_nm("1")), 5)
    with pytest.raises(RatioPole, match=r"^ratio denominator vanishes at \(n, m\) = \(1, 2\)$"):
        expand_from_ratios(POLE_IN_ALPHA2, 5)


def test_restrict_insufficient_order_attributes():
    b = expand_from_ratios(hyper_from_spec(H2), 4)
    with pytest.raises(InsufficientOrder) as info:
        restrict(b, rf_t("t^2"), rf_t("t^3"), 11)
    assert (info.value.needed, info.value.have) == (6, 4)
    assert info.value.dims is None
    assert str(info.value) == (
        "restriction to t-order 11 needs the double series through"
        " total degree 6, have 4"
    )


@pytest.mark.parametrize(
    "call, message, needed, have",
    [
        (lambda: UniSeries(0, [1]).derivative(), "cannot differentiate an order-0 series", 1, 0),
    ],
    ids=["derivative"],
)
def test_insufficient_order_attributes(call, message, needed, have):
    with pytest.raises(InsufficientOrder) as info:
        call()
    assert (info.value.needed, info.value.have) == (needed, have)
    assert info.value.dims is None
    assert str(info.value) == message


def test_biseries_from_ratios_and_from_dict_agree():
    # expand_from_ratios builds integer rows; BiSeries(order, coeffs) builds
    # the dict.  Both must read the same through every view and every user.
    rng = random.Random(1505)
    maps = [rf_t(text) for text in ODD_MAPS[:10]]
    t_map = rf_t("t")
    built = 0
    for s in _expand_specs():
        for order in (0, 1, 2, 3, 6, 12):
            try:
                b = expand_from_ratios(s, order)
            except (RatioPole, IncompatibleSpec):
                continue
            built += 1
            c = BiSeries(order, b.coeffs)
            assert b == c and c == b
            assert b.rows == c.rows
            for den, ws in b.rows:
                assert den > 0 and math.gcd(den, *ws) == 1
            scaled = [(6 * den, [6 * w for w in ws]) for den, ws in b.rows]
            assert BiSeries._from_rows(order, scaled).rows == b.rows
            assert restrict(b, t_map, t_map, order) == restrict(c, t_map, t_map, order)
            for _ in range(6):
                xp, yp = rng.choice(maps), rng.choice(maps)
                t_order = rng.randrange(0, 2 * order + 2)
                assert _outcome(restrict, b, xp, yp, t_order) == _outcome(
                    restrict, c, xp, yp, t_order
                )
    assert built == 40


def test_restrict_rejects_maps_in_different_variables():
    b = expand_from_ratios(hyper_from_spec(H2), 5)
    s_map = expr_to_ratfun(parse_expr("s", ("s",)), ("s",))
    with pytest.raises(ValueError, match=r"\('t',\) and \('s',\)"):
        restrict(b, rf_t("t"), s_map, 5)
    with pytest.raises(ValueError, match=r"\('s',\) and \('t',\)"):
        restrict(b, s_map, rf_t("2*t"), 5)
    # a univariate check still comes first
    with pytest.raises(ValueError, match="univariate"):
        restrict(b, rf_t("t"), rf_nm("n"), 5)

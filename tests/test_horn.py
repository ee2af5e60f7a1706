from fractions import Fraction

import pytest

from hornsing.curves import Curve, Param, verify_parametrization
from hornsing.exact import MPoly, squarefree_primitive
from hornsing.exprio import expr_to_mpoly, expr_to_ratfun, parse_expr, parse_spec_text
from hornsing.horn import XYT, Confluent, HornMaps, _graph_poly, eliminate, horn_curve, horn_limit_maps
from hornsing.series import HyperSpec, expand_from_formula, expand_from_ratios, hyper_from_spec

XY = ("x", "y")
T = ("t",)


def rf_t(text):
    return expr_to_ratfun(parse_expr(text, T), T)


def rf_nm(text):
    return expr_to_ratfun(parse_expr(text, ("n", "m")), ("n", "m"))


def curve(text):
    return Curve(expr_to_mpoly(parse_expr(text, XY), XY))


def ratio_spec(name, alpha1, alpha2, params=""):
    lines = ["[spec]", "name = %s" % name, "kind = ratio", "vars = n m"]
    if params:
        lines.append("params = %s" % params)
    lines += ["alpha1 = %s" % alpha1, "alpha2 = %s" % alpha2]
    return hyper_from_spec(parse_spec_text("\n".join(lines) + "\n"))


H2 = ratio_spec(
    "h2",
    "(3*n+3*m+1)*(3*n+3*m+2)*(3*n+3*m+3)/(n+1)^3",
    "(3*n+3*m+1)*(3*n+3*m+2)*(3*n+3*m+3)/(m+1)^3",
)
BAT16 = ratio_spec(
    "bat16",
    "2*(2*n+2*m+1)*(2*n+2*m+2)*(2*n+1)/(n+1)^3",
    "2*(2*n+2*m+1)*(2*n+2*m+2)*(2*m+1)/(m+1)^3",
)
POCH = ratio_spec(
    "poch",
    "4*(2*n+1)^3*(2*n+2*m+1)/((n+m+1)^3*(n+1))",
    "4*(2*m+1)^3*(2*n+2*m+1)/((n+m+1)^3*(m+1))",
)
BAT18 = ratio_spec(
    "bat18",
    "(n+m+1)^2*(2*n+2*m+1)*(2*n+2*m+2)/(n+1)^4",
    "(n+m+1)^2*(2*n+2*m+1)*(2*n+2*m+2)/(m+1)^4",
)
BAT19 = ratio_spec(
    "bat19",
    "(2*n+m+1)*(2*n+m+2)*(2*m+n+1)*(n+m+1)/(n+1)^4",
    "(2*m+n+1)*(2*m+n+2)*(2*n+m+1)*(n+m+1)/(m+1)^4",
)


def kdf(M, alpha, beta, betap, gamma):
    return ratio_spec(
        "kdf_general",
        "(alpha+n)^%d*(betap+n+m)/((gamma+n+m)^%d*(n+1))" % (M, M),
        "(beta+m)^%d*(betap+n+m)/((gamma+n+m)^%d*(m+1))" % (M, M),
        params="alpha:%s beta:%s betap:%s gamma:%s" % (alpha, beta, betap, gamma),
    )


CAND = curve("19683*(x+y)^3 - 2187*(x^2+y^2-7*x*y) + 81*(x+y) - 1")
S2 = curve("256*(x-y)^2 - 32*(x+y) + 1")
TILDE_S2 = curve("4096*x^2*y^2 - 128*x*y*(x+y) + (x-y)^2")
SING_KAMP = curve("x^2*y^2 - 2*x*y*(x+y) + (x-y)^2")
# Degree-(M-1) limit maps sweep every root branch of x^(1/(1-M)) + y^(1/(1-M)) = 1
# except at M = 2, where the curve is already rational and only the principal
# sign survives; the quadratic M = 2 locus is the product with its sign mirror.
M4_EVEN = curve("(x+y)^2 - x^2*y^2")
FERMAT = {
    2: curve("x*y - x - y"),
    3: SING_KAMP,
    4: curve("(x+y-x*y)^3 + 27*x^2*y^2"),
    5: curve(
        "(x+y+x*y)^4 - 136*x^2*y^2*(x+y+x*y)"
        " - 8*x*y*(x+1+y)*(x^2+y^2) - 8*x^2*y^2*(x+y)*(x*y-1)"
    ),
}
BAT5 = curve(
    "256*(x-y)^4 - 256*(x+y)*(x^2+y^2+30*x*y)"
    " + 32*(3*x^2+3*y^2-62*x*y) - 16*(x+y) + 1"
)
BAT6 = curve(
    "27*x^2*y^2*(y+x) - (256*(x^4+y^4) + 304*x*y*(x^2+y^2) + 69*x^2*y^2)"
    " + 8*(y+x)*(32*(x^2+y^2) + 339*x*y)"
    " - (96*(x^2+y^2) - 1261*x*y) + 16*(y+x) - 1"
)


# ---- limit maps ----------------------------------------------------------------


def test_limit_maps_h2():
    maps = horn_limit_maps(H2)
    assert maps.X == rf_t("t^3/(27*(t+1)^3)")
    assert maps.Y == rf_t("1/(27*(t+1)^3)")


def test_limit_maps_bat16():
    maps = horn_limit_maps(BAT16)
    assert maps.X == rf_t("t^2/(16*(t+1)^2)")
    assert maps.Y == rf_t("1/(16*(t+1)^2)")


def test_limit_maps_poch():
    maps = horn_limit_maps(POCH)
    assert maps.X == rf_t("(t+1)^2/(64*t^2)")
    assert maps.Y == rf_t("(t+1)^2/64")


def test_confluent_detected():
    with pytest.raises(Confluent):
        horn_limit_maps(HyperSpec(rf_nm("n+1"), rf_nm("m+1")))


# ---- elimination ---------------------------------------------------------------


def test_eliminate_h2_cubic():
    res = eliminate(horn_limit_maps(H2))
    assert res.main_curve == CAND


def test_graph_polynomials_up_to_a_constant():
    # the h2 maps carry 1/27; the graph polynomials keep it, since the
    # resultant clears its inputs and Curve takes the primitive part
    x, y, t = (MPoly.variable(XYT, v) for v in XYT)
    h = horn_limit_maps(H2)
    assert _graph_poly(h.X, "x").primitive_positive() == 27 * x * (t + 1) ** 3 - t**3
    assert _graph_poly(h.Y, "y").primitive_positive() == 27 * y * (t + 1) ** 3 - 1
    # kdf with rational parameters: the curve of the same ratios with every
    # parameter dropped
    rational = kdf(3, "1/3", "1/5", "2/7", "1")
    free = ratio_spec("kdf_free", "n^3*(n+m)/((n+m)^3*(n+1))", "m^3*(n+m)/((n+m)^3*(m+1))")
    assert horn_curve(rational).main_curve == horn_curve(free).main_curve == FERMAT[3]


def test_eliminate_bat16_quadratic():
    res = eliminate(horn_limit_maps(BAT16))
    assert res.main_curve == S2
    assert res.axis_values == (Fraction(1, 16), Fraction(1, 16))


def test_eliminate_poch_biquadratic():
    res = eliminate(horn_limit_maps(POCH))
    assert res.main_curve == TILDE_S2
    assert res.axis_values == (Fraction(1, 64), Fraction(1, 64))


def test_horn_curve_bat18():
    res = horn_curve(BAT18)
    assert res.main_curve == BAT5
    assert res.axis_values == (Fraction(1, 4), Fraction(1, 4))


def test_horn_curve_bat19():
    res = horn_curve(BAT19)
    assert res.main_curve == BAT6
    assert res.axis_values == (Fraction(1, 4), Fraction(1, 4))


def test_axis_values_infinite_zero_and_at_a_pole():
    # X(t) grows, or falls to 0, as t -> infinity; Y(t) has a pole at t = 0
    res = eliminate(HornMaps(rf_t("t^2/(t+1)"), rf_t("(t+1)/t")))
    assert res.axis_values == (None, None)
    res = eliminate(HornMaps(rf_t("1/(t+1)"), rf_t("(t+1)/t")))
    assert res.axis_values == (0, None)
    assert type(res.axis_values[0]) is Fraction


def test_constant_maps_rejected():
    with pytest.raises(ValueError):
        eliminate(HornMaps(rf_t("1/2"), rf_t("1/2")))


# ---- the parameter family ------------------------------------------------------


PARAM_SETS = [
    ("1/2", "1/2", "1/2", "1"),
    ("1/3", "1/5", "2/7", "1"),
    ("1/4", "2/3", "1/6", "5/4"),
    ("2", "1/2", "3", "1/3"),
    ("1/7", "1/7", "5/2", "2"),
]


def test_kdf_m3_named_parameter_sets():
    for ps in [("1/2", "1/2", "1/2", "1"), ("1/3", "1/5", "2/7", "1")]:
        res = horn_curve(kdf(3, *ps))
        assert res.main_curve == SING_KAMP


@pytest.mark.parametrize("M", [2, 3, 4, 5])
def test_kdf_parameter_independence(M):
    curves = [horn_curve(kdf(M, *ps)).main_curve for ps in PARAM_SETS]
    assert all(c == curves[0] for c in curves)
    assert curves[0] == FERMAT[M]


def test_kdf_m2_sign_mirror_completes_quadratic_locus():
    main = horn_curve(kdf(2, "1/2", "1/2", "1/2", "1")).main_curve
    assert main == curve("x*y - x - y")
    x = MPoly.variable(XY, "x")
    y = MPoly.variable(XY, "y")
    mirror = main.poly.substitute({"x": -x, "y": -y}, XY)
    assert Curve(main.poly * mirror) == M4_EVEN


@pytest.mark.parametrize("M", [2, 3, 4, 5])
def test_fermat_parametrizations_satisfy_horn_curve(M):
    main = horn_curve(kdf(M, "1/2", "1/2", "1/2", "1")).main_curve
    t = rf_t("t")
    p = Param(t ** (M - 1), (-t / (1 - t)) ** (M - 1))
    assert verify_parametrization(main, p)


# ---- diagonal reductions and series cross-checks -------------------------------


def diag(c):
    x = MPoly.variable(("x",), "x")
    return c.poly.substitute({"y": x}, ("x",))


def mp_x(text):
    return expr_to_mpoly(parse_expr(text, ("x",)), ("x",))


def test_h2_diagonal_reduction():
    res = horn_curve(H2)
    d = diag(res.main_curve)
    assert d == mp_x("-(1-216*x)*(1+27*x)^2")
    assert squarefree_primitive(d) == mp_x("(216*x-1)*(27*x+1)")


def test_bat_diagonal_reductions():
    assert diag(BAT5) == mp_x("(1-64*x)*(1+16*x)^2")
    assert diag(BAT6) == mp_x("-(1-54*x)*(1+11*x-x^2)^2")


def test_bat18_ratio_spec_matches_formula():
    formula = parse_expr("fact(n+m)^2*fact(2*n+2*m)/(fact(n)^4*fact(m)^4)", ("n", "m"))
    assert expand_from_ratios(BAT18, 3) == expand_from_formula(formula, 3)


def test_bat19_series_low_order():
    b = expand_from_ratios(BAT19, 4)
    assert b.coeffs.get((1, 0), 0) == 2
    assert b.coeffs.get((2, 0), 0) == 6
    assert b.coeffs.get((1, 1), 0) == 72
    assert b.coeffs.get((2, 1), 0) == 1080
    assert b.coeffs.get((2, 2), 0) == 48600
    assert b.coeffs.get((3, 1), 0) == 11200
    assert b.coeffs.get((4, 0), 0) == 70

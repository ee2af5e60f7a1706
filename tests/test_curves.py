import random
from fractions import Fraction

import pytest

from hornsing.curves import (
    DEGENERATE,
    Curve,
    DegenerateMap,
    NotQuadratic,
    Param,
    affine_singular_points,
    genus_quadratic_fiber,
    nickelian_j,
    substitute_compare,
    verify_parametrization,
)
from hornsing.exact import MPoly, RatFun, ZeroInput, squarefree_primitive

XY = ("x", "y")


def xy(vars=XY):
    return MPoly.variable(vars, vars[0]), MPoly.variable(vars, vars[1])


def rf(p):
    return RatFun.from_poly(p)


IDENTITY = {v: rf(MPoly.variable(XY, v)) for v in XY}


def cand_poly():
    x, y = xy()
    return 19683 * (x + y) ** 3 - 2187 * (x**2 + y**2 - 7 * x * y) + 81 * (x + y) - 1


def s2_poly():
    x, y = xy()
    return 256 * (x - y) ** 2 - 32 * (x + y) + 1


def tilde_s2_poly():
    x, y = xy()
    return 4096 * x**2 * y**2 - 128 * x * y * (x + y) + (x - y) ** 2


def fermat_poly(M):
    x, y = xy()
    if M == 2:
        return (x + y) ** 2 - x**2 * y**2
    if M == 3:
        return x**2 * y**2 - 2 * x * y * (x + y) + (x - y) ** 2
    if M == 4:
        return (x + y - x * y) ** 3 + 27 * x**2 * y**2
    if M == 5:
        s = x + y + x * y
        return (
            s**4
            - 136 * x**2 * y**2 * s
            - 8 * x * y * (x + 1 + y) * (x**2 + y**2)
            - 8 * x**2 * y**2 * (x + y) * (x * y - 1)
        )
    raise ValueError(M)


def bat5_poly():
    x, y = xy()
    return (
        256 * (x - y) ** 4
        - 256 * (x + y) * (x**2 + y**2 + 30 * x * y)
        + 32 * (3 * x**2 + 3 * y**2 - 62 * x * y)
        - 16 * (x + y)
        + 1
    )


def bat6_poly():
    x, y = xy()
    return (
        27 * x**2 * y**2 * (y + x)
        - (256 * (x**4 + y**4) + 304 * x * y * (x**2 + y**2) + 69 * x**2 * y**2)
        + 8 * (y + x) * (32 * (x**2 + y**2) + 339 * x * y)
        - (96 * (x**2 + y**2) - 1261 * x * y)
        + 16 * (y + x)
        - 1
    )


def factor1_poly():
    w, r = MPoly.variable(("w", "r"), "w"), MPoly.variable(("w", "r"), "r")
    return r**2 - 4 * r + 4 + 3 * w**2 * r**2 - 4 * w**2 * r + 16 * w**4 * r


def factor2_poly():
    k, r = MPoly.variable(("k", "r"), "k"), MPoly.variable(("k", "r"), "r")
    return (3 * k * r + r + 4 * k**2) * (k**2 * r + 3 * k * r + 4)


def u_poly():
    return MPoly.variable(("u",), "u")


def t_poly():
    return MPoly.variable(("t",), "t")


# ---- construction and normalization ------------------------------------------


def test_curve_normalizes_to_squarefree_primitive():
    x, y = xy()
    c = Curve(6 * (x + y) ** 2 * (x - y))
    assert c.poly == (x + y) * (x - y)
    assert Curve(x - y) == Curve(2 * y - 2 * x)


def test_curve_rejects_zero_and_constants():
    with pytest.raises(ZeroInput):
        Curve(MPoly.zero(XY))
    with pytest.raises(ValueError):
        Curve(MPoly.const(XY, 5))


def test_curve_from_text():
    assert Curve.from_text("256*(x-y)^2 - 32*(x+y) + 1", XY) == Curve(s2_poly())


def test_param_rejects_constant_point_and_multivariate():
    u = u_poly()
    with pytest.raises(ValueError):
        Param(rf(MPoly.const(("u",), 1)), rf(MPoly.const(("u",), 2)))
    with pytest.raises(ValueError):
        Param(rf(MPoly.variable(XY, "x")), rf(MPoly.variable(XY, "y")))
    p = Param(u, u**2)
    assert p.var == "u"


# ---- parametrization checks ---------------------------------------------------


def test_cubic_symmetric_curve_parametrization():
    u = rf(u_poly())
    sixth = RatFun.const(("u",), Fraction(1, 6))
    p = Param((sixth + u) ** 3, (sixth - u) ** 3)
    assert verify_parametrization(Curve(cand_poly()), p)


def test_cubic_symmetric_curve_companion_parametrization():
    u = rf(u_poly())
    xp = ((5 * u + 7) / (6 * (1 - u))) ** 3
    yp = ((7 * u + 5) / (6 * (u - 1))) ** 3
    assert verify_parametrization(Curve(cand_poly()), Param(xp, yp))
    # the companion is the first map composed with u -> 1/u
    assert xp.substitute_ratfun({"u": u.inverse()}) == yp


def test_quadratic_curve_parametrization():
    u = rf(u_poly())
    eighth = RatFun.const(("u",), Fraction(1, 8))
    p = Param((eighth - u) ** 2, (eighth + u) ** 2)
    assert verify_parametrization(Curve(s2_poly()), p)


def test_biquadratic_curve_parametrizations_and_involution():
    u = rf(u_poly())
    c = Curve(tilde_s2_poly())
    assert verify_parametrization(c, Param(u**2, (u / (1 + 8 * u)) ** 2))
    xp = ((u + 1) / 8) ** 2
    yp = ((u + 1) / (8 * u)) ** 2
    assert verify_parametrization(c, Param(xp, yp))
    assert xp.substitute_ratfun({"u": u.inverse()}) == yp


def test_reciprocal_involution_relates_quadratic_and_biquadratic():
    x, y = xy()
    inv = {
        "x": rf(MPoly.const(XY, 1)) / rf(1024 * x),
        "y": rf(MPoly.const(XY, 1)) / rf(1024 * y),
    }
    image = rf(s2_poly()).substitute_ratfun(inv)
    rhs = image * rf(4096 * x**2 * y**2)
    assert rhs.is_poly()
    assert rhs.num == tilde_s2_poly()
    rep = substitute_compare(Curve(tilde_s2_poly()), IDENTITY, Curve(s2_poly()), inv)
    assert rep.kind == "proportional"
    assert rep.constant == 4096


@pytest.mark.parametrize("M", [2, 3, 4, 5])
def test_fermat_family_parametrizations(M):
    t = rf(t_poly())
    c = Curve(fermat_poly(M))
    assert verify_parametrization(c, Param(t ** (M - 1), (-t / (1 - t)) ** (M - 1)))
    v = rf(MPoly.variable(("v",), "v"))
    half = RatFun.const(("v",), Fraction(1, 2))
    if M % 2 == 0:
        xp, yp = (half + v) ** (1 - M), (half - v) ** (1 - M)
    else:
        xp, yp = (-half + v) ** (1 - M), (-half - v) ** (1 - M)
    assert verify_parametrization(c, Param(xp, yp))


def test_quartic_curve_parametrization():
    t = rf(t_poly())
    p = Param((t - 1) ** 4 / 64, (t + 1) ** 4 / 64)
    assert verify_parametrization(Curve(bat5_poly()), p)


def test_quintic_curve_parametrization():
    t = rf(t_poly())
    xp = t**4 / ((t + 1) * (t + 2) * (2 * t + 1) ** 2)
    yp = 1 / ((t + 1) * (t + 2) ** 2 * (2 * t + 1))
    assert verify_parametrization(Curve(bat6_poly()), Param(xp, yp))


def test_lattice_quadratic_factor_parametrization():
    u = rf(u_poly())
    wp = (u**2 + 1) / (2 * u)
    rp = -4 / (u**2 * (u**2 + 3))
    assert verify_parametrization(Curve(factor1_poly()), Param(wp, rp))


def test_parametrization_failure_detected():
    x, y = xy()
    u = rf(u_poly())
    assert not verify_parametrization(Curve(x - y), Param(u, u**2))


def test_random_reparametrizations_preserve_membership():
    rng = random.Random(20260825)
    u = rf(u_poly())
    sixth = RatFun.const(("u",), Fraction(1, 6))
    c = Curve(cand_poly())
    checked = 0
    while checked < 100:
        a, b, cc, d = (Fraction(rng.randint(-9, 9)) for _ in range(4))
        if a * d - b * cc == 0:
            continue
        phi = (a * u + b) / (cc * u + d)
        assert verify_parametrization(c, Param((sixth + phi) ** 3, (sixth - phi) ** 3))
        checked += 1
    assert checked == 100


# ---- substitution comparison --------------------------------------------------


def test_substitute_compare_equal_under_identity():
    rep = substitute_compare(
        Curve(cand_poly()), IDENTITY, Curve(cand_poly()), IDENTITY
    )
    assert rep.kind == "equal"
    assert rep.constant == 1
    assert rep.common == squarefree_primitive(rep.left)


def test_substitute_compare_distinct_with_gcd():
    x, y = xy()
    rep = substitute_compare(
        Curve((x - y) * (x + 2 * y)), IDENTITY, Curve((x - y) * (x - 3 * y)), IDENTITY
    )
    assert rep.kind == "distinct"
    assert rep.common == x - y


def test_substitute_compare_degenerate_map():
    x, y = xy()
    t = rf(t_poly())
    with pytest.raises(DegenerateMap):
        substitute_compare(Curve(x - y), {"x": t, "y": t}, Curve(x + y), {"x": t, "y": t})


def test_lattice_factor_correspondence():
    sr = ("s", "r")
    s, r = MPoly.variable(sr, "s"), MPoly.variable(sr, "r")
    kr_map = {"k": rf(s**2), "r": rf(r)}
    wr_map = {"w": rf(1 + s**2) / rf(2 * s), "r": rf(r)}
    rep = substitute_compare(Curve(factor2_poly()), kr_map, Curve(factor1_poly()), wr_map)
    assert rep.kind == "proportional"
    assert rep.constant == 4
    assert rep.common == squarefree_primitive(rep.left)


def test_lattice_factor_correspondence_on_section():
    # both factors collapse to the same palindromic octic on the r = 1 slice
    sv = ("s",)
    s = MPoly.variable(sv, "s")
    octic = 4 * s**8 + 15 * s**6 + 26 * s**4 + 15 * s**2 + 4
    one = rf(MPoly.const(sv, 1))
    n2 = substitute_compare(
        Curve(factor2_poly()), {"k": rf(s**2), "r": one}, Curve(octic), {"s": rf(s)}
    )
    assert n2.kind == "equal"
    n1 = substitute_compare(
        Curve(factor1_poly()), {"w": rf(1 + s**2) / rf(2 * s), "r": one}, Curve(octic), {"s": rf(s)}
    )
    assert n1.kind == "proportional"
    assert n1.constant == Fraction(1, 4)


# ---- singular points ----------------------------------------------------------


def test_smooth_conic_has_no_singular_points():
    x, y = xy()
    rep = affine_singular_points(Curve(x**2 + y**2 - 1))
    assert rep.points == ()
    assert rep.complete


def test_nodal_cubic_origin():
    x, y = xy()
    rep = affine_singular_points(Curve(y**2 - x**2 * (x + 1)))
    assert rep.points == ((Fraction(0), Fraction(0)),)
    assert rep.complete


def test_biquadratic_curve_contains_singular_origin():
    rep = affine_singular_points(Curve(tilde_s2_poly()))
    assert (Fraction(0), Fraction(0)) in rep.points


def test_quadratic_curve_is_smooth():
    rep = affine_singular_points(Curve(s2_poly()))
    assert rep.points == ()
    assert rep.complete


def test_line_component_crossings():
    x, y = xy()
    rep = affine_singular_points(Curve((x - 1) * (x + 1) * (y - 2)))
    assert rep.points == ((Fraction(-1), Fraction(2)), (Fraction(1), Fraction(2)))
    assert rep.complete


def test_line_times_conic_sections():
    x, y = xy()
    # vertical line x = 2 meets the circle at rational points (2, y): none,
    # but x = 1 is tangent at (1, 0)
    rep = affine_singular_points(Curve((x - 1) * (x**2 + y**2 - 1)))
    assert rep.points == ((Fraction(1), Fraction(0)),)


def _to_sympy(p, syms):
    import sympy

    out = sympy.Integer(0)
    for e, c in p.terms.items():
        term = sympy.Rational(c.numerator, c.denominator)
        for s, k in zip(syms, e):
            term *= s**k
        out += term
    return out


def _random_component(rng):
    """A rational line, a conic through a rational point, or a nodal cubic y^2 = x^2 (x + a)."""
    x, y = xy()

    def q():
        return Fraction(rng.randint(-4, 4), rng.randint(1, 3))

    kind = rng.randrange(3)
    if kind == 0:
        return q() * x + rng.choice((0, 1, 2)) * y + q() + (y if rng.random() < 0.5 else x)
    X, Y = x - q(), y - q()
    if kind == 1:
        return q() * X**2 + q() * X * Y + q() * Y**2 + q() * X + rng.choice((1, -2)) * Y
    return Y**2 - X**2 * (X + q())


def _groebner_singular_points(F):
    """Rational solutions of F = F_x = F_y = 0 from a lex Groebner basis (sympy).

    The basis element free of x gives the candidate y; at each rational y the
    gcd of the specialized basis gives the x of the points above it.
    """
    import sympy

    xs, ys = sympy.symbols("x y")
    f = _to_sympy(F, (xs, ys))
    basis = sympy.groebner([f, f.diff(xs), f.diff(ys)], xs, ys, order="lex").exprs
    (g_y,) = [g for g in basis if not g.has(xs)]
    points = set()
    if g_y.is_number:
        return points
    for b in sympy.Poly(g_y, ys).ground_roots():
        g = sympy.Integer(0)
        for h in basis:
            g = sympy.gcd(g, h.subs(ys, b))
        for a in sympy.Poly(g, xs).ground_roots():
            points.add((Fraction(int(a.p), int(a.q)), Fraction(int(b.p), int(b.q))))
    return points


def test_singular_points_match_sympy_groebner():
    pytest.importorskip("sympy")
    rng = random.Random(7011)
    done = with_points = partial = 0
    while done < 36:
        F = MPoly.const(XY, 1)
        for _ in range(rng.randint(1, 3)):
            F = F * _random_component(rng)
        if F.is_constant() or F.total_degree() > 4:
            continue
        curve = Curve(F)
        rep = affine_singular_points(curve)
        want = _groebner_singular_points(curve.poly)
        assert rep.complete == (not rep.residual)
        if rep.complete:
            assert set(rep.points) == want
        else:
            assert set(rep.points) <= want
            partial += 1
        with_points += bool(want)
        done += 1
    assert with_points > 10 and partial > 5


# ---- genus certificates -------------------------------------------------------


def genus1_poly(U, V, sign):
    kr = ("k", "r")
    k, r = MPoly.variable(kr, "k"), MPoly.variable(kr, "r")
    return (r + k) * (k * r + 1) - k * (r * U + sign * V) ** 2


def test_genus_one_lattice_factor():
    kr = ("k", "r")
    k, r = MPoly.variable(kr, "k"), MPoly.variable(kr, "r")
    c = Curve(3 * r**2 * k - r - k - k**2 * r)
    cert = genus_quadratic_fiber(c, "k")
    assert cert.genus == 1
    disc = (3 * r - 1) * (3 * r + 1) * (r - 1) * (r + 1)
    assert cert.odd_part == disc
    assert cert.discriminant == disc


def test_genus_zero_on_equal_cosine_slice():
    for sign in (1, -1):
        cert = genus_quadratic_fiber(Curve(genus1_poly(Fraction(1, 2), Fraction(1, 2), sign)), "k")
        assert cert.genus == 0


def test_genus_zero_parabola():
    kr = ("k", "r")
    k, r = MPoly.variable(kr, "k"), MPoly.variable(kr, "r")
    cert = genus_quadratic_fiber(Curve(k**2 - r), "k")
    assert cert.genus == 0


def test_genus_requires_quadratic_fiber():
    kr = ("k", "r")
    k, r = MPoly.variable(kr, "k"), MPoly.variable(kr, "r")
    with pytest.raises(NotQuadratic):
        genus_quadratic_fiber(Curve(k**3 - r), "k")


def test_genus_two_hyperelliptic():
    xw = ("x", "w")
    x, w = MPoly.variable(xw, "x"), MPoly.variable(xw, "w")
    sextic = x * (x - 1) * (x - 2) * (x - 3) * (x - 4) * (x - 5)
    cert = genus_quadratic_fiber(Curve(w**2 - sextic), "w")
    assert cert.genus == 2
    assert cert.odd_part == sextic


# ---- j-invariant of the cosine family ----------------------------------------


def test_j_invariant_special_value():
    assert nickelian_j(0, Fraction(1, 2)) == 1728


def test_j_invariant_symmetry():
    pts = [(Fraction(1, 2), Fraction(1, 3)), (Fraction(2), Fraction(3)), (Fraction(1, 4), Fraction(3))]
    for u2, v2 in pts:
        assert nickelian_j(u2, v2) == nickelian_j(v2, u2)


def test_j_invariant_degenerates_exactly_on_locus():
    grid = [Fraction(n, 4) for n in range(-4, 9)]
    for u2 in grid:
        for v2 in grid:
            j = nickelian_j(u2, v2)
            if u2 == v2 or u2 == 1 or v2 == 1:
                assert j is DEGENERATE
            else:
                assert isinstance(j, Fraction)


def test_j_invariant_direct_evaluation():
    u2, v2 = Fraction(1, 4), Fraction(1, 16)
    num = 256 * (u2**2 + v2**2 - u2 * v2 - u2 - v2 + 1) ** 3
    den = ((v2 - 1) * (u2 - 1) * (u2 - v2)) ** 2
    assert nickelian_j(u2, v2) == num / den


def test_genus_matches_j_invariant_nondegeneracy():
    samples = [
        (Fraction(1, 2), Fraction(1, 3)),
        (Fraction(2), Fraction(3)),
        (Fraction(1, 4), Fraction(3)),
        (Fraction(3, 5), Fraction(1, 5)),
        (Fraction(5), Fraction(1, 7)),
    ]
    for U, V in samples:
        j = nickelian_j(U * U, V * V)
        assert j is not DEGENERATE
        for sign in (1, -1):
            cert = genus_quadratic_fiber(Curve(genus1_poly(U, V, sign)), "k")
            assert cert.genus == 1

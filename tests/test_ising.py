from fractions import Fraction

import pytest

from hornsing import curves, ising
from hornsing.curves import Curve
from hornsing.exact import (
    MPoly,
    RatFun,
    divexact,
    squarefree_primitive,
    strip_monomials,
)
from hornsing.exprio import expr_to_mpoly, parse_expr
from hornsing.ising import (
    KR,
    WR,
    IrrationalCos,
    NickelianIndex,
    chi_catalog,
    chi_gcd,
    elliptic_audit,
    isotropic_location_allowed,
    kr_wr_report,
    nickelian_curve,
    nickelian_isotropic,
    nickelian_poly,
    rational_cos,
)


def mp(text, vars):
    return expr_to_mpoly(parse_expr(text, tuple(vars)), tuple(vars))


def kr(text):
    return mp(text, KR)


def wr(text):
    return mp(text, WR)


# ---- exact cosines and index bookkeeping ----------------------------------------


def test_rational_cos_table():
    assert rational_cos(1, 1) == 1
    assert rational_cos(1, 2) == -1
    assert rational_cos(1, 3) == Fraction(-1, 2)
    assert rational_cos(2, 3) == Fraction(-1, 2)
    assert rational_cos(1, 4) == 0
    assert rational_cos(3, 4) == 0
    assert rational_cos(1, 6) == Fraction(1, 2)
    assert rational_cos(5, 6) == Fraction(1, 2)
    assert rational_cos(2, 4) == -1
    assert rational_cos(4, 4) == 1
    assert rational_cos(3, 6) == -1


def test_rational_cos_irrational():
    for j, n in [(1, 5), (2, 5), (1, 7), (1, 8), (1, 12)]:
        with pytest.raises(IrrationalCos):
            rational_cos(j, n)


def test_index_validation():
    with pytest.raises(ValueError):
        NickelianIndex(0, 1, 1)
    with pytest.raises(ValueError):
        NickelianIndex(4, 0, 1)
    with pytest.raises(ValueError):
        NickelianIndex(4, 1, 5)
    with pytest.raises(ValueError):
        NickelianIndex(4, 1, 1, sign=2)


def test_isotropic_location_filter():
    assert {jl for jl in [(0, 0), (0, 1), (1, 0), (1, 1)] if isotropic_location_allowed(2, *jl)} == {(1, 1)}
    assert {jl for jl in [(0, 0), (0, 1), (1, 0), (1, 1)] if isotropic_location_allowed(3, *jl)} == {
        (0, 1),
        (1, 0),
        (1, 1),
    }
    grid4 = [(j, l) for j in range(3) for l in range(3)]
    assert {jl for jl in grid4 if isotropic_location_allowed(4, *jl)} == {
        (0, 1),
        (1, 0),
        (1, 2),
        (2, 1),
        (2, 2),
    }
    assert not isotropic_location_allowed(4, 3, 0)


# ---- Nickelian curves ------------------------------------------------------------


def test_nickelian_n4_expansion():
    p = nickelian_poly(NickelianIndex(4, 1, 4, 1))
    assert p == kr("r*(k^2 + k*r + 1)")
    exps, rest = strip_monomials(p)
    assert exps == (0, 1)
    assert rest == kr("k^2 + k*r + 1")


def test_nickelian_n4_factor_occurs_in_chi4():
    _, rest = strip_monomials(nickelian_poly(NickelianIndex(4, 1, 4, 1)))
    assert Curve(rest) in [c for c, _ in chi_catalog(4, "kr").factors]


def test_nickelian_n2_expansion():
    p = nickelian_poly(NickelianIndex(2, 1, 2, 1))
    assert p == kr("r*(k+1)^2")
    assert nickelian_curve(NickelianIndex(2, 1, 2, 1)) == Curve(kr("r*(k+1)"))


def test_nickelian_exact_needs_rational_cos():
    with pytest.raises(IrrationalCos):
        nickelian_curve(NickelianIndex(5, 1, 5))


def test_nickelian_sign_branches_differ():
    plus = nickelian_poly(NickelianIndex(6, 1, 2, 1))
    minus = nickelian_poly(NickelianIndex(6, 1, 2, -1))
    assert plus != minus


def test_nickelian_symbolic_specializes_to_exact():
    sym = nickelian_poly(NickelianIndex(4, 1, 4, 1), mode="symbolic")
    zero = MPoly.const(KR, Fraction(0))
    one = MPoly.const(KR, Fraction(1))
    k = MPoly.variable(KR, "k")
    r = MPoly.variable(KR, "r")
    spec = sym.substitute({"k": k, "r": r, "U": zero, "V": one}, KR)
    assert spec == nickelian_poly(NickelianIndex(4, 1, 4, 1))


def test_nickelian_rejects_unknown_mode():
    for mode in ("float", "numeric"):
        with pytest.raises(ValueError, match="exact or symbolic"):
            nickelian_poly(NickelianIndex(4, 1, 4, 1), mode=mode)


def test_isotropic_examples():
    s = ("s",)
    assert nickelian_isotropic(NickelianIndex(4, 1, 4, 1)) == Curve(mp("s^2 - s + 1", s))
    assert nickelian_isotropic(NickelianIndex(2, 1, 2, 1)) == Curve(mp("s^2 + 1", s))


def test_isotropic_consistent_with_anisotropic_r1():
    # r = 1, k = s^2 collapses the curve onto iso(s) * iso(-s)
    for n, j, l in [(4, 1, 4), (2, 1, 2), (3, 1, 3), (6, 1, 2)]:
        idx = NickelianIndex(n, j, l, 1)
        p = nickelian_poly(idx)
        s = MPoly.variable(("s",), "s")
        pulled = p.substitute({"k": s * s, "r": MPoly.const(("s",), Fraction(1))}, ("s",))
        iso = nickelian_isotropic(idx).poly
        mirror = iso.substitute({"s": -s}, ("s",))
        assert squarefree_primitive(pulled) == squarefree_primitive(iso * mirror)


def test_squaring_consistency_symbolic():
    # (1+s1^2)(1+s2^2) - (s1 U +- s2 V)^2 under s1^2 = kr, s2^2 = k/r,
    # s1 s2 = k, cleared by r, is the anisotropic curve for the same sign
    vars = ("k", "r", "U", "V")
    k, r, u, v = (RatFun.from_poly(MPoly.variable(vars, nm)) for nm in vars)
    for sign in (1, -1):
        squared = (1 + k * r) * (1 + k / r) - (
            k * r * u**2 + 2 * k * u * v * sign + (k / r) * v**2
        )
        cleared = squared * r
        assert cleared.is_poly()
        idx = NickelianIndex(4, 1, 4, sign)
        assert cleared.num == nickelian_poly(idx, mode="symbolic")


# ---- susceptibility catalogs -----------------------------------------------------


DISPLAY_PRODUCTS = {
    (3, "kr"): "(k^2-1)*(3*k*r+r+4*k^2)*(k^2*r+3*k*r+4)*(k^2*r+r+k)"
    "*(3*r^2*k-r-k-k^2*r)*(4+3*k*r+4*k+4*k^2)*(r+k)*(k*r+1)",
    (4, "kr"): "(k^2-1)*(k*r+1+k^2)*(3*r^2*k-r-k-k^2*r)",
    (3, "wr"): "(w^2-1)*w^2*(r^2-4*r+4+3*w^2*r^2-4*w^2*r+16*w^4*r)^2"
    "*(1+4*w^2*r-2*r)^2*(3*r^2-1-4*w^2*r+2*r)^2"
    "*(3*r-4+16*w^2)^2*(1+4*w^2*r-2*r+r^2)^2",
    (4, "wr"): "w^2*(w^2-1)*(4*w^2-2+r)^2*(3*r^2-1-4*w^2*r+2*r)^2",
}


def test_catalog_shapes():
    assert len(chi_catalog(3, "kr").factors) == 8
    assert len(chi_catalog(4, "kr").factors) == 3
    assert len(chi_catalog(3, "wr").factors) == 7
    assert len(chi_catalog(4, "wr").factors) == 4
    assert all(m == 1 for _, m in chi_catalog(3, "kr").factors)
    assert [m for _, m in chi_catalog(3, "wr").factors] == [1, 2, 2, 2, 2, 2, 2]
    assert [m for _, m in chi_catalog(4, "wr").factors] == [2, 1, 2, 2]


def test_catalog_rejects_unknown():
    with pytest.raises(ValueError):
        chi_catalog(5, "kr")
    with pytest.raises(ValueError):
        chi_catalog(3, "uv")


def test_transcription_integrity():
    for (n, coords), text in DISPLAY_PRODUCTS.items():
        vars = KR if coords == "kr" else WR
        display = mp(text, vars)
        product = chi_catalog(n, coords).product()
        assert product.primitive_positive() == display.primitive_positive()


def test_chi4_kr_factors_exact():
    got = [c for c, _ in chi_catalog(4, "kr").factors]
    assert got == [Curve(kr(t)) for t in ("k^2-1", "k*r+1+k^2", "3*r^2*k-r-k-k^2*r")]


def test_gcd_matches_displays():
    g = chi_gcd("kr")
    display = kr("(k^2-1)*(3*r^2*k-r-k-k^2*r)")
    assert g == display.primitive_positive()
    gw = chi_gcd("wr")
    displayw = wr("w^2*(1-w)*(1+w)*(3*r^2-1-4*w^2*r+2*r)^2")
    assert gw == displayw.primitive_positive()


def test_gcd_divides_products():
    for coords in ("kr", "wr"):
        g = chi_gcd(coords)
        for n in (3, 4):
            p = chi_catalog(n, coords).product()
            assert divexact(p, g) * g == p


def test_isotropic_reduction_hits_cm_quadratics():
    one = MPoly.const(KR, Fraction(1))
    b = kr("3*k*r+r+4*k^2").substitute({"r": one})
    c = kr("k^2*r+3*k*r+4").substitute({"r": one})
    assert b == kr("4*k^2 + 3*k + 1")
    assert c == kr("k^2 + 3*k + 4")
    for curve, _ in chi_catalog(3, "kr").factors + chi_catalog(4, "kr").factors:
        assert not curve.poly.substitute({"r": one}).is_zero()


# ---- (k,r) <-> (w,r) correspondence ----------------------------------------------


def check_chi3_report(rep):
    pairs = {
        w.to_str(): (tuple(k.to_str() for k in ks), const)
        for w, ks, const in rep.matched
    }
    f1 = Curve(wr("r^2-4*r+4+3*w^2*r^2-4*w^2*r+16*w^4*r")).to_str()
    assert pairs[f1] == (
        (Curve(kr("3*k*r+r+4*k^2")).to_str(), Curve(kr("k^2*r+3*k*r+4")).to_str()),
        Fraction(4),
    )
    assert pairs[Curve(wr("1+4*w^2*r-2*r")).to_str()] == (
        (Curve(kr("k^2*r+r+k")).to_str(),),
        Fraction(1),
    )
    assert pairs[Curve(wr("3*r^2-1-4*w^2*r+2*r")).to_str()] == (
        (Curve(kr("3*r^2*k-r-k-k^2*r")).to_str(),),
        Fraction(1),
    )
    assert pairs[Curve(wr("3*r-4+16*w^2")).to_str()] == (
        (Curve(kr("4+3*k*r+4*k+4*k^2")).to_str(),),
        Fraction(1),
    )
    assert pairs[Curve(wr("1+4*w^2*r-2*r+r^2")).to_str()] == (
        (Curve(kr("r+k")).to_str(), Curve(kr("k*r+1")).to_str()),
        Fraction(1),
    )
    assert [c.to_str() for c in rep.unmatched_kr] == [Curve(kr("k^2-1")).to_str()]
    assert sorted(c.to_str() for c in rep.unmatched_wr) == ["w", "w^2 - 1"]


def check_chi4_report(rep):
    assert len(rep.matched) == 2
    assert {w.to_str() for w, _, _ in rep.matched} == {
        Curve(wr("4*w^2-2+r")).to_str(),
        Curve(wr("3*r^2-1-4*w^2*r+2*r")).to_str(),
    }
    assert all(const == 1 for _, _, const in rep.matched)
    assert [c.to_str() for c in rep.unmatched_kr] == [Curve(kr("k^2-1")).to_str()]
    assert sorted(c.to_str() for c in rep.unmatched_wr) == ["w", "w^2 - 1"]


def test_report_chi3_matching():
    check_chi3_report(kr_wr_report(3))


def test_report_chi4_matching():
    check_chi4_report(kr_wr_report(4))


def test_report_pulls_each_curve_back_once(monkeypatch):
    seen = []
    pullback = curves._pullback

    def counting(curve, mapping):
        seen.append((curve.poly, frozenset(mapping.items())))
        return pullback(curve, mapping)

    monkeypatch.setattr(curves, "_pullback", counting)
    for n, check in ((3, check_chi3_report), (4, check_chi4_report)):
        seen.clear()
        check(kr_wr_report(n))
        assert seen
        assert len(seen) == len(set(seen))


def test_repeat_catalog_parses_nothing(monkeypatch):
    first = {key: chi_catalog(*key) for key in DISPLAY_PRODUCTS}
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return parse_expr(*args, **kwargs)

    for module in (ising, curves):
        monkeypatch.setattr(module, "parse_expr", counting)
    for key, cat in first.items():
        again = chi_catalog(*key)
        assert again is not cat
        assert (again.n, again.coords, again.factors) == (cat.n, cat.coords, cat.factors)
    assert calls == []


# ---- genus audit -----------------------------------------------------------------


def test_audit_shape_and_genus():
    entries = elliptic_audit()
    assert len(entries) == 8 + 7 + 3 + 4
    e_curve = Curve(kr("3*r^2*k-r-k-k^2*r"))
    e_curve_w = Curve(wr("3*r^2-1-4*w^2*r+2*r"))
    genus_one = [e for e in entries if e.genus == 1]
    assert len(genus_one) == 4
    assert {e.curve for e in genus_one} == {e_curve, e_curve_w}
    assert all(e.genus == 0 for e in entries if e.curve not in (e_curve, e_curve_w))


def test_audit_elliptic_certificate():
    entries = elliptic_audit()
    e_curve = Curve(kr("3*r^2*k-r-k-k^2*r"))
    cert = next(e.certificate for e in entries if e.curve == e_curve)
    assert cert.var == "k"
    assert cert.odd_part == kr("(3*r-1)*(3*r+1)*(r-1)*(r+1)")


def test_audit_quadratic_discriminant():
    entries = elliptic_audit()
    target = Curve(kr("k*r+1+k^2"))
    cert = next(e.certificate for e in entries if e.curve == target)
    assert cert.genus == 0
    assert cert.discriminant == kr("r^2 - 4")


def test_audit_cm_parametrization_attached():
    entries = elliptic_audit()
    f1 = Curve(wr("r^2-4*r+4+3*w^2*r^2-4*w^2*r+16*w^4*r"))
    tagged = [e for e in entries if e.parametrization is not None]
    assert len(tagged) == 1
    assert tagged[0].curve == f1
    assert tagged[0].genus == 0

import itertools
import math
import random
from fractions import Fraction

import pytest

from hornsing import odeguess
from hornsing.exact import MPoly, RatFun, ZeroInput, nullspace, poly_gcd
from hornsing.exprio import expr_to_mpoly, expr_to_ratfun, parse_expr, parse_spec_text
from hornsing.odeguess import (
    GuessReport,
    NotFound,
    SingularPoint,
    UniODE,
    Unstable,
    annihilates_series,
    exterior_square_order,
    guess_ode,
    local_basis,
    singular_points,
    symmetric_square_order,
)
from hornsing.series import (
    InsufficientOrder,
    UniSeries,
    expand_from_formula,
    expand_from_ratios,
    hyper_from_spec,
    ratfun_series,
    restrict,
)
from hornsing.theta import ThetaOp

T = ("t",)
XY = ("x", "y")


def rf_t(text):
    return expr_to_ratfun(parse_expr(text, T), T)


def mp_t(text):
    return expr_to_mpoly(parse_expr(text, T), T)


def mp_xy(text):
    return expr_to_mpoly(parse_expr(text, XY), XY)


H2 = parse_spec_text(
    """[spec]
name = h2
kind = ratio
vars = n m
alpha1 = (3*n+3*m+1)*(3*n+3*m+2)*(3*n+3*m+3)/(n+1)^3
alpha2 = (3*n+3*m+1)*(3*n+3*m+2)*(3*n+3*m+3)/(m+1)^3
"""
)

KDF3 = parse_spec_text(
    """[spec]
name = kdf3
kind = ratio
vars = n m
alpha1 = (1/2+n)^3*(1/2+n+m)/((1+n+m)^3*(n+1))
alpha2 = (1/2+m)^3*(1/2+n+m)/((1+n+m)^3*(m+1))
"""
)

BATYREV1 = """op-vars: t
0 : tt^4
1 : -3*(7*tt^2+7*tt+2)*(3*tt+1)*(3*tt+2)
2 : -72*(3*tt+5)*(3*tt+4)*(3*tt+2)*(3*tt+1)
"""

DEFBATYREV2 = """op-vars: t
0 : tt^4
1 : -4*(5*tt^2+5*tt+2)*(2*tt+1)^2
2 : 64*(2*tt+3)*(2*tt+1)*(2*tt+2)^2
"""

C4_TEXT = """ode-var: t
0 : 2*t*(t-2)*(t^2-t+1)^4
1 : 2*(t-1)*(15*t^10-82*t^9+228*t^8-411*t^7+531*t^6-513*t^5+333*t^4-99*t^3-12*t^2+12*t-1)
2 : -t*(t-1)^2*(-50*t^9+243*t^8-588*t^7+903*t^6-885*t^5+501*t^4-33*t^3-174*t^2+99*t-14)
3 : -2*t^2*(t^2-t+1)*(1-t)^3*(10*t^6-32*t^5+39*t^4-20*t^3-17*t^2+24*t-6)
4 : t^3*(t+1)*(1-2*t)*(2-t)*(t^2-t+1)^2*(1-t)^4
"""

C3_TEXT = """ode-var: t
0 : t*(t-2)
1 : 2*(t-1)*(13*t^2-16*t+4)
2 : 12*t*(t-1)^2*(3*t-2)
3 : 8*t^2*(t-1)^3
"""

L2_TEXT = """ode-var: t
0 : t
1 : 8*(3*t-2)*(t-1)
2 : 16*t*(t-1)^2
"""

GEOMETRIC_TEXT = "ode-var: t\n0 : -1\n1 : 1-t\n"


def geometric(order):
    return UniSeries(order, [Fraction(1)] * (order + 1))


def h2_diagonal(order):
    b = expand_from_ratios(hyper_from_spec(H2), order)
    return restrict(b, rf_t("t"), rf_t("t"), order)


def kdf3_restriction(order):
    b = expand_from_ratios(hyper_from_spec(KDF3), (order + 1) // 2)
    return restrict(b, rf_t("t^2"), rf_t("(t/(1-t))^2"), order)


def test_uniode_normalization():
    half = mp_t("1/2*t - 1/2")
    ode = UniODE("t", [mp_t("1/3"), half])
    assert ode.coeffs == (mp_t("-2"), mp_t("3-3*t"))
    flipped = UniODE("t", [mp_t("-1/3"), half * Fraction(-1)])
    assert flipped == ode
    assert hash(flipped) == hash(ode)


def test_uniode_trailing_zero_trim():
    ode = UniODE("t", [mp_t("1"), mp_t("t"), mp_t("0")])
    assert ode.order == 1
    assert ode.head == mp_t("t")
    with pytest.raises(ZeroInput):
        UniODE("t", [mp_t("0"), mp_t("0")])


def test_uniode_text_roundtrip():
    ode = UniODE.from_text(C3_TEXT)
    assert UniODE.from_text(ode.to_text()) == ode
    assert ode.order == 3
    assert ode.head == mp_t("-8*t^2*(t-1)^3")


def test_uniode_from_theta_strips_common_factor():
    euler = ThetaOp.from_text("op-vars: t\n0 : tt*(tt-1)*(tt-3)*(tt-4)\n")
    ode = UniODE.from_theta(euler)
    assert [p.to_str() for p in ode.coeffs] == ["0", "0", "2", "-2*t", "t^2"]
    for k in (0, 1, 3, 4):
        s = UniSeries(20, [Fraction(1 if j == k else 0) for j in range(21)])
        assert annihilates_series(ode, s)


def test_uniode_theta_roundtrip():
    ode = UniODE.from_text(GEOMETRIC_TEXT)
    assert UniODE.from_theta(ode.to_theta()) == ode


def test_apply_geometric():
    ode = UniODE.from_text(GEOMETRIC_TEXT)
    out = ode.apply(geometric(12))
    assert out.order == 11
    assert not any(out.coeffs)
    ramp = UniSeries(12, [Fraction(k + 1) for k in range(13)])
    assert any(ode.apply(ramp).coeffs)
    with pytest.raises(InsufficientOrder):
        ode.apply(UniSeries(0, [Fraction(1)]))


def test_guess_geometric():
    rep = guess_ode(geometric(30), 1, 1)
    assert rep.ode == UniODE.from_text(GEOMETRIC_TEXT)
    assert rep.checked_margin >= 10


def test_guess_notfound_is_certified():
    with pytest.raises(NotFound):
        guess_ode(geometric(30), 2, 0)
    rng = random.Random(20)
    noise = UniSeries(40, [Fraction(rng.randint(1, 9)) for _ in range(41)])
    with pytest.raises(NotFound):
        guess_ode(noise, 2, 2)


def test_guess_notfound_carries_bounds():
    with pytest.raises(NotFound) as exc:
        guess_ode(geometric(30), 2, 0)
    assert str(exc.value) == "no operator within order 2 and degree 0"
    assert (exc.value.max_order, exc.value.max_degree) == (2, 0)


def test_guess_insufficient_order():
    with pytest.raises(InsufficientOrder):
        guess_ode(geometric(10), 2, 2)


def test_guess_batyrev1_from_diagonal():
    s = h2_diagonal(50)
    assert s.coeffs[:4] == [1, 12, 900, 94080]
    assert s.coeffs[6] == 260453217024
    rep = guess_ode(s, 4, 2)
    assert rep.ode == UniODE.from_theta(ThetaOp.from_text(BATYREV1))
    assert rep.checked_margin >= 10
    with pytest.raises(NotFound):
        guess_ode(s, 3, 2)
    with pytest.raises(NotFound):
        guess_ode(s, 4, 1)


def test_guess_order_four_restriction():
    s = kdf3_restriction(80)
    assert s.coeffs[:5] == [
        1,
        0,
        Fraction(1, 8),
        Fraction(1, 8),
        Fraction(117, 512),
    ]
    rep = guess_ode(s, 4, 12)
    assert rep.ode == UniODE.from_text(C4_TEXT)
    assert rep.checked_margin >= 10
    with pytest.raises(NotFound):
        guess_ode(s, 3, 12)
    with pytest.raises(NotFound):
        guess_ode(s, 4, 10)
    assert annihilates_series(UniODE.from_text(C4_TEXT), s)


def test_singular_points_batyrev1():
    ode = UniODE.from_theta(ThetaOp.from_text(BATYREV1))
    locus = singular_points(ode)
    assert locus.zero_multiplicity == 3
    assert locus.rational_points == (
        (Fraction(-1, 27), 1),
        (Fraction(1, 216), 1),
    )
    assert locus.other_factors == ()
    assert locus.complete
    assert poly_gcd(ode.head, mp_t("1-216*t")) == mp_t("216*t-1")
    assert poly_gcd(ode.head, mp_t("1+27*t")) == mp_t("27*t+1")


def test_singular_points_geometric():
    locus = singular_points(UniODE.from_text(GEOMETRIC_TEXT))
    assert locus.zero_multiplicity == 0
    assert locus.rational_points == ((Fraction(1), 1),)


def test_singular_points_irreducible_residual():
    ode = UniODE("t", [mp_t("1"), mp_t("t^2+t+1")])
    locus = singular_points(ode)
    assert locus.rational_points == ()
    assert locus.other_factors == ((mp_t("t^2+t+1"), 1),)
    assert locus.complete


def test_slope_restriction_head_contains_curve_section():
    b = expand_from_ratios(hyper_from_spec(H2), 90)
    s = restrict(b, rf_t("t"), rf_t("2*t"), 90)
    rep = guess_ode(s, 6, 8)
    cand = mp_xy("3^9*(x+y)^3-3^7*(x^2+y^2-7*x*y)+3^4*(x+y)-1")
    tvar = MPoly.variable(T, "t")
    section = cand.substitute({"x": tvar, "y": tvar * Fraction(2)}, T)
    assert poly_gcd(rep.ode.head, section) == section
    assert section == mp_t("531441*t^3+19683*t^2+243*t-1")


def test_local_basis_exponential():
    ode = UniODE.from_text("ode-var: t\n0 : -1\n1 : 1\n")
    (sol,) = local_basis(ode, 0, 10)
    assert sol.coeffs == [Fraction(1, math.factorial(k)) for k in range(11)]


def test_local_basis_cos_sin_wronskian():
    ode = UniODE.from_text("ode-var: t\n0 : 1\n2 : 1\n")
    cos_s, sin_s = local_basis(ode, 0, 12)
    assert cos_s.coeffs[:5] == [1, 0, Fraction(-1, 2), 0, Fraction(1, 24)]
    assert sin_s.coeffs[:5] == [0, 1, 0, Fraction(-1, 6), 0]
    w = cos_s * sin_s.derivative() - cos_s.derivative() * sin_s
    assert w.coeffs[0] == 1
    assert not any(w.coeffs[1:])


def test_local_basis_rejects_singular_point():
    with pytest.raises(SingularPoint):
        local_basis(UniODE.from_text(GEOMETRIC_TEXT), 1, 5)
    with pytest.raises(SingularPoint):
        local_basis(UniODE.from_text(C4_TEXT), 0, 5)


def test_local_basis_backsubstitution():
    ode = UniODE.from_text(C4_TEXT)
    t0 = Fraction(1, 10)
    sols = local_basis(ode, t0, 30)
    assert len(sols) == 4
    shifted = UniODE("t", [p.shift("t", t0) for p in ode.coeffs])
    for k, sol in enumerate(sols):
        assert sol.coeffs[:4] == [Fraction(1 if j == k else 0) for j in range(4)]
        assert not any(shifted.apply(sol).coeffs)


def test_abel_identity_for_order_two():
    ode = UniODE.from_text(L2_TEXT)
    t0 = Fraction(1, 7)
    u1, u2 = local_basis(ode, t0, 40)
    w = u1 * u2.derivative() - u1.derivative() * u2
    p1 = [c.constant_value() for c in ode.coeffs[1].shift("t", t0).as_univar("t")]
    p2 = [c.constant_value() for c in ode.coeffs[2].shift("t", t0).as_univar("t")]
    lhs = w.derivative() * UniSeries(38, (p2 + [Fraction(0)] * 39)[:39])
    rhs = w.truncate(38) * UniSeries(38, (p1 + [Fraction(0)] * 39)[:39])
    total = lhs + rhs
    assert not any(total.coeffs)


def test_annihilates_known_list():
    entries = [
        1,
        8,
        168,
        5120,
        190120,
        7939008,
        357713664,
        16993726464,
        839358285480,
    ]
    coeffs = [
        sum(
            math.comb(n, k) ** 2 * math.comb(2 * k, k) * math.comb(2 * n - 2 * k, n - k)
            for k in range(n + 1)
        )
        * math.comb(2 * n, n)
        for n in range(31)
    ]
    assert coeffs[:9] == entries
    ode = UniODE.from_theta(ThetaOp.from_text(DEFBATYREV2))
    assert annihilates_series(ode, UniSeries(30, [Fraction(c) for c in coeffs]))


def test_annihilates_trivial_cases():
    ode = UniODE.from_text(GEOMETRIC_TEXT)
    assert annihilates_series(ode, geometric(20))
    ramp = UniSeries(20, [Fraction(k + 1) for k in range(21)])
    assert not annihilates_series(ode, ramp)
    with pytest.raises(InsufficientOrder):
        annihilates_series(ode, geometric(5))


def brute_min_joint_order(polys, max_order, max_degree, window):
    """Exhaustive minimal joint annihilator order for polynomial targets."""
    for r in range(1, max_order + 1):
        rows = []
        for poly in polys:
            ders = [list(poly)]
            for _ in range(r):
                prev = ders[-1]
                ders.append([prev[k] * k for k in range(1, len(prev))] or [0])
            for k in range(window):
                row = []
                for j in range(r + 1):
                    dj = ders[j]
                    for i in range(max_degree + 1):
                        m = k - i
                        row.append(
                            Fraction(dj[m]) if 0 <= m < len(dj) else Fraction(0)
                        )
                rows.append(row)
        if nullspace(rows):
            return r
    return None


def test_exterior_square_euler_matches_bruteforce():
    basis = [[1], [0, 1], [0, 0, 0, 1], [0, 0, 0, 0, 1]]

    def deriv(p):
        return [p[k] * k for k in range(1, len(p))] or [0]

    def mul(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
        return out

    def sub(a, b):
        n = max(len(a), len(b))
        return [
            (a[k] if k < len(a) else 0) - (b[k] if k < len(b) else 0)
            for k in range(n)
        ]

    wrons = []
    for i in range(4):
        for j in range(i + 1, 4):
            wrons.append(sub(mul(basis[i], deriv(basis[j])), mul(basis[j], deriv(basis[i]))))
    oracle = brute_min_joint_order(wrons, 6, 8, 30)
    assert oracle == 5
    euler = UniODE.from_theta(
        ThetaOp.from_text("op-vars: t\n0 : tt*(tt-1)*(tt-3)*(tt-4)\n")
    )
    assert exterior_square_order(euler, 60) == oracle


def test_exterior_square_order_two_is_one():
    assert exterior_square_order(UniODE.from_text(L2_TEXT), 60) == 1
    with pytest.raises(ValueError):
        exterior_square_order(UniODE.from_text(GEOMETRIC_TEXT), 40)


def test_exterior_square_order_four_restriction():
    assert exterior_square_order(UniODE.from_text(C4_TEXT), 200) == 5


def test_exterior_square_unstable_window():
    with pytest.raises(Unstable):
        exterior_square_order(UniODE.from_text(C4_TEXT), 150)


def test_square_order_window_disagreement_carries_orders():
    with pytest.raises(Unstable) as exc:
        symmetric_square_order(UniODE.from_text(C3_TEXT), 80)
    assert str(exc.value) == "order 6 at N=80 but 5 at N=90"
    assert exc.value.windows == (80, 90)
    assert exc.value.orders == (6, 5)


def test_symmetric_square_small_cases():
    d2 = UniODE("t", [mp_t("0"), mp_t("0"), mp_t("1")])
    assert symmetric_square_order(d2, 60) == 3
    harmonic = UniODE.from_text("ode-var: t\n0 : 1\n2 : 1\n")
    assert symmetric_square_order(harmonic, 60) == 3


def test_symmetric_square_order_three_restriction():
    assert symmetric_square_order(UniODE.from_text(C3_TEXT), 100) == 5


def test_order_three_is_symmetric_square_of_order_two():
    l2 = UniODE.from_text(L2_TEXT)
    c3 = UniODE.from_text(C3_TEXT)
    t0 = Fraction(1, 7)
    u1, u2 = local_basis(l2, t0, 40)
    shifted = UniODE("t", [p.shift("t", t0) for p in c3.coeffs])
    for prod in (u1 * u1, u1 * u2, u2 * u2):
        assert annihilates_series(shifted, prod)


def test_guess_random_rational_functions():
    rng = random.Random(7)
    for _ in range(100):
        num = [Fraction(rng.randint(-5, 5)) for _ in range(rng.randint(1, 4))]
        den = [Fraction(1)] + [
            Fraction(rng.randint(-5, 5)) for _ in range(rng.randint(0, 3))
        ]
        if not any(num):
            num = [Fraction(1)]
        poly_n = MPoly.from_univar("t", [MPoly.const(T, c) for c in num])
        poly_d = MPoly.from_univar("t", [MPoly.const(T, c) for c in den])
        s = UniSeries(40, ratfun_series(RatFun(poly_n, poly_d), 40))
        rep = guess_ode(s, 1, 6)
        assert rep.checked_margin >= 10
        assert not any(rep.ode.apply(s).coeffs)


def _guarded_stream(primes, limit=10**4):
    """A prime stream cycling through `primes` that fails after `limit` draws."""

    def stream():
        for drawn, p in enumerate(itertools.cycle(primes)):
            if drawn >= limit:
                raise AssertionError("prime loop drew %d primes" % limit)
            yield p

    return stream


def test_guess_ode_prime_retries_are_bounded(monkeypatch):
    p = 2**61 - 1
    monkeypatch.setattr(odeguess, "_prime_stream", _guarded_stream([p]))
    s = UniSeries(40, [Fraction(1, p)] + [Fraction(1)] * 40)
    with pytest.raises(RuntimeError):
        guess_ode(s, 1, 2)


def test_square_order_prime_retries_are_bounded(monkeypatch):
    # The base point is t0 = 1/7, so p_0(t0 + s) = 1/7 + s cannot be
    # reduced modulo 7.
    ode = UniODE.from_text("ode-var: t\n0 : t\n2 : 1\n")
    monkeypatch.setattr(odeguess, "_prime_stream", _guarded_stream([7]))
    with pytest.raises(RuntimeError):
        exterior_square_order(ode, 30)

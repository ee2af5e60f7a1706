import contextlib
import itertools
import math
import random
from fractions import Fraction

import pytest

from hornsing import odeguess
from hornsing.exact import MPoly, RatFun, ZeroInput, _is_probable_prime, nullspace, poly_gcd
from hornsing.exprio import expr_to_mpoly, expr_to_ratfun, parse_expr, parse_spec_text
from hornsing.odeguess import (
    GuessReport,
    NotFound,
    SingularPoint,
    UniODE,
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
from hornsing.theta import ThetaOp, theta_from_dform

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
    assert UniODE.from_theta(theta_from_dform(ode.var, list(ode.coeffs))) == ode


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


def test_local_basis_rejects_n_below_order_minus_one():
    ode = UniODE.from_text("ode-var: t\n0 : 1\n3 : 1\n")
    for N in (0, 1):
        with pytest.raises(InsufficientOrder) as err:
            local_basis(ode, 0, N)
        assert (err.value.needed, err.value.have) == (2, N)
    sols = local_basis(ode, 0, 2)
    assert [s.coeffs for s in sols] == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


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
    rhs = w * UniSeries(38, (p1 + [Fraction(0)] * 39)[:39])
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


@pytest.mark.parametrize(
    "call, message, needed, have",
    [
        (
            lambda: UniODE.from_text(GEOMETRIC_TEXT).apply(UniSeries(0, [Fraction(1)])),
            "series order 0 below operator order 1",
            1,
            0,
        ),
        (
            lambda: guess_ode(geometric(10), 2, 2),
            "series order 10, need at least 21 for bounds (2, 2)",
            21,
            10,
        ),
        (
            lambda: annihilates_series(UniODE.from_text(GEOMETRIC_TEXT), geometric(5)),
            "series order 5, need 12",
            12,
            5,
        ),
    ],
    ids=["apply", "guess_ode", "annihilates_series"],
)
def test_insufficient_order_attributes(call, message, needed, have):
    with pytest.raises(InsufficientOrder) as info:
        call()
    assert (info.value.needed, info.value.have) == (needed, have)
    assert str(info.value) == message


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


@pytest.mark.parametrize("N", [10, 150, 165, None])
def test_exterior_square_order_c4_does_not_depend_on_window(N):
    # a window-based guess raised or answered 6 at these N; the order is 5
    args = () if N is None else (N,)
    assert exterior_square_order(UniODE.from_text(C4_TEXT), *args) == 5


def test_square_order_certificate_skips_points_where_rank_drops():
    # The head of C4 vanishes at t = 0, 1 and 2, so v_0 and v_1 = p_4 e_02
    # are dependent there and the first point giving rank 2 is t = 3.
    order, points, bound = odeguess._square_order(UniODE.from_text(C4_TEXT), True)
    assert (order, points, bound) == (5, [0, 3, 3, 3, 3], 209)
    # A head vanishing at t = 0..9 pushes the rank-2 witness to t = 10.
    head = MPoly.const(T, 1)
    for k in range(10):
        head = head * mp_t("t - %d" % k)
    ode = UniODE("t", [mp_t("t"), mp_t("1"), head])
    order, points, bound = odeguess._square_order(ode, False)
    assert (order, points[:2], bound) == (3, [0, 10], None)


def _random_int_poly(rng, degree):
    return MPoly.from_univar(
        "t", [MPoly.const(T, rng.randint(-9, 9)) for _ in range(degree + 1)]
    )


def test_square_orders_of_random_operators():
    # Orders that hold for every operator: wedges of an order-2 operator span
    # one line, products of its solutions three, wedges of an order-3 one three.
    rng = random.Random(31)
    for _ in range(20):
        for order in (2, 3):
            coeffs = [_random_int_poly(rng, rng.randint(0, 3)) for _ in range(order)]
            head = _random_int_poly(rng, rng.randint(0, 3))
            if head.is_zero():
                head = mp_t("1")
            ode = UniODE("t", coeffs + [head])
            if order == 2:
                assert exterior_square_order(ode) == 1
                assert symmetric_square_order(ode) == 3
            else:
                assert exterior_square_order(ode) == 3


def test_symmetric_square_small_cases():
    d2 = UniODE("t", [mp_t("0"), mp_t("0"), mp_t("1")])
    assert symmetric_square_order(d2, 60) == 3
    harmonic = UniODE.from_text("ode-var: t\n0 : 1\n2 : 1\n")
    assert symmetric_square_order(harmonic, 60) == 3


def test_symmetric_square_order_three_restriction():
    assert symmetric_square_order(UniODE.from_text(C3_TEXT), 100) == 5


@pytest.mark.parametrize("N", [80, None])
def test_symmetric_square_order_c3_does_not_depend_on_window(N):
    args = () if N is None else (N,)
    assert symmetric_square_order(UniODE.from_text(C3_TEXT), *args) == 5


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


def _guarded_stream(primes, limit):
    """A prime stream cycling through `primes` that fails after `limit` draws."""

    def stream():
        for drawn, p in enumerate(itertools.cycle(primes)):
            if drawn >= limit:
                raise AssertionError("prime loop drew %d primes" % limit)
            yield p

    return stream


def _key_spy(monkeypatch, max_degree):
    """Record the key (r*, f) of each degree pass guess_ode runs."""
    keys = []
    reader = odeguess._first_null_vector

    def spy(rows, ncols, p):
        found = reader(rows, ncols, p)
        keys.append((ncols // (max_degree + 1) - 1, found[0]))
        return found

    monkeypatch.setattr(odeguess, "_first_null_vector", spy)
    return keys


def test_guess_ode_falls_back_to_nullspace(monkeypatch):
    # Three small primes leave a modulus near 10^6, too small to reconstruct
    # the coefficient 1000003 of the operator, so every modular candidate is
    # rejected and the exact nullspace of the (r*, d*) rows decides.
    s = _binomial_series(40, 1, 1000003, 0)
    calls = []

    def spy(matrix):
        calls.append(matrix)
        return nullspace(matrix)

    monkeypatch.setattr(odeguess, "_MAX_PRIMES", 3)
    monkeypatch.setattr(odeguess, "_prime_stream", _guarded_stream([101, 103, 107], 3))
    monkeypatch.setattr(odeguess, "nullspace", spy)
    rep = guess_ode(s, 2, 3)
    ode, margin = _fraction_fit(s, 2, 3)
    assert (rep.ode, rep.checked_margin) == (ode, margin)
    bound = math.isqrt(101 * 103 * 107 // 2)
    assert max(abs(c) for p in ode.coeffs for c in p.terms.values()) > bound
    r = ode.order
    d = (s.order + 1 - margin) // (r + 1) - 1
    den = math.lcm(*(c.denominator for c in s.coeffs))
    ints = [int(c * den) for c in s.coeffs]
    want = [
        [ints[n - a] * (n - a) ** i if n >= a else 0 for a in range(d + 1) for i in range(r + 1)]
        for n in range(s.order + 1)
    ]
    assert calls == [want]
    assert all(type(x) is int for row in calls[0] for x in row)


def test_guess_ode_drops_unlucky_primes(monkeypatch):
    # C(2k, k)^2 / scale^k has an order-2 operator whose head carries the
    # 41-bit scale, so two 61-bit primes are needed to reconstruct it.  Search
    # the small primes for one whose key (r*, f) is below the true key, then
    # run a stream of it, P61, it again and the next 61-bit prime: its first
    # residues are dropped when P61 raises the key, its second draw is
    # skipped, and the second 61-bit prime is combined with P61 by CRT.
    scale = 2**40 + 15
    s = _binomial_series(40, 2, scale, 0)
    p2 = next(itertools.islice(odeguess._prime_stream(), 1, None))
    keys = _key_spy(monkeypatch, 3)
    monkeypatch.setattr(odeguess, "_MAX_PRIMES", 1)

    def key_of(p):
        keys.clear()
        monkeypatch.setattr(odeguess, "_prime_stream", _guarded_stream([p], 1))
        # One prime leaves the exact nullspace to decide, which may find none.
        with contextlib.suppress(RuntimeError):
            guess_ode(s, 2, 3)
        return keys[0]

    true_key = key_of(P61)
    q = next(q for q in range(3, 200) if _is_probable_prime(q) and key_of(q) < true_key)
    unlucky_key = key_of(q)
    keys.clear()
    monkeypatch.setattr(odeguess, "_MAX_PRIMES", 4)
    monkeypatch.setattr(odeguess, "_prime_stream", _guarded_stream([q, P61, q, p2], 4))
    monkeypatch.setattr(odeguess, "nullspace", None)  # the CRT must decide, not the fallback
    rep = guess_ode(s, 2, 3)
    assert keys == [unlucky_key, true_key, unlucky_key, true_key]
    ode, margin = _fraction_fit(s, 2, 3)
    assert (rep.ode, rep.checked_margin) == (ode, margin)
    assert scale in ode.head.terms.values()


def test_guess_ode_prime_retries_are_bounded(monkeypatch):
    p = 2**61 - 1
    monkeypatch.setattr(odeguess, "_prime_stream", _guarded_stream([p], odeguess._MAX_PRIMES))
    s = UniSeries(40, [Fraction(1, p)] + [Fraction(1)] * 40)
    with pytest.raises(RuntimeError) as info:
        guess_ode(s, 1, 2)
    assert str(info.value) == "no usable prime among the first %d" % odeguess._MAX_PRIMES
    assert info.value.primes == [p] * odeguess._MAX_PRIMES


P61 = 2**61 - 1


def _fraction_fit(s, max_order, max_degree, var="t"):
    """The fit done over Q: exact nullspaces of the Fraction rows pick the
    order r*, then the degree d*, then the canonical null vector."""

    def rows(r, d):
        return [
            [
                s.coeffs[n - a] * (n - a) ** i if n >= a else Fraction(0)
                for a in range(d + 1)
                for i in range(r + 1)
            ]
            for n in range(s.order + 1)
        ]

    r_star = next(r for r in range(max_order + 1) if nullspace(rows(r, max_degree)))
    d_star = next(d for d in range(max_degree + 1) if nullspace(rows(r_star, d)))
    vec = odeguess._primitive(nullspace(rows(r_star, d_star))[0])
    terms = []
    for a in range(d_star + 1):
        q = MPoly(("t" + var,), {(i,): vec[a * (r_star + 1) + i] for i in range(r_star + 1)})
        if not q.is_zero():
            terms.append(((a,), q))
    margin = s.order + 1 - (r_star + 1) * (d_star + 1)
    return UniODE.from_theta(ThetaOp((var,), terms)), margin


def _binomial_series(order, power, scale, shift):
    """sum_k (C(2k, k)^power / scale^k + shift) t^k, exact through t^order."""
    return UniSeries(
        order,
        [Fraction(math.comb(2 * k, k) ** power, scale**k) + shift for k in range(order + 1)],
    )


def _large_denominator_cases():
    rng = random.Random(14)
    for _ in range(3):
        scale = rng.randrange(2**20, 2**24) | 1
        yield _binomial_series(40, 1, scale, 0), 2, 3
        yield _binomial_series(40, 2, scale, 0), 2, 3
        shift = Fraction(rng.randrange(1, 50), rng.randrange(2**40, 2**41))
        yield _binomial_series(40, 1, scale, shift), 2, 3
    for _ in range(3):
        den = [Fraction(rng.randrange(2**60, 2**61))] + [
            Fraction(rng.randint(-9, 9)) for _ in range(2)
        ]
        num = [Fraction(rng.randint(-9, 9)) for _ in range(3)]
        num[0] = num[0] or Fraction(1)
        poly_n = MPoly.from_univar("t", [MPoly.const(T, c) for c in num])
        poly_d = MPoly.from_univar("t", [MPoly.const(T, c) for c in den])
        yield UniSeries(40, ratfun_series(RatFun(poly_n, poly_d), 40)), 1, 5


def test_guess_ode_matches_fraction_fit_on_large_denominators():
    for s, max_order, max_degree in _large_denominator_cases():
        assert math.lcm(*(c.denominator for c in s.coeffs)).bit_length() > 200
        rep = guess_ode(s, max_order, max_degree)
        ode, margin = _fraction_fit(s, max_order, max_degree)
        assert rep.ode == ode
        assert rep.checked_margin == margin


def test_guess_ode_fits_over_the_first_prime_dividing_the_denominators(monkeypatch):
    base = _binomial_series(40, 2, 1, 0)
    want = guess_ode(base, 2, 3)
    s = UniSeries(40, [c * Fraction(7, P61**2) for c in base.coeffs])
    # The prime loop may draw P61 once: a second draw fails the test.
    monkeypatch.setattr(odeguess, "_prime_stream", _guarded_stream([P61], 1))
    rep = guess_ode(s, 2, 3)
    assert (rep.ode, rep.checked_margin) == (want.ode, want.checked_margin)
    assert (rep.ode, rep.checked_margin) == _fraction_fit(s, 2, 3)


def _apply_fraction_loop(ode, s):
    """UniODE.apply as a Fraction loop over the operator's coefficient lists."""
    out_ord = s.order - ode.order
    out = [Fraction(0)] * (out_ord + 1)
    for j, pj in enumerate(ode.coeff_lists()):
        der = [s.coeffs[m + j] * math.perm(m + j, j) for m in range(out_ord + 1)]
        for i, ci in enumerate(pj):
            if not ci:
                continue
            for k in range(i, out_ord + 1):
                out[k] += ci * der[k - i]
    return UniSeries(out_ord, out)


def test_apply_matches_fraction_loop_on_large_denominators():
    rng = random.Random(1414)
    for _ in range(40):
        order = rng.randint(1, 4)
        coeffs = [
            MPoly.from_univar(
                "t",
                [
                    MPoly.const(T, Fraction(rng.randint(-30, 30), rng.randint(1, 12)))
                    for _ in range(rng.randint(1, 8))
                ],
            )
            for _ in range(order + 1)
        ]
        if coeffs[-1].is_zero():
            coeffs[-1] = MPoly.const(T, 1)
        ode = UniODE("t", coeffs)
        n = rng.randint(ode.order, 30)
        s = UniSeries(
            n,
            [
                Fraction(rng.randint(-(10**40), 10**40), rng.randint(1, 10**40))
                if rng.random() < 0.8
                else Fraction(0)
                for _ in range(n + 1)
            ],
        )
        got = ode.apply(s)
        assert got == _apply_fraction_loop(ode, s)
        assert all(type(c) is Fraction for c in got.coeffs)

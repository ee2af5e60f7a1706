import itertools
import math
import random
from fractions import Fraction

import pytest

from hornsing.exact import MPoly, _term_sum, rref
from hornsing.exprio import parse_expr, expr_to_mpoly, parse_operator_text, parse_spec_text
from hornsing.series import BiSeries, InsufficientOrder, UniSeries, expand_from_ratios, hyper_from_spec
from hornsing.theta import (
    _int_value,
    _scaled_partials,
    LogSeries,
    PdeSystem,
    ThetaOp,
    annihilates,
    apply,
    dform_from_theta,
    log_basis,
    theta_from_dform,
)

TXY = ("tx", "ty")

PICARD_X = """op-vars: x y
0 0 : tx^3
1 0 : -(3*tx+3*ty+1)*(3*tx+3*ty+2)*(3*tx+3*ty+3)
"""

PICARD_Y = """op-vars: x y
0 0 : ty^3
0 1 : -(3*tx+3*ty+1)*(3*tx+3*ty+2)*(3*tx+3*ty+3)
"""

PDE13_X = """op-vars: x y
0 0 : tx^3
1 0 : -4*(2*tx+1)*(tx+ty+1)*(2*tx+2*ty+1)
"""

PDE13_Y = """op-vars: x y
0 0 : ty^3
0 1 : -4*(2*ty+1)*(tx+ty+1)*(2*tx+2*ty+1)
"""

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


def _op(text):
    return ThetaOp(*parse_operator_text(text))


def picard_system():
    return PdeSystem([_op(PICARD_X), _op(PICARD_Y)])


def pde13_system():
    return PdeSystem([_op(PDE13_X), _op(PDE13_Y)])


def theta_x():
    tx = MPoly.variable(TXY, "tx")
    return ThetaOp(("x", "y"), [((0, 0), tx)])


def test_apply_basics():
    one = BiSeries(3, {(0, 0): 1})
    assert apply(theta_x(), one) == BiSeries(3, {})
    x = BiSeries(3, {(1, 0): 1})
    assert apply(theta_x(), x) == BiSeries(3, {(1, 0): 1})


def test_apply_picard_annihilates_h2():
    b = expand_from_ratios(hyper_from_spec(H2), 14)
    ox = _op(PICARD_X)
    out = apply(ox, b)
    assert out.order == 13
    assert out.coeffs == {}
    assert annihilates(picard_system(), b)


def test_apply_insufficient_margin():
    b = expand_from_ratios(hyper_from_spec(H2), 10)
    with pytest.raises(InsufficientOrder) as info:
        annihilates(picard_system(), b)
    assert (info.value.needed, info.value.have) == (11, 10)
    assert str(info.value) == "need series order >= 11 for a trustworthy annihilation check"


@pytest.mark.parametrize(
    "call, needed, have",
    [
        (
            lambda: apply(_op(PICARD_X), expand_from_ratios(hyper_from_spec(H2), 0)),
            1,
            0,
        ),
        (
            lambda: apply(ThetaOp(("x",), [((2,), MPoly.variable(("tx",), "tx"))]), UniSeries(1, [1, 1])),
            2,
            1,
        ),
    ],
    ids=["bivariate", "univariate"],
)
def test_apply_insufficient_order_attributes(call, needed, have):
    with pytest.raises(InsufficientOrder) as info:
        call()
    assert (info.value.needed, info.value.have) == (needed, have)
    assert str(info.value) == "series order below the operator shift"


def test_theta_x_does_not_kill_geometric():
    geo = BiSeries(10, {(n, m): 1 for n in range(11) for m in range(11 - n)})
    assert not annihilates(PdeSystem([theta_x()]), geo)


def test_pde13_annihilates_bat16():
    b = expand_from_ratios(hyper_from_spec(BAT16), 14)
    assert annihilates(pde13_system(), b)


def rand_biseries(rng, order):
    return BiSeries(
        order,
        {
            (n, m): Fraction(rng.randrange(-20, 21))
            for n in range(order + 1)
            for m in range(order + 1 - n)
            if rng.random() < 0.8
        },
    )


def rand_theta_op(rng):
    terms = []
    for _ in range(rng.randrange(1, 4)):
        exps = (rng.randrange(0, 3), rng.randrange(0, 3))
        q = MPoly.zero(TXY)
        for _ in range(rng.randrange(1, 4)):
            e = (rng.randrange(0, 3), rng.randrange(0, 3))
            q = q + MPoly(TXY, {e: Fraction(rng.randrange(-5, 6))})
        if not q.is_zero():
            terms.append((exps, q))
    if not terms:
        tx = MPoly.variable(TXY, "tx")
        terms = [((0, 0), tx)]
    return ThetaOp(("x", "y"), terms)


def test_recurrence_matches_apply_random():
    rng = random.Random(555)
    for _ in range(100):
        op = rand_theta_op(rng)
        s = rand_biseries(rng, rng.randrange(op.max_shift, op.max_shift + 5))
        out = apply(op, s)
        # the lattice relation: sum Q_{a,b}(n-a, m-b) c_{n-a,m-b} at (n, m)
        for n in range(out.order + 1):
            for m in range(out.order + 1 - n):
                total = Fraction(0)
                for (a, b), q in op.terms:
                    if n - a < 0 or m - b < 0:
                        continue
                    total += q.evaluate(
                        {"tx": Fraction(n - a), "ty": Fraction(m - b)}
                    ) * s.coeffs.get((n - a, m - b), 0)
                assert total == out.coeffs.get((n, m), 0)


def test_apply_linear_random():
    rng = random.Random(808)
    for _ in range(100):
        op = rand_theta_op(rng)
        order = rng.randrange(op.max_shift + 1, op.max_shift + 5)
        s = rand_biseries(rng, order)
        t = rand_biseries(rng, order)
        c = Fraction(rng.randrange(-5, 6), rng.randrange(1, 4))
        combo = BiSeries(
            order,
            {
                key: c * s.coeffs.get(key, 0) + t.coeffs.get(key, 0)
                for key in set(s.coeffs) | set(t.coeffs)
            },
        )
        left = apply(op, combo)
        right_coeffs = {}
        a1 = apply(op, s)
        a2 = apply(op, t)
        for key in set(a1.coeffs) | set(a2.coeffs):
            right_coeffs[key] = c * a1.coeffs.get(key, 0) + a2.coeffs.get(key, 0)
        assert left == BiSeries(left.order, right_coeffs)


def test_log_basis_picard_dimension():
    dim, basis = log_basis(picard_system(), 8, 2)
    assert dim == 9
    dim14, basis14 = log_basis(picard_system(), 14, 2)
    assert dim14 == 9
    lead_lnx = [
        e
        for e in basis14
        if max(e.parts, key=lambda li: (sum(li), li)) == (1, 0)
    ]
    assert len(lead_lnx) == 1
    e = lead_lnx[0]
    assert e.parts[(1, 0)].coeffs.get((0, 0), 0) == 1
    analytic = e.parts[(0, 0)]
    assert analytic.coeffs.get((0, 0), 0) == 0
    assert analytic.coeffs.get((1, 0), 0) == 15
    assert analytic.coeffs.get((0, 1), 0) == 33


def test_log_basis_univariate_double_root():
    tx = MPoly.variable(("tx",), "tx")
    sys = PdeSystem([ThetaOp(("x",), [((0,), tx**2)])])
    dim, basis = log_basis(sys, 5, 2)
    assert dim == 2
    supports = sorted(tuple(sorted(e.parts)) for e in basis)
    assert supports == [(((0,),)), (((1,),))]
    for e in basis:
        for part in e.parts.values():
            assert part.coeffs == [1, 0, 0, 0, 0, 0]


def test_log_basis_insufficient_order_carries_dims():
    tx = MPoly.variable(("tx",), "tx")
    sys = PdeSystem([ThetaOp(("x",), [((0,), tx - 3)])])
    with pytest.raises(InsufficientOrder) as info:
        log_basis(sys, 3, 0)
    assert info.value.dims == [0, 0, 0, 1]
    assert (info.value.needed, info.value.have) == (None, None)
    assert str(info.value) == "solution dimension still moving at order 3: [0, 0, 1]"
    assert log_basis(sys, 5, 0)[0] == 1


def test_log_basis_univariate_simple():
    tx = MPoly.variable(("tx",), "tx")
    sys = PdeSystem([ThetaOp(("x",), [((0,), tx)])])
    dim, basis = log_basis(sys, 5, 2)
    assert dim == 1
    assert sorted(basis[0].parts) == [(0,)]


def c3_dform():
    T = ("t",)
    texts = [
        "t*(t-2)",
        "2*(t-1)*(13*t^2-16*t+4)",
        "12*t*(t-1)^2*(3*t-2)",
        "8*t^2*(t-1)^3",
    ]
    return [expr_to_mpoly(parse_expr(s, T), T) for s in texts]


def _log_terms(ls):
    """A LogSeries as {(log powers, monomial): coefficient}, zeros dropped."""
    out = {}
    for li, s in ls.parts.items():
        if isinstance(s, BiSeries):
            items = s.coeffs.items()
        else:
            items = (((k,), c) for k, c in enumerate(s.coeffs))
        out.update(((li, mono), c) for mono, c in items if c)
    return out


def _theta_on_logs(f, axis):
    """theta_v(v^n ln^i v) = n v^n ln^i v + i v^n ln^(i-1) v, v the axis-th variable."""
    out = {}
    for (li, mono), c in f.items():
        for key, w in (
            ((li, mono), mono[axis]),
            ((li[:axis] + (li[axis] - 1,) + li[axis + 1 :], mono), li[axis]),
        ):
            if w:
                out[key] = out.get(key, 0) + w * c
    return {k: c for k, c in out.items() if c}


def apply_to_log_series(op, ls):
    """op applied to ls, as {(log powers, monomial): coefficient}, kept through
    total degree ls.order - op.max_shift, the part the truncation determines."""
    valid = ls.order - op.max_shift
    powers = {(0,) * len(op.vars): _log_terms(ls)}

    def theta_power(exps):
        if exps not in powers:
            axis = next(k for k, e in enumerate(exps) if e)
            lower = exps[:axis] + (exps[axis] - 1,) + exps[axis + 1 :]
            powers[exps] = _theta_on_logs(theta_power(lower), axis)
        return powers[exps]

    out = {}
    for shift, q in op.terms:
        for texps, c in q.terms.items():
            for (li, mono), v in theta_power(texps).items():
                target = tuple(a + b for a, b in zip(mono, shift))
                if sum(target) <= valid:
                    out[(li, target)] = out.get((li, target), 0) + c * v
    return {k: c for k, c in out.items() if c}


def test_apply_to_log_series_reference():
    # theta_x (x^2 ln x) = 2 x^2 ln x + x^2, and x * theta_x^2 (ln x) = 0.
    tx = MPoly.variable(("tx",), "tx")
    ls = LogSeries(4, {(1,): UniSeries(4, [0, 0, 1, 0, 0])})
    assert apply_to_log_series(ThetaOp(("x",), [((0,), tx)]), ls) == {
        ((1,), (2,)): 2,
        ((0,), (2,)): 1,
    }
    ls = LogSeries(4, {(1,): UniSeries(4, [1, 0, 0, 0, 0])})
    assert apply_to_log_series(ThetaOp(("x",), [((1,), tx**2)]), ls) == {}


def horn_shift_system():
    """theta_x^3 (theta_x - 3) + x and theta_y^2 (theta_y - 2) + y, a
    Horn-type system (a theta polynomial plus one shift term in each
    variable).  It is the only case here where log_basis substitutes a pivot
    into an unknown that holds other parameters, some of which cancel."""
    tx, ty = (MPoly.variable(TXY, v) for v in TXY)
    one = MPoly.const(TXY, 1)
    return PdeSystem([
        ThetaOp(("x", "y"), [((0, 0), tx**3 * (tx - 3)), ((1, 0), one)]),
        ThetaOp(("x", "y"), [((0, 0), ty**2 * (ty - 2)), ((0, 1), one)]),
    ])


def _log_basis_cases():
    tx = MPoly.variable(("tx",), "tx")
    c3 = theta_from_dform("t", c3_dform())
    return [
        ("picard", picard_system(), 10, 2, 9),
        ("pde13", pde13_system(), 10, 2, 9),
        ("horn_shift", horn_shift_system(), 4, 2, 9),
        ("double_root", PdeSystem([ThetaOp(("x",), [((0,), tx**2)])]), 5, 2, 2),
        ("simple", PdeSystem([ThetaOp(("x",), [((0,), tx)])]), 5, 2, 1),
        ("shifted_root", PdeSystem([ThetaOp(("x",), [((0,), tx - 3)])]), 5, 0, 1),
        ("c3", PdeSystem([c3]), 12, 3, 3),
    ]


@pytest.mark.parametrize("case", _log_basis_cases(), ids=lambda case: case[0])
def test_log_basis_elements_are_annihilated(case):
    _name, sys, order, max_log, expected = case
    dim, basis = log_basis(sys, order, max_log)
    assert dim == len(basis) == expected
    for element in basis:
        assert _log_terms(element)
        for op in sys.ops:
            assert apply_to_log_series(op, element) == {}


def _canonical_columns(sys, order, max_log):
    """(log powers, monomial) keys in log_basis's canonical column order: log
    powers by (total, first power) descending, then monomials graded ascending."""
    width = len(sys.vars)
    logs = sorted(
        itertools.product(range(max_log + 1), repeat=width),
        key=lambda li: (sum(li), li),
        reverse=True,
    )
    if width == 1:
        monos = [(d,) for d in range(order + 1)]
    else:
        monos = [(n, d - n) for d in range(order + 1) for n in range(d + 1)]
    return [(li, mono) for li in logs for mono in monos]


@pytest.mark.parametrize("case", _log_basis_cases(), ids=lambda case: case[0])
def test_log_basis_is_the_reduced_row_echelon_form(case):
    _name, sys, order, max_log, _expected = case
    _dim, basis = log_basis(sys, order, max_log)
    columns = _canonical_columns(sys, order, max_log)
    rows = []
    for element in basis:
        terms = _log_terms(element)
        assert set(terms) <= set(columns)
        entries = [Fraction(terms.get(key, 0)) for key in columns]
        den = math.lcm(*(x.denominator for x in entries))
        ints = [int(x * den) for x in entries]
        g = math.gcd(*ints)
        rows.append([x // g for x in ints])
    reduced, pivots = rref(rows)
    assert reduced == rows
    assert pivots == sorted(set(pivots))
    assert all(row[k] > 0 for row, k in zip(rows, pivots))


def test_log_basis_falling_dimension():
    # theta_x (theta_x - 1) and theta_y (theta_y - 1) + x theta_x: the
    # dimension rises to 3 at degree 1 and falls back to 2, the span of 1 and y
    tx, ty = (MPoly.variable(TXY, v) for v in TXY)
    sys = PdeSystem([
        ThetaOp(("x", "y"), [((0, 0), tx * (tx - 1))]),
        ThetaOp(("x", "y"), [((0, 0), ty * (ty - 1)), ((1, 0), tx)]),
    ])
    with pytest.raises(InsufficientOrder) as info:
        log_basis(sys, 4, 1)
    assert info.value.dims == [1, 3, 3, 2, 2]
    dim, basis = log_basis(sys, 6, 1)
    assert dim == len(basis) == 2
    assert [_log_terms(e) for e in basis] == [
        {((0, 0), (0, 0)): 1},
        {((0, 0), (0, 1)): 1},
    ]
    for element in basis:
        for op in sys.ops:
            assert apply_to_log_series(op, element) == {}


def test_log_basis_ignores_operator_scaling():
    x_op, y_op = picard_system().ops
    scaled = ThetaOp(x_op.vars, [(e, q * Fraction(-2, 3)) for e, q in x_op.terms])
    assert scaled != x_op
    expected = log_basis(picard_system(), 10, 2)
    assert log_basis(PdeSystem([scaled, y_op]), 10, 2) == expected


def test_dform_theta_round_trip_c3():
    coeffs = c3_dform()
    op = theta_from_dform("t", coeffs)
    var, back = dform_from_theta(op)
    assert var == "t"
    t = MPoly.variable(("t",), "t")
    # The conversion premultiplies by t to clear the negative shift.
    assert back == [t * p for p in coeffs]


def test_theta_form_geometric():
    T = ("t",)
    minus_one = MPoly.const(T, -1)
    t = MPoly.variable(T, "t")
    op = theta_from_dform("t", [minus_one, 1 - t])
    tt = MPoly.variable(("tt",), "tt")
    assert op == ThetaOp(("t",), [((0,), tt), ((1,), -tt - 1)])
    geo = UniSeries(12, [1] * 13)
    assert apply(op, geo).coeffs == [Fraction(0)] * 12
    assert annihilates(PdeSystem([op]), geo)


def rand_uni_poly(rng, var, degree):
    T = (var,)
    p = MPoly.zero(T)
    for k in range(degree + 1):
        p = p + MPoly(T, {(k,): Fraction(rng.randrange(-6, 7))})
    return p


def test_theta_dform_round_trips_random():
    rng = random.Random(4040)
    tt = ("tt",)
    for _ in range(100):
        # theta-form -> D-form -> theta-form is the identity.
        terms = []
        for a in range(rng.randrange(1, 3)):
            q = rand_uni_poly(rng, "tt", rng.randrange(0, 3))
            if not q.is_zero():
                terms.append(((a,), q))
        if not terms:
            continue
        op = ThetaOp(("t",), terms)
        if not op.terms:
            continue
        var, coeffs = dform_from_theta(op)
        assert theta_from_dform(var, coeffs) == op
        # D-form -> theta-form -> D-form returns t^lift times the input.
        dcoeffs = []
        for j in range(rng.randrange(1, 4)):
            dcoeffs.append(rand_uni_poly(rng, "t", rng.randrange(0, 3)))
        if all(p.is_zero() for p in dcoeffs):
            continue
        lift = 0
        for j, p in enumerate(dcoeffs):
            if not p.is_zero():
                val = min(e[0] for e in p.terms)
                lift = max(lift, j - val)
        op2 = theta_from_dform("t", dcoeffs)
        _, back = dform_from_theta(op2)
        t = MPoly.variable(("t",), "t")
        expected = [t**lift * p for p in dcoeffs]
        while len(expected) > 1 and expected[-1].is_zero():
            expected.pop()
        while len(back) < len(expected):
            back.append(MPoly.zero(("t",)))
        assert back == expected


def _source_points(width, order):
    return [
        (n,) if width == 1 else (n, d - n)
        for d in range(order + 1)
        for n in range(d + 1)
        if width == 2 or n == d
    ]


@pytest.mark.parametrize(
    "sys, order, max_log",
    [
        (picard_system(), 14, 2),
        (PdeSystem([theta_from_dform("t", c3_dform())]), 12, 3),
    ],
    ids=["picard", "c3"],
)
def test_int_tables_match_evaluate(sys, order, max_log):
    # what log_basis and apply evaluate: each theta polynomial and each
    # scaled partial of the operator, summed from its integer form, against
    # a term-by-term evaluation over Fractions
    theta_vars = sys.ops[0].theta_vars
    width = len(theta_vars)
    points = _source_points(width, order)

    def by_terms(poly, point):
        return sum(
            (c * math.prod(Fraction(x) ** e for x, e in zip(point, exps))
             for exps, c in poly.terms.items()),
            Fraction(0),
        )

    checked = 0
    for op in sys.ops:
        scale = math.lcm(*(c.denominator for _, q in op.terms for c in q.terms.values()))
        for _, q in op.terms:
            l, t, degs = q.int_form()
            partials = _scaled_partials(q * scale, theta_vars, max_log)
            for point in points:
                env = dict(zip(theta_vars, point))
                powers = [[x**k for k in range(d + 1)] for x, d in zip(point, degs)]
                want = by_terms(q, point)
                assert Fraction(_term_sum(t, powers), l) == want == q.evaluate(env)
                for poly in partials.values():
                    assert _int_value(poly, env) == by_terms(poly, point)
                    checked += 1
    assert checked > 100


def test_int_value_rejects_a_non_integral_table():
    tx = MPoly.variable(("tx",), "tx")
    q = tx * Fraction(1, 2) + Fraction(1, 3)
    l, t, degs = q.int_form()
    assert (l, degs) == (6, (1,))
    assert _term_sum(t, ([1, 3],)) == 11
    with pytest.raises(ValueError, match="not integral"):
        _int_value(q, {"tx": 3})
    # integer-valued although its coefficients are not
    assert _int_value(tx * (tx - 1) * Fraction(1, 2), {"tx": 5}) == 10

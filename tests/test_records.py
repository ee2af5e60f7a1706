"""Result records are values: two calls on the same input return equal
records, and the repr of a record names every one of its fields."""

from fractions import Fraction

import pytest

from hornsing.curves import Curve, affine_singular_points, genus_quadratic_fiber, substitute_compare
from hornsing.exact import MPoly, RatFun, factor_univariate
from hornsing.exprio import expr_to_ratfun, parse_expr
from hornsing.horn import horn_curve, horn_limit_maps
from hornsing.ising import chi_catalog, elliptic_audit, kr_wr_report
from hornsing.odeguess import guess_ode, singular_points
from hornsing.series import HyperSpec, UniSeries
from hornsing.theta import PdeSystem, ThetaOp, log_basis

XY = ("x", "y")
X, Y = (MPoly.variable(XY, v) for v in XY)
IDENTITY = {v: RatFun.from_poly(MPoly.variable(XY, v)) for v in XY}
T = MPoly.variable(("t",), "t")


def rf_nm(text):
    return expr_to_ratfun(parse_expr(text, ("n", "m")), ("n", "m"))


def binomial_spec():
    """The double series of (n+m)!/(n! m!)."""
    return HyperSpec(rf_nm("(n+m+1)/(n+1)"), rf_nm("(n+m+1)/(m+1)"))


def geometric_fit():
    return guess_ode(UniSeries(30, [Fraction(1)] * 31), 1, 1)


def log_basis_records():
    tx = MPoly.variable(("tx",), "tx")
    return log_basis(PdeSystem([ThetaOp(("x",), [((0,), tx**2)])]), 5, 2)[1]


# each case returns one record or a list of records
CASES = {
    "factor_univariate": lambda: factor_univariate(
        T**4 * (1 - 54 * T) * (1 + 11 * T - T**2) ** 2 * (T**4 + T + 1), "t"
    ),
    "affine_singular_points": lambda: affine_singular_points(Curve(Y**2 - X**2 * (X + 1))),
    "genus_quadratic_fiber": lambda: genus_quadratic_fiber(Curve(Y**2 - X**3 - X - 1), "y"),
    "substitute_compare": lambda: substitute_compare(
        Curve((X - Y) * (X + 2 * Y)), IDENTITY, Curve((X - Y) * (X - 3 * Y)), IDENTITY
    ),
    "horn_limit_maps": lambda: horn_limit_maps(binomial_spec()),
    "horn_curve": lambda: horn_curve(binomial_spec()),
    "guess_ode": geometric_fit,
    "singular_points": lambda: singular_points(geometric_fit().ode),
    "chi_catalog": lambda: chi_catalog(3, "kr"),
    "kr_wr_report": lambda: kr_wr_report(4),
    "elliptic_audit": lambda: list(elliptic_audit()),
    "log_basis": log_basis_records,
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_records_are_values(name):
    first, second = CASES[name](), CASES[name]()
    records = first if isinstance(first, list) else [first]
    assert records
    assert first == second
    for record in records:
        text = repr(record)
        assert text.startswith(type(record).__name__ + "(")
        for field in record._fields:
            assert field + "=" in text

"""Singular curves of double hypergeometric series from term-ratio limits.

For a series with rational term ratios, the two inverse ratios approach
rational functions of the index ratio n/m as both indices grow.  Those limit
maps t -> (X(t), Y(t)) trace an algebraic curve; eliminating t by a resultant
produces its equation.  Axis factors x^a y^b split off separately.
"""

from collections import namedtuple
from fractions import Fraction

from .curves import Curve
from .exact import MPoly, RatFun, resultant, strip_monomials

XYT = ("x", "y", "t")


class Confluent(Exception):
    """An inverse term ratio has unequal numerator/denominator total degree."""


class IdenticallyZeroResultant(Exception):
    """The two map polynomials share a factor; the elimination collapses."""


class HornMaps(namedtuple("HornMaps", "X Y")):
    """Limit maps X(t), Y(t) of the inverse term ratios, t the index ratio."""

    __slots__ = ()


class HornResult(namedtuple("HornResult", "main_curve monomial_components axis_values")):
    """Curve traced by the limit maps, with stripped monomial and axis data.

    monomial_components holds the exponents (a, b) of the x^a y^b factor
    removed from the raw eliminant; axis_values holds X(t->infinity) and
    Y(t=0) when finite, None otherwise.  These are candidate singular
    lines x = X(infinity), y = Y(0), not certified ones: bat16's 1/16 lines
    are singular, but h2's 1/27 occurs in no head of the operators guessed
    from its restrictions to y = k*x (k = 2, 3, -2, 7, 1/3, 11/5).
    """

    __slots__ = ()


def _leading_homogeneous(p):
    d = p.total_degree()
    return MPoly(p.vars, {e: c for e, c in p.terms.items() if sum(e) == d})


def _at_ratio(p):
    """Evaluate a polynomial in (n, m) at (t, 1)."""
    t = {}
    for (k, _), c in p.terms.items():
        t[(k,)] = t.get((k,), Fraction(0)) + c
    return MPoly(("t",), t)


def _limit_map(alpha):
    inv = alpha.inverse()
    if inv.num.total_degree() != inv.den.total_degree():
        raise Confluent(
            "inverse ratio has degree %d over %d; the limit is 0 or infinite"
            % (inv.num.total_degree(), inv.den.total_degree())
        )
    num = _at_ratio(_leading_homogeneous(inv.num))
    den = _at_ratio(_leading_homogeneous(inv.den))
    return RatFun(num, den)


def horn_limit_maps(s):
    """Large-index limits of the inverse term ratios along n = t*m.

    The leading homogeneous parts are evaluated at (n, m) = (t, 1); the
    eliminated curve would be the same at (1, t).
    """
    return HornMaps(_limit_map(s.alpha1), _limit_map(s.alpha2))


def _graph_poly(r, coord):
    """coord * den(t) - num(t) over (x, y, t).

    Its coefficients may be rationals: resultant clears its inputs to
    integers itself, and Curve keeps the squarefree primitive part.
    """
    return MPoly.variable(XYT, coord) * r.den.with_vars(XYT) - r.num.with_vars(XYT)


def _value_at_infinity(r):
    dn, dd = r.num.degree("t"), r.den.degree("t")
    if dn > dd:
        return None
    if dn < dd:
        return Fraction(0)
    return r.num.leading_coeff() / r.den.leading_coeff()


def _value_at_zero(r):
    try:
        return r.evaluate({"t": Fraction(0)})
    except ZeroDivisionError:
        return None


def eliminate(h):
    """Resultant elimination of t from x = X(t), y = Y(t)."""
    for r in (h.X, h.Y):
        if r.num.is_constant() and r.den.is_constant():
            raise ValueError("constant limit map %s" % r.to_str())
    A = _graph_poly(h.X, "x")
    B = _graph_poly(h.Y, "y")
    res = resultant(A, B, "t")
    if res.is_zero():
        raise IdenticallyZeroResultant(
            "the graph polynomials share a factor; reduce the maps and retry"
        )
    res = res.with_vars(("x", "y"))
    exps, rest = strip_monomials(res)
    return HornResult(
        Curve(rest), exps, (_value_at_infinity(h.X), _value_at_zero(h.Y))
    )


def horn_curve(s):
    """Singular curve of a double hypergeometric series, by ratio limits."""
    return eliminate(horn_limit_maps(s))

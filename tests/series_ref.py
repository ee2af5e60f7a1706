"""Fraction oracle for univariate rational maps, shared by the series and
ODE-guessing tests; it uses nothing of hornsing.series but its exception."""

from fractions import Fraction

from hornsing.series import NonzeroAtOrigin


def ratfun_series(r, order):
    """Taylor coefficients through t^order of a univariate rational function
    at the origin, as Fractions, by long division over Q."""
    if len(r.num.vars) != 1:
        raise ValueError("need a univariate rational function")
    var = r.num.vars[0]
    num, den = r.num.coeff_list(var), r.den.coeff_list(var)
    if den[0] == 0:
        raise NonzeroAtOrigin("map has a pole at the origin")
    num += [Fraction(0)] * (order + 1 - len(num))
    out = [Fraction(0)] * (order + 1)
    for k in range(order + 1):
        acc = num[k]
        for i in range(1, min(k, len(den) - 1) + 1):
            acc -= den[i] * out[k - i]
        out[k] = acc / den[0]
    return out

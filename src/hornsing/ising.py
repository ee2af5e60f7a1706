"""Singularity catalogs of the anisotropic Ising susceptibility parts.

Curves live either in (k, r) = (s1*s2, s1/s2), with s_i = sinh 2K_i, or in
(w, r) with w = (1 + s^2)/(2s), s^2 = k.  The module holds the transcribed
chi^(3)/chi^(4) factor tables in both coordinate systems, their gcds, the
Nickelian curve family generated from cosine pairs, and genus bookkeeping
for every catalog factor.
"""

from collections import namedtuple
from fractions import Fraction
from functools import cache
from itertools import combinations

from .curves import (
    Curve,
    Param,
    genus_quadratic_fiber,
    substitute_compare,
    verify_parametrization,
)
from .exact import MPoly, RatFun, poly_gcd
from .exprio import expr_to_mpoly, parse_expr

KR = ("k", "r")
WR = ("w", "r")


class IrrationalCos(ValueError):
    """Exact mode needs cos(2*pi*j/n) rational; this angle is not."""


# cos(2*pi*q) is rational exactly when the reduced denominator of q divides
# one of these; values indexed by that denominator.
_COS_TABLE = {
    1: Fraction(1),
    2: Fraction(-1),
    3: Fraction(-1, 2),
    4: Fraction(0),
    6: Fraction(1, 2),
}


def rational_cos(j, n):
    """cos(2*pi*j/n) as a Fraction, or IrrationalCos."""
    q = Fraction(j, n)
    try:
        return _COS_TABLE[q.denominator]
    except KeyError:
        raise IrrationalCos("cos(2*pi*%d/%d) is irrational" % (j, n)) from None


class NickelianIndex:
    """Index (n, j, l, sign) of one curve of the anisotropic singularity family.

    j and l run over 1..n; sign picks the branch of the squared cosine term.
    """

    __slots__ = ("n", "j", "l", "sign")

    def __init__(self, n, j, l, sign=1):
        if n < 1:
            raise ValueError("n must be a positive integer")
        if not (1 <= j <= n and 1 <= l <= n):
            raise ValueError("indices must satisfy 1 <= j, l <= n")
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        self.n = n
        self.j = j
        self.l = l
        self.sign = sign

    def __repr__(self):
        return "NickelianIndex(%d, %d, %d, %+d)" % (self.n, self.j, self.l, self.sign)


def isotropic_location_allowed(n, j, l):
    """Filter for the isotropic index convention 0 <= j, l <= n//2.

    j = l = 0 is excluded, and for even n so is j + l = n/2.
    """
    if not (0 <= j <= n // 2 and 0 <= l <= n // 2):
        return False
    if j == 0 and l == 0:
        return False
    if n % 2 == 0 and j + l == n // 2:
        return False
    return True


def _cos_pair(idx):
    """(cos(2*pi*j/n), cos(2*pi*l/n)) of the index as Fractions."""
    return rational_cos(idx.j, idx.n), rational_cos(idx.l, idx.n)


def nickelian_poly(idx, mode="exact"):
    """Raw expansion (r+k)(kr+1) - k(rU + sign*V)^2, no normalization.

    mode "exact" needs rational cosines and "symbolic" keeps U and V as
    variables; any other mode raises ValueError.
    """
    if mode == "symbolic":
        vars = ("k", "r", "U", "V")
        k = MPoly.variable(vars, "k")
        r = MPoly.variable(vars, "r")
        u = MPoly.variable(vars, "U")
        v = MPoly.variable(vars, "V")
    elif mode == "exact":
        uval, vval = _cos_pair(idx)
        k = MPoly.variable(KR, "k")
        r = MPoly.variable(KR, "r")
        u = MPoly.const(KR, uval)
        v = MPoly.const(KR, vval)
    else:
        raise ValueError("mode must be exact or symbolic")
    branch = r * u + v if idx.sign == 1 else r * u - v
    return (r + k) * (k * r + 1) - k * branch * branch


def nickelian_curve(idx, mode="exact"):
    """Canonical curve for the index; symbolic mode keeps U, V as variables."""
    return Curve(nickelian_poly(idx, mode))


def nickelian_isotropic(idx):
    """The r = 1 member in s = sinh 2K: (1 + s^2) - s*(U + sign*V)."""
    uval, vval = _cos_pair(idx)
    s = MPoly.variable(("s",), "s")
    total = uval + vval if idx.sign == 1 else uval - vval
    return Curve(1 + s * s - s * total)


# chi^(3) and chi^(4) factor tables, in display order, with multiplicities.
_CHI_TEXTS = {
    (3, "kr"): (
        ("k^2 - 1", 1),
        ("3*k*r + r + 4*k^2", 1),
        ("k^2*r + 3*k*r + 4", 1),
        ("k^2*r + r + k", 1),
        ("3*r^2*k - r - k - k^2*r", 1),
        ("4 + 3*k*r + 4*k + 4*k^2", 1),
        ("r + k", 1),
        ("k*r + 1", 1),
    ),
    (4, "kr"): (
        ("k^2 - 1", 1),
        ("k*r + 1 + k^2", 1),
        ("3*r^2*k - r - k - k^2*r", 1),
    ),
    (3, "wr"): (
        ("w^2 - 1", 1),
        ("w", 2),
        ("r^2 - 4*r + 4 + 3*w^2*r^2 - 4*w^2*r + 16*w^4*r", 2),
        ("1 + 4*w^2*r - 2*r", 2),
        ("3*r^2 - 1 - 4*w^2*r + 2*r", 2),
        ("3*r - 4 + 16*w^2", 2),
        ("1 + 4*w^2*r - 2*r + r^2", 2),
    ),
    (4, "wr"): (
        ("w", 2),
        ("w^2 - 1", 1),
        ("4*w^2 - 2 + r", 2),
        ("3*r^2 - 1 - 4*w^2*r + 2*r", 2),
    ),
}

# the genus-zero factor with the complex-multiplication history carries a
# known rational parametrization in (w, r)
_CM_FACTOR_TEXT = "r^2 - 4*r + 4 + 3*w^2*r^2 - 4*w^2*r + 16*w^4*r"
_CM_PARAM = ("(u^2+1)/(2*u)", "-4/(u^2*(u^2+3))")


class ChiCatalog(namedtuple("ChiCatalog", "n coords factors")):
    """Factor list, with multiplicities, of one susceptibility singular set."""

    __slots__ = ()

    def product(self):
        vars = KR if self.coords == "kr" else WR
        out = MPoly.const(vars, 1)
        for curve, mult in self.factors:
            out = out * curve.poly**mult
        return out


@cache
def _chi_factors(n, coords):
    """The parsed factors of one table, built on first use and kept per process."""
    vars = KR if coords == "kr" else WR
    return tuple((Curve.from_text(text, vars), mult) for text, mult in _CHI_TEXTS[(n, coords)])


def chi_catalog(n, coords):
    if (n, coords) not in _CHI_TEXTS:
        raise ValueError("no catalog for chi^(%r) in coordinates %r" % (n, coords))
    return ChiCatalog(n, coords, _chi_factors(n, coords))


def chi_gcd(coords):
    """Gcd of the chi^(3) and chi^(4) products; kept raw (not squarefree)."""
    p3 = chi_catalog(3, coords).product()
    p4 = chi_catalog(4, coords).product()
    return poly_gcd(p3, p4)


# ---- (k,r) <-> (w,r) correspondence ---------------------------------------------

_SR = ("s", "r")


def _sr(text):
    return RatFun.from_poly(expr_to_mpoly(parse_expr(text, _SR), _SR))


def _kr_map():
    return {"k": _sr("s^2"), "r": _sr("r")}


def _wr_map():
    # w = (1 + s^2)/(2s); the leaflet form s/(2(1+s^2)) is its reciprocal
    # up to 4 and does not reproduce the factor correspondence.
    s = _sr("s")
    return {"w": (1 + s * s) / (2 * s), "r": _sr("r")}


class CorrespondenceReport(
    namedtuple("CorrespondenceReport", "n matched unmatched_kr unmatched_wr")
):
    """Bipartite matching of catalog factors under k = s^2 and w = (1+s^2)/(2s).

    matched holds (wr_curve, kr_curves, constant) with
    pullback(product of kr_curves) = constant * pullback(wr_curve);
    singles are tried first, then products of two factors.
    """

    __slots__ = ()


def kr_wr_report(n):
    kr_factors = [c for c, _ in chi_catalog(n, "kr").factors]
    wr_factors = [c for c, _ in chi_catalog(n, "wr").factors]
    kmap = _kr_map()
    wmap = _wr_map()
    # each pair curve and each pullback is built once per report
    pairs = {}
    pulled = {}
    matched = []
    free = list(range(len(kr_factors)))
    unmatched_wr = []
    for wc in wr_factors:
        hit = None
        for i in free:
            rep = substitute_compare(kr_factors[i], kmap, wc, wmap, pulled)
            if rep.kind in ("equal", "proportional"):
                hit = ((i,), rep.constant)
                break
        if hit is None:
            for i, j in combinations(free, 2):
                if (i, j) not in pairs:
                    pairs[i, j] = Curve(kr_factors[i].poly * kr_factors[j].poly)
                rep = substitute_compare(pairs[i, j], kmap, wc, wmap, pulled)
                if rep.kind in ("equal", "proportional"):
                    hit = ((i, j), rep.constant)
                    break
        if hit is None:
            unmatched_wr.append(wc)
            continue
        indices, constant = hit
        matched.append((wc, tuple(kr_factors[i] for i in indices), constant))
        free = [i for i in free if i not in indices]
    return CorrespondenceReport(
        n, tuple(matched), tuple(kr_factors[i] for i in free), tuple(unmatched_wr)
    )


# ---- genus audit -----------------------------------------------------------------


class AuditEntry(
    namedtuple("AuditEntry", "n coords curve multiplicity genus certificate parametrization")
):
    """Genus verdict for one catalog factor.

    certificate is None for factors linear in both variables (rational by
    solving); parametrization, when set, has been verified on the curve.
    """

    __slots__ = ()


def _audit_genus(curve, coords):
    first = "k" if coords == "kr" else "w"
    p = curve.poly
    if p.degree(first) == 2:
        cert = genus_quadratic_fiber(curve, first)
        return cert.genus, cert
    if p.degree("r") == 2:
        cert = genus_quadratic_fiber(curve, "r")
        return cert.genus, cert
    if p.degree(first) <= 1 or p.degree("r") <= 1:
        # linear in a variable: solve for it, rational
        return 0, None
    raise ValueError("factor %s is not quadratic in either variable" % curve.to_str())


def elliptic_audit():
    """Genus of every catalog factor that is quadratic or linear in a variable."""
    cm_param = Param.from_text(*_CM_PARAM)
    cm_curve = Curve.from_text(_CM_FACTOR_TEXT, WR)
    entries = []
    for n in (3, 4):
        for coords in ("kr", "wr"):
            cat = chi_catalog(n, coords)
            for curve, mult in cat.factors:
                genus, cert = _audit_genus(curve, coords)
                param = None
                if coords == "wr" and curve == cm_curve:
                    if not verify_parametrization(curve, cm_param):
                        raise ValueError("stored parametrization fails on %s" % curve)
                    param = cm_param
                entries.append(AuditEntry(n, coords, curve, mult, genus, cert, param))
    return tuple(entries)

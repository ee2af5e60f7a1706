"""Plane algebraic curves over the rationals.

A curve is the zero set of a polynomial, normalized on construction to its
squarefree primitive part so curve equality is polynomial equality.  The
toolkit checks rational parametrizations, compares curves pulled back through
rational changes of variables, locates affine singular points, certifies the
genus of curves quadratic in a chosen variable, and evaluates the j-invariant
of the two-cosine family of lattice singularity curves.
"""

from collections import namedtuple
from fractions import Fraction

from .exact import (
    MPoly,
    RatFun,
    ZeroInput,
    discriminant,
    divexact,
    factor_univariate,
    gcd_list,
    resultant,
    squarefree_decomposition,
    squarefree_primitive,
)
from .exprio import expr_to_mpoly, expr_to_ratfun, parse_expr


class DegenerateMap(ValueError):
    """A substitution collapsed a curve to the zero polynomial."""


class NotQuadratic(ValueError):
    """Raised when a genus certificate needs degree two in the chosen variable."""


class Degenerate:
    """Marker for j-invariant arguments where the curve family degenerates."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "Degenerate"


DEGENERATE = Degenerate()


class Curve:
    """Affine algebraic curve F = 0, stored squarefree and primitive."""

    __slots__ = ("poly",)

    def __init__(self, poly):
        if poly.is_zero():
            raise ZeroInput("the zero polynomial defines no curve")
        if poly.is_constant():
            raise ValueError("a nonzero constant defines no curve")
        self.poly = squarefree_primitive(poly)

    @classmethod
    def from_text(cls, text, vars):
        vars = tuple(vars)
        return cls(expr_to_mpoly(parse_expr(text, vars), vars))

    @property
    def vars(self):
        return self.poly.vars

    def __eq__(self, other):
        if not isinstance(other, Curve):
            return NotImplemented
        return self.poly == other.poly

    def __hash__(self):
        return hash(self.poly)

    def to_str(self):
        return self.poly.to_str()

    def __repr__(self):
        return "Curve(%s)" % self.to_str()


def _is_constant_ratfun(r):
    return r.is_poly() and r.num.is_constant()


class Param:
    """Rational parametrization u -> (xp(u), yp(u)) of a plane curve."""

    __slots__ = ("xp", "yp")

    def __init__(self, xp, yp):
        if isinstance(xp, MPoly):
            xp = RatFun.from_poly(xp)
        if isinstance(yp, MPoly):
            yp = RatFun.from_poly(yp)
        xp.num._check(yp.num)
        if len(xp.vars) != 1:
            raise ValueError("parametrizations are univariate, got %r" % (xp.vars,))
        if _is_constant_ratfun(xp) and _is_constant_ratfun(yp):
            raise ValueError("a constant point is not a parametrization")
        self.xp = xp
        self.yp = yp

    @classmethod
    def from_text(cls, xtext, ytext):
        """The parametrization with xp and yp read as expressions in u."""
        u = ("u",)
        return cls(
            expr_to_ratfun(parse_expr(xtext, u), u),
            expr_to_ratfun(parse_expr(ytext, u), u),
        )

    def __eq__(self, other):
        if not isinstance(other, Param):
            return NotImplemented
        return (self.xp, self.yp) == (other.xp, other.yp)

    def __hash__(self):
        return hash((self.xp, self.yp))

    def __repr__(self):
        return "Param(%s, %s)" % (self.xp.to_str(), self.yp.to_str())


def _plane_vars(curve):
    if len(curve.vars) != 2:
        raise ValueError("need a curve in two variables, got %r" % (curve.vars,))
    return curve.vars


def verify_parametrization(curve, param):
    """True when the parametrized point satisfies the curve identically."""
    x, y = _plane_vars(curve)
    image = RatFun.from_poly(curve.poly).substitute_ratfun({x: param.xp, y: param.yp})
    return image.is_zero()


class MatchReport(namedtuple("MatchReport", "kind constant left right")):
    """Outcome of comparing two curves pulled back to common variables.

    kind is "equal" (identical cleared numerators), "proportional"
    (left = constant * right), or "distinct".
    """

    __slots__ = ()


def _pullback(curve, mapping):
    converted = {}
    for v, image in mapping.items():
        converted[v] = RatFun.from_poly(image) if isinstance(image, MPoly) else image
    image = RatFun.from_poly(curve.poly).substitute_ratfun(converted)
    if image.is_zero():
        raise DegenerateMap("substitution collapses %r to zero" % (curve,))
    return image.num


def substitute_compare(c1, map1, c2, map2, pulled=None):
    """Compare the numerators of two curves pulled back through rational maps.

    pulled, a dict the caller may own, keeps each pullback under the curve's
    polynomial and the map's items, so calls with an equal curve and map
    share one entry.
    """
    if pulled is None:
        pulled = {}
    numerators = []
    for curve, mapping in ((c1, map1), (c2, map2)):
        key = (curve.poly, frozenset(mapping.items()))
        if key not in pulled:
            pulled[key] = _pullback(curve, mapping)
        numerators.append(pulled[key])
    n1, n2 = numerators
    if n1.vars != n2.vars:
        raise ValueError("substitutions target different variable sets")
    if n1 == n2:
        return MatchReport("equal", Fraction(1), n1, n2)
    if set(n1.terms) == set(n2.terms):
        c = n1.leading_coeff() / n2.leading_coeff()
        if n1 == n2 * c:
            return MatchReport("proportional", c, n1, n2)
    return MatchReport("distinct", None, n1, n2)


def _rational_roots(p, var, residual):
    """Set of rational roots of a polynomial in var; its other factors go to residual."""
    roots, others = factor_univariate(p, var).split_roots(var)
    residual.extend(f for f, _ in others)
    return {r for r, _ in roots}


class SingularPoints(namedtuple("SingularPoints", "points residual")):
    """Rational affine singular points plus unresolved eliminant factors."""

    __slots__ = ()

    @property
    def complete(self):
        """True when no eliminant factor is left unresolved."""
        return not self.residual


def _core_singularities(G, x, y, residual):
    """Singular points of a component with no x-only or y-only factors.

    G is squarefree and each of its factors involves x and y, so G shares no
    factor with G_x or G_y: the resultants below and the sections of G at
    roots in x are nonzero.
    """
    gx = G.derivative(x)
    gy = G.derivative(y)
    pieces = [h if h.degree(y) == 0 else resultant(G, h, y) for h in (gx, gy)]
    points = set()
    for a in _rational_roots(gcd_list(pieces), x, residual):
        sub = {x: MPoly.const(G.vars, a)}
        g = gcd_list([G.substitute(sub), gx.substitute(sub), gy.substitute(sub)])
        points.update((a, b) for b in _rational_roots(g, y, residual))
    return points


def affine_singular_points(curve):
    """Solve F = F_x = F_y = 0: rational points exactly, leftovers reported."""
    x, y = _plane_vars(curve)
    F = curve.poly
    cx = gcd_list(F.as_univar(y))
    rest = divexact(F, cx)
    cy = gcd_list(rest.as_univar(x))
    core = divexact(rest, cy)

    residual = []
    xs = _rational_roots(cx, x, residual)
    ys = _rational_roots(cy, y, residual)
    points = {(a, b) for a in xs for b in ys}
    # core has no factor free of x or of y, so none of its sections is zero
    for a in xs:
        sect = core.substitute({x: MPoly.const(F.vars, a)})
        points.update((a, b) for b in _rational_roots(sect, y, residual))
    for b in ys:
        sect = core.substitute({y: MPoly.const(F.vars, b)})
        points.update((a, b) for a in _rational_roots(sect, x, residual))
    if not core.is_constant():
        points.update(_core_singularities(core, x, y, residual))
    return SingularPoints(tuple(sorted(points)), tuple(residual))


class GenusCertificate(namedtuple("GenusCertificate", "genus var base_var discriminant odd_part")):
    """Genus of a curve quadratic in one variable, from its fiber discriminant.

    The curve is birational to w^2 = odd_part, where odd_part collects the
    odd-multiplicity factors of the discriminant; the genus is read off the
    degree of odd_part.
    """

    __slots__ = ()


def genus_quadratic_fiber(curve, var):
    """Certify the genus of a curve of degree two in var."""
    names = _plane_vars(curve)
    if var not in names:
        raise ValueError("unknown variable %r" % var)
    F = curve.poly
    if F.degree(var) != 2:
        raise NotQuadratic("degree in %r is %d, not 2" % (var, F.degree(var)))
    base = names[0] if names[1] == var else names[1]
    D = discriminant(F, var)
    if D.is_zero():
        raise ValueError("squarefree curve with vanishing discriminant")
    odd = MPoly.const(F.vars, 1)
    if not D.is_constant():
        for piece, mult in squarefree_decomposition(D, base):
            if mult % 2:
                odd = odd * piece
        odd = odd.primitive_positive()
    deg = odd.degree(base)
    genus = 0 if deg <= 2 else (deg - 1) // 2
    return GenusCertificate(genus, var, base, D, odd)


def nickelian_j(u2, v2):
    """j-invariant at a cosine-squared pair; DEGENERATE where the family is not elliptic."""
    u2 = Fraction(u2)
    v2 = Fraction(v2)
    den = ((v2 - 1) * (u2 - 1) * (u2 - v2)) ** 2
    if den == 0:
        return DEGENERATE
    num = 256 * (u2 * u2 + v2 * v2 - u2 * v2 - u2 - v2 + 1) ** 3
    return num / den

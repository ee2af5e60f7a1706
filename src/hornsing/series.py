"""Truncated exact power series in one and two variables.

Double series come from two-direction term ratios (alpha1, alpha2) or from a
closed-form coefficient expression; they can be restricted along rational
curves t -> (x(t), y(t)) through the origin.  Univariate series support
ring arithmetic, derivatives and theta = t d/dt.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .exact import RatFun, _clear, _eval_int, _mul_trunc, _poly_add
from .exprio import eval_expr, expr_to_ratfun

NM = ("n", "m")


class IncompatibleSpec(Exception):
    """The two term ratios do not define a consistent double sequence."""


class RatioPole(Exception):
    """A term ratio has a vanishing denominator at a lattice point."""


class NonzeroAtOrigin(Exception):
    """A substitution map must vanish at t = 0."""


class InsufficientOrder(Exception):
    """The input series is too short for the requested output order.

    needed and have are the series order the operation needs and the one it
    was given (for restrict, the total degree of the double series); log_basis
    sets dims, the solution dimension per degree, instead.  Attributes that do
    not apply are None.
    """

    def __init__(self, message, needed=None, have=None, dims=None):
        super().__init__(message)
        self.needed = needed
        self.have = have
        self.dims = dims


class UniSeries:
    """Coefficients a_0..a_N of a series known exactly through t^N."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order, coeffs):
        coeffs = [Fraction(c) for c in coeffs]
        if order < 0 or len(coeffs) != order + 1:
            raise ValueError("need exactly order+1 coefficients")
        self.order = order
        self.coeffs = coeffs

    def coeff(self, k):
        if not 0 <= k <= self.order:
            raise ValueError("coefficient %d beyond order %d" % (k, self.order))
        return self.coeffs[k]

    def __eq__(self, other):
        if not isinstance(other, UniSeries):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.order, tuple(self.coeffs)))

    def __add__(self, other):
        n = min(self.order, other.order)
        return UniSeries(n, [self.coeffs[k] + other.coeffs[k] for k in range(n + 1)])

    def __sub__(self, other):
        n = min(self.order, other.order)
        return UniSeries(n, [self.coeffs[k] - other.coeffs[k] for k in range(n + 1)])

    def __mul__(self, other):
        if isinstance(other, UniSeries):
            n = min(self.order, other.order)
            return UniSeries(n, _mul_trunc(self.coeffs, other.coeffs, n))
        c = Fraction(other)
        return UniSeries(self.order, [a * c for a in self.coeffs])

    __rmul__ = __mul__

    def __neg__(self):
        return UniSeries(self.order, [-a for a in self.coeffs])

    def derivative(self):
        if self.order == 0:
            raise InsufficientOrder(
                "cannot differentiate an order-0 series", needed=1, have=0
            )
        return UniSeries(
            self.order - 1,
            [k * self.coeffs[k] for k in range(1, self.order + 1)],
        )

    def theta(self):
        """t * d/dt, which keeps the truncation order."""
        return UniSeries(self.order, [k * c for k, c in enumerate(self.coeffs)])

    def __repr__(self):
        head = ", ".join(str(c) for c in self.coeffs[:6])
        tail = ", ..." if self.order > 5 else ""
        return "UniSeries(order=%d; %s%s)" % (self.order, head, tail)


class BiSeries:
    """Coefficients c_{n,m} of a double series, exact for all n+m <= order.

    The series is stored as integer rows: rows[n] is (L_n, [w_{n,0}, ...,
    w_{n,order-n}]), L_n the lcm of the reduced denominators in row n and
    c_{n,m} = w_{n,m} / L_n, so gcd(L_n, w_{n,0}, ...) = 1 and equal series
    have equal rows.  `coeffs`, the dict of nonzero coefficients, is a view
    of the rows, built on first read and cached; a series built from the
    dict keeps it as that view.
    """

    __slots__ = ("order", "rows", "_coeffs")

    def __init__(self, order, coeffs):
        if order < 0:
            raise ValueError("order must be nonnegative")
        clean = {}
        for (n, m), value in coeffs.items():
            if n < 0 or m < 0 or n + m > order:
                raise ValueError("index (%d, %d) outside order %d" % (n, m, order))
            value = Fraction(value)
            if value:
                clean[(n, m)] = value
        self.order = order
        self.rows = [(1, [0] * (order - n + 1)) for n in range(order + 1)]
        by_row = {}
        for (n, m), value in clean.items():
            by_row.setdefault(n, []).append((m, value))
        for n, entries in by_row.items():
            den, ws = _clear(value for _, value in entries)
            row = self.rows[n][1]
            for (m, _), w in zip(entries, ws):
                row[m] = w
            self.rows[n] = (den, row)
        self._coeffs = clean

    @classmethod
    def _from_rows(cls, order, rows):
        """The series with c_{n,m} = rows[n][1][m] / rows[n][0], integers, rows[n][0] > 0."""
        self = object.__new__(cls)
        self.order = order
        self.rows = []
        for den, ws in rows:
            g = math.gcd(den, *ws)
            self.rows.append((den // g, [w // g for w in ws]) if g > 1 else (den, ws))
        self._coeffs = None
        return self

    @property
    def coeffs(self):
        if self._coeffs is None:
            self._coeffs = {
                (n, m): Fraction(w, den)
                for n, (den, ws) in enumerate(self.rows)
                for m, w in enumerate(ws)
                if w
            }
        return self._coeffs

    def coeff(self, n, m):
        if n < 0 or m < 0 or n + m > self.order:
            raise ValueError(
                "coefficient (%d, %d) beyond order %d" % (n, m, self.order)
            )
        return self.coeffs.get((n, m), Fraction(0))

    def __eq__(self, other):
        if not isinstance(other, BiSeries):
            return NotImplemented
        return self.order == other.order and self.rows == other.rows

    def __repr__(self):
        return "BiSeries(order=%d, %d nonzero terms)" % (
            self.order,
            len(self.coeffs),
        )


class HyperSpec:
    """Term ratios alpha1 = c_{n+1,m}/c_{n,m}, alpha2 = c_{n,m+1}/c_{n,m}.

    Both are rational functions in (n, m); the sequence is normalized by
    c_{0,0} = 1.
    """

    __slots__ = ("alpha1", "alpha2")

    def __init__(self, alpha1, alpha2):
        self.alpha1 = _rename_nm(alpha1)
        self.alpha2 = _rename_nm(alpha2)


def _rename_nm(r):
    if len(r.num.vars) != 2:
        raise ValueError("term ratios must be bivariate")
    if r.num.vars == NM:
        return r
    return RatFun(r.num.with_vars(NM), r.den.with_vars(NM))


def hyper_from_spec(spec):
    """Build a HyperSpec from a ratio-kind SpecFile, folding parameters."""
    if spec.kind != "ratio":
        raise ValueError("spec %r is not ratio-kind" % spec.name)
    a1 = expr_to_ratfun(spec.alpha1, spec.vars, spec.params)
    a2 = expr_to_ratfun(spec.alpha2, spec.vars, spec.params)
    return HyperSpec(a1, a2)


def check_compatibility(s):
    """True iff alpha2(n,m) alpha1(n,m+1) = alpha1(n,m) alpha2(n+1,m)."""
    left = s.alpha2 * s.alpha1.shift("m", 1)
    right = s.alpha1 * s.alpha2.shift("n", 1)
    return left == right


def _int_ratio(r):
    """The terms of r's numerator and denominator as (exponents, integer) lists.

    Both are scaled by one common integer, so their quotient is still r.
    """
    terms = list(r.num.terms.items()) + list(r.den.terms.items())
    _, ints = _clear(c for _, c in terms)
    pairs = [(e, w) for (e, _), w in zip(terms, ints)]
    k = len(r.num.terms)
    return pairs[:k], pairs[k:]


def _slice(ratio, axis, value):
    """Integer coefficient lists of an _int_ratio's num and den at one lattice line.

    Variable number `axis` is fixed at the integer value; the lists are in
    the other variable.
    """
    out = []
    for terms in ratio:
        row = [0] * (max((e[1 - axis] for e, _ in terms), default=0) + 1)
        for e, w in terms:
            row[e[1 - axis]] += w * value ** e[axis]
        out.append(row)
    return out


def _walk(p, q, num, den, steps, point):
    """Running products of p/q with the ratio num/den at 0, 1, ..., steps - 1.

    Returns the numerators and the denominators, starting with p and q.
    Each product is in lowest terms; point(k) is the lattice point of step
    k, named when the denominator vanishes there.
    """
    ps, qs = [p], [q]
    for k in range(steps):
        d = _eval_int(den, k)
        if not d:
            raise RatioPole("ratio denominator vanishes at (n, m) = (%d, %d)" % point(k))
        p *= _eval_int(num, k)
        q *= d
        g = math.gcd(p, q)
        p //= g
        q //= g
        ps.append(p)
        qs.append(q)
    return ps, qs


def expand_from_ratios(s, order):
    """Walk (0,0) -> (n,0) -> (n,m), multiplying ratios along the way.

    Each ratio is cleared to integers once; alpha1(n, 0) is evaluated along
    m = 0 and alpha2(n, m) along each row n, as integer polynomials by
    Horner's rule.  Each coefficient is a running integer numerator and
    denominator, reduced by one gcd per step, and each row is written as
    integers over the lcm of its denominators.
    """
    if not check_compatibility(s):
        raise IncompatibleSpec("the two term ratios fail the mixed-step identity")
    a1, a2 = _int_ratio(s.alpha1), _int_ratio(s.alpha2)
    num, den = _slice(a1, 1, 0)
    column = zip(*_walk(1, 1, num, den, order, lambda k: (k, 0)))
    rows = []
    for n, (p, q) in enumerate(column):
        num, den = _slice(a2, 0, n)
        ps, qs = _walk(p, q, num, den, order - n, lambda k: (n, k))
        l = math.lcm(*qs)
        rows.append((l, [x * (l // y) for x, y in zip(ps, qs)]))
    return BiSeries._from_rows(order, rows)


def expand_from_formula(f, order, consts=None, vars=NM):
    """Evaluate a closed-form coefficient expression on the triangle."""
    env = dict(consts or {})
    c = {}
    for n in range(order + 1):
        for m in range(order + 1 - n):
            env[vars[0]] = Fraction(n)
            env[vars[1]] = Fraction(m)
            c[(n, m)] = eval_expr(f, env)
    return BiSeries(order, c)


def expand_spec(spec, order):
    """Expand a SpecFile of either kind."""
    if spec.kind == "ratio":
        return expand_from_ratios(hyper_from_spec(spec), order)
    return expand_from_formula(spec.coeff, order, spec.params, spec.vars)


def ratfun_series(r, order):
    """Taylor coefficients of a univariate rational function at the origin."""
    if len(r.num.vars) != 1:
        raise ValueError("need a univariate rational function")
    var = r.num.vars[0]
    num = r.num.coeff_list(var)
    den = r.den.coeff_list(var)
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


def _pairs_mul(pairs, b, order):
    """Product of (degree <= order, value) pairs and a list through t^order."""
    out = [0] * (order + 1)
    for i, a in pairs:
        for j, bj in enumerate(b[: order + 1 - i]):
            if bj:
                out[i + j] += a * bj
    return out


def restrict(b, xp, yp, order):
    """Coefficients of sum c_{n,m} xp(t)^n yp(t)^m through t^order.

    xp and yp are rational functions of the same one variable vanishing at
    0.  The input order of b must cover every lattice point that can
    contribute: b.order >= ceil(order / min valuation), never silently
    truncated.

    The sum is taken in integers: each map's series is cleared to integers
    over a denominator L, so its power k is an integer list over L^k, stored
    as its nonzero (degree, value) pairs.  Row n of b is already integers
    w_{n,m} over one denominator L_n (b.rows, built once per series), so
    sum_m c_{n,m} yp^m is an integer list over L_n L_y^M, M the largest m
    in the row with w_{n,m} != 0; adding w_{n,m} yp^m touches only those
    pairs.  One Fraction is built per t-coefficient.
    """
    maps = []
    for r in (xp, yp):
        coeffs = ratfun_series(r, order)
        if coeffs[0] != 0:
            raise NonzeroAtOrigin("substitution map does not vanish at t = 0")
        maps.append(coeffs)
    if xp.num.vars != yp.num.vars:
        raise ValueError(
            "maps in different variables: %r and %r" % (xp.num.vars, yp.num.vars)
        )
    vals = [next((k for k, c in enumerate(coeffs) if c), None) for coeffs in maps]
    live = [v for v in vals if v is not None]
    if live:
        needed = -(-order // min(live))
        if b.order < needed:
            raise InsufficientOrder(
                "restriction to t-order %d needs the double series through"
                " total degree %d, have %d" % (order, needed, b.order),
                needed=needed,
                have=b.order,
            )
    tables, scales = [], []
    for coeffs, val in zip(maps, vals):
        scale, ints = _clear(coeffs)
        table = [[(0, 1)]]
        while val is not None and len(table) * val <= order:
            power = _pairs_mul(table[-1], ints, order)
            table.append([(k, v) for k, v in enumerate(power) if v])
        tables.append(table)
        scales.append(scale)
    (xpow, ypow), (lx, ly) = tables, scales
    parts = []
    for n, (den, ws) in enumerate(b.rows[: len(xpow)]):
        top = min(len(ws), len(ypow)) - 1
        while top >= 0 and not ws[top]:
            top -= 1
        if top < 0:
            continue
        row = [0] * (order + 1)
        for m in range(top + 1):
            if ws[m]:
                f = ws[m] * ly ** (top - m)
                for k, v in ypow[m]:
                    row[k] += f * v
        parts.append((_pairs_mul(xpow[n], row, order), lx**n * ly**top * den))
    common = math.lcm(*(d for _, d in parts))
    total = [0] * (order + 1)
    for part, d in parts:
        _poly_add(total, part, common // d)
    return UniSeries(order, [Fraction(v, common) for v in total])


def uniseries_from_entries(entries):
    """Build from series-file entries with single-exponent keys."""
    order = max(e[0] for e in entries)
    out = [Fraction(0)] * (order + 1)
    for (k,), value in entries.items():
        out[k] = Fraction(value)
    return UniSeries(order, out)

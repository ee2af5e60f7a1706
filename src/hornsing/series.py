"""Truncated exact power series in one and two variables.

Double series come from two-direction term ratios (alpha1, alpha2) or from a
closed-form coefficient expression; they can be restricted along rational
curves t -> (x(t), y(t)) through the origin, giving univariate series.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .exact import RatFun, _clear, _coefficient, _eval_int
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


def _reduced(den, ints):
    """(den, ints) divided by gcd(den, *ints): a row in lowest terms."""
    g = math.gcd(den, *ints)
    return (den // g, [w // g for w in ints]) if g > 1 else (den, ints)


class UniSeries:
    """Coefficients a_0..a_N of a series known exactly through t^N.

    The series is stored as one integer row in the form of a BiSeries.rows
    entry: a_k = ints[k] / den, den positive and gcd(den, ints[0], ...) = 1,
    so equal series have equal rows.  `coeffs`, the list of the a_k as
    Fractions, is a copy of a view of the row built on first read and cached.
    """

    __slots__ = ("order", "den", "ints", "_coeffs")

    def __init__(self, order, coeffs):
        coeffs = [_coefficient(c) for c in coeffs]
        if order < 0 or len(coeffs) != order + 1:
            raise ValueError("need exactly order+1 coefficients")
        self.order = order
        self.den, self.ints = _clear(coeffs)
        self._coeffs = None

    @classmethod
    def _from_ints(cls, order, den, ints):
        """The series with a_k = ints[k] / den, den a positive int and ints
        order + 1 ints; reduced by their gcd here, so the caller need not."""
        self = object.__new__(cls)
        self.order = order
        self.den, self.ints = _reduced(den, ints)
        self._coeffs = None
        return self

    @property
    def coeffs(self):
        if self._coeffs is None:
            self._coeffs = [Fraction(w, self.den) for w in self.ints]
        return list(self._coeffs)

    def __eq__(self, other):
        if not isinstance(other, UniSeries):
            return NotImplemented
        return (self.order, self.den, self.ints) == (other.order, other.den, other.ints)

    def __hash__(self):
        return hash((self.order, self.den, tuple(self.ints)))

    def __repr__(self):
        head = ", ".join(str(c) for c in self.coeffs[:6])
        tail = ", ..." if self.order > 5 else ""
        return "UniSeries(order=%d; %s%s)" % (self.order, head, tail)


class BiSeries:
    """Coefficients c_{n,m} of a double series, exact for all n+m <= order.

    The series is stored as integer rows: rows[n] is (L_n, [w_{n,0}, ...,
    w_{n,order-n}]), L_n the lcm of the reduced denominators in row n and
    c_{n,m} = w_{n,m} / L_n, so gcd(L_n, w_{n,0}, ...) = 1 and equal series
    have equal rows.  `coeffs`, the dict of nonzero coefficients, is a copy
    of a view of the rows built on first read and cached; a series built
    from the dict keeps it as that view.
    """

    __slots__ = ("order", "rows", "_coeffs")

    def __init__(self, order, coeffs):
        if order < 0:
            raise ValueError("order must be nonnegative")
        clean = {}
        for (n, m), value in coeffs.items():
            if n < 0 or m < 0 or n + m > order:
                raise ValueError("index (%d, %d) outside order %d" % (n, m, order))
            value = Fraction(_coefficient(value))
            if value:
                clean[(n, m)] = value
        self.order = order
        self.rows = [
            _clear([clean.get((n, m), 0) for m in range(order - n + 1)])
            for n in range(order + 1)
        ]
        self._coeffs = clean

    @classmethod
    def _from_rows(cls, order, rows):
        """The series with c_{n,m} = rows[n][1][m] / rows[n][0].

        rows holds one (den, ints) pair per n = 0..order: den a positive int
        and ints order - n + 1 ints.  Each pair is divided by its gcd here,
        so the caller need not reduce it.
        """
        self = object.__new__(cls)
        self.order = order
        self.rows = [_reduced(den, ws) for den, ws in rows]
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
        return dict(self._coeffs)

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


def _pairs_mul(a, b, order):
    """Product of two (degree, value) pair lists, sorted by degree, through t^order."""
    out = {}
    for i, u in a:
        for j, v in b:
            if i + j > order:
                break
            out[i + j] = out.get(i + j, 0) + u * v
    return sorted((k, v) for k, v in out.items() if v)


def _div_unit(q, dpairs):
    """Divide the integer series q in place by 1 + sum c s^i, (i, c) in dpairs sorted by i."""
    for k in range(1, len(q)):
        for i, c in dpairs:
            if i > k:
                break
            q[k] -= c * q[k - i]
    return q


def restrict(b, xp, yp, order):
    """Coefficients of sum c_{n,m} xp(t)^n yp(t)^m through t^order.

    xp and yp are rational functions of the same one variable vanishing at
    0.  The input order of b must cover every lattice point that can
    contribute: b.order >= ceil(order / min valuation), never silently
    truncated.

    The sum is taken in integers, by Horner's rule in yp:

        S = P_0 + yp (P_1 + yp (P_2 + ...)),   P_m = sum_n c_{n,m} xp^n.

    Each map is cleared to integer polynomials N/D, with N(0) = 0 and
    d = D(0) != 0, and t = e*s, e the lcm of the two D(0).  Then the map is
    N'(s)/D'(s) with N'(s) = N(e s)/d and D'(s) = D(e s)/d, whose
    coefficients N_i e^i/d and D_i e^i/d are integers for i >= 1 and
    D'(0) = 1, so dividing an integer series by D' is the recurrence
    q_k = p_k - sum_{i>=1} D'_i q_{k-i} of _div_unit, exact in integers.
    It gives xp's series in s, whose powers are kept as (degree, value)
    pairs, each the product of the previous power and xp's pairs; row n of
    b is integers w_{n,m} over L_n (b.rows), so each P_m is an integer
    series over the one denominator Q = lcm_n L_n.  Each Horner step
    multiplies the accumulator by the terms of yp's N', divides by its D'
    with the same recurrence and adds P_m; with v the valuation of yp, P_m
    and the accumulator are needed only through s^(order - m v).  A series
    f(t) is f_k e^k in s, so the result is the row acc_k e^(order - k) over
    Q e^order.  The cost is O(n_max m_max |xp^n|) products for the P_m plus
    O(m_max order (terms of N + D)) for the Horner steps, n_max and m_max
    the largest n and m that contribute.  No Fraction is built.
    """
    maps = []
    for r in (xp, yp):
        if len(r.num.vars) != 1:
            raise ValueError("need a univariate rational function")
        var = r.num.vars[0]
        num, den = r.num.coeff_list(var), r.den.coeff_list(var)
        if den[0] == 0:
            raise NonzeroAtOrigin("map has a pole at the origin")
        if num[0]:
            raise NonzeroAtOrigin("substitution map does not vanish at t = 0")
        _, ints = _clear(num + den)
        maps.append((ints[: len(num)], ints[len(num) :]))
    if xp.num.vars != yp.num.vars:
        raise ValueError(
            "maps in different variables: %r and %r" % (xp.num.vars, yp.num.vars)
        )
    u, v = (next((k for k, c in enumerate(num[: order + 1]) if c), None) for num, _ in maps)
    live = [w for w in (u, v) if w is not None]
    if live:
        needed = -(-order // min(live))
        if b.order < needed:
            raise InsufficientOrder(
                "restriction to t-order %d needs the double series through"
                " total degree %d, have %d" % (order, needed, b.order),
                needed=needed,
                have=b.order,
            )
    e = math.lcm(maps[0][1][0], maps[1][1][0])
    # the (i, c) pairs, i >= 1, of N' and D' for each map
    (xnum, xden), (npairs, dpairs) = (
        [[(i, c * e**i // den[0]) for i, c in enumerate(p[: order + 1]) if i and c]
         for p in (num, den)]
        for num, den in maps
    )
    xnum = dict(xnum)
    xs = [xnum.get(k, 0) for k in range(order + 1)]
    xpairs = [(k, c) for k, c in enumerate(_div_unit(xs, xden)) if c]
    xpow = [[(0, 1)]]
    while u is not None and len(xpow) * u <= order:
        xpow.append(_pairs_mul(xpow[-1], xpairs, order))
    q_den = math.lcm(*(b.rows[n][0] for n in range(len(xpow))))
    if v is None:
        v = order + 1  # yp vanishes through t^order
    mmax = order // v
    # cols[k][m] is coefficient k of P_m, for k <= order - m v
    cols = [[0] * ((order - k) // v + 1) for k in range(order + 1)]
    for n, powers in enumerate(xpow):
        den, ws = b.rows[n]
        f = q_den // den
        for k, value in powers:
            col, value = cols[k], value * f
            col[: len(ws)] = [c + value * w for c, w in zip(col, ws)]
    acc = [col[mmax] for col in cols[: order - mmax * v + 1]]
    for m in range(mmax - 1, -1, -1):
        size = order - m * v + 1
        q = [0] * size
        for i, c in npairs:
            if i >= size:
                break
            q[i:] = [x + c * a for x, a in zip(q[i:], acc)]
        acc = [col[m] + x for col, x in zip(cols, _div_unit(q, dpairs))]
    ints = [a * e ** (order - k) for k, a in enumerate(acc)]
    return UniSeries._from_ints(order, q_den * e**order, ints)


def uniseries_from_entries(entries):
    """Build from series-file entries with single-exponent keys."""
    order = max(e[0] for e in entries)
    out = [Fraction(0)] * (order + 1)
    for (k,), value in entries.items():
        out[k] = Fraction(value)
    return UniSeries(order, out)

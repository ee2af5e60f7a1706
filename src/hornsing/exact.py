"""Exact rational and polynomial arithmetic.

Everything downstream (series expansion, operator algebra, elimination,
curve normalization) runs on the types in this module: arbitrary-precision
rationals from the stdlib, sparse multivariate polynomials with a graded
lexicographic term order, and rational functions kept in lowest terms.
No floats, no rounding, anywhere.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from itertools import chain as _chain, product as _iproduct
from operator import add as _add


class DegreeZero(ValueError):
    """Resultant input has degree zero in the elimination variable."""


class DegreeTooLow(ValueError):
    """Discriminant input has degree below two in the chosen variable."""


class ZeroInput(ValueError):
    """Operation is undefined for the zero polynomial."""


def _clear(values):
    """(l, ints): l the lcm of the denominators of the rationals values, ints = [l*v]."""
    values = list(values)
    l = math.lcm(*(v.denominator for v in values))
    return l, [v.numerator * (l // v.denominator) for v in values]


def _num(c):
    """A rational as a terms dict stores it: an int when integral, else the Fraction."""
    return c.numerator if c.denominator == 1 else c


def _coefficient(c):
    """_num(c) for an int or a Fraction; TypeError for anything else."""
    if not isinstance(c, (int, Fraction)):
        raise TypeError("coefficient must be an int or a Fraction, not %s" % type(c).__name__)
    return _num(c)


def _quo(a, b):
    """a/b for two stored coefficients, stored the same way (never a float)."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    return _num(a / b)


def _glex_key(exps):
    return (sum(exps), exps)


class MPoly:
    """Sparse multivariate polynomial over Q.

    `vars` is an ordered tuple of variable names; `terms` maps exponent
    tuples to nonzero coefficients, each an int when it is integral and
    otherwise a Fraction with denominator > 1, so integer work builds no
    Fraction.  The accessors (constant_value, leading_coeff, coeff and
    coeff_list) return Fractions all the same, and equality and hashing do
    not see the difference, since Fraction(3) == 3 and both hash alike.
    Coefficients other than int and Fraction raise TypeError.  Two
    polynomials interoperate only when their variable tuples agree (use
    with_vars to embed).  A polynomial is never changed after it is built,
    so its integer form (int_form) is kept once built.
    """

    __slots__ = ("vars", "terms", "_int_form")

    def __init__(self, vars, terms):
        self.vars = tuple(vars)
        clean = {}
        for exps, c in terms.items():
            c = _coefficient(c)
            if c:
                t = tuple(int(e) for e in exps)
                if len(t) != len(self.vars) or any(e < 0 for e in t):
                    raise ValueError("bad exponent tuple %r" % (t,))
                clean[t] = clean.get(t, 0) + c
        self.terms = {e: _num(c) for e, c in clean.items() if c}

    @classmethod
    def _trusted(cls, vars, terms):
        """Wrap a vars tuple and a terms dict that already hold the invariant.

        The keys are int tuples of length len(vars) and the values nonzero
        ints, or Fractions with denominator > 1 where not integral; nothing
        is checked, coerced or copied, so only internal paths whose inputs
        are valid polynomials build results this way.
        """
        p = object.__new__(cls)
        p.vars = vars
        p.terms = terms
        return p

    # ---- constructors -------------------------------------------------

    @classmethod
    def zero(cls, vars):
        return cls._trusted(tuple(vars), {})

    @classmethod
    def const(cls, vars, c):
        c = _coefficient(c)
        vars = tuple(vars)
        return cls._trusted(vars, {(0,) * len(vars): c} if c else {})

    @classmethod
    def variable(cls, vars, name):
        vars = tuple(vars)
        i = vars.index(name)
        e = [0] * len(vars)
        e[i] = 1
        return cls._trusted(vars, {tuple(e): 1})

    # ---- basic queries -------------------------------------------------

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return all(sum(e) == 0 for e in self.terms)

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError("not a constant polynomial")
        return Fraction(next(iter(self.terms.values()), 0))

    def total_degree(self):
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def degree(self, var):
        if not self.terms:
            return -1
        i = self.vars.index(var)
        return max(e[i] for e in self.terms)

    def leading_exps(self):
        if not self.terms:
            raise ZeroInput("zero polynomial has no leading term")
        return max(self.terms, key=_glex_key)

    def leading_coeff(self) -> Fraction:
        return Fraction(self.terms[self.leading_exps()])

    # ---- arithmetic ----------------------------------------------------

    def _check(self, other):
        if self.vars != other.vars:
            raise ValueError("variable mismatch: %r vs %r" % (self.vars, other.vars))

    def _plus(self, other, sign):
        """self + sign*other for sign 1 or -1: one dict copy, cancelled terms deleted."""
        if not isinstance(other, MPoly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = MPoly.const(self.vars, other)
        self._check(other)
        t = dict(self.terms)
        for e, c in other.terms.items():
            _add_term(t, e, c if sign > 0 else -c)
        return MPoly._trusted(self.vars, t)

    def __add__(self, other):
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return MPoly._trusted(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self._plus(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, MPoly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            c = _num(other)
            if c == 1:
                return self
            if not c:
                return MPoly.zero(self.vars)
            return MPoly._trusted(self.vars, {e: _num(v * c) for e, v in self.terms.items()})
        self._check(other)
        t = {}
        right = list(other.terms.items())
        for e1, c1 in self.terms.items():
            for e2, c2 in right:
                e = tuple(map(_add, e1, e2))
                s = t.get(e)
                t[e] = c1 * c2 if s is None else s + c1 * c2
        return MPoly._trusted(
            self.vars, {e: c if type(c) is int else _num(c) for e, c in t.items() if c}
        )

    __rmul__ = __mul__

    def __pow__(self, n):
        """self**n as n products with self, each cheaper than squaring the partial power."""
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = MPoly.const(self.vars, 1)
        for _ in range(n):
            result = result * self
        return result

    def __eq__(self, other):
        if not isinstance(other, MPoly):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    # ---- calculus and substitution --------------------------------------

    def derivative(self, var):
        i = self.vars.index(var)
        t = {}
        for e, c in self.terms.items():
            if e[i]:
                # lowering e[i] by one maps distinct exponents to distinct ones
                t[e[:i] + (e[i] - 1,) + e[i + 1 :]] = _num(c * e[i])
        return MPoly._trusted(self.vars, t)

    def int_form(self):
        """(l, t, degs): _int_terms(self) and the degree in each variable.

        Built on first use and kept, so a polynomial evaluated many times
        clears its coefficients once.
        """
        try:
            return self._int_form
        except AttributeError:
            l, t = _int_terms(self)
            degs = tuple(max((e[i] for e in t), default=0) for i in range(len(self.vars)))
            self._int_form = (l, t, degs)
            return self._int_form

    def evaluate(self, env) -> Fraction:
        """Value at the point env (name -> rational).

        The terms are summed as one integer over the common denominator
        (the lcm of the coefficient denominators times each point
        denominator to its degree), so only the result is reduced.  An int
        value enters as its plain powers.
        """
        den, t, degs = self.int_form()
        powers = []
        for v, deg in zip(self.vars, degs):
            x = env[v]
            if type(x) is int:
                powers.append([x**k for k in range(deg + 1)])
                continue
            x = Fraction(x)
            num, xden = x.numerator, x.denominator
            powers.append([num**k * xden ** (deg - k) for k in range(deg + 1)])
            den *= xden**deg
        return Fraction(_term_sum(t, powers), den)

    def substitute(self, mapping, target_vars=None):
        """Map variables to polynomials (identity for unmapped names)."""
        if target_vars is None:
            sample = next(iter(mapping.values()), None)
            target_vars = sample.vars if sample is not None else self.vars
        target_vars = tuple(target_vars)
        tables = []
        for v in self.vars:
            img = mapping[v] if v in mapping else MPoly.variable(target_vars, v)
            if img.vars != target_vars:
                raise ValueError("substitution image in wrong variables")
            tables.append(_powers(img, self.degree(v)))
        return _compose(self, tables, target_vars)

    def shift(self, var, delta):
        """Substitute var -> var + delta for an integer delta."""
        img = MPoly.variable(self.vars, var) + MPoly.const(self.vars, delta)
        return self.substitute({var: img}, self.vars)

    def with_vars(self, newvars):
        """Embed into (or project onto) another variable tuple.

        Dropping a variable the polynomial actually uses is an error.
        """
        newvars = tuple(newvars)
        pos = {}
        for i, v in enumerate(self.vars):
            pos[i] = newvars.index(v) if v in newvars else None
        t = {}
        for e, c in self.terms.items():
            ne = [0] * len(newvars)
            for i, k in enumerate(e):
                if k:
                    if pos[i] is None:
                        raise ValueError("cannot drop used variable %r" % self.vars[i])
                    ne[pos[i]] = k
            t[tuple(ne)] = t.get(tuple(ne), 0) + c
        return MPoly(newvars, t)

    # ---- univariate views ------------------------------------------------

    def as_univar(self, var):
        """Coefficient list [c0, c1, ...] w.r.t. var; entries are MPoly."""
        i = self.vars.index(var)
        parts = [{} for _ in range(max(self.degree(var), 0) + 1)]
        for e, c in self.terms.items():
            parts[e[i]][e[:i] + (0,) + e[i + 1 :]] = c
        return [MPoly._trusted(self.vars, t) for t in parts]

    def coeff_list(self, var):
        """Rational coefficients [c0, c1, ...] of a polynomial in var alone; [0] for zero.

        Raises ValueError when another variable occurs.
        """
        i = self.vars.index(var)
        out = [Fraction(0)] * (max(self.degree(var), 0) + 1)
        for e, c in self.terms.items():
            if any(e[:i]) or any(e[i + 1 :]):
                raise ValueError("polynomial has a variable other than %r" % var)
            out[e[i]] = Fraction(c)
        return out

    @classmethod
    def from_univar(cls, var, coeffs):
        """sum coeffs[k] * var^k, the coefficients sharing one vars tuple."""
        if not coeffs:
            raise ValueError("empty coefficient list")
        vars = coeffs[0].vars
        i = vars.index(var)
        t = {}
        for k, c in enumerate(coeffs):
            if c.terms:
                c._check(coeffs[0])
            for e, v in c.terms.items():
                _add_term(t, e[:i] + (e[i] + k,) + e[i + 1 :], v)
        return cls._trusted(vars, t)

    # ---- normalization ----------------------------------------------------

    def primitive_positive(self):
        """Divide out the content and fix a positive graded-lex leading coefficient."""
        if not self.terms:
            return self
        return self * _primitive_scale(self)

    # ---- printing ----------------------------------------------------------

    def to_str(self):
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, key=_glex_key, reverse=True):
            c = self.terms[e]
            mon = "*".join(
                v if k == 1 else "%s^%d" % (v, k)
                for v, k in zip(self.vars, e)
                if k
            )
            mag = abs(c)
            if not mon:
                body = str(mag)
            elif mag == 1:
                body = mon
            else:
                body = "%s*%s" % (mag, mon)
            if not parts:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append((" + " if c > 0 else " - ") + body)
        return "".join(parts)

    def canonical_str(self):
        """Unique rendering: content-free, positive leading coefficient."""
        return self.primitive_positive().to_str()

    def __repr__(self):
        return "MPoly[%s](%s)" % (",".join(self.vars), self.to_str())


def _primitive_scale(p):
    """The rational s, stored as a coefficient, with s*p primitive of positive
    leading coefficient; p is nonzero."""
    l, ints = _clear(p.terms.values())
    g = math.gcd(*ints)
    if p.terms[p.leading_exps()] < 0:
        g = -g
    return _quo(l, g)


def _add_term(t, e, c):
    """t[e] += c in a terms dict, deleting the entry when the sum is zero."""
    s = t.get(e)
    if s is None:
        t[e] = c
    else:
        s += c
        if s:
            t[e] = _num(s)
        else:
            del t[e]


def _powers(p, n):
    """[1, p, p^2, ..., p^n] for a polynomial p."""
    out = [MPoly.const(p.vars, 1)]
    for _ in range(n):
        out.append(out[-1] * p)
    return out


def _compose(p, tables, tvars):
    """Sum over the terms c*x^e of p of c * prod tables[i][e_i]; an empty table skips x_i."""
    out = MPoly.zero(tvars)
    for e, c in p.terms.items():
        term = c
        for table, k in zip(tables, e):
            if table:
                term = table[k] * term
        out = out + term
    return out


def divexact(a: MPoly, b: MPoly) -> MPoly:
    """Exact polynomial quotient a/b; raises ValueError if b does not divide a.

    With a = A/la and b = cb*B/lb, A and B integer polynomials and B
    primitive, a/b = lb/(la*cb) * A/B.  By Gauss's lemma a primitive B that
    divides A over Q divides it over Z, so the integer kernel _int_quo
    gives A/B, and its None means b does not divide a.
    """
    if b.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    if a.is_zero():
        return a
    a._check(b)
    if b.is_constant():
        return a * Fraction(1, b.constant_value())
    la, A = _int_terms(a)
    lb, B = _int_terms(b)
    cb = math.gcd(*B.values())
    q = _int_quo(A, {e: c // cb for e, c in B.items()})
    if q is None:
        raise ValueError("inexact polynomial division")
    return MPoly._trusted(a.vars, q) * _quo(lb, la * cb)


def _list_primitive(coeffs):
    """Split a univariate-view coefficient list into (content, primitive list)."""
    cont = gcd_list(coeffs)
    if cont.is_zero():
        return cont, coeffs
    prim = [divexact(c, cont) for c in coeffs]
    l, ints = _clear(v for c in prim for v in c.terms.values())
    g = math.gcd(*ints)
    if g and g != l:
        prim = [c * Fraction(l, g) for c in prim]
    return cont, prim


def _list_degree(coeffs):
    d = len(coeffs) - 1
    while d >= 0 and not coeffs[d]:
        d -= 1
    return d


def _pseudo_rem(A, B):
    """prem(A, B): the remainder of lc(B)^(deg A - deg B + 1) * A on division by B.

    A and B are coefficient lists with deg A >= deg B >= 0, either of
    integers or of MPolys over one vars tuple (the univariate view); zero
    is tested by truthiness, so both kinds run the same steps.  A step
    whose top coefficient is already zero defers its factor lc(B) to one
    power at the end.
    """
    dA, dB = _list_degree(A), _list_degree(B)
    lb = B[dB]
    R = A[: dA + 1]
    deferred = 0
    for k in range(dA, dB - 1, -1):
        lr = R.pop()
        if not lr:
            deferred += 1
            continue
        R = [c * lb for c in R]
        for j in range(dB):
            R[j + k - dB] = R[j + k - dB] - lr * B[j]
    if deferred:
        f = lb**deferred
        R = [c * f for c in R]
    return R[: max(_list_degree(R) + 1, 1)] or [lb * 0]


_HEU_TRIES = 6


def poly_gcd(a: MPoly, b: MPoly) -> MPoly:
    """Primitive positive gcd; poly_gcd(0, 0) = 0.

    The heuristic integer gcd GCDHEU runs first, on a and b cleared to
    integer coefficients with their integer contents split off.  The first
    variable x that occurs is set to an integer xi, starting at
    xi = 2*min(|a|, |b|) + 29 with |.| the largest coefficient magnitude;
    the gcd of the two images is taken the same way, one variable at a
    time, down to math.gcd; and the candidate G is the integer primitive
    part of the symmetric base-xi expansion of that gcd in powers of x.
    For xi > 2*min(|a|, |b|) + 1, a G that divides both a and b is their
    gcd (B. W. Char, K. O. Geddes and G. H. Gonnet, J. Symbolic Comput. 7,
    1989; Geddes, Czapor and Labahn, Algorithms for Computer Algebra,
    sec. 7.7), so exact integer trial division by _int_quo certifies it.  A
    candidate that fails grows xi to 73794*xi*floor(xi^(1/4)) // 27011;
    after _HEU_TRIES failures at any level the primitive PRS in x decides.
    """
    if a.is_zero() and b.is_zero():
        return a
    if a.is_zero():
        return b.primitive_positive()
    if b.is_zero():
        return a.primitive_positive()
    a._check(b)
    main = None
    for v in a.vars:
        if a.degree(v) > 0 or b.degree(v) > 0:
            main = v
            break
    if main is None:
        return MPoly.const(a.vars, 1)
    g = _heu_gcd(_int_terms(a)[1], _int_terms(b)[1])
    if g is not None:
        return MPoly._trusted(a.vars, g).primitive_positive()
    contA, A = _list_primitive(a.as_univar(main))
    contB, B = _list_primitive(b.as_univar(main))
    gc = poly_gcd(contA, contB)
    if _list_degree(A) == 0 or _list_degree(B) == 0:
        return gc.primitive_positive() if not gc.is_zero() else MPoly.const(a.vars, 1)
    if _list_degree(A) < _list_degree(B):
        A, B = B, A
    while True:
        R = _pseudo_rem(A, B)
        if _list_degree(R) < 0:
            break
        _, R = _list_primitive(R)
        A, B = B, R
    pp = MPoly.from_univar(main, B)
    return (gc * pp).primitive_positive()


def _heu_gcd(a, b):
    """A gcd over Z of two nonzero {exponents: int} polynomials, or None (see poly_gcd)."""
    ca, cb = math.gcd(*a.values()), math.gcd(*b.values())
    cont = math.gcd(ca, cb)
    nvars = len(next(iter(a)))
    z = next((k for k in range(nvars) if any(e[k] for e in a) or any(e[k] for e in b)), None)
    if z is None:
        return {next(iter(a)): cont}
    a = {e: c // ca for e, c in a.items()}
    b = {e: c // cb for e, c in b.items()}
    xi = 2 * min(max(map(abs, a.values())), max(map(abs, b.values()))) + 29
    for _ in range(_HEU_TRIES):
        fa, fb = _eval_slot(a, z, xi), _eval_slot(b, z, xi)
        if fa and fb:
            h = _heu_gcd(fa, fb)
            if h is None:
                return None
            g = _lift_slot(h, z, xi)
            k = math.gcd(*g.values())
            g = {e: c // k for e, c in g.items()}
            if _int_quo(a, g) is not None and _int_quo(b, g) is not None:
                return {e: c * cont for e, c in g.items()}
        xi = 73794 * xi * math.isqrt(math.isqrt(xi)) // 27011
    return None


def _lift_slot(h, z, xi):
    """The polynomial whose slot-z coefficients are the symmetric base-xi digits of h's."""
    out = {}
    for e, c in h.items():
        k = 0
        while c:
            d = c % xi
            if 2 * d > xi:
                d -= xi
            if d:
                out[e[:z] + (k,) + e[z + 1 :]] = d
            c = (c - d) // xi
            k += 1
    return out


def _int_quo(a, g):
    """a/g for two nonzero {exponents: int} polynomials when g divides a over
    Z, else None; a itself when g is the unit 1.

    Long division on the lex-leading term, one divmod per step.  A quotient
    term x^e has 0 <= e_k <= deg_k a - lg_k, lg the leading exponents of g,
    so a step outside that degree box ends the division at once.
    """
    lg = max(g)
    cg = g[lg]
    if cg == 1 and not any(lg):
        return a
    tail = [(e, c) for e, c in g.items() if e != lg]
    top = [max(e[k] for e in a) - lg[k] for k in range(len(lg))]
    rem = dict(a)
    q = {}
    while rem:
        la = max(rem)
        diff = tuple(x - y for x, y in zip(la, lg))
        c, r = divmod(rem.pop(la), cg)
        if r or any(d < 0 or d > t for d, t in zip(diff, top)):
            return None
        q[diff] = c
        for e, v in tail:
            _add_term(rem, tuple(map(_add, diff, e)), -c * v)
    return q


def gcd_list(polys):
    """poly_gcd of a nonempty list, folded from zero; it stops at the first nonzero constant."""
    g = MPoly.zero(polys[0].vars)
    for p in polys:
        g = poly_gcd(g, p)
        if g.is_constant() and not g.is_zero():
            break
    return g


def resultant(a: MPoly, b: MPoly, var: str) -> MPoly:
    """Sylvester resultant in var, by one subresultant PRS over Z.

    The result is the determinant of the formal Sylvester matrix of size
    m + n, m = deg_var a and n = deg_var b, whose n rows built from a come
    first; both degrees must be positive.

    a and b are cleared to integer polynomials A = la*a and B = lb*b, and
    Res(a, b) = Res(A, B) / (la^n lb^m).  Res(A, B) is taken in integers by
    Kronecker substitution, the slot map GCDHEU uses in poly_gcd (J. von zur
    Gathen and J. Gerhard, Modern Computer Algebra, ch. 6):
    - Bound.  Res(A, B) is the Sylvester determinant, with n rows from A and
      m from B, so |Res|_1 <= |A|_1^n |B|_1^m, |.|_1 the sum of the
      coefficient magnitudes, and its degree in the variable of slot j is
      at most D_j = n*deg_j A + m*deg_j B.
    - Map.  With xi = 2 |A|_1^n |B|_1^m + 1, each other slot k with D_k > 0
      is set to xi^(w_k), w_k the product of D_j + 1 over the earlier such
      slots j.  The monomials of that degree box go to distinct powers of
      xi with coefficients below xi/2 in magnitude, so the balanced digits
      in base xi^(w_k), read the last slot first, give Res back.
    - Leading coefficients.  lc_var(A) and lc_var(B) lie in the same box
      with coefficients below xi/2, so their images are nonzero: the integer
      coefficient lists keep degrees m and n, and their Sylvester
      determinant is the image of Res.

    The PRS runs on those lists, with the one of larger degree first: each
    step sets R = prem(A, B), A, B = B, R / (g*h^delta) and then g = lc(A),
    h = g^delta / h^(delta-1), where delta is the degree drop of the step
    and g = h = 1 at the start; once B is a constant the result is
    lc(B)^deg A / h^(deg A - 1), up to the sign of the swaps (W. S. Brown,
    J. ACM 18, 1971; H. Cohen, A Course in Computational Algebraic Number
    Theory, Alg. 3.3.7).  Every division is exact, and one that is not
    raises.  The images have about prod_k (D_k + 1) * log2(xi) bits, so
    they grow quickly with the number of other variables; the callers here
    have at most two.
    """
    a._check(b)
    if var not in a.vars:
        raise ValueError("unknown variable %r" % var)
    m = a.degree(var)
    n = b.degree(var)
    if m <= 0 or n <= 0:
        raise DegreeZero("resultant needs positive degree in %r" % var)
    la, ta, da = a.int_form()
    lb, tb, db = b.int_form()
    xi = 2 * sum(map(abs, ta.values())) ** n * sum(map(abs, tb.values())) ** m + 1
    v = a.vars.index(var)
    slots, w = [], 1
    for k in range(len(a.vars)):
        D = n * da[k] + m * db[k]
        if k != v and D:
            z = xi**w
            ta, tb = _eval_slot(ta, k, z), _eval_slot(tb, k, z)
            slots.append((k, z))
            w *= D + 1
    A, B = [0] * (m + 1), [0] * (n + 1)
    for cs, t in ((A, ta), (B, tb)):
        for e, c in t.items():
            cs[e[v]] = c
    sign = -1 if m % 2 and n % 2 and m < n else 1
    if m < n:
        A, B = B, A
    g = h = 1
    while (dB := _list_degree(B)) > 0:
        dA = len(A) - 1
        delta = dA - dB
        if dA % 2 and dB % 2:
            sign = -sign
        d = g * h**delta
        A, B = B, [_exact_quo(c, d) for c in _pseudo_rem(A, B)]
        g = A[-1]
        if delta:
            h = _exact_quo(g**delta, h ** (delta - 1))
    res = B[0] ** (len(A) - 1)  # zero when the PRS ends in a zero remainder
    if len(A) > 2:
        res = _exact_quo(res, h ** (len(A) - 2))
    out = {(0,) * len(a.vars): sign * res} if res else {}
    for k, z in reversed(slots):
        out = _lift_slot(out, k, z)
    scale = la**n * lb**m
    return MPoly._trusted(a.vars, {e: _quo(c, scale) for e, c in out.items()})


def _exact_quo(a, b):
    """a // b for integers b | a; ValueError when the division is not exact."""
    q, r = divmod(a, b)
    if r:
        raise ValueError("inexact integer division")
    return q


def _int_terms(p):
    """(l, t): l the lcm of p's coefficient denominators, t = l*p as an {exponents: int} dict."""
    l, ints = _clear(p.terms.values())
    return l, dict(zip(p.terms, ints))


def _term_sum(t, powers):
    """sum of t[e] * prod_i powers[i][e_i] over an {exponents: int} dict t.

    powers[i][k] stands for the k-th power of variable i, so at an integer
    point this is the value of the integer polynomial t there.
    """
    total = 0
    for e, w in t.items():
        for table, k in zip(powers, e):
            w *= table[k]
        total += w
    return total


def _bareiss(M):
    """Fraction-free (Bareiss) row echelon elimination of an integer matrix.

    Works in place, column by column, skipping a column with no nonzero
    entry at or below the current row.  Each division by the previous
    pivot is exact by Sylvester's identity (E. H. Bareiss, Math. Comp. 22,
    1968).  Yields the column of each pivot, after updating the rows
    below it right of its column only: their entries in that column and left
    of it stay stale, not zero, so rref zeroes each row left of its pivot.
    """
    nrows, ncols = len(M), len(M[0]) if M else 0
    r, prev = 0, 1
    for k in range(ncols):
        if r == nrows:
            return
        if not M[r][k]:
            pivot = next((i for i in range(r + 1, nrows) if M[i][k]), None)
            if pivot is None:
                continue
            M[r], M[pivot] = M[pivot], M[r]
        pk, rk = M[r][k], M[r]
        for row in M[r + 1 :]:
            f = row[k]
            for j in range(k + 1, ncols):
                row[j] = (pk * row[j] - f * rk[j]) // prev
        prev = pk
        r += 1
        yield k


def _int_rank(rows):
    """Rank of an integer matrix (list of row lists), left unchanged."""
    return sum(1 for _ in _bareiss([list(row) for row in rows]))


def _eval_slot(c, z, v):
    """Set the variable in slot z of an {exponents: int} polynomial to the integer v."""
    out = {}
    for e, x in c.items():
        if e[z]:
            x *= v ** e[z]
            e = e[:z] + (0,) + e[z + 1 :]
        out[e] = out.get(e, 0) + x
    return {e: x for e, x in out.items() if x}


def _newton_int(ys):
    """Integer coefficients, low first, of the polynomial of degree < len(ys)
    taking the values ys at 0, 1, ..., or None when they are not integers.

    Newton divided differences at consecutive nodes divide by k at level k.
    Those of an integer polynomial at integer nodes are integers (for x^j
    they are complete symmetric polynomials in the nodes), and an integer
    Newton form expands to integer coefficients, so the first inexact
    division proves that the interpolant is not integral.
    """
    ys = list(ys)
    D = len(ys) - 1
    for k in range(1, D + 1):
        for j in range(D, k - 1, -1):
            ys[j], r = divmod(ys[j] - ys[j - 1], k)
            if r:
                return None
    poly = [ys[D]]
    for k in range(D - 1, -1, -1):
        # poly <- poly * (z - k) + ys[k]
        poly = [s - k * p for s, p in zip([0] + poly, poly + [0])]
        poly[0] += ys[k]
    return poly


def discriminant(a: MPoly, var: str) -> MPoly:
    """Discriminant in var: (-1)^(n(n-1)/2) resultant(a, a', var) / lc.

    The sign factor makes deg-2 inputs come out as b^2 - 4ac.
    """
    if var not in a.vars:
        raise ValueError("unknown variable %r" % var)
    d = a.degree(var)
    if d < 2:
        raise DegreeTooLow("discriminant needs degree >= 2 in %r" % var)
    da = a.derivative(var)
    res = resultant(a, da, var)
    lc = a.as_univar(var)[d]
    out = divexact(res, lc)
    if (d * (d - 1) // 2) % 2:
        out = -out
    return out


def squarefree_primitive(p: MPoly) -> MPoly:
    """Radical of p, content-free with positive leading coefficient."""
    if p.is_zero():
        raise ZeroInput("squarefree part of the zero polynomial")
    if p.is_constant():
        return MPoly.const(p.vars, 1)
    g = p
    for v in p.vars:
        if p.degree(v) > 0:
            g = poly_gcd(g, p.derivative(v))
    rad = divexact(p, g)
    return rad.primitive_positive()


def strip_monomials(p: MPoly):
    """Split p into (exponents, rest) with p = monomial(exponents) * rest.

    The exponent tuple is the largest monomial dividing every term; rest
    has a nonzero term of exponent 0 in each variable.
    """
    if p.is_zero():
        return (0,) * len(p.vars), p
    mins = None
    for e in p.terms:
        mins = e if mins is None else tuple(min(a, b) for a, b in zip(mins, e))
    if not any(mins):
        return mins, p
    t = {tuple(a - b for a, b in zip(e, mins)): c for e, c in p.terms.items()}
    return mins, MPoly(p.vars, t)


# ---- exact linear algebra ---------------------------------------------------


def rref(rows):
    """Reduced row echelon form of a rational matrix (list of row lists).

    Returns (rows, pivots): the nonzero rows of the reduced form, ordered by
    pivot column, and the pivot column of each row.  Each row is a list of
    ints with content 1 and a positive pivot entry, so the reduced entry is
    x / row[pivot].  The input is left unchanged: its rows are cleared to
    integers, echelonized by _bareiss and back-substituted in integers from
    the last pivot row up.
    """
    m = [_clear(row)[1] for row in rows]
    pivots = list(_bareiss(m))
    m = m[: len(pivots)]
    for i in reversed(range(len(pivots))):
        row = m[i]
        row[: pivots[i]] = [0] * pivots[i]  # stale entries left by _bareiss
        for below, k in zip(m[i + 1 :], pivots[i + 1 :]):
            if f := row[k]:
                pk = below[k]
                row = [pk * x - f * y for x, y in zip(row, below)]
        g = math.gcd(*row)
        if row[pivots[i]] < 0:
            g = -g
        m[i] = [x // g for x in row]
    return m, pivots


def nullspace(matrix):
    """Right-nullspace basis of a rational matrix (list of row lists).

    Returns one primitive int vector per free column, in column order; empty
    iff the matrix has full column rank.  The vector of a free column is
    positive there and zero at the other free columns: the unit-free-variable
    vector scaled by the lcm of the pivots it touches, over its content.
    """
    if not matrix:
        return []
    ncols = len(matrix[0])
    rows, pivots = rref(matrix)
    pivset = set(pivots)
    basis = []
    for fc in range(ncols):
        if fc in pivset:
            continue
        scale = math.lcm(*[row[pc] for row, pc in zip(rows, pivots) if row[fc]])
        vec = [0] * ncols
        vec[fc] = scale
        for row, pc in zip(rows, pivots):
            vec[pc] = -row[fc] * (scale // row[pc])
        g = math.gcd(*vec)
        basis.append([x // g for x in vec])
    return basis


# ---- univariate factorization ------------------------------------------------

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_probable_prime(n):
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# Work bounds of the factor search.  Past any of them the search gives up and
# the piece it was given stays unsplit.
_TRIAL_DIVISION_BOUND = 10**6  # largest trial divisor in _divisors
_MAX_DIVISORS = 200000  # divisors of one integer
_MAX_CANDIDATES = 200000  # candidate factors of one degree: d(lead) * prod 2*d(value)


def _divisors(n):
    """Sorted positive divisors of the integer n, or None when n is 0, when n
    does not factor by trial division up to _TRIAL_DIVISION_BOUND and a prime
    test, or when it has more than _MAX_DIVISORS divisors."""
    n = abs(n)
    if not n:
        return None
    divs = [1]
    trial = _chain((2, 3), (f + r for f in range(5, _TRIAL_DIVISION_BOUND + 1, 6) for r in (0, 2)))
    for p in trial:
        if p * p > n:
            break
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            if len(divs) * (e + 1) > _MAX_DIVISORS:
                return None
            divs = [d * p**k for k in range(e + 1) for d in divs]
    if n > 1:
        if 2 * len(divs) > _MAX_DIVISORS or not _is_probable_prime(n):
            return None
        divs += [d * n for d in divs]
    return sorted(divs)


class FactorizationResult(namedtuple("FactorizationResult", "unit factors remainder")):
    """Outcome of univariate factoring over Q.

    unit * prod(factor^mult) * remainder reproduces the input.  Each factor
    is irreducible; remainder is the part a work bound of the search left
    unsplit, or None when there is none.
    """

    __slots__ = ()

    @property
    def complete(self):
        return self.remainder is None

    def split_roots(self, var):
        """([(root, mult)] of the linear factors, [(factor, mult)] of the rest).

        The rest keeps the order of `factors`, with the remainder last at
        multiplicity 1.
        """
        roots, others = [], []
        for f, m in self.factors:
            if f.degree(var) == 1:
                c0, c1 = f.coeff_list(var)
                roots.append((-c0 / c1, m))
            else:
                others.append((f, m))
        if self.remainder is not None:
            others.append((self.remainder, 1))
        return roots, others


def _uni_coeff_ints(p, var):
    """(content, primitive integer coefficient list) of a nonzero polynomial in var alone."""
    l, ints = _clear(p.coeff_list(var))
    g = math.gcd(*ints)
    return Fraction(g, l), [c // g for c in ints]


def _eval_int(coeffs, x):
    v = 0
    for c in reversed(coeffs):
        v = v * x + c
    return v


def _mul_trunc(a, b, order):
    """Product of two integer coefficient lists through t^order."""
    out = [0] * (order + 1)
    for i, ai in enumerate(a):
        if i > order:
            break
        if not ai:
            continue
        top = order - i
        for j, bj in enumerate(b):
            if j > top:
                break
            if bj:
                out[i + j] += ai * bj
    return out


def _poly_add(acc, a, f):
    """acc += f * a on integer coefficient lists, lowest degree first."""
    if len(acc) < len(a):
        acc.extend([0] * (len(a) - len(acc)))
    for i, x in enumerate(a):
        if x:
            acc[i] += f * x


def _poly_trim(a):
    """Drop the trailing zeros of a coefficient list in place, keeping one entry."""
    while len(a) > 1 and not a[-1]:
        a.pop()
    return a


def _split_factors(coeffs):
    """(irreducible factors, rest) of a squarefree primitive integer
    coefficient list f, lowest degree first, with a positive lead and a
    nonzero constant term; the factors times rest give f.

    Kronecker's search over the factor degrees g = 1, 2, ... while 2g is at
    most the degree of what is left.  A factor h of degree g with positive
    lead a has a dividing the lead of f and h(x) dividing f(x) at x = 0..g-1,
    which are nonzero (f(0) is the constant term, and f has no integer root
    once g = 1 is done); h is a*x^g plus the interpolant of h(x) - a*x^g.
    Each candidate is tested once, against the quotient q left by the
    factors found so far, and divided out on a hit; one whose a no longer
    divides the quotient's lead, or that is not primitive, is skipped, and
    so is one with q(g) nonzero and h(g) zero or not dividing q(g), since a
    factor's value divides q's at every integer.  A factor
    found at degree g is irreducible, as every factor of lower degree is
    gone, and so is the quotient left once every g is done: it joins the
    factors and rest is [1].  When _divisors refuses a value or one degree
    has more than _MAX_CANDIDATES candidates, rest is the unsplit quotient.
    """
    factors = []
    g = 1
    while 2 * g < len(coeffs):
        leads = _divisors(coeffs[-1])
        values = [_divisors(_eval_int(coeffs, x)) for x in range(g)]
        if None in values or leads is None:
            return factors, coeffs
        if len(leads) * math.prod(2 * len(ds) for ds in values) > _MAX_CANDIDATES:
            return factors, coeffs
        signed = [[s * d for d in ds for s in (1, -1)] for ds in values]
        at_g = _eval_int(coeffs, g)
        for a in leads:
            for ys in _iproduct(*signed):
                if coeffs[-1] % a or 2 * g >= len(coeffs):
                    break
                h = _newton_int([y - a * x**g for x, y in enumerate(ys)])
                if h is None or math.gcd(a, *h) != 1:
                    continue
                h.append(a)
                if at_g:
                    h_g = _eval_int(h, g)
                    if not h_g or at_g % h_g:
                        continue
                quo = _int_quo(_uni_terms(coeffs), _uni_terms(h))
                if quo is not None:
                    factors.append(h)
                    coeffs = [quo.get((k,), 0) for k in range(len(coeffs) - g)]
                    at_g = _eval_int(coeffs, g)
        g += 1
    if len(coeffs) > 1:
        factors.append(coeffs)
        coeffs = [1]
    return factors, coeffs


def _uni_terms(coeffs):
    """An integer coefficient list, lowest degree first, as an {exponents: int} dict."""
    return {(k,): c for k, c in enumerate(coeffs) if c}


def factor_univariate(p: MPoly, var: str) -> FactorizationResult:
    """Factor over Q into irreducibles: content, the power of var, then
    Kronecker's factor search (_split_factors) on each squarefree piece.

    The factors are irreducible and sorted by degree, then by their
    canonical strings.  A piece whose search stops at a work bound is
    returned unsplit, to its multiplicity, in `remainder`; it is None when
    every piece was searched to the end.
    """
    if p.is_zero():
        raise ZeroInput("cannot factor the zero polynomial")
    for v in p.vars:
        if v != var and p.degree(v) > 0:
            raise ValueError("factor_univariate got a multivariate input")
    scale = _primitive_scale(p)
    unit = Fraction(1, scale)
    x = MPoly.variable(p.vars, var)
    (xe,) = x.terms
    # split off var^k first, so the squarefree split runs no gcd per power of
    # var and every piece has a nonzero constant term
    exps, work = strip_monomials(p * scale)
    k = exps[p.vars.index(var)]
    factors = [(x, k)] if k else []
    if work.is_constant():
        return FactorizationResult(unit, factors, None)
    remainder = None

    def poly(coeffs):
        return MPoly(p.vars, {tuple(d * i for i in xe): c for d, c in enumerate(coeffs)})

    # the pieces are primitive with a positive lead (Gauss's lemma)
    for piece, mult in squarefree_decomposition(work, var):
        found, rest = _split_factors(_uni_coeff_ints(piece, var)[1])
        factors.extend((poly(h), mult) for h in found)
        if len(rest) > 1:
            rem_piece = poly(rest) ** mult
            remainder = rem_piece if remainder is None else remainder * rem_piece
    factors.sort(key=lambda fm: (fm[0].total_degree(), fm[0].canonical_str()))
    return FactorizationResult(unit, factors, remainder)


def squarefree_decomposition(p, var):
    """Squarefree decomposition: [(piece, multiplicity), ...], pieces pairwise coprime."""
    g = poly_gcd(p, p.derivative(var))
    if g.is_constant():
        return [(p, 1)]
    out = []
    w = divexact(p, g)
    i = 1
    while w.degree(var) > 0:
        y = poly_gcd(w, g)
        z = divexact(w, y)
        if z.degree(var) > 0:
            out.append((z, i))
        w = y
        g = divexact(g, y) if not y.is_constant() else g
        i += 1
    return out


def _unit_den(num, den):
    """Scale num and den alike so den is primitive with positive leading coefficient."""
    s = _primitive_scale(den)
    return num * s, den * s


def _cross_gcd(p, q):
    """gcd(p, q), or None when it is constant (always so if p or q is constant)."""
    if p.is_constant() or q.is_constant():
        return None
    g = poly_gcd(p, q)
    return None if g.is_constant() else g


def _lowest_product(a, b, c, d):
    """The RatFun (a/b)*(c/d) of two fractions a/b and c/d in lowest terms.

    With g1 = gcd(a, d) and g2 = gcd(c, b), the result is
    (a/g1 * c/g2) / (b/g2 * d/g1), already in lowest terms: each factor of
    the numerator is coprime to each factor of the denominator, because
    a/g1 divides a (coprime to b) and is coprime to d/g1, and c/g2 divides c
    (coprime to d) and is coprime to b/g2.  So no gcd of the full products
    runs, and _unit_den gives the same canonical form as the constructor.
    """
    a._check(c)
    if a.is_zero() or c.is_zero():
        return RatFun(MPoly.zero(a.vars), b)
    g1, g2 = _cross_gcd(a, d), _cross_gcd(c, b)
    if g1 is not None:
        a, d = divexact(a, g1), divexact(d, g1)
    if g2 is not None:
        c, b = divexact(c, g2), divexact(b, g2)
    out = RatFun.__new__(RatFun)
    out.num, out.den = _unit_den(a * c, b * d)
    return out


class RatFun:
    """Rational function num/den in lowest terms.

    The denominator is primitive with positive leading coefficient; the
    numerator absorbs the rational scale.  Construction normalizes.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: MPoly, den: MPoly):
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        num._check(den)
        if num.is_zero():
            den = MPoly.const(num.vars, 1)
        else:
            g = _cross_gcd(num, den)
            if g is not None:
                num = divexact(num, g)
                den = divexact(den, g)
            num, den = _unit_den(num, den)
        self.num = num
        self.den = den

    @classmethod
    def from_poly(cls, p: MPoly):
        return cls(p, MPoly.const(p.vars, 1))

    @classmethod
    def const(cls, vars, c):
        return cls.from_poly(MPoly.const(vars, c))

    @property
    def vars(self):
        return self.num.vars

    def is_zero(self):
        return self.num.is_zero()

    def is_poly(self):
        return self.den.is_constant()

    def __add__(self, other):
        other = self._coerce(other)
        return RatFun(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RatFun(-self.num, self.den)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        return _lowest_product(self.num, self.den, other.num, other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return _lowest_product(self.num, self.den, other.den, other.num)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def inverse(self):
        """1/self.  The swapped fraction is still in lowest terms, so no gcd runs."""
        if self.num.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        out = RatFun.__new__(RatFun)
        out.num, out.den = _unit_den(self.den, self.num)
        return out

    def __pow__(self, n):
        """self**n.  Powers of coprime num and den stay coprime, so no gcd runs."""
        if n < 0:
            return self.inverse() ** (-n)
        out = RatFun.__new__(RatFun)
        out.num, out.den = _unit_den(self.num**n, self.den**n)
        return out

    def _coerce(self, other):
        if isinstance(other, RatFun):
            return other
        if isinstance(other, MPoly):
            return RatFun.from_poly(other)
        return RatFun.const(self.vars, other)

    def __eq__(self, other):
        if not isinstance(other, RatFun):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __bool__(self):
        return bool(self.num)

    def evaluate(self, env) -> Fraction:
        d = self.den.evaluate(env)
        if d == 0:
            raise ZeroDivisionError("pole at %r" % (env,))
        return self.num.evaluate(env) / d

    def substitute_ratfun(self, mapping):
        """Compose with rational functions: var -> RatFun (shared target vars).

        An image n/d enters as n^k * d^(D-k), D the larger degree of num and
        den in its variable, so the factor d^D common to both composed
        polynomials cancels and the constructor's gcd is the only one.

        The tables hold integer coefficients: each image's n and d are
        scaled alike by the lcm of the coefficient denominators of n (d is
        primitive).  That multiplies both composed polynomials by one
        nonzero constant, which leaves the function unchanged, and the
        constructor's gcd and _unit_den give the same canonical num and den
        as unscaled composition would.
        """
        tvars = next(iter(mapping.values())).vars
        tables = []
        for v in self.vars:
            D = max(self.num.degree(v), self.den.degree(v))
            if D <= 0:
                tables.append(())
            elif mapping.get(v) is None:
                raise ValueError("unmapped variable %r" % v)
            else:
                image = mapping[v]
                l = math.lcm(*(c.denominator for c in image.num.terms.values()))
                ns, ds = _powers(image.num * l, D), _powers(image.den * l, D)
                tables.append([n * d for n, d in zip(ns, reversed(ds))])
        den = _compose(self.den, tables, tvars)
        if den.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RatFun(_compose(self.num, tables, tvars), den)

    def shift(self, var, delta):
        return RatFun(self.num.shift(var, delta), self.den.shift(var, delta))

    def to_str(self):
        if self.is_poly():
            scale = self.den.constant_value()
            if scale == 1:
                return self.num.to_str()
        return "(%s)/(%s)" % (self.num.to_str(), self.den.to_str())

    def __repr__(self):
        return "RatFun(%s)" % self.to_str()

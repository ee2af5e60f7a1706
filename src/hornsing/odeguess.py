"""Fit, normalize and analyze univariate linear ODEs on truncated series."""

import math
import operator
from fractions import Fraction
from itertools import islice, repeat

from .exact import (
    MPoly,
    ZeroInput,
    _is_probable_prime,
    divexact,
    factor_univariate,
    nullspace,
    poly_gcd,
)
from .exprio import format_ode_text, parse_ode_text
from .series import InsufficientOrder, UniSeries
from .theta import ThetaOp, dform_from_theta, theta_from_dform


class NotFound(Exception):
    """No nonzero operator exists within the requested bounds.

    max_order and max_degree are the bounds that were exhausted.
    """

    def __init__(self, message, max_order, max_degree):
        super().__init__(message)
        self.max_order = max_order
        self.max_degree = max_degree


class SingularPoint(Exception):
    """The head polynomial vanishes at the requested expansion point."""


class Unstable(Exception):
    """Square-order detection did not stabilize between N and N+10.

    When the two windows disagree, windows is (N, N+10) and orders holds the
    order found in each; otherwise both are None.
    """

    def __init__(self, message, windows=None, orders=None):
        super().__init__(message)
        self.windows = windows
        self.orders = orders


# ---------------------------------------------------------------------------
# Normalized differential operators


class UniODE:
    """Operator p_r(t)*D^r + ... + p_0(t) acting on series in one variable.

    Coefficients are stored as integer polynomials with overall content 1;
    the sign is fixed by making the lowest nonzero coefficient of the head
    polynomial p_r positive.
    """

    __slots__ = ("var", "coeffs")

    def __init__(self, var, coeffs):
        coeffs = [c.with_vars((var,)) for c in coeffs]
        while coeffs and coeffs[-1].is_zero():
            coeffs.pop()
        if not coeffs:
            raise ZeroInput("zero operator")
        den = 1
        for p in coeffs:
            for c in p.terms.values():
                den = den * c.denominator // math.gcd(den, c.denominator)
        num = 0
        for p in coeffs:
            for c in p.terms.values():
                num = math.gcd(num, abs(c.numerator * (den // c.denominator)))
        scale = Fraction(den, num if num else 1)
        head = coeffs[-1].as_univar(var)
        trail = next(c for c in head if not c.is_zero()).constant_value()
        if trail < 0:
            scale = -scale
        self.var = var
        self.coeffs = tuple(p * scale for p in coeffs)

    @property
    def order(self):
        return len(self.coeffs) - 1

    @property
    def head(self):
        return self.coeffs[-1]

    @classmethod
    def from_theta(cls, op):
        """Convert a theta-form operator, removing any common polynomial factor."""
        var, coeffs = dform_from_theta(op)
        nonzero = [p for p in coeffs if not p.is_zero()]
        g = nonzero[0]
        for p in nonzero[1:]:
            g = poly_gcd(g, p)
        if not g.is_constant():
            coeffs = [p if p.is_zero() else divexact(p, g) for p in coeffs]
        return cls(var, coeffs)

    def to_theta(self):
        return theta_from_dform(self.var, list(self.coeffs))

    @classmethod
    def from_text(cls, text):
        var, coeffs = parse_ode_text(text)
        return cls(var, coeffs)

    def to_text(self):
        return format_ode_text(self.var, list(self.coeffs))

    def coeff_lists(self):
        """Fraction coefficient lists of p_0..p_r, lowest degree first."""
        out = []
        for p in self.coeffs:
            if p.is_zero():
                out.append([Fraction(0)])
            else:
                out.append([c.constant_value() for c in p.as_univar(self.var)])
        return out

    def apply(self, s):
        """Exact image of a truncated series; the order drops by the ODE order."""
        r = self.order
        if s.order < r:
            raise InsufficientOrder(
                "series order %d below operator order %d" % (s.order, r)
            )
        out_ord = s.order - r
        lists = self.coeff_lists()
        out = [Fraction(0)] * (out_ord + 1)
        for j, pj in enumerate(lists):
            der = [s.coeffs[m + j] * math.perm(m + j, j) for m in range(out_ord + 1)]
            for i, ci in enumerate(pj):
                if not ci:
                    continue
                for k in range(i, out_ord + 1):
                    out[k] += ci * der[k - i]
        return UniSeries(out_ord, out)

    def __eq__(self, other):
        if not isinstance(other, UniODE):
            return NotImplemented
        return self.var == other.var and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.var, self.coeffs))

    def __repr__(self):
        parts = ["(%s)*D^%d" % (p.to_str(), j) for j, p in enumerate(self.coeffs)]
        return "UniODE(%s)" % " + ".join(parts)


class GuessReport:
    """An accepted fit together with its verification margin."""

    __slots__ = ("ode", "checked_margin")

    def __init__(self, ode, checked_margin):
        self.ode = ode
        self.checked_margin = checked_margin

    def __repr__(self):
        return "GuessReport(order=%d, margin=%d)" % (
            self.ode.order,
            self.checked_margin,
        )


class SingularLocus:
    """Factored head polynomial of an operator.

    The multiplicity of t = 0 is reported separately; `complete` is False
    when part of the head resisted the bounded factoring search and is kept
    unfactored in `other_factors`.
    """

    __slots__ = (
        "var",
        "head",
        "zero_multiplicity",
        "rational_points",
        "other_factors",
        "complete",
    )

    def __init__(self, var, head, zero_multiplicity, rational_points, other_factors, complete):
        self.var = var
        self.head = head
        self.zero_multiplicity = zero_multiplicity
        self.rational_points = tuple(rational_points)
        self.other_factors = tuple(other_factors)
        self.complete = complete

    def __repr__(self):
        pts = ", ".join("%s^%d" % rm for rm in self.rational_points)
        return "SingularLocus(t^%d; %s; %d residual)" % (
            self.zero_multiplicity,
            pts,
            len(self.other_factors),
        )


# ---------------------------------------------------------------------------
# Deterministic primes and modular linear algebra


class _BadPrime(Exception):
    pass


# Primes any one retry loop draws before it gives up.
_MAX_PRIMES = 60


def _prime_stream():
    yield 2**61 - 1
    n = 2**61 + 1
    while True:
        if _is_probable_prime(n):
            yield n
        n += 2


def _mod_frac(c, p):
    den = c.denominator % p
    if den == 0:
        raise _BadPrime("denominator divisible by modulus")
    num = c.numerator % p
    if den == 1:
        return num
    return num * pow(den, p - 2, p) % p


def _mod_echelon(rows, ncols, p):
    """Forward elimination mod p in place, yielding each pivot-free column.

    The entries of rows are residues in [0, p).  Each row is packed into one
    integer with column j in the w-bit slot starting at bit j*w, so a row
    update is a single big-integer step row += (p - f) * pivot_row, and slots
    are reduced mod p only where they are read: the pivot test, the factor f
    and the pivot row, which is unpacked, normalized to 1 and repacked once
    per pivot.  Every update adds a non-negative term below p^2 to a slot and
    a row gets at most one update per pivot, so a slot stays below
    p + ncols*p^2 < 2^w with w = (ncols+1).bit_length() + 2*p.bit_length()
    (rounded up to whole bytes): no slot ever carries into the next one.

    Pivot rows are normalized to 1 and moved up in column order, so rows[:rank]
    holds each pivot row as a list as soon as it is found, and once the
    generator is exhausted rows[:rank] is an echelon form whose pivot columns
    are exactly the columns not yielded.
    """
    nb = -(-((ncols + 1).bit_length() + 2 * p.bit_length()) // 8)
    w = 8 * nb
    mask = (1 << w) - 1
    widths = repeat(nb)
    order = repeat("little")
    packed = [
        int.from_bytes(b"".join(map(int.to_bytes, row, widths, order)), "little")
        for row in rows
    ]
    rank = 0
    nrows = len(rows)
    for c in range(ncols):
        shift = c * w
        for piv in range(rank, nrows):
            v = (packed[piv] >> shift & mask) % p
            if v:
                break
        else:
            yield c
            continue
        packed[rank], packed[piv] = packed[piv], packed[rank]
        inv = pow(v, p - 2, p)
        raw = packed[rank].to_bytes(nb * ncols, "little")
        prow = [
            int.from_bytes(raw[j : j + nb], "little") * inv % p
            for j in range(c * nb, nb * ncols, nb)
        ]
        rows[rank] = [0] * c + prow
        pivot = int.from_bytes(
            b"".join(map(int.to_bytes, prow, widths, order)), "little"
        ) << shift
        for i in range(rank + 1, nrows):
            f = (packed[i] >> shift & mask) % p
            if f:
                packed[i] += (p - f) * pivot
        rank += 1


def _first_free_block(rows, ncols, block, p):
    """Index of the first column block containing a pivot-free column.

    None means full column rank, so no annihilator exists in any of the
    nested column prefixes.  Destroys rows.
    """
    free = next(_mod_echelon(rows, ncols, p), None)
    return None if free is None else free // block


def _mod_null_vector(rows, ncols, p):
    """Pivot columns and canonical null vector mod p, or None at full rank.

    The vector has a 1 at the first free column and 0 at the other free
    columns.  Destroys rows.
    """
    free = list(_mod_echelon(rows, ncols, p))
    if not free:
        return None
    # Columns before the first free one are the pivots of rows[0..f-1].
    f = free[0]
    vec = [0] * ncols
    vec[f] = 1
    for i in range(f - 1, -1, -1):
        row = rows[i]
        vec[i] = -sum(row[j] * vec[j] for j in range(i + 1, f + 1)) % p
    return tuple(sorted(set(range(ncols)).difference(free))), vec


def _crt(r1, m1, r2, m2):
    t = (r2 - r1) * pow(m1 % m2, m2 - 2, m2) % m2
    return r1 + m1 * t


def _rat_recon(u, modulus):
    """Rational p/q with p, q below sqrt(modulus/2) congruent to u, or None."""
    bound = math.isqrt(modulus // 2)
    r0, r1 = modulus, u % modulus
    t0, t1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if t1 == 0:
        return None
    num, den = r1, t1
    if den < 0:
        num, den = -num, -den
    if den > bound or math.gcd(num, den) != 1 or math.gcd(den, modulus) != 1:
        return None
    return Fraction(num, den)


def _primitive(vec):
    """Integer multiple of a nonzero rational vector with content 1 and a
    positive first nonzero entry."""
    den = math.lcm(*(c.denominator for c in vec))
    ints = [int(c * den) for c in vec]
    g = math.gcd(*ints)
    if next(v for v in ints if v) < 0:
        g = -g
    return [v // g for v in ints]


def _null_vector_exact(fr_rows, ncols):
    """Canonical exact null vector of a rational matrix, or None if full rank.

    Works modulo a stream of 61-bit primes with CRT lifting and rational
    reconstruction; every candidate is verified exactly against the rational
    rows before being accepted, and a full-rank answer from any good prime is
    already a proof of nonexistence over the rationals.  After _MAX_PRIMES
    primes the exact nullspace decides.
    """
    structure = None
    residues = None
    modulus = None
    for p in islice(_prime_stream(), _MAX_PRIMES):
        try:
            rows = [[_mod_frac(x, p) for x in row] for row in fr_rows]
        except _BadPrime:
            continue
        found = _mod_null_vector(rows, ncols, p)
        if found is None:
            return None
        pivots, vec = found
        key = (len(pivots), pivots)
        if structure is None or key[0] > structure[0]:
            structure, residues, modulus = key, vec, p
        elif key != structure:
            continue
        else:
            residues = [_crt(r, modulus, v, p) for r, v in zip(residues, vec)]
            modulus *= p
        cand = [_rat_recon(u, modulus) for u in residues]
        if any(c is None for c in cand):
            continue
        ints = _primitive(cand)
        if all(
            sum(r * v for r, v in zip(row, ints) if v) == 0 for row in fr_rows
        ):
            return [Fraction(v) for v in ints]
    basis = nullspace(fr_rows)
    if not basis:
        return None
    return [Fraction(v) for v in _primitive(basis[0])]


# ---------------------------------------------------------------------------
# Guessing


def _theta_rows(weights, nrows, order, degree):
    """Coefficient-matching rows for sum_a t^a Q_a(theta) annihilating a series.

    weights[k][i] is k^i * c_k in the field at hand.  Column a*(order+1) + i of
    row n carries weights[n-a][i] (0 for n < a): blocks of fixed shift a.
    """
    zero = [0] * (order + 1)
    rows = []
    for n in range(nrows):
        row = []
        for a in range(degree + 1):
            row += weights[n - a][: order + 1] if n >= a else zero
        rows.append(row)
    return rows


def guess_ode(s, max_order, max_degree, var="t"):
    """Minimal (order, then degree) operator annihilating a truncated series.

    The fit runs on the theta form sum_a t^a Q_a(theta) with deg Q_a bounded
    by the order and a bounded by the degree; the returned operator is the
    D-form with any common polynomial factor removed.  Raises NotFound when
    the whole bounded rectangle is exhausted (a certificate by full modular
    column rank) and InsufficientOrder when the series is too short to leave
    a ten-row verification margin.
    """
    if max_order < 1 or max_degree < 0:
        raise ValueError("bounds must allow a nonzero operator")
    need = (max_order + 1) * (max_degree + 1) + max_order + 10
    if s.order < need:
        raise InsufficientOrder(
            "series order %d, need at least %d for bounds (%d, %d)"
            % (s.order, need, max_order, max_degree)
        )
    nrows = s.order + 1
    ncols = (max_order + 1) * (max_degree + 1)
    # Theta-major columns, in blocks of fixed theta power i.
    theta_major = [
        a * (max_order + 1) + i
        for i in range(max_order + 1)
        for a in range(max_degree + 1)
    ]
    for p in islice(_prime_stream(), _MAX_PRIMES):
        try:
            cm = [_mod_frac(c, p) for c in s.coeffs]
        except _BadPrime:
            continue
        weights = [
            [c * pow(k, i, p) % p for i in range(max_order + 1)]
            for k, c in enumerate(cm)
        ]
        rows = _theta_rows(weights, nrows, max_order, max_degree)
        rows = [[row[j] for j in theta_major] for row in rows]
        r_star = _first_free_block(rows, ncols, max_degree + 1, p)
        if r_star is None:
            raise NotFound(
                "no operator within order %d and degree %d" % (max_order, max_degree),
                max_order,
                max_degree,
            )
        rows = _theta_rows(weights, nrows, r_star, max_degree)
        d_star = _first_free_block(
            rows, (r_star + 1) * (max_degree + 1), r_star + 1, p
        )
        if d_star is None:
            continue
        exact = [
            [c * k**i for i in range(r_star + 1)] for k, c in enumerate(s.coeffs)
        ]
        fr_rows = _theta_rows(exact, nrows, r_star, d_star)
        vec = _null_vector_exact(fr_rows, (r_star + 1) * (d_star + 1))
        if vec is None:
            continue
        tname = "t" + var
        theta = MPoly.variable((tname,), tname)
        terms = []
        for a in range(d_star + 1):
            q = MPoly.zero((tname,))
            for i in range(r_star + 1):
                c = vec[a * (r_star + 1) + i]
                if c:
                    q = q + theta**i * c
            if not q.is_zero():
                terms.append(((a,), q))
        ode = UniODE.from_theta(ThetaOp((var,), terms))
        margin = nrows - (r_star + 1) * (d_star + 1)
        return GuessReport(ode, margin)
    raise RuntimeError("no usable prime among the first %d" % _MAX_PRIMES)


def annihilates_series(ode, s):
    """Exact zero test of ode applied to s through the whole valid window."""
    degmax = max(p.degree(ode.var) for p in ode.coeffs)
    if s.order < ode.order + degmax + 10:
        raise InsufficientOrder(
            "series order %d, need %d" % (s.order, ode.order + degmax + 10)
        )
    return not any(ode.apply(s).coeffs)


# ---------------------------------------------------------------------------
# Head polynomial analysis and local solutions


def singular_points(ode):
    """Factor the head polynomial; t = 0 multiplicity is reported separately."""
    fac = factor_univariate(ode.head, ode.var)
    zero_mult = 0
    rational = []
    other = []
    for f, m in fac.factors:
        if f.total_degree() == 1:
            cs = f.as_univar(ode.var)
            b = cs[0].constant_value() if not cs[0].is_zero() else Fraction(0)
            a = cs[1].constant_value()
            root = -b / a
            if root == 0:
                zero_mult = m
            else:
                rational.append((root, m))
        else:
            other.append((f, m))
    if fac.remainder is not None:
        other.append((fac.remainder, 1))
    rational.sort()
    return SingularLocus(
        ode.var, ode.head, zero_mult, rational, other, fac.complete
    )


def _shifted_coeffs(ode, t0):
    """Coefficient lists of p_0(t0 + s)..p_r(t0 + s), lowest degree first."""
    out = []
    for p in ode.coeffs:
        q = p.shift(ode.var, t0)
        if q.is_zero():
            out.append([Fraction(0)])
        else:
            out.append([c.constant_value() for c in q.as_univar(ode.var)])
    return out


def _recurrence_basis(shifted, head_val, N, div):
    """Coefficients a_0..a_N of the solutions with unit initial segments.

    shifted holds the coefficient lists of the operator at the expansion
    point, head_val = p_r there is nonzero, and div is the field's division.
    """
    r = len(shifted) - 1
    basis = []
    for unit in range(r):
        a = [0] * (N + 1)
        a[unit] = 1
        for n in range(N + 1 - r):
            acc = 0
            for j, qj in enumerate(shifted):
                for i, ci in enumerate(qj):
                    if not ci or (j == r and i == 0):
                        continue
                    k = n - i + j
                    if 0 <= k < n + r:
                        acc += ci * math.perm(k, j) * a[k]
            a[n + r] = div(-acc, head_val * math.perm(n + r, r))
        basis.append(a)
    return basis


def local_basis(ode, t0, N):
    """Fundamental system at an ordinary point, as series in s = t - t0.

    The r = ode.order solutions have unit-vector initial segments and are
    produced by the coefficient recurrence of the shifted equation.
    """
    t0 = Fraction(t0)
    head_val = ode.head.evaluate({ode.var: t0})
    if head_val == 0:
        raise SingularPoint("head polynomial vanishes at %s" % t0)
    basis = _recurrence_basis(_shifted_coeffs(ode, t0), head_val, N, operator.truediv)
    return [UniSeries(N, a) for a in basis]


# ---------------------------------------------------------------------------
# Exterior and symmetric square orders by the wronskian-series method


def _base_point(ode):
    q = 7
    while True:
        t0 = Fraction(1, q)
        if ode.head.evaluate({ode.var: t0}) != 0:
            return t0
        q = 10 if q == 7 else q + 1


def _conv_prefix(a, b, length, p):
    out = [0] * length
    for i, ai in enumerate(a):
        if not ai or i >= length:
            continue
        top = min(len(b), length - i)
        for j in range(top):
            if b[j]:
                out[i + j] = (out[i + j] + ai * b[j]) % p
    return out


def _dform_rows(target, length, cap, degree, p, fall, k_count):
    """Rows matching sum_j p_j(s) f^(j) = 0 with deg p_j <= degree, order <= cap.

    Column j*(degree+1) + i of row k carries fall[m][j] * target[m] with
    m = k - i + j, or 0 for m < 0.
    """
    nrows = min(k_count, length - cap)
    top = nrows + cap
    # tables[j][top-1-m] = fall[m][j] * target[m], padded with degree zeros
    # for m < 0, so the degree+1 entries of block j in row k are one slice.
    tables = [
        [fall[m][j] * target[m] % p for m in range(top - 1, -1, -1)] + [0] * degree
        for j in range(cap + 1)
    ]
    rows = []
    for k in range(nrows):
        row = []
        for j, table in enumerate(tables):
            start = top - 1 - k - j
            row += table[start : start + degree + 1]
        rows.append(row)
    return rows


def _min_order_mod(targets, length, cap, degree, p):
    """Smallest D-order of a joint annihilator of the listed targets mod p."""
    fall = [[1] * (cap + 1) for _ in range(length)]
    for m in range(length):
        for j in range(1, cap + 1):
            fall[m][j] = fall[m][j - 1] * (m - j + 1) % p
    ncols = (cap + 1) * (degree + 1)
    per = -(-(ncols + 30) // len(targets))
    blocks = [_dform_rows(t, length, cap, degree, p, fall, per) for t in targets]
    rows = [row for group in zip(*blocks) for row in group]
    return _first_free_block(rows, ncols, degree + 1, p)


def _square_order_once(ode, L, p, pairs):
    r = ode.order
    cap = r * (r - 1) // 2 if pairs else r * (r + 1) // 2
    t0 = _base_point(ode)
    shifted = [[_mod_frac(c, p) for c in qj] for qj in _shifted_coeffs(ode, t0)]
    head_val = _mod_frac(ode.head.evaluate({ode.var: t0}), p)
    if head_val == 0:
        raise _BadPrime("head value divisible by modulus")
    basis = _recurrence_basis(
        shifted, head_val, L, lambda a, b: a * pow(b, p - 2, p) % p
    )
    if pairs:
        ders = [
            [(m + 1) * y[m + 1] % p for m in range(L)] for y in basis
        ]
        length = L
        targets = []
        for i in range(r):
            for j in range(i + 1, r):
                wij = _conv_prefix(basis[i], ders[j], length, p)
                wji = _conv_prefix(ders[i], basis[j], length, p)
                targets.append([(u - v) % p for u, v in zip(wij, wji)])
    else:
        length = L + 1
        targets = []
        for i in range(r):
            for j in range(i, r):
                targets.append(_conv_prefix(basis[i], basis[j], length, p))
    combos = []
    for power in (1, 2):
        acc = [0] * length
        for idx, tgt in enumerate(targets):
            w = pow(idx + 1, power)
            for k in range(length):
                if tgt[k]:
                    acc[k] = (acc[k] + w * tgt[k]) % p
        combos.append(acc)
    degree = (length - cap - 10) // (cap + 1) - 1
    if degree < 0:
        raise Unstable("series window too short for order cap %d" % cap)
    found = []
    for tgt in targets + combos:
        o = _min_order_mod([tgt], length, cap, degree, p)
        if o is None:
            raise Unstable(
                "no annihilator of order <= %d, degree <= %d" % (cap, degree)
            )
        found.append(o)
    joint = _min_order_mod(targets, length, cap, degree, p)
    if joint is None:
        raise Unstable(
            "no joint annihilator of order <= %d, degree <= %d" % (cap, degree)
        )
    found.append(joint)
    return max(found)


def _square_order(ode, N, pairs):
    if ode.order < 2:
        raise ValueError("need an operator of order at least 2")
    stream = _prime_stream()
    results = []
    for L in (N, N + 10):
        for p in islice(stream, _MAX_PRIMES):
            try:
                results.append(_square_order_once(ode, L, p, pairs))
            except _BadPrime:
                continue
            break
        else:
            raise RuntimeError("no usable prime among the first %d" % _MAX_PRIMES)
    if results[0] != results[1]:
        raise Unstable(
            "order %d at N=%d but %d at N=%d" % (results[0], N, results[1], N + 10),
            (N, N + 10),
            tuple(results),
        )
    return results[0]


def exterior_square_order(ode, N):
    """Order of the minimal operator annihilating all pairwise wronskians.

    Deterministic integer combinations of the wronskians and every wronskian
    individually are guessed alongside the joint fit; the maximum is returned
    and must agree between window sizes N and N+10.
    """
    return _square_order(ode, N, True)


def symmetric_square_order(ode, N):
    """Order of the minimal operator annihilating all pairwise products."""
    return _square_order(ode, N, False)

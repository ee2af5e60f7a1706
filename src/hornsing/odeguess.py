"""Fit, normalize and analyze univariate linear ODEs on truncated series."""

import math
from fractions import Fraction
from itertools import islice, repeat

from .exact import (
    MPoly,
    ZeroInput,
    _clear,
    _eval_int,
    _int_rank,
    _is_probable_prime,
    _mul_trunc,
    _poly_add,
    _poly_trim,
    divexact,
    factor_univariate,
    gcd_list,
    nullspace,
)
from .exprio import format_ode_text, parse_ode_text
from .series import InsufficientOrder, UniSeries
from .theta import ThetaOp, dform_from_theta


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
        den, ints = _clear(c for p in coeffs for c in p.terms.values())
        scale = Fraction(den, math.gcd(*ints))
        if next(c for c in coeffs[-1].coeff_list(var) if c) < 0:
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
        g = gcd_list(coeffs)
        if not g.is_constant():
            coeffs = [divexact(p, g) for p in coeffs]
        return cls(var, coeffs)

    @classmethod
    def from_text(cls, text):
        var, coeffs = parse_ode_text(text)
        return cls(var, coeffs)

    def to_text(self):
        return format_ode_text(self.var, list(self.coeffs))

    def coeff_lists(self):
        """Fraction coefficient lists of p_0..p_r, lowest degree first."""
        return [p.coeff_list(self.var) for p in self.coeffs]

    def apply(self, s):
        """Exact image of a truncated series; the order drops by the ODE order.

        Each p_j * D^j term is an integer list product on the series cleared
        once; one Fraction is built per output coefficient.
        """
        r = self.order
        if s.order < r:
            raise InsufficientOrder(
                "series order %d below operator order %d" % (s.order, r),
                needed=r,
                have=s.order,
            )
        out_ord = s.order - r
        den, ints = _clear(s.coeffs)
        out = [0] * (out_ord + 1)
        for j, pj in enumerate(self.coeff_lists()):
            der = [ints[m + j] * math.perm(m + j, j) for m in range(out_ord + 1)]
            _poly_add(out, _mul_trunc([int(c) for c in pj], der, out_ord), 1)
        return UniSeries(out_ord, [Fraction(v, den) for v in out])

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


# Primes any one retry loop draws before it gives up.
_MAX_PRIMES = 60


def _prime_stream():
    yield 2**61 - 1
    n = 2**61 + 1
    while True:
        if _is_probable_prime(n):
            yield n
        n += 2


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


def _first_null_vector(rows, ncols, p):
    """First pivot-free column f and the null vector mod p with a 1 at f and
    zeros past f, or None at full column rank.

    The elimination stops at f, where rows[:f] are the pivot rows of columns
    0..f-1, and the vector is back-substituted from them.  Destroys rows.
    """
    f = next(_mod_echelon(rows, ncols, p), None)
    if f is None:
        return None
    vec = [0] * f + [1]
    for i in range(f - 1, -1, -1):
        row = rows[i]
        vec[i] = -sum(row[j] * vec[j] for j in range(i + 1, f + 1)) % p
    return f, vec


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
    _, ints = _clear(vec)
    g = math.gcd(*ints)
    if next(v for v in ints if v) < 0:
        g = -g
    return [v // g for v in ints]


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

    Per prime, the first free theta-major column gives r*, and the degree
    pass stops at its first free column f with the null vector mod p.  Rank
    mod p never exceeds rank over Q on a column prefix, so an unlucky prime
    only lowers the key (r*, f).  Residues of the largest key are combined by
    CRT, reconstructed and verified against the exact (r*, d*) rows; after
    _MAX_PRIMES primes the exact nullspace of those rows decides, and if it
    is empty the RuntimeError carries the primes drawn as `primes`.
    """
    if max_order < 1 or max_degree < 0:
        raise ValueError("bounds must allow a nonzero operator")
    need = (max_order + 1) * (max_degree + 1) + max_order + 10
    if s.order < need:
        raise InsufficientOrder(
            "series order %d, need at least %d for bounds (%d, %d)"
            % (s.order, need, max_order, max_degree),
            needed=need,
            have=s.order,
        )
    nrows = s.order + 1
    ncols = (max_order + 1) * (max_degree + 1)
    # Theta-major columns, in blocks of fixed theta power i.
    theta_major = [
        a * (max_order + 1) + i
        for i in range(max_order + 1)
        for a in range(max_degree + 1)
    ]
    # A common scale leaves the null space unchanged.
    _, ints = _clear(s.coeffs)
    primes = []
    best = None
    for p in islice(_prime_stream(), _MAX_PRIMES):
        primes.append(p)
        cm = [c % p for c in ints]
        weights = [
            [c * pow(k, i, p) % p for i in range(max_order + 1)]
            for k, c in enumerate(cm)
        ]
        rows = _theta_rows(weights, nrows, max_order, max_degree)
        rows = [[row[j] for j in theta_major] for row in rows]
        free = next(_mod_echelon(rows, ncols, p), None)
        if free is None:
            raise NotFound(
                "no operator within order %d and degree %d" % (max_order, max_degree),
                max_order,
                max_degree,
            )
        r_star = free // (max_degree + 1)
        rows = _theta_rows(weights, nrows, r_star, max_degree)
        # never None: the r* pass found these columns (same prime, reordered) rank-deficient
        f, vec = _first_null_vector(rows, (r_star + 1) * (max_degree + 1), p)
        key = (r_star, f)
        if best is None or key > best:
            best, residues, modulus = key, vec, p
            exact = [[c * k**i for i in range(r_star + 1)] for k, c in enumerate(ints)]
            int_rows = _theta_rows(exact, nrows, r_star, f // (r_star + 1))
        elif key < best:
            continue
        else:
            residues = [_crt(r, modulus, v, p) for r, v in zip(residues, vec)]
            modulus *= p
        cand = [_rat_recon(u, modulus) for u in residues]
        if any(c is None for c in cand):
            continue
        vec = _primitive(cand)
        if all(sum(r * v for r, v in zip(row, vec) if v) == 0 for row in int_rows):
            break
    else:
        basis = nullspace(int_rows)
        if not basis:
            err = RuntimeError("no usable prime among the first %d" % _MAX_PRIMES)
            err.primes = primes
            raise err
        vec = _primitive(basis[0])
    r_star, f = best
    d_star = f // (r_star + 1)
    tname = "t" + var
    terms = []
    for a in range(d_star + 1):
        block = vec[a * (r_star + 1) : (a + 1) * (r_star + 1)]
        q = MPoly((tname,), {(i,): c for i, c in enumerate(block)})
        if not q.is_zero():
            terms.append(((a,), q))
    ode = UniODE.from_theta(ThetaOp((var,), terms))
    return GuessReport(ode, nrows - (r_star + 1) * (d_star + 1))


def annihilates_series(ode, s):
    """Exact zero test of ode applied to s through the whole valid window."""
    need = ode.order + max(p.degree(ode.var) for p in ode.coeffs) + 10
    if s.order < need:
        raise InsufficientOrder(
            "series order %d, need %d" % (s.order, need), needed=need, have=s.order
        )
    return not any(ode.apply(s).coeffs)


# ---------------------------------------------------------------------------
# Head polynomial analysis and local solutions


def singular_points(ode):
    """Factor the head polynomial; t = 0 multiplicity is reported separately."""
    fac = factor_univariate(ode.head, ode.var)
    roots, other = fac.split_roots(ode.var)
    rational = sorted((r, m) for r, m in roots if r != 0)
    zero_mult = dict(roots).get(0, 0)
    return SingularLocus(
        ode.var, ode.head, zero_mult, rational, other, fac.complete
    )


def local_basis(ode, t0, N):
    """Fundamental system at an ordinary point, as series in s = t - t0.

    The r = ode.order solutions have unit-vector initial segments and are
    produced by the coefficient recurrence of the shifted equation.  An N
    below ode.order - 1 leaves no room for those segments and raises
    InsufficientOrder.
    """
    t0 = Fraction(t0)
    head_val = ode.head.evaluate({ode.var: t0})
    if head_val == 0:
        raise SingularPoint("head polynomial vanishes at %s" % t0)
    r = ode.order
    if N < r - 1:
        raise InsufficientOrder(
            "local basis of order %d needs N >= %d, have %d" % (r, r - 1, N),
            needed=r - 1,
            have=N,
        )
    shifted = [p.shift(ode.var, t0).coeff_list(ode.var) for p in ode.coeffs]
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
            a[n + r] = -acc / (head_val * math.perm(n + r, r))
        basis.append(UniSeries(N, a))
    return basis


# ---------------------------------------------------------------------------
# Exterior and symmetric square orders by an exact rank certificate


def _square_order(ode, pairs):
    """Order of the exterior (pairs) or symmetric square of ode, certified.

    Solutions f, g of L = sum p_j D^j give the coordinates
    f^(a) g^(b) - f^(b) g^(a), a < b < r (wedge), or
    f^(a) g^(b) + f^(b) g^(a), a <= b < r (product), whose derivatives are
    coordinates again, with M as matrix, once f^(r) is replaced through L.
    The k-th derivative of the first coordinate, the wronskian (twice the
    product), is u_k . coordinates with u_0 = e_0 and u_{k+1} = u_k' + u_k M.
    The integer polynomial vectors v_0 = e_0, v_{k+1} = p_r v_k' + v_k (p_r M)
    satisfy v_k = p_r^k u_k + (a Q(t)-combination of u_0..u_{k-1}), so they
    span the same spaces.  The order is the first o with v_o in the Q(t)-span
    of v_0..v_{o-1}: the span is then closed under the recurrence (van der
    Put and Singer, Galois Theory of Linear Differential Equations, section 2).

    Returns (order, points, bound): v_0..v_k have rank k + 1 at the integer
    point points[k], and [v_0..v_order] has rank <= order at each of
    t = 0..bound, bound = sum of deg v_k, so every maximal minor, of degree
    at most bound, vanishes identically.  bound is None when the order is
    the number of coordinates.
    """
    r = ode.order
    if r < 2:
        raise ValueError("need an operator of order at least 2")
    p = [[int(c) for c in lst] for lst in ode.coeff_lists()]
    coords = [(a, b) for a in range(r) for b in range(a + pairs, r)]
    index = {c: i for i, c in enumerate(coords)}
    n = len(coords)
    # scaled[i] lists (j, f, q): row i of p_r M has f * p_q in column j.
    scaled = [[] for _ in coords]

    def put(i, a, b, f, q):
        if a > b:
            a, b = b, a
            f = -f if pairs else f
        if pairs and a == b:
            return
        if b == r:
            for j in range(r):
                put(i, a, j, -f, j)
        else:
            scaled[i].append((index[a, b], f, q))

    for i, (a, b) in enumerate(coords):
        put(i, a + 1, b, 1, r)
        put(i, a, b + 1, 1, r)
    v = [[0] for _ in coords]
    v[0] = [1]
    vs = [v]
    points = [0]
    while len(points) < n:
        nxt = []
        for x in v:
            dx = [k * c for k, c in enumerate(x)][1:] or [0]
            nxt.append(_mul_trunc(p[r], dx, len(p[r]) + len(dx) - 2))
        for i, x in enumerate(v):
            for j, f, q in scaled[i]:
                _poly_add(nxt[j], _mul_trunc(x, p[q], len(x) + len(p[q]) - 2), f)
        v = [_poly_trim(x) for x in nxt]
        vs.append(v)
        bound = sum(max(len(x) for x in w) - 1 for w in vs)
        for t in range(bound + 1):
            rows = [[_eval_int(x, t) for x in w] for w in vs]
            if _int_rank(rows) == len(vs):
                points.append(t)
                break
        else:
            return len(points), points, bound
    return n, points, None


def exterior_square_order(ode, N=None):
    """Order of the minimal operator annihilating all pairwise wronskians.

    The order is exact, proved by the rank certificate of _square_order.  N
    is accepted for existing callers and ignored: the order does not depend
    on a series window.
    """
    return _square_order(ode, True)[0]


def symmetric_square_order(ode, N=None):
    """Order of the minimal operator annihilating all pairwise products.

    Exact like exterior_square_order; N is ignored.
    """
    return _square_order(ode, False)[0]

"""Fit, normalize and analyze univariate linear ODEs on truncated series."""

import math
from collections import namedtuple
from fractions import Fraction
from itertools import islice, repeat
from operator import mul

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
from .exprio import format_ode_text
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


class GuessReport(namedtuple("GuessReport", "ode checked_margin")):
    """An accepted fit together with its verification margin."""

    __slots__ = ()


class SingularLocus(
    namedtuple(
        "SingularLocus",
        "var head zero_multiplicity rational_points other_factors complete",
    )
):
    """Factored head polynomial of an operator.

    The multiplicity of t = 0 is reported separately; `complete` is False
    when part of the head resisted the bounded factoring search and is kept
    unfactored in `other_factors`.
    """

    __slots__ = ()


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


def _mod_echelon(rows, ncols, p, block=0):
    """Forward elimination mod p in place, yielding each pivot-free column.

    The entries of rows are residues in [0, p).  Each row is packed into one
    integer with one w-bit slot per column, so a row update is a single
    big-integer step row += (p - f) * pivot_row, and slots are reduced mod p
    only where they are read: the pivot test, the factor f and the pivot
    row, which is unpacked, normalized to 1 and repacked once per pivot.
    The packed rows narrow as columns clear: once column c is eliminated,
    each row not yet a pivot row is shifted right by one slot (row >>= w),
    so its slot 0 always holds the current column and is read as row & mask,
    and the pivot row is repacked without its leading slot, so an update
    multiplies only the columns still ahead.  Every update adds a
    non-negative term below p^2 to a slot and a row gets at most one update
    per pivot, so a slot stays below p + ncols*p^2 < 2^w with
    w = (ncols+1).bit_length() + 2*p.bit_length() (rounded up to whole
    bytes): no slot ever carries into the next one.

    With block > 0 the elimination stops at the end of the block of `block`
    columns that holds the first free column: no later column is read.

    Pivot rows are normalized to 1 and moved up in column order, so rows[:rank]
    holds each pivot row as a list as soon as it is found, and once the
    generator is exhausted rows[:rank] is an echelon form whose pivot columns
    are exactly the columns read and not yielded.
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
    c = 0
    while c < ncols:
        for piv in range(rank, nrows):
            v = (packed[piv] & mask) % p
            if v:
                break
        else:
            yield c
            if block:
                ncols, block = min(ncols, (c // block + 1) * block), 0
                keep = (1 << w * (ncols - c)) - 1
                packed[rank:] = [x & keep for x in packed[rank:]]
            packed[rank:] = [x >> w for x in packed[rank:]]
            c += 1
            continue
        packed[rank], packed[piv] = packed[piv], packed[rank]
        inv = pow(v, -1, p)
        raw = packed[rank].to_bytes(nb * (ncols - c), "little")
        prow = [
            int.from_bytes(raw[j : j + nb], "little") * inv % p
            for j in range(0, nb * (ncols - c), nb)
        ]
        rows[rank] = [0] * c + prow
        pivot = int.from_bytes(
            b"".join(map(int.to_bytes, prow[1:], widths, order)), "little"
        )
        for i in range(rank + 1, nrows):
            x = packed[i]
            f = (x & mask) % p
            x >>= w
            if f:
                x += (p - f) * pivot
            packed[i] = x
        rank += 1
        c += 1


def _fit_mod_p(rows, order, degree, p):
    """Key (r*, f) and null vector mod p of theta-major rows, or None at full
    column rank.  Destroys rows.

    Column i*(degree+1) + a of rows carries theta power i at shift a.  One
    elimination runs through the end of block r*, the block holding the
    first free column, and the kernel of those (r*+1)*(degree+1) columns is
    back-substituted off its pivot rows, one vector per free column.  In
    a-major order (column a*(r*+1) + i) the vectors are reduced from the
    right: f is the smallest last nonzero index in their span, and the
    returned vector, entries 0..f, is the unique one with a 1 at f and zeros
    past f: what eliminating the a-major order-r* columns would give.
    """
    m = degree + 1
    free = list(_mod_echelon(rows, (order + 1) * m, p, m))
    if not free:
        return None
    r_star = free[0] // m
    end = (r_star + 1) * m
    pivots = [c for c in range(end) if c not in free]
    vecs = []
    for fc in free:
        v = [0] * fc + [1]
        for i in range(len(pivots) - 1, -1, -1):
            c, row = pivots[i], rows[i]
            if c < fc:
                v[c] = -sum(map(mul, row[c + 1 : fc + 1], v[c + 1 :])) % p
        # a-major entry a*(r*+1) + i is theta-major entry i*m + a
        a_major = [0] * end
        for j, x in enumerate(v):
            a_major[j % m * (r_star + 1) + j // m] = x
        vecs.append(_poly_trim(a_major))
    # The vectors are independent, so no combination of them is zero.
    vecs.sort(key=len)
    while len(vecs) > 1:
        top = vecs.pop()
        last = len(top) - 1
        inv = pow(top[last], -1, p)
        for k, v in enumerate(vecs):
            if len(v) == len(top):
                g = v[last] * inv % p
                vecs[k] = _poly_trim([(x - g * y) % p for x, y in zip(v, top)])
        vecs.sort(key=len)
    vec = vecs[0]
    f = len(vec) - 1
    inv = pow(vec[f], -1, p)
    return r_star, f, [x * inv % p for x in vec]


def _crt(r1, m1, r2, m2):
    """The residue mod m1*m2 of r1 mod m1 and r2 mod m2, for coprime m1 and m2."""
    t = (r2 - r1) * pow(m1, -1, m2) % m2
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


# ---------------------------------------------------------------------------
# Guessing


def _theta_rows(weights, nrows, order, degree):
    """Coefficient-matching rows for sum_a t^a Q_a(theta) annihilating a series.

    weights[k][i] is k^i * c_k.  Column a*(order+1) + i of row n carries
    weights[n-a][i] (0 for n < a): blocks of fixed shift a, the a-major
    order of the vectors _fit_mod_p returns.
    """
    zero = [0] * (order + 1)
    rows = []
    for n in range(nrows):
        row = []
        for a in range(degree + 1):
            row += weights[n - a][: order + 1] if n >= a else zero
        rows.append(row)
    return rows


def guess_ode(s, max_order, max_degree):
    """Minimal (order, then degree) operator annihilating a truncated series.

    The fit runs on the theta form sum_a t^a Q_a(theta) with deg Q_a bounded
    by the order and a bounded by the degree; the returned operator is the
    D-form in t with any common polynomial factor removed.  Raises NotFound
    when the whole bounded rectangle is exhausted (a certificate by full
    modular column rank) and InsufficientOrder when the series is too short
    to leave a ten-row verification margin.

    Per prime, one elimination of the theta-major rows (blocks of fixed
    theta power) runs through block r*, the block of the first free column,
    and _fit_mod_p reads the first free a-major column f of the order-r*
    columns and the null vector mod p off its pivot rows.  Rank mod p never
    exceeds rank over Q on a column prefix, so an unlucky prime only lowers
    the key (r*, f).  Residues of the largest key are combined by CRT,
    reconstructed and verified against the exact (r*, d*) rows; a prime
    drawn again while it divides the modulus is not fitted.  After
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
    # A common scale leaves the null space unchanged.
    _, ints = _clear(s.coeffs)
    pad = [0] * max_degree
    primes = []
    best = None
    for p in islice(_prime_stream(), _MAX_PRIMES):
        primes.append(p)
        if best is not None and modulus % p == 0:
            # a prime already in the modulus repeats its fit: the same key, no new digits
            continue
        # weights[i][max_degree + k] is k^i * c_k mod p, zero-padded in front
        weight = [c % p for c in ints]
        weights = [pad + weight]
        for _ in range(max_order):
            weight = [x * k % p for k, x in enumerate(weight)]
            weights.append(pad + weight)
        # theta-major: column i*(max_degree+1) + a of row n is (n-a)^i * c_(n-a)
        rows = []
        for n in range(nrows):
            row = []
            for w in weights:
                row += w[n : n + max_degree + 1][::-1]
            rows.append(row)
        found = _fit_mod_p(rows, max_order, max_degree, p)
        if found is None:
            raise NotFound(
                "no operator within order %d and degree %d" % (max_order, max_degree),
                max_order,
                max_degree,
            )
        r_star, f, vec = found
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
        # any multiple will do: UniODE removes the content and fixes the sign
        vec = _clear(cand)[1]
        if all(sum(r * v for r, v in zip(row, vec) if v) == 0 for row in int_rows):
            break
    else:
        basis = nullspace(int_rows)
        if not basis:
            err = RuntimeError("no usable prime among the first %d" % _MAX_PRIMES)
            err.primes = primes
            raise err
        vec = basis[0]
    r_star, f = best
    d_star = f // (r_star + 1)
    terms = []
    for a in range(d_star + 1):
        block = vec[a * (r_star + 1) : (a + 1) * (r_star + 1)]
        q = MPoly(("tt",), {(i,): c for i, c in enumerate(block)})
        if not q.is_zero():
            terms.append(((a,), q))
    ode = UniODE.from_theta(ThetaOp(("t",), terms))
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
# Head polynomial analysis


def singular_points(ode):
    """Factor the head polynomial; t = 0 multiplicity is reported separately."""
    fac = factor_univariate(ode.head, ode.var)
    roots, other = fac.split_roots(ode.var)
    rational = sorted((r, m) for r, m in roots if r != 0)
    zero_mult = dict(roots).get(0, 0)
    return SingularLocus(
        ode.var, ode.head, zero_mult, tuple(rational), tuple(other), fac.complete
    )


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

"""Theta-operator algebra on exact truncated series.

An operator is a sum of terms x^a y^b * Q(theta_x, theta_y) with the
monomial factors on the left (normal form); theta_v = v d/dv acts on
monomials as an eigenvalue and on powers of ln(v) by lowering.  The module
applies operators to series, converts univariate operators between D-form
and theta-form, and computes the finite space of formal log-series solutions
of a system.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, perm, prod

from .exact import MPoly, _clear, _term_sum
from .exprio import format_operator_text
from .series import BiSeries, InsufficientOrder, UniSeries


class ThetaOp:
    """Normal form sum of shift-monomial times theta-polynomial terms."""

    __slots__ = ("vars", "theta_vars", "terms")

    def __init__(self, vars, terms):
        vars = tuple(vars)
        if len(vars) not in (1, 2):
            raise ValueError("operators act on one or two variables")
        theta = tuple("t" + v for v in vars)
        merged = {}
        for exps, q in terms:
            exps = tuple(exps)
            if len(exps) != len(vars) or any(e < 0 for e in exps):
                raise ValueError("bad shift exponents %r" % (exps,))
            if q.vars != theta:
                q = q.with_vars(theta) if len(q.vars) == len(theta) else q
            if q.vars != theta:
                raise ValueError("theta polynomial must live in %r" % (theta,))
            merged[exps] = merged.get(exps, MPoly.zero(theta)) + q
        self.vars = vars
        self.theta_vars = theta
        self.terms = tuple(
            (exps, q)
            for exps, q in sorted(merged.items(), key=lambda kv: (sum(kv[0]), kv[0]))
            if not q.is_zero()
        )

    def to_text(self):
        return format_operator_text(self.vars, list(self.terms))

    @property
    def max_shift(self):
        return max((sum(e) for e, _ in self.terms), default=0)

    def __eq__(self, other):
        if not isinstance(other, ThetaOp):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self):
        return hash((self.vars, self.terms))

    def __repr__(self):
        return "ThetaOp(%r, %d terms)" % (self.vars, len(self.terms))


class PdeSystem:
    """A nonempty family of operators in the same variables."""

    __slots__ = ("ops",)

    def __init__(self, ops):
        ops = tuple(ops)
        if not ops:
            raise ValueError("a system needs at least one operator")
        if len({op.vars for op in ops}) != 1:
            raise ValueError("all operators must share their variables")
        self.ops = ops

    @property
    def vars(self):
        return self.ops[0].vars

    @property
    def max_shift(self):
        return max(op.max_shift for op in self.ops)


class LogSeries:
    """Sum of series coefficients times products of log powers.

    parts maps a log-power tuple (one entry per variable) to the series
    multiplying ln(x)^i [* ln(y)^j]; all parts share one truncation order.
    """

    __slots__ = ("order", "parts")

    def __init__(self, order, parts):
        self.order = order
        self.parts = {
            tuple(idx): s for idx, s in parts.items() if not _series_is_zero(s)
        }

    def __eq__(self, other):
        if not isinstance(other, LogSeries):
            return NotImplemented
        return self.order == other.order and self.parts == other.parts

    def __repr__(self):
        return "LogSeries(order=%d, logs=%s)" % (self.order, sorted(self.parts))


def _series_is_zero(s):
    if isinstance(s, BiSeries):
        return not any(any(ws) for _, ws in s.rows)
    return all(c == 0 for c in s.coeffs)


def _int_value(q, env):
    """q at env as an int; raises ValueError when the value is not an integer."""
    value = q.evaluate(env)
    if value.denominator != 1:
        raise ValueError("theta polynomial is not integral at %r" % (env,))
    return value.numerator


def apply(op, s):
    """Apply op to a plain series; the result order shrinks by max shift.

    Each theta polynomial is summed in integers from its MPoly.int_form at
    tabulated integer powers, and each output row or list is summed in
    integers over one denominator.
    """
    if len(op.vars) == 2:
        if not isinstance(s, BiSeries):
            raise TypeError("two-variable operator needs a BiSeries")
    elif not isinstance(s, UniSeries):
        raise TypeError("one-variable operator needs a UniSeries")
    out_order = s.order - op.max_shift
    if out_order < 0:
        raise InsufficientOrder(
            "series order below the operator shift", needed=op.max_shift, have=s.order
        )
    forms = [(exps, q.int_form()) for exps, q in op.terms]
    top = max((d for _, (_, _, degs) in forms for d in degs), default=0)
    # powers[k][j] = k**j, the j-th power of theta at lattice coordinate k
    powers = [[k**j for j in range(top + 1)] for k in range(out_order + 1)]
    if len(op.vars) == 1:
        den, ints = _clear(s.coeffs)
        common = lcm(*(l for _, (l, _, _) in forms))
        out = [0] * (out_order + 1)
        for (a,), (l, t, _) in forms:
            f = common // l
            for n in range(out_order - a + 1):
                if ints[n]:
                    out[n + a] += f * _term_sum(t, (powers[n],)) * ints[n]
        return UniSeries(out_order, [Fraction(v, common * den) for v in out])
    rows = []
    for p in range(out_order + 1):
        feeds = [(a, b, l, t, s.rows[p - a]) for (a, b), (l, t, _) in forms if a <= p]
        common = lcm(*(l * den for _, _, l, _, (den, _) in feeds))
        row = [0] * (out_order - p + 1)
        for a, b, l, t, (den, ws) in feeds:
            f = common // (l * den)
            for r in range(b, out_order - p + 1):
                w = ws[r - b]
                if w:
                    row[r] += f * _term_sum(t, (powers[p - a], powers[r - b])) * w
        rows.append((common, row))
    return BiSeries._from_rows(out_order, rows)


def annihilates(sys, s):
    """True iff every operator sends s to zero through its validity order.

    Requires at least ten checked orders beyond the largest shift.
    """
    if s.order < 10 + sys.max_shift:
        raise InsufficientOrder(
            "need series order >= %d for a trustworthy annihilation check"
            % (10 + sys.max_shift),
            needed=10 + sys.max_shift,
            have=s.order,
        )
    return all(_series_is_zero(apply(op, s)) for op in sys.ops)


# ---------------------------------------------------------------------------
# D-form conversions (univariate)


def _falling_poly(theta, count):
    out = MPoly.const(theta.vars, 1)
    for r in range(count):
        out = out * (theta - r)
    return out


def theta_from_dform(var, coeffs):
    """Normal form of sum p_j(t) D^j via t^k D^k = theta(theta-1)...(theta-k+1).

    The operator is premultiplied by the smallest power of t making every
    shift nonnegative, which does not change what it annihilates.
    """
    tvar = ("t" + var,)
    theta = MPoly.variable(tvar, "t" + var)
    raw = []
    for j, p in enumerate(coeffs):
        if p.is_zero():
            continue
        for exps, c in p.terms.items():
            raw.append((exps[0] - j, j, c))
    if not raw:
        raise ValueError("zero operator")
    lift = max(0, -min(e for e, _, _ in raw))
    acc = {}
    for e, j, c in raw:
        a = (e + lift,)
        q = _falling_poly(theta, j) * c
        acc[a] = acc.get(a, MPoly.zero(tvar)) + q
    return ThetaOp((var,), list(acc.items()))


def _stirling2(rows):
    """Stirling numbers of the second kind S(r, j) as ints, r <= rows."""
    table = [[1]]
    for r in range(1, rows + 1):
        prev = table[-1]
        row = [0] * (r + 1)
        for j in range(r):
            row[j] += j * prev[j]
            row[j + 1] += prev[j]
        table.append(row)
    return table


def dform_from_theta(op):
    """Coefficient list [p_0..p_r] with sum p_j(t) D^j equal to op."""
    if len(op.vars) != 1:
        raise ValueError("D-form conversion is univariate")
    var = op.vars[0]
    rmax = max(q.total_degree() for _, q in op.terms)
    s2 = _stirling2(rmax)
    out = [{} for _ in range(rmax + 1)]
    for (a,), q in op.terms:
        for r, c in enumerate(q.coeff_list(op.theta_vars[0])):
            if not c:
                continue
            for j in range(r + 1):
                w = s2[r][j]
                if w:
                    key = (a + j,)
                    out[j][key] = out[j].get(key, 0) + c * w
    out = [MPoly((var,), t) for t in out]
    while len(out) > 1 and out[-1].is_zero():
        out.pop()
    return var, out


# ---------------------------------------------------------------------------
# Formal log-series solutions


def _log_indices(width, max_log):
    """Log powers up to max_log in each variable separately."""
    if width == 1:
        return [(i,) for i in range(max_log + 1)]
    return [
        (i, j)
        for i in range(max_log + 1)
        for j in range(max_log + 1)
    ]


def _monos(width, degree):
    if width == 1:
        return [(degree,)]
    return [(n, degree - n) for n in range(degree, -1, -1)]


def _scaled_partials(q, theta_vars, max_log):
    """The nonzero {(s, t): d^s d^t q / (s! t!)} up to max_log in each direction.

    Each is s derivatives in the first variable, then t in the second, the
    k-th of each divided by k; mixed partials commute.
    """
    out = {}
    for idx in _log_indices(len(theta_vars), max_log):
        poly = q
        for var, s in zip(theta_vars, idx):
            for k in range(1, s + 1):
                poly = poly.derivative(var) * Fraction(1, k)
        if not poly.is_zero():
            out[idx] = poly
    return out


def _substitute(coeffs, holders, key, pivot, pc, row):
    """Replace pivot in the unknown at key, using pc * pivot + row = 0."""
    vec, den = coeffs[key]
    c = vec.pop(pivot)
    for q in vec:
        vec[q] *= pc
    for q, w in row.items():
        nv = vec.get(q, 0) - c * w
        if nv:
            if q not in vec:
                holders[q].add(key)
            vec[q] = nv
        elif q in vec:
            del vec[q]
            holders[q].discard(key)
    den *= pc
    g = gcd(den, *vec.values())
    if den < 0:
        g = -g
    coeffs[key] = ({q: v // g for q, v in vec.items()}, den // g)


def log_basis(sys, order, max_log):
    """Dimension and echelonized basis of formal log-series solutions.

    Substitutes sum H_{i,j} ln(x)^i ln(y)^j with series coefficients unknown
    through total degree `order`, solves degree by degree, and requires the
    dimension to be unchanged over the last three degrees.

    The elimination is over the integers.  Each operator is scaled by the
    lcm of its coefficient denominators, so its scaled partials take integer
    values at the integer source monomials.  The scaled partials are built
    once per operator and evaluated with MPoly.evaluate, which clears each
    one to integers on its first call (MPoly.int_form) and keeps that form
    for every later point; a value that is not an integer raises
    ValueError.  The values stay on MPoly.evaluate, not on a table of
    their own: these are all the MPoly.evaluate calls of the guess
    workload, which perfbench/layers.py times as its exact.mpoly_eval
    group, and that group must be called there.  Each unknown is an
    integer vector over the free parameters with a positive denominator, in
    lowest terms, and each equation row is built over the lcm of the
    denominators that feed it: a multiple of the rational row, with the
    same support.

    The unknown (li, mono) is born as the parameter numbered by its place in
    the canonical column order: log powers by (total log degree, first log
    power) descending, then series monomials graded ascending, lexicographic
    inside a degree.  The equation for (li, mono) reaches only unknowns at
    log powers componentwise at least li and at monomials no later than
    mono, all no later in that order, and the equations of a degree are
    walked with the highest log powers first.  So the pivot, the largest
    parameter of the row, is most often the row's own fresh unknown, held
    by that unknown alone.  A pivot is substituted only in the unknowns that
    hold it, which an index from parameter to unknowns lists, and only by
    smaller parameters.  So every unknown holds parameters no larger than
    its own, and a free parameter's own unknown stays that parameter with
    denominator 1.  Hence the matrix with one row per free parameter and one
    column per unknown in canonical order, its entries the coefficients, is
    already in reduced row echelon form, with the free parameters as its
    pivot columns; no further elimination is needed.  Each row is cleared
    over its denominators and divided by its content, which leaves a
    positive pivot entry, and the basis is read off it over that entry: as
    BiSeries rows, or as one Fraction per entry of a univariate part.
    """
    if max_log < 0:
        raise ValueError("max_log must be nonnegative")
    width = len(sys.vars)
    theta_vars = sys.ops[0].theta_vars
    logidx = _log_indices(width, max_log)
    li_order = sorted(logidx, key=lambda li: (sum(li), li), reverse=True)
    index = {}  # (li, mono) -> its parameter id, the canonical column
    for li in li_order:
        for d in range(order + 1):
            for mono in sorted(_monos(width, d)):
                index[(li, mono)] = len(index)
    partials = []
    for op in sys.ops:
        scale, _ = _clear(c for _, q in op.terms for c in q.terms.values())
        partials.append(
            [
                (exps, list(_scaled_partials(q * scale, theta_vars, max_log).items()))
                for exps, q in op.terms
            ]
        )

    # lifts[li][sidx] = (src, f): through its partial sidx, a term feeds the
    # unknown at log index src = li + sidx into the equation for li, with
    # weight f = prod l (l-1) ... (l-s+1) over the components l of src and s
    # of sidx, what theta^s puts on ln^l; an src past max_log feeds nothing
    lifts = {li: {} for li in logidx}
    for li in logidx:
        for sidx in logidx:
            src = tuple(l + s for l, s in zip(li, sidx))
            if max(src) <= max_log:
                lifts[li][sidx] = (src, prod(perm(l, s) for l, s in zip(src, sidx)))

    # coeffs[(li, mono)] = (vec, den): the unknown is sum vec[pid] * pid / den.
    # holders[pid]: the keys whose vec holds pid; its keys are the free pids.
    coeffs = {}
    holders = {}
    dims = []

    for degree in range(order + 1):
        monos = _monos(width, degree)
        for li in li_order:
            for mono in monos:
                pid = index[(li, mono)]
                coeffs[(li, mono)] = ({pid: 1}, 1)
                holders[pid] = {(li, mono)}
        for op_terms in partials:
            # Nonzero scaled partials of each term at each source monomial,
            # evaluated once for all log indices of this degree; integers.
            sources = {}
            for mono in monos:
                found = []
                for exps, polys in op_terms:
                    src_mono = tuple(p - a for p, a in zip(mono, exps))
                    if any(v < 0 for v in src_mono):
                        continue
                    env = dict(zip(theta_vars, src_mono))
                    values = [(sidx, _int_value(poly, env)) for sidx, poly in polys]
                    found.append((src_mono, [(sidx, w) for sidx, w in values if w]))
                sources[mono] = found
            for li in li_order:
                lift = lifts[li]
                for mono in monos:
                    feeds = []
                    for src_mono, values in sources[mono]:
                        for sidx, w in values:
                            if sidx in lift:
                                src_log, f = lift[sidx]
                                feeds.append((w * f, coeffs[(src_log, src_mono)]))
                    den = lcm(*[d for _, (_, d) in feeds])
                    row = {}
                    for w, (vec, d) in feeds:
                        w *= den // d
                        for pid, pc in vec.items():
                            nv = row.get(pid, 0) + w * pc
                            if nv:
                                row[pid] = nv
                            elif pid in row:
                                del row[pid]
                    if not row:
                        continue
                    pivot = max(row)
                    pc = row.pop(pivot)
                    for key in holders.pop(pivot):
                        _substitute(coeffs, holders, key, pivot, pc, row)
        dims.append(len(holders))

    if len(dims) < 3 or not dims[-1] == dims[-2] == dims[-3]:
        raise InsufficientOrder(
            "solution dimension still moving at order %d: %s"
            % (order, dims[-3:]),
            dims=dims,
        )

    basis = []
    for pid in sorted(holders):
        keys = holders[pid]
        row_den = lcm(*[coeffs[key][1] for key in keys])
        row = {key: coeffs[key][0][pid] * (row_den // coeffs[key][1]) for key in keys}
        g = gcd(*row.values())
        row = {key: c // g for key, c in row.items()}
        den = row_den // g
        built = {}
        for li in li_order:
            if width == 2:
                built[li] = BiSeries._from_rows(order, [
                    (den, [row.get((li, (n, m)), 0) for m in range(order - n + 1)])
                    for n in range(order + 1)
                ])
            else:
                built[li] = UniSeries(
                    order, [Fraction(row.get((li, (k,)), 0), den) for k in range(order + 1)]
                )
        basis.append(LogSeries(order, built))
    return len(basis), basis

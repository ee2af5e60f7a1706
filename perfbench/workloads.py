"""Job lists of the four hornsing pipelines, built from fixtures and a seed.

`prepare(workload, seed)` is the whole set-up of a workload process: the
hornsing modules are imported with this module, and `prepare` reads the
fixture files through `exprio.load_*` and builds the seeded inputs.  It
returns `(name, job)` pairs.  A job computes through the public hornsing API
and raises `Mismatch` when an answer differs from the known one.  The known
answers are the ones the test suite asserts.  The singular points and genera
of the Horn curves, which the tests do not assert, were recorded from the
program; the rational singular points and the genera agree with a Groebner
basis and discriminant computation in sympy, and the leftover eliminant
factors of bat19 (no rational roots) are recorded as the program reports
them.
"""

import random
from fractions import Fraction
from pathlib import Path

from hornsing.curves import (
    Curve,
    Param,
    affine_singular_points,
    genus_quadratic_fiber,
    verify_parametrization,
)
from hornsing.exact import MPoly, RatFun, poly_gcd
from hornsing.exprio import (
    expr_to_mpoly,
    expr_to_ratfun,
    load_ode,
    load_operator,
    load_spec,
    parse_expr,
    parse_spec_text,
)
from hornsing.horn import horn_curve
from hornsing.ising import KR, WR, chi_gcd, elliptic_audit, kr_wr_report
from hornsing.odeguess import (
    UniODE,
    annihilates_series,
    exterior_square_order,
    guess_ode,
    singular_points,
    symmetric_square_order,
)
from hornsing.series import expand_from_ratios, hyper_from_spec, restrict
from hornsing.theta import PdeSystem, ThetaOp, log_basis

FIXTURES = Path(__file__).resolve().parent / "fixtures"

XY = ("x", "y")
T = ("t",)
U = ("u",)


class Mismatch(Exception):
    """A job's answer differs from the known answer."""


def expect(got, want, what):
    if got != want:
        raise Mismatch("%s: got %r, want %r" % (what, got, want))


def _poly(text, vars):
    return expr_to_mpoly(parse_expr(text, vars), vars)


def _curve_poly(text, vars):
    """The polynomial a Curve stores for a squarefree equation, without a gcd."""
    return _poly(text, vars).primitive_positive()


def _ratfun(text, vars):
    return expr_to_ratfun(parse_expr(text, vars), vars)


# ---- curve: spec -> horn_curve -> affine_singular_points / genus ------------

# name -> (curve, rational singular points, unresolved factors, genus per
# variable of degree two); "complete" means no unresolved factor is left.
HORN_ANSWERS = {
    "h2": (
        "19683*(x+y)^3 - 2187*(x^2+y^2-7*x*y) + 81*(x+y) - 1",
        [("-1/27", "-1/27")], [], {},
    ),
    "bat16": ("256*(x-y)^2 - 32*(x+y) + 1", [], [], {"x": 0, "y": 0}),
    "poch": (
        "4096*x^2*y^2 - 128*x*y*(x+y) + (x-y)^2",
        [("0", "0")], [], {"x": 0, "y": 0},
    ),
    "bat18": (
        "256*(x-y)^4 - 256*(x+y)*(x^2+y^2+30*x*y)"
        " + 32*(3*x^2+3*y^2-62*x*y) - 16*(x+y) + 1",
        [("-1", "1/4"), ("-1/16", "-1/16"), ("1/4", "-1")], [], {},
    ),
    "bat19": (
        "27*x^2*y^2*(y+x) - (256*(x^4+y^4) + 304*x*y*(x^2+y^2) + 69*x^2*y^2)"
        " + 8*(y+x)*(32*(x^2+y^2) + 339*x*y)"
        " - (96*(x^2+y^2) - 1261*x*y) + 16*(y+x) - 1",
        [], ["108*x^2 + 117*x - 2048", "108*x^2 + 837*x + 8192", "x^2 - 11*x - 1"], {},
    ),
    # the KDF family: the curve does not depend on the parameters
    "kdf2": ("x*y - x - y", [], [], {}),
    "kdf3": (
        "x^2*y^2 - 2*x*y*(x+y) + (x-y)^2",
        [("0", "0")], [], {"x": 0, "y": 0},
    ),
    "kdf4": ("(x+y-x*y)^3 + 27*x^2*y^2", [("-1", "-1"), ("0", "0")], [], {}),
    "kdf5": (
        "(x+y+x*y)^4 - 136*x^2*y^2*(x+y+x*y)"
        " - 8*x*y*(x+1+y)*(x^2+y^2) - 8*x^2*y^2*(x+y)*(x*y-1)",
        [("-4", "-4"), ("-1/4", "1"), ("0", "0"), ("1", "-1/4")], [], {},
    ),
}

FIXED_SPECS = ("h2", "bat16", "poch", "bat18", "bat19")

KDF_TEXT = """[spec]
name = kdf%(M)d
kind = ratio
vars = n m
params = alpha:%(alpha)s beta:%(beta)s betap:%(betap)s gamma:%(gamma)s
alpha1 = (alpha+n)^%(M)d*(betap+n+m)/((gamma+n+m)^%(M)d*(n+1))
alpha2 = (beta+m)^%(M)d*(betap+n+m)/((gamma+n+m)^%(M)d*(m+1))
"""


def _rational(rng):
    return "%d/%d" % (rng.randint(1, 9), rng.randint(1, 9))


def _horn_job(name, spec, parse, want):
    _text, points, residual, genera = HORN_ANSWERS[name]

    def job():
        s = parse_spec_text(spec) if parse else spec
        c = horn_curve(hyper_from_spec(s)).main_curve
        expect(c.poly, want, "%s curve" % name)
        sp = affine_singular_points(c)
        expect([(str(a), str(b)) for a, b in sp.points], points, "%s points" % name)
        expect(sorted(r.to_str() for r in sp.residual), residual, "%s residual" % name)
        expect(sp.complete, not residual, "%s complete" % name)
        got = {v: genus_quadratic_fiber(c, v).genus for v in XY if c.poly.degree(v) == 2}
        expect(got, genera, "%s genus" % name)

    return job


def _curve_jobs(rng):
    wants = {name: _curve_poly(answer[0], XY) for name, answer in HORN_ANSWERS.items()}
    jobs = [
        (name, _horn_job(name, load_spec(FIXTURES / (name + ".spec")), False, wants[name]))
        for name in FIXED_SPECS
    ]
    for M in (2, 3, 4, 5):
        for k in range(2):
            params = {key: _rational(rng) for key in ("alpha", "beta", "betap", "gamma")}
            text = KDF_TEXT % dict(params, M=M)
            name = "kdf%d" % M
            jobs.append(("%s.%d" % (name, k), _horn_job(name, text, True, wants[name])))
    cubic = Curve(wants["h2"])
    u = RatFun.from_poly(MPoly.variable(U, "u"))
    sixth = RatFun.const(U, Fraction(1, 6))
    for k in range(4):
        while True:
            a, b, c, d = (Fraction(rng.choice((-1, 1)) * rng.randint(1, 9)) for _ in range(4))
            if a * d != b * c:
                break

        def mobius(a=a, b=b, c=c, d=d):
            phi = (a * u + b) / (c * u + d)
            param = Param((sixth + phi) ** 3, (sixth - phi) ** 3)
            expect(verify_parametrization(cubic, param), True, "h2 Mobius reparametrization")

        jobs.append(("mobius.%d" % k, mobius))
    return jobs


# ---- guess: series or restriction -> guess_ode -> singular_points -----------

# slopes whose sections of the h2 cubic have degree three; each costs about
# the same, so the seed moves the inputs but not the pass time
SLOPES = ("2", "3", "-2", "5/3", "4", "-3")


def _guess_jobs(rng):
    kdf3 = load_spec(FIXTURES / "kdf3.spec")
    h2 = load_spec(FIXTURES / "h2.spec")
    c4 = UniODE(*load_ode(FIXTURES / "c4.ode"))
    batyrev1 = UniODE.from_theta(ThetaOp(*load_operator(FIXTURES / "batyrev1.op")))
    picard = PdeSystem(
        [ThetaOp(*load_operator(FIXTURES / ("picard_%s.op" % v))) for v in "xy"]
    )
    cubic = _poly(HORN_ANSWERS["h2"][0], XY)
    tvar = MPoly.variable(T, "t")
    slopes = rng.sample(SLOPES, 3)

    def kdf3_restriction():
        b = expand_from_ratios(hyper_from_spec(kdf3), 41)
        s = restrict(b, _ratfun("t^2", T), _ratfun("(t/(1-t))^2", T), 80)
        ode = guess_ode(s, 4, 12).ode
        expect(ode, c4, "KDF3 restriction operator")
        locus = singular_points(ode)
        rational = [(str(r), m) for r, m in locus.rational_points]
        expect(rational, [("-1", 1), ("1/2", 1), ("1", 4), ("2", 1)], "C4 singular points")
        expect((locus.zero_multiplicity, len(locus.other_factors)), (3, 1), "C4 locus shape")
        expect(annihilates_series(c4, s), True, "C4 annihilates the restriction")

    def h2_diagonal():
        b = expand_from_ratios(hyper_from_spec(h2), 50)
        s = restrict(b, _ratfun("t", T), _ratfun("t", T), 50)
        expect(guess_ode(s, 4, 2).ode, batyrev1, "h2 diagonal operator")

    def h2_slopes():
        b = expand_from_ratios(hyper_from_spec(h2), 90)
        for k in slopes:
            s = restrict(b, _ratfun("t", T), _ratfun("(%s)*t" % k, T), 90)
            head = guess_ode(s, 6, 8).ode.head
            section = cubic.substitute({"x": tvar, "y": tvar * Fraction(k)}, T)
            want = section.primitive_positive()
            expect(poly_gcd(head, section), want, "h2 section at slope %s divides the head" % k)

    def picard_log_basis():
        dim, _basis = log_basis(picard, 14, 2)
        expect(dim, 9, "Picard log basis dimension")

    return [
        ("kdf3_restriction", kdf3_restriction),
        ("h2_diagonal", h2_diagonal),
        ("h2_slopes." + ",".join(slopes), h2_slopes),
        ("picard_log_basis", picard_log_basis),
    ]


# ---- square: ODE -> exterior / symmetric square order -----------------------


def _square_jobs(rng):
    c4 = UniODE(*load_ode(FIXTURES / "c4.ode"))
    c3 = UniODE(*load_ode(FIXTURES / "c3.ode"))

    def exterior_c4():
        # keep N = 200, the window the tests use: N = 150 raises Unstable
        expect(exterior_square_order(c4, 200), 5, "exterior square order of C4")

    def symmetric_c3():
        expect(symmetric_square_order(c3, 100), 5, "symmetric square order of C3")

    return [("exterior_c4", exterior_c4), ("symmetric_c3", symmetric_c3)]


# ---- ising: chi catalogs -> kr_wr_report / elliptic_audit / chi_gcd ---------


def _ising_jobs(rng):
    def kr(text):
        return _curve_poly(text, KR).to_str()

    def wr(text):
        return _curve_poly(text, WR).to_str()

    chi3_matches = {
        wr("r^2-4*r+4+3*w^2*r^2-4*w^2*r+16*w^4*r"): (
            (kr("3*k*r+r+4*k^2"), kr("k^2*r+3*k*r+4")), Fraction(4)),
        wr("1+4*w^2*r-2*r"): ((kr("k^2*r+r+k"),), Fraction(1)),
        wr("3*r^2-1-4*w^2*r+2*r"): ((kr("3*r^2*k-r-k-k^2*r"),), Fraction(1)),
        wr("3*r-4+16*w^2"): ((kr("4+3*k*r+4*k+4*k^2"),), Fraction(1)),
        wr("1+4*w^2*r-2*r+r^2"): ((kr("r+k"), kr("k*r+1")), Fraction(1)),
    }
    chi4_matches = {
        wr("4*w^2-2+r"): ((kr("k*r+1+k^2"),), Fraction(1)),
        wr("3*r^2-1-4*w^2*r+2*r"): ((kr("3*r^2*k-r-k-k^2*r"),), Fraction(1)),
    }
    unmatched = ([kr("k^2-1")], ["w", "w^2 - 1"])
    elliptic = {_curve_poly("3*r^2*k-r-k-k^2*r", KR), _curve_poly("3*r^2-1-4*w^2*r+2*r", WR)}
    cm_factor = _curve_poly("r^2-4*r+4+3*w^2*r^2-4*w^2*r+16*w^4*r", WR)
    gcds = {
        "kr": _poly("(k^2-1)*(3*r^2*k-r-k-k^2*r)", KR).primitive_positive(),
        "wr": _poly("w^2*(1-w)*(1+w)*(3*r^2-1-4*w^2*r+2*r)^2", WR).primitive_positive(),
    }

    def report(n, want):
        def job():
            rep = kr_wr_report(n)
            got = {
                w.to_str(): (tuple(k.to_str() for k in ks), const)
                for w, ks, const in rep.matched
            }
            expect(got, want, "chi%d matches" % n)
            left = ([c.to_str() for c in rep.unmatched_kr],
                    sorted(c.to_str() for c in rep.unmatched_wr))
            expect(left, unmatched, "chi%d unmatched factors" % n)

        return job

    def audit():
        entries = elliptic_audit()
        expect(len(entries), 22, "audit entries")
        expect({e.curve.poly for e in entries if e.genus == 1}, elliptic, "genus-one curves")
        expect(sum(e.genus for e in entries), 4, "total genus")
        tagged = [e.curve.poly for e in entries if e.parametrization is not None]
        expect(tagged, [cm_factor], "parametrized factor")

    def gcd(coords):
        def job():
            expect(chi_gcd(coords), gcds[coords], "chi gcd in %s" % coords)

        return job

    return [
        ("kr_wr_report.3", report(3, chi3_matches)),
        ("kr_wr_report.4", report(4, chi4_matches)),
        ("elliptic_audit", audit),
        ("chi_gcd.kr", gcd("kr")),
        ("chi_gcd.wr", gcd("wr")),
    ]


_BUILDERS = {
    "curve": _curve_jobs,
    "guess": _guess_jobs,
    "square": _square_jobs,
    "ising": _ising_jobs,
}


def prepare(workload, seed):
    """Read the fixtures and build the seeded job list of one workload."""
    return _BUILDERS[workload](random.Random("%s:%d" % (workload, seed)))

import math
import random
import re
import timeit
from fractions import Fraction
from pathlib import Path

import pytest

from hornsing import exprio
from hornsing.exact import MPoly, RatFun
from hornsing.exprio import (
    EvaluationError,
    ExprSyntaxError,
    IoError,
    UnknownVariable,
    ValidationError,
    eval_expr,
    expr_to_mpoly,
    expr_to_ratfun,
    format_ode_text,
    format_operator_text,
    format_series_text,
    format_spec_text,
    free_vars,
    load_ode,
    load_operator,
    load_spec,
    parse_expr,
    parse_ode_text,
    parse_operator_text,
    parse_series_text,
    parse_spec_text,
)

NM = ("n", "m")
XY = ("x", "y")
XYZ = ("x", "y", "z")
FIXTURES = Path(__file__).resolve().parent.parent / "perfbench" / "fixtures"


def ev(text, **point):
    ast = parse_expr(text, tuple(point))
    return eval_expr(ast, {k: Fraction(v) for k, v in point.items()})


def test_parse_ratio_has_top_level_divide():
    ast = parse_expr("(3*n+3*m+1)*(3*n+3*m+2)*(3*n+3*m+3)/(n+1)^3", NM)
    assert ast[0] == "/"


def test_parse_factorial_formula():
    text = "fact(3*n+3*m)/(fact(n)^3*fact(m)^3)"
    ast = parse_expr(text, NM)
    assert eval_expr(ast, {"n": 1, "m": 1}) == 720
    assert eval_expr(ast, {"n": 2, "m": 0}) == 90


def test_negative_exponent_rejected():
    with pytest.raises(ExprSyntaxError):
        parse_expr("x^(-1)", ("x",))
    with pytest.raises(ExprSyntaxError):
        parse_expr("x^-1", ("x",))
    with pytest.raises(ExprSyntaxError):
        parse_expr("x^y", XY)


def test_unknown_variable():
    with pytest.raises(UnknownVariable) as info:
        parse_expr("n+q", NM)
    assert info.value.name == "q"


def test_syntax_error_position():
    with pytest.raises(ExprSyntaxError) as info:
        parse_expr("n +\n* m", NM)
    assert info.value.line == 2
    assert info.value.col == 1
    # a character outside the grammar is refused where it stands
    with pytest.raises(ExprSyntaxError) as info:
        parse_expr("n +\n\tm # 2", NM)
    assert str(info.value) == "unexpected character '#' (line 2, column 4)"


def test_deep_nesting_is_a_syntax_error():
    for text in ("(" * 3000 + "x" + ")" * 3000, "-" * 5000 + "x"):
        with pytest.raises(ExprSyntaxError):
            parse_expr(text, ("x",))
    assert ev("(" * 50 + "-" * 40 + "x" + ")" * 50, x=2) == 2


def test_long_flat_chains_do_not_recurse():
    x = MPoly.variable(("x",), "x")
    total = parse_expr("+".join(["x"] * 3000), ("x",))
    diff = parse_expr("-".join(["x"] * 3000), ("x",))
    assert expr_to_ratfun(total, ("x",)) == RatFun.from_poly(3000 * x)
    assert expr_to_ratfun(diff, ("x",)) == RatFun.from_poly(-2998 * x)
    assert eval_expr(total, {"x": Fraction(2)}) == 6000
    assert eval_expr(diff, {"x": Fraction(2)}) == -5996
    assert free_vars(total) == free_vars(diff) == {"x"}
    product = parse_expr("*".join(["x"] * 1500), ("x",))
    assert expr_to_mpoly(product, ("x",)) == x**1500
    assert ev("fact(" + "+".join(["1"] * 3000) + ")/fact(2999)", n=0) == 3000


def test_precedence_and_associativity():
    assert ev("-x^2", x=3) == -9
    assert ev("2-3-4", x=0) == -5
    assert ev("2/3/4", x=0) == Fraction(1, 6)
    assert ev("2*x^3", x=2) == 16
    assert ev("-2^2", x=0) == -4


def test_combinatorial_atoms():
    assert ev("poch(1/2,3)", n=0) == Fraction(15, 8)
    assert ev("poch(5,0)", n=0) == 1
    assert ev("binom(4,2)", n=0) == 6
    assert ev("binom(3,5)", n=0) == 0
    assert ev("fact(5)", n=0) == 120
    assert ev("sum(k,0,m,binom(m,k))", m=4) == 16
    assert ev("sum(k,0,3*(n+m),1)", n=1, m=1) == 7
    assert ev("sum(k,0,n,sum(j,0,k,1))", n=2) == 6


def test_evaluation_errors():
    with pytest.raises(EvaluationError):
        ev("fact(n)", n=-1)
    with pytest.raises(EvaluationError):
        ev("1/(n-1)", n=1)
    with pytest.raises(EvaluationError):
        ev("poch(2,n)", n=-3)
    with pytest.raises(EvaluationError):
        ev("fact(n)", n=Fraction(1, 2))


@pytest.fixture
def no_big_work(monkeypatch):
    """Fail the test, rather than hang, if a factorial or a loop past the
    count cap starts."""
    factorial = math.factorial

    def guarded_factorial(n):
        assert n <= exprio._MAX_COUNT, "factorial past the cap"
        return factorial(n)

    def guarded_range(*args):
        r = range(*args)
        assert len(r) <= exprio._MAX_COUNT, "loop past the cap"
        return r

    monkeypatch.setattr(math, "factorial", guarded_factorial)
    monkeypatch.setattr(exprio, "range", guarded_range, raising=False)


def test_size_caps_raise_before_any_work(no_big_work):
    for text in (
        "fact(10^9)",
        "fact(n)*fact(2^100)",
        "binom(n, 10^9)",
        "poch(1/2, 10^9)",
        "sum(k, 0, 10^9, k)",
        "sum(k, -10^12, 10^12, 1)",
        "sum(k, 0, 3, fact(10^9 + k))",
        "2^1000000000",
        "n^(123456789)",
    ):
        with pytest.raises(EvaluationError, match="above the cap"):
            ev(text, n=3)
    with pytest.raises(EvaluationError, match="above the cap"):
        expr_to_ratfun(parse_expr("x^1000000000 + y", XY), XY)
    with pytest.raises(EvaluationError, match="above the cap"):
        expr_to_ratfun(parse_expr("fact(10^9)*x", XY), XY)
    with pytest.raises(ValidationError, match="above the cap"):
        parse_ode_text("ode-var: t\n0 : 1\n1 : t^100000000\n")
    with pytest.raises(ValidationError, match="above the cap"):
        parse_operator_text("op-vars: x\n0 : tx^100000000\n")


def test_size_caps_admit_values_at_the_cap(no_big_work):
    cap = exprio._MAX_COUNT
    assert ev("fact(%d)/fact(%d)" % (cap, cap - 1), n=0) == cap
    assert ev("binom(n, %d)" % cap, n=cap + 1) == cap + 1
    assert ev("poch(1, %d)/fact(%d)" % (cap, cap), n=0) == 1
    assert ev("sum(k, 1, %d, 1)" % cap, n=0) == cap
    assert ev("2^%d" % exprio._MAX_EXPONENT, n=0) == 2**exprio._MAX_EXPONENT
    for text in ("fact(%d)" % (cap + 1), "sum(k, 0, %d, 1)" % cap, "2^%d" % (exprio._MAX_EXPONENT + 1)):
        with pytest.raises(EvaluationError, match="above the cap"):
            ev(text, n=0)


def test_nested_sums_share_one_evaluation_budget(no_big_work, monkeypatch):
    assert ev("sum(k,0,n,sum(j,0,k,1))", n=2) == 6
    # 100 outer plus 100 * 99 inner body evaluations use the budget exactly,
    # and each top-level call starts with a full budget
    for _ in range(2):
        assert ev("sum(k,1,100,sum(j,1,99,1))", n=0) == 9900
    with pytest.raises(EvaluationError, match="above the cap"):
        ev("sum(k,1,100,sum(j,1,100,1))", n=0)
    calls = []
    evaluate = exprio._evaluate

    def counting(node, env, budget):
        calls.append(node)
        return evaluate(node, env, budget)

    monkeypatch.setattr(exprio, "_evaluate", counting)
    with pytest.raises(EvaluationError, match="above the cap"):
        ev("sum(k,0,199,sum(j,0,199,1))", n=0)
    assert 0 < len(calls) <= exprio._MAX_COUNT
    # an empty range is charged nothing
    assert ev("sum(k,0,%d,sum(j,1,0,k))" % (exprio._MAX_COUNT - 1), n=0) == 0


def test_polynomial_size_cap_raises_before_the_product():
    for text in (
        "(x+y+z)^48",
        "*".join(["(x+y+z)"] * 60),
        "1/(x+y+z)^20 + 1/(x+y-z)^20",
    ):
        node = parse_expr(text, XYZ)
        with pytest.raises(EvaluationError, match="above the cap"):
            expr_to_ratfun(node, XYZ)

        def convert():
            with pytest.raises(EvaluationError):
                expr_to_ratfun(node, XYZ)

        assert min(timeit.repeat(convert, number=1, repeat=3)) < 0.1, text
    x, y, z = (MPoly.variable(XYZ, v) for v in XYZ)
    want = RatFun.from_poly((x + y + z) ** 24)
    assert expr_to_ratfun(parse_expr("(x+y+z)^24", XYZ), XYZ) == want
    assert expr_to_mpoly(parse_expr("(x*y*z+1)^2", XYZ), XYZ) == (x * y * z + 1) ** 2


def test_sparse_products_convert_under_the_work_cap():
    names = tuple("abcdef")
    m = math.prod(MPoly.variable(names, v) for v in names)
    assert expr_to_mpoly(parse_expr("(a*b*c*d*e*f+1)^2", names), names) == (m + 1) ** 2
    assert expr_to_mpoly(parse_expr("(a*b*c*d*e*f+1)*(a*b*c*d*e*f-1)", names), names) == m * m - 1
    # the terms of a univariate power are bounded by its degree: 61 terms here
    x = MPoly.variable(XYZ, "x")
    want = RatFun.from_poly((x * x - 3 * x + 1) ** 30)
    assert expr_to_ratfun(parse_expr("(x^2-3*x+1)^30", XYZ), XYZ) == want
    # one conversion charges all its products to one budget, and the next
    # conversion starts with a full one
    with pytest.raises(EvaluationError, match="above the cap"):
        expr_to_ratfun(parse_expr("(x+y+z)^24 - (x+y-z)^24", XYZ), XYZ)
    for _ in range(2):
        assert not expr_to_ratfun(parse_expr("(x+y+z)^24", XYZ), XYZ).is_zero()


def test_every_fixture_converts():
    for path in sorted(FIXTURES.glob("*.spec")):
        spec = load_spec(path)
        for node in (spec.alpha1, spec.alpha2):
            if node is not None:
                assert not expr_to_ratfun(node, spec.vars, spec.params).is_zero()
    for path in sorted(FIXTURES.glob("*.op")):
        assert load_operator(path)[1]
    for path in sorted(FIXTURES.glob("*.ode")):
        assert load_ode(path)[1]


def test_sum_bounds_must_be_affine():
    with pytest.raises(ExprSyntaxError):
        parse_expr("sum(k,0,n*m,1)", NM)
    with pytest.raises(ExprSyntaxError):
        parse_expr("sum(k,0,n^2,1)", NM)
    # Constant-folded bounds and affine bounds with rational slope are fine.
    parse_expr("sum(k,0,fact(3),1)", NM)
    parse_expr("sum(k,n,2*n+3*m+1,k)", NM)


def test_expr_to_ratfun_atoms():
    x = MPoly.variable(XY, "x")
    for text in ("fact(x)", "binom(x,2)", "sum(k,0,x,k)", "poch(2,y)*y"):
        with pytest.raises(EvaluationError):
            expr_to_ratfun(parse_expr(text, XY), XY)
    assert expr_to_ratfun(parse_expr("fact(3)*x", XY), XY) == RatFun.from_poly(6 * x)
    consts = {"a": Fraction(5)}
    r = expr_to_ratfun(parse_expr("binom(a,2)*x + a", ("a",) + XY), XY, consts)
    assert r == RatFun.from_poly(10 * x + 5)


def test_division_by_zero_subexpression():
    for text in ("x/(y-y)", "1/(2*x-x-x)", "x*y/(3-1-2)"):
        ast = parse_expr(text, XY)
        with pytest.raises(EvaluationError):
            expr_to_ratfun(ast, XY)
        with pytest.raises(EvaluationError):
            eval_expr(ast, {"x": Fraction(1), "y": Fraction(2)})


def _random_expr(rng, depth):
    if depth == 0 or rng.random() < 0.25:
        return rng.choice(("x", "y", str(rng.randrange(0, 4))))
    op = rng.choice("+-*/^~")
    if op == "^":
        return "(%s)^%d" % (_random_expr(rng, depth - 1), rng.randrange(0, 4))
    if op == "~":
        return "-(%s)" % _random_expr(rng, depth - 1)
    left = _random_expr(rng, depth - 1)
    return "(%s)%s(%s)" % (left, op, _random_expr(rng, depth - 1))


def test_ratfun_agrees_with_eval_random():
    rng = random.Random(31)
    checked = 0
    for _ in range(150):
        ast = parse_expr(_random_expr(rng, 5), XY)
        try:
            r = expr_to_ratfun(ast, XY)
        except EvaluationError:
            r = None
        for _ in range(4):
            point = {
                v: Fraction(rng.randrange(-3, 4), rng.randrange(1, 3)) for v in XY
            }
            try:
                value = eval_expr(ast, point)
            except EvaluationError:
                continue
            # A symbolic division by zero divides by zero at every point.
            assert r is not None
            assert r.evaluate(point) == value
            checked += 1
    assert checked > 300


def _ratfun_per_node(node, vars, consts=None):
    """expr_to_ratfun as a fold over RatFun at every node (reference)."""
    consts = consts or {}

    def leaf(node):
        if node[0] == "var" and node[1] in vars:
            return RatFun.from_poly(MPoly.variable(vars, node[1]))
        if exprio.free_vars(node) & set(vars):
            raise EvaluationError(
                "combinatorial atom with a symbolic argument is not a rational function"
            )
        return RatFun.const(vars, eval_expr(node, consts))

    budget = [exprio._MAX_COUNT]
    return exprio._fold(node, leaf, lambda op, a, b: exprio._check_size(op, a, b, budget))


_ATOMS = ("a", "fact(3)", "binom(a,2)", "poch(1/2,2)", "sum(k,0,2,k*a)")


def _random_atom_expr(rng, depth):
    """_random_expr with a constant name, atoms, and rarely an atom that cannot convert."""
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.03:
            return rng.choice(("fact(a)", "binom(x,2)"))
        return rng.choice(("x", "y", str(rng.randrange(0, 4))) + _ATOMS)
    op = rng.choice("+-*/^~")
    if op == "^":
        return "(%s)^%d" % (_random_atom_expr(rng, depth - 1), rng.randrange(0, 4))
    if op == "~":
        return "-(%s)" % _random_atom_expr(rng, depth - 1)
    left = _random_atom_expr(rng, depth - 1)
    return "(%s)%s(%s)" % (left, op, _random_atom_expr(rng, depth - 1))


def _outcome(convert, node, vars, consts=None):
    """The num and den terms, each coefficient with its stored type, or the exception."""
    try:
        r = convert(node, vars, consts)
    except Exception as exc:
        return type(exc), str(exc)
    return [(p.vars, sorted((e, type(c), c) for e, c in p.terms.items())) for p in (r.num, r.den)]


def test_polynomial_fold_matches_the_per_node_ratfun_fold():
    # the fold keeps a subtree an MPoly up to its first /, yet gives the
    # terms, charges, refusals and messages of a RatFun at every node
    rng = random.Random(3131)
    consts = {"a": Fraction(3, 2)}
    names = ("a",) + XY
    kinds = set()
    for _ in range(300):
        node = parse_expr(_random_atom_expr(rng, 5), names)
        want = _outcome(_ratfun_per_node, node, XY, consts)
        assert _outcome(expr_to_ratfun, node, XY, consts) == want
        kinds.add(want[0] if isinstance(want, tuple) else "value")
    assert kinds == {"value", EvaluationError}
    for text in ("(x+y+z)^48", "(x+y+z)^24", "1/(x+y+z)^20 + 1/(x+y-z)^20",
                 "(x+y+z)^24 - (x+y-z)^24", "(x^2-y^2)/(x-y)", "1/(3*x)"):
        node = parse_expr(text, XYZ)
        assert _outcome(expr_to_ratfun, node, XYZ) == _outcome(_ratfun_per_node, node, XYZ)
    assert _outcome(expr_to_ratfun, parse_expr("(x+y+z)^48", XYZ), XYZ)[0] is EvaluationError
    assert _outcome(expr_to_ratfun, parse_expr("1/(x+y+z)^20 + 1/(x+y-z)^20", XYZ), XYZ)[0] is EvaluationError
    assert not expr_to_ratfun(parse_expr("(x+y+z)^24", XYZ), XYZ).is_zero()


def test_expr_to_mpoly():
    p = expr_to_mpoly(parse_expr("(x+y)^2 - (x-y)^2", XY), XY)
    x = MPoly.variable(XY, "x")
    y = MPoly.variable(XY, "y")
    assert p == 4 * x * y
    assert expr_to_mpoly(parse_expr("(2*x+2*y)/2", XY), XY) == x + y
    assert expr_to_mpoly(parse_expr("(x^2-y^2)/(x-y)", XY), XY) == x + y
    with pytest.raises(EvaluationError):
        expr_to_mpoly(parse_expr("1/x", XY), XY)
    r = expr_to_ratfun(parse_expr("1/x", XY), XY)
    assert r.den == x


def test_print_canonical_examples():
    x = MPoly.variable(XY, "x")
    y = MPoly.variable(XY, "y")
    curve = 256 * (x - y) ** 2 - 32 * (x + y) + 1
    assert curve.canonical_str() == "256*x^2 - 512*x*y + 256*y^2 - 32*x - 32*y + 1"
    assert MPoly.zero(XY).canonical_str() == "0"
    assert (-2 * x + 2 * y).canonical_str() == "x - y"


def test_print_parse_round_trip_random():
    rng = random.Random(2024)
    vars = ("x", "y", "z")
    for _ in range(120):
        terms = {}
        for _ in range(rng.randrange(1, 9)):
            exps = tuple(rng.randrange(0, 5) for _ in vars)
            if sum(exps) > 10:
                continue
            terms[exps] = Fraction(rng.randrange(-40, 41))
        p = MPoly(vars, terms).primitive_positive()
        text = p.canonical_str()
        back = expr_to_mpoly(parse_expr(text, vars), vars)
        assert back == p


def test_parse_print_parse_fixed_point():
    text = "x/2 + y/3"
    first = expr_to_mpoly(parse_expr(text, XY), XY)
    printed = first.canonical_str()
    assert printed == "3*x + 2*y"
    again = expr_to_mpoly(parse_expr(printed, XY), XY)
    assert again.canonical_str() == printed


def test_combinatorial_identities_random():
    rng = random.Random(77)
    for _ in range(100):
        n = rng.randrange(0, 12)
        k = rng.randrange(0, 16)
        got = ev("binom(n,k)", n=n, k=k)
        if k <= n:
            import math

            assert got == math.comb(n, k)
        else:
            assert got == 0
        a = Fraction(rng.randrange(-6, 7), rng.randrange(1, 5))
        r = rng.randrange(0, 6)
        poch = ev("poch(a,r)", a=a, r=r)
        direct = Fraction(1)
        for i in range(r):
            direct *= a + i
        assert poch == direct
    # Binomial row sums via the sum atom.
    for n in range(0, 9):
        assert ev("sum(k,0,n,binom(n,k))", n=n) == 2**n


def test_series_file_round_trip():
    text = """
# a comment line
vars: x y

0 0 1
1 0 3/2
0 1 -2
2 0 0
1 1 7
0 2 0
"""
    names, entries = parse_series_text(text)
    assert names == ("x", "y")
    assert entries[(1, 0)] == Fraction(3, 2)
    assert entries[(2, 0)] == 0
    out = format_series_text(names, entries)
    names2, entries2 = parse_series_text(out)
    assert names2 == names
    assert entries2 == entries
    assert max(sum(e) for e in entries2) == 2


def test_series_file_errors():
    with pytest.raises(ValidationError):
        parse_series_text("0 0 1\n")
    with pytest.raises(ValidationError):
        parse_series_text("vars: x y z\n")
    with pytest.raises(ValidationError):
        parse_series_text("vars: x\n2 1\n2 3\n")
    with pytest.raises(ValidationError):
        parse_series_text("vars: x\n-1 4\n")
    with pytest.raises(ValidationError):
        parse_series_text("vars: x\n1 1/0\n")
    with pytest.raises(ValidationError, match="no entries"):
        parse_series_text("vars: t\n# no coefficients\n")
    for text, message in [
        ("vars: 1x\n0 1\n", "line 1: bad variable name '1x'"),
        ("vars: x x\n0 0 1\n", "line 1: repeated variable name"),
        ("", "empty file"),
        ("vars: x\n1 2 3\n", "line 2: expected 1 exponents and a value"),
        ("vars: x\na 1\n", "line 2: bad exponent in 'a 1'"),
    ]:
        with pytest.raises(ValidationError, match=re.escape(message)):
            parse_series_text(text)


def test_operator_file_round_trip():
    text = """op-vars: x y
0 0 : tx^2 - ty
1 0 : 3*(3*tx+ty+1)*(3*tx+ty+2)
"""
    names, terms = parse_operator_text(text)
    assert names == ("x", "y")
    theta = ("tx", "ty")
    tx = MPoly.variable(theta, "tx")
    ty = MPoly.variable(theta, "ty")
    assert terms[0] == ((0, 0), tx**2 - ty)
    assert terms[1] == ((1, 0), 3 * (3 * tx + ty + 1) * (3 * tx + ty + 2))
    out = format_operator_text(names, terms)
    assert parse_operator_text(out) == (names, terms)


def test_operator_file_univariate_theta_name():
    names, terms = parse_operator_text("op-vars: t\n0 : tt^2\n1 : -(tt+1)^2\n")
    assert names == ("t",)
    tt = MPoly.variable(("tt",), "tt")
    assert terms[0] == ((0,), tt**2)
    assert terms[1] == ((1,), -((tt + 1) ** 2))


def test_operator_file_errors():
    with pytest.raises(ValidationError):
        parse_operator_text("op-vars: x y\n0 0 : x + tx\n")
    with pytest.raises(ValidationError):
        parse_operator_text("op-vars: x y\n0 : tx\n")
    with pytest.raises(ValidationError):
        parse_operator_text("op-vars: x y\n0 0 : tx\n0 0 : ty\n")
    with pytest.raises(ValidationError):
        parse_operator_text("op-vars: x y\n0 0 : 0\n")
    for text, message in [
        ("op-vars: x tx\n0 0 : ttx\n", "theta names collide with the variables"),
        ("op-vars: x\n0 tx\n", "line 2: expected 'a [b] : Q'"),
        ("op-vars: x\na : tx\n", "line 2: bad shift exponent"),
        ("op-vars: x\n-1 : tx\n", "line 2: negative shift exponent"),
        ("op-vars: x\n0 :\n", "line 2: empty expression"),
    ]:
        with pytest.raises(ValidationError, match=re.escape(message)):
            parse_operator_text(text)


def test_ode_file_round_trip():
    var, coeffs = parse_ode_text("ode-var: t\n0 : -1\n1 : 1 - t\n")
    assert var == "t"
    t = MPoly.variable(("t",), "t")
    assert coeffs == [MPoly.const(("t",), -1), 1 - t]
    out = format_ode_text(var, coeffs)
    assert parse_ode_text(out) == (var, coeffs)
    # Missing middle orders read back as zero.
    var, coeffs = parse_ode_text("ode-var: t\n0 : 2\n2 : t^2\n")
    assert coeffs[1].is_zero()
    assert len(coeffs) == 3


def test_ode_file_errors():
    with pytest.raises(ValidationError):
        parse_ode_text("ode-var: t\n")
    with pytest.raises(ValidationError):
        parse_ode_text("ode-var: t\n1 : 0\n")
    with pytest.raises(ValidationError):
        parse_ode_text("ode-var: t\n-1 : t\n")
    for text, message in [
        ("ode-var: t\n1 t\n", "line 2: expected 'j : p_j'"),
        ("ode-var: t\nx : t\n", "line 2: bad derivative order"),
        ("ode-var: t\n1 : t\n1 : 1\n", "line 3: duplicate order 1"),
        # binom(n, k) is 0 for k < 0
        ("ode-var: t\n1 : t\n0 : binom(3, -1)\n", "line 3: zero coefficient"),
    ]:
        with pytest.raises(ValidationError, match=re.escape(message)):
            parse_ode_text(text)


H2_SPEC = """[spec]
name = h2
kind = ratio
vars = n m
alpha1 = (3*n+3*m+1)*(3*n+3*m+2)*(3*n+3*m+3)/(n+1)^3
alpha2 = (3*n+3*m+1)*(3*n+3*m+2)*(3*n+3*m+3)/(m+1)^3
"""


def test_spec_file_ratio():
    spec = parse_spec_text(H2_SPEC)
    assert spec.name == "h2"
    assert spec.kind == "ratio"
    assert spec.vars == ("n", "m")
    assert eval_expr(spec.alpha1, {"n": 0, "m": 0}) == 6
    assert eval_expr(spec.alpha2, {"n": 1, "m": 0}) == 120
    again = parse_spec_text(format_spec_text(spec))
    assert again == spec


def test_spec_file_params():
    text = """[spec]
name = kdf
kind = ratio
vars = n m
params = alpha:1/2 betap:1/2 gamma:1
alpha1 = (alpha+n)^3*(betap+n+m)/((gamma+n+m)^3*(n+1))
alpha2 = (alpha+m)*(betap+n+m)/(gamma+n+m)^3
"""
    spec = parse_spec_text(text)
    assert spec.params["gamma"] == 1
    env = {**spec.params, "n": 0, "m": 0}
    assert eval_expr(spec.alpha1, env) == Fraction(1, 16)


def test_spec_file_formula():
    text = """[spec]
name = toy
kind = formula
vars = n m
coeff = fact(n+m)/(fact(n)*fact(m))
"""
    spec = parse_spec_text(text)
    assert eval_expr(spec.coeff, {"n": 2, "m": 2}) == 6


def test_spec_file_errors():
    with pytest.raises(ValidationError) as info:
        parse_spec_text(
            "[spec]\nname = h\nkind = ratio\nvars = n m\nalpha1 = n+1\n"
        )
    assert "alpha2" in str(info.value)
    with pytest.raises(ValidationError):
        parse_spec_text("name = h\nkind = ratio\nvars = n m\n")
    with pytest.raises(ValidationError):
        parse_spec_text("[spec]\nname = h\nkind = blend\nvars = n m\n")
    with pytest.raises(ValidationError):
        parse_spec_text(
            "[spec]\nname = h\nkind = formula\nvars = n m\ncoeff = n\nalpha1 = n\n"
        )
    with pytest.raises(ValidationError):
        parse_spec_text(
            "[spec]\nname = h\nkind = ratio\nvars = n\nalpha1 = n\nalpha2 = n\n"
        )
    with pytest.raises(ValidationError):
        parse_spec_text(
            "[spec]\nname = h\nkind = formula\nvars = n m\ncoeff = q+n\n"
        )
    ratio = "[spec]\nname = h\nkind = ratio\nvars = n m\nalpha1 = n\nalpha2 = m\n"
    for text, message in [
        ("[spec]\nname h\n", "line 2: expected 'key = value'"),
        ("[spec]\ncolor = red\n", "line 2: unknown key 'color'"),
        ("[spec]\nname = a\nname = b\n", "line 3: duplicate key 'name'"),
        ("[spec]\nname =\n", "line 2: empty value for 'name'"),
        (ratio + "params = a\n", "line 7: parameter binding must look like name:value"),
        (ratio + "params = 1a:2\n", "line 7: bad parameter name '1a'"),
        (ratio + "params = n:2\n", "line 7: parameter 'n' collides with another name"),
    ]:
        with pytest.raises(ValidationError, match=re.escape(message)):
            parse_spec_text(text)


def test_load_spec(tmp_path):
    path = tmp_path / "h2.spec"
    path.write_text(H2_SPEC)
    spec = load_spec(str(path))
    assert spec.name == "h2"
    with pytest.raises(IoError):
        load_spec(str(tmp_path / "missing.spec"))

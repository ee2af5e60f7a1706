"""Text interfaces: expression grammar, series/operator/ODE files, recursion specs.

The expression grammar is plain infix arithmetic over exact rationals with
precedence ^ > unary minus > * / > + -, where the right operand of ^ must be
a nonnegative integer literal.  Four combinatorial atoms are recognized:
fact(e), binom(e, e), poch(e, e), and sum(index, lower, upper, body).
Evaluation caps the fact argument, the binom lower index and the poch count
at _MAX_COUNT, and a ^ exponent at _MAX_EXPONENT.  The sums of one
evaluation share one budget of _MAX_COUNT body evaluations, so nested sums
cannot multiply their ranges past it; each range is charged in full before
it starts.  Conversion to a rational function also caps, before each
product or power, a bound on the terms of every polynomial it forms at
_MAX_COUNT.  Past a cap it raises EvaluationError before any factorial,
product, loop or power runs, so no input can ask for a hang or a
MemoryError.

File formats are line oriented, with # comments and blank lines ignored:

  series file    header "vars: x y", then one line per coefficient
                 "e1 [e2] value" with value an integer or num/den
  operator file  header "op-vars: x y", then "a b : Q" per term, where Q is
                 a polynomial in the theta variables tx, ty (prefix "t")
  ODE file       header "ode-var: t", then "j : p_j" per derivative order
  spec file      "[spec]" header, then "key = value" lines
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass, field
from fractions import Fraction

from .exact import MPoly, RatFun


class ExprSyntaxError(SyntaxError):
    """Malformed expression text; carries 1-based line and column."""

    def __init__(self, message, line, col):
        super().__init__("%s (line %d, column %d)" % (message, line, col))
        self.line = line
        self.col = col


class UnknownVariable(Exception):
    """An identifier was used without being declared."""

    def __init__(self, name, line, col):
        super().__init__(
            "unknown variable %r (line %d, column %d)" % (name, line, col)
        )
        self.name = name
        self.line = line
        self.col = col


class EvaluationError(Exception):
    """Expression has no exact value at the requested point."""


class ValidationError(Exception):
    """A structured text file violates its format contract."""


class IoError(OSError):
    """File could not be read or written."""


# ---------------------------------------------------------------------------
# Abstract syntax


class Expr:
    __slots__ = ()


@dataclass(frozen=True)
class Int(Expr):
    value: int


@dataclass(frozen=True)
class Var(Expr):
    name: str


@dataclass(frozen=True)
class Add(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Sub(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Neg(Expr):
    arg: Expr


@dataclass(frozen=True)
class Mul(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Div(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    exponent: int


@dataclass(frozen=True)
class Fact(Expr):
    arg: Expr


@dataclass(frozen=True)
class Binom(Expr):
    top: Expr
    bottom: Expr


@dataclass(frozen=True)
class Poch(Expr):
    base: Expr
    count: Expr


@dataclass(frozen=True)
class Sum(Expr):
    index: str
    lower: Expr
    upper: Expr
    body: Expr


_ATOM_NAMES = ("fact", "binom", "poch", "sum")


def free_vars(node):
    """Names referenced by node, with sum indices bound inside their body."""
    names = set()
    stack = [(node, frozenset())]
    while stack:
        node, bound = stack.pop()
        if isinstance(node, Var):
            if node.name not in bound:
                names.add(node.name)
        elif isinstance(node, Sum):
            stack.append((node.body, bound | {node.index}))
            stack += [(node.lower, bound), (node.upper, bound)]
        elif isinstance(node, Expr):
            # fields that are not Exprs hold literals: Int.value, Pow.exponent
            kids = [c for c in node.__dict__.values() if isinstance(c, Expr)]
            stack += [(kid, bound) for kid in kids]
        else:
            raise TypeError("not an Expr node: %r" % (node,))
    return names


# ---------------------------------------------------------------------------
# Tokenizer and parser

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_INT_RE = re.compile(r"[0-9]+")


def _tokenize(text):
    toks = []
    line = 1
    col = 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        m = _INT_RE.match(text, i)
        if m:
            toks.append(("int", m.group(), line, col))
            col += m.end() - i
            i = m.end()
            continue
        m = _NAME_RE.match(text, i)
        if m:
            toks.append(("name", m.group(), line, col))
            col += m.end() - i
            i = m.end()
            continue
        if ch in "+-*/^(),":
            toks.append((ch, ch, line, col))
            i += 1
            col += 1
            continue
        raise ExprSyntaxError("unexpected character %r" % ch, line, col)
    toks.append(("end", "", line, col))
    return toks


# Nesting levels (parentheses, call arguments, unary minus) the parser
# accepts.  A level costs five stack frames here and at most three in _fold
# and its leaf functions; chains of + - * / cost none, because the parser and
# _fold loop over them.  So any accepted expression stays well inside
# Python's default recursion limit of 1000.
_MAX_DEPTH = 100


class _Parser:
    def __init__(self, toks, declared):
        self.toks = toks
        self.pos = 0
        self.scope = [set(declared)]
        self.depth = 0

    def peek(self):
        return self.toks[self.pos]

    def take(self):
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind, what):
        tok = self.take()
        if tok[0] != kind:
            raise ExprSyntaxError(
                "expected %s, found %r" % (what, tok[1] or "end of input"),
                tok[2],
                tok[3],
            )
        return tok

    def descend(self):
        self.depth += 1
        if self.depth > _MAX_DEPTH:
            tok = self.peek()
            raise ExprSyntaxError(
                "expression nested deeper than %d levels" % _MAX_DEPTH,
                tok[2],
                tok[3],
            )

    def known(self, name):
        return any(name in s for s in self.scope)

    def parse(self):
        node = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ExprSyntaxError("unexpected %r" % tok[1], tok[2], tok[3])
        return node

    def expr(self):
        self.descend()
        node = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.take()[0]
            rhs = self.term()
            node = Add(node, rhs) if op == "+" else Sub(node, rhs)
        self.depth -= 1
        return node

    def term(self):
        node = self.unary()
        while self.peek()[0] in ("*", "/"):
            op = self.take()[0]
            rhs = self.unary()
            node = Mul(node, rhs) if op == "*" else Div(node, rhs)
        return node

    def unary(self):
        if self.peek()[0] == "-":
            self.take()
            self.descend()
            node = Neg(self.unary())
            self.depth -= 1
            return node
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek()[0] != "^":
            return base
        self.take()
        return Pow(base, self.exponent())

    def exponent(self):
        # A bare integer, optionally parenthesized; a sign inside the
        # parentheses gets the dedicated negative-exponent error.
        tok = self.peek()
        if tok[0] == "int":
            self.take()
            return int(tok[1])
        if tok[0] == "(":
            self.take()
            inner = self.peek()
            if inner[0] == "-":
                raise ExprSyntaxError(
                    "negative exponent", inner[2], inner[3]
                )
            val = self.expect("int", "a nonnegative integer exponent")
            self.expect(")", "')'")
            return int(val[1])
        if tok[0] == "-":
            raise ExprSyntaxError("negative exponent", tok[2], tok[3])
        raise ExprSyntaxError(
            "exponent must be a nonnegative integer literal", tok[2], tok[3]
        )

    def atom(self):
        tok = self.take()
        if tok[0] == "int":
            return Int(int(tok[1]))
        if tok[0] == "(":
            node = self.expr()
            self.expect(")", "')'")
            return node
        if tok[0] == "name":
            name = tok[1]
            if name in _ATOM_NAMES and self.peek()[0] == "(":
                return self.call(name, tok)
            if not self.known(name):
                raise UnknownVariable(name, tok[2], tok[3])
            return Var(name)
        raise ExprSyntaxError(
            "expected a value, found %r" % (tok[1] or "end of input"),
            tok[2],
            tok[3],
        )

    def call(self, name, tok):
        self.expect("(", "'('")
        if name == "fact":
            arg = self.expr()
            self.expect(")", "')'")
            return Fact(arg)
        if name == "binom":
            top = self.expr()
            self.expect(",", "','")
            bottom = self.expr()
            self.expect(")", "')'")
            return Binom(top, bottom)
        if name == "poch":
            base = self.expr()
            self.expect(",", "','")
            count = self.expr()
            self.expect(")", "')'")
            return Poch(base, count)
        idx = self.expect("name", "a summation index")
        self.expect(",", "','")
        lower = self.expr()
        self.check_affine(lower, tok)
        self.expect(",", "','")
        upper = self.expr()
        self.check_affine(upper, tok)
        self.expect(",", "','")
        self.scope.append({idx[1]})
        body = self.expr()
        self.scope.pop()
        self.expect(")", "')'")
        return Sum(idx[1], lower, upper, body)

    def check_affine(self, bound, tok):
        outer = tuple(sorted(set().union(*self.scope)))
        try:
            r = expr_to_ratfun(bound, outer)
        except EvaluationError:
            raise ExprSyntaxError(
                "sum bound must be affine in the outer indices", tok[2], tok[3]
            ) from None
        if not r.den.is_constant() or r.num.total_degree() > 1:
            raise ExprSyntaxError(
                "sum bound must be affine in the outer indices", tok[2], tok[3]
            )


def parse_expr(text, vars):
    """Parse text into an Expr; identifiers must come from vars."""
    if not text or not text.strip():
        raise ExprSyntaxError("empty expression", 1, 1)
    return _Parser(_tokenize(text), vars).parse()


# ---------------------------------------------------------------------------
# Evaluation


# Caps on the sizes named in the module docstring.  fact(3000) and ^12 are
# the largest a fixture, test or benchmark job asks for.
_MAX_COUNT = 10**4
_MAX_EXPONENT = 10**3


def _as_integer(value, what, cap=None):
    value = Fraction(value)
    if value.denominator != 1:
        raise EvaluationError("%s is not an integer: %s" % (what, value))
    if cap is not None and value > cap:
        raise EvaluationError("%s %s is above the cap %d" % (what, value, cap))
    return int(value)


_BINARY = {
    Add: operator.add, Sub: operator.sub, Mul: operator.mul, Div: operator.truediv
}


def _fold(node, leaf, check=lambda op, a, b: None):
    """Value of node: + - * / ^ and unary minus applied here, leaf(n) for the rest.

    The left spine of a + - * / chain is walked by a loop, so a flat sum or
    product of any length costs no stack; only parentheses, call arguments
    and unary minus recurse, and the parser caps those at _MAX_DEPTH.
    check(type, a, b) is called before each a + - * / b and check(Pow, a, k)
    before each a^k.
    """
    spine = []
    while type(node) in _BINARY:
        spine.append(node)
        node = node.left
    if isinstance(node, Neg):
        acc = -_fold(node.arg, leaf, check)
    elif isinstance(node, Pow):
        exponent = _as_integer(node.exponent, "exponent", _MAX_EXPONENT)
        acc = _fold(node.base, leaf, check)
        check(Pow, acc, exponent)
        acc = acc**exponent
    else:
        acc = leaf(node)
    for op in reversed(spine):
        rhs = _fold(op.right, leaf, check)
        if type(op) is Div and rhs == 0:
            raise EvaluationError("division by zero")
        check(type(op), acc, rhs)
        acc = _BINARY[type(op)](acc, rhs)
    return acc


def eval_expr(node, env):
    """Exact value of node with env mapping every free name to a rational."""
    return _evaluate(node, env, [_MAX_COUNT])


def _evaluate(node, env, budget):
    """eval_expr, charging every sum range to budget[0], the body evaluations left."""

    def leaf(node):
        if isinstance(node, Int):
            return Fraction(node.value)
        if isinstance(node, Var):
            try:
                return Fraction(env[node.name])
            except KeyError:
                raise EvaluationError("unbound variable %r" % node.name) from None
        if isinstance(node, Fact):
            arg = _as_integer(_fold(node.arg, leaf), "factorial argument", _MAX_COUNT)
            if arg < 0:
                raise EvaluationError("factorial of a negative integer")
            return Fraction(math.factorial(arg))
        if isinstance(node, Binom):
            top = _fold(node.top, leaf)
            k = _as_integer(_fold(node.bottom, leaf), "binomial lower index", _MAX_COUNT)
            if k < 0:
                return Fraction(0)
            falling = math.prod((top - i for i in range(k)), start=Fraction(1))
            return falling / math.factorial(k)
        if isinstance(node, Poch):
            base = _fold(node.base, leaf)
            count = _as_integer(_fold(node.count, leaf), "pochhammer count", _MAX_COUNT)
            if count < 0:
                raise EvaluationError("pochhammer count is negative")
            return math.prod((base + i for i in range(count)), start=Fraction(1))
        if isinstance(node, Sum):
            lo = _as_integer(_fold(node.lower, leaf), "sum lower bound")
            hi = _as_integer(_fold(node.upper, leaf), "sum upper bound")
            if hi >= lo:
                budget[0] -= _as_integer(hi - lo + 1, "sum range length", budget[0])
            total = Fraction(0)
            inner = dict(env)
            for i in range(lo, hi + 1):
                inner[node.index] = Fraction(i)
                total += _evaluate(node.body, inner, budget)
            return total
        raise TypeError("not an Expr node: %r" % (node,))

    return _fold(node, leaf)


def expr_to_ratfun(node, vars, consts=None):
    """Convert node to a rational function over vars.

    consts maps extra names to fixed rationals.  Every leaf other than a
    name in vars folds to a constant through eval_expr under consts, so
    combinatorial atoms are allowed only when their arguments involve none
    of vars.
    """
    consts = consts or {}
    vset = set(vars)

    def leaf(node):
        if isinstance(node, Var) and node.name in vset:
            return RatFun.from_poly(MPoly.variable(vars, node.name))
        if free_vars(node) & vset:
            raise EvaluationError(
                "combinatorial atom with a symbolic argument is not a"
                " rational function"
            )
        return RatFun.const(vars, eval_expr(node, consts))

    return _fold(node, leaf, _check_size)


def _check_size(op, a, b):
    """EvaluationError when the RatFun a op b could form a polynomial of more
    than _MAX_COUNT terms; for op Pow, b is the exponent.

    A monomial factor only shifts exponents, so a monomial times one
    polynomial has that polynomial's terms.  Any other product has at most
    the monomials of its total degree or lower in the variables it involves.
    """
    if op is Pow:
        k, products = b, [(a.num,), (a.den,)]
    elif op is Mul:
        k, products = 1, [(a.num, b.num), (a.den, b.den)]
    else:
        # a / b forms these two products; a + b and a - b also a.den * b.den
        k, products = 1, [(a.num, b.den), (a.den, b.num)] + [(a.den, b.den)] * (op is not Div)
    for factors in products:
        rest = [p for p in factors if len(p.terms) > 1]
        if k * len(rest) > 1:
            degree = k * sum(p.total_degree() for p in rest)
            used = sum(map(any, zip(*(e for p in rest for e in p.terms))))
            bound = math.comb(degree + used, used)
            if bound > _MAX_COUNT:
                raise EvaluationError(
                    "a polynomial of up to %d terms is above the cap %d" % (bound, _MAX_COUNT)
                )


def expr_to_mpoly(node, vars, consts=None):
    """Convert node to a polynomial over vars; reject true denominators."""
    r = expr_to_ratfun(node, vars, consts)
    if not r.den.is_constant():
        raise EvaluationError("expression has a nonconstant denominator")
    return r.num * (Fraction(1) / r.den.constant_value())


def print_canonical(p):
    """Unique text form: content free, positive leading term, graded lex."""
    return p.canonical_str()


# ---------------------------------------------------------------------------
# Line-oriented files

_IDENT_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


def _significant_lines(text):
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append((lineno, line))
    return out


def _parse_names(value, lineno, low, high):
    names = value.split()
    if not (low <= len(names) <= high):
        raise ValidationError(
            "line %d: expected between %d and %d variable names"
            % (lineno, low, high)
        )
    for name in names:
        if not _IDENT_RE.match(name):
            raise ValidationError("line %d: bad variable name %r" % (lineno, name))
    if len(set(names)) != len(names):
        raise ValidationError("line %d: repeated variable name" % lineno)
    return tuple(names)


def _parse_fraction(text, lineno):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValidationError(
            "line %d: bad rational value %r" % (lineno, text)
        ) from None


def _header(lines, tag):
    if not lines:
        raise ValidationError("empty file")
    lineno, line = lines[0]
    if not line.startswith(tag):
        raise ValidationError("line %d: expected %r header" % (lineno, tag))
    return lineno, line[len(tag):].strip()


def parse_series_text(text):
    """Read a series file; returns (vars, entries) keeping explicit zeros.

    Explicit zero lines matter: the highest total degree present defines the
    truncation order of the series.
    """
    lines = _significant_lines(text)
    lineno, value = _header(lines, "vars:")
    names = _parse_names(value, lineno, 1, 2)
    entries = {}
    for lineno, line in lines[1:]:
        parts = line.split()
        if len(parts) != len(names) + 1:
            raise ValidationError(
                "line %d: expected %d exponents and a value"
                % (lineno, len(names))
            )
        try:
            exps = tuple(int(part) for part in parts[:-1])
        except ValueError:
            raise ValidationError(
                "line %d: bad exponent in %r" % (lineno, line)
            ) from None
        if any(e < 0 for e in exps):
            raise ValidationError("line %d: negative exponent" % lineno)
        if exps in entries:
            raise ValidationError(
                "line %d: duplicate term %s" % (lineno, " ".join(parts[:-1]))
            )
        entries[exps] = _parse_fraction(parts[-1], lineno)
    if not entries:
        raise ValidationError("series file has no entries")
    return names, entries


def format_series_text(vars, entries, order=None):
    """Write a series file listing every coefficient of total degree <= order."""
    if order is None:
        if not entries:
            raise ValidationError("cannot infer the order of an empty series")
        order = max(sum(e) for e in entries)
    out = ["vars: " + " ".join(vars)]
    if len(vars) == 1:
        grid = [(i,) for i in range(order + 1)]
    else:
        grid = [
            (i, t - i)
            for t in range(order + 1)
            for i in range(t, -1, -1)
        ]
    for exps in grid:
        value = entries.get(exps, Fraction(0))
        out.append(" ".join(str(e) for e in exps) + " " + str(Fraction(value)))
    return "\n".join(out) + "\n"


def parse_operator_text(text):
    """Read an operator file; returns (vars, [(shift exponents, Q)]).

    Each line "a b : Q" contributes the term x^a y^b * Q(theta_x, theta_y);
    Q must be written in the theta names, "t" prefixed to each variable.
    """
    lines = _significant_lines(text)
    lineno, value = _header(lines, "op-vars:")
    names = _parse_names(value, lineno, 1, 2)
    theta = tuple("t" + name for name in names)
    if set(theta) & set(names):
        raise ValidationError("theta names collide with the variables")
    terms = []
    seen = set()
    for lineno, line in lines[1:]:
        if ":" not in line:
            raise ValidationError("line %d: expected 'a [b] : Q'" % lineno)
        left, right = line.split(":", 1)
        parts = left.split()
        if len(parts) != len(names):
            raise ValidationError(
                "line %d: expected %d shift exponents" % (lineno, len(names))
            )
        try:
            exps = tuple(int(part) for part in parts)
        except ValueError:
            raise ValidationError("line %d: bad shift exponent" % lineno) from None
        if any(e < 0 for e in exps):
            raise ValidationError("line %d: negative shift exponent" % lineno)
        if exps in seen:
            raise ValidationError("line %d: duplicate shift %s" % (lineno, exps))
        seen.add(exps)
        try:
            q = expr_to_mpoly(parse_expr(right, theta), theta)
        except (ExprSyntaxError, UnknownVariable, EvaluationError) as exc:
            raise ValidationError("line %d: %s" % (lineno, exc)) from None
        if q.is_zero():
            continue
        terms.append((exps, q))
    if not terms:
        raise ValidationError("operator file has no nonzero terms")
    return names, terms


def format_operator_text(vars, terms):
    out = ["op-vars: " + " ".join(vars)]
    for exps, q in sorted(terms, key=lambda item: (sum(item[0]), item[0])):
        out.append(" ".join(str(e) for e in exps) + " : " + q.to_str())
    return "\n".join(out) + "\n"


def parse_ode_text(text):
    """Read an ODE file; returns (var, [p_0, ..., p_r]) with D^j weights p_j."""
    lines = _significant_lines(text)
    lineno, value = _header(lines, "ode-var:")
    names = _parse_names(value, lineno, 1, 1)
    var = names[0]
    by_order = {}
    for lineno, line in lines[1:]:
        if ":" not in line:
            raise ValidationError("line %d: expected 'j : p_j'" % lineno)
        left, right = line.split(":", 1)
        try:
            order = int(left.strip())
        except ValueError:
            raise ValidationError("line %d: bad derivative order" % lineno) from None
        if order < 0:
            raise ValidationError("line %d: negative derivative order" % lineno)
        if order in by_order:
            raise ValidationError("line %d: duplicate order %d" % (lineno, order))
        try:
            p = expr_to_mpoly(parse_expr(right, names), names)
        except (ExprSyntaxError, UnknownVariable, EvaluationError) as exc:
            raise ValidationError("line %d: %s" % (lineno, exc)) from None
        if p.is_zero():
            raise ValidationError(
                "line %d: zero coefficient; omit the line instead" % lineno
            )
        by_order[order] = p
    if not by_order:
        raise ValidationError("ODE file has no terms")
    top = max(by_order)
    zero = MPoly.zero(names)
    return var, [by_order.get(j, zero) for j in range(top + 1)]


def format_ode_text(var, coeffs):
    out = ["ode-var: " + var]
    for order, p in enumerate(coeffs):
        if not p.is_zero():
            out.append("%d : %s" % (order, p.to_str()))
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Recursion spec files


@dataclass
class SpecFile:
    """A named coefficient description for a doubly indexed sequence.

    kind "ratio" gives the two neighbor ratios alpha1 = c(n+1, m)/c(n, m)
    and alpha2 = c(n, m+1)/c(n, m); kind "formula" gives c(n, m) directly.
    Parameters are extra names bound to fixed rationals.
    """

    name: str
    kind: str
    vars: tuple
    params: dict = field(default_factory=dict)
    alpha1: Expr | None = None
    alpha2: Expr | None = None
    coeff: Expr | None = None
    alpha1_text: str = ""
    alpha2_text: str = ""
    coeff_text: str = ""


_SPEC_KEYS = ("name", "kind", "vars", "params", "alpha1", "alpha2", "coeff")


def parse_spec_text(text):
    lines = _significant_lines(text)
    if not lines or lines[0][1] != "[spec]":
        raise ValidationError("missing [spec] header")
    fields = {}
    for lineno, line in lines[1:]:
        if "=" not in line:
            raise ValidationError("line %d: expected 'key = value'" % lineno)
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.strip()
        if key not in _SPEC_KEYS:
            raise ValidationError("line %d: unknown key %r" % (lineno, key))
        if key in fields:
            raise ValidationError("line %d: duplicate key %r" % (lineno, key))
        if not value:
            raise ValidationError("line %d: empty value for %r" % (lineno, key))
        fields[key] = (lineno, value)

    def need(key):
        if key not in fields:
            raise ValidationError("missing field %r" % key)
        return fields[key][1]

    name = need("name")
    kind = need("kind")
    if kind not in ("ratio", "formula"):
        raise ValidationError("kind must be 'ratio' or 'formula', not %r" % kind)
    lineno = fields["vars"][0] if "vars" in fields else 0
    vars = _parse_names(need("vars"), lineno, 1, 2)
    if kind == "ratio" and len(vars) != 2:
        raise ValidationError("ratio specs need exactly two variables")

    params = {}
    if "params" in fields:
        lineno, value = fields["params"]
        for tok in value.split():
            if ":" not in tok:
                raise ValidationError(
                    "line %d: parameter binding must look like name:value" % lineno
                )
            pname, pval = tok.split(":", 1)
            if not _IDENT_RE.match(pname):
                raise ValidationError("line %d: bad parameter name %r" % (lineno, pname))
            if pname in vars or pname in params:
                raise ValidationError(
                    "line %d: parameter %r collides with another name"
                    % (lineno, pname)
                )
            params[pname] = _parse_fraction(pval, lineno)

    declared = vars + tuple(params)

    def expr_field(key):
        raw = need(key)
        try:
            return parse_expr(raw, declared), raw
        except (ExprSyntaxError, UnknownVariable) as exc:
            raise ValidationError("%s: %s" % (key, exc)) from None

    spec = SpecFile(name=name, kind=kind, vars=vars, params=params)
    if kind == "ratio":
        if "coeff" in fields:
            raise ValidationError("coeff is not allowed in a ratio spec")
        spec.alpha1, spec.alpha1_text = expr_field("alpha1")
        spec.alpha2, spec.alpha2_text = expr_field("alpha2")
    else:
        for key in ("alpha1", "alpha2"):
            if key in fields:
                raise ValidationError("%s is not allowed in a formula spec" % key)
        spec.coeff, spec.coeff_text = expr_field("coeff")
    return spec


def format_spec_text(spec):
    out = ["[spec]", "name = " + spec.name, "kind = " + spec.kind,
           "vars = " + " ".join(spec.vars)]
    if spec.params:
        out.append(
            "params = "
            + " ".join("%s:%s" % (k, v) for k, v in spec.params.items())
        )
    if spec.kind == "ratio":
        out.append("alpha1 = " + spec.alpha1_text)
        out.append("alpha2 = " + spec.alpha2_text)
    else:
        out.append("coeff = " + spec.coeff_text)
    return "\n".join(out) + "\n"


def _read_text(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise IoError(str(exc)) from None


def write_text(path, text):
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise IoError(str(exc)) from None


def load_spec(path):
    return parse_spec_text(_read_text(path))


def load_series(path):
    return parse_series_text(_read_text(path))


def load_operator(path):
    return parse_operator_text(_read_text(path))


def load_ode(path):
    return parse_ode_text(_read_text(path))

"""Text interfaces: expression grammar, series/operator/ODE files, recursion specs.

The expression grammar is plain infix arithmetic over exact rationals with
precedence ^ > unary minus > * / > + -, where the right operand of ^ must be
a nonnegative integer literal.  Four combinatorial atoms are recognized:
fact(e), binom(e, e), poch(e, e), and sum(index, lower, upper, body).

parse_expr returns a tree of tuples, each tagged by its first entry:
("int", v), ("var", name), (op, left, right) for op in + - * /, ("neg", a),
("^", base, k) with k an int, ("fact", a), ("binom", a, b), ("poch", a, b)
and ("sum", index, lower, upper, body) with index a name.

Evaluation caps the fact argument, the binom lower index and the poch count
at _MAX_COUNT, and a ^ exponent at _MAX_EXPONENT.  The sums of one
evaluation share one budget of _MAX_COUNT body evaluations, so nested sums
cannot multiply their ranges past it; each range is charged in full before
it starts.  Conversion to a rational function charges the term pairs of
its polynomial products, a bound for each power, to one budget of
_MAX_COUNT per conversion.  Past a cap it raises EvaluationError before any
factorial, product, loop or power runs, so no input can ask for a hang or a
MemoryError.

File formats are line oriented, with # comments and blank lines ignored:

  series file    header "vars: x y", then one line per coefficient
                 "e1 [e2] value" with value an integer or num/den
  operator file  header "op-vars: x y", then "a b : Q" per term, where Q is
                 a polynomial in the theta variables tx, ty (prefix "t")
  ODE file       header "ode-var: t", then "j : p_j" per derivative order
  spec file      "[spec]" header, then "key = value" lines
"""

import math
import operator
import re
from fractions import Fraction
from types import SimpleNamespace

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
    """File could not be read."""


# ---------------------------------------------------------------------------
# Expression nodes


# The subexpressions that follow the tag of each node but "var" and "sum";
# the value of "int" and the exponent of "^" are literals.
_OPERANDS = {
    "int": 0, "neg": 1, "^": 1, "fact": 1, "binom": 2, "poch": 2,
    "+": 2, "-": 2, "*": 2, "/": 2,
}
_ATOM_NAMES = ("fact", "binom", "poch", "sum")


def free_vars(node):
    """Names referenced by node, with the index of a ("sum", index, lower,
    upper, body) node bound inside its body."""
    names = set()
    stack = [(node, frozenset())]
    while stack:
        node, bound = stack.pop()
        tag = node[0]
        if tag == "var":
            if node[1] not in bound:
                names.add(node[1])
        elif tag == "sum":
            _, index, lower, upper, body = node
            stack += [(body, bound | {index}), (lower, bound), (upper, bound)]
        elif tag in _OPERANDS:
            stack += [(kid, bound) for kid in node[1 : 1 + _OPERANDS[tag]]]
        else:
            raise TypeError("not an expression node: %r" % (node,))
    return names


# ---------------------------------------------------------------------------
# Tokenizer and parser

_TOKEN_RE = re.compile(
    r"(?P<int>[0-9]+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[-+*/^(),])"
    r"|(?P<newline>\n)|(?P<space>[ \t\r]+)|(?P<bad>.)",
    re.DOTALL,
)


def _tokenize(text):
    """(kind, text, line, col) tokens, kind "int", "name", the operator
    character itself, or "end" for the closing token."""
    toks = []
    line, start = 1, 0
    for m in _TOKEN_RE.finditer(text):
        kind, tok, col = m.lastgroup, m.group(), m.start() - start + 1
        if kind == "newline":
            line, start = line + 1, m.end()
        elif kind == "bad":
            raise ExprSyntaxError("unexpected character %r" % tok, line, col)
        elif kind != "space":
            toks.append((tok if kind == "op" else kind, tok, line, col))
    toks.append(("end", "", line, len(text) - start + 1))
    return toks


# Nesting levels (parentheses, call arguments, unary minus) the parser
# accepts.  A level costs at most six stack frames here (expr, term, unary,
# power, atom and, for an argument, call) and at most three in _fold and its
# leaf functions; chains of + - * / cost none, because the parser and _fold
# loop over them.  So any accepted expression stays well inside Python's
# default recursion limit of 1000.
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
            node = (op, node, self.term())
        self.depth -= 1
        return node

    def term(self):
        node = self.unary()
        while self.peek()[0] in ("*", "/"):
            op = self.take()[0]
            node = (op, node, self.unary())
        return node

    def unary(self):
        if self.peek()[0] == "-":
            self.take()
            self.descend()
            node = ("neg", self.unary())
            self.depth -= 1
            return node
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek()[0] != "^":
            return base
        self.take()
        return ("^", base, self.exponent())

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
            return ("int", int(tok[1]))
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
            return ("var", name)
        raise ExprSyntaxError(
            "expected a value, found %r" % (tok[1] or "end of input"),
            tok[2],
            tok[3],
        )

    def call(self, name, tok):
        self.expect("(", "'('")
        if name != "sum":
            args = []
            for i in range(_OPERANDS[name]):
                if i:
                    self.expect(",", "','")
                args.append(self.expr())
            self.expect(")", "')'")
            return (name, *args)
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
        return ("sum", idx[1], lower, upper, body)

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
    """Parse text into an expression node; identifiers must come from vars.

    A node is a tuple tagged by its first entry: ("int", v), ("var", name),
    (op, left, right) for op in + - * /, ("neg", a), ("^", base, k), ("fact",
    a), ("binom", a, b), ("poch", a, b) or ("sum", index, lower, upper, body).
    """
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


_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def _fold(node, leaf, check=lambda op, a, b: None):
    """Value of node: the (op, left, right), ("neg", a) and ("^", base, k)
    nodes are applied here, leaf(n) gives the value of every other node n.

    The left spine of a + - * / chain is walked by a loop, so a flat sum or
    product of any length costs no stack; only parentheses, call arguments
    and unary minus recurse, and the parser caps those at _MAX_DEPTH.
    check(op, a, b) is called before each a op b for op in + - * /, and
    check("^", a, k) before each a^k.
    """
    spine = []
    while node[0] in _BINARY:
        spine.append(node)
        node = node[1]
    if node[0] == "neg":
        acc = -_fold(node[1], leaf, check)
    elif node[0] == "^":
        exponent = _as_integer(node[2], "exponent", _MAX_EXPONENT)
        acc = _fold(node[1], leaf, check)
        check("^", acc, exponent)
        acc = acc**exponent
    else:
        acc = leaf(node)
    for op, _, right in reversed(spine):
        rhs = _fold(right, leaf, check)
        if op == "/" and not rhs:
            raise EvaluationError("division by zero")
        check(op, acc, rhs)
        acc = _BINARY[op](acc, rhs)
    return acc


def eval_expr(node, env):
    """Exact value of node with env mapping every free name to a rational."""
    return _evaluate(node, env, [_MAX_COUNT])


def _evaluate(node, env, budget):
    """eval_expr, charging every sum range to budget[0], the body evaluations left."""

    def leaf(node):
        tag = node[0]
        if tag == "int":
            return Fraction(node[1])
        if tag == "var":
            try:
                return Fraction(env[node[1]])
            except KeyError:
                raise EvaluationError("unbound variable %r" % node[1]) from None
        if tag == "fact":
            arg = _as_integer(_fold(node[1], leaf), "factorial argument", _MAX_COUNT)
            if arg < 0:
                raise EvaluationError("factorial of a negative integer")
            return Fraction(math.factorial(arg))
        if tag == "binom":
            top = _fold(node[1], leaf)
            k = _as_integer(_fold(node[2], leaf), "binomial lower index", _MAX_COUNT)
            if k < 0:
                return Fraction(0)
            falling = math.prod((top - i for i in range(k)), start=Fraction(1))
            return falling / math.factorial(k)
        if tag == "poch":
            base = _fold(node[1], leaf)
            count = _as_integer(_fold(node[2], leaf), "pochhammer count", _MAX_COUNT)
            if count < 0:
                raise EvaluationError("pochhammer count is negative")
            return math.prod((base + i for i in range(count)), start=Fraction(1))
        if tag == "sum":
            _, index, lower, upper, body = node
            lo = _as_integer(_fold(lower, leaf), "sum lower bound")
            hi = _as_integer(_fold(upper, leaf), "sum upper bound")
            if hi >= lo:
                budget[0] -= _as_integer(hi - lo + 1, "sum range length", budget[0])
            total = Fraction(0)
            inner = dict(env)
            for i in range(lo, hi + 1):
                inner[index] = Fraction(i)
                total += _evaluate(body, inner, budget)
            return total
        raise TypeError("not an expression node: %r" % (node,))

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
        if node[0] == "var" and node[1] in vset:
            return RatFun.from_poly(MPoly.variable(vars, node[1]))
        if free_vars(node) & vset:
            raise EvaluationError(
                "combinatorial atom with a symbolic argument is not a"
                " rational function"
            )
        return RatFun.const(vars, eval_expr(node, consts))

    budget = [_MAX_COUNT]
    return _fold(node, leaf, lambda op, a, b: _check_size(op, a, b, budget))


def _check_size(op, a, b, budget):
    """Charge the term pairs the RatFun a op b multiplies to budget[0], the
    pairs left in one conversion, and raise EvaluationError past it; op is
    the tag of a + - * / or ^ node, and for op "^", b is the int exponent.

    A monomial factor only shifts exponents, so a product with one is not
    charged.  A power q^k runs k products with q: for q of n terms, q^j has
    at most C(n+j-1, j) terms, and at most the monomials of its total degree
    or lower in the variables q involves, so each step is charged n times
    the smaller bound.
    """
    if op == "^":
        k, products = b, [(a.num,), (a.den,)]
    elif op == "*":
        k, products = 1, [(a.num, b.num), (a.den, b.den)]
    else:
        # a / b forms these two products; a + b and a - b also a.den * b.den
        k, products = 1, [(a.num, b.den), (a.den, b.num)] + [(a.den, b.den)] * (op != "/")
    for factors in products:
        sizes = [len(p.terms) for p in factors if len(p.terms) > 1]
        if len(sizes) == 2:
            budget[0] -= sizes[0] * sizes[1]
        elif sizes and op == "^":
            q, n = factors[0], sizes[0]
            degree, used = q.total_degree(), sum(map(any, zip(*q.terms)))
            for j in range(1, k):
                budget[0] -= n * min(math.comb(n + j - 1, j), math.comb(j * degree + used, used))
                if budget[0] < 0:
                    break
        if budget[0] < 0:
            raise EvaluationError(
                "the term pairs multiplied in one conversion are above the cap %d" % _MAX_COUNT
            )


def expr_to_mpoly(node, vars, consts=None):
    """Convert node to a polynomial over vars; reject true denominators."""
    r = expr_to_ratfun(node, vars, consts)
    if not r.den.is_constant():
        raise EvaluationError("expression has a nonconstant denominator")
    return r.num * (Fraction(1) / r.den.constant_value())


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


class SpecFile(SimpleNamespace):
    """A named coefficient description for a doubly indexed sequence.

    kind "ratio" gives the two neighbor ratios alpha1 = c(n+1, m)/c(n, m)
    and alpha2 = c(n, m+1)/c(n, m); kind "formula" gives c(n, m) directly.
    Parameters are extra names bound to fixed rationals.  Its ten fields:
    name, kind, vars (a tuple), params (a dict), the expression nodes
    alpha1, alpha2 and coeff (None when the kind has none), and their texts
    alpha1_text, alpha2_text and coeff_text ("" when None).
    """


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

    exprs = ("alpha1", "alpha2") if kind == "ratio" else ("coeff",)
    spec = dict(name=name, kind=kind, vars=vars, params=params)
    for key in ("alpha1", "alpha2", "coeff"):
        if key in fields and key not in exprs:
            raise ValidationError("%s is not allowed in a %s spec" % (key, kind))
        spec[key], spec[key + "_text"] = None, ""
    for key in exprs:
        spec[key], spec[key + "_text"] = expr_field(key)
    return SpecFile(**spec)


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


def load_spec(path):
    return parse_spec_text(_read_text(path))


def load_series(path):
    return parse_series_text(_read_text(path))


def load_operator(path):
    return parse_operator_text(_read_text(path))


def load_ode(path):
    return parse_ode_text(_read_text(path))

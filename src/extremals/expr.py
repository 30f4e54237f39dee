"""Symbolic scalar expressions over a fixed tuple of named variables.

The grammar is deliberately tiny: numbers, named variables, ``+ - * / ^``,
unary minus, ``sin`` / ``cos`` / ``exp``, and parentheses. Every operation is
closed under differentiation, so the exact derivative of any parseable
expression is again an expression of the same kind. Division desugars to a
power with exponent -1 and exponents must fold to constants, which is what
keeps the closure property trivial.

Two deliberate extensions:

* ``pi`` is accepted as a named literal and folds to a float at parse time.
* ``abs`` is accepted only when the caller opts in (evaluation-only
  Lagrangians); differentiating through it raises.

Evaluation has three paths. ``Expr.eval`` walks the tree and is used
where clarity beats speed. ``compile_vector`` generates one numpy function
for a list of expressions; the batched hot loops (the Hamiltonian flow,
the kernels' Jacobians) go through compiled evaluators, which also accept
complex arrays so complex-step derivatives work out of the box. A compiled
evaluator has one calling convention: one array with the variables stacked
on its last axis, any leading batch shape in front. ``scalar_code`` emits
the same lowering as straight-line Python on scalars, for loops that run
one element at a time, where a numpy call on a few numbers costs far more
than its arithmetic: the RK4 loops ``fields._rk4_loop`` emits, the state
loop and every Hamiltonian flow loop, are built from it.

The generator emits as few numpy operations as exact IEEE arithmetic
allows, which is what a call costs at small batches:

* an operation on the same operands is computed once, across all the
  expressions of one evaluator;
* a negative constant or a -1.0 factor never multiplies: (-a) * b is
  -(a * b) exactly, and a + (-b) is a - b, so the sign ends in a
  subtraction, or in one negation where there is none to end in; a unit
  factor multiplies nothing;
* a run of constants the tree evaluates first is evaluated once, at
  compile time, with the same float arithmetic: float64, also for a power
  or a function of a constant, as ``Expr.eval`` takes them;
* a +0.0 term is kept, added last, unless another term of the sum is
  never -0.0 (a sum is -0.0 only when every term is), as after an earlier
  ``+ 0.0`` or ``0.0 - x``;
* all constant outputs are written by one copy of a template row.

The contract is that on real inputs a compiled output equals ``Expr.eval``
of its expression bit for bit, the sign of every zero included; only the
sign bit of a NaN may differ. On complex inputs the two agree to roundoff.

One evaluator can serve expressions written over different variable tuples:
``substitute`` moves each onto a combined tuple, or pins a variable to a
constant, node for node, so the emitted code does the same arithmetic as
the original expression on the same values. The Hamiltonian flow compiles
its stage this way over (xi, p, u): the rates are the derivatives of the
Hamiltonian <B(xi)^T p, u> - L(xi, u), built from the field components
over x and the cost over (x, u), and u is pinned to 0 for the fiber
coefficients.
An expression may also read an earlier output as a variable, which is how
the flow's stage computes u* once and feeds it to the rates.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import ExpressionGrowthError, ParseError

_FUNCTIONS = ("sin", "cos", "exp")
_CONSTANTS = {"pi": math.pi}

NODE_CAP = 100_000


@dataclass(frozen=True)
class Expr:
    def diff(self, index: int) -> "Expr":
        raise NotImplementedError

    def eval(self, values):
        raise NotImplementedError

    def node_count(self) -> int:
        raise NotImplementedError

    def __str__(self) -> str:
        return _to_str(self, 0)


@dataclass(frozen=True)
class Const(Expr):
    value: float

    def diff(self, index):
        return Const(0.0)

    def eval(self, values):
        return self.value

    def node_count(self):
        return 1


@dataclass(frozen=True)
class Var(Expr):
    name: str
    index: int

    def diff(self, index):
        return Const(1.0 if index == self.index else 0.0)

    def eval(self, values):
        return values[self.index]

    def node_count(self):
        return 1


@dataclass(frozen=True)
class Add(Expr):
    terms: tuple

    def diff(self, index):
        return add(*(t.diff(index) for t in self.terms))

    def eval(self, values):
        total = self.terms[0].eval(values)
        for t in self.terms[1:]:
            total = total + t.eval(values)
        return total

    def node_count(self):
        return 1 + sum(t.node_count() for t in self.terms)


@dataclass(frozen=True)
class Mul(Expr):
    factors: tuple

    def diff(self, index):
        parts = []
        for j, f in enumerate(self.factors):
            rest = self.factors[:j] + self.factors[j + 1:]
            parts.append(mul(f.diff(index), *rest))
        return add(*parts)

    def eval(self, values):
        total = self.factors[0].eval(values)
        for f in self.factors[1:]:
            total = total * f.eval(values)
        return total

    def node_count(self):
        return 1 + sum(f.node_count() for f in self.factors)


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    exponent: float

    def diff(self, index):
        d = self.base.diff(index)
        if d == Const(0.0):   # not inf * 0 = NaN for a non-finite exponent
            return Const(0.0)
        return mul(Const(self.exponent), power(self.base, self.exponent - 1.0),
                   d)

    def eval(self, values):
        base = self.base.eval(values)
        if not isinstance(base, float):
            return base ** _integral(self.exponent)
        # A constant base: float64 arithmetic, as ``power`` folds it.
        with np.errstate(all="ignore"):
            return np.float64(base) ** _integral(self.exponent)

    def node_count(self):
        return 1 + self.base.node_count()


@dataclass(frozen=True)
class Func(Expr):
    name: str
    arg: Expr

    def diff(self, index):
        d = self.arg.diff(index)
        if self.name == "sin":
            return mul(Func("cos", self.arg), d)
        if self.name == "cos":
            return mul(Const(-1.0), Func("sin", self.arg), d)
        if self.name == "exp":
            return mul(self, d)
        raise ParseError(f"{self.name} is not differentiable; it is admitted "
                         "for functional evaluation only")

    def eval(self, values):
        v = self.arg.eval(values)
        if self.name == "sin":
            return np.sin(v)
        if self.name == "cos":
            return np.cos(v)
        if self.name == "exp":
            return np.exp(v)
        return np.abs(v)

    def node_count(self):
        return 1 + self.arg.node_count()


# ---------------------------------------------------------------------------
# smart constructors with constant folding

def add(*terms):
    flat = []
    const = 0.0
    for t in terms:
        if isinstance(t, Add):
            for s in t.terms:
                if isinstance(s, Const):
                    const += s.value
                else:
                    flat.append(s)
        elif isinstance(t, Const):
            const += t.value
        else:
            flat.append(t)
    if const != 0.0 or not flat:
        flat.append(Const(const))
    if len(flat) == 1:
        return flat[0]
    return Add(tuple(flat))


def mul(*factors):
    flat = []
    const = 1.0
    zero = False
    for f in factors:
        for g in f.factors if isinstance(f, Mul) else (f,):
            if isinstance(g, Const):
                const *= g.value
                zero = zero or g.value == 0.0
            else:
                flat.append(g)
    # A zero factor gives 0 whatever the others are, constants included:
    # folded in order, 0 * inf would leave a NaN constant.
    if zero or const == 0.0:
        return Const(0.0)
    if const != 1.0 or not flat:
        flat.insert(0, Const(const))
    if len(flat) == 1:
        return flat[0]
    return Mul(tuple(flat))


def power(base, exponent: float):
    if exponent == 0.0:
        return Const(1.0)
    if exponent == 1.0:
        return base
    if isinstance(base, Const):
        # float64 arithmetic where Python's raises or leaves the reals:
        # overflow is +-inf, 0^-1 is inf and (-2)^0.5 is NaN.
        with np.errstate(all="ignore"):
            return Const(float(np.float64(base.value) ** exponent))
    if isinstance(base, Pow):
        return power(base.base, base.exponent * exponent)
    return Pow(base, float(exponent))


def _integral(exponent):
    """A finite integral exponent as an int, which keeps (-2)^3 real."""
    return int(exponent) if float(exponent).is_integer() else exponent


def func(name, arg):
    if isinstance(arg, Const):
        table = {"sin": math.sin, "cos": math.cos, "exp": math.exp, "abs": abs}
        try:
            return Const(float(table[name](arg.value)))
        except OverflowError:
            pass
    return Func(name, arg)


def substitute(e, table):
    """``e`` with every ``Var(i)`` replaced by ``table[i]``.

    The tree is rebuilt without folding, so the result evaluates with the
    arithmetic of ``e`` on the substituted values, bit for bit.
    """
    if isinstance(e, Var):
        return table[e.index]
    if isinstance(e, Add):
        return Add(tuple(substitute(t, table) for t in e.terms))
    if isinstance(e, Mul):
        return Mul(tuple(substitute(f, table) for f in e.factors))
    if isinstance(e, Pow):
        return Pow(substitute(e.base, table), e.exponent)
    if isinstance(e, Func):
        return Func(e.name, substitute(e.arg, table))
    return e


def check_node_cap(exprs, cap=NODE_CAP):
    total = sum(e.node_count() for e in exprs)
    if total > cap:
        raise ExpressionGrowthError(
            f"expression grew to {total} nodes (cap {cap})")
    return total


# ---------------------------------------------------------------------------
# printing (round-trips through the parser)

def _number(v):
    """v as text the parser reads back: +-inf as +-1e999, which overflows
    to it, NaN as the difference that folds to it (``mul`` folds a zero
    factor to 0, so 0*1e999 would read back as 0), and -0 as the
    reciprocal of -inf (``mul`` would read -0 back as 0 too)."""
    if math.isnan(v):
        return "(1e999-1e999)"
    if math.isinf(v):
        return "1e999" if v > 0 else "-1e999"
    if v == 0.0 and math.copysign(1.0, v) < 0:
        return "(-1e999)^(-1)"
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def _to_str(e, prec):
    if isinstance(e, Const):
        s = _number(e.value)
        negative = e.value < 0 or s.startswith("(-")
        return f"({s})" if negative and prec > 0 else s
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Add):
        s = " + ".join(_to_str(t, 1) for t in e.terms)
        return f"({s})" if prec > 1 else s
    if isinstance(e, Mul):
        s = "*".join(_to_str(f, 2) for f in e.factors)
        return f"({s})" if prec > 2 else s
    if isinstance(e, Pow):
        es = _number(e.exponent)
        if e.exponent < 0:
            es = f"({es})"
        # ^ is right-associative, so a power as a base keeps its parentheses.
        s = f"{_to_str(e.base, 3)}^{es}"
        return f"({s})" if prec > 2 else s
    return f"{e.name}({_to_str(e.arg, 0)})"


# ---------------------------------------------------------------------------
# tokenizer / parser

_TOKEN_RE = re.compile(
    r"(?P<num>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),;=])"
    r"|(?P<nl>\n)"
    r"|(?P<ws>[ \t\r]+)"
    r"|(?P<comment>#[^\n]*)"
)


class _Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind, text, line, col):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col


def _tokenize(text):
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        tok = m.group()
        if kind == "nl":
            tokens.append(_Token("nl", tok, line, col))
            line += 1
            col = 1
        else:
            if kind not in ("ws", "comment"):
                tokens.append(_Token(kind, tok, line, col))
            col += len(tok)
        pos = m.end()
    tokens.append(_Token("end", "", line, col))
    return tokens


class _Parser:
    """Recursive-descent parser over a token list.

    ``newline_breaks`` controls whether a newline at parenthesis depth zero
    terminates the current expression (field/statement mode) or is plain
    whitespace (scalar mode).
    """

    def __init__(self, tokens, variables, allow_abs=False, newline_breaks=False):
        self.tokens = tokens
        self.pos = 0
        self.vars = {name: i for i, name in enumerate(variables)}
        self.allow_abs = allow_abs
        self.newline_breaks = newline_breaks
        self.depth = 0

    def peek(self):
        tok = self.tokens[self.pos]
        while tok.kind == "nl" and (self.depth > 0 or not self.newline_breaks):
            self.pos += 1
            tok = self.tokens[self.pos]
        return tok

    def next(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def accept(self, text):
        tok = self.peek()
        if tok.kind == "op" and tok.text == text:
            self.pos += 1
            return True
        return False

    def expect(self, text):
        tok = self.next()
        if tok.kind != "op" or tok.text != text:
            raise ParseError(f"expected {text!r}, found {tok.text or 'end of input'!r}",
                             tok.line, tok.col)
        return tok

    # expression grammar -----------------------------------------------

    def parse_expr(self):
        e = self.parse_term()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text in "+-":
                self.pos += 1
                rhs = self.parse_term()
                e = add(e, rhs if tok.text == "+" else mul(Const(-1.0), rhs))
            else:
                return e

    def parse_term(self):
        e = self.parse_factor()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text in "*/":
                self.pos += 1
                rhs = self.parse_factor()
                e = mul(e, rhs) if tok.text == "*" else mul(e, power(rhs, -1.0))
            else:
                return e

    def parse_factor(self):
        tok = self.peek()
        if tok.kind == "op" and tok.text in "+-":
            self.pos += 1
            inner = self.parse_factor()
            return inner if tok.text == "+" else mul(Const(-1.0), inner)
        return self.parse_power()

    def parse_power(self):
        base = self.parse_atom()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            self.pos += 1
            expo = self.parse_factor()
            if not isinstance(expo, Const):
                raise ParseError("exponent must fold to a constant",
                                 tok.line, tok.col)
            return power(base, expo.value)
        return base

    def parse_atom(self):
        tok = self.next()
        if tok.kind == "num":
            return Const(float(tok.text))
        if tok.kind == "name":
            name = tok.text
            if name in _FUNCTIONS or (name == "abs" and self.allow_abs):
                self.expect("(")
                self.depth += 1
                arg = self.parse_expr()
                self.depth -= 1
                self.expect(")")
                return func(name, arg)
            if name in self.vars:
                return Var(name, self.vars[name])
            if name in _CONSTANTS:
                return Const(_CONSTANTS[name])
            raise ParseError(f"unknown symbol {name!r}", tok.line, tok.col)
        if tok.kind == "op" and tok.text == "(":
            self.depth += 1
            e = self.parse_expr()
            self.depth -= 1
            self.expect(")")
            return e
        raise ParseError(f"unexpected {tok.text or 'end of input'!r}",
                         tok.line, tok.col)


def parse_scalar(text, variables, allow_abs=False):
    """Parse one scalar expression over the given variable names."""
    p = _Parser(_tokenize(text), variables, allow_abs=allow_abs)
    e = p.parse_expr()
    tok = p.peek()
    if tok.kind != "end":
        raise ParseError(f"unexpected trailing {tok.text!r}", tok.line, tok.col)
    return e


def parse_components(text, count, variables, allow_abs=False):
    """Parse ``count`` comma-separated expressions (optionally parenthesised)."""
    p = _Parser(_tokenize(text), variables, allow_abs=allow_abs)
    wrapped = p.accept("(")
    if wrapped:
        p.depth += 1
    comps = [p.parse_expr()]
    while p.accept(","):
        comps.append(p.parse_expr())
    if wrapped:
        p.depth -= 1
        p.expect(")")
    tok = p.peek()
    if tok.kind != "end":
        raise ParseError(f"unexpected trailing {tok.text!r}", tok.line, tok.col)
    if len(comps) != count:
        raise ParseError(f"expected {count} components, found {len(comps)}")
    return tuple(comps)


def parse_field_statements(text, n, m):
    """Parse ``Xi = (e1, ..., en)`` statements separated by ';' or newlines.

    Returns a list of m component tuples, ordered X1..Xm. Each field must be
    defined exactly once.
    """
    variables = tuple(f"x{i+1}" for i in range(n))
    p = _Parser(_tokenize(text), variables, newline_breaks=True)
    seen = {}
    while True:
        tok = p.peek()
        while tok.kind == "nl" or (tok.kind == "op" and tok.text == ";"):
            p.pos += 1
            tok = p.peek()
        if tok.kind == "end":
            break
        if tok.kind != "name":
            raise ParseError(f"expected a field statement, found {tok.text!r}",
                             tok.line, tok.col)
        name = tok.text
        match = re.fullmatch(r"X(\d+)", name)
        if not match or not (1 <= int(match.group(1)) <= m):
            raise ParseError(f"field name {name!r} is not X1..X{m}",
                             tok.line, tok.col)
        idx = int(match.group(1)) - 1
        if idx in seen:
            raise ParseError(f"field {name} defined twice", tok.line, tok.col)
        p.pos += 1
        p.expect("=")
        p.expect("(")
        p.depth += 1
        comps = [p.parse_expr()]
        while p.accept(","):
            comps.append(p.parse_expr())
        p.depth -= 1
        p.expect(")")
        if len(comps) != n:
            raise ParseError(f"field {name} has {len(comps)} components, "
                             f"expected {n}", tok.line, tok.col)
        seen[idx] = tuple(comps)
    missing = [f"X{i+1}" for i in range(m) if i not in seen]
    if missing:
        raise ParseError(f"missing field definitions: {', '.join(missing)}")
    return [seen[i] for i in range(m)]


# ---------------------------------------------------------------------------
# compilation to numpy

def _negative(v):
    """Whether the float v carries a sign bit (-0.0 included, NaN not)."""
    return math.copysign(1.0, v) < 0.0 and not math.isnan(v)


def _folded(compute):
    """compute() on constants in float64, its warnings silenced, as a float.

    ``Expr.eval`` takes a function or a power of a constant the same way;
    the sums and products of floats round as float64 does and never raise.
    """
    with np.errstate(all="ignore"):
        return float(compute())


class _Lowering:
    """Expressions lowered to one DAG of numpy operations.

    A node is a tuple (op, *operands), op one of "const", "var", "+", "-",
    "*", "neg", "pow", "func", with operands given by node number; nodes
    are numbered in creation order, so every operand precedes its users,
    and one operation on the same operands is one node. ``lower`` maps an
    expression to (negated, node): the expression's value is the node's,
    with its sign flipped when negated, bit for bit, by the rules of the
    module docstring. ``never_minus_zero`` marks the nodes whose value
    cannot be -0.0: constants other than -0.0, and sums with such a term
    (a - b counts a).
    """

    def __init__(self, nvars):
        self.nvars = nvars
        self.nodes = []
        self.never_minus_zero = []
        self.numbers = {}
        # By object id: the caller's expressions outlive the lowering.
        self.memo = {}
        self.outputs = []

    def node(self, op, *operands, nz=False):
        key = (op,) + operands
        if op == "const":
            key = ("const", operands[0].hex())
        k = self.numbers.get(key)
        if k is None:
            k = self.numbers[key] = len(self.nodes)
            self.nodes.append((op,) + operands)
            self.never_minus_zero.append(nz)
        return k

    def const(self, v):
        return self.node("const", float(v),
                         nz=not (v == 0.0 and _negative(v)))

    def value(self, k):
        """The float of a constant node, None for any other."""
        node = self.nodes[k]
        return node[1] if node[0] == "const" else None

    def signed(self, v):
        """(negated, node) of the constant v."""
        if _negative(v):
            return True, self.const(-v)
        return False, self.const(v)

    def plain(self, term):
        """The node of a signed term's value, negating where it must."""
        negated, k = term
        if not negated:
            return k
        node = self.nodes[k]
        if node[0] == "const":
            return self.const(-node[1])
        if node[0] == "*" and self.value(node[1]) is not None:
            return self.node("*", self.const(-self.value(node[1])), node[2])
        return self.node("neg", k)

    def lower(self, e):
        key = id(e)
        if key not in self.memo:
            self.memo[key] = self._lower(e)
        return self.memo[key]

    def _lower(self, e):
        if isinstance(e, Const):
            return self.signed(e.value)
        if isinstance(e, Var):
            if e.index < self.nvars:
                return False, self.node("var", e.index)
            j = e.index - self.nvars
            if j >= len(self.outputs):
                raise ValueError(f"output {len(self.outputs)} uses a variable "
                                 "that is neither an input nor an earlier "
                                 "output")
            return self.outputs[j]
        if isinstance(e, Add):
            return self.add([self.lower(t) for t in e.terms])
        if isinstance(e, Mul):
            total = self.lower(e.factors[0])
            for f in e.factors[1:]:
                total = self.mul(total, self.lower(f))
            return total
        if isinstance(e, Pow):
            base = self.plain(self.lower(e.base))
            expo = _integral(e.exponent)
            v = self.value(base)
            if v is not None:
                return self.signed(_folded(lambda: np.float64(v) ** expo))
            return False, self.node("pow", base, expo)
        arg = self.plain(self.lower(e.arg))
        v = self.value(arg)
        if v is not None:
            return self.signed(_folded(lambda: getattr(np, e.name)(v)))
        return False, self.node("func", e.name, arg)

    def mul(self, a, b):
        (na, ka), (nb, kb) = a, b
        va, vb = self.value(ka), self.value(kb)
        if va is not None and vb is not None:
            return self.signed((-va if na else va) * (-vb if nb else vb))
        if va == 1.0:
            return na != nb, kb
        if vb == 1.0:
            return na != nb, ka
        return na != nb, self.node("*", ka, kb)

    def add(self, terms):
        zero = (False, self.const(0.0))
        rest = [t for t in terms if t != zero]
        if len(rest) < len(terms) and not any(
                not n and self.never_minus_zero[k] for n, k in rest):
            rest.append(zero)
        total = rest[0]
        for t in rest[1:]:
            total = self.add2(total, t)
        return total

    def add2(self, a, b):
        (na, ka), (nb, kb) = a, b
        va, vb = self.value(ka), self.value(kb)
        if va is not None and vb is not None:
            return self.signed((-va if na else va) + (-vb if nb else vb))
        nz = self.never_minus_zero
        if not na and not nb:
            return False, self.node("+", ka, kb, nz=nz[ka] or nz[kb])
        if not nb:
            ka, kb = kb, ka
        elif na:
            ka = self.plain(a)
        return False, self.node("-", ka, kb, nz=nz[ka])


def _literal(v):
    s = repr(float(v))
    return f"({s})" if _negative(v) else s


class CompiledVector:
    """A list of expressions compiled to one vectorized numpy function.

    Called with one array holding the k variables on its last axis, shaped
    ``batch_shape + (k,)``, it returns an array of shape
    ``batch_shape + (len(exprs),)``. Works on complex inputs, which is what
    the complex-step oracles rely on.

    An expression may use an earlier output as a variable: ``Var(nvars + j)``
    stands for output j, which is then computed once and reused.

    The generated code, kept as ``source``, computes every repeated
    operation once, folds signs into subtractions, evaluates constant runs
    at compile time, keeps a +0.0 term only where a -0.0 could reach it,
    and writes all constant outputs in one template copy (the rules are in
    the module docstring). On real inputs each output equals ``Expr.eval``
    of its expression bit for bit, signed zeros included; only NaN sign
    bits may differ. On complex inputs the two agree to roundoff: where a
    sign was folded, an exact negation replaces a complex product by -1.0.
    """

    def __init__(self, exprs, nvars):
        self.exprs = tuple(exprs)
        self.nvars = nvars
        low = _Lowering(nvars)
        for e in self.exprs:
            low.outputs.append(low.lower(e))
        roots = [low.plain(t) for t in low.outputs]
        self.source, template = _generate(low.nodes, roots)
        namespace = {"inf": math.inf, "nan": math.nan, "_k": template}
        exec(self.source, namespace)  # noqa: S102 - generated from our own AST
        self._fn = namespace["_fn"]

    def __call__(self, a):
        out = np.empty(a.shape[:-1] + (len(self.exprs),),
                       np.promote_types(a.dtype, np.float64))
        self._fn(a, out, np)
        return out


_UFUNCS = {"+": "add", "-": "subtract", "*": "multiply", "neg": "negative"}


def _operands(node):
    """The node numbers a node reads."""
    op = node[0]
    if op in ("+", "-", "*"):
        return node[1:3]
    if op in ("neg", "pow"):
        return node[1:2]
    return node[2:3] if op == "func" else ()


def _generate(nodes, roots):
    """Source of ``_fn(_a, _out, _np)`` computing ``roots`` into ``_out``,
    and the template row of its constant outputs (None if it has none).

    An operation used once is written inline where it is used; one used
    more often is assigned to a local first. An output whose last
    operation is +, -, * or a negation has that ufunc write it in place;
    any other is stored. Those four are exact, so where their result lands
    changes no bit.
    """
    uses = [0] * len(nodes)
    for k in roots:
        uses[k] += 1
    for k in range(len(nodes) - 1, -1, -1):
        if uses[k]:
            for o in _operands(nodes[k]):
                uses[o] += 1

    def write(k, parts):
        """An operand: a name, a literal or a parenthesized operation."""
        op = nodes[k][0]
        if op == "const":
            parts.append(_literal(nodes[k][1]))
        elif op == "var":
            parts.append(f"_v{nodes[k][1]}")
        elif uses[k] > 1:
            parts.append(f"_t{k}")
        elif op == "func":
            expand(k, parts)
        else:
            parts.append("(")
            expand(k, parts)
            parts.append(")")

    def expand(k, parts, out=None):
        """The operation of node k on its operands, into output out."""
        node = nodes[k]
        op = node[0]
        if out is not None:
            parts.append(f"_np.{_UFUNCS[op]}(")
            for o in _operands(node):
                write(o, parts)
                parts.append(", ")
            parts.append(f"out=_out[..., {out}])")
        elif op == "func":
            parts.append(f"_np.{node[1]}(")
            write(node[2], parts)
            parts.append(")")
        elif op == "neg":
            parts.append("-")
            write(node[1], parts)
        elif op == "pow":
            write(node[1], parts)
            parts.append(f" ** {node[2]!r}")
        else:
            write(node[1], parts)
            parts.append(f" {op} ")
            write(node[2], parts)

    constant = [nodes[k][0] == "const" for k in roots]
    # The output each in-place operation writes: its first.
    direct = {}
    for j, k in enumerate(roots):
        if nodes[k][0] in _UFUNCS:
            direct.setdefault(k, j)
    lines = [f"    _v{node[1]} = _a[..., {node[1]}]"
             for k, node in enumerate(nodes) if node[0] == "var" and uses[k]]
    template = None
    if any(constant):
        template = np.array([nodes[k][1] if c else 0.0
                             for k, c in zip(roots, constant)])
        lines.append("    _out[...] = _k")
    for k, node in enumerate(nodes):
        if uses[k] > 1 and node[0] not in ("const", "var"):
            parts = [f"    _t{k} = "]
            expand(k, parts, direct.get(k))
            lines.append("".join(parts))
    for j, k in enumerate(roots):
        if constant[j] or direct.get(k) == j and uses[k] > 1:
            continue   # in the template, or written where its local is set
        parts = ["    "]
        if direct.get(k) == j:
            expand(k, parts, j)
        else:
            parts.append(f"_out[..., {j}] = ")
            write(k, parts)
        lines.append("".join(parts))
    return "\n".join(["def _fn(_a, _out, _np):"] + (lines or ["    pass"])), \
        template


def compile_vector(exprs, nvars):
    return CompiledVector(exprs, nvars)


# ---------------------------------------------------------------------------
# compilation to Python scalars

def _scalar_power(x, exponent):
    """x^exponent as numpy takes it on an array of x, as a Python number:
    inf or NaN where float64 gives them, never an exception."""
    with np.errstate(all="ignore"):
        return (np.asarray(x) ** exponent).item()


def _scalar_function(ufunc):
    def apply(x):
        with np.errstate(all="ignore"):
            return ufunc(x).item()
    return apply


_SCALAR_NAMES = {"inf": math.inf, "nan": math.nan, "_pow": _scalar_power,
                 **{f"_{name}": _scalar_function(getattr(np, name))
                    for name in _FUNCTIONS + ("abs",)}}


def _scalar_operands(node):
    """The node numbers a node's scalar code reads, once per reading: a
    square and a reciprocal read their base more than once."""
    if node[0] == "pow" and node[2] in (2, -1):
        return node[1:2] * 2
    return _operands(node)


def scalar_code(exprs, names):
    """Straight-line Python computing exprs on scalars, from the lowering
    of ``CompiledVector``.

    Variable i is the local ``names[i]``; an expression may read output j
    as ``Var(len(names) + j)``. Returns (lines, outputs): statements that
    assign each operation used more than once to a local ``_t<k>``, then
    an expression of each output. On real inputs, held as Python floats,
    each output equals ``Expr.eval`` bit for bit, the sign of a NaN aside:
    +, -, * and negation are the IEEE operations numpy takes, a square is
    a product and a reciprocal a division, as numpy takes them on arrays,
    and any other power, a reciprocal of zero and every function is
    numpy's own, on the scalar (``scalar_function`` binds them), so
    nothing raises where float64 gives inf or NaN. Complex inputs agree
    with ``Expr.eval`` to roundoff.
    """
    low = _Lowering(len(names))
    for e in exprs:
        low.outputs.append(low.lower(e))
    nodes = low.nodes
    roots = [low.plain(t) for t in low.outputs]
    uses = [0] * len(nodes)
    for k in roots:
        uses[k] += 1
    for k in range(len(nodes) - 1, -1, -1):
        if uses[k]:
            for o in _scalar_operands(nodes[k]):
                uses[o] += 1

    def term(k):
        """An operand: a name, a literal or a parenthesized operation."""
        op = nodes[k][0]
        if op == "const":
            return _literal(nodes[k][1])
        if op == "var":
            return names[nodes[k][1]]
        return f"_t{k}" if uses[k] > 1 else operation(k)

    def operation(k):
        node = nodes[k]
        op = node[0]
        if op == "neg":
            return f"(-{term(node[1])})"
        if op == "func":
            return f"_{node[1]}({term(node[2])})"
        if op == "pow":
            a, e = term(node[1]), node[2]
            if e == 2:
                return f"({a} * {a})"
            if e == -1:
                return f"(1.0 / {a} if {a} else _pow({a}, -1))"
            return f"_pow({a}, {e!r})"
        return f"({term(node[1])} {op} {term(node[2])})"

    lines = [f"_t{k} = {operation(k)}" for k, node in enumerate(nodes)
             if uses[k] > 1 and node[0] not in ("const", "var")]
    return lines, [term(k) for k in roots]


def scalar_function(source, name):
    """The function ``name`` that source defines, with the powers and
    functions of ``scalar_code`` in its globals."""
    namespace = dict(_SCALAR_NAMES)
    exec(source, namespace)  # noqa: S102 - generated from our own AST
    return namespace[name]

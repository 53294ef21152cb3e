"""Expression trees with exact symbolic differentiation.

The closed-form field backend stores functions as small expression trees
over named variables.  Differentiation is closed (the derivative of a tree
is a tree), so fourth-order derivatives of quotients stay exact.
Simplification is deliberately limited to constant folding and zero/one
elimination; no general rewriting is attempted.

The product and quotient rules reuse their operands, so a derivative is a
DAG that shares nodes with the tree it came from.  Each node therefore
memoises its own derivatives and its variable set: ``derivative(var)``
builds the node's derivative with the class's ``diff`` rule at most once
per variable and keeps it, and ``variables()`` likewise.  Every rule
differentiates its children through ``derivative``, so a fourth
derivative costs one ``diff`` per distinct node and variable, not one per
path through the unfolded tree.  A node that does not read the variable
gets ``ZERO`` with no rule applied; the rules fold such a derivative to a
zero constant as well.  The memo is one slot of the base class, a dict
that each node's ``__init__`` creates with ``object.__setattr__``, so a
lookup is one ``dict.get`` and never raises; ``==``, ``hash`` and
``repr`` read only the fields a node class names in its own
``__slots__``, so the memo takes no part in them.  It is the package's one
derivative memo: ``ExprField.differentiate`` and the jets of
``geometry.field_jet`` apply ``derivative`` once per order and keep
nothing themselves.  A jet stops its walk at a constant partial, whose
partials are all ``ZERO``, and leaves a slot whose partial is the
constant +0.0 as the zeros it starts from.

The smart constructors (``add``, ``mul``, ``div``, ``neg``, ``power``)
fold constants and drop zeros and ones; they tell a constant by its class
(``node.__class__ is Const``).  ``Mul.diff`` with a constant factor c
builds the one term the product rule leaves: the other term is
``mul(ZERO, ...)``, which folds to ``ZERO``, so the derivative is
``add(ZERO, mul(c, b'))`` (or ``add(mul(a', c), ZERO)``), the very node the
full rule gives, down to the sign of a folded zero.

Evaluation walks the same DAG, so without help a shared node is
evaluated once per path to it.  ``evaluate(env, memo=None)`` therefore
takes an optional evaluation memo, a dict that :func:`node_value` fills
with each node's value.  A memo belongs to one point set: it is valid
only for calls whose ``env`` holds the same values under every
coordinate name a node reads, so point sets on two charts whose shared
coordinates agree (a dKP sample's (x, y, t, z) points and their first
three columns) share one.  The field layer passes one when it evaluates
at sample points, where each value is one float per point; a sample set
of the CLI owns one and shares it across every check it runs, so each
node is evaluated once per sample set.

On grids every intermediate is an array, which a memo would keep alive,
so ``fields.Plan`` runs the tree there.  The walk and a plan both call
each node's one ``apply(*values, out=None)`` (its operation and domain
checks) on the children's values in the walk's order, so they agree to
the bit and in their errors.

Grammar accepted by :func:`parse`::

    expr   := term (("+" | "-") term)*
    term   := unary (("*" | "/") unary)*
    unary  := ("+" | "-") unary | power
    power  := atom ("^" unary)?          # right associative
    atom   := NUMBER | NAME | NAME "(" expr ")" | "(" expr ")"

NAME is a declared variable, a bound name (replaced by its value, an
``Expr`` or a number, as the text is parsed) or one of ``sin cos exp
log``.  Exponents must fold to a numeric constant.  Every constant the
parser folds (a number, a power or a function of a constant, an
arithmetic operation on two constants) must be a finite real: ``1e400``,
``0^-1``, ``10^400``, ``(-1)^0.5``, ``log(0)`` and ``exp(1000)`` raise
:class:`ExpressionError`, since a check evaluates only derivatives of a
constant and would never see its value.
"""

from __future__ import annotations

import math
from operator import attrgetter

import numpy as np

class ExpressionError(ValueError):
    """Malformed expression text or an unsupported construction."""

    def __init__(self, message, offset=None):
        self.offset = offset
        if offset is not None:
            message = f"{message} (offset {offset})"
        super().__init__(message)


class EvaluationError(ArithmeticError):
    """Non-finite value produced during evaluation (division by zero,
    log of a non-positive number, fractional power of a negative base)."""


_set = object.__setattr__


class Frozen:
    """An immutable value over the fields a class names in its own
    ``__slots__``: ``==``, ``hash`` and ``repr`` read those fields in
    order, as a frozen dataclass's do, and assigning or deleting an
    attribute raises.  A subclass's ``__init__`` sets its fields with
    ``object.__setattr__``.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        # ``_fields()``: the class's own slots as one tuple, read by one
        # attrgetter (which returns a lone field bare, so that is wrapped)
        get = attrgetter(*cls.__slots__)
        if len(cls.__slots__) == 1:
            cls._fields = lambda self: (get(self),)
        else:
            cls._fields = lambda self: get(self)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Expr(Frozen):
    """Base node.  Subclasses are immutable and hashable.

    Each subclass defines ``diff`` (its differentiation rule),
    ``evaluate`` and ``_variables``; callers use the memoised
    ``derivative`` and ``variables``.  A node with ``children`` (in the
    walk's order; a quotient reads its denominator first) defines
    ``apply``, and its ``evaluate`` applies it to their ``node_value``.
    """

    __slots__ = ("_memo",)
    children = ()

    def derivative(self, var: str) -> "Expr":
        """The derivative along ``var``, built by ``diff`` once per node;
        ``ZERO`` with no rule applied when the tree does not read ``var``."""
        memo = self._memo
        found = memo.get(var)
        if found is None:
            found = memo[var] = (self.diff(var) if var in self.variables()
                                 else ZERO)
        return found

    def variables(self) -> frozenset:
        """The names the tree reads, computed once per node."""
        memo = self._memo
        names = memo.get(None)
        if names is None:
            names = memo[None] = self._variables()
        return names

    def diff(self, var: str) -> "Expr":
        raise NotImplementedError

    def evaluate(self, env: dict, memo=None):
        raise NotImplementedError

    def _variables(self) -> frozenset:
        raise NotImplementedError

    # Operator sugar used when building residuals in code.
    def __add__(self, other):
        return add(self, as_expr(other))

    def __radd__(self, other):
        return add(as_expr(other), self)

    def __sub__(self, other):
        return add(self, neg(as_expr(other)))

    def __rsub__(self, other):
        return add(as_expr(other), neg(self))

    def __mul__(self, other):
        return mul(self, as_expr(other))

    def __rmul__(self, other):
        return mul(as_expr(other), self)

    def __truediv__(self, other):
        return div(self, as_expr(other))

    def __rtruediv__(self, other):
        return div(as_expr(other), self)

    def __neg__(self):
        return neg(self)


def node_value(node: Expr, env: dict, memo=None):
    """``node.evaluate(env, memo)``, read once per node from ``memo``.

    Without a memo this is a plain tree walk.  With one, each node is
    evaluated at most once and kept under ``id(node)`` together with the
    node itself, so no other node can take over its id while the memo
    lives.  Every node class reads its children through this function.
    """
    if memo is None:
        return node.evaluate(env)
    hit = memo.get(id(node))
    if hit is None:
        hit = memo[id(node)] = (node, node.evaluate(env, memo))
    return hit[1]


class Const(Expr):
    __slots__ = ("value",)

    def __init__(self, value):
        _set(self, "value", value)
        _set(self, "_memo", {})

    def diff(self, var):
        return ZERO

    def evaluate(self, env, memo=None):
        return self.value

    def _variables(self):
        return frozenset()

    def __str__(self):
        return repr(self.value)


class Var(Expr):
    __slots__ = ("name",)

    def __init__(self, name):
        _set(self, "name", name)
        _set(self, "_memo", {})

    def diff(self, var):
        return ONE if var == self.name else ZERO

    def evaluate(self, env, memo=None):
        try:
            return env[self.name]
        except KeyError:
            raise EvaluationError(f"unbound variable {self.name!r}") from None

    def _variables(self):
        return frozenset((self.name,))

    def __str__(self):
        return self.name


class Add(Expr):
    __slots__ = children = ("left", "right")

    def __init__(self, left, right):
        _set(self, "left", left)
        _set(self, "right", right)
        _set(self, "_memo", {})

    def diff(self, var):
        return add(self.left.derivative(var), self.right.derivative(var))

    def evaluate(self, env, memo=None):
        return self.apply(node_value(self.left, env, memo),
                          node_value(self.right, env, memo))

    def apply(self, a, b, out=None):
        return a + b if out is None else np.add(a, b, out=out)

    def _variables(self):
        return self.left.variables() | self.right.variables()

    def __str__(self):
        return f"({self.left} + {self.right})"


class Mul(Expr):
    __slots__ = children = ("left", "right")

    def __init__(self, left, right):
        _set(self, "left", left)
        _set(self, "right", right)
        _set(self, "_memo", {})

    def diff(self, var):
        # a constant factor's term folds to ZERO; the add with ZERO stays,
        # since it turns a folded -0.0 into +0.0 as the full rule does
        left, right = self.left, self.right
        if left.__class__ is Const:
            return add(ZERO, mul(left, right.derivative(var)))
        if right.__class__ is Const:
            return add(mul(left.derivative(var), right), ZERO)
        return add(mul(left.derivative(var), right),
                   mul(left, right.derivative(var)))

    def evaluate(self, env, memo=None):
        return self.apply(node_value(self.left, env, memo),
                          node_value(self.right, env, memo))

    def apply(self, a, b, out=None):
        return a * b if out is None else np.multiply(a, b, out=out)

    def _variables(self):
        return self.left.variables() | self.right.variables()

    def __str__(self):
        return f"({self.left} * {self.right})"


class Div(Expr):
    __slots__ = ("num", "den")
    children = ("den", "num")

    def __init__(self, num, den):
        _set(self, "num", num)
        _set(self, "den", den)
        _set(self, "_memo", {})

    def diff(self, var):
        return div(add(mul(self.num.derivative(var), self.den),
                       neg(mul(self.num, self.den.derivative(var)))),
                   mul(self.den, self.den))

    def evaluate(self, env, memo=None):
        return self.apply(node_value(self.den, env, memo),
                          node_value(self.num, env, memo))

    def apply(self, den, num, out=None):
        if np.any(den == 0.0):
            raise EvaluationError("division by zero")
        return num / den if out is None else np.divide(num, den, out=out)

    def _variables(self):
        return self.num.variables() | self.den.variables()

    def __str__(self):
        return f"({self.num} / {self.den})"


class Pow(Expr):
    __slots__ = ("base", "exponent")
    children = ("base",)

    def __init__(self, base, exponent):
        _set(self, "base", base)
        _set(self, "exponent", exponent)  # numeric; integer or real
        _set(self, "_memo", {})

    def diff(self, var):
        n = self.exponent
        if n == 0:
            return ZERO
        return mul(mul(Const(float(n)), power(self.base, n - 1)),
                   self.base.derivative(var))

    def evaluate(self, env, memo=None):
        return self.apply(node_value(self.base, env, memo))

    def apply(self, base, out=None):
        n = self.exponent
        if n == int(n):
            n = int(n)
            if n < 0 and np.any(base == 0.0):
                raise EvaluationError("zero raised to a negative power")
        elif np.any(base < 0.0):
            raise EvaluationError("fractional power of a negative base")
        return base ** n if out is None else np.power(base, n, out=out)

    def _variables(self):
        return self.base.variables()

    def __str__(self):
        return f"({self.base} ^ {self.exponent!r})"


class Neg(Expr):
    __slots__ = children = ("arg",)

    def __init__(self, arg):
        _set(self, "arg", arg)
        _set(self, "_memo", {})

    def diff(self, var):
        return neg(self.arg.derivative(var))

    def evaluate(self, env, memo=None):
        return self.apply(node_value(self.arg, env, memo))

    def apply(self, a, out=None):
        return -a if out is None else np.negative(a, out=out)

    def _variables(self):
        return self.arg.variables()

    def __str__(self):
        return f"(-{self.arg})"


_DERIVATIVES = {
    "sin": lambda u: Call("cos", u),
    "cos": lambda u: neg(Call("sin", u)),
    "exp": lambda u: Call("exp", u),
    "log": lambda u: div(ONE, u),
}

_NUMPY_FN = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "log": np.log}

#: the function names the grammar accepts
FUNCTIONS = tuple(_NUMPY_FN)


class Call(Expr):
    __slots__ = ("fn", "arg")
    children = ("arg",)

    def __init__(self, fn, arg):
        _set(self, "fn", fn)
        _set(self, "arg", arg)
        _set(self, "_memo", {})

    def diff(self, var):
        return mul(_DERIVATIVES[self.fn](self.arg), self.arg.derivative(var))

    def evaluate(self, env, memo=None):
        return self.apply(node_value(self.arg, env, memo))

    def apply(self, x, out=None):
        if self.fn == "log" and np.any(x <= 0.0):
            raise EvaluationError("log of a non-positive number")
        value = _NUMPY_FN[self.fn](x, out=out)
        if not np.all(np.isfinite(value)):
            raise EvaluationError(f"non-finite result from {self.fn}")
        return value

    def _variables(self):
        return self.arg.variables()

    def __str__(self):
        return f"{self.fn}({self.arg})"


ZERO = Const(0.0)
ONE = Const(1.0)


def as_expr(value) -> Expr:
    if isinstance(value, Expr):
        return value
    return Const(float(value))


# Smart constructors: constant folding plus zero/one elimination only.

def add(a: Expr, b: Expr) -> Expr:
    if a.__class__ is Const:
        if b.__class__ is Const:
            return Const(a.value + b.value)
        if a.value == 0.0:
            return b
    elif b.__class__ is Const and b.value == 0.0:
        return a
    return Add(a, b)


def mul(a: Expr, b: Expr) -> Expr:
    if a.__class__ is Const:
        if b.__class__ is Const:
            return Const(a.value * b.value)
        if a.value == 0.0:
            return ZERO
        if a.value == 1.0:
            return b
    elif b.__class__ is Const:
        if b.value == 0.0:
            return ZERO
        if b.value == 1.0:
            return a
    return Mul(a, b)


def div(a: Expr, b: Expr) -> Expr:
    zero = a.__class__ is Const and a.value == 0.0
    if b.__class__ is Const:
        if b.value == 0.0:
            raise ExpressionError("division by constant zero")
        if zero:
            return ZERO
        if b.value == 1.0:
            return a
        if a.__class__ is Const:
            return Const(a.value / b.value)
    elif zero:
        return ZERO
    return Div(a, b)


def neg(a: Expr) -> Expr:
    if a.__class__ is Const:
        return Const(-a.value)
    if a.__class__ is Neg:
        return a.arg
    return Neg(a)


def power(base: Expr, exponent) -> Expr:
    if isinstance(exponent, Expr):
        if not isinstance(exponent, Const):
            raise ExpressionError("exponent must fold to a constant")
        exponent = exponent.value
    exponent = float(exponent)
    if exponent == 0.0:
        return ONE
    if exponent == 1.0:
        return base
    if base.__class__ is Const:
        try:
            value = base.value ** exponent
        except ArithmeticError:  # 0^-1 divides by zero, 10^400 overflows
            value = math.nan
        return _real_constant(value, f"({base.value!r})^{exponent!r}")
    return Pow(base, exponent)


def _real_constant(value, text, offset=None) -> Const:
    """The folded constant ``text`` of value ``value``, refused with an
    ``ExpressionError`` unless it is a finite real."""
    if not isinstance(value, float) or not math.isfinite(value):
        raise ExpressionError(f"constant {text} is not a finite real", offset)
    return Const(value)


# --- parser -----------------------------------------------------------------

_TOKEN_CHARS = set("+-*/^()")


def _tokenize(text):
    tokens = []  # (kind, value, offset)
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in _TOKEN_CHARS:
            tokens.append(("op", c, i))
            i += 1
            continue
        if c.isdigit() or c == ".":
            j = i
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                while k < n and text[k].isdigit():
                    k += 1
                j = k
            try:
                value = float(text[i:j])
            except ValueError:
                raise ExpressionError(f"bad number {text[i:j]!r}", i) from None
            tokens.append(("num", _real_constant(value, text[i:j], i), i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        raise ExpressionError(f"unexpected character {c!r}", i)
    tokens.append(("end", None, n))
    return tokens


class _Parser:
    def __init__(self, text, names, bindings):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.names = frozenset(names)
        self.bindings = bindings

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op):
        kind, value, offset = self.peek()
        if kind != "op" or value != op:
            raise ExpressionError(f"expected {op!r}", offset)
        return self.advance()

    def parse(self):
        e = self.expr()
        kind, _, offset = self.peek()
        if kind != "end":
            raise ExpressionError("trailing input", offset)
        return e

    def expr(self):
        e = self.term()
        while True:
            kind, value, offset = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                rhs = self.term()
                e = add(e, rhs) if value == "+" else add(e, neg(rhs))
                if e.__class__ is Const:
                    _real_constant(e.value, repr(e.value), offset)
            else:
                return e

    def term(self):
        e = self.unary()
        while True:
            kind, value, offset = self.peek()
            if kind == "op" and value in "*/":
                self.advance()
                rhs = self.unary()
                e = mul(e, rhs) if value == "*" else div(e, rhs)
                if e.__class__ is Const:
                    _real_constant(e.value, repr(e.value), offset)
            else:
                return e

    def unary(self):
        kind, value, _ = self.peek()
        if kind == "op" and value in "+-":
            self.advance()
            e = self.unary()
            return e if value == "+" else neg(e)
        return self.power()

    def power(self):
        base = self.atom()
        kind, value, offset = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            exponent = self.unary()
            if not isinstance(exponent, Const):
                raise ExpressionError("exponent must fold to a constant", offset)
            return power(base, exponent.value)
        return base

    def atom(self):
        kind, value, offset = self.advance()
        if kind == "num":
            return value
        if kind == "name":
            nk, nv, _ = self.peek()
            if nk == "op" and nv == "(":
                if value not in FUNCTIONS:
                    raise ExpressionError(f"unknown function {value!r}", offset)
                self.advance()
                arg = self.expr()
                self.expect_op(")")
                if arg.__class__ is Const:
                    with np.errstate(all="ignore"):
                        folded = _NUMPY_FN[value](arg.value)
                    return _real_constant(float(folded),
                                          f"{value}({arg.value!r})", offset)
                return Call(value, arg)
            if value in self.bindings:
                return as_expr(self.bindings[value])
            if value not in self.names:
                raise ExpressionError(f"unknown identifier {value!r}", offset)
            return Var(value)
        if kind == "op" and value == "(":
            e = self.expr()
            self.expect_op(")")
            return e
        raise ExpressionError("expected expression", offset)


def parse(text: str, names, bindings=None) -> Expr:
    """Parse ``text`` over the declared variable ``names``.

    An identifier in ``bindings`` stands for its value there, an ``Expr``
    or a number (made a ``Const``), and the smart constructors build the
    tree around it.  Raises :class:`ExpressionError` with the character
    offset on syntax errors and on identifiers neither declared nor bound.
    """
    return _Parser(text, names, bindings or {}).parse()


# --- polynomial helpers (antiderivatives for the closed-form families) ------

def to_monomials(expr: Expr, variables) -> dict:
    """Expand a polynomial tree into {exponent tuple: coefficient}.

    Raises :class:`ExpressionError` for non-polynomial input (quotients
    with variable denominators, function calls, non-integer powers).
    """
    variables = tuple(variables)
    index = {name: k for k, name in enumerate(variables)}
    zero_key = (0,) * len(variables)

    def combine(a, b, scale=1.0):
        out = dict(a)
        for key, coeff in b.items():
            out[key] = out.get(key, 0.0) + scale * coeff
        return out

    def walk(node):
        if isinstance(node, Const):
            return {zero_key: node.value}
        if isinstance(node, Var):
            if node.name not in index:
                raise ExpressionError(f"variable {node.name!r} not declared")
            key = list(zero_key)
            key[index[node.name]] = 1
            return {tuple(key): 1.0}
        if isinstance(node, Add):
            return combine(walk(node.left), walk(node.right))
        if isinstance(node, Neg):
            return combine({}, walk(node.arg), scale=-1.0)
        if isinstance(node, Mul):
            left, right = walk(node.left), walk(node.right)
            out = {}
            for ka, ca in left.items():
                for kb, cb in right.items():
                    key = tuple(x + y for x, y in zip(ka, kb))
                    out[key] = out.get(key, 0.0) + ca * cb
            return out
        if isinstance(node, Pow):
            if node.exponent != int(node.exponent) or node.exponent < 0:
                raise ExpressionError("non-polynomial power")
            out = {zero_key: 1.0}
            base = walk(node.base)
            for _ in range(int(node.exponent)):
                nxt = {}
                for ka, ca in out.items():
                    for kb, cb in base.items():
                        key = tuple(x + y for x, y in zip(ka, kb))
                        nxt[key] = nxt.get(key, 0.0) + ca * cb
                out = nxt
            return out
        if isinstance(node, Div):
            den = node.den
            if not isinstance(den, Const):
                raise ExpressionError("non-polynomial quotient")
            return combine({}, walk(node.num), scale=1.0 / den.value)
        raise ExpressionError(f"non-polynomial node {type(node).__name__}")

    return walk(expr)


def from_monomials(monomials: dict, variables) -> Expr:
    variables = tuple(variables)
    result = ZERO
    for key in sorted(monomials):
        coeff = monomials[key]
        if coeff == 0.0:
            continue
        term = Const(coeff)
        for name, exponent in zip(variables, key):
            if exponent:
                term = mul(term, power(Var(name), exponent))
        result = add(result, term)
    return result


def integrate_polynomial(expr: Expr, var: str) -> Expr:
    """Antiderivative in ``var`` of a polynomial tree, constant of
    integration zero.  Polynomial input is a precondition."""
    variables = sorted(expr.variables() | {var})
    monomials = to_monomials(expr, variables)
    k = variables.index(var)
    out = {}
    for key, coeff in monomials.items():
        lifted = list(key)
        lifted[k] += 1
        out[tuple(lifted)] = coeff / lifted[k]
    return from_monomials(out, variables)

"""Serialisable time-varying coefficient expressions.

Model coefficients (decay rates, connection weights, inputs, delays) are
time-varying functions.  This module gives them a tiny closed expression
language so that they can be

* evaluated fast, each node by its numpy ufunc, and many at once with one
  numpy operation per node of each tree shape (:class:`ExprStack`),
* written to / read from configuration files losslessly, and
* bounded: interval enclosures over all t in R (Moore, *Interval Analysis*,
  1966), exact when t occurs once, with user overrides taking precedence.
  Each node's rule is numpy arithmetic on its ends, so the same rule
  encloses one tree (0-d ends) or a whole :class:`ExprStack` group at once
  (ends that are columns over the group).

Grammar (prefix notation, whitespace separated, parentheses group).  The
table ``_GRAMMAR`` gives each keyword its node class and its counts of
leading numbers and sub-expressions; :func:`to_text` and :func:`parse_expr`
both read it, so it is the one place a node kind is spelled:

    expr := 't'                          the time variable
          | 'const' NUM                  a constant
          | 'sin' arg | 'cos' arg        trigonometric functions
          | 'abs' arg | 'exp' arg        absolute value / exponential
          | 'neg' arg                    negation
          | 'scale' NUM arg              NUM * arg
          | 'affine' NUM NUM arg         NUM1 * arg + NUM2
          | 'add' '(' expr ',' expr ')'  sum
          | 'mul' '(' expr ',' expr ')'  product
    arg  := atom | '(' expr ')'

Example::

    add(const 0.895, scale 0.005 (sin (affine 2.6458 0 t)))

which encodes ``0.895 + 0.005 * sin(2.6458 * t)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import Sequence, Union

import numpy as np

__all__ = [
    "CoeffExpr",
    "Const",
    "TimeVar",
    "Sin",
    "Cos",
    "Abs",
    "Exp",
    "Neg",
    "Scale",
    "Affine",
    "Add",
    "Mul",
    "ExprStack",
    "ExprParseError",
    "parse_expr",
    "to_text",
    "BoundPair",
    "bound_sup_inf",
]

Number = Union[float, np.ndarray]
Interval = tuple[Number, Number]


class ExprParseError(ValueError):
    """Raised when expression text does not conform to the grammar."""


# ---------------------------------------------------------------------------
# nodes
# ---------------------------------------------------------------------------


class CoeffExpr:
    """Base class: a real-valued function of time.

    Instances are callable; ``expr(t)`` accepts floats or numpy arrays and
    returns the same shape, computed by numpy either way, so a scalar call
    equals the matching entry of an array call bit for bit.  ``enclose()``
    returns ``(lo, hi)`` with ``lo <= expr(t) <= hi`` for every real ``t``;
    for a stacked group tree each end holds one such bound per row.
    """

    def __call__(self, t: Number) -> Number:
        raise NotImplementedError

    def enclose(self) -> Interval:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}<{to_text(self)}>"


@dataclass(frozen=True)
class Const(CoeffExpr):
    value: float

    def __call__(self, t: Number) -> Number:
        # a stacked value broadcasts against t; ``[()]`` unwraps a 0-d result
        return np.full(np.broadcast_shapes(np.shape(t), np.shape(self.value)), self.value)[()]

    def enclose(self) -> Interval:
        return self.value, self.value


@dataclass(frozen=True)
class TimeVar(CoeffExpr):
    def __call__(self, t: Number) -> Number:
        return t

    def enclose(self) -> Interval:
        return -math.inf, math.inf


# Interval ends overflow to inf, and 0 * inf is formed before it is masked;
# numpy would warn where Python floats (and a caught OverflowError) do not.
_quiet = np.errstate(over="ignore", invalid="ignore")


@_quiet
def _mul(x: Interval, y: Interval) -> Interval:
    # a zero factor zeroes any value, so 0 * inf counts as 0
    products = [np.where((a == 0.0) | (b == 0.0), 0.0, a * b) for a in x for b in y]
    return reduce(np.minimum, products), reduce(np.maximum, products)


@_quiet
def _add(x: Interval, y: Interval) -> Interval:
    return x[0] + y[0], x[1] + y[1]


def _exp(v: float) -> float:
    try:
        return math.exp(v)
    except OverflowError:
        return math.inf


# numpy's exp and libm's are each within one ulp of the true value, so they
# may differ by two, and by three where an ulp doubles between them
EXP_ULPS = 4


@_quiet
def _exp_enclosure(lo: Number, hi: Number) -> Interval:
    """``exp`` of the ends (libm's, one end at a time), each moved
    ``EXP_ULPS`` ulps outward (not below 0)."""
    a, b = (np.vectorize(_exp, otypes=[float])(end) for end in (lo, hi))
    for _ in range(EXP_ULPS):
        a, b = np.nextafter(a, 0.0), np.nextafter(b, math.inf)
    return a, b


def _periodic(fn, peak: float):
    """Enclosure rule of ``fn``, a sine shifted to peak at ``peak`` mod 2 pi."""

    @_quiet
    def enclose(lo: Number, hi: Number) -> Interval:
        full = ~np.less(hi - lo, 2 * math.pi)  # a full period, or an unbounded argument
        lo, hi = np.where(full, 0.0, lo), np.where(full, 0.0, hi)
        # the first peak and the first trough at or after lo
        top = peak + 2 * math.pi * np.ceil((lo - peak) / (2 * math.pi))
        bottom = np.where(top - math.pi >= lo, top - math.pi, top + math.pi)
        ends = (fn(lo), fn(hi))
        return (np.where(full | (bottom <= hi), -1.0, np.minimum(*ends))[()],
                np.where(full | (top <= hi), 1.0, np.maximum(*ends))[()])

    return enclose


def _unary(name: str, fn, enclose_fn):
    @dataclass(frozen=True)
    class Node(CoeffExpr):
        arg: CoeffExpr

        def __call__(self, t: Number) -> Number:
            return fn(self.arg(t))

        def enclose(self) -> Interval:
            return enclose_fn(*self.arg.enclose())

    Node.__name__ = Node.__qualname__ = name
    return Node


Sin = _unary("Sin", np.sin, _periodic(np.sin, math.pi / 2))
Cos = _unary("Cos", np.cos, _periodic(np.cos, 0.0))
Abs = _unary("Abs", np.abs, lambda lo, hi: (np.maximum(np.maximum(lo, -hi), 0.0),
                                            np.maximum(-lo, hi)))
Exp = _unary("Exp", np.exp, _exp_enclosure)
Neg = _unary("Neg", np.negative, lambda lo, hi: (-hi, -lo))


@dataclass(frozen=True)
class Scale(CoeffExpr):
    factor: float
    arg: CoeffExpr

    def __call__(self, t: Number) -> Number:
        return self.factor * self.arg(t)

    def enclose(self) -> Interval:
        return _mul((self.factor, self.factor), self.arg.enclose())


@dataclass(frozen=True)
class Affine(CoeffExpr):
    """``slope * arg(t) + offset`` -- the workhorse for frequency/phase."""

    slope: float
    offset: float
    arg: CoeffExpr

    def __call__(self, t: Number) -> Number:
        return self.slope * self.arg(t) + self.offset

    def enclose(self) -> Interval:
        return _add(_mul((self.slope, self.slope), self.arg.enclose()), (self.offset, self.offset))


@dataclass(frozen=True)
class Add(CoeffExpr):
    left: CoeffExpr
    right: CoeffExpr

    def __call__(self, t: Number) -> Number:
        return self.left(t) + self.right(t)

    def enclose(self) -> Interval:
        return _add(self.left.enclose(), self.right.enclose())


@dataclass(frozen=True)
class Mul(CoeffExpr):
    left: CoeffExpr
    right: CoeffExpr

    def __call__(self, t: Number) -> Number:
        return self.left(t) * self.right(t)

    def enclose(self) -> Interval:
        return _mul(self.left.enclose(), self.right.enclose())


# ---------------------------------------------------------------------------
# stacked evaluation
# ---------------------------------------------------------------------------

def _shape_key(e: CoeffExpr) -> tuple:
    """The node classes of ``e`` in preorder, numbers ignored.

    Each class has a fixed number of sub-expressions, so the key determines
    the tree shape.  Only the sub-expression fields are walked
    (``_SUBEXPRS``); fields are read by name, since ``vars(e)`` would make
    every node keep a ``__dict__``.
    """
    key, todo = [], [e]
    while todo:
        node = todo.pop()
        cls = type(node)
        key.append(cls)
        for name in _SUBEXPRS_LAST_FIRST[cls]:
            todo.append(getattr(node, name))
    return tuple(key)


def _stack(group: Sequence[CoeffExpr]) -> CoeffExpr:
    """One tree of the group's common shape whose numbers are ``(len(group),
    1)`` columns over it."""
    cls = type(group[0])
    names, subs = cls.__match_args__, _SUBEXPRS[cls]
    return cls(*[np.array([getattr(e, name) for e in group], dtype=float)[:, None]
                 for name in names[:len(names) - len(subs)]],
               *[_stack([getattr(e, name) for e in group]) for name in subs])


class ExprStack:
    """Many expressions evaluated and enclosed together, one numpy op per
    node per shape.

    Expressions of the same tree shape form a group, kept as one tree of the
    same node classes whose numbers are ``(group, 1)`` columns over the
    group.  The nodes' own ``__call__`` evaluates it on a row of times, so
    each op computes a ``(group, times)`` array with the elementwise
    arithmetic of the single trees, and every row equals ``expr(times)`` bit
    for bit.  Times run along the rows because numpy loops innermost over the
    last axis: a group of two over a block of 1,500 times runs two long loops
    this way, against 1,500 short ones the other way.  Each group spans the
    whole block it is given, so a caller bounds its temporaries by the block
    length it asks for.  The nodes' own ``enclose()`` likewise encloses a
    group tree at once: its ends are columns over the group (or one number
    for all of it) whose rows equal each ``expr.enclose()``.
    """

    def __init__(self, exprs: Sequence[CoeffExpr]):
        groups: dict[tuple, list[int]] = {}
        for col, e in enumerate(exprs):
            groups.setdefault(_shape_key(e), []).append(col)
        self.width = len(exprs)
        self.groups = [(np.array(cols), _stack([exprs[c] for c in cols]))
                       for cols in groups.values()]

    def __call__(self, times: np.ndarray) -> np.ndarray:
        """The ``(len(times), width)`` table of ``exprs[k](times[b])``."""
        t = np.asarray(times, dtype=float)
        out = np.empty((len(t), self.width))
        for cols, tree in self.groups:
            out[:, cols] = tree(t[None, :]).T
        return out


# ---------------------------------------------------------------------------
# serialisation
# ---------------------------------------------------------------------------


# keyword: (node class, count of leading numbers, count of sub-expressions)
_GRAMMAR = {
    "t": (TimeVar, 0, 0), "const": (Const, 1, 0),
    "sin": (Sin, 0, 1), "cos": (Cos, 0, 1), "abs": (Abs, 0, 1), "exp": (Exp, 0, 1),
    "neg": (Neg, 0, 1), "scale": (Scale, 1, 1), "affine": (Affine, 2, 1),
    "add": (Add, 0, 2), "mul": (Mul, 0, 2),
}
_KEYWORDS = {cls: word for word, (cls, _, _) in _GRAMMAR.items()}
# node class: names of its sub-expression fields, which follow its numbers
_SUBEXPRS = {cls: cls.__match_args__[nums:] for cls, nums, _ in _GRAMMAR.values()}
_SUBEXPRS_LAST_FIRST = {cls: names[::-1] for cls, names in _SUBEXPRS.items()}


def _num(x: float) -> str:
    return format(float(x), ".17g")


def _arg_text(e: CoeffExpr) -> str:
    """Render a sub-expression as an argument: atoms (no sub-expressions)
    bare, others in parens."""
    text = to_text(e)
    return text if _GRAMMAR[_KEYWORDS[type(e)]][2] == 0 else f"({text})"


def to_text(e: CoeffExpr) -> str:
    """Serialise an expression to the grammar in the module docstring."""
    word = _KEYWORDS.get(type(e))
    if word is None:
        raise ExprParseError(f"cannot serialise {type(e).__name__}")
    _, nums, subs = _GRAMMAR[word]
    fields = [getattr(e, name) for name in e.__match_args__]
    if subs == 2:
        return f"{word}({to_text(fields[0])}, {to_text(fields[1])})"
    return " ".join([word, *map(_num, fields[:nums]), *map(_arg_text, fields[nums:])])


def _tokens(text: str) -> list[str]:
    """Each ``(``, ``)`` and ``,``, and each run of other non-space characters."""
    return text.replace("(", " ( ").replace(")", " ) ").replace(",", " , ").split()


def _parse(tokens: list[str], pos: int, text: str) -> tuple[CoeffExpr, int]:
    """The expression at ``tokens[pos]`` and the position after it; running
    off the tokens raises ``IndexError``, which :func:`parse_expr` reports."""
    tok = tokens[pos]
    pos += 1
    if tok == "(":
        inner, pos = _parse(tokens, pos, text)
        if tokens[pos] != ")":
            raise ExprParseError(f"expected ')' but found {tokens[pos]!r} in {text!r}")
        return inner, pos + 1
    if tok not in _GRAMMAR:
        try:  # a bare numeric literal is shorthand for a constant
            return Const(float(tok)), pos
        except ValueError:
            raise ExprParseError(f"unknown token {tok!r} in {text!r}") from None
    cls, nums, subs = _GRAMMAR[tok]
    fields = []
    for k in range(pos, pos + nums):
        try:
            fields.append(float(tokens[k]))
        except ValueError:
            raise ExprParseError(f"expected a number, found {tokens[k]!r} in {text!r}") from None
    pos += nums
    if subs == 1:
        arg, pos = _parse(tokens, pos, text)
        fields.append(arg)
    elif subs == 2:  # "(" left "," right ")"
        for sep in "(,)":
            if tokens[pos] != sep:
                raise ExprParseError(f"expected {sep!r} but found {tokens[pos]!r} in {text!r}")
            if sep != ")":
                arg, pos = _parse(tokens, pos + 1, text)
                fields.append(arg)
        pos += 1
    return cls(*fields), pos


def parse_expr(text: str) -> CoeffExpr:
    """Parse expression text; inverse of :func:`to_text`."""
    tokens = _tokens(text)
    try:
        expr, pos = _parse(tokens, 0, text)
    except IndexError:
        raise ExprParseError(f"unexpected end of expression in {text!r}") from None
    if pos < len(tokens):
        raise ExprParseError(f"trailing tokens {tokens[pos:]} in {text!r}")
    return expr


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundPair:
    """Envelope of a coefficient: sup and inf of |f| over the time scale
    (columns over a group for :func:`bound_sup_inf` of a stacked tree).

    ``source`` records how the numbers were obtained: ``"enclosure"`` for
    :func:`bound_sup_inf`, ``"override"`` for user-supplied values.
    """

    sup_abs: float
    inf_abs: float
    source: str = "override"


def bound_sup_inf(expr: CoeffExpr) -> BoundPair:
    """sup/inf of ``|expr|`` over all t in R, from :meth:`CoeffExpr.enclose`.

    A sound envelope, exact when ``expr`` uses t once; the sup is ``inf``
    for an unbounded coefficient.  Given a group tree of an
    :class:`ExprStack`, it bounds the whole group at once: each number is
    then a ``(group, 1)`` column, or one number for all of it.
    """
    inf_abs, sup_abs = Abs(expr).enclose()
    return BoundPair(sup_abs, inf_abs, source="enclosure")

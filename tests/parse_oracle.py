"""The expression parser as a regex tokenizer and a descent over an iterator.

This is the parser ``coeffs.parse_expr`` replaced with one split and an
indexed descent.  ``coeffs.parse_expr`` must return the same tree, or raise
the same ``ExprParseError`` message, for every text: the grammar table, the
constant node and the error type are read from ``chronoscale.coeffs``, and
everything else below is the replaced code, unchanged.
"""

from __future__ import annotations

import re
from typing import Iterator

from chronoscale.coeffs import _GRAMMAR, Const, ExprParseError

_TOKEN = re.compile(r"[(),]|[^\s(),]+")


def _take(tokens: Iterator[str], text: str) -> str:
    tok = next(tokens, None)
    if tok is None:
        raise ExprParseError(f"unexpected end of expression in {text!r}")
    return tok


def _expect(tokens: Iterator[str], what: str, text: str) -> None:
    tok = _take(tokens, text)
    if tok != what:
        raise ExprParseError(f"expected {what!r} but found {tok!r} in {text!r}")


def _number(tokens: Iterator[str], text: str) -> float:
    tok = _take(tokens, text)
    try:
        return float(tok)
    except ValueError:
        raise ExprParseError(f"expected a number, found {tok!r} in {text!r}") from None


def _parse(tokens: Iterator[str], text: str) -> CoeffExpr:
    tok = _take(tokens, text)
    if tok == "(":
        inner = _parse(tokens, text)
        _expect(tokens, ")", text)
        return inner
    if tok not in _GRAMMAR:
        try:  # a bare numeric literal is shorthand for a constant
            return Const(float(tok))
        except ValueError:
            raise ExprParseError(f"unknown token {tok!r} in {text!r}") from None
    cls, nums, subs = _GRAMMAR[tok]
    fields = [_number(tokens, text) for _ in range(nums)]
    if subs == 2:
        _expect(tokens, "(", text)
        fields.append(_parse(tokens, text))
        _expect(tokens, ",", text)
        fields.append(_parse(tokens, text))
        _expect(tokens, ")", text)
    elif subs:
        fields.append(_parse(tokens, text))
    return cls(*fields)


def parse_expr(text: str) -> CoeffExpr:
    """Parse expression text; inverse of :func:`to_text`."""
    tokens = iter(_TOKEN.findall(text))
    expr = _parse(tokens, text)
    rest = list(tokens)
    if rest:
        raise ExprParseError(f"trailing tokens {rest} in {text!r}")
    return expr

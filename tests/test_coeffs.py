"""Tests for the coefficient expression language: evaluation, stacked
evaluation and enclosure, lossless text round-trips, interval enclosures and
the sup/inf bounds built on them."""

from __future__ import annotations

import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import enclosure_oracle
import parse_oracle
from chronoscale.coeffs import (
    _GRAMMAR,
    Abs,
    Add,
    Affine,
    BoundPair,
    Const,
    CoeffExpr,
    Cos,
    EXP_ULPS,
    Exp,
    ExprParseError,
    ExprStack,
    Mul,
    Neg,
    Scale,
    Sin,
    TimeVar,
    bound_sup_inf,
    _tokens,
    parse_expr,
    to_text,
)

T = TimeVar()


def _ulps(x: float, toward: float) -> float:
    """``x`` moved ``EXP_ULPS`` ulps toward ``toward``: an end of an ``Exp`` enclosure."""
    for _ in range(EXP_ULPS):
        x = math.nextafter(x, toward)
    return x


class TestEvaluation:
    def test_scalar(self):
        e = Add(Const(0.895), Scale(0.005, Sin(Affine(2.6458, 0.0, T))))
        t = 1.7
        assert e(t) == pytest.approx(0.895 + 0.005 * math.sin(2.6458 * t), abs=1e-15)

    def test_vectorised(self):
        e = Mul(Abs(Sin(T)), Exp(Neg(Scale(0.1, T))))
        ts = np.linspace(0.0, 10.0, 257)
        expected = np.abs(np.sin(ts)) * np.exp(-0.1 * ts)
        np.testing.assert_allclose(e(ts), expected, atol=1e-15)

    def test_scalar_and_vector_agree(self):
        e = Affine(2.0, -0.3, Cos(Scale(0.7, T)))
        ts = np.array([0.0, 0.4, 1.9])
        vec = e(ts)
        for i, t in enumerate(ts):
            assert vec[i] == e(float(t))

    # With numpy 2.4 on x86-64, libm's exp differs from numpy's at 88 of the
    # Exp samples: every node kind must evaluate through numpy alone
    @pytest.mark.parametrize("e", [Sin(T), Cos(T), Abs(T), Exp(Scale(0.05, T)), Neg(T),
                                   Const(0.3)], ids=lambda e: type(e).__name__)
    def test_scalar_call_equals_one_element_array_call(self, e):
        ts = np.linspace(-100.0, 100.0, 2001)
        scalar = np.array([e(float(t)) for t in ts])
        one = np.concatenate([e(np.array([t])) for t in ts])
        assert scalar.tobytes() == one.tobytes() == e(ts).tobytes()

    def test_const_vector_shape(self):
        assert Const(3.0)(np.zeros(5)).shape == (5,)


def _exprs(depth: int):
    """Grammar expressions of nesting depth <= ``depth`` over all 11 node kinds."""
    num = st.floats(-3.0, 3.0, allow_nan=False)
    leaves = st.just(T) | st.builds(Const, num)
    if depth == 0:
        return leaves
    sub = _exprs(depth - 1)
    return st.one_of(
        leaves,
        *(st.builds(node, sub) for node in (Sin, Cos, Abs, Exp, Neg)),
        st.builds(Scale, num, sub),
        st.builds(Affine, num, num, sub),
        st.builds(Add, sub, sub),
        st.builds(Mul, sub, sub),
    )


class TestSerialisation:
    def test_documented_example_parses(self):
        text = "add(const 0.895, scale 0.005 (sin (affine 2.6458 0 t)))"
        e = parse_expr(text)
        assert e(0.0) == pytest.approx(0.895)
        assert e(1.0) == pytest.approx(0.895 + 0.005 * math.sin(2.6458))

    def test_round_trip_exact(self):
        e = Add(
            Mul(Abs(Sin(Affine(math.sqrt(7), 0.25, T))), Const(0.04)),
            Scale(-0.01, Exp(Neg(Scale(0.5, T)))),
        )
        again = parse_expr(to_text(e))
        assert again == e
        for t in (0.0, 0.3, 2.71, -4.0):
            assert again(t) == e(t)

    def test_bare_number_is_const(self):
        assert parse_expr("0.45") == Const(0.45)

    def test_parse_errors(self):
        for bad, message in [
            ("", "unexpected end of expression in ''"),
            ("sin", "unexpected end of expression in 'sin'"),
            ("add(t)", "expected ',' but found ')' in 'add(t)'"),
            ("add(t, t", "unexpected end of expression in 'add(t, t'"),
            ("add t t", "expected '(' but found 't' in 'add t t'"),
            ("(t", "unexpected end of expression in '(t'"),
            ("const", "unexpected end of expression in 'const'"),
            ("affine 1", "unexpected end of expression in 'affine 1'"),
            ("scale 2", "unexpected end of expression in 'scale 2'"),
            ("add(t,", "unexpected end of expression in 'add(t,'"),
            ("frob 1 2", "unknown token 'frob' in 'frob 1 2'"),
            (")", "unknown token ')' in ')'"),
            ("const x", "expected a number, found 'x' in 'const x'"),
            ("affine 1 t t", "expected a number, found 't' in 'affine 1 t t'"),
            ("t t", "trailing tokens ['t'] in 't t'"),
            ("add(t, t)) sin", "trailing tokens [')', 'sin'] in 'add(t, t)) sin'"),
        ]:
            with pytest.raises(ExprParseError) as info:
                parse_expr(bad)
            assert str(info.value) == message

    def test_unknown_node_kind_is_named_not_recursed_into(self):
        # CoeffExpr.__repr__ calls to_text, so the error must not format the node
        class Ramp(CoeffExpr):
            def __call__(self, t):
                return t

        with pytest.raises(ExprParseError, match="^cannot serialise Ramp$"):
            to_text(Ramp())
        with pytest.raises(ExprParseError, match="^cannot serialise Ramp$"):
            to_text(Add(Const(1.0), Ramp()))

    @given(
        a=st.floats(-2.0, 2.0, allow_nan=False),
        b=st.floats(-2.0, 2.0, allow_nan=False),
        w=st.floats(0.01, 8.0, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_round_trip_property(self, a, b, w):
        e = Add(Const(a), Scale(b, Sin(Affine(w, 0.0, T))))
        again = parse_expr(to_text(e))
        assert again == e

    @given(e=_exprs(4))
    @example(e=Affine(math.inf, -0.0, Cos(Mul(Const(-math.inf), Scale(1e-300, T)))))
    @example(e=Neg(Exp(Add(Const(1e300), Abs(Const(-0.0))))))
    @settings(max_examples=200, deadline=None)
    def test_round_trip_every_node_kind(self, e):
        again = parse_expr(to_text(e))
        assert again == e
        assert to_text(again) == to_text(e)  # also tells -0.0 from 0.0
        assert parse_oracle.parse_expr(to_text(e)) == e


def _outcome(parse, text: str) -> tuple[str, str]:
    """The text of the tree ``parse`` makes of ``text``, or its error message."""
    try:
        return "tree", to_text(parse(text))
    except ExprParseError as exc:
        return "error", str(exc)


# tokens spliced into expression texts: every keyword, the punctuation, a
# number and a word that is neither
_SPLICES = [*_GRAMMAR, "(", ")", ",", "0.5", "x"]
# every character str.split() and the regex class \s treat as whitespace
_SPACES = "".join(ch for ch in map(chr, range(sys.maxunicode + 1)) if ch.isspace())


class TestParserOracle:
    """``parse_expr`` against the regex tokenizer and iterator descent it
    replaced (``parse_oracle``): same tokens, trees and messages."""

    @given(e=_exprs(4))
    @settings(max_examples=40, deadline=None)
    def test_truncations_and_token_mutations_parse_alike(self, e):
        text = to_text(e)
        tokens = parse_oracle._TOKEN.findall(text)
        texts = [text[:cut] for cut in range(len(text))]
        for k in range(len(tokens) + 1):
            texts.append(" ".join(tokens[:k] + tokens[k + 1:]))
            for tok in _SPLICES:
                texts.append(" ".join(tokens[:k] + [tok] + tokens[k + 1:]))
                texts.append(" ".join(tokens[:k] + [tok] + tokens[k:]))
        for mutated in texts:
            assert _outcome(parse_expr, mutated) == _outcome(parse_oracle.parse_expr, mutated)

    @given(st.text(st.sampled_from("(),0123456789.-+eEtxyz\u00e9\u200b" + _SPACES)))
    @settings(max_examples=300, deadline=None)
    def test_tokens_equal_the_regex_tokens(self, text):
        assert _tokens(text) == parse_oracle._TOKEN.findall(text)


class TestBounds:
    def test_constant(self):
        assert bound_sup_inf(Const(-0.7)) == BoundPair(0.7, 0.7, "enclosure")

    def test_modulated_envelope(self):
        # |0.895 + 0.005 sin(w t)| has sup 0.9, inf 0.89.
        e = Add(Const(0.895), Scale(0.005, Sin(Affine(math.sqrt(7), 0.0, T))))
        pair = bound_sup_inf(e)
        assert pair.sup_abs == pytest.approx(0.9, abs=1e-15)
        assert pair.inf_abs == pytest.approx(0.89, abs=1e-15)

    def test_abs_envelope(self):
        e = Scale(0.05, Abs(Sin(Affine(math.sqrt(3), 0.0, T))))
        assert bound_sup_inf(e) == BoundPair(0.05, 0.0, "enclosure")

    def test_unbounded(self):
        assert bound_sup_inf(Affine(0.001, 0.0, T)).sup_abs == math.inf

    def test_override_record(self):
        assert BoundPair(0.9, 0.89).source == "override"


class TestEnclosure:
    @pytest.mark.parametrize("expr, expected", [
        (T, (-math.inf, math.inf)),
        (Const(2.5), (2.5, 2.5)),
        (Exp(T), (0.0, math.inf)),
        (Mul(Const(0.0), T), (0.0, 0.0)),
        (Scale(0.0, Exp(T)), (0.0, 0.0)),
        (Abs(Affine(1.0, -2.0, Sin(T))), (1.0, 3.0)),
        (Neg(Exp(Sin(T))), (-_ulps(math.exp(1.0), math.inf), -_ulps(math.exp(-1.0), 0.0))),
        # no critical point of sin inside [-0.5, 0.5]
        (Sin(Scale(0.5, Sin(T))), (math.sin(-0.5), math.sin(0.5))),
        # the peak of cos (0) lies inside [-2, 2], its trough (pi) does not
        (Cos(Scale(2.0, Sin(T))), (math.cos(2.0), 1.0)),
        # [0, 2] holds the peak of sin, [2, 4] the trough of cos, [-2, 2] both
        (Sin(Affine(1.0, 1.0, Sin(T))), (0.0, 1.0)),
        (Cos(Affine(1.0, 3.0, Sin(T))), (-1.0, math.cos(2.0))),
        (Sin(Scale(2.0, Sin(T))), (-1.0, 1.0)),
        # an argument interval of width 8 >= 2 pi covers a full period
        (Sin(Affine(4.0, 0.0, Sin(T))), (-1.0, 1.0)),
        # t used twice: sound but not tight (the true range is +-sqrt 2)
        (Add(Sin(T), Cos(T)), (-2.0, 2.0)),
        (Mul(Sin(T), Exp(T)), (-math.inf, math.inf)),
    ])
    def test_rules(self, expr, expected):
        assert expr.enclose() == expected

    @given(e=_exprs(3))
    @settings(max_examples=300, deadline=None)
    # numpy's exp(exp(2.4609375)) is one ulp below math.exp's, which the sine
    # turns into 1.45e-11 outside an enclosure with unwidened ends
    @example(e=Sin(Exp(Exp(Const(2.4609375)))))
    def test_values_lie_in_the_enclosure(self, e):
        # Round-to-nearest can put an endpoint up to 1 ulp inside the values
        # numpy computes, so the check allows 1e-12, relative above 1.
        # NaN comes only from overflowed intermediates (inf * 0, inf - inf).
        lo, hi = e.enclose()
        with np.errstate(all="ignore"):
            v = np.asarray(e(np.linspace(-1e3, 1e3, 2000)), dtype=float)
        v = v[~np.isnan(v)]
        tol = 1e-12 * np.maximum(1.0, np.abs(np.where(np.isfinite(v), v, 0.0)))
        assert np.all(v >= lo - tol) and np.all(v <= hi + tol)


def _bounded_exprs(depth: int):
    """Like ``_exprs``, but ``Exp`` only of a sine or cosine, so that no value
    overflows on |t| <= 10."""
    num = st.floats(-3.0, 3.0, allow_nan=False)
    leaves = st.just(T) | st.builds(Const, num)
    if depth == 0:
        return leaves
    sub = _bounded_exprs(depth - 1)
    return st.one_of(
        leaves,
        *(st.builds(node, sub) for node in (Sin, Cos, Abs, Neg)),
        *(st.builds(lambda e, wave=wave: Exp(wave(e)), sub) for wave in (Sin, Cos)),
        st.builds(Scale, num, sub),
        st.builds(Affine, num, num, sub),
        st.builds(Add, sub, sub),
        st.builds(Mul, sub, sub),
    )


def _renumbered(data, e: CoeffExpr) -> CoeffExpr:
    """A tree of the shape of ``e`` with freshly drawn numbers."""
    return type(e)(*(_renumbered(data, v) if isinstance(v, CoeffExpr)
                     else data.draw(st.floats(-3.0, 3.0, allow_nan=False))
                     for v in (getattr(e, name) for name in e.__match_args__)))


# Far longer than a block the simulator compiles (a few hundred times), so
# one group evaluation spans a long row.
LONG_BLOCK = 16_387


class TestStack:
    @given(data=st.data(),
           shapes=st.lists(st.sampled_from([T, Sin(T), Const(1.0)]) | _bounded_exprs(3),
                           min_size=1, max_size=5),
           length=st.sampled_from([1, 2, 34, LONG_BLOCK]))
    @settings(max_examples=150, deadline=None)
    def test_every_column_equals_its_expression(self, data, shapes, length):
        exprs = [_renumbered(data, e) for e in shapes
                 for _ in range(data.draw(st.integers(1, 4)))]
        exprs = data.draw(st.permutations(exprs))
        lo = data.draw(st.floats(-10.0, 10.0))
        times = np.linspace(lo, lo + data.draw(st.floats(0.0, 10.0)), length)
        table = ExprStack(exprs)(times)
        assert table.shape == (length, len(exprs))
        for k, e in enumerate(exprs):
            assert np.array_equal(table[:, k], e(times)), to_text(e)

    @pytest.mark.parametrize("length", [1, 2, 34, LONG_BLOCK])
    def test_parameterless_groups(self, length):
        exprs = [T, Sin(T), Const(2.0), T, Const(-0.5), Sin(T), Cos(Scale(0.5, T))]
        stack = ExprStack(exprs)
        assert len(stack.groups) == 4
        times = np.linspace(-3.0, 7.0, length)
        table = stack(times)
        for k, e in enumerate(exprs):
            assert np.array_equal(table[:, k], e(times))

    def test_groups_by_shape_not_numbers(self):
        exprs = [Add(Const(a), Scale(b, Sin(Affine(w, 0.1, T))))
                 for a, b, w in ((0.0, 1.0, 2.0), (0.5, -0.2, 0.7), (1.0, 0.0, 3.0))]
        stack = ExprStack(exprs + [Mul(Const(2.0), T)])
        assert len(stack.groups) == 2
        cols, tree = stack.groups[0]
        assert cols.tolist() == [0, 1, 2]
        assert tree.left.value.ravel().tolist() == [0.0, 0.5, 1.0]

    def test_groups_tell_apart_the_same_nodes_in_other_trees(self):
        exprs = [Add(Sin(T), T), Add(T, Sin(T)), Sin(Add(T, T)), Add(Sin(T), T),
                 Mul(Sin(T), T)]
        stack = ExprStack(exprs)
        assert [cols.tolist() for cols, _ in stack.groups] == [[0, 3], [1], [2], [4]]

    @given(data=st.data(),
           shapes=st.lists(st.sampled_from([T, Sin(T), Const(1.0)]) | _exprs(3),
                           min_size=1, max_size=5))
    @settings(max_examples=200, deadline=None)
    def test_every_row_encloses_as_the_scalar_rules(self, data, shapes):
        # _exprs includes unbounded trees: t itself, exp of t, products of them
        exprs = [_renumbered(data, e) for e in shapes
                 for _ in range(data.draw(st.integers(1, 4)))]
        _assert_enclosures_match_the_oracle(data.draw(st.permutations(exprs)))

    @pytest.mark.parametrize("e", [
        Scale(3.0, Exp(Exp(Exp(Const(3.0))))),  # both ends overflow to inf
        Mul(Const(0.0), T),  # 0 * inf counts as 0
        Neg(Exp(Add(Const(1e300), Abs(Const(-0.0))))),
        Affine(math.inf, -0.0, Cos(Mul(Const(-math.inf), Scale(1e-300, T)))),
        Sin(Affine(1e300, 0.5, Cos(T))),
    ], ids=lambda e: to_text(e))
    def test_extreme_ends_enclose_as_the_scalar_rules(self, e):
        _assert_enclosures_match_the_oracle([e, e, Abs(e)])


def _assert_enclosures_match_the_oracle(exprs):
    """Each single tree's ``enclose()``, and each row of its stacked group's,
    equals the scalar rules' enclosure (``==``: -0.0 and 0.0 count as equal)."""
    for e in exprs:
        assert e.enclose() == enclosure_oracle.enclose(e), to_text(e)
    for cols, tree in ExprStack(exprs).groups:
        lo, hi = (np.broadcast_to(end, (len(cols), 1))[:, 0] for end in tree.enclose())
        for row, col in enumerate(cols):
            e = exprs[col]
            assert (lo[row], hi[row]) == enclosure_oracle.enclose(e), to_text(e)

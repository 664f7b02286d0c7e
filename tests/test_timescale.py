"""Unit tests for the time-scale layer.

Covers: backward jumps and graininess on lattices, intervals, and unions;
nabla derivatives (exact at left-scattered points, central difference at
left-dense ones); anchored-panel nabla integration (additivity, exactness on
lattices and for piecewise-linear integrands); the nu-cylinder transform and
circle algebra; and the nabla exponential with its group identities.
"""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chronoscale import (
    DensePiece,
    DerivativeUndefinedError,
    LatticePiece,
    RegressivityError,
    TimeScale,
    TimeScaleError,
    circle_minus,
    circle_plus,
    cylinder,
)
from chronoscale.timescale import MAX_NODES, POINT_TOL

EXACT = 1e-12
SCATTERED_TOL = 1e-10
DENSE_TOL = 1e-6


@pytest.fixture
def lattice() -> TimeScale:
    return TimeScale.integer_lattice()


@pytest.fixture
def interval() -> TimeScale:
    return TimeScale.real_interval(0.0, 3.0, 0.01)


@pytest.fixture
def union() -> TimeScale:
    return TimeScale.union_of_intervals([(0.0, 1.0), (2.0, 3.0)], 0.01)


# ---------------------------------------------------------------------------
# structure: membership, jumps, graininess, snapping, grids
# ---------------------------------------------------------------------------


class TestStructure:
    def test_lattice_membership_and_jump(self, lattice):
        assert lattice.contains(5.0)
        assert not lattice.contains(5.5)
        assert lattice.backward_jump(5.0) == 4.0
        assert lattice.graininess(5.0) == 1.0
        assert lattice.graininess(-3.0) == 1.0

    def test_spaced_lattice(self):
        half = TimeScale.integer_lattice(spacing=0.5)
        assert half.contains(2.5)
        assert half.backward_jump(2.5) == 2.0
        assert half.graininess(2.5) == 0.5

    def test_interval_left_dense(self, interval):
        assert interval.backward_jump(1.37) == 1.37
        assert interval.graininess(1.37) == 0.0
        assert interval.backward_jump(0.0) == 0.0  # rho(min) = min

    def test_union_gap_jump(self, union):
        # The second interval's left endpoint looks back across the gap.
        assert union.backward_jump(2.0) == 1.0
        assert union.graininess(2.0) == 1.0
        assert union.graininess(2.5) == 0.0
        assert not union.contains(1.5)

    def test_membership_outside(self, union):
        with pytest.raises(TimeScaleError):
            union.backward_jump(1.5)

    def test_snap_down(self, lattice, union, interval):
        assert lattice.snap_down(3.94) == 3.0
        assert lattice.snap_down(4.0) == 4.0
        assert union.snap_down(1.7) == 1.0
        assert interval.snap_down(2.534) == 2.534
        with pytest.raises(TimeScaleError):
            interval.snap_down(-0.5)

    @pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan])
    def test_snap_down_refuses_times_without_a_largest_point_below(self, t):
        for ts in (TimeScale.integer_lattice(), TimeScale.real_interval(0.0, 5.0),
                   TimeScale.union_of_intervals([(0.0, 1.0), (2.0, 3.0)])):
            if t == math.inf and ts.pieces[-1].stop < math.inf:
                assert ts.snap_down(t) == ts.pieces[-1].stop  # the largest point
                continue
            with pytest.raises(TimeScaleError):
                ts.snap_down(t)

    def test_grid_contents(self, union):
        g = union.grid(0.5, 2.5)
        assert g[0] == 0.5 and g[-1] == 2.5
        assert np.any(np.isclose(g, 1.0)) and np.any(np.isclose(g, 2.0))
        assert np.all(np.diff(g) > 0)

    def test_grid_with_graininess(self, union):
        g, nu = union.grid_with_graininess(0.0, 3.0)
        at_2 = int(np.argmin(np.abs(g - 2.0)))
        assert nu[at_2] == pytest.approx(1.0)
        assert nu[at_2 + 1] == 0.0

    def test_piece_validation(self):
        with pytest.raises(TimeScaleError):
            TimeScale([])
        with pytest.raises(TimeScaleError):
            TimeScale([DensePiece(0.0, 1.0), DensePiece(0.5, 2.0)])
        with pytest.raises(TimeScaleError):
            DensePiece(1.0, 1.0)
        with pytest.raises(TimeScaleError):
            LatticePiece(0.0, 5.0, spacing=-1.0)

    @pytest.mark.parametrize("build, message", [
        pytest.param(lambda: LatticePiece(1.0, 0.0), "piece start must not exceed stop",
                     id="reversed-piece"),
        pytest.param(lambda: LatticePiece(0.2, 0.8), "lattice piece contains no node",
                     id="nodeless-lattice"),
        pytest.param(lambda: DensePiece(0.0, math.inf), "dense pieces must have finite bounds",
                     id="infinite-dense"),
        pytest.param(lambda: TimeScale.integer_lattice().grid(1.0, 0.0),
                     "grid window requires a <= b", id="reversed-window"),
    ])
    def test_malformed_pieces_and_windows_are_refused(self, build, message):
        with pytest.raises(TimeScaleError) as info:
            build()
        assert str(info.value) == message

    def test_a_dense_grid_outside_its_piece_is_empty(self):
        assert DensePiece(0.0, 1.0).grid(5.0, 6.0).size == 0

    def test_an_unbounded_lattice_describes_its_infinite_ends(self):
        assert TimeScale.integer_lattice().describe() == "lattice[-inf..+inf; spacing 1]"

    def test_dense_step_is_adjusted_to_fit(self):
        piece = DensePiece(0.0, 1.0, step=0.03)
        assert (1.0 - 0.0) / piece.step == pytest.approx(round(1.0 / piece.step))

    def test_large_times_keep_the_last_panel_edge(self):
        # flooring (t + POINT_TOL - anchor) / spacing lost the addend here and
        # ended the edge lattice one panel short of stop
        piece = DensePiece(999999.8501261682, 5940888.57007114, 705841.2457064247)
        assert piece.edges.stop == piece.stop
        assert piece.edges.count(piece.start, piece.stop) == 8
        rng = np.random.default_rng(16)
        for _ in range(2000):
            start, stop = sorted(rng.uniform(-1e7, 1e7, 2))
            stop = start + (stop - start) * rng.choice([1.0, 1e-4])
            panels = int(rng.integers(1, 200))
            edges = DensePiece(start, stop, (stop - start) / panels).edges
            assert edges.count(start, stop) == panels + 1
            assert edges.stop == pytest.approx(stop, abs=1e-8)  # a few ulps of 2e7

    def test_mixed_lattice_and_interval(self):
        ts = TimeScale([LatticePiece(0.0, 3.0), DensePiece(5.0, 6.0, 0.01)])
        assert ts.backward_jump(5.0) == 3.0
        assert ts.graininess(5.0) == 2.0
        assert ts.backward_jump(2.0) == 1.0
        assert ts.snap_down(4.2) == 3.0

    @given(
        spacing=st.sampled_from([0.01, 0.03, 0.05, 0.1, 0.5, 1.0, 2.0, 6.0]),
        anchor=st.floats(-1.0, 1.0),
        k=st.integers(-2000, 2000),
        offset=st.one_of(
            st.floats(-0.9 * POINT_TOL, 0.9 * POINT_TOL),
            st.floats(1.1 * POINT_TOL, 4e-3),
            st.floats(-4e-3, -1.1 * POINT_TOL),
        ),
    )
    @example(spacing=0.01, anchor=0.0, k=50, offset=-5e-10)
    @example(spacing=6.0, anchor=0.0, k=2, offset=3e-9)
    @settings(max_examples=300, deadline=None)
    def test_lattice_queries_share_one_tolerance(self, spacing, anchor, k, offset):
        # offsets stay clear of +-POINT_TOL by 10% and below half a spacing
        ts = TimeScale.integer_lattice(spacing, anchor)
        node = anchor + k * spacing
        t = node + offset
        member = ts.contains(t)
        assert member == (abs(offset) <= POINT_TOL)
        assert ts.grid(t, t).size == (1 if member else 0)
        if member:
            assert ts.snap_down(t) == node
            assert ts.graininess(t) == spacing
            assert ts.backward_jump(t) == pytest.approx(node - spacing, abs=1e-12)
        else:
            assert ts.snap_down(t) == (node if offset > 0 else anchor + (k - 1) * spacing)

    @given(
        step=st.sampled_from([0.01, 0.03, 0.05, 0.1, 0.5, 1.0, 2.0, 6.0]),
        k=st.integers(1, 3),
        offset=st.one_of(
            st.floats(-0.9 * POINT_TOL, 0.9 * POINT_TOL),
            st.floats(1.1 * POINT_TOL, 4e-3),
            st.floats(-4e-3, -1.1 * POINT_TOL),
        ),
    )
    @example(step=6.0, k=1, offset=-3e-9)
    @settings(max_examples=300, deadline=None)
    def test_dense_queries_share_one_tolerance(self, step, k, offset):
        # the offsets of the lattice test above, around an interior panel edge
        piece = DensePiece(0.0, 5 * step, step)
        ts, h = TimeScale([piece]), piece.step
        t = k * h + offset
        assert ts.grid(t, t).size == 1
        assert np.all(np.diff(ts.grid(t, t + step)) > POINT_TOL)
        if abs(offset) > POINT_TOL:
            # t is valued by the interpolant over the panel (e0, e0 + h] holding it
            e0 = (k - (offset < 0)) * h
            f0, f1 = e0 ** 3, (e0 + h) ** 3
            at_t = f0 + (f1 - f0) * (t - e0) / h
            got = ts.nabla_integral(lambda u: u ** 3, e0, t)
            assert got == pytest.approx(0.5 * (t - e0) * (f0 + at_t), rel=1e-12)

    def test_grid_refuses_a_window_past_the_node_budget(self):
        lattice = TimeScale.integer_lattice(0.5)
        assert lattice.grid(0.0, 0.5 * (MAX_NODES - 1)).size == MAX_NODES
        with pytest.raises(TimeScaleError, match=f"holds {MAX_NODES + 1} nodes at spacing 0.5"):
            lattice.grid(0.0, 0.5 * MAX_NODES)
        # 2.6e10 panel edges would take 194 GiB; three pieces each within the
        # budget hold 3,000,003 nodes together.  Each refusal allocates nothing.
        dense = TimeScale.real_interval(-2.0, 50.0, 2e-9)
        union = TimeScale.union_of_intervals([(0, 10), (11, 21), (22, 32)], step=1e-5)
        tracemalloc.start()
        try:
            with pytest.raises(TimeScaleError, match=f"a grid holds at most {MAX_NODES}"):
                dense.grid(-2.0, 50.0)
            with pytest.raises(TimeScaleError, match=r"^window \[0, 32\] holds 3000003 nodes "
                                                     r"at spacing 1e-05; a grid holds at most"):
                union.grid(0, 32)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert TimeScale.union_of_intervals([(0, 6), (7, 13)], step=1e-5).grid(0, 13).size \
            == 1_200_002

    @pytest.mark.parametrize("lo, hi", [(-math.inf, 0.0), (0.0, math.inf),
                                        (-math.inf, math.inf)])
    def test_an_infinite_window_end_on_an_unbounded_lattice_is_refused(self, lo, hi):
        with pytest.raises(TimeScaleError, match=rf"^window \[{lo}, {hi}\] is unbounded "
                                                 r"on a lattice of spacing 1.0$"):
            TimeScale.integer_lattice().grid(lo, hi)
        # a bounded piece clips the window first
        assert TimeScale([LatticePiece(0.0, 3.0)]).grid(lo, hi).size == (4 if hi > 0 else 1)

    def test_panels(self):
        # lattice nodes 1..3 are scattered; the gap to 5 is one scattered
        # panel of width 2; the dense piece's panels follow
        ts = TimeScale([LatticePiece(0.0, 3.0), DensePiece(5.0, 6.0, 0.5)])
        g, widths, dense = ts.panels(1.0, 6.0)
        assert np.array_equal(g, [1.0, 2.0, 3.0, 5.0, 5.5, 6.0])
        assert np.array_equal(widths, [0.0, 1.0, 1.0, 2.0, 0.5, 0.5])
        assert dense.tolist() == [False, False, False, False, True, True]


# ---------------------------------------------------------------------------
# nabla derivative
# ---------------------------------------------------------------------------


class TestDerivative:
    def test_lattice_square(self, lattice):
        # (t^2 - (t-1)^2) / 1 = 2t - 1 -> 9 at t = 5.
        assert lattice.nabla_derivative(lambda t: t * t, 5.0) == pytest.approx(9.0, abs=EXACT)

    def test_dense_matches_classical(self, interval):
        got = interval.nabla_derivative(math.sin, 1.0)
        assert got == pytest.approx(math.cos(1.0), abs=DENSE_TOL)

    def test_dense_right_endpoint_backward(self, interval):
        got = interval.nabla_derivative(math.sin, 3.0)
        assert got == pytest.approx(math.cos(3.0), abs=1e-4)

    def test_union_boundary_is_difference_quotient(self, union):
        f = lambda t: t * t
        # nu(2.0) = 1: exact quotient (4 - 1) / 1.
        assert union.nabla_derivative(f, 2.0) == pytest.approx(3.0, abs=EXACT)

    @pytest.mark.parametrize("ts", [TimeScale.real_interval(0.0, 3.0, 0.01),
                                    TimeScale([LatticePiece(0.0, 10.0)])],
                             ids=["dense", "lattice"])
    def test_undefined_at_the_minimum(self, ts):
        with pytest.raises(DerivativeUndefinedError):
            ts.nabla_derivative(math.sin, 0.0)


# ---------------------------------------------------------------------------
# nabla integral
# ---------------------------------------------------------------------------


class TestIntegral:
    def test_lattice_sum(self, lattice):
        # integral over (0,5] of t = 1+2+3+4+5 = 15.
        assert lattice.nabla_integral(lambda t: t, 0.0, 5.0) == pytest.approx(15.0, abs=EXACT)

    def test_dense_linear_exact(self, interval):
        assert interval.nabla_integral(lambda t: t, 0.0, 1.0) == pytest.approx(0.5, abs=EXACT)

    def test_dense_quadratic_second_order(self, interval):
        got = interval.nabla_integral(lambda t: t * t, 0.0, 1.0)
        assert got == pytest.approx(1.0 / 3.0, abs=2e-5)

    def test_union_across_gap(self, union):
        # 0.5 dense + jump mass 1 at t=2 + 0.5 dense.
        assert union.nabla_integral(lambda t: 1.0, 0.5, 2.5) == pytest.approx(2.0, abs=EXACT)

    def test_reversed_bounds_negate(self, union):
        fwd = union.nabla_integral(math.sin, 0.25, 2.75)
        assert union.nabla_integral(math.sin, 2.75, 0.25) == pytest.approx(-fwd, abs=EXACT)

    def test_empty_window(self, lattice):
        assert lattice.nabla_integral(lambda t: t, 3.0, 3.0) == 0.0

    def test_additivity_at_off_panel_split(self, interval):
        f = lambda t: math.exp(-t) * math.sin(3 * t)
        whole = interval.nabla_integral(f, 0.0, 2.7)
        split = interval.nabla_integral(f, 0.0, 1.2345) + interval.nabla_integral(f, 1.2345, 2.7)
        assert split == pytest.approx(whole, abs=1e-12)

    @given(split=st.floats(0.05, 2.95))
    @settings(max_examples=40, deadline=None)
    def test_additivity_property_dense(self, split):
        ts = TimeScale.real_interval(0.0, 3.0, 0.01)
        f = lambda t: math.cos(2 * t) + 0.3 * t
        whole = ts.nabla_integral(f, 0.0, 3.0)
        parts = ts.nabla_integral(f, 0.0, split) + ts.nabla_integral(f, split, 3.0)
        assert parts == pytest.approx(whole, abs=1e-11)

    def test_fundamental_theorem_on_lattice(self, lattice):
        # integral of the nabla derivative telescopes exactly.
        f = lambda t: math.sin(t) + 0.1 * t * t
        deriv = lambda t: lattice.nabla_derivative(f, t)
        got = lattice.nabla_integral(deriv, -2.0, 7.0)
        assert got == pytest.approx(f(7.0) - f(-2.0), abs=1e-12)

    def test_bounds_must_belong_to_scale(self, union):
        with pytest.raises(TimeScaleError):
            union.nabla_integral(lambda t: 1.0, 0.0, 1.5)


# ---------------------------------------------------------------------------
# cylinder transform and circle algebra
# ---------------------------------------------------------------------------


class TestCylinderAlgebra:
    def test_cylinder_values(self):
        assert cylinder(0.5, 1.0) == pytest.approx(math.log(2.0), abs=EXACT)
        assert cylinder(0.7, 0.0) == 0.7

    def test_cylinder_regressivity_guard(self):
        with pytest.raises(RegressivityError):
            cylinder(2.0, 1.0)

    def test_circle_minus_is_inverse(self):
        for nu in (0.0, 0.3, 1.0):
            for p in (-1.5, -0.2, 0.4, 0.9):
                if 1.0 - nu * p <= 0:
                    continue
                q = circle_minus(p, nu)
                assert circle_plus(p, q, nu) == pytest.approx(0.0, abs=EXACT)

    @given(
        nu=st.floats(0.0, 2.0),
        p=st.floats(-3.0, 3.0),
        q=st.floats(-3.0, 3.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_circle_plus_preserves_regressivity(self, nu, p, q):
        # (1 - nu*(p (+) q)) = (1 - nu p)(1 - nu q): positivity is preserved.
        lhs = 1.0 - nu * circle_plus(p, q, nu)
        rhs = (1.0 - nu * p) * (1.0 - nu * q)
        assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_circle_minus_guard(self):
        with pytest.raises(RegressivityError):
            circle_minus(1.0, 1.0)

    @pytest.mark.parametrize("transform, arg, nu", [
        (cylinder, math.nan, 1.0), (cylinder, 1.0, math.nan),
        (circle_minus, math.nan, 1.0), (circle_minus, 1.0, math.nan)])
    def test_nan_does_not_pass_the_guards(self, transform, arg, nu):
        # 1 - nu*z is NaN, which is not positive, as _log_increments holds
        with pytest.raises(RegressivityError):
            transform(arg, nu)


# ---------------------------------------------------------------------------
# nabla exponential
# ---------------------------------------------------------------------------


class TestExponential:
    def test_lattice_constant(self, lattice):
        # p = -1/2 on the integer lattice: value (1 - p)^(s - t) = 1.5^-2.
        got = lattice.nabla_exp(lambda t: -0.5, 2.0, 0.0)
        assert got == pytest.approx(1.5 ** -2, abs=EXACT)

    def test_lattice_decay_factor(self, lattice):
        lam = 0.25
        p = lambda t: circle_minus(lam, 1.0)
        got = lattice.nabla_exp(p, 6.0, 0.0)
        assert got == pytest.approx((1.0 - lam) ** 6, rel=1e-12)

    def test_dense_matches_classical_exponential(self, interval):
        got = interval.nabla_exp(lambda t: -0.8, 2.0, 0.0)
        assert got == pytest.approx(math.exp(-1.6), rel=1e-9)

    def test_dense_time_varying(self, interval):
        # p(t) = t: classical exponential of the exact primitive t^2/2.
        got = interval.nabla_exp(lambda t: t, 1.0, 0.0)
        assert got == pytest.approx(math.exp(0.5), rel=1e-5)

    def test_value_at_anchor_is_one(self, union):
        assert union.nabla_exp(lambda t: 0.4, 1.0, 1.0) == 1.0

    def test_reciprocal_in_swapped_bounds(self, union):
        p = lambda t: 0.3 + 0.01 * math.sin(0.3 * t)
        fwd = union.nabla_exp(p, 2.5, 0.5)
        rev = union.nabla_exp(p, 0.5, 2.5)
        assert fwd * rev == pytest.approx(1.0, abs=EXACT)

    def test_regressivity_violation_raises_with_time(self, lattice):
        with pytest.raises(RegressivityError) as err:
            lattice.nabla_exp(lambda t: 2.0, 3.0, 0.0)
        assert err.value.at_time is not None

    def test_grid_variant_matches_pointwise(self, union):
        p = lambda t: -0.4 + 0.02 * math.cos(0.2 * t)
        g, vals = union.nabla_exp_grid(p, 0.0, 3.0)
        for idx in (1, len(g) // 2, len(g) - 1):
            t = float(g[idx])
            assert vals[idx] == pytest.approx(union.nabla_exp(p, t, 0.0), rel=1e-12)

    @pytest.mark.parametrize("scale", ["lattice", "interval", "union"])
    def test_a_one_point_window_is_the_anchor_alone(self, scale, request):
        ts = request.getfixturevalue(scale)
        g, vals = ts.nabla_exp_grid(lambda t: 5.0, 1.0, 1.0)
        assert g.tolist() == [1.0] and vals.tolist() == [1.0]
        assert ts.is_positively_regressive(lambda t: 5.0, 1.0, 1.0)

    def test_positive_regressivity_scan(self, lattice, interval):
        assert lattice.is_positively_regressive(lambda t: 0.5, 0.0, 10.0)
        assert not lattice.is_positively_regressive(lambda t: 1.5, 0.0, 10.0)
        assert not lattice.is_positively_regressive(lambda t: math.nan, 0.0, 10.0)
        # Dense windows carry no scattered points, so any p qualifies.
        assert interval.is_positively_regressive(lambda t: 99.0, 0.0, 3.0)

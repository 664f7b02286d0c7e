"""Manufactured solutions: the stepper against an exact oracle.

:mod:`manufactured` forces a linear network so that affine targets solve
it exactly.  Where the scheme is exact for an affine state the run must
reproduce the targets to rounding, ``EXACT``:

- on R with time-varying delays and windows, since a dense step
  interpolates linearly and integrates windows with a trapezoid, and
  Heun's step is exact for a constant derivative;
- on hZ with every delay a constant multiple of h, where no lookup snaps
  and the windows' right-end sums are the nabla integrals, once the
  implicit scattered step has converged.

One semantic of the lookups bends the first: a query within ``POINT_TOL``
of a grid node is read at that node.  Where a delay's end or a window's
start lands that close to a panel edge, the derivative misses a sliver at
most ``POINT_TOL`` wide, weighted by the coefficient and by what the lookup
reads: under ``SNAP`` on every network drawn here.  A step integrates that
gap over one panel, so the states stay within ``EXACT``.  The snap itself
is pinned as a strict expected failure.

Where the scheme is not exact, the gap is a finding, pinned as a strict
expected failure whose reason quotes it.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chronoscale.coeffs import Add, Affine, Const, Scale, Sin, TimeVar
from chronoscale.network import ACTIVATIONS, NetworkSpec
from chronoscale.simulator import simulate
from chronoscale.timescale import POINT_TOL, TimeScale
from manufactured import forced, target_gaps, target_history

EXACT = 1e-12
# alpha+ |b| + sum_j (|Dtau_ij| + |Dtil_ij|) |b_j| + |Dbar_ij| |x*_j| is at most
# 0.44 + 0.06 + 0.06 + 1.35 < 2 for the drawn networks up to T_END
SNAP = 2 * POINT_TOL
T_END = 20.0
WINDOW = 1.5  # the longest delay or window any network below draws

_T = TimeVar()


def _wave(base, amp, freq, phase=0.0):
    """``add(const base, scale(amp, sin(affine freq phase t)))``."""
    return Add(Const(base), Scale(amp, Sin(Affine(freq, phase, _T))))


@st.composite
def linear_networks(draw, lattice):
    """A linear network of one or two neurons, affine targets ``(a, b, p,
    q)`` and a spacing ``h``.

    Every coefficient is ``add(const, scale(sin(affine)))``.  On R
    (``lattice`` False) every delay is such a wave too, between 0.025 and
    1.5.  On hZ every delay is a constant 0, h or 2h, and
    ``h * alpha+ <= 0.5`` (so is ``h * c+``), for which 60 corrector passes
    converge to rounding."""
    n = draw(st.integers(1, 2))
    h = draw(st.sampled_from([0.1, 0.25, 0.5] if lattice else [0.1, 0.05, 0.01]))
    unit = st.floats(0.0, 1.0)

    def wave(base, amp):
        return _wave(base, amp, 0.5 + 2.5 * draw(unit), 2 * math.pi * draw(unit))

    def rate():  # base + amp <= 1.1 base <= 0.5 / h on hZ
        top = min(2.0, 0.5 / (1.1 * h)) if lattice else 2.0
        base = 0.5 + (top - 0.5) * draw(unit)
        return wave(base, 0.1 * base)

    def signed(top):
        return (2.0 * draw(unit) - 1.0) * top

    def vector(make):
        return tuple(make() for _ in range(n))

    def matrix(make):
        return tuple(vector(make) for _ in range(n))

    def weight():
        return wave(signed(0.2 / n), 0.1 / n * draw(unit))

    def delay():
        if lattice:
            return Const(h * draw(st.integers(0, 2)))
        base = 0.05 + 0.95 * draw(unit)
        return wave(base, 0.5 * base * draw(unit))

    spec = NetworkSpec(
        n=n, alpha=vector(rate), c=vector(rate),
        D=matrix(weight), Dtau=matrix(weight), Dbar=matrix(weight), Dtil=matrix(weight),
        B=vector(weight), E=vector(weight), I=(Const(0.0),) * n, J=(Const(0.0),) * n,
        eta=vector(delay), varsigma=vector(delay),
        tau=matrix(delay), sigma_d=matrix(delay), zeta=matrix(delay),
        activations=(ACTIVATIONS["identity"],) * n)
    target = tuple(vector(lambda: signed(top)) for top in (0.5, 0.2, 0.5, 0.2))
    return spec, target, h


@settings(max_examples=6, derandomize=True, deadline=None)
@given(linear_networks(lattice=False))
def test_affine_targets_are_exact_on_r(drawn):
    spec, target, h = drawn
    ts = TimeScale.real_interval(-WINDOW, T_END, h)
    traj = simulate(forced(spec, *target), target_history(*target, WINDOW), ts, T_END)
    states, slopes = target_gaps(traj, *target)
    assert states <= EXACT and slopes <= EXACT + SNAP


@settings(max_examples=6, derandomize=True, deadline=None)
@given(linear_networks(lattice=True))
def test_affine_targets_are_exact_on_aligned_lattices(drawn):
    spec, target, h = drawn
    ts = TimeScale.integer_lattice(h)
    traj = simulate(forced(spec, *target, h=h), target_history(*target, WINDOW), ts, T_END,
                    corrector_iters=60)
    assert max(target_gaps(traj, *target)) <= EXACT


# one neuron, every coefficient a wave; the targets of every case below
TARGET = ((0.3,), (-0.2,), (0.1,), (0.05,))


def _seed(leak, other):
    """The one-neuron network with the delays ``leak`` (``eta`` and
    ``varsigma``) and ``other`` (``tau``, ``sigma_d`` and ``zeta``)."""
    return NetworkSpec(
        n=1, alpha=(_wave(0.8, 0.05, 1.3),), c=(_wave(0.6, 0.05, 0.7, 1.0),),
        D=((_wave(0.1, 0.05, 1.1),),), Dtau=((_wave(-0.1, 0.05, 0.9, 2.0),),),
        Dbar=((_wave(0.2, 0.05, 1.7),),), Dtil=((_wave(0.1, 0.05, 0.6, 0.5),),),
        B=(_wave(0.2, 0.05, 0.5),), E=(_wave(0.3, 0.05, 1.9),),
        I=(Const(0.0),), J=(Const(0.0),), eta=(leak,), varsigma=(leak,),
        tau=((other,),), sigma_d=((other,),), zeta=((other,),),
        activations=(ACTIVATIONS["identity"],))


# (id, spacing h, leak delays, other delays), every delay a multiple of h
ALIGNED = [
    pytest.param(0.25, 0.0, 0.25, id="0.25Z-leak0"),
    pytest.param(0.25, 0.25, 0.5, id="0.25Z"),
    pytest.param(0.1, 0.1, 0.2, id="0.1Z"),
    pytest.param(0.5, 0.5, 1.0, id="0.5Z"),
]


def _aligned_error(h, leak, other, corrector_iters):
    spec = forced(_seed(Const(leak), Const(other)), *TARGET, h=h)
    traj = simulate(spec, target_history(*TARGET, WINDOW), TimeScale.integer_lattice(h), T_END,
                    corrector_iters=corrector_iters)
    return max(target_gaps(traj, *TARGET))


@pytest.mark.parametrize("h, leak, other", ALIGNED)
def test_converged_passes_solve_the_aligned_lattice_exactly(h, leak, other):
    assert _aligned_error(h, leak, other, 60) <= EXACT


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "4 corrector passes leave the implicit scattered step unconverged: off by 4.9e-4 on "
    "0.25Z with zero leak delays, 4.4e-5 on 0.25Z with delays 0.25 and 0.5, 8.8e-7 on 0.1Z "
    "and 1.1e-3 on 0.5Z, where 60 passes are exact to 4.4e-15"))
@pytest.mark.parametrize("h, leak, other", ALIGNED)
def test_four_corrector_passes_solve_the_aligned_lattice_exactly(h, leak, other):
    assert _aligned_error(h, leak, other, 4) <= EXACT


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "t - eta(t) snaps down to rho(t) on a lattice, and so do the other delays and the "
    "windows' starts, so the scheme solves another equation than the one the forcing makes "
    "exact on R: off by 1.3 on Z and 0.50 on 0.5Z at 60 corrector passes"))
@pytest.mark.parametrize("h", [1.0, 0.5], ids=["Z", "0.5Z"])
def test_forcing_exact_on_r_is_exact_on_lattices(h):
    spec = forced(_seed(_wave(0.3, 0.1, 1.0), _wave(0.6, 0.2, 1.2)), *TARGET)
    traj = simulate(spec, target_history(*TARGET, WINDOW), TimeScale.integer_lattice(h), T_END,
                    corrector_iters=60)
    assert max(target_gaps(traj, *TARGET)) <= EXACT


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "a query within POINT_TOL above a dense panel's edge is read at the edge, so delays and "
    "windows 2.5e-11 longer than 10 panels lose that sliver at every step: the states end "
    "3.4e-11 off the targets and the derivatives 8.4e-12"))
def test_a_lookup_just_past_a_dense_panel_edge_reads_where_it_lies():
    spec = forced(_seed(Const(0.3), Const(0.5 + 2.5e-11)), *TARGET)
    ts = TimeScale.real_interval(-WINDOW, T_END, 0.05)
    traj = simulate(spec, target_history(*TARGET, WINDOW), ts, T_END)
    assert max(target_gaps(traj, *TARGET)) <= EXACT

"""Stepping engine: closed forms, an independent recurrence, and API contracts."""

import dataclasses
import io
import math

import numpy as np
import pytest

import lattice_oracle
import test_golden
import test_memory
import test_soundness_corpus
from chronoscale import simulator
from chronoscale.benchmark import history_pairs, two_neuron_spec
from chronoscale.coeffs import Add, Affine, Const, Exp, Scale, TimeVar
from chronoscale.network import ACTIVATIONS, NetworkSpec, rhs
from chronoscale.simulator import (
    HistorySpec,
    HistoryUnderflowError,
    StepFailureError,
    Trajectory,
    distance_series,
    history_norm,
    simulate,
)
from chronoscale.timescale import LatticePiece, TimeScale, TimeScaleError


def scalar_spec(**over):
    """One-neuron network, constant coefficients, identity activation."""
    fields = dict(
        n=1,
        alpha=(Const(0.5),),
        c=(Const(0.4),),
        D=((Const(0.0),),),
        Dtau=((Const(0.0),),),
        Dbar=((Const(0.0),),),
        Dtil=((Const(0.0),),),
        B=(Const(0.0),),
        E=(Const(0.0),),
        I=(Const(0.0),),
        J=(Const(0.0),),
        eta=(Const(0.0),),
        varsigma=(Const(1.0),),
        tau=((Const(1.0),),),
        sigma_d=((Const(1.0),),),
        zeta=((Const(1.0),),),
        activations=(ACTIVATIONS["identity"],),
    )
    fields.update(over)
    return NetworkSpec(**fields)


def flat_history(x0=0.0, s0=0.0, window=1.0):
    zero = Const(0.0)
    return HistorySpec(stm=(Const(x0),), stm_slope=(zero,),
                       ltm=(Const(s0),), ltm_slope=(zero,), window=window)


def live_index(traj, t):
    k = int(np.argmin(np.abs(traj.times - t)))
    assert abs(traj.times[k] - t) < 1e-9
    return k


# ---------------------------------------------------------------------------
# agreement with the independent lattice recurrence
# ---------------------------------------------------------------------------


def test_matches_recurrence_with_multi_panel_delays():
    # Acceptance check 4 runs the reference delays, which stay below one
    # lattice panel, so distributed sums hold only the live atom.  Widening
    # every delay makes those sums span committed and history atoms,
    # exercising the prefix bookkeeping.
    w = lattice_oracle.WIDE
    c = lambda v: Const(float(v))
    mat = lambda v: ((c(v), c(v)), (c(v), c(v)))
    spec = dataclasses.replace(
        two_neuron_spec(),
        eta=(c(w["eta"]), c(w["eta"])),
        varsigma=(c(w["varsigma"]), c(w["varsigma"])),
        tau=mat(w["tau"]), sigma_d=mat(w["sigma"]), zeta=mat(w["zeta"]),
    )
    hist = dataclasses.replace(history_pairs()["trig"][0], window=w["window"])
    traj = simulate(spec, hist, TimeScale.integer_lattice(), t_end=50.0,
                    corrector_iters=8)
    oracle = lattice_oracle.run(50, corrector_iters=8, wide=True)
    worst = 0.0
    for t in range(1, 51):
        k = live_index(traj, t)
        for i in range(2):
            worst = max(worst,
                        abs(traj.x[i, k] - oracle["x"][t][i]),
                        abs(traj.s[i, k] - oracle["s"][t][i]),
                        abs(traj.dx[i, k] - oracle["dx"][t][i]),
                        abs(traj.ds[i, k] - oracle["ds"][t][i]))
    assert worst <= 1e-12


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def test_lattice_pure_leak_geometric_decay():
    # x(t) = x(t-1) - a x(t) on the unit lattice => x(t) = x0 / (1+a)^t;
    # the long-term state decays explicitly: S(t) = s0 (1-c)^t.
    spec = scalar_spec(E=(Const(0.0),), J=(Const(0.0),))
    traj = simulate(spec, flat_history(x0=0.9, s0=0.7),
                    TimeScale.integer_lattice(), t_end=12.0,
                    corrector_iters=60)
    for t in range(1, 13):
        k = live_index(traj, t)
        assert traj.x[0, k] == pytest.approx(0.9 / 1.5 ** t, rel=1e-12)
        assert traj.s[0, k] == pytest.approx(0.7 * 0.6 ** t, rel=1e-12)


def test_dense_grid_reproduces_scalar_ode():
    # x' = -x + 1 from rest => x(t) = 1 - exp(-t).
    spec = scalar_spec(alpha=(Const(1.0),), I=(Const(1.0),))
    ts = TimeScale.real_interval(-1.0, 5.0, 1e-3)
    traj = simulate(spec, flat_history(), ts, t_end=5.0)
    live = traj.times[traj.start_index:]
    err = np.abs(traj.x[0, traj.start_index:] - (1.0 - np.exp(-live)))
    assert float(err.max()) < 1e-5
    assert np.all(traj.s[0] == 0.0)


def test_constant_input_integrates_to_elapsed_measure():
    # With nothing but a constant input the state is a running nabla
    # integral of 1, which telescopes to t - t0 on any scale - including
    # across the gap atom of a two-interval union.
    spec = scalar_spec(alpha=(Const(0.0),), I=(Const(1.0),))
    ts = TimeScale.union_of_intervals([(-2.0, 1.0), (2.0, 3.0)], step=0.01)
    traj = simulate(spec, flat_history(window=2.0), ts, t_end=3.0)
    k0 = traj.start_index
    assert np.allclose(traj.x[0, k0:], traj.times[k0:], atol=1e-12, rtol=0.0)
    assert np.all(traj.dx[0, k0 + 1:] == pytest.approx(1.0, abs=1e-12))


def test_zero_network_stays_at_rest():
    spec = scalar_spec(alpha=(Const(0.0),), c=(Const(0.0),))
    traj = simulate(spec, flat_history(), TimeScale.integer_lattice(),
                    t_end=10.0)
    for arr in (traj.x, traj.s, traj.dx, traj.ds):
        assert np.all(arr == 0.0)


def test_input_shift_adds_linear_ramp_exactly():
    # alpha = 0 turns the short-term equation into a pure accumulator, so
    # raising the input by a dyadic amount tilts the run by exactly t * gap.
    base = scalar_spec(alpha=(Const(0.0),), I=(Const(0.25),))
    shifted = scalar_spec(alpha=(Const(0.0),), I=(Const(0.75),))
    ts = TimeScale.integer_lattice()
    a = simulate(base, flat_history(), ts, t_end=20.0)
    b = simulate(shifted, flat_history(), ts, t_end=20.0)
    for t in range(1, 21):
        k = live_index(a, t)
        assert b.x[0, k] - a.x[0, k] == 0.5 * t


# ---------------------------------------------------------------------------
# scheme invariants
# ---------------------------------------------------------------------------


def test_lattice_derivative_trace_is_backward_quotient():
    spec = two_neuron_spec()
    hist, _ = history_pairs()["trig"]
    traj = simulate(spec, hist, TimeScale.integer_lattice(), t_end=20.0)
    k0 = traj.start_index
    assert np.array_equal(traj.dx[:, k0 + 1:],
                          traj.x[:, k0 + 1:] - traj.x[:, k0:-1])
    assert np.array_equal(traj.ds[:, k0 + 1:],
                          traj.s[:, k0 + 1:] - traj.s[:, k0:-1])


def test_lattice_commits_solve_implicit_equation():
    # Route the committed trajectory back through the standalone evaluator:
    # each committed derivative must satisfy dx = rhs(committed state).
    spec = two_neuron_spec()
    hist, _ = history_pairs()["trig"]
    ts = TimeScale.integer_lattice()
    traj = simulate(spec, hist, ts, t_end=30.0, corrector_iters=16)
    assert _worst_trace_gap(spec, traj, ts, range(traj.start_index + 1, len(traj.times))) < 1e-12


def _worst_trace_gap(spec, traj, ts, ks):
    """Largest gap between the committed derivative traces at grid points
    ``ks`` and the reference right-hand side of the committed state."""
    traces = np.vstack((traj.dx, traj.ds))
    return max(float(np.abs(traces[:, k] - rhs(spec, traj, ts, float(traj.times[k]))).max())
               for k in ks)


def _worst_dense_trace_gap(spec, hist=None):
    if hist is None:
        hist, _ = history_pairs()["trig"]
    ts = TimeScale.real_interval(-2.0, 3.0, 0.01)
    traj = simulate(spec, hist, ts, t_end=3.0)
    return _worst_trace_gap(spec, traj, ts, range(traj.start_index + 1, len(traj.times), 7))


def test_dense_derivative_trace_matches_standalone_evaluator():
    assert _worst_dense_trace_gap(two_neuron_spec()) < 1e-12


def test_per_neuron_activations_match_standalone_evaluator():
    spec = dataclasses.replace(
        two_neuron_spec(), activations=(ACTIVATIONS["identity"], ACTIVATIONS["sin_half"]))
    assert _worst_dense_trace_gap(spec) < 1e-12


def _three_activation_spec():
    return dataclasses.replace(test_memory.wide_tanh_spec(3, 0), activations=tuple(
        ACTIVATIONS[name] for name in ("tanh", "sin_half", "identity")))


def test_mixed_activations_apply_each_function_to_its_entries():
    spec = _three_activation_spec()
    owner = np.tile(np.arange(3), 4)
    z = np.linspace(-2.5, 2.5, len(owner))
    got = simulator._activation(spec, owner)(z)
    # each entry alone, as a Python float; numpy's tanh may differ from the
    # math module's by one unit in the last place
    expected = np.array([spec.activations[j].fn(float(v)) for j, v in zip(owner, z)])
    assert np.all(np.abs(got - expected) <= np.spacing(np.abs(expected)))


def _three_neuron_history():
    n = 3
    return HistorySpec(stm=tuple(Affine(0.1, 0.1 * i, Exp(TimeVar())) for i in range(n)),
                       stm_slope=tuple(Scale(0.1, Exp(TimeVar())) for _ in range(n)),
                       ltm=tuple(Const(-0.1 * i) for i in range(n)),
                       ltm_slope=(Const(0.0),) * n, window=0.5)


def test_three_activations_match_standalone_evaluator():
    assert _worst_dense_trace_gap(_three_activation_spec(), _three_neuron_history()) < 1e-12


@pytest.mark.parametrize("t0, t_end", [(19.0, 21.5), (29.0, 32.0)])
def test_hybrid_scale_matches_standalone_evaluator(t0, t_end):
    # Across the golden hybrid scale's lattice-to-dense gap at 20.5 and its
    # dense-to-lattice gap at 31, lookups and windows start on one kind of
    # piece and end on the other.  Every live point is checked: the dense
    # ones, and the scattered ones, whose traces are the fixed point's
    # backward quotients; 16 corrector passes converge it to rounding.
    spec, ts = _three_activation_spec(), test_golden.HYBRID
    traj = simulate(spec, _three_neuron_history(), ts, t_end=t_end, t0=t0,
                    corrector_iters=16)
    ks = range(traj.start_index + 1, len(traj.times))
    assert traj._panel_dense[ks].any() and not traj._panel_dense[ks].all()
    assert _worst_trace_gap(spec, traj, ts, ks) < 1e-12


def _off_grid_window_spec(tau, sigma, zeta):
    """One tanh neuron with every coupling switched on; ``tau``, ``sigma``
    and ``zeta`` set the lagged lookup and the two window lengths."""
    return scalar_spec(
        D=((Const(0.2),),), Dtau=((Const(0.1),),), Dbar=((Const(0.1),),),
        Dtil=((Const(0.1),),), B=(Const(0.05),), E=(Const(0.1),), I=(Const(0.3),),
        J=(Const(0.1),), eta=(Const(1.0),), tau=((Const(tau),),),
        sigma_d=((Const(sigma),),), zeta=((Const(zeta),),),
        activations=(ACTIVATIONS["tanh"],))


def test_windows_starting_between_lattice_points_snap_down():
    # Every delayed lookup and window start falls halfway between two points
    # of Z and snaps down to the one below, in the stepper as in rhs.
    spec = _off_grid_window_spec(0.5, 0.5, 0.5)
    ts = TimeScale.integer_lattice()
    traj = simulate(spec, flat_history(0.2, -0.1), ts, t_end=20.0, corrector_iters=40)
    ks = range(traj.start_index + 1, len(traj.times))
    assert _worst_trace_gap(spec, traj, ts, ks) < 1e-12


def test_windows_reaching_into_a_gap_snap_down():
    # On (6, 7.5] the windows start in [4.5, 6): on the first piece's last
    # stretch, then inside the gap (5, 6), which snaps down to 5.
    spec = _off_grid_window_spec(1.2, 1.5, 1.5)
    ts = TimeScale.union_of_intervals([(-3.0, 5.0), (6.0, 10.0)], step=0.05)
    traj = simulate(spec, flat_history(0.2, -0.1, window=2.0), ts, t_end=10.0)
    ks = np.flatnonzero(traj._panel_dense)
    ks = ks[ks > traj.start_index]
    assert np.any((traj.times[ks] - 1.5 > 5.0) & (traj.times[ks] - 1.5 < 6.0))
    assert _worst_trace_gap(spec, traj, ts, ks) < 1e-12


def test_rerun_is_bit_identical():
    spec = two_neuron_spec()
    hist, _ = history_pairs()["trig"]
    ts = TimeScale.real_interval(-2.0, 2.0, 0.01)
    a = simulate(spec, hist, ts, t_end=2.0)
    b = simulate(spec, hist, ts, t_end=2.0)
    for fa, fb in ((a.x, b.x), (a.s, b.s), (a.dx, b.dx), (a.ds, b.ds),
                   (a.times, b.times)):
        assert np.array_equal(fa, fb)


def test_the_compiled_plan_depends_on_the_spec_and_the_grid_alone():
    # The trig pair shares one grid on the hybrid golden scale, and each
    # history's engine compiles the same chunks, row for row from the grid
    # start: term indices and weights, Dtau, panel masses and reach.
    spec = two_neuron_spec()
    a, b = (simulator._Engine(spec, hist, test_golden.HYBRID, 120.0, 0.0, 4)
            for hist in history_pairs()["trig"])
    assert np.array_equal(a.times, b.times) and a.chunk_len == b.chunk_len
    starts = range(a.k0, len(a.times), a.chunk_len)
    assert len(starts) > 1
    for start in starts:
        a._compile(start)
        b._compile(start)
        assert a.chunk[0] == b.chunk[0]
        assert all(np.array_equal(x, y) for x, y in zip(a.chunk[1:], b.chunk[1:]))


@pytest.mark.parametrize("pair", ["trig", "steady"])
def test_a_run_is_the_same_after_another_history_ran_on_its_spec(pair):
    ts, t_end = test_golden.CASES["hybrid"]
    hist_a, hist_b = history_pairs()[pair]
    alone = simulate(two_neuron_spec(), hist_b, ts, t_end)
    spec = two_neuron_spec()
    simulate(spec, hist_a, ts, t_end)
    after = simulate(spec, hist_b, ts, t_end)
    assert np.array_equal(after.Y, alone.Y) and np.array_equal(after.dY, alone.dY)


def test_short_term_state_ignores_long_term_when_uncoupled():
    # B = 0 removes the only feedback path into the short-term equation, so
    # changing the long-term history must leave x bitwise unchanged.
    spec = scalar_spec(alpha=(Const(0.6),), D=((Const(0.2),),),
                       E=(Const(0.3),), tau=((Const(0.5),),))
    ts = TimeScale.real_interval(-1.0, 2.0, 0.01)
    a = simulate(spec, flat_history(x0=0.4, s0=0.0), ts, t_end=2.0)
    b = simulate(spec, flat_history(x0=0.4, s0=0.8), ts, t_end=2.0)
    assert np.array_equal(a.x, b.x)
    assert not np.array_equal(a.s, b.s)


@pytest.mark.parametrize("spec, ts, message, t", [
    # an infinite input makes the first dense step's predictor infinite
    (scalar_spec(I=(Const(math.inf),)), TimeScale.real_interval(-1.0, 1.0, 0.01),
     "predictor became non-finite", 0.01),
    # the predictor reaches 1e306; at it, D f(x) = 1e308 and the input 1e308
    # sum past the largest double in the corrector's right-hand side
    (scalar_spec(I=(Const(1e308),), D=((Const(100.0),),)),
     TimeScale.real_interval(-1.0, 1.0, 0.01), "state became non-finite", 0.01),
    (scalar_spec(I=(Const(math.inf),)), TimeScale.integer_lattice(),
     "fixed-point iteration became non-finite", 1.0),
    # on the unit lattice the implicit update contracts only when the live
    # coefficient mass stays below one; alpha = 2.5 forces divergence
    (scalar_spec(alpha=(Const(2.5),)), TimeScale.integer_lattice(),
     "fixed-point iteration did not contract (residual 3.906e+01 from initial "
     "2.500e+00, ratio 2.5 per pass); the implicit update diverges at this gap size", 1.0),
    # alpha = 0.9 contracts by 0.9 per pass: four passes shrink the residual
    # by 0.729, not the half the check asks for
    (scalar_spec(alpha=(Const(0.9),)), TimeScale.integer_lattice(),
     "fixed-point iteration did not contract (residual 6.561e-01 from initial "
     "9.000e-01, ratio 0.9 per pass); it contracts too slowly for 4 corrector passes", 1.0),
], ids=["predictor", "state", "fixed-point", "contraction", "slow-contraction"])
def test_step_failures_name_their_check_and_time(spec, ts, message, t):
    # RuntimeWarnings are errors here, so the checks must see inf and nan
    # iterates without numpy warning on them first
    with pytest.raises(StepFailureError) as exc:
        simulate(spec, flat_history(x0=1.0), ts, t_end=5.0)
    assert exc.value.t == pytest.approx(t, abs=1e-12)
    assert str(exc.value) == f"step to t={exc.value.t!r} failed: {message}"


def test_the_reference_model_without_leak_delay_contracts_too_slowly_on_Z():
    # the soundness corpus's eta0-Z case: the iteration converges, at about
    # 0.83 per pass, so the refusal must not call it divergent
    spec = test_soundness_corpus._without_leak_delay()
    with pytest.raises(StepFailureError) as exc:
        simulate(spec, history_pairs()["trig"][0], TimeScale.integer_lattice(), t_end=200.0)
    assert str(exc.value) == (
        "step to t=1.0 failed: fixed-point iteration did not contract (residual 9.529e-02 "
        "from initial 1.642e-01, ratio 0.834 per pass); it contracts too slowly for 4 "
        "corrector passes")


def test_prefix_integrals_are_running_sums_of_panel_masses():
    # Recomputed from V alone: the trapezoid of f(x) on dense panels, its
    # right-end atom on scattered ones, and f(slope) constant over each panel.
    hist, _ = history_pairs()["trig"]
    engine = simulator._Engine(two_neuron_spec(), hist, test_golden.HYBRID, 120.0, 0.0, 4)
    engine.run()
    n, V, width, dense = engine.n, engine.V, engine.width[1:], engine.dense[1:]
    masses = np.vstack((width * np.where(dense, 0.5 * (V[:n, :-1] + V[:n, 1:]), V[:n, 1:]),
                        width * V[n:, 1:]))
    prefix = np.concatenate((np.zeros((2 * n, 1)), np.cumsum(masses, axis=1)), axis=1)
    np.testing.assert_allclose(engine.F, prefix, rtol=0.0, atol=1e-12)


def test_single_corrector_pass_skips_divergence_check():
    spec = scalar_spec(alpha=(Const(2.5),))
    traj = simulate(spec, flat_history(x0=1.0), TimeScale.integer_lattice(),
                    t_end=3.0, corrector_iters=1)
    assert np.all(np.isfinite(traj.x))


# Chunk budgets that give the smallest chunks (two grid points), chunks of a
# few points and the default ones: a chunk records its first row that
# reaches below the grid, and that row must raise when a step uses it,
# wherever chunks break.
CHUNK_BUDGETS = [1, 10_000, pytest.param(simulator.CHUNK_BYTES, id="default")]


@pytest.mark.parametrize("chunk_bytes", CHUNK_BUDGETS)
def test_delay_reaching_past_history_raises(monkeypatch, chunk_bytes):
    # The first stepped row, t = 1, looks up x at 1 - 5 = -4; the history
    # reaches back to -1.
    monkeypatch.setattr(simulator, "CHUNK_BYTES", chunk_bytes)
    spec = scalar_spec(tau=((Const(5.0),),))
    with pytest.raises(HistoryUnderflowError, match=r"lookup at t=-4\.0 reaches below"):
        simulate(spec, flat_history(window=1.5), TimeScale.integer_lattice(),
                 t_end=3.0)


def test_a_dense_run_steps_from_a_one_point_history():
    # Every delay is 0 and the window is 0, so the history is the single
    # point t0 = 0 at the grid start: x' = -x and S' = -S/2 from 1.
    zero = ((Const(0.0),),)
    spec = scalar_spec(alpha=(Const(1.0),), varsigma=(Const(0.0),), c=(Const(0.5),),
                       tau=zero, sigma_d=zero, zeta=zero)
    traj = simulate(spec, flat_history(x0=1.0, s0=1.0, window=0.0),
                    TimeScale.real_interval(0.0, 1.0, 0.01), t_end=1.0)
    assert traj.start_index == 0
    k = live_index(traj, 1.0)
    assert traj.x[0, k] == pytest.approx(math.exp(-1.0), abs=1e-5)
    assert traj.s[0, k] == pytest.approx(math.exp(-0.5), abs=1e-5)


def test_a_delay_below_a_one_point_history_names_the_underflow():
    # tau = 1 looks up x at 0 - 1 from the grid start, below the window 0
    with pytest.raises(HistoryUnderflowError,
                       match=r"lookup at t=-1\.0 reaches below the recorded range"):
        simulate(scalar_spec(), flat_history(window=0.0),
                 TimeScale.real_interval(0.0, 1.0, 0.01), t_end=1.0)


# Every one of the reference model's 16 delays equals 1 at each integer t,
# although its overrides bound them by 0.02-0.08: how far back a run looks is
# what its lookups realise, not a delay bound.
_REACH_R = TimeScale.real_interval(-2.0, 10.0, 0.01)


def test_the_reference_run_looks_back_further_than_its_delay_bounds():
    # the dense first step evaluates the dynamics at t = 0, where the delays
    # look up t = -1.0, below the window 0.08 of the largest bound
    hist = dataclasses.replace(history_pairs()["trig"][0], window=0.08)
    with pytest.raises(HistoryUnderflowError, match=r"lookup at t=-1\.0 reaches below"):
        simulate(two_neuron_spec(), hist, _REACH_R, t_end=10.0)


@pytest.mark.parametrize("ts, window", [(_REACH_R, 1.0), (TimeScale.integer_lattice(), 0.08)],
                         ids=["R-window-1", "Z-window-0.08"])
def test_a_window_covering_the_realised_reach_runs(ts, window):
    # On the unit lattice the first step is to t = 1, whose delays of 1 look
    # up t = 0, the one point of a window 0.08
    hist = dataclasses.replace(history_pairs()["trig"][0], window=window)
    traj = simulate(two_neuron_spec(), hist, ts, t_end=10.0)
    assert np.isfinite(traj.Y).all() and np.isfinite(traj.dY).all()


@pytest.mark.parametrize("chunk_bytes", CHUNK_BUDGETS)
def test_rows_that_are_never_stepped_do_not_raise_underflow(monkeypatch, chunk_bytes):
    monkeypatch.setattr(simulator, "CHUNK_BYTES", chunk_bytes)
    # On the lattice the first step is scattered, so the start row's plan is
    # never used: tau = 5 exp(-10 t) reaches t - tau = -5 there, below the
    # history's -1, but only 2.3e-4 back from t = 1.
    tau = Scale(5.0, Exp(Affine(-10.0, 0.0, TimeVar())))
    spec = scalar_spec(tau=((tau,),), E=(Const(0.3),))
    traj = simulate(spec, flat_history(x0=0.5, window=1.5), TimeScale.integer_lattice(),
                    t_end=3.0)
    assert np.all(np.isfinite(traj.x))
    # On a dense grid the first step compiles the plan of the rows after it.
    # tau = 5 exp(10 t - 0.15) reaches below the history's -5 from t = 0.02
    # on, but an infinite input makes the step to t = 0.01 fail first.
    tau = Scale(5.0, Exp(Affine(10.0, -0.15, TimeVar())))
    spec = scalar_spec(tau=((tau,),), I=(Const(math.inf),))
    with pytest.raises(StepFailureError, match="predictor became non-finite"):
        simulate(spec, flat_history(x0=0.5, window=5.0),
                 TimeScale.real_interval(-5.0, 1.0, 0.01), t_end=1.0)


def _assert_chunking_keeps_bits(monkeypatch, spec, hist, scale, chunk_bytes):
    ts, t_end = {
        "Z": (TimeScale.integer_lattice(), 50.0),
        "R": (TimeScale.real_interval(-2.0, 20.0, 0.01), 20.0),
        "hybrid": (test_golden.HYBRID, 120.0),
    }[scale]
    default = simulate(spec, hist, ts, t_end)
    monkeypatch.setattr(simulator, "CHUNK_BYTES", chunk_bytes)
    chunked = simulate(spec, hist, ts, t_end)
    for name in ("times", "x", "s", "dx", "ds"):
        assert np.array_equal(getattr(chunked, name), getattr(default, name)), name


@pytest.mark.parametrize("chunk_bytes", [1, 10_000])
@pytest.mark.parametrize("scale", ["Z", "R", "hybrid"])
def test_chunking_never_changes_results(monkeypatch, scale, chunk_bytes):
    # For two neurons a chunk budgets 1,864 bytes per grid point (table 352,
    # located queries 512, plan 1,000): these budgets give chunks of 2 and 5
    # grid points, against 281 by default, so chunks break every few steps.
    hist, _ = history_pairs()["trig"]
    _assert_chunking_keeps_bits(monkeypatch, two_neuron_spec(), hist, scale, chunk_bytes)


@pytest.mark.parametrize("chunk_bytes", [1, 10_000])
@pytest.mark.parametrize("scale", ["Z", "R", "hybrid"])
def test_chunking_never_changes_results_with_per_neuron_activations(monkeypatch, scale,
                                                                    chunk_bytes):
    # The lags' two ends ride the plan's one gather, and the lagged
    # activation splits their sums per neuron: tanh, sin_half and identity.
    # Three neurons budget 3,752 bytes per grid point: both budgets give
    # chunks of 2 grid points, against 139 by default.
    _assert_chunking_keeps_bits(monkeypatch, _three_activation_spec(),
                                _three_neuron_history(), scale, chunk_bytes)


# ---------------------------------------------------------------------------
# constructor validation
# ---------------------------------------------------------------------------


def test_rejects_bad_arguments():
    spec = scalar_spec()
    hist = flat_history()
    ts = TimeScale.integer_lattice()
    two_wide = HistorySpec(stm=(Const(0.0),) * 2, stm_slope=(Const(0.0),) * 2,
                           ltm=(Const(0.0),) * 2, ltm_slope=(Const(0.0),) * 2,
                           window=1.0)
    with pytest.raises(ValueError, match="history width"):
        simulate(spec, two_wide, ts, t_end=5.0)
    with pytest.raises(ValueError, match="corrector_iters"):
        simulate(spec, hist, ts, t_end=5.0, corrector_iters=0)
    with pytest.raises(ValueError, match="t_end"):
        simulate(spec, hist, ts, t_end=0.0)


def test_start_time_must_sit_on_the_scale():
    # refused before any step: a time-scale error, not a stepping failure
    with pytest.raises(TimeScaleError, match="0.25 is not a point of the time scale"):
        simulate(scalar_spec(), flat_history(), TimeScale.integer_lattice(),
                 t_end=5.0, t0=0.25)


@pytest.mark.parametrize("ts, message", [
    # 0.0 is a point of R, but the run's grid, whose panel edges sit at
    # -2 + 1.5 k, steps over it
    (TimeScale.real_interval(-2.0, 10.0, 1.5),
     r"start time 0.0 lies inside the panel \(-0.5, 1\) of the run's grid"),
    (TimeScale([LatticePiece(-1.0, 0.0, 1.0)]), r"no live points fall in \(t0, t_end\]"),
    (TimeScale([LatticePiece(-1.0, -1.0, 1.0)]), "the time scale holds too few points in range"),
], ids=["R-panel", "no-live-points", "one-point"])
def test_refusals_before_any_step_are_time_scale_errors(ts, message):
    with pytest.raises(TimeScaleError, match=message):
        simulate(scalar_spec(), flat_history(), ts, t_end=5.0)


def test_history_component_lengths_must_agree():
    with pytest.raises(ValueError, match="share one length"):
        HistorySpec(stm=(Const(0.0),), stm_slope=(Const(0.0),) * 2,
                    ltm=(Const(0.0),), ltm_slope=(Const(0.0),), window=1.0)


# ---------------------------------------------------------------------------
# trajectory lookups and export
# ---------------------------------------------------------------------------


def test_value_interpolates_on_dense_panels():
    spec = scalar_spec(alpha=(Const(0.0),), I=(Const(1.0),))
    ts = TimeScale.real_interval(-1.0, 2.0, 0.5)
    traj = simulate(spec, flat_history(), ts, t_end=2.0)
    k = live_index(traj, 1.0)
    mid = 0.5 * (traj.x[0, k] + traj.x[0, k + 1])
    assert traj.value(0, 1.25) == pytest.approx(mid, abs=1e-12)
    assert traj.slope(0, 1.25) == pytest.approx(
        (traj.x[0, k + 1] - traj.x[0, k]) / 0.5, abs=1e-12)


def test_value_snaps_down_between_lattice_points():
    spec = scalar_spec(alpha=(Const(0.0),), I=(Const(1.0),))
    traj = simulate(spec, flat_history(), TimeScale.integer_lattice(),
                    t_end=5.0)
    k = live_index(traj, 2.0)
    assert traj.value(0, 2.75) == traj.x[0, k]


def test_array_lookups_equal_scalar_lookups_on_hybrid_scale():
    hist, _ = history_pairs()["trig"]
    traj = simulate(two_neuron_spec(), hist, test_golden.HYBRID, t_end=40.0)
    first = float(traj.times[0])
    # the first history point (first panel's quotient), a dense interior point, a
    # point inside a scattered panel, two points in gaps, a lattice point
    u = np.array([first, 25.003, 10.02, 20.3, 30.5, 12.0])
    for index in range(2 * traj.n):
        for lookup in (traj.value, traj.slope):
            got = lookup(index, u)
            scalars = [lookup(index, float(q)) for q in u]
            assert all(type(v) is float for v in scalars)
            assert np.array_equal(got, scalars)
            assert np.array_equal(lookup(index, u.reshape(2, 3)), got.reshape(2, 3))
    assert traj.slope(0, first) == traj.dx[0, 0]
    with pytest.raises(ValueError, match="beyond the trajectory end"):
        traj.value(0, np.array([1.0, 40.5]))
    with pytest.raises(HistoryUnderflowError):
        traj.slope(0, np.array([1.0, first - 0.5]))


def test_lookups_refuse_state_indices_outside_both_layers():
    traj = simulate(two_neuron_spec(), history_pairs()["trig"][0],
                    TimeScale.integer_lattice(), t_end=3.0)
    for index in (-1, 2 * traj.n, 5):
        for lookup in (traj.value, traj.slope):
            with pytest.raises(IndexError, match="outside 0..3"):
                lookup(index, 2.0)


@pytest.mark.parametrize("u", [1.0 - 5e-10, 1.0 + 5e-10, 2.35 - 9e-10, 0.973])
def test_reference_snap_matches_the_committed_grid_lookup(u):
    # network.rhs snaps window starts with ts.snap_down; the stepper reads
    # the same query through _Located on the grid that ts.panels builds
    ts = test_golden.HYBRID
    times, _, dense = ts.panels(-2.0, 20.0)
    lo = simulator._Located(times, dense, np.array([u])).lo
    assert ts.snap_down(u) == times[lo[0]]


def test_csv_export_layout():
    spec = two_neuron_spec()
    hist, _ = history_pairs()["trig"]
    traj = simulate(spec, hist, TimeScale.integer_lattice(), t_end=3.0)
    assert traj.csv_header() == "t,x_1,x_2,S_1,S_2,dx_1,dx_2,dS_1,dS_2"
    buf = io.StringIO()
    traj.to_csv(buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == traj.csv_header()
    assert len(lines) == 1 + len(traj.times)
    first = [float(v) for v in lines[1].split(",")]
    assert first[0] == traj.times[0]
    assert len(first) == 9


# ---------------------------------------------------------------------------
# norms and distances
# ---------------------------------------------------------------------------


def test_history_norm_zero_for_identical_segments():
    hist, _ = history_pairs()["trig"]
    assert history_norm(hist, hist, TimeScale.integer_lattice()) == 0.0
    # a sup over no component series is 0
    empty = HistorySpec(stm=(), stm_slope=(), ltm=(), ltm_slope=(), window=1.0)
    assert history_norm(empty, empty, TimeScale.integer_lattice()) == 0.0


def ramp_history(x0=0.2, rate=0.7, s0=0.1, window=1.0):
    """A short-term state through ``x0`` at t0 with slope ``rate``, a
    constant long-term one, and declared slopes of 0."""
    zero = Const(0.0)
    return HistorySpec(stm=(Add(Const(x0), Scale(rate, TimeVar())),), stm_slope=(zero,),
                       ltm=(Const(s0),), ltm_slope=(zero,), window=window)


def test_history_norm_sees_constant_offsets_and_slopes():
    ts = TimeScale.integer_lattice()
    a = flat_history(x0=0.2, s0=0.1)
    b = flat_history(x0=-0.3, s0=0.1)
    assert history_norm(a, b, ts) == pytest.approx(0.5, abs=1e-12)
    # on [-0.5, 0] the ramp is within 0.35 of a, and its quotients are 0.7
    quarter = TimeScale.integer_lattice(spacing=0.25)
    short = dataclasses.replace(a, window=0.5)
    assert history_norm(short, ramp_history(window=0.5), quarter) == pytest.approx(0.7, abs=1e-12)
    # a declared slope is not a slope of the states
    declared = dataclasses.replace(a, stm_slope=(Const(0.7),))
    assert history_norm(a, declared, ts) == 0.0


def test_history_norm_accepts_scalar_only_callables():
    # one callable rejects arrays, the other ignores their shape; both are
    # evaluated point by point and give the norm of the expression version
    def rejects_arrays(v, rate=0.0):
        return lambda r: v + rate * r + 0.0 * math.cos(r)

    def ignores_shape(v):
        return lambda r: v

    const = ramp_history()
    plain = HistorySpec(stm=(rejects_arrays(0.2, 0.7),), stm_slope=(ignores_shape(0.0),),
                        ltm=(ignores_shape(0.1),), ltm_slope=(rejects_arrays(0.0),),
                        window=1.0)
    other = flat_history(x0=-0.3, s0=0.1)
    for ts in (TimeScale.integer_lattice(), TimeScale.real_interval(-2.0, 5.0, 0.1)):
        assert history_norm(plain, other, ts) == history_norm(const, other, ts)
        # the ramp's quotients, 0.7, exceed its largest state gap, 0.5
        assert history_norm(plain, other, ts) == pytest.approx(0.7, abs=1e-12)


def test_history_norm_reads_each_history_on_its_own_window():
    # hb keeps window 1.0 and a state that is only its own on [-1, 0]: below
    # -1 it is data no run with this history fills or reads
    ha, hb = history_pairs()["trig"]
    short = dataclasses.replace(hb, window=1.0,
                                stm=(lambda s: -0.1 - 10.0 * min(0.0, s + 1.0), *hb.stm[1:]))
    aligned = dataclasses.replace(ha, window=1.0)
    dense = TimeScale.real_interval(-2.0, 10.0, 0.01)
    with pytest.raises(ValueError, match="history windows do not span the same scale points"):
        history_norm(ha, short, dense)
    assert history_norm(aligned, short, dense) == pytest.approx(0.35, abs=1e-12)
    # on Z both windows span the nodes -1 and 0
    lattice = TimeScale.integer_lattice()
    assert history_norm(ha, short, lattice) == history_norm(aligned, short, lattice)
    assert history_norm(ha, short, lattice) == pytest.approx(0.35, abs=1e-12)


def test_history_norm_refuses_histories_of_different_widths():
    two = history_pairs()["trig"][0]
    with pytest.raises(ValueError, match="histories must have the same width"):
        history_norm(flat_history(), two, TimeScale.integer_lattice())


def test_history_norm_refuses_a_window_without_scale_points():
    # [0.5 - 0.2, 0.5] holds no integer
    hist = flat_history(window=0.2)
    with pytest.raises(ValueError, match="no scale points fall in the history window"):
        history_norm(hist, hist, TimeScale.integer_lattice(), t0=0.5)


# the reference pairs' runs on a lattice, a dense grid and the hybrid scale
HISTORY_SCALES = [
    pytest.param(TimeScale.integer_lattice(), id="Z"),
    pytest.param(TimeScale.real_interval(-2.0, 20.0, 0.01), id="R"),
    pytest.param(test_golden.HYBRID, id="hybrid"),
]


@pytest.mark.parametrize("pair", ["trig", "steady"])
@pytest.mark.parametrize("ts", HISTORY_SCALES)
def test_history_norm_is_the_sup_gap_of_the_runs_history_columns(ts, pair):
    # Both sides of the certified inequality come from one evaluation of the
    # histories and one norm: gap_0 is the norm of the runs' own history
    # columns, and distance(t0) is that norm at their last column.
    ha, hb = history_pairs()[pair]
    ta, tb = (simulate(two_neuron_spec(), h, ts, t_end=1.0) for h in (ha, hb))
    head = slice(None, ta.start_index + 1)
    gaps = simulator._sup_gap((ta.Y[:, head], ta.dY[:, head]), (tb.Y[:, head], tb.dY[:, head]))
    assert history_norm(ha, hb, ts) == float(gaps.max())
    assert distance_series(ta, tb)[1][0] == gaps[-1]
    # the norm family by family, as the four state arrays hold it
    per_family = max(float(np.abs(fa[:, head] - fb[:, head]).max())
                     for fa, fb in ((ta.x, tb.x), (ta.s, tb.s), (ta.dx, tb.dx), (ta.ds, tb.ds)))
    assert history_norm(ha, hb, ts) == per_family


@pytest.mark.parametrize("pair", ["trig", "steady"])
@pytest.mark.parametrize("ts", HISTORY_SCALES)
def test_history_slopes_are_the_backward_quotients_of_the_states(ts, pair):
    # One slope rule for a history: its dY columns are the backward
    # quotients of its Y columns on the grid's times, the first point takes
    # the first panel's, and Trajectory.slope reads the same numbers
    for hist in history_pairs()[pair]:
        traj = simulate(two_neuron_spec(), hist, ts, t_end=1.0)
        k0 = traj.start_index
        Y, times = traj.Y[:, :k0 + 1], traj.times[:k0 + 1]
        quotients = (Y[:, 1:] - Y[:, :-1]) / (times[1:] - times[:-1])
        assert k0 >= 1
        assert np.array_equal(traj.dY[:, 1:k0 + 1], quotients)
        assert np.array_equal(traj.dY[:, 0], quotients[:, 0])
        for i in range(2 * traj.n):
            assert np.array_equal(traj.slope(i, times), traj.dY[i, :k0 + 1])


def test_a_one_point_history_has_slope_zero():
    # A one-point history has no panel, so its slope is 0 by rule: the
    # run's first dY column, and the norm, see the states alone.  The run's
    # polyline has a first panel, so Trajectory.slope at t0 reads that.
    zero = ((Const(0.0),),)
    spec = scalar_spec(varsigma=(Const(0.0),), tau=zero, sigma_d=zero, zeta=zero)
    ts = TimeScale.real_interval(0.0, 1.0, 0.01)
    ramp, flat = ramp_history(window=0.0), flat_history(x0=0.5, s0=0.1, window=0.0)
    ta, tb = (simulate(spec, h, ts, t_end=1.0) for h in (ramp, flat))
    assert ta.start_index == 0
    assert np.array_equal(ta.dY[:, 0], [0.0, 0.0])
    assert history_norm(ramp, flat, ts) == pytest.approx(0.3, abs=1e-12)
    assert distance_series(ta, tb)[1][0] == history_norm(ramp, flat, ts)
    assert ta.slope(0, 0.0) == (ta.x[0, 1] - ta.x[0, 0]) / (ta.times[1] - ta.times[0])


def test_trajectory_state_arrays_are_views_of_its_blocks():
    traj = simulate(two_neuron_spec(), history_pairs()["trig"][0], TimeScale.integer_lattice(),
                    t_end=5.0)
    n = traj.n
    assert traj.Y.shape == traj.dY.shape == (2 * n, len(traj.times))
    for name, block, rows in (("x", traj.Y, slice(None, n)), ("s", traj.Y, slice(n, None)),
                              ("dx", traj.dY, slice(None, n)), ("ds", traj.dY, slice(n, None))):
        view = getattr(traj, name)
        assert view.base is block and np.array_equal(view, block[rows])
        with pytest.raises(AttributeError):
            setattr(traj, name, view)


def test_history_window_below_the_scale_minimum_is_clipped_by_the_scale():
    # The scale starts at -1, so a window of 1.5 from t0 = 0 reaches below it
    # and must give exactly what the window of 1.0 gives.
    spec = two_neuron_spec()
    ha, hb = history_pairs()["trig"]
    for ts in (TimeScale([LatticePiece(-1.0, 10.0, 0.5)]),
               TimeScale.real_interval(-1.0, 5.0, 0.05)):
        runs = []
        for window in (1.5, 1.0):
            a, b = (dataclasses.replace(h, window=window) for h in (ha, hb))
            runs.append((simulate(spec, a, ts, t_end=4.0), history_norm(a, b, ts)))
        (wide, wide_norm), (exact, exact_norm) = runs
        assert wide.times[0] == -1.0
        assert wide_norm == exact_norm
        for name in ("times", "x", "s", "dx", "ds"):
            assert np.array_equal(getattr(wide, name), getattr(exact, name))
        assert wide.start_index == exact.start_index


def test_initial_distance_equals_largest_component_gap():
    spec = two_neuron_spec()
    ha, hb = history_pairs()["trig"]
    ts = TimeScale.integer_lattice()
    ta = simulate(spec, ha, ts, t_end=10.0)
    tb = simulate(spec, hb, ts, t_end=10.0)
    # at the start time the states are still the declared history values;
    # the widest gap there is |0.25 cos 0 - (-0.1)| = 0.35
    times, dist = distance_series(ta, tb)
    assert times[0] == 0.0
    assert dist[0] == pytest.approx(0.35, abs=1e-12)
    assert np.all(dist >= 0.0)


def test_distance_requires_shared_grid():
    spec = scalar_spec()
    hist = flat_history()
    a = simulate(spec, hist, TimeScale.integer_lattice(), t_end=5.0)
    b = simulate(spec, hist, TimeScale.integer_lattice(), t_end=6.0)
    with pytest.raises(ValueError, match="grid"):
        distance_series(a, b)


def test_distance_requires_a_shared_start_index():
    # both runs cover R(-2, 10, 0.01) from -1.5 to 10, but start at t0 = 0
    # and at t0 = 0.5
    spec = scalar_spec()
    ts = TimeScale.real_interval(-2.0, 10.0, 0.01)
    a = simulate(spec, flat_history(window=1.5), ts, t_end=10.0, t0=0.0)
    b = simulate(spec, flat_history(window=2.0), ts, t_end=10.0, t0=0.5)
    np.testing.assert_array_equal(a.times, b.times)
    assert a.start_index != b.start_index
    with pytest.raises(ValueError, match="trajectories do not share a start index"):
        distance_series(a, b)

"""Stepping engine: closed forms, an independent recurrence, and API contracts."""

import dataclasses
import io
import math

import numpy as np
import pytest

import lattice_oracle
import test_golden
from chronoscale import simulator
from chronoscale.benchmark import history_pairs, two_neuron_spec
from chronoscale.coeffs import Affine, Const, Exp, Scale, TimeVar
from chronoscale.network import ACTIVATIONS, NetworkSpec, rhs_ltm, rhs_stm
from chronoscale.simulator import (
    HistorySpec,
    HistoryUnderflowError,
    SimulationError,
    StepFailureError,
    Trajectory,
    distance_series,
    history_norm,
    simulate,
)
from chronoscale.timescale import LatticePiece, TimeScale


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


def test_matches_independent_lattice_recurrence():
    spec = two_neuron_spec()
    hist, _ = history_pairs()["trig"]
    traj = simulate(spec, hist, TimeScale.integer_lattice(), t_end=50.0,
                    corrector_iters=8)
    oracle = lattice_oracle.run(50, corrector_iters=8)
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


def test_matches_recurrence_with_multi_panel_delays():
    # The reference delays stay below one lattice panel, so distributed sums
    # hold only the live atom.  Widening every delay makes those sums span
    # committed and history atoms, exercising the prefix bookkeeping.
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


def _delayed_decay_exact(t, a=0.8):
    # x'(t) = -a x(t-1), x == 1 on [-1, 0]:
    # x(t) = sum_k (-a)^k ((t-k+1)_+)^k / k!  (method of steps)
    total = 0.0
    k = 0
    while t - k + 1 > 0:
        total += (-a) ** k * (t - k + 1) ** k / math.factorial(k)
        k += 1
    return total


def test_dense_step_halving_is_second_order():
    spec = scalar_spec(alpha=(Const(0.0),), Dtau=((Const(-0.8),),))
    errs = {}
    for h in (0.05, 0.025):
        ts = TimeScale.real_interval(-1.0, 3.0, h)
        traj = simulate(spec, flat_history(x0=1.0), ts, t_end=3.0)
        live = range(traj.start_index, len(traj.times))
        errs[h] = max(abs(traj.x[0, k] - _delayed_decay_exact(traj.times[k]))
                      for k in live)
    assert errs[0.05] / errs[0.025] >= 1.8


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
    acc = traj.accessor()
    worst = 0.0
    for k in range(traj.start_index + 1, len(traj.times)):
        t = float(traj.times[k])
        for i in range(2):
            worst = max(worst,
                        abs(traj.dx[i, k] - rhs_stm(spec, acc, ts, t, i)),
                        abs(traj.ds[i, k] - rhs_ltm(spec, acc, ts, t, i)))
    assert worst < 1e-12


def _worst_dense_trace_gap(spec):
    hist, _ = history_pairs()["trig"]
    ts = TimeScale.real_interval(-2.0, 3.0, 0.01)
    traj = simulate(spec, hist, ts, t_end=3.0)
    acc = traj.accessor()
    worst = 0.0
    for k in range(traj.start_index + 1, len(traj.times), 7):
        t = float(traj.times[k])
        for i in range(2):
            worst = max(worst,
                        abs(traj.dx[i, k] - rhs_stm(spec, acc, ts, t, i)),
                        abs(traj.ds[i, k] - rhs_ltm(spec, acc, ts, t, i)))
    return worst


def test_dense_derivative_trace_matches_standalone_evaluator():
    assert _worst_dense_trace_gap(two_neuron_spec()) < 1e-12


def test_per_neuron_activations_match_standalone_evaluator():
    spec = dataclasses.replace(
        two_neuron_spec(), activations=(ACTIVATIONS["identity"], ACTIVATIONS["sin_half"]))
    assert _worst_dense_trace_gap(spec) < 1e-12


def test_rerun_is_bit_identical():
    spec = two_neuron_spec()
    hist, _ = history_pairs()["trig"]
    ts = TimeScale.real_interval(-2.0, 2.0, 0.01)
    a = simulate(spec, hist, ts, t_end=2.0)
    b = simulate(spec, hist, ts, t_end=2.0)
    for fa, fb in ((a.x, b.x), (a.s, b.s), (a.dx, b.dx), (a.ds, b.ds),
                   (a.times, b.times)):
        assert np.array_equal(fa, fb)


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


def test_divergent_fixed_point_raises_with_timestamp():
    # On the unit lattice the implicit update contracts only when the live
    # coefficient mass stays below one; alpha = 2.5 forces divergence.
    spec = scalar_spec(alpha=(Const(2.5),))
    with pytest.raises(StepFailureError) as exc:
        simulate(spec, flat_history(x0=1.0), TimeScale.integer_lattice(),
                 t_end=5.0)
    assert exc.value.t == 1.0


def test_single_corrector_pass_skips_divergence_check():
    spec = scalar_spec(alpha=(Const(2.5),))
    traj = simulate(spec, flat_history(x0=1.0), TimeScale.integer_lattice(),
                    t_end=3.0, corrector_iters=1)
    assert np.all(np.isfinite(traj.x))


def test_delay_reaching_past_history_raises():
    # The first stepped row, t = 1, looks up x at 1 - 5 = -4; the history
    # reaches back to -1.
    spec = scalar_spec(tau=((Const(5.0),),))
    with pytest.raises(HistoryUnderflowError, match=r"lookup at t=-4\.0 reaches below"):
        simulate(spec, flat_history(window=1.5), TimeScale.integer_lattice(),
                 t_end=3.0)


def test_rows_that_are_never_stepped_do_not_raise_underflow():
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


@pytest.mark.parametrize("table_bytes", [1, 10_000])
@pytest.mark.parametrize("scale", ["Z", "R", "hybrid"])
def test_blocking_never_changes_results(monkeypatch, scale, table_bytes):
    # For two neurons a table row is 352 bytes: these budgets give blocks of
    # 2 and 28 grid points and plan chunks of 1 and 3, against 1,489 and 186
    # by default, so blocks and chunks break every few steps.
    ts, t_end = {
        "Z": (TimeScale.integer_lattice(), 50.0),
        "R": (TimeScale.real_interval(-2.0, 20.0, 0.01), 20.0),
        "hybrid": (test_golden.HYBRID, 120.0),
    }[scale]
    hist, _ = history_pairs()["trig"]
    default = simulate(two_neuron_spec(), hist, ts, t_end)
    monkeypatch.setattr(simulator, "TABLE_BYTES", table_bytes)
    blocked = simulate(two_neuron_spec(), hist, ts, t_end)
    for name in ("times", "x", "s", "dx", "ds"):
        assert np.array_equal(getattr(blocked, name), getattr(default, name)), name


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
    with pytest.raises(SimulationError, match="not a point"):
        simulate(scalar_spec(), flat_history(), TimeScale.integer_lattice(),
                 t_end=5.0, t0=0.25)


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


def test_history_norm_sees_constant_offsets_and_slopes():
    ts = TimeScale.integer_lattice()
    a = flat_history(x0=0.2, s0=0.1)
    b = flat_history(x0=-0.3, s0=0.1)
    assert history_norm(a, b, ts) == pytest.approx(0.5, abs=1e-12)
    c = HistorySpec(stm=(Const(0.2),), stm_slope=(Const(0.7),),
                    ltm=(Const(0.1),), ltm_slope=(Const(0.0),), window=1.0)
    assert history_norm(a, c, ts) == pytest.approx(0.7, abs=1e-12)


def test_history_norm_accepts_scalar_only_callables():
    # one callable rejects arrays, the other ignores their shape; both are
    # evaluated point by point and give the norm of the Const version
    def rejects_arrays(v):
        return lambda r: v + 0.0 * math.cos(r)

    def ignores_shape(v):
        return lambda r: v

    const = HistorySpec(stm=(Const(0.2),), stm_slope=(Const(0.7),),
                        ltm=(Const(0.1),), ltm_slope=(Const(0.0),), window=1.0)
    plain = HistorySpec(stm=(ignores_shape(0.2),), stm_slope=(rejects_arrays(0.7),),
                        ltm=(rejects_arrays(0.1),), ltm_slope=(ignores_shape(0.0),),
                        window=1.0)
    other = flat_history(x0=-0.3, s0=0.1)
    for ts in (TimeScale.integer_lattice(), TimeScale.real_interval(-2.0, 5.0, 0.1)):
        assert history_norm(plain, other, ts) == history_norm(const, other, ts)
        assert history_norm(plain, other, ts) == pytest.approx(0.7, abs=1e-12)


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

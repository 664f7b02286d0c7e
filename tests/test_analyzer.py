"""Decay fitting, envelope verification, and translation-number scans."""

import io
import math

import numpy as np
import pytest

from chronoscale.analyzer import (
    decay_fit,
    scan_translation_numbers,
    verify_bound,
    write_stability_csv,
)
from chronoscale.benchmark import history_pairs, two_neuron_spec
from chronoscale.coeffs import Const
from chronoscale.conditions import Certificate, certify
from chronoscale.network import ACTIVATIONS, NetworkSpec
from chronoscale.simulator import HistorySpec, HistoryUnderflowError, Trajectory, simulate
from chronoscale.timescale import DensePiece, LatticePiece, RegressivityError, TimeScale


def stub_cert(lam, big_m):
    return Certificate(lam=lam, big_m=big_m, nu_sup=1.0, cap=1.0,
                       include_delayed_feedback=True, h_at_lambda=None,
                       witness="test stub")


def leak_spec(a=0.5):
    """dx = -a x(t) on the unit lattice => contraction factor 1/(1+a)."""
    zero = Const(0.0)
    zmat = ((zero,),)
    return NetworkSpec(
        n=1, alpha=(Const(a),), c=(Const(a),),
        D=zmat, Dtau=zmat, Dbar=zmat, Dtil=zmat,
        B=(zero,), E=(zero,), I=(zero,), J=(zero,),
        eta=(zero,), varsigma=(Const(1.0),),
        tau=((Const(1.0),),), sigma_d=((Const(1.0),),), zeta=((Const(1.0),),),
        activations=(ACTIVATIONS["identity"],),
    )


def flat_history(x0=0.0, s0=0.0):
    zero = Const(0.0)
    return HistorySpec(stm=(Const(x0),), stm_slope=(zero,),
                       ltm=(Const(s0),), ltm_slope=(zero,), window=1.0)


def leak_pair(x0a=0.8, x0b=0.2, t_end=40.0):
    ts = TimeScale.integer_lattice()
    spec = leak_spec()
    ha, hb = flat_history(x0=x0a), flat_history(x0=x0b)
    ta = simulate(spec, ha, ts, t_end=t_end, corrector_iters=40)
    tb = simulate(spec, hb, ts, t_end=t_end, corrector_iters=40)
    return ts, ha, hb, ta, tb


# ---------------------------------------------------------------------------
# decay_fit
# ---------------------------------------------------------------------------


def test_decay_fit_recovers_exact_exponential():
    t = np.linspace(0.0, 20.0, 201)
    rate, r2 = decay_fit(t, 0.7 * np.exp(-0.3 * t))
    assert rate == pytest.approx(0.3, abs=1e-9)
    assert r2 == pytest.approx(1.0, abs=1e-12)


def test_decay_fit_constant_series_has_zero_rate():
    t = np.linspace(0.0, 10.0, 101)
    rate, r2 = decay_fit(t, np.full_like(t, 0.5))
    assert rate == pytest.approx(0.0, abs=1e-9)
    assert r2 == 1.0


def test_decay_fit_identical_pair_sentinel():
    t = np.linspace(0.0, 10.0, 50)
    rate, r2 = decay_fit(t, np.full_like(t, 1e-16))
    assert rate == math.inf and r2 == 1.0


def test_decay_fit_needs_ten_positive_samples():
    t = np.linspace(0.0, 10.0, 40)
    d = np.zeros_like(t)
    d[-5:] = 1e-3
    with pytest.raises(ValueError, match="at least 10"):
        decay_fit(t, d)


def test_decay_fit_ignores_rounding_noise():
    # past t ~ 92 the series is below 1e-12, where a converged pair is rounding noise
    t = np.arange(0.0, 201.0)
    noise = np.random.default_rng(0).uniform(0.0, 1e-17, t.shape)
    rate, _ = decay_fit(t, np.exp(-0.3 * t) + noise)
    assert rate == pytest.approx(0.3, abs=1e-4)


def test_decay_fit_burn_in_drops_transient():
    # the transient fills the first 20% of the horizon, which the burn-in drops
    t = np.linspace(0.0, 20.0, 201)
    d = np.where(t < 4.0, 1.0, np.exp(-0.3 * t))
    rate, r2 = decay_fit(t, d)
    assert rate == pytest.approx(0.3, abs=1e-9)
    assert r2 == pytest.approx(1.0, abs=1e-12)


def test_decay_fit_lattice_envelope_rate_is_log_complement():
    # On the unit lattice the certified envelope steps down by (1 - lam)
    # per atom, so its continuous-time fitted rate is -log(1 - lam) > lam.
    lam = 0.3
    t = np.arange(0.0, 101.0)
    rate, _ = decay_fit(t, (1.0 - lam) ** t)
    assert rate == pytest.approx(-math.log1p(-lam), abs=1e-6)
    assert rate > lam


# ---------------------------------------------------------------------------
# verify_bound
# ---------------------------------------------------------------------------


def test_verify_bound_accepts_true_contraction():
    # distance decays by 1/(1+a) = 2/3 per step; a certificate with
    # lam = 0.2 (per-step factor 0.8) and M = 2 must hold everywhere.
    ts, ha, hb, ta, tb = leak_pair()
    report = verify_bound(ta, tb, ha, hb, stub_cert(0.2, 2.0), ts)
    assert not report.violated
    assert report.history_gap == pytest.approx(0.6, abs=1e-12)
    assert report.bound_margin > 0.0
    assert 0.0 < report.min_relative_margin <= 1.0
    assert report.lambda_fit == pytest.approx(-math.log(2.0 / 3.0), rel=1e-3)
    assert report.r_squared > 0.999


def test_verify_bound_flags_overtight_rate():
    # per-step factor 0.5 undershoots the true 2/3 immediately
    ts, ha, hb, ta, tb = leak_pair(t_end=20.0)
    report = verify_bound(ta, tb, ha, hb, stub_cert(0.5, 1.0), ts)
    assert report.violated
    assert report.bound_margin < 0.0


def test_verify_bound_margin_grows_with_m():
    ts, ha, hb, ta, tb = leak_pair(t_end=20.0)
    small = verify_bound(ta, tb, ha, hb, stub_cert(0.2, 1.5), ts)
    large = verify_bound(ta, tb, ha, hb, stub_cert(0.2, 3.0), ts)
    assert large.bound_margin > small.bound_margin
    assert not large.violated


def test_verify_bound_identical_histories_never_violate():
    ts = TimeScale.integer_lattice()
    spec = leak_spec()
    hist = flat_history(x0=0.5)
    ta = simulate(spec, hist, ts, t_end=15.0)
    tb = simulate(spec, hist, ts, t_end=15.0)
    report = verify_bound(ta, tb, hist, hist, stub_cert(0.2, 2.0), ts)
    assert not report.violated
    assert report.history_gap == 0.0
    assert report.lambda_fit == math.inf


def test_verify_bound_refuses_a_scale_other_than_the_runs():
    # the runs step on Z; the envelope would be laid on the points of 0.5 Z
    _, ha, hb, ta, tb = leak_pair(t_end=10.0)
    with pytest.raises(ValueError, match="envelope grid does not match the trajectory grid"):
        verify_bound(ta, tb, ha, hb, stub_cert(0.2, 2.0),
                     TimeScale.real_interval(-2.0, 10.0, 0.5))


def test_verify_bound_rejects_inadmissible_rate():
    # 1 - nu * lam <= 0 on the unit lattice when lam >= 1
    ts, ha, hb, ta, tb = leak_pair(t_end=10.0)
    with pytest.raises(RegressivityError):
        verify_bound(ta, tb, ha, hb, stub_cert(1.2, 2.0), ts)


def hybrid_leak_pair():
    """The leak network on lattice [-2, 3] (0.5) u dense [4, 6] u lattice [7, 9] (0.25)."""
    ts = TimeScale([LatticePiece(-2.0, 3.0, 0.5), DensePiece(4.0, 6.0, 0.1),
                    LatticePiece(7.0, 9.0, 0.25)])
    spec = leak_spec()
    ha, hb = flat_history(x0=0.8), flat_history(x0=0.2)
    return (ts, ha, hb, simulate(spec, ha, ts, t_end=9.0, corrector_iters=40),
            simulate(spec, hb, ts, t_end=9.0, corrector_iters=40))


def test_verify_bound_envelope_on_a_hybrid_scale():
    # e_{circleminus lam}(t, 0): a factor 1 - lam*nu per left-scattered point
    # (lattice nodes and the first node after each gap) and e^{-lam * length}
    # over the dense panels
    ts, ha, hb, ta, tb = hybrid_leak_pair()
    lam, big_m = 0.3, 2.0
    report = verify_bound(ta, tb, ha, hb, stub_cert(lam, big_m), ts)
    t = report.times
    nu = np.diff(t)
    dense = (t[1:] > 4.0 + 1e-9) & (t[1:] <= 6.0 + 1e-9)
    atoms = np.concatenate([[1.0], np.cumprod(np.where(dense, 1.0, 1.0 - lam * nu))])
    dense_length = np.concatenate([[0.0], np.cumsum(np.where(dense, nu, 0.0))])
    assert t[0] == 0.0 and t[-1] == pytest.approx(9.0)
    assert report.history_gap == pytest.approx(0.6, abs=1e-12)
    expected = big_m * report.history_gap * atoms * np.exp(-lam * dense_length)
    np.testing.assert_allclose(report.bounds, expected, rtol=1e-12, atol=0.0)


def test_inadmissible_rate_names_the_first_offending_point():
    # lam = 1.5 keeps 1 - 0.5 lam > 0 on the first lattice; the gap of
    # width 1 before t = 4 is the first point with 1 - nu lam <= 0
    ts, ha, hb, ta, tb = hybrid_leak_pair()
    with pytest.raises(RegressivityError) as info:
        verify_bound(ta, tb, ha, hb, stub_cert(1.5, 2.0), ts)
    assert info.value.at_time == pytest.approx(4.0, abs=1e-12)


def test_stability_csv_layout():
    ts, ha, hb, ta, tb = leak_pair(t_end=15.0)
    report = verify_bound(ta, tb, ha, hb, stub_cert(0.2, 2.0), ts)
    buf = io.StringIO()
    write_stability_csv(report, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "t,distance,bound,margin"
    assert len(lines) == 1 + report.n_points
    row = [float(v) for v in lines[1].split(",")]
    assert row[3] == pytest.approx(row[2] - row[1], abs=1e-9)


def test_report_text_mentions_verdict():
    ts, ha, hb, ta, tb = leak_pair(t_end=15.0)
    report = verify_bound(ta, tb, ha, hb, stub_cert(0.2, 2.0), ts)
    text = report.to_text()
    assert "violated false" in text
    assert "lambda_fit" in text
    assert report.fit_refused is None and "fit_refused" not in text


def test_refused_fit_carries_its_reason():
    # the reference trig pair on 4Z, t_end = 40: 11 points, 9 after burn-in
    spec = two_neuron_spec()
    ha, hb = history_pairs()["trig"]
    ts = TimeScale.integer_lattice(4.0)
    _, cert = certify(spec, ts, (0.45,), include_delayed_feedback=False)
    ta, tb = (simulate(spec, h, ts, 40.0) for h in (ha, hb))
    report = verify_bound(ta, tb, ha, hb, cert, ts)
    assert report.n_points == 11 and math.isnan(report.lambda_fit)
    reason = "need at least 10 distances above 1e-12 after burn-in, have 9"
    assert report.fit_refused == reason
    lines = report.to_text().splitlines()
    assert lines[lines.index(f"r_squared {report.r_squared!r}") + 1] == f"fit_refused {reason}"


# ---------------------------------------------------------------------------
# translation diagnostics
# ---------------------------------------------------------------------------


def series_run(ts, t_end, f):
    """A one-neuron run on the grid of ``ts`` over [0, t_end] whose
    short-term state is ``f`` and whose other series are zero."""
    times, _, dense = ts.panels(0.0, t_end)
    Y = np.zeros((2, len(times)))
    Y[0] = f(times)
    return Trajectory(ts=ts, times=times, start_index=0, Y=Y, dY=np.zeros_like(Y),
                      _panel_dense=dense)


def sine_run():
    return series_run(TimeScale.real_interval(0.0, 50.0, 0.01), 50.0, np.sin)


def test_scan_zero_shift_is_exact():
    scan = scan_translation_numbers(sine_run(), 0, epsilon=0.0, tau_range=(0.0, 0.0),
                                    window=(5.0, 20.0))
    assert list(scan.errors) == [0.0] and list(scan.hits) == [0.0]


def test_scan_full_period_is_tiny():
    two_pi = 2.0 * math.pi
    scan = scan_translation_numbers(sine_run(), 0, epsilon=1e-4, tau_range=(two_pi, two_pi),
                                    window=(5.0, 20.0))
    assert 0.0 < scan.errors[0] < 1e-4


def test_scan_finds_near_periods_of_sine():
    traj = series_run(TimeScale.real_interval(0.0, 150.0, 0.01), 150.0, np.sin)
    scan = scan_translation_numbers(traj, 0, epsilon=0.06,
                                    tau_range=(1.0, 30.0), tau_step=0.1)
    assert len(scan.hits) > 0
    two_pi = 2.0 * math.pi
    for h in scan.hits:
        k = round(h / two_pi)
        assert k >= 1 and abs(h - k * two_pi) < 0.1
    assert scan.max_gap == pytest.approx(two_pi, abs=0.3)


def test_scan_constant_series_hits_everywhere():
    traj = series_run(TimeScale.real_interval(0.0, 100.0, 0.1), 100.0,
                      lambda t: np.full_like(t, 2.5))
    scan = scan_translation_numbers(traj, 0, epsilon=1e-9,
                                    tau_range=(1.0, 20.0), tau_step=0.5)
    assert len(scan.hits) == len(scan.taus)
    assert scan.max_gap == pytest.approx(0.5, abs=1e-9)
    assert "hits" in "\n".join(scan.summary_lines())


def test_scan_rejects_shift_range_beyond_series():
    traj = series_run(TimeScale.real_interval(0.0, 10.0, 0.1), 10.0, np.sin)
    with pytest.raises(ValueError, match="too short"):
        scan_translation_numbers(traj, 0, epsilon=0.1, tau_range=(1.0, 50.0))


def test_translation_error_requires_coverage():
    traj = series_run(TimeScale.real_interval(0.0, 10.0, 0.1), 10.0, np.sin)
    with pytest.raises(ValueError, match="beyond the trajectory end"):
        scan_translation_numbers(traj, 0, epsilon=0.1, tau_range=(8.0, 8.0),
                                 window=(0.0, 5.0))
    with pytest.raises(HistoryUnderflowError):
        scan_translation_numbers(traj, 0, epsilon=0.1, tau_range=(-1.0, -1.0),
                                 window=(0.0, 5.0))


_SHAPES = "times and distances must be 1-d arrays of equal length"


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: decay_fit([0.0, 1.0], [1.0]), _SHAPES, id="fit-lengths"),
    pytest.param(lambda: decay_fit(np.ones((2, 2)), np.ones((2, 2))), _SHAPES, id="fit-2d"),
    pytest.param(lambda: decay_fit([], []), "empty distance series", id="fit-empty"),
    pytest.param(lambda: scan_translation_numbers(sine_run(), 0, 0.1, (1.0, 2.0), tau_step=0.0),
                 "tau_step must be positive", id="scan-step"),
    pytest.param(lambda: scan_translation_numbers(sine_run(), 0, 0.1, (2.0, 1.0)),
                 "tau_range must be ordered", id="scan-range"),
    pytest.param(lambda: scan_translation_numbers(sine_run(), 0, 0.1, (1.0, 2.0),
                                                  window=(60.0, 70.0)),
                 "no samples fall inside the window", id="scan-window"),
])
def test_malformed_analysis_inputs_are_refused(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


def test_scan_on_the_unit_lattice_takes_only_shifts_that_stay_on_it():
    traj = series_run(TimeScale.integer_lattice(), 60.0, lambda t: np.cos(np.pi * t))
    scan = scan_translation_numbers(traj, 0, epsilon=1e-12, tau_range=(1.0, 10.0),
                                    tau_step=1.0)
    assert list(scan.hits) == [2.0, 4.0, 6.0, 8.0, 10.0]
    with pytest.raises(ValueError, match=r"shift tau=1\.5 moves t=0\.0 off the time scale"):
        scan_translation_numbers(traj, 0, epsilon=1e-12, tau_range=(1.0, 10.0),
                                 tau_step=0.5)

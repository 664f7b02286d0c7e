"""End-to-end acceptance checks.

Each test pins one externally meaningful guarantee: reproduction of the
two-neuron reference tables, the exponential identity suite on three
scales, agreement with an independently coded recurrence, the stepping
order, the stability experiment with its decay certificate, the
translation-number diagnostic, and the exported names.

Known quirks of the reference table (kept deliberately, and asserted
against honest arithmetic here): the second slope-family bound ``Pbar[1]``
and the two contraction ratios derived from it, and the derived overshoot
constant ``big_m``, are internally inconsistent with the table's own inputs
by about ``1e-3`` (``INCONSISTENT_CELLS``).  Those four cells are
strict-xfail rather than compared at a looser tolerance: the suite fails
loudly if the implementation ever starts agreeing with them, since that
would mean the computation drifted away from its stated inputs.
"""

import dataclasses
import importlib
import math
import pkgutil
import time

import numpy as np
import pytest

import chronoscale
import lattice_oracle
from chronoscale.analyzer import scan_translation_numbers, verify_bound
from chronoscale.benchmark import history_pairs, two_neuron_spec
from chronoscale.coeffs import Const
from chronoscale.conditions import activation_offsets, check_H3, compute_bounds, find_lambda
from chronoscale.network import ACTIVATIONS, NetworkSpec
from chronoscale.simulator import HistorySpec, simulate
from chronoscale.timescale import RegressivityError, TimeScale, circle_minus

L_ONES = (1.0, 1.0)

# Calibration targets for the reference model, quoted to their published
# precision (four decimals unless noted).  ``r_ratios`` lists, in order:
# plain and amplified short-term solvability ratios for neurons 1 and 2,
# then the plain long-term ratios, then the amplified long-term ratios.
# ``kappa_ratios`` lists the contraction counterparts in the order: plain
# short-term, amplified short-term, plain long-term, amplified long-term.
REFERENCE = {
    "r": 0.45,
    "P": (0.2004, 0.2107),
    "Q": (0.1097, 0.1208),
    "Pbar": (0.1676, 0.1471),
    "Qbar": (0.2216, 0.2240),
    "r_ratios": (0.2252, 0.4031, 0.2702, 0.4269,
                 0.3919, 0.4474, 0.2234, 0.2461),
    "kappa_ratios": (0.1883, 0.1886, 0.3371, 0.2980,
                     0.7914, 0.8296, 0.4511, 0.4563),
    "max_r_ratio": 0.4474,
    "kappa": 0.8296,
    "big_m": 5.31,
    "big_m_tol": 0.01,
}

# the published table rounds to 5e-4; the tests compare at this tolerance
REFERENCE_TOL = 5e-4

# reference-table cells that are inconsistent with the table's own inputs
# (honest recomputation differs by ~1e-3; see the module docstring)
INCONSISTENT_CELLS = {"Pbar[1]", "kappa_ratios[1]", "kappa_ratios[3]", "big_m"}

XFAIL_CELL = pytest.mark.xfail(
    strict=True,
    reason="reference cell inconsistent with the table's own inputs; "
           "honest recomputation differs by ~1e-3")


# ---------------------------------------------------------------------------
# 1 + 2: reference solvability table and ratio tables
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def solvability_report():
    start = time.perf_counter()
    spec = two_neuron_spec()
    report = check_H3(compute_bounds(spec), L_ONES, activation_offsets(spec),
                      REFERENCE["r"], include_delayed_feedback=False)
    assert time.perf_counter() - start < 1.0
    return report


def _table_cells():
    cells = []
    for name in ("P", "Q", "Pbar", "Qbar"):
        for i in range(2):
            cells.append((f"{name}[{i}]", REFERENCE[name][i],
                          lambda rep, a=name, k=i: float(getattr(rep, a)[k])))
    cells.append(("max_r_ratio", REFERENCE["max_r_ratio"],
                  lambda rep: rep.max_r_expr))
    cells.append(("kappa", REFERENCE["kappa"], lambda rep: rep.kappa))
    return cells


def _ratio_cells():
    cells = []
    for name in ("r_ratios", "kappa_ratios"):
        for i in range(8):
            cells.append((f"{name}[{i}]", REFERENCE[name][i],
                          lambda rep, a=name, k=i: float(getattr(rep, a)[k])))
    return cells


def _params(cells):
    return [pytest.param(published, getter, id=label,
                         marks=[XFAIL_CELL] if label in INCONSISTENT_CELLS else [])
            for label, published, getter in cells]


@pytest.mark.parametrize("published,getter", _params(_table_cells()))
def test_reference_solvability_cell(solvability_report, published, getter):
    assert getter(solvability_report) == pytest.approx(published, abs=REFERENCE_TOL)


@pytest.mark.parametrize("published,getter", _params(_ratio_cells()))
def test_reference_ratio_cell(solvability_report, published, getter):
    assert getter(solvability_report) == pytest.approx(published, abs=REFERENCE_TOL)


def test_reference_radius_is_feasible(solvability_report):
    assert solvability_report.feasible
    assert solvability_report.max_r_expr <= REFERENCE["r"]
    assert solvability_report.kappa < 1.0


# ---------------------------------------------------------------------------
# 3: exponential identity suite on three scales
# ---------------------------------------------------------------------------

_SCALES = {
    "lattice": dict(ts=lambda: TimeScale.integer_lattice(), span=(0.0, 20.0),
                    a_mag=(0.25, 2.0), a_hi=0.8, b_max=0.15, w_max=3.0,
                    seed=20260101),
    "dense": dict(ts=lambda: TimeScale.real_interval(0.0, 8.0, 0.01),
                  span=(0.0, 8.0), a_mag=(0.25, 0.7), a_hi=0.7, b_max=0.02,
                  w_max=0.5, seed=20260102),
    "union": dict(ts=lambda: TimeScale.union_of_intervals([(0.0, 1.0), (2.0, 3.0)],
                                                          step=0.01),
                  span=(0.0, 3.0), a_mag=(0.25, 0.7), a_hi=0.7, b_max=0.02,
                  w_max=0.5, seed=20260103),
}


def _rel(lhs, rhs):
    return abs(lhs - rhs) / max(abs(rhs), 1e-300)


def _draw_rate(rng, cfg):
    lo, hi = cfg["a_mag"]
    while True:
        a = rng.uniform(-hi, cfg["a_hi"])
        if lo <= abs(a):
            break
    b = rng.uniform(0.0, cfg["b_max"])
    w = rng.uniform(0.0, cfg["w_max"])
    return lambda t: a + b * math.sin(w * t)


@pytest.mark.parametrize("scale_name", sorted(_SCALES))
def test_exponential_identities(scale_name):
    cfg = _SCALES[scale_name]
    ts = cfg["ts"]()
    lo, hi = cfg["span"]
    g = ts.grid(lo, hi)
    rng = np.random.default_rng(cfg["seed"])
    # Differentiation points: left-scattered points have an exact backward
    # quotient; left-dense points need forward room for a central difference
    # (at the right end of a dense stretch only a one-sided estimate exists).
    diff_pts = [float(u) for u in g[1:]
                if ts.graininess(float(u)) > 0.0 or ts.contains(float(u) + 2e-4)]
    start = time.perf_counter()
    for _ in range(100):
        p = _draw_rate(rng, cfg)
        assert ts.is_positively_regressive(p, lo, hi)
        r, s, t = np.sort(g[rng.choice(len(g), size=3, replace=False)])
        t_v = diff_pts[rng.integers(len(diff_pts))]
        r, s, t = float(r), float(s), float(t)

        # unit rate and empty window
        assert _rel(ts.nabla_exp(lambda u: 0.0, t, r), 1.0) < 1e-12
        assert _rel(ts.nabla_exp(p, t, t), 1.0) < 1e-12

        # stepping the base point back across one panel multiplies by the
        # panel's regressivity factor
        e_ts = ts.nabla_exp(p, t, r)
        rho = ts.backward_jump(t)
        nu = ts.graininess(t)
        lhs = ts.nabla_exp(p, rho, r)
        assert _rel(lhs, (1.0 - nu * p(t)) * e_ts) < (1e-10 if nu > 0 else 1e-6)

        # swap of the endpoints inverts; negation via the graininess circle
        # group gives the same inverse
        e_st = ts.nabla_exp(p, s, t)
        assert _rel(ts.nabla_exp(p, t, s) * e_st, 1.0) < 1e-10
        p_neg = lambda u: circle_minus(p(u), ts.graininess(u))
        assert _rel(ts.nabla_exp(p_neg, s, t), ts.nabla_exp(p, t, s)) < 1e-10

        # two-leg product collapses to the direct window
        assert _rel(ts.nabla_exp(p, t, s) * ts.nabla_exp(p, s, r),
                    ts.nabla_exp(p, t, r)) < 1e-10

        # the exponential solves its own dynamic equation
        nu_v = ts.graininess(t_v)
        deriv = ts.nabla_derivative(lambda u: ts.nabla_exp(p, u, lo), t_v)
        expect = p(t_v) * ts.nabla_exp(p, t_v, lo)
        assert _rel(deriv, expect) < (1e-10 if nu_v > 0 else 1e-6)
    assert time.perf_counter() - start < 10.0 / len(_SCALES)


# ---------------------------------------------------------------------------
# 4: independently coded recurrence, unit lattice, 50 steps
# ---------------------------------------------------------------------------


def test_simulator_matches_independent_recurrence():
    spec = two_neuron_spec()
    hist, _ = history_pairs()["trig"]
    traj = simulate(spec, hist, TimeScale.integer_lattice(), t_end=50.0,
                    corrector_iters=8)
    oracle = lattice_oracle.run(50, corrector_iters=8)
    worst = 0.0
    for step in range(1, 51):
        k = int(np.argmin(np.abs(traj.times - step)))
        for i in range(2):
            worst = max(worst,
                        abs(traj.x[i, k] - oracle["x"][step][i]),
                        abs(traj.s[i, k] - oracle["s"][step][i]),
                        abs(traj.dx[i, k] - oracle["dx"][step][i]),
                        abs(traj.ds[i, k] - oracle["ds"][step][i]))
    assert worst <= 1e-12


# ---------------------------------------------------------------------------
# 5: convergence order on a delayed scalar problem
# ---------------------------------------------------------------------------


def _delayed_decay_exact(t, a=0.8):
    total, k = 0.0, 0
    while t - k + 1 > 0:
        total += (-a) ** k * (t - k + 1) ** k / math.factorial(k)
        k += 1
    return total


def test_step_halving_reduces_error_second_order():
    zero = Const(0.0)
    zm = ((zero,),)
    spec = NetworkSpec(
        n=1, alpha=(zero,), c=(Const(0.4),),
        D=zm, Dtau=((Const(-0.8),),), Dbar=zm, Dtil=zm,
        B=(zero,), E=(zero,), I=(zero,), J=(zero,),
        eta=(zero,), varsigma=(Const(1.0),),
        tau=((Const(1.0),),), sigma_d=((Const(1.0),),), zeta=((Const(1.0),),),
        activations=(ACTIVATIONS["identity"],),
    )
    hist = HistorySpec(stm=(Const(1.0),), stm_slope=(zero,),
                       ltm=(zero,), ltm_slope=(zero,), window=1.0)
    errs = {}
    for h in (0.05, 0.025):
        ts = TimeScale.real_interval(-1.0, 3.0, h)
        traj = simulate(spec, hist, ts, t_end=3.0)
        live = range(traj.start_index, len(traj.times))
        errs[h] = max(abs(traj.x[0, k] - _delayed_decay_exact(float(traj.times[k])))
                      for k in live)
    assert errs[0.05] / errs[0.025] >= 3.5


# ---------------------------------------------------------------------------
# 6 + 7: decay certificate and the stability experiment
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def stability_experiment():
    start = time.perf_counter()
    spec = two_neuron_spec()
    pairs = history_pairs()
    scales = {
        "lattice": (TimeScale.integer_lattice(), 200.0),
        "dense": (TimeScale.real_interval(-2.0, 50.0, 0.01), 50.0),
    }
    certs, reports, runs = {}, {}, {}
    for name, (ts, t_end) in scales.items():
        certs[name] = find_lambda(compute_bounds(spec, ts), L_ONES)
        for pair_name, (ha, hb) in pairs.items():
            ta = simulate(spec, ha, ts, t_end)
            tb = simulate(spec, hb, ts, t_end)
            runs[(name, pair_name)] = (ta, tb, ha, hb, ts)
            reports[(name, pair_name)] = verify_bound(
                ta, tb, ha, hb, certs[name], ts)
    elapsed = time.perf_counter() - start
    return certs, reports, runs, elapsed


@pytest.mark.parametrize("scale_name", ["lattice", "dense"])
@pytest.mark.parametrize("pair_name", ["trig", "steady"])
def test_distance_decays_within_certified_envelope(stability_experiment,
                                                   scale_name, pair_name):
    _, reports, _, elapsed = stability_experiment
    assert elapsed < 30.0
    report = reports[(scale_name, pair_name)]
    assert report.lambda_fit > 0.0
    assert report.r_squared > 0.9
    assert not report.violated
    assert report.min_relative_margin >= -1e-6


def test_overridden_rate_reports_violation(stability_experiment):
    certs, _, runs, _ = stability_experiment
    ta, tb, ha, hb, ts = runs[("dense", "trig")]
    inflated = dataclasses.replace(certs["dense"], lam=100.0 * certs["dense"].lam)
    report = verify_bound(ta, tb, ha, hb, inflated, ts)
    assert report.violated
    # on the unit lattice a 100x rate is not even admissible: the envelope's
    # per-atom factor 1 - nu*lambda turns negative
    ta, tb, ha, hb, ts = runs[("lattice", "trig")]
    bad = dataclasses.replace(certs["lattice"], lam=100.0 * certs["lattice"].lam)
    with pytest.raises(RegressivityError):
        verify_bound(ta, tb, ha, hb, bad, ts)


def test_certificate_well_posedness(stability_experiment):
    certs, _, _, _ = stability_experiment
    for cert in certs.values():
        assert cert.lam > 0.0
        assert cert.big_m > 1.0
        assert cert.h_at_lambda.min() > 0.0
        assert cert.witness


@XFAIL_CELL
def test_certificate_overshoot_matches_reference_cell():
    cert = find_lambda(compute_bounds(two_neuron_spec()), L_ONES,
                       include_delayed_feedback=False)
    assert cert.big_m == pytest.approx(REFERENCE["big_m"],
                                       abs=REFERENCE["big_m_tol"])


# ---------------------------------------------------------------------------
# 8: translation-number diagnostic on the dense trajectory
# ---------------------------------------------------------------------------


def test_translation_scan_finds_relatively_dense_shifts():
    spec = two_neuron_spec()
    hist, _ = history_pairs()["trig"]
    ts = TimeScale.real_interval(-2.0, 150.0, 0.02)
    traj = simulate(spec, hist, ts, t_end=150.0)
    times = traj.times[traj.start_index:]
    values = traj.x[0, traj.start_index:]
    settled = values[times >= 20.0]
    amplitude = 0.5 * (float(settled.max()) - float(settled.min()))
    scan = scan_translation_numbers(traj, 0,
                                    epsilon=0.05 * amplitude,
                                    tau_range=(1.0, 100.0), tau_step=0.1,
                                    window=(20.0, 50.0))
    assert len(scan.hits) >= 2
    assert scan.max_gap < 50.0


def test_every_exported_name_resolves():
    modules = [chronoscale] + [
        importlib.import_module(f"chronoscale.{info.name}")
        for info in pkgutil.iter_modules(chronoscale.__path__) if info.name != "__main__"]
    for module in modules:
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert missing == [], module.__name__

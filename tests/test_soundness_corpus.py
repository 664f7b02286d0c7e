"""Soundness corpus: every issued certificate must hold on the run it certifies.

One table of cases, each a model with the reference model's ``trig``
history pair, the radius ``r = 0.45`` and ``include_delayed_feedback=False``
(the settings of ``chronoscale example``) on one time scale, spelled as a
``[timescale]`` description.  The models are the reference model, a variant
of it, and three seeded two-neuron ``wide-net`` networks read from
``tests/data`` (written once by ``serialize_config`` from the benchmark's
``wide_net_spec(2, v)``, so that the corpus does not move when that
generator does).  Certificates
come from ``certify``, as the CLI's do.  The property is the one the
certificate promises: either no certificate is issued, or both histories
simulate and ``verify_bound`` finds no violation.  A case that breaks it
today is a strict expected failure whose reason is the finding, so a change
that mends it has to flip the mark.
"""

import dataclasses
from pathlib import Path

import pytest

from chronoscale.analyzer import verify_bound
from chronoscale.benchmark import history_pairs, two_neuron_spec
from chronoscale.coeffs import BoundPair, Const
from chronoscale.conditions import ConditionsError, certify
from chronoscale.config import build_timescale, parse_config
from chronoscale.simulator import StepFailureError, simulate


def _xfail(raises, reason):
    return pytest.mark.xfail(strict=True, raises=raises, reason=reason)


_SNAPPED_LEAK = ("t - eta(t) snaps down to rho(t) on a lattice, so the realised leak "
                 "delay is the spacing while the bounds use eta+ = 0.06")
_WIDE_GAP = "fixed-point correction does not converge across a wide gap"
_DENSE_LEAK = ("nu_sup = 0 on R, so the certificate cannot see the leak map of the dense "
               "step (Heun's step, with the leak query t - eta(t) interpolated in the live "
               "panel), which does not decay at this step")


def _without_leak_delay():
    """The reference model with ``eta.i = const 0`` and ``[bounds] eta.i = 0 0``."""
    spec = two_neuron_spec()
    zero = {f"eta.{i + 1}": BoundPair(0.0, 0.0) for i in range(spec.n)}
    return dataclasses.replace(spec, eta=(Const(0.0),) * spec.n,
                               bound_overrides={**spec.bound_overrides, **zero})


def _wide_net(variant):
    """The seeded two-neuron ``wide-net`` network ``variant``."""
    path = Path(__file__).parent / "data" / f"wide-net-n2-v{variant}.cfg"
    return parse_config(path.read_text(encoding="utf-8")).spec


# (id, model (None: the reference model), [timescale] description, t_end,
# mark or None)
CASES = [
    ("Z", None, {"kind": "Z"}, 200.0, None),
    ("eta0-Z", _without_leak_delay(), {"kind": "Z"}, 200.0,
     _xfail(StepFailureError, "certified with eta = 0 on Z (lambda = 0.0453), then the step "
                              "to t = 1 fails: the fixed-point iteration contracts by about "
                              "0.83 per pass (nu * alpha ~ 0.9), so four passes cannot halve "
                              "its residual")),
    # 2Z and 2.25Z bracket the sign of the snapped leak's factor 1 - h*alpha
    # at 2/alpha+ = 2/0.9 = 2.22, not the verdict: that turns between 2.125Z
    # and 2.2Z, where the factor still contracts
    ("2Z", None, {"kind": "Z", "spacing": "2"}, 40.0, None),
    ("2.125Z", None, {"kind": "Z", "spacing": "2.125"}, 40.375, None),
    ("2.2Z", None, {"kind": "Z", "spacing": "2.2"}, 39.6,
     _xfail(AssertionError, "certificate violated on 2.2Z (lambda = 0.0445), below "
                            "2/alpha+ = 2.22: the snapped leak's factor 1 - h*alpha still "
                            "contracts, but the run decays more slowly than certified")),
    ("2.25Z", None, {"kind": "Z", "spacing": "2.25"}, 40.0,
     _xfail(AssertionError, "certificate violated on 2.25Z: past 2/alpha+ = 2.22 the snapped "
                            "leak's factor 1 - h*alpha no longer contracts")),
    ("4Z", None, {"kind": "Z", "spacing": "4"}, 40.0,
     _xfail(AssertionError, f"certificate violated on 4Z: {_SNAPPED_LEAK}")),
    ("6Z", None, {"kind": "Z", "spacing": "6"}, 60.0,
     _xfail(AssertionError, f"certificate violated on 6Z: {_SNAPPED_LEAK}")),
    ("8Z", None, {"kind": "Z", "spacing": "8"}, 40.0,
     _xfail(StepFailureError, f"certified on 8Z, then a step fails at t = 8: {_SNAPPED_LEAK}")),
    # The dense verdict is not monotone in the step, and the dense step has
    # no threshold: R-h3 holds because every grid time of R(-3, 60, 3) is an
    # integer, and there all four leak delays equal 1.
    ("R-h2.5", None, {"kind": "R", "start": "-2.5", "stop": "60", "step": "2.5"}, 60.0, None),
    ("R-h2.75", None, {"kind": "R", "start": "-2.75", "stop": "60.5", "step": "2.75"}, 60.5,
     _xfail(AssertionError, f"certificate violated on R with step 2.75 (lambda = 0.0460): "
                            f"{_DENSE_LEAK}")),
    ("R-h3", None, {"kind": "R", "start": "-3", "stop": "60", "step": "3"}, 60.0, None),
    ("R-h3.25", None, {"kind": "R", "start": "-3.25", "stop": "61.75", "step": "3.25"}, 61.75,
     _xfail(AssertionError, f"certificate violated on R with step 3.25: {_DENSE_LEAK}")),
    ("gap-2", None, {"kind": "union", "intervals": "-3,30;32,60"}, 60.0, None),
    ("gap-5", None, {"kind": "union", "intervals": "-3,30;35,60"}, 60.0,
     _xfail(StepFailureError, f"a step fails at t = 35: {_WIDE_GAP}")),
    ("gap-20", None, {"kind": "union", "intervals": "-3,110;130,140"}, 140.0,
     _xfail(StepFailureError, f"a step fails at t = 130: {_WIDE_GAP}")),
    # seeded networks with leak delays 0.05 +- 0.01 and no overrides; the
    # certified rates are 0.475, 0.535 and 0.579, the fitted 0.325, 0.237, 0.140
    *((f"wide-Z-v{v}", _wide_net(v), {"kind": "Z"}, 60.0,
       _xfail(AssertionError, f"certificate violated on Z: {_SNAPPED_LEAK}"))
      for v in range(3)),
]


@pytest.mark.parametrize("model, desc, t_end", [
    pytest.param(model, desc, t_end, id=case_id, marks=mark or ())
    for case_id, model, desc, t_end, mark in CASES])
def test_certificate_is_refused_or_holds(model, desc, t_end):
    spec = model or two_neuron_spec()
    hist_a, hist_b = history_pairs()["trig"]
    ts = build_timescale(desc)
    try:
        _, cert = certify(spec, ts, (0.45,), include_delayed_feedback=False)
    except ConditionsError:
        return
    traj_a, traj_b = (simulate(spec, hist, ts, t_end) for hist in (hist_a, hist_b))
    report = verify_bound(traj_a, traj_b, hist_a, hist_b, cert, ts)
    assert not report.violated, report.to_text()

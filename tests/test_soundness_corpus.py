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

A second table and a property hold where the scheme is exact: on hZ with
every delay a constant multiple of h, no lookup snaps, so the scheme is the
paper's equation on T = hZ (its windows' sums are the nabla integrals).
There the certificates are issued as the CLI issues them (default radius
grid, delayed feedback included), and a violation would be a finding about
the theorem or its transcription, not about lookup semantics.
"""

import dataclasses
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chronoscale.analyzer import verify_bound
from chronoscale.benchmark import history_pairs, two_neuron_spec
from chronoscale.coeffs import Add, Affine, BoundPair, Const, Scale, Sin, TimeVar
from chronoscale.conditions import ConditionsError, certify
from chronoscale.config import build_timescale, parse_config
from chronoscale.network import ACTIVATIONS, NetworkSpec
from chronoscale.simulator import HistorySpec, StepFailureError, history_norm, simulate
from chronoscale.timescale import TimeScale


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


@pytest.mark.parametrize("shift", [1.0, 10.0])
def test_declared_history_slopes_cannot_hide_a_violation(shift):
    # The runs read only a history's states, and gap_0 reads the slopes the
    # runs read, so shifting the second history's declared slopes leaves
    # both, and 2.25Z's violation, as they are
    spec = two_neuron_spec()
    hist_a, hist_b = history_pairs()["trig"]
    shifted = dataclasses.replace(hist_b, **{
        name: tuple(Add(Const(shift), e) for e in getattr(hist_b, name))
        for name in ("stm_slope", "ltm_slope")})
    ts = build_timescale({"kind": "Z", "spacing": "2.25"})
    _, cert = certify(spec, ts, (0.45,), include_delayed_feedback=False)
    traj_a, traj_b, traj_s = (simulate(spec, h, ts, 40.0) for h in (hist_a, hist_b, shifted))
    report = verify_bound(traj_a, traj_s, hist_a, shifted, cert, ts)
    assert report.history_gap == pytest.approx(0.35, abs=1e-12)
    assert report.violated
    assert history_norm(hist_a, shifted, ts) == history_norm(hist_a, hist_b, ts)
    assert np.array_equal(traj_s.Y, traj_b.Y) and np.array_equal(traj_s.dY, traj_b.dY)


def _aligned(leak, other):
    """The reference model with constant delays, ``leak`` for every ``eta``
    and ``varsigma`` and ``other`` for every ``tau``, ``sigma_d`` and
    ``zeta``; the delay overrides are removed, so those bounds are
    enclosures, and the other overrides are kept."""
    spec = two_neuron_spec()
    delays = ("eta", "varsigma", "tau", "sigma_d", "zeta")
    kept = {key: pair for key, pair in spec.bound_overrides.items()
            if key.split(".")[0] not in delays}
    grid = ((Const(other),) * spec.n,) * spec.n
    return dataclasses.replace(spec, eta=(Const(leak),) * spec.n, varsigma=(Const(leak),) * spec.n,
                               tau=grid, sigma_d=grid, zeta=grid, bound_overrides=kept)


# (id, spacing h, leak delays, other delays, certified rate, fitted rate over
# certified rate).  The ratio measures how conservative the certificate is
# where the scheme is exact; the smallest relative margins are 0.72, 0.63
# and 0.70.  Each case also verifies with 60 corrector passes (same fitted
# rates), which takes up to 1.5 s a case and is left out of tier-1.
ALIGNED = [
    ("0.25Z", 0.25, 0.0, 0.25, 0.0600, 4.4),
    ("0.1Z", 0.1, 0.1, 0.2, 0.0318, 8.8),
    ("0.05Z", 0.05, 0.05, 0.1, 0.0459, 6.0),
]


@pytest.mark.parametrize("h, leak, other, lam, ratio",
                         [pytest.param(*case[1:], id=case[0]) for case in ALIGNED])
def test_where_no_lookup_snaps_the_reference_certificate_holds(h, leak, other, lam, ratio):
    spec = _aligned(leak, other)
    hist_a, hist_b = history_pairs()["trig"]
    ts = build_timescale({"kind": "Z", "spacing": str(h)})
    _, cert = certify(spec, ts)
    assert cert.lam == pytest.approx(lam, abs=5e-5)
    traj_a, traj_b = (simulate(spec, hist, ts, 60.0) for hist in (hist_a, hist_b))
    report = verify_bound(traj_a, traj_b, hist_a, hist_b, cert, ts)
    assert not report.violated, report.to_text()
    assert report.lambda_fit / cert.lam == pytest.approx(ratio, abs=0.05)


_T = TimeVar()


@st.composite
def aligned_networks(draw):
    """A tanh network of one or two neurons on hZ: every coefficient
    ``add(const, scale(sin))``, with ``h * alpha+ <= 0.5``, and every delay
    a constant 0, h or 2h."""
    n, h = draw(st.integers(1, 2)), draw(st.sampled_from([0.1, 0.25, 0.5]))
    unit = st.floats(0.0, 1.0)

    def wave(base, amp):
        freq = 0.5 + 2.5 * draw(unit)
        return Add(Const(base), Scale(amp, Sin(Affine(freq, 0.0, _T))))

    def rate():  # base + amp <= 1.1 base <= 0.5 / h
        base = 0.5 + (min(2.0, 0.5 / (1.1 * h)) - 0.5) * draw(unit)
        return wave(base, 0.1 * base)

    def vector(top):
        return tuple(wave(0.0, top * draw(unit)) for _ in range(n))

    def matrix(top):
        return tuple(tuple(wave(0.0, top / n * draw(unit)) for _ in range(n)) for _ in range(n))

    def delay():
        return Const(h * draw(st.integers(0, 2)))

    spec = NetworkSpec(
        n=n, alpha=tuple(rate() for _ in range(n)), c=tuple(rate() for _ in range(n)),
        D=matrix(0.1), Dtau=matrix(0.1), Dbar=matrix(0.1), Dtil=matrix(0.1),
        B=vector(0.05), E=vector(0.1), I=vector(0.03), J=vector(0.03),
        eta=tuple(delay() for _ in range(n)), varsigma=tuple(delay() for _ in range(n)),
        **{name: tuple(tuple(delay() for _ in range(n)) for _ in range(n))
           for name in ("tau", "sigma_d", "zeta")},
        activations=(ACTIVATIONS["tanh"],) * n)
    return spec, h


def _small_histories(n):
    """Two histories inside the smallest radius of the default grid, 0.1:
    every state and backward quotient is at most 0.09 in size."""
    zero = (Const(0.0),) * n
    a = HistorySpec(stm=(Const(0.08),) * n, stm_slope=zero,
                    ltm=(Const(-0.06),) * n, ltm_slope=zero, window=1.0)
    b = HistorySpec(stm=(Add(Const(-0.05), Scale(0.04, Sin(_T))),) * n, stm_slope=zero,
                    ltm=(Const(0.05),) * n, ltm_slope=zero, window=1.0)
    return a, b


def _uncoupled():
    """The smallest draw of :func:`aligned_networks`, read from ``tests/data``:
    one neuron with ``alpha = c = 0.5 + 0.05 sin(t/2)``, no coupling and no
    input, every delay 0, on 0.1Z."""
    path = Path(__file__).parent / "data" / "uncoupled-0.1Z.cfg"
    return parse_config(path.read_text(encoding="utf-8")).spec


@pytest.mark.xfail(strict=True, raises=ConditionsError, reason=(
    "M = max_i max(alpha_i- / Pbar_i, c_i- / Qbar_i); with no coupling, no B or E "
    "input and zero leak delays Pbar = Qbar = 0, so M is unbounded and certify "
    "refuses: a finite M for such a network needs its own derivation"))
def test_a_network_without_coupling_is_certified_with_a_finite_m():
    _, cert = certify(_uncoupled(), TimeScale.integer_lattice(0.1))
    assert np.isfinite(cert.big_m)


@settings(max_examples=10, derandomize=True, deadline=None)
@given(aligned_networks())
def test_where_no_lookup_snaps_every_issued_certificate_holds(drawn):
    # Of the 10 examples (measured with hypothesis 6.155.2) 5 are
    # certified and all 5 hold, 2 fail the gate, and 3 have a neuron with
    # Pbar_i = 0 or Qbar_i = 0, so no finite M, which certify refuses (the
    # strict xfail above)
    spec, h = drawn
    ts = TimeScale.integer_lattice(h)
    try:
        _, cert = certify(spec, ts)
    except ConditionsError:
        return
    hist_a, hist_b = _small_histories(spec.n)
    traj_a, traj_b = (simulate(spec, hist, ts, 30.0) for hist in (hist_a, hist_b))
    report = verify_bound(traj_a, traj_b, hist_a, hist_b, cert, ts)
    assert not report.violated, report.to_text()

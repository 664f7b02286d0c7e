"""Workloads of the certify-and-verify benchmark.

Each workload is the call sequence ``chronoscale stability`` performs --
parse the configuration, compute coefficient bounds, gate on a feasible
radius (``search_r``), search the decay certificate (``find_lambda``),
simulate every history, and check the certified envelope on each pair
(``verify_bound``) -- on one fixed model, scale and set of histories:

``ref-dense``
    The reference two-neuron model with its ``trig`` history pair on the
    dense grid R, h = 0.01, [-2, 50]: 5,000 live steps per simulation, two
    simulations, one verification.  The paper's continuum case; per-step
    coefficient evaluation and the dense trapezoid path do most of the work,
    and every bound is an override, so the bounds layer is nearly idle.
``hybrid-ensemble``
    The reference model on a mixed lattice/dense scale with four seeded
    history pairs (eight simulations, four verifications) against one
    certificate.  716 of each simulation's 1,666 steps land on scattered
    points and take the fixed-point corrector (4 right-hand-side evaluations
    each), with snap-down lookups and gap crossings; many histories share
    one spec and one grid, which is where batching histories would pay.
``wide-net``
    A seeded n = 16 tanh network with trigonometric coefficients and no bound
    overrides on a dense grid (h = 0.02, 200 live steps), two seeded
    histories.  Sampled coefficient bounds (1,920 coefficients x 100k points)
    take about half an iteration, and the per-step right-hand side is
    quadratic in n, so enclosures and (n, n) gathers show here.

The seed picks one of ``POOL`` generated draws (``seed % POOL``), so every
run's trajectories can be compared with digests stored in ``golden.json``.
``ref-dense`` has fixed inputs and ignores the seed.
"""

from __future__ import annotations

import dataclasses
import math
import traceback
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

import chronoscale
from chronoscale import benchmark as reference
from chronoscale.coeffs import Add, Affine, BoundPair, CoeffExpr, Const, Cos, Scale, Sin, TimeVar
from chronoscale.config import parse_history_text, serialize_history
from chronoscale.network import ACTIVATIONS, NetworkSpec
from chronoscale.simulator import HistorySpec
from chronoscale.timescale import DensePiece, LatticePiece, TimeScale
from timing import Stopwatch

POOL = 16
DIGEST_TOL = 1e-12  # absolute, the tolerance the lattice oracle tests use
CHECKPOINTS = 4
SWEEP_SIZES = (2, 4, 8, 16)
BALL = 0.45  # histories and gate radius: the reference model's r

HYBRID_PIECES = (
    ("lattice", -2.0, 20.0, 0.05),
    ("dense", 20.5, 30.0, 0.01),
    ("lattice", 31.0, 100.0, 0.5),
    ("lattice", 102.5, 120.0, 0.1),
)

_T = TimeVar()


class GateError(RuntimeError):
    """A generated or configured model has no feasible radius."""


def build_scale(pieces) -> TimeScale:
    """A time scale from ``(kind, start, stop, step)`` tuples."""
    return TimeScale([LatticePiece(a, b, h) if kind == "lattice" else DensePiece(a, b, h)
                      for kind, a, b, h in pieces])


# ---------------------------------------------------------------------------
# seeded generator
# ---------------------------------------------------------------------------


def _trig(rng: np.random.Generator) -> CoeffExpr:
    """sin(freq * t + phase) with a drawn frequency and phase."""
    return Sin(Affine(float(rng.uniform(0.5, 3.0)), float(rng.uniform(0.0, 2 * math.pi)), _T))


def _osc(rng, base: float, amp: float, bounds: dict, key: str):
    """base + amp * sin(...), recording its exact |.| envelope under ``key``."""
    bounds[key] = BoundPair(abs(base) + amp, max(abs(base) - amp, 0.0), "override")
    if base == 0.0:
        return Scale(amp, _trig(rng))
    return Add(Const(base), Scale(amp, _trig(rng)))


def wide_net_spec(n: int, variant: int) -> NetworkSpec:
    """A seeded n-neuron tanh network that passes the solvability gate.

    alpha in [1.7, 1.9] and c in [1.25, 1.45] (each +-0.05), weights of at
    most 0.1/n in each of the four coupling families, leak delays
    0.05 +- 0.01, coupling delays and windows of at most 0.375, inputs of
    amplitude 0.03.  The gate is checked on the exact envelopes of these
    expressions, which bound any sampled envelope from the unsafe side, so a
    draw that passes here passes ``compute_bounds`` too.  Raises
    :class:`GateError` rather than returning a draw that fails.
    """
    rng = np.random.default_rng([variant, n])
    exact: dict[str, BoundPair] = {}

    def vec(name, base_lo, base_hi, amp):
        return tuple(_osc(rng, float(rng.uniform(base_lo, base_hi)), amp, exact,
                          f"{name}.{i + 1}") for i in range(n))

    def weights(name):
        return tuple(tuple(_osc(rng, 0.0, float(rng.uniform(0.02, 0.1)) / n, exact,
                                f"{name}.{i + 1}.{j + 1}") for j in range(n))
                     for i in range(n))

    def delays(name):
        rows = []
        for i in range(n):
            row = []
            for j in range(n):
                base = float(rng.uniform(0.1, 0.3))
                row.append(_osc(rng, base, 0.25 * base, exact, f"{name}.{i + 1}.{j + 1}"))
            rows.append(tuple(row))
        return tuple(rows)

    spec = NetworkSpec(
        n=n,
        alpha=vec("alpha", 1.7, 1.9, 0.05),
        c=vec("c", 1.25, 1.45, 0.05),
        D=weights("D"), Dtau=weights("Dtau"), Dbar=weights("Dbar"), Dtil=weights("Dtil"),
        B=tuple(_osc(rng, 0.0, float(rng.uniform(0.02, 0.05)), exact, f"B.{i + 1}")
                for i in range(n)),
        E=tuple(_osc(rng, 0.0, float(rng.uniform(0.1, 0.2)), exact, f"E.{i + 1}")
            for i in range(n)),
        I=vec("I", 0.0, 0.0, 0.03),
        J=vec("J", 0.0, 0.0, 0.03),
        eta=vec("eta", 0.05, 0.05, 0.01),
        varsigma=vec("varsigma", 0.05, 0.05, 0.01),
        tau=delays("tau"), sigma_d=delays("sigma_d"), zeta=delays("zeta"),
        activations=(ACTIVATIONS["tanh"],) * n,
    )
    gated = dataclasses.replace(spec, bound_overrides=exact)
    bounds = chronoscale.compute_bounds(gated)
    r = chronoscale.search_r(bounds, spec.lipschitz, (0.0,) * n, include_delayed_feedback=True)
    if r is None or r > BALL:
        raise GateError(f"wide-net draw n={n} variant={variant} has no feasible radius "
                        f"<= {BALL} (search_r gave {r})")
    chronoscale.find_lambda(bounds, spec.lipschitz, include_delayed_feedback=True)
    return spec


def seeded_history(rng: np.random.Generator, n: int, window: float) -> HistorySpec:
    """Smooth initial segments a + b cos(w s + p) with value and slope in the ball.

    |a| + |b| <= 0.3 and |b w| <= 0.3, so states and slopes stay inside the
    r = 0.45 ball the gate certifies.
    """
    def component():
        a = float(rng.uniform(-0.1, 0.1))
        b = float(rng.uniform(0.05, 0.2))
        w = float(rng.uniform(0.5, 1.5))
        p = float(rng.uniform(0.0, 2 * math.pi))
        value = Add(Const(a), Scale(b, Cos(Affine(w, p, _T))))
        slope = Scale(-b * w, Sin(Affine(w, p, _T)))
        return value, slope

    stm = [component() for _ in range(n)]
    ltm = [component() for _ in range(n)]
    return HistorySpec(stm=tuple(v for v, _ in stm), stm_slope=tuple(d for _, d in stm),
                       ltm=tuple(v for v, _ in ltm), ltm_slope=tuple(d for _, d in ltm),
                       window=window)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    """Serialized inputs of one workload, as a command-line user holds them.

    ``config`` carries the network, bounds, first history, run options and,
    where the format can express it, the time scale; ``histories`` holds the
    further histories; ``pairs`` indexes the histories that are verified
    against each other (0 is the config's own history).
    """

    name: str
    variant: int
    config: str
    histories: tuple[str, ...]
    pairs: tuple[tuple[int, int], ...]
    pieces: tuple | None = None  # the scale, when the config format cannot hold it


def _ref_config(ts_desc, t_end: float, hist) -> str:
    run = chronoscale.RunOptions(t_end=t_end, r=BALL, include_delayed_feedback=False)
    return chronoscale.serialize_config(reference.two_neuron_spec(), hist, ts_desc, run)


def make_workload(name: str, seed: int) -> Workload:
    """The workload ``name`` with inputs drawn from ``seed``."""
    variant = seed % POOL
    if name == "ref-dense":
        hist_a, hist_b = reference.history_pairs()["trig"]
        ts_desc = {"kind": "R", "start": "-2.0", "stop": "50.0", "step": "0.01"}
        return Workload(name, 0, _ref_config(ts_desc, 50.0, hist_a),
                        (serialize_history(hist_b),), ((0, 1),))
    if name == "hybrid-ensemble":
        rng = np.random.default_rng([variant, 2])
        hists = [seeded_history(rng, 2, 1.5) for _ in range(8)]
        return Workload(name, variant, _ref_config(None, 120.0, hists[0]),
                        tuple(serialize_history(h) for h in hists[1:]),
                        ((0, 1), (2, 3), (4, 5), (6, 7)), HYBRID_PIECES)
    if name == "wide-net":
        n = 16
        spec = wide_net_spec(n, variant)
        rng = np.random.default_rng([variant, n, 1])
        hist_a, hist_b = (seeded_history(rng, n, 0.5) for _ in range(2))
        ts_desc = {"kind": "R", "start": "-1.0", "stop": "4.0", "step": "0.02"}
        config = chronoscale.serialize_config(spec, hist_a, ts_desc,
                                              chronoscale.RunOptions(t_end=4.0))
        return Workload(name, variant, config, (serialize_history(hist_b),),
                        ((0, 1),))
    raise ValueError(f"unknown workload {name!r}")



def sweep_inputs(variant: int):
    """(spec, history, scale, t_end) for the n-sweep: 100 dense steps per size."""
    ts = TimeScale.real_interval(-1.0, 2.0, 0.02)
    out = []
    for n in SWEEP_SIZES:
        rng = np.random.default_rng([variant, n, 1])
        out.append((wide_net_spec(n, variant), seeded_history(rng, n, 0.5), ts, 2.0))
    return out


# ---------------------------------------------------------------------------
# one iteration and its checks
# ---------------------------------------------------------------------------


def plain_ops() -> SimpleNamespace:
    """The program calls an iteration makes, unwrapped."""
    return SimpleNamespace(
        parse_config=chronoscale.parse_config,
        parse_history_text=parse_history_text,
        compute_bounds=chronoscale.compute_bounds,
        search_r=chronoscale.search_r,
        find_lambda=chronoscale.find_lambda,
        simulate=chronoscale.simulate,
        verify_bound=chronoscale.verify_bound,
    )


def live_steps(traj) -> int:
    return len(traj.times) - 1 - traj.start_index


def digest(traj) -> list[float]:
    """Neuron-weighted means of x, s, dx, ds at CHECKPOINTS fixed live indices."""
    k0, last = traj.start_index, len(traj.times) - 1
    ks = [k0 + round(j * (last - k0) / CHECKPOINTS) for j in range(1, CHECKPOINTS + 1)]
    w = np.arange(1, traj.n + 1, dtype=float)
    w /= w.sum()
    return [float(w @ arr[:, k]) for arr in (traj.x, traj.s, traj.dx, traj.ds) for k in ks]


def check_trajectory(traj, golden: dict | None, expected: list[float] | None) -> str | None:
    """None when ``traj`` is finite and matches ``expected``, else why not.

    With ``golden`` None (recording digests) only finiteness is checked.
    """
    for label, arr in (("x", traj.x), ("s", traj.s), ("dx", traj.dx), ("ds", traj.ds)):
        if not np.all(np.isfinite(arr)):
            return f"non-finite {label}"
    if golden is None:
        return None
    if expected is None:
        return "no stored digest"
    err = float(np.max(np.abs(np.array(digest(traj)) - np.asarray(expected))))
    if not err <= DIGEST_TOL:
        return f"digest differs from golden.json by {err:.3e} > {DIGEST_TOL:g}"
    return None


def stored_digests(golden: dict | None, key: str, variant: int, count: int) -> list:
    """The ``count`` digests stored for ``key`` and ``variant``, None where absent."""
    found = (golden or {}).get(key, {}).get(str(variant), [])
    return list(found[:count]) + [None] * (count - len(found))


@dataclass
class Iteration:
    """Timed segments and per-operation outcomes of one workload iteration.

    ``complete`` is false when an operation raised; the timings of such an
    iteration are not reported.
    """

    clock: Stopwatch
    attempted: int
    complete: bool = False
    steps: list = dataclasses.field(default_factory=list)
    failures: list = dataclasses.field(default_factory=list)
    trajectories: list = dataclasses.field(default_factory=list)

    @property
    def run_s(self) -> float:
        return self.clock.total()

    @property
    def sim_rates(self) -> list[float]:
        """Live steps per second of each simulate call."""
        return [n / s for n, s in zip(self.steps, self.clock.column("simulate"))]


def _read_inputs(ops, w: Workload):
    cfg = ops.parse_config(w.config)
    hists = [cfg.history] + [ops.parse_history_text(h, cfg.spec.n) for h in w.histories]
    ts = cfg.timescale if cfg.timescale is not None else build_scale(w.pieces)
    return cfg, hists, ts


def _certify(ops, w: Workload, cfg, ts):
    spec, run = cfg.spec, cfg.run
    bounds = ops.compute_bounds(spec, ts)
    r_grid = (run.r,) if run.r is not None else run.r_grid
    f0 = tuple(float(a.fn(0.0)) for a in spec.activations)
    if ops.search_r(bounds, spec.lipschitz, f0, r_grid, run.include_delayed_feedback) is None:
        raise GateError(f"{w.name}: no radius passes the solvability check")
    return ops.find_lambda(bounds, spec.lipschitz,
                           include_delayed_feedback=run.include_delayed_feedback)


def time_certificates(w: Workload, ops, count: int) -> Stopwatch:
    """``count`` back-to-back certificates on ``w``'s inputs, parsed once."""
    cfg, _, ts = _read_inputs(ops, w)
    clock = Stopwatch()
    for _ in range(count):
        clock.time("certify", _certify, ops, w, cfg, ts)
    return clock


def run_iteration(w: Workload, ops, golden: dict | None) -> Iteration:
    """One closed-loop iteration: inputs in, certificate, simulations, verifications.

    Operations are the certificate, each simulation and each verification.
    An exception fails the operation that raised it and every operation the
    iteration had not yet finished.  Output checks (finite states, digests,
    ``violated``) run after the last segment is timed.
    """
    it = Iteration(Stopwatch(), attempted=1 + len(w.histories) + 1 + len(w.pairs))
    done = 0
    reports = []
    try:
        cfg, hists, ts = it.clock.time("parse", _read_inputs, ops, w)
        cert = it.clock.time("certify", _certify, ops, w, cfg, ts)
        done = 1
        run = cfg.run
        for hist in hists:
            traj = it.clock.time("simulate", ops.simulate, cfg.spec, hist, ts, run.t_end,
                                 t0=run.t0, corrector_iters=run.corrector_iters)
            it.steps.append(live_steps(traj))
            it.trajectories.append(traj)
            done += 1
        for a, b in w.pairs:
            reports.append(it.clock.time("verify", ops.verify_bound, it.trajectories[a],
                                         it.trajectories[b], hists[a], hists[b], cert, ts))
            done += 1
        it.complete = True
    except Exception:  # noqa: BLE001 - every failure is counted and reported
        it.failures.append(traceback.format_exc())
        it.failures.extend(["not reached"] * (it.attempted - done - 1))
    expected = stored_digests(golden, w.name, w.variant, len(it.trajectories))
    for k, traj in enumerate(it.trajectories):
        why = check_trajectory(traj, golden, expected[k])
        if why:
            it.failures.append(f"{w.name} simulation {k}: {why}")
    for (a, b), rep in zip(w.pairs, reports):
        if rep.violated:
            it.failures.append(f"{w.name} pair {a},{b}: certified envelope violated "
                               f"(min margin {rep.bound_margin:.3e})")
    return it

"""Working-set guard for the simulator.

The engine compiles the coefficients and the state-independent part of each
step (located delayed lookups and window weights, folded with the
coefficients into one sparse linear map per grid point) in chunks of grid
points whose table, located queries and plan together stay within a fixed
budget, so the memory one ``simulate`` call needs beyond the trajectory it
returns stays flat in the grid length.  numpy reports its buffers to
tracemalloc, so the measured peak repeats exactly from run to run: 0.98 MiB
for the reference dense run and 0.79 MiB for the 16-neuron run, which
includes building the spec's stacked coefficients on first use (0.95 and
0.76 MiB before a chunk held its panel masses and the right-hand side a
buffer of its terms, 0.97 and 0.84 MiB with a dense coupling matrix per
step and a budget that counted the table alone, 1.11 and 1.13 MiB with a coefficient block holding several
plan chunks, 1.10 and 1.06 MiB before coefficients were evaluated one
expression shape at a time, 0.89 and 0.91 MiB before the plan was
compiled).  A whole-grid coefficient table (1.7 MiB for the reference dense
run, 3.3 MiB for the 16-neuron run) would fail this guard, and a whole-grid
chunk peaks at 9.5 and 17.9 MiB.  Once ``simulate`` returns, the trajectory
holds its own arrays and none of the engine's buffer.
"""

import math
import tracemalloc

import numpy as np

from chronoscale.benchmark import history_pairs, two_neuron_spec
from chronoscale.coeffs import Add, Affine, Const, Scale, Sin, TimeVar
from chronoscale.network import ACTIVATIONS, NetworkSpec
from chronoscale.simulator import HistorySpec, simulate
from chronoscale.timescale import TimeScale

LIMIT_BYTES = 1.5 * 2**20
# what a returned trajectory may hold beyond its arrays: the Python objects around them
SLACK_BYTES = 8 * 2**10


def traced_simulate(*args, **kwargs) -> tuple[int, int, int]:
    """Peak traced memory during one ``simulate`` call, the traced memory it
    leaves allocated, and the bytes of the returned trajectory's arrays."""
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        traj = simulate(*args, **kwargs)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        if not was_tracing:
            tracemalloc.stop()
    kept = sum(v.nbytes for v in vars(traj).values() if isinstance(v, np.ndarray))
    return peak - before, current - before, kept


def overhead_bytes(*args, **kwargs) -> int:
    """Peak traced memory of one ``simulate`` call minus the bytes of the
    trajectory's arrays."""
    peak, _, kept = traced_simulate(*args, **kwargs)
    return peak - kept


def wide_tanh_spec(n: int, seed: int) -> NetworkSpec:
    """A seeded n-neuron tanh network with trigonometric coefficients."""
    rng = np.random.default_rng(seed)

    def osc(base, amp):
        wave = Sin(Affine(float(rng.uniform(0.5, 3.0)), float(rng.uniform(0.0, 2 * math.pi)),
                          TimeVar()))
        return Add(Const(base), Scale(amp, wave))

    def vec(base, amp):
        return tuple(osc(base, amp) for _ in range(n))

    def mat(base, amp):
        return tuple(tuple(osc(base, amp) for _ in range(n)) for _ in range(n))

    return NetworkSpec(
        n=n, alpha=vec(1.8, 0.05), c=vec(1.35, 0.05),
        D=mat(0.0, 0.05 / n), Dtau=mat(0.0, 0.05 / n), Dbar=mat(0.0, 0.05 / n),
        Dtil=mat(0.0, 0.05 / n), B=vec(0.0, 0.03), E=vec(0.0, 0.15),
        I=vec(0.0, 0.03), J=vec(0.0, 0.03), eta=vec(0.05, 0.01), varsigma=vec(0.05, 0.01),
        tau=mat(0.2, 0.05), sigma_d=mat(0.2, 0.05), zeta=mat(0.2, 0.05),
        activations=(ACTIVATIONS["tanh"],) * n,
    )


def test_reference_dense_run_working_set():
    hist, _ = history_pairs()["trig"]
    ts = TimeScale.real_interval(-2.0, 50.0, 0.01)
    assert overhead_bytes(two_neuron_spec(), hist, ts, 50.0) <= LIMIT_BYTES


def test_wide_network_working_set():
    n = 16
    hist = HistorySpec(stm=tuple(Const(0.1) for _ in range(n)),
                       stm_slope=tuple(Const(0.0) for _ in range(n)),
                       ltm=tuple(Const(-0.1) for _ in range(n)),
                       ltm_slope=tuple(Const(0.0) for _ in range(n)), window=0.5)
    ts = TimeScale.real_interval(-1.0, 4.0, 0.02)
    assert overhead_bytes(wide_tanh_spec(n, seed=0), hist, ts, 4.0) <= LIMIT_BYTES


def test_trajectory_holds_no_engine_buffer():
    # The engine's buffer stacks the states with the integrands, their prefix
    # integrals and a row of ones: 13 rows for two neurons, 4 of them states.
    # A trajectory whose states were views of it would keep all 13 alive:
    # on this run's 1,151 grid points, 9 * 1,151 * 8 bytes = 81 KiB beyond
    # its own arrays.
    hist, _ = history_pairs()["trig"]
    spec, ts = two_neuron_spec(), TimeScale.real_interval(-2.0, 10.0, 0.01)
    simulate(spec, hist, ts, 10.0)  # the spec builds its stacked coefficients once
    _, retained, kept = traced_simulate(spec, hist, ts, 10.0)
    assert retained <= kept + SLACK_BYTES

"""Working-set guard for the simulator.

The engine evaluates coefficients over bounded blocks of grid points and
compiles the state-independent part of each step (located delayed lookups,
window weights, coupling entries) in chunks of an eighth of a block, so the
memory one ``simulate`` call needs beyond the trajectory it returns stays
flat in the grid length.  numpy reports its buffers to tracemalloc, so the
measured peak repeats exactly from run to run: 1.10 MiB for the reference
dense run and 1.06 MiB for the 16-neuron run (0.89 and 0.91 MiB before the
plan was compiled).  A whole-grid coefficient table (1.7 MiB for the
reference dense run, 3.3 MiB for the 16-neuron run) would fail this guard.
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


def overhead_bytes(*args, **kwargs) -> int:
    """Peak traced memory of one ``simulate`` call minus the bytes of the
    trajectory's arrays."""
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        traj = simulate(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not was_tracing:
            tracemalloc.stop()
    kept = sum(v.nbytes for v in vars(traj).values() if isinstance(v, np.ndarray))
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

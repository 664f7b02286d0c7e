"""Golden trajectory digests of the reference model on four scales.

Each digest holds the neuron-weighted means of ``x``, ``s``, ``dx`` and
``ds`` at four fixed live indices (the quarter points of the live segment),
16 numbers per run.  The values were recorded with the per-step engine
before it was rewritten and are never edited: any engine must reproduce
them to 1e-12, the tolerance the lattice oracle tests use.
"""

import numpy as np
import pytest

from chronoscale.benchmark import history_pairs, two_neuron_spec
from chronoscale.simulator import simulate
from chronoscale.timescale import DensePiece, LatticePiece, TimeScale

TOL = 1e-12
CHECKPOINTS = 4

HYBRID = TimeScale([LatticePiece(-2.0, 20.0, 0.05), DensePiece(20.5, 30.0, 0.01),
                    LatticePiece(31.0, 100.0, 0.5), LatticePiece(102.5, 120.0, 0.1)])

CASES = {
    "Z": (TimeScale.integer_lattice(), 50.0),
    "R": (TimeScale.real_interval(-2.0, 50.0, 0.01), 50.0),
    "union": (TimeScale.union_of_intervals([(-2.0, 1.0), (2.0, 3.0)], step=0.01), 3.0),
    "hybrid": (HYBRID, 120.0),
}

GOLDEN = {
    "Z": (
        0.0635016285922005, 0.0717530412133229, 0.07874875331931919, 0.07864789164044625,
        0.001873454206981385, 0.006022638203950408, -0.01210711701080018, -0.002216523037204436,
        0.09226999247923492, 0.039026301819600755, 0.04239880233670275, 0.08680649073186658,
        -0.015104003709960668, 0.017289883121634906, -0.026316860205125654, 0.01119619558364429,
    ),
    "R": (
        0.039570522399388304, 0.042260879143824474, 0.02429439250870853, 0.017873027120163962,
        0.0015508955975196295, -0.0012666526722712246, 0.007703774500389955, -0.007255851184971552,
        0.06457496301348607, 0.08587589237596141, 0.022350144420492716, 0.09149411491238425,
        -0.019605657779765695, 0.01126139600219984, -0.009380822565307324, 0.008407880242436072,
    ),
    "union": (
        0.13100458025642894, 0.11776396356140069, -0.054016620805223126, -0.05155098775029922,
        0.11134652826654487, 0.10228309293557618, 0.04876091182420764, 0.04096356172401334,
        -0.01478846965290613, -0.06551930384988541, 0.0014711368489214833, -0.008939972776213886,
        -0.012508760352862835, -0.028140290173536333, -0.019725934363926945, -0.01654572313925663,
    ),
    "hybrid": (
        0.020562238699964076, 0.03153462778110934, -0.05303266793584265, 0.06997563919625581,
        -0.008016780635903546, -0.0028334140293926496, 0.0019359166847072356, 0.007700669533428384,
        -0.057294222478500294, 0.05196063472763416, 0.012436739645522875, 0.04046221869822074,
        -0.008217277045871335, 0.007162420827317773, 0.007787500273794978, 0.020057216626216196,
    ),
}


def digest(traj) -> np.ndarray:
    """Neuron-weighted means of x, s, dx, ds at CHECKPOINTS fixed live indices."""
    k0, last = traj.start_index, len(traj.times) - 1
    ks = [k0 + round(j * (last - k0) / CHECKPOINTS) for j in range(1, CHECKPOINTS + 1)]
    w = np.arange(1, traj.n + 1, dtype=float)
    w /= w.sum()
    return np.array([w @ arr[:, k] for arr in (traj.x, traj.s, traj.dx, traj.ds) for k in ks])


@pytest.mark.parametrize("name", sorted(CASES))
def test_reference_run_matches_golden_digest(name):
    ts, t_end = CASES[name]
    hist, _ = history_pairs()["trig"]
    traj = simulate(two_neuron_spec(), hist, ts, t_end)
    err = np.abs(digest(traj) - np.array(GOLDEN[name]))
    assert float(err.max()) <= TOL

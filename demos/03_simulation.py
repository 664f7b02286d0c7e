"""Simulating the delayed two-layer network on different time scales.

The same model -- leakage delays, discrete and distributed delays, and
derivative-coupled (neutral) delay terms -- is integrated on the integer
lattice and on a dense grid.  The demo prints trajectory excerpts, shows
the committed-state lookup used by the right-hand-side evaluators, and
writes a CSV export.

Run:  python3 demos/03_simulation.py
"""

import os
import tempfile

from chronoscale import TimeScale, simulate
from chronoscale.benchmark import history_pairs, two_neuron_spec


def section(title):
    print()
    print(f"== {title}")


def excerpt(traj, times):
    print("      t        x_1        x_2        S_1        S_2")
    for t in times:
        k = int(abs(traj.times - t).argmin())
        print(f"  {traj.times[k]:7.2f} {traj.x[0, k]:10.5f} {traj.x[1, k]:10.5f}"
              f" {traj.s[0, k]:10.5f} {traj.s[1, k]:10.5f}")


def main():
    spec = two_neuron_spec()
    hist, _ = history_pairs()["trig"]

    section("integer lattice, 12 steps")
    traj_z = simulate(spec, hist, TimeScale.integer_lattice(), t_end=12.0,
                      corrector_iters=8)
    excerpt(traj_z, [0.0, 1.0, 2.0, 5.0, 12.0])
    print(f"  grid points: {len(traj_z.times)} "
          f"(history segment ends at index {traj_z.start_index})")

    section("dense grid, step 0.01, same model")
    ts = TimeScale.real_interval(-1.5, 6.0, step=0.01)
    traj_r = simulate(spec, hist, ts, t_end=6.0)
    excerpt(traj_r, [0.0, 1.0, 2.0, 5.0, 6.0])

    section("committed-state lookups")
    # value() interpolates linearly over dense panels and snaps down over
    # scattered ones; slope() returns the backward panel quotient.  Index 0
    # is the first short-term state, index n is the first long-term state.
    u = 3.141
    print(f"  dense run, x_1({u}) = {traj_r.value(0, u):.6f}   "
          f"slope = {traj_r.slope(0, u):.6f}")
    print(f"  lattice run, x_1(3.7) snaps down to x_1(3) = "
          f"{traj_z.value(0, 3.7):.6f} == {traj_z.value(0, 3.0):.6f}")

    section("derivative traces")
    k = traj_z.start_index + 3
    quot = (traj_z.x[0, k] - traj_z.x[0, k - 1])
    print(f"  lattice: dx_1 at t={traj_z.times[k]:g} is {traj_z.dx[0, k]:.6f}, "
          f"the backward quotient {quot:.6f}")

    section("CSV export")
    with tempfile.TemporaryDirectory(prefix="chronoscale_demo_") as tmp:
        out = os.path.join(tmp, "run.csv")
        traj_z.to_csv(out)
        with open(out) as fh:
            head = [next(fh).rstrip() for _ in range(3)]
        print(f"  wrote {out}")
        for line in head:
            print(f"  {line[:76]}")


if __name__ == "__main__":
    main()

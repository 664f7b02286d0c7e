"""Solvability check for the bundled two-neuron reference model.

Walks through the two-part contraction argument the library automates:

1. collect coefficient envelopes (sup/inf bounds) for the model,
2. at a candidate ball radius r, check that the invariance ratios stay
   below r and the contraction ratios stay below 1,
3. search a radius grid for the smallest feasible r,
4. show how the check fails when the coupling weights are doubled.

Run:  python3 demos/02_feasibility_check.py
"""

import dataclasses

from chronoscale import activation_offsets, check_H3, compute_bounds, search_r
from chronoscale.benchmark import two_neuron_spec
from chronoscale.conditions import DEFAULT_R_GRID


def section(title):
    print()
    print(f"== {title}")


def main():
    spec = two_neuron_spec()
    lip = spec.lipschitz           # the model's Lipschitz bounds L_j
    f0 = activation_offsets(spec)  # |f_j(0)|, one per activation

    section("coefficient envelopes")
    bounds = compute_bounds(spec)
    lines = bounds.summary_lines()
    for line in lines[:8]:
        print(line)
    print(f"  ... ({len(lines) - 9} more coefficient rows)")
    print(lines[-1])
    print(f"  decay cap min(alpha-, c-) = {bounds.decay_cap():g}")

    section("two-part check at radius r = 0.45")
    report = check_H3(bounds, lip, f0, r=0.45,
                      include_delayed_feedback=False)
    for line in report.summary_lines():
        print(line)

    section("smallest feasible radius on a grid")
    best = search_r(bounds, lip, f0, r_grid=DEFAULT_R_GRID,
                    include_delayed_feedback=False)
    print(f"  grid 0.10, 0.15, ..., 1.00  ->  smallest feasible r = {best}")

    section("a failing configuration: coupling weights doubled")
    coupling = ("D", "Dtau", "Dbar", "Dtil", "B", "E")
    stressed = dataclasses.replace(
        bounds, sup=bounds.sup | {name: 2.0 * bounds.sup[name] for name in coupling})
    bad = check_H3(stressed, lip, f0, r=0.45,
                   include_delayed_feedback=False)
    print(f"  kappa = {bad.kappa:.4f} (needs < 1)   "
          f"max invariance expression = {bad.max_r_expr:.4f} (needs <= 0.45)")
    print(f"  feasible: {'yes' if bad.feasible else 'no'}")


if __name__ == "__main__":
    main()

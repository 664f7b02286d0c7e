"""Decay certificate search and empirical verification.

Two solutions of the same network raised from different initial histories
must approach each other exponentially once the contraction check passes.
This demo:

1. computes the certificate (lambda, M) for the reference model on the
   integer lattice -- gated on the smallest feasible invariance radius, the
   largest admissible decay rate keeping all four margin-function families
   positive, with its overshoot constant,
2. simulates the model twice from different histories,
3. checks the certified envelope pointwise against the realized distance
   and fits the empirical decay rate,
4. writes the distance/envelope series to CSV.

Run:  python3 demos/04_certificate_and_verification.py
"""

import math
import os
import tempfile

from chronoscale import (
    TimeScale,
    certify,
    simulate,
    verify_bound,
    write_stability_csv,
)
from chronoscale.benchmark import history_pairs, two_neuron_spec
from chronoscale.conditions import MARGIN_FAMILIES


def section(title):
    print()
    print(f"== {title}")


def main():
    spec = two_neuron_spec()
    ts = TimeScale.integer_lattice()

    section("certificate on the integer lattice")
    _, cert = certify(spec, ts)
    print(f"  lambda = {cert.lam:.9f}")
    print(f"  M      = {cert.big_m:.9f}")
    print(f"  admissible-rate cap = {cert.cap:.6f}  "
          f"(graininess sup = {cert.nu_sup:g})")
    print(f"  witness: {cert.witness}")
    mins = ", ".join(f"min {name} = {row.min():.3e}"
                     for name, row in zip(MARGIN_FAMILIES, cert.h_at_lambda))
    print(f"  margin families at lambda: {mins}")

    section("two runs from different histories")
    hist_a, hist_b = history_pairs()["trig"]
    traj_a = simulate(spec, hist_a, ts, t_end=200.0)
    traj_b = simulate(spec, hist_b, ts, t_end=200.0)
    gap_t0 = max(abs(traj_a.x[:, traj_a.start_index]
                     - traj_b.x[:, traj_b.start_index]).max(),
                 abs(traj_a.s[:, traj_a.start_index]
                     - traj_b.s[:, traj_b.start_index]).max())
    print(f"  state gap at start: {gap_t0:.4f}")

    section("envelope check")
    report = verify_bound(traj_a, traj_b, hist_a, hist_b, cert, ts)
    print("  " + report.to_text().replace("\n", "\n  ").rstrip())
    # The envelope divides by the nabla exponential nexp_lambda, which on the
    # unit lattice grows by 1/(1 - lambda) per step: the envelope decays by
    # the factor 1 - lambda per step, a continuous-time rate -log(1 - lambda).
    print(f"  certified envelope rate on this lattice: "
          f"{-math.log1p(-cert.lam):.6f}; empirical fit: {report.lambda_fit:.6f}")
    print("  (the certificate is a guaranteed floor; the realized decay is "
          "usually much faster)")

    section("CSV export")
    with tempfile.TemporaryDirectory(prefix="chronoscale_demo_") as tmp:
        out = os.path.join(tmp, "stability.csv")
        write_stability_csv(report, out)
        with open(out) as fh:
            head = [next(fh).rstrip() for _ in range(3)]
        print(f"  wrote {out}")
        for line in head:
            print(f"  {line}")


if __name__ == "__main__":
    main()

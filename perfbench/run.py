"""Certify-and-verify benchmark for chronoscale.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload ref-dense --seed 0 --seconds 30 --trace 0

Workloads are described in ``workloads.py`` and ``README.md``.  Each is a
closed loop on one thread: an iteration starts when the previous one ends,
and iterations start until the next one would end more than half an
iteration past the time allotted.

``--trace 0`` times set-up in fresh interpreters, then runs the loop in
fresh worker processes in turn, each for a sixth of ``--seconds`` and at
least three of them, and reports the end-to-end metrics: the medians ``run_s``, ``certify_s``,
``sim_steps_per_s`` and ``setup_s``, scaled to a reference host speed (see
``timing.py``), and ``peak_rss_mb``.  ``--trace 1`` runs in one process and
reports per-layer metrics from iterations run with spans installed (see
``spans.py``), alternating with untraced iterations so the tracing overhead
is measured in the same process, plus an untraced n-sweep of the simulator.  Both print a
human-readable table with sample counts, then one JSON line, and exit 1
when any output check failed.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # pinned before numpy loads

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 7
# Untraced iterations run in fresh worker processes, one after another, each
# for a sixth of the run and at least three of them: speed relative to the
# host probe differs between processes by up to 13 %, and a median over
# several processes evens that out.
ROUND_SHARE = 1 / 6
MIN_ROUNDS = 3
CERTIFY_SHARE = 0.05
WORKLOADS = ("ref-dense", "hybrid-ensemble", "wide-net")

# A fresh interpreter's path to a ready workload: import the package, parse
# the workload's configuration and build its time scale.  It prints the
# system-wide monotonic clock when ready.
READY = """
import json, sys, time
import chronoscale
from chronoscale.timescale import DensePiece, LatticePiece, TimeScale
job = json.loads(sys.stdin.read())
cfg = chronoscale.parse_config(job["config"])
if cfg.timescale is None:
    TimeScale([LatticePiece(a, b, h) if kind == "lattice" else DensePiece(a, b, h)
               for kind, a, b, h in job["pieces"]])
print(time.clock_gettime(time.CLOCK_MONOTONIC))
"""

# A fresh interpreter's share of an untraced run; see ``measure_round``.
ROUND = """
import json, sys
from run import measure_round
print(json.dumps(measure_round(*json.loads(sys.stdin.read()))))
"""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def spawn_ready(job: str) -> float:
    """Seconds from spawning a fresh interpreter until the workload is ready."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run([sys.executable, "-c", READY], input=job, capture_output=True,
                          text=True, env=env, cwd=ROOT, timeout=120, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up interpreter failed:\n{proc.stderr}")
    return float(proc.stdout.strip()) - start


def closed_loop(seconds: float, step, min_calls: int = 1) -> list:
    """Call ``step(i)`` at least ``min_calls`` times and until the next call
    would end well past ``seconds``."""
    out, walls = [], []
    start = perf_counter()
    while True:
        t = perf_counter()
        out.append(step(len(out)))
        walls.append(perf_counter() - t)
        if (len(out) >= min_calls
                and perf_counter() - start + statistics.median(walls) / 2 >= seconds):
            return out


def median_or_zero(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def speed_factor(probes) -> float:
    """Scale from the measured host speed to the reference speed; see timing.py."""
    from timing import PROBE_REF_S

    return PROBE_REF_S / statistics.median(probes)


def measure_round(name: str, seed: int, seconds: float) -> dict:
    """One worker process's share of an untraced run: raw samples and outcomes.

    After the iterations, certificates alone are repeated for up to
    ``CERTIFY_SHARE`` of ``seconds``: a certificate of the reference model
    takes about 50 ms, too short for one sample per iteration to give a
    steady median.
    """
    import workloads as wl

    golden = json.loads((BENCH_DIR / "golden.json").read_text())
    w = wl.make_workload(name, seed)
    ops = wl.plain_ops()
    its = closed_loop(seconds, lambda i: wl.run_iteration(w, ops, golden))
    done = [it for it in its if it.complete]
    certify = [it.clock.total("certify") for it in done]
    clocks = [it.clock for it in its]
    if certify:
        clocks.append(wl.time_certificates(
            w, ops, int(CERTIFY_SHARE * seconds / statistics.median(certify))))
        certify += clocks[-1].column("certify")
    return {
        "run_s": [it.run_s for it in done],
        "certify_s": certify,
        "sim_steps_per_s": [rate for it in done for rate in it.sim_rates],
        "probes": [p for clock in clocks for p in clock.probes],
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "iterations": len(its),
        "attempted": sum(it.attempted for it in its),
        "failures": [why for it in its for why in it.failures],
    }


def run_round(name: str, seed: int, seconds: float) -> dict:
    """``measure_round`` in a fresh interpreter, which has ended on return.

    A plain child process rather than a ``multiprocessing`` pool: the pool's
    resource tracker outlives the benchmark.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(SRC), str(BENCH_DIR))))
    job = json.dumps([name, seed, seconds])
    proc = subprocess.run([sys.executable, "-c", ROUND], input=job, capture_output=True,
                          text=True, env=env, cwd=ROOT, timeout=seconds + 120, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"worker interpreter failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def untraced(w, seed: int, seconds: float) -> dict:
    from timing import Stopwatch

    clock = Stopwatch()
    job = json.dumps({"config": w.config, "pieces": w.pieces})
    spawn_ready(job)  # fills the disk and bytecode caches
    for _ in range(SETUP_SAMPLES):
        clock.time("setup", spawn_ready, job)

    def one_round(i):
        return run_round(w.name, seed, seconds * ROUND_SHARE)

    rounds = closed_loop(seconds, one_round, MIN_ROUNDS)
    metrics = {}  # name: (value at reference speed, unit, samples, raw value)
    for name, unit in (("run_s", "s"), ("certify_s", "s"), ("sim_steps_per_s", "steps/s")):
        raw, scaled = [], []
        for r in rounds:
            factor = speed_factor(r["probes"])
            raw += r[name]
            scaled += [v * factor if unit == "s" else v / factor for v in r[name]]
        metrics[name] = (median_or_zero(scaled), unit, len(raw), median_or_zero(raw))
    setup = clock.column("setup")
    metrics["setup_s"] = (statistics.median(setup) * speed_factor(clock.probes), "s",
                          len(setup), statistics.median(setup))
    rss_mb = max(r["rss_mb"] for r in rounds)
    metrics["peak_rss_mb"] = (rss_mb, "MB", len(rounds), rss_mb)
    return {
        "metrics": metrics,
        "probes": clock.probes + [p for r in rounds for p in r["probes"]],
        "rounds": len(rounds),
        "iterations": sum(r["iterations"] for r in rounds),
        "attempted": sum(r["attempted"] for r in rounds),
        "failures": [why for r in rounds for why in r["failures"]],
    }


def scattered_steps(traj) -> int:
    """Live steps onto left-scattered points (positive graininess)."""
    _, nu = traj.ts.grid_with_graininess(float(traj.times[0]), float(traj.times[-1]))
    return int((nu[traj.start_index + 1:] > 0).sum())


def sweep(wl, variant: int, golden, clock) -> tuple[dict, list[str]]:
    """Microseconds per simulator step for each size of the n-sweep."""
    import chronoscale

    out, failures = {}, []
    expected = wl.stored_digests(golden, "sweep", variant, len(wl.SWEEP_SIZES))
    for (spec, hist, ts, t_end), digest in zip(wl.sweep_inputs(variant), expected):
        traj = clock.time("sweep", chronoscale.simulate, spec, hist, ts, t_end)
        out[f"simulator.us_per_step.n{spec.n}"] = (
            clock.segments[-1][1] / wl.live_steps(traj) * 1e6, "us")
        why = wl.check_trajectory(traj, golden, digest)
        if why:
            failures.append(f"sweep n={spec.n}: {why}")
    return out, failures


def traced(w, seconds: float) -> dict:
    import workloads as wl
    from spans import Tracer, write_spans
    from timing import Stopwatch

    golden = json.loads((BENCH_DIR / "golden.json").read_text())
    clock = Stopwatch()
    sweep_rows, failures = sweep(wl, w.variant, golden, clock)
    plain = wl.plain_ops()
    tracers = []

    def step(i):
        if i % 2 == 0:
            return wl.run_iteration(w, plain, golden)
        tracer = Tracer()
        tracers.append(tracer)
        with tracer.installed():
            return wl.run_iteration(w, tracer.wrap_ops(plain), golden)

    its = closed_loop(seconds, step)
    if len(its) < 2:  # the overhead needs one iteration of each kind
        its.append(step(len(its)))
    write_spans(BENCH_DIR / "out" / f"spans-{w.name}-draw{w.variant}.json", tracers)

    plain_its, traced_its = its[0::2], its[1::2]
    k = len(tracers)
    totals = [t.totals() for t in tracers]

    def per_iter(name: str, field: str) -> float:
        return sum(t[name][field] for t in totals if name in t) / k

    steps = sum(sum(it.steps) for it in traced_its) / k
    scattered = sum(scattered_steps(tr) for it in traced_its for tr in it.trajectories) / k
    reuse = [len(t["network.coeffs_at"]["args"]) / t["network.coeffs_at"]["calls"]
             for t in totals if "network.coeffs_at" in t]
    plain_run, traced_run = (  # each iteration scaled by its own probes
        median_or_zero(it.run_s * speed_factor(it.clock.probes) for it in group if it.complete)
        for group in (plain_its, traced_its))
    simulate_s = per_iter("simulator.simulate", "s")
    rows = {
        "network.coeffs_at_s": (per_iter("network.coeffs_at", "s"), "s"),
        "network.coeffs_at_calls": (per_iter("network.coeffs_at", "calls"), "count"),
        "network.coeffs_at_reuse": (median_or_zero(reuse), "1"),
        "simulator.simulate_s": (simulate_s, "s"),
        "simulator.self_s": (per_iter("simulator.simulate", "self_s"), "s"),
        "simulator.steps": (steps, "count"),
        "simulator.steps_scattered": (scattered, "count"),
        "simulator.us_per_step": (simulate_s / steps * 1e6 if steps else 0.0, "us"),
        "coeffs.sample_s": (per_iter("coeffs.sample", "s"), "s"),
        "coeffs.sample_calls": (per_iter("coeffs.sample", "calls"), "count"),
        "conditions.compute_bounds_s": (per_iter("conditions.compute_bounds", "s"), "s"),
        "conditions.search_r_s": (per_iter("conditions.search_r", "s"), "s"),
        "conditions.find_lambda_s": (per_iter("conditions.find_lambda", "s"), "s"),
        "conditions.h_evals": (per_iter("conditions.h_functions", "calls"), "count"),
        "timescale.grid_s": (per_iter("timescale.grid", "s"), "s"),
        "timescale.grid_calls": (per_iter("timescale.grid", "calls"), "count"),
        "timescale.nabla_exp_grid_s": (per_iter("timescale.nabla_exp_grid", "s"), "s"),
        "analyzer.verify_bound_s": (per_iter("analyzer.verify_bound", "s"), "s"),
        "config.parse_s": (per_iter("config.parse", "s"), "s"),
        "trace.overhead_frac": (traced_run / plain_run - 1.0 if plain_run else 0.0, "1"),
    }
    probes = clock.probes + [p for it in its for p in it.clock.probes]
    metrics = {name: (value, unit, 1, value) for name, (value, unit) in sweep_rows.items()}
    metrics.update({name: (value, unit, k, value) for name, (value, unit) in rows.items()})
    probe_s = statistics.median(probes)
    metrics["host.probe_s"] = (probe_s, "s", len(probes), probe_s)
    return {
        "metrics": metrics,
        "probes": probes,
        "rounds": 1,
        "iterations": len(its),
        "attempted": sum(it.attempted for it in its) + len(wl.SWEEP_SIZES),
        "failures": failures + [why for it in its for why in it.failures],
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "chronoscale" / "__init__.py").is_file():
        print(f"run.py: no chronoscale sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads as wl

    w = wl.make_workload(args.workload, args.seed)
    res = traced(w, args.seconds) if args.trace else untraced(w, args.seed, args.seconds)
    attempted, failed = res["attempted"], len(res["failures"])
    for why in res["failures"]:
        print(f"FAILED: {why}", file=sys.stderr)

    probes = res["probes"]
    print(f"workload {w.name}  seed {args.seed} (draw {w.variant})  "
          f"trace {args.trace}  iterations {res['iterations']}  "
          f"processes {res['rounds']}")
    print(f"host.probe_s  start {probes[0]:.4f}  end {probes[-1]:.4f}  "
          f"median {statistics.median(probes):.4f} of {len(probes)}")
    print(f"{'metric':32} {'value':>14} {'unit':>8} {'samples':>8} {'raw':>14}")
    shown = dict(res["metrics"])
    if not args.trace:
        shown["failed_frac"] = (failed / attempted, "1", attempted, failed / attempted)
    for name, (value, unit, samples, raw) in shown.items():
        print(f"{name:32} {value:14.6g} {unit:>8} {samples:>8} {raw:14.6g}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _, _) in res["metrics"].items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

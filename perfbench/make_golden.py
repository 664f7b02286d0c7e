"""Regenerate golden.json: trajectory digests for every workload draw.

Run from the root of a source checkout:

    python3 perfbench/make_golden.py

It runs one iteration of each workload for every draw of the pool, and the
n-sweep, and refuses to write anything if an operation raised, a state was
not finite or a certified envelope was violated.  Regenerate only when a
change is meant to alter trajectories, and say so in that change.
"""

import json
import multiprocessing
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
JOBS = 2


def record(job: tuple[str, int]) -> tuple[str, int, list, list[str]]:
    sys.path.insert(0, str(SRC))
    import chronoscale
    import workloads as wl

    name, variant = job
    if name == "sweep":
        trajs = [chronoscale.simulate(spec, hist, ts, t_end)
                 for spec, hist, ts, t_end in wl.sweep_inputs(variant)]
        failures = [why for why in (wl.check_trajectory(t, None, None) for t in trajs) if why]
    else:
        it = wl.run_iteration(wl.make_workload(name, variant), wl.plain_ops(), None)
        trajs, failures = it.trajectories, it.failures
    return name, variant, [wl.digest(t) for t in trajs], failures


def main() -> int:
    sys.path.insert(0, str(SRC))
    import workloads as wl

    jobs = [("ref-dense", 0)] + [(name, v) for name in ("hybrid-ensemble", "wide-net", "sweep")
                                 for v in range(wl.POOL)]
    golden: dict = {"tolerance": wl.DIGEST_TOL, "checkpoints": wl.CHECKPOINTS}
    bad = []
    with multiprocessing.get_context("spawn").Pool(JOBS) as pool:
        for name, variant, digests, failures in pool.imap_unordered(record, jobs):
            print(f"{name} draw {variant}: {len(digests)} trajectories", flush=True)
            golden.setdefault(name, {})[str(variant)] = digests
            bad.extend(f"{name} draw {variant}: {why}" for why in failures)
    if bad:
        print("\n".join(bad), file=sys.stderr)
        return 1
    for name in ("ref-dense", "hybrid-ensemble", "wide-net", "sweep"):
        golden[name] = dict(sorted(golden[name].items(), key=lambda kv: int(kv[0])))
    (BENCH_DIR / "golden.json").write_text(json.dumps(golden, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface.

Subcommands
-----------
``check CONFIG``
    Print coefficient bounds and the solvability report for each candidate
    invariance radius; exit 0 iff some radius passes.
``certificate CONFIG``
    Print the smallest feasible radius and the exponential-decay certificate
    (lambda, M) with the margin-function values; exit 1 when no radius
    passes or the contraction check fails.
``simulate CONFIG``
    Integrate the network and write the trajectory CSV
    (``t,x_1..x_n,S_1..S_n,dx_1..dx_n,dS_1..dS_n``).
``stability CONFIG --history2 FILE``
    Gate on the smallest feasible radius (exit 1 when none passes), simulate
    the same network from two histories, compute the certificate, and verify
    the decay envelope against the measured trajectory distance; exit 0 iff
    the bound is never violated.
``example``
    Materialize the built-in two-neuron benchmark configuration, read the
    files back, and print the solvability check, certificate and stability
    report that ``stability`` computes for them on their continuum grid
    (h = 0.01) and with ``--timescale Z --t-end 200``.

Exit codes (stable contract): 0 success, 1 infeasible or bound violated,
2 configuration or conditions error, 3 runtime (stepping) failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path
from typing import Sequence

from . import benchmark
from .analyzer import StabilityReport, verify_bound, write_stability_csv
from .conditions import (
    DEFAULT_R_GRID,
    Certificate,
    ConditionsError,
    H3Report,
    InfeasibleError,
    activation_offsets,
    certify,
    check_H3,
    compute_bounds,
)
from .config import (
    TIMESCALE_KINDS,
    ConfigError,
    RunConfig,
    RunOptions,
    build_timescale,
    parse_config,
    parse_history_text,
    serialize_config,
    serialize_history,
)
from .simulator import HistorySpec, SimulationError, StepFailureError, simulate
from .timescale import RegressivityError, TimeScale, TimeScaleError

__all__ = ["main", "build_parser"]

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


# --timescale spells each TIMESCALE_KINDS row by its name, and :<value> for its flag key
_FLAG_METAVAR = "{%s}" % "|".join(f"{kind}:<{flag}>" if flag else kind
                                  for kind, (_, _, flag) in TIMESCALE_KINDS.items())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chronoscale",
        description="Delayed competitive neural networks on time scales: "
                    "solvability checks, exponential-decay certificates, "
                    "simulation, and stability experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, about: str, config: str = "configuration file"):
        """A subcommand that reads ``config`` and takes the time-scale flags."""
        p = sub.add_parser(name, help=about)
        p.add_argument("config", help=config)
        p.add_argument("--timescale", metavar=_FLAG_METAVAR,
                       help="override the [timescale] section with a scale of "
                            "this kind (R spans the run and its history)")
        p.add_argument("--h", type=float, metavar="STEP",
                       help="grid step for dense scales (default 0.01)")
        return p

    command("check", "bounds + solvability report").add_argument(
        "--r", type=float, metavar="RADIUS", help="check this invariance radius only")
    command("certificate", "decay certificate (lambda, M)").add_argument(
        "--r", type=float, metavar="RADIUS", help="invariance radius for the feasibility gate")

    p_sim = command("simulate", "integrate and write trajectory CSV")
    p_sim.add_argument("--t-end", dest="t_end", type=float, metavar="T")
    p_sim.add_argument("--out", metavar="PATH", help="CSV path (default: stdout)")

    p_stab = command("stability", "paired simulation + certificate + bound check",
                     "configuration file (primary history)")
    p_stab.add_argument("--history2", metavar="PATH",
                        help="file with the second [history] section")
    p_stab.add_argument("--t-end", dest="t_end", type=float, metavar="T")
    p_stab.add_argument("--out", metavar="PATH", help="stability CSV path")

    p_ex = sub.add_parser("example",
                          help="materialize the built-in benchmark and run "
                               "check + certificate + stability on R and Z")
    p_ex.add_argument("--out", metavar="DIR", default="chronoscale-example",
                      help="directory for the materialized config files")

    return parser


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None


def _load_config(path: str) -> RunConfig:
    return parse_config(_read_text(path))


def _resolve_timescale(args: argparse.Namespace, cfg: RunConfig,
                       t_end: float, required: bool = True) -> TimeScale | None:
    """Pick the time scale: the --timescale flag wins over the config section.

    The flag names a row of :data:`TIMESCALE_KINDS`, its ``:<value>`` sets the
    row's flag key, and ``R`` spans the run.  ``--h`` sets the description's
    ``step``; it then goes through :func:`build_timescale`, which rejects
    ``--h`` on a kind that reads no step.
    """
    flag = getattr(args, "timescale", None)
    h = getattr(args, "h", None)
    if not flag:
        if cfg.timescale is None and (required or h is not None):
            needs = "--h needs a time scale: " if h is not None else ""
            raise ConfigError(f"{needs}no [timescale] section and no --timescale flag")
        if cfg.timescale is None or h is None:
            return cfg.timescale
        desc = dict(cfg.timescale_desc)
    else:
        name, colon, value = flag.strip().partition(":")
        desc = next(({"kind": kind, **({key: value} if colon else {})}
                     for kind, (_, _, key) in TIMESCALE_KINDS.items()
                     if kind.upper() == name.upper() and bool(colon) == bool(key)), None)
        if desc is None:
            raise ConfigError(f"unknown --timescale value {flag!r} (expected {_FLAG_METAVAR})")
        if desc["kind"] == "R":  # the grid spans the run and its history
            window = cfg.history.window if cfg.history is not None else 1.0
            desc.update(start=repr(cfg.run.t0 - window - 0.5), stop=repr(t_end), step="0.01")
    source = f"--timescale {flag!r}" if flag else "[timescale]"
    if h is not None:
        desc["step"] = repr(h)
        source += f" with --h {h!r}"
    try:
        return build_timescale(desc)
    except ConfigError as exc:
        raise ConfigError(f"{source}: {exc}") from None


def _run_options(args: argparse.Namespace, run: RunOptions) -> RunOptions:
    """``run`` with the command's ``--t-end`` and ``--r`` flags applied."""
    t_end, r = getattr(args, "t_end", None), getattr(args, "r", None)
    try:
        run = run if t_end is None else dataclasses.replace(run, t_end=t_end)
    except ValueError:
        raise ConfigError(f"--t-end must be a finite time after t0 = {run.t0!r}, "
                          f"got {t_end!r}") from None
    try:
        return run if r is None else dataclasses.replace(run, r=r, r_grid=None)
    except ValueError:
        raise ConfigError(f"--r must be a finite positive radius, got {r!r}") from None


def _radius_grid(run: RunOptions) -> Sequence[float]:
    """``r``, else ``r_grid``, else the default grid."""
    return (run.r,) if run.r is not None else run.r_grid or tuple(map(float, DEFAULT_R_GRID))


def _stability(cfg: RunConfig, hist2: HistorySpec, ts: TimeScale, run: RunOptions,
               ) -> tuple[H3Report, Certificate, StabilityReport]:
    """The gate's report, the certificate and the check of that certificate
    against ``cfg.spec`` simulated on ``ts`` from ``cfg.history`` and ``hist2``."""
    gate, cert = certify(cfg.spec, ts, _radius_grid(run), run.include_delayed_feedback)
    traj_a, traj_b = (simulate(cfg.spec, hist, ts, run.t_end, t0=run.t0,
                               corrector_iters=run.corrector_iters)
                      for hist in (cfg.history, hist2))
    return gate, cert, verify_bound(traj_a, traj_b, cfg.history, hist2, cert, ts)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_check(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config)
    run = _run_options(args, cfg.run)
    ts = _resolve_timescale(args, cfg, run.t_end, required=False)
    bounds = compute_bounds(cfg.spec, ts)
    for line in bounds.summary_lines():
        print(line)
    feasible = False
    f0 = activation_offsets(cfg.spec)
    for r in _radius_grid(run):
        report = check_H3(bounds, cfg.spec.lipschitz, f0, float(r),
                          run.include_delayed_feedback)
        print()
        for line in report.summary_lines():
            print(line)
        feasible = feasible or report.feasible
    return EXIT_OK if feasible else EXIT_INFEASIBLE


def cmd_certificate(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config)
    run = _run_options(args, cfg.run)
    ts = _resolve_timescale(args, cfg, run.t_end)
    gate, cert = certify(cfg.spec, ts, _radius_grid(run), run.include_delayed_feedback)
    print(f"feasible radius r = {gate.r:g} (kappa = {gate.kappa:.6f})")
    print(cert.to_text(), end="")
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config)
    if cfg.history is None:
        raise ConfigError("simulate needs a [history] section")
    run = _run_options(args, cfg.run)
    ts = _resolve_timescale(args, cfg, run.t_end)
    traj = simulate(cfg.spec, cfg.history, ts, run.t_end, t0=run.t0,
                    corrector_iters=run.corrector_iters)
    if args.out:
        traj.to_csv(args.out)
        print(f"wrote {args.out} ({len(traj.times)} rows)")
    else:
        traj.to_csv(sys.stdout)
    return EXIT_OK


def cmd_stability(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config)
    if cfg.history is None:
        raise ConfigError("stability needs a [history] section")
    if not args.history2:
        raise ConfigError("stability needs --history2 with a second history file")
    hist2 = parse_history_text(_read_text(args.history2), cfg.spec.n)
    run = _run_options(args, cfg.run)
    ts = _resolve_timescale(args, cfg, run.t_end)
    _, _, report = _stability(cfg, hist2, ts, run)
    print(report.to_text(), end="")
    if args.out:
        write_stability_csv(report, args.out)
        print(f"wrote {args.out} ({report.n_points} rows)")
    return EXIT_OK if not report.violated else EXIT_INFEASIBLE


def cmd_example(args: argparse.Namespace) -> int:
    spec = benchmark.two_neuron_spec()
    hist_a, hist_b = benchmark.history_pairs()["trig"]
    run = RunOptions(t_end=50.0, r=0.45, include_delayed_feedback=False)
    ts_desc = {"kind": "R", "start": "-2.0", "stop": "50.0", "step": "0.01"}

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    config_path = out_dir / "benchmark.cfg"
    history2_path = out_dir / "history2.cfg"
    config_path.write_text(serialize_config(spec, hist_a, ts_desc, run),
                           encoding="utf-8")
    history2_path.write_text(serialize_history(hist_b), encoding="utf-8")
    print(f"wrote {config_path}")
    print(f"wrote {history2_path}")
    print()

    # what `stability` computes for these files, and with --timescale Z --t-end 200
    cfg = _load_config(str(config_path))
    hist2 = parse_history_text(_read_text(str(history2_path)), cfg.spec.n)
    scales = (
        ("R (grid h = 0.01)", cfg.timescale, cfg.run),
        ("Z (unit lattice)", build_timescale({"kind": "Z"}),
         dataclasses.replace(cfg.run, t_end=200.0)),
    )
    results = [_stability(cfg, hist2, ts, run) for _, ts, run in scales]
    report = results[0][0]
    print(f"== solvability check (r = {report.r:g}) ==")
    print(f"P_1 = {report.P[0]:.4f}   P_2 = {report.P[1]:.4f}")
    print(f"Q_1 = {report.Q[0]:.4f}   Q_2 = {report.Q[1]:.4f}")
    print(f"Pbar_1 = {report.Pbar[0]:.4f}   Pbar_2 = {report.Pbar[1]:.4f}")
    print(f"Qbar_1 = {report.Qbar[0]:.4f}   Qbar_2 = {report.Qbar[1]:.4f}")
    print(f"max invariance expression = {report.max_r_expr:.4f}")
    print(f"kappa = {report.kappa:.4f}")
    print(f"feasible: {'yes' if report.feasible else 'no'}")

    for (label, _, _), (_, cert, stab) in zip(scales, results):
        print()
        print(f"== certificate on T = {label} ==")
        print(cert.to_text(), end="")
        print()
        print(f"== stability on T = {label} ==")
        print(stab.to_text(), end="")
    return EXIT_INFEASIBLE if any(stab.violated for _, _, stab in results) else EXIT_OK


_HANDLERS = {
    "check": cmd_check,
    "certificate": cmd_certificate,
    "simulate": cmd_simulate,
    "stability": cmd_stability,
    "example": cmd_example,
}


# each failure a command may end in, subclasses before their bases: its
# stderr prefix (formatted with the exception as ``exc``) and exit code
_FAILURES = (
    (ConfigError, "config error", EXIT_CONFIG),
    (InfeasibleError, "infeasible", EXIT_INFEASIBLE),
    (ConditionsError, "conditions error", EXIT_CONFIG),
    (RegressivityError, "regressivity violated", EXIT_INFEASIBLE),
    (StepFailureError, "step failure at t = {exc.t:g}", EXIT_RUNTIME),
    (SimulationError, "simulation error", EXIT_RUNTIME),
    (TimeScaleError, "time-scale error", EXIT_CONFIG),
    (OSError, "i/o error", EXIT_CONFIG),
)


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on bad usage, 0 on --help
        code = exc.code
        return code if isinstance(code, int) else EXIT_CONFIG
    try:
        return _HANDLERS[args.command](args)
    except tuple(kind for kind, _, _ in _FAILURES) as exc:
        prefix, code = next((prefix, code) for kind, prefix, code in _FAILURES
                            if isinstance(exc, kind))
        print(f"{prefix.format(exc=exc)}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())

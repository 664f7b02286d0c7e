"""Configuration parsing/serialization and the command-line contract."""

import dataclasses
import subprocess
import sys

import numpy as np
import pytest

from chronoscale.benchmark import history_pairs, two_neuron_spec
from chronoscale.cli import _resolve_timescale, build_parser, main
from chronoscale.coeffs import Affine, BoundPair, Const, Scale, TimeVar, bound_sup_inf
from chronoscale.conditions import compute_bounds
from chronoscale.config import (
    ConfigError,
    RunOptions,
    parse_config,
    parse_history_text,
    serialize_config,
    serialize_history,
)
from chronoscale.network import ACTIVATIONS, NetworkSpec
from chronoscale.simulator import HistorySpec


def scalar_spec():
    z = Const(0.0)
    zm = ((z,),)
    return NetworkSpec(
        n=1, alpha=(Const(0.5),), c=(Const(0.4),),
        D=zm, Dtau=zm, Dbar=zm, Dtil=zm,
        B=(z,), E=(z,), I=(Const(0.1),), J=(z,),
        eta=(z,), varsigma=(Const(1.0),),
        tau=((Const(1.0),),), sigma_d=((Const(1.0),),), zeta=((Const(1.0),),),
        activations=(ACTIVATIONS["identity"],),
    )


@pytest.fixture()
def bench_cfg(tmp_path):
    text = serialize_config(
        two_neuron_spec(), history_pairs()["trig"][0], {"kind": "Z"},
        RunOptions(t_end=30.0, r=0.45, include_delayed_feedback=False))
    path = tmp_path / "bench.cfg"
    path.write_text(text)
    return path


@pytest.fixture()
def history2_file(tmp_path):
    path = tmp_path / "history2.cfg"
    path.write_text(serialize_history(history_pairs()["trig"][1]))
    return path


# ---------------------------------------------------------------------------
# parsing and serialization
# ---------------------------------------------------------------------------


def distinct_constant_spec(n=3):
    """A network whose every coefficient is a different constant, half negative."""
    count = iter(range(1, 1000))

    def const():
        k = next(count)
        return Const((-1) ** k * k / 64)

    vectors = {name: tuple(const() for _ in range(n)) for name in NetworkSpec.VECTOR_FIELDS}
    matrices = {name: tuple(tuple(const() for _ in range(n)) for _ in range(n))
                for name in NetworkSpec.MATRIX_FIELDS}
    return NetworkSpec(n=n, activations=(ACTIVATIONS["tanh"],) * n, **vectors, **matrices)


@pytest.mark.parametrize("spec, hist", [
    (two_neuron_spec(), history_pairs()["trig"][0]),
    (distinct_constant_spec(), None),
], ids=["two-neuron", "distinct-n3"])
def test_serialize_parse_roundtrip_is_bit_identical(spec, hist):
    run = RunOptions(t_end=25.0, r=0.45, include_delayed_feedback=False)
    text = serialize_config(spec, hist, {"kind": "Z"}, run)
    cfg = parse_config(text)
    again = serialize_config(cfg.spec, cfg.history, cfg.timescale_desc, cfg.run)
    assert again == text

    bounds = compute_bounds(cfg.spec)
    for key, expr in spec.coefficient_items():
        name, *pos = key.split(".")
        pair = spec.bound_overrides.get(key) or bound_sup_inf(expr)
        assert getattr(bounds, f"{name}_sup")[tuple(int(p) - 1 for p in pos)] == pair.sup_abs
        if not spec.bound_overrides:
            assert pair.sup_abs == abs(expr(0.0))
    listed = [line.split(":")[0].strip() for line in bounds.summary_lines()[1:-1]]
    assert listed == [key for key, _, _ in NetworkSpec.coefficient_keys(spec.n)]


def test_parsed_objects_match_source(bench_cfg):
    cfg = parse_config(bench_cfg.read_text())
    src = two_neuron_spec()
    for (key_a, expr_a), (key_b, expr_b) in zip(
            cfg.spec.coefficient_items(), src.coefficient_items()):
        assert key_a == key_b
        for t in (0.0, 0.7, 2.3):
            assert expr_a(t) == pytest.approx(expr_b(t), abs=1e-15)
    assert cfg.spec.bound_overrides == src.bound_overrides
    assert cfg.run.t_end == 30.0
    assert cfg.run.r == 0.45
    assert cfg.run.include_delayed_feedback is False
    assert cfg.timescale is not None
    assert cfg.timescale.graininess(5.0) == 1.0
    hist = history_pairs()["trig"][0]
    for s in (-1.5, -0.5, 0.0):
        assert cfg.history.stm[0](s) == pytest.approx(hist.stm[0](s), abs=1e-15)
        assert cfg.history.ltm_slope[1](s) == pytest.approx(
            hist.ltm_slope[1](s), abs=1e-15)


def test_run_options_defaults():
    cfg = parse_config(serialize_config(scalar_spec()))
    assert cfg.run == RunOptions()
    assert cfg.run.t_end == 50.0 and cfg.run.corrector_iters == 4
    assert cfg.run.r is None and cfg.run.r_grid is None
    assert cfg.run.include_delayed_feedback is True
    assert cfg.history is None and cfg.timescale is None


def test_run_section_r_grid_forms():
    base = serialize_config(scalar_spec())
    cfg = parse_config(base + "\n[run]\nr_grid = 0.10:0.30:0.05\n")
    assert np.allclose(cfg.run.r_grid, [0.10, 0.15, 0.20, 0.25, 0.30])
    cfg = parse_config(base + "\n[run]\nr_grid = 0.2 0.4 0.8\n")
    assert np.allclose(cfg.run.r_grid, [0.2, 0.4, 0.8])


def test_run_options_reject_both_r_and_r_grid():
    # Such options would serialize to text that parse_config rejects.
    with pytest.raises(ValueError, match="both r and r_grid"):
        RunOptions(r=0.45, r_grid=(0.4, 0.5))


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ConfigError, match="must contain a \\[network\\]"):
        parse_config("[run]\nt_end = 5\n")
    with pytest.raises(ConfigError, match="unknown section"):
        parse_config("[network]\nn = 1\n[mystery]\n")
    with pytest.raises(ConfigError, match="line 2"):
        parse_config("[network]\nn = banana\n")


def test_union_interval_syntaxes_build_the_same_scale(tmp_path):
    base = serialize_config(two_neuron_spec(), history_pairs()["trig"][0])
    scales = [parse_config(f"{base}[timescale]\nkind = union\nintervals = {text}\n").timescale
              for text in ("0,1; 2,3", "0 1; 2 3")]
    path = tmp_path / "noscale.cfg"
    path.write_text(base)
    args = build_parser().parse_args(["check", str(path), "--timescale", "union:0,1;2,3"])
    scales.append(_resolve_timescale(args, parse_config(base), 50.0))
    assert len({ts.describe() for ts in scales}) == 1
    assert scales[0].describe() == "interval[0, 1; step 0.01] u interval[2, 3; step 0.01]"
    line = base.count("\n") + 3
    with pytest.raises(ConfigError, match=f"line {line}: each interval needs two endpoints"):
        parse_config(f"{base}[timescale]\nkind = union\nintervals = 0,1,2\n")
    with pytest.raises(ConfigError, match=f"line {line + 1}: unknown \\[timescale\\] key 'stpe'"):
        parse_config(f"{base}[timescale]\nkind = union\nintervals = -3,2; 2.5,8\nstpe = 0.05\n")


def test_parse_history_text_roundtrip():
    hist = history_pairs()["trig"][1]
    again = parse_history_text(serialize_history(hist), 2)
    assert again.window == hist.window
    for s in (-1.5, -0.3, 0.0):
        assert again.stm[0](s) == hist.stm[0](s)
        assert again.ltm[1](s) == hist.ltm[1](s)
    with pytest.raises(ConfigError, match="no \\[history\\]"):
        parse_history_text("[network]\nn = 1\n", 1)


def test_serialize_history_requires_expressions():
    hist = HistorySpec(stm=(lambda s: 0.0,), stm_slope=(Const(0.0),),
                       ltm=(Const(0.0),), ltm_slope=(Const(0.0),), window=1.0)
    with pytest.raises(ValueError, match="not an expression"):
        serialize_history(hist)


# ---------------------------------------------------------------------------
# command-line contract
# ---------------------------------------------------------------------------


def test_check_reports_feasible_benchmark(bench_cfg, capsys):
    assert main(["check", str(bench_cfg)]) == 0
    out = capsys.readouterr().out
    assert "kappa" in out and "feasible" in out
    assert "graininess sup" in out


def test_check_is_deterministic(bench_cfg, capsys):
    main(["check", str(bench_cfg)])
    first = capsys.readouterr().out
    main(["check", str(bench_cfg)])
    assert capsys.readouterr().out == first


def test_check_tiny_radius_is_infeasible(bench_cfg, capsys):
    assert main(["check", str(bench_cfg), "--r", "0.05"]) == 1


def test_check_doubled_weights_fails(tmp_path, capsys):
    spec = two_neuron_spec()
    double = lambda grp: tuple(
        tuple(Scale(2.0, e) for e in row) if isinstance(row, tuple)
        else Scale(2.0, row) for row in grp)
    heavier = dataclasses.replace(
        spec,
        D=double(spec.D), Dtau=double(spec.Dtau), Dbar=double(spec.Dbar),
        Dtil=double(spec.Dtil), B=double(spec.B), E=double(spec.E),
        bound_overrides={
            key: (BoundPair(2.0 * pair.sup_abs,
                            2.0 * pair.inf_abs if pair.inf_abs else pair.inf_abs)
                  if key.split(".")[0] in {"D", "Dtau", "Dbar", "Dtil", "B", "E"}
                  else pair)
            for key, pair in spec.bound_overrides.items()
        })
    path = tmp_path / "heavy.cfg"
    path.write_text(serialize_config(heavier))
    assert main(["check", str(path)]) == 1


@pytest.mark.parametrize("command", ["check", "certificate"])
def test_zero_decay_infimum_is_a_conditions_error(command, bench_cfg, capsys):
    text = bench_cfg.read_text()
    assert "alpha.1 = 0.9 0.89\n" in text
    bench_cfg.write_text(text.replace("alpha.1 = 0.9 0.89\n", "alpha.1 = 0.9 0.0\n"))
    assert main([command, str(bench_cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("conditions error: ")
    assert "decay-rate infima must be positive" in err[0] and "alpha.1" in err[0]


@pytest.mark.parametrize("command", ["check", "certificate"])
def test_unbounded_coefficient_is_a_conditions_error(command, tmp_path, capsys):
    spec = two_neuron_spec()
    spec = dataclasses.replace(
        spec, I=(Affine(0.001, 0.0, TimeVar()), spec.I[1]),
        bound_overrides={k: v for k, v in spec.bound_overrides.items() if k != "I.1"})
    path = tmp_path / "unbounded.cfg"
    path.write_text(serialize_config(spec, None, {"kind": "Z"}, RunOptions(r=0.45)))
    assert main([command, str(path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("conditions error: coefficient I.1 ")


def test_certificate_command(bench_cfg, capsys):
    assert main(["certificate", str(bench_cfg)]) == 0
    out = capsys.readouterr().out
    assert "feasible radius r = 0.45" in out
    assert "lambda = " in out and "M = " in out


def test_simulate_writes_csv(bench_cfg, tmp_path, capsys):
    out_path = tmp_path / "traj.csv"
    assert main(["simulate", str(bench_cfg), "--out", str(out_path),
                 "--t-end", "10"]) == 0
    assert "wrote" in capsys.readouterr().out
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "t,x_1,x_2,S_1,S_2,dx_1,dx_2,dS_1,dS_2"
    # unit lattice from -1 (history) through 10: 12 rows
    assert len(lines) == 1 + 12


def test_simulate_to_stdout(bench_cfg, capsys):
    assert main(["simulate", str(bench_cfg), "--t-end", "3"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("t,x_1")


def test_simulate_requires_history_section(tmp_path, capsys):
    path = tmp_path / "nohist.cfg"
    path.write_text(serialize_config(scalar_spec(), None, {"kind": "Z"}))
    assert main(["simulate", str(path)]) == 2
    assert "history" in capsys.readouterr().err


def test_stability_command(bench_cfg, history2_file, tmp_path, capsys):
    out_path = tmp_path / "stab.csv"
    assert main(["stability", str(bench_cfg), "--history2", str(history2_file),
                 "--out", str(out_path)]) == 0
    out = capsys.readouterr().out
    assert "violated false" in out and "lambda_fit" in out
    assert out_path.read_text().splitlines()[0] == "t,distance,bound,margin"


def test_stability_lambda_override_fails_cleanly(bench_cfg, history2_file, capsys):
    # a rate far beyond the certificate is inadmissible on the unit lattice
    rc = main(["stability", str(bench_cfg), "--history2", str(history2_file),
               "--lambda-override", "4.0"])
    assert rc == 1
    assert "regressivity" in capsys.readouterr().err


def test_stability_gates_on_the_solvability_check(bench_cfg, history2_file,
                                                  tmp_path, capsys):
    path = tmp_path / "tiny.cfg"
    path.write_text(bench_cfg.read_text().replace("r = 0.45", "r = 0.05"))
    assert main(["stability", str(path), "--history2", str(history2_file)]) == 1
    assert "infeasible" in capsys.readouterr().err


def test_certificate_reports_smallest_feasible_radius(tmp_path, capsys):
    path = tmp_path / "grid.cfg"
    path.write_text(serialize_config(
        two_neuron_spec(), None, {"kind": "Z"},
        RunOptions(r_grid=(0.9, 0.5, 0.45), include_delayed_feedback=False)))
    assert main(["certificate", str(path)]) == 0
    assert "feasible radius r = 0.45 " in capsys.readouterr().out


@pytest.mark.parametrize("desc", [
    {"kind": "R", "start": "-2.0", "stop": "3.0"},
    {"kind": "union", "intervals": "-2 1; 1.5 3"},
])
def test_simulate_h_sets_the_dense_step(desc, tmp_path, capsys):
    def rows(step, *flags):
        path = tmp_path / "dense.cfg"
        path.write_text(serialize_config(
            two_neuron_spec(), history_pairs()["trig"][0], dict(desc, step=step),
            RunOptions(t_end=3.0)))
        assert main(["simulate", str(path), "--out", str(tmp_path / "traj.csv"),
                     *flags]) == 0
        return capsys.readouterr().out

    assert rows("0.01", "--h", "0.05") == rows("0.05") != rows("0.01")


def test_run_section_rejects_both_r_and_r_grid(bench_cfg, capsys):
    lines = bench_cfg.read_text().splitlines()
    at = lines.index("r = 0.45") + 1
    bench_cfg.write_text("\n".join(lines[:at] + ["r_grid = 0.4 0.5"] + lines[at:]) + "\n")
    assert main(["certificate", str(bench_cfg)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"config error: line {at + 1}: ") and "r_grid" in err[0]


def test_stability_requires_second_history(bench_cfg, capsys):
    assert main(["stability", str(bench_cfg)]) == 2


def test_missing_file_is_config_error(capsys):
    assert main(["check", "no-such-file.cfg"]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_malformed_config_reports_line(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("[network]\nn = banana\n")
    assert main(["check", str(path)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "line 2" in err


def test_usage_errors_and_help(capsys):
    assert main([]) == 2
    assert main(["frobnicate"]) == 2
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_timescale_flag_overrides_config(bench_cfg, capsys):
    # dense grid: graininess sup 0 changes the printed bound summary
    assert main(["check", str(bench_cfg), "--timescale", "R"]) == 0
    out = capsys.readouterr().out
    assert "graininess sup = 0" in out


def test_bad_timescale_flags_are_config_errors(bench_cfg, tmp_path, capsys):
    noscale = tmp_path / "noscale.cfg"
    noscale.write_text(serialize_config(two_neuron_spec(), history_pairs()["trig"][0]))
    # --h sets the step of a dense scale: a lattice has none, nor does no scale
    for argv, named in (
            (["check", str(bench_cfg), "--timescale", "union:oops"], "union:oops"),
            (["certificate", str(bench_cfg), "--timescale", "Z", "--h", "0.05"], "--h"),
            (["certificate", str(bench_cfg), "--h", "0.05"], "--h"),
            (["check", str(noscale), "--h", "0.05"], "--h")):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert captured.out == "" and len(err) == 1, argv
        assert err[0].startswith("config error: ") and named in err[0], argv


def test_module_entry_point(bench_cfg, src_env):
    proc = subprocess.run(
        [sys.executable, "-m", "chronoscale", "check", str(bench_cfg)],
        capture_output=True, text=True, env=src_env)
    assert proc.returncode == 0
    assert "feasible" in proc.stdout


def test_example_materializes_and_passes(tmp_path, capsys):
    out_dir = tmp_path / "demo"
    assert main(["example", "--out", str(out_dir)]) == 0
    out = capsys.readouterr().out
    assert (out_dir / "benchmark.cfg").exists()
    assert (out_dir / "history2.cfg").exists()
    assert "== solvability check" in out
    assert "== certificate on T = R (grid h = 0.01) ==" in out
    assert "== certificate on T = Z (unit lattice) ==" in out
    assert out.count("violated false") == 2
    cfg = parse_config((out_dir / "benchmark.cfg").read_text())
    assert cfg.run.include_delayed_feedback is False
    assert cfg.history is not None

"""Configuration parsing/serialization and the command-line contract."""

import dataclasses
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from chronoscale.network import ACTIVATIONS, FieldError, NetworkSpec
from chronoscale.simulator import HistorySpec
from chronoscale.timescale import TimeScaleError


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


_RUN = RunOptions(t_end=25.0, r=0.45, include_delayed_feedback=False)


@pytest.mark.parametrize("spec, hist, desc, run", [
    (two_neuron_spec(), history_pairs()["trig"][0], {"kind": "Z"}, _RUN),
    (distinct_constant_spec(), None, {"kind": "Z"}, _RUN),
    (two_neuron_spec(), history_pairs()["trig"][1],
     {"kind": "union", "step": "0.02", "intervals": "-3,30;32,50"},
     RunOptions(t_end=40.0, t0=-1.5, corrector_iters=7, r_grid=(0.1, 0.25, 0.45),
                include_delayed_feedback=True)),
], ids=["two-neuron", "distinct-n3", "union-r-grid"])
def test_serialize_parse_roundtrip_is_bit_identical(spec, hist, desc, run):
    text = serialize_config(spec, hist, desc, run)
    cfg = parse_config(text)
    again = serialize_config(cfg.spec, cfg.history, cfg.timescale_desc, cfg.run)
    assert again == text

    bounds = compute_bounds(cfg.spec)
    for key, expr in spec.coefficient_items():
        name, *pos = key.split(".")
        pair = spec.bound_overrides.get(key) or bound_sup_inf(expr)
        assert bounds.sup[name][tuple(int(p) - 1 for p in pos)] == pair.sup_abs
        if not spec.bound_overrides:
            assert pair.sup_abs == abs(expr(0.0))
    listed = [line.split(":")[0].strip() for line in bounds.summary_lines()[1:-1]]
    assert listed == [key for key, _, _ in NetworkSpec.coefficient_keys(spec.n)]


def test_run_and_history_lines_are_pinned():
    hist = HistorySpec(stm=(Const(0.5),), stm_slope=(Const(0.0),),
                       ltm=(Scale(2.0, TimeVar()),), ltm_slope=(Const(2.0),), window=1.5)
    text = serialize_config(scalar_spec(), hist, None,
                            RunOptions(t_end=12.5, t0=-1.0, corrector_iters=3,
                                       r_grid=(0.1, 0.2), include_delayed_feedback=False))
    tail = text[text.index("[history]"):]
    assert tail == ("[history]\n"
                    "window = 1.5\n"
                    "phi.1 = const 0.5\n"
                    "phi_nabla.1 = const 0\n"
                    "psi.1 = scale 2 t\n"
                    "psi_nabla.1 = const 2\n"
                    "\n"
                    "[run]\n"
                    "t_end = 12.5\n"
                    "t0 = -1.0\n"
                    "corrector_iters = 3\n"
                    "r_grid = 0.1 0.2\n"
                    "include_delayed_feedback = false\n")
    assert serialize_config(scalar_spec(), run=RunOptions(r=0.3)).endswith(
        "[run]\nt_end = 50.0\nt0 = 0.0\ncorrector_iters = 4\nr = 0.3\n"
        "include_delayed_feedback = true\n")


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


_NETWORK = serialize_config(scalar_spec(), None)


@pytest.mark.parametrize("text, message", [
    pytest.param("[ ]\n" + _NETWORK, "line 1: empty section name", id="empty-section"),
    pytest.param("[network]\nn 1\n", "line 2: expected 'key = value', got 'n 1'",
                 id="no-assignment"),
    pytest.param("n = 1\n[network]\n", "line 1: assignment before any [section] header",
                 id="no-section"),
    pytest.param("[network]\n= 1\n", "line 2: missing key before '='", id="no-key"),
    pytest.param(_NETWORK.replace("alpha.1 = const 0.5\n", "") + "alpha.1 = sin\n",
                 "line {last}: bad expression for alpha.1: ", id="bad-expression"),
    pytest.param("[network]\nf.1 = tanh\n", "[network] section must set n", id="no-n"),
    pytest.param("[network]\nn = 0\n", "line 2: n must be positive", id="zero-n"),
    pytest.param("[network]\nn = 1\n", "[network] is missing activation f.1",
                 id="no-activation"),
    pytest.param("[network]\nn = 1\nf.1 = relu\n",
                 "line 3: unknown activation 'relu' (known: identity, sin_half, tanh)",
                 id="unknown-activation"),
    pytest.param("[network]\nn = 1\nf.1 = tanh\n", "[network] is missing alpha.1",
                 id="no-coefficient"),
    pytest.param(_NETWORK + "[bounds]\nalpha.1 = 0.5 0.4 0.3\n",
                 "line {last}: bounds need 'sup' or 'sup inf', got '0.5 0.4 0.3'",
                 id="three-bounds"),
    pytest.param(_NETWORK + "[history]\nphi.1 = const 0\n",
                 "[history] section must set window", id="no-window"),
    pytest.param(_NETWORK + "[history]\nwindow = 1\n", "[history] is missing phi.1",
                 id="no-history-state"),
])
def test_each_malformed_config_is_refused_with_its_message(text, message):
    # {last} is the text's last line, which holds the malformed entry
    with pytest.raises(ConfigError) as info:
        parse_config(text)
    assert str(info.value).startswith(message.format(last=text.count("\n")))


def test_an_activation_without_l_takes_its_own_lipschitz_constant():
    text = _NETWORK.replace("f.1 = identity\nL.1 = 1.0\n", "f.1 = sin_half\n")
    assert "L.1" not in text
    assert parse_config(text).spec.lipschitz == (ACTIVATIONS["sin_half"].lipschitz,)


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


@pytest.mark.parametrize("desc, message", [
    ({"kind": "Z", "start": "0"}, "unknown \\[timescale\\] key 'start'"),
    ({"kind": "Z", "foo": "1"}, "unknown \\[timescale\\] key 'foo'"),
    ({"kind": "R", "start": "0", "stop": "1"}, "\\[timescale\\] kind R requires step"),
    ({"kind": "lattice"}, "unknown timescale kind 'lattice' \\(expected Z, R, or union\\)"),
    ({"kind": "union", "intervals": "0,1; x,3"}, "intervals must be a number, got ' x'"),
    ({"kind": "union", "intervals": "0,1;\n2,3"}, "not one line of text"),
    ({"kind": "Z", "spacing": " 2"}, "not one line of text"),
])
def test_serialize_refuses_a_timescale_parse_config_refuses(desc, message):
    with pytest.raises(ConfigError, match=message):
        serialize_config(scalar_spec(), None, desc)


_SCALAR = scalar_spec()
_FINITE = st.floats(0.0, 1e3, allow_nan=False)


@st.composite
def _timescale_descs(draw):
    """A [timescale] description, and whether a corruption was applied to it."""
    kind = draw(st.sampled_from(["Z", "R", "union"]))
    num = lambda lo, hi: repr(draw(st.floats(lo, hi, allow_nan=False)))
    if kind == "Z":
        desc = {"spacing": num(0.1, 5.0), "anchor": num(-5.0, 5.0)}
        desc = {key: value for key, value in desc.items() if draw(st.booleans())}
    elif kind == "R":
        start = draw(st.floats(-5.0, 0.0))
        desc = {"start": repr(start), "stop": repr(start + draw(st.floats(0.5, 50.0))),
                "step": num(0.01, 0.5)}
    else:
        ends = sorted(draw(st.lists(st.integers(-50, 60), min_size=2, max_size=6, unique=True)))
        sep, join = draw(st.sampled_from([(",", ";"), (" ", "; "), (",", "; ")]))
        desc = {"intervals": join.join(f"{a}{sep}{b}" for a, b in zip(ends[::2], ends[1::2]))}
        if draw(st.booleans()):
            desc["step"] = num(0.01, 0.5)
    desc = {"kind": draw(st.sampled_from([kind, kind.lower(), kind.upper()])), **desc}
    corruptions = draw(st.lists(st.sampled_from(
        ["stray key", "missing key", "unknown kind", "non-numeric", "padded"]), max_size=2))
    for corruption in corruptions:
        key = draw(st.sampled_from(sorted(desc) or ["kind"]))
        if corruption == "stray key":
            desc[draw(st.sampled_from(["spacing", "anchor", "start", "stop", "step",
                                       "intervals", "foo"]))] = "1"
        elif corruption == "missing key":
            desc.pop(key, None)
        elif corruption == "unknown kind":
            desc["kind"] = draw(st.sampled_from(["lattice", "hybrid", "", "Z R"]))
        elif corruption == "non-numeric":
            desc[key] = draw(st.sampled_from(["abc", "1..2", "", "0,1;2", "1 2"]))
        else:
            desc[key] = draw(st.sampled_from([" {}", "{}\n", "{}\nstep = 2", "{}\r"])).format(
                desc.get(key, "1"))
    return desc, bool(corruptions)


@st.composite
def _override_tables(draw):
    """A [bounds] table for the one-neuron spec, and whether it was corrupted."""
    keys = [key for key, _, _ in NetworkSpec.coefficient_keys(1)]
    table = {}
    for key in draw(st.lists(st.sampled_from(keys), max_size=4, unique=True)):
        inf, sup = sorted((draw(_FINITE), draw(_FINITE)))
        table[key] = BoundPair(sup, inf if draw(st.booleans()) else 0.0)
    corruptions = draw(st.lists(st.sampled_from(
        ["negative", "inverted", "non-finite", "outside the model"]), max_size=2))
    for corruption in corruptions:
        key = draw(st.sampled_from(keys))
        if corruption == "negative":
            table[key] = BoundPair(-draw(st.floats(1e-9, 10.0)), 0.0)
        elif corruption == "inverted":
            table[key] = BoundPair(1.0, 1.0 + draw(st.floats(1e-9, 10.0)))
        elif corruption == "non-finite":
            bad = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
            table[key] = draw(st.sampled_from([BoundPair(bad, 0.0), BoundPair(1.0, bad)]))
        else:
            table[draw(st.sampled_from(["alpha.2", "D.1.2", "D.2.1", "L.1", "foo"]))] = \
                BoundPair(1.0, 0.0)
    return table, bool(corruptions)


@given(drawn_desc=_timescale_descs(), drawn_table=_override_tables())
@settings(max_examples=150, deadline=None)
def test_serialized_timescale_and_bounds_reparse_to_the_same_bytes(drawn_desc, drawn_table):
    (desc, bad_desc), (table, bad_table) = drawn_desc, drawn_table
    try:
        spec = dataclasses.replace(_SCALAR, bound_overrides=table)
    except FieldError:
        assert bad_table
        spec = _SCALAR
    try:
        text = serialize_config(spec, None, desc, RunOptions())
    except (ConfigError, TimeScaleError):
        assert bad_desc
        return
    cfg = parse_config(text)
    assert cfg.spec.bound_overrides == spec.bound_overrides
    assert serialize_config(cfg.spec, cfg.history, cfg.timescale_desc, cfg.run) == text


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


def test_stability_exits_1_when_the_certificate_is_violated(history2_file, tmp_path, capsys):
    # the example's config on 4Z: the certificate is issued, and the run breaks it
    path = tmp_path / "4z.cfg"
    path.write_text(serialize_config(
        two_neuron_spec(), history_pairs()["trig"][0], {"kind": "Z", "spacing": "4"},
        RunOptions(t_end=50.0, r=0.45, include_delayed_feedback=False)))
    assert main(["stability", str(path), "--history2", str(history2_file),
                 "--t-end", "40"]) == 1
    assert "violated true" in capsys.readouterr().out


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


def _one_config_error(capsys) -> str:
    """The single stderr line of a run that exited 2 before any output."""
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert captured.out == "" and len(err) == 1, captured
    assert err[0].startswith("config error: ")
    return err[0]


@pytest.mark.parametrize("command", ["check", "certificate"])
@pytest.mark.parametrize("line", [
    "D.1.1 = -5", "alpha.1 = 0.5 0.9", "eta.1 = nan", "I.1 = inf", "c.1 = 0.5 -0.1"])
def test_malformed_bound_overrides_are_config_errors(command, line, bench_cfg, capsys):
    key = line.split()[0]
    lines = bench_cfg.read_text().splitlines()
    at = lines.index("[bounds]") + 1
    rest = [ln for ln in lines[at:] if not ln.startswith(key + " ")]
    bench_cfg.write_text("\n".join(lines[:at] + [line] + rest) + "\n")
    assert main([command, str(bench_cfg), "--r", "0.45"]) == 2
    err = _one_config_error(capsys)
    assert err.startswith(f"config error: line {at + 1}: ") and key in err


def test_duplicate_bound_override_is_a_config_error(bench_cfg, capsys):
    lines = bench_cfg.read_text().splitlines()
    at = lines.index("[bounds]") + 1
    bench_cfg.write_text("\n".join(lines[:at + 1] + [lines[at]] + lines[at + 1:]) + "\n")
    assert main(["check", str(bench_cfg)]) == 2
    assert _one_config_error(capsys).startswith(f"config error: line {at + 2}: duplicate key")


@pytest.mark.parametrize("old, new, flags", [
    ("window = 1.5", "window = -1", ()),
    ("window = 1.5", "window = inf", ()),
    ("t_end = 30.0", "t_end = -3", ()),
    ("t_end = 30.0", "t_end = nan", ()),
    ("corrector_iters = 4", "corrector_iters = 0", ()),
    (None, None, ("--t-end", "-5")),
    (None, None, ("--t-end", "nan")),
    (None, None, ("--t-end", "inf")),
    ("r = 0.45", "r = nan", ()),
    ("r = 0.45", "r = -1", ()),
    ("r = 0.45", "r_grid =", ()),
    ("r = 0.45", "r_grid = 0.1:inf:0.1", ()),
    ("L.1 = 1.0", "L.1 = -5", ()),
    ("L.1 = 1.0", "L.1 = nan", ()),
    (None, None, ("--r", "nan")),
    ("r = 0.45", "r_grid = 0.1:1:1e-9", ()),
])
def test_malformed_run_inputs_are_config_errors(old, new, flags, bench_cfg, capsys):
    # --r belongs to check and certificate; every other case runs simulate
    command = "certificate" if flags[:1] == ("--r",) else "simulate"
    if old is not None:
        lines = bench_cfg.read_text().splitlines()
        at = lines.index(old)
        lines[at] = new
        bench_cfg.write_text("\n".join(lines) + "\n")
    assert main([command, str(bench_cfg), *flags]) == 2
    err = _one_config_error(capsys)
    if old is not None:
        assert err.startswith(f"config error: line {at + 1}: {new.split()[0]}")
    else:
        assert err.startswith(f"config error: {flags[0]} ")


def test_run_options_refuse_what_parse_config_refuses():
    # Each would serialize to a [run] section that parse_config rejects.
    for kwargs, message in [
            ({"t_end": -3.0}, "t_end = -3.0 must exceed t0 = 0.0"),
            ({"t0": math.nan}, "t0 must be finite"),
            ({"corrector_iters": 0}, "corrector_iters must be at least 1"),
            ({"r": -1.0}, "r must give finite positive radii"),
            ({"r_grid": (0.4, math.inf)}, "r_grid must give finite positive radii"),
            ({"r_grid": ()}, "r_grid must give finite positive radii")]:
        with pytest.raises(ValueError, match=message):
            RunOptions(**kwargs)


def test_history_window_must_be_finite():
    zero = Const(0.0)
    with pytest.raises(ValueError, match="finite and nonnegative"):
        HistorySpec(stm=(zero,), stm_slope=(zero,), ltm=(zero,), ltm_slope=(zero,),
                    window=float("inf"))


def test_stability_requires_second_history(bench_cfg, capsys):
    assert main(["stability", str(bench_cfg)]) == 2


def test_stability_without_a_history_section_is_a_config_error(tmp_path, history2_file,
                                                              capsys):
    path = tmp_path / "nohist.cfg"
    path.write_text(serialize_config(two_neuron_spec(), None, {"kind": "Z"}))
    assert main(["stability", str(path), "--history2", str(history2_file)]) == 2
    assert _one_config_error(capsys) == "config error: stability needs a [history] section"


def test_a_network_without_finite_m_is_refused_a_certificate(capsys):
    # the corpus's uncoupled network: Pbar = Qbar = 0, so M is unbounded
    path = Path(__file__).parent / "data" / "uncoupled-0.1Z.cfg"
    assert main(["certificate", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "conditions error: M is unbounded: Pbar of neuron 1 is 0\n"


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


def test_timescale_flag_is_spelled_from_the_kind_table(bench_cfg, capsys):
    for value in ("lattice", "Z:2", "union", "R:0,1"):
        assert main(["check", str(bench_cfg), "--timescale", value]) == 2
        assert _one_config_error(capsys) == (
            f"config error: unknown --timescale value {value!r} "
            f"(expected {{Z|R|union:<intervals>}})")
    # kind names match without regard to case, as in a [timescale] section
    for value in ("z", "r", "UNION:-3,30;32,50"):
        assert main(["check", str(bench_cfg), "--timescale", value]) == 0
        capsys.readouterr()
    assert main(["check", "--help"]) == 0
    assert "--timescale {Z|R|union:<intervals>}" in capsys.readouterr().out


@pytest.mark.parametrize("desc, edit, flags, code, prefix", [
    # the reference model on 8Z; see tests/test_soundness_corpus.py
    ({"kind": "Z", "spacing": "8"}, None, (), 3, "step failure at t = 8: step to t=8.0 failed"),
    ({"kind": "R", "start": "-2", "stop": "16", "step": "0.1"}, ("stop = 16", "stop = -5"),
     (), 2, "time-scale error: dense piece needs stop > start"),
    ({"kind": "Z"}, None, ("--out", "no-such-dir/traj.csv"), 2, "i/o error: "),
])
def test_failures_map_to_stderr_prefix_and_exit_code(desc, edit, flags, code, prefix,
                                                      tmp_path, capsys):
    text = serialize_config(two_neuron_spec(), history_pairs()["trig"][0], desc,
                            RunOptions(t_end=16.0))
    path = tmp_path / "run.cfg"
    path.write_text(text.replace(*edit) if edit else text)
    assert main(["simulate", str(path), *flags]) == code
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(prefix), err


@pytest.mark.parametrize("command", ["certificate", "simulate"])
@pytest.mark.parametrize("line, message", [
    ("anchor = nan", "lattice anchor must be finite, got nan"),
    ("spacing = 1e-300", "lattice spacing must be finite and exceed 1e-09, got 1e-300"),
    ("spacing = inf", "lattice spacing must be finite and exceed 1e-09, got inf"),
], ids=["nan-anchor", "tiny-spacing", "infinite-spacing"])
def test_malformed_lattice_is_a_time_scale_error(command, line, message, bench_cfg, capsys):
    text = bench_cfg.read_text()
    assert "\nkind = Z\n" in text
    bench_cfg.write_text(text.replace("\nkind = Z\n", f"\nkind = Z\n{line}\n"))
    assert main([command, str(bench_cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"time-scale error: {message}"]


@pytest.mark.parametrize("command", ["certificate", "simulate"])
@pytest.mark.parametrize("h", ["1e-12", "inf"], ids=["tiny-step", "infinite-step"])
def test_malformed_quadrature_step_is_a_time_scale_error(command, h, bench_cfg, capsys):
    # 1e-12 would ask for trillions of panels and inf adjusts to one panel
    assert main([command, str(bench_cfg), "--timescale", "R", "--h", h]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"time-scale error: quadrature step must be finite and exceed 1e-09, got {float(h)}"]


@pytest.mark.parametrize("flags, edit, message", [
    (["--timescale", "R", "--h", "3.25"], None,
     "start time 0.0 lies inside the panel (-1.5, 1.2) of the run's grid"),
    ([], ("\nt0 = 0.0\n", "\nt0 = 0.5\n"), "start time 0.5 is not a point of the time scale"),
], ids=["R-panel", "Z-off-lattice"])
def test_a_start_time_off_the_run_grid_is_a_time_scale_error(flags, edit, message, bench_cfg,
                                                             capsys):
    # no step is taken, so this is malformed run input, not a stepping failure
    if edit:
        text = bench_cfg.read_text()
        assert edit[0] in text
        bench_cfg.write_text(text.replace(*edit))
    assert main(["simulate", str(bench_cfg), *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"time-scale error: {message}"]


@pytest.mark.parametrize("flags, line", [(["--timescale", "R", "--h", "2e-9"], ""),
                                         ([], "spacing = 2e-9\n")], ids=["R", "Z"])
def test_a_run_past_the_node_budget_is_a_time_scale_error(flags, line, bench_cfg, capsys):
    # the run window [-1.5, 30] at spacing 2e-9 would be a 117 GiB grid
    text = bench_cfg.read_text()
    bench_cfg.write_text(text.replace("\nkind = Z\n", f"\nkind = Z\n{line}"))
    assert main(["simulate", str(bench_cfg), *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "time-scale error: window [-1.5, 30.0] holds 15750000001 nodes at spacing 2e-09; "
        "a grid holds at most 2000000"]
    # a certificate builds no grid
    assert main(["certificate", str(bench_cfg), *flags]) == 0


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

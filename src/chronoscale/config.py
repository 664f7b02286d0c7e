"""Sectioned text configuration for networks, histories, scales, and runs.

Format
------
Plain text, one ``key = value`` pair per line, grouped under ``[section]``
headers.  ``#`` starts a comment; blank lines are ignored.  Sections:

``[network]``
    ``n`` (size), per-neuron ``f.i`` (activation name) and ``L.i``
    (declared Lipschitz bound), and one prefix expression per coefficient:
    vectors ``alpha.i, c.i, B.i, E.i, I.i, J.i, eta.i, varsigma.i`` and
    matrices ``D.i.j, Dtau.i.j, Dbar.i.j, Dtil.i.j, tau.i.j, sigma_d.i.j,
    zeta.i.j`` (1-based indices).  Expression syntax is the one documented
    in :mod:`chronoscale.coeffs`, e.g. ``add(const 0.895, scale 0.005 (sin
    (affine 2.646 0 t)))``.

``[bounds]`` (optional)
    Overrides for the enclosed coefficient bounds, keyed like the
    coefficients: ``key = sup`` or ``key = sup inf``.

``[history]`` (optional)
    ``window`` plus expressions ``phi.i`` / ``phi_nabla.i`` (short-term
    state and slope) and ``psi.i`` / ``psi_nabla.i`` (long-term), evaluated
    at relative times ``s <= 0``.

``[timescale]`` (optional)
    ``kind = Z`` with optional ``spacing``/``anchor``; ``kind = R`` with
    ``start``, ``stop``, ``step``; ``kind = union`` with ``intervals = a,b;
    c,d; ...`` (or ``a b; c d; ...``) and optional ``step`` (default 0.01).
    Any other key is an error.  :func:`build_timescale` turns the section
    into a ``TimeScale``.

``[run]`` (optional)
    ``t_end``, ``t0``, ``corrector_iters``, ``r`` or ``r_grid`` (not both;
    either ``lo:hi:step`` or a space-separated list),
    ``include_delayed_feedback`` (``true``/``false``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .coeffs import BoundPair, CoeffExpr, ExprParseError, parse_expr, to_text
from .network import ACTIVATIONS, NetworkSpec
from .simulator import HistorySpec
from .timescale import TimeScale

__all__ = [
    "ConfigError",
    "RunOptions",
    "RunConfig",
    "build_timescale",
    "parse_config",
    "parse_history_text",
    "serialize_config",
    "serialize_history",
]


class ConfigError(ValueError):
    """Malformed configuration text (message carries a line number)."""


@dataclass(frozen=True)
class RunOptions:
    """Typed view of the ``[run]`` section with defaults."""

    t_end: float = 50.0
    t0: float = 0.0
    corrector_iters: int = 4
    r: float | None = None
    r_grid: tuple[float, ...] | None = None
    include_delayed_feedback: bool = True

    def __post_init__(self):
        if self.r is not None and self.r_grid is not None:
            raise ValueError("RunOptions sets both r and r_grid; give one")


@dataclass(frozen=True)
class RunConfig:
    """A parsed configuration file."""

    spec: NetworkSpec
    history: HistorySpec | None
    timescale: TimeScale | None
    timescale_desc: dict[str, str] = field(default_factory=dict)
    run: RunOptions = RunOptions()


# ---------------------------------------------------------------------------
# low-level line scanning
# ---------------------------------------------------------------------------


def _scan_sections(text: str) -> dict[str, list[tuple[int, str, str]]]:
    """Split text into sections of (line_no, key, value) triples."""
    sections: dict[str, list[tuple[int, str, str]]] = {}
    current: str | None = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip().lower()
            if not current:
                raise ConfigError(f"line {line_no}: empty section name")
            sections.setdefault(current, [])
            continue
        if "=" not in line:
            raise ConfigError(f"line {line_no}: expected 'key = value', got {line!r}")
        if current is None:
            raise ConfigError(f"line {line_no}: assignment before any [section] header")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not key:
            raise ConfigError(f"line {line_no}: missing key before '='")
        sections[current].append((line_no, key, value))
    return sections


def _as_map(items: list[tuple[int, str, str]], section: str) -> dict[str, tuple[int, str]]:
    out: dict[str, tuple[int, str]] = {}
    for line_no, key, value in items:
        if key in out:
            raise ConfigError(f"line {line_no}: duplicate key {key!r} in [{section}]")
        out[key] = (line_no, value)
    return out


def _reject_stray(table: Mapping[str, tuple[int | None, str]], section: str) -> None:
    """Raise on the first key a section builder left unread in ``table``."""
    for key, (line_no, _) in table.items():
        where = f"line {line_no}: " if line_no is not None else ""
        raise ConfigError(f"{where}unknown [{section}] key {key!r}")


def _parse_float(value: str, line_no: int, key: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise ConfigError(f"line {line_no}: {key} must be a number, got {value!r}") from None


def _parse_expr_value(value: str, line_no: int, key: str) -> CoeffExpr:
    try:
        return parse_expr(value)
    except ExprParseError as exc:
        raise ConfigError(f"line {line_no}: bad expression for {key}: {exc}") from None


# ---------------------------------------------------------------------------
# section builders
# ---------------------------------------------------------------------------


def _build_network(items: list[tuple[int, str, str]],
                   bound_items: list[tuple[int, str, str]] | None) -> NetworkSpec:
    table = _as_map(items, "network")
    if "n" not in table:
        raise ConfigError("[network] section must set n")
    line_no, raw_n = table.pop("n")
    try:
        n = int(raw_n)
    except ValueError:
        raise ConfigError(f"line {line_no}: n must be an integer") from None
    if n < 1:
        raise ConfigError(f"line {line_no}: n must be positive")

    activations = []
    lipschitz = []
    for i in range(1, n + 1):
        if f"f.{i}" not in table:
            raise ConfigError(f"[network] is missing activation f.{i}")
        line_no, name = table.pop(f"f.{i}")
        if name not in ACTIVATIONS:
            known = ", ".join(sorted(ACTIVATIONS))
            raise ConfigError(f"line {line_no}: unknown activation {name!r} (known: {known})")
        activations.append(ACTIVATIONS[name])
        if f"L.{i}" in table:
            line_no, raw = table.pop(f"L.{i}")
            lipschitz.append(_parse_float(raw, line_no, f"L.{i}"))
        else:
            lipschitz.append(activations[-1].lipschitz)

    coeffs: dict[str, np.ndarray] = {}
    for key, name, idx in NetworkSpec.coefficient_keys(n):
        if key not in table:
            raise ConfigError(f"[network] is missing {key}")
        line_no, value = table.pop(key)
        cells = coeffs.setdefault(name, np.empty((n,) * len(idx), dtype=object))
        cells[idx] = _parse_expr_value(value, line_no, key)
    _reject_stray(table, "network")

    overrides: dict[str, BoundPair] = {}
    if bound_items:
        valid_keys = {key for key, _, _ in NetworkSpec.coefficient_keys(n)}
        for line_no, key, value in bound_items:
            if key not in valid_keys:
                raise ConfigError(f"line {line_no}: unknown [bounds] key {key!r}")
            parts = value.split()
            if len(parts) not in (1, 2):
                raise ConfigError(
                    f"line {line_no}: bounds need 'sup' or 'sup inf', got {value!r}")
            sup = _parse_float(parts[0], line_no, key)
            inf = _parse_float(parts[1], line_no, key) if len(parts) == 2 else 0.0
            overrides[key] = BoundPair(sup, inf, "override")

    return NetworkSpec(
        n=n,
        activations=tuple(activations),
        lipschitz=tuple(lipschitz),
        bound_overrides=overrides,
        **coeffs,
    )


def _build_history(items: list[tuple[int, str, str]], n: int) -> HistorySpec:
    table = _as_map(items, "history")
    if "window" not in table:
        raise ConfigError("[history] section must set window")
    line_no, raw = table.pop("window")
    window = _parse_float(raw, line_no, "window")

    def need(prefix: str) -> tuple[CoeffExpr, ...]:
        out = []
        for i in range(1, n + 1):
            key = f"{prefix}.{i}"
            if key not in table:
                raise ConfigError(f"[history] is missing {key}")
            line_no, value = table.pop(key)
            out.append(_parse_expr_value(value, line_no, key))
        return tuple(out)

    stm = need("phi")
    stm_slope = need("phi_nabla")
    ltm = need("psi")
    ltm_slope = need("psi_nabla")
    _reject_stray(table, "history")
    return HistorySpec(stm=stm, stm_slope=stm_slope, ltm=ltm,
                       ltm_slope=ltm_slope, window=window)


def build_timescale(desc: Mapping[str, str],
                    lines: Mapping[str, int] | None = None) -> TimeScale:
    """Build the time scale a ``[timescale]`` description names.

    ``desc`` maps the section's keys to their text, as in
    :attr:`RunConfig.timescale_desc`; union endpoints are separated by a
    comma or by whitespace.  A key the kind does not read is an error.
    ``lines`` maps keys to the line numbers that prefix the diagnostics of a
    parsed file.
    """
    lines = lines or {}

    def fail(key: str, message: str) -> ConfigError:
        return ConfigError(f"line {lines[key]}: {message}" if key in lines else message)

    def to_float(key: str, text: str) -> float:
        try:
            return float(text)
        except ValueError:
            raise fail(key, f"{key} must be a number, got {text!r}") from None

    def number(key: str, default: float | None = None) -> float:
        if key in desc:
            return to_float(key, desc[key])
        if default is None:
            raise ConfigError(f"[timescale] kind R requires {key}")
        return default

    if "kind" not in desc:
        raise ConfigError("[timescale] section must set kind")
    kind = desc["kind"].strip().upper()
    reads = {"Z": ("spacing", "anchor"), "R": ("start", "stop", "step"),
             "UNION": ("intervals", "step")}
    if kind not in reads:
        raise fail("kind", f"unknown timescale kind {desc['kind']!r} (expected Z, R, or union)")
    _reject_stray({key: (lines.get(key), text) for key, text in desc.items()
                   if key != "kind" and key not in reads[kind]}, "timescale")
    if kind == "Z":
        return TimeScale.integer_lattice(spacing=number("spacing", 1.0),
                                         anchor=number("anchor", 0.0))
    if kind == "R":
        return TimeScale.real_interval(number("start"), number("stop"), number("step"))
    if "intervals" not in desc:
        raise ConfigError("[timescale] kind union requires intervals")
    intervals = []
    for chunk in desc["intervals"].split(";"):
        ends = chunk.split(",") if "," in chunk else chunk.split()
        if len(ends) != 2:
            raise fail("intervals", f"each interval needs two endpoints, got {chunk!r}")
        intervals.append(tuple(to_float("intervals", text) for text in ends))
    return TimeScale.union_of_intervals(intervals, step=number("step", 0.01))


def _build_run(items: list[tuple[int, str, str]]) -> RunOptions:
    table = _as_map(items, "run")
    kwargs = {}
    if "t_end" in table:
        ln, raw = table.pop("t_end")
        kwargs["t_end"] = _parse_float(raw, ln, "t_end")
    if "t0" in table:
        ln, raw = table.pop("t0")
        kwargs["t0"] = _parse_float(raw, ln, "t0")
    if "corrector_iters" in table:
        ln, raw = table.pop("corrector_iters")
        try:
            kwargs["corrector_iters"] = int(raw)
        except ValueError:
            raise ConfigError(f"line {ln}: corrector_iters must be an integer") from None
    if "r" in table and "r_grid" in table:
        later = max(table["r"][0], table["r_grid"][0])
        raise ConfigError(f"line {later}: [run] sets both r and r_grid; give one")
    if "r" in table:
        ln, raw = table.pop("r")
        kwargs["r"] = _parse_float(raw, ln, "r")
    if "r_grid" in table:
        ln, raw = table.pop("r_grid")
        if ":" in raw:
            parts = raw.split(":")
            if len(parts) != 3:
                raise ConfigError(f"line {ln}: r_grid range must be lo:hi:step")
            lo = _parse_float(parts[0], ln, "r_grid")
            hi = _parse_float(parts[1], ln, "r_grid")
            st = _parse_float(parts[2], ln, "r_grid")
            if st <= 0 or hi < lo:
                raise ConfigError(f"line {ln}: bad r_grid range")
            vals = []
            v = lo
            while v <= hi + 1e-12:
                vals.append(round(v, 12))
                v += st
            kwargs["r_grid"] = tuple(vals)
        else:
            kwargs["r_grid"] = tuple(_parse_float(p, ln, "r_grid") for p in raw.split())
    if "include_delayed_feedback" in table:
        ln, raw = table.pop("include_delayed_feedback")
        low = raw.strip().lower()
        if low not in ("true", "false"):
            raise ConfigError(f"line {ln}: include_delayed_feedback must be true or false")
        kwargs["include_delayed_feedback"] = low == "true"
    _reject_stray(table, "run")
    return RunOptions(**kwargs)


def parse_config(text: str) -> RunConfig:
    """Parse configuration text into typed objects.

    Raises :class:`ConfigError` with a line diagnostic on any malformed
    input.  Sections other than ``[network]`` are optional.
    """
    sections = _scan_sections(text)
    known = {"network", "bounds", "history", "timescale", "run"}
    for name in sections:
        if name not in known:
            raise ConfigError(f"unknown section [{name}]")
    if "network" not in sections:
        raise ConfigError("configuration must contain a [network] section")
    spec = _build_network(sections["network"], sections.get("bounds"))
    history = None
    if "history" in sections:
        history = _build_history(sections["history"], spec.n)
    timescale = None
    desc: dict[str, str] = {}
    if "timescale" in sections:
        table = _as_map(sections["timescale"], "timescale")
        desc = {key: value for key, (_, value) in table.items()}
        timescale = build_timescale(desc, {key: ln for key, (ln, _) in table.items()})
    run = _build_run(sections.get("run", []))
    return RunConfig(spec=spec, history=history, timescale=timescale,
                     timescale_desc=desc, run=run)


def parse_history_text(text: str, n: int) -> HistorySpec:
    """Parse a file that carries (at least) a ``[history]`` section.

    Used for secondary-history files: the network size ``n`` comes from the
    primary configuration.  Any other sections present are ignored.
    """
    sections = _scan_sections(text)
    if "history" not in sections:
        raise ConfigError("no [history] section found")
    return _build_history(sections["history"], n)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def serialize_history(history: HistorySpec) -> str:
    """Render a standalone ``[history]`` file (see :func:`parse_history_text`)."""
    lines = ["[history]", f"window = {history.window!r}"]
    for prefix, group in (("phi", history.stm), ("phi_nabla", history.stm_slope),
                          ("psi", history.ltm), ("psi_nabla", history.ltm_slope)):
        for i, fn in enumerate(group):
            if not isinstance(fn, CoeffExpr):
                raise ValueError(
                    f"history entry {prefix}.{i + 1} is not an expression; "
                    f"only expression-valued histories serialize")
            lines.append(f"{prefix}.{i + 1} = {to_text(fn)}")
    return "\n".join(lines) + "\n"


def serialize_config(spec: NetworkSpec, history: HistorySpec | None = None,
                     timescale_desc: dict[str, str] | None = None,
                     run: RunOptions | None = None) -> str:
    """Render a configuration as canonical text.

    Output is deterministic (fixed key order), and ``parse_config`` of the
    result reproduces semantically identical objects.
    """
    lines: list[str] = ["[network]", f"n = {spec.n}"]
    for i in range(spec.n):
        lines.append(f"f.{i + 1} = {spec.activations[i].name}")
    for i in range(spec.n):
        lines.append(f"L.{i + 1} = {spec.lipschitz[i]!r}")
    for key, expr in spec.coefficient_items():
        lines.append(f"{key} = {to_text(expr)}")
    if spec.bound_overrides:
        lines.append("")
        lines.append("[bounds]")
        order = {key: pos for pos, (key, _, _) in enumerate(NetworkSpec.coefficient_keys(spec.n))}
        for key in sorted(spec.bound_overrides, key=lambda k: order.get(k, 10**9)):
            pair = spec.bound_overrides[key]
            if pair.inf_abs:
                lines.append(f"{key} = {pair.sup_abs!r} {pair.inf_abs!r}")
            else:
                lines.append(f"{key} = {pair.sup_abs!r}")
    if history is not None:
        lines.append("")
        lines.extend(serialize_history(history).splitlines())
    if timescale_desc:
        lines.append("")
        lines.append("[timescale]")
        for key in ("kind", "spacing", "anchor", "start", "stop", "step", "intervals"):
            if key in timescale_desc:
                lines.append(f"{key} = {timescale_desc[key]}")
    if run is not None:
        lines.append("")
        lines.append("[run]")
        lines.append(f"t_end = {run.t_end!r}")
        lines.append(f"t0 = {run.t0!r}")
        lines.append(f"corrector_iters = {run.corrector_iters}")
        if run.r is not None:
            lines.append(f"r = {run.r!r}")
        if run.r_grid is not None:
            lines.append("r_grid = " + " ".join(repr(v) for v in run.r_grid))
        lines.append("include_delayed_feedback = "
                     + ("true" if run.include_delayed_feedback else "false"))
    return "\n".join(lines) + "\n"

"""Sectioned text configuration for networks, histories, scales, and runs.

Format
------
Plain text, one ``key = value`` pair per line, grouped under ``[section]``
headers.  ``#`` starts a comment; blank lines are ignored.  Sections:

``[network]``
    ``n`` (size), per-neuron ``f.i`` (activation name) and ``L.i``
    (declared Lipschitz bound, at least the activation's own), and one
    prefix expression per coefficient:
    vectors ``alpha.i, c.i, B.i, E.i, I.i, J.i, eta.i, varsigma.i`` and
    matrices ``D.i.j, Dtau.i.j, Dbar.i.j, Dtil.i.j, tau.i.j, sigma_d.i.j,
    zeta.i.j`` (1-based indices).  Expression syntax is the one documented
    in :mod:`chronoscale.coeffs`, e.g. ``add(const 0.895, scale 0.005 (sin
    (affine 2.646 0 t)))``.

``[bounds]`` (optional)
    Overrides for the enclosed coefficient bounds, keyed like the
    coefficients: ``key = sup`` or ``key = sup inf``, checked by
    :class:`NetworkSpec`.

``[history]`` (optional)
    ``window`` plus expressions ``phi.i`` / ``psi.i`` (short-/long-term
    state at relative times ``s <= 0``) and ``phi_nabla.i`` / ``psi_nabla.i``
    (declared slopes: required and round-tripped, but not read).

``[timescale]`` (optional)
    ``kind`` and the keys its row of :data:`TIMESCALE_KINDS` reads; any
    other key is an error.  :func:`build_timescale` turns the section into a
    ``TimeScale``.

``[run]`` (optional)
    ``t_end``, ``t0``, ``corrector_iters``, ``r`` or ``r_grid`` (not both;
    either ``lo:hi:step``, of at most ``MAX_RADII`` radii, or a
    space-separated list),
    ``include_delayed_feedback`` (``true``/``false``), checked by
    :class:`RunOptions`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .coeffs import BoundPair, CoeffExpr, ExprParseError, parse_expr, to_text
from .network import ACTIVATIONS, FieldError, NetworkSpec
from .simulator import HistorySpec
from .timescale import TimeScale

__all__ = [
    "ConfigError",
    "RunOptions",
    "RunConfig",
    "TIMESCALE_KINDS",
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
        """Refuse (:class:`FieldError`) what :func:`parse_config` would."""
        for key in ("t_end", "t0"):
            if not math.isfinite(getattr(self, key)):
                raise FieldError((key,), f"{key} must be finite, got {getattr(self, key)!r}")
        if not self.t_end > self.t0:
            raise FieldError(("t_end", "t0"),
                             f"t_end = {self.t_end!r} must exceed t0 = {self.t0!r}")
        if self.corrector_iters < 1:
            raise FieldError(("corrector_iters",), f"corrector_iters must be at least 1, "
                                                   f"got {self.corrector_iters!r}")
        if self.r is not None and self.r_grid is not None:
            raise FieldError(("r_grid", "r"), "both r and r_grid are set; give one")
        radii = (self.r,) if self.r is not None else self.r_grid
        if radii is not None and not (radii and all(0.0 < r < math.inf for r in radii)):
            key = "r" if self.r is not None else "r_grid"
            raise FieldError((key,), f"{key} must give finite positive radii, "
                                     f"got {getattr(self, key)!r}")


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


def _at_line(exc: FieldError, table: Mapping[str, tuple[int, str]]) -> ConfigError:
    """``exc`` at the line of the first key it names that ``table`` holds."""
    line_no = next(table[key][0] for key in exc.keys if key in table)
    return ConfigError(f"line {line_no}: {exc}")


def _number(key: str, text: str, line_no: int | None = None) -> float:
    try:
        return float(text)
    except ValueError:
        where = f"line {line_no}: " if line_no is not None else ""
        raise ConfigError(f"{where}{key} must be a number, got {text!r}") from None


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
            lipschitz.append(_number(f"L.{i}", raw, line_no))
        else:
            lipschitz.append(activations[-1].lipschitz)

    coeffs = {name: np.empty((n,) * dims, dtype=object) for dims, names
              in enumerate((NetworkSpec.VECTOR_FIELDS, NetworkSpec.MATRIX_FIELDS), 1)
              for name in names}
    for key, name, idx in NetworkSpec.coefficient_keys(n):
        if key not in table:
            raise ConfigError(f"[network] is missing {key}")
        line_no, value = table.pop(key)
        coeffs[name][idx] = _parse_expr_value(value, line_no, key)
    _reject_stray(table, "network")

    overrides: dict[str, BoundPair] = {}
    bounds = _as_map(bound_items or [], "bounds")
    for key, (line_no, value) in bounds.items():
        parts = value.split()
        if len(parts) not in (1, 2):
            raise ConfigError(f"line {line_no}: bounds need 'sup' or 'sup inf', got {value!r}")
        sup = _number(key, parts[0], line_no)
        inf = _number(key, parts[1], line_no) if len(parts) == 2 else 0.0
        overrides[key] = BoundPair(sup, inf, "override")

    try:
        return NetworkSpec(
            n=n,
            activations=tuple(activations),
            lipschitz=tuple(lipschitz),
            bound_overrides=overrides,
            **coeffs,
        )
    except FieldError as exc:
        # NetworkSpec checks overrides before L.i, so a key [bounds] holds is the culprit
        raise _at_line(exc, {**_as_map(items, "network"), **bounds}) from None


# each [history] key prefix and the HistorySpec field its n expressions fill
_HISTORY_KEYS = {"phi": "stm", "phi_nabla": "stm_slope", "psi": "ltm", "psi_nabla": "ltm_slope"}


def _build_history(items: list[tuple[int, str, str]], n: int) -> HistorySpec:
    table = _as_map(items, "history")
    if "window" not in table:
        raise ConfigError("[history] section must set window")
    line_no, raw = table.pop("window")
    window = _number("window", raw, line_no)

    def need(prefix: str) -> tuple[CoeffExpr, ...]:
        out = []
        for i in range(1, n + 1):
            key = f"{prefix}.{i}"
            if key not in table:
                raise ConfigError(f"[history] is missing {key}")
            line_no, value = table.pop(key)
            out.append(_parse_expr_value(value, line_no, key))
        return tuple(out)

    fields = {name: need(prefix) for prefix, name in _HISTORY_KEYS.items()}
    _reject_stray(table, "history")
    try:
        return HistorySpec(window=window, **fields)
    except FieldError as exc:
        raise _at_line(exc, _as_map(items, "history")) from None


def _intervals(key: str, text: str) -> list[tuple[float, ...]]:
    """``a,b; c,d; ...`` or ``a b; c d; ...``."""
    out = []
    for chunk in text.split(";"):
        ends = chunk.split(",") if "," in chunk else chunk.split()
        if len(ends) != 2:
            raise ValueError(f"each interval needs two endpoints, got {chunk!r}")
        out.append(tuple(_number(key, end) for end in ends))
    return out


# each [timescale] kind (its name matched without regard to case): the
# TimeScale constructor its keys feed by name, its keys in file order with
# how each reads (key, text) and its default (None: required), and the key
# that ``--timescale kind:<value>`` sets
TIMESCALE_KINDS = {
    "Z": (TimeScale.integer_lattice, {"spacing": (_number, 1.0), "anchor": (_number, 0.0)}, None),
    "R": (TimeScale.real_interval,
          {"start": (_number, None), "stop": (_number, None), "step": (_number, None)}, None),
    "union": (TimeScale.union_of_intervals,
              {"step": (_number, 0.01), "intervals": (_intervals, None)}, "intervals"),
}


def build_timescale(desc: Mapping[str, str],
                    lines: Mapping[str, int] | None = None) -> TimeScale:
    """Build the time scale a ``[timescale]`` description names.

    ``desc`` maps the section's keys to their text, as in
    :attr:`RunConfig.timescale_desc`, and is read by its kind's row of
    :data:`TIMESCALE_KINDS`.  A key the kind does not read is an error.
    ``lines`` maps keys to the line numbers that prefix the diagnostics of a
    parsed file.
    """
    lines = lines or {}

    def fail(key: str, message: str) -> ConfigError:
        return ConfigError(f"line {lines[key]}: {message}" if key in lines else message)

    if "kind" not in desc:
        raise ConfigError("[timescale] section must set kind")
    name = _kind_name(desc["kind"])
    if name is None:
        *rest, last = TIMESCALE_KINDS
        raise fail("kind", f"unknown timescale kind {desc['kind']!r} "
                           f"(expected {', '.join(rest)}, or {last})")
    build, keys, _ = TIMESCALE_KINDS[name]
    _reject_stray({key: (lines.get(key), text) for key, text in desc.items()
                   if key != "kind" and key not in keys}, "timescale")
    values = {}
    for key, (read, default) in keys.items():
        if key not in desc and default is None:
            raise ConfigError(f"[timescale] kind {name} requires {key}")
        try:
            values[key] = read(key, desc[key]) if key in desc else default
        except ValueError as exc:
            raise fail(key, str(exc)) from None
    return build(**values)


def _kind_name(text: str) -> str | None:
    """The :data:`TIMESCALE_KINDS` row ``text`` names, if any."""
    return next((name for name in TIMESCALE_KINDS if name.upper() == text.strip().upper()), None)


# most radii an r_grid range may hold; each is a solvability check to report
MAX_RADII = 10_000


def _radii(raw: str) -> tuple[float, ...]:
    """An ``r_grid`` value: ``lo:hi:step`` or a space-separated list."""
    if ":" not in raw:
        return tuple(float(part) for part in raw.split())
    lo, hi, step = (float(part) for part in raw.split(":"))
    if not (0.0 < step < math.inf and -math.inf < lo <= hi < math.inf):
        raise ValueError(raw)
    if (hi + 1e-12 - lo) / step >= MAX_RADII:  # the loop below would build more
        raise ValueError(raw)
    vals, v = [], lo
    while v <= hi + 1e-12:
        vals.append(round(v, 12))
        v += step
    return tuple(vals)


def _boolean(raw: str) -> bool:
    return {"true": True, "false": False}[raw.lower()]


# each [run] key in file order: how it reads its text, what the text must be,
# and how its value is written
_RUN_KEYS = {
    "t_end": (float, "a number", repr),
    "t0": (float, "a number", repr),
    "corrector_iters": (int, "an integer", str),
    "r": (float, "a number", repr),
    "r_grid": (_radii, f"lo:hi:step with finite lo <= hi and a positive step, at most "
                       f"{MAX_RADII} radii, or a list", lambda v: " ".join(map(repr, v))),
    "include_delayed_feedback": (_boolean, "true or false", lambda v: "true" if v else "false"),
}


def _build_run(items: list[tuple[int, str, str]]) -> RunOptions:
    table = _as_map(items, "run")
    _reject_stray({key: entry for key, entry in table.items() if key not in _RUN_KEYS}, "run")
    kwargs = {}
    for key, (line_no, raw) in table.items():
        read, form, _ = _RUN_KEYS[key]
        try:
            kwargs[key] = read(raw)
        except (KeyError, ValueError):
            raise ConfigError(f"line {line_no}: {key} must be {form}, got {raw!r}") from None
    try:
        return RunOptions(**kwargs)
    except FieldError as exc:
        raise _at_line(exc, table) from None


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
    history = _build_history(sections["history"], spec.n) if "history" in sections else None
    table = _as_map(sections.get("timescale", []), "timescale")
    desc = {key: value for key, (_, value) in table.items()}
    timescale = (build_timescale(desc, {key: ln for key, (ln, _) in table.items()})
                 if "timescale" in sections else None)
    return RunConfig(spec=spec, history=history, timescale=timescale,
                     timescale_desc=desc, run=_build_run(sections.get("run", [])))


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
    for prefix, name in _HISTORY_KEYS.items():
        for i, fn in enumerate(getattr(history, name)):
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
    result reproduces semantically identical objects.  A ``timescale_desc``
    that :func:`build_timescale` refuses raises what it raises, and one with
    a value that is not one line of text without surrounding blanks raises
    :class:`ConfigError`, so the text is always one ``parse_config`` reads.
    """
    lines = ["[network]", f"n = {spec.n}"]
    lines += [f"f.{i + 1} = {act.name}" for i, act in enumerate(spec.activations)]
    lines += [f"L.{i + 1} = {bound!r}" for i, bound in enumerate(spec.lipschitz)]
    lines += [f"{key} = {to_text(expr)}" for key, expr in spec.coefficient_items()]
    if spec.bound_overrides:
        lines += ["", "[bounds]"]
        for key, _, _ in NetworkSpec.coefficient_keys(spec.n):
            pair = spec.bound_overrides.get(key)
            if pair is not None:
                inf = f" {pair.inf_abs!r}" if pair.inf_abs else ""
                lines.append(f"{key} = {pair.sup_abs!r}{inf}")
    if history is not None:
        lines += ["", *serialize_history(history).splitlines()]
    if timescale_desc:
        build_timescale(timescale_desc)
        lines += ["", "[timescale]"]
        for key in ("kind", *TIMESCALE_KINDS[_kind_name(timescale_desc["kind"])][1]):
            value = timescale_desc.get(key)
            if value is not None and value.strip().splitlines() != [value]:
                raise ConfigError(f"[timescale] {key} = {value!r} is not one line of text")
            if value is not None:
                lines.append(f"{key} = {value}")
    if run is not None:
        lines += ["", "[run]"]
        for key, (_, _, write) in _RUN_KEYS.items():
            value = getattr(run, key)
            if value is not None:
                lines.append(f"{key} = {write(value)}")
    return "\n".join(lines) + "\n"

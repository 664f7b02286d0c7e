"""In-memory spans around calls into the program's layers.

The benchmark does not change the program: :meth:`Tracer.installed`
replaces a few module globals and methods with timing wrappers for the
duration of a ``with`` block and restores them afterwards.  Each span is
``[name, start, end, parent, arg]``; ``parent`` is the index of the
enclosing span (-1 at top level) and ``arg`` the argument a layer metric
needs (the query time of ``coeffs_at``), else ``None``.
"""

from __future__ import annotations

import functools
import json
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

from chronoscale import conditions
from chronoscale.network import NetworkSpec
from chronoscale.timescale import TimeScale

# (owner, attribute, span name, index of the positional argument to keep)
PROGRAM_CALLS = (
    (conditions, "bound_sup_inf", "coeffs.sample", None),
    (conditions, "h_functions", "conditions.h_functions", None),
    (NetworkSpec, "coeffs_at", "network.coeffs_at", 1),
    (TimeScale, "grid_with_graininess", "timescale.grid", None),
    (TimeScale, "nabla_exp_grid", "timescale.nabla_exp_grid", None),
)

# span names of the benchmark's own top-level calls (see workloads.plain_ops)
OWN_CALLS = {
    "parse_config": "config.parse",
    "parse_history_text": "config.parse",
    "compute_bounds": "conditions.compute_bounds",
    "search_r": "conditions.search_r",
    "find_lambda": "conditions.find_lambda",
    "simulate": "simulator.simulate",
    "verify_bound": "analyzer.verify_bound",
}


class Tracer:
    """Collects spans in memory; see the module docstring."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn, arg_index: int | None = None):
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            arg = args[arg_index] if arg_index is not None else None
            spans.append([name, 0.0, 0.0, open_[-1] if open_ else -1, arg])
            open_.append(idx)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                open_.pop()
                spans[idx][1] = start
                spans[idx][2] = end

        return traced

    def wrap_ops(self, ops: SimpleNamespace) -> SimpleNamespace:
        """``ops`` with each call wrapped in a span named by OWN_CALLS."""
        return SimpleNamespace(**{key: self.wrap(OWN_CALLS[key], fn)
                                  for key, fn in vars(ops).items()})

    @contextmanager
    def installed(self):
        """Wrap the program's PROGRAM_CALLS for the duration of the block."""
        saved = []
        try:
            for owner, attr, name, arg_index in PROGRAM_CALLS:
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, arg_index))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def totals(self) -> dict[str, dict]:
        """Per span name: calls, total seconds, self seconds, distinct args."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict] = {}
        for (name, start, end, _, arg), covered in zip(self.spans, child):
            entry = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "args": set()})
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += end - start - covered
            if arg is not None:
                entry["args"].add(arg)
        return out


def write_spans(path: Path, tracers: list[Tracer]) -> None:
    """Write every tracer's spans, one list per traced iteration."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"fields": ["name", "start", "end", "parent", "arg"],
                                "iterations": [t.spans for t in tracers]}))

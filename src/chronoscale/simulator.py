"""Nabla-consistent time stepping for the delayed two-layer network.

Scheme
------
The stepper walks the scale grid point by point.  Over a *scattered* panel
(backward gap ``nu > 0``) the nabla dynamics give the implicit update

    y(t) = y(rho(t)) + nu * RHS(t, y(t), history),

solved by fixed-point iteration: start from the carried-forward previous
state and re-substitute ``corrector_iters`` times, failing loudly if the
iteration stops contracting or produces non-finite values.  Over a *dense*
panel (width ``h``) the update is a trapezoidal predictor/corrector step

    predictor   y_p = y_prev + h * RHS_prev
    corrector   y   = y_prev + (h/2) * (RHS_prev + RHS(t, y_p)),

which is second-order accurate on smooth stretches.

Derivative traces: on scattered panels the committed nabla derivative is the
exact backward quotient ``(y(t) - y(rho(t))) / nu``; on dense panels it is
the right-hand side evaluated at the committed state.  Either way the traces
satisfy the model equations to scheme order, which the test suite checks
post hoc against the reference right-hand-side evaluator.

Lookup semantics: a delayed argument that falls strictly between scale
points resolves by *snapping down* to the nearest scale point at or below it
on scattered stretches, and by linear interpolation between committed grid
values on dense stretches.  Distributed integrals use prefix sums over
committed panels plus a live-panel term: activation-of-state integrands use
the trapezoid of their grid samples on dense panels (matching the time
scale's own quadrature convention), while activation-of-derivative
integrands use the piecewise-constant panel-slope convention natural to
nabla calculus.  One vectorised helper, :class:`_Located`, locates the
queries, with their interpolation weights and the distances into dense
panels that the partial-panel term of the prefix integrals needs, for the
engine and for :meth:`Trajectory.value` / :meth:`Trajectory.slope`, which
locate a time or a whole array of times at once; those two methods are the
state the reference evaluator :func:`~chronoscale.network.rhs` reads.

Engine: the engine keeps the grid's columns in one buffer and compiles the
grid in chunks, each on first use, keeping only the chunk in use.  A
chunk's *plan* holds everything the right-hand side needs that does not
depend on the state.  Its coefficients are evaluated over the chunk's times
at once (:meth:`NetworkSpec.coeffs_on`), one expression shape at a time
(:class:`~chronoscale.coeffs.ExprStack`, built once per spec), and its
delayed query times and window starts are located with one vectorised
``searchsorted``.  Everything in the right-hand side but the lagged
activations is linear in the columns, so a plan row is a sparse linear map:
flat indices into the buffer, a weight per index that folds in the
coefficient, the interpolation or partial-panel weight and the sign of a
prefix difference, and the output entry of each term.  The two ends of each
lagged lookup, with their interpolation weights, are terms of the same map,
and the lags' coefficients sit beside it.  A chunk also holds each grid
point's panel masses: the weights that the integrands' samples at the
panel's two ends, ``V[k-1]`` and ``V[k]``, carry in its integral.  A step
picks its plan row and *opens* its grid column once: the part of the prefix
integrals ``F[k]`` that does not depend on the column, ``F[k-1]`` plus the
left mass times ``V[k-1]``, is formed then.  Every state the step tries
(predictor, each corrector pass, the commit) is then one *live-column
write*: the state, its integrand samples ``f`` and the opened prefix plus
the right mass times them, so that queries landing in the live panel read
it like committed values.  The right-hand side is one gather and one
multiply into one buffer; the two ends of each lag are summed in place and
activated there, and one ``bincount`` sums the buffer.  Table, located
queries and plan of a chunk stay within ``CHUNK_BYTES`` (0.5 MiB), so the
working set is flat in the grid length; a whole-grid table alone would hold
1.7 MiB for a two-neuron dense run of 5,000 steps.  A history lookup that
reaches below the grid raises when a step uses its row, not when the row is
compiled.

A :class:`Trajectory` keeps the engine's ``(2n, N)`` blocks ``Y`` and
``dY``; a history is evaluated into such blocks once, for the history fill
and for :func:`history_norm`, and one sup norm over both blocks gives both
:func:`history_norm` and :func:`distance_series`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, IO

import numpy as np

from .network import FieldError, NetworkSpec
from .timescale import POINT_TOL, TimeScale, TimeScaleError, _eval_on

__all__ = [
    "SimulationError",
    "StepFailureError",
    "HistoryUnderflowError",
    "HistorySpec",
    "Trajectory",
    "simulate",
    "history_norm",
    "distance_series",
]

# Budget of one compiled chunk: its coefficient table, located queries and
# plan with the panel masses that open each column, 0.5 MiB.
CHUNK_BYTES = 1 << 19


class SimulationError(RuntimeError):
    """Base class for stepper failures."""


class StepFailureError(SimulationError):
    """A step could not be completed (divergent iteration, overflow...)."""

    def __init__(self, t: float, message: str):
        super().__init__(f"step to t={t!r} failed: {message}")
        self.t = t


class HistoryUnderflowError(SimulationError):
    """A delayed lookup reached below the supplied history window."""


# ---------------------------------------------------------------------------
# committed-grid lookups
# ---------------------------------------------------------------------------


class _Located:
    """Query times located on a committed grid, with the lookups built on them.

    ``u`` is one row of query times, or a 2-D array whose rows are located
    at once.  ``lo`` is the index of the grid point at or below each query
    and ``hi`` that of the next grid point when the query lies strictly
    inside a panel (else ``lo``); ``d`` is the distance into the panel when
    the panel is dense (else 0) and ``lam`` that distance as a fraction of
    the panel width.  Queries must not exceed ``times[-1]``.

    A row with a query below ``times[0]`` is located anyway (its indices are
    meaningless but in range); ``reach`` holds that row's earliest query
    (else inf) for :func:`_check_reach`, so rows located ahead of their use
    fail only if they are used.
    """

    __slots__ = ("lo", "hi", "d", "lam", "reach")

    def __init__(self, times: np.ndarray, dense: np.ndarray, u: np.ndarray):
        lo = times.searchsorted(u + POINT_TOL) - 1
        self.reach = np.where(lo.min(axis=-1) < 0, u.min(axis=-1), np.inf)
        t_lo = times[lo]
        inside = u > t_lo + POINT_TOL
        hi = lo + inside
        self.d = (u - t_lo) * (inside & dense[hi])
        # off-panel queries have d = 0; adding 1 to their zero width keeps lam = 0
        self.lam = self.d / (times[hi] - t_lo + ~inside)
        self.lo, self.hi = lo, hi

    def value(self, series: np.ndarray) -> np.ndarray:
        """Values of ``series`` at the queries: linear interpolation between
        grid values on dense panels, snap-down on scattered ones."""
        base = series[self.lo]
        return base + self.lam * (series[self.hi] - base)


def _check_reach(reach: float, start: float) -> None:
    """Raise :class:`HistoryUnderflowError` if a lookup reached ``reach``,
    below the grid that starts at ``start`` (``reach`` is inf if none did)."""
    if reach < np.inf:
        raise HistoryUnderflowError(
            f"lookup at t={float(reach)!r} reaches below the recorded range "
            f"(starts at {float(start)!r}); supply a longer history window"
        )


ScalarFn = Callable[[float], float]


@dataclass(frozen=True)
class HistorySpec:
    """Initial data on ``[-window, 0]`` relative to the start time.

    ``stm[i]``/``ltm[i]`` give the short/long-term state of neuron ``i`` at a
    relative time ``s <= 0``; entries may be plain callables or coefficient
    expressions.  The ``*_slope`` entries are round-tripped but not read: a
    history's slopes are its states' backward quotients (:func:`_history_blocks`).
    """

    stm: tuple[ScalarFn, ...]
    stm_slope: tuple[ScalarFn, ...]
    ltm: tuple[ScalarFn, ...]
    ltm_slope: tuple[ScalarFn, ...]
    window: float

    def __post_init__(self):
        n = len(self.stm)
        for name in ("stm_slope", "ltm", "ltm_slope"):
            if len(getattr(self, name)) != n:
                raise ValueError("history component tuples must share one length")
        if not 0.0 <= self.window < math.inf:
            raise FieldError(("window",),
                             f"window must be finite and nonnegative, got {self.window!r}")

    @property
    def n(self) -> int:
        return len(self.stm)


@dataclass
class Trajectory:
    """A committed simulation run with derivative traces.

    ``times`` spans the filled history segment plus the live segment;
    ``start_index`` marks the start time within ``times``.  ``Y`` holds the
    states and ``dY`` their nabla-derivative traces (backward quotients over
    the history segment, scheme derivatives afterwards), each shaped
    ``(2n, len(times))`` with the short-term rows ``0..n-1`` above the
    long-term rows ``n..2n-1``, the engine's own layout; ``x``, ``s``,
    ``dx`` and ``ds`` are views of their halves.  :meth:`slope` derives the
    backward panel slopes at any time from the states.
    """

    ts: TimeScale
    times: np.ndarray
    start_index: int
    Y: np.ndarray
    dY: np.ndarray
    _panel_dense: np.ndarray

    @property
    def n(self) -> int:
        return self.Y.shape[0] // 2

    # the blocks' halves, as read-only views
    x = property(lambda self: self.Y[:self.n])
    s = property(lambda self: self.Y[self.n:])
    dx = property(lambda self: self.dY[:self.n])
    ds = property(lambda self: self.dY[self.n:])

    @property
    def live_times(self) -> np.ndarray:
        return self.times[self.start_index:]

    # -- committed-state lookups ----------------------------------------

    def _locate(self, u: float | np.ndarray) -> _Located:
        """The times ``u`` located on the grid as one row, with a check
        that all of them lie within the recorded range."""
        q = np.asarray(u, dtype=float).ravel()
        if q.max() > self.times[-1] + POINT_TOL:
            raise ValueError(f"lookup at t={float(q.max())!r} is beyond the trajectory end")
        at = _Located(self.times, self._panel_dense, q)
        _check_reach(at.reach, self.times[0])
        return at

    def _series(self, index: int) -> np.ndarray:
        """States of state ``index`` (0..n-1 short-term, n..2n-1 long-term)."""
        if not 0 <= index < 2 * self.n:
            raise IndexError(f"state index {index} is outside 0..{2 * self.n - 1}")
        return self.Y[index]

    def value(self, index: int, u: float | np.ndarray) -> float | np.ndarray:
        """State ``index`` (0..n-1 short-term, n..2n-1 long-term) at the time
        or array of times ``u``; an array in gives an array of its shape out."""
        out = self._locate(u).value(self._series(index)).reshape(np.shape(u))
        return out if out.ndim else float(out)

    def slope(self, index: int, u: float | np.ndarray) -> float | np.ndarray:
        """Backward panel slope of state ``index`` at the time or array of
        times ``u``, the nabla-natural derivative of the committed polyline:
        at a grid point, the quotient over the panel ending there (the first
        panel at the first point, the rule of a history's ``dY``); between
        grid points, the quotient of the panel holding the query."""
        states, times = self._series(index), self.times
        k = np.maximum(self._locate(u).hi, 1)
        out = ((states[k] - states[k - 1]) / (times[k] - times[k - 1])).reshape(np.shape(u))
        return out if out.ndim else float(out)

    # -- export ----------------------------------------------------------

    def csv_header(self) -> str:
        n = self.n
        cols = (["t"]
                + [f"x_{i + 1}" for i in range(n)]
                + [f"S_{i + 1}" for i in range(n)]
                + [f"dx_{i + 1}" for i in range(n)]
                + [f"dS_{i + 1}" for i in range(n)])
        return ",".join(cols)

    def to_csv(self, target: str | IO[str]) -> None:
        data = np.column_stack([self.times, self.Y.T, self.dY.T])
        np.savetxt(target, data, delimiter=",", header=self.csv_header(),
                   comments="", fmt="%.12g")


# ---------------------------------------------------------------------------
# the engine
# ---------------------------------------------------------------------------


def _activation(spec: NetworkSpec, owner: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """Activations applied elementwise to an array whose entry ``e`` belongs
    to neuron ``owner[e]``: each distinct activation once, to its own entries."""
    entries: dict[Callable, list[int]] = {}
    for e, j in enumerate(owner):
        entries.setdefault(spec.activations[j].fn, []).append(e)
    if len(entries) == 1:
        return next(iter(entries))
    parts = [(fn, np.array(idx)) for fn, idx in entries.items()]

    def apply(z: np.ndarray) -> np.ndarray:
        out = np.empty_like(z)
        for fn, idx in parts:
            out[idx] = fn(z[idx])
        return out

    return apply


class _Engine:
    """One simulation run: the grid, its columns and one compiled chunk of
    the plan.

    Grid columns live in one buffer ``G`` of ``6n + 1`` rows, whose flat
    view ``Gf`` the plan indexes.  Rows ``0..2n-1`` are the states ``Y``,
    short-term rows ``0..n-1`` above long-term rows ``n..2n-1``.  Rows
    ``2n..4n-1`` are the integrands ``V``: ``f_j(x_j)`` in row ``2n + j``
    and ``f_j`` of the panel slope of ``x_j`` in row ``3n + j``.  Rows
    ``4n..6n-1`` are ``F``, the prefix integrals of ``V``'s rows from the
    grid start, and row ``6n`` holds ones.  ``Y``, ``V`` and ``F`` are views
    of ``G``; the derivative traces ``dY`` are an array of their own.

    A step writes only its own column: :meth:`_open` forms the part of
    ``F[:, k]`` that does not depend on it once, and every state the step
    tries, like every history column, goes in through :meth:`_write`.
    """

    def __init__(self, spec: NetworkSpec, history: HistorySpec, ts: TimeScale,
                 t_end: float, t0: float, corrector_iters: int):
        if history.n != spec.n:
            raise ValueError("history width does not match the network size")
        if corrector_iters < 1:
            raise ValueError("corrector_iters must be at least 1")
        if not t_end > t0:
            raise ValueError("t_end must exceed the start time")
        self.spec, self.ts, self.corrector_iters = spec, ts, corrector_iters
        self.n = n = spec.n

        times, self.width, self.dense = ts.panels(t0 - history.window, t_end)
        if len(times) < 2:
            raise TimeScaleError("the time scale holds too few points in range")
        k0 = int(np.argmin(np.abs(times - t0)))
        if abs(times[k0] - t0) > POINT_TOL:
            k = int(np.searchsorted(times, t0))
            if not ts.contains(t0) or not 0 < k < len(times):
                raise TimeScaleError(f"start time {t0!r} is not a point of the time scale")
            raise TimeScaleError(f"start time {t0!r} lies inside the panel "
                                 f"({times[k - 1]:g}, {times[k]:g}) of the run's grid")
        if k0 == len(times) - 1:
            raise TimeScaleError("no live points fall in (t0, t_end]")
        self.times, self.k0 = times, k0

        N = len(times)
        self.G = np.zeros((6 * n + 1, N))
        self.G[6 * n] = 1.0
        self.Gf = self.G.ravel()
        self.Y, self.V, self.F = self.G[:2 * n], self.G[2 * n:4 * n], self.G[4 * n:6 * n]
        self.dY = np.zeros((2 * n, N))
        # F[:, k] = F_open + right * V[:, k]: _open forms F_open once per
        # step, and every write of column k adds the second part
        self.F_open, self.live = np.empty(2 * n), None
        # the activations' arguments at the live column: x, then its panel slope
        self.z = np.empty(2 * n)
        self.z_x, self.z_slope = self.z[:n], self.z[n:]
        neurons = np.arange(n)
        self.f = _activation(spec, np.tile(neurons, 2))
        self.f_lag = _activation(spec, np.tile(neurons, n))

        # Queries of one grid point, in order: eta_i and varsigma_i look up
        # x_i and S_i, sigma_ij and zeta_ij open the windows of the integrals
        # of V's rows 2n + j and 3n + j, and tau_ij looks up x_j.
        nn = n * n
        pairs_i, pairs_j = np.repeat(neurons, n), np.tile(neurons, n)
        leaks, windows = np.arange(2 * n), np.concatenate((pairs_j, n + pairs_j))
        pairs2 = np.tile(pairs_i, 2)
        # The terms of a plan row, in order: Y and F at the leaks' and
        # windows' lo; Y and V at their hi; V at the spread windows' lo; then
        # at column k, S_i (B), f(x_i) (E), the ones (I, J), f(x_j) (D) and
        # F at the windows' end; last x_j at the lags' lo and at their hi.
        # Each reads G's row g.  The linear terms add to entry out; the lags'
        # two ends are summed into the first end's slots, which then hold
        # the lagged activations and add to the out entries after them.
        g = np.concatenate((leaks, 4 * n + windows, leaks, 2 * n + windows, 2 * n + pairs_j,
                            n + neurons, 2 * n + neurons, np.full(2 * n, 6 * n),
                            2 * n + pairs_j, 4 * n + windows, pairs_j, pairs_j))
        self.out = np.concatenate((leaks, pairs2, leaks, pairs2, pairs_i,
                                   neurons, n + neurons, neurons, n + neurons,
                                   pairs_i, pairs2, pairs_i))
        self.row_offsets = g * N
        # _rhs writes every term into one buffer, whose part up to the lags'
        # hi one bincount sums
        self.terms = np.empty(len(g))
        self.summed = self.terms[:len(self.out)]
        self.lag_lo, self.lag_hi = self.terms[-2 * nn:-nn], self.terms[-nn:]
        # A compile holds the chunk's table, the four arrays of its located
        # queries and its plan: idx and w, whose terms include the lags'
        # ends, the lags' coefficients, the reach and the two panel masses.
        table_row = 8 * (len(spec.VECTOR_FIELDS) * n + len(spec.MATRIX_FIELDS) * nn)
        located_row = 32 * (2 * n + 3 * nn)
        plan_row = 16 * len(g) + 8 * nn + 8 + 32 * n
        self.chunk_len = max(2, CHUNK_BYTES // (table_row + located_row + plan_row))
        self.chunk, self.chunk_start, self.chunk_end = None, 0, 0

        # fill the history segment: its states and their backward quotients
        self.Y[:, :k0 + 1], self.dY[:, :k0 + 1] = _history_blocks(history, times[:k0 + 1],
                                                                  times[k0])
        self.V[:, 0] = self.f(np.concatenate((self.Y[:n, 0], self.dY[:n, 0])))
        for start in range(1, k0 + 1, self.chunk_len):  # the masses a chunk at a time
            masses = self._masses(start, min(start + self.chunk_len, k0 + 1))
            for k, left, right in zip(range(start, k0 + 1), *masses):
                self._open(k, left, right)
                self._write(self.Y[:, k])

        self.prev_rhs: np.ndarray | None = None

    # -- grid columns ------------------------------------------------------

    def _masses(self, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
        """The weights ``left`` and ``right`` of grid points ``start`` to
        ``stop - 1``, one row each: the mass of panel ``k`` in V's rows is
        ``left[k] * V[k-1] + right[k] * V[k]``, the trapezoid of f(x) on
        dense panels, the right-end atom of f(x) on scattered ones, and
        f(slope) constant over every panel."""
        n, width = self.n, self.width[start:stop, None]
        dense = self.dense[start:stop, None]
        left = width * np.where(dense, np.repeat([0.5, 0.0], n), 0.0)
        right = width * np.where(dense, np.repeat([0.5, 1.0], n), 1.0)
        return left, right

    def _open(self, k: int, left: np.ndarray, right: np.ndarray) -> None:
        """Make grid point ``k``, with panel masses ``left`` and ``right``,
        the live column that :meth:`_write` writes.

        The part of ``F[:, k]`` that does not depend on the column,
        ``F[:, k-1] + left * V[:, k-1]``, is formed here, once per step.
        """
        np.multiply(left, self.V[:, k - 1], out=self.F_open)
        self.F_open += self.F[:, k - 1]
        self.live = (self.Y[:, k], self.Y[:self.n, k - 1], self.width[k],
                     self.V[:, k], self.F[:, k], right)

    def _write(self, y: np.ndarray) -> None:
        """Make ``y`` the state at the live grid point, with its integrand
        samples ``V = f(x, slope of x)`` and prefix integrals
        ``F = F_open + right * V``."""
        y_k, x_prev, width, v_k, f_k, right = self.live
        y_k[:] = y
        x = y[:self.n]
        self.z_x[:] = x
        np.subtract(x, x_prev, out=self.z_slope)
        self.z_slope /= width
        v_k[:] = v = self.f(self.z)
        np.multiply(right, v, out=f_k)
        f_k += self.F_open

    def _compile(self, start: int) -> None:
        """Compile the plan of up to ``chunk_len`` grid points from ``start``.

        A plan row is the right-hand side at its grid point ``k`` as a
        sparse map over ``Gf``, compiled from a table of the chunk's
        coefficients that is then dropped.  Everything but the lagged
        activations is linear in the columns: term ``e`` adds
        ``w[e] * Gf[idx[e]]`` to entry ``out[e]``.  The weights fold in the
        coefficient, the interpolation weights, a window's open mask (0 on
        windows of zero width), its start's partial-panel weights and the
        sign of the prefix difference: the integral over ``(u, t]`` is
        ``F[k] - F[lo] - a * V[lo] - b * V[hi]``.  The lagged lookups'
        ends are the last ``2 n^2`` terms, ``x_j`` at their ``lo`` and
        ``hi`` with weights ``1 - lam`` and ``lam``; :meth:`_rhs` sums each
        pair before the activation, and their coefficients ``Dtau`` stay
        apart.  One ``_Located`` covers the ``(rows, queries)`` array of
        the chunk.  Queries are clamped to their row's ``t`` and read
        columns up to its grid point, so those that land in the live panel
        read the live column.  The chunk records its first row with a query
        below the grid, so that :meth:`_plan` checks the reach of that row
        and the rows after it only.

        The terms whose index falls in column ``k`` are exactly those that
        read the live column, the map an implicit (Newton) scattered step
        needs for its Jacobian.
        """
        self.chunk = None  # release the previous chunk before building the next
        n, nn, N = self.n, self.n * self.n, len(self.times)
        stop = min(start + self.chunk_len, N)
        tbl, rows = self.spec.coeffs_on(self.times[start:stop]), stop - start

        def put(out, *names):
            return np.concatenate([tbl[name].reshape(rows, -1) for name in names],
                                  axis=1, out=out)

        # query columns: leaks up to L, spread windows up to S, neutral
        # windows up to E, lags after
        L, S, E = 2 * n, 2 * n + nn, 2 * n + 2 * nn
        k = np.arange(start, stop)[:, None]
        t = self.times[k]
        u = put(np.empty((rows, E + nn)), "eta", "varsigma", "sigma_d", "zeta", "tau")
        at = _Located(self.times, self.dense, np.minimum(np.subtract(t, u, out=u), t, out=u))
        del u  # the query times, not needed once located

        # term columns: linear terms up to T, the lags' lo and hi after
        T = len(self.out) - nn
        idx = np.empty((rows, len(self.row_offsets)), dtype=np.intp)
        idx[:, :E] = at.lo[:, :E]
        idx[:, E:2 * E] = at.hi[:, :E]
        idx[:, 2 * E:2 * E + nn] = at.lo[:, L:S]
        idx[:, 2 * E + nn:T] = k
        idx[:, T:T + nn] = at.lo[:, E:]
        idx[:, T + nn:] = at.hi[:, E:]
        idx += self.row_offsets

        w = np.empty(idx.shape)
        leak, lam = put(w[:, :L], "alpha", "c"), at.lam[:, :L]
        w[:, E:E + L] = -leak * lam
        leak *= lam - 1.0
        cw = put(w[:, T - 2 * nn:T], "Dbar", "Dtil")
        cw *= at.lo[:, L:E] < k  # windows of zero width are closed
        w[:, L:E] = -cw
        # the window starts' partial-panel weights: a * V[lo] + b * V[hi]
        # integrates from lo to the start, a trapezoid on spread windows
        d = at.d[:, L:E]
        a = d[:, :nn] - 0.5 * d[:, :nn] * at.lam[:, L:S]
        b = d.copy()
        b[:, :nn] -= a
        w[:, E + L:2 * E] = -cw * b
        w[:, 2 * E:2 * E + nn] = -cw[:, :nn] * a
        put(w[:, 2 * E + nn:T - 2 * nn], "B", "E", "I", "J", "D")
        np.subtract(1.0, at.lam[:, E:], out=w[:, T:T + nn])
        w[:, T + nn:] = at.lam[:, E:]
        # the first row with a query below the grid (rows if none)
        below = at.reach < np.inf
        first_below = int(below.argmax()) if below.any() else rows
        self.chunk = (first_below, at.reach, idx, w, tbl["Dtau"].reshape(rows, nn).copy(),
                      *self._masses(start, stop))
        self.chunk_start, self.chunk_end = start, stop

    # -- right-hand side ---------------------------------------------------

    def _plan(self, k: int) -> tuple[tuple, np.ndarray, np.ndarray]:
        """Row ``k`` of the compiled plan and the panel masses of ``k``.

        Compiles the chunk from ``k`` when ``k`` lies outside the current
        one, and raises :class:`HistoryUnderflowError` when a query of row
        ``k`` lies below the grid.
        """
        if not self.chunk_start <= k < self.chunk_end:
            self._compile(k)
        r = k - self.chunk_start
        first_below, reach, idx, w, dtau, left, right = self.chunk
        if r >= first_below:
            _check_reach(reach[r], self.times[0])
        return (idx[r], w[r], dtau[r]), left[r], right[r]

    def _rhs(self, plan: tuple) -> np.ndarray:
        """Both layers' right-hand sides at the grid point of ``plan``, whose
        column must be written: the linear terms plus the lagged activations."""
        idx, w, dtau = plan
        np.multiply(w, self.Gf[idx], out=self.terms)
        lag = self.lag_lo
        lag += self.lag_hi
        np.multiply(dtau, self.f_lag(lag), out=lag)
        return np.bincount(self.out, self.summed, 2 * self.n)

    # -- stepping ----------------------------------------------------------

    def _step_dense(self, k: int) -> None:
        w = self.width[k]
        if self.prev_rhs is None:
            self.prev_rhs = self._rhs(self._plan(k - 1)[0])
        plan, left, right = self._plan(k)
        self._open(k, left, right)
        y_prev = self.Y[:, k - 1]
        y_pred = y_prev + w * self.prev_rhs
        if not np.isfinite(y_pred).all():
            raise StepFailureError(float(self.times[k]), "predictor became non-finite")
        self._write(y_pred)
        y_new = y_prev + 0.5 * w * (self.prev_rhs + self._rhs(plan))
        if not np.isfinite(y_new).all():
            raise StepFailureError(float(self.times[k]), "state became non-finite")
        self._write(y_new)
        self.prev_rhs = self.dY[:, k] = self._rhs(plan)

    def _step_scattered(self, k: int) -> None:
        t = float(self.times[k])
        w = self.width[k]
        plan, left, right = self._plan(k)
        self._open(k, left, right)
        y_prev = y_live = self.Y[:, k - 1]
        first_gap = last_gap = 0.0
        for m in range(self.corrector_iters):
            self._write(y_live)
            y_next = y_prev + w * self._rhs(plan)
            # y_live is finite, so the gap is finite exactly when y_next is;
            # inf and nan pass through the difference and max without a warning
            gap = float(abs(y_next - y_live).max())
            if not math.isfinite(gap):
                raise StepFailureError(t, "fixed-point iteration became non-finite")
            if m == 0:
                first_gap = gap
            last_gap = gap
            y_live = y_next
        if (self.corrector_iters >= 2 and last_gap > 0.5 * first_gap
                and last_gap > 1e-9 * (1.0 + float(abs(y_live).max()))):
            # the residual's mean ratio per pass tells divergence from a
            # contraction too slow to halve it
            ratio = (last_gap / first_gap) ** (1.0 / (self.corrector_iters - 1))
            verdict = ("the implicit update diverges at this gap size" if ratio >= 1.0 else
                       f"it contracts too slowly for {self.corrector_iters} corrector passes")
            raise StepFailureError(
                t, f"fixed-point iteration did not contract "
                   f"(residual {last_gap:.3e} from initial {first_gap:.3e}, ratio "
                   f"{ratio:.3g} per pass); {verdict}")
        self._write(y_live)
        self.dY[:, k] = (y_live - y_prev) / w
        self.prev_rhs = None

    def run(self) -> Trajectory:
        for k in range(self.k0 + 1, len(self.times)):
            if self.dense[k]:
                self._step_dense(k)
            else:
                self._step_scattered(k)
        # a copy, so that the trajectory does not keep G's other rows alive
        return Trajectory(ts=self.ts, times=self.times, start_index=self.k0,
                          Y=self.Y.copy(), dY=self.dY, _panel_dense=self.dense)


def simulate(spec: NetworkSpec, history: HistorySpec, ts: TimeScale,
             t_end: float, t0: float = 0.0, corrector_iters: int = 4) -> Trajectory:
    """Advance the network from ``t0`` to ``t_end`` over the scale grid.

    ``history`` supplies initial data on ``[t0 - window, t0]`` (relative
    times).  Returns a :class:`Trajectory` whose arrays cover the history
    segment (as far as the scale reaches) plus every scale point in
    ``(t0, t_end]``.
    """
    return _Engine(spec, history, ts, t_end, t0, corrector_iters).run()


# ---------------------------------------------------------------------------
# norms and distances
# ---------------------------------------------------------------------------


def _history_blocks(history: HistorySpec, times: np.ndarray,
                    t0: float) -> tuple[np.ndarray, np.ndarray]:
    """The blocks ``Y`` and ``dY`` of ``history`` on the grid ``times`` up to
    the start time ``t0``: the states, and their backward quotients, the
    slopes the stepper reads.  The first point takes the first panel's
    quotient; a one-point history has no panel, and its slope is 0."""
    rel = times - t0
    Y = np.array([_eval_on(fn, rel) for fn in history.stm + history.ltm]).reshape(-1, len(rel))
    dY = np.zeros_like(Y)
    dY[:, 1:] = np.diff(Y) / np.diff(times)
    dY[:, 0] = dY[:, min(1, len(times) - 1)]
    return Y, dY


def _sup_gap(a: tuple[np.ndarray, np.ndarray],
             b: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Per column, the largest absolute gap between the value blocks and
    the slope blocks of ``a = (Y, dY)`` and ``b`` (0 for blocks without
    rows): the norm in which the stability theorem bounds the distance
    between two solutions."""
    return np.maximum(np.abs(a[0] - b[0]).max(axis=0, initial=0.0),
                      np.abs(a[1] - b[1]).max(axis=0, initial=0.0))


def history_norm(hist_a: HistorySpec, hist_b: HistorySpec, ts: TimeScale,
                 t0: float = 0.0) -> float:
    """Sup distance between two history specifications.

    Each history is evaluated once on the scale points of its own window
    ``[t0 - window, t0]``, and the two windows must hold the same points.
    The supremum runs over those points and over all ``4 n`` component
    series: both state families and their slopes (:func:`_history_blocks`).
    """
    if hist_a.n != hist_b.n:
        raise ValueError("histories must have the same width")
    grid_a, grid_b = (ts.grid(t0 - h.window, t0) for h in (hist_a, hist_b))
    if grid_a.shape != grid_b.shape or not np.allclose(grid_a, grid_b, atol=POINT_TOL, rtol=0.0):
        raise ValueError("history windows do not span the same scale points")
    if len(grid_a) == 0:
        raise ValueError("no scale points fall in the history window")
    return float(_sup_gap(_history_blocks(hist_a, grid_a, t0),
                          _history_blocks(hist_b, grid_a, t0)).max())


def distance_series(traj_a: Trajectory, traj_b: Trajectory) -> tuple[np.ndarray, np.ndarray]:
    """Pointwise sup distance between two runs over their live segment.

    At each live grid point the distance is the largest absolute gap across
    all ``4 n`` component series (states and derivative traces).  The runs
    must share the same grid.
    """
    if traj_a.times.shape != traj_b.times.shape or not np.allclose(
            traj_a.times, traj_b.times, atol=POINT_TOL, rtol=0.0):
        raise ValueError("trajectories do not share a grid")
    if traj_a.start_index != traj_b.start_index:
        raise ValueError("trajectories do not share a start index")
    k0 = traj_a.start_index
    dist = _sup_gap((traj_a.Y[:, k0:], traj_a.dY[:, k0:]), (traj_b.Y[:, k0:], traj_b.dY[:, k0:]))
    return traj_a.times[k0:].copy(), dist

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
nabla calculus.  One vectorised helper, :class:`_Located`, implements these
lookups, including the partial-panel term of the prefix integrals, for
:meth:`Trajectory.value` / :meth:`Trajectory.slope` and for the engine.

Engine: coefficients are evaluated over blocks of consecutive grid points at
once (:meth:`NetworkSpec.coeffs_on`), each block holding at most
``TABLE_BYTES`` (0.5 MiB) of coefficient table, so the working set stays
flat in the grid length; a whole-grid table would hold 1.7 MiB for a
two-neuron dense run of 5,000 steps.  Everything else the right-hand side
needs that does not depend on the state is compiled from the table into a
*plan*, in chunks of an eighth of a block: one vectorised ``searchsorted``
locates every delayed query time and window start of the chunk's grid
points, and each plan row also holds the window starts' partial-panel
weights, the mask of windows of nonzero width and the coefficients in the
order of the coupling pattern.  A step only picks its plan row and gathers
the state.  The state being solved for is written into its grid column
before each right-hand-side evaluation, so queries landing in the live panel
read it like committed values, and the right-hand side is one product of the
coupling pattern with the gathered values.  A history lookup that reaches
below the grid raises when a step uses its row, not when the row is
compiled.  Nothing compiled outlives a :func:`simulate` call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, IO

import numpy as np

from .network import NetworkSpec, StateAccessor
from .timescale import POINT_TOL, TimeScale, _eval_on

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

# Largest coefficient table one compiled block may hold: 0.5 MiB.
TABLE_BYTES = 1 << 19


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
    at once.  Each query ``u[..., q]`` reads flattened ``(series,
    len(times))`` arrays at offset ``offsets[q]``, its series times
    ``len(times)``.  ``ilo`` is the flat index of the grid point at or below
    the query and ``ihi`` that of the next grid point when the query lies
    strictly inside a panel (else ``ilo``); ``d`` is the distance into the
    panel when the panel is dense (else 0) and ``lam`` that distance as a
    fraction of the panel width.  Queries must not exceed ``times[-1]``.

    A row with a query below ``times[0]`` is located anyway (its indices are
    meaningless but in range) and :meth:`check` raises for it, so rows
    located ahead of their use fail only if they are used.
    """

    __slots__ = ("lo", "ilo", "ihi", "d", "lam", "reach", "start")

    def __init__(self, times: np.ndarray, dense: np.ndarray, u: np.ndarray, offsets):
        lo = times.searchsorted(u + POINT_TOL) - 1
        # the earliest query of each row that reaches below the grid, else inf
        self.reach = np.where(lo.min(axis=-1) < 0, u.min(axis=-1), np.inf)
        self.start = float(times[0])
        t_lo = times[lo]
        inside = u > t_lo + POINT_TOL
        hi = lo + inside
        self.d = (u - t_lo) * (inside & dense[hi])
        # off-panel queries have d = 0; adding 1 to their zero width keeps lam = 0
        self.lam = self.d / (times[hi] - t_lo + ~inside)
        self.lo, self.ilo, self.ihi = lo, offsets + lo, offsets + hi

    def check(self, row=()) -> None:
        """Raise :class:`HistoryUnderflowError` if a query of ``row`` (by
        default, any query) lies below the grid."""
        reach = self.reach[row]
        if reach < np.inf:
            raise HistoryUnderflowError(
                f"lookup at t={float(reach)!r} reaches below the recorded range "
                f"(starts at {self.start!r}); supply a longer history window"
            )

    def value(self, flat: np.ndarray, sel=()) -> np.ndarray:
        """Values at the queries ``sel`` (by default, all): linear
        interpolation between grid values on dense panels, snap-down on
        scattered ones."""
        base = flat[self.ilo[sel]]
        return base + self.lam[sel] * (flat[self.ihi[sel]] - base)

    def partial_weights(self, trapezoid: np.ndarray, sel=()) -> tuple[np.ndarray, np.ndarray]:
        """Weights ``(a, b)`` of the partial-panel integral ``a * s[lo] + b * s[hi]``
        at the queries ``sel`` (by default, all).

        That is the integral of samples ``s`` from the grid point at or below
        each query up to the query, so the prefix integral to the query is
        the prefix at that grid point plus this term.  Where ``trapezoid`` is
        1 it integrates the linear interpolant of the samples; where it is 0,
        the panel's right-end sample held constant.  Scattered panels carry
        their mass at the right end, which a query inside them never reaches.
        """
        d = self.d[sel]
        a = trapezoid * (d - 0.5 * d * self.lam[sel])
        return a, d - a


ScalarFn = Callable[[float], float]


@dataclass(frozen=True)
class HistorySpec:
    """Initial data on ``[-window, 0]`` relative to the start time.

    ``stm[i]``/``ltm[i]`` give the short/long-term state of neuron ``i`` at a
    relative time ``s <= 0``; the ``*_slope`` entries give the corresponding
    nabla derivatives.  Entries may be plain callables or coefficient
    expressions.
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
        if not self.window >= 0.0:
            raise ValueError("history window must be nonnegative")

    @property
    def n(self) -> int:
        return len(self.stm)


@dataclass
class Trajectory:
    """A committed simulation run with derivative traces.

    ``times`` spans the filled history segment plus the live segment;
    ``start_index`` marks the start time within ``times``.  State arrays are
    shaped ``(n, len(times))``.  ``dx``/``ds`` hold the nabla-derivative
    traces (declared slopes over the history segment, scheme derivatives
    afterwards).  Backward panel slopes are not stored: :meth:`slope`
    derives them from the states.
    """

    ts: TimeScale
    times: np.ndarray
    start_index: int
    x: np.ndarray
    s: np.ndarray
    dx: np.ndarray
    ds: np.ndarray
    _panel_dense: np.ndarray

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def live_times(self) -> np.ndarray:
        return self.times[self.start_index:]

    # -- committed-state lookups ----------------------------------------

    def _locate(self, u: float) -> _Located:
        """``u`` located on the grid, for lookups in one row."""
        if u > self.times[-1] + POINT_TOL:
            raise ValueError(f"lookup at t={u!r} is beyond the trajectory end")
        at = _Located(self.times, self._panel_dense, np.array([u], dtype=float), 0)
        at.check()
        return at

    def value(self, index: int, u: float) -> float:
        """State ``index`` (0..n-1 short-term, n..2n-1 long-term) at ``u``."""
        arr = self.x if index < self.n else self.s
        return float(self._locate(u).value(arr[index % self.n])[0])

    def slope(self, index: int, u: float) -> float:
        """Backward panel slope of state ``index`` at ``u``.

        This is the nabla-natural derivative of the committed polyline: at a
        grid point, the quotient over the panel ending there (the declared
        history slope at the very first point); between grid points, the
        quotient of the panel containing the query.
        """
        states, declared = (self.x, self.dx) if index < self.n else (self.s, self.ds)
        row, times = index % self.n, self.times
        k = int(self._locate(u).ihi[0])
        if k == 0:
            return float(declared[row, 0])
        return float((states[row, k] - states[row, k - 1]) / (times[k] - times[k - 1]))

    def accessor(self) -> StateAccessor:
        """Adapter for the reference right-hand-side evaluator."""
        return lambda index, u: (self.value(index, u), self.slope(index, u))

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
        data = np.column_stack([self.times, self.x.T, self.s.T, self.dx.T, self.ds.T])
        np.savetxt(target, data, delimiter=",", header=self.csv_header(),
                   comments="", fmt="%.12g")


# ---------------------------------------------------------------------------
# the engine
# ---------------------------------------------------------------------------


def _activation(spec: NetworkSpec, owner: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """Activations applied elementwise to an array whose entry ``e`` belongs
    to neuron ``owner[e]``."""
    fns = [spec.activations[j].fn for j in owner]
    if all(fn is fns[0] for fn in fns):
        return fns[0]
    return lambda z: np.array([fn(v) for fn, v in zip(fns, z)])


class _Engine:
    """One simulation run: the grid, its columns, one coefficient block and
    one chunk of the plan compiled from it.

    Grid columns stack both layers, short-term rows ``0..n-1`` above
    long-term rows ``n..2n-1``: ``Y`` holds the states and ``dY`` the
    derivative traces.  ``V`` holds the integrands ``f_j(x_j)`` (rows ``j``)
    and ``f_j`` of the panel slope of ``x_j`` (rows ``n + j``), and ``F``
    their prefix integrals from the grid start.
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
            raise SimulationError("the time scale holds too few points in range")
        k0 = int(np.argmin(np.abs(times - t0)))
        if abs(times[k0] - t0) > POINT_TOL:
            raise SimulationError(f"start time {t0!r} is not a point of the time scale")
        if k0 == len(times) - 1:
            raise SimulationError("no live points fall in (t0, t_end]")
        self.times, self.k0 = times, k0

        N = len(times)
        self.Y, self.dY, self.V, self.F = (np.zeros((2 * n, N)) for _ in range(4))
        self.Yf, self.Vf, self.Ff = self.Y.ravel(), self.V.ravel(), self.F.ravel()
        # The mass of panel k in V's rows is w * (left * V[k-1] + right * V[k]):
        # the trapezoid of f(x) on dense panels, the right-end atom of f(x)
        # on scattered ones, and f(slope) constant over every panel.
        self.mass_dense = (np.repeat([0.5, 0.0], n), np.repeat([0.5, 1.0], n))
        self.mass_scattered = (np.zeros(2 * n), np.ones(2 * n))
        neurons = np.arange(n)
        self.f = _activation(spec, np.tile(neurons, 2))
        self.f_lag = _activation(spec, np.tile(neurons, n))

        # Queries of one grid point, in order: eta_i, varsigma_i and tau_ij
        # look up x_i, S_i and x_j; sigma_ij and zeta_ij open the windows of
        # the integrals of V's rows j and n + j.
        nn = n * n
        pairs_i, pairs_j = np.repeat(neurons, n), np.tile(neurons, n)
        query_rows = np.concatenate((neurons, n + neurons, pairs_j, pairs_j, n + pairs_j))
        self.query_offsets = query_rows * N
        self.looks = slice(0, 2 * n + nn)
        self.windows = slice(2 * n + nn, None)
        self.window_rows = query_rows[self.windows]
        self.window_offsets = self.query_offsets[self.windows]
        self.trapezoid = np.repeat([1.0, 0.0], nn)
        # The right-hand side is coupling @ z with z = [x(t - eta),
        # S(t - varsigma), f(x(t - tau)), spread windows, neutral windows,
        # f(x(t)), S(t), 1]; coupling_slots is the pattern of its entries.
        self.z_tail = np.ones(1)
        self.z_len = 4 * n + 3 * nn + 1
        base = 2 * n + 3 * nn
        rows = np.concatenate((neurons, n + neurons, pairs_i, pairs_i, pairs_i, pairs_i,
                               n + neurons, neurons, neurons, n + neurons))
        cols = np.concatenate((neurons, n + neurons, 2 * n + np.arange(3 * nn), base + pairs_j,
                               base + neurons, base + n + neurons, np.full(2 * n, self.z_len - 1)))
        self.coupling_slots = rows * self.z_len + cols
        row_bytes = 8 * (len(spec.VECTOR_FIELDS) * n + len(spec.MATRIX_FIELDS) * nn)
        self.block_len = max(2, TABLE_BYTES // row_bytes)
        # A plan row takes about three times the bytes of a table row (2.8x
        # for n = 2, 3.2x for n = 16), so a chunk of an eighth of a block
        # keeps the plan below half the table's size.
        self.chunk_len = max(1, self.block_len // 8)
        self.tbl, self.block_start, self.block_end = None, 0, 0
        self.chunk, self.chunk_start, self.chunk_end = None, 0, 0

        # fill the history segment from the declared callables
        rel = times[:k0 + 1] - times[k0]
        for row, fn in enumerate(history.stm + history.ltm):
            self.Y[row, :k0 + 1] = _eval_on(fn, rel)
        for row, fn in enumerate(history.stm_slope + history.ltm_slope):
            self.dY[row, :k0 + 1] = _eval_on(fn, rel)
        self.V[:, 0] = self.f(np.concatenate((self.Y[:n, 0], self.dY[:n, 0])))
        for k in range(1, k0 + 1):
            self._set_column(k, self.Y[:, k])

        self.prev_rhs: np.ndarray | None = None

    # -- grid columns ------------------------------------------------------

    def _set_column(self, k: int, y: np.ndarray) -> np.ndarray:
        """Make ``y`` the state at grid point ``k``, with its integrand
        samples and prefix integrals, and return its backward panel slopes.
        ``mass`` keeps the panel masses, for the right-hand side at ``k``."""
        n, w = self.n, self.width[k]
        self.Y[:, k] = y
        slopes = (y - self.Y[:, k - 1]) / w
        self.V[:, k] = self.f(np.concatenate((y[:n], slopes[:n])))
        left, right = self.mass_dense if self.dense[k] else self.mass_scattered
        self.mass = w * (left * self.V[:, k - 1] + right * self.V[:, k])
        self.F[:, k] = self.F[:, k - 1] + self.mass
        return slopes

    def _compile(self, start: int) -> None:
        """Evaluate the coefficients over the block of grid points from ``start``."""
        self.tbl = self.chunk = None  # release the previous block before building the next
        stop = min(start + self.block_len, len(self.times))
        self.tbl = self.spec.coeffs_on(self.times[start:stop])
        self.block_start, self.block_end = start, stop
        self.chunk_start = self.chunk_end = start

    def _compile_chunk(self, start: int) -> None:
        """Compile the plan of up to ``chunk_len`` grid points from ``start``,
        all within the coefficient block.

        A plan row is everything the right-hand side at its grid point needs
        besides the columns, none of which depends on the state: the located
        queries, the window starts' partial-panel weights, a mask that is 0
        on windows of zero width, and the coefficients in ``coupling_slots``
        order.  One ``_Located`` covers the ``(rows, queries)`` array of the
        chunk: the delayed states (``looks``) and the window starts
        (``windows``).  Queries are clamped to their row's ``t`` and read
        columns up to its grid point, so those that land in the live panel
        read the live column.
        """
        self.chunk = None
        tbl, stop = self.tbl, min(start + self.chunk_len, self.block_end)
        b = slice(start - self.block_start, stop - self.block_start)
        rows = stop - start

        def flat(*fields):
            return np.concatenate([f[b].reshape(rows, -1) for f in fields], axis=1)

        t = self.times[start:stop, None]
        delays = flat(tbl.eta, tbl.varsigma, tbl.tau, tbl.sigma_d, tbl.zeta)
        at = _Located(self.times, self.dense, np.minimum(t - delays, t), self.query_offsets)
        windows = (slice(None), self.windows)
        entries = np.concatenate((-flat(tbl.alpha, tbl.c), flat(
            tbl.Dtau, tbl.Dbar, tbl.Dtil, tbl.D, tbl.E, tbl.B, tbl.I, tbl.J)), axis=1)
        self.chunk = (at, at.ilo[windows], at.ihi[windows],
                      *at.partial_weights(self.trapezoid, windows),
                      at.lo[windows] < np.arange(start, stop)[:, None], entries)
        self.chunk_start, self.chunk_end = start, stop

    # -- right-hand side ---------------------------------------------------

    def _plan(self, k: int) -> tuple:
        """Row ``k`` of the compiled plan, with its ``coupling`` matrix.

        Compiles the chunk from ``k`` when ``k`` lies outside the current
        one, and raises :class:`HistoryUnderflowError` when a query of row
        ``k`` lies below the grid.
        """
        if not self.chunk_start <= k < self.chunk_end:
            self._compile_chunk(k)
        r = k - self.chunk_start
        at, ilo, ihi, wa, wb, is_open, entries = self.chunk
        at.check(r)
        coupling = np.zeros((2 * self.n, self.z_len))
        coupling.flat[self.coupling_slots] = entries[r]
        return at, (r, self.looks), ilo[r], ihi[r], wa[r], wb[r], is_open[r], coupling

    def _rhs(self, k: int, plan: tuple) -> np.ndarray:
        """Both layers' right-hand sides at grid point ``k``, the last column set."""
        n = self.n
        at, looks, ilo, ihi, wa, wb, is_open, coupling = plan
        looked = at.value(self.Yf, looks)
        # integral over (u, t]: committed panels, live panel, minus the part below u
        integrals = is_open * (
            (self.Ff[self.window_offsets + (k - 1)] - self.Ff[ilo])
            + self.mass[self.window_rows]
            - (wa * self.Vf[ilo] + wb * self.Vf[ihi]))
        z = np.concatenate((looked[:2 * n], self.f_lag(looked[2 * n:]), integrals,
                            self.V[:n, k], self.Y[n:, k], self.z_tail))
        return coupling @ z

    # -- stepping ----------------------------------------------------------

    def _step_dense(self, k: int) -> None:
        w = self.width[k]
        if self.prev_rhs is None:
            if k - 1 == 0:
                raise SimulationError("cannot evaluate the dynamics at the grid start")
            self.prev_rhs = self._rhs(k - 1, self._plan(k - 1))
        plan = self._plan(k)
        y_prev = self.Y[:, k - 1]
        y_pred = y_prev + w * self.prev_rhs
        if not np.isfinite(y_pred).all():
            raise StepFailureError(float(self.times[k]), "predictor became non-finite")
        self._set_column(k, y_pred)
        y_new = y_prev + 0.5 * w * (self.prev_rhs + self._rhs(k, plan))
        if not np.isfinite(y_new).all():
            raise StepFailureError(float(self.times[k]), "state became non-finite")
        self._set_column(k, y_new)
        self.prev_rhs = self.dY[:, k] = self._rhs(k, plan)

    def _step_scattered(self, k: int) -> None:
        t = float(self.times[k])
        w = self.width[k]
        plan = self._plan(k)
        y_prev = y_live = self.Y[:, k - 1]
        first_gap = last_gap = 0.0
        for m in range(self.corrector_iters):
            self._set_column(k, y_live)
            y_next = y_prev + w * self._rhs(k, plan)
            if not np.isfinite(y_next).all():
                raise StepFailureError(t, "fixed-point iteration became non-finite")
            gap = float(abs(y_next - y_live).max())
            if m == 0:
                first_gap = gap
            last_gap = gap
            y_live = y_next
        scale = 1.0 + float(abs(y_live).max())
        if (self.corrector_iters >= 2 and last_gap > 1e-9 * scale
                and last_gap > 0.5 * first_gap):
            raise StepFailureError(
                t, f"fixed-point iteration did not contract "
                   f"(residual {last_gap:.3e} from initial {first_gap:.3e}); "
                   f"the implicit update appears divergent at this gap size")
        self.dY[:, k] = self._set_column(k, y_live)  # y_live passed the finiteness check
        self.prev_rhs = None

    def run(self) -> Trajectory:
        for k in range(self.k0 + 1, len(self.times)):
            if k >= self.block_end:
                self._compile(k - 1)  # a dense step may also need the row of k - 1
            if self.dense[k]:
                self._step_dense(k)
            else:
                self._step_scattered(k)
        n = self.n
        return Trajectory(
            ts=self.ts, times=self.times, start_index=self.k0,
            x=self.Y[:n], s=self.Y[n:], dx=self.dY[:n], ds=self.dY[n:],
            _panel_dense=self.dense,
        )


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


def history_norm(hist_a: HistorySpec, hist_b: HistorySpec, ts: TimeScale,
                 t0: float = 0.0) -> float:
    """Sup distance between two history specifications.

    The supremum runs over every scale point of ``[t0 - window, t0]`` and
    over all ``4 n`` component series: both state families and both declared
    derivative families, each evaluated once over the window.
    """
    if hist_a.n != hist_b.n:
        raise ValueError("histories must have the same width")
    grid = ts.grid(t0 - max(hist_a.window, hist_b.window), t0)
    if len(grid) == 0:
        raise ValueError("no scale points fall in the history window")
    rel = grid - t0
    best = 0.0
    for i in range(hist_a.n):
        for fa, fb in ((hist_a.stm[i], hist_b.stm[i]),
                       (hist_a.stm_slope[i], hist_b.stm_slope[i]),
                       (hist_a.ltm[i], hist_b.ltm[i]),
                       (hist_a.ltm_slope[i], hist_b.ltm_slope[i])):
            gaps = np.abs(_eval_on(fa, rel) - _eval_on(fb, rel))
            best = max(best, float(gaps.max()))
    return best


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
    stacks = []
    for arr_a, arr_b in ((traj_a.x, traj_b.x), (traj_a.s, traj_b.s),
                         (traj_a.dx, traj_b.dx), (traj_a.ds, traj_b.ds)):
        stacks.append(np.abs(arr_a[:, k0:] - arr_b[:, k0:]))
    dist = np.max(np.vstack(stacks), axis=0)
    return traj_a.times[k0:].copy(), dist

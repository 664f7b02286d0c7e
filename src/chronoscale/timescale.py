"""Backward (nabla) calculus on time scales.

A *time scale* is a nonempty closed subset of the real line.  This module
represents a time scale as an ordered union of disjoint pieces, each of which
is either

* a **lattice piece** -- an arithmetic progression ``anchor + k * spacing``
  clipped to ``[start, stop]`` (either bound may be infinite), or
* a **dense piece** -- a closed real interval ``[start, stop]`` carrying a
  quadrature step used by the numerical operators.

For a point ``t`` of the scale, the backward jump operator is

    rho(t) = sup { s in T : s < t },        rho(min T) = min T,

and the backward graininess is ``nu(t) = t - rho(t)``.  A point with
``nu(t) > 0`` is *left-scattered*; with ``nu(t) = 0`` it is *left-dense*.

The nabla derivative of ``f`` at ``t`` is the exact backward difference
quotient ``(f(t) - f(rho(t))) / nu(t)`` at a left-scattered point and the
ordinary two-sided limit at a left-dense point.  The nabla integral over
``(a, b]`` sums ``nu(t) * f(t)`` over left-scattered points and reduces to the
Riemann integral on dense stretches.

The nabla exponential for a nu-regressive function ``p`` (meaning
``1 - nu(t) p(t) != 0``, and *positively* regressive when that quantity stays
positive) is

    nexp_p(t, s) = exp( integral_s^t  xi_{nu(tau)}( p(tau) ) nabla tau ),

where ``xi_h`` is the nu-cylinder transform ``xi_h(z) = -log(1 - h z) / h``
for ``h > 0`` and ``xi_0(z) = z``.  On a left-scattered point the integrand
contributes exactly ``-log(1 - nu * p)``, so the exponential is computed by
accumulating logarithms (never by multiplying long products), which keeps the
group identities exact to rounding on purely discrete scales.

Numerical conventions
---------------------
* One tolerance, ``POINT_TOL``, in time units (not lattice steps or
  panels), decides every membership, index and snap question, for lattice
  nodes and dense panel edges alike: a dense piece keeps its edges as a
  lattice piece.  Graininess is read off the grid walk that builds every grid
  (:meth:`TimeScale.grid_with_graininess`), so scalar queries and grids agree.
* Dense quadrature is the trapezoid rule on panels **anchored at the start of
  each dense piece**.  An integration bound falling strictly inside a panel
  is handled by integrating the anchored piecewise-linear interpolant of the
  integrand over the partial panel (the integrand is only ever sampled at
  panel edges).  The integral is therefore exactly additive across arbitrary
  split points: it is the exact integral of one fixed interpolant.
* Reversed bounds negate: ``integral_a^b = -integral_b^a``.
* Derivatives at left-dense points use a central difference of half-width
  ``DERIVATIVE_STEP`` (``1e-4``), falling back to a backward difference when
  the point sits at the right end of its piece.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "TimeScaleError",
    "RegressivityError",
    "DerivativeUndefinedError",
    "LatticePiece",
    "DensePiece",
    "TimeScale",
    "cylinder",
    "circle_plus",
    "circle_minus",
]

# Tolerance, in time units, for deciding whether a floating-point time
# coincides with a grid node / piece boundary.  All membership, index and
# snapping questions use it.
POINT_TOL = 1e-9

# Most nodes one grid may hold.  A wider window is refused before anything is
# allocated, since a run keeps several rows of its grid's length per state.
MAX_NODES = 2_000_000

# Half-width of the central difference at left-dense points.
DERIVATIVE_STEP = 1e-4


class TimeScaleError(ValueError):
    """A time-scale operation received a point or window it cannot serve."""


class RegressivityError(TimeScaleError):
    """``1 - nu(t) * p(t) <= 0`` at a left-scattered point.

    Carries the offending time in ``.at_time`` so callers can report where
    the cylinder transform / nabla exponential became undefined.
    """

    def __init__(self, message: str, at_time: float | None = None):
        super().__init__(message)
        self.at_time = at_time


class DerivativeUndefinedError(TimeScaleError):
    """The nabla derivative does not exist at the requested point."""


# --------------------------------------------------------------------------
# pieces
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class LatticePiece:
    """Arithmetic progression ``anchor + k * spacing`` clipped to [start, stop].

    ``start``/``stop`` may be ``-inf``/``+inf`` for an unbounded progression.
    Finite bounds are snapped onto the progression at construction.
    """

    start: float
    stop: float
    spacing: float = 1.0
    anchor: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.anchor):
            raise TimeScaleError(f"lattice anchor must be finite, got {self.anchor}")
        # a spacing at or below POINT_TOL would merge nodes the lookups tell apart
        if not POINT_TOL < self.spacing < math.inf:
            raise TimeScaleError(f"lattice spacing must be finite and exceed "
                                 f"{POINT_TOL:g}, got {self.spacing}")
        if self.start > self.stop:
            raise TimeScaleError("piece start must not exceed stop")
        start, stop = self.start, self.stop
        if math.isfinite(start):
            start = self.anchor + self._index(start, math.ceil) * self.spacing
        if math.isfinite(stop):
            stop = self.anchor + self._index(stop, math.floor) * self.spacing
        if start > stop:
            raise TimeScaleError("lattice piece contains no node")
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "stop", stop)

    def _index(self, t: float, rounding: Callable[[float], int]) -> int:
        """Index of the node at or below t (``math.floor``) or at or above it
        (``math.ceil``); the nearest node counts as either within ``POINT_TOL``
        and one rounding of ``t - anchor``, which alone exceeds it past 2**23."""
        d = t - self.anchor
        k = round(d / self.spacing)
        return k if abs(d - k * self.spacing) <= POINT_TOL + math.ulp(d) else rounding(d / self.spacing)

    @property
    def graininess(self) -> float:
        return self.spacing

    def snap_down(self, t: float) -> float:
        """Largest node <= t (assumes start - tol <= t)."""
        return self.anchor + self._index(min(t, self.stop), math.floor) * self.spacing

    def _span(self, lo: float, hi: float) -> tuple[int, int]:
        """Indices of the first and last node in [lo, hi] (clipped to the
        piece); the last is below the first when there is none."""
        a, b = max(lo, self.start), min(hi, self.stop)
        if not (math.isfinite(a) and math.isfinite(b)):
            raise TimeScaleError(f"window [{lo!r}, {hi!r}] is unbounded on a lattice "
                                 f"of spacing {self.spacing!r}")
        return self._index(a, math.ceil), self._index(b, math.floor)

    def count(self, lo: float, hi: float) -> int:
        """How many nodes ``grid(lo, hi)`` holds, found without building it."""
        k_lo, k_hi = self._span(lo, hi)
        return max(0, k_hi - k_lo + 1)

    def grid(self, lo: float, hi: float) -> np.ndarray:
        """All nodes in [lo, hi] (clipped to the piece), at most ``MAX_NODES``."""
        _check_budget((self,), lo, hi)
        k_lo, k_hi = self._span(lo, hi)
        return self.anchor + self.spacing * np.arange(k_lo, k_hi + 1, dtype=float)


@dataclass(frozen=True)
class DensePiece:
    """Closed real interval [start, stop] with a quadrature step.

    The requested step is adjusted so the piece holds a whole number of
    panels; the panel edges are the lattice ``edges`` anchored at ``start``.
    """

    start: float
    stop: float
    step: float = 0.01
    edges: LatticePiece = field(init=False, repr=False, compare=False)
    graininess = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.start) and math.isfinite(self.stop)):
            raise TimeScaleError("dense pieces must have finite bounds")
        if not self.stop > self.start:
            raise TimeScaleError("dense piece needs stop > start")
        if not POINT_TOL < self.step < math.inf:  # inf would adjust to one panel
            raise TimeScaleError(f"quadrature step must be finite and exceed "
                                 f"{POINT_TOL:g}, got {self.step}")
        step = (self.stop - self.start) / max(1, round((self.stop - self.start) / self.step))
        object.__setattr__(self, "step", step)
        object.__setattr__(self, "edges", LatticePiece(self.start, self.stop, step, self.start))

    @property
    def spacing(self) -> float:
        return self.step

    def count(self, lo: float, hi: float) -> int:
        """How many panel edges lie in [lo, hi]; ``grid(lo, hi)`` holds at
        most two more, the window's ends."""
        return self.edges.count(lo, hi)

    def snap_down(self, t: float) -> float:
        return min(t, self.stop)

    def grid(self, lo: float, hi: float) -> np.ndarray:
        """[lo, hi] clipped to the piece: its ends and the edges strictly
        between them.  An edge within ``POINT_TOL`` of hi ends the grid at the
        lower of the two; a window no wider than ``POINT_TOL`` is lo alone."""
        lo, hi = max(lo, self.start), min(hi, self.stop)
        if lo > hi + POINT_TOL:
            return np.empty(0)
        if hi <= lo + POINT_TOL:
            return np.array([lo])
        e = self.edges.grid(lo, hi)
        e = e[e > lo + POINT_TOL]
        end = min(e[-1], hi) if e.size and e[-1] >= hi - POINT_TOL else hi
        return np.concatenate(([lo], e[e < hi - POINT_TOL], [end]))


Piece = LatticePiece | DensePiece


def _check_budget(pieces: Sequence[Piece], lo: float, hi: float) -> None:
    """Refuse, before anything is allocated, a window [lo, hi] in which
    ``pieces`` hold more than ``MAX_NODES`` nodes together; the message names
    the finest spacing among the pieces that hold any."""
    counts = [(piece.count(lo, hi), piece.spacing) for piece in pieces]
    total = sum(count for count, _ in counts)
    if total > MAX_NODES:
        finest = min(spacing for count, spacing in counts if count)
        raise TimeScaleError(f"window [{lo!r}, {hi!r}] holds {total} nodes at spacing "
                             f"{finest!r}; a grid holds at most {MAX_NODES}")


# --------------------------------------------------------------------------
# the time scale
# --------------------------------------------------------------------------


def _eval_on(f: Callable, xs: np.ndarray) -> np.ndarray:
    """Evaluate ``f`` on an array, tolerating scalar-only callables (those
    that raise ``TypeError`` or ``ValueError`` on an array)."""
    try:
        out = np.asarray(f(xs), dtype=float)
        if out.shape == xs.shape:
            return out
    except (TypeError, ValueError):
        pass
    return np.array([float(f(float(x))) for x in xs])


class TimeScale:
    """An ordered union of lattice and dense pieces; see the module docstring.

    Construct via the classmethods :meth:`integer_lattice`,
    :meth:`real_interval`, :meth:`union_of_intervals`, or pass explicit
    pieces (ascending and disjoint, with positive gaps between them).
    """

    def __init__(self, pieces: Sequence[Piece]):
        if not pieces:
            raise TimeScaleError("a time scale needs at least one piece")
        pieces = tuple(pieces)
        for prev, nxt in zip(pieces, pieces[1:]):
            if not nxt.start > prev.stop + POINT_TOL:
                raise TimeScaleError(
                    "pieces must be ascending and separated by positive gaps"
                )
        self.pieces = pieces
        self._starts = [p.start for p in pieces]

    # -- constructors -------------------------------------------------

    @classmethod
    def integer_lattice(cls, spacing: float = 1.0, anchor: float = 0.0) -> "TimeScale":
        """The unbounded lattice { anchor + k*spacing : k integer }."""
        return cls([LatticePiece(-math.inf, math.inf, spacing, anchor)])

    @classmethod
    def real_interval(cls, start: float, stop: float, step: float = 0.01) -> "TimeScale":
        """The closed interval [start, stop] with quadrature step ``step``."""
        return cls([DensePiece(start, stop, step)])

    @classmethod
    def union_of_intervals(
        cls, intervals: Iterable[tuple[float, float]], step: float = 0.01
    ) -> "TimeScale":
        """A union of disjoint closed real intervals, e.g. [0,1] u [2,3]."""
        return cls([DensePiece(a, b, step) for a, b in intervals])

    # -- membership & jumps -------------------------------------------

    def _index_at_or_before(self, t: float) -> int:
        """Index of the last piece whose start <= t (+tol); -1 if none."""
        return bisect_right(self._starts, t + POINT_TOL) - 1

    def contains(self, t: float) -> bool:
        """Whether t is a point of the scale: its one-point grid walk is not empty."""
        return self.grid(t, t).size > 0

    def _require_member(self, t: float, what: str = "point") -> None:
        if not self.contains(t):
            raise TimeScaleError(f"{what} {t!r} is not a point of the time scale")

    def backward_jump(self, t: float) -> float:
        """rho(t): the closest scale point strictly below t (rho(min) = min)."""
        return self.snap_down(t - self.graininess(t))

    def graininess(self, t: float) -> float:
        """nu(t) = t - rho(t), read off the grid walk; zero exactly at
        left-dense points."""
        nu = self.grid_with_graininess(t, t)[1]
        if not nu.size:
            raise TimeScaleError(f"point {t!r} is not a point of the time scale")
        return float(nu[0])

    def snap_down(self, t: float) -> float:
        """The largest scale point <= t (tolerance ``POINT_TOL``).

        Raises :class:`TimeScaleError` if t lies below the scale minimum, is
        nan, or is infinite with no largest point below it (+inf on a scale
        unbounded above, -inf on one unbounded below).
        """
        if math.isnan(t):
            raise TimeScaleError("time nan is not a point in time")
        i = self._index_at_or_before(t)
        if i < 0:
            raise TimeScaleError(
                f"time {t!r} lies below the minimum of the time scale"
            )
        if math.isinf(min(t, self.pieces[i].stop)):
            raise TimeScaleError(f"no point of the time scale is the largest <= {t!r}")
        return self.pieces[i].snap_down(t)

    # -- grids ----------------------------------------------------------

    def grid(self, a: float, b: float) -> np.ndarray:
        """All computation nodes of the scale in [a, b], ascending.

        Contains every scale point in the window on lattice pieces, every
        anchored panel edge on dense pieces, and the window endpoints
        themselves whenever they belong to the scale.
        """
        return self.grid_with_graininess(a, b)[0]

    def grid_with_graininess(self, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
        """Grid over [a, b] plus nu(t) for every grid point (vectorised).

        For dense-piece nodes nu = 0; for lattice nodes nu = spacing; the
        first node of every piece after the first carries the gap width and
        the scale's minimum carries 0 (rho(min) = min), so every node, the
        window's first included, gets its true graininess.
        """
        if b < a:
            raise TimeScaleError("grid window requires a <= b")
        _check_budget(self.pieces, a, b)
        gs: list[np.ndarray] = []
        nus: list[np.ndarray] = []
        prev_stop: float | None = None
        for piece in self.pieces:
            if piece.stop < a - POINT_TOL or piece.start > b + POINT_TOL:
                if piece.stop < a - POINT_TOL:
                    prev_stop = piece.stop
                continue
            g = piece.grid(a, b)
            nu = np.full(g.shape, piece.graininess)
            if g.size:
                if abs(g[0] - piece.start) <= POINT_TOL:
                    # the gap to the previous piece; 0 at the global minimum
                    nu[0] = 0.0 if prev_stop is None else piece.start - prev_stop
                gs.append(g)
                nus.append(nu)
            prev_stop = piece.stop
        if not gs:
            return np.empty(0), np.empty(0)
        return np.concatenate(gs), np.concatenate(nus)

    def max_graininess(self) -> float:
        """sup of nu over the whole scale, from its pieces.

        The largest lattice spacing or gap between consecutive pieces (0 on
        a purely dense scale): a bound on the graininess over any horizon.
        """
        gaps = [nxt.start - prev.stop for prev, nxt in zip(self.pieces, self.pieces[1:])]
        return float(max([p.graininess for p in self.pieces] + gaps))

    # -- derivative ------------------------------------------------------

    def nabla_derivative(self, f: Callable[[float], float], t: float) -> float:
        """The nabla derivative of ``f`` at ``t``.

        Exact backward difference quotient at left-scattered points; central
        difference of half-width ``DERIVATIVE_STEP`` at left-dense points
        (backward difference at a piece's right endpoint).  Undefined at the
        scale minimum, dense or lattice, where rho(min) = min.
        """
        nu = self.graininess(t)
        if nu > 0.0:
            return (float(f(t)) - float(f(self.snap_down(t - nu)))) / nu
        if t - self.pieces[0].start <= POINT_TOL:
            raise DerivativeUndefinedError(
                f"nabla derivative undefined at the scale minimum {t!r}"
            )
        # a left-dense point that is not the minimum lies inside a dense piece
        piece = self.pieces[self._index_at_or_before(t)]
        room_left = t - piece.start
        room_right = piece.stop - t
        h = min(DERIVATIVE_STEP, room_left)
        if room_right > h - POINT_TOL and room_right > POINT_TOL:
            h = min(h, room_right)
            return (float(f(t + h)) - float(f(t - h))) / (2.0 * h)
        return (float(f(t)) - float(f(t - h))) / h

    # -- integral ---------------------------------------------------------

    def panels(self, a: float, b: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Grid over [a, b] plus per-panel width and a dense/scattered mask.

        All three have the grid's length; entry 0 has width 0 and is not
        dense.  Panel k spans (g[k-1], g[k]]; ``dense[k]`` (``nu <= width/2``)
        is True when it is part of a dense stretch (trapezoid), False when
        g[k] is a left-scattered point receiving the whole panel as jump mass.
        """
        return self._panels_and_nu(a, b)[:3]

    def _panels_and_nu(self, a: float, b: float) -> tuple[np.ndarray, ...]:
        """:meth:`panels` plus nu of every grid node, from one grid walk."""
        g, nu = self.grid_with_graininess(a, b)
        widths = np.diff(g, prepend=g[:1])
        return g, widths, (nu <= widths / 2) & (widths > 0), nu

    def _sampled(self, f: Callable, a: float, b: float) -> tuple[np.ndarray, ...]:
        """The grid over [a, b], its panel widths and dense mask (entry 0
        dropped), ``f`` on the grid, and nu of every grid node.

        Interior grid nodes are always anchored panel edges or lattice nodes;
        only the first/last node of a window can fall strictly inside a dense
        panel.  Those get the value of the anchored piecewise-linear
        interpolant of ``f``, so that integrals are exactly additive (module
        docstring).
        """
        g, widths, dense, nu = self._panels_and_nu(a, b)
        vals = _eval_on(f, g)
        for idx in {0, g.size - 1} if g.size else ():
            x = float(g[idx])
            piece = self.pieces[self._index_at_or_before(x)]
            if isinstance(piece, DensePiece) and not piece.edges.grid(x, x).size:
                e0 = piece.edges.snap_down(x)
                e1 = min(e0 + piece.step, piece.stop)
                f0, f1 = float(f(e0)), float(f(e1))
                vals[idx] = f0 + (f1 - f0) * (x - e0) / (e1 - e0)
        return g, widths[1:], dense[1:], vals, nu

    def nabla_integral(self, f: Callable[[float], float], a: float, b: float) -> float:
        """The nabla integral of ``f`` over (a, b], signed in the bounds.

        ``a`` and ``b`` must belong to the scale.  Left-scattered points
        contribute ``nu * f(point)``; dense stretches use anchored-panel
        trapezoid quadrature (see the module docstring).
        """
        if b < a:
            return -self.nabla_integral(f, b, a)
        self._require_member(a, "lower bound")
        self._require_member(b, "upper bound")
        if b - a <= POINT_TOL:
            return 0.0
        g, widths, dense, vals, _ = self._sampled(f, a, b)
        trap = 0.5 * widths * (vals[:-1] + vals[1:])
        jump = widths * vals[1:]
        return float(np.sum(np.where(dense, trap, jump)))

    # -- exponential --------------------------------------------------------

    def _log_increments(
        self, p: Callable[[float], float], a: float, b: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """Grid over [a, b] and per-panel log-increments of the nabla exponential.

        Dense panels contribute the trapezoid of ``p``; a left-scattered point
        with graininess ``w`` contributes ``-log(1 - w * p)`` exactly.  Raises
        :class:`RegressivityError` when ``1 - w * p`` is not positive (or NaN)
        at a left-scattered point.

        A dense panel that opens at a left-scattered point samples its left
        edge just inside the panel: rates composed with the graininess (such
        as graininess-circle negations) are discontinuous across an atom, and
        the atom's own value belongs to its jump factor alone -- the dense
        stretch right of it must integrate the dense-side values.
        """
        g, widths, dense, vals, nu = self._sampled(p, a, b)
        if g.size < 2:
            return g, np.empty(0)
        one_minus = 1.0 - widths * vals[1:]
        bad = (~dense) & ~(one_minus > 0.0)  # NaN is not positive either
        if np.any(bad):
            where = float(g[1:][bad][0])
            raise RegressivityError(
                f"1 - nu*p = {float(one_minus[bad][0])!r} is not positive at "
                f"left-scattered point t={where!r}; "
                "p is not positively nu-regressive there",
                at_time=where,
            )
        left = vals[:-1]
        opens_at_atom = dense & (nu[:-1] > 0.0)
        if np.any(opens_at_atom):
            left = left.copy()
            for j in np.nonzero(opens_at_atom)[0]:
                nudge = max(1e-8, 1e-3 * float(widths[j]))
                left[j] = float(p(float(g[j]) + nudge))
        trap = 0.5 * widths * (left + vals[1:])
        with np.errstate(divide="ignore", invalid="ignore"):
            jump = -np.log(np.where(dense, 1.0, one_minus))
        return g, np.where(dense, trap, jump)

    def nabla_exp(self, p: Callable[[float], float], t: float, s: float) -> float:
        """The nabla exponential nexp_p(t, s); see the module docstring.

        Requires ``p`` positively nu-regressive between the bounds.  Works for
        ``t`` on either side of ``s`` (group property: nexp_p(s,t) is the
        reciprocal).
        """
        if t == s:
            return 1.0
        sign = 1.0
        lo, hi = s, t
        if t < s:
            sign, lo, hi = -1.0, t, s
        self._require_member(lo, "exponential bound")
        self._require_member(hi, "exponential bound")
        _, inc = self._log_increments(p, lo, hi)
        return math.exp(sign * float(np.sum(inc)))

    def nabla_exp_grid(
        self, p: Callable[[float], float], a: float, b: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """nexp_p(g, a) for every grid node g in [a, b] at once.

        Returns ``(grid, values)``.  Consistent with :meth:`nabla_exp` because
        both accumulate the same anchored-panel log increments.
        """
        self._require_member(a, "window start")
        self._require_member(b, "window end")
        g, inc = self._log_increments(p, a, b)
        if g.size == 0:
            return g, g
        return g, np.exp(np.concatenate([[0.0], np.cumsum(inc)]))

    # -- regressivity -------------------------------------------------------

    def is_positively_regressive(
        self, p: Callable[[float], float], a: float, b: float
    ) -> bool:
        """True iff 1 - nu(t) p(t) > 0 at every left-scattered t in (a, b]."""
        try:
            self._log_increments(p, a, b)
        except RegressivityError:
            return False
        return True

    # -- misc ---------------------------------------------------------------

    def describe(self) -> str:
        """One-line human description, as ``repr`` shows it."""
        parts = []
        for piece in self.pieces:
            if isinstance(piece, LatticePiece):
                lo = "-inf" if not math.isfinite(piece.start) else f"{piece.start:g}"
                hi = "+inf" if not math.isfinite(piece.stop) else f"{piece.stop:g}"
                parts.append(f"lattice[{lo}..{hi}; spacing {piece.spacing:g}]")
            else:
                parts.append(
                    f"interval[{piece.start:g}, {piece.stop:g}; step {piece.step:g}]"
                )
        return " u ".join(parts)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TimeScale({self.describe()})"


# --------------------------------------------------------------------------
# pointwise nu-algebra
# --------------------------------------------------------------------------


def cylinder(z: float, nu: float) -> float:
    """The nu-cylinder transform xi_nu(z): z when nu=0, else -log(1-nu z)/nu."""
    if nu == 0.0:
        return float(z)
    w = 1.0 - nu * z
    if w <= 0.0:
        raise RegressivityError(f"cylinder undefined: 1 - nu*z = {w!r} <= 0")
    return -math.log(w) / nu

def circle_plus(p: float, q: float, nu: float) -> float:
    """nu-circle addition: p (+) q = p + q - nu p q."""
    return p + q - nu * p * q


def circle_minus(p: float, nu: float) -> float:
    """nu-circle negation: (-) p = -p / (1 - nu p); inverse of circle_plus."""
    w = 1.0 - nu * p
    if w <= 0.0:
        raise RegressivityError(f"circle_minus undefined: 1 - nu*p = {w!r} <= 0")
    return -p / w

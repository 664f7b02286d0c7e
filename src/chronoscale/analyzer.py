"""Empirical analysis of simulated runs.

Three instruments:

* :func:`decay_fit` -- least-squares exponential decay rate of a distance
  series (slope of ``log d`` against ``t``, negated), with an ``inf``
  sentinel for pairs that have converged to numerical identity;
* :func:`verify_bound` -- checks a decay certificate ``(lambda, M)``
  against a simulated trajectory pair: the distance between the runs must
  stay below ``M * |history gap| / nexp_lambda(t, t0)``, which equals
  ``M * nexp_{circleminus lambda}(t, t0) * |history gap|``, at every point;
* :func:`scan_translation_numbers` -- an almost-periodicity diagnostic:
  the shifts ``tau`` whose translated copy of a run stays uniformly within
  ``epsilon`` of the original.  Translates are read from the committed grid
  through the trajectory's own lookup, so on a lattice only shifts that
  keep the run on the time scale can be scanned.  With finite windows and a
  finite ``epsilon`` this is an evidence scan, never a proof, and it is
  reported as such.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import IO, Sequence

import numpy as np

from .coeffs import Const
from .conditions import Certificate
from .simulator import HistorySpec, Trajectory, distance_series, history_norm
from .timescale import POINT_TOL, TimeScale

__all__ = [
    "decay_fit",
    "StabilityReport",
    "verify_bound",
    "write_stability_csv",
    "TranslationScan",
    "scan_translation_numbers",
]

# Distances at or below this are rounding noise: "numerically identical".
# With a floor of 1e-14, a rounding-level change in the stepper moved the
# fitted rate of the example's Z run in its sixth digit; with 1e-12 it
# moves in the eleventh.
_IDENTICAL_TOL = 1e-12


def decay_fit(times: Sequence[float], distances: Sequence[float]) -> tuple[float, float]:
    """Fitted exponential decay rate and fit quality of a distance series.

    Drops the burn-in, every sample in the first 20% of the observed
    horizon, fits ``log d = a - rate * t`` by least squares over the
    remaining distances above ``1e-12`` (those at or below it are rounding
    noise), and returns ``(rate, r_squared)``.  If every
    retained distance is below ``1e-12`` the pair has converged to numerical
    identity and the sentinel ``(inf, 1.0)`` is returned.  Requires at least
    10 distances above ``1e-12`` after burn-in otherwise.
    """
    t = np.asarray(times, dtype=float)
    d = np.asarray(distances, dtype=float)
    if t.shape != d.shape or t.ndim != 1:
        raise ValueError("times and distances must be 1-d arrays of equal length")
    if len(t) == 0:
        raise ValueError("empty distance series")
    keep = t >= t[0] + 0.2 * (t[-1] - t[0])
    t, d = t[keep], d[keep]
    if len(d) and np.max(d) < _IDENTICAL_TOL:
        return math.inf, 1.0
    pos = d > _IDENTICAL_TOL
    if pos.sum() < 10:
        raise ValueError(f"need at least 10 distances above {_IDENTICAL_TOL:g} "
                         f"after burn-in, have {int(pos.sum())}")
    t, logd = t[pos], np.log(d[pos])
    design = np.column_stack([np.ones(len(t)), t])
    coef, *_ = np.linalg.lstsq(design, logd, rcond=None)
    resid = logd - design @ coef
    ss_res = float(np.dot(resid, resid))
    centered = logd - logd.mean()
    ss_tot = float(np.dot(centered, centered))
    r_squared = 1.0 if ss_tot < 1e-30 else 1.0 - ss_res / ss_tot
    return float(-coef[1]), float(r_squared)


@dataclass(frozen=True)
class StabilityReport:
    """Outcome of checking a decay certificate against a simulated pair.

    ``bound_margin`` is the minimum over the live grid of
    ``envelope(t) - distance(t)`` (absolute units); ``violated`` is true
    when some distance exceeds its envelope value by more than the absolute
    plus relative tolerance.  The sampled series are kept for CSV export.
    ``fit_refused`` is :func:`decay_fit`'s reason when it refused the
    series (``lambda_fit`` and ``r_squared`` are then ``nan``), else ``None``.
    """

    lam: float
    big_m: float
    history_gap: float
    lambda_fit: float
    r_squared: float
    bound_margin: float
    min_relative_margin: float
    violated: bool
    times: np.ndarray
    distances: np.ndarray
    bounds: np.ndarray
    fit_refused: str | None = None

    @property
    def n_points(self) -> int:
        return len(self.times)

    def to_text(self) -> str:
        lines = [
            f"lambda {self.lam!r}",
            f"M {self.big_m!r}",
            f"history_gap {self.history_gap!r}",
            f"points {self.n_points}",
            f"lambda_fit {self.lambda_fit!r}",
            f"r_squared {self.r_squared!r}",
        ]
        if self.fit_refused is not None:
            lines.append(f"fit_refused {self.fit_refused}")
        lines += [
            f"min_margin {self.bound_margin!r}",
            f"min_margin_rel {self.min_relative_margin!r}",
            f"violated {'true' if self.violated else 'false'}",
        ]
        return "\n".join(lines) + "\n"


def verify_bound(traj_a: Trajectory, traj_b: Trajectory,
                 hist_a: HistorySpec, hist_b: HistorySpec,
                 cert: Certificate, ts: TimeScale) -> StabilityReport:
    """Check the certified decay envelope against a simulated pair.

    Evaluates, at every live grid point, the inequality

        distance(t) <= M * gap0 / nexp_lambda(t, t0),

    where ``gap0`` is :func:`history_norm` of the two supplied histories;
    the right side is ``M * nexp_{circleminus lambda}(t, t0) * gap0`` by the
    group identity nexp_{circleminus p} = 1 / nexp_p (Bohner & Peterson,
    2001).  A point violates the bound when the distance exceeds the
    envelope by more than 1e-9 plus 1e-6 times the envelope.  Raises
    :class:`~chronoscale.timescale.RegressivityError`, with ``at_time``,
    when the certified rate is not admissible on this scale
    (``1 - nu*lambda <= 0`` somewhere): a failed certificate.
    """
    times, dist = distance_series(traj_a, traj_b)
    t0 = float(times[0])
    gap0 = history_norm(hist_a, hist_b, ts, t0=t0)
    grid, growth = ts.nabla_exp_grid(Const(cert.lam), t0, float(times[-1]))
    if len(grid) != len(times) or not np.allclose(grid, times, atol=POINT_TOL, rtol=0.0):
        raise ValueError("envelope grid does not match the trajectory grid")
    bounds = cert.big_m * gap0 / growth
    margins = bounds - dist
    rel = margins / np.maximum(bounds, 1e-300)
    violated = bool(np.any(dist > bounds + 1e-9 + 1e-6 * bounds))
    refused = None
    try:
        lam_fit, r2 = decay_fit(times, dist)
    except ValueError as exc:
        lam_fit, r2, refused = math.nan, math.nan, str(exc)
    return StabilityReport(
        lam=cert.lam, big_m=cert.big_m, history_gap=gap0,
        lambda_fit=lam_fit, r_squared=r2,
        bound_margin=float(np.min(margins)),
        min_relative_margin=float(np.min(rel)),
        violated=violated,
        times=times, distances=dist, bounds=bounds, fit_refused=refused,
    )


def write_stability_csv(report: StabilityReport, target: str | IO[str]) -> None:
    """Write ``t,distance,bound,margin`` rows for external plotting."""
    data = np.column_stack([report.times, report.distances, report.bounds,
                            report.bounds - report.distances])
    np.savetxt(target, data, delimiter=",", header="t,distance,bound,margin",
               comments="", fmt="%.12g")


# ---------------------------------------------------------------------------
# almost-periodicity diagnostics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TranslationScan:
    """Result of an epsilon-translation scan.

    ``hits`` are the shifts whose translation error stays within
    ``epsilon``; ``max_gap`` is the largest spacing between consecutive
    hits (0 when fewer than two hits).  A dense hit set with small gaps is
    evidence toward almost periodicity over the scanned range -- never a
    proof: the window, the shift range, and epsilon are all finite.
    """

    epsilon: float
    window: tuple[float, float]
    taus: np.ndarray
    errors: np.ndarray
    hits: np.ndarray
    max_gap: float

    def summary_lines(self) -> list[str]:
        lines = [
            f"epsilon {self.epsilon!r}",
            f"window {self.window[0]!r} {self.window[1]!r}",
            f"shifts_scanned {len(self.taus)}",
            f"hits {len(self.hits)}",
            f"max_gap {self.max_gap!r}",
        ]
        if len(self.hits):
            head = ", ".join(f"{h:g}" for h in self.hits[:12])
            more = " ..." if len(self.hits) > 12 else ""
            lines.append(f"hit_shifts {head}{more}")
        return lines


def scan_translation_numbers(traj: Trajectory, index: int, epsilon: float,
                             tau_range: tuple[float, float] = (1.0, 100.0),
                             tau_step: float = 0.1,
                             window: tuple[float, float] | None = None,
                             ) -> TranslationScan:
    """Scan shifts in ``tau_range`` for epsilon-translation numbers of
    state ``index`` of ``traj`` (numbered as in :meth:`Trajectory.value`).

    The translation error of a shift ``tau`` is the sup of
    ``|x(t + tau) - x(t)|`` over the live grid points ``t`` in ``window``,
    with ``x(t + tau)`` read from the committed grid as the stepper reads
    it.  ``window`` defaults to the widest interval whose largest translate
    still fits inside the run.  A translate past the end of the run raises
    ``ValueError``, one below its history
    :class:`~chronoscale.simulator.HistoryUnderflowError`, and one that
    leaves the time scale (strictly inside a scattered panel) ``ValueError``
    naming the shift.  Returns every scanned shift with its translation
    error, the hit list, and the largest gap between consecutive hits.
    """
    if tau_step <= 0:
        raise ValueError("tau_step must be positive")
    lo, hi = tau_range
    if not hi >= lo:
        raise ValueError("tau_range must be ordered")
    t = traj.live_times
    if window is None:
        window = (float(t[0]), float(t[-1]) - hi)
        if window[1] <= window[0]:
            raise ValueError("series too short for this shift range")
    series = traj._series(index)
    base_t = t[(t >= window[0]) & (t <= window[1])]
    if not len(base_t):
        raise ValueError("no samples fall inside the window")
    base = traj.value(index, base_t)
    count = int(math.floor((hi - lo) / tau_step + 1e-9)) + 1
    taus = lo + tau_step * np.arange(count)
    errors = np.empty(count)
    for k, tau in enumerate(taus):
        at = traj._locate(base_t + tau)
        off = (at.hi > at.lo) & ~traj._panel_dense[at.hi]
        if off.any():
            raise ValueError(
                f"shift tau={float(tau)!r} moves t={float(base_t[off][0])!r} off "
                "the time scale (strictly inside a scattered panel)")
        errors[k] = np.max(np.abs(at.value(series) - base))
    hits = taus[errors <= epsilon]
    max_gap = float(np.max(np.diff(hits))) if len(hits) >= 2 else 0.0
    return TranslationScan(epsilon=float(epsilon), window=window, taus=taus,
                           errors=errors, hits=hits, max_gap=max_gap)

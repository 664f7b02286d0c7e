"""Solvability (contraction) checks and the exponential-decay certificate.

Everything here works on a :class:`BoundSet`: per-family tables of the
coefficient envelopes (sup/inf of absolute values; ``x_i+`` below is
``sup["x"][i]`` and ``x_i-`` is ``inf["x"][i]``) plus the supremum
``nu_sup`` of the time scale's backward graininess.  Bounds are enclosures
of a model's expressions over all t in R (:func:`compute_bounds`), with user
overrides taking precedence.

Solvability check
-----------------
For a candidate ball radius ``r`` the check assembles, per neuron ``i`` (with
Lipschitz bounds ``L_j`` and activation offsets ``f0_j = |f_j(0)|``, which
:func:`activation_offsets` computes once per model from its activations):

    P_i  = alpha_i+ eta_i+ r
         + sum_j D_ij+    (L_j r + f0_j)
         + sum_j Dtau_ij+ (L_j r + f0_j)
         + sum_j Dbar_ij+ sigma_ij+ (L_j r + f0_j)
         + sum_j Dtil_ij+ zeta_ij+  (L_j r + f0_j)
         + B_i+ r + I_i+,
    Q_i  = c_i+ varsigma_i+ r + E_i+ (L_i r + f0_i) + J_i+,

    Pbar_i = alpha_i+ eta_i+ + sum_j D_ij+ L_j [+ sum_j Dtau_ij+ L_j]
           + sum_j Dbar_ij+ sigma_ij+ L_j + sum_j Dtil_ij+ zeta_ij+ L_j
           + B_i+,
    Qbar_i = c_i+ varsigma_i+ + E_i+ L_i,

and evaluates the two ratio families

    invariance:  max_i { P_i/alpha_i-,  (1 + alpha_i+/alpha_i-) P_i,
                         Q_i/c_i-,      (1 + c_i+/c_i-) Q_i }          <= r,
    contraction: max_i { same four with Pbar/Qbar }            =: kappa < 1.

Both conditions together guarantee a unique bounded solution inside the ball
of radius ``r`` (in the norm that takes the max over states *and* their nabla
derivatives).

The bracketed ``Dtau`` sum in ``Pbar`` is controlled by
``include_delayed_feedback``: ``True`` (default) is the faithful contraction
constant; ``False`` reproduces a widely used reduced tabulation that omits
the discretely-delayed feedback from the contraction side only.  ``P`` always
includes every term.

Decay certificate
-----------------
``find_lambda`` locates the largest decay rate ``lam`` in
``(0, min(alpha-, c-))`` at which four per-neuron margin functions stay
positive (``h_functions``): with ``nu = nu_sup`` and the beta-weighted slope

    W_i(b) = alpha_i+ eta_i+ e^{b eta_i+}
           + sum_j D_ij+ L_j
           + sum_j Dtau_ij+ L_j e^{b tau_ij+}
           + sum_j Dbar_ij+ L_j sigma_ij+ e^{b sigma_ij+}
           + sum_j Dtil_ij+ L_j zeta_ij+  e^{b zeta_ij+},

    H_i(b)      = alpha_i- - b - ( e^{b nu} W_i(b) + B_i+ )
    Hbar_i(b)   = c_i- - b - ( e^{b nu} c_i+ varsigma_i+ e^{b varsigma_i+}
                               + E_i+ L_i )
    Hstar_i(b)  = alpha_i- - b
                  - ( alpha_i+ e^{b nu} + alpha_i- - b ) ( W_i(b) + B_i+ )
    Hbarstar_i(b) = c_i- - b
                  - ( c_i+ e^{b nu} + c_i- - b )
                    ( c_i+ varsigma_i+ e^{b varsigma_i+} + E_i+ L_i ).

At ``b = 0`` their positivity is exactly the contraction condition, so a
passing check guarantees a positive rate exists.  The rates that keep every
margin above ``POSITIVITY_MARGIN`` form an initial interval of the admissible
ones, so a bracketing search finds the largest (see :func:`find_lambda`).
The overshoot constant is

    M = max_i max{ alpha_i- / Pbar_i,  c_i- / Qbar_i }  (> 1 when kappa < 1),

and the certified envelope for the gap between any two solutions is
``M * nexp_{circleminus lam}(t, t0) * gap_0 = M * gap_0 / nexp_lam(t, t0)``
with ``gap_0`` the initial history norm.

The gate
--------
``(lam, M)`` certifies decay only for a solution that exists in an invariant
ball, so a certificate is issued in one place, :func:`certify`: it checks
the radii of a grid from the smallest, and calls :func:`find_lambda` only
once one of them passes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .coeffs import bound_sup_inf, to_text
from .network import NetworkSpec
from .timescale import TimeScale

__all__ = [
    "ConditionsError",
    "InfeasibleError",
    "BoundSet",
    "compute_bounds",
    "compute_PQbar",
    "H3Report",
    "check_H3",
    "search_r",
    "DEFAULT_R_GRID",
    "activation_offsets",
    "MARGIN_FAMILIES",
    "h_functions",
    "Certificate",
    "find_lambda",
    "certify",
]


class ConditionsError(ValueError):
    """A solvability/certificate computation could not proceed."""


class InfeasibleError(ConditionsError):
    """The contraction check fails, so no certificate exists."""


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------


_DECAY_RATES = ("alpha", "c")  # the families whose infima the conditions read


@dataclass(frozen=True)
class BoundSet:
    """Coefficient envelopes of one model plus the scale's graininess sup.

    ``sup`` and ``inf`` map each coefficient family to sup|coefficient| and
    inf|coefficient| (arrays over neurons / neuron pairs); from
    :func:`compute_bounds` they are the :meth:`NetworkSpec.families` views of
    two flat tables.  Only the decay rates' infima are read.  Every
    ``BoundSet`` has positive decay-rate infima: construction raises
    :class:`ConditionsError` naming each nonpositive key.  ``overridden``
    holds the keys whose bounds came from overrides, for reporting.
    """

    n: int
    sup: dict[str, np.ndarray]
    inf: dict[str, np.ndarray]
    nu_sup: float = 0.0
    overridden: frozenset[str] = frozenset()

    def __post_init__(self):
        if not all(np.all(self.inf[name] > 0.0) for name in _DECAY_RATES):
            bad = [key for key, name, idx in NetworkSpec.coefficient_keys(self.n)
                   if name in _DECAY_RATES and not self.inf[name][idx] > 0.0]
            raise ConditionsError(
                f"decay-rate infima must be positive: {', '.join(bad)}")

    def decay_cap(self) -> float:
        """min over neurons of the decay-rate infima: the rate search ceiling."""
        return float(min(self.inf[name].min() for name in _DECAY_RATES))

    def summary_lines(self) -> list[str]:
        """Human-readable dump of every envelope, tagged by provenance."""
        out = ["coefficient bounds:"]
        for key, name, idx in NetworkSpec.coefficient_keys(self.n):
            line = f"  {key}: sup = {self.sup[name][idx]:.6g}"
            if name in _DECAY_RATES:
                line += f", inf = {self.inf[name][idx]:.6g}"
            out.append(line + ("  [override]" if key in self.overridden else "  [enclosure]"))
        out.append(f"  graininess sup = {self.nu_sup:.6g}")
        return out


def compute_bounds(spec: NetworkSpec, ts: TimeScale | None = None) -> BoundSet:
    """Enclosed sup/inf envelopes (:func:`~chronoscale.coeffs.bound_sup_inf`).

    Whenever some key lacks an override, every coefficient is enclosed one
    expression shape at a time: ``bound_sup_inf`` runs once per group of the
    spec's stacked coefficients, whose columns land in flat ``sup``/``inf``
    tables in ``coefficient_keys`` order.  Entries of ``spec.bound_overrides``
    then replace the enclosures; an unbounded one without an override raises
    :class:`ConditionsError` naming the first such key.  The bound set holds
    the tables' family views.  When a time scale is supplied, ``nu_sup`` is
    its graininess supremum over the whole scale
    (:meth:`TimeScale.max_graininess`), sound for any horizon; otherwise it
    is 0 (purely dense analysis).
    """
    n, overrides = spec.n, spec.bound_overrides
    keys = [key for key, _, _ in NetworkSpec.coefficient_keys(n)]
    sup, inf = np.zeros(len(keys)), np.zeros(len(keys))
    if len(overrides) < len(keys):
        for cols, tree in spec._coefficient_stack.groups:
            pair = bound_sup_inf(tree)
            sup[cols], inf[cols] = np.ravel(pair.sup_abs), np.ravel(pair.inf_abs)
    if overrides:
        at = {key: k for k, key in enumerate(keys)}
        for key, pair in overrides.items():
            sup[at[key]], inf[at[key]] = pair.sup_abs, pair.inf_abs
    unbounded = np.flatnonzero(np.isinf(sup))
    if unbounded.size:
        key = keys[unbounded[0]]
        expr = dict(spec.coefficient_items())[key]
        raise ConditionsError(f"coefficient {key} = {to_text(expr)} is unbounded on R")
    return BoundSet(n=n, sup=NetworkSpec.families(n, sup), inf=NetworkSpec.families(n, inf),
                    nu_sup=ts.max_graininess() if ts is not None else 0.0,
                    overridden=frozenset(overrides))


# ---------------------------------------------------------------------------
# solvability quantities
# ---------------------------------------------------------------------------


def _slope_sums(
    b: BoundSet,
    L: np.ndarray,
    include_delayed_feedback: bool,
    beta: float = 0.0,
) -> np.ndarray:
    """The per-neuron slope sum W_i(beta); beta = 0 gives the plain sum."""
    sup = b.sup
    leak = sup["alpha"] * sup["eta"] * np.exp(beta * sup["eta"])
    inst = sup["D"] @ L
    lagged = (sup["Dtau"] * np.exp(beta * sup["tau"])) @ L
    spread = (sup["Dbar"] * sup["sigma_d"] * np.exp(beta * sup["sigma_d"])) @ L
    neutral = (sup["Dtil"] * sup["zeta"] * np.exp(beta * sup["zeta"])) @ L
    total = leak + inst + spread + neutral
    if include_delayed_feedback:
        total = total + lagged
    return total


def compute_PQbar(
    b: BoundSet,
    L: Sequence[float],
    include_delayed_feedback: bool = True,
) -> tuple[np.ndarray, np.ndarray]:
    """Contraction-side numerators (Pbar, Qbar); see the module docstring."""
    L, sup = np.asarray(L, dtype=float), b.sup
    Pbar = _slope_sums(b, L, include_delayed_feedback) + sup["B"]
    Qbar = sup["c"] * sup["varsigma"] + sup["E"] * L
    return Pbar, Qbar


@dataclass(frozen=True)
class H3Report:
    """Outcome of the two-part solvability check at radius ``r``.

    The ratio arrays follow the tabulation order used for reporting:

    * ``r_ratios``: [P_1/alpha_1-, (1+alpha_1+/alpha_1-) P_1,
      P_2/alpha_2-, (1+...) P_2, ..., Q_1/c_1-, ..., Q_n/c_n-,
      (1+c_1+/c_1-) Q_1, ..., (1+c_n+/c_n-) Q_n]
      (per-neuron plain/amplified pairs for P, then all plain Q, then all
      amplified Q);
    * ``kappa_ratios``: [Pbar_1/alpha_1-, ..., Pbar_n/alpha_n-,
      (1+alpha_1+/alpha_1-) Pbar_1, ..., Qbar_1/c_1-, ...,
      (1+c_1+/c_1-) Qbar_1, ...]
      (all plain Pbar, all amplified Pbar, all plain Qbar, all amplified
      Qbar).

    ``feasible`` is ``max_r_expr <= r and kappa < 1``.
    """

    r: float
    P: np.ndarray
    Q: np.ndarray
    Pbar: np.ndarray
    Qbar: np.ndarray
    r_ratios: np.ndarray
    kappa_ratios: np.ndarray
    max_r_expr: float
    kappa: float
    feasible: bool

    def summary_lines(self) -> list[str]:
        out = [f"radius r = {self.r:g}"]
        for i in range(len(self.P)):
            out.append(
                f"  neuron {i + 1}: P = {self.P[i]:.6f}  Q = {self.Q[i]:.6f}  "
                f"Pbar = {self.Pbar[i]:.6f}  Qbar = {self.Qbar[i]:.6f}"
            )
        out.append(
            "  invariance ratios: "
            + ", ".join(f"{v:.4f}" for v in self.r_ratios)
        )
        out.append(
            "  contraction ratios: "
            + ", ".join(f"{v:.4f}" for v in self.kappa_ratios)
        )
        out.append(
            f"  max invariance expression = {self.max_r_expr:.6f} "
            f"(needs <= r = {self.r:g})"
        )
        out.append(f"  kappa = {self.kappa:.6f} (needs < 1)")
        out.append(f"  feasible: {'yes' if self.feasible else 'no'}")
        return out


def check_H3(b: BoundSet, L: Sequence[float], f0: Sequence[float], r: float,
             include_delayed_feedback: bool = True) -> H3Report:
    """Run the invariance + contraction check at ball radius ``r``.

    The existence-side numerators P and Q always include every coupling
    term (the module docstring's P_i and Q_i); the reduced-tabulation flag
    applies only to the contraction side.
    """
    L, sup, inf = np.asarray(L, dtype=float), b.sup, b.inf
    lr = L * r + np.asarray(f0, dtype=float)
    P = (sup["alpha"] * sup["eta"] * r + sup["D"] @ lr + sup["Dtau"] @ lr
         + (sup["Dbar"] * sup["sigma_d"]) @ lr + (sup["Dtil"] * sup["zeta"]) @ lr
         + sup["B"] * r + sup["I"])
    Q = sup["c"] * sup["varsigma"] * r + sup["E"] * lr + sup["J"]
    Pbar, Qbar = compute_PQbar(b, L, include_delayed_feedback)

    amp_alpha = 1.0 + sup["alpha"] / inf["alpha"]
    amp_c = 1.0 + sup["c"] / inf["c"]
    r_ratios = np.concatenate([np.stack([P / inf["alpha"], amp_alpha * P], axis=1).reshape(-1),
                               Q / inf["c"], amp_c * Q])
    kappa_ratios = np.concatenate([Pbar / inf["alpha"], amp_alpha * Pbar,
                                   Qbar / inf["c"], amp_c * Qbar])
    max_r_expr, kappa = float(r_ratios.max()), float(kappa_ratios.max())
    return H3Report(r=r, P=P, Q=Q, Pbar=Pbar, Qbar=Qbar,
                    r_ratios=r_ratios, kappa_ratios=kappa_ratios,
                    max_r_expr=max_r_expr, kappa=kappa,
                    feasible=bool(max_r_expr <= r and kappa < 1.0))


DEFAULT_R_GRID: np.ndarray = np.round(np.arange(0.10, 1.0 + 1e-9, 0.05), 10)


def search_r(b: BoundSet, L: Sequence[float], f0: Sequence[float],
             r_grid: Sequence[float] | None = None,
             include_delayed_feedback: bool = True) -> float | None:
    """Smallest radius in ``r_grid`` passing :func:`check_H3`, or ``None``."""
    gate = _first_feasible(b, L, f0, r_grid, include_delayed_feedback)
    return None if gate is None else gate.r


def _first_feasible(b: BoundSet, L: Sequence[float], f0: Sequence[float],
                    r_grid: Sequence[float] | None,
                    include_delayed_feedback: bool) -> H3Report | None:
    """The passing report of the smallest radius in ``r_grid``, or ``None``;
    radii are checked smallest first, each at most once."""
    grid = DEFAULT_R_GRID if r_grid is None else np.asarray(r_grid, dtype=float)
    reports = (check_H3(b, L, f0, float(r), include_delayed_feedback) for r in np.sort(grid))
    return next((report for report in reports if report.feasible), None)


def activation_offsets(spec: NetworkSpec) -> tuple[float, ...]:
    """The offsets ``f0_j = |f_j(0)|`` the solvability check takes."""
    return tuple(abs(float(a.fn(0.0))) for a in spec.activations)


# ---------------------------------------------------------------------------
# decay certificate
# ---------------------------------------------------------------------------


MARGIN_FAMILIES = ("h", "h_bar", "h_star", "h_bar_star")  # the rows of a margin table


def h_functions(
    b: BoundSet,
    L: Sequence[float],
    beta: float,
    include_delayed_feedback: bool = True,
) -> np.ndarray:
    """The margin table at rate ``beta``: a ``(4, n)`` array whose rows are
    H, Hbar, Hstar, Hbarstar in ``MARGIN_FAMILIES`` order; module docstring."""
    L, sup, inf = np.asarray(L, dtype=float), b.sup, b.inf
    e_nu = math.exp(beta * b.nu_sup)
    W = _slope_sums(b, L, include_delayed_feedback, beta=beta)
    # Weighted LTM leakage term; note e^{beta*nu_sup} multiplies only this
    # term in Hbar (the coupling E+L stays unweighted), while Hbarstar
    # applies no e^{beta*nu_sup} inside its second factor at all.
    ltm_leak = sup["c"] * sup["varsigma"] * np.exp(beta * sup["varsigma"])
    ltm_core = ltm_leak + sup["E"] * L
    return np.array([
        inf["alpha"] - beta - (e_nu * W + sup["B"]),
        inf["c"] - beta - (e_nu * ltm_leak + sup["E"] * L),
        inf["alpha"] - beta - (sup["alpha"] * e_nu + inf["alpha"] - beta) * (W + sup["B"]),
        inf["c"] - beta - (sup["c"] * e_nu + inf["c"] - beta) * ltm_core,
    ])


@dataclass(frozen=True)
class Certificate:
    """An exponential-decay certificate (lam, big_m).

    Guarantee: the gap between any two solutions raised from histories within
    the analysis ball obeys

        gap(t) <= big_m * nexp_{circleminus lam}(t, t0) * gap_0,

    where gap_0 is the initial history norm (max over components and their
    nabla derivatives).  ``witness`` records why ``lam`` is maximal:
    inflating it by 1 % either drives some margin function nonpositive or
    leaves the admissible interval.
    """

    lam: float
    big_m: float
    nu_sup: float
    cap: float
    include_delayed_feedback: bool
    h_at_lambda: np.ndarray  # the margin table at lam (h_functions)
    witness: str

    def to_text(self) -> str:
        lines = [
            f"lambda = {self.lam:.12g}",
            f"M = {self.big_m:.12g}",
            f"nu_sup = {self.nu_sup:.12g}",
            f"cap = {self.cap:.12g}",
            f"include_delayed_feedback = {self.include_delayed_feedback}",
            f"witness = {self.witness}",
        ]
        for name, row in zip(MARGIN_FAMILIES, self.h_at_lambda):
            for i, v in enumerate(row):
                lines.append(f"{name}.{i + 1} = {v:.12g}")
        return "\n".join(lines) + "\n"


POSITIVITY_MARGIN = 1e-9  # the certified rate keeps every margin above this


def find_lambda(
    b: BoundSet,
    L: Sequence[float],
    include_delayed_feedback: bool = True,
) -> Certificate:
    """Largest decay rate with all four margin families positive, plus M.

    The admissible interval is [0, cap] with ``cap = min(alpha-, c-)``
    (shrunk below ``1/nu_sup`` on scales with positive graininess so the
    decay envelope stays positively regressive).  The rate is ``cap`` if the
    minimum margin there exceeds ``POSITIVITY_MARGIN``; otherwise it is the
    last rate where it does, to 1e-15, as bisection on [0, cap] pins it.

    The search rests on one lemma: each family is strictly decreasing
    wherever it is nonnegative.  H and Hbar are for every b, because W and
    the exponential weights are nondecreasing.  Where Hstar >= 0, writing
    a+, a- for alpha_i+, alpha_i- (a+ >= a- > cap >= b),

        (a+ e^{b nu} + a- - b)(W + B) <= a- - b,

    and the first factor exceeds a- - b, so W + B < 1 and

        Hstar' = -1 + (W + B) - a+ nu e^{b nu} (W + B)
                 - (a+ e^{b nu} + a- - b) W'  <  0.

    Hbarstar follows likewise.  So the rates where the minimum margin
    exceeds ``POSITIVITY_MARGIN`` form an initial interval of [0, cap].

    That justifies both halves of the search.  A safeguarded Illinois
    (modified regula falsi; Dowell & Jarratt, BIT 11, 1971) search first
    brackets the interval's end between a passing rate ``a`` and a failing
    rate ``z`` less than 1e-15 apart.  The bisection is then replayed: a mid
    at most ``a`` passes and one at least ``z`` fails without evaluating
    the margins.  Only mids within 1e-15 of the bracket evaluate them,
    because rounding can make the minimum margin non-monotone over a few
    ulps of the threshold.  So the certificate is the plain bisection's,
    from about a dozen margin evaluations instead of 52.

    Raises :class:`ConditionsError` when some ``Pbar_i`` or ``Qbar_i`` is 0,
    so M is unbounded, and :class:`InfeasibleError` when the margins are not
    all positive at 0+ (equivalently: the contraction check fails).
    """
    L = np.asarray(L, dtype=float)
    Pbar, Qbar = compute_PQbar(b, L, include_delayed_feedback)
    for family, bar in (("Pbar", Pbar), ("Qbar", Qbar)):
        if not bar.all():  # M divides alpha- by Pbar and c- by Qbar
            raise ConditionsError(f"M is unbounded: {family} of neuron {bar.argmin() + 1} is 0")
    cap = b.decay_cap()
    if b.nu_sup > 0.0:
        cap = min(cap, (1.0 - 1e-9) / b.nu_sup)
    cap *= 1.0 - 1e-12

    evaluated: dict[float, np.ndarray] = {}

    def g(beta: float) -> float:
        evaluated[beta] = table = h_functions(b, L, beta, include_delayed_feedback)
        return float(table.min())

    g0 = g(0.0)
    if g0 <= 0.0:
        raise InfeasibleError(
            "margin functions are nonpositive at rate 0: the contraction "
            "check fails, no decay certificate exists"
        )

    g_cap = g(cap)
    if g_cap - POSITIVITY_MARGIN > 0.0:
        lam = cap
    elif g0 - POSITIVITY_MARGIN <= 0.0:
        lam = 0.0  # no rate passes
    else:
        # Illinois bracket: passes at ``a``, fails at ``z``; an end that
        # moves again halves the other end's value, and every step lands at
        # least 0.5e-15 inside.  The secant needs a finite negative value at
        # z, and an end that has moved four times running (a margin far
        # steeper past the threshold than before it) makes the step bisect.
        a, fa, z, fz = 0.0, g0 - POSITIVITY_MARGIN, cap, g_cap - POSITIVITY_MARGIN
        side = streak = 0
        while z - a >= 1e-15:
            if streak < 4 and -math.inf < fz < 0.0:
                x = a + fa * (z - a) / (fa - fz)
            else:
                x = 0.5 * (a + z)
            x = min(max(x, a + 0.5e-15), z - 0.5e-15)
            if not a < x < z:  # no float strictly inside
                break
            fx = g(x) - POSITIVITY_MARGIN
            moved = 1 if fx > 0.0 else -1
            streak = streak + 1 if moved == side else 1
            halve = 0.5 if streak > 1 else 1.0
            if moved > 0:
                a, fa, fz = x, fx, fz * halve
            else:
                z, fz, fa = x, fx, fa * halve
            side = moved
        # The bisection, replayed: a mid the bracket settles by the lemma
        # skips g.  Rounding can make g non-monotone within a few ulps of
        # the threshold, so mids within 1e-15 of the bracket evaluate it.
        lo, hi = 0.0, cap
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mid <= a - 1e-15 or (mid < z + 1e-15 and g(mid) - POSITIVITY_MARGIN > 0.0):
                lo = mid
            else:
                hi = mid
            if hi - lo < 1e-15:
                break
        lam = lo
    if lam <= 0.0:
        raise InfeasibleError(
            "no positive rate keeps the margin functions above the requested "
            "positivity margin"
        )

    inflated = lam * 1.01
    if inflated >= cap:
        witness = (
            f"maximal: lambda*1.01 = {inflated:.9g} leaves the admissible "
            f"interval (cap {cap:.9g})"
        )
    else:
        worst = g(inflated)
        if worst <= POSITIVITY_MARGIN:
            witness = (
                f"maximal: lambda*1.01 = {inflated:.9g} drives the minimum "
                f"margin to {worst:.3g} <= {POSITIVITY_MARGIN:g}"
            )
        else:
            witness = (
                f"non-witnessed: margin at lambda*1.01 is {worst:.3g} > 0 "
                "(scan resolution)"
            )

    big_m = float(max((b.inf["alpha"] / Pbar).max(), (b.inf["c"] / Qbar).max()))
    return Certificate(
        lam=float(lam),
        big_m=big_m,
        nu_sup=b.nu_sup,
        cap=float(cap),
        include_delayed_feedback=include_delayed_feedback,
        h_at_lambda=(evaluated[lam] if lam in evaluated
                     else h_functions(b, L, lam, include_delayed_feedback)),
        witness=witness,
    )


def certify(spec: NetworkSpec, ts: TimeScale | None = None,
            r_grid: Sequence[float] | None = None,
            include_delayed_feedback: bool = True) -> tuple[H3Report, Certificate]:
    """Gate on the smallest feasible radius, then certify.

    Bounds ``spec`` on ``ts`` (:func:`compute_bounds`), runs
    :func:`check_H3` with ``L = spec.lipschitz`` and
    :func:`activation_offsets` at the radii of ``r_grid`` (default
    ``DEFAULT_R_GRID``) from the smallest, and stops at the first that
    passes.  Returns that report and :func:`find_lambda`'s certificate;
    raises :class:`InfeasibleError` when no radius passes.
    """
    bounds = compute_bounds(spec, ts)
    gate = _first_feasible(bounds, spec.lipschitz, activation_offsets(spec), r_grid,
                           include_delayed_feedback)
    if gate is None:
        raise InfeasibleError(
            "no radius in the grid passes the solvability check; no certificate is issued")
    return gate, find_lambda(bounds, spec.lipschitz,
                             include_delayed_feedback=include_delayed_feedback)

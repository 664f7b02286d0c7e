"""Two-layer competitive network model with four delay mechanisms.

The model couples, per neuron ``i`` in ``1..n``, a short-term state ``x_i``
(neural activity) and a long-term state ``S_i`` (synaptic efficiency).  Both
evolve by nabla dynamics on a time scale.  Writing ``f_j`` for the activation
of neuron ``j``, the short-term equation is

    x_i^nabla(t) = - alpha_i(t) * x_i(t - eta_i(t))                 leakage,
                                                                    delayed
                 + sum_j D_ij(t)    * f_j(x_j(t))                   instant
                 + sum_j Dtau_ij(t) * f_j(x_j(t - tau_ij(t)))       lagged
                 + sum_j Dbar_ij(t) * I1_ij                          spread
                 + sum_j Dtil_ij(t) * I2_ij                          neutral
                 + B_i(t) * S_i(t) + I_i(t)

with the distributed terms

    I1_ij = integral_{t - sigma_ij(t)}^{t} f_j(x_j(s))        nabla ds
    I2_ij = integral_{t - zeta_ij(t)}^{t}  f_j(x_j^nabla(s))  nabla ds,

and the long-term equation is

    S_i^nabla(t) = - c_i(t) * S_i(t - varsigma_i(t))
                 + E_i(t) * f_i(x_i(t)) + J_i(t).

The "neutral" integral acts on the *derivative* of the state, which is why
trajectories must carry derivative traces.

Every coefficient is a :class:`~chronoscale.coeffs.CoeffExpr`.
:func:`rhs` evaluates both right-hand sides against a committed state, such
as a :class:`~chronoscale.simulator.Trajectory`: ``state.value(index, u)``
and ``state.slope(index, u)`` give the state and its nabla derivative at a
time or an array of times ``u``, where indices ``0..n-1`` address the
short-term states and ``n..2n-1`` the long-term states.  The state owns the
lookup semantics (interpolation on dense stretches, snap-down on scattered
ones).  :func:`rhs` reads the coefficient values the stepper reads, from
:meth:`NetworkSpec.coeffs_on`; its delayed lookups and distributed integrals
(taken with the time scale's own nabla integral) stay independent of the
stepper, so it is a slow reference evaluator for checking simulator output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, cached_property
from typing import TYPE_CHECKING, Callable, Iterator

import numpy as np

from .coeffs import BoundPair, CoeffExpr, ExprStack
from .timescale import TimeScale

if TYPE_CHECKING:
    from .simulator import Trajectory

__all__ = [
    "FieldError",
    "Activation",
    "ACTIVATIONS",
    "NetworkSpec",
    "rhs",
]


class FieldError(ValueError):
    """An argument out of its domain; ``keys`` names the config keys involved, culprit first."""

    def __init__(self, keys: tuple[str, ...], message: str):
        super().__init__(message)
        self.keys = keys


# ---------------------------------------------------------------------------
# activations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Activation:
    """A neuron output nonlinearity with a declared Lipschitz bound.

    ``lipschitz`` must be an upper bound for |f(u)-f(v)| / |u-v| (it need not
    be tight); the solvability check derives |f(0)| from ``fn``.
    """

    name: str
    fn: Callable[[float | np.ndarray], float | np.ndarray]
    lipschitz: float


ACTIVATIONS: dict[str, Activation] = {
    "sin_half": Activation("sin_half", lambda u: np.sin(u / 2.0), 0.5),
    "tanh": Activation("tanh", np.tanh, 1.0),
    "identity": Activation("identity", lambda u: u, 1.0),
}


# ---------------------------------------------------------------------------
# the model container
# ---------------------------------------------------------------------------


def _as_matrix(rows: list[list[CoeffExpr]], n: int, name: str) -> tuple[tuple[CoeffExpr, ...], ...]:
    if len(rows) != n or any(len(r) != n for r in rows):
        raise ValueError(f"{name} must be an {n}x{n} grid of expressions")
    return tuple(tuple(r) for r in rows)


def _as_vector(items: list[CoeffExpr], n: int, name: str) -> tuple[CoeffExpr, ...]:
    if len(items) != n:
        raise ValueError(f"{name} must hold {n} expressions")
    return tuple(items)


@dataclass(frozen=True)
class NetworkSpec:
    """Complete description of one network instance.

    Vectors are indexed by neuron; matrices by (target i, source j).  All
    entries are time-varying expressions.  The ``lipschitz`` field holds a
    per-neuron Lipschitz bound, which the solvability checks use in place of
    the activation's built-in one (it defaults to the latter); one below that,
    or not finite, would be unsound and raises :class:`FieldError`.

    ``bound_overrides`` maps coefficient keys (``"alpha.1"``, ``"D.2.1"``,
    ... -- 1-based) to :class:`BoundPair` values that replace enclosed bounds.
    A key outside ``coefficient_keys(n)`` or a pair not finite with ``0 <= inf
    <= sup`` raises :class:`FieldError`, checked before the Lipschitz bounds.
    """

    n: int
    alpha: tuple[CoeffExpr, ...]        # STM decay rates (positive)
    c: tuple[CoeffExpr, ...]            # LTM decay rates (positive)
    D: tuple[tuple[CoeffExpr, ...], ...]     # instantaneous weights
    Dtau: tuple[tuple[CoeffExpr, ...], ...]  # discretely delayed weights
    Dbar: tuple[tuple[CoeffExpr, ...], ...]  # distributed-delay weights
    Dtil: tuple[tuple[CoeffExpr, ...], ...]  # neutral (derivative) weights
    B: tuple[CoeffExpr, ...]            # LTM -> STM coupling
    E: tuple[CoeffExpr, ...]            # STM -> LTM coupling (disposition)
    I: tuple[CoeffExpr, ...]            # STM external input
    J: tuple[CoeffExpr, ...]            # LTM external input
    eta: tuple[CoeffExpr, ...]          # STM leakage delay
    varsigma: tuple[CoeffExpr, ...]     # LTM leakage delay
    tau: tuple[tuple[CoeffExpr, ...], ...]    # discrete transmission delays
    sigma_d: tuple[tuple[CoeffExpr, ...], ...]  # distributed-delay windows
    zeta: tuple[tuple[CoeffExpr, ...], ...]     # neutral-delay windows
    activations: tuple[Activation, ...]
    lipschitz: tuple[float, ...] = ()   # per-neuron override; defaults to
                                        # each activation's own constant
    bound_overrides: dict[str, BoundPair] = field(default_factory=dict)

    def __post_init__(self):
        n = self.n
        for name in self.VECTOR_FIELDS:
            object.__setattr__(self, name, _as_vector(list(getattr(self, name)), n, name))
        for name in self.MATRIX_FIELDS:
            object.__setattr__(self, name, _as_matrix([list(r) for r in getattr(self, name)], n, name))
        if len(self.activations) != n:
            raise ValueError(f"need {n} activations")
        if not self.lipschitz:
            object.__setattr__(
                self, "lipschitz", tuple(a.lipschitz for a in self.activations)
            )
        elif len(self.lipschitz) != n:
            raise ValueError(f"need {n} Lipschitz constants")
        keys = {key for key, _, _ in self.coefficient_keys(n)}
        for key, pair in self.bound_overrides.items():
            if key not in keys:
                raise FieldError((key,), f"unknown [bounds] key {key!r}")
            if not 0.0 <= pair.inf_abs <= pair.sup_abs < math.inf:
                raise FieldError((key,), f"bounds of {key} need finite 0 <= inf <= sup, "
                                         f"got sup {pair.sup_abs!r}, inf {pair.inf_abs!r}")
        for i, (act, bound) in enumerate(zip(self.activations, self.lipschitz)):
            if not act.lipschitz <= bound < math.inf:
                key = f"L.{i + 1}"
                raise FieldError((key,), f"{key} = {bound!r} must be finite and at least the "
                                         f"{act.name} activation's constant {act.lipschitz!r}")

    # -- the coefficient layout (shared by bounds & config I/O) ----------

    VECTOR_FIELDS = ("alpha", "c", "B", "E", "I", "J", "eta", "varsigma")
    MATRIX_FIELDS = ("D", "Dtau", "Dbar", "Dtil", "tau", "sigma_d", "zeta")

    @classmethod
    @cache
    def coefficient_keys(cls, n: int) -> tuple[tuple[str, str, tuple[int, ...]], ...]:
        """``(key, field, index)`` of every coefficient in file order, built
        once per ``n``.

        Keys are 1-based (``"D.2.1"``), indices 0-based (``(1, 0)``).
        """
        return (*((f"{name}.{i + 1}", name, (i,))
                  for name in cls.VECTOR_FIELDS for i in range(n)),
                *((f"{name}.{i + 1}.{j + 1}", name, (i, j))
                  for name in cls.MATRIX_FIELDS for i in range(n) for j in range(n)))

    def coefficient_items(self) -> Iterator[tuple[str, CoeffExpr]]:
        """Yield ``(key, expression)`` for every coefficient, 1-based keys."""
        for key, name, idx in self.coefficient_keys(self.n):
            expr = getattr(self, name)
            for k in idx:
                expr = expr[k]
            yield key, expr

    # -- coefficient tables -----------------------------------------------

    def coeffs_at(self, t: float) -> dict[str, np.ndarray]:
        """Every coefficient at one time: the one-row case of :meth:`coeffs_on`."""
        return self.families(self.n, self._coefficient_stack(np.array([t], dtype=float))[0])

    @cached_property
    def _coefficient_stack(self) -> ExprStack:
        """Every coefficient in ``coefficient_keys`` order, grouped by tree
        shape; built once per spec, on first use by ``compute_bounds``
        (which encloses its groups) or :meth:`coeffs_on` (which evaluates
        them)."""
        return ExprStack([expr for _, expr in self.coefficient_items()])

    def coeffs_on(self, times: np.ndarray) -> dict[str, np.ndarray]:
        """Evaluate every coefficient at each of ``times`` at once.

        Returns :meth:`families` of one ``(B, K)`` table in
        ``coefficient_keys`` order, evaluated one expression shape at a
        time: vectors are ``(B, n)`` and matrices ``(B, n, n)``.
        """
        return self.families(self.n, self._coefficient_stack(np.asarray(times, dtype=float)))

    @classmethod
    def families(cls, n: int, table: np.ndarray) -> dict[str, np.ndarray]:
        """Views of a ``(..., K)`` table in ``coefficient_keys`` order, one per
        family: ``(..., n)`` for vectors and ``(..., n, n)`` for matrices."""
        lead, split = table.shape[:-1], len(cls.VECTOR_FIELDS) * n
        vectors = table[..., :split].reshape(*lead, len(cls.VECTOR_FIELDS), n)
        matrices = table[..., split:].reshape(*lead, len(cls.MATRIX_FIELDS), n, n)
        return {**{name: vectors[..., m, :] for m, name in enumerate(cls.VECTOR_FIELDS)},
                **{name: matrices[..., m, :, :] for m, name in enumerate(cls.MATRIX_FIELDS)}}


# ---------------------------------------------------------------------------
# the reference right-hand side
# ---------------------------------------------------------------------------


def rhs(spec: NetworkSpec, state: "Trajectory", ts: TimeScale, t: float) -> np.ndarray:
    """Both layers' right-hand sides at time ``t``, short-term entries
    ``0..n-1`` above long-term entries ``n..2n-1``.

    Delayed arguments are passed to ``state`` at their true times; how a
    time between scale points resolves (snap down on scattered stretches,
    interpolate on dense ones) is the state's policy, so this evaluator and
    the incremental stepper share one lookup semantic.  Window starts
    ``t - sigma_d`` and ``t - zeta`` snap down to the scale, as every
    delayed lookup does.  Distributed state terms integrate ``f(x)`` over
    the window with the scale's quadrature.  Neutral terms integrate ``f``
    of the slope trace, which is constant on each backward panel, exactly:
    as the panel sum ``sum w_k * f(slope(g_k))`` (a trapezoid quadrature
    would smear values across panel boundaries).
    """
    n, tbl = spec.n, spec.coeffs_at(t)
    fns = [a.fn for a in spec.activations]
    fx = np.array([fns[j](state.value(j, t)) for j in range(n)])
    s = np.array([state.value(n + i, t) for i in range(n)])
    x_leak = np.array([state.value(i, t - tbl["eta"][i]) for i in range(n)])
    s_leak = np.array([state.value(n + i, t - tbl["varsigma"][i]) for i in range(n)])
    f_lag = np.column_stack([fns[j](state.value(j, t - tbl["tau"][:, j])) for j in range(n)])
    spread, neutral = np.empty((n, n)), np.empty((n, n))
    for i in range(n):
        for j in range(n):
            f = fns[j]
            spread[i, j] = ts.nabla_integral(
                lambda u: f(state.value(j, u)), ts.snap_down(t - tbl["sigma_d"][i, j]), t)
            g = ts.grid(ts.snap_down(t - tbl["zeta"][i, j]), t)
            neutral[i, j] = np.sum(np.diff(g) * f(state.slope(j, g[1:]))) if len(g) > 1 else 0.0
    stm = (-tbl["alpha"] * x_leak + tbl["D"] @ fx + (tbl["Dtau"] * f_lag).sum(axis=1)
           + (tbl["Dbar"] * spread).sum(axis=1) + (tbl["Dtil"] * neutral).sum(axis=1)
           + tbl["B"] * s + tbl["I"])
    ltm = -tbl["c"] * s_leak + tbl["E"] * fx + tbl["J"]
    return np.concatenate((stm, ltm))

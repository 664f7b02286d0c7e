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

Every coefficient is a :class:`~chronoscale.coeffs.CoeffExpr`.  The
right-hand sides are evaluated against a *state accessor*: a callable
``accessor(index, time) -> (value, slope)`` where indices ``0..n-1`` address
the short-term states and ``n..2n-1`` the long-term states.  ``value`` is the
state at that time and ``slope`` its nabla derivative.  The accessor owns the
lookup semantics (interpolation on dense stretches, snap-down on scattered
ones); the distributed integrals are taken with the time scale's own nabla
integral, so these functions double as a slow reference evaluator for
checking simulator output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterator

import numpy as np

from .coeffs import BoundPair, CoeffExpr, ExprStack
from .timescale import TimeScale

__all__ = [
    "Activation",
    "ACTIVATIONS",
    "NetworkSpec",
    "CoeffTable",
    "StateAccessor",
    "rhs_stm",
    "rhs_ltm",
]


# ---------------------------------------------------------------------------
# activations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Activation:
    """A neuron output nonlinearity with a declared Lipschitz bound.

    ``lipschitz`` must be an upper bound for |f(u)-f(v)| / |u-v| (it need not
    be tight), and ``at_zero`` caches f(0) for the solvability arithmetic.
    """

    name: str
    fn: Callable[[float | np.ndarray], float | np.ndarray]
    lipschitz: float
    at_zero: float


def _sin_half(u):
    return np.sin(u / 2.0) if isinstance(u, np.ndarray) else math.sin(u / 2.0)


def _tanh(u):
    return np.tanh(u) if isinstance(u, np.ndarray) else math.tanh(u)


ACTIVATIONS: dict[str, Activation] = {
    "sin_half": Activation("sin_half", _sin_half, 0.5, 0.0),
    "tanh": Activation("tanh", _tanh, 1.0, 0.0),
    "identity": Activation("identity", lambda u: u, 1.0, 0.0),
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
    the activation's built-in one (it defaults to the latter).

    ``bound_overrides`` maps coefficient keys (``"alpha.1"``, ``"D.2.1"``,
    ... -- 1-based) to :class:`BoundPair` values that replace enclosed bounds.
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

    # -- the coefficient layout (shared by bounds & config I/O) ----------

    VECTOR_FIELDS = ("alpha", "c", "B", "E", "I", "J", "eta", "varsigma")
    MATRIX_FIELDS = ("D", "Dtau", "Dbar", "Dtil", "tau", "sigma_d", "zeta")
    DELAY_FIELDS = ("eta", "varsigma", "tau", "sigma_d", "zeta")

    @classmethod
    def coefficient_keys(cls, n: int) -> Iterator[tuple[str, str, tuple[int, ...]]]:
        """Yield ``(key, field, index)`` for every coefficient in file order.

        Keys are 1-based (``"D.2.1"``), indices 0-based (``(1, 0)``).
        """
        for name in cls.VECTOR_FIELDS:
            for i in range(n):
                yield f"{name}.{i + 1}", name, (i,)
        for name in cls.MATRIX_FIELDS:
            for i in range(n):
                for j in range(n):
                    yield f"{name}.{i + 1}.{j + 1}", name, (i, j)

    def coefficient_items(self) -> Iterator[tuple[str, CoeffExpr]]:
        """Yield ``(key, expression)`` for every coefficient, 1-based keys."""
        for key, name, idx in self.coefficient_keys(self.n):
            expr = getattr(self, name)
            for k in idx:
                expr = expr[k]
            yield key, expr

    # -- coefficient tables -----------------------------------------------

    def coeffs_at(self, t: float) -> "CoeffTable":
        """Evaluate every coefficient at one time (the scalar reference path)."""
        n = self.n
        vec = {name: np.array([getattr(self, name)[i](t) for i in range(n)])
               for name in self.VECTOR_FIELDS}
        mat = {name: np.array([[getattr(self, name)[i][j](t) for j in range(n)]
                               for i in range(n)])
               for name in self.MATRIX_FIELDS}
        return CoeffTable(t=t, **vec, **mat)

    @cached_property
    def _coefficient_stack(self) -> ExprStack:
        """Every coefficient in ``coefficient_keys`` order, grouped by tree
        shape; built on first use, once per spec."""
        return ExprStack([expr for _, expr in self.coefficient_items()])

    def coeffs_on(self, times: np.ndarray) -> "CoeffTable":
        """Evaluate every coefficient at each of ``times`` at once.

        Every field of the returned table gains a leading axis of
        ``len(times)``: vectors are ``(B, n)`` and matrices ``(B, n, n)``.
        The fields are views of one ``(B, K)`` table in ``coefficient_keys``
        order, evaluated one expression shape at a time.
        """
        times = np.asarray(times, dtype=float)
        table = self._coefficient_stack(times)
        b, n, split = len(times), self.n, len(self.VECTOR_FIELDS) * self.n
        vectors = table[:, :split].reshape(b, len(self.VECTOR_FIELDS), n)
        matrices = table[:, split:].reshape(b, len(self.MATRIX_FIELDS), n, n)
        return CoeffTable(
            t=times,
            **{name: vectors[:, m] for m, name in enumerate(self.VECTOR_FIELDS)},
            **{name: matrices[:, m] for m, name in enumerate(self.MATRIX_FIELDS)})


@dataclass(frozen=True)
class CoeffTable:
    """All coefficient values of a :class:`NetworkSpec` at one instant.

    A table from :meth:`NetworkSpec.coeffs_on` holds them at an array of
    instants ``t`` instead, with a leading time axis on every field.
    """

    t: float | np.ndarray
    alpha: np.ndarray
    c: np.ndarray
    B: np.ndarray
    E: np.ndarray
    I: np.ndarray
    J: np.ndarray
    eta: np.ndarray
    varsigma: np.ndarray
    D: np.ndarray
    Dtau: np.ndarray
    Dbar: np.ndarray
    Dtil: np.ndarray
    tau: np.ndarray
    sigma_d: np.ndarray
    zeta: np.ndarray


# ---------------------------------------------------------------------------
# right-hand sides
# ---------------------------------------------------------------------------


# accessor(index, time) -> (value, nabla-slope); 0..n-1 = STM, n..2n-1 = LTM
StateAccessor = Callable[[int, float], tuple[float, float]]


def _slope_panel_integral(
    ts: TimeScale, slope_of: Callable[[float], float],
    f: Callable[[float], float], lo: float, t: float,
) -> float:
    """Integral of ``f(nabla-slope)`` over ``(lo, t]``.

    The slope trace of a committed trajectory is constant on each backward
    panel, so the exact nabla integral is the panel sum
    ``sum w_k * f(slope(g_k))``, with the lowest panel truncated at ``lo``.
    (A trapezoid quadrature would smear values across panel boundaries.)
    """
    if lo >= t:
        return 0.0
    g = ts.grid(lo, t)
    total = 0.0
    for k in range(1, len(g)):
        total += (g[k] - g[k - 1]) * float(f(slope_of(float(g[k]))))
    return total


def rhs_stm(
    spec: NetworkSpec,
    accessor: StateAccessor,
    ts: TimeScale,
    t: float,
    i: int,
) -> float:
    """Short-term-memory right-hand side for neuron ``i`` at time ``t``.

    Delayed arguments are passed to the accessor at their true times; how a
    time between scale points resolves (snap down on scattered stretches,
    interpolate on dense ones) is the accessor's policy, so this evaluator
    and the incremental stepper share one lookup semantic.  Distributed
    state terms integrate ``f(x)`` over the true window with the scale's
    quadrature; neutral terms integrate ``f`` of the panelwise-constant
    slope trace exactly (see :func:`_slope_panel_integral`).
    """
    tbl = spec.coeffs_at(t)
    total = -tbl.alpha[i] * accessor(i, t - tbl.eta[i])[0]
    for j in range(spec.n):
        f = spec.activations[j].fn
        total += tbl.D[i, j] * f(accessor(j, t)[0])
        total += tbl.Dtau[i, j] * f(accessor(j, t - tbl.tau[i, j])[0])
        total += tbl.Dbar[i, j] * ts.nabla_integral(
            lambda s, j=j, f=f: f(accessor(j, s)[0]), t - tbl.sigma_d[i, j], t
        )
        total += tbl.Dtil[i, j] * _slope_panel_integral(
            ts, lambda s, j=j: accessor(j, s)[1], f, t - tbl.zeta[i, j], t
        )
    total += tbl.B[i] * accessor(spec.n + i, t)[0] + tbl.I[i]
    return float(total)


def rhs_ltm(
    spec: NetworkSpec,
    accessor: StateAccessor,
    ts: TimeScale,
    t: float,
    i: int,
) -> float:
    """Long-term-memory right-hand side for neuron ``i`` at time ``t``."""
    tbl = spec.coeffs_at(t)
    f = spec.activations[i].fn
    return float(
        -tbl.c[i] * accessor(spec.n + i, t - tbl.varsigma[i])[0]
        + tbl.E[i] * f(accessor(i, t)[0])
        + tbl.J[i]
    )

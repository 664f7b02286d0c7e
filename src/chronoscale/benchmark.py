"""A fully worked two-neuron reference model.

This module pins down one concrete network instance used throughout the
test suite, the demo scripts, and the ``example`` CLI command.  It carries:

* :func:`two_neuron_spec` -- the model itself (all 44 time-varying
  coefficients, activations ``sin(u/2)`` with declared unit Lipschitz
  bounds, and a complete table of coefficient-bound overrides);
* :func:`history_pairs` -- ready-made pairs of initial segments for
  convergence experiments.

Bound overrides
---------------
Every delay expression below has true supremum 1 (each attains ``exp(0)``
whenever its inner trigonometric argument vanishes, which happens at every
integer time).  The reference bound table nevertheless works with much
smaller delay bounds; those values are installed as explicit overrides so
the checker reproduces the reference arithmetic exactly.  The overrides are
part of the model definition: the checks are therefore calibrated against
the override table, while simulations run the expressions as written.  All
16 delay overrides sit below their enclosure of 1, and without them no radius
passes (at ``r = 0.45``, ``kappa`` is 2.42 without delayed feedback and 2.62
with it; the largest invariance ratio is 1.34): calibrated, not sound.
"""

from __future__ import annotations

import math

from .coeffs import (
    Abs,
    Add,
    Affine,
    BoundPair,
    Const,
    Cos,
    Exp,
    Neg,
    Scale,
    Sin,
    TimeVar,
)
from .network import ACTIVATIONS, NetworkSpec
from .simulator import HistorySpec

__all__ = [
    "two_neuron_spec",
    "history_pairs",
]

_T = TimeVar()
_PI = math.pi


def _osc(base: float, amp: float, freq: float, kind: str) -> Add:
    """base + amp * trig(freq * t)."""
    node = Sin if kind == "sin" else Cos
    return Add(Const(base), Scale(amp, node(Affine(freq, 0.0, _T))))


def _wave(amp: float, freq: float, kind: str, offset: float = 0.0):
    """amp * trig(freq * t + offset)."""
    node = Sin if kind == "sin" else Cos
    return Scale(amp, node(Affine(freq, offset, _T)))


def _delay(depth: float, freq: float, kind: str, offset: float = 0.0) -> Exp:
    """exp(-depth * |trig(freq * t + offset)|); equals 1 at every integer."""
    node = Sin if kind == "sin" else Cos
    return Exp(Neg(Scale(depth, Abs(node(Affine(freq, offset, _T))))))


def two_neuron_spec() -> NetworkSpec:
    """The reference two-neuron network with its bound-override table."""
    b_amp = 1.0 / (_PI * math.exp(2.0 * _PI))
    weight_row_1 = (Scale(0.05, Sin(_T)), Scale(0.05, Sin(_T)))
    weight_row_2 = (Scale(0.05, Cos(_T)), Scale(0.05, Cos(_T)))
    weights = (weight_row_1, weight_row_2)

    overrides: dict[str, BoundPair] = {
        "alpha.1": BoundPair(0.9, 0.89, "override"),
        "alpha.2": BoundPair(0.8, 0.78, "override"),
        "c.1": BoundPair(0.29, 0.28, "override"),
        "c.2": BoundPair(0.28, 0.27, "override"),
        "B.1": BoundPair(b_amp, 0.0, "override"),
        "B.2": BoundPair(b_amp, 0.0, "override"),
        "E.1": BoundPair(0.21, 0.0, "override"),
        "E.2": BoundPair(0.21, 0.0, "override"),
        "I.1": BoundPair(0.08, 0.0, "override"),
        "I.2": BoundPair(0.1, 0.0, "override"),
        "J.1": BoundPair(0.01, 0.0, "override"),
        "J.2": BoundPair(0.02, 0.0, "override"),
        "eta.1": BoundPair(0.06, 0.0, "override"),
        "eta.2": BoundPair(0.05, 0.0, "override"),
        "varsigma.1": BoundPair(0.04, 0.0, "override"),
        "varsigma.2": BoundPair(0.05, 0.0, "override"),
    }
    for name in ("D", "Dtau", "Dbar", "Dtil"):
        for i in (1, 2):
            for j in (1, 2):
                overrides[f"{name}.{i}.{j}"] = BoundPair(0.05, 0.0, "override")
    for (i, j), sup in {(1, 1): 0.08, (1, 2): 0.07, (2, 1): 0.04, (2, 2): 0.02}.items():
        overrides[f"sigma_d.{i}.{j}"] = BoundPair(sup, 0.0, "override")
    for (i, j), sup in {(1, 1): 0.06, (1, 2): 0.05, (2, 1): 0.02, (2, 2): 0.03}.items():
        overrides[f"zeta.{i}.{j}"] = BoundPair(sup, 0.0, "override")
    for i in (1, 2):
        for j in (1, 2):
            overrides[f"tau.{i}.{j}"] = BoundPair(0.05, 0.0, "override")

    return NetworkSpec(
        n=2,
        alpha=(_osc(0.895, 0.005, math.sqrt(7.0), "sin"),
               _osc(0.79, 0.01, math.sqrt(11.0), "cos")),
        c=(_osc(0.285, 0.005, math.sqrt(5.0), "sin"),
           _osc(0.275, 0.005, math.sqrt(3.0), "cos")),
        D=weights, Dtau=weights, Dbar=weights, Dtil=weights,
        B=(_wave(b_amp, math.sqrt(2.0), "sin"), _wave(b_amp, 1.0, "cos")),
        E=(_wave(0.21, 1.0, "sin"), _wave(0.21, math.sqrt(3.0), "cos")),
        I=(_wave(0.08, math.sqrt(7.0), "sin"), _wave(0.1, 1.0, "cos")),
        J=(_wave(0.01, math.sqrt(2.0), "sin"), _wave(0.02, math.sqrt(3.0), "cos")),
        eta=(_delay(5.0, _PI, "cos", 1.5 * _PI), _delay(4.0, _PI, "cos", 0.5 * _PI)),
        varsigma=(_delay(4.0, _PI, "cos", 1.5 * _PI), _delay(7.0, 3.0 * _PI, "sin")),
        tau=((_delay(5.0, _PI, "sin"), _delay(4.0, 2.0 * _PI, "sin")),
             (_delay(6.0, _PI, "sin"), _delay(5.0, 3.0 * _PI, "sin"))),
        sigma_d=((_delay(4.0, _PI, "sin"), _delay(5.0, _PI, "cos", 1.5 * _PI)),
                 (_delay(6.0, _PI, "cos", -1.5 * _PI), _delay(4.0, 3.0 * _PI, "sin"))),
        zeta=((_delay(7.0, 2.0 * _PI, "sin"), _delay(5.0, 5.0 * _PI, "sin")),
              (_delay(4.0, _PI, "cos", 2.5 * _PI), _delay(5.0, _PI, "cos", 0.5 * _PI))),
        # f(u) = sin(u/2), declared Lipschitz bound 1
        activations=(ACTIVATIONS["sin_half"], ACTIVATIONS["sin_half"]),
        lipschitz=(1.0, 1.0),
        bound_overrides=overrides,
    )


def history_pairs() -> dict[str, tuple[HistorySpec, HistorySpec]]:
    """Two ready-made history pairs for contraction experiments.

    ``"trig"`` pairs a smoothly oscillating segment against a piecewise
    constant one; ``"steady"`` pairs two constant segments.  All segments
    use window 1.5, generously covering the model's delay reach.
    """
    zero = Const(0.0)
    trig_a = HistorySpec(
        stm=(Scale(0.25, Cos(Scale(0.5, _T))),
             Add(Const(0.1), Scale(-0.2, Sin(_T)))),
        stm_slope=(Scale(-0.125, Sin(Scale(0.5, _T))),
                   Scale(-0.2, Cos(_T))),
        ltm=(Add(Const(0.05), Scale(0.2, Sin(Scale(1.0 / 3.0, _T)))),
             Scale(0.15, Cos(Scale(0.5, _T)))),
        ltm_slope=(Scale(0.2 / 3.0, Cos(Scale(1.0 / 3.0, _T))),
                   Scale(-0.075, Sin(Scale(0.5, _T)))),
        window=1.5,
    )
    trig_b = HistorySpec(
        stm=(Const(-0.1), Const(0.3)),
        stm_slope=(zero, zero),
        ltm=(Const(0.1), Const(-0.05)),
        ltm_slope=(zero, zero),
        window=1.5,
    )
    steady_a = HistorySpec(
        stm=(Const(0.2), Const(-0.15)),
        stm_slope=(zero, zero),
        ltm=(Const(0.25), Const(0.1)),
        ltm_slope=(zero, zero),
        window=1.5,
    )
    steady_b = HistorySpec(
        stm=(Const(-0.25), Const(0.05)),
        stm_slope=(zero, zero),
        ltm=(Const(-0.1), Const(0.3)),
        ltm_slope=(zero, zero),
        window=1.5,
    )
    return {"trig": (trig_a, trig_b), "steady": (steady_a, steady_b)}

"""chronoscale: nabla calculus on time scales and delayed neural dynamics.

The package provides, bottom-up:

* :mod:`chronoscale.timescale` -- hybrid discrete/continuous domains with
  backward-jump structure, nabla derivatives/integrals, the nu-cylinder
  transform, and nabla exponentials.
* :mod:`chronoscale.coeffs` -- a tiny expression language for time-varying
  coefficients (serialisable, vectorised, with enclosed sup/inf bounds).
* :mod:`chronoscale.network` -- the model container for a two-layer
  competitive network with leakage, discrete, distributed, and
  derivative-coupled (neutral) delays, and its reference right-hand side.
* :mod:`chronoscale.conditions` -- contraction-based solvability checks and
  the exponential-decay certificate search.
* :mod:`chronoscale.simulator` -- a nabla-consistent time stepper producing
  dense trajectories with derivative traces.
* :mod:`chronoscale.analyzer` -- decay-rate fitting, certificate
  verification against simulated data, and almost-periodicity diagnostics.
* :mod:`chronoscale.benchmark` -- a fully worked two-neuron reference model.
* :mod:`chronoscale.cli` -- the ``chronoscale`` command-line interface.
"""

from __future__ import annotations

from .analyzer import (
    StabilityReport,
    TranslationScan,
    decay_fit,
    scan_translation_numbers,
    verify_bound,
    write_stability_csv,
)
from .coeffs import BoundPair, CoeffExpr, parse_expr, to_text
from .conditions import (
    BoundSet,
    Certificate,
    H3Report,
    InfeasibleError,
    activation_offsets,
    certify,
    check_H3,
    compute_bounds,
    find_lambda,
    search_r,
)
from .config import ConfigError, RunConfig, RunOptions, parse_config, serialize_config
from .network import ACTIVATIONS, Activation, NetworkSpec, rhs
from .simulator import (
    HistorySpec,
    SimulationError,
    StepFailureError,
    Trajectory,
    history_norm,
    simulate,
)
from .timescale import (
    DensePiece,
    DerivativeUndefinedError,
    LatticePiece,
    RegressivityError,
    TimeScale,
    TimeScaleError,
    circle_minus,
    circle_plus,
    cylinder,
)

__version__ = "0.1.0"

__all__ = [
    "TimeScale",
    "LatticePiece",
    "DensePiece",
    "TimeScaleError",
    "RegressivityError",
    "DerivativeUndefinedError",
    "cylinder",
    "circle_plus",
    "circle_minus",
    "CoeffExpr",
    "BoundPair",
    "parse_expr",
    "to_text",
    "Activation",
    "ACTIVATIONS",
    "NetworkSpec",
    "rhs",
    "BoundSet",
    "H3Report",
    "Certificate",
    "InfeasibleError",
    "compute_bounds",
    "check_H3",
    "search_r",
    "find_lambda",
    "activation_offsets",
    "certify",
    "HistorySpec",
    "Trajectory",
    "SimulationError",
    "StepFailureError",
    "simulate",
    "history_norm",
    "StabilityReport",
    "TranslationScan",
    "decay_fit",
    "verify_bound",
    "write_stability_csv",
    "scan_translation_numbers",
    "ConfigError",
    "RunConfig",
    "RunOptions",
    "parse_config",
    "serialize_config",
    "__version__",
]

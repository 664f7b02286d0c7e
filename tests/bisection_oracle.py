"""The decay-rate search as plain bisection: every mid evaluates the margins.

This is the search ``find_lambda`` ran before it bracketed the threshold
first.  ``conditions.find_lambda`` must return the same certificate, bit for
bit: same ``lam``, ``witness``, ``big_m`` and ``h_at_lambda``.  The margins
are read through ``conditions.h_functions`` at call time, so a test that
replaces that function feeds both searches the same margins.
"""

import numpy as np

from chronoscale import conditions
from chronoscale.conditions import (
    POSITIVITY_MARGIN,
    Certificate,
    InfeasibleError,
    compute_PQbar,
)


def find_lambda(b, L, include_delayed_feedback=True):
    L = np.asarray(L, dtype=float)
    cap = b.decay_cap()
    if b.nu_sup > 0.0:
        cap = min(cap, (1.0 - 1e-9) / b.nu_sup)
    cap *= 1.0 - 1e-12

    def g(beta: float) -> float:
        return conditions.h_functions(b, L, beta, include_delayed_feedback).min()

    if g(0.0) <= 0.0:
        raise InfeasibleError(
            "margin functions are nonpositive at rate 0: the contraction "
            "check fails, no decay certificate exists"
        )

    if g(cap) - POSITIVITY_MARGIN > 0.0:
        lam = cap
    else:
        lo, hi = 0.0, cap
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if g(mid) - POSITIVITY_MARGIN > 0.0:
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

    Pbar, Qbar = compute_PQbar(b, L, include_delayed_feedback)
    big_m = float(max((b.inf["alpha"] / Pbar).max(), (b.inf["c"] / Qbar).max()))
    return Certificate(
        lam=float(lam),
        big_m=big_m,
        nu_sup=b.nu_sup,
        cap=float(cap),
        include_delayed_feedback=include_delayed_feedback,
        h_at_lambda=conditions.h_functions(b, L, float(lam), include_delayed_feedback),
        witness=witness,
    )

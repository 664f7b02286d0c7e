"""Manufactured solutions: inputs that make affine targets exact solutions.

With identity activations the network is linear in its states.  For the
targets ``x*_i(t) = a_i + b_i t`` and ``S*_i(t) = p_i + q_i t`` the inputs

    I_i = b_i + alpha_i x*_i(t - eta_i)
          - sum_j [D_ij x*_j(t) + Dtau_ij x*_j(t - tau_ij) + Dbar_ij X_ij + Dtil_ij b_j zeta_ij]
          - B_i S*_i(t)
    J_i = q_i + c_i S*_i(t - varsigma_i) - E_i x*_i(t)

make ``(x*, S*)`` a solution, where ``X_ij`` is the nabla integral of
``x*_j`` over ``(t - sigma_ij, t]``:

    X_ij = a_j sigma_ij + b_j (t sigma_ij - sigma_ij^2 / 2 + h sigma_ij / 2).

``h = 0`` gives the integral on R, which the dense step's trapezoid
computes exactly for an affine state; ``h`` the spacing gives the
right-end sum on hZ, exact there when ``sigma_ij`` is a multiple of ``h``.
Both inputs are grammar expressions of ``t`` built from the spec's own
coefficients, so the forced network is an ordinary ``NetworkSpec``.
Constant targets (``b = q = 0``) are equilibria.
"""

import dataclasses
from functools import reduce

import numpy as np

from chronoscale.coeffs import Add, Affine, Const, Mul, Neg, Scale, TimeVar
from chronoscale.simulator import HistorySpec

_T = TimeVar()


def _line(a, b):
    """``a + b t``."""
    return Affine(b, a, _T)


def _lagged(a, b, delay):
    """``a + b (t - delay(t))``."""
    return Add(_line(a, b), Scale(-b, delay))


def _sum(terms):
    return reduce(Add, terms)


def forced(spec, a, b, p, q, h=0.0):
    """``spec``, whose activations must be the identity, with the inputs
    ``I`` and ``J`` that make ``x* = a + b t`` and ``S* = p + q t`` its
    solution; ``h`` is the spacing of the windows' right-end sums (0 on R)."""
    n = spec.n

    def spread(j, sigma):  # the nabla integral of x*_j over (t - sigma, t]
        return Mul(sigma, Add(_line(a[j] + 0.5 * h * b[j], b[j]), Scale(-0.5 * b[j], sigma)))

    def coupling(i):
        return _sum(term for j in range(n) for term in (
            Mul(spec.D[i][j], _line(a[j], b[j])),
            Mul(spec.Dtau[i][j], _lagged(a[j], b[j], spec.tau[i][j])),
            Mul(spec.Dbar[i][j], spread(j, spec.sigma_d[i][j])),
            Scale(b[j], Mul(spec.Dtil[i][j], spec.zeta[i][j]))))

    I = tuple(_sum((Const(b[i]), Mul(spec.alpha[i], _lagged(a[i], b[i], spec.eta[i])),
                    Neg(coupling(i)), Neg(Mul(spec.B[i], _line(p[i], q[i])))))
              for i in range(n))
    J = tuple(_sum((Const(q[i]), Mul(spec.c[i], _lagged(p[i], q[i], spec.varsigma[i])),
                    Neg(Mul(spec.E[i], _line(a[i], b[i])))))
              for i in range(n))
    return dataclasses.replace(spec, I=I, J=J)


def target_history(a, b, p, q, window):
    """The targets on ``[-window, 0]``, as a history."""
    return HistorySpec(stm=tuple(map(_line, a, b)), stm_slope=tuple(map(Const, b)),
                       ltm=tuple(map(_line, p, q)), ltm_slope=tuple(map(Const, q)),
                       window=window)


def target_gaps(traj, a, b, p, q):
    """The largest gap of a run's states from the targets, and of its live
    derivatives from the targets' slopes."""
    k0, times = traj.start_index, traj.times
    offset, slope = np.array([*a, *p])[:, None], np.array([*b, *q])[:, None]
    return (float(np.abs(traj.Y - (offset + slope * times)).max()),
            float(np.abs(traj.dY[:, k0:] - slope).max()))

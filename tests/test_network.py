"""Model container and right-hand-side evaluation."""

import dataclasses
import math
import types

import numpy as np
import pytest

import test_memory
from chronoscale import network
from chronoscale.benchmark import two_neuron_spec
from chronoscale.coeffs import BoundPair, Const, Scale, Sin, TimeVar
from chronoscale.network import ACTIVATIONS, NetworkSpec, rhs
from chronoscale.simulator import HistorySpec, simulate
from chronoscale.timescale import TimeScale


def scalar_spec(**over):
    """One-neuron network with constant coefficients (identity activation)."""
    fields = dict(
        n=1,
        alpha=(Const(0.5),),
        c=(Const(0.4),),
        D=((Const(0.2),),),
        Dtau=((Const(0.1),),),
        Dbar=((Const(0.05),),),
        Dtil=((Const(0.03),),),
        B=(Const(0.01),),
        E=(Const(0.02),),
        I=(Const(0.3),),
        J=(Const(0.1),),
        eta=(Const(1.0),),
        varsigma=(Const(1.0),),
        tau=((Const(2.0),),),
        sigma_d=((Const(1.0),),),
        zeta=((Const(1.0),),),
        activations=(ACTIVATIONS["identity"],),
    )
    fields.update(over)
    return NetworkSpec(**fields)


def formula_state(value_of, slope_of):
    """A state whose value and slope at times ``u`` (a float or an array)
    are ``value_of(index, u)`` and ``slope_of(index, u)`` on arrays."""
    return types.SimpleNamespace(
        value=lambda index, u: value_of(index, np.asarray(u, dtype=float)),
        slope=lambda index, u: slope_of(index, np.asarray(u, dtype=float)))


def constant_state(x=2.0, s=3.0, slope=0.0):
    return formula_state(lambda index, u: np.full(u.shape, x if index == 0 else s),
                         lambda index, u: np.full(u.shape, slope))


# ---------------------------------------------------------------------------
# activations
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(ACTIVATIONS))
def test_declared_lipschitz_bounds_secant_slopes(name):
    act = ACTIVATIONS[name]
    rng = np.random.default_rng(7)
    u = rng.uniform(-20, 20, size=300)
    v = rng.uniform(-20, 20, size=300)
    keep = np.abs(u - v) > 1e-9
    slopes = np.abs(
        np.asarray(act.fn(u[keep])) - np.asarray(act.fn(v[keep]))
    ) / np.abs(u[keep] - v[keep])
    assert slopes.max() <= act.lipschitz + 1e-12


def test_sin_half_scalar_and_vector_agree():
    act = ACTIVATIONS["sin_half"]
    u = np.array([-1.0, 0.0, 2.5])
    vec = np.asarray(act.fn(u))
    for k, val in enumerate(u):
        assert vec[k] == act.fn(float(val))


@pytest.mark.parametrize("name", sorted(ACTIVATIONS))
def test_activation_scalar_call_equals_one_element_array_call(name):
    # with numpy 2.4 on x86-64, libm's tanh differs from numpy's at 614 of these
    fn = ACTIVATIONS[name].fn
    u = np.linspace(-3.0, 3.0, 2001)
    scalar = np.array([fn(float(v)) for v in u])
    one = np.concatenate([fn(np.array([v])) for v in u])
    assert scalar.tobytes() == one.tobytes() == fn(u).tobytes()


# ---------------------------------------------------------------------------
# container validation
# ---------------------------------------------------------------------------


def test_vector_length_mismatch_rejected():
    with pytest.raises(ValueError, match="alpha"):
        scalar_spec(alpha=(Const(0.5), Const(0.5)))


def test_matrix_shape_mismatch_rejected():
    with pytest.raises(ValueError, match="D"):
        scalar_spec(D=((Const(0.2), Const(0.2)),))


def test_activation_count_mismatch_rejected():
    with pytest.raises(ValueError, match="activations"):
        scalar_spec(activations=(ACTIVATIONS["identity"], ACTIVATIONS["tanh"]))


def test_lipschitz_count_mismatch_rejected():
    with pytest.raises(ValueError, match="Lipschitz"):
        scalar_spec(lipschitz=(1.0, 1.0))


def test_lipschitz_defaults_to_activation_constant():
    spec = scalar_spec(activations=(ACTIVATIONS["sin_half"],))
    assert spec.lipschitz == (0.5,)
    spec2 = scalar_spec(activations=(ACTIVATIONS["sin_half"],), lipschitz=(0.9,))
    assert spec2.lipschitz == (0.9,)


def test_unsound_lipschitz_bound_rejected():
    # A bound below the activation's own constant, or not finite, would make
    # every certificate built on it unsound.
    for bound in (0.4, -5.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="L.1 = .* must be finite and at least"):
            scalar_spec(activations=(ACTIVATIONS["sin_half"],), lipschitz=(bound,))


@pytest.mark.parametrize("key, pair, message", [
    ("D.1.1", BoundPair(-5.0, 0.0), "bounds of D.1.1 need finite 0 <= inf <= sup"),
    ("alpha.1", BoundPair(0.5, 0.9), "bounds of alpha.1 need finite"),
    ("c.2", BoundPair(0.5, -0.1), "bounds of c.2 need finite"),
    ("eta.1", BoundPair(math.nan, 0.0), "bounds of eta.1 need finite"),
    ("I.1", BoundPair(math.inf, 0.0), "bounds of I.1 need finite"),
    ("alpha.3", BoundPair(1.0, 0.5), "unknown \\[bounds\\] key 'alpha.3'"),
    ("D.1.3", BoundPair(1.0, 0.0), "unknown \\[bounds\\] key 'D.1.3'"),
    ("L.1", BoundPair(1.0, 0.0), "unknown \\[bounds\\] key 'L.1'"),
])
def test_unsound_or_stray_bound_override_rejected(key, pair, message):
    # compute_bounds would use a negative sup in Pbar and kappa, and ignore a
    # key outside the model; both refusals match what parse_config reports
    spec = two_neuron_spec()
    with pytest.raises(network.FieldError, match=message) as info:
        dataclasses.replace(spec, bound_overrides={**spec.bound_overrides, key: pair})
    assert info.value.keys == (key,)


def test_coefficient_items_keys_and_count():
    spec = scalar_spec()
    items = dict(spec.coefficient_items())
    # 8 vector families + 7 matrix families on a 1-neuron network
    assert len(items) == 8 + 7
    assert set(items) >= {"alpha.1", "c.1", "D.1.1", "zeta.1.1", "varsigma.1"}
    assert items["alpha.1"](12.3) == pytest.approx(0.5)


def test_coeffs_at_matches_expressions():
    spec = scalar_spec(alpha=(Scale(0.3, Sin(TimeVar())),))
    t = 1.7
    table = spec.coeffs_at(t)
    assert table["alpha"][0] == pytest.approx(0.3 * math.sin(t))
    assert table["D"][0, 0] == pytest.approx(0.2)


def test_coeffs_on_rows_match_coeffs_at():
    spec = two_neuron_spec()
    times = np.linspace(-2.0, 200.0, 2001)
    block = spec.coeffs_on(times)
    for b, t in enumerate(times):
        point = spec.coeffs_at(float(t))
        for name in spec.VECTOR_FIELDS + spec.MATRIX_FIELDS:
            assert np.array_equal(block[name][b], point[name]), (name, t)


def test_coeffs_on_equals_each_expression_bit_for_bit():
    spec = test_memory.wide_tanh_spec(16, 0)
    times = np.linspace(-1.0, 4.0, 34)
    block, exprs = spec.coeffs_on(times), dict(spec.coefficient_items())
    for key, name, idx in spec.coefficient_keys(spec.n):
        assert np.array_equal(block[name][(slice(None), *idx)], exprs[key](times)), key


def test_coefficient_stack_is_built_once_per_spec(monkeypatch):
    built = []

    def counted(exprs):
        built.append(len(exprs))
        return stack(exprs)

    stack = network.ExprStack
    monkeypatch.setattr(network, "ExprStack", counted)
    n = 3
    spec = test_memory.wide_tanh_spec(n, 0)
    hist = HistorySpec(stm=(Const(0.1),) * n, stm_slope=(Const(0.0),) * n,
                       ltm=(Const(-0.1),) * n, ltm_slope=(Const(0.0),) * n, window=0.5)
    ts = TimeScale.real_interval(-1.0, 1.0, 0.02)
    for _ in range(2):
        simulate(spec, hist, ts, 1.0)
    assert built == [8 * n + 7 * n * n]
    copy = dataclasses.replace(spec)
    for _ in range(2):
        simulate(copy, hist, ts, 1.0)
    assert len(built) == 2


# ---------------------------------------------------------------------------
# right-hand sides against hand-computed values
# ---------------------------------------------------------------------------


def test_rhs_constant_state_on_lattice_hand_value():
    spec = scalar_spec()
    ts = TimeScale.integer_lattice()
    state = constant_state(x=2.0, s=3.0, slope=0.0)
    # leak -0.5*2; instant 0.2*2; delayed 0.1*2; distributed 0.05 * (mass 1 * 2);
    # neutral 0.03 * 0; coupling 0.01*3; input 0.3
    want = -1.0 + 0.4 + 0.2 + 0.1 + 0.0 + 0.03 + 0.3
    stm, ltm = rhs(spec, state, ts, 5.0)
    assert stm == pytest.approx(want, abs=1e-12)
    # ltm: -0.4*3 + 0.02*2 + 0.1
    assert ltm == pytest.approx(-1.06, abs=1e-12)


def test_rhs_constant_state_on_dense_grid_hand_value():
    spec = scalar_spec()
    ts = TimeScale.real_interval(0.0, 10.0, 0.01)
    state = constant_state(x=2.0, s=3.0, slope=0.0)
    want = -1.0 + 0.4 + 0.2 + 0.1 + 0.0 + 0.03 + 0.3
    assert rhs(spec, state, ts, 5.0)[0] == pytest.approx(want, abs=1e-10)


def test_rhs_time_varying_state_on_lattice_hand_value():
    spec = scalar_spec()
    ts = TimeScale.integer_lattice()
    state = formula_state(lambda index, u: u if index == 0 else 0.5 * u,
                          lambda index, u: np.full(u.shape, 1.0 if index == 0 else 0.5))
    t = 5.0
    # leak -0.5*x(4) = -2; instant 0.2*5 = 1; delayed 0.1*x(3) = 0.3;
    # distributed over (4,5]: jump mass x(5)*1 = 5 -> 0.05*5 = 0.25;
    # neutral integral of slope 1 over (4,5] = 1 -> 0.03;
    # coupling 0.01*S(5)=0.01*2.5; input 0.3
    want = -2.0 + 1.0 + 0.3 + 0.25 + 0.03 + 0.025 + 0.3
    stm, ltm = rhs(spec, state, ts, t)
    assert stm == pytest.approx(want, abs=1e-12)
    # ltm leak -0.4*S(4) = -0.8; disposition 0.02*x(5)=0.1; input 0.1
    assert ltm == pytest.approx(-0.8 + 0.1 + 0.1, abs=1e-12)


def test_zero_leakage_delay_uses_current_state():
    ts = TimeScale.integer_lattice()
    state = formula_state(lambda index, u: u if index == 0 else np.zeros(u.shape),
                          lambda index, u: np.full(u.shape, 1.0 if index == 0 else 0.0))
    base = scalar_spec(eta=(Const(0.0),), D=((Const(0.0),),), Dtau=((Const(0.0),),),
                       Dbar=((Const(0.0),),), Dtil=((Const(0.0),),),
                       B=(Const(0.0),), I=(Const(0.0),))
    # pure leak with zero delay: -alpha * x(t)
    assert rhs(base, state, ts, 7.0)[0] == pytest.approx(-0.5 * 7.0, abs=1e-12)


def test_stm_decouples_from_ltm_when_coupling_vanishes():
    spec = scalar_spec(B=(Const(0.0),))
    ts = TimeScale.integer_lattice()
    a = rhs(spec, constant_state(x=2.0, s=3.0), ts, 5.0)[0]
    b = rhs(spec, constant_state(x=2.0, s=-50.0), ts, 5.0)[0]
    assert a == pytest.approx(b, abs=1e-15)


def test_external_input_shifts_rhs_linearly():
    ts = TimeScale.integer_lattice()
    state = constant_state()
    base = scalar_spec()
    shifted = scalar_spec(I=(Const(0.3 + 0.125),))
    delta = rhs(shifted, state, ts, 5.0)[0] - rhs(base, state, ts, 5.0)[0]
    assert delta == pytest.approx(0.125, abs=1e-12)


def test_two_neuron_cross_coupling():
    z = Const(0.0)
    zrow = ((z, z), (z, z))
    spec = NetworkSpec(
        n=2,
        alpha=(Const(1.0), Const(1.0)),
        c=(Const(1.0), Const(1.0)),
        D=((z, Const(0.7)), (z, z)),
        Dtau=zrow, Dbar=zrow, Dtil=zrow,
        B=(z, z), E=(z, z),
        I=(z, z), J=(z, z),
        eta=(z, z), varsigma=(z, z),
        tau=zrow, sigma_d=zrow, zeta=zrow,
        activations=(ACTIVATIONS["identity"], ACTIVATIONS["identity"]),
    )
    ts = TimeScale.integer_lattice()
    state = formula_state(lambda index, u: np.full(u.shape, (1.0, 4.0, 0.0, 0.0)[index]),
                          lambda index, u: np.zeros(u.shape))
    # neuron 1 sees neuron 2 through D[0][1] only
    got = rhs(spec, state, ts, 3.0)
    assert got[0] == pytest.approx(-1.0 + 0.7 * 4.0, abs=1e-12)
    assert got[1] == pytest.approx(-4.0, abs=1e-12)

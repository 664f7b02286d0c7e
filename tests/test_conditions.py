"""Solvability checks and decay certificates against frozen oracle values.

The expected numbers for the two-neuron benchmark were computed by hand from
the override bound table (plain interval arithmetic on the column sums) and
frozen here; the library must reproduce them exactly.
"""

import contextlib
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import bisection_oracle
import enclosure_oracle
import test_memory
from chronoscale import benchmark, conditions
from chronoscale.coeffs import Add, Affine, BoundPair, Const, Scale, Sin, TimeVar
from chronoscale.conditions import (
    DEFAULT_R_GRID,
    MARGIN_FAMILIES,
    POSITIVITY_MARGIN,
    BoundSet,
    ConditionsError,
    InfeasibleError,
    certify,
    check_H3,
    compute_bounds,
    find_lambda,
    h_functions,
    search_r,
)
from chronoscale.network import ACTIVATIONS, Activation, NetworkSpec
from chronoscale.timescale import DensePiece, LatticePiece, TimeScale

L = (1.0, 1.0)
F0 = (0.0, 0.0)

# hand arithmetic on the override table (B+ = 1/(pi e^{2pi})):
B_SUP = 1.0 / (math.pi * math.exp(2.0 * math.pi))
# leak 0.9*0.06 + instant+distributed+neutral column sums + coupling
PBAR1_RED = 0.9 * 0.06 + (0.05 + 0.05 * 0.08 + 0.05 * 0.06) \
    + (0.05 + 0.05 * 0.07 + 0.05 * 0.05) + B_SUP
PBAR2_RED = 0.8 * 0.05 + (0.05 + 0.05 * 0.04 + 0.05 * 0.02) \
    + (0.05 + 0.05 * 0.02 + 0.05 * 0.03) + B_SUP
QBAR1 = 0.29 * 0.04 + 0.21
QBAR2 = 0.28 * 0.05 + 0.21


@pytest.fixture(scope="module")
def bench_bounds():
    return compute_bounds(benchmark.two_neuron_spec())


@pytest.fixture(scope="module")
def bench_report(bench_bounds):
    return check_H3(bench_bounds, L, F0, 0.45, include_delayed_feedback=False)


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------


def test_overrides_land_in_boundset(bench_bounds):
    b = bench_bounds
    assert b.sup["alpha"] == pytest.approx([0.9, 0.8], abs=0)
    assert b.inf["alpha"] == pytest.approx([0.89, 0.78], abs=0)
    assert b.inf["c"] == pytest.approx([0.28, 0.27], abs=0)
    assert b.sup["B"] == pytest.approx([B_SUP, B_SUP], rel=1e-12)
    assert np.all(b.sup["D"] == 0.05) and np.all(b.sup["Dtau"] == 0.05)
    assert b.sup["sigma_d"] == pytest.approx(np.array([[0.08, 0.07], [0.04, 0.02]]), abs=0)
    assert b.sup["zeta"] == pytest.approx(np.array([[0.06, 0.05], [0.02, 0.03]]), abs=0)
    assert b.overridden == frozenset(benchmark.two_neuron_spec().bound_overrides)
    assert b.decay_cap() == pytest.approx(0.27, abs=0)


def test_a_bound_set_has_five_fields():
    assert [f.name for f in dataclasses.fields(BoundSet)] == [
        "n", "sup", "inf", "nu_sup", "overridden"]


# the reference model's bound table on Z, pinned byte for byte
REFERENCE_SUMMARY_Z = """\
coefficient bounds:
  alpha.1: sup = 0.9, inf = 0.89  [override]
  alpha.2: sup = 0.8, inf = 0.78  [override]
  c.1: sup = 0.29, inf = 0.28  [override]
  c.2: sup = 0.28, inf = 0.27  [override]
  B.1: sup = 0.000594425  [override]
  B.2: sup = 0.000594425  [override]
  E.1: sup = 0.21  [override]
  E.2: sup = 0.21  [override]
  I.1: sup = 0.08  [override]
  I.2: sup = 0.1  [override]
  J.1: sup = 0.01  [override]
  J.2: sup = 0.02  [override]
  eta.1: sup = 0.06  [override]
  eta.2: sup = 0.05  [override]
  varsigma.1: sup = 0.04  [override]
  varsigma.2: sup = 0.05  [override]
  D.1.1: sup = 0.05  [override]
  D.1.2: sup = 0.05  [override]
  D.2.1: sup = 0.05  [override]
  D.2.2: sup = 0.05  [override]
  Dtau.1.1: sup = 0.05  [override]
  Dtau.1.2: sup = 0.05  [override]
  Dtau.2.1: sup = 0.05  [override]
  Dtau.2.2: sup = 0.05  [override]
  Dbar.1.1: sup = 0.05  [override]
  Dbar.1.2: sup = 0.05  [override]
  Dbar.2.1: sup = 0.05  [override]
  Dbar.2.2: sup = 0.05  [override]
  Dtil.1.1: sup = 0.05  [override]
  Dtil.1.2: sup = 0.05  [override]
  Dtil.2.1: sup = 0.05  [override]
  Dtil.2.2: sup = 0.05  [override]
  tau.1.1: sup = 0.05  [override]
  tau.1.2: sup = 0.05  [override]
  tau.2.1: sup = 0.05  [override]
  tau.2.2: sup = 0.05  [override]
  sigma_d.1.1: sup = 0.08  [override]
  sigma_d.1.2: sup = 0.07  [override]
  sigma_d.2.1: sup = 0.04  [override]
  sigma_d.2.2: sup = 0.02  [override]
  zeta.1.1: sup = 0.06  [override]
  zeta.1.2: sup = 0.05  [override]
  zeta.2.1: sup = 0.02  [override]
  zeta.2.2: sup = 0.03  [override]
  graininess sup = 1
"""


def test_summary_lines_tag_provenance():
    b = compute_bounds(benchmark.two_neuron_spec(), TimeScale.integer_lattice())
    assert "\n".join(b.summary_lines()) + "\n" == REFERENCE_SUMMARY_Z


def _one_neuron_spec(I=Const(0.0), overrides=None):
    t = TimeVar()
    z = Const(0.0)
    return NetworkSpec(
        n=1,
        alpha=(Add(Const(0.5), Scale(0.1, Sin(t))),),
        c=(Const(0.4),),
        D=((Scale(0.2, Sin(t)),),), Dtau=((z,),), Dbar=((z,),), Dtil=((z,),),
        B=(z,), E=(z,), I=(I,), J=(z,),
        eta=(z,), varsigma=(z,),
        tau=((z,),), sigma_d=((z,),), zeta=((z,),),
        activations=(ACTIVATIONS["identity"],),
        bound_overrides=overrides or {},
    )


def test_enclosed_bounds_are_exact_envelopes():
    b = compute_bounds(_one_neuron_spec())
    assert b.sup["alpha"][0] == pytest.approx(0.6, abs=1e-15)
    assert b.inf["alpha"][0] == pytest.approx(0.4, abs=1e-15)
    assert b.sup["D"][0, 0] == pytest.approx(0.2, abs=1e-15)
    assert b.overridden == frozenset()


def test_unbounded_coefficient_needs_an_override():
    drifting = Affine(0.001, 0.0, TimeVar())
    with pytest.raises(ConditionsError, match=r"coefficient I\.1 .* unbounded"):
        compute_bounds(_one_neuron_spec(I=drifting))
    b = compute_bounds(_one_neuron_spec(I=drifting, overrides={"I.1": BoundPair(1.0, 0.0)}))
    assert b.sup["I"][0] == 1.0
    assert b.overridden == {"I.1"}
    # the first unbounded key in file order that lacks an override is named
    spec = dataclasses.replace(_one_neuron_spec(I=drifting), D=((drifting,),))
    with pytest.raises(ConditionsError, match=r"^coefficient I\.1 = affine 0.001 0 t is"):
        compute_bounds(spec)
    spec = dataclasses.replace(spec, bound_overrides={"I.1": BoundPair(1.0, 0.0)})
    with pytest.raises(ConditionsError, match=r"^coefficient D\.1\.1 = affine 0.001 0 t is"):
        compute_bounds(spec)


def _without_half_the_overrides(spec):
    kept = dict(list(spec.bound_overrides.items())[::2])
    return dataclasses.replace(spec, bound_overrides=kept)


@pytest.mark.parametrize("spec", [
    *(test_memory.wide_tanh_spec(n, seed) for n in (2, 4, 8, 16) for seed in (0, 1)),
    dataclasses.replace(benchmark.two_neuron_spec(), bound_overrides={}),
    _without_half_the_overrides(benchmark.two_neuron_spec()),
    benchmark.two_neuron_spec(),
], ids=[*(f"wide-{n}-{seed}" for n in (2, 4, 8, 16) for seed in (0, 1)),
        "reference-no-overrides", "reference-half-overrides", "reference"])
def test_bounds_equal_the_scalar_enclosures_key_by_key(spec):
    # every group of the stacked coefficients is enclosed at once; each entry
    # equals the one-tree-at-a-time rules of the enclosure oracle
    b, exprs = compute_bounds(spec), dict(spec.coefficient_items())
    for key, name, idx in NetworkSpec.coefficient_keys(spec.n):
        pair = spec.bound_overrides.get(key)
        sup, inf = (pair.sup_abs, pair.inf_abs) if pair else enclosure_oracle.sup_inf(exprs[key])
        assert b.sup[name][idx] == sup, key
        if name in ("alpha", "c"):
            assert b.inf[name][idx] == inf, key
    assert b.overridden == frozenset(spec.bound_overrides)
    # each side is one flat table in key order, viewed once per family
    for table in (b.sup, b.inf):
        assert list(table) == [*NetworkSpec.VECTOR_FIELDS, *NetworkSpec.MATRIX_FIELDS]
        base = table["alpha"].base
        assert base.shape == (len(exprs),)
        assert all(view.base is base for view in table.values())


def test_a_fully_overridden_spec_encloses_nothing():
    spec = benchmark.two_neuron_spec()
    compute_bounds(spec)
    assert "_coefficient_stack" not in vars(spec)
    half = _without_half_the_overrides(spec)
    compute_bounds(half)
    assert "_coefficient_stack" in vars(half)


def test_nu_sup_reflects_the_time_scale():
    spec = benchmark.two_neuron_spec()
    assert compute_bounds(spec).nu_sup == 0.0
    assert compute_bounds(spec, TimeScale.integer_lattice()).nu_sup == pytest.approx(1.0)
    dense = compute_bounds(spec, TimeScale.real_interval(-2.0, 60.0, 0.01))
    assert dense.nu_sup == pytest.approx(0.0, abs=1e-12)
    union = compute_bounds(
        spec, TimeScale.union_of_intervals([(0.0, 1.0), (2.0, 3.0)], step=0.01))
    assert union.nu_sup == pytest.approx(1.0)


def test_nu_sup_covers_the_whole_scale():
    # The supremum must hold past any fixed horizon: the widest gap of the
    # mixed scale sits at t = 100..102.5, and the union's at t = 110..130.
    spec = benchmark.two_neuron_spec()
    hybrid = TimeScale([LatticePiece(-2.0, 20.0, 0.05), DensePiece(20.5, 30.0, 0.01),
                        LatticePiece(31.0, 100.0, 0.5), LatticePiece(102.5, 120.0, 0.1)])
    assert compute_bounds(spec, hybrid).nu_sup == pytest.approx(2.5)
    union = TimeScale.union_of_intervals([(-3.0, 110.0), (130.0, 140.0)])
    assert compute_bounds(spec, union).nu_sup == pytest.approx(20.0)


# ---------------------------------------------------------------------------
# solvability report at r = 0.45
# ---------------------------------------------------------------------------


def test_benchmark_column_sums(bench_report):
    rep = bench_report
    assert rep.Pbar == pytest.approx([PBAR1_RED, PBAR2_RED], rel=1e-12)
    assert rep.Qbar == pytest.approx([QBAR1, QBAR2], rel=1e-12)
    # with f(0)=0 and unit Lipschitz: P = r*(Pbar + delayed column) + I+
    assert rep.P[0] == pytest.approx(0.45 * (PBAR1_RED + 0.1) + 0.08, rel=1e-12)
    assert rep.P[1] == pytest.approx(0.45 * (PBAR2_RED + 0.1) + 0.10, rel=1e-12)
    assert rep.Q[0] == pytest.approx(0.45 * QBAR1 + 0.01, rel=1e-12)
    assert rep.Q[1] == pytest.approx(0.45 * QBAR2 + 0.02, rel=1e-12)


def test_benchmark_invariance_and_contraction(bench_report):
    rep = bench_report
    assert rep.max_r_expr == pytest.approx(0.447407, abs=5e-7)
    assert rep.kappa == pytest.approx(0.829630, abs=5e-7)
    assert rep.max_r_expr <= 0.45
    assert rep.kappa < 1.0
    assert rep.feasible


def test_benchmark_ratio_tables(bench_report):
    rep = bench_report
    amp_a = [1.0 + 0.9 / 0.89, 1.0 + 0.8 / 0.78]
    amp_c = [1.0 + 0.29 / 0.28, 1.0 + 0.28 / 0.27]
    want_r = [
        rep.P[0] / 0.89, amp_a[0] * rep.P[0],
        rep.P[1] / 0.78, amp_a[1] * rep.P[1],
        rep.Q[0] / 0.28, rep.Q[1] / 0.27,
        amp_c[0] * rep.Q[0], amp_c[1] * rep.Q[1],
    ]
    assert rep.r_ratios == pytest.approx(want_r, rel=1e-12)
    want_k = [
        rep.Pbar[0] / 0.89, rep.Pbar[1] / 0.78,
        amp_a[0] * rep.Pbar[0], amp_a[1] * rep.Pbar[1],
        rep.Qbar[0] / 0.28, rep.Qbar[1] / 0.27,
        amp_c[0] * rep.Qbar[0], amp_c[1] * rep.Qbar[1],
    ]
    assert rep.kappa_ratios == pytest.approx(want_k, rel=1e-12)
    assert rep.max_r_expr == pytest.approx(max(want_r), rel=1e-12)
    assert rep.kappa == pytest.approx(max(want_k), rel=1e-12)


def test_delayed_feedback_variant_changes_only_Pbar(bench_bounds, bench_report):
    full = check_H3(bench_bounds, L, F0, 0.45, include_delayed_feedback=True)
    assert full.Pbar == pytest.approx(np.asarray(bench_report.Pbar) + 0.1, rel=1e-12)
    assert full.Qbar == pytest.approx(bench_report.Qbar, rel=0, abs=0)
    assert full.P == pytest.approx(bench_report.P, rel=0, abs=0)
    assert full.Q == pytest.approx(bench_report.Q, rel=0, abs=0)
    assert full.feasible  # kappa is driven by the long-term column here


def test_radius_search(bench_bounds):
    assert search_r(bench_bounds, L, F0, include_delayed_feedback=False) == pytest.approx(0.45)
    assert not check_H3(bench_bounds, L, F0, 0.40, include_delayed_feedback=False).feasible
    assert search_r(bench_bounds, L, F0, r_grid=[0.40],
                    include_delayed_feedback=False) is None


def test_default_radius_grid_shape():
    assert DEFAULT_R_GRID[0] == pytest.approx(0.10)
    assert DEFAULT_R_GRID[-1] == pytest.approx(1.0)
    assert np.allclose(np.diff(DEFAULT_R_GRID), 0.05)


def test_doubled_weights_are_infeasible_on_default_grid(bench_bounds):
    spec = benchmark.two_neuron_spec()
    overrides = dict(spec.bound_overrides)
    for key, pair in list(overrides.items()):
        family = key.split(".")[0]
        if family in ("D", "Dtau", "Dbar", "Dtil", "B", "E"):
            overrides[key] = BoundPair(2.0 * pair.sup_abs, pair.inf_abs, "override")
    doubled = dataclasses.replace(spec, bound_overrides=overrides)
    b = compute_bounds(doubled)
    assert search_r(b, L, F0, include_delayed_feedback=False) is None
    with pytest.raises(InfeasibleError, match="^no radius in the grid passes the "
                       "solvability check; no certificate is issued$"):
        certify(doubled, include_delayed_feedback=False)


# ---------------------------------------------------------------------------
# the certification gate
# ---------------------------------------------------------------------------


def assert_same(a, b):
    """Field-by-field equality of two reports or certificates, arrays exact."""
    assert type(a) is type(b)
    for f in dataclasses.fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if dataclasses.is_dataclass(x):
            assert_same(x, y)
        else:
            np.testing.assert_array_equal(x, y)


@pytest.mark.parametrize("feedback", [True, False])
@pytest.mark.parametrize("ts", [
    pytest.param(TimeScale.real_interval(-2.0, 50.0, 0.01), id="R"),
    pytest.param(TimeScale.integer_lattice(), id="Z"),
])
def test_certify_is_the_gate_then_find_lambda(ts, feedback):
    spec = benchmark.two_neuron_spec()
    gate, cert = certify(spec, ts, include_delayed_feedback=feedback)
    b = compute_bounds(spec, ts)
    r = search_r(b, spec.lipschitz, F0, include_delayed_feedback=feedback)
    assert_same(gate, check_H3(b, spec.lipschitz, F0, r, feedback))
    assert_same(cert, find_lambda(b, spec.lipschitz, include_delayed_feedback=feedback))


def test_certify_gates_on_the_absolute_activation_offset():
    shifted = Activation("tanh_shifted", lambda u: np.tanh(u) - 0.3, 1.0)
    spec = dataclasses.replace(benchmark.two_neuron_spec(), activations=(shifted, shifted))
    grid = np.arange(0.5, 5.0, 0.5)
    gate, _ = certify(spec, r_grid=grid, include_delayed_feedback=False)
    b = compute_bounds(spec)
    assert gate.r == search_r(b, L, (0.3, 0.3), grid, include_delayed_feedback=False)
    np.testing.assert_array_equal(gate.P, check_H3(b, L, (0.3, 0.3), gate.r, False).P)
    assert not np.array_equal(gate.P, check_H3(b, L, (-0.3, -0.3), gate.r, False).P)


# ---------------------------------------------------------------------------
# margin functions and the certificate
# ---------------------------------------------------------------------------


def test_margin_functions_at_rate_0_equal_contraction_deficits(bench_bounds):
    hv = h_functions(bench_bounds, L, 0.0, include_delayed_feedback=False)
    # at rate 0 the long-term margins reduce to c- - Qbar
    assert hv[MARGIN_FAMILIES.index("h_bar")] == pytest.approx([0.28 - QBAR1, 0.27 - QBAR2],
                                                               rel=1e-9)
    assert hv.min() > 0.0
    assert hv.min() > 0


def test_certificate_frozen_values_lattice(bench_bounds):
    b = dataclasses.replace(bench_bounds, nu_sup=1.0)
    cert = find_lambda(b, L, include_delayed_feedback=False)
    assert cert.lam == pytest.approx(0.045317725, abs=1e-6)
    assert cert.big_m == pytest.approx(0.78 / PBAR2_RED, rel=1e-9)
    assert cert.big_m == pytest.approx(5.339013, abs=1e-5)
    assert cert.big_m > 1.0
    assert cert.lam > 0.0
    assert cert.h_at_lambda.min() > 0.0
    assert cert.witness  # non-empty maximality explanation
    assert cert.nu_sup == 1.0
    assert cert.lam < cert.cap == pytest.approx(0.27)


def test_certificate_frozen_values_dense(bench_bounds):
    cert = find_lambda(bench_bounds, L, include_delayed_feedback=False)
    assert cert.lam == pytest.approx(0.045967785, abs=1e-6)
    assert cert.big_m == pytest.approx(5.339013, abs=1e-5)


def test_dense_rate_dominates_lattice_rate(bench_bounds):
    lam_dense = find_lambda(bench_bounds, L, include_delayed_feedback=False).lam
    lam_lattice = find_lambda(dataclasses.replace(bench_bounds, nu_sup=1.0), L,
                              include_delayed_feedback=False).lam
    assert lam_dense >= lam_lattice


def test_rate_is_variant_independent_M_is_not(bench_bounds):
    red = find_lambda(bench_bounds, L, include_delayed_feedback=False)
    full = find_lambda(bench_bounds, L, include_delayed_feedback=True)
    # the binding margin family contains no weight terms, so the rate agrees
    assert full.lam == pytest.approx(red.lam, abs=1e-9)
    assert full.big_m == pytest.approx(3.325929, abs=1e-5)
    assert full.big_m < red.big_m


@st.composite
def feasible_bound_sets(draw):
    """Random nonnegative envelopes whose margins are positive at rate 0."""
    n = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    weight = draw(st.floats(0.001, 0.04))
    nu_sup = draw(st.one_of(st.just(0.0),
                            st.floats(0.0, 3.0, exclude_min=True)))
    feedback = draw(st.booleans())
    inf = {"alpha": rng.uniform(0.5, 3.0, n), "c": rng.uniform(0.5, 3.0, n)}

    def vec(hi):
        return rng.uniform(0.0, hi, n)

    def mat(hi):
        return rng.uniform(0.0, hi, (n, n))

    sup = {name: inf[name] * rng.uniform(1.0, 2.0, n) for name in inf}
    sup |= {"B": vec(weight), "E": vec(weight), "I": vec(weight), "J": vec(weight),
            "eta": vec(0.1) / sup["alpha"], "varsigma": vec(0.1) / sup["c"],
            "D": mat(weight / n), "Dtau": mat(weight / n),
            "Dbar": mat(weight / n), "Dtil": mat(weight / n),
            "tau": mat(2.0), "sigma_d": mat(2.0), "zeta": mat(2.0)}
    b = BoundSet(n=n, sup=sup, inf=inf, nu_sup=nu_sup)
    L_draw = rng.uniform(0.5, 1.5, n)
    assume(h_functions(b, L_draw, 0.0, feedback).min() > POSITIVITY_MARGIN)
    return b, L_draw, feedback


@settings(max_examples=60, deadline=None)
@given(feasible_bound_sets())
def test_margins_fall_until_nonpositive_so_bisection_finds_the_rate(case):
    b, L_draw, feedback = case
    cert = find_lambda(b, L_draw, include_delayed_feedback=feedback)
    betas = np.linspace(0.0, cert.cap, 512)
    mins = np.array([h_functions(b, L_draw, float(beta), feedback).min()
                     for beta in betas])
    nonpositive = np.flatnonzero(mins <= 0.0)
    stop = nonpositive[0] if nonpositive.size else len(mins) - 1
    assert np.all(np.diff(mins[:stop + 1]) < 0.0)
    assert np.all(mins[betas > cert.lam] <= POSITIVITY_MARGIN)
    assert np.all(mins[betas <= cert.lam] > POSITIVITY_MARGIN)


# ---------------------------------------------------------------------------
# the rate search: a bracket first, then the bisection replayed from it
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def margin_calls(g=None):
    """Record the rate of every ``conditions.h_functions`` call.

    With ``g``, the margins are replaced by one neuron whose four families
    all equal ``g(beta)``.
    """
    real, rates = conditions.h_functions, []

    def recorded(b, L, beta, include_delayed_feedback=True):
        rates.append(beta)
        if g is None:
            return real(b, L, beta, include_delayed_feedback)
        return np.full((4, 1), g(beta))

    conditions.h_functions = recorded
    try:
        yield rates
    finally:
        conditions.h_functions = real


@settings(max_examples=60, deadline=None)
@given(feasible_bound_sets())
def test_the_search_issues_the_bisection_certificate_in_few_margin_evaluations(case):
    b, L_draw, feedback = case
    with margin_calls() as rates:
        cert = find_lambda(b, L_draw, include_delayed_feedback=feedback)
    assert len(rates) <= 24  # plain bisection makes 52
    assert_same(cert, bisection_oracle.find_lambda(b, L_draw, feedback))


@pytest.fixture(scope="module")
def synthetic_bounds():
    """One neuron with cap 0.4 (1 - 1e-12); only ``cap`` and ``M`` read it."""
    b = compute_bounds(_one_neuron_spec())
    return dataclasses.replace(b, sup=b.sup | {"varsigma": np.array([0.1])})


def test_cap_passes_so_the_rate_is_cap_without_a_search(synthetic_bounds):
    with margin_calls(lambda beta: 1.0 - beta) as rates:
        cert = find_lambda(synthetic_bounds, (1.0,))
    with margin_calls(lambda beta: 1.0 - beta):
        assert_same(cert, bisection_oracle.find_lambda(synthetic_bounds, (1.0,)))
    assert cert.lam == cert.cap
    assert rates == [0.0, cert.cap]  # h_at_lambda is the margins at cap


@pytest.mark.parametrize("at_zero", [5e-324, 0.5 * POSITIVITY_MARGIN, POSITIVITY_MARGIN])
def test_a_rate_0_margin_within_the_positivity_margin_is_infeasible(synthetic_bounds,
                                                                      at_zero):
    messages = []
    for search in (find_lambda, bisection_oracle.find_lambda):
        with margin_calls(lambda beta: at_zero - beta), \
                pytest.raises(InfeasibleError, match="no positive rate") as err:
            search(synthetic_bounds, (1.0,))
        messages.append(str(err.value))
    assert messages[0] == messages[1]


@pytest.mark.parametrize("g, most", [
    pytest.param(lambda beta: min(0.3 - 3.0 * beta, 0.1 - 0.2 * beta), 24, id="kink-below"),
    pytest.param(lambda beta: min(0.2 - 2.0 * beta, 0.05 - 0.5 * beta), 24, id="kink-at"),
    pytest.param(lambda beta: min(0.2 - 0.1 * beta, 0.39 - beta), 24, id="kink-above"),
    # far steeper past the threshold than before it: secant steps alone creep
    # up from 0 by 0.5e-15 (218 evaluations at -7e56, endless at -inf)
    pytest.param(lambda beta: 1.0 - beta - 0.01 * math.exp(50.0 * beta), 40,
                 id="exponential"),
    pytest.param(lambda beta: 1.0 - beta - 1e-30 * math.exp(500.0 * beta), 40,
                 id="exponential-7e56-at-cap"),
    pytest.param(lambda beta: 0.1 - beta if beta < 0.2 else -math.inf, 24,
                 id="overflowed"),
    # within 1e-13 of the threshold, g rounds to it exactly on a band 8e-13
    # wide, so the bracket bisects: plain bisection makes 53 evaluations
    pytest.param(lambda beta: POSITIVITY_MARGIN + 1e-13 * (0.3 - beta) / 0.4, 56,
                 id="flat"),
])
def test_the_search_matches_bisection_on_synthetic_margins(synthetic_bounds, g, most):
    with margin_calls(g) as rates:
        cert = find_lambda(synthetic_bounds, (1.0,))
    with margin_calls(g):
        assert_same(cert, bisection_oracle.find_lambda(synthetic_bounds, (1.0,)))
    assert 0.0 < cert.lam < cert.cap
    assert len(rates) <= most


REFERENCE_CERTIFICATES = {
    "R": """\
lambda = 0.0459677845443
M = 5.33901274754
nu_sup = 0
cap = 0.27
include_delayed_feedback = False
witness = maximal: lambda*1.01 = 0.0464274624 drives the minimum margin to -0.00046 <= 1e-09
h.1 = 0.676248593554
h.2 = 0.587838158331
h_bar.1 = 0.0124108667826
h_bar.2 = 1.00000055459e-09
h_star.1 = 0.551412173633
h_star.2 = 0.509765822118
h_bar_star.1 = 0.117895489118
h_bar_star.2 = 0.11111276207
""",
    "Z": """\
lambda = 0.0453177246379
M = 5.33901274754
nu_sup = 1
cap = 0.27
include_delayed_feedback = False
witness = maximal: lambda*1.01 = 0.0457709019 drives the minimum margin to -0.00046 <= 1e-09
h.1 = 0.669150522101
h.2 = 0.581739657135
h_bar.1 = 0.0125224741133
h_bar.2 = 1.00000038805e-09
h_star.1 = 0.544957307118
h_star.2 = 0.504900988347
h_bar_star.1 = 0.115422061613
h_bar_star.2 = 0.108709289938
""",
}


@pytest.mark.parametrize("name, ts", [
    ("R", TimeScale.real_interval(-2.0, 50.0, 0.01)),
    ("Z", TimeScale.integer_lattice()),
])
def test_reference_certificates_are_pinned_as_text(name, ts):
    # h_bar.2 binds: it moves in its 7th digit when lambda moves by 7e-17
    _, cert = certify(benchmark.two_neuron_spec(), ts, (0.45,), include_delayed_feedback=False)
    assert cert.to_text() == REFERENCE_CERTIFICATES[name]


def test_infeasible_bounds_raise(bench_bounds):
    spec = benchmark.two_neuron_spec()
    overrides = dict(spec.bound_overrides)
    overrides["E.1"] = BoundPair(0.63, 0.0, "override")  # Qbar_1 > c_1^-
    bad = dataclasses.replace(spec, bound_overrides=overrides)
    with pytest.raises(InfeasibleError):
        find_lambda(compute_bounds(bad), L, include_delayed_feedback=False)


def test_certificate_text_round_trip(bench_bounds):
    cert = find_lambda(bench_bounds, L, include_delayed_feedback=False)
    lines = cert.to_text().splitlines()
    assert f"lambda = {cert.lam:.12g}" in lines
    assert f"M = {cert.big_m:.12g}" in lines

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate as sci_integrate

from d2dshare.model import NetworkParams, ParameterError, derive
from d2dshare.overlay import (
    cellular_sinr_ccdf,
    cellular_sinr_ccdf_dense_limit,
    cellular_spectral_efficiency,
    r_d_max,
)
from d2dshare.underlay import (
    cellular_sinr_ccdf_underlay,
    cellular_spectral_efficiency_underlay,
    d2d_sinr_ccdf_underlay,
    d2d_spectral_efficiency_underlay,
    feasible_beta_curves,
    max_beta_for_cellular_outage,
    max_beta_for_d2d_outage,
    optimal_access_factor,
    underlay_rates,
)
from d2dshare.specfun import sinc_normalized


# ---------------------------------------------------------------------------
# SINR CCDFs
# ---------------------------------------------------------------------------

def test_d2d_ccdf_baseline_point(table1):
    d = derive(table1)
    curve = d2d_sinr_ccdf_underlay(table1, np.array([1.0]))
    oracle = math.exp(-0.1 - d.c_mu - 1.0 / (2.0 * sinc_normalized(4.0 / 7.0)))
    assert curve.values[0] == pytest.approx(oracle, rel=1e-13)
    assert curve.values[0] == pytest.approx(0.30251144074249736, abs=1e-12)


def test_d2d_ccdf_noise_only_limit(table1):
    # convergence to the interference-free curve is O(beta^(2/alpha))
    t = np.array([1.0])
    noise_only = math.exp(-0.1)
    prev_gap = None
    for beta in (1e-3, 1e-6, 1e-9):
        p = table1.replace(beta=beta)
        gap = abs(d2d_sinr_ccdf_underlay(p, t).values[0] - noise_only)
        d = derive(p)
        bound = d.c_mu * beta + beta ** (2.0 / p.alpha) / (2.0 * sinc_normalized(2.0 / p.alpha))
        assert gap <= bound
        if prev_gap is not None:
            assert gap < prev_gap
        prev_gap = gap
    assert prev_gap < 1e-4  # at beta = 1e-9


def test_d2d_ccdf_reduces_to_dense_cellular_form(table1):
    # q = 0 removes the D2D tier; beta = 1 leaves the unguarded cellular field
    p = table1.replace(q=0.0, beta=1.0)
    t = np.logspace(-2, 2, 20)
    mine = d2d_sinr_ccdf_underlay(p, t).values
    dense = cellular_sinr_ccdf_dense_limit(p, t).values
    assert np.allclose(mine, dense, rtol=1e-13)


def test_d2d_ccdf_rejects_zero_beta(table1):
    with pytest.raises(ParameterError):
        d2d_sinr_ccdf_underlay(table1.replace(beta=0.0))


def test_cellular_ccdf_overlay_limit(table1):
    # beta -> 0: the D2D term beta^(1-2/alpha) vanishes (alpha > 2)
    t = np.logspace(-2, 4, 60)
    base = cellular_sinr_ccdf(table1, t).values
    prev = None
    for beta in (1e-3, 1e-6, 1e-9):
        vals = cellular_sinr_ccdf_underlay(table1.replace(beta=beta), t).values
        gap = float(np.max(np.abs(vals - base)))
        if prev is not None:
            assert gap < prev
        prev = gap
    assert prev < 1e-4


def test_cellular_ccdf_no_d2d_equals_overlay(table1):
    p = table1.replace(q=0.0)
    t = np.logspace(-2, 3, 25)
    for beta in (0.1, 0.5, 1.0):
        mine = cellular_sinr_ccdf_underlay(p.replace(beta=beta), t).values
        assert np.allclose(mine, cellular_sinr_ccdf(p, t).values, rtol=1e-13)


# ---------------------------------------------------------------------------
# Spectral efficiencies
# ---------------------------------------------------------------------------

def test_d2d_efficiency_interference_free_limit(table1):
    val = d2d_spectral_efficiency_underlay(table1.replace(beta=1e-9))
    assert val == pytest.approx(r_d_max(table1), abs=1e-4)


def test_d2d_efficiency_decreasing_in_beta(table1):
    vals = [
        d2d_spectral_efficiency_underlay(table1.replace(beta=b)) for b in (0.25, 0.5, 1.0)
    ]
    assert vals[0] > vals[1] > vals[2]


def test_d2d_efficiency_scipy_rederivation_oracle(table1):
    # constants rebuilt from first principles: c = pi kappa lam_d E[L_d^2]/sinc,
    # cellular term E[P_c^(2/alpha)] pi lam_b / sinc = 1/(2 sinc)
    p = table1.replace(beta=0.7)
    alpha, b = p.alpha, 2.0 / p.alpha
    xpm2 = p.xi * math.pi * p.mu**2
    lam_d = p.q * p.lambda_ue * (1.0 - math.exp(-xpm2))
    el2 = 1.0 / (p.xi * math.pi) - p.mu**2 * math.exp(-xpm2) / (1.0 - math.exp(-xpm2))
    c = math.pi * p.kappa * lam_d * el2 / sinc_normalized(b)
    n0 = p.n0

    def f(x):
        return (
            math.exp(-n0 * x - c * p.beta * x**b - (p.beta * x) ** b / (2.0 * sinc_normalized(b)))
            / (1.0 + x)
        )

    oracle, _ = sci_integrate.quad(f, 0.0, np.inf, limit=300, epsabs=1e-12, epsrel=1e-11)
    assert d2d_spectral_efficiency_underlay(p) == pytest.approx(p.kappa * oracle, rel=1e-8)


def test_cellular_efficiency_decreasing_in_beta(table1):
    betas = np.linspace(0.1, 1.0, 10)
    vals = [cellular_spectral_efficiency_underlay(table1.replace(beta=float(b))) for b in betas]
    assert all(x > y for x, y in zip(vals, vals[1:]))


@pytest.mark.filterwarnings("ignore::UserWarning")  # scipy roundoff notice
def test_cellular_efficiency_scipy_oracle(table1):
    from scipy import special as sps

    from d2dshare.overlay import scheduling_prefactor

    p = table1.replace(beta=0.6)
    alpha, b = p.alpha, 2.0 / p.alpha
    d = derive(p)

    def jout(x):
        def g(u):
            return 1.0 - sps.hyp2f1(1.0, b, 1.0 + b, -x * u ** (-alpha / 2.0))

        val, _ = sci_integrate.quad(g, 1.0, np.inf, limit=400, epsabs=1e-12, epsrel=1e-11)
        return val

    def f(x):
        return (
            math.exp(-p.n0 * x - d.c_mu * p.beta ** (1.0 - b) * x**b - jout(x))
            / (1.0 + x)
        )

    inner, _ = sci_integrate.quad(f, 0.0, np.inf, limit=200, epsabs=1e-10, epsrel=1e-9)
    oracle = scheduling_prefactor(d.lambda_c / p.lambda_b) * inner
    assert cellular_spectral_efficiency_underlay(p) == pytest.approx(oracle, rel=1e-7)


@pytest.mark.parametrize("alpha", [2.2, 2.5])
def test_cellular_efficiency_small_alpha_scipy_oracle(table1, jout_scipy, alpha):
    # small pathloss exponents, where a quadrature for Jout converges slowest
    from d2dshare.overlay import scheduling_prefactor

    p = table1.replace(alpha=alpha, snr_m_db=10.0, beta=0.6)
    b = 2.0 / alpha
    d = derive(p)
    coef = d.c_mu * p.beta ** (1.0 - b)

    def f(x):
        return math.exp(-p.n0 * x - coef * x**b - jout_scipy(x, alpha)) / (1.0 + x)

    inner, _ = sci_integrate.quad(f, 0.0, np.inf, limit=200, epsabs=1e-12, epsrel=1e-11)
    oracle = scheduling_prefactor(d.lambda_c / p.lambda_b) * inner
    assert cellular_spectral_efficiency_underlay(p) == pytest.approx(oracle, rel=1e-7)


# ---------------------------------------------------------------------------
# Rates
# ---------------------------------------------------------------------------

def test_rates_tiny_beta_is_cellular_only(table1):
    p = table1.replace(beta=1e-9)
    rep = underlay_rates(p)
    a = 1.0 - derive(p).p_d2d_mode
    assert rep.t_d == pytest.approx(a * rep.t_c, rel=1e-6)


def test_rates_everyone_cellular(table1):
    rep = underlay_rates(table1.replace(mu=0.0))
    assert rep.t_d == pytest.approx(rep.t_c, rel=1e-14)
    assert rep.t_c == pytest.approx(rep.r_c, rel=1e-14)


def test_rates_d2d_outrate_cellular_and_offload_washout(table1):
    rep = underlay_rates(table1)
    assert rep.t_d_hat > rep.t_c
    # cellular rate stays within 10% of the no-D2D baseline: the offload gain
    # is offset by cochannel D2D interference
    baseline = cellular_spectral_efficiency(table1.replace(q=0.0))
    assert abs(rep.t_c / baseline - 1.0) < 0.10


def test_rates_mixture_identity(table1):
    for beta in (0.2, 0.6, 1.0):
        p = table1.replace(beta=beta)
        rep = underlay_rates(p)
        pd = derive(p).p_d2d_mode
        assert rep.t_d == pytest.approx((1 - pd) * rep.t_c + pd * rep.t_d_hat, rel=1e-12)


@given(beta=st.floats(0.05, 1.0), q=st.floats(0.05, 0.7), mu=st.floats(20.0, 800.0))
@settings(max_examples=15, deadline=None)
def test_ccdf_invariants_random(beta, q, mu):
    p = NetworkParams(beta=beta, q=q, mu=mu)
    for curve in (d2d_sinr_ccdf_underlay(p), cellular_sinr_ccdf_underlay(p)):
        assert np.all(np.diff(curve.values) <= 1e-15)
        assert curve.values[0] <= 1.0
        assert np.all(curve.values >= 0.0)


# ---------------------------------------------------------------------------
# Access-factor optimisation
# ---------------------------------------------------------------------------

def test_access_factor_cellular_dominated(table1):
    p = table1.replace(w_c=1.0 - 1e-6, w_d=1e-6)
    assert optimal_access_factor(p) <= 1e-4


def test_access_factor_nonincreasing_in_q(table1):
    stars = [optimal_access_factor(table1.replace(q=q)) for q in (0.1, 0.2, 0.4)]
    assert all(a >= b - 1e-6 for a, b in zip(stars, stars[1:]))
    # interior regime where the decrease is strict
    interior = [optimal_access_factor(table1.replace(q=q)) for q in (0.6, 0.8, 1.0)]
    assert all(a > b for a, b in zip(interior, interior[1:]))


def test_access_factor_local_optimality(table1):
    for q in (0.2, 0.8):
        p = table1.replace(q=q)
        star = optimal_access_factor(p)
        u_star = underlay_rates(p.replace(beta=star)).utility
        for probe in (star - 0.02, star + 0.02):
            if 1e-4 <= probe <= 1.0:
                assert u_star >= underlay_rates(p.replace(beta=probe)).utility - 1e-9


def test_access_factor_internal_grid_agrees_with_adaptive(table1):
    # the optimiser evaluates its utility on the shared rate rule with the
    # beta-independent factors hoisted; its optimum must also be a local
    # optimum of the public underlay_rates utility
    p = table1.replace(q=0.8)
    star = optimal_access_factor(p)
    assert 0.0 < star < 1.0
    u = lambda b: underlay_rates(p.replace(beta=b)).utility
    assert u(star) == pytest.approx(max(u(star - 1e-3), u(star), u(star + 1e-3)), abs=1e-7)


# ---------------------------------------------------------------------------
# Outage-constraint bounds
# ---------------------------------------------------------------------------

def test_d2d_outage_bound_slack_budget(table1):
    assert max_beta_for_d2d_outage(table1, theta_d=1.0, eps_d=1.0 - 1e-9).beta_max == 1.0


def test_d2d_outage_bound_residual(table1):
    theta, eps = 1.0, 0.1
    bound = max_beta_for_d2d_outage(table1, theta, eps)
    assert 0.0 < bound.beta_max < 1.0
    d = derive(table1)
    b = 2.0 / table1.alpha
    lhs = (
        (table1.n0 * table1.b_subchannels * theta + theta**b * d.c_mu) * bound.beta_max
        + theta**b / (2.0 * sinc_normalized(b)) * bound.beta_max**b
    )
    assert abs(lhs - (-math.log1p(-eps))) < 1e-9


def test_d2d_outage_bound_monotone_in_mu(table1):
    mus = np.linspace(20.0, 1000.0, 15)
    vals = [max_beta_for_d2d_outage(table1.replace(mu=float(m)), 1.0, 0.1).beta_max for m in mus]
    assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


def test_d2d_outage_bound_argument_validation(table1):
    with pytest.raises(ParameterError):
        max_beta_for_d2d_outage(table1, theta_d=0.0, eps_d=0.1)
    with pytest.raises(ParameterError):
        max_beta_for_d2d_outage(table1, theta_d=1.0, eps_d=1.0)


def test_cellular_outage_bound_no_d2d(table1):
    bound = max_beta_for_cellular_outage(table1.replace(q=0.0), theta_c=1.0, eps_c=0.5)
    assert bound.beta_max == 1.0 and bound.feasible


def test_cellular_outage_bound_infeasible_budget(table1):
    # eps so small that even the D2D-free terms blow the budget
    bound = max_beta_for_cellular_outage(table1, theta_c=1.0, eps_c=1e-3)
    assert bound.beta_max == 0.0
    assert not bound.feasible


def test_cellular_outage_bound_interior_residual(table1):
    theta, eps = 1.0, 0.5
    bound = max_beta_for_cellular_outage(table1, theta, eps)
    assert 0.0 < bound.beta_max < 1.0
    d = derive(table1)
    b = 2.0 / table1.alpha
    from d2dshare.overlay import outofcell_exponent

    lhs = theta**b * d.c_mu * bound.beta_max ** (1.0 - b)
    rhs = -math.log1p(-eps) - table1.n0 * table1.b_subchannels * theta - outofcell_exponent(
        theta, table1.alpha
    )
    assert abs(lhs - rhs) < 1e-9


def test_cellular_outage_bound_monotone_in_mu(table1):
    mus = np.linspace(20.0, 1000.0, 15)
    vals = [
        max_beta_for_cellular_outage(table1.replace(mu=float(m)), 1.0, 0.5).beta_max for m in mus
    ]
    assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


def test_feasible_region_nonincreasing(table1):
    mus, bd, bc, ok = feasible_beta_curves(
        table1, np.linspace(20.0, 1000.0, 20), theta_d=1.0, eps_d=0.1, theta_c=1.0, eps_c=0.5
    )
    joint = np.minimum(bd, bc)
    assert np.all(np.diff(joint) <= 1e-12)
    assert ok.all()

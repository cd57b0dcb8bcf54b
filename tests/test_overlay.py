import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate as sci_integrate
from scipy import special as sps

from d2dshare.model import NetworkParams, ParameterError, default_sinr_thresholds, derive
from d2dshare.overlay import (
    CcdfCurve,
    DegenerateRateError,
    _partition_from_rates,
    cellular_sinr_ccdf,
    cellular_sinr_ccdf_dense_limit,
    cellular_sinr_ccdf_sparse_limit,
    cellular_spectral_efficiency,
    d2d_sinr_ccdf,
    d2d_spectral_efficiency,
    joint_optimize_mu_eta,
    optimal_partition,
    outofcell_exponent,
    overlay_rates,
    r_d_max,
    r_d_min,
    rate_evaluator,
    scheduling_prefactor,
)
from d2dshare.specfun import DomainError, golden_section_minimize, sinc_normalized


# ---------------------------------------------------------------------------
# CcdfCurve container
# ---------------------------------------------------------------------------

def test_ccdf_curve_validation():
    t = np.array([0.1, 1.0, 10.0])
    CcdfCurve(thresholds=t, values=np.array([0.9, 0.5, 0.1]), kind="analytical")
    with pytest.raises(ParameterError):
        CcdfCurve(thresholds=t, values=np.array([0.5, 0.9, 0.1]), kind="analytical")
    with pytest.raises(ParameterError):
        CcdfCurve(thresholds=t, values=np.array([0.9, 0.5, -0.1]), kind="analytical")
    with pytest.raises(ParameterError):
        CcdfCurve(thresholds=np.array([1.0, 1.0, 2.0]), values=np.array([1, 1, 1.0]), kind="empirical")
    with pytest.raises(ParameterError):
        CcdfCurve(thresholds=t, values=np.array([0.9, 0.5, 0.1]), kind="other")


# ---------------------------------------------------------------------------
# D2D SINR CCDF and spectral efficiency
# ---------------------------------------------------------------------------

def test_d2d_ccdf_interference_free(table1):
    p = table1.replace(q=0.0)
    curve = d2d_sinr_ccdf(p, np.array([1.0]))
    assert curve.values[0] == pytest.approx(math.exp(-0.1), rel=1e-12)


def test_d2d_ccdf_baseline_point(table1):
    d = derive(table1)
    curve = d2d_sinr_ccdf(table1, np.array([1.0]))
    oracle = math.exp(-0.1 - d.c_mu)  # hand-plugged closed form at x = 1
    assert curve.values[0] == pytest.approx(oracle, rel=1e-14)
    assert curve.values[0] == pytest.approx(0.7596063973583906, abs=1e-12)


def test_d2d_ccdf_at_tiny_threshold(table1):
    # approach to 1 is governed by the sublinear c x^(2/alpha) term
    x = 1e-9
    d = derive(table1)
    bound = table1.n0 * x + d.c_mu * x ** (2.0 / table1.alpha)
    curve = d2d_sinr_ccdf(table1, np.array([x]))
    assert curve.values[0] == pytest.approx(1.0, abs=1.01 * bound)
    assert bound < 2e-6


def test_d2d_ccdf_pure(table1):
    a = d2d_sinr_ccdf(table1)
    b = d2d_sinr_ccdf(table1)
    assert np.array_equal(a.values, b.values)


def test_d2d_efficiency_limits(table1):
    lo = d2d_spectral_efficiency(table1.replace(mu=1e-3))
    assert lo == pytest.approx(r_d_max(table1), rel=1e-6)
    hi = d2d_spectral_efficiency(table1.replace(mu=1e4))
    assert hi == pytest.approx(r_d_min(table1), rel=1e-6)


def test_d2d_efficiency_monotone_and_bounded(table1):
    mus = np.linspace(1.0, 1200.0, 50)
    vals = np.array([d2d_spectral_efficiency(table1.replace(mu=float(m))) for m in mus])
    assert np.all(np.diff(vals) <= 1e-10)
    assert np.all(vals <= r_d_max(table1) * (1 + 1e-9))
    assert np.all(vals >= r_d_min(table1) * (1 - 1e-9))


def test_d2d_efficiency_linear_in_kappa_without_interference(table1):
    p = table1.replace(q=0.0, kappa=1.0)
    full = d2d_spectral_efficiency(p)
    half = d2d_spectral_efficiency(p.replace(kappa=0.5))
    assert half == pytest.approx(0.5 * full, rel=1e-9)


def test_d2d_efficiency_scipy_oracle(table1):
    d = derive(table1)
    b = 2.0 / table1.alpha

    def f(x):
        return math.exp(-table1.n0 * x - d.c_mu * x**b) / (1.0 + x)

    oracle, _ = sci_integrate.quad(f, 0.0, np.inf, limit=300, epsabs=1e-12, epsrel=1e-11)
    assert d2d_spectral_efficiency(table1) == pytest.approx(oracle, rel=1e-8)


def _large_alpha_point(table1, lam_over_xi):
    # alpha = 20 with a long D2D link scale: c ~ q lam/(xi sinc(0.1)) is large
    return table1.replace(alpha=20.0, q=0.5, xi=table1.lambda_ue / lam_over_xi, mu=5e5)


def test_rate_evaluator_rejects_coefficients_beyond_the_rule(table1):
    # c 2^(-120/alpha) = 15.9 here, beyond the rule's 0.1; the rule would read
    # 2.2988e-24 against quad's 3.0767e-24
    p = _large_alpha_point(table1, 10.0 * 200.0)
    assert derive(p).c_mu * 2.0 ** (-120.0 / p.alpha) > 0.1
    with pytest.raises(DomainError):
        d2d_spectral_efficiency(p)
    with pytest.raises(DomainError):
        r_d_min(p)


def test_rate_evaluator_just_inside_the_rule_matches_quad(table1):
    p = _large_alpha_point(table1, 12.0)
    d = derive(p)
    k_scaled = d.c_mu * 2.0 ** (-120.0 / p.alpha)
    assert 0.09 < k_scaled <= 0.1
    b = 2.0 / p.alpha

    def g(y):  # y = c x^b leaves a smooth integrand
        t = (y / d.c_mu) ** (1.0 / b)
        return math.exp(-p.n0 * t - y) / (1.0 + t) * t / (b * y)

    oracle, _ = sci_integrate.quad(g, 0.0, np.inf, limit=500, epsabs=0.0, epsrel=1e-13)
    assert d2d_spectral_efficiency(p) == pytest.approx(oracle, rel=1e-9)
    with pytest.raises(DomainError):
        rate_evaluator(p.n0, p.alpha)(0.1001 * 2.0 ** (120.0 / p.alpha))


# ---------------------------------------------------------------------------
# Out-of-cell exponent and cellular CCDF
# ---------------------------------------------------------------------------

@pytest.mark.filterwarnings("ignore::UserWarning")  # scipy roundoff notice at 1e-13
def test_outofcell_exponent_scipy_oracle(jout_scipy):
    x = np.concatenate((np.logspace(-3.0, 6.0, 37), [0.0499, 0.05, 0.0501]))
    for alpha in (2.1, 2.5, 3.5, 4.5, 6.0):
        assert np.allclose(outofcell_exponent(x, alpha), jout_scipy(x, alpha), rtol=1e-12, atol=0.0)
    # the closed form is the defining integral, where quad converges (its
    # u^(-alpha/2) tail is too slow below alpha = 3.5)
    for alpha in (3.5, 4.5, 6.0):
        b = 2.0 / alpha
        for x in (0.01, 0.1, 1.0, 10.0, 100.0):
            def g(u):
                return 1.0 - sps.hyp2f1(1.0, b, 1.0 + b, -x * u ** (-alpha / 2.0))

            oracle, _ = sci_integrate.quad(g, 1.0, np.inf, limit=500, epsabs=1e-13, epsrel=1e-12)
            assert outofcell_exponent(x, alpha) == pytest.approx(oracle, abs=1e-9)


def test_outofcell_exponent_is_batch_independent():
    # each entry depends on its own threshold only, not on its neighbours
    t = default_sinr_thresholds()
    for alpha in (2.1, 2.5, 3.5, 6.0):
        batch = outofcell_exponent(t, alpha)
        assert batch.shape == t.shape
        assert np.array_equal(batch, [outofcell_exponent(float(x), alpha) for x in t])
        assert np.array_equal(outofcell_exponent(t[::-1], alpha), batch[::-1])
        assert outofcell_exponent(t.reshape(6, 10), alpha).shape == (6, 10)


def test_outofcell_exponent_small_threshold_asymptote():
    # Jout(x) -> 4 x / (alpha^2 - 4) as x -> 0
    alpha = 3.5
    x = 1e-4
    assert outofcell_exponent(x, alpha) == pytest.approx(4.0 * x / (alpha**2 - 4.0), rel=1e-3)


def test_outofcell_exponent_large_threshold_asymptote():
    # Jout(x) / (x^(2/alpha) / (2 sinc)) -> 1 as x -> inf
    alpha = 3.5
    x = 1e6
    dense = x ** (2.0 / alpha) / (2.0 * sinc_normalized(2.0 / alpha))
    assert outofcell_exponent(x, alpha) == pytest.approx(dense, rel=1e-3)


def test_cellular_ccdf_at_tiny_threshold(table1):
    curve = cellular_sinr_ccdf(table1, np.array([1e-9]))
    assert curve.values[0] == pytest.approx(1.0, abs=1e-8)


def test_cellular_ccdf_scale_invariant_in_lambda_b(table1):
    # the normalised out-of-cell integral removes lambda_b entirely
    t = np.array([0.1, 1.0, 10.0])
    base = cellular_sinr_ccdf(table1, t).values
    for factor in (1e-4, 1e4):
        scaled = cellular_sinr_ccdf(table1.replace(lambda_b=factor * table1.lambda_b), t).values
        assert np.allclose(scaled, base, rtol=1e-12)


def test_cellular_ccdf_limit_forms_bracket_exact(table1):
    # noise-limited form overstates, interference-limited form understates
    t = np.array([0.1, 1.0, 10.0])
    exact = cellular_sinr_ccdf(table1, t).values
    sparse = cellular_sinr_ccdf_sparse_limit(table1, t).values
    dense = cellular_sinr_ccdf_dense_limit(table1, t).values
    assert np.all(sparse <= exact + 1e-12)
    assert np.all(dense <= exact + 1e-12)
    # and they are tight in their own regimes
    x_small = np.array([1e-4])
    assert cellular_sinr_ccdf_sparse_limit(table1, x_small).values[0] == pytest.approx(
        cellular_sinr_ccdf(table1, x_small).values[0], rel=1e-6
    )


def test_scheduling_prefactor_forms():
    assert scheduling_prefactor(1.0) == pytest.approx(1.0 - math.exp(-1.0), rel=1e-14)
    assert scheduling_prefactor(1e3) * 1e3 == pytest.approx(1.0, abs=1e-6)
    with pytest.raises(ParameterError):
        scheduling_prefactor(0.0)


def test_scheduling_prefactor_monotone_in_mu(table1):
    # larger mu offloads more UEs, so each cellular UE is scheduled more often
    mus = np.linspace(0.0, 1000.0, 40)
    from d2dshare.model import cellular_density

    vals = [scheduling_prefactor(cellular_density(table1.replace(mu=m)) / table1.lambda_b) for m in mus]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


@pytest.mark.filterwarnings("ignore::UserWarning")  # scipy roundoff notice at 1e-12
def test_cellular_efficiency_scipy_oracle(table1):
    d = derive(table1)
    alpha = table1.alpha
    b = 2.0 / alpha

    def jout(x):
        def g(u):
            return 1.0 - sps.hyp2f1(1.0, b, 1.0 + b, -x * u ** (-alpha / 2.0))

        val, _ = sci_integrate.quad(g, 1.0, np.inf, limit=400, epsabs=1e-12, epsrel=1e-11)
        return val

    def f(x):
        return math.exp(-table1.n0 * x - jout(x)) / (1.0 + x)

    inner, _ = sci_integrate.quad(f, 0.0, np.inf, limit=200, epsabs=1e-10, epsrel=1e-9)
    oracle = scheduling_prefactor(d.lambda_c / table1.lambda_b) * inner
    assert cellular_spectral_efficiency(table1) == pytest.approx(oracle, rel=1e-7)


@pytest.mark.parametrize("alpha", [2.2, 2.5])
def test_cellular_efficiency_small_alpha_scipy_oracle(table1, jout_scipy, alpha):
    # small pathloss exponents, where a quadrature for Jout converges slowest
    p = table1.replace(alpha=alpha, snr_m_db=10.0)
    d = derive(p)

    def f(x):
        return math.exp(-p.n0 * x - jout_scipy(x, alpha)) / (1.0 + x)

    inner, _ = sci_integrate.quad(f, 0.0, np.inf, limit=200, epsabs=1e-12, epsrel=1e-11)
    oracle = scheduling_prefactor(d.lambda_c / p.lambda_b) * inner
    assert cellular_spectral_efficiency(p) == pytest.approx(oracle, rel=1e-7)


# ---------------------------------------------------------------------------
# Rates and partition optimisation
# ---------------------------------------------------------------------------

def test_overlay_rates_no_d2d_spectrum(table1):
    rep = overlay_rates(table1.replace(eta=0.0))
    d = derive(table1)
    assert rep.t_d_hat == 0.0
    assert rep.t_d == pytest.approx((1.0 - d.p_d2d_mode) * rep.t_c, rel=1e-14)


def test_overlay_rates_everyone_cellular(table1):
    rep = overlay_rates(table1.replace(mu=0.0))
    assert rep.t_d == pytest.approx(rep.t_c, rel=1e-14)
    assert rep.t_c == pytest.approx((1.0 - table1.eta) * rep.r_c, rel=1e-14)


def test_overlay_rates_d2d_outrate_cellular(table1):
    rep = overlay_rates(table1)
    assert rep.t_d_hat > rep.t_c


def test_overlay_rates_mixture_identity(table1):
    for mu in (50.0, 200.0, 600.0):
        p = table1.replace(mu=mu)
        rep = overlay_rates(p)
        pd = derive(p).p_d2d_mode
        assert rep.t_d == pytest.approx((1 - pd) * rep.t_c + pd * rep.t_d_hat, rel=1e-12)


def test_overlay_rates_degenerate_eta(table1):
    with pytest.raises(DegenerateRateError):
        overlay_rates(table1.replace(eta=1.0))


def test_optimal_partition_matches_numeric_search(table1):
    p = table1.replace(bandwidth_normalization=False)
    d = derive(p)
    rc = cellular_spectral_efficiency(p)
    rd = d2d_spectral_efficiency(p)
    a = 1.0 - d.p_d2d_mode

    def neg_utility(eta):
        t_c = (1.0 - eta) * rc
        t_d = a * t_c + d.p_d2d_mode * eta * rd
        return -(p.w_c * math.log(t_c) + p.w_d * math.log(t_d))

    numeric = golden_section_minimize(neg_utility, 1e-9, 1.0 - 1e-9, tol=1e-10)
    assert optimal_partition(table1) == pytest.approx(numeric, abs=1e-4)


def test_optimal_partition_limit_is_d2d_weight(table1):
    for q in (0.1, 0.2, 0.4):
        p = table1.replace(q=q, mu=710.0)  # xi pi mu^2 > 20
        assert optimal_partition(p) == pytest.approx(table1.w_d, abs=1e-4)


def test_optimal_partition_boundary_case(table1):
    # starving D2D of any efficiency sends the optimal partition to zero
    assert _partition_from_rates(rc=1.0, rd=1e-9, w_c=0.6, w_d=0.4, xpm2=1.6) == 0.0
    assert _partition_from_rates(rc=1.0, rd=1.0, w_c=0.6, w_d=0.4, xpm2=0.0) == 0.0


@settings(max_examples=20, deadline=None)
@given(
    q=st.floats(0.05, 0.6),
    mu=st.floats(50.0, 900.0),
    kappa=st.floats(0.3, 1.0),
    snr=st.floats(0.0, 15.0),
    w_d=st.floats(0.15, 0.85),
    alpha=st.sampled_from([3.0, 3.5, 4.0]),
)
def test_optimal_partition_closed_form_random_points(q, mu, kappa, snr, w_d, alpha):
    p = NetworkParams(
        q=q, mu=mu, kappa=kappa, snr_m_db=snr, w_c=1.0 - w_d, w_d=w_d, alpha=alpha,
        bandwidth_normalization=False,
    )
    d = derive(p)
    rc = cellular_spectral_efficiency(p)
    rd = d2d_spectral_efficiency(p)
    a = 1.0 - d.p_d2d_mode

    def neg_utility(eta):
        t_c = (1.0 - eta) * rc
        t_d = a * t_c + d.p_d2d_mode * eta * rd
        return -(p.w_c * math.log(t_c) + p.w_d * math.log(t_d))

    closed = optimal_partition(p)
    if closed == 0.0:
        # boundary optimum: utility must be nonincreasing at the left edge
        assert neg_utility(1e-6) >= neg_utility(1e-9) - 1e-12
    else:
        numeric = golden_section_minimize(neg_utility, 1e-9, 1.0 - 1e-9, tol=1e-10)
        assert closed == pytest.approx(numeric, abs=1e-4)


def test_joint_optimization_single_point(table1):
    opt = joint_optimize_mu_eta(table1, [300.0])
    assert opt.mu == 300.0
    p = table1.replace(mu=300.0)
    assert opt.eta == pytest.approx(optimal_partition(p), abs=1e-10)


def test_joint_optimization_dominates_grid(table1):
    grid = np.arange(50.0, 1001.0, 50.0)
    opt = joint_optimize_mu_eta(table1, grid)

    def utility_at(mu):
        p = table1.replace(mu=float(mu), bandwidth_normalization=False)
        d = derive(p)
        rc = cellular_spectral_efficiency(p)
        rd = d2d_spectral_efficiency(p)
        eta = optimal_partition(p)
        t_c = (1.0 - eta) * rc
        t_d = (1.0 - d.p_d2d_mode) * t_c + d.p_d2d_mode * eta * rd
        return p.w_c * math.log(t_c) + p.w_d * math.log(t_d)

    for mu in grid:
        assert opt.utility >= utility_at(mu) - 1e-12


def test_joint_optimization_local_optimality(table1):
    grid = np.arange(50.0, 1001.0, 50.0)
    opt = joint_optimize_mu_eta(table1, grid)

    def utility(mu, eta):
        p = table1.replace(mu=float(mu), bandwidth_normalization=False)
        d = derive(p)
        rc = cellular_spectral_efficiency(p)
        rd = d2d_spectral_efficiency(p)
        t_c = (1.0 - eta) * rc
        t_d = (1.0 - d.p_d2d_mode) * t_c + d.p_d2d_mode * eta * rd
        return p.w_c * math.log(t_c) + p.w_d * math.log(t_d)

    for deta in (-0.05, 0.05):
        eta_probe = opt.eta + deta
        if 0.0 < eta_probe < 1.0:
            assert utility(opt.mu, opt.eta) >= utility(opt.mu, eta_probe)


def test_joint_optimum_utility_is_the_overlay_rate_report(table1):
    # the optimiser and overlay_rates share one mode mixture, so the optimum's
    # utility is exactly the one reported at (mu*, eta*)
    p = table1.replace(alpha=3.5, snr_m_db=40.0, q=0.8)
    opt = joint_optimize_mu_eta(p, np.arange(50.0, 1001.0, 50.0))
    report = overlay_rates(p.replace(mu=opt.mu, eta=opt.eta, bandwidth_normalization=False))
    assert opt.utility == report.utility

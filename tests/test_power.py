import math

import numpy as np
import pytest

from d2dshare.model import NetworkParams
from d2dshare.montecarlo import SimConfig, sample_link_powers
from d2dshare.power import (
    DegenerateModeError,
    actual_power_report,
    avg_power_cellular,
    avg_power_d2d_mode,
    avg_power_potential_d2d,
    optimal_mode_threshold,
)
from d2dshare.specfun import DomainError, golden_section_minimize


def test_cellular_power_unit_cell():
    # lambda_b = 1/pi gives R = 1, so E[L^4] = int_0^1 2 x^5 dx = 1/3
    p = NetworkParams(alpha=4.0, lambda_b=1.0 / math.pi)
    assert avg_power_cellular(p) == pytest.approx(1.0 / 3.0, rel=1e-14)


def test_cellular_power_baseline(table1):
    assert avg_power_cellular(table1) == pytest.approx(500.0**3.5 / 2.75, rel=1e-13)


def test_cellular_power_density_scaling(table1):
    ratio = avg_power_cellular(table1.replace(lambda_b=2 * table1.lambda_b)) / avg_power_cellular(table1)
    assert ratio == pytest.approx(2.0 ** (-table1.alpha / 2.0), rel=1e-13)


def test_potential_d2d_power_collapses_at_zero_mu(table1):
    p = table1.replace(mu=0.0)
    assert avg_power_potential_d2d(p) == avg_power_cellular(p)


def test_potential_d2d_power_large_mu_limit(table1):
    # mu -> inf: (xi pi)^(-a/2) Gamma(a/2 + 1)
    p = table1.replace(mu=1e6)
    limit = (p.xi * math.pi) ** (-p.alpha / 2.0) * math.gamma(p.alpha / 2.0 + 1.0)
    assert avg_power_potential_d2d(p) == pytest.approx(limit, rel=1e-9)


def test_d2d_mode_power_degenerate_at_zero(table1):
    with pytest.raises(DegenerateModeError):
        avg_power_d2d_mode(table1.replace(mu=0.0))


def test_powers_match_sampling_oracle(table1):
    sampled = sample_link_powers(
        table1, SimConfig(trials=10**6, seed=20231, scenario="link_length_sampling")
    )
    assert sampled.mean_p_cellular == pytest.approx(avg_power_cellular(table1), rel=5e-3)
    assert sampled.mean_p_potential_d2d == pytest.approx(avg_power_potential_d2d(table1), rel=5e-3)
    assert sampled.mean_p_d2d_mode == pytest.approx(avg_power_d2d_mode(table1), rel=5e-3)


def test_d2d_mode_power_increasing_in_mu(table1):
    # grid capped where xi pi mu^2 < 30 so doubles still resolve the increase
    mus = np.linspace(10.0, 800.0, 60)
    vals = [avg_power_d2d_mode(table1.replace(mu=m)) for m in mus]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_potential_d2d_power_unimodal(table1):
    # decreasing below the optimum, increasing above (finite differences)
    star = optimal_mode_threshold(table1)
    below = np.linspace(10.0, star * 0.98, 30)
    above = np.linspace(star * 1.02, 800.0, 30)
    f = lambda m: avg_power_potential_d2d(table1.replace(mu=m))
    assert all(f(b) < f(a) for a, b in zip(below, below[1:]))
    assert all(f(b) > f(a) for a, b in zip(above, above[1:]))


def test_optimal_threshold_value(table1):
    assert optimal_mode_threshold(table1) == pytest.approx(374.4953051314428, abs=1e-6)
    oracle = golden_section_minimize(
        lambda m: avg_power_potential_d2d(table1.replace(mu=m)), 1e-3, 2000.0, tol=1e-4
    )
    assert abs(optimal_mode_threshold(table1) - oracle) < 0.1


def test_optimal_threshold_monotone_in_alpha(table1):
    assert optimal_mode_threshold(table1.replace(alpha=6.0)) > optimal_mode_threshold(
        table1.replace(alpha=2.01)
    )


def test_optimal_threshold_density_scaling(table1):
    quad = table1.replace(lambda_b=4.0 * table1.lambda_b)
    assert optimal_mode_threshold(quad) == pytest.approx(
        0.5 * optimal_mode_threshold(table1), rel=1e-14
    )


def test_optimal_threshold_invariant_to_xi(table1):
    base = optimal_mode_threshold(table1)
    for factor in (0.1, 1.0, 10.0):
        p = table1.replace(xi=factor * table1.xi)
        assert abs(optimal_mode_threshold(p) - base) < 1e-9


def test_power_report_respects_ue_constraint(table1):
    report = actual_power_report(table1)
    # peak requirement at the 10 dB operating point stays below 23 dBm
    assert report.peak_cellular_dbm < 23.0
    assert report.peak_d2d_dbm < report.peak_cellular_dbm


def test_power_report_d2d_saving(table1):
    report = actual_power_report(table1)
    gap = report.avg_cellular_dbm - report.avg_d2d_dbm
    assert abs(gap - 15.0) <= 2.0


def test_power_report_linear_in_snr(table1):
    r0 = actual_power_report(table1)
    r3 = actual_power_report(table1.replace(snr_m_db=13.0))
    for name in ("avg_cellular_dbm", "avg_d2d_dbm", "peak_cellular_dbm", "peak_d2d_dbm"):
        assert getattr(r3, name) - getattr(r0, name) == pytest.approx(3.0, abs=1e-10)


def test_power_report_needs_positive_mu(table1):
    with pytest.raises(DegenerateModeError):
        actual_power_report(table1.replace(mu=0.0))


@pytest.mark.parametrize("alpha", [118.0, 120.0, 200.0])
def test_moments_without_a_finite_value_raise_domain_error(table1, alpha):
    # At the default density (pi lambda_b)^(alpha/2) underflows: the cellular
    # moment (and the potential-D2D one built on it) reads inf from alpha 115
    # and divides by zero from alpha 120; (xi pi)^(-alpha/2) overflows in the
    # D2D-mode moment by alpha 150.
    p = table1.replace(alpha=alpha)
    with pytest.raises(DomainError, match="avg_power_cellular is not a finite float"):
        avg_power_cellular(p)
    with pytest.raises(DomainError, match="not a finite float"):
        avg_power_potential_d2d(p)
    if alpha < 150.0:
        assert math.isfinite(avg_power_d2d_mode(p))
    else:
        with pytest.raises(DomainError, match="avg_power_d2d_mode is not a finite float"):
            avg_power_d2d_mode(p)


def test_finite_moments_are_unchanged_at_large_alpha(table1):
    p = table1.replace(alpha=110.0)
    assert avg_power_cellular(p) == 1.3756642459908861e+295
    assert avg_power_potential_d2d(p) == 2.7774182119530296e+294
    assert avg_power_d2d_mode(p) == 9.652947846898938e+250

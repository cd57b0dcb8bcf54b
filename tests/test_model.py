import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from d2dshare.model import (
    NetworkParams,
    ParameterError,
    cellular_density,
    d2d_density,
    d2d_distance_cdf,
    default_sinr_thresholds,
    derive,
    interference_constant,
)
from d2dshare.specfun import sinc_normalized

LAMBDA_B = 1.0 / (math.pi * 500.0**2)


def test_defaults_match_numerical_table(table1):
    assert table1.lambda_b == pytest.approx(LAMBDA_B, rel=1e-15)
    assert table1.lambda_ue == pytest.approx(10.0 * LAMBDA_B, rel=1e-15)
    assert table1.xi == pytest.approx(10.0 * LAMBDA_B, rel=1e-15)
    assert table1.q == 0.2
    assert table1.alpha == 3.5
    assert table1.snr_m_db == 10.0
    assert table1.mu == 200.0
    assert table1.kappa == 1.0
    assert table1.eta == 0.2
    assert (table1.w_c, table1.w_d) == (0.6, 0.4)
    assert table1.beta == 1.0
    assert table1.b_subchannels == 1
    assert table1.noise_psd_dbm_hz == -174.0
    assert table1.bandwidth_hz == 1e6


def test_derive_baseline_point(table1):
    d = derive(table1)
    # exponent xi pi mu^2 = 10 * 200^2 / 500^2 = 1.6, evaluated independently
    p_oracle = 1.0 - math.exp(-1.6)
    assert d.p_d2d_mode == pytest.approx(p_oracle, rel=1e-12)
    assert table1.q * d.p_d2d_mode == pytest.approx(0.1596206964, abs=1e-9)
    # hand-plugged interference constant: 0.2 (1 - 2.6 e^-1.6) / sinc(4/7)
    c_oracle = 0.2 * (1.0 - 2.6 * math.exp(-1.6)) / sinc_normalized(4.0 / 7.0)
    assert d.c_mu == pytest.approx(c_oracle, rel=1e-12)
    assert d.c_mu == pytest.approx(0.17495487807000487, abs=1e-12)
    assert table1.cell_radius == pytest.approx(500.0, rel=1e-12)
    assert table1.n0 == pytest.approx(0.1, rel=1e-15)
    assert d.lambda_c / table1.lambda_b == pytest.approx(8.403793035989313, rel=1e-12)


def test_derive_no_d2d_mode(table1):
    p = table1.replace(mu=0.0)
    d = derive(p)
    assert d.p_d2d_mode == 0.0
    assert d2d_density(p) == 0.0
    assert d.c_mu == 0.0
    assert d.lambda_c == pytest.approx(table1.lambda_ue, rel=1e-15)


def test_densities_partition_total(table1):
    for mu in (0.0, 50.0, 200.0, 1500.0):
        p = table1.replace(mu=mu)
        assert cellular_density(p) + d2d_density(p) == pytest.approx(
            p.lambda_ue, rel=1e-14
        )


def test_derive_monotonicity_in_mu(table1):
    mus = np.linspace(0.0, 2000.0, 100)
    lam_c = [cellular_density(table1.replace(mu=m)) for m in mus]
    lam_d = [d2d_density(table1.replace(mu=m)) for m in mus]
    c = [interference_constant(table1.replace(mu=m)) for m in mus]
    assert all(a >= b - 1e-18 for a, b in zip(lam_c, lam_c[1:]))
    assert all(b >= a - 1e-18 for a, b in zip(lam_d, lam_d[1:]))
    assert all(b >= a - 1e-15 for a, b in zip(c, c[1:]))


def test_interference_constant_limits(table1):
    assert interference_constant(table1.replace(mu=0.0)) == 0.0
    c_inf = (
        table1.kappa * table1.q * table1.lambda_ue
        / (table1.xi * sinc_normalized(2.0 / table1.alpha))
    )
    assert interference_constant(table1.replace(mu=1e5)) == pytest.approx(c_inf, rel=1e-12)


def test_p_d2d_equals_distance_cdf(table1):
    d = derive(table1)
    assert d.p_d2d_mode == d2d_distance_cdf(table1.xi, table1.mu)


def test_distance_cdf_values(table1):
    assert d2d_distance_cdf(table1.xi, 200.0) == pytest.approx(1.0 - math.exp(-1.6), rel=1e-12)
    assert d2d_distance_cdf(table1.xi, 0.0) == 0.0
    assert d2d_distance_cdf(1.0 / math.pi, 100.0) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ParameterError):
        d2d_distance_cdf(table1.xi, -1.0)
    with pytest.raises(ParameterError):
        d2d_distance_cdf(0.0, 1.0)


def test_derive_is_pure(table1):
    assert derive(table1) == derive(table1)


def test_parameter_validation_errors():
    with pytest.raises(ParameterError, match="alpha"):
        NetworkParams(alpha=1.5)
    with pytest.raises(ParameterError, match="alpha"):
        NetworkParams(alpha=2.0)
    with pytest.raises(ParameterError, match="w_c"):
        NetworkParams(w_c=0.7, w_d=0.4)
    with pytest.raises(ParameterError, match="q"):
        NetworkParams(q=1.2)
    with pytest.raises(ParameterError, match="lambda_b"):
        NetworkParams(lambda_b=0.0)
    with pytest.raises(ParameterError, match="b_subchannels"):
        NetworkParams(b_subchannels=0)
    with pytest.raises(ParameterError, match="mu"):
        NetworkParams(mu=-5.0)
    # NaN and infinity pass the range comparisons, so they are refused first
    with pytest.raises(ParameterError, match="alpha must be finite, got inf"):
        NetworkParams(alpha=math.inf)
    with pytest.raises(ParameterError, match="mu must be finite, got nan"):
        NetworkParams(mu=math.nan)
    with pytest.raises(ParameterError, match="snr_m_db must be finite, got -inf"):
        NetworkParams(snr_m_db=-math.inf)
    assert NetworkParams(b_subchannels=10**400).b_subchannels == 10**400


def test_derive_rejects_understocked_cells(table1):
    # all UEs in D2D mode drives lambda_c below lambda_b
    p = table1.replace(q=1.0, mu=5000.0)
    with pytest.raises(ParameterError, match="lambda_c"):
        derive(p)


def test_replace_revalidates(table1):
    with pytest.raises(ParameterError):
        table1.replace(alpha=1.0)
    assert table1.replace(mu=300.0).mu == 300.0


def test_n0_follows_snr(table1):
    assert table1.replace(snr_m_db=0.0).n0 == 1.0
    assert table1.replace(snr_m_db=20.0).n0 == pytest.approx(0.01, rel=1e-15)


def test_default_threshold_grid():
    t = default_sinr_thresholds()
    assert t.size == 60
    assert t[0] == pytest.approx(10.0 ** (-20.0 / 10.0), rel=1e-12)
    assert t[-1] == pytest.approx(10.0 ** (40.0 / 10.0), rel=1e-12)
    assert np.all(np.diff(t) > 0.0)


@given(
    q=st.floats(0.0, 0.8),
    mu=st.floats(0.0, 1500.0),
    kappa=st.floats(0.0, 1.0),
    snr=st.floats(-5.0, 20.0),
)
@settings(max_examples=60, deadline=None)
def test_derive_invariants_random(q, mu, kappa, snr):
    p = NetworkParams(q=q, mu=mu, kappa=kappa, snr_m_db=snr)
    d = derive(p)
    assert d.lambda_c + d2d_density(p) == pytest.approx(p.lambda_ue, rel=1e-12)
    assert 0.0 <= d.p_d2d_mode <= 1.0
    assert d.c_mu >= 0.0
    assert p.n0 == pytest.approx(10.0 ** (-snr / 10.0), rel=1e-14)

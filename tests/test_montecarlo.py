import hashlib
import math

import numpy as np
import pytest

from d2dshare.model import NetworkParams
from d2dshare.montecarlo import (
    SimConfig,
    SimulationConfigError,
    _hex_centers,
    _hex_side,
    _sample_in_hex,
    _trial_rng,
    sample_link_powers,
    simulate_d2d,
    simulate_uplink_hex,
)
from d2dshare.overlay import cellular_sinr_ccdf, d2d_sinr_ccdf
from d2dshare.power import avg_power_cellular, avg_power_d2d_mode, avg_power_potential_d2d
from d2dshare.underlay import d2d_sinr_ccdf_underlay


def test_sim_config_validation():
    with pytest.raises(SimulationConfigError):
        SimConfig(trials=0, seed=1, scenario="d2d_overlay")
    with pytest.raises(SimulationConfigError):
        SimConfig(trials=10, seed=1, scenario="nope")
    with pytest.raises(SimulationConfigError):
        SimConfig(trials=10, seed=1, scenario="uplink_hex", hex_rings=1)
    with pytest.raises(SimulationConfigError):
        SimConfig(trials=10, seed=1, scenario="uplink_hex", sinr_thresholds=np.array([2.0, 1.0]))


def test_trial_streams_are_independent_and_stable():
    a = _trial_rng(42, 7).random(4)
    b = _trial_rng(42, 7).random(4)
    c = _trial_rng(42, 8).random(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


# ---------------------------------------------------------------------------
# D2D scenarios
# ---------------------------------------------------------------------------

def test_d2d_reproducible(table1):
    cfg = SimConfig(trials=500, seed=99, scenario="d2d_overlay")
    out1 = simulate_d2d(table1, cfg)
    out2 = simulate_d2d(table1, cfg)
    assert np.array_equal(out1.empirical_ccdf.values, out2.empirical_ccdf.values)
    assert out1.samples_collected == out2.samples_collected == 500


def test_d2d_tracks_analytics(table1):
    cfg = SimConfig(trials=4000, seed=20231, scenario="d2d_overlay")
    out = simulate_d2d(table1, cfg)
    ana = d2d_sinr_ccdf(table1, out.empirical_ccdf.thresholds)
    assert np.max(np.abs(out.empirical_ccdf.values - ana.values)) < 0.03


# beta: (sha256 of the little-endian CCDF values, D2D window radius,
#        truncation bias of the D2D tier, of the cellular tier)
_UNDERLAY_PINS = {
    0.3: ("c4f0551fa5aeb446b31b09392fa3584aedda73d028f9f70cfca27d6a9105b596",
          7653.510758702348, 0.000468859015195817, 0.01940523694670242),
    0.5: ("41d4eda8d6b1f6d68bb0fb516e66dc1cfec75167b9a42adfa1393f4c24ef143c",
          5928.383941694697, 0.0010349225094849958, 0.03234206157783737),
    0.77: ("c2122bdb2b94ac81bba8784b5191815a3b9ba415f82d097647b7bf5273d52227",
           4777.227919776888, 0.0020209936558680877, 0.04980677482986955),
}


@pytest.mark.parametrize("beta", sorted(_UNDERLAY_PINS))
def test_underlay_outcome_is_pinned(beta):
    # the power scale leads the truncation bound, so beta moves no last bit
    ccdf_sha256, window_d2d, bias_d2d, bias_cell = _UNDERLAY_PINS[beta]
    p = NetworkParams(kappa=0.7, alpha=3.1, beta=beta)
    out = simulate_d2d(p, SimConfig(trials=2000, seed=20231, scenario="d2d_underlay"))
    values = out.empirical_ccdf.values.astype("<f8").tobytes()
    assert hashlib.sha256(values).hexdigest() == ccdf_sha256
    assert out.metadata == {
        "window_radius_d2d_m": window_d2d,
        "mean_interferers_d2d": 78.53981633974482,
        "truncation_bias_d2d": bias_d2d,
        "window_radius_cellular_m": 4431.134627263789,
        "mean_interferers_cellular": 78.5398163397448,
        "truncation_bias_cellular": bias_cell,
    }


def test_d2d_underlay_tracks_analytics(table1):
    p = table1.replace(beta=0.5)
    cfg = SimConfig(trials=4000, seed=20231, scenario="d2d_underlay")
    out = simulate_d2d(p, cfg)
    ana = d2d_sinr_ccdf_underlay(p, out.empirical_ccdf.thresholds)
    assert np.max(np.abs(out.empirical_ccdf.values - ana.values)) < 0.03


def test_d2d_interference_free(table1):
    # kappa = 0 silences every interferer: SINR is Exp(1)/N0
    p = table1.replace(kappa=0.0)
    cfg = SimConfig(trials=2000, seed=5, scenario="d2d_overlay")
    out = simulate_d2d(p, cfg)
    t = out.empirical_ccdf.thresholds
    expected = np.exp(-p.n0 * t)
    # three-sigma binomial envelope per threshold
    sigma = np.sqrt(expected * (1 - expected) / cfg.trials)
    assert np.all(np.abs(out.empirical_ccdf.values - expected) <= 3.0 * sigma + 1e-3)


def test_underlay_dominated_by_overlay_coupled_seed(table1):
    over = simulate_d2d(table1, SimConfig(trials=1500, seed=7, scenario="d2d_overlay"))
    under = simulate_d2d(table1, SimConfig(trials=1500, seed=7, scenario="d2d_underlay"))
    # beta = 1, B = 1: underlay adds a cellular field on top of the same draws
    assert np.all(under.empirical_ccdf.values <= over.empirical_ccdf.values + 1e-15)


def test_d2d_more_trials_tighten_fit(table1):
    # statistical trend over seeds, not per-seed
    devs_small, devs_large = [], []
    for seed in range(5):
        for trials, sink in ((400, devs_small), (1600, devs_large)):
            out = simulate_d2d(table1, SimConfig(trials=trials, seed=seed, scenario="d2d_overlay"))
            ana = d2d_sinr_ccdf(table1, out.empirical_ccdf.thresholds)
            sink.append(np.max(np.abs(out.empirical_ccdf.values - ana.values)))
    assert np.mean(devs_large) < np.mean(devs_small)


def test_d2d_requires_positive_mu(table1):
    with pytest.raises(SimulationConfigError):
        simulate_d2d(table1.replace(mu=0.0), SimConfig(trials=10, seed=1, scenario="d2d_overlay"))


def test_d2d_metadata_records_truncation(table1):
    out = simulate_d2d(table1, SimConfig(trials=50, seed=3, scenario="d2d_underlay"))
    assert out.metadata["window_radius_d2d_m"] > 0
    # bounds stay small relative to the equivalent noise power N0 = 0.1
    assert out.metadata["truncation_bias_d2d"] < 0.1 * table1.n0
    assert out.metadata["truncation_bias_cellular"] < 0.5 * table1.n0


# ---------------------------------------------------------------------------
# Hexagonal uplink scenario
# ---------------------------------------------------------------------------

def test_hex_geometry():
    side = _hex_side(1.0 / (math.pi * 500.0**2))
    centers, rings = _hex_centers(4, side)
    assert centers.shape == (61, 2)  # 1 + 6 + 12 + 18 + 24
    assert rings.max() == 4
    # cell area equals 1/lambda_b
    assert 1.5 * math.sqrt(3.0) * side**2 == pytest.approx(math.pi * 500.0**2, rel=1e-12)


def test_hex_sampler_stays_inside_cell(rng):
    side = 100.0
    pts = _sample_in_hex(4000, side, rng)
    sq3 = math.sqrt(3.0)
    assert np.all(np.abs(pts[:, 0]) <= sq3 / 2 * side + 1e-12)
    assert np.all(sq3 * np.abs(pts[:, 1]) + np.abs(pts[:, 0]) <= sq3 * side + 1e-12)


def test_hex_reproducible(table1):
    cfg = SimConfig(trials=60, seed=11, scenario="uplink_hex")
    a = simulate_uplink_hex(table1, cfg)
    b = simulate_uplink_hex(table1, cfg)
    assert np.array_equal(a.empirical_ccdf.values, b.empirical_ccdf.values)
    assert a.samples_collected == b.samples_collected


def test_hex_tracks_analytics(table1):
    cfg = SimConfig(trials=1500, seed=20231, scenario="uplink_hex")
    out = simulate_uplink_hex(table1, cfg)
    ana = cellular_sinr_ccdf(table1, out.empirical_ccdf.thresholds)
    assert np.max(np.abs(out.empirical_ccdf.values - ana.values)) < 0.05


def test_hex_sparse_cells_rarely_sample(table1):
    # lambda_c around lambda_b/1000: nearly every trial records no link
    p = table1.replace(lambda_ue=table1.lambda_b / 840.0)
    cfg = SimConfig(trials=3000, seed=2, scenario="uplink_hex", hex_rings=2)
    out = simulate_uplink_hex(p, cfg)
    assert 0 < out.samples_collected < cfg.trials / 100


def test_hex_run_without_samples_is_a_config_error(table1):
    p = table1.replace(lambda_ue=1e-9 * table1.lambda_b)
    cfg = SimConfig(trials=200, seed=20231, scenario="uplink_hex", hex_rings=2)
    with pytest.raises(SimulationConfigError, match="no SINR samples"):
        simulate_uplink_hex(p, cfg)


def test_hex_unit_fading_noise_only_pipeline(table1):
    # sparse network + frozen fading: isolated samples hit SNR_m exactly,
    # giving a CCDF step at the 1/N0 threshold
    p = table1.replace(lambda_ue=table1.lambda_b / 500.0)
    cfg = SimConfig(trials=4000, seed=6, scenario="uplink_hex", hex_rings=2)
    out = simulate_uplink_hex(p, cfg, unit_fading=True)
    snr_linear = 1.0 / p.n0
    t = out.empirical_ccdf.thresholds
    below = out.empirical_ccdf.values[t < snr_linear * 0.99]
    above = out.empirical_ccdf.values[t > snr_linear * 1.01]
    assert np.all(below >= 0.9)
    assert np.all(above == 0.0)


def test_hex_wrong_scenario_tag(table1):
    with pytest.raises(SimulationConfigError):
        simulate_uplink_hex(table1, SimConfig(trials=10, seed=1, scenario="d2d_overlay"))
    with pytest.raises(SimulationConfigError):
        simulate_d2d(table1, SimConfig(trials=10, seed=1, scenario="uplink_hex"))


def test_hex_metadata_guard(table1):
    out = simulate_uplink_hex(table1, SimConfig(trials=30, seed=1, scenario="uplink_hex"))
    assert out.metadata["cells_simulated"] == 61
    assert out.metadata["cells_measured"] == 19
    assert out.metadata["min_guard_distance_m"] > 1000.0


# ---------------------------------------------------------------------------
# Link-length sampling oracle
# ---------------------------------------------------------------------------

def test_sampling_matches_closed_forms(table1):
    out = sample_link_powers(
        table1, SimConfig(trials=10**6, seed=20231, scenario="link_length_sampling")
    )
    assert out.mean_p_cellular == pytest.approx(avg_power_cellular(table1), rel=5e-3)
    assert out.mean_p_potential_d2d == pytest.approx(avg_power_potential_d2d(table1), rel=5e-3)
    assert out.mean_p_d2d_mode == pytest.approx(avg_power_d2d_mode(table1), rel=5e-3)


def test_sampling_zero_mu_reuses_cellular_stream(table1):
    p = table1.replace(mu=0.0)
    out = sample_link_powers(p, SimConfig(trials=200000, seed=4, scenario="link_length_sampling"))
    assert out.mean_p_potential_d2d == out.mean_p_cellular
    assert math.isnan(out.mean_p_d2d_mode)


def test_sampling_unit_cell_moment():
    p = NetworkParams(alpha=4.0, lambda_b=1.0 / math.pi)
    out = sample_link_powers(p, SimConfig(trials=10**6, seed=20231, scenario="link_length_sampling"))
    assert out.mean_p_cellular == pytest.approx(1.0 / 3.0, rel=3e-3)


def test_sampling_scenario_tag(table1):
    with pytest.raises(SimulationConfigError):
        sample_link_powers(table1, SimConfig(trials=10, seed=1, scenario="d2d_overlay"))

"""Snapshot Monte Carlo validation of the analytical SINR distributions.

Scenarios:

* ``uplink_hex``   -- base stations on a pointy-top hexagonal grid with cell
  area 1/lambda_b; per cell a Poisson(lambda_c/lambda_b) population of
  uplink candidates, one scheduled uniformly when present; channel-inverted
  powers, independent unit-mean Rayleigh (exponential power) fading; SINR
  recorded at the central cells only, keeping the outermost rings as an
  interferer guard against boundary effects.
* ``d2d_overlay`` / ``d2d_underlay`` -- the typical D2D receiver sits at the
  origin with its transmitter at a truncated-Rayleigh distance below mu
  (channel inversion makes the typical link length cancel from the SINR);
  interfering D2D pairs form a thinned Poisson field with their own
  truncated-Rayleigh link lengths, and the underlay adds a Poisson field of
  cellular uplink interferers whose powers are scaled by the access factor.
* ``link_length_sampling`` -- plain inverse-CDF draws of cellular and D2D
  link lengths; the sample moments of L^alpha are the brute-force oracle
  for the closed-form transmit-power expressions.

Reproducibility: every trial draws from its own counter-based stream
(Philox keyed by (seed, trial index)), so trials are order-independent,
parallelisable, and the outcome is bit-identical for a fixed configuration.
Interferer fields (``_field_power``) are truncated to a disk of 10x the expected
nearest-interferer distance; ``_truncation_bias`` bounds the mean interference
dropped there and beyond the simulated hex rings, recorded in the outcome metadata.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .model import NetworkParams, cellular_density, d2d_density, d2d_distance_cdf, default_sinr_thresholds
from .overlay import CcdfCurve
from .power import avg_power_cellular, avg_power_d2d_mode

__all__ = [
    "SimulationConfigError",
    "SimConfig",
    "SimOutcome",
    "simulate_uplink_hex",
    "simulate_d2d",
    "sample_link_powers",
    "PowerSample",
]

_SCENARIOS = ("uplink_hex", "d2d_overlay", "d2d_underlay", "link_length_sampling")
_WINDOW_FACTOR = 10.0  # interferer disk radius in units of E[nearest-interferer distance]
_MASK64 = (1 << 64) - 1


class SimulationConfigError(ValueError):
    """The simulation configuration is inconsistent with the scenario."""


@dataclass(frozen=True)
class SimConfig:
    """Trial count, seed, geometry extent, threshold grid and scenario tag."""

    trials: int
    seed: int
    scenario: str
    hex_rings: int = 4
    sinr_thresholds: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise SimulationConfigError(f"trials must be >= 1, got {self.trials}")
        if self.scenario not in _SCENARIOS:
            raise SimulationConfigError(
                f"unknown scenario {self.scenario!r}; expected one of {_SCENARIOS}"
            )
        if self.hex_rings < 2:
            raise SimulationConfigError(
                "hex_rings must be >= 2 so at least one interferer ring surrounds the measured cells"
            )
        if self.sinr_thresholds is not None:
            t = np.asarray(self.sinr_thresholds, dtype=float)
            if t.ndim != 1 or t.size == 0 or np.any(t <= 0) or np.any(np.diff(t) <= 0):
                raise SimulationConfigError("sinr_thresholds must be positive and strictly increasing")

    def thresholds(self) -> np.ndarray:
        if self.sinr_thresholds is None:
            return default_sinr_thresholds()
        return np.asarray(self.sinr_thresholds, dtype=float)


@dataclass(frozen=True)
class SimOutcome:
    """Empirical CCDF plus bookkeeping for a reproducible run."""

    empirical_ccdf: CcdfCurve
    samples_collected: int
    seed: int
    metadata: dict = field(default_factory=dict)


def _trial_rng(seed: int, trial: int) -> np.random.Generator:
    key = np.array([seed & _MASK64, trial & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _empirical_ccdf(samples: np.ndarray, thresholds: np.ndarray) -> CcdfCurve:
    if samples.size == 0:
        raise SimulationConfigError("no SINR samples were collected; increase trials or density")
    s = np.sort(samples)
    n = s.size
    values = (n - np.searchsorted(s, thresholds, side="left")) / n
    return CcdfCurve(thresholds=thresholds, values=values, kind="empirical")


def _require_scenario(sim: SimConfig, *allowed: str) -> None:
    if sim.scenario not in allowed:
        names = " or ".join(repr(s) for s in allowed)
        raise SimulationConfigError(f"scenario must be {names}, got {sim.scenario!r}")


def _truncation_bias(
    scale: float, density: float, moment, params: NetworkParams, radius: float
) -> float:
    """Mean interference a field of ``density`` transmitters beyond ``radius`` adds:
    scale 2 pi density E[P] radius^(2-alpha) / (alpha-2), with E[P] = moment(params)."""
    if density <= 0.0:
        return 0.0
    a = params.alpha
    return scale * 2.0 * math.pi * density * moment(params) * radius ** (2.0 - a) / (a - 2.0)


# ---------------------------------------------------------------------------
# Hexagonal-grid uplink
# ---------------------------------------------------------------------------

def _hex_side(lambda_b: float) -> float:
    # hexagon area (3 sqrt3 / 2) s^2 = 1 / lambda_b
    return math.sqrt(2.0 / (3.0 * math.sqrt(3.0) * lambda_b))


def _hex_centers(n_rings: int, side: float) -> tuple[np.ndarray, np.ndarray]:
    """Centers and ring indices of a pointy-top hex lattice, rings 0..n_rings."""
    sq3 = math.sqrt(3.0)
    centers = [(0.0, 0.0)]
    rings = [0]
    for k in range(1, n_rings + 1):
        qq, rr = 0, -k
        for dq, dr in ((1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1)):
            for _ in range(k):
                centers.append((sq3 * side * (qq + rr / 2.0), 1.5 * side * rr))
                rings.append(k)
                qq += dq
                rr += dr
    return np.asarray(centers), np.asarray(rings)


def _sample_in_hex(n: int, side: float, gen: np.random.Generator) -> np.ndarray:
    """n points uniform in the pointy-top hexagon of side ``side`` at the origin."""
    out = np.empty((n, 2))
    got = 0
    sq3 = math.sqrt(3.0)
    while got < n:
        m = max(8, int((n - got) * 1.5))
        x = gen.uniform(-sq3 / 2.0 * side, sq3 / 2.0 * side, m)
        y = gen.uniform(-side, side, m)
        keep = sq3 * np.abs(y) + np.abs(x) <= sq3 * side
        xs, ys = x[keep], y[keep]
        take = min(xs.size, n - got)
        out[got:got + take, 0] = xs[:take]
        out[got:got + take, 1] = ys[:take]
        got += take
    return out


def simulate_uplink_hex(
    params: NetworkParams, sim: SimConfig, unit_fading: bool = False
) -> SimOutcome:
    """Hex-grid uplink snapshot simulation of the cellular SINR CCDF.

    Cells on rings 0..hex_rings are simulated; SINR is measured only in
    rings 0..hex_rings-2 so every measured cell is buffered by at least two
    interferer rings.  Per trial, each cell independently holds a
    Poisson(lambda_c/lambda_b) candidate population and schedules one
    uniformly positioned transmitter when nonempty (an exact reformulation
    of scattering Poisson(lambda_c |C|) transmitters uniformly over the
    region and picking one per cell).  ``unit_fading`` freezes all fading
    gains at 1 for pipeline diagnostics.
    """
    _require_scenario(sim, "uplink_hex")
    side = _hex_side(params.lambda_b)
    centers, rings = _hex_centers(sim.hex_rings, side)
    measured = np.where(rings <= sim.hex_rings - 2)[0]
    alpha, n0 = params.alpha, params.n0
    occupancy = -math.expm1(-cellular_density(params) / params.lambda_b)

    per_trial = []
    for t in range(sim.trials):
        gen = _trial_rng(sim.seed, t)
        occ = gen.random(centers.shape[0]) < occupancy
        idx = np.flatnonzero(occ)
        local = _sample_in_hex(idx.size, side, gen)
        power = np.hypot(local[:, 0], local[:, 1]) ** alpha
        shape = (idx.size, measured.size)
        fades = np.ones(shape) if unit_fading else gen.standard_exponential(shape)
        diff = (centers[idx] + local)[:, None, :] - centers[None, measured, :]
        dist = np.hypot(diff[..., 0], diff[..., 1])
        contrib = power[:, None] * fades * dist ** (-alpha)
        # one sample per occupied measured cell (column); the signal is the fade
        # of its own transmitter (row), whose power * dist^-alpha == 1
        cols = np.flatnonzero(occ[measured])
        rows = np.searchsorted(idx, measured[cols])
        interference = contrib.sum(axis=0)[cols] - contrib[rows, cols]
        per_trial.append(fades[rows, cols] / (n0 + interference))

    samples = np.concatenate(per_trial)

    # nearest un-simulated interferer ring bounds the truncated far field
    outer_centers, _ = _hex_centers(sim.hex_rings + 1, side)
    gap = centers[measured][:, None, :] - outer_centers[None, centers.shape[0]:, :]
    guard = float(np.min(np.hypot(gap[..., 0], gap[..., 1])))
    return SimOutcome(
        empirical_ccdf=_empirical_ccdf(samples, sim.thresholds()),
        samples_collected=int(samples.size),
        seed=sim.seed,
        metadata={
            "cells_simulated": int(centers.shape[0]),
            "cells_measured": int(measured.size),
            "occupancy_probability": occupancy,
            "min_guard_distance_m": guard,
            "truncated_interference_mean_bound": _truncation_bias(
                1.0, params.lambda_b, avg_power_cellular, params, guard
            ),
        },
    )


# ---------------------------------------------------------------------------
# D2D link simulation (overlay / underlay)
# ---------------------------------------------------------------------------

def _truncated_rayleigh(gen: np.random.Generator, n: int, xi: float, mu: float) -> np.ndarray:
    """Inverse-CDF draws of the pair distance conditioned below mu."""
    cap = d2d_distance_cdf(xi, mu)
    u = gen.random(n)
    return np.sqrt(-np.log1p(-u * cap) / (xi * math.pi))


def _disk_lengths(gen: np.random.Generator, n: int, radius: float) -> np.ndarray:
    """Distances of n points uniform in the disk of ``radius`` from its centre."""
    return radius * np.sqrt(gen.random(n))


def _window(density: float) -> tuple[float, float]:
    """Radius of the interferer disk and the mean number of interferers in it."""
    if density <= 0.0:
        return 0.0, 0.0
    radius = _WINDOW_FACTOR / (2.0 * math.sqrt(density))
    return radius, density * math.pi * radius**2


def _field_power(gen, mean_n: float, radius: float, lengths, scale: float, alpha: float) -> float:
    """Received power at the origin from a Poisson field in the disk of ``radius``,
    each interferer sending scale * length^alpha; draws the count, the radii,
    the link lengths (``lengths(gen, n)``) and the fades, in that order."""
    if mean_n <= 0.0:
        return 0.0
    n = gen.poisson(mean_n)
    if not n:
        return 0.0
    radii = _disk_lengths(gen, n, radius)
    powers = lengths(gen, n) ** alpha
    fades = gen.standard_exponential(n)
    return scale * float((powers * fades * radii ** (-alpha)).sum())


def simulate_d2d(params: NetworkParams, sim: SimConfig) -> SimOutcome:
    """Monte Carlo CCDF of the typical D2D link SINR.

    Overlay: interferers are the Aloha-thinned D2D field with intensity
    kappa lambda_d.  Underlay: per accessed subchannel the D2D field thins
    to kappa beta lambda_d and a cellular field of intensity lambda_b is
    added; power splitting across the beta B accessed subchannels is folded
    into the SINR as G0 / (N0 + I_d2d + beta I_cell), the received-power
    normalised form whose distribution the underlay D2D CCDF describes.
    The typical pair's own length cancels under channel inversion and is
    not drawn.
    """
    _require_scenario(sim, "d2d_overlay", "d2d_underlay")
    underlay = sim.scenario == "d2d_underlay"
    if params.mu <= 0.0:
        raise SimulationConfigError("the typical D2D link needs mu > 0")
    if underlay and not (0.0 < params.beta <= 1.0):
        raise SimulationConfigError("underlay simulation needs beta in (0, 1]")

    alpha, n0, beta = params.alpha, params.n0, params.beta
    dens_d2d = params.kappa * d2d_density(params) * (beta if underlay else 1.0)
    dens_cell = params.lambda_b if underlay else 0.0
    w_d2d, mean_n_d2d = _window(dens_d2d)
    w_cell, mean_n_cell = _window(dens_cell)
    d2d_lengths = functools.partial(_truncated_rayleigh, xi=params.xi, mu=params.mu)
    cell_lengths = functools.partial(_disk_lengths, radius=params.cell_radius)
    sinr = np.empty(sim.trials)
    for t in range(sim.trials):
        gen = _trial_rng(sim.seed, t)
        g0 = gen.standard_exponential()
        interference = _field_power(gen, mean_n_d2d, w_d2d, d2d_lengths, 1.0, alpha)
        interference += _field_power(gen, mean_n_cell, w_cell, cell_lengths, beta, alpha)
        sinr[t] = g0 / (n0 + interference)

    meta = {
        "window_radius_d2d_m": w_d2d,
        "mean_interferers_d2d": mean_n_d2d,
        "truncation_bias_d2d": _truncation_bias(1.0, dens_d2d, avg_power_d2d_mode, params, w_d2d),
    }
    if underlay:
        meta.update(
            window_radius_cellular_m=w_cell,
            mean_interferers_cellular=mean_n_cell,
            truncation_bias_cellular=_truncation_bias(
                beta, dens_cell, avg_power_cellular, params, w_cell
            ),
        )
    return SimOutcome(
        empirical_ccdf=_empirical_ccdf(sinr, sim.thresholds()),
        samples_collected=sim.trials,
        seed=sim.seed,
        metadata=meta,
    )


# ---------------------------------------------------------------------------
# Link-length sampling oracle for the power statistics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PowerSample:
    """Sample means of L^alpha under the mode-selection split."""

    mean_p_cellular: float
    mean_p_potential_d2d: float
    mean_p_d2d_mode: float
    draws: int


_SAMPLE_CHUNK = 2_000_000


def sample_link_powers(params: NetworkParams, sim: SimConfig) -> PowerSample:
    """Brute-force moments of the transmit powers by inverse-CDF sampling.

    Cellular lengths via L = R sqrt(U); pair distances via the Rayleigh
    inverse CDF.  A UE with D2D traffic transmits at D^alpha when D < mu and
    reuses the paired cellular draw otherwise, so at mu = 0 the potential-D2D
    stream equals the cellular stream exactly.  ``sim.trials`` is the number
    of draws.  The conditional D2D-mode mean is NaN when no draw lands below
    mu.
    """
    _require_scenario(sim, "link_length_sampling")
    gen = _trial_rng(sim.seed, 0)
    alpha = params.alpha
    r = params.cell_radius
    xip = params.xi * math.pi

    sum_pc = 0.0
    sum_pd = 0.0
    sum_hat = 0.0
    n_hat = 0
    for done in range(0, sim.trials, _SAMPLE_CHUNK):
        n = min(_SAMPLE_CHUNK, sim.trials - done)
        lc = _disk_lengths(gen, n, r)
        d = np.sqrt(gen.standard_exponential(n) / xip)
        pc = lc**alpha
        mask = d < params.mu
        pd = np.where(mask, d**alpha, pc)
        sum_pc += float(pc.sum())
        sum_pd += float(pd.sum())
        sum_hat += float((d[mask] ** alpha).sum())
        n_hat += int(mask.sum())

    return PowerSample(
        mean_p_cellular=sum_pc / sim.trials,
        mean_p_potential_d2d=sum_pd / sim.trials,
        mean_p_d2d_mode=(sum_hat / n_hat) if n_hat else math.nan,
        draws=sim.trials,
    )

"""Transmit-power statistics under channel inversion and the power-optimal
mode-selection threshold.

Virtual powers are link lengths raised to the pathloss exponent (see the
units note in :mod:`d2dshare.model`).  The closed forms:

    E[P_c]      = 1 / ((1 + a/2) pi^(a/2) lambda_b^(a/2)),  a = alpha
    E[P_d]      = e^(-xi pi mu^2) E[P_c]
                  + (xi pi)^(-a/2) gamma(a/2 + 1, xi pi mu^2)
    E[P_d_hat]  = (xi pi)^(-a/2) gamma(a/2 + 1, xi pi mu^2)
                  / (1 - e^(-xi pi mu^2))

and the threshold minimising E[P_d] is mu* = E[P_c]^(1/alpha), independent
of the pair-distance distribution.  ``actual_power_report`` maps virtual
powers to dBm for a chosen operating SNR, noise PSD and bandwidth.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .model import NetworkParams, linear_to_db
from .specfun import DomainError, lower_incomplete_gamma

__all__ = [
    "DegenerateModeError",
    "PowerReport",
    "avg_power_cellular",
    "avg_power_potential_d2d",
    "avg_power_d2d_mode",
    "optimal_mode_threshold",
    "actual_power_report",
]


class DegenerateModeError(ValueError):
    """The D2D-mode conditioning event has probability zero (mu = 0)."""


def _finite_moment(moment):
    """Raise :class:`DomainError` where ``moment`` has no finite float value, as at
    large alpha, where it reads inf, divides by zero or overflows."""

    @functools.wraps(moment)
    def checked(params: NetworkParams, *args, **kwargs) -> float:
        try:
            value = moment(params, *args, **kwargs)
        except (OverflowError, ZeroDivisionError):
            value = math.inf
        if not math.isfinite(value):
            raise DomainError(f"{moment.__name__} is not a finite float at alpha={params.alpha}")
        return value

    return checked


@_finite_moment
def avg_power_cellular(params: NetworkParams) -> float:
    """Mean virtual transmit power of a cellular-mode link."""
    a = params.alpha
    return 1.0 / ((1.0 + a / 2.0) * (math.pi * params.lambda_b) ** (a / 2.0))


@_finite_moment
def avg_power_potential_d2d(params: NetworkParams) -> float:
    """Mean virtual transmit power of a UE with D2D traffic (either mode)."""
    m = params.mu
    a = params.alpha
    xp = params.xi * math.pi
    e = math.exp(-xp * m * m)
    return e * avg_power_cellular(params) + xp ** (-a / 2.0) * lower_incomplete_gamma(
        a / 2.0 + 1.0, xp * m * m
    )


@_finite_moment
def avg_power_d2d_mode(params: NetworkParams) -> float:
    """Mean virtual transmit power conditioned on D2D mode (D < mu).

    Raises :class:`DegenerateModeError` at mu = 0, where the conditioning
    event has probability zero and the expectation is undefined.
    """
    m = params.mu
    if m <= 0.0:
        raise DegenerateModeError(
            "avg_power_d2d_mode is undefined at mu <= 0: the D2D-mode event has probability 0"
        )
    a = params.alpha
    xp = params.xi * math.pi
    denom = -math.expm1(-xp * m * m)
    return xp ** (-a / 2.0) * lower_incomplete_gamma(a / 2.0 + 1.0, xp * m * m) / denom


def optimal_mode_threshold(params: NetworkParams) -> float:
    """Distance threshold minimising E[P_d]: mu* = E[P_c]^(1/alpha).

    Depends only on alpha and the base-station density; in particular it is
    invariant to the pair-distance parameter xi.
    """
    a = params.alpha
    return (1.0 / (1.0 + a / 2.0)) ** (1.0 / a) * math.sqrt(1.0 / (math.pi * params.lambda_b))


@dataclass(frozen=True)
class PowerReport:
    """Actual transmit powers in dBm at the configured operating point."""

    avg_cellular_dbm: float
    avg_d2d_dbm: float
    peak_cellular_dbm: float
    peak_d2d_dbm: float


def actual_power_report(params: NetworkParams) -> PowerReport:
    """Map virtual powers to dBm.

    The scale factor is N0_tilde * B_w * SNR_m (all linear): the power a unit
    virtual-power transmitter needs so the mean received SNR hits the target.
    Peak powers are the cell-edge (length R) and mode-threshold (length mu)
    requirements.
    """
    if params.mu <= 0.0:
        raise DegenerateModeError("actual_power_report requires mu > 0 for the D2D columns")
    scale_dbm = params.noise_psd_dbm_hz + linear_to_db(params.bandwidth_hz) + params.snr_m_db
    r = math.sqrt(1.0 / (math.pi * params.lambda_b))
    a = params.alpha
    return PowerReport(
        avg_cellular_dbm=scale_dbm + linear_to_db(avg_power_cellular(params)),
        avg_d2d_dbm=scale_dbm + linear_to_db(avg_power_d2d_mode(params)),
        peak_cellular_dbm=scale_dbm + a * linear_to_db(r),
        peak_d2d_dbm=scale_dbm + a * linear_to_db(params.mu),
    )

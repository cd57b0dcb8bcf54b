"""Network model: every symbol of the hybrid cellular/D2D uplink in one record.

Units convention
----------------
Densities are in m^-2, distances in m, and powers in the normalised
"virtual power" units of channel inversion: a transmitter at link length L
uses power L^alpha so that its mean received power is exactly 1.  The
equivalent noise is then N0 = 1/SNR_m (linear).  dB <-> linear conversion
happens only at this module's boundary; physical watts reappear only in the
transmit-power report of the ``power`` module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .specfun import sinc_normalized

__all__ = [
    "ParameterError",
    "NetworkParams",
    "DerivedQuantities",
    "derive",
    "d2d_distance_cdf",
    "default_sinr_thresholds",
    "linear_to_db",
]

_W_SUM_TOL = 1e-12


class ParameterError(ValueError):
    """A parameter combination violates a model invariant."""


def linear_to_db(x: float) -> float:
    if x <= 0.0:
        raise ParameterError(f"cannot convert non-positive value {x} to dB")
    return 10.0 * math.log10(x)


# Default cell radius 500 m: one base station per pi * 500^2 m^2.
_LAMBDA_B_DEFAULT = 1.0 / (math.pi * 500.0**2)


@dataclass(frozen=True)
class NetworkParams:
    """All model parameters, validated on construction.

    ``lambda_b``    base-station density [m^-2]
    ``lambda_ue``   transmit-UE density [m^-2]
    ``xi``          D2D link-length parameter of the Rayleigh pair distance [m^-2]
    ``q``           fraction of UEs carrying D2D traffic, in [0, 1]
    ``alpha``       pathloss exponent, > 2
    ``snr_m_db``    operating-regime mean received SNR [dB]
    ``mu``          distance threshold for selecting D2D mode [m]
    ``kappa``       Aloha access probability of D2D-mode links, in [0, 1]
    ``eta``         overlay spectrum partition assigned to D2D, in [0, 1]
    ``beta``        underlay spectrum access factor, in [0, 1]
    ``b_subchannels``   number of subchannels B (underlay bookkeeping)
    ``w_c, w_d``    proportional-fair weights, positive, summing to 1
    ``noise_psd_dbm_hz``   thermal noise PSD [dBm/Hz] (power report only)
    ``bandwidth_hz``       channel bandwidth [Hz] (power report only)
    ``bandwidth_normalization``  rescale per-link noise by the accessed
                    overlay bandwidth share when computing overlay rates
    """

    lambda_b: float = _LAMBDA_B_DEFAULT
    lambda_ue: float = 10.0 * _LAMBDA_B_DEFAULT
    xi: float = 10.0 * _LAMBDA_B_DEFAULT
    q: float = 0.2
    alpha: float = 3.5
    snr_m_db: float = 10.0
    mu: float = 200.0
    kappa: float = 1.0
    eta: float = 0.2
    beta: float = 1.0
    b_subchannels: int = 1
    w_c: float = 0.6
    w_d: float = 0.4
    noise_psd_dbm_hz: float = -174.0
    bandwidth_hz: float = 1e6
    bandwidth_normalization: bool = True

    def __post_init__(self) -> None:
        for name in ("lambda_b", "lambda_ue", "xi"):
            if not (getattr(self, name) > 0.0):
                raise ParameterError(f"{name} must be strictly positive")
        if not (self.alpha > 2.0):
            raise ParameterError(
                f"alpha must exceed 2 for interference integrals to converge, got {self.alpha}"
            )
        for name in ("q", "kappa", "eta", "beta"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise ParameterError(f"{name} must lie in [0, 1], got {v}")
        if self.mu < 0.0:
            raise ParameterError(f"mu must be nonnegative, got {self.mu}")
        if not (self.w_c > 0.0 and self.w_d > 0.0):
            raise ParameterError("w_c and w_d must be strictly positive")
        if abs(self.w_c + self.w_d - 1.0) > _W_SUM_TOL:
            raise ParameterError(
                f"w_c + w_d must equal 1 within {_W_SUM_TOL}, got {self.w_c + self.w_d}"
            )
        if int(self.b_subchannels) != self.b_subchannels or self.b_subchannels < 1:
            raise ParameterError(f"b_subchannels must be a positive integer, got {self.b_subchannels}")
        if not (self.bandwidth_hz > 0.0):
            raise ParameterError("bandwidth_hz must be strictly positive")

    def replace(self, **changes) -> "NetworkParams":
        """Return a validated copy with the given fields replaced."""
        current = {f.name: getattr(self, f.name) for f in fields(self)}
        current.update(changes)
        return NetworkParams(**current)

    @property
    def n0(self) -> float:
        """Equivalent noise power N0 = 1/SNR_m in received-power units."""
        return 10.0 ** (-self.snr_m_db / 10.0)

    @property
    def cell_radius(self) -> float:
        """Equal-area disk radius R = sqrt(1/(pi lambda_b)) of a cell [m]."""
        return math.sqrt(1.0 / (math.pi * self.lambda_b))


@dataclass(frozen=True)
class DerivedQuantities:
    """The per-mu quantities that need :func:`derive`'s lambda_c >= lambda_b check.

    ``lambda_c``    density of cellular-mode transmitters [m^-2]
    ``p_d2d_mode``  P(D < mu), the D2D mode-selection probability
    ``c_mu``        D2D interference constant in the SINR CCDF exponent

    N0 and the cell radius are :class:`NetworkParams` properties, and the
    D2D-mode density is :func:`d2d_density`.
    """

    lambda_c: float
    p_d2d_mode: float
    c_mu: float


def d2d_distance_cdf(xi: float, x: float) -> float:
    """CDF of the Rayleigh D2D pair distance: P(D <= x) = 1 - exp(-xi pi x^2)."""
    if not (xi > 0.0):
        raise ParameterError(f"xi must be strictly positive, got {xi}")
    if x < 0.0:
        raise ParameterError(f"distance must be nonnegative, got {x}")
    return -math.expm1(-xi * math.pi * x * x)


def interference_constant(params: NetworkParams) -> float:
    """D2D interference constant c(mu) without the scheduling-feasibility check.

    c = kappa q (lam/xi - (lam/xi + lam pi mu^2) e^(-xi pi mu^2)) / sinc(2/alpha);
    zero at mu = 0 and increasing to kappa q lam / (xi sinc(2/alpha)).
    """
    lam, xi, m = params.lambda_ue, params.xi, params.mu
    e = math.exp(-xi * math.pi * m * m)
    raw = lam / xi - (lam / xi + lam * math.pi * m * m) * e
    c = params.kappa * params.q * raw / sinc_normalized(2.0 / params.alpha)
    # raw is >= 0 analytically; clamp float dust at mu ~ 0
    return max(c, 0.0)


def cellular_density(params: NetworkParams) -> float:
    """Density of cellular-mode transmitters (cellular UEs + far D2D pairs)."""
    e = math.exp(-params.xi * math.pi * params.mu * params.mu)
    return (1.0 - params.q) * params.lambda_ue + params.q * params.lambda_ue * e


def d2d_density(params: NetworkParams) -> float:
    """Density of D2D-mode transmitters."""
    return params.q * params.lambda_ue * d2d_distance_cdf(params.xi, params.mu)


def derive(params: NetworkParams) -> DerivedQuantities:
    """Compute shared derived quantities, enforcing the scheduling assumption.

    Raises :class:`ParameterError` when lambda_c < lambda_b (fewer uplink
    transmitters than base stations), which the cellular scheduling analysis
    assumes away.
    """
    lam_c = cellular_density(params)
    if lam_c < params.lambda_b:
        raise ParameterError(
            "invariant lambda_c >= lambda_b violated: "
            f"lambda_c={lam_c:.6g} < lambda_b={params.lambda_b:.6g}"
        )
    return DerivedQuantities(
        lambda_c=lam_c,
        p_d2d_mode=d2d_distance_cdf(params.xi, params.mu),
        c_mu=interference_constant(params),
    )


def default_sinr_thresholds() -> np.ndarray:
    """The default CCDF grid: 60 log-spaced SINR points spanning -20..40 dB."""
    return np.logspace(-2.0, 4.0, 60)

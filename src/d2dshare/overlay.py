"""Overlay in-band D2D analytics.

Cellular and D2D transmissions occupy orthogonal spectrum fractions
(1 - eta) and eta.  The SINR distributions in virtual-power units:

    D2D link:       P(SINR >= x) = exp(-N0 x - c x^(2/alpha))
    cellular link:  P(SINR >= x) = exp(-N0 x - Jout(x))

where c is the D2D interference constant from the model module and
Jout(x) is the out-of-cell uplink interference exponent

    Jout(x) = int_1^inf (1 - 2F1(1, 2/a; 1+2/a; -x u^(-a/2))) du,   a = alpha,

obtained from the ring integral 2 pi lambda_b int_R^inf (...) r dr by the
substitution u = (r/R)^2 (which also shows Jout does not depend on the
base-station density).  :func:`outofcell_exponent` evaluates it in closed
form.  Every link, overlay or underlay, has the law exp(-N0 x - k x^(2/alpha)
[- Jout(x)]) with its own coefficient k: :func:`link_ccdf` tabulates it and
:func:`rate_evaluator` gives its ergodic rate integral as one dot product on
the fixed rule :func:`~d2dshare.specfun.rate_rule`.  :meth:`RateReport.mix`
weights the efficiencies by bandwidth share and mode, and the weighted
proportional-fair partition eta* has the closed form of
:func:`optimal_partition`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .model import NetworkParams, ParameterError, default_sinr_thresholds, derive
from .specfun import (
    DomainError,
    exp_integral_e1,
    golden_section_minimize,
    hyp2f1_kernel,
    rate_rule,
    sinc_normalized,
)

__all__ = [
    "DegenerateRateError",
    "CcdfCurve",
    "RateReport",
    "JointOptimum",
    "outofcell_exponent",
    "link_ccdf",
    "rate_evaluator",
    "d2d_sinr_ccdf",
    "d2d_spectral_efficiency",
    "r_d_max",
    "r_d_min",
    "cellular_sinr_ccdf",
    "cellular_sinr_ccdf_sparse_limit",
    "cellular_sinr_ccdf_dense_limit",
    "scheduling_prefactor",
    "cellular_spectral_efficiency",
    "overlay_rates",
    "optimal_partition",
    "joint_optimize_mu_eta",
]


class DegenerateRateError(ValueError):
    """A rate is zero where its logarithm is needed (utility would be -inf)."""


@dataclass(frozen=True)
class CcdfCurve:
    """A tabulated SINR complementary CDF.

    ``thresholds`` are strictly increasing positive linear SINR values,
    ``values`` the matching P(SINR >= x), nonincreasing in [0, 1].
    ``kind`` tags the curve as analytical or empirical.
    """

    thresholds: np.ndarray
    values: np.ndarray
    kind: str

    def __post_init__(self) -> None:
        t = np.asarray(self.thresholds, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if self.kind not in ("analytical", "empirical"):
            raise ParameterError(f"kind must be 'analytical' or 'empirical', got {self.kind!r}")
        if t.ndim != 1 or v.shape != t.shape:
            raise ParameterError("thresholds and values must be 1-d arrays of equal length")
        if t.size == 0 or not np.all(t[0] > 0.0) or np.any(np.diff(t) <= 0.0):
            raise ParameterError("thresholds must be strictly increasing and positive")
        if np.any(v < -1e-15) or np.any(v > 1.0 + 1e-15):
            raise ParameterError("CCDF values must lie in [0, 1]")
        if np.any(np.diff(v) > 1e-12):
            raise ParameterError("CCDF values must be nonincreasing")
        t.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "thresholds", t)
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class RateReport:
    """Spectral efficiencies, per-class rates and proportional-fair utility.

    ``t_d`` always satisfies the mode-mixture identity
    t_d = P(D >= mu) t_c + P(D < mu) t_d_hat by construction.
    """

    r_c: float
    r_d: float
    t_c: float
    t_d: float
    t_d_hat: float
    utility: float

    def __post_init__(self) -> None:
        for name in ("r_c", "r_d", "t_c", "t_d", "t_d_hat"):
            if getattr(self, name) < 0.0:
                raise ParameterError(f"{name} must be nonnegative")

    @classmethod
    def mix(cls, params: NetworkParams, p_d2d: float, r_c: float, share_c: float,
            r_d: float, share_d: float) -> "RateReport":
        """Rates and utility from the two efficiencies and their bandwidth shares.

        T_c = share_c R_c and T_d_hat = share_d R_d; a potential-D2D user is in
        D2D mode with probability ``p_d2d``, so T_d = (1 - p_d2d) T_c +
        p_d2d T_d_hat.  The utility w_c log T_c + w_d log T_d raises
        :class:`DegenerateRateError` when either rate is zero.
        """
        t_c = share_c * r_c
        t_d_hat = share_d * r_d
        t_d = (1.0 - p_d2d) * t_c + p_d2d * t_d_hat
        if t_c <= 0.0 or t_d <= 0.0:
            raise DegenerateRateError(
                f"proportional-fair utility is -inf at T_c={t_c:.3g}, T_d={t_d:.3g}"
            )
        utility = params.w_c * math.log(t_c) + params.w_d * math.log(t_d)
        return cls(r_c=r_c, r_d=r_d, t_c=t_c, t_d=t_d, t_d_hat=t_d_hat, utility=utility)


# ---------------------------------------------------------------------------
# Out-of-cell uplink interference exponent
# ---------------------------------------------------------------------------

_SERIES_X = 0.05  # below it Jout is summed from its Maclaurin series


def outofcell_exponent(x, alpha: float):
    """Jout(x): the cellular out-of-cell interference exponent, vectorised.

    Exact closed form in F(c; x) = 2F1(1, c; 1+c; -x) (``hyp2f1_kernel``),
    with b = 2/alpha:

        Jout(x) = b x / (2 (1 - b)) F(1 - b; x) - (1 - F(b; x)) / 2.

    Expanding 1 - F termwise under the u-integral gives the Maclaurin series
    b^2 sum_k (-1)^(k+1) x^k / (k^2 - b^2); splitting b^2/(k^2 - b^2) by
    partial fractions turns its two halves into the series of F(1 - b; x) and
    F(b; x), and analytic continuation extends the identity to every x >= 0
    (DLMF 15.2, https://dlmf.nist.gov/15.2).  Below x = 0.05 the series
    itself is summed (14 terms), avoiding the cancellation in 1 - F.  Each
    entry depends only on its own x.
    """
    if not (alpha > 2.0):
        raise ParameterError(f"alpha must exceed 2, got {alpha}")
    x_arr = np.asarray(x, dtype=float)
    if np.any(x_arr < 0.0):
        raise ParameterError("SINR threshold must be nonnegative")
    b = 2.0 / alpha
    xs = np.atleast_1d(x_arr)
    out = np.empty_like(xs)
    small = xs < _SERIES_X
    k = np.arange(14.0, 0.0, -1.0)  # highest power first, as np.polyval wants
    series = np.append((-1.0) ** (k + 1.0) * b * b / (k * k - b * b), 0.0)
    out[small] = np.polyval(series, xs[small])
    big = xs[~small]
    out[~small] = (
        b * big / (2.0 * (1.0 - b)) * hyp2f1_kernel(1.0 - b, big)
        - 0.5 * (1.0 - hyp2f1_kernel(b, big))
    )
    return float(out[0]) if x_arr.ndim == 0 else out


# ---------------------------------------------------------------------------
# SINR CCDFs
# ---------------------------------------------------------------------------

def _as_threshold_array(thresholds) -> np.ndarray:
    t = default_sinr_thresholds() if thresholds is None else np.asarray(thresholds, dtype=float)
    if np.any(t <= 0.0):
        raise ParameterError("SINR thresholds must be strictly positive")
    return t


def link_ccdf(params: NetworkParams, k: float, thresholds=None, outofcell: bool = False) -> CcdfCurve:
    """The SINR law exp(-N0 x - k x^(2/alpha) [- Jout(x)]) of every link.

    Uses only N0 and alpha of ``params``; ``k`` is the link's interference
    coefficient and ``outofcell`` adds the out-of-cell exponent of uplinks.
    """
    t = _as_threshold_array(thresholds)
    exponent = params.n0 * t + k * t ** (2.0 / params.alpha)
    if outofcell:
        exponent = exponent + outofcell_exponent(t, params.alpha)
    return CcdfCurve(thresholds=t, values=np.exp(-exponent), kind="analytical")


def d2d_sinr_ccdf(params: NetworkParams, thresholds=None) -> CcdfCurve:
    """CCDF of the typical overlay D2D link SINR: exp(-N0 x - c x^(2/alpha))."""
    return link_ccdf(params, derive(params).c_mu, thresholds)


def cellular_sinr_ccdf(params: NetworkParams, thresholds=None) -> CcdfCurve:
    """CCDF of the typical uplink SINR: exp(-N0 x - Jout(x)).

    Uses only alpha and N0; the base-station density cancels exactly in the
    normalised out-of-cell integral, so no scheduling-feasibility check is
    required here.
    """
    return link_ccdf(params, 0.0, thresholds, outofcell=True)


def cellular_sinr_ccdf_sparse_limit(params: NetworkParams, thresholds=None) -> CcdfCurve:
    """Noise-limited closed form exp(-(N0 + 4/(alpha^2-4)) x)."""
    t = _as_threshold_array(thresholds)
    a = params.alpha
    v = np.exp(-(params.n0 + 4.0 / (a * a - 4.0)) * t)
    return CcdfCurve(thresholds=t, values=v, kind="analytical")


def cellular_sinr_ccdf_dense_limit(params: NetworkParams, thresholds=None) -> CcdfCurve:
    """Interference-limited closed form exp(-N0 x - x^(2/alpha)/(2 sinc(2/alpha)))."""
    return link_ccdf(params, 0.5 / sinc_normalized(2.0 / params.alpha), thresholds)


# ---------------------------------------------------------------------------
# Spectral efficiencies
# ---------------------------------------------------------------------------

def rate_evaluator(n0: float, alpha: float, outofcell: bool = False) -> Callable[[float], float]:
    """The rate integral k -> int_0^inf e^(-n0 x)/(1+x) exp(-k x^(2/alpha) [- Jout(x)]) dx.

    Builds :func:`~d2dshare.specfun.rate_rule`, x^(2/alpha) and, with
    ``outofcell``, Jout on the rule's nodes once; each call is then one
    exponential and one dot product.  A call raises
    :class:`~d2dshare.specfun.DomainError` when k 2^(-120/alpha) exceeds 0.1,
    beyond which the rule does not resolve the x^(2/alpha) cusp at 0.
    """
    x, w = rate_rule(n0)
    pow_b = x ** (2.0 / alpha)
    jout = outofcell_exponent(x, alpha) if outofcell else None
    k_max = 0.1 * 2.0 ** (120.0 / alpha)

    def rate(k: float) -> float:
        if k > k_max:
            raise DomainError(f"coefficient k={k:.6g} exceeds the rate rule's limit "
                              f"{k_max:.6g} at alpha={alpha:g}")
        log_g = -k * pow_b
        if jout is not None:
            log_g -= jout
        return float(w @ np.exp(log_g, out=log_g))

    return rate


def d2d_spectral_efficiency(params: NetworkParams, n0: float | None = None) -> float:
    """Ergodic spectral efficiency of overlay D2D links.

    kappa * int e^(-N0 x)/(1+x) exp(-c x^(2/alpha)) dx, bounded between
    :func:`r_d_min` and :func:`r_d_max`.  ``n0`` overrides the equivalent
    noise (used for bandwidth-normalised rate reporting).
    """
    if params.kappa == 0.0:
        return 0.0
    d = derive(params)
    noise = d.n0_equiv if n0 is None else n0
    return params.kappa * rate_evaluator(noise, params.alpha)(d.c_mu)


def r_d_max(params: NetworkParams) -> float:
    """Interference-free D2D efficiency limit (mu -> 0): kappa e^N0 E1(N0)."""
    return params.kappa * math.exp(params.n0) * exp_integral_e1(params.n0)


def r_d_min(params: NetworkParams) -> float:
    """Fully loaded D2D efficiency limit (mu -> inf)."""
    if params.kappa == 0.0:
        return 0.0
    c_inf = (
        params.kappa
        * params.q
        * params.lambda_ue
        / (params.xi * sinc_normalized(2.0 / params.alpha))
    )
    return params.kappa * rate_evaluator(params.n0, params.alpha)(c_inf)


def scheduling_prefactor(ratio: float) -> float:
    """Round-robin share E[1/N | N >= 1] P(N >= 1) = (1 - e^(-ratio)) / ratio.

    ``ratio`` is lambda_c / lambda_b, the mean number of uplink contenders
    per cell; the expression is the Poisson mean of 1/N for the typical
    scheduled transmitter.
    """
    if ratio <= 0.0:
        raise ParameterError(f"lambda_c/lambda_b ratio must be positive, got {ratio}")
    return -math.expm1(-ratio) / ratio


def cellular_spectral_efficiency(params: NetworkParams, n0: float | None = None) -> float:
    """Ergodic spectral efficiency of overlay cellular uplinks.

    Scheduling prefactor times the rate integral carrying the out-of-cell
    Laplace factor.  Requires lambda_c >= lambda_b (checked via derive).
    """
    d = derive(params)
    noise = d.n0_equiv if n0 is None else n0
    pref = scheduling_prefactor(d.lambda_c / params.lambda_b)
    return pref * rate_evaluator(noise, params.alpha, outofcell=True)(0.0)


# ---------------------------------------------------------------------------
# Rates and spectrum-partition optimisation
# ---------------------------------------------------------------------------

def overlay_rates(params: NetworkParams) -> RateReport:
    """Per-class overlay rates for the configured partition eta.

    T_c = (1 - eta) R_c, T_d_hat = eta R_d, and T_d mixes them with the
    mode-selection probabilities.  When ``params.bandwidth_normalization``
    is on, each class's equivalent noise is scaled by its bandwidth share
    (N0 (1-eta) for cellular, N0 eta for D2D), reflecting that transmit
    power concentrates in the accessed band.  eta = 1 starves cellular and
    raises :class:`DegenerateRateError`; at eta = 0 the D2D efficiency is
    reported at its unnormalised value and t_d_hat is zero.
    """
    d = derive(params)
    eta = params.eta
    if eta >= 1.0:
        raise DegenerateRateError("eta = 1 leaves no cellular spectrum: T_c = 0")
    norm = params.bandwidth_normalization
    n0_c = d.n0_equiv * (1.0 - eta) if norm else d.n0_equiv
    n0_d = d.n0_equiv * eta if (norm and eta > 0.0) else d.n0_equiv
    rc = cellular_spectral_efficiency(params, n0=n0_c)
    rd = d2d_spectral_efficiency(params, n0=n0_d)
    return RateReport.mix(params, d.p_d2d_mode, rc, 1.0 - eta, rd, eta)


def _partition_from_rates(rc: float, rd: float, w_c: float, w_d: float, xpm2: float) -> float:
    """Closed-form eta* given fixed spectral efficiencies and xi pi mu^2."""
    if xpm2 <= 0.0:
        return 0.0
    # 1/(e^(xi pi mu^2) - 1), evaluated safely for large exponents
    inv_em1 = 0.0 if xpm2 > 700.0 else 1.0 / math.expm1(xpm2)
    if not (rd > (w_c + w_d) / w_d * inv_em1 * rc):
        return 0.0
    return 1.0 - (w_c / (w_c + w_d)) / (1.0 - inv_em1 * rc / rd)


def optimal_partition(params: NetworkParams) -> float:
    """Weighted proportional-fair optimal overlay partition eta* in [0, 1).

    Evaluated from the closed form with the partition-independent (raw,
    non-bandwidth-normalised) spectral efficiencies, matching the objective
    u(eta) = w_c log((1-eta) R_c) + w_d log((1-eta) a R_c + eta (1-a) R_d)
    whose maximiser it is.  Tends to w_d as mu grows.
    """
    rc = cellular_spectral_efficiency(params)
    rd = d2d_spectral_efficiency(params)
    xpm2 = params.xi * math.pi * params.mu**2
    return _partition_from_rates(rc, rd, params.w_c, params.w_d, xpm2)


@dataclass(frozen=True)
class JointOptimum:
    mu: float
    eta: float
    utility: float


def joint_optimize_mu_eta(params: NetworkParams, mu_grid: Sequence[float]) -> JointOptimum:
    """Maximise utility over (mu, eta) with eta set to eta*(mu).

    Evaluates the partition-optimised utility on ``mu_grid``, then refines
    around the best grid point by golden-section search.  Ties on the grid
    break toward the lowest mu; the refined point is only adopted when it
    strictly improves on the grid optimum.
    """
    grid = np.asarray(list(mu_grid), dtype=float)
    if grid.size == 0 or np.any(grid <= 0.0):
        raise ParameterError("mu_grid must be nonempty with positive entries")
    grid = np.sort(grid)

    # The cellular rate integral does not depend on mu: evaluate it once.
    d2d_rate = rate_evaluator(params.n0, params.alpha)
    ic = rate_evaluator(params.n0, params.alpha, outofcell=True)(0.0)

    def utility_at(mu: float) -> tuple[float, float]:
        try:
            d = derive(params.replace(mu=mu))
        except ParameterError as exc:
            raise ParameterError(f"mu={mu:g}: {exc}") from exc
        rc = scheduling_prefactor(d.lambda_c / params.lambda_b) * ic
        rd = params.kappa * d2d_rate(d.c_mu)
        eta = _partition_from_rates(rc, rd, params.w_c, params.w_d, params.xi * math.pi * mu * mu)
        if eta >= 1.0:  # cannot happen for finite rates; guard the log
            eta = 1.0 - 1e-12
        return RateReport.mix(params, d.p_d2d_mode, rc, 1.0 - eta, rd, eta).utility, eta

    values = [utility_at(float(m)) for m in grid]
    best = int(np.argmax([u for u, _ in values]))  # first index on ties: lowest mu
    mu_best, (u_best, eta_best) = float(grid[best]), values[best]

    if grid.size > 1:
        lo = float(grid[max(best - 1, 0)])
        hi = float(grid[min(best + 1, grid.size - 1)])
        if hi > lo:
            mu_ref = golden_section_minimize(
                lambda m: -utility_at(m)[0], lo, hi, tol=max(1e-6 * (hi - lo), 1e-9)
            )
            u_ref, eta_ref = utility_at(mu_ref)
            if u_ref > u_best:
                mu_best, u_best, eta_best = mu_ref, u_ref, eta_ref

    return JointOptimum(mu=mu_best, eta=eta_best, utility=u_best)

"""Underlay in-band D2D analytics.

D2D transmitters hop over a random fraction beta of the B cellular
subchannels, splitting their power across the beta*B accessed subchannels.
With cross-tier interference the SINR CCDFs become

    D2D link:      exp(-N0 x - c beta x^(2/a) - (beta x)^(2/a) / (2 sinc(2/a)))
    cellular link: exp(-N0 x - c beta^(1-2/a) x^(2/a) - Jout(x))

with a = alpha, c the D2D interference constant and Jout the out-of-cell
exponent shared with the overlay analysis.  Both are the overlay law with the
coefficients k of :func:`_link_coefficients`, so CCDFs, rates and the beta*
search reuse the overlay module's law, rate evaluator and rate mixture.  The
spectrum access factor beta* is found numerically (no closed form exists), and
the coverage-constraint bounds on beta implement the outage-budget
inequalities for both link classes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import NetworkParams, ParameterError, derive
from .overlay import (
    CcdfCurve,
    RateReport,
    link_ccdf,
    outofcell_exponent,
    rate_evaluator,
    scheduling_prefactor,
)
from .specfun import bisect_nondecreasing, golden_section_minimize, sinc_normalized

__all__ = [
    "OutageBound",
    "d2d_sinr_ccdf_underlay",
    "d2d_spectral_efficiency_underlay",
    "cellular_sinr_ccdf_underlay",
    "cellular_spectral_efficiency_underlay",
    "underlay_rates",
    "optimal_access_factor",
    "max_beta_for_d2d_outage",
    "max_beta_for_cellular_outage",
    "feasible_beta_curves",
]

_BETA_SEARCH_FLOOR = 1e-4  # log-utility is singular at beta = 0


def _require_beta(params: NetworkParams) -> float:
    if not (0.0 < params.beta <= 1.0):
        raise ParameterError(f"underlay operations require beta in (0, 1], got {params.beta}")
    return params.beta


def _link_coefficients(c: float, beta: float, alpha: float) -> tuple[float, float]:
    """Coefficients k of x^(2/alpha) in the underlay (D2D, cellular) SINR laws.

    D2D: c beta + beta^(2/a)/(2 sinc(2/a)), its own tier thinned by beta plus
    the cellular tier; cellular: c beta^(1-2/a), the D2D tier, whose power is
    split over the beta B accessed subchannels.
    """
    b = 2.0 / alpha
    return c * beta + beta**b / (2.0 * sinc_normalized(b)), c * beta ** (1.0 - b)


def d2d_sinr_ccdf_underlay(params: NetworkParams, thresholds=None) -> CcdfCurve:
    """CCDF of the typical underlay D2D link SINR."""
    beta = _require_beta(params)
    k_d, _ = _link_coefficients(derive(params).c_mu, beta, params.alpha)
    return link_ccdf(params, k_d, thresholds)


def d2d_spectral_efficiency_underlay(params: NetworkParams) -> float:
    """Per-subchannel ergodic spectral efficiency of underlay D2D links."""
    beta = _require_beta(params)
    if params.kappa == 0.0:
        return 0.0
    d = derive(params)
    k_d, _ = _link_coefficients(d.c_mu, beta, params.alpha)
    return params.kappa * rate_evaluator(d.n0_equiv, params.alpha)(k_d)


def cellular_sinr_ccdf_underlay(params: NetworkParams, thresholds=None) -> CcdfCurve:
    """CCDF of the typical underlay uplink SINR (adds the D2D tier term)."""
    beta = _require_beta(params)
    _, k_c = _link_coefficients(derive(params).c_mu, beta, params.alpha)
    return link_ccdf(params, k_c, thresholds, outofcell=True)


def cellular_spectral_efficiency_underlay(params: NetworkParams) -> float:
    """Ergodic spectral efficiency of underlay cellular uplinks."""
    beta = _require_beta(params)
    d = derive(params)
    _, k_c = _link_coefficients(d.c_mu, beta, params.alpha)
    pref = scheduling_prefactor(d.lambda_c / params.lambda_b)
    return pref * rate_evaluator(d.n0_equiv, params.alpha, outofcell=True)(k_c)


def underlay_rates(params: NetworkParams) -> RateReport:
    """Per-class underlay rates: T_c = R_c, T_d_hat = beta R_d.

    Power splitting across the accessed subchannels is already inside the
    efficiency integrals, so no extra bandwidth normalisation applies.
    """
    rc = cellular_spectral_efficiency_underlay(params)
    rd = d2d_spectral_efficiency_underlay(params)
    return RateReport.mix(params, derive(params).p_d2d_mode, rc, 1.0, rd, params.beta)


# ---------------------------------------------------------------------------
# Spectrum-access optimisation
# ---------------------------------------------------------------------------

def optimal_access_factor(params: NetworkParams) -> float:
    """Proportional-fair optimal spectrum access factor beta*.

    Single-variable numeric maximisation: a 32-point seed grid on
    [1e-4, 1] followed by golden-section refinement around the best point.
    Deterministic; the lower bracket excludes beta = 0 where the utility
    diverges to -inf whenever D2D carries weight.  Both efficiencies come
    from :func:`~d2dshare.overlay.rate_evaluator`, built once per call, so
    each step is two dot products on the rate rule.
    """
    d = derive(params)
    cell_rate = rate_evaluator(d.n0_equiv, params.alpha, outofcell=True)
    d2d_rate = rate_evaluator(d.n0_equiv, params.alpha)
    pref = scheduling_prefactor(d.lambda_c / params.lambda_b)

    def utility(beta: float) -> float:
        k_d, k_c = _link_coefficients(d.c_mu, beta, params.alpha)
        rc = pref * cell_rate(k_c)
        rd = params.kappa * d2d_rate(k_d)
        return RateReport.mix(params, d.p_d2d_mode, rc, 1.0, rd, beta).utility

    grid = np.linspace(_BETA_SEARCH_FLOOR, 1.0, 32)
    values = [utility(float(g)) for g in grid]
    best = int(np.argmax(values))
    lo = float(grid[max(best - 1, 0)])
    hi = float(grid[min(best + 1, grid.size - 1)])
    beta_star = golden_section_minimize(lambda bb: -utility(bb), lo, hi, tol=1e-7)
    beta_star = float(min(max(beta_star, _BETA_SEARCH_FLOOR), 1.0))
    # snap to a domain endpoint when the optimum sits on the boundary
    for endpoint in (_BETA_SEARCH_FLOOR, 1.0):
        if utility(endpoint) >= utility(beta_star):
            return endpoint
    return beta_star


# ---------------------------------------------------------------------------
# Coverage-constraint bounds on beta
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OutageBound:
    """Largest admissible beta for an outage budget, with a feasibility flag."""

    beta_max: float
    feasible: bool


def _check_outage_args(theta: float, eps: float) -> None:
    if not (theta > 0.0):
        raise ParameterError(f"SINR threshold theta must be positive, got {theta}")
    if not (0.0 < eps < 1.0):
        raise ParameterError(f"outage probability must lie in (0, 1), got {eps}")


def max_beta_for_d2d_outage(
    params: NetworkParams, theta_d: float, eps_d: float
) -> OutageBound:
    """Largest beta meeting the D2D outage budget.

    Solves (N0 B theta + theta^(2/a) c) beta + theta^(2/a)/(2 sinc) beta^(2/a)
    <= log(1/(1-eps)) by bisection on the increasing left-hand side; the
    budget is always met as beta -> 0, and slack at beta = 1 returns 1.
    """
    _check_outage_args(theta_d, eps_d)
    c = derive(params).c_mu
    budget = -math.log1p(-eps_d)
    noise = params.n0 * params.b_subchannels * theta_d
    scale = theta_d ** (2.0 / params.alpha)

    def lhs(beta: float) -> float:
        return noise * beta + scale * _link_coefficients(c, beta, params.alpha)[0]

    if lhs(1.0) <= budget:
        return OutageBound(beta_max=1.0, feasible=True)
    return OutageBound(
        beta_max=bisect_nondecreasing(lhs, budget, 0.0, 1.0, tol=1e-13), feasible=True
    )


def max_beta_for_cellular_outage(
    params: NetworkParams, theta_c: float, eps_c: float, _jout: float | None = None
) -> OutageBound:
    """Largest beta meeting the cellular outage budget.

    The D2D tier contributes c beta^(1-2/a) theta^(2/a) to the outage
    exponent; everything else (noise and out-of-cell interference at
    theta_c) is beta-independent, giving the closed form
    beta_max = (RHS / (theta^(2/a) c))^(a/(a-2)) clamped to [0, 1].
    A negative RHS means the cellular budget fails even without D2D.
    ``_jout`` lets callers reuse a precomputed out-of-cell exponent.
    """
    _check_outage_args(theta_c, eps_c)
    d = derive(params)
    a = params.alpha
    b = 2.0 / a
    jout = outofcell_exponent(theta_c, a) if _jout is None else _jout
    rhs = -math.log1p(-eps_c) - params.n0 * params.b_subchannels * theta_c - jout
    if rhs < 0.0:
        return OutageBound(beta_max=0.0, feasible=False)
    if d.c_mu == 0.0:
        return OutageBound(beta_max=1.0, feasible=True)
    raw = (rhs / (theta_c**b * d.c_mu)) ** (a / (a - 2.0))
    return OutageBound(beta_max=min(raw, 1.0), feasible=True)


def feasible_beta_curves(
    params: NetworkParams,
    mu_grid: Sequence[float],
    theta_d: float,
    eps_d: float,
    theta_c: float,
    eps_c: float,
):
    """beta_max(mu) for both outage constraints over a mode-threshold grid.

    Returns (mu, beta_d2d, beta_cellular, cellular_feasible) arrays; the
    joint admissible access factor at each mu is the elementwise minimum.
    The out-of-cell exponent at theta_c is computed once and shared across
    the grid (it does not depend on mu).
    """
    mus = np.asarray(list(mu_grid), dtype=float)
    if mus.size == 0 or np.any(mus < 0.0):
        raise ParameterError("mu_grid must be nonempty and nonnegative")
    jout = float(outofcell_exponent(theta_c, params.alpha))
    bd = np.empty_like(mus)
    bc = np.empty_like(mus)
    ok = np.empty(mus.shape, dtype=bool)
    for i, m in enumerate(mus):
        p = params.replace(mu=float(m))
        bd[i] = max_beta_for_d2d_outage(p, theta_d, eps_d).beta_max
        cell = max_beta_for_cellular_outage(p, theta_c, eps_c, _jout=jout)
        bc[i] = cell.beta_max
        ok[i] = cell.feasible
    return mus, bd, bc, ok

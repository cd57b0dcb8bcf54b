"""Independent scipy oracle for every benchmark op.

Nothing here calls the package's numerics: the out-of-cell exponent is the
closed form in Gauss hypergeometrics,

    Jout(x) = b x / (2 (1 - b)) F(1 - b; x) - (1 - F(b; x)) / 2,
    F(c; x) = 2F1(1, c; 1 + c; -x),  b = 2 / alpha,

rates come from ``scipy.integrate.quad``, power moments from ``gammainc``,
and optimisers are checked by dense-grid search on oracle utilities.  Only the
parameter record (``NetworkParams``) is taken from the package, as input.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate, optimize, special

CCDF_ABS = 1e-6
RATE_REL = 1e-6
UTILITY_ABS = 1e-6
BETA_ABS = 1e-6
CLOSED_FORM_REL = 1e-9
SAMPLED_MOMENT_REL = 1e-3

_BETA_FLOOR = 1e-4
_SERIES_X = 1e-2


class OracleError(RuntimeError):
    """The oracle itself could not reach its own accuracy target."""


_K = np.arange(1.0, 16.0)


def _jout_series(x, b):
    """b^2 sum_k (-1)^(k+1) x^k / (k^2 - b^2): no cancellation for small x."""
    x = np.asarray(x, dtype=float)[..., None]
    return b * b * np.sum((-1.0) ** (_K + 1.0) * x**_K / (_K * _K - b * b), axis=-1)


def _jout_closed(x, b):
    f_b = special.hyp2f1(1.0, b, 1.0 + b, -x)
    f_1b = special.hyp2f1(1.0, 1.0 - b, 2.0 - b, -x)
    return b * x / (2.0 * (1.0 - b)) * f_1b - (1.0 - f_b) / 2.0


def jout(x, alpha: float):
    """Out-of-cell exponent in closed form; Maclaurin series for small x."""
    b = 2.0 / alpha
    if np.ndim(x) == 0:
        x = float(x)
        return float(_jout_series(x, b) if x < _SERIES_X else _jout_closed(x, b))
    xs = np.asarray(x, dtype=float)
    return np.where(xs < _SERIES_X, _jout_series(np.minimum(xs, _SERIES_X), b), _jout_closed(xs, b))


class Point:
    """Derived quantities of one parameter record, computed from the model's formulas."""

    def __init__(self, p):
        self.b = 2.0 / p.alpha
        self.sinc = float(np.sinc(self.b))
        self.n0 = 10.0 ** (-p.snr_m_db / 10.0)
        xpm2 = p.xi * math.pi * p.mu * p.mu
        self.xpm2 = xpm2
        self.p_d2d = -math.expm1(-xpm2)
        lam, xi = p.lambda_ue, p.xi
        lam_c = (1.0 - p.q) * lam + p.q * lam * math.exp(-xpm2)
        raw = lam / xi - (lam / xi + lam * math.pi * p.mu * p.mu) * math.exp(-xpm2)
        self.c_mu = max(p.kappa * p.q * raw / self.sinc, 0.0)
        ratio = lam_c / p.lambda_b
        self.pref = -math.expm1(-ratio) / ratio


class Oracle:
    """Rate integrals by adaptive quadrature, memoised per exact argument tuple."""

    def __init__(self):
        self._rates: dict[tuple, float] = {}

    def rate(self, n0: float, coef: float, alpha: float, cellular: bool) -> float:
        """int_0^inf e^(-n0 x)/(1+x) exp(-coef x^(2/alpha) [- Jout(x)]) dx."""
        key = (n0, coef, alpha, cellular)
        if key not in self._rates:
            b = 2.0 / alpha
            if cellular:
                def f(x):
                    return math.exp(-n0 * x - coef * x**b - jout(x, alpha)) / (1.0 + x)
            else:
                def f(x):
                    return math.exp(-n0 * x - coef * x**b) / (1.0 + x)
            head, e1 = integrate.quad(f, 0.0, 1.0, epsabs=0.0, epsrel=1e-11, limit=200)
            tail, e2 = integrate.quad(f, 1.0, np.inf, epsabs=0.0, epsrel=1e-11, limit=200)
            value = head + tail
            if not (e1 + e2 <= 1e-9 * value):
                raise OracleError(f"quad error estimate {e1 + e2:.3g} too large for rate {value:.6g}")
            self._rates[key] = value
        return self._rates[key]

    # -- rate reports ---------------------------------------------------------

    def overlay_report(self, p) -> dict:
        pt = Point(p)
        eta = p.eta
        norm = p.bandwidth_normalization
        n0_c = pt.n0 * (1.0 - eta) if norm else pt.n0
        n0_d = pt.n0 * eta if (norm and eta > 0.0) else pt.n0
        rc = pt.pref * self.rate(n0_c, 0.0, p.alpha, True)
        rd = p.kappa * self.rate(n0_d, pt.c_mu, p.alpha, False)
        t_c = (1.0 - eta) * rc
        t_d_hat = eta * rd
        return _report(rc, rd, t_c, t_d_hat, pt.p_d2d, p)

    def underlay_report(self, p) -> dict:
        pt = Point(p)
        beta = p.beta
        rc = pt.pref * self.rate(pt.n0, pt.c_mu * beta ** (1.0 - pt.b), p.alpha, True)
        coef_d = pt.c_mu * beta + beta**pt.b / (2.0 * pt.sinc)
        rd = p.kappa * self.rate(pt.n0, coef_d, p.alpha, False)
        return _report(rc, rd, rc, beta * rd, pt.p_d2d, p)

    # -- optimiser utilities --------------------------------------------------

    def partition_utility(self, p, eta):
        """u(eta) with raw (not bandwidth-normalised) efficiencies; vectorised in eta."""
        pt = Point(p)
        rc = pt.pref * self.rate(pt.n0, 0.0, p.alpha, True)
        rd = p.kappa * self.rate(pt.n0, pt.c_mu, p.alpha, False)
        return _partition_u(rc, rd, math.exp(-pt.xpm2), p.w_c, p.w_d, eta)

    def best_partition_utility(self, p) -> float:
        return float(np.max(self.partition_utility(p, _ETA_GRID)))

    def access_utility(self, p, beta: float) -> float:
        q = p.replace(beta=float(beta))
        r = self.underlay_report(q)
        return r["utility"]

    def best_access_utility(self, p) -> float:
        """Dense search: a coarse grid on [1e-4, 1], then a dense grid around its best point."""
        coarse = np.linspace(_BETA_FLOOR, 1.0, 17)
        vals = [self.access_utility(p, b) for b in coarse]
        i = int(np.argmax(vals))
        lo, hi = coarse[max(i - 1, 0)], coarse[min(i + 1, coarse.size - 1)]
        fine = [self.access_utility(p, b) for b in np.linspace(lo, hi, 17)]
        return max(max(vals), max(fine))

    def joint_utility(self, p, mu: float, eta=None):
        """Utility at (mu, eta); with eta None, its maximum over a dense eta grid."""
        q = p.replace(mu=float(mu))
        u = self.partition_utility(q, _ETA_GRID if eta is None else eta)
        return float(np.max(u)) if eta is None else float(u)

    def best_joint_utility(self, p, mu_grid) -> float:
        """Dense search over mu: the grid points and 8 points inside each grid gap."""
        grid = np.sort(np.asarray(mu_grid, dtype=float))
        dense = [grid[:1]]
        for lo, hi in zip(grid[:-1], grid[1:]):
            dense.append(np.linspace(lo, hi, 10)[1:])
        return max(self.joint_utility(p, m) for m in np.concatenate(dense))

    # -- outage bounds ----------------------------------------------------------

    def beta_bounds(self, p, theta_d, eps_d, theta_c, eps_c) -> tuple[float, float, bool]:
        pt = Point(p)
        b = pt.b
        budget = -math.log1p(-eps_d)
        lin = pt.n0 * p.b_subchannels * theta_d + theta_d**b * pt.c_mu
        sub = theta_d**b / (2.0 * pt.sinc)

        def lhs(beta):
            return lin * beta + sub * beta**b - budget

        bd = 1.0 if lhs(1.0) <= 0.0 else optimize.brentq(lhs, 0.0, 1.0, xtol=1e-15, rtol=1e-15)
        rhs = -math.log1p(-eps_c) - pt.n0 * p.b_subchannels * theta_c - jout(theta_c, p.alpha)
        if rhs < 0.0:
            return bd, 0.0, False
        if pt.c_mu == 0.0:
            return bd, 1.0, True
        return bd, min((rhs / (theta_c**b * pt.c_mu)) ** (p.alpha / (p.alpha - 2.0)), 1.0), True

    # -- power moments ----------------------------------------------------------

    @staticmethod
    def power_moments(p) -> dict:
        """Mean virtual transmit powers from the regularised incomplete gamma function."""
        m = p.mu
        a = p.alpha
        s = a / 2.0 + 1.0
        xp = p.xi * math.pi
        e_pc = 1.0 / ((1.0 + a / 2.0) * (math.pi * p.lambda_b) ** (a / 2.0))
        low_gamma = special.gammainc(s, xp * m * m) * special.gamma(s)
        e_pd = math.exp(-xp * m * m) * e_pc + xp ** (-a / 2.0) * low_gamma
        e_hat = xp ** (-a / 2.0) * low_gamma / -math.expm1(-xp * m * m)
        return {"cellular": e_pc, "potential_d2d": e_pd, "d2d_mode": e_hat}

    @staticmethod
    def sampled_moment_tolerance(p, draws: int) -> dict:
        """Relative tolerance for sample means of ``draws`` link-power draws.

        The larger of SAMPLED_MOMENT_REL and five standard errors from the
        exact second moments: at 1e7 draws the potential-D2D mean has a
        relative standard error near 7.6e-4, so 1e-3 alone would fail correct
        code on about one run in five.
        """
        a = p.alpha
        x = p.xi * math.pi * p.mu * p.mu
        xp = p.xi * math.pi
        r2 = 1.0 / (math.pi * p.lambda_b)
        tail = math.exp(-x)
        pc1, pc2 = r2 ** (a / 2.0) / (1.0 + a / 2.0), r2**a / (1.0 + a)
        d1 = xp ** (-a / 2.0) * special.gammainc(a / 2.0 + 1.0, x) * special.gamma(a / 2.0 + 1.0)
        d2 = xp ** (-a) * special.gammainc(a + 1.0, x) * special.gamma(a + 1.0)
        p_d2d = -math.expm1(-x)
        moments = {
            "cellular": (pc1, pc2, draws),
            "potential_d2d": (d1 + tail * pc1, d2 + tail * pc2, draws),
            "d2d_mode": (d1 / p_d2d, d2 / p_d2d, draws * p_d2d),
        }
        return {k: max(SAMPLED_MOMENT_REL, 5.0 * math.sqrt((m2 - m1 * m1) / n) / m1)
                for k, (m1, m2, n) in moments.items()}

    # -- SINR CCDFs ---------------------------------------------------------------

    @staticmethod
    def ccdf(p, t, which: str):
        pt = Point(p)
        t = np.asarray(t, dtype=float)
        b = pt.b
        if which == "d2d_overlay":
            return np.exp(-pt.n0 * t - pt.c_mu * t**b)
        if which == "cellular_overlay":
            return np.exp(-pt.n0 * t - jout(t, p.alpha))
        if which == "d2d_underlay":
            cell = (p.beta * t) ** b / (2.0 * pt.sinc)
            return np.exp(-pt.n0 * t - pt.c_mu * p.beta * t**b - cell)
        if which == "cellular_underlay":
            return np.exp(-pt.n0 * t - pt.c_mu * p.beta ** (1.0 - b) * t**b - jout(t, p.alpha))
        raise ValueError(which)


_ETA_GRID = np.linspace(0.0, 0.9999, 20001)


def _partition_u(rc, rd, a, w_c, w_d, eta):
    eta = np.asarray(eta, dtype=float)
    t_c = (1.0 - eta) * rc
    t_d = a * t_c + (1.0 - a) * eta * rd
    with np.errstate(divide="ignore", invalid="ignore"):
        return w_c * np.log(t_c) + w_d * np.log(t_d)


def _report(rc, rd, t_c, t_d_hat, p_d2d, p) -> dict:
    t_d = (1.0 - p_d2d) * t_c + p_d2d * t_d_hat
    util = p.w_c * math.log(t_c) + p.w_d * math.log(t_d) if t_c > 0 and t_d > 0 else -math.inf
    return {"r_c": rc, "r_d": rd, "t_c": t_c, "t_d": t_d, "t_d_hat": t_d_hat, "utility": util}


# ---------------------------------------------------------------------------
# Comparison helpers: each returns None on agreement or a one-line cause.
# ---------------------------------------------------------------------------

def rel_mismatch(name: str, got: float, want: float, tol: float) -> str | None:
    if not (math.isfinite(got) and abs(got - want) <= tol * abs(want)):
        return f"{name}: got {float(got)!r}, oracle {float(want)!r}, rel tol {tol:g}"
    return None


def abs_mismatch(name: str, got, want, tol: float) -> str | None:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return f"{name}: shape {got.shape} != oracle shape {want.shape}"
    err = np.abs(got - want)
    if not np.all(np.isfinite(got)) or np.any(err > tol):
        i = int(np.nanargmax(np.where(np.isfinite(err), err, np.inf)))
        return f"{name}: max abs error {float(err.flat[i]):.3g} at index {i} exceeds {tol:g}"
    return None


def report_mismatch(name: str, got: dict, want: dict) -> str | None:
    """A package RateReport (as a dict) against the oracle's."""
    for key in ("r_c", "r_d", "t_c", "t_d", "t_d_hat"):
        bad = rel_mismatch(f"{name}.{key}", float(got[key]), want[key], RATE_REL)
        if bad:
            return bad
    return abs_mismatch(f"{name}.utility", got["utility"], want["utility"], UTILITY_ABS)


def optimum_mismatch(name: str, achieved: float, best: float) -> str | None:
    """An optimiser's utility must reach the oracle's dense-grid maximum within tolerance."""
    if not (math.isfinite(achieved) and achieved >= best - UTILITY_ABS):
        return f"{name}: utility {achieved!r} below oracle grid maximum {best!r} by more than {UTILITY_ABS:g}"
    return None

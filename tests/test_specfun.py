"""Special-function and quadrature tests against independent brute-force oracles.

Frozen expected values were computed with the oracles below (and are
re-derived live where cheap); scipy serves as an additional independent
reference implementation.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate as sci_integrate
from scipy import special as sps

from d2dshare.specfun import (
    ConvergenceError,
    DomainError,
    QuadratureSpec,
    bisect_nondecreasing,
    exp_integral_e1,
    golden_section_minimize,
    hyp2f1_kernel,
    integrate_semiinfinite,
    lower_incomplete_gamma,
    rate_rule,
    sinc_normalized,
    _jacobi_rule,
)


# ---------------------------------------------------------------------------
# lower incomplete gamma
# ---------------------------------------------------------------------------

def test_gamma_exponential_case():
    # gamma(1, x) = 1 - e^-x
    assert lower_incomplete_gamma(1.0, 2.0) == pytest.approx(1.0 - math.exp(-2.0), rel=1e-14)


def test_gamma_brute_force_oracle():
    # trapezoidal integration of z^1.75 e^-z on [0, 1.6] at step 1e-6
    z = np.linspace(0.0, 1.6, 1_600_001)
    oracle = float(np.trapezoid(z**1.75 * np.exp(-z), z))
    value = lower_incomplete_gamma(2.75, 1.6)
    assert value == pytest.approx(oracle, abs=1e-9)
    assert value == pytest.approx(0.4337518671566674, abs=1e-12)  # frozen oracle output


def test_gamma_empty_integral():
    assert lower_incomplete_gamma(0.5, 0.0) == 0.0


def test_gamma_domain_errors():
    with pytest.raises(DomainError):
        lower_incomplete_gamma(0.0, 1.0)
    with pytest.raises(DomainError):
        lower_incomplete_gamma(-1.0, 1.0)
    with pytest.raises(DomainError):
        lower_incomplete_gamma(1.0, -0.1)


@pytest.mark.parametrize("s", [0.5, 1.5, 2.5, 3.5])
def test_gamma_saturates_at_complete_gamma(s):
    # product form for half-integer s: Gamma(s) = (s-1)(s-2)...(1/2) sqrt(pi)
    g = math.sqrt(math.pi)
    k = s
    while k > 1.0:
        k -= 1.0
        g *= k
    assert lower_incomplete_gamma(s, 100.0) == pytest.approx(g, rel=1e-13)


@given(
    s=st.floats(0.05, 8.0),
    x=st.floats(0.0, 30.0),
    dx=st.floats(0.01, 5.0),
)
@settings(max_examples=60, deadline=None)
def test_gamma_monotone_and_bounded(s, x, dx):
    lo = lower_incomplete_gamma(s, x)
    hi = lower_incomplete_gamma(s, x + dx)
    assert lo <= hi + 1e-15
    assert hi <= math.gamma(s) * (1.0 + 1e-12)


def test_gamma_against_scipy_grid():
    for s in (0.3, 1.0, 2.75, 5.5):
        for x in (0.01, 0.5, 1.6, 4.0, 20.0):
            ref = float(sps.gammainc(s, x)) * math.gamma(s)
            assert lower_incomplete_gamma(s, x) == pytest.approx(ref, rel=1e-12)


# ---------------------------------------------------------------------------
# exponential integral
# ---------------------------------------------------------------------------

def test_e1_reference_values():
    assert exp_integral_e1(1.0) == pytest.approx(0.2193839343955205, abs=1e-12)
    assert exp_integral_e1(0.1) == pytest.approx(1.8229239584193906, abs=1e-12)


def test_e1_brute_force_oracle():
    # direct quadrature of e^-t / t on [1, 50]; the tail beyond 50 is < 4e-24
    t = np.arange(1.0, 50.0, 1e-5)
    oracle = float(np.trapezoid(np.exp(-t) / t, t))
    assert exp_integral_e1(1.0) == pytest.approx(oracle, abs=1e-9)


def test_e1_tail_decay():
    assert exp_integral_e1(50.0) < 1e-20


def test_e1_domain_errors():
    for bad in (0.0, -1.0):
        with pytest.raises(DomainError):
            exp_integral_e1(bad)


@given(x=st.floats(1e-3, 40.0), dx=st.floats(1e-3, 5.0))
@settings(max_examples=60, deadline=None)
def test_e1_strictly_decreasing(x, dx):
    assert exp_integral_e1(x + dx) < exp_integral_e1(x)


def test_e1_against_scipy_grid():
    for x in np.logspace(-3, 1.5, 25):
        assert exp_integral_e1(float(x)) == pytest.approx(float(sps.exp1(x)), rel=1e-13)


# ---------------------------------------------------------------------------
# sinc
# ---------------------------------------------------------------------------

def test_sinc_values():
    assert sinc_normalized(0.5) == pytest.approx(2.0 / math.pi, rel=1e-15)
    # direct trig evaluation at 2/3.5
    x = 2.0 / 3.5
    assert sinc_normalized(x) == pytest.approx(math.sin(math.pi * x) / (math.pi * x), rel=1e-15)
    assert sinc_normalized(x) == pytest.approx(0.5430760873369946, abs=1e-12)


def test_sinc_small_angle_limit():
    assert abs(sinc_normalized(1e-6) - 1.0) < 1e-9


def test_sinc_domain():
    for bad in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(DomainError):
            sinc_normalized(bad)


# ---------------------------------------------------------------------------
# hypergeometric kernel
# ---------------------------------------------------------------------------

def test_hyp_at_origin():
    assert hyp2f1_kernel(0.5, 0.0) == pytest.approx(1.0, abs=1e-15)


def test_hyp_quadrature_oracle():
    # 0.5 * int_0^1 t^-0.5/(1+t) dt with the substitution t = u^2 removing the
    # endpoint singularity: integral becomes int_0^1 du/(1+u^2) = pi/4
    u = np.linspace(0.0, 1.0, 10_000_001)
    oracle = float(np.trapezoid(1.0 / (1.0 + u * u), u))
    value = hyp2f1_kernel(0.5, 1.0)
    assert value == pytest.approx(oracle, abs=1e-10)
    assert value == pytest.approx(math.pi / 4.0, abs=1e-13)


def test_hyp_large_z_pfaff_series_oracle():
    # Pfaff transform: (1+z)^-1 * sum_k k!/(1+b)_k w^k with w = z/(1+z)
    b = 2.0 / 3.5
    z = 1000.0
    w = z / (1.0 + z)
    term = 1.0
    acc = 0.0
    for k in range(200000):
        acc += term
        term *= (k + 1.0) * w / (1.0 + b + k)
        if term < 1e-14:
            break
    oracle = acc / (1.0 + z)
    assert hyp2f1_kernel(b, z) == pytest.approx(oracle, abs=1e-8)


def test_hyp_against_scipy_grid():
    for b in (0.15, 1.0 / 3.0, 0.5, 2.0 / 3.5, 0.95):
        z = np.concatenate([[0.0], np.logspace(-6, 6, 60)])
        ref = sps.hyp2f1(1.0, b, 1.0 + b, -z)
        mine = hyp2f1_kernel(b, z)
        assert np.max(np.abs(mine - ref) / np.abs(ref)) < 1e-12


@pytest.mark.parametrize("alpha", [2.05, 2.5, 3.5, 6.0, 20.0])
def test_jacobi_rule_integrates_moments_exactly(alpha):
    # int_0^1 t^(b-1) t^k dt = 1/(b+k); 16 nodes are exact up to degree 31
    k = np.arange(32)
    for b in (2.0 / alpha, 1.0 - 2.0 / alpha):
        t, w = _jacobi_rule(b)
        moments = np.sum(w * t ** k[:, None], axis=1)
        assert np.max(np.abs(moments * (b + k) - 1.0)) < 1e-13


@pytest.mark.parametrize("alpha", [2.05, 2.1, 2.5, 3.0, 3.5, 4.5, 6.0, 10.0, 20.0, 50.0])
def test_hyp_middle_branch_against_scipy(alpha):
    # the rule's branch densely, plus the last and first points of each neighbour
    edges = [0.35, np.nextafter(0.35, 0.0), np.nextafter(2.5, 0.0), 2.5]
    z = np.concatenate([np.linspace(0.35, 2.5, 2000, endpoint=False), edges])
    for b in (2.0 / alpha, 1.0 - 2.0 / alpha):
        ref = sps.hyp2f1(1.0, b, 1.0 + b, -z)
        assert np.max(np.abs(hyp2f1_kernel(b, z) / ref - 1.0)) < 1e-13


def test_jacobi_rule_cache_is_bounded():
    for b in np.linspace(0.01, 0.99, 1000):
        hyp2f1_kernel(float(b), 1.0)
    info = _jacobi_rule.cache_info()
    assert info.maxsize is not None and info.currsize <= info.maxsize


@given(b=st.floats(0.05, 0.95))
@settings(max_examples=40, deadline=None)
def test_hyp_range_and_monotonicity(b):
    z = np.logspace(-4, 5, 40)
    v = hyp2f1_kernel(b, z)
    assert np.all(v > 0.0)
    assert np.all(v <= 1.0)
    assert np.all(np.diff(v) < 0.0)


def test_hyp_domain_errors():
    with pytest.raises(DomainError):
        hyp2f1_kernel(0.5, -0.1)
    for bad_b in (0.0, 1.0, 1.5):
        with pytest.raises(DomainError):
            hyp2f1_kernel(bad_b, 1.0)


# ---------------------------------------------------------------------------
# semi-infinite quadrature
# ---------------------------------------------------------------------------

def test_integrate_exponential():
    assert integrate_semiinfinite(lambda x: np.exp(-x)) == pytest.approx(1.0, rel=1e-8)


def test_integrate_rate_kernel_matches_e1():
    # int_0^inf e^-x/(1+x) dx = e * E1(1)
    value = integrate_semiinfinite(lambda x: np.exp(-x) / (1.0 + x))
    assert value == pytest.approx(math.e * exp_integral_e1(1.0), rel=1e-9)
    assert value == pytest.approx(0.5963473623231940, abs=1e-9)


def test_integrate_gaussian_moment():
    assert integrate_semiinfinite(lambda x: x * np.exp(-x * x)) == pytest.approx(0.5, rel=1e-8)


@given(a=st.floats(0.1, 10.0), b=st.floats(0.1, 10.0))
@settings(max_examples=25, deadline=None)
def test_integrate_linearity(a, b):
    spec = QuadratureSpec()
    f = lambda x: np.exp(-x)
    g = lambda x: x * np.exp(-x * x)
    combined = integrate_semiinfinite(lambda x: a * f(x) + b * g(x), spec)
    separate = a * integrate_semiinfinite(f, spec) + b * integrate_semiinfinite(g, spec)
    tol = 2.0 * (spec.relative_tolerance * abs(separate) + spec.absolute_tolerance)
    assert abs(combined - separate) <= tol


def test_integrate_budget_exhaustion():
    spiky = lambda x: np.exp(-x) + np.exp(-((x - 0.3) ** 2) / 1e-10)
    with pytest.raises(ConvergenceError):
        integrate_semiinfinite(spiky, QuadratureSpec(max_subdivisions=2))


def test_integrate_deterministic():
    f = lambda x: np.exp(-0.3 * x) / (1.0 + x)
    assert integrate_semiinfinite(f) == integrate_semiinfinite(f)


def test_all_operations_bit_identical():
    assert lower_incomplete_gamma(2.75, 1.6) == lower_incomplete_gamma(2.75, 1.6)
    assert exp_integral_e1(0.37) == exp_integral_e1(0.37)
    assert sinc_normalized(0.571) == sinc_normalized(0.571)
    z = np.logspace(-3, 3, 15)
    assert np.array_equal(hyp2f1_kernel(0.6, z), hyp2f1_kernel(0.6, z))


# ---------------------------------------------------------------------------
# fixed rate rule
# ---------------------------------------------------------------------------

_REFERENCE = QuadratureSpec(
    relative_tolerance=1e-12, absolute_tolerance=1e-15, max_subdivisions=20000
)


@pytest.mark.parametrize("alpha", [2.1, 2.5, 3.5, 6.0])
def test_rate_rule_matches_adaptive_quadrature(alpha):
    # every rate is dot(w, exp(-coef x^b [- Jout(x)])) on the rule; the
    # adaptive integrator is the reference
    from d2dshare.overlay import outofcell_exponent

    b = 2.0 / alpha
    for snr_db in (-10.0, 10.0, 40.0):
        n0 = 10.0 ** (-snr_db / 10.0)
        x, w = rate_rule(n0)
        jout = outofcell_exponent(x, alpha)
        for coef in (0.0, 1.0, 100.0):
            for on in (0.0, 1.0):
                rule = w @ np.exp(-coef * x**b - on * jout)

                def f(t):
                    exponent = n0 * t + coef * t**b + on * outofcell_exponent(t, alpha)
                    return np.exp(-exponent) / (1.0 + t)

                assert rule == pytest.approx(integrate_semiinfinite(f, _REFERENCE), rel=1e-9)


@pytest.mark.parametrize("alpha, coef", [(6.0, 1e4), (10.0, 1e3), (20.0, 10.0)])
def test_rate_rule_resolves_the_cusp_at_zero(alpha, coef):
    # large coefficients at large alpha put the whole integral far below x = 1;
    # the oracle substitutes y = coef x^b, which leaves a smooth integrand
    n0, b = 0.1, 2.0 / alpha
    x, w = rate_rule(n0)

    def g(y):
        t = (y / coef) ** (1.0 / b)
        return math.exp(-n0 * t - y) / (1.0 + t) * t / (b * y)

    oracle, _ = sci_integrate.quad(g, 0.0, np.inf, limit=500, epsabs=0.0, epsrel=1e-13)
    assert w @ np.exp(-coef * x**b) == pytest.approx(oracle, rel=1e-9)


def test_rate_rule_validation():
    for bad in (0.0, -1.0, 1e-310, float("nan")):
        with pytest.raises(DomainError):
            rate_rule(bad)


def test_quadrature_spec_validation():
    with pytest.raises(DomainError):
        QuadratureSpec(relative_tolerance=0.0)
    with pytest.raises(DomainError):
        QuadratureSpec(max_subdivisions=0)
    with pytest.raises(DomainError):
        QuadratureSpec(tail_cutoff_epsilon=-1.0)


# ---------------------------------------------------------------------------
# scalar searches
# ---------------------------------------------------------------------------

def test_golden_section_quadratic():
    assert golden_section_minimize(lambda x: (x - 2.7) ** 2, 0.0, 10.0, tol=1e-9) == pytest.approx(
        2.7, abs=1e-6
    )


def test_bisect_nondecreasing():
    root = bisect_nondecreasing(lambda x: x * x, 2.0, 0.0, 2.0, tol=1e-12)
    assert root == pytest.approx(math.sqrt(2.0), abs=1e-10)

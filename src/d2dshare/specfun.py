"""Special functions and quadrature kernels used by every analytical formula.

Everything here is pure and reentrant: the same inputs always produce
bit-identical outputs.  The one shared state is a bounded cache of
``hyp2f1_kernel``'s Gauss-Jacobi rules (32 exponents), whose entries are
read-only and depend only on their key.  The functions are deliberately
specialised to what the link-rate analytics need:

* ``lower_incomplete_gamma`` -- gamma(s, x) for s > 0 (transmit-power moments),
* ``exp_integral_e1``        -- E1(x) for x > 0 (interference-free rate limit),
* ``sinc_normalized``        -- sin(pi x)/(pi x) on (0, 1) (pathloss constant),
* ``hyp2f1_kernel``          -- 2F1(1, b; 1+b; -z) for b in (0, 1), z >= 0
                                (the fading-averaged interference kernel),
* ``rate_rule``              -- the fixed composite Gauss-Kronrod rule every
                                ergodic rate in the package is evaluated on,
* ``integrate_semiinfinite`` -- adaptive Gauss-Kronrod quadrature on (0, inf)
                                for integrands with an exponentially decaying
                                envelope (the tests' accuracy reference for
                                ``rate_rule``).

No attempt is made at general-parameter hypergeometrics, complex arguments or
arbitrary precision; see the tests for the independent brute-force oracles
each routine is validated against.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

__all__ = [
    "DomainError",
    "ConvergenceError",
    "QuadratureSpec",
    "DEFAULT_QUADRATURE",
    "lower_incomplete_gamma",
    "exp_integral_e1",
    "sinc_normalized",
    "hyp2f1_kernel",
    "rate_rule",
    "integrate_semiinfinite",
    "golden_section_minimize",
    "bisect_nondecreasing",
]

_EULER_GAMMA = 0.5772156649015328606


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of the routine."""


class ConvergenceError(RuntimeError):
    """An iterative scheme exhausted its budget before reaching tolerance."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and budget for the semi-infinite quadrature.

    ``tail_cutoff_epsilon`` is the integrand magnitude below which the
    semi-infinite tail is truncated (with a geometric-decay remainder check).
    """

    relative_tolerance: float = 1e-8
    absolute_tolerance: float = 1e-12
    max_subdivisions: int = 2000
    tail_cutoff_epsilon: float = 1e-16

    def __post_init__(self) -> None:
        if not (self.relative_tolerance > 0.0):
            raise DomainError("relative_tolerance must be strictly positive")
        if not (self.absolute_tolerance > 0.0):
            raise DomainError("absolute_tolerance must be strictly positive")
        if self.max_subdivisions < 1:
            raise DomainError("max_subdivisions must be >= 1")
        if not (self.tail_cutoff_epsilon > 0.0):
            raise DomainError("tail_cutoff_epsilon must be strictly positive")


DEFAULT_QUADRATURE = QuadratureSpec()


# ---------------------------------------------------------------------------
# Incomplete gamma
# ---------------------------------------------------------------------------

def lower_incomplete_gamma(s: float, x: float) -> float:
    """Lower incomplete gamma function gamma(s, x) = int_0^x z^(s-1) e^(-z) dz.

    Uses the regularised power series for x < s + 1 and the Lentz continued
    fraction for the upper tail otherwise (the standard stable split).
    Monotone nondecreasing in x and bounded by Gamma(s).
    """
    if not (s > 0.0):
        raise DomainError(f"lower_incomplete_gamma requires s > 0, got s={s}")
    if x < 0.0:
        raise DomainError(f"lower_incomplete_gamma requires x >= 0, got x={x}")
    if x == 0.0:
        return 0.0
    if x < s + 1.0:
        return _gamma_series(s, x)
    return math.gamma(s) - _upper_gamma_cf(s, x)


def _gamma_series(s: float, x: float) -> float:
    # gamma(s,x) = x^s e^-x sum_{n>=0} x^n / (s (s+1) ... (s+n))
    term = 1.0 / s
    total = term
    for n in range(1, 10000):
        term *= x / (s + n)
        total += term
        if abs(term) < abs(total) * 1e-17:
            return total * math.exp(-x + s * math.log(x))
    raise ConvergenceError("incomplete gamma series did not converge")


def _upper_gamma_cf(s: float, x: float) -> float:
    # Gamma(s,x) via modified Lentz on the standard continued fraction.
    tiny = 1e-300
    b = x + 1.0 - s
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 10000):
        an = -i * (i - s)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            return h * math.exp(-x + s * math.log(x))
    raise ConvergenceError("incomplete gamma continued fraction did not converge")


# ---------------------------------------------------------------------------
# Exponential integral E1
# ---------------------------------------------------------------------------

def exp_integral_e1(x: float) -> float:
    """Exponential integral E1(x) = int_x^inf e^(-t)/t dt for x > 0.

    Power series for x <= 1, the Gamma(0, x) continued fraction for x > 1.
    """
    if not (x > 0.0):
        raise DomainError(f"exp_integral_e1 requires x > 0, got x={x}")
    if x <= 1.0:
        # E1(x) = -euler_gamma - ln x + sum_{k>=1} (-1)^(k+1) x^k / (k k!)
        total = -_EULER_GAMMA - math.log(x)
        term = 1.0
        for k in range(1, 80):
            term *= -x / k
            contrib = -term / k
            total += contrib
            if abs(contrib) < abs(total) * 1e-17 + 1e-300:
                break
        return total
    return _upper_gamma_cf(0.0, x)  # E1(x) = Gamma(0, x)


# ---------------------------------------------------------------------------
# Normalised sinc
# ---------------------------------------------------------------------------

def sinc_normalized(x: float) -> float:
    """sin(pi x)/(pi x) for x in (0, 1); the analytics call it at x = 2/alpha."""
    if not (0.0 < x < 1.0):
        raise DomainError(f"sinc_normalized requires 0 < x < 1, got x={x}")
    px = math.pi * x
    return math.sin(px) / px


# ---------------------------------------------------------------------------
# Interference hypergeometric kernel
# ---------------------------------------------------------------------------

def hyp2f1_kernel(b: float, z: Union[float, np.ndarray]) -> Union[float, np.ndarray]:
    """2F1(1, b; 1+b; -z) for b in (0, 1) and z >= 0, vectorised in z.

    Equals the normalised integral b * int_0^1 t^(b-1) / (1 + z t) dt, which
    is the fading-and-link-length average appearing inside every cellular
    interference Laplace transform.  It is 1 at z = 0, strictly decreasing,
    and positive.

    Evaluation is split into three exact, rapidly converging forms:

    * z < 0.35   : Maclaurin series  b * sum_k (-z)^k / (b + k),
    * 0.35..2.5  : the integral itself on the 16-node Gauss-Jacobi rule for
                   the weight t^(b-1) (``_jacobi_rule``); the pole of
                   1/(1+z t) sits at t = -1/z <= -0.4, so the rule's
                   truncation error is of order 3.3^-32 (about 3e-17),
    * z >= 2.5   : connection formula
                   pi b / sin(pi b) * z^-b  -  b * sum_{m>=1} (-1)^(m+1)
                   z^-m / (m - b).

    Large z stays a series because the pole approaches t = 0 and the
    integrand develops a sharp knee near t = z^(-1/b) that defeats
    fixed-order quadrature.  Each entry is summed over its own nodes in a
    fixed order (not a BLAS product, whose order can follow the batch
    layout), so its value does not depend on the rest of the batch.
    """
    if not (0.0 < b < 1.0):
        raise DomainError(f"hyp2f1_kernel requires 0 < b < 1, got b={b}")
    z_arr = np.asarray(z, dtype=float)
    if np.any(z_arr < 0.0):
        raise DomainError("hyp2f1_kernel requires z >= 0")
    scalar = z_arr.ndim == 0
    z_flat = np.atleast_1d(z_arr).ravel()
    out = np.empty_like(z_flat)

    small = z_flat < 0.35
    mid = (z_flat >= 0.35) & (z_flat < 2.5)
    big = z_flat >= 2.5

    if small.any():
        zz = z_flat[small]
        acc = np.zeros_like(zz)
        pow_z = np.ones_like(zz)
        for k in range(60):
            acc += pow_z / (b + k)
            pow_z *= -zz
            if not np.any(np.abs(pow_z) > 1e-18 * (b + k + 1)):
                break
        out[small] = b * acc

    if mid.any():
        t, w = _jacobi_rule(float(b))
        out[mid] = b * np.sum(w / (1.0 + z_flat[mid, None] * t), axis=1)

    if big.any():
        zz = z_flat[big]
        acc = np.zeros_like(zz)
        inv = 1.0 / zz
        pow_inv = inv.copy()
        sign = 1.0
        for m in range(1, 80):
            acc += sign * pow_inv / (m - b)
            pow_inv *= inv
            sign = -sign
            if not np.any(pow_inv / (m + 1 - b) > 1e-19):
                break
        out[big] = (math.pi * b / math.sin(math.pi * b)) * zz ** (-b) - b * acc

    if scalar:
        return float(out[0])
    return out.reshape(z_arr.shape)


@functools.lru_cache(maxsize=32)
def _jacobi_rule(b: float) -> tuple[np.ndarray, np.ndarray]:
    """16-node Gauss rule (t, w): int_0^1 t^(b-1) f(t) dt ~= sum(w f(t)).

    Golub-Welsch: the eigenvalues of the Jacobi matrix of the weight
    (1+x)^(b-1) on [-1, 1], mapped to [0, 1], are the nodes and the squared
    first eigenvector components over b are the weights.  Exact for
    polynomials of degree < 32.  Bounded because every new alpha brings two
    new exponents.
    """
    c = b - 1.0
    k = np.arange(1.0, 16.0)
    s = 2.0 * k + c
    diag = np.concatenate(([c / (c + 2.0)], c * c / (s * (s + 2.0))))
    off = 2.0 * k * (k + c) / (s * np.sqrt((s + 1.0) * (s - 1.0)))
    x, v = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    t, w = 0.5 * (1.0 + x), v[0] ** 2 / b
    t.flags.writeable = w.flags.writeable = False
    return t, w


# ---------------------------------------------------------------------------
# Gauss-Kronrod quadrature: the fixed rate rule and the adaptive integrator
# ---------------------------------------------------------------------------

# 15-point Kronrod nodes/weights on [-1, 1] with the embedded 7-point Gauss rule.
_GK_NODES = np.array([
    -0.991455371120812639206854697526329,
    -0.949107912342758524526189684047851,
    -0.864864423359769072789712788640926,
    -0.741531185599394439863864773280788,
    -0.586087235467691130294144838258730,
    -0.405845151377397166906606412076961,
    -0.207784955007898467600689403773245,
    0.0,
    0.207784955007898467600689403773245,
    0.405845151377397166906606412076961,
    0.586087235467691130294144838258730,
    0.741531185599394439863864773280788,
    0.864864423359769072789712788640926,
    0.949107912342758524526189684047851,
    0.991455371120812639206854697526329,
])
_GK_WEIGHTS = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
    0.204432940075298892414161999234649,
    0.190350578064785409913256402421014,
    0.169004726639267902826583426598550,
    0.140653259715525918745189590510238,
    0.104790010322250183839876322541518,
    0.063092092629978553290700663189204,
    0.022935322010529224963732008058970,
])
_G7_WEIGHTS = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
    0.381830050505118944950369775488975,
    0.279705391489276667901467771423780,
    0.129484966168869693270611432679082,
])


def rate_rule(n0: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes x and weights w with int_0^inf e^(-n0 x)/(1+x) g(x) dx ~= dot(w, g(x)).

    Composite GK15 on the panel [0, 2^-60], geometric panels
    [2^-(k+1), 2^-k] up to 1, then two panels per octave up to
    2^ceil(log2 max(2, 46/n0)), past which e^(-n0 x) < 1e-20.  The envelope
    e^(-n0 x)/(1+x) is folded into the weights.  Every rate in the package is
    this dot product with g(x) = exp(-c x^(2/alpha) [- Jout(x)]), 0 < g <= 1;
    the geometric panels resolve the x^(2/alpha) cusp at 0 for c 2^(-120/alpha)
    up to about 0.1 (c up to 1e5 at alpha = 6).  The tests pin the rule
    against :func:`integrate_semiinfinite` at 1e-9 relative.
    """
    if not (n0 > 1e-300):
        raise DomainError(f"rate_rule requires n0 > 1e-300, got n0={n0}")
    top = math.ceil(math.log2(max(2.0, 46.0 / n0)))
    octaves = 2.0 ** np.arange(top)
    edges = np.concatenate((
        [0.0],
        2.0 ** np.arange(-60.0, 0.0),
        np.column_stack((octaves, 1.5 * octaves)).ravel(),
        [2.0**top],
    ))
    half = 0.5 * np.diff(edges)
    x = (edges[:-1, None] + half[:, None] * (1.0 + _GK_NODES)).ravel()
    w = (half[:, None] * _GK_WEIGHTS).ravel() * np.exp(-n0 * x) / (1.0 + x)
    return x, w


def _gk15(f: Callable[[np.ndarray], np.ndarray], a: float, b: float) -> tuple[float, float, float]:
    """One Gauss-Kronrod 15(7) panel: (integral, error estimate, max |f|)."""
    half = 0.5 * (b - a)
    mid = 0.5 * (b + a)
    x = mid + half * _GK_NODES
    y = np.asarray(f(x), dtype=float)
    if y.shape != x.shape:
        raise DomainError("integrand must be vectorised: f(ndarray) -> ndarray of the same shape")
    k = half * float(np.dot(_GK_WEIGHTS, y))
    g = half * float(np.dot(_G7_WEIGHTS, y[1::2]))
    return k, abs(k - g), float(np.max(np.abs(y)))


def _adaptive_panel(f, a, b, tol, budget) -> tuple[float, int, float]:
    """Adaptively bisect [a, b] until the Kronrod error estimate is below tol.

    Returns (integral, subdivisions used, max |f| seen).  Depth-first with a
    shared budget.
    """
    stack = [(a, b, tol)]
    total = 0.0
    used = 0
    fmax = 0.0
    while stack:
        lo, hi, t = stack.pop()
        val, err, peak = _gk15(f, lo, hi)
        fmax = max(fmax, peak)
        used += 1
        if used > budget:
            raise ConvergenceError(
                f"quadrature exhausted {budget} subdivisions on [{a:g}, {b:g}]"
            )
        if err <= t or (hi - lo) < 1e-15 * max(1.0, abs(lo)):
            total += val
        else:
            mid = 0.5 * (lo + hi)
            stack.append((lo, mid, 0.5 * t))
            stack.append((mid, hi, 0.5 * t))
    return total, used, fmax


def integrate_semiinfinite(
    f: Callable[[np.ndarray], np.ndarray],
    spec: QuadratureSpec = DEFAULT_QUADRATURE,
) -> float:
    """Integrate a nonnegative, exponentially tailed integrand over (0, inf).

    The domain is covered by the panel [0, 1] followed by octave panels
    [2^k, 2^(k+1)], each refined adaptively by Gauss-Kronrod 15(7).  The
    march stops once two consecutive octaves contribute below the working
    tolerance *and* the integrand magnitude has fallen below
    ``spec.tail_cutoff_epsilon``; geometric decay of the octave contributions
    then bounds the dropped remainder by the last contribution, which is
    required to be within tolerance.  ``f`` must accept ndarray arguments.

    Raises ``ConvergenceError`` when ``spec.max_subdivisions`` panels are not
    enough to reach tolerance.
    """
    budget = spec.max_subdivisions
    used = 0
    total = 0.0

    val, n, _ = _adaptive_panel(f, 0.0, 1.0, spec.absolute_tolerance, budget)
    total += val
    used += n

    prev_contrib = abs(val)
    small_streak = 0
    lo = 1.0
    for _ in range(70):  # up to 2^70: any exponential envelope is long dead
        hi = 2.0 * lo
        tol_here = max(spec.absolute_tolerance, spec.relative_tolerance * abs(total)) * 0.25
        val, n, fmax = _adaptive_panel(f, lo, hi, tol_here, budget - used)
        used += n
        total += val
        threshold = max(spec.absolute_tolerance, spec.relative_tolerance * abs(total)) * 0.5
        if abs(val) < threshold and fmax < spec.tail_cutoff_epsilon and abs(val) <= prev_contrib:
            small_streak += 1
            if small_streak >= 2:
                return total
        else:
            small_streak = 0
        prev_contrib = abs(val)
        lo = hi
    raise ConvergenceError("semi-infinite tail did not decay within 70 octaves")


# ---------------------------------------------------------------------------
# Scalar searches (shared numeric plumbing)
# ---------------------------------------------------------------------------

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_MAX_SEARCH_ITER = 200  # cap on golden-section and bisection steps


def golden_section_minimize(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float = 1e-9,
) -> float:
    """Golden-section minimiser for a unimodal function on [lo, hi].

    Deterministic; returns the bracket midpoint once its width is below tol.
    """
    if not (hi > lo):
        raise DomainError("golden_section_minimize requires hi > lo")
    a, b = lo, hi
    x1 = b - _INV_PHI * (b - a)
    x2 = a + _INV_PHI * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(_MAX_SEARCH_ITER):
        if b - a <= tol:
            break
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INV_PHI * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INV_PHI * (b - a)
            f2 = f(x2)
    return 0.5 * (a + b)


def bisect_nondecreasing(
    g: Callable[[float], float],
    target: float,
    lo: float,
    hi: float,
    tol: float = 1e-12,
) -> float:
    """Solve g(x) = target for nondecreasing g on [lo, hi] by bisection.

    Assumes g(lo) <= target <= g(hi); returns the midpoint of the final
    bracket.
    """
    a, b = lo, hi
    for _ in range(_MAX_SEARCH_ITER):
        if b - a <= tol:
            break
        mid = 0.5 * (a + b)
        if g(mid) <= target:
            a = mid
        else:
            b = mid
    return 0.5 * (a + b)

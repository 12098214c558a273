"""Student-t and F tail probabilities from first principles.

Everything reduces to the regularized incomplete beta function, evaluated
with the modified Lentz continued fraction. Accuracy target is 1e-10
absolute over the parameter ranges that occur in small-study statistics
(df up to a few hundred); the test suite cross-checks against independent
oracles. The t quantile is a bisection on the CDF whose comparisons are
predicted from a Newton root, so that only the midpoints near the root
evaluate the CDF; its result is that of the plain bisection, bit for bit.
Only ``math`` is imported, so the statistics lane carries no numeric
dependencies.
"""

from __future__ import annotations

import math

_MAX_ITERATIONS = 400
_EPS = 3e-16
_TINY = 1e-300


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz)."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _TINY:
        d = _TINY
    d = 1.0 / d
    h = d
    for m in range(1, _MAX_ITERATIONS + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _TINY:
            d = _TINY
        c = 1.0 + aa / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _TINY:
            d = _TINY
        c = 1.0 + aa / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            return h
    raise ArithmeticError(f"incomplete beta did not converge for a={a}, b={b}, x={x}")


def betainc_regularized(a: float, b: float, x: float) -> float:
    """I_x(a, b) for a > 0, b > 0, 0 <= x <= 1."""
    if a <= 0 or b <= 0:
        raise ValueError("shape parameters must be positive")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must lie in [0, 1], got {x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_front = (
        a * math.log(x)
        + b * math.log1p(-x)
        - (math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))
    )
    front = math.exp(ln_front)
    # The continued fraction converges fast only on its own side of the
    # mean; use the reflection I_x(a,b) = 1 - I_(1-x)(b,a) on the other.
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def t_cdf(t: float, df: float) -> float:
    if df <= 0:
        raise ValueError("degrees of freedom must be positive")
    if t == 0.0:
        return 0.5
    x = df / (df + t * t)
    tail = 0.5 * betainc_regularized(df / 2.0, 0.5, x)
    return 1.0 - tail if t > 0 else tail


def t_sf(t: float, df: float) -> float:
    return t_cdf(-t, df)


def t_two_sided_p(t: float, df: float) -> float:
    """P(|T| >= |t|), computed in one tail to avoid cancellation."""
    if df <= 0:
        raise ValueError("degrees of freedom must be positive")
    if t == 0.0:
        return 1.0
    return betainc_regularized(df / 2.0, 0.5, df / (df + t * t))


def f_sf(f: float, df_num: float, df_den: float) -> float:
    """P(F >= f) for the F distribution."""
    if df_num <= 0 or df_den <= 0:
        raise ValueError("degrees of freedom must be positive")
    if f <= 0.0:
        return 1.0
    return betainc_regularized(df_den / 2.0, df_num / 2.0, df_den / (df_den + df_num * f))


def _normal_upper_quantile(q: float) -> float:
    """z with P(Z >= z) = q for 0 < q <= 0.5: Abramowitz & Stegun 26.2.23
    (absolute error below 4.5e-4), then one Halley step on ``erfc``."""
    t = math.sqrt(-2.0 * math.log(q))
    z = t - (2.515517 + t * (0.802853 + t * 0.010328)) / (
        1.0 + t * (1.432788 + t * (0.189269 + t * 0.001308)))
    density = math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    e = (0.5 * math.erfc(z / math.sqrt(2.0)) - q) / density
    return z + e / (1.0 - 0.5 * z * e)


def _hill_start(p: float, df: float) -> float:
    """Approximate t quantile for p > 0.5 and df >= 1 (Hill 1970, CACM
    Algorithm 396): exact for df 1 and 2, otherwise a Cornish-Fisher type
    expansion about the normal quantile, or a tail series far out."""
    tails = 2.0 * (1.0 - p)
    if df == 1.0:
        return 1.0 / math.tan(0.5 * math.pi * tails)
    if df == 2.0:
        return math.sqrt(2.0 / (tails * (2.0 - tails)) - 2.0)
    a = 1.0 / (df - 0.5)
    b = 48.0 / (a * a)
    c = ((20700.0 * a / b - 98.0) * a - 16.0) * a + 96.36
    d = ((94.5 / (b + c) - 3.0) / b + 1.0) * math.sqrt(0.5 * a * math.pi) * df
    y = (d * tails) ** (2.0 / df)
    if y > 0.05 + a or (df < 2.1 and tails > 0.5):
        x = -_normal_upper_quantile(0.5 * tails)
        if df < 5.0:
            c += 0.3 * (df - 4.5) * (x + 0.6)
        c = (((0.05 * d * x - 5.0) * x - 7.0) * x - 2.0) * x + b + c
        y = x * x
        y = (((((0.4 * y + 6.3) * y + 36.0) * y + 94.5) / c - y - 3.0) / b + 1.0) * x
        y = math.expm1(a * y * y)
    else:
        y = ((1.0 / (((df + 6.0) / (df * y) - 0.089 * d - 0.822) * (df + 2.0) * 3.0)
              + 0.5 / (df + 4.0)) * y - 1.0) * (df + 1.0) / (df + 2.0) + 1.0 / y
    return math.sqrt(df * y)


def t_ppf(p: float, df: float) -> float:
    """Quantile of the t distribution by bisection on :func:`t_cdf`.

    The bisection (a doubling bracket from 1, then midpoints until the
    bracket is within 1e-13 relative) decides each step by comparing
    ``t_cdf(mid, df)`` with ``p``. Most of those comparisons are known in
    advance: a few Newton steps on the t density, from Hill's start, find
    the root ``r``, and ``t_cdf`` is checked once to lie below ``p`` at
    ``r - h`` and at or above it at ``r + h``, with
    ``h = 1e-10 / pdf(r) + 1e-11 * r`` (widened until the check holds).
    ``t_cdf`` is monotone, so every midpoint outside that window takes its
    side from the check, and only the midpoints inside it call ``t_cdf``.
    The steps and the result are those of the plain bisection. Below df 1,
    or if Newton does not settle, the window is the whole line.
    """
    if df <= 0:
        raise ValueError("degrees of freedom must be positive")
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie in (0, 1), got {p}")
    if p == 0.5:
        return 0.0
    if p < 0.5:
        return -t_ppf(1.0 - p, df)
    log_scale = (math.lgamma(0.5 * (df + 1.0)) - math.lgamma(0.5 * df)
                 - 0.5 * math.log(df * math.pi))

    def pdf(x: float) -> float:
        return math.exp(log_scale - 0.5 * (df + 1.0) * math.log1p(x * x / df))

    root, half = 0.0, math.inf  # the widest window: no comparison is predicted
    if df >= 1.0:
        x = _hill_start(p, df)
        for _ in range(8):
            density = pdf(x)
            if not (x > 0.0 and density > 0.0):
                break
            step = (t_cdf(x, df) - p) / density
            x -= step
            # The next step would be about step**2: stop once that is a
            # hundredth of the window.
            if step * step <= 1e-12 / density:
                root, half = x, 1e-10 / max(pdf(x), _TINY) + 1e-11 * x
                break
    while not (t_cdf(root - half, df) < p <= t_cdf(root + half, df)):
        half *= 16.0
    below, above = root - half, root + half
    hi = 1.0
    while hi <= below or (hi < above and t_cdf(hi, df) < p):
        hi *= 2.0
        if hi > 1e308:
            raise ArithmeticError("quantile bracket expansion failed")
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid <= below or (mid < above and t_cdf(mid, df) < p):
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-13 * max(1.0, abs(hi)):
            break
    return 0.5 * (lo + hi)

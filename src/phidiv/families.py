"""Closed-form divergence generator families and their convex conjugates.

A family is described by a convex generator ``phi`` with ``phi(1) = 0`` and
its Fenchel-Legendre conjugate ``psi(t) = sup_x {t*x - phi(x)}``.  The whole
power family is parameterized by a real index ``gamma``:

    gamma = 0    modified Kullback-Leibler (KLm, the empirical likelihood one)
    gamma = 1    Kullback-Leibler (KL)
    gamma = 2    chi-square (quadratic, defined on all of R)
    gamma = -1   modified chi-square
    gamma = 1/2  Hellinger, with the 2*(sqrt(x)-1)^2 normalization

The log cases gamma in {0, 1} and the quadratic case gamma = 2 use dedicated
closed forms; every other index goes through the generic power formulas, so
e.g. Hellinger and Power(0.5) are the same code path by construction.

Values outside a domain are reported as +inf (never NaN or overflow); at a
finite conjugate-domain endpoint ``psi`` returns its closure value.  For
gamma > 1 (but 2), phi(0) = 1/gamma is finite: psi is -1/gamma, its sup at
x = 0, at and below a_star = -1/(gamma - 1), and its derivatives vanish.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

INF = float("inf")


@dataclass(frozen=True)
class DivergenceFamily:
    """Immutable descriptor of one generator/conjugate pair."""

    name: str
    gamma: float
    a: float       # endpoints of dom phi
    b: float
    a_star: float  # where psi turns flat (gamma > 1), else -inf
    b_star: float  # upper endpoint of dom psi

    # ----- generator -------------------------------------------------

    def phi(self, x):
        """Generator value, extended by +inf outside its domain."""
        return _as_like(x, _phi_arr(self.gamma, np.asarray(x, dtype=float)))

    # ----- conjugate -------------------------------------------------

    def psi(self, t):
        """Conjugate value; closure value at finite endpoints, +inf outside."""
        return _as_like(t, _psi_arr(self.gamma, np.asarray(t, dtype=float)))

    # Array-friendly derivative evaluators.  Callers (the dual solver) are
    # responsible for feasibility; out-of-domain entries come back inf/nan.
    def psi_d1(self, t):
        t = np.asarray(t, dtype=float)
        return 1.0 + t if self.gamma == 2.0 else _psi_power_d(self.gamma, t, 1.0)

    def psi_d2(self, t):
        t = np.asarray(t, dtype=float)
        return np.ones_like(t) if self.gamma == 2.0 else \
            _psi_power_d(self.gamma, t, 2.0 - self.gamma)

    def interior(self, margin=1e-10):
        """Bounds (lo, hi) of dom psi shrunk by an absolute margin at a
        finite upper endpoint: u is strictly feasible when lo < u < hi.
        dom psi has no lower bound (lo = -inf): only gamma > 1 has a finite
        a_star, and psi is flat below it."""
        return -INF, self.b_star - margin if math.isfinite(self.b_star) else INF

    def strictly_feasible(self, u, margin=1e-10):
        """True when every entry of u is inside dom psi, with an absolute
        safety margin at finite endpoints."""
        u = np.asarray(u, dtype=float)
        lo, hi = self.interior(margin)
        return bool(u.min() > lo and u.max() < hi)


def _as_like(x, arr):
    if np.isscalar(x) or np.ndim(x) == 0:
        return float(np.asarray(arr).reshape(-1)[0])
    return np.asarray(arr)


def _psi_power_d(g, t, num):
    """psi' (num = 1) or psi'' (num = 2 - g) of the family g != 2: exp(t)
    for g = 1, else ((g - 1) t + 1) ** (num / (g - 1)), flat (0) below
    a_star for g > 1."""
    if g == 1.0:
        with np.errstate(over="ignore"):
            return np.exp(t)
    base = (g - 1.0) * t + 1.0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        d = base ** (num / (g - 1.0))
    return np.where(base > 0.0, d, 0.0) if g > 1.0 else d


def _phi_arr(g, x):
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if g == 2.0:
        return 0.5 * (x - 1.0) ** 2
    out = np.full(x.shape, INF)
    pos = x > 0.0
    xp = x[pos]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if g == 0.0:
            out[pos] = -np.log(xp) + xp - 1.0
        elif g == 1.0:
            out[pos] = xp * np.log(xp) - xp + 1.0
            out[x == 0.0] = 1.0
        else:
            out[pos] = (xp ** g - g * xp + g - 1.0) / (g * (g - 1.0))
            if g > 0.0:
                out[x == 0.0] = 1.0 / g
    return out


def _psi_arr(g, t):
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if g == 2.0:
        return 0.5 * t * t + t
    if g == 1.0:
        with np.errstate(over="ignore"):
            return np.expm1(t)
    out = np.full(t.shape, INF)
    if g == 0.0:
        ok = t < 1.0
        out[ok] = -np.log1p(-t[ok])
        return out
    base = (g - 1.0) * t + 1.0
    q = g / (g - 1.0)
    pos = base > 0.0
    with np.errstate(over="ignore"):
        out[pos] = (base[pos] ** q - 1.0) / g
    if g > 1.0:  # at and below a_star the sup over x >= 0 is at x = 0
        out[base <= 0.0] = -1.0 / g
    elif q > 0.0:  # gamma < 0: closure value is finite at the edge b_star
        out[base == 0.0] = -1.0 / g
    return out


def power_family(gamma):
    """Power-divergence family with index gamma (any finite real)."""
    gamma = float(gamma)
    if not math.isfinite(gamma):
        raise ValueError(f"power index must be finite, got {gamma}")
    named = {0.0: "KLm", 1.0: "KL", 2.0: "chi2", -1.0: "chi2m", 0.5: "hellinger"}
    name = named.get(gamma, f"power:{gamma:g}")
    if gamma == 2.0:
        a, b = -INF, INF
    else:
        a, b = 0.0, INF
    if gamma == 1.0 or gamma == 2.0:
        a_star, b_star = -INF, INF
    elif gamma > 1.0:
        a_star, b_star = -1.0 / (gamma - 1.0), INF
    else:
        a_star, b_star = -INF, 1.0 / (1.0 - gamma)
    return DivergenceFamily(name, gamma, a, b, a_star, b_star)


KLM = power_family(0.0)
KL = power_family(1.0)
CHI2 = power_family(2.0)
CHI2M = power_family(-1.0)
HELLINGER = power_family(0.5)

_BY_NAME = {
    "klm": KLM,
    "kl": KL,
    "chi2": CHI2,
    "chi2m": CHI2M,
    "hellinger": HELLINGER,
}


def family(spec):
    """Resolve a family from its name or a ``power:gamma`` spec string."""
    if isinstance(spec, DivergenceFamily):
        return spec
    key = str(spec).strip().lower()
    if key in _BY_NAME:
        return _BY_NAME[key]
    if key.startswith("power:"):
        try:
            return power_family(float(key.split(":", 1)[1]))
        except ValueError:
            pass
    raise ValueError(f"unknown divergence family: {spec!r}")

"""Problem parameters and closed-form blow-up profiles.

Model: u_t = Δu + u^p for complex u = u1 + i*u2 with integer p >= 2.
Space-independent solutions blow up like kappa (T-t)^{-1/(p-1)} with
kappa = (p-1)^{-1/(p-1)}.  Near a generic single blow-up point the real
part approaches the profile f0 in the slow variable z = y/sqrt(s) and
the imaginary part approaches g0 carrying one extra 1/s factor
(similarity frame: y = x/sqrt(T-t), s = -ln(T-t)).

Two routines evaluate the profiles: `outer_profile` gives the terms of the
outer expansion in z, f0 = R10 and g0 = R21 among them, and `phi` gives the
profile pair Phi1 + i Phi2 in (y, s) that the perturbation system is
written around.  Every radial profile here takes the *squared* radius
z2 = |z|^2 (or y2 = |y|^2) so 1-D and n-D callers share one code path.
Given a truncated Taylor series (`Series`) for z2, `outer_profile` returns
the profile's series, whose exact derivatives the verifier and `rhs.rest_r` read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

# Exact integer binomial tables exist only up to this exponent; the whole
# package enforces the same cap so nonlinearity evaluations stay exact.
MAX_P = 9

OUTER_KINDS = ("R10", "R11", "R21", "R22")
# most halvings bisect_root makes; float resolution ends it sooner on any bracket
BISECT_MAX_ITER = 200


@dataclass(frozen=True)
class Params:
    """Scalar constants of the problem.

    p:      integer nonlinearity exponent, 2 <= p <= 9
    n_dim:  spatial dimension of the physical domain
    kappa:  (p-1)^{-1/(p-1)}, amplitude of the constant blow-up solutions
    b:      (p-1)^2/(4p), curvature constant of the modulus profile
    """

    p: int
    n_dim: int
    kappa: float
    b: float


def _checked_p(p) -> int:
    """p as an int once it passes the package's rule: an integer in [2, MAX_P]."""
    if isinstance(p, bool) or not isinstance(p, (int, np.integer)):
        raise TypeError(f"p must be an integer, got {p!r}")
    if p < 2:
        raise ValueError(f"p must be >= 2, got {p}")
    if p > MAX_P:
        raise ValueError(f"p must be <= {MAX_P} (exact binomial range), got {p}")
    return int(p)


def make_params(p: int, n_dim: int = 1) -> Params:
    """Build Params, deriving kappa and b from p."""
    p = _checked_p(p)
    if isinstance(n_dim, bool) or not isinstance(n_dim, (int, np.integer)):
        raise TypeError(f"n_dim must be an integer, got {n_dim!r}")
    if n_dim < 1:
        raise ValueError(f"n_dim must be >= 1, got {n_dim}")
    kappa = (p - 1.0) ** (-1.0 / (p - 1.0))
    b = (p - 1.0) ** 2 / (4.0 * p)
    return Params(p=p, n_dim=int(n_dim), kappa=kappa, b=b)


class Series:
    """Taylor coefficients c[0..2] of a function of one variable at an array of points.

    The k-th derivative is k! c[k].  A closed form evaluated on Series.at(x)
    gives its value and first two derivatives at x, exact up to roundoff
    (Taylor-mode automatic differentiation: Griewank & Walther, Evaluating
    Derivatives, 2nd ed., SIAM 2008, ch. 13).  +, - and * take series or
    numbers (a number meets only c[0] in a sum and scales each coefficient in
    a product); ** (real exponent) and np.log need c[0] != 0.
    """

    def __init__(self, c):
        self.c = c

    @classmethod
    def at(cls, x):
        """The variable itself at the points x: coefficients [x, 1, 0], the constants as numbers."""
        return cls([np.asarray(x, dtype=float), 1.0, 0.0])

    def __add__(self, other):
        if isinstance(other, Series):
            return Series([a + b for a, b in zip(self.c, other.c)])
        return Series([self.c[0] + other, *self.c[1:]])

    __radd__ = __add__

    def __sub__(self, other):
        return self + other * -1.0

    def __mul__(self, other):
        if not isinstance(other, Series):
            return Series([other * a for a in self.c])
        (a0, a1, a2), (b0, b1, b2) = self.c, other.c
        return Series([a0 * b0, a0 * b1 + a1 * b0, a0 * b2 + a1 * b1 + a2 * b0])

    __rmul__ = __mul__

    def __pow__(self, alpha):
        # from a f' = alpha a' f: k a0 f_k = sum_{j=1..k} (alpha j - (k - j)) a_j f_{k-j}
        a0, a1, a2 = self.c
        f0 = a0**alpha
        f1 = alpha * a1 * f0 / a0
        return Series([f0, f1, ((alpha - 1.0) * a1 * f1 + 2.0 * alpha * a2 * f0) / (2.0 * a0)])

    def log(self):
        # from a l' = a': k a0 l_k = k a_k - sum_{j=1..k-1} j l_j a_{k-j}
        a0, a1, a2 = self.c
        l1 = a1 / a0
        return Series([np.log(a0), l1, (a2 - 0.5 * l1 * a1) / a0])


def _check_nonneg(z2, name: str):
    """z2 as a float array (a Series as it is) once its values are >= 0."""
    values = z2.c[0] if isinstance(z2, Series) else np.asarray(z2, dtype=float)
    if (values < 0).any():
        raise ValueError(f"{name} is a squared radius and must be >= 0")
    return z2 if isinstance(z2, Series) else values


def phi(params: Params, y2, s) -> np.ndarray:
    """The profile pair Phi1 + i Phi2 in the similarity frame, as one complex array.

      Phi1(y, s) = f0(|y|^2/s) + n kappa/(2 p s)
      Phi2(y, s) = g0(|y|^2/s)/s - 2 n kappa/((p-1) s^2)

    with f0 = R10 and g0 = R21 of outer_profile; the shift of Phi2 makes its
    Gaussian mean vanish to leading order.  s > 0 may be an array
    broadcasting against y2.
    """
    if np.any(np.asarray(s) <= 0):
        raise ValueError(f"s must be > 0, got {s}")
    p, n_kappa = params.p, params.n_dim * params.kappa
    z2 = _check_nonneg(y2, "y2") / s
    a = p - 1 + params.b * z2
    out = np.empty(np.shape(a), dtype=np.complex128)
    out.real = a ** (-1.0 / (p - 1)) + n_kappa / (2.0 * p * s)
    out.imag = z2 * a ** (-p / (p - 1.0)) / s - 2.0 * n_kappa / ((p - 1) * s * s)
    return out


def outer_profile(params: Params, kind: str, z2):
    """Closed-form outer-expansion profiles in z = y/sqrt(s).

    kind is one of "R10", "R11", "R21", "R22"; w1 ~ R10 + R11/s + ...,
    w2 ~ R21/s + R22/s^2 + ...  With A = p-1 + b z^2,

      R10 = f0 = A^{-1/(p-1)}   (the modulus profile)
      R21 = g0 = z^2 A^{-p/(p-1)}
      R22 = -2 A^{-p/(p-1)} - ((p-1)/2) z^2 A^{-(2p-1)/(p-1)}
            + ((p-2)/(p-1)) z^2 ln(A) A^{-p/(p-1)} + p z^2 ln(A) A^{-(2p-1)/(p-1)}

    (verifier.fit_r22_constants certifies R22 against its ODE); a Series z2 gives a Series.
    """
    if kind not in OUTER_KINDS:
        raise ValueError(f"kind must be one of {OUTER_KINDS}, got {kind!r}")
    z2 = _check_nonneg(z2, "z2")
    p = params.p
    a = p - 1 + params.b * z2
    if kind == "R10":
        return a ** (-1.0 / (p - 1))
    decay = a ** (-p / (p - 1.0))
    if kind == "R21":
        return z2 * decay
    if kind == "R11":
        return (p - 1) / (2.0 * p) * decay - (p - 1) / (4.0 * p) * z2 * np.log(a) * decay
    decay_steep = a ** (-(2.0 * p - 1) / (p - 1.0))
    log_a = np.log(a)
    return (
        -2.0 * decay
        - (p - 1) / 2.0 * z2 * decay_steep
        + (p - 2) / (p - 1.0) * z2 * log_a * decay
        + p * z2 * log_a * decay_steep
    )


def exact_constant_solution(params: Params, k: int, t: float, T: float) -> tuple[float, float]:
    """Space-independent exact blow-up solution, split into real parts.

    u(t) = kappa e^{i 2 k pi/(p-1)} (T-t)^{-1/(p-1)}; returns (u1, u2).
    """
    if t >= T:
        raise ValueError(f"need t < T, got t={t}, T={T}")
    p = params.p
    theta = 2.0 * math.pi * k / (p - 1)
    r = params.kappa * (T - t) ** (-1.0 / (p - 1))
    return (r * math.cos(theta), r * math.sin(theta))


def hat_uv(params: Params, tau, k0sq) -> tuple[np.ndarray, np.ndarray]:
    """Intermediate-region limit profiles on the curve |x0| = K0 sqrt((T-t0)|ln(T-t0)|).

    In the rescaled time tau = (t - t0)/(T - t0):
      U(tau)  = ((p-1)(1-tau) + b K0^2)^{-1/(p-1)}
      V2(tau) = K0^2 ((p-1)(1-tau) + b K0^2)^{-p/(p-1)}
    They solve dU/dtau = U^p, dV2/dtau = p U^{p-1} V2 with initial values
    (f0(K0^2), g0(K0^2)).  Takes the squared parameter k0sq = K0^2; tau may
    be anything in [0, 1] (finite up to and including the endpoint).
    """
    tau = np.asarray(tau, dtype=float)
    if np.any(tau < 0) or np.any(tau > 1):
        raise ValueError("tau must lie in [0, 1]")
    if np.any(np.asarray(k0sq, dtype=float) <= 0):
        raise ValueError("k0sq must be > 0")
    p = params.p
    base = (p - 1) * (1.0 - tau) + params.b * k0sq
    u_hat = base ** (-1.0 / (p - 1))
    v2_hat = k0sq * base ** (-p / (p - 1.0))
    return u_hat, v2_hat


def final_profile_prediction(params: Params, x) -> tuple[np.ndarray, np.ndarray]:
    """Predicted final profiles u*(x), u2*(x) as x -> 0 (0 < |x| < 1).

    u*(x)  = [ (p-1)^2 |x|^2 / (8p |ln|x||) ]^{-1/(p-1)}
    u2*(x) = (2p/(p-1)^2) u*(x) / |ln|x||
    """
    x = np.abs(np.asarray(x, dtype=float))
    if np.any(x <= 0) or np.any(x >= 1):
        raise ValueError("need 0 < |x| < 1")
    p = params.p
    log_abs = np.abs(np.log(x))
    u1_star = ((p - 1) ** 2 * x * x / (8.0 * p * log_abs)) ** (-1.0 / (p - 1))
    u2_star = 2.0 * p / (p - 1) ** 2 * u1_star / log_abs
    return u1_star, u2_star


def bisect_root(
    fn: Callable[[float], float],
    lo: float,
    hi: float,
    *,
    residual_tol: float = 1e-12,
    residual_scale: float = 1.0,
) -> float:
    """Bisection for a monotone sign change of fn on [lo, hi].

    Stops when |fn(mid)| <= residual_tol * residual_scale or the bracket
    is exhausted at float resolution.  Raises if fn(lo), fn(hi) do not
    bracket a root.
    """
    flo, fhi = fn(lo), fn(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0) == (fhi > 0):
        raise ValueError(f"no sign change on [{lo}, {hi}]: f={flo}, {fhi}")
    tol = residual_tol * residual_scale
    for _ in range(BISECT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        fmid = fn(mid)
        if abs(fmid) <= tol or mid == lo or mid == hi:
            return mid
        if (fmid > 0) == (flo > 0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return 0.5 * (lo + hi)

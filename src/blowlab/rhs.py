"""Right-hand-side pieces of the perturbation system.

Writing u = u1 + i*u2 and expanding (u1 + i u2)^p with the binomial
theorem gives the real pair

    F1(u1, u2) = sum_{2j <= p}   C(p,2j)   (-1)^j u1^{p-2j}   u2^{2j}
    F2(u1, u2) = sum_{2j+1 <= p} C(p,2j+1) (-1)^j u1^{p-2j-1} u2^{2j+1}

Around the profile pair (Phi1, Phi2) the deviation q = w - Phi solves

    ∂_s q_i = (L + V) q_i + sum_j V_{i,j} q_j + B_i(q) + R_i(y, s)

with V the scalar potential p(Phi1^{p-1} - 1/(p-1)), V_{i,j} the
off-profile parts of the Jacobian of (F1, F2), B the pure second-order
Taylor remainder of F at Phi, and R the residual of the profile pair
under the similarity flow.  All of those pieces live here, together with
the smooth cutoff and the initial data of the trapped construction.  V,
V_{i,j} and B take Phi1 + i Phi2 from their caller; R reads params.phi and
the Taylor series of f0 and g0.  F and its Jacobian stay binomial sums in the
real pair: V11 = Re(p Phi^{p-1}) - p Phi1^{p-1} would cancel catastrophically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .params import Params, Series, _checked_p, outer_profile, phi
from .spectral import Grid


def f1f2(u1, u2, p: int):
    """Real and imaginary parts of (u1 + i u2)^p via exact binomial sums."""
    p = _checked_p(p)
    u1 = np.asarray(u1, dtype=float)
    u2 = np.asarray(u2, dtype=float)
    u2sq = u2 * u2
    out1 = np.zeros(np.broadcast(u1, u2).shape)
    out2 = np.zeros_like(out1)
    for j in range(p // 2 + 1):
        out1 = out1 + (-1) ** j * math.comb(p, 2 * j) * u1 ** (p - 2 * j) * u2sq**j
    for j in range((p - 1) // 2 + 1):
        out2 = out2 + (-1) ** j * math.comb(p, 2 * j + 1) * u1 ** (p - 2 * j - 1) * u2sq**j * u2
    return out1, out2


def bar_b(params: Params, w1bar, w2):
    """Nonlinear remainder of the flow linearized at the constant state kappa.

    bar_b1 = F1(kappa + w1bar, w2) - kappa^p - (p/(p-1)) w1bar
    bar_b2 = F2(kappa + w1bar, w2) - (p/(p-1)) w2

    Leading behaviour: bar_b1 ~ (p/2kappa) w1bar^2, bar_b2 ~ (p/kappa) w1bar w2.
    """
    p = params.p
    kap = params.kappa
    w1bar = np.asarray(w1bar, dtype=float)
    w2 = np.asarray(w2, dtype=float)
    g1, g2 = f1f2(kap + w1bar, w2, p)
    lin = p / (p - 1.0)
    return g1 - kap**p - lin * w1bar, g2 - lin * w2


def potential_v(params: Params, pair):
    """Scalar potential V = p (Phi1^{p-1} - 1/(p-1)) at pair = Phi1 + i Phi2."""
    p = params.p
    return p * (pair.real ** (p - 1) - 1.0 / (p - 1))


def potentials_vjk(params: Params, pair):
    """Profile-coupling potentials (V11, V12, V21, V22) at pair = Phi1 + i Phi2.

    The entries of the Jacobian of (F1, F2) at (Phi1, Phi2), less the diagonal
    part p Phi1^{p-1} absorbed into V.  F is u -> u^p, so by Cauchy-Riemann the
    Jacobian is [[a, -b], [b, a]] with a + i b = p Phi^{p-1}, and
      V11 = V22 = a - p Phi1^{p-1} = p sum_{j>=1} (-1)^j C(p-1,2j) Phi1^{p-1-2j} Phi2^{2j}
      V21 = -V12 = b = p sum_{j>=0} (-1)^j C(p-1,2j+1) Phi1^{p-2-2j} Phi2^{2j+1}
    with no cancelling terms.  For p=2, V11 = V22 = 0 and V21 = -V12 = 2 Phi2.
    """
    p = params.p
    p1v, p2v = pair.real, pair.imag
    p2sq = p2v * p2v
    v11, v21 = np.zeros(np.shape(pair)), np.zeros(np.shape(pair))
    for j in range(1, (p - 1) // 2 + 1):
        c = (-1) ** j * p * math.comb(p - 1, 2 * j)
        v11 = v11 + c * p1v ** (p - 1 - 2 * j) * p2sq**j
    for j in range((p - 2) // 2 + 1):
        c = (-1) ** j * p * math.comb(p - 1, 2 * j + 1)
        v21 = v21 + c * p1v ** (p - 2 - 2 * j) * p2sq**j * p2v
    return v11, -v21, v21, v11


def quadratic_b(params: Params, q1, q2, pair):
    """Pure second-order Taylor remainder of (F1, F2) at pair = Phi1 + i Phi2.

    B_i(q) = F_i(Phi + q) - F_i(Phi) - [Jacobian at Phi] q.  For p = 2 this
    is exactly (q1^2 - q2^2, 2 q1 q2).  q1 and q2 broadcast against pair, so
    a stack of deviations shares one evaluation of the profile terms.
    """
    p = params.p
    q1 = np.asarray(q1, dtype=float)
    q2 = np.asarray(q2, dtype=float)
    p1v, p2v = pair.real, pair.imag
    f1_pert, f2_pert = f1f2(p1v + q1, p2v + q2, p)
    f1_base, f2_base = f1f2(p1v, p2v, p)
    v11, v12, v21, v22 = potentials_vjk(params, pair)
    diag = p * p1v ** (p - 1)
    b1 = f1_pert - f1_base - (diag + v11) * q1 - v12 * q2
    b2 = f2_pert - f2_base - v21 * q1 - (diag + v22) * q2
    return b1, b2


def rest_r(params: Params, y2, s):
    """Residual (R1, R2) of the profile pair under the similarity flow.

    R_i = ΔPhi_i - (y/2)·∇Phi_i - Phi_i/(p-1) + F_i(Phi1, Phi2) - ∂_s Phi_i,
    evaluated analytically through the radial variable xi = |y|^2/s: for
    h(y, s) = s^-k f(xi), Δh = s^-k (4 xi f'' + 2 n f')/s, (y/2)·∇h = s^-k xi f'
    and ∂_s h = -s^-k (xi f' + k f)/s.  Phi1 is f0 (k = 0) and Phi2 is g0
    (k = 1), each plus a pure power of s (params.phi); the xi-derivatives of
    f0 and g0 are read off their Taylor series (params.Series).

    At the origin s^2 R1 -> c1 (fitted elsewhere) and
    s^3 R2 -> -n(n+4) kappa/(p-1).  It reads Phi itself: like phi it is a
    closed form in xi, it needs y2 and s for the profile's xi-derivatives,
    and none of its grids is shared with another piece.
    """
    pair = phi(params, y2, s)  # validates s > 0 and y2 >= 0
    p = params.p
    n = params.n_dim
    kap = params.kappa
    xi = np.asarray(y2, dtype=float) / s

    def flow(kind, k):
        # (Δ - (y/2)·∇ - ∂_s) s^-k f(xi) for the profile f of kind
        f, df, half_d2f = outer_profile(params, kind, Series.at(xi)).c
        return ((8.0 * xi * half_d2f + 2.0 * n * df) / s - xi * df + (xi * df + k * f) / s) / s**k

    fo1, fo2 = f1f2(pair.real, pair.imag, p)
    r1 = flow("R10", 0) - pair.real / (p - 1) + fo1 + n * kap / (2.0 * p * s * s)
    r2 = flow("R21", 1) - pair.imag / (p - 1) + fo2 - 4.0 * n * kap / ((p - 1) * s**3)
    return r1, r2


# ---------------------------------------------------------------------------
# cutoff and initial data


@dataclass(frozen=True)
class CutoffSpec:
    """Smooth cutoff chi(y, s) = chi0(|y| / (K sqrt(s))).

    chi0 is the standard C-infinity partition bump built from e^{-1/x}:
    identically 1 on [0, 1], identically 0 on [2, inf), monotone between.
    """

    K: float = 5.0

    def __post_init__(self):
        if not 0 < self.K < math.inf:
            raise ValueError(f"K must be > 0 and finite, got {self.K}")


def chi0(x) -> np.ndarray:
    """C-infinity bump: 1 for x <= 1, 0 for x >= 2, e^{-1/x}-partition between."""
    x = np.asarray(x, dtype=float)
    out = np.ones_like(x)
    out[x >= 2.0] = 0.0
    mid = (x > 1.0) & (x < 2.0)
    if np.any(mid):
        t = x[mid]
        up = np.exp(-1.0 / (2.0 - t))
        down = np.exp(-1.0 / (t - 1.0))
        out[mid] = up / (up + down)
    return out


def cutoff_chi(cut: CutoffSpec, y2, s) -> np.ndarray:
    """chi(y, s) = chi0(|y| / (K sqrt(s))) from the squared radius."""
    if s <= 0:
        raise ValueError(f"s must be > 0, got {s}")
    y2 = np.asarray(y2, dtype=float)
    return chi0(np.sqrt(y2 / (cut.K * cut.K * s)))


def cutoff_box(cut: CutoffSpec, grid: Grid, s: float) -> tuple:
    """(rows, chi): the axis nodes with |y| < 2K sqrt(s) as a slice, and chi(y, s) on the
    box of those rows on every axis; chi is zero off that box."""
    rows = grid.rows_within(2.0 * cut.K * math.sqrt(s))
    return rows, grid.radial(lambda y2: cutoff_chi(cut, y2, s), rows)


@dataclass(frozen=True)
class InitialDataParams:
    """Parameters of the trapped initial data at s = s0.

    A >= 1 controls the trapping-set size, p1 in (0, 1) the imaginary decay
    split, and the direction entries (d1_const, d1_lin, d2_const, d2_lin,
    d2_quad) all lie in [-2, 2]; d2_quad is symmetric.
    """

    A: float
    s0: float
    p1: float
    d1_const: float = 0.0
    d1_lin: np.ndarray = field(default=None)
    d2_const: float = 0.0
    d2_lin: np.ndarray = field(default=None)
    d2_quad: np.ndarray = field(default=None)
    n_dim: int = 1

    def __post_init__(self):
        if not self.A >= 1:
            raise ValueError(f"A must be >= 1, got {self.A}")
        if not self.s0 >= 1:
            raise ValueError(f"s0 must be >= 1, got {self.s0}")
        if not 0.0 < self.p1 < 1.0:
            raise ValueError(f"p1 must be in (0, 1), got {self.p1}")
        n = self.n_dim
        object.__setattr__(
            self, "d1_lin",
            np.zeros(n) if self.d1_lin is None else np.asarray(self.d1_lin, dtype=float),
        )
        object.__setattr__(
            self, "d2_lin",
            np.zeros(n) if self.d2_lin is None else np.asarray(self.d2_lin, dtype=float),
        )
        object.__setattr__(
            self, "d2_quad",
            np.zeros((n, n)) if self.d2_quad is None else np.asarray(self.d2_quad, dtype=float),
        )
        if self.d1_lin.shape != (n,) or self.d2_lin.shape != (n,):
            raise ValueError("linear direction entries must have shape (n_dim,)")
        if self.d2_quad.shape != (n, n):
            raise ValueError("d2_quad must have shape (n_dim, n_dim)")
        entries = (self.d1_const, self.d1_lin, self.d2_const, self.d2_lin, self.d2_quad)
        # checked first: NaN passes the magnitude test and fails the symmetry one
        if not all(np.all(np.isfinite(v)) for v in entries):
            raise ValueError("direction entries must be finite")
        if not np.allclose(self.d2_quad, self.d2_quad.T, atol=1e-12):
            raise ValueError("d2_quad must be symmetric")
        if max(np.max(np.abs(v), initial=0.0) for v in entries) > 2.0:
            raise ValueError("direction magnitudes must lie in [-2, 2]")


def initial_data(
    params: Params, idp: InitialDataParams, cut: CutoffSpec, grid: Grid
) -> tuple[np.ndarray, np.ndarray]:
    """Initial deviation fields (q1, q2) at s = s0 on the grid.

    q1 = (A/s0^2) (d1_const + d1_lin·y) chi(2y, s0)
    q2 = [ (A^2/s0^{p1+2}) (d2_const + d2_lin·y)
           + (A^5 ln s0 / s0^{p1+2}) (y·d2_quad·y - 2 tr d2_quad) ] chi(2y, s0)

    The single cutoff factor multiplies the whole bracket; its argument 2y
    confines the support to |y| <= K sqrt(s0), so the outer components of
    both fields vanish identically at s0.
    """
    if idp.n_dim != params.n_dim or grid.n_dim != params.n_dim:
        raise ValueError("dimension mismatch between params, initial data and grid")
    A, s0, p1 = idp.A, idp.s0, idp.p1
    ys = grid.meshes()
    chi2 = cutoff_chi(cut, 4.0 * grid.radius2(), s0)  # chi(2y, s0)

    lin1 = np.full(grid.shape, idp.d1_const, dtype=float)
    lin2 = np.full(grid.shape, idp.d2_const, dtype=float)
    for i, y in enumerate(ys):
        lin1 = lin1 + idp.d1_lin[i] * y
        lin2 = lin2 + idp.d2_lin[i] * y
    quad = np.zeros(grid.shape)
    for i, yi in enumerate(ys):
        for j, yj in enumerate(ys):
            quad = quad + idp.d2_quad[i, j] * yi * yj
    quad = quad - 2.0 * np.trace(idp.d2_quad)

    scale2 = A * A / s0 ** (p1 + 2.0)
    q1 = (A / s0**2) * lin1 * chi2
    q2 = (scale2 * lin2 + A**5 * math.log(s0) / s0 ** (p1 + 2.0) * quad) * chi2
    return q1, q2

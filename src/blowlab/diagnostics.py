"""Measurements on trajectories: decompositions, set membership, residuals, fits.

Conventions.  A deviation field q(y, s) on the similarity grid splits into
five pieces: q_b = chi q is localized by the cutoff chi(y, s) supported in
|y| <= 2K sqrt(s), q_e = (1 - chi) q is the outer remainder, and q_b itself
expands as

    q_b = q0 + q1 . y + (1/2 y^T q2 y - tr q2) + q_minus,

with the scalar, vector and symmetric-matrix coefficients read off from
Gaussian-weighted integrals: q0 = int q_b rho, q1_j = int q_b (y_j/2) rho,
q2_jk = int q_b (y_j y_k/4 - delta_jk/2) rho, rho the normalized Gaussian
weight.  q_minus is the pointwise remainder.  The flattened radial modes of
the full solution w use the radial quadratic |y|^2 - 2n in the same weight.
All of these moments come from one routine, spectral.gaussian_moments, which
the solver's mode pinning uses too.  decompose acts on the complex deviation
q = q1 + i q2 at once and returns one decomposition per component.

All operations are read-only on their inputs; a finished trajectory can be
analyzed concurrently.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import CubicSpline

from . import params as _params
from . import rhs as _rhs
from . import spectral as _spectral


class CoverageError(ValueError):
    """Grid does not cover the region the requested measurement needs."""


class TrajectoryTooSparseError(ValueError):
    """Records are spaced too widely for centered differences in s."""


class InsufficientSpanError(ValueError):
    """Trajectory does not span a wide enough s-window for limit fits."""


class NonConvergenceError(RuntimeError):
    """Pointwise limit not Cauchy-converged over the recorded window."""


# shortest window ln(s_last/s_first) over which a decay exponent in s is fitted
MIN_EXPONENT_LOG_SPAN = 0.1


@dataclass
class ModeDecomposition:
    """Five-component split of a localized deviation field.

    q0, q1_vec, q2_mat are the polynomial coefficients; the two norms are
    sup |q_minus| / (1 + |y|^3) and sup |q_e| over the grid.
    """

    q0: float
    q1_vec: np.ndarray
    q2_mat: np.ndarray
    q_minus_weighted_norm: float
    q_e_norm: float

    def __post_init__(self):
        self.q1_vec = np.asarray(self.q1_vec, dtype=float)
        self.q2_mat = np.asarray(self.q2_mat, dtype=float)
        n = self.q1_vec.shape[0]
        if self.q1_vec.ndim != 1 or self.q2_mat.shape != (n, n):
            raise ValueError("q1_vec must be (n,) and q2_mat (n, n)")
        if not np.all(np.abs(self.q2_mat - self.q2_mat.T) <= 1e-12):
            raise ValueError("q2_mat must be symmetric to 1e-12")

    @property
    def n_dim(self) -> int:
        return self.q1_vec.shape[0]


@dataclass(frozen=True)
class ShrinkingSetParams:
    """Envelope parameters (A, p1, K) of the shrinking neighborhood."""

    A: float = 10.0
    p1: float = 0.5
    K: float = 5.0

    def __post_init__(self):
        if not self.A >= 1.0:
            raise ValueError(f"A must be >= 1, got {self.A}")
        if not 0.0 < self.p1 < 1.0:
            raise ValueError(f"p1 must lie in (0, 1), got {self.p1}")
        if not self.K > 0.0:
            raise ValueError(f"K must be positive, got {self.K}")


@dataclass
class SimilarityRecord:
    """One recorded instant of a similarity-frame trajectory."""

    s: float
    d1: ModeDecomposition
    d2: ModeDecomposition
    e1: float
    e2: float
    max_w: float
    w1bar_h2: float
    w2_h0: float
    w2_h2: float
    removal_rate1: np.ndarray = field(default=None)
    removal_rate2: np.ndarray = field(default=None)

    def __post_init__(self):
        n = self.d1.n_dim
        if self.removal_rate1 is None:
            self.removal_rate1 = np.zeros(1 + n)
        if self.removal_rate2 is None:
            self.removal_rate2 = np.zeros(1 + n)
        self.removal_rate1 = np.asarray(self.removal_rate1, dtype=float)
        self.removal_rate2 = np.asarray(self.removal_rate2, dtype=float)


@dataclass
class Trajectory:
    """Ordered similarity records plus optional raw snapshots (s, w), w complex."""

    grid: _spectral.Grid
    records: list = field(default_factory=list)
    snapshots: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def add(self, record: SimilarityRecord) -> None:
        if self.records and record.s <= self.records[-1].s:
            raise ValueError(
                f"records must have strictly increasing s; got {record.s} "
                f"after {self.records[-1].s}"
            )
        self.records.append(record)

    @property
    def s_values(self) -> np.ndarray:
        return np.array([r.s for r in self.records])


@dataclass
class PhysicalTrajectory:
    """Per-step physical records as columns, snapshots (t, u) with u complex, and blow-up fits.

    records is a numpy structured array with one row per recorded step and
    the fields t, dt, max_u, argmax (the position of max|u|, shape (n_dim,))
    and probe_u (complex u at the probes, shape (n_probes,)).  add appends a
    row to a buffer that doubles when full.
    """

    grid: _spectral.Grid
    probes: np.ndarray
    snapshots: list = field(default_factory=list)
    T_estimate: float = None
    decay_slope: float = None
    status: str = "ok"
    meta: dict = field(default_factory=dict)
    _rows: np.ndarray = field(init=False, repr=False)
    _count: int = field(default=0, init=False, repr=False)

    def __post_init__(self):
        self.probes = np.asarray(self.probes, dtype=float)
        self._rows = np.empty(16, dtype=[
            ("t", float), ("dt", float), ("max_u", float),
            ("argmax", float, (self.grid.n_dim,)),
            ("probe_u", complex, (self.probes.size,)),
        ])

    @property
    def records(self) -> np.ndarray:
        return self._rows[: self._count]

    def add(self, t: float, dt: float, max_u: float, argmax, probe_u) -> None:
        n = self._count
        if n and not t > self._rows["t"][n - 1]:
            raise ValueError("records must have strictly increasing t")
        if n == len(self._rows):
            grown = np.empty(2 * n, dtype=self._rows.dtype)
            grown[:n] = self._rows
            self._rows = grown
        self._rows[n] = (t, dt, max_u, argmax, probe_u)
        self._count = n + 1


def decompose(grid: _spectral.Grid, q: np.ndarray, s: float,
              ssp: ShrinkingSetParams) -> tuple:
    """Split q = q1 + i q2 into (q0, q1, q2, q_minus, q_e) about the cutoff at K sqrt(s).

    Returns one ModeDecomposition per component, (d1, d2); for a real q, d2
    is zero.  The grid must either cover the full cutoff transition
    (L >= 2K sqrt(s)) or sit entirely inside the plateau (L <= K sqrt(s),
    chi identically 1); a grid ending mid-transition raises CoverageError.
    """
    edge = ssp.K * math.sqrt(s)
    if grid.half_width > edge + 1e-9 and grid.half_width < 2.0 * edge - 1e-9:
        raise CoverageError(
            f"grid half-width {grid.half_width} ends inside the cutoff "
            f"transition [{edge}, {2 * edge}]; enlarge it past 2K sqrt(s) "
            "or shrink it inside K sqrt(s)"
        )
    n = grid.n_dim
    r2 = grid.radius2()
    box = (grid.rows_within(2.0 * edge),) * n
    chi = np.zeros(grid.shape)
    chi[box] = _rhs.cutoff_chi(_rhs.CutoffSpec(K=ssp.K), r2[box], s)
    q_b = chi * q
    q_e = (1.0 - chi) * q
    q0, q1, q2 = _spectral.gaussian_moments(grid, q_b, grid.rho())

    meshes = grid.meshes()
    poly = np.full(grid.shape, q0 - np.trace(q2))
    for j in range(n):
        poly = poly + q1[j] * meshes[j]
        for k in range(n):
            poly = poly + 0.5 * q2[j, k] * meshes[j] * meshes[k]
    q_minus = q_b - poly
    weight = 1.0 + np.sqrt(r2) ** 3
    return tuple(
        ModeDecomposition(
            q0=float(part(q0)),
            q1_vec=part(q1),
            q2_mat=part(q2),
            q_minus_weighted_norm=float(np.max(np.abs(part(q_minus)) / weight)),
            q_e_norm=float(np.max(np.abs(part(q_e)))),
        )
        for part in (np.real, np.imag)
    )


@dataclass
class MembershipReport:
    """Per-bound margins of the shrinking set and overall membership."""

    margins: dict
    inside: bool
    on_boundary: bool


_BOUND_NAMES = (
    "q1_0", "q1_j", "q1_jk", "q1_minus", "q1_e",
    "q2_0", "q2_j", "q2_jk", "q2_minus", "q2_e",
)


def shrinking_set_bounds(ssp: ShrinkingSetParams, s: float) -> dict:
    """The ten envelope values at similarity time s, keyed by bound name."""
    if not s >= 1.0:
        raise ValueError(f"s must be >= 1, got {s}")
    A, p1 = ssp.A, ssp.p1
    ln_s = math.log(s)
    return {
        "q1_0": A / s**2,
        "q1_j": A / s**2,
        "q1_jk": A**2 * ln_s / s**2,
        "q1_minus": A / s**2,
        "q1_e": A**2 / math.sqrt(s),
        "q2_0": A**2 / s ** (p1 + 2),
        "q2_j": A**2 / s ** (p1 + 2),
        "q2_jk": A**5 * ln_s / s ** (p1 + 2),
        "q2_minus": A**2 / s ** ((p1 + 5) / 2),
        "q2_e": A**3 / s ** ((p1 + 2) / 2),
    }


def in_shrinking_set(
    d1: ModeDecomposition, d2: ModeDecomposition, ssp: ShrinkingSetParams, s: float
) -> MembershipReport:
    """Check the ten envelope bounds; margins are (bound - observed)/bound."""
    bounds = shrinking_set_bounds(ssp, s)
    observed = {
        "q1_0": abs(d1.q0),
        "q1_j": float(np.max(np.abs(d1.q1_vec))),
        "q1_jk": float(np.max(np.abs(d1.q2_mat))),
        "q1_minus": d1.q_minus_weighted_norm,
        "q1_e": d1.q_e_norm,
        "q2_0": abs(d2.q0),
        "q2_j": float(np.max(np.abs(d2.q1_vec))),
        "q2_jk": float(np.max(np.abs(d2.q2_mat))),
        "q2_minus": d2.q_minus_weighted_norm,
        "q2_e": d2.q_e_norm,
    }
    margins = {}
    for name in _BOUND_NAMES:
        b, o = bounds[name], observed[name]
        if b == 0.0:
            margins[name] = 1.0 if o == 0.0 else -math.inf
        else:
            margins[name] = (b - o) / b
    inside = all(m >= 0.0 for m in margins.values())
    on_boundary = inside and any(m == 0.0 for m in margins.values())
    return MembershipReport(margins=margins, inside=inside, on_boundary=on_boundary)


@dataclass
class ModeResidualSeries:
    """Normalized residuals of the projected mode ODEs along a trajectory.

    Each series is evaluated at the interior record times (endpoints dropped
    by the centered difference).  constants holds the 95th-percentile
    normalized residual per ODE; achieved_exponent_q2_null is the fitted
    decay exponent e in |dq2_jk/ds + (2/s) q2_jk| ~ s^{-e}, recorded because
    the target exponent for that bound is not pinned down a priori; it is
    NaN when the records span less than MIN_EXPONENT_LOG_SPAN in ln s.
    """

    s: np.ndarray
    residuals: dict
    constants: dict
    achieved_exponent_q2_null: float


def _stack_modes(records, which: str):
    q0 = np.array([getattr(r, which).q0 for r in records])
    q1 = np.array([getattr(r, which).q1_vec for r in records])
    q2 = np.array([getattr(r, which).q2_mat for r in records])
    return q0, q1, q2


def mode_ode_residuals(
    traj: Trajectory, ssp: ShrinkingSetParams, params: _params.Params
) -> ModeResidualSeries:
    """Residuals of the expected ODEs for the expanding and null modes.

    The expanding modes should follow dq/ds = q (scalar) and dq/ds = q/2
    (gradient); the null modes dq/ds = -(2/s) q.  Pinned-mode removal rates
    recorded by the solver are added back so the residual measures the free
    dynamics, not the stabilized one.
    """
    recs = traj.records
    if len(recs) < 3:
        raise TrajectoryTooSparseError("need at least 3 records")
    s = np.array([r.s for r in recs])
    gaps = np.diff(s)
    if np.any(gaps > 0.1 + 1e-9):
        raise TrajectoryTooSparseError(
            f"record spacing up to {gaps.max():.4f} exceeds 0.1; "
            "centered differences in s would be unreliable"
        )
    q1_0, q1_j, q1_jk = _stack_modes(recs, "d1")
    q2_0, q2_j, q2_jk = _stack_modes(recs, "d2")
    rate1 = np.array([r.removal_rate1 for r in recs])
    rate2 = np.array([r.removal_rate2 for r in recs])

    mid = slice(1, -1)
    span = s[2:] - s[:-2]

    def ddt(series):
        return (series[2:] - series[:-2]) / span.reshape((-1,) + (1,) * (series.ndim - 1))

    # removal_rate[k] covers (s[k-1], s[k]]; the centered difference over
    # (s[k-1], s[k+1]) sees the mean of windows k and k+1
    corr1 = 0.5 * (rate1[1:-1] + rate1[2:])
    corr2 = 0.5 * (rate2[1:-1] + rate2[2:])

    s_mid = s[mid]
    p1 = ssp.p1
    A = ssp.A

    r1_0 = np.abs(ddt(q1_0) + corr1[:, 0] - q1_0[mid])
    r2_0 = np.abs(ddt(q2_0) + corr2[:, 0] - q2_0[mid])
    r1_j = np.max(np.abs(ddt(q1_j) + corr1[:, 1:] - 0.5 * q1_j[mid]), axis=1)
    r2_j = np.max(np.abs(ddt(q2_j) + corr2[:, 1:] - 0.5 * q2_j[mid]), axis=1)
    raw1_jk = np.max(
        np.abs(ddt(q1_jk) + (2.0 / s_mid)[:, None, None] * q1_jk[mid]), axis=(1, 2)
    )
    raw2_jk = np.max(
        np.abs(ddt(q2_jk) + (2.0 / s_mid)[:, None, None] * q2_jk[mid]), axis=(1, 2)
    )

    residuals = {
        "q1_0": r1_0 * s_mid**2,
        "q2_0": r2_0 * s_mid ** (p1 + 2),
        "q1_j": r1_j * s_mid**2,
        "q2_j": r2_j * s_mid ** (p1 + 2),
        "q1_jk": raw1_jk * s_mid**3 / A,
        "q2_jk": raw2_jk * s_mid ** (p1 + 3) / (A**2 * np.log(s_mid)),
    }
    constants = {k: float(np.percentile(v, 95)) for k, v in residuals.items()}

    positive = raw2_jk > 0
    achieved = math.nan
    if (np.count_nonzero(positive) >= 3
            and math.log(s[-1] / s[0]) >= MIN_EXPONENT_LOG_SPAN):
        achieved = -line_fit(np.log(s_mid[positive]), np.log(raw2_jk[positive]))[1]
    return ModeResidualSeries(
        s=s_mid, residuals=residuals, constants=constants,
        achieved_exponent_q2_null=achieved,
    )


def line_fit(x, y) -> tuple:
    """Least-squares (intercept, slope) of y against x: design [1, x], rcond=None."""
    x = np.asarray(x, dtype=float)
    coef = np.linalg.lstsq(np.column_stack([np.ones(x.size), x]), y, rcond=None)[0]
    return float(coef[0]), float(coef[1])


def late_loglog_slope(x, y) -> float:
    """Log-log slope of y against x over the late half, where transients are gone.

    0.0 when every late y is zero; otherwise a least-squares line through
    the positive late entries, NaN if fewer than two are positive.
    """
    half = len(x) // 2
    x = np.asarray(x, dtype=float)[half:]
    y = np.asarray(y, dtype=float)[half:]
    if not np.any(y):
        return 0.0
    keep = y > 0
    if keep.sum() < 2:
        return math.nan
    return line_fit(np.log(x[keep]), np.log(y[keep]))[1]


def profile_error(state, params: _params.Params) -> tuple:
    """Sup-norm distances to the leading profiles.

    e1 = sup |w1 - f0(|y|^2/s)|, e2 = sup |s w2 - g0(|y|^2/s)| over the
    grid, with w = w1 + i w2 the state's complex array; grid sups stand in
    for sups over all of space since both the deviation and the profiles
    decay or are clamped beyond the boundary.
    """
    f0, g0 = _params.f0_g0(params, state.grid.radius2() / state.s)
    e1 = float(np.max(np.abs(state.w.real - f0)))
    e2 = float(np.max(np.abs(state.s * state.w.imag - g0)))
    return e1, e2


def radial_mode_coefficients(grid: _spectral.Grid, vals: np.ndarray) -> tuple:
    """Coefficients (c0, c2) of vals against {1, |y|^2 - 2n} in the Gaussian weight.

    |y|^2 - 2n = 4 sum_j (y_j^2/4 - 1/2) has weighted square norm 8n, so
    c2 = tr(m2) / (2n).  Complex vals give complex coefficients, one
    component in each part.
    """
    c0, _, m2 = _spectral.gaussian_moments(grid, vals, grid.rho())
    return c0, np.trace(m2) / (2.0 * grid.n_dim)


@dataclass
class InnerFit:
    """Limit fits of the flattened radial modes of the full solution.

    s_w1bar_h2 should approach -kappa/(4p); s2_w2_h2 approaches a nonzero
    constant c0_tilde whose value is fitted, not asserted; s3_w2_h0 should
    stay bounded.  Window drifts are relative changes of window means over
    the last three equal windows (earliest first).
    """

    s: np.ndarray
    s_w1bar_h2: np.ndarray
    s2_w2_h2: np.ndarray
    s3_w2_h0: np.ndarray
    target_w1bar: float
    w1bar_limit: float
    c0_tilde: float
    window_means_w1bar: np.ndarray
    window_means_w2h2: np.ndarray
    drift_w1bar: float
    drift_w2h2: float


def inner_fit(traj: Trajectory, params: _params.Params) -> InnerFit:
    """Fit the central-mode asymptotics over the trajectory's s-window."""
    s = traj.s_values
    if len(s) < 8 or s[-1] - s[0] < 10.0:
        raise InsufficientSpanError(
            "need at least ~10 units of s (and 8 records) for limit fits"
        )
    w1b2 = np.array([r.w1bar_h2 for r in traj.records])
    w2h0 = np.array([r.w2_h0 for r in traj.records])
    w2h2 = np.array([r.w2_h2 for r in traj.records])
    y1 = s * w1b2
    y2 = s**2 * w2h2
    y0 = s**3 * w2h0

    half = s >= 0.5 * (s[0] + s[-1])
    w1bar_limit = line_fit(1.0 / s[half], y1[half])[0]
    c0_tilde = line_fit(1.0 / s[half], y2[half])[0]

    thirds = np.array_split(np.arange(len(s))[half], 3)
    means1 = np.array([np.mean(y1[ix]) for ix in thirds])
    means2 = np.array([np.mean(y2[ix]) for ix in thirds])

    def rel_drift(m):
        scale = max(abs(m[-1]), 1e-300)
        return float(abs(m[-1] - m[-2]) / scale)

    return InnerFit(
        s=s,
        s_w1bar_h2=y1,
        s2_w2_h2=y2,
        s3_w2_h0=y0,
        target_w1bar=-params.kappa / (4.0 * params.p),
        w1bar_limit=w1bar_limit,
        c0_tilde=c0_tilde,
        window_means_w1bar=means1,
        window_means_w2h2=means2,
        drift_w1bar=rel_drift(means1),
        drift_w2h2=rel_drift(means2),
    )


def _interp_snapshot_x(grid: _spectral.Grid, u: np.ndarray, x_points: np.ndarray) -> np.ndarray:
    """One complex cubic spline through a snapshot u = u1 + i u2, evaluated at x_points."""
    return CubicSpline(grid.axis(), u)(x_points)


def _field_at(ptraj: PhysicalTrajectory, t: float, x_points: np.ndarray) -> np.ndarray:
    """Complex u at time t and positions x_points: cubic in x, linear in t."""
    times = np.array([snap[0] for snap in ptraj.snapshots])
    if t < times[0] or t > times[-1]:
        raise ValueError(f"time {t} outside the snapshot range")
    i = int(np.searchsorted(times, t))
    if i == 0:
        i = 1
    t0, ua = ptraj.snapshots[i - 1]
    t1, ub = ptraj.snapshots[i]
    lam = 0.0 if t1 == t0 else (t - t0) / (t1 - t0)
    return ((1 - lam) * _interp_snapshot_x(ptraj.grid, ua, x_points)
            + lam * _interp_snapshot_x(ptraj.grid, ub, x_points))


@dataclass
class IntermediateReport:
    """Rescaled solution versus the intermediate-region limit profiles."""

    x0: float
    k0: float
    t0: float
    tau: np.ndarray
    u_center: np.ndarray
    u_hat: np.ndarray
    v2_center: np.ndarray
    v2_hat: np.ndarray
    u_center_rel_err: float
    v2_center_rel_err: float
    u_window_abs_err: float
    v2_window_abs_err: float


def intermediate_profile_check(
    ptraj: PhysicalTrajectory,
    x0: float,
    params: _params.Params,
    k0: float = 5.0,
    tau_max: float = 0.9,
    n_xi: int = 33,
) -> IntermediateReport:
    """Compare the solution rescaled about (x0, t0(x0)) with its limit ODE profiles.

    t0(x0) solves |x0| = k0 sqrt((T - t0) |ln(T - t0)|), then
    U(xi, tau) = (T - t0)^{1/(p-1)} u(x0 + xi sqrt(T - t0), t0 + tau (T - t0))
    and V2 = |ln(T - t0)| U2 are tracked against the closed-form pair for
    tau in [0, tau_max] and |xi| <= |ln(T - t0)|^{1/4}.
    """
    if ptraj.grid.n_dim != 1:
        raise ValueError("intermediate-profile check is implemented for 1D runs")
    T = ptraj.T_estimate
    if T is None:
        raise ValueError("trajectory has no T_estimate")
    x0a = abs(float(x0))

    def mismatch(t):
        tau_left = T - t
        return k0 * math.sqrt(tau_left * abs(math.log(tau_left))) - x0a

    t_lo = T - math.exp(-2.0)
    # largest representable t below T, so T - t stays positive in floats
    t_hi = float(np.nextafter(T, -np.inf))
    t0 = _params.bisect_root(mismatch, t_lo, t_hi, residual_tol=1e-14, residual_scale=x0a)
    dT = T - t0
    times = np.array([snap[0] for snap in ptraj.snapshots])
    if t0 < times[0] or t0 + tau_max * dT > times[-1]:
        raise ValueError(
            f"t0(x0)={t0} (T-t0={dT:.3e}) with tau_max={tau_max} is outside "
            "the recorded snapshot range"
        )
    log_factor = abs(math.log(dT))
    xi_max = log_factor**0.25
    xi = np.linspace(-xi_max, xi_max, n_xi)
    x_points = x0 + xi * math.sqrt(dT)

    tau_hi = min(tau_max, (times[-1] - t0) / dT)
    tau_grid = np.linspace(0.0, tau_hi, 25)
    scale = dT ** (1.0 / (params.p - 1))
    u_center = np.empty_like(tau_grid)
    v2_center = np.empty_like(tau_grid)
    u_win_err = 0.0
    v2_win_err = 0.0
    u_hat, v2_hat = _params.hat_uv(params, tau_grid, k0**2)
    for i, tau in enumerate(tau_grid):
        u = _field_at(ptraj, t0 + tau * dT, x_points)
        U1 = scale * u.real
        V2 = log_factor * scale * u.imag
        mid = n_xi // 2
        u_center[i] = U1[mid]
        v2_center[i] = V2[mid]
        u_win_err = max(u_win_err, float(np.max(np.abs(U1 - u_hat[i]))))
        v2_win_err = max(v2_win_err, float(np.max(np.abs(V2 - v2_hat[i]))))
    u_rel = float(np.max(np.abs(u_center - u_hat) / np.abs(u_hat)))
    v2_rel = float(np.max(np.abs(v2_center - v2_hat) / np.abs(v2_hat)))
    return IntermediateReport(
        x0=float(x0), k0=float(k0), t0=float(t0), tau=tau_grid,
        u_center=u_center, u_hat=u_hat, v2_center=v2_center, v2_hat=v2_hat,
        u_center_rel_err=u_rel, v2_center_rel_err=v2_rel,
        u_window_abs_err=u_win_err, v2_window_abs_err=v2_win_err,
    )


def extract_final_profile(ptraj: PhysicalTrajectory, x: float, rel_tol: float = 0.01) -> tuple:
    """extract_final_profiles at the one position x, raising its NonConvergenceError."""
    (result,) = extract_final_profiles(ptraj, [x], rel_tol)
    if isinstance(result, NonConvergenceError):
        raise result
    return result


def extract_final_profiles(ptraj: PhysicalTrajectory, xs, rel_tol: float = 0.01) -> list:
    """Cauchy-converged values of u1(x, t), u2(x, t) as t approaches blow-up, x in xs.

    Snapshots are (t, u) pairs with u = u1 + i u2.  Samples them along a
    dyadic sequence in T - t, one spline per sampled snapshot for all of xs, and
    requires the last two samples of each component to differ by less than
    rel_tol relative to the final magnitude.  Returns one entry per x: its
    (u1, u2) pair, or the NonConvergenceError it fails with.
    """
    T = ptraj.T_estimate
    if T is None:
        raise ValueError("trajectory has no T_estimate")
    snaps = [snap for snap in ptraj.snapshots if T - snap[0] > 0]
    if len(snaps) < 2:
        return [NonConvergenceError("fewer than two snapshots precede the blow-up time")
                for _ in xs]
    left = np.array([T - snap[0] for snap in snaps])
    x_arr = np.array([float(x) for x in xs])
    # dyadic subsequence of snapshot times: T - t ~ delta, delta/2, delta/4, ...
    targets = []
    delta = left[0]
    while delta > left[-1]:
        targets.append(delta)
        delta /= 2.0
    targets.append(left[-1])
    picks = [int(np.argmin(np.abs(left - tgt))) for tgt in targets]
    samples = np.array([_interp_snapshot_x(ptraj.grid, snaps[i][1], x_arr) for i in picks])
    return [_cauchy_limit(samples[:, j], x, rel_tol) for j, x in enumerate(xs)]


def _cauchy_limit(samples: np.ndarray, x, rel_tol: float):
    """(u1, u2) of the last complex sample at x, or the NonConvergenceError to raise."""
    if len(samples) < 2:
        return NonConvergenceError(f"not enough snapshots to test convergence at x={x}")
    for name, part in (("u1", np.real), ("u2", np.imag)):
        a, b = float(part(samples[-2])), float(part(samples[-1]))
        scale = max(abs(b), 1e-300)
        if abs(b - a) / scale >= rel_tol:
            return NonConvergenceError(
                f"{name}({x}) not Cauchy-converged: last dyadic samples "
                f"{a:.6g} and {b:.6g} differ by more than {rel_tol:.0%}"
            )
    return float(samples[-1].real), float(samples[-1].imag)


def _fmt(x) -> str:
    return format(float(x), ".17g")


def write_trajectory_csv(
    traj: Trajectory,
    path: str,
    ssp: ShrinkingSetParams,
    params: _params.Params,
    c0_tilde: float = None,
) -> None:
    """Write per-record rows: s, modes, norms, errors, the shrinking-set margin
    and envelopes, and the reference columns (ref_w2_h2 only given c0_tilde).
    All floats carry 17 significant digits; output is byte-deterministic.
    """
    if not traj.records:
        raise ValueError("trajectory has no records")
    n = traj.records[0].d1.n_dim
    jk_pairs = [(j, k) for j in range(n) for k in range(j, n)]
    cols = ["s"]
    for comp in ("q1", "q2"):
        cols.append(f"{comp}_0")
        cols.extend(f"{comp}_lin{j}" for j in range(n))
        cols.extend(f"{comp}_quad{j}{k}" for j, k in jk_pairs)
        cols.append(f"{comp}_minus_norm")
        cols.append(f"{comp}_outer_norm")
    cols += ["e1", "e2", "max_w", "w1bar_h2", "w2_h0", "w2_h2"]
    cols.extend(f"removal1_{j}" for j in range(1 + n))
    cols.extend(f"removal2_{j}" for j in range(1 + n))
    cols += ["min_margin", "env_q1_0", "env_q1_jk", "env_q2_0", "ref_w1bar_h2"]
    if c0_tilde is not None:
        cols += ["ref_w2_h2"]
    lines = [",".join(cols)]
    for rec in traj.records:
        row = [_fmt(rec.s)]
        for d in (rec.d1, rec.d2):
            row.append(_fmt(d.q0))
            row.extend(_fmt(v) for v in d.q1_vec)
            row.extend(_fmt(d.q2_mat[j, k]) for j, k in jk_pairs)
            row.append(_fmt(d.q_minus_weighted_norm))
            row.append(_fmt(d.q_e_norm))
        row += [_fmt(rec.e1), _fmt(rec.e2), _fmt(rec.max_w),
                _fmt(rec.w1bar_h2), _fmt(rec.w2_h0), _fmt(rec.w2_h2)]
        row.extend(_fmt(v) for v in rec.removal_rate1)
        row.extend(_fmt(v) for v in rec.removal_rate2)
        report = in_shrinking_set(rec.d1, rec.d2, ssp, rec.s)
        row.append(_fmt(min(report.margins.values())))
        bounds = shrinking_set_bounds(ssp, rec.s)
        row += [_fmt(bounds["q1_0"]), _fmt(bounds["q1_jk"]), _fmt(bounds["q2_0"])]
        row.append(_fmt(-params.kappa / (4.0 * params.p * rec.s)))
        if c0_tilde is not None:
            row.append(_fmt(c0_tilde / rec.s**2))
        lines.append(",".join(row))
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        return x if math.isfinite(x) else repr(x)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    return obj


def write_json(payload: dict, path: str) -> None:
    """Deterministic JSON dump (sorted keys, no timestamps)."""
    with open(path, "w") as f:
        json.dump(_jsonable(payload), f, indent=2, sort_keys=True)
        f.write("\n")

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
q = q1 + i q2 at once and returns each mode field for both components.
Similarity and physical records are columns of one numpy structured array
per trajectory; each trajectory's record builds its rows from the run's
state, and write_trajectory_csv and write_physical_csv lay out the frames'
CSV through write_csv.  The shrinking-set checks take (A, p1) from the
run's rhs.InitialDataParams.

All operations are read-only on their inputs; a finished trajectory can be
analyzed concurrently.
"""

import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np

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


class NoBlowupError(RuntimeError):
    """Physical run stopped growing before reaching the blow-up threshold."""


# shortest window ln(s_last/s_first) over which a decay exponent in s is fitted
MIN_EXPONENT_LOG_SPAN = 0.1
# largest relative change between the last two dyadic samples of a converged final profile
FINAL_PROFILE_REL_TOL = 0.01
# a physical trajectory.csv is thinned to about this many rows
MAX_PHYSICAL_CSV_ROWS = 5000


class _RowStore:
    """Rows as one numpy structured array, in a buffer that doubles when full.

    records is the filled part.  add appends one row, its fields in the
    dtype's order, and refuses a first field that does not strictly increase.
    """

    def _start_rows(self, dtype) -> None:
        self._rows, self._count = np.empty(16, dtype=dtype), 0

    @property
    def records(self) -> np.ndarray:
        return self._rows[: self._count]

    def add(self, *row) -> None:
        n, key = self._count, self._rows.dtype.names[0]
        if n and not row[0] > self._rows[key][n - 1]:
            raise ValueError(
                f"records must have strictly increasing {key}; got {row[0]} "
                f"after {self._rows[key][n - 1]}"
            )
        if n == len(self._rows):
            grown = np.empty(2 * n, dtype=self._rows.dtype)
            grown[:n] = self._rows
            self._rows = grown
        self._rows[n] = row
        self._count = n + 1


@dataclass
class Trajectory(_RowStore):
    """Similarity records as columns, and optional raw snapshots (s, w), w complex.

    records is a numpy structured array with one row per record and the
    fields s, q0 (2,), q1 (2, n), q2 (2, n, n), q_minus_norm (2,),
    q_e_norm (2,), e1, e2, max_w, w1bar_h2, w2_h0, w2_h2 and removal_rate
    (2, 1 + n).  A leading axis of 2 is the component: q1/w1 first, then
    q2/w2.
    """

    grid: _spectral.Grid
    snapshots: list = field(default_factory=list)

    def __post_init__(self):
        n = self.grid.n_dim
        self._start_rows([
            ("s", float), ("q0", float, (2,)), ("q1", float, (2, n)),
            ("q2", float, (2, n, n)), ("q_minus_norm", float, (2,)),
            ("q_e_norm", float, (2,)), ("e1", float), ("e2", float), ("max_w", float),
            ("w1bar_h2", float), ("w2_h0", float), ("w2_h2", float),
            ("removal_rate", float, (2, 1 + n)),
        ])

    def record(self, state, params: _params.Params, cut: _rhs.CutoffSpec, removal_rate) -> None:
        """Append the row of the similarity state, with the complex removal_rate (1 + n,); a
        record reads a run's only full-grid profiles, through the grid's radial table: Phi
        here (the modes about cut), f0 and g0 in profile_error."""
        grid, w, s = state.grid, state.w, state.s
        modes = decompose(grid, w - grid.radial(lambda y2: _params.phi(params, y2, s)), s, cut)
        e1, e2 = profile_error(state, params)
        c0, c2 = radial_mode_coefficients(grid, w - params.kappa)
        self.add(s, *modes, e1, e2, max_part(w),
                 c2.real, c0.imag, c2.imag, np.array([removal_rate.real, removal_rate.imag]))


@dataclass
class PhysicalTrajectory(_RowStore):
    """Per-step physical records as columns, snapshots at the probes, and blow-up fits.

    records is a numpy structured array with one row per recorded step and
    the fields t, dt, max_u, argmax (the position of max|u|, shape (n_dim,))
    and probe_u (complex u at the probes, x positions on a 1-D grid, shape
    (n_probes,)).  u at a probe is read by one rule, at_probes: the cubic
    through the four nodes around the probe's cell, shifted inward at a grid
    end, an O(h^4) read.  nodes holds their indices, one row per probe, and
    weights their Lagrange weights at the probe, both fixed on construction.
    A snapshot (t, values) keeps u at the probes, all that
    extract_final_profile reads, so values is empty without probes.
    """

    grid: _spectral.Grid
    probes: np.ndarray
    snapshots: list = field(default_factory=list)
    T_estimate: float = None
    status: str = "ok"

    def __post_init__(self):
        self.probes = np.asarray(self.probes, dtype=float)
        if self.probes.size and self.grid.n_dim != 1:
            raise ValueError("probes are x positions and need a 1-D grid")
        L = self.grid.half_width
        # NaN fails the comparison too
        if not np.all(np.abs(self.probes) <= L):
            raise CoverageError(f"probes {self.probes} must lie within the grid's half-width {L}")
        ax = self._axis = self.grid.axis()
        cells = np.searchsorted(ax, self.probes, side="right") - 1
        self.nodes = np.clip(cells - 1, 0, ax.size - 4)[:, None] + np.arange(4)
        xs = ax[self.nodes]
        self.weights = np.ones(xs.shape)
        for k, m in itertools.permutations(range(4), 2):
            self.weights[:, k] *= (self.probes - xs[:, m]) / (xs[:, k] - xs[:, m])
        self._start_rows([
            ("t", float), ("dt", float), ("max_u", float),
            ("argmax", float, (self.grid.n_dim,)),
            ("probe_u", complex, (self.probes.size,)),
        ])

    def at_probes(self, u: np.ndarray) -> np.ndarray:
        """u at the probes, each the cubic through its four nodes, shape (n_probes,)."""
        return (u.ravel()[self.nodes] * self.weights).sum(axis=1)

    def record(self, t: float, dt: float, i: int, max_u: float, u: np.ndarray) -> None:
        """Append the row of the step to t of length dt, where max|u| = max_u at the flat
        index i: argmax is the position of node i, probe_u u at the probes (at_probes)."""
        ax = self._axis
        pos = ax[i : i + 1] if u.ndim == 1 else ax[list(np.unravel_index(i, u.shape))]
        self.add(t, dt, max_u, pos, self.at_probes(u))

    def keep_snapshot(self, t: float, u: np.ndarray) -> None:
        """Append the snapshot (t, u at the probes), read as the records read it."""
        self.snapshots.append((t, self.at_probes(u)))


def max_part(w: np.ndarray) -> float:
    """The larger of max|w1| and max|w2| (NaN if a part is; +0, not -0), with no temporary."""
    return abs(max(float(np.max(w.view(np.float64))), -float(np.min(w.view(np.float64)))))


def decompose(grid: _spectral.Grid, q: np.ndarray, s: float, cut: _rhs.CutoffSpec) -> tuple:
    """Split q = q1 + i q2 into (q0, q1, q2, q_minus, q_e) about the cutoff cut, at cut.K sqrt(s).

    Returns the five mode fields of a Trajectory record, (q0, q1, q2,
    q_minus_norm, q_e_norm), each with a leading axis of the two components;
    the norms are sup |q_minus| / (1 + |y|^3) and sup |q_e| over the grid.
    For a real q the second component is zero.  The grid must either cover
    the full cutoff transition (L >= 2K sqrt(s)) or sit entirely inside the
    plateau (L <= K sqrt(s), chi identically 1); a grid ending mid-transition
    raises CoverageError.
    """
    edge = cut.K * math.sqrt(s)
    if grid.half_width > edge + 1e-9 and grid.half_width < 2.0 * edge - 1e-9:
        raise CoverageError(
            f"grid half-width {grid.half_width} ends inside the cutoff "
            f"transition [{edge}, {2 * edge}]; enlarge it past 2K sqrt(s) "
            "or shrink it inside K sqrt(s)"
        )

    def sup(field, weight=1.0):  # sup |part| / weight of each part
        return np.array([np.max(np.abs(part(field)) / weight) for part in (np.real, np.imag)])
    rows, chi_box = _rhs.cutoff_box(cut, grid, s)
    chi = np.zeros(grid.shape)
    chi[(rows,) * grid.n_dim] = chi_box
    q_e_norm = sup((1.0 - chi) * q)
    q_b = chi * q
    q0, q1, q2 = _spectral.gaussian_moments(grid, q_b, grid.rho())
    # q0 + q1.y + y^T q2 y/2 - tr q2 per axis, a(y_0) + b(y_1) + (q2_01 + q2_10) y_0 y_1/2
    y = grid.axis()
    poly = q0 - np.trace(q2) + (q1[0] + 0.5 * q2[0, 0] * y) * y
    if grid.n_dim == 2:
        poly = np.multiply.outer(y, 0.5 * (q2[0, 1] + q2[1, 0]) * y) + poly[:, None]
        poly += (q1[1] + 0.5 * q2[1, 1] * y) * y
    q_minus = np.subtract(q_b, poly, out=q_b)
    del poly  # each full-grid field is dropped once read: they set a record's peak memory
    modes = (np.array([part(m) for part in (np.real, np.imag)]) for m in (q0, q1, q2))
    return (*modes, sup(q_minus, grid.radial(lambda y2: 1.0 + np.sqrt(y2) ** 3)), q_e_norm)


def shrinking_set_bounds(idp: _rhs.InitialDataParams, s: float) -> dict:
    """The ten envelope values at similarity time s for idp's (A, p1), keyed by bound name."""
    if not s >= 1.0:
        raise ValueError(f"s must be >= 1, got {s}")
    A, p1 = idp.A, idp.p1
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


def in_shrinking_set(rec, idp: _rhs.InitialDataParams) -> dict:
    """Margins (bound - observed)/bound of the ten envelope bounds, keyed by bound name.

    rec is one row of Trajectory.records; it lies in the shrinking set when
    every margin is >= 0.
    """
    bounds = shrinking_set_bounds(idp, float(rec["s"]))
    margins = {}
    for c, comp in enumerate(("q1", "q2")):
        observed = {
            "0": abs(rec["q0"][c]),
            "j": np.max(np.abs(rec["q1"][c])),
            "jk": np.max(np.abs(rec["q2"][c])),
            "minus": rec["q_minus_norm"][c],
            "e": rec["q_e_norm"][c],
        }
        for key, o in observed.items():
            b = bounds[f"{comp}_{key}"]
            if b == 0.0:
                margins[f"{comp}_{key}"] = 1.0 if o == 0.0 else -math.inf
            else:
                margins[f"{comp}_{key}"] = (b - o) / b
    return margins


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


def mode_ode_residuals(traj: Trajectory, idp: _rhs.InitialDataParams) -> ModeResidualSeries:
    """Residuals of the expected ODEs for the expanding and null modes.

    The expanding modes should follow dq/ds = q (scalar) and dq/ds = q/2
    (gradient); the null modes dq/ds = -(2/s) q.  Pinned-mode removal rates
    recorded by the solver are added back so the residual measures the free
    dynamics, not the stabilized one.
    """
    recs = traj.records
    if len(recs) < 3:
        raise TrajectoryTooSparseError("need at least 3 records")
    s = recs["s"]
    gaps = np.diff(s)
    if np.any(gaps > 0.1 + 1e-9):
        raise TrajectoryTooSparseError(
            f"record spacing up to {gaps.max():.4f} exceeds 0.1; "
            "centered differences in s would be unreliable"
        )
    q0, q1, q2, rate = recs["q0"], recs["q1"], recs["q2"], recs["removal_rate"]

    mid = slice(1, -1)
    span = s[2:] - s[:-2]

    def ddt(series):
        return (series[2:] - series[:-2]) / span.reshape((-1,) + (1,) * (series.ndim - 1))

    # removal_rate[k] covers (s[k-1], s[k]]; the centered difference over
    # (s[k-1], s[k+1]) sees the mean of windows k and k+1
    corr = 0.5 * (rate[1:-1] + rate[2:])

    s_mid = s[mid]
    p1, A = idp.p1, idp.A

    # one column per component, q1 then q2
    r_0 = np.abs(ddt(q0) + corr[:, :, 0] - q0[mid])
    r_j = np.max(np.abs(ddt(q1) + corr[:, :, 1:] - 0.5 * q1[mid]), axis=2)
    raw_jk = np.max(
        np.abs(ddt(q2) + (2.0 / s_mid)[:, None, None, None] * q2[mid]), axis=(2, 3)
    )

    residuals = {
        "q1_0": r_0[:, 0] * s_mid**2,
        "q2_0": r_0[:, 1] * s_mid ** (p1 + 2),
        "q1_j": r_j[:, 0] * s_mid**2,
        "q2_j": r_j[:, 1] * s_mid ** (p1 + 2),
        "q1_jk": raw_jk[:, 0] * s_mid**3 / A,
        "q2_jk": raw_jk[:, 1] * s_mid ** (p1 + 3) / (A**2 * np.log(s_mid)),
    }
    constants = {k: float(np.percentile(v, 95)) for k, v in residuals.items()}

    raw2_jk = raw_jk[:, 1]
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


def fit_blowup_time(t, max_u, params: _params.Params) -> float:
    """Blow-up time T fitted to physical records (t, max|u|) of a growing max|u|.

    Raises NoBlowupError when fewer than three records qualify, or when
    max|u|^(1-p) does not decay over them.
    """
    # Fit on the clean part of the collapse.  For a genuine single-point
    # blow-up y = kappa^(p-1) max|u|^(1-p) decays at rate dy/dt ~ -1 for every
    # p; records where under-resolution or a rotating core phase has slowed the
    # collapse violate that and would wreck the extrapolation, so keep the last
    # contiguous stretch of order -1 slopes, else the last decade of growth.
    p = params.p
    y = params.kappa ** (p - 1) * max_u ** (1 - p)
    k = max(1, len(y) // 100)
    sl = (y[k:] - y[:-k]) / (t[k:] - t[:-k])
    clean = (sl > -1.5) & (sl < -0.5)
    sel = np.zeros(len(y), dtype=bool)
    if np.any(clean):
        end = int(np.nonzero(clean)[0][-1])
        start = end
        while start > 0 and clean[start - 1]:
            start -= 1
        sel[start : end + k + 1] = True
    if np.count_nonzero(sel) < 3:
        sel = max_u >= max_u[-1] / 10.0
    if np.count_nonzero(sel) < 3:
        raise NoBlowupError("no blow-up detected: too little growth to fit a blow-up time")
    # y against x = (t - t_first)/span on [0, 1]: blow-up times are often tiny
    # on an absolute scale, where a [1, t] design would be numerically rank-one
    t_sel = t[sel]
    span = t_sel[-1] - t_sel[0]
    c0, c1 = line_fit((t_sel - t_sel[0]) / span, y[sel])
    if not c1 < 0:
        raise NoBlowupError("no blow-up detected: max|u|^(1-p) is not decaying")
    return float(t_sel[0] - span * c0 / c1)


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
    grid (f0 = R10, g0 = R21 of params.outer_profile), with w = w1 + i w2
    the state's complex array; grid sups stand in for sups over all of
    space since both the deviation and the profiles decay or are clamped
    beyond the boundary.
    """
    f0, g0 = (state.grid.radial(lambda y2: _params.outer_profile(params, kind, y2 / state.s))
              for kind in ("R10", "R21"))
    return tuple(float(np.max(np.abs(d))) for d in (state.w.real - f0, state.s * state.w.imag - g0))


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
    drift_w1bar: float
    drift_w2h2: float


def inner_fit(traj: Trajectory, params: _params.Params) -> InnerFit:
    """Fit the central-mode asymptotics over the trajectory's s-window."""
    recs = traj.records
    s = recs["s"]
    if len(s) < 8 or s[-1] - s[0] < 10.0:
        raise InsufficientSpanError(
            "need at least ~10 units of s (and 8 records) for limit fits"
        )
    y1 = s * recs["w1bar_h2"]
    y2 = s**2 * recs["w2_h2"]
    y0 = s**3 * recs["w2_h0"]

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
        drift_w1bar=rel_drift(means1),
        drift_w2h2=rel_drift(means2),
    )


def extract_final_profile(ptraj: PhysicalTrajectory, x: float) -> tuple:
    """Cauchy-converged values (u1, u2) of u(x, t) as t approaches blow-up, at the probe x.

    Snapshots are (t, values) pairs, values = u1 + i u2 at the probes.
    Samples the distinct snapshots nearest a dyadic sequence in T - t and
    requires the probe's values in the last two to differ in each component
    by less than FINAL_PROFILE_REL_TOL relative to the final magnitude, or
    raises NonConvergenceError.  An x that is not one of the trajectory's
    probes raises CoverageError.
    """
    (at,) = np.nonzero(ptraj.probes == x)
    if not at.size:
        raise CoverageError(f"{x} is not one of the trajectory's probes {ptraj.probes}")
    T = ptraj.T_estimate
    if T is None:
        raise ValueError("trajectory has no T_estimate")
    snaps = [snap for snap in ptraj.snapshots if T - snap[0] > 0]
    if len(snaps) < 2:
        raise NonConvergenceError("fewer than two snapshots precede the blow-up time")
    left = np.array([T - snap[0] for snap in snaps])
    # dyadic subsequence of snapshot times: T - t ~ delta, delta/2, delta/4, ...
    targets = []
    delta = left[0]
    while delta > left[-1]:
        targets.append(delta)
        delta /= 2.0
    targets.append(left[-1])
    # several targets can pick one snapshot; the test compares the last two
    # distinct snapshots picked (the first and last targets pick two)
    picks = np.unique([int(np.argmin(np.abs(left - tgt))) for tgt in targets])
    j = at[0]
    prev, last = (snaps[i][1][j] for i in picks[-2:])
    for name, part in (("u1", np.real), ("u2", np.imag)):
        a, b = float(part(prev)), float(part(last))
        scale = max(abs(b), 1e-300)
        if abs(b - a) / scale >= FINAL_PROFILE_REL_TOL:
            raise NonConvergenceError(
                f"{name}({float(ptraj.probes[j])}) not Cauchy-converged: last dyadic "
                f"samples {a:.6g} and {b:.6g} differ by more than {FINAL_PROFILE_REL_TOL:.0%}"
            )
    return float(last.real), float(last.imag)


def _fmt(v) -> str:
    if v is None:
        return ""
    return v if isinstance(v, str) else format(float(v), ".17g")


def write_csv(path: str, cols, table) -> None:
    """Write a header line of cols, then one line per row of the 2-D table.

    A number carries 17 significant digits, a string is written as it is and
    None as an empty cell; output is byte-deterministic.
    """
    lines = [",".join(cols)] + [",".join(_fmt(v) for v in row) for row in table]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_trajectory_csv(
    traj: Trajectory,
    path: str,
    idp: _rhs.InitialDataParams,
    params: _params.Params,
    min_margin,
    c0_tilde: float = None,
) -> None:
    """Write per-record rows: s, modes, norms, errors, the shrinking-set margin
    (min_margin: each record's smallest in_shrinking_set margin) and envelopes,
    and the reference columns (ref_w2_h2 only given c0_tilde).
    """
    recs = traj.records
    if not len(recs):
        raise ValueError("trajectory has no records")
    n = traj.grid.n_dim
    upper = np.triu_indices(n)
    cols, blocks = ["s"], [recs["s"]]
    for c, comp in enumerate(("q1", "q2")):
        cols.append(f"{comp}_0")
        cols.extend(f"{comp}_lin{j}" for j in range(n))
        cols.extend(f"{comp}_quad{j}{k}" for j, k in zip(*upper))
        cols += [f"{comp}_minus_norm", f"{comp}_outer_norm"]
        blocks += [recs["q0"][:, c], recs["q1"][:, c], recs["q2"][:, c][:, upper[0], upper[1]],
                   recs["q_minus_norm"][:, c], recs["q_e_norm"][:, c]]
    scalars = ["e1", "e2", "max_w", "w1bar_h2", "w2_h0", "w2_h2"]
    cols += scalars + [f"removal{c}_{j}" for c in (1, 2) for j in range(1 + n)]
    blocks += [recs[name] for name in scalars] + [recs["removal_rate"].reshape(len(recs), -1)]
    cols += ["min_margin", "env_q1_0", "env_q1_jk", "env_q2_0", "ref_w1bar_h2"]
    if c0_tilde is not None:
        cols += ["ref_w2_h2"]
    extra = []
    for rec, margin in zip(recs, min_margin, strict=True):
        s = float(rec["s"])
        bounds = shrinking_set_bounds(idp, s)
        extra.append([margin, bounds["q1_0"],
                      bounds["q1_jk"], bounds["q2_0"], -params.kappa / (4.0 * params.p * s)]
                     + ([c0_tilde / s**2] if c0_tilde is not None else []))
    write_csv(path, cols, np.column_stack(blocks + [np.array(extra)]))


def write_physical_csv(ptraj: PhysicalTrajectory, path: str) -> None:
    """Write t, dt, max_u, argmax and u1, u2 at each probe, thinned to every stride-th
    record plus the last one so that about MAX_PHYSICAL_CSV_ROWS rows remain."""
    n = ptraj.grid.n_dim
    cols = ["t", "dt", "max_u"] + [f"argmax_{i}" for i in range(n)]
    for i in range(len(ptraj.probes)):
        cols += [f"probe{i}_u1", f"probe{i}_u2"]
    recs = ptraj.records
    stride = max(1, -(-len(recs) // MAX_PHYSICAL_CSV_ROWS))
    last = recs[-1:] if (len(recs) - 1) % stride else recs[:0]
    recs = np.concatenate([recs[::stride], last])
    # the float view of probe_u interleaves u1 and u2 per probe
    write_csv(path, cols, np.column_stack([
        recs["t"], recs["dt"], recs["max_u"], recs["argmax"], recs["probe_u"].view(np.float64)]))


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

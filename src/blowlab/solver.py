"""Time integration in similarity and physical variables.

The state is one complex128 array, w = w1 + i w2 (resp. u = u1 + i u2).
The linear operators are real.  The diffusion solve uses one cached LU
factor per (npts, dt/h^2), applied to the complex state by zgttrs; the
drift stencil acts on the real view (`_real`, trailing axis of length
two), so both components go through one solve, one stencil, one boundary
pass.

Similarity frame: d_s w = Lap w - (y/2).grad w - w/(p-1) + w^p.  The
default scheme is operator splitting per step: implicit diffusion
(tridiagonal solve per axis, ADI in 2D), explicit second-order upwind
drift, explicit reaction.  Splitting is first order in ds and second order
in h.  Substeps are taken when the drift CFL y_max ds/(2h) exceeds
CFL_SAFETY.  evolve steps one workspace per run (the state, three scratch
arrays and the drift stencil's views on them) through step_similarity, once
per step, and takes the clamped boundary values of every substep up to the
next record from one profile call.  It pins on the cutoff's support box and
forms the full-grid profile only for a record.

Physical frame: d_t u = Lap u + u^p with the same implicit diffusion and
explicit reaction, advanced with steps proportional to the local collapse
timescale (kappa/max|u|)^{p-1}.  One in-place step kernel, which also takes
max|u| (a step overflows when that is not finite), serves step_physical and
run_physical_blowup.  The run steps one workspace per run, records every step
as one row of diagnostics.PhysicalTrajectory's columns, keeps snapshots as
max|u| grows, ends with a named status (see its docstring) and fits the
blow-up time.  Its settings are the module constants below.

One trajectory is strictly sequential and single-owner; independent
trajectories share no mutable state.
"""

import dataclasses
import functools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import lapack

from . import diagnostics as _diag
from . import params as _params
from . import rhs as _rhs
from . import spectral as _spectral

SCHEMES = ("semi-implicit", "explicit-rk4")
BOUNDARIES = ("profile-clamp", "extrapolate")
# fraction of each explicit stability limit a substep may use
CFL_SAFETY = 0.9
# physical run: dt is refreshed each time max|u| grows by this factor
SHRINK_FACTOR = 2.0
# physical run: a snapshot is kept each time max|u| grows by this factor
SNAPSHOT_FACTOR = 1.05
# physical run: steps without a new peak of max|u| before it ends as "stalled"
STALL_PATIENCE = 5000
# physical run: step budget; running out of it also ends the run as "stalled"
MAX_STEPS = 2_000_000


class BlowupInSimilarityError(RuntimeError):
    """max|w| left the basin (exceeded 10 kappa) during a similarity step."""

    def __init__(self, s: float, max_w: float):
        super().__init__(
            f"similarity solution diverged: max|w| = {max_w:.6g} exceeded "
            f"the 10 kappa guard at s = {s:.6g}"
        )
        self.s = s
        self.max_w = max_w


class NoBlowupError(RuntimeError):
    """Physical run stopped growing before reaching the blow-up threshold."""


def _complex_on(grid: _spectral.Grid, vals) -> np.ndarray:
    """vals as a contiguous complex128 array, checked against grid.shape."""
    vals = np.ascontiguousarray(vals, dtype=np.complex128)
    if vals.shape != grid.shape:
        raise ValueError(f"values shape {vals.shape} does not match grid {grid.shape}")
    return vals


@dataclass
class SimilarityState:
    """Solution w = w1 + i w2 of the similarity-frame system at one instant s."""

    s: float
    grid: _spectral.Grid
    w: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.w = _complex_on(self.grid, self.w)


@dataclass
class PhysicalState:
    """Solution u = u1 + i u2 of the physical-frame system at one instant t."""

    t: float
    grid: _spectral.Grid
    u: np.ndarray = field(repr=False)
    status: str = "ok"

    def __post_init__(self):
        self.u = _complex_on(self.grid, self.u)


def _real(vals: np.ndarray) -> np.ndarray:
    """Real view of a contiguous complex array: shape + (2,), no copy."""
    return vals.view(np.float64).reshape(vals.shape + (2,))


def _complex(vals: np.ndarray) -> np.ndarray:
    """Inverse of _real: a (..., 2) float array as a complex array."""
    return np.ascontiguousarray(vals).view(np.complex128)[..., 0]


def _require_finite(vals: np.ndarray) -> None:
    if not np.all(np.isfinite(vals)):
        raise ValueError("state values must be finite")


@dataclass(frozen=True)
class SolverConfig:
    """Similarity-frame integration settings.

    ds is the nominal step; the semi-implicit scheme caps it at 0.01 (the
    explicit reaction and upwind drift keep a comfortable stability margin
    there, and first-order splitting error stays below the measurement
    tolerances).  pin_unstable_modes removes the expanding scalar and
    gradient content of the localized deviation after every step, recording
    the removal rates, so finite-window profile convergence is observable
    despite the two expanding directions seeded by roundoff and the source
    terms.
    """

    ds: float
    s_end: float
    scheme: str = "semi-implicit"
    boundary: str = "profile-clamp"
    record_every: int = 10
    pin_unstable_modes: bool = False
    cutoff: _rhs.CutoffSpec = field(default_factory=_rhs.CutoffSpec)
    snapshot_at: tuple = ()

    def __post_init__(self):
        # a bool is an int, so True would pass as 1 without this check
        for name in ("ds", "s_end", "record_every"):
            if isinstance(getattr(self, name), bool):
                raise ValueError(f"{name} must be a number, got {getattr(self, name)!r}")
        if not self.ds > 0:
            raise ValueError(f"ds must be positive, got {self.ds}")
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        if self.boundary not in BOUNDARIES:
            raise ValueError(f"boundary must be one of {BOUNDARIES}, got {self.boundary!r}")
        if self.scheme == "semi-implicit" and self.ds > 0.01:
            raise ValueError(
                f"semi-implicit scheme requires ds <= 0.01, got {self.ds}"
            )
        if not isinstance(self.record_every, int) or self.record_every < 1:
            raise ValueError(f"record_every must be a positive integer, got {self.record_every}")


# a run solves with one dt at a time (a physical run moves to a smaller dt
# each time max|u| doubles and never returns), so only the latest is kept
@functools.lru_cache(maxsize=1)
def _diffusion_factor(npts: int, r: float) -> tuple:
    """LU factor of I - r D2 (identity boundary rows) as zgttrs takes it.

    The factor is real (dgttrf); its four arrays are cast to complex128 so
    zgttrs applies it to a complex right-hand side.  r = dt/h^2.
    """
    diag = np.full(npts, 1.0 + 2.0 * r)
    diag[[0, -1]] = 1.0
    lower = np.full(npts - 1, -r)
    upper = np.full(npts - 1, -r)
    upper[0] = lower[-1] = 0.0
    # strictly diagonally dominant for r > 0, so the factor always exists
    dl, d, du, du2, ipiv, _ = lapack.dgttrf(lower, diag, upper)
    factor = tuple(a.astype(np.complex128) for a in (dl, d, du, du2)) + (ipiv,)
    for a in factor:
        a.setflags(write=False)
    return factor


def _diffuse_in_place(w: np.ndarray, factor: tuple, fbuf) -> None:
    """Solve (I - dt D2) x = w into the C-order complex w itself, ADI beyond 1D.

    2-D: axis 0 on the Fortran-order fbuf (shaped like w; unused in 1-D), then
    axis 1 on w.T; that order fixes the last bits.  Boundary rows are identity.
    """
    if w.ndim == 2:
        fbuf[...] = w
        lapack.zgttrs(*factor, fbuf, overwrite_b=1)
        w[...] = fbuf
    lapack.zgttrs(*factor, w.T, overwrite_b=1)


def _drift_views(grid: _spectral.Grid, vals, work) -> tuple:
    """(out, per-axis views, 2h): the drift stencil's operands, for _drift.

    vals is the real view of a state, grid.shape + (2,); work holds three arrays
    shaped like it: the result out, then two scratch.  Views follow the contents
    of the arrays they are taken from, so a run builds them once.
    """
    ax = grid.axis()
    k = int(np.count_nonzero(ax[1:-2] < 0.0))  # interior nodes 1..k lie at y < 0
    # y/2 on the interior, first on its axis; on the last axis it is repeated for
    # both components: one long loop, not pairs
    vel = np.repeat(0.5 * ax[1:-1], 2)
    lead = (-1,) + (1,) * (grid.n_dim - 1)
    vels = (vel[::2].reshape(lead + (1,)),) * (grid.n_dim - 1) + (vel.reshape(lead + (2,)),)
    out, d, e = work
    views = []
    for axis, v in enumerate(vels):
        m, dm, em, om = (a.swapaxes(0, axis) for a in (vals, d, e, out))
        # outward flow on the left half: stencil uses i, i+1, i+2; on the right
        # half i, i-1, i-2
        left = (dm[1 : k + 1], em[1 : k + 1], m[1 : k + 1], m[2 : k + 2], m[3 : k + 3])
        right = (dm[k + 1 : -1], em[k + 1 : -1], m[k + 1 : -1], m[k:-2], m[k - 1 : -3])
        views.append((left, right, v, dm[1:-1], om[1:-1]))
    return out, views, 2.0 * grid.h


def _drift(out, views, two_h) -> np.ndarray:
    """(y/2).grad of the viewed state into out, by second-order upwind one-sided differences.

    The drift velocity y/2 points outward, so the stencil leans toward the
    origin.  Boundary nodes of the result are left at zero.
    """
    out.fill(0.0)
    for (dl, el, l0, l1, l2), (dr, er, r0, r1, r2), vel, dc, oc in views:
        np.multiply(-3.0, l0, out=dl)
        np.add(dl, np.multiply(4.0, l1, out=el), out=dl)
        np.divide(np.subtract(dl, l2, out=dl), two_h, out=dl)
        np.multiply(3.0, r0, out=dr)
        np.subtract(dr, np.multiply(4.0, r1, out=er), out=dr)
        np.divide(np.add(dr, r2, out=dr), two_h, out=dr)
        np.multiply(vel, dc, out=dc)
        np.add(oc, dc, out=oc)
    return out


@functools.lru_cache(maxsize=32)
def _edge_mask(grid: _spectral.Grid) -> np.ndarray:
    """True on the boundary nodes: every face of the grid box (read-only)."""
    edge = np.ones(grid.shape, dtype=bool)
    edge[(slice(1, -1),) * grid.n_dim] = False
    edge.setflags(write=False)
    return edge


def _extrapolate_boundary(vals: np.ndarray) -> None:
    """Overwrite the boundary faces in place by linear extrapolation, axis by axis."""
    for axis in range(vals.ndim):
        v = np.moveaxis(vals, axis, 0)
        v[0] = 2.0 * v[1] - v[2]
        v[-1] = 2.0 * v[-2] - v[-3]


def _substep_count(scheme: str, grid: _spectral.Grid, ds: float) -> int:
    """Number of equal substeps of a ds step keeping the explicit pieces in their limits."""
    drift_cfl = grid.half_width * ds / (2.0 * grid.h)
    need = drift_cfl / CFL_SAFETY
    if scheme == "explicit-rk4":
        # explicit diffusion: |lambda|_max = 4 n / h^2 must stay under ~2.78
        diff = 4.0 * grid.n_dim * ds / (grid.h**2) / 2.78
        need = max(need, diff / CFL_SAFETY)
    return max(1, int(math.ceil(need - 1e-12)))


def _rk4_rhs(w, grid, params):
    inv = 1.0 / (params.p - 1)
    return _complex(_spectral.diffusion_drift(grid, _real(w))) - inv * w + w**params.p


class _Workspace:
    """In-place buffers of similarity steps: the state w, a block of three arrays
    shaped like it, the drift stencil's views on their real views, and the
    boundary nodes as indices (in _edge_mask's order; a mask is slower to apply)."""

    def __init__(self, grid: _spectral.Grid, w: np.ndarray):
        self.w = w
        self.block = np.empty((3,) + grid.shape, np.complex128)
        self.drift = _drift_views(grid, _real(w), _real(self.block))
        self.edge = np.nonzero(_edge_mask(grid))


def _clamp_values(params: _params.Params, grid: _spectral.Grid, s) -> np.ndarray:
    """Phi1 + i Phi2 on the boundary nodes at each entry of the array s: s.shape + (edges,)."""
    return _params.phi(params, grid.radius2()[_edge_mask(grid)], s[..., None])


def step_similarity(
    state: SimilarityState, cfg: SolverConfig, params: _params.Params, ds: float = None,
    *, work: _Workspace = None, clamp: np.ndarray = None,
) -> SimilarityState:
    """Advance the similarity-frame state by one step of length ds (default cfg.ds).

    The substeps solve, drift and react in place on a workspace: by default a
    new one holding a copy of state.w, with the clamped boundary values of all
    substeps from one profile call, so state is left as it was.  evolve passes
    its run's workspace, whose w is state.w, and the boundary values of the
    step's substeps (clamp, n_sub rows); the step then overwrites state.w.
    """
    if ds is None:
        ds = cfg.ds
    grid = state.grid
    n_sub = _substep_count(cfg.scheme, grid, ds)
    dss = ds / n_sub
    if work is None:
        work = _Workspace(grid, state.w.copy())
    if clamp is None and cfg.boundary == "profile-clamp":
        clamp = _clamp_values(params, grid, state.s + np.arange(1, n_sub + 1) * dss)
    w = work.w
    if cfg.scheme == "semi-implicit":
        factor = _diffusion_factor(grid.shape[0], dss / (grid.h * grid.h))
        a, b, _ = work.block
        wr, inv = _real(w), 1.0 / (params.p - 1)
    for k in range(n_sub):
        if cfg.scheme == "semi-implicit":
            _diffuse_in_place(w, factor, a.T)
            drift = _drift(*work.drift)
            np.subtract(wr, np.multiply(dss, drift, out=drift), out=wr)
            if params.p == 2:  # what w**2 calls; np.power(w, 2) moves the last bit
                np.square(w, out=a)
            else:
                np.power(w, params.p, out=a)
            np.subtract(a, np.multiply(inv, w, out=b), out=a)
            np.add(w, np.multiply(dss, a, out=a), out=w)
        else:
            k1 = _rk4_rhs(w, grid, params)
            k2 = _rk4_rhs(w + 0.5 * dss * k1, grid, params)
            k3 = _rk4_rhs(w + 0.5 * dss * k2, grid, params)
            k4 = _rk4_rhs(w + dss * k3, grid, params)
            w[...] = w + dss / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        if cfg.boundary == "profile-clamp":
            w[work.edge] = clamp[k]
        else:
            _extrapolate_boundary(w)
    s = float(state.s + n_sub * dss)
    # the larger of max|w1| and max|w2|, as recorded in max_w
    max_w = float(np.max(np.abs(_real(w))))
    if not math.isfinite(max_w) or max_w > 10.0 * params.kappa:
        raise BlowupInSimilarityError(s, max_w)
    return SimilarityState(s=s, grid=grid, w=w)


def _pin(w, grid, params, cut, s, buf) -> np.ndarray:
    """Project chi q, q = w - Phi(s), onto {1, y_j/2} and remove (m0 + sum m_j y_j) chi from w.

    The linearized flow amplifies these modes.  chi is zero for |y| >= 2K sqrt(s),
    so Phi, chi and q (in the flat complex buf) are formed, and w is changed, on
    the box of those rows only.  Returns (m0, m_1..m_n), one component per part.
    """
    rows = grid.rows_within(2.0 * cut.K * math.sqrt(s))
    box = (rows,) * grid.n_dim
    r2 = grid.radius2()[box]
    phi = _params.phi(params, r2, s)
    chi = _rhs.cutoff_chi(cut, r2, s)
    q = np.subtract(w[box], phi, out=buf[: phi.size].reshape(phi.shape))
    m0, m1, _ = _spectral.gaussian_moments(grid, q, chi * grid.rho()[box], rows)
    correction = m0
    for m, y in zip(m1, grid.meshes(rows)):
        correction = correction + m * y
    q -= correction * chi
    np.add(phi, q, out=w[box])
    return np.concatenate(([m0], m1))


def _record_state(state, params, ssp, removal_rate) -> tuple:
    """One Trajectory row of state; its Phi1 + i Phi2 is the only full-grid profile a run forms."""
    grid = state.grid
    phi = _params.phi(params, grid.radius2(), state.s)
    modes = _diag.decompose(grid, state.w - phi, state.s, ssp)
    e1, e2 = _diag.profile_error(state, params)
    c0, c2 = _diag.radial_mode_coefficients(grid, state.w - params.kappa)
    return (state.s, *modes, e1, e2, np.max(np.abs(_real(state.w))),
            c2.real, c0.imag, c2.imag, _real(removal_rate).T)


def evolve(
    initial: SimilarityState,
    cfg: SolverConfig,
    params: _params.Params,
    observer=None,
    ssp: _diag.ShrinkingSetParams = None,
) -> _diag.Trajectory:
    """Step from initial.s to cfg.s_end, recording every record_every steps.

    The observer, when given, is called with each appended row of the
    trajectory's records.  Step errors propagate with the failing s attached.
    When pinning is enabled the removal rates (amount removed per unit s,
    averaged since the previous record) ride along on each record; the pin
    (_pin) leaves w as it is beyond the cutoff's support box.  The steps run
    in place on one workspace per run and give the same values as
    step_similarity calls on fresh copies; initial is left as it was.
    """
    if not initial.s >= 1.0:
        raise ValueError(f"initial s must be >= 1, got {initial.s}")
    if not cfg.s_end > initial.s:
        raise ValueError(f"s_end={cfg.s_end} must exceed initial s={initial.s}")
    _require_finite(initial.w)
    if ssp is None:
        ssp = _diag.ShrinkingSetParams(K=cfg.cutoff.K)
    grid = initial.grid
    traj = _diag.Trajectory(grid=grid)
    n_full = int(math.floor((cfg.s_end - initial.s) / cfg.ds + 1e-9))
    remainder = cfg.s_end - initial.s - n_full * cfg.ds
    if remainder < 1e-12 * max(1.0, cfg.s_end):
        remainder = 0.0
    pending_snaps = sorted(cfg.snapshot_at)

    removed_sum = np.zeros(1 + grid.n_dim, dtype=np.complex128)
    s_last_record = initial.s

    def push(state):
        nonlocal removed_sum, s_last_record
        span = state.s - s_last_record
        rate = np.zeros_like(removed_sum) if span <= 0 else removed_sum / span
        traj.add(*_record_state(state, params, ssp, rate))
        if observer is not None:
            observer(traj.records[-1])
        removed_sum = np.zeros_like(removed_sum)
        s_last_record = state.s
        while pending_snaps and state.s >= pending_snaps[0] - 1e-9:
            pending_snaps.pop(0)
            traj.snapshots.append((state.s, state.w.copy()))

    # the run's workspace; every state of the loop holds its w
    state = SimilarityState(s=initial.s, grid=grid, w=initial.w.copy())
    work = _Workspace(grid, state.w)
    # A run on one workspace frees no block-sized array, and glibc raises its
    # mmap and trim thresholds only when it frees a mapped array larger than
    # them; below that it trims the heap top after the full-grid temporaries of
    # a step or a record and faults the pages in again on the next one (257^2
    # cell: 12k minor faults per run, 4k with this).  Freeing one untouched
    # block-sized array raises them once.
    spare = np.empty_like(work.block)
    del spare
    push(state)
    total_steps = n_full + (1 if remainder > 0 else 0)
    n_sub = _substep_count(cfg.scheme, grid, cfg.ds)
    substeps = np.arange(1, n_sub + 1) * (cfg.ds / n_sub)
    for k in range(1, total_steps + 1):
        ds_k = cfg.ds if k <= n_full else remainder
        clamp = None  # the remainder step makes its own
        if cfg.boundary == "profile-clamp" and k <= n_full:
            j = (k - 1) % cfg.record_every
            if j == 0:
                # boundary values of every substep up to the next record, at the s
                # step_similarity gives them: step i starts at initial.s + i ds
                steps = np.arange(k - 1, min(k - 1 + cfg.record_every, n_full))
                starts = initial.s + steps * cfg.ds
                block = _clamp_values(params, grid, starts[:, None] + substeps)
            clamp = block[j]
        state = step_similarity(state, cfg, params, ds=ds_k, work=work, clamp=clamp)
        # keep s exact against accumulation drift
        s_exact = initial.s + min(k, n_full) * cfg.ds + (remainder if k > n_full else 0.0)
        state = dataclasses.replace(state, s=s_exact)
        if cfg.pin_unstable_modes:
            # the deviation goes into the step's scratch, free until the next step
            scratch = work.block[0].reshape(-1)
            removed_sum += _pin(state.w, grid, params, cfg.cutoff, state.s, scratch)
        if k % cfg.record_every == 0 or k == total_steps:
            push(state)
    return traj


def similarity_initial_state(
    params: _params.Params,
    idp: _rhs.InitialDataParams,
    cut: _rhs.CutoffSpec,
    grid: _spectral.Grid,
) -> SimilarityState:
    """Profile plus localized deviation data at s = idp.s0 on the given grid."""
    q1, q2 = _rhs.initial_data(params, idp, cut, grid)
    w = _params.phi(params, grid.radius2(), idp.s0) + (q1 + 1j * q2)
    return SimilarityState(s=idp.s0, grid=grid, w=w)


def _physical_step_in_place(u, factor, edge_vals, dt, p, buf, mod) -> tuple:
    """One semi-implicit step of d_t u = Lap u + u^p on u; returns (i, mod.flat[i]).

    Diffusion (buf.T is the 2-D ADI buffer), reaction with u^p in buf, faces
    copied from edge_vals, then mod = |u| and i = argmax; mod.flat[i] is NaN or
    inf when a part of u is, and inf when |u| exceeds the largest double.
    """
    _diffuse_in_place(u, factor, buf.T if u.ndim == 2 else None)
    if p == 2:  # what u**2 calls; np.power(u, 2) moves the last bit
        np.square(u, out=buf)
    else:
        np.power(u, p, out=buf)
    np.add(u, np.multiply(dt, buf, out=buf), out=u)
    for axis in range(u.ndim):
        face, vals = u.swapaxes(0, axis), edge_vals.swapaxes(0, axis)
        face[0], face[-1] = vals[0], vals[-1]
    np.abs(u, out=mod)
    i = int(np.argmax(mod))
    return i, float(mod.flat[i])


def step_physical(state: PhysicalState, dt: float, params: _params.Params) -> PhysicalState:
    """One semi-implicit step of d_t u = Lap u + u^p.

    Implicit diffusion, explicit reaction, Dirichlet boundary frozen at the
    incoming boundary values.  On overflow (max|u| not finite) the incoming
    state is returned with status "overflow".
    """
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    grid = state.grid
    u, buf = state.u.copy(), np.empty_like(state.u)
    factor = _diffusion_factor(grid.shape[0], dt / (grid.h * grid.h))
    with np.errstate(over="ignore", invalid="ignore"):
        _, m = _physical_step_in_place(u, factor, state.u, dt, params.p, buf, np.empty(grid.shape))
    if not math.isfinite(m):
        return dataclasses.replace(state, status="overflow")
    return PhysicalState(t=state.t + dt, grid=grid, u=u)


def physical_initial_from_similarity(
    params: _params.Params,
    idp: _rhs.InitialDataParams,
    cut: _rhs.CutoffSpec,
    grid_x: _spectral.Grid,
) -> PhysicalState:
    """Physical-frame data at t = 0 for blow-up time T = e^{-s0}.

    Maps the similarity-frame data w = Phi + q at s0 through
    u(x, 0) = T^{-1/(p-1)} w(x/sqrt(T), s0).
    """
    T = math.exp(-idp.s0)
    scale = T ** (-1.0 / (params.p - 1))
    grid_y = _spectral.Grid(grid_x.n_dim, grid_x.half_width / math.sqrt(T), grid_x.npts)
    sim = similarity_initial_state(params, idp, cut, grid_y)
    return PhysicalState(t=0.0, grid=grid_x, u=scale * sim.w)


def run_physical_blowup(
    u0: PhysicalState,
    params: _params.Params,
    *,
    eta: float = 2.5e-4,
    probes=(),
    stop_max: float = None,
) -> tuple:
    """Integrate toward blow-up with steps tied to the collapse timescale.

    dt = eta kappa^{p-1} max|u|^{1-p} is held fixed until max|u| grows by
    SHRINK_FACTOR, then refreshed (for p=2 this halves dt every doubling).
    Every step is recorded, with u at the probes (x positions, 1-D grids
    only); a snapshot is kept whenever max|u| has grown by SNAPSHOT_FACTOR.
    The steps run in place on one workspace allocated per run.  Returns
    (PhysicalTrajectory, T_estimate), and the trajectory's status names what
    ended the run:

    - "blown-up": max|u| reached stop_max (default 10^6 scaled by the
      initial amplitude when that exceeds 1), or max|u| became non-finite
      (NaN or inf in u, or |u| past the largest double) in a step, then dropped;
    - "stalled": max|u| set no new peak for STALL_PATIENCE steps, or the
      MAX_STEPS budget ran out;
    - "receded": max|u| fell below half its peak after at least doubling.

    T is fitted over the trailing records that were still collapsing at the
    self-similar rate.  NoBlowupError is raised instead when max|u| decays
    before it doubles, or when too little growth is left to fit T.
    """
    grid = u0.grid
    ax = grid.axis()
    probes = np.asarray(probes, dtype=float)
    if probes.size and grid.n_dim != 1:
        raise ValueError("probes are x positions and need a 1-D grid")
    _require_finite(u0.u)
    # the run's workspace: the state, u^p and |u|; each step resets u's faces to u0's
    u, buf, mod = u0.u.copy(), np.empty_like(u0.u), np.abs(u0.u)
    i = int(np.argmax(mod))
    m0 = float(mod.flat[i])
    if m0 == 0.0:
        raise NoBlowupError("no blow-up detected: initial data is identically zero")
    if stop_max is None:
        stop_max = 1e6 * max(1.0, m0)
    traj = _diag.PhysicalTrajectory(grid=grid, probes=probes)

    def snap():
        traj.snapshots.append((t, u.copy()))

    def record(m, i):
        pos = ax[list(np.unravel_index(i, grid.shape))] if grid.n_dim > 1 else ax[i : i + 1]
        traj.add(t, dt, m, pos, np.interp(probes, ax, u) if probes.size else ())

    t, m_ref = u0.t, m0
    kp = params.kappa ** (params.p - 1)
    dt = eta * kp * m_ref ** (1 - params.p)
    factor = _diffusion_factor(grid.shape[0], dt / (grid.h * grid.h))
    record(m0, i)
    snap()
    m_snap = peak = m0
    steps_since_peak = i_growth_end = 0
    status = "blown-up"
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(MAX_STEPS):
            i, m = _physical_step_in_place(u, factor, u0.u, dt, params.p, buf, mod)
            if not math.isfinite(m):
                break  # overflow: the step is dropped and the run ends "blown-up"
            t += dt
            record(m, i)
            if m > peak * (1.0 + 1e-9):
                peak = m
                steps_since_peak = 0
                i_growth_end = len(traj.records) - 1
            else:
                steps_since_peak += 1
            if m >= m_snap * SNAPSHOT_FACTOR:
                snap()
                m_snap = m
            if m >= stop_max:
                snap()
                break
            if m < 0.5 * peak:
                if peak < 2.0 * m0:
                    raise NoBlowupError(
                        f"no blow-up detected: max|u| fell to {m:.4g} "
                        f"from peak {peak:.4g}"
                    )
                # the collapse happened and then receded, which a genuinely
                # decaying solution cannot do; the clean growth records still
                # yield a blow-up time
                status = "receded"
                snap()
                break
            if steps_since_peak >= STALL_PATIENCE:
                status = "stalled"
                snap()
                break
            if m >= SHRINK_FACTOR * m_ref:
                m_ref = m
                dt = eta * kp * m_ref ** (1 - params.p)
                factor = _diffusion_factor(grid.shape[0], dt / (grid.h * grid.h))
        else:
            if peak < 2.0 * m0:
                raise NoBlowupError("no blow-up detected: growth never took off")
            status = "stalled"
    traj.status = status

    ts = traj.records["t"]
    ms = traj.records["max_u"]
    # Fit the blow-up time on the clean part of the collapse.  For a genuine
    # single-point blow-up y = kappa^(p-1) max|u|^(1-p) decays at rate
    # dy/dt ~ -1 for every p; records where under-resolution or a rotating
    # core phase has slowed the collapse violate that and would wreck the
    # extrapolation, so keep the last contiguous stretch of order -1 slopes.
    ts_g, ms_g = ts[: i_growth_end + 1], ms[: i_growth_end + 1]
    p = params.p
    if len(ts_g) < 3:
        raise NoBlowupError("no blow-up detected: too little growth to fit a blow-up time")
    y = params.kappa ** (p - 1) * ms_g ** (1 - p)
    k = max(1, len(y) // 100)
    sl = (y[k:] - y[:-k]) / (ts_g[k:] - ts_g[:-k])
    clean = (sl > -1.5) & (sl < -0.5)
    sel = np.zeros(len(y), dtype=bool)
    if np.any(clean):
        end = int(np.nonzero(clean)[0][-1])
        start = end
        while start > 0 and clean[start - 1]:
            start -= 1
        sel[start : end + k + 1] = True
    if np.count_nonzero(sel) < 3:
        sel = ms_g >= ms_g[-1] / 10.0
    if np.count_nonzero(sel) < 3:
        raise NoBlowupError("no blow-up detected: too little growth to fit a blow-up time")
    # mean-centered closed-form line fit: blow-up times are often tiny on an
    # absolute scale, and a [1, t] design matrix would be numerically
    # rank-one in that regime
    t_sel, y_sel = ts_g[sel], y[sel]
    t_bar, y_bar = float(np.mean(t_sel)), float(np.mean(y_sel))
    var_t = float(np.sum((t_sel - t_bar) ** 2))
    if var_t == 0.0:
        raise NoBlowupError("no blow-up detected: too little growth to fit a blow-up time")
    slope = float(np.sum((t_sel - t_bar) * (y_sel - y_bar))) / var_t
    if not slope < 0:
        raise NoBlowupError("no blow-up detected: max|u|^(1-p) is not decaying")
    T_est = float(t_bar - y_bar / slope)
    left = T_est - ts_g[sel]
    if np.all(left > 0):
        traj.decay_slope = _diag.line_fit(np.log(left), np.log(ms_g[sel]))[1]
    traj.T_estimate = T_est
    return traj, T_est

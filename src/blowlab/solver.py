"""Time integration in similarity and physical variables.

The state is one complex128 array, w = w1 + i w2 (resp. u = u1 + i u2).
The linear operators are real.  The diffusion solve applies a real factor
of I - dt D2 to the complex state: on a 1-D grid an LDL^T factor (dpttrf)
of the matrix with its Dirichlet rows folded into the right-hand side,
applied by zpttrs; on a 2-D grid an LU factor (dgttrf) applied by zgttrs,
whose wrapper releases the GIL for the helper thread (see
_diffusion_factor).  The drift stencil acts on the real view (`_real`,
trailing axis of length two), so both components go through one solve, one
stencil, one boundary pass.  One _Stepper per run takes every semi-implicit
substep of either frame in place.

Similarity frame: d_s w = Lap w - (y/2).grad w - w/(p-1) + w^p.  The default
scheme is operator splitting per step: implicit diffusion (tridiagonal solve
per axis, ADI in 2D), explicit second-order upwind drift (per-node weights
built once per (grid, dt)), explicit reaction (Horner form, with the decay).
Splitting is first order in ds and second order in h.  Substeps are taken when
the drift CFL y_max ds/(2h) exceeds CFL_SAFETY.  evolve steps its stepper
through step_similarity, once per step, and takes the clamped boundary values
of every substep up to the next record from one profile call.  It pins on the
cutoff's support box (profiles through spectral.Grid.radial);
diagnostics.Trajectory.record builds each record and its full-grid profiles.

Physical frame: d_t u = Lap u + u^p with the same implicit diffusion and
explicit reaction, advanced with steps proportional to the local collapse
timescale (kappa/max|u|)^{p-1}.  Each step also takes max|u| (it overflows
when that is not finite); step_physical is one step on a copy of the state.
The run hands every step to diagnostics.PhysicalTrajectory.record, keeps
snapshots as max|u| grows (u at the probes only, read as the records read
it, so their size does not grow with the grid), names its end in one place
(see its docstring) and fits the blow-up time with
diagnostics.fit_blowup_time.  Its settings, STOP_GROWTH among them, are the
module constants below.

One trajectory is single-owner and its steps are sequential; independent
trajectories share no mutable state.  In 2-D a run's stepper splits each
substep into halves and runs one on a helper thread that lives only as long
as the run (see _Stepper); the bits do not depend on the thread schedule.
"""

import contextvars
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import diagnostics as _diag
from . import params as _params
from . import rhs as _rhs
from . import spectral as _spectral
from .diagnostics import NoBlowupError

SCHEMES = ("semi-implicit", "explicit-rk4")
# largest drift CFL number y_max dss/(2h) of a substep (and the fraction of the
# diffusion limit explicit-rk4 uses).  No stability margin: forward Euler on the
# upwind drift alone is stable only to 0.5; grids with L >= 120 and h >= 0.085 diverge
CFL_SAFETY = 0.9
# largest nominal step ds of the semi-implicit scheme (see SolverConfig)
SEMI_IMPLICIT_MAX_DS = 0.01
# physical run: dt is refreshed each time max|u| grows by this factor
SHRINK_FACTOR = 2.0
# physical run: a snapshot is kept each time max|u| grows by this factor
SNAPSHOT_FACTOR = 1.05
# physical run: steps without a new peak of max|u| before it ends as "stalled"
STALL_PATIENCE = 5000
# physical run: step budget; running out of it also ends the run as "stalled"
MAX_STEPS = 2_000_000
# physical run: it ends "blown-up" once max|u| reaches this factor times max(1, max|u0|)
STOP_GROWTH = 1e6


class BlowupInSimilarityError(RuntimeError):
    """max|w| left the basin (exceeded 10 kappa) during a similarity step."""

    def __init__(self, s: float, max_w: float):
        super().__init__(
            f"similarity solution diverged: max|w| = {max_w:.6g} exceeded "
            f"the 10 kappa guard at s = {s:.6g}"
        )
        self.s = s
        self.max_w = max_w


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

    ds is the nominal step; the semi-implicit scheme caps it at
    SEMI_IMPLICIT_MAX_DS, and its drift substeps keep no stability margin
    (see CFL_SAFETY).  The splitting is first order in ds:
    on a p = 2, N = 4097, ds = 5e-3 run over s 25 -> 35 its time error is about
    2.4 % of w1bar_limit and 6 % of e1_final.  pin_unstable_modes removes the
    expanding scalar and gradient content of the localized deviation after
    every step, recording the removal rates, so finite-window profile
    convergence is observable despite the two expanding directions seeded
    by roundoff and the source terms.
    """

    ds: float
    s_end: float
    scheme: str = "semi-implicit"
    record_every: int = 10
    pin_unstable_modes: bool = False
    cutoff: _rhs.CutoffSpec = field(default_factory=_rhs.CutoffSpec)
    snapshot_at: tuple = ()

    def __post_init__(self):
        # a bool is an int, so True would pass as 1 without this check
        for name in ("ds", "s_end", "record_every"):
            if isinstance(getattr(self, name), bool):
                raise ValueError(f"{name} must be a number, got {getattr(self, name)!r}")
        if not 0 < self.ds < math.inf:
            raise ValueError(f"ds must be positive and finite, got {self.ds}")
        if not abs(self.s_end) < math.inf:
            raise ValueError(f"s_end must be finite, got {self.s_end}")
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        if self.scheme == "semi-implicit" and self.ds > SEMI_IMPLICIT_MAX_DS:
            raise ValueError(
                f"semi-implicit scheme requires ds <= {SEMI_IMPLICIT_MAX_DS}, got {self.ds}"
            )
        if not isinstance(self.record_every, int) or self.record_every < 1:
            raise ValueError(f"record_every must be a positive integer, got {self.record_every}")


def _diffusion_factor(npts: int, r: float, n_dim: int) -> tuple:
    """Factor of I - r D2 (identity boundary rows) for one grid dimension, r = dt/h^2.

    1-D: (d, e, r) for _diffuse_in_place's fold and zpttrs.  Adding r x_0 and
    r x_{n-1} to the right-hand side's rows 1 and n-2 decouples the boundary
    rows, which leaves a symmetric positive definite matrix with diagonal
    1, 1 + 2r, ..., 1 + 2r, 1 and off-diagonal 0, -r, ..., -r, 0.  Its LDL^T
    factor (dpttrf: no pivoting, real d) returns the boundary rows bit for bit;
    e is cast to complex128, as zpttrs takes it.  2-D: the LU factor (dgttrf)
    of the unfolded matrix as zgttrs takes it, its four arrays cast to
    complex128.  scipy's wrappers release the GIL for zgttrs but hold it for
    every *pttrs routine: twenty solves on each of two 20001 x 16 blocks took
    0.186 s on two threads against 0.184 s in turn with zpttrs, and 0.121 s
    against 0.239 s with zgttrs (2-CPU Xeon host), so the ADI halves keep the
    LU path.
    """
    diag = np.full(npts, 1.0 + 2.0 * r)
    diag[[0, -1]] = 1.0
    if n_dim == 1:
        off = np.full(npts - 1, -r)
        off[[0, -1]] = 0.0
        # positive definite for r > 0, so the factor always exists
        d, e, _ = _spectral.lapack.dpttrf(diag, off)
        return d, e.astype(np.complex128), r
    lower = np.full(npts - 1, -r)
    upper = np.full(npts - 1, -r)
    upper[0] = lower[-1] = 0.0
    # strictly diagonally dominant for r > 0, so the factor always exists
    dl, d, du, du2, ipiv, _ = _spectral.lapack.dgttrf(lower, diag, upper)
    return tuple(a.astype(np.complex128) for a in (dl, d, du, du2)) + (ipiv,)


def _diffuse_in_place(w: np.ndarray, factor: tuple, fbuf, axis: int, lines: slice) -> None:
    """Solve (I - dt D2) x = w along axis on the lines (a half) into the C-order complex w.

    A 1-D w (one half): the boundary values folded into rows 1 and n-2, then
    zpttrs on the whole line.  Axis 0 of a 2-D w: the columns in lines, through
    the Fortran-order fbuf (shaped like w); the last axis: w[lines].T.  ADI
    solves axis 0 on every column before axis 1 on any row; that order fixes
    the last bits.  Each line is its own right-hand side, so the halves do not
    move them.  Boundary rows are identity.
    """
    if w.ndim == 1:
        d, e, r = factor
        v = _real(w)
        v[1] += r * v[0]
        v[-2] += r * v[-1]
        _spectral.lapack.zpttrs(d, e, w, overwrite_b=1)
    elif axis == 0:
        cols = (slice(None), lines)
        fbuf[cols] = w[cols]
        _spectral.lapack.zgttrs(*factor, fbuf[cols], overwrite_b=1)
        w[cols] = fbuf[cols]
    else:
        _spectral.lapack.zgttrs(*factor, w[lines].T, overwrite_b=1)


def _stencil_terms(grid: _spectral.Grid, vals, work, halves) -> tuple:
    """(coef, [(out, keep, vals, terms)] per half, a slice of rows): the explicit drift's operands.

    vals is a state's real view, grid.shape + (2,); work holds three arrays shaped like
    it: out, a scratch and keep.  A term (weights, neighbours, scratch, rows of out) adds
    coef's weights of the neighbours toward the origin to those rows.  A half writes its
    rows of work only, but reads vals up to two rows past them.  Views follow their
    arrays' contents, so a run builds them once and fills coef and keep per dt.
    """
    n, (out, scratch, keep), coef = grid.npts, work, np.empty((2, grid.npts, 2))
    k = int(np.count_nonzero(grid.axis()[1:-2] < 0.0))  # interior nodes 1..k lie at y < 0
    per_half = []
    for rows in halves:
        lo, hi = max(rows.start, 1), min(rows.stop, n - 1)  # the half's interior rows
        terms = []
        for axis in range(grid.n_dim):
            # axis 0: the half's interior rows, split where the flow turns; axis 1: its
            # whole interior on the half's rows, weights broadcast down the rows
            a, b, c = (lo, min(max(k + 1, lo), hi), hi) if axis == 0 else (1, k + 1, n - 1)
            at = (lambda x, nodes: x[nodes]) if axis == 0 else (lambda x, nodes: x[rows, nodes])
            wt = coef if axis == grid.n_dim - 1 else coef[:, :, None, :1]
            for nodes, side in ((slice(a, b), 1), (slice(b, c), -1)):  # neighbours at i ± 1, 2
                for j in (0, 1):
                    near = slice(nodes.start + side * (j + 1), nodes.stop + side * (j + 1))
                    terms.append((wt[j, nodes], at(vals, near), at(scratch, nodes), at(out, nodes)))
        per_half.append((out[rows], keep[rows], vals[rows], terms))
    return coef, per_half


def _stencil(out, keep, vals, terms) -> None:
    """out = keep vals plus every term: one explicit upwind drift step.  A 2-D grid's terms
    broadcast or stride along rows, which numpy's default 8192-item ufunc buffer copies to
    lengthen its loops, at twice the time of a 16-item buffer."""
    size = out.ndim == 3 and np.setbufsize(16)
    try:
        np.multiply(keep, vals, out=out)
        for weights, near, scratch, dst in terms:
            np.add(dst, np.multiply(weights, near, out=scratch), out=dst)
    finally:
        if size:
            np.setbufsize(size)


@functools.lru_cache(maxsize=32)
def _edge_mask(grid: _spectral.Grid) -> np.ndarray:
    """True on the boundary nodes: every face of the grid box (read-only)."""
    edge = np.ones(grid.shape, dtype=bool)
    edge[(slice(1, -1),) * grid.n_dim] = False
    edge.setflags(write=False)
    return edge


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


class _Stepper:
    """Semi-implicit substeps in place of one state w in the "similarity" or "physical" frame:
    w, a block of three arrays shaped like it, the boundary nodes as indices (in
    _edge_mask's order; a mask is slower to apply), the halves of the grid's rows and
    the operator of the last dt, built again only when dt changes: the factor
    (_diffusion_factor: LDL^T on a 1-D grid, LU on a 2-D one) and, in the similarity
    frame, the drift's weights (_weigh: keep in the third block array, the neighbours'
    in coef), which _stencil applies into the first block array for _react.  The caller
    sets the boundary.

    A 1-D grid is one half and has no helper thread, so its zpttrs solves, which
    hold the GIL, never run beside another; a 2-D grid splits at row n // 2, where
    the drift's upwind stencil changes side (columns for the axis-0 solve).  Every
    phase (each ADI axis, the drift, the reaction) ends on both halves before the
    next starts.  Entered as a context, the stepper runs half 1 on a helper thread,
    which calls only private numpy and LAPACK kernels and is joined on exit, so no
    thread outlives the run (nor reaches a fork after it); outside one, the halves
    run in turn, with the same bits.
    """

    def __init__(self, grid: _spectral.Grid, w: np.ndarray, p: int, frame: str):
        self.w, self.p, self.grid, self.h2, self.dt = w, p, grid, grid.h * grid.h, None
        self.block = np.empty((3,) + grid.shape, np.complex128)
        self.edge = np.nonzero(_edge_mask(grid))
        n = grid.npts
        self.halves = (slice(0, n),) if grid.n_dim == 1 else (slice(0, n // 2), slice(n // 2, n))
        self.coef, self.drift = (_stencil_terms(grid, _real(w), _real(self.block), self.halves)
                                 if frame == "similarity" else (None, None))
        # w and the first two block arrays on each half's rows, for _react
        self.parts = [(w[r], self.block[0][r], self.block[1][r]) for r in self.halves]
        self.helper = None

    def __enter__(self):
        if len(self.halves) > 1:
            # imported here: it loads logging, which a 1-D run never needs
            from concurrent.futures import ThreadPoolExecutor

            self.helper = ThreadPoolExecutor(1)
        return self

    def __exit__(self, *exc):
        if self.helper is not None:
            self.helper.shutdown()
            self.helper = None

    def _diffuse(self, axis: int, i: int) -> None:
        _diffuse_in_place(self.w, self.factor, self.block[0].T, axis, self.halves[i])

    def _weigh(self, dt: float) -> None:
        """The drift's weights for dt: g = dt |y|/(4h) at each interior axis node, 4g and -g
        on its two neighbours toward the origin, and keep = 1 - 3 (g summed over the axes)."""
        g = dt / (4.0 * self.grid.h) * np.abs(self.grid.axis())
        g[[0, -1]] = 0.0
        self.coef[:] = np.stack([4.0 * g, -g])[..., None]
        diag = np.add.outer(g, g) if self.w.ndim == 2 else g
        _real(self.block[2])[...] = (1.0 - 3.0 * diag)[..., None]

    def _react(self, i: int) -> None:
        """Reaction on the rows of half i: w + dt w^p in the physical frame; in the similarity
        frame w = u (1 - dt/(p-1) + dt u^(p-1)) from the drift's result u (first block array)."""
        (w, a, b), dt, p = self.parts[i], self.dt, self.p
        # as w**p or u**(p-1) calls them: np.square for 2 (np.power(w, 2) moves the last bit)
        if self.drift is None:
            up = np.square(w, out=a) if p == 2 else np.power(w, p, out=a)
            np.add(w, np.multiply(dt, up, out=a), out=w)
            return
        up = a if p == 2 else np.square(a, out=b) if p == 3 else np.power(a, p - 1, out=b)
        np.add(np.multiply(dt, up, out=b), 1.0 - dt / (p - 1), out=b)
        np.multiply(a, b, out=w)

    def _both(self, phase, *args) -> None:
        """phase(*args, i) on each half i, half 1 on the helper if any; returns when all end."""
        if self.helper is None:
            for i in range(len(self.halves)):
                phase(*args, i)
            return
        # the copied context carries this thread's np.errstate to the helper
        later = self.helper.submit(contextvars.copy_context().run, phase, *args, 1)
        phase(*args, 0)
        later.result()

    def step(self, dt: float) -> None:
        """Diffuse (ADI in 2-D, axis 0 first), drift (similarity frame), react; each a phase."""
        if dt != self.dt:
            self.dt, self.factor = dt, _diffusion_factor(self.w.shape[0], dt / self.h2, self.w.ndim)
            if self.drift is not None:
                self._weigh(dt)
        for axis in range(self.w.ndim):
            self._both(self._diffuse, axis)
        if self.drift is not None:
            self._both(lambda i: _stencil(*self.drift[i]))
        self._both(self._react)


def _clamp_values(params: _params.Params, grid: _spectral.Grid, s) -> np.ndarray:
    """Phi1 + i Phi2 on the boundary nodes at each entry of the array s: s.shape + (edges,)."""
    return _params.phi(params, grid.radius2()[_edge_mask(grid)], s[..., None])


def step_similarity(
    state: SimilarityState, cfg: SolverConfig, params: _params.Params, ds: float = None,
    *, work: _Stepper = None, clamp: np.ndarray = None,
) -> SimilarityState:
    """Advance the similarity-frame state by one step of length ds (default cfg.ds).

    The substeps solve, drift and react in place on a _Stepper, and substep k
    ends by setting the boundary nodes to clamp[k] (n_sub rows, in _edge_mask's
    order), by default Phi1 + i Phi2 at its s from one profile call.  The
    default stepper holds a copy of state.w, so state is left as it was.
    evolve passes its run's stepper, whose w is state.w, and the step's rows
    of its clamp block; the step then overwrites state.w.
    """
    if ds is None:
        ds = cfg.ds
    grid = state.grid
    n_sub = _substep_count(cfg.scheme, grid, ds)
    dss = ds / n_sub
    if work is None:
        work = _Stepper(grid, state.w.copy(), params.p, "similarity")
    if clamp is None:
        clamp = _clamp_values(params, grid, state.s + np.arange(1, n_sub + 1) * dss)
    w = work.w
    for k in range(n_sub):
        if cfg.scheme == "semi-implicit":
            work.step(dss)
        else:
            k1 = _rk4_rhs(w, grid, params)
            k2 = _rk4_rhs(w + 0.5 * dss * k1, grid, params)
            k3 = _rk4_rhs(w + 0.5 * dss * k2, grid, params)
            k4 = _rk4_rhs(w + dss * k3, grid, params)
            w[...] = w + dss / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        w[work.edge] = clamp[k]
    s = float(state.s + n_sub * dss)
    max_w = _diag.max_part(w)
    if not math.isfinite(max_w) or max_w > 10.0 * params.kappa:
        raise BlowupInSimilarityError(s, max_w)
    return SimilarityState(s=s, grid=grid, w=w)


def _pin(w, grid, params, cut, s, buf) -> np.ndarray:
    """Project chi q, q = w - Phi(s), onto {1, y_j/2} and remove (m0 + sum m_j y_j) chi from w.

    The linearized flow amplifies these modes.  chi is zero for |y| >= 2K sqrt(s),
    so Phi, chi and q (in the flat complex buf) are formed, and w is changed, on
    the box of those rows only.  Returns (m0, m_1..m_n), one component per part.
    """
    rows, chi = _rhs.cutoff_box(cut, grid, s)
    box = (rows,) * grid.n_dim
    phi = grid.radial(lambda y2: _params.phi(params, y2, s), rows)
    q = np.subtract(w[box], phi, out=buf[: phi.size].reshape(phi.shape))
    m0, m1, _ = _spectral.gaussian_moments(grid, q, chi * grid.rho()[box], rows)
    q -= _spectral.mode_field(grid, m0, m1, np.zeros((grid.n_dim, grid.n_dim)), rows) * chi
    np.add(phi, q, out=w[box])
    return np.concatenate(([m0], m1))


def evolve(
    initial: SimilarityState,
    cfg: SolverConfig,
    params: _params.Params,
    observer=None,
) -> _diag.Trajectory:
    """Step from initial.s to cfg.s_end, recording every record_every steps.

    The observer, when given, is called with each appended row of the
    trajectory's records.  Step errors propagate with the failing s attached.
    When pinning is enabled the removal rates (amount removed per unit s,
    averaged since the previous record) ride along on each record; the pin
    (_pin) leaves w as it is beyond the cutoff's support box.  The pin and
    each record's decomposition use cfg.cutoff.  The steps run in place on
    one _Stepper per run and give the same values as step_similarity calls
    on fresh copies; initial is left as it was.
    """
    if not initial.s >= 1.0:
        raise ValueError(f"initial s must be >= 1, got {initial.s}")
    if not cfg.s_end > initial.s:
        raise ValueError(f"s_end={cfg.s_end} must exceed initial s={initial.s}")
    _require_finite(initial.w)
    grid = initial.grid
    traj = _diag.Trajectory(grid=grid)
    n_full = int(math.floor((cfg.s_end - initial.s) / cfg.ds + 1e-9))
    remainder = cfg.s_end - initial.s - n_full * cfg.ds
    # s_at[k] is where step k ends and full step k + 1 starts, exact against
    # accumulation drift: initial.s + k ds, then s_at[n_full] + remainder
    s_at = (initial.s + np.arange(n_full + 1) * cfg.ds).tolist()
    if remainder >= 1e-12 * max(1.0, cfg.s_end):
        s_at.append(s_at[-1] + remainder)
    total_steps = len(s_at) - 1
    pending_snaps = sorted(cfg.snapshot_at)
    removed = np.zeros(1 + grid.n_dim, dtype=np.complex128)  # since the last record
    # the run's stepper; every state of the loop holds its w
    state = SimilarityState(s=initial.s, grid=grid, w=initial.w.copy())
    work = _Stepper(grid, state.w, params.p, "similarity")
    n_sub = _substep_count(cfg.scheme, grid, cfg.ds)
    substeps = np.arange(1, n_sub + 1) * (cfg.ds / n_sub)
    with work:  # a 2-D stepper's helper thread lives as long as the loop
        for k in range(total_steps + 1):
            if k:
                clamp = None  # the remainder step makes its own
                if k <= n_full:
                    j = (k - 1) % cfg.record_every
                    if j == 0:
                        # boundary values of every substep up to the next record
                        starts = np.array(s_at[k - 1 : min(k - 1 + cfg.record_every, n_full)])
                        block = _clamp_values(params, grid, starts[:, None] + substeps)
                    clamp = block[j]
                ds_k = cfg.ds if k <= n_full else remainder
                state = step_similarity(state, cfg, params, ds=ds_k, work=work, clamp=clamp)
                state.s = s_at[k]
                if cfg.pin_unstable_modes:
                    # the deviation goes into the step's scratch, free until the next step
                    scratch = work.block[0].reshape(-1)
                    removed += _pin(state.w, grid, params, cfg.cutoff, state.s, scratch)
            if k % cfg.record_every and k < total_steps:
                continue
            # the removal rate averaged since the previous record (the first has none)
            traj.record(state, params, cfg.cutoff, removed / (state.s - s_rec) if k else removed)
            removed, s_rec = np.zeros_like(removed), state.s
            if observer is not None:
                observer(traj.records[-1])
            while pending_snaps and state.s >= pending_snaps[0] - 1e-9:
                pending_snaps.pop(0)
                traj.snapshots.append((state.s, state.w.copy()))
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


def _physical_step(run: _Stepper, dt: float, edge_vals, mod) -> tuple:
    """One step of d_t u = Lap u + u^p on run.w, the boundary reset to edge_vals; returns
    (argmax i, max|u|) from |u| in mod, NaN or inf when a part of u is or |u| passes
    the largest double."""
    with np.errstate(over="ignore", invalid="ignore"):
        run.step(dt)
        run.w[run.edge] = edge_vals
        np.abs(run.w, out=mod)
    i = int(np.argmax(mod))
    return i, float(mod.flat[i])


def step_physical(state: PhysicalState, dt: float, params: _params.Params) -> PhysicalState:
    """One semi-implicit step of d_t u = Lap u + u^p from state, left as it was.

    Implicit diffusion, explicit reaction, Dirichlet boundary frozen at the
    incoming values.  Raises OverflowError when max|u| is then not finite.
    """
    if not 0.0 < dt < math.inf:
        raise ValueError(f"dt must be positive and finite, got {dt}")
    run = _Stepper(state.grid, state.u.copy(), params.p, "physical")
    if not math.isfinite(_physical_step(run, dt, state.u[run.edge], np.abs(state.u))[1]):
        raise OverflowError(f"max|u| overflowed in a step of {dt:.6g} from t = {state.t:.6g}")
    return PhysicalState(t=state.t + dt, grid=state.grid, u=run.w)


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
) -> _diag.PhysicalTrajectory:
    """Integrate toward blow-up with steps tied to the collapse timescale.

    dt = eta kappa^{p-1} max|u|^{1-p} is held fixed until max|u| grows by
    SHRINK_FACTOR, then refreshed (for p=2 this halves dt every doubling).
    One _Stepper takes every step, and each is recorded, with u at the probes
    (x positions, 1-D grids only, see diagnostics.PhysicalTrajectory); a
    snapshot of u at the probes is kept at the start, whenever max|u| has
    grown by SNAPSHOT_FACTOR, and at the end unless that state was just kept
    or overflowed.  eta must be positive and finite, and
    the trajectory refuses a probe off the grid.  Returns the trajectory, its
    T_estimate fitted by diagnostics.fit_blowup_time to the records up to the
    last peak, and its status naming what ended the run:

    - "blown-up": max|u| reached STOP_GROWTH times the initial amplitude
      (or times 1 when that is below 1), or max|u| became non-finite
      (NaN or inf in u, or |u| past the largest double) in a step, then dropped;
    - "receded": max|u| fell below half its peak after at least doubling;
    - "stalled": max|u| set no new peak for STALL_PATIENCE steps, or the
      MAX_STEPS budget ran out.

    NoBlowupError is raised instead when max|u| decays, or the budget runs
    out, before it doubles, or when too little growth is left to fit T.
    """
    if not 0.0 < eta < math.inf:
        raise ValueError(f"eta must be positive and finite, got {eta}")
    grid = u0.grid
    traj = _diag.PhysicalTrajectory(grid=grid, probes=probes)
    _require_finite(u0.u)
    run = _Stepper(grid, u0.u.copy(), params.p, "physical")
    u, edge_vals, mod = run.w, u0.u[run.edge], np.abs(u0.u)
    i = int(np.argmax(mod))
    m = m0 = float(mod.flat[i])
    if m0 == 0.0:
        raise NoBlowupError("no blow-up detected: initial data is identically zero")
    m_stop = STOP_GROWTH * max(1.0, m0)
    kp = params.kappa ** (params.p - 1)
    t, dt = u0.t, eta * kp * m0 ** (1 - params.p)
    traj.record(t, dt, i, m0, u)
    traj.keep_snapshot(t, u)
    m_ref = m_snap = peak = m0
    steps_since_peak, end = 0, 1
    status = None  # the MAX_STEPS budget ran out
    with run:  # a 2-D stepper's helper thread lives as long as the loop
        for _ in range(MAX_STEPS):
            i, m = _physical_step(run, dt, edge_vals, mod)
            if math.isfinite(m):  # else an overflow: the step is dropped
                t += dt
                traj.record(t, dt, i, m, u)
                if m > peak * (1.0 + 1e-9):
                    peak, steps_since_peak, end = m, 0, len(traj.records)
                else:
                    steps_since_peak += 1
                if m >= m_snap * SNAPSHOT_FACTOR:
                    traj.keep_snapshot(t, u)
                    m_snap = m
            # a collapse that recedes after doubling, which a genuinely decaying
            # solution cannot do, still yields T from its clean growth records
            status = ("blown-up" if not math.isfinite(m) or m >= m_stop
                      else "receded" if m < 0.5 * peak
                      else "stalled" if steps_since_peak >= STALL_PATIENCE else None)
            if status:
                break
            if m >= SHRINK_FACTOR * m_ref:
                m_ref = m
                dt = eta * kp * m_ref ** (1 - params.p)
    if status in (None, "receded") and peak < 2.0 * m0:
        raise NoBlowupError("no blow-up detected: " + (
            f"max|u| fell to {m:.4g} from peak {peak:.4g}" if status else "growth never took off"))
    # u is spoiled after an overflow
    if math.isfinite(m) and traj.snapshots[-1][0] != t:
        traj.keep_snapshot(t, u)
    traj.status = status or "stalled"
    traj.T_estimate = _diag.fit_blowup_time(
        traj.records["t"][:end], traj.records["max_u"][:end], params)
    return traj

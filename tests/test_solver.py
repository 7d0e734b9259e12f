"""Tests for blowlab.solver: similarity and physical integrators."""

import math
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_banded

from blowlab import diagnostics as dg
from blowlab import params as bp
from blowlab import rhs
from blowlab import solver
from blowlab import spectral as sp


def constant_state(pr, grid, s, value1, value2=0.0):
    return solver.SimilarityState(
        s=s, grid=grid, w=np.full(grid.shape, value1 + 1j * value2),
    )


def profile_state(pr, grid, s):
    r2 = grid.radius2()
    return solver.SimilarityState(
        s=s, grid=grid, w=bp.phi(pr, r2, s),
    )


def step_frozen(state, cfg, pr):
    """step_similarity with the boundary frozen at state's incoming edge values.

    The frozen Dirichlet rule of step_physical: every substep resets the edge to
    the values it came in with.  The profile clamp pins Phi1 + i Phi2 there,
    which breaks the exact symmetries and moves the fixed points.
    """
    edge = state.w[solver._edge_mask(state.grid)]
    n_sub = solver._substep_count(cfg.scheme, state.grid, cfg.ds)
    clamp = np.broadcast_to(edge, (n_sub,) + edge.shape)
    return solver.step_similarity(state, cfg, pr, clamp=clamp)


def implicit_diffusion(w, h, dt):
    """Solve (I - dt D2) out = w on a copy of w, written out unsplit.  1-D: the
    boundary values folded into rows 1 and n-2, then one zpttrs call on the LDL^T
    factor.  2-D: one zgttrs call on the whole grid per axis, axis 0 first
    (through a Fortran-order copy)."""
    out = np.array(w, dtype=np.complex128)
    r = dt / (h * h)
    factor = solver._diffusion_factor(w.shape[0], r, out.ndim)
    if out.ndim == 1:
        d, e, _ = factor
        parts = out.view(np.float64).reshape(out.shape + (2,))
        parts[1] += r * parts[0]
        parts[-2] += r * parts[-1]
        sp.lapack.zpttrs(d, e, out, overwrite_b=1)
        return out
    fbuf = np.asfortranarray(out)
    sp.lapack.zgttrs(*factor, fbuf, overwrite_b=1)
    out[...] = fbuf
    sp.lapack.zgttrs(*factor, out.T, overwrite_b=1)
    return out


def drift_step(grid, vals, dt):
    """vals - dt (y/2).grad vals of the real view vals, written out unsplit in the fused
    kernel's operation order: the weights g = dt |y|/(4h) per interior axis node, then
    keep vals with keep = 1 - 3 (g summed over the axes), then per axis, side and
    neighbour toward the origin (near, far) the neighbour times its weight 4g or -g."""
    ax = grid.axis()
    g = dt / (4.0 * grid.h) * np.abs(ax)
    g[[0, -1]] = 0.0
    diag = np.add.outer(g, g) if grid.n_dim == 2 else g
    out = (1.0 - 3.0 * diag)[..., None] * vals
    k = int(np.count_nonzero(ax[1:-2] < 0.0))
    for axis in range(grid.n_dim):
        m, o = np.moveaxis(vals, axis, 0), np.moveaxis(out, axis, 0)
        near, far = ((c * g).reshape((-1,) + (1,) * grid.n_dim) for c in (4.0, -1.0))
        o[1 : k + 1] += near[1 : k + 1] * m[2 : k + 2]
        o[1 : k + 1] += far[1 : k + 1] * m[3 : k + 3]
        o[k + 1 : -1] += near[k + 1 : -1] * m[k:-2]
        o[k + 1 : -1] += far[k + 1 : -1] * m[k - 1 : -3]
    return out


def bits(w):
    """The bit patterns of w; np.array_equal counts -0 and +0 as equal."""
    return np.ascontiguousarray(w).view(np.uint64)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            solver.SolverConfig(ds=-0.01, s_end=30.0)
        with pytest.raises(ValueError):
            solver.SolverConfig(ds=0.02, s_end=30.0)  # semi-implicit cap
        solver.SolverConfig(ds=0.02, s_end=30.0, scheme="explicit-rk4")
        with pytest.raises(ValueError):
            solver.SolverConfig(ds=0.01, s_end=30.0, scheme="imex")
        with pytest.raises(ValueError):
            solver.SolverConfig(ds=0.01, s_end=30.0, record_every=0)
        # NaN and inf pass a "> 0" test; evolve then fails to count the steps
        for scheme in solver.SCHEMES:
            for field, value in (("ds", math.inf), ("ds", math.nan),
                                 ("s_end", math.inf), ("s_end", -math.inf), ("s_end", math.nan)):
                kw = {"ds": 5e-3, "s_end": 26.0, "scheme": scheme, field: value}
                with pytest.raises(ValueError, match=f"^{field} must be .*finite"):
                    solver.SolverConfig(**kw)

    @pytest.mark.parametrize("scheme", solver.SCHEMES)
    @pytest.mark.parametrize("field", ["ds", "s_end", "record_every"])
    def test_booleans_refused(self, field, scheme):
        # a bool is an int: record_every=True would record every step and
        # ds=True would run as ds = 1 under explicit-rk4
        kw = {"ds": 5e-3, "s_end": 26.0, "scheme": scheme, field: True}
        with pytest.raises(ValueError, match=f"^{field} must be .*got True"):
            solver.SolverConfig(**kw)

    def test_substep_count_frozen(self):
        cfg = solver.SolverConfig(ds=0.01, s_end=30.0)
        grid = sp.Grid(1, 80.0, 801)  # h = 0.2, drift CFL = 2.0
        assert solver._substep_count(cfg.scheme, grid, 0.01) == 3


class TestFixedPoints:
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_constant_solutions_stationary(self, p):
        # each rotation kappa e^{2 pi i k/(p-1)} is a fixed point
        pr = bp.make_params(p, 1)
        grid = sp.Grid(1, 8.0, 33)
        cfg = solver.SolverConfig(ds=0.01, s_end=11.0)
        for k in range(p - 1):
            theta = 2.0 * math.pi * k / (p - 1)
            st = constant_state(
                pr, grid, 10.0, pr.kappa * math.cos(theta), pr.kappa * math.sin(theta)
            )
            st2 = step_frozen(st, cfg, pr)
            assert np.max(np.abs(st2.w.real - st.w.real)) < 1e-12
            assert np.max(np.abs(st2.w.imag - st.w.imag)) < 1e-12

    def test_zero_stays_zero(self):
        pr = bp.make_params(2, 1)
        grid = sp.Grid(1, 8.0, 33)
        cfg = solver.SolverConfig(ds=0.01, s_end=11.0)
        st = constant_state(pr, grid, 10.0, 0.0)
        st2 = step_frozen(st, cfg, pr)
        assert np.all(st2.w.real == 0.0)
        assert np.all(st2.w.imag == 0.0)

    @pytest.mark.parametrize("n_dim,npts", [(1, 401), (2, 65)])
    def test_profile_state_drift_bounded_by_rest_term(self, n_dim, npts):
        # stepping from Phi moves by about ds * ||R||, the equation residual
        pr = bp.make_params(2, n_dim)
        grid = sp.Grid(n_dim, 20.0 if n_dim == 1 else 12.0, npts)
        s = 30.0
        cfg = solver.SolverConfig(ds=0.005, s_end=31.0)
        st = profile_state(pr, grid, s)
        st2 = solver.step_similarity(st, cfg, pr)
        r1, r2v = rhs.rest_r(pr, grid.radius2(), s)
        rest_sup = max(np.max(np.abs(r1)), np.max(np.abs(r2v)))
        pair = bp.phi(pr, grid.radius2(), st2.s)
        drift1 = np.max(np.abs(st2.w.real - pair.real))
        drift2 = np.max(np.abs(st2.w.imag - pair.imag))
        assert max(drift1, drift2) < 2.0 * cfg.ds * rest_sup + 1e-11
        # and the rest term itself obeys the C/s ordering this bound relies on
        assert rest_sup < 5.0 / s

    def test_real_subspace_preserved(self):
        pr = bp.make_params(3, 1)
        grid = sp.Grid(1, 10.0, 101)
        cfg = solver.SolverConfig(ds=0.01, s_end=26.0)
        r2 = grid.radius2()
        st = solver.SimilarityState(
            s=25.0, grid=grid, w=bp.phi(pr, r2, 25.0).real + 0j,
        )
        for _ in range(50):
            st = step_frozen(st, cfg, pr)
        assert np.all(st.w.imag == 0.0)


class TestKernels:
    @pytest.mark.parametrize(
        "n_dim,half_width,npts",
        [(1, 4.0, 33), (2, 4.0, 17), (1, 87.4, 4097), (2, 24.0, 65)],
        ids=["1-33", "2-17", "1-87.4-4097", "2-24.0-65"],
    )
    def test_upwind_matches_pointwise_stencil(self, n_dim, half_width, npts):
        # one explicit drift step at drift CFL 0.9 on a real view whose trailing axis
        # holds the two components: the kernel, half by half, on the stepper's halves and
        # on halves split off the row where the stencil changes side (each half fills its
        # rows), equals the written-out fused order bit for bit.  The node-by-node upwind
        # stencil v - dt (y/2) d, d divided by 2h, is an independent oracle: the fused
        # weights fold -dt (y/2)/(2h) in and round otherwise, so it is met within 6 eps
        # times the sum of the magnitudes of the node's terms (at most 2.5 measured)
        grid = sp.Grid(n_dim, half_width, npts)
        rng = np.random.default_rng(1)
        w = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
        vals = solver._real(w)
        dt = 0.9 * 2.0 * grid.h / half_width
        ax, h = grid.axis(), grid.h
        want, scale = vals.copy(), np.abs(vals)
        for idx in np.ndindex(grid.shape):
            for axis in range(n_dim):
                i = idx[axis]
                if i in (0, npts - 1):
                    continue

                def at(j):
                    return vals[idx[:axis] + (j,) + idx[axis + 1:]]

                side = 1 if ax[i] < 0.0 else -1  # the neighbours toward the origin
                d = side * (-3.0 * at(i) + 4.0 * at(i + side) - at(i + 2 * side)) / (2.0 * h)
                want[idx] -= dt * (0.5 * ax[i] * d)
                scale[idx] += dt * abs(ax[i]) / (4.0 * h) * (
                    3.0 * abs(at(i)) + 4.0 * abs(at(i + side)) + abs(at(i + 2 * side)))
        got = drift_step(grid, vals, dt)
        assert np.all(np.abs(got - want) <= 6.0 * np.finfo(float).eps * scale)
        run = solver._Stepper(grid, w, 2, "similarity")
        run._weigh(dt)
        keep = solver._real(run.block[2])
        for halves in (run.halves, (slice(0, 3), slice(3, npts))):
            work = np.stack([np.full(vals.shape, np.nan), np.full(vals.shape, np.nan), keep])
            coef, per_half = solver._stencil_terms(grid, vals, work, halves)
            coef[...] = run.coef
            for half in per_half:
                solver._stencil(*half)
            assert np.array_equal(bits(work[0]), bits(got))

    def test_implicit_diffusion_matches_banded_reference(self):
        # the written-out solve and the kernel on halves against one banded LU
        # solve per axis on the real view: bit for bit in 2-D, where both are
        # LU; within 8 (1 + 4r) eps max|want| in 1-D, where the LDL^T factor of
        # the folded matrix is another factorization.  Both 1-D boundary nodes
        # come back bit for bit
        def banded_reference(w, h, dt):
            r = dt / (h * h)
            npts = w.shape[0]
            ab = np.zeros((3, npts))
            ab[0, 2:] = -r
            ab[1, :] = 1.0 + 2.0 * r
            ab[1, 0] = ab[1, -1] = 1.0
            ab[2, :-2] = -r
            out = w.view(np.float64).reshape(w.shape + (2,))
            for axis in range(w.ndim):
                moved = np.moveaxis(out, axis, 0)
                solved = solve_banded((1, 1), ab, moved.reshape(npts, -1))
                out = np.moveaxis(solved.reshape(moved.shape), 0, axis)
            return np.ascontiguousarray(out).view(np.complex128)[..., 0]

        rng = np.random.default_rng(7)
        # r = 110 is about the physical collapse's first dt/h^2 on 7201 points
        cases = [(1, 7201, 1e-3), (1, 7201, 0.05), (1, 7201, 3.7), (1, 7201, 110.0),
                 (1, 7201, 1e3), (1, 4097, 110.0), (2, 257, 0.4)]
        for n_dim, npts, r in cases:
            grid = sp.Grid(n_dim, 3.0, npts)
            w = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
            before = w.copy()
            dt = r * grid.h**2
            want = banded_reference(w, grid.h, dt)
            got = implicit_diffusion(w, grid.h, dt)
            if n_dim == 2:
                assert np.array_equal(got, want)
            else:
                rr = dt / (grid.h * grid.h)
                bound = 8.0 * (1.0 + 4.0 * rr) * np.finfo(float).eps * np.max(np.abs(want))
                assert np.max(np.abs(got - want)) <= bound, (r, np.max(np.abs(got - want)))
                assert np.array_equal(bits(got[[0, -1]]), bits(w[[0, -1]]))
            assert got.flags.c_contiguous
            assert np.array_equal(w, before)
            # the kernel: axis by axis, on the stepper's halves in turn
            run = solver._Stepper(grid, w.copy(), 2, "physical")
            factor = solver._diffusion_factor(npts, dt / run.h2, n_dim)
            for axis in range(n_dim):
                for rows in run.halves:
                    solver._diffuse_in_place(run.w, factor, run.block[0].T, axis, rows)
            assert np.array_equal(bits(run.w), bits(got))

    @pytest.mark.parametrize("frame", ["similarity", "physical"])
    @pytest.mark.parametrize("n_dim", [1, 2])
    def test_stepper_factors_again_when_dt_changes(self, frame, n_dim):
        # one stepper stepped at dt1, dt2, dt1 gives, bit for bit, what a fresh
        # stepper gives for each of those steps, so no factor of another dt is reused;
        # in the similarity frame its drift weights (neighbours and keep) are those of
        # the step's dt, as a fresh stepper builds them
        pr = bp.make_params(3, n_dim)
        grid = symmetry_grid(n_dim)
        run = solver._Stepper(grid, random_field(grid, 5, pr.kappa), pr.p, frame)
        weights = {}
        for dt in (1e-3, 4e-3, 1e-3):
            fresh = solver._Stepper(grid, run.w.copy(), pr.p, frame)
            fresh.step(dt)
            run.step(dt)
            assert np.array_equal(run.w, fresh.w)
            if frame == "similarity":
                assert np.array_equal(bits(run.coef), bits(fresh.coef))
                assert np.array_equal(bits(run.block[2]), bits(fresh.block[2]))
                weights.setdefault(dt, bits(run.block[2]).copy())
        if frame == "similarity":
            assert not np.array_equal(weights[1e-3], weights[4e-3])
            assert np.array_equal(bits(run.block[2]), weights[1e-3])

    @pytest.mark.parametrize(
        "scheme,n_dim,p,half_width,npts",
        [("semi-implicit", 1, 2, 87.4, 4097), ("semi-implicit", 1, 3, 87.4, 4097),
         ("semi-implicit", 2, 2, 24.0, 65), ("semi-implicit", 2, 3, 24.0, 65),
         ("semi-implicit", 2, 3, 87.5, 257), ("explicit-rk4", 1, 2, 8.0, 129)],
    )
    def test_step_similarity_matches_reference_substep(
        self, scheme, n_dim, p, half_width, npts
    ):
        # bit for bit the substep sequence written out unsplit: diffusion solve,
        # drift step on the real view, reaction u (1 - dt/(p-1) + dt u^(p-1)) (or one
        # RK4 stage set), then the boundary values of that substep's s; the incoming
        # state is left as it
        # was.  The step runs on a default stepper, halves one after the other,
        # and on one entered as a context, whose helper thread takes half of
        # each phase in 2-D (the 257 grid is the 2-D sweep cell's)
        def reference_step(state, cfg, pr, ds):
            grid = state.grid
            n_sub = solver._substep_count(cfg.scheme, grid, ds)
            dss = ds / n_sub
            edge = solver._edge_mask(grid)
            r2_edge = grid.radius2()[edge]
            w = state.w
            for k in range(n_sub):
                if cfg.scheme == "semi-implicit":
                    w = implicit_diffusion(w, grid.h, dss)
                    u = solver._complex(drift_step(grid, solver._real(w), dss))
                    # named: with a temporary, numpy takes the product as factor * u,
                    # and a complex product's last bit depends on the order
                    factor = dss * u ** (pr.p - 1) + (1.0 - dss / (pr.p - 1))
                    w = u * factor
                else:
                    k1 = solver._rk4_rhs(w, grid, pr)
                    k2 = solver._rk4_rhs(w + 0.5 * dss * k1, grid, pr)
                    k3 = solver._rk4_rhs(w + 0.5 * dss * k2, grid, pr)
                    k4 = solver._rk4_rhs(w + dss * k3, grid, pr)
                    w = w + dss / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
                s_next = state.s + (k + 1) * dss
                w[edge] = bp.phi(pr, r2_edge, s_next)
            return s_next, n_sub, w

        pr = bp.make_params(p, n_dim)
        grid = sp.Grid(n_dim, half_width, npts)
        rng = np.random.default_rng(11)
        noise = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
        state = profile_state(pr, grid, 25.0)
        state = solver.SimilarityState(s=25.0, grid=grid, w=state.w + 1e-3 * noise)
        before = state.w.copy()
        cfg = solver.SolverConfig(ds=0.005, s_end=30.0, scheme=scheme)
        s_want, n_sub, w_want = reference_step(state, cfg, pr, cfg.ds)
        if npts == 4097:
            assert n_sub == 6
        got = solver.step_similarity(state, cfg, pr)
        assert got.s == s_want
        assert np.array_equal(bits(got.w), bits(w_want))
        with solver._Stepper(grid, state.w.copy(), pr.p, "similarity") as work:
            assert (work.helper is not None) == (n_dim == 2)
            got = solver.step_similarity(state, cfg, pr, work=work)
        assert np.array_equal(bits(got.w), bits(w_want))
        assert np.array_equal(state.w, before)

    @pytest.mark.parametrize("frame", ["similarity", "physical"])
    @pytest.mark.parametrize("npts", [17, 65, 257])
    def test_helper_thread_matches_inline_halves(self, frame, npts):
        # 20 steps of a 2-D stepper whose helper thread takes half of each phase
        # give the bits of the same steps with both halves on this thread; a
        # short switch interval interleaves the two threads as finely as it can
        pr = bp.make_params(3, 2)
        grid = sp.Grid(2, 8.0, npts)
        w0 = random_field(grid, 9, pr.kappa)
        inline = solver._Stepper(grid, w0.copy(), pr.p, frame)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with solver._Stepper(grid, w0.copy(), pr.p, frame) as threaded:
                assert threaded.helper is not None
                for _ in range(20):
                    for run in (inline, threaded):
                        run.step(1e-3)
                        run.w[run.edge] = w0[run.edge]
        finally:
            sys.setswitchinterval(interval)
        assert threaded.helper is None
        assert np.array_equal(bits(threaded.w), bits(inline.w))

    @pytest.mark.parametrize("n_dim", [1, 2])
    def test_grid_geometry_is_shared_and_read_only(self, n_dim):
        a, b = sp.Grid(n_dim, 6.0, 33), sp.Grid(n_dim, 6.0, 33)
        for get in (lambda g: g.axis(), lambda g: g.radius2(), lambda g: g.rho(),
                    solver._edge_mask):
            arr = get(a)
            assert np.array_equal(arr, get(b))
            with pytest.raises(ValueError):
                arr[0] = arr[1]


class TestEvolve:
    def test_preconditions(self):
        pr = bp.make_params(2, 1)
        grid = sp.Grid(1, 8.0, 33)
        cfg = solver.SolverConfig(ds=0.01, s_end=11.0)
        with pytest.raises(ValueError):
            solver.evolve(constant_state(pr, grid, 0.5, pr.kappa), cfg, pr)
        with pytest.raises(ValueError):
            solver.evolve(constant_state(pr, grid, 12.0, pr.kappa), cfg, pr)

    def test_non_finite_state_refused(self):
        pr = bp.make_params(2, 1)
        grid = sp.Grid(1, 8.0, 33)
        state = constant_state(pr, grid, 25.0, pr.kappa)
        state.w[5] = math.nan
        with pytest.raises(ValueError, match="^state values must be finite$"):
            solver.evolve(state, solver.SolverConfig(ds=0.01, s_end=25.1), pr)
        u0 = solver.PhysicalState(t=0.0, grid=grid, u=state.w)
        with pytest.raises(ValueError, match="^state values must be finite$"):
            solver.run_physical_blowup(u0, pr)

    def test_state_of_the_wrong_shape_refused(self):
        grid = sp.Grid(1, 8.0, 33)
        with pytest.raises(ValueError, match="does not match grid"):
            solver.SimilarityState(s=25.0, grid=grid, w=np.ones(32))

    def test_helper_thread_lives_as_long_as_the_run(self):
        # a 2-D run's helper thread is alive while it steps and gone once it
        # returns or raises, so a process forked afterwards inherits no thread
        pr = bp.make_params(2, 2)
        grid = sp.Grid(2, 8.0, 33)
        before = threading.active_count()
        seen = []

        def count(_):
            seen.append(threading.active_count())

        cfg = solver.SolverConfig(ds=0.005, s_end=25.05, record_every=2)
        solver.evolve(profile_state(pr, grid, 25.0), cfg, pr, observer=count)
        assert seen[0] == before and max(seen) == before + 1
        assert threading.active_count() == before
        # from 9 kappa the reaction takes max|w| past the 10 kappa guard on the
        # third step, after two records
        seen.clear()
        cfg = solver.SolverConfig(ds=0.005, s_end=26.0, record_every=1)
        with pytest.raises(solver.BlowupInSimilarityError):
            solver.evolve(constant_state(pr, grid, 25.0, 9.0 * pr.kappa), cfg, pr, observer=count)
        assert seen == [before, before + 1, before + 1]
        assert threading.active_count() == before

    def test_constant_run_records_identical(self):
        # kappa is a fixed point: under the frozen edge it does not drift over the
        # 1,000 steps of s 10 -> 20, checked every 200 steps (the profile clamp
        # of evolve would pull the edge off kappa)
        pr = bp.make_params(2, 1)
        grid = sp.Grid(1, 8.0, 33)
        cfg = solver.SolverConfig(ds=0.01, s_end=20.0)
        st = constant_state(pr, grid, 10.0, pr.kappa)
        for k in range(1, 1001):
            st = step_frozen(st, cfg, pr)
            if k % 200 == 0:
                assert np.max(np.abs(st.w.real - pr.kappa)) < 1e-11
                assert np.max(np.abs(st.w.imag)) < 1e-11
        assert st.s == pytest.approx(20.0, abs=1e-9)

    def test_observer_and_monotone_s(self):
        pr = bp.make_params(2, 1)
        grid = sp.Grid(1, 8.0, 33)
        cfg = solver.SolverConfig(ds=0.01, s_end=10.3, record_every=10)
        seen = []
        traj = solver.evolve(constant_state(pr, grid, 10.0, pr.kappa), cfg, pr, observer=seen.append)
        assert np.array_equal(np.array(seen), traj.records)
        s_vals = traj.records["s"]
        assert np.all(np.diff(s_vals) > 0)
        assert s_vals[-1] == pytest.approx(10.3, abs=1e-12)
        assert all(np.all(r["removal_rate"][0] == 0.0) for r in traj.records)

    def test_first_order_in_ds(self):
        pr = bp.make_params(2, 1)
        grid = sp.Grid(1, 10.0, 201)
        r2 = grid.radius2()
        bump = 0.01 * np.exp(-r2 / 4.0)
        s0, s1 = 20.0, 20.5

        def final_w1(ds):
            cfg = solver.SolverConfig(ds=ds, s_end=s1)
            st = solver.SimilarityState(
                s=s0, grid=grid, w=bp.phi(pr, r2, s0) + bump,
            )
            n = round((s1 - s0) / ds)
            for _ in range(n):
                st = solver.step_similarity(st, cfg, pr)
            return st.w.real

        # compare against the ds -> 0 limit proxy at the finest step
        e1 = np.max(np.abs(final_w1(5e-3) - final_w1(1.25e-3)))
        e2 = np.max(np.abs(final_w1(2.5e-3) - final_w1(1.25e-3)))
        ratio = e1 / e2
        assert 2.2 < ratio < 4.5  # (e + e/2)/(e/2) = 3 for clean first order

    def test_second_order_in_h(self):
        pr = bp.make_params(2, 1)
        s0, s1 = 20.0, 20.05
        L = 10.0

        def final_w1(npts):
            grid = sp.Grid(1, L, npts)
            r2 = grid.radius2()
            cfg = solver.SolverConfig(ds=2.5e-4, s_end=s1)
            st = solver.SimilarityState(
                s=s0, grid=grid,
                w=bp.phi(pr, r2, s0) + 0.01 * np.exp(-r2 / 4.0),
            )
            for _ in range(round((s1 - s0) / 2.5e-4)):
                st = solver.step_similarity(st, cfg, pr)
            return st.w.real

        coarse, mid, fine = final_w1(101), final_w1(201), final_w1(401)
        e_coarse = np.max(np.abs(coarse - mid[::2]))
        e_mid = np.max(np.abs(mid - fine[::2]))
        assert e_coarse / e_mid == pytest.approx(4.0, rel=0.5)

    def test_blowup_guard_attaches_s(self):
        pr = bp.make_params(2, 1)
        grid = sp.Grid(1, 8.0, 33)
        cfg = solver.SolverConfig(ds=0.01, s_end=15.0)
        st = constant_state(pr, grid, 10.0, 5.0 * pr.kappa)
        with pytest.raises(solver.BlowupInSimilarityError) as err:
            solver.evolve(st, cfg, pr)
        assert 10.0 < err.value.s <= 15.0
        assert err.value.max_w > 10.0 * pr.kappa

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("part", ["w1", "w2"])
    @pytest.mark.parametrize("n_dim", [1, 2])
    def test_blowup_guard_refuses_non_finite_values(self, bad, part, n_dim):
        # max|w| is read as max(max, -min) of the parts: a NaN or an infinity of
        # either sign in either part of one interior node still trips the guard
        pr = bp.make_params(2, n_dim)
        grid = sp.Grid(n_dim, 8.0, 33)
        st = profile_state(pr, grid, 25.0)
        node = (16,) * n_dim
        w1, w2 = st.w[node].real, st.w[node].imag
        st.w[node] = complex(bad, w2) if part == "w1" else complex(w1, bad)
        cfg = solver.SolverConfig(ds=0.005, s_end=26.0)
        with np.errstate(all="ignore"):
            with pytest.raises(solver.BlowupInSimilarityError) as err:
                solver.step_similarity(st, cfg, pr)
        assert not math.isfinite(err.value.max_w)

    def test_rk4_agrees_with_semi_implicit(self):
        pr = bp.make_params(2, 1)
        grid = sp.Grid(1, 10.0, 201)
        r2 = grid.radius2()
        s0, s1 = 20.0, 20.2

        def run(scheme):
            cfg = solver.SolverConfig(ds=5e-3, s_end=s1, scheme=scheme)
            st = solver.SimilarityState(
                s=s0, grid=grid,
                w=bp.phi(pr, r2, s0) + 0.01 * np.exp(-r2 / 4.0),
            )
            for _ in range(round((s1 - s0) / 5e-3)):
                st = solver.step_similarity(st, cfg, pr)
            return st

        a, b = run("semi-implicit"), run("explicit-rk4")
        assert np.max(np.abs(a.w.real - b.w.real)) < 1e-3
        assert np.max(np.abs(a.w.imag - b.w.imag)) < 1e-3

    @staticmethod
    def replay(initial, cfg, pr):
        """evolve's record rows and snapshots rebuilt from one step_similarity call per step.

        Step k ends at s = initial.s + k ds (the remainder step at s_end), where the
        pin removes the expanding content with the profile at that s; every
        record_every steps and at the end the state is recorded with the removal
        rate averaged since the previous record, and a snapshot is kept at the
        first record at or past each snapshot_at value.
        """
        grid = initial.grid
        r2 = grid.radius2()
        rho = np.exp(-r2 / 4.0) / (4.0 * math.pi) ** (grid.n_dim / 2.0)
        n_full = int(math.floor((cfg.s_end - initial.s) / cfg.ds + 1e-9))
        remainder = cfg.s_end - initial.s - n_full * cfg.ds
        steps = [cfg.ds] * n_full + ([remainder] if remainder >= 1e-12 * cfg.s_end else [])
        pending = sorted(cfg.snapshot_at)
        traj, snapshots = dg.Trajectory(grid=grid), []
        removed, s_rec = np.zeros(1 + grid.n_dim, dtype=complex), initial.s

        def record(state):
            nonlocal removed, s_rec
            span = state.s - s_rec
            rate = removed / span if span > 0 else np.zeros_like(removed)
            traj.record(state, pr, cfg.cutoff, rate)
            removed, s_rec = np.zeros_like(removed), state.s
            while pending and state.s >= pending[0] - 1e-9:
                pending.pop(0)
                snapshots.append((state.s, state.w.copy()))

        state = initial
        record(state)
        for k, ds in enumerate(steps, start=1):
            state = solver.step_similarity(state, cfg, pr, ds=ds)
            s = initial.s + min(k, n_full) * cfg.ds + (remainder if k > n_full else 0.0)
            w = state.w.copy()
            if cfg.pin_unstable_modes:
                # chi is zero for |y| >= 2K sqrt(s): the pin works on the box of axis
                # nodes inside that radius on every axis and leaves w as it is beyond
                inside = np.nonzero(np.abs(grid.axis()) < 2.0 * cfg.cutoff.K * math.sqrt(s))[0]
                rows = slice(inside[0], inside[-1] + 1)
                box = (rows,) * grid.n_dim
                phi = bp.phi(pr, r2[box], s)
                chi = rhs.cutoff_chi(cfg.cutoff, r2[box], s)
                q = w[box] - phi
                m0, m1, _ = sp.gaussian_moments(grid, q, chi * rho[box], rows)
                correction = m0
                for m, y in zip(m1, grid.meshes(rows)):
                    correction = correction + m * y
                w[box] = phi + (q - correction * chi)
                removed = removed + np.concatenate(([m0], m1))
            state = solver.SimilarityState(s=s, grid=grid, w=w)
            if k % cfg.record_every == 0 or k == len(steps):
                record(state)
        return traj.records, snapshots

    @pytest.mark.parametrize(
        "case", ["p2-1d-substeps-remainder", "p3-2d", "p3-unpinned", "rk4", "snapshots",
                 "box-1d", "box-2d", "remainder-starts-block"]
    )
    def test_evolve_matches_step_similarity_replay(self, case):
        # the run loop is bit for bit a sequence of step_similarity calls, each
        # followed by the pin at the step's exact s: every record and snapshot.
        # With L < 2K sqrt(s) the pin's box is the whole grid; the box cases
        # reach past it
        p, n_dim, half_width, npts = 2, 1, 24.0, 2049
        kw = {"ds": 0.01, "s_end": 25.255, "pin_unstable_modes": True, "record_every": 10}
        if case in ("p3-2d", "box-2d"):
            p, n_dim, npts = 3, 2, 65
            kw.update(ds=0.005, s_end=25.1, record_every=5)
            if case == "box-2d":
                half_width = 60.0
                kw.update(snapshot_at=(25.05, 25.1))
        elif case == "box-1d":
            half_width, npts = 87.5, 513
            kw.update(snapshot_at=(25.1, 25.255))
        elif case == "p3-unpinned":
            p, npts = 3, 257
            kw.update(s_end=25.3, pin_unstable_modes=False)
        elif case == "rk4":
            half_width, npts = 8.0, 129
            kw.update(scheme="explicit-rk4", s_end=25.13, record_every=4)
        elif case == "remainder-starts-block":
            # n_full = 20 = 2 record_every: the remainder step starts a record block
            npts = 257
            kw.update(s_end=25.205)
        elif case == "snapshots":
            npts = 257
            kw.update(s_end=25.5, record_every=7, snapshot_at=(25.0, 25.2, 25.31, 25.5, 26.0))
        pr = bp.make_params(p, n_dim)
        grid = sp.Grid(n_dim, half_width, npts)
        cfg = solver.SolverConfig(**kw)
        cut = rhs.CutoffSpec(K=5.0)
        idp = rhs.InitialDataParams(
            A=10.0, s0=25.0, p1=0.5, d1_const=0.3, d1_lin=[0.2] * n_dim,
            d2_const=-0.4, d2_lin=[0.1] * n_dim, n_dim=n_dim,
        )
        initial = solver.similarity_initial_state(pr, idp, cut, grid)
        if case == "p2-1d-substeps-remainder":
            assert solver._substep_count(cfg.scheme, grid, cfg.ds) == 6
        if case == "remainder-starts-block":
            assert int(math.floor((cfg.s_end - 25.0) / cfg.ds + 1e-9)) == 20
        assert (half_width > 2.0 * cut.K * math.sqrt(cfg.s_end)) == case.startswith("box")
        before = initial.w.copy()
        traj = solver.evolve(initial, cfg, pr)
        assert np.array_equal(initial.w, before)
        records, snapshots = self.replay(initial, cfg, pr)
        assert len(traj.records) == len(records)
        assert traj.records[-1]["s"] == cfg.s_end
        assert np.array_equal(traj.records, records)
        assert len(traj.snapshots) == len(snapshots)
        assert len(snapshots) == {"snapshots": 4, "box-1d": 2, "box-2d": 2}.get(case, 0)
        for (s_got, w_got), (s_want, w_want) in zip(traj.snapshots, snapshots):
            assert s_got == s_want
            assert np.array_equal(w_got, w_want)


class TestPin:
    @staticmethod
    def full_grid_pin(w, grid, pr, cut, s):
        """(Phi, chi, q, moments) of the pin written on the whole grid, q = w - Phi."""
        r2 = grid.radius2()
        phi, chi = bp.phi(pr, r2, s), rhs.cutoff_chi(cut, r2, s)
        q = w - phi
        rho = np.exp(-r2 / 4.0) / (4.0 * math.pi) ** (grid.n_dim / 2.0)
        m0, m1, _ = sp.gaussian_moments(grid, q, chi * rho)
        return phi, chi, q, np.concatenate(([m0], m1))

    @pytest.mark.parametrize("n_dim,npts", [(1, 513), (2, 129)])
    @pytest.mark.parametrize("half_width", [24.0, 87.5])
    @pytest.mark.parametrize("s,seed", [(25.0, 1), (30.7, 2)])
    def test_box_pin_matches_full_grid_pin(self, n_dim, npts, half_width, s, seed):
        # inside the box w <- Phi + (q - c chi) as on the whole grid, with moments
        # that agree to roundoff; beyond it, where chi = 0, w is left as it was.  A
        # grid inside 2K sqrt(s) is all box, and the pin is the full-grid one
        pr, cut = bp.make_params(3, n_dim), rhs.CutoffSpec(K=5.0)
        grid = sp.Grid(n_dim, half_width, npts)
        rng = np.random.default_rng(seed)
        w = 0.3 * (rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape))
        w += bp.phi(pr, grid.radius2(), s)
        got = w.copy()
        removed = solver._pin(got, grid, pr, cut, s, np.empty(w.size, dtype=complex))
        phi, chi, q, want = self.full_grid_pin(w, grid, pr, cut, s)
        assert np.max(np.abs(removed - want)) <= 1e-13 * np.max(np.abs(want))
        correction = removed[0]
        for m, y in zip(removed[1:], grid.meshes()):
            correction = correction + m * y
        ref = phi + (q - correction * chi)
        inside = np.abs(grid.axis()) < 2.0 * cut.K * math.sqrt(s)
        box = inside if n_dim == 1 else inside[:, None] & inside[None, :]
        assert np.array_equal(got[box], ref[box])
        assert np.array_equal(got[~box], w[~box])
        assert np.all(chi[~box] == 0.0)
        if half_width <= 2.0 * cut.K * math.sqrt(s):
            assert np.all(box)
            correction = want[0]
            for m, y in zip(want[1:], grid.meshes()):
                correction = correction + m * y
            assert np.array_equal(removed, want)
            assert np.array_equal(got, phi + (q - correction * chi))
        else:
            assert not np.all(box)

    @pytest.mark.parametrize("n_dim,npts,half_width", [(1, 513, 87.5), (1, 4097, 87.4),
                                                       (2, 129, 24.0), (2, 257, 87.5)])
    @pytest.mark.parametrize("s", [25.0, 26.0, 30.7])
    def test_pin_matches_its_formula_on_the_box(self, n_dim, npts, half_width, s):
        # bit for bit the pin as written on the box, every profile formed node by node:
        # chi and Phi at radius2() on the box, the moments against chi rho, then
        # w <- Phi + (q - (m0 + m.y) chi); beyond the box w is left as it was.  The
        # pin reads chi and Phi through the grid's radial table
        pr, cut = bp.make_params(3, n_dim), rhs.CutoffSpec(K=5.0)
        grid = sp.Grid(n_dim, half_width, npts)
        rng = np.random.default_rng(5)
        w = 0.3 * (rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape))
        w += bp.phi(pr, grid.radius2(), s)
        got = w.copy()
        removed = solver._pin(got, grid, pr, cut, s, np.empty(w.size, dtype=complex))
        rows = grid.rows_within(2.0 * cut.K * math.sqrt(s))
        box = (rows,) * n_dim
        r2 = grid.radius2()[box]
        chi, phi = rhs.cutoff_chi(cut, r2, s), bp.phi(pr, r2, s)
        q = w[box] - phi
        m0, m1, _ = sp.gaussian_moments(grid, q, chi * grid.rho()[box], rows)
        correction = m0
        for m, y in zip(m1, grid.meshes(rows)):
            correction = correction + m * y
        q -= correction * chi
        want = w.copy()
        want[box] = phi + q
        assert np.array_equal(bits(removed), bits(np.concatenate(([m0], m1))))
        assert np.array_equal(bits(got), bits(want))

    @pytest.mark.parametrize("n_dim,npts", [(1, 513), (2, 65)])
    def test_full_grid_profiles_only_on_records(self, monkeypatch, n_dim, npts):
        # Phi and chi are read through the grid's radial table, once per distinct |y|^2:
        # the pin and each record's decomposition on the table's entries up to the
        # corner of chi's support box, a record's Phi on the whole table, once per
        # record (the initial one included).  Apart from the clamp's boundary values,
        # neither is formed node by node
        pr, cut = bp.make_params(2, n_dim), rhs.CutoffSpec(K=5.0)
        grid = sp.Grid(n_dim, 87.5, npts)
        idp = rhs.InitialDataParams(A=10.0, s0=25.0, p1=0.5, d1_const=0.3, n_dim=n_dim)
        initial = solver.similarity_initial_state(pr, idp, cut, grid)
        cfg = solver.SolverConfig(ds=0.01, s_end=25.1, pin_unstable_modes=True, record_every=3)
        table = grid.radial_table()[0]
        edges = np.count_nonzero(solver._edge_mask(grid))
        full = {"phi": 0, "chi": 0}
        node_by_node = []

        def counting(fn, name):
            def wrapped(first, y2, s):
                if np.shares_memory(y2, table):
                    full[name] += np.shape(y2) == table.shape
                elif np.shape(y2) != (edges,):
                    node_by_node.append((name, np.shape(y2)))
                return fn(first, y2, s)
            return wrapped

        monkeypatch.setattr(bp, "phi", counting(bp.phi, "phi"))
        monkeypatch.setattr(rhs, "cutoff_chi", counting(rhs.cutoff_chi, "chi"))
        traj = solver.evolve(initial, cfg, pr)
        assert len(traj.records) == 5
        assert full == {"phi": 5, "chi": 0}
        assert node_by_node == []


class TestInstability:
    def test_unpinned_run_escapes(self):
        # profile-centered data with d=0 is expelled along the expanding
        # modes; the saturated end state here is core extinction (w -> 0),
        # so the escape shows up as shrinking-set exit and an order-one
        # profile error, not as a 10 kappa crossing
        pr = bp.make_params(2, 1)
        cut = rhs.CutoffSpec(K=5.0)
        idp = rhs.InitialDataParams(A=10.0, s0=20.0, p1=0.5)
        grid = sp.Grid(1, 77.0, 2049)
        st = solver.similarity_initial_state(pr, idp, cut, grid)
        cfg = solver.SolverConfig(ds=5e-3, s_end=32.0, record_every=200, cutoff=cut)
        traj = solver.evolve(st, cfg, pr)
        by_s = {round(r["s"]): r for r in traj.records}
        first, last = traj.records[0], traj.records[-1]
        assert all(m >= 0.0 for m in dg.in_shrinking_set(first, idp).values())
        assert not all(m >= 0.0 for m in dg.in_shrinking_set(last, idp).values())
        assert last["e1"] > 0.5
        # amplification consistent with the unit-rate expanding mode
        assert abs(by_s[26]["q0"][0]) > 50.0 * abs(by_s[21]["q0"][0]) > 0.0

    def test_pinned_run_profile_error_decreases(self):
        # starting exactly on the approximate profile, the deviation
        # sup|w1 - Phi1| is pumped up by the profile's own residual, peaks
        # early, and then decreases for the rest of the run
        pr = bp.make_params(2, 1)
        cut = rhs.CutoffSpec(K=5.0)
        idp = rhs.InitialDataParams(A=10.0, s0=20.0, p1=0.5)
        grid = sp.Grid(1, 77.0, 2049)
        st = solver.similarity_initial_state(pr, idp, cut, grid)
        snaps = tuple(20.5 + 0.5 * k for k in range(40))
        cfg = solver.SolverConfig(
            ds=5e-3, s_end=40.0, record_every=100, cutoff=cut,
            pin_unstable_modes=True, snapshot_at=snaps,
        )
        traj = solver.evolve(st, cfg, pr)
        r2 = grid.radius2()
        s_vals = np.array([s for s, _ in traj.snapshots])
        sup_q1 = np.array(
            [np.max(np.abs(w.real - bp.phi(pr, r2, s).real)) for s, w in traj.snapshots]
        )
        peak = int(np.argmax(sup_q1))
        assert s_vals[peak] < 27.0
        assert np.all(np.diff(sup_q1[peak:]) < 0)
        assert sup_q1[-1] < 0.75 * sup_q1[peak]
        # removal rates are recorded once pinning is active
        assert any(np.any(r["removal_rate"][0] != 0.0) for r in traj.records[1:])

    def test_pinned_matches_unpinned_over_short_window(self):
        # pinning only removes what the instability would have amplified;
        # over a short window the two runs stay close
        pr = bp.make_params(2, 1)
        cut = rhs.CutoffSpec(K=5.0)
        idp = rhs.InitialDataParams(A=10.0, s0=20.0, p1=0.5)
        grid = sp.Grid(1, 60.0, 1025)

        def run(pin):
            st = solver.similarity_initial_state(pr, idp, cut, grid)
            cfg = solver.SolverConfig(
                ds=5e-3, s_end=21.0, record_every=200, cutoff=cut, pin_unstable_modes=pin
            )
            return solver.evolve(st, cfg, pr)

        a, b = run(True), run(False)
        # removal only takes out content the instability would amplify, so
        # pinned <= unpinned, and one s-unit leaves them within 15%
        assert a.records[-1]["e1"] <= b.records[-1]["e1"]
        assert a.records[-1]["e1"] == pytest.approx(b.records[-1]["e1"], rel=0.15)


class TestPhysical:
    def test_constant_oracle_single_step(self):
        pr = bp.make_params(2, 1)
        grid = sp.Grid(1, 8.0, 33)
        u1, u2 = bp.exact_constant_solution(pr, 0, 0.0, 1.0)
        st = solver.PhysicalState(t=0.0, grid=grid, u=np.full(grid.shape, u1 + 1j * u2))
        errs = []
        for dt in (1e-3, 5e-4):
            st2 = solver.step_physical(st, dt, pr)
            want = bp.exact_constant_solution(pr, 0, dt, 1.0)[0]
            errs.append(abs(st2.u.real[grid.npts // 2] - want) / want)
        assert errs[0] < 3e-6
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.4)

    def test_real_stays_real_and_zero_stays_zero(self):
        pr = bp.make_params(3, 1)
        grid = sp.Grid(1, 8.0, 33)
        vals = 0.5 * np.exp(-grid.radius2())
        st = solver.PhysicalState(t=0.0, grid=grid, u=vals + 1j * np.zeros(grid.shape))
        st = solver.step_physical(st, 1e-3, pr)
        assert np.all(st.u.imag == 0.0)
        zero = solver.PhysicalState(
            t=0.0, grid=grid, u=np.zeros(grid.shape) + 1j * np.zeros(grid.shape),
        )
        z2 = solver.step_physical(zero, 1e-3, pr)
        assert np.all(z2.u.real == 0.0) and np.all(z2.u.imag == 0.0)
        assert z2.t == pytest.approx(1e-3)

    @pytest.mark.parametrize("n_dim", [1, 2])
    @pytest.mark.parametrize("p", [2, 3])
    def test_step_physical_matches_reference_step(self, n_dim, p):
        # bit for bit the step written out: diffusion solve, explicit reaction,
        # then the boundary nodes reset to their incoming values; the incoming
        # state is left as it was
        pr = bp.make_params(p, n_dim)
        grid = symmetry_grid(n_dim)
        u = random_field(grid, 3, 1.5)
        st = solver.PhysicalState(t=0.25, grid=grid, u=u)
        before = u.copy()
        dt = 1e-3
        want = implicit_diffusion(u, grid.h, dt)
        want = want + dt * want**p
        edge = solver._edge_mask(grid)
        want[edge] = u[edge]
        got = solver.step_physical(st, dt, pr)
        assert got.t == 0.25 + dt
        assert np.array_equal(got.u, want)
        assert np.array_equal(st.u, before)

    def test_physical_helper_keeps_the_step_errstate(self):
        # the overflow a 2-D physical run ends on raises no warning, on either
        # thread: the helper runs under the caller's np.errstate
        pr = bp.make_params(2, 2)
        grid = sp.Grid(2, 8.0, 33)
        u = np.full(grid.shape, 1e150, dtype=complex)
        st = solver.PhysicalState(t=0.0, grid=grid, u=u)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = solver.run_physical_blowup(st, pr, eta=5e-3)
        assert traj.status == "blown-up"

    @pytest.mark.parametrize("dt", [0.0, -1e-3, math.nan, math.inf])
    def test_step_refuses_dt_outside_zero_to_inf(self, dt):
        grid = sp.Grid(1, 8.0, 33)
        st = solver.PhysicalState(t=0.0, grid=grid, u=np.ones(grid.shape, dtype=complex))
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            solver.step_physical(st, dt, bp.make_params(2, 1))

    def test_overflow_flags_and_keeps_last_state(self):
        pr = bp.make_params(2, 1)
        grid = sp.Grid(1, 8.0, 33)
        st = solver.PhysicalState(
            t=0.0, grid=grid, u=np.full(grid.shape, 1e200) + 1j * np.zeros(grid.shape),
        )
        before = st.u.copy()
        with pytest.raises(OverflowError):
            solver.step_physical(st, 1.0, pr)
        assert st.t == 0.0
        assert np.array_equal(st.u, before)

    def test_overflow_at_one_node_keeps_the_incoming_state(self):
        # one node's square has real part inf - inf: NaN there and nowhere
        # else after a tiny step, which is enough to flag the step
        pr = bp.make_params(2, 1)
        grid = sp.Grid(1, 8.0, 33)
        u = np.ones(grid.shape, dtype=complex)
        u[16] = 1e200 * (1.0 + 1.0j)
        st = solver.PhysicalState(t=0.5, grid=grid, u=u)
        before = u.copy()
        with pytest.raises(OverflowError):
            solver.step_physical(st, 1e-300, pr)
        assert st.t == 0.5
        assert np.array_equal(st.u, before)

    def test_run_overflowing_mid_run_ends_blown_up_without_its_step(self):
        # from 1e150, u = (T - t)^{-1} with T = 1e-150 overflows its square near
        # 1.3e154, below the stop at STOP_GROWTH * 1e150 = 1e156; the run ends "blown-up"
        # and its last record is the state before the overflowing step
        pr = bp.make_params(2, 1)
        grid = sp.Grid(1, 8.0, 33)
        st = solver.PhysicalState(t=0.0, grid=grid, u=np.full(grid.shape, 1e150, dtype=complex))
        traj = solver.run_physical_blowup(st, pr, eta=5e-3)
        assert traj.status == "blown-up"
        assert traj.T_estimate == pytest.approx(1e-150, rel=0.01)
        recs = traj.records
        assert np.all(np.isfinite(recs["max_u"])) and recs["max_u"][-1] > 1e150
        states, want = self.replay(st, pr, traj)
        assert np.array_equal(recs["max_u"], want["max_u"])
        # the square of the last state overflows whatever the step length
        last = states[-1]
        for dt in (float(recs["dt"][-1]), 1e-300):
            with pytest.raises(OverflowError):
                solver.step_physical(last, dt, pr)

    def test_blowup_time_oracle(self):
        # u = (T-t)^{-1} with T = 1 for p=2 constant data u0 = 1
        pr = bp.make_params(2, 1)
        grid = sp.Grid(1, 8.0, 33)
        st = solver.PhysicalState(
            t=0.0, grid=grid, u=np.ones(grid.shape) + 1j * np.zeros(grid.shape),
        )
        traj = solver.run_physical_blowup(st, pr)
        assert traj.T_estimate == pytest.approx(1.0, abs=1e-3)
        assert traj.status == "blown-up"
        # max|u| ~ (T - t)^{-1}: log-log slope -1 over the last decade of growth
        t, m = traj.records["t"], traj.records["max_u"]
        near = m >= m[-1] / 10.0
        slope = dg.line_fit(np.log(traj.T_estimate - t[near]), np.log(m[near]))[1]
        assert slope == pytest.approx(-1.0, abs=0.05)

    def test_probes_need_a_1d_grid(self):
        pr = bp.make_params(2, 2)
        grid = sp.Grid(2, 8.0, 17)
        st = solver.PhysicalState(t=0.0, grid=grid, u=np.ones(grid.shape, dtype=complex))
        with pytest.raises(ValueError, match="1-D grid"):
            solver.run_physical_blowup(st, pr, probes=[0.5])

    @pytest.mark.parametrize("kwargs,match", [
        # off the grid a probe's cubic would extrapolate from the end nodes
        ({"probes": [0.5, 20.0]}, "probes .* must lie within the grid"),
        ({"probes": [-50.0]}, "probes .* must lie within the grid"),
        ({"probes": [math.nan]}, "probes .* must lie within the grid"),
        ({"eta": 0.0}, "eta must be positive"),
        ({"eta": -1e-3}, "eta must be positive"),
        ({"eta": math.nan}, "eta must be positive"),
    ], ids=["probe-right", "probe-left", "probe-nan", "eta-zero", "eta-negative", "eta-nan"])
    def test_unusable_inputs_refused_up_front(self, monkeypatch, kwargs, match):
        # refused before the first step: a run would take none at all
        monkeypatch.setattr(solver, "MAX_STEPS", 0)
        with pytest.raises(ValueError, match=match):
            self.constant_run(1.0, **kwargs)

    def test_probes_at_the_grid_ends_are_read(self):
        # the Dirichlet nodes keep u0 = 1
        traj = self.constant_run(1.0, eta=2.0, probes=[-8.0, 8.0])
        assert np.all(traj.records["probe_u"] == 1.0)

    def test_snapshots_keep_the_probe_values_whatever_the_grid(self):
        # the same constant-data run on two grids: every snapshot holds one
        # complex value per probe
        pr = bp.make_params(2, 1)
        probes = [-3.0, 0.1, 8.0]
        for npts in (129, 1025):
            grid = sp.Grid(1, 8.0, npts)
            st = solver.PhysicalState(t=0.0, grid=grid, u=np.ones(grid.shape, dtype=complex))
            traj = solver.run_physical_blowup(st, pr, eta=2e-2, probes=probes)
            assert traj.status == "blown-up" and len(traj.snapshots) > 100
            for t, vals in traj.snapshots:
                assert vals.shape == (len(probes),) and vals.dtype == np.complex128
            # the probe at x = 8 is the Dirichlet node, where u = 1
            t, vals = traj.snapshots[-1]
            assert vals[2] == 1.0 and abs(vals[1]) > 1e5

    @pytest.mark.parametrize("n_dim", [1, 2])
    def test_run_without_probes_keeps_snapshot_times_only(self, n_dim):
        grid = sp.Grid(n_dim, 8.0, 33)
        st = solver.PhysicalState(t=0.0, grid=grid, u=np.ones(grid.shape, dtype=complex))
        traj = solver.run_physical_blowup(st, bp.make_params(2, n_dim), eta=2e-2)
        assert len(traj.snapshots) > 100
        assert np.all(np.diff([t for t, _ in traj.snapshots]) > 0.0)
        assert all(vals.size == 0 for _, vals in traj.snapshots)

    def test_no_blowup_detected_for_decaying_data(self):
        pr = bp.make_params(2, 1)
        grid = sp.Grid(1, 8.0, 129)
        st = solver.PhysicalState(
            t=0.0, grid=grid, u=0.01 * np.exp(-grid.radius2()) + 1j * np.zeros(grid.shape),
        )
        with pytest.raises(solver.NoBlowupError):
            solver.run_physical_blowup(st, pr)

    @staticmethod
    def constant_run(u0, **kwargs):
        """A p = 2 run from the constant u0 on the 33-node grid of the T = 1 oracle."""
        grid = sp.Grid(1, 8.0, 33)
        st = solver.PhysicalState(t=0.0, grid=grid, u=np.full(grid.shape, u0, dtype=complex))
        return solver.run_physical_blowup(st, bp.make_params(2, 1), **kwargs)

    @pytest.mark.parametrize("u0,growth,match", [
        (0.0, solver.STOP_GROWTH, "identically zero"),
        # the first step already passes the stop: two records, too few to fit
        (1.0, 1.0001, "too little growth"),
    ], ids=["zero", "one-step"])
    def test_run_without_a_fit_raises(self, monkeypatch, u0, growth, match):
        monkeypatch.setattr(solver, "STOP_GROWTH", growth)
        with pytest.raises(solver.NoBlowupError, match=match):
            self.constant_run(u0)

    def test_fit_of_steps_whose_squares_underflow(self, monkeypatch):
        # max|u| near the largest double whose square is finite, and steps of
        # 2e-163, whose squares underflow: u = (T - t)^{-1} with T = 1e-154
        monkeypatch.setattr(solver, "STOP_GROWTH", 1.0 + 1e-8)
        traj = self.constant_run(1e154, eta=2e-9)
        assert traj.status == "blown-up"
        assert traj.T_estimate == pytest.approx(1e-154, rel=1e-6)

    def test_max_moving_to_a_lower_lump_is_not_decay(self, monkeypatch):
        # the peak starts on a complex lump that decays; a real lump takes over
        # at 0.62 and passes the first peak only at the last step.  No y slope
        # lies in the clean band, and over all records y rose: no blow-up time
        pr = bp.make_params(2, 1)
        grid = sp.Grid(1, 12.0, 97)
        x = grid.axis()
        u = (np.exp(0.55j * math.pi) * np.exp(-((x + 6.0) / 3.0) ** 2)
             + 0.45 * np.exp(-((x - 6.0) / 3.0) ** 2))
        st = solver.PhysicalState(t=0.0, grid=grid, u=u)
        # max|u0| is just below 1, so the run stops at 1 + 1e-6
        monkeypatch.setattr(solver, "STOP_GROWTH", 1.0 + 1e-6)
        with pytest.raises(solver.NoBlowupError, match="not decaying"):
            solver.run_physical_blowup(st, pr, eta=0.8)

    def test_step_budget_before_any_doubling_raises(self, monkeypatch):
        monkeypatch.setattr(solver, "MAX_STEPS", 10)
        with pytest.raises(solver.NoBlowupError, match="growth never took off"):
            self.constant_run(1.0)

    def test_step_budget_after_growth_ends_stalled(self, monkeypatch):
        # about 2,000 steps per doubling at the default eta: 20,000 steps reach
        # max|u| ~ 1e3, far below the stop at STOP_GROWTH = 1e6
        monkeypatch.setattr(solver, "MAX_STEPS", 20_000)
        traj = self.constant_run(1.0)
        assert traj.status == "stalled"
        assert len(traj.records) == 20_001
        # the end snapshot keeps the last recorded state
        assert traj.snapshots[-1][0] == traj.records["t"][-1]
        assert traj.T_estimate == pytest.approx(1.0, rel=1e-3)

    def test_fit_falls_back_to_the_last_decade(self):
        # eta = 2 makes each step triple max|u|, so y = 1/max|u| falls at slope
        # -1/3, outside the clean band (-1.5, -0.5); T comes from the records
        # within a decade of the last one, where the interior still triples
        traj = self.constant_run(1.0, eta=2.0)
        recs = traj.records
        slopes = np.diff(1.0 / recs["max_u"]) / np.diff(recs["t"])
        assert not np.any((slopes > -1.5) & (slopes < -0.5))
        assert traj.status == "blown-up"
        assert traj.T_estimate == pytest.approx(3.0, rel=1e-3)

    def test_constructed_data_blows_up_at_origin(self, monkeypatch):
        # short run: the max stays at x = 0 and T lands near e^{-s0}
        pr = bp.make_params(2, 1)
        cut = rhs.CutoffSpec(K=5.0)
        idp = rhs.InitialDataParams(A=10.0, s0=20.0, p1=0.5)
        T = math.exp(-20.0)
        grid_x = sp.Grid(1, 20.0 * math.sqrt(T), 801)
        st = solver.physical_initial_from_similarity(pr, idp, cut, grid_x)
        probes = np.array([-0.3, 0.0, 0.6]) * grid_x.half_width
        monkeypatch.setattr(solver, "STOP_GROWTH", 300.0)
        traj = solver.run_physical_blowup(st, pr, probes=probes)
        assert traj.T_estimate == pytest.approx(T, rel=0.05)
        # argmax stays on the center node (whose coordinate is 0 up to
        # linspace rounding)
        assert np.all(np.abs(traj.records["argmax"]) <= 0.5 * grid_x.h)
        # one row per step: strictly increasing t, one complex value per probe
        recs = traj.records
        assert np.all(np.diff(recs["t"]) > 0)
        assert recs["probe_u"].shape == (len(recs), probes.size)
        # the last snapshot keeps u at the probes as the last record read it
        assert np.array_equal(recs["probe_u"][-1], traj.snapshots[-1][1])

    def test_underresolved_collapse_recedes_but_still_fits_T(self):
        # on a grid too coarse to follow the shrinking core, max|u| grows
        # by orders of magnitude and then falls; the run must end as
        # "receded" (not NoBlowupError) and fit T from the clean stretch
        pr = bp.make_params(2, 1)
        cut = rhs.CutoffSpec(K=5.0)
        idp = rhs.InitialDataParams(A=10.0, s0=25.0, p1=0.5)
        grid_x = sp.Grid(1, 9e-5, 1201)
        st = solver.physical_initial_from_similarity(pr, idp, cut, grid_x)
        traj = solver.run_physical_blowup(st, pr, eta=5e-4)
        assert traj.status == "receded"
        assert traj.T_estimate == pytest.approx(math.exp(-25.0), rel=0.01)

    @staticmethod
    def replay(u0, pr, traj):
        """The run's states rebuilt one step_physical call per recorded dt.

        Each state is recorded as the step-by-step loop records it: np.abs, then
        np.max and np.argmax of the modulus, the trajectory's at_probes read.
        Returns the states and the records as rebuilt.
        """
        grid, ax = u0.grid, u0.grid.axis()
        state, states = u0, [u0]
        for dt in traj.records["dt"][1:]:
            state = solver.step_physical(state, float(dt), pr)
            states.append(state)
        want = np.empty(len(states), dtype=traj.records.dtype)
        for k, st in enumerate(states):
            mod = np.abs(st.u)
            idx = np.unravel_index(int(np.argmax(mod)), grid.shape)
            want[k] = (st.t, traj.records["dt"][k], float(np.max(mod)), ax[list(idx)],
                       traj.at_probes(st.u))
        return states, want

    @pytest.mark.parametrize("case", ["constructed-1d", "receded-1d", "constant-2d"])
    def test_run_matches_step_physical_replay(self, monkeypatch, case):
        # the run loop is bit for bit a sequence of step_physical calls at the
        # recorded dt: every records field, every snapshot, the status and T
        if case == "constant-2d":
            pr = bp.make_params(2, 2)
            grid = sp.Grid(2, 8.0, 17)
            st = solver.PhysicalState(t=0.0, grid=grid, u=np.ones(grid.shape, dtype=complex))
            kwargs = {"eta": 5e-3}
            monkeypatch.setattr(solver, "STOP_GROWTH", 1e3)
            status, T_want = "blown-up", 1.0069147265277991
        else:
            pr = bp.make_params(2, 1)
            cut = rhs.CutoffSpec(K=5.0)
            s0 = 20.0 if case == "constructed-1d" else 25.0
            idp = rhs.InitialDataParams(A=10.0, s0=s0, p1=0.5)
            T = math.exp(-s0)
            if case == "constructed-1d":
                grid = sp.Grid(1, 20.0 * math.sqrt(T), 801)
                st = solver.physical_initial_from_similarity(pr, idp, cut, grid)
                probes = np.array([-0.3, 0.0, 0.6]) * grid.half_width
                kwargs = {"probes": probes}
                monkeypatch.setattr(solver, "STOP_GROWTH", 300.0)
                status, T_want = "blown-up", 2.0606350626137335e-09
            else:
                grid = sp.Grid(1, 9e-5, 1201)
                st = solver.physical_initial_from_similarity(pr, idp, cut, grid)
                kwargs = {"eta": 5e-4}
                status, T_want = "receded", 1.3908840989156391e-11
        before = st.u.copy()
        traj = solver.run_physical_blowup(st, pr, **kwargs)
        assert np.array_equal(st.u, before)
        assert traj.status == status
        assert traj.T_estimate == T_want
        states, want = self.replay(st, pr, traj)
        recs = traj.records
        for name in recs.dtype.names:
            assert np.array_equal(recs[name], want[name]), name
        # a snapshot at the start, at each 5 % growth of max|u| and at the end,
        # unless the last state was kept for its growth
        keep, m_snap = [0], want["max_u"][0]
        for k, m in enumerate(want["max_u"][1:], start=1):
            if m >= m_snap * solver.SNAPSHOT_FACTOR:
                keep.append(k)
                m_snap = m
        if keep[-1] != len(states) - 1:
            keep.append(len(states) - 1)
        assert len(traj.snapshots) == len(keep)
        for (t, u), k in zip(traj.snapshots, keep):
            assert t == states[k].t
            assert np.array_equal(u, traj.at_probes(states[k].u))

    def test_similarity_physical_equivalence(self):
        # the two pictures agree through the similarity change of variables
        pr = bp.make_params(2, 1)
        s0, s_star = 20.0, 20.4
        T = math.exp(-s0)
        grid_y = sp.Grid(1, 20.0, 401)
        st_sim = profile_state(pr, grid_y, s0)
        cfg = solver.SolverConfig(ds=1e-3, s_end=s_star)
        n = round((s_star - s0) / 1e-3)
        for _ in range(n):
            st_sim = solver.step_similarity(st_sim, cfg, pr)

        grid_x = sp.Grid(1, 20.0 * math.sqrt(T), 401)
        scale0 = T ** (-1.0 / (pr.p - 1))
        st_phys = solver.PhysicalState(
            t=0.0, grid=grid_x,
            u=scale0 * bp.phi(pr, grid_y.radius2(), s0),
        )
        t_star = T - math.exp(-s_star)
        dt = t_star / 400
        for _ in range(400):
            st_phys = solver.step_physical(st_phys, dt, pr)

        left = T - st_phys.t
        w1_from_phys = left ** (1.0 / (pr.p - 1)) * st_phys.u.real
        w2_from_phys = left ** (1.0 / (pr.p - 1)) * st_phys.u.imag
        y_star = grid_x.axis() / math.sqrt(left)
        w1_sim = np.interp(y_star, grid_y.axis(), st_sim.w.real)
        w2_sim = np.interp(y_star, grid_y.axis(), st_sim.w.imag)
        core = np.abs(y_star) <= 18.0
        rel1 = np.max(np.abs(w1_from_phys - w1_sim)[core]) / np.max(np.abs(w1_sim))
        rel2 = np.max(np.abs(w2_from_phys - w2_sim)[core]) / max(np.max(np.abs(w2_sim)), 1e-12)
        assert rel1 < 0.01
        assert rel2 < 0.01


def random_field(grid, seed, scale):
    """Smooth random complex data of modulus up to about scale."""
    rng = np.random.default_rng(seed)
    amp = rng.uniform(-1.0, 1.0, 4)
    bump = np.exp(-grid.radius2() / 8.0)
    noise = rng.uniform(-0.1, 0.1, grid.shape) + 1j * rng.uniform(-0.1, 0.1, grid.shape)
    return scale * ((amp[0] + 1j * amp[1]) + (amp[2] + 1j * amp[3]) * bump + noise)


def symmetry_grid(n_dim):
    return sp.Grid(1, 6.0, 49) if n_dim == 1 else sp.Grid(2, 6.0, 17)


class TestExactSymmetries:
    """Symmetries of u_t = Lap u + u^p kept by the discrete steps.

    Every piece of a step is real-linear or an integer power, and complex
    conjugation is exact on both, so conjugation commutes with a step
    bitwise.  Rotation by omega = e^{2 pi i k/(p-1)} maps solutions to
    solutions (omega^{p-1} = 1), but omega is rounded, so it commutes to
    roundoff.  The profile clamp pins Phi1 + i Phi2 on the edge, which breaks
    both, so the similarity steps here freeze the edge at its incoming values
    (step_frozen), as step_physical does.
    """

    @settings(deadline=None, max_examples=30)
    @given(p=st.integers(2, 5), n_dim=st.sampled_from((1, 2)), seed=st.integers(0, 2**16))
    def test_conjugation_commutes_with_step_physical(self, p, n_dim, seed):
        pr = bp.make_params(p, n_dim)
        grid = symmetry_grid(n_dim)
        u = random_field(grid, seed, 1.5)
        a = solver.step_physical(solver.PhysicalState(t=0.0, grid=grid, u=u), 1e-3, pr)
        b = solver.step_physical(solver.PhysicalState(t=0.0, grid=grid, u=np.conj(u)), 1e-3, pr)
        assert np.array_equal(np.conj(a.u), b.u)

    @pytest.mark.parametrize("n_dim,npts,p", [(1, 201, 2), (1, 201, 3), (2, 33, 2)])
    def test_conjugation_commutes_with_run_physical_blowup(self, monkeypatch, n_dim, npts, p):
        # a whole run, not one step: conjugated data give the same times, steps,
        # moduli, argmax, status and T, and conjugated probe values and snapshots
        monkeypatch.setattr(solver, "STOP_GROWTH", 30.0)
        pr = bp.make_params(p, n_dim)
        idp = rhs.InitialDataParams(A=10.0, s0=20.0, p1=0.5, n_dim=n_dim,
                                    d1_const=0.5, d2_const=-1.0)
        grid = sp.Grid(n_dim, 20.0 * math.exp(-10.0), npts)
        u0 = solver.physical_initial_from_similarity(pr, idp, rhs.CutoffSpec(K=5.0), grid)
        assert np.max(np.abs(u0.u.imag)) > 0.0
        probes = np.array([-0.3, 0.0, 0.6]) * grid.half_width if n_dim == 1 else ()
        a = solver.run_physical_blowup(u0, pr, eta=5e-3, probes=probes)
        b = solver.run_physical_blowup(
            solver.PhysicalState(t=0.0, grid=grid, u=np.conj(u0.u)), pr, eta=5e-3, probes=probes
        )
        assert a.status == b.status
        assert a.T_estimate == b.T_estimate
        for name in ("t", "dt", "max_u", "argmax"):
            assert np.array_equal(a.records[name], b.records[name]), name
        assert np.array_equal(np.conj(a.records["probe_u"]), b.records["probe_u"])
        assert len(a.snapshots) == len(b.snapshots)
        for (ta, ua), (tb, ub) in zip(a.snapshots, b.snapshots):
            assert ta == tb
            assert np.array_equal(np.conj(ua), ub)

    @settings(deadline=None, max_examples=30)
    @given(
        p=st.integers(2, 5), n_dim=st.sampled_from((1, 2)),
        scheme=st.sampled_from(solver.SCHEMES), seed=st.integers(0, 2**16),
    )
    def test_conjugation_commutes_with_step_similarity(self, p, n_dim, scheme, seed):
        pr = bp.make_params(p, n_dim)
        grid = symmetry_grid(n_dim)
        cfg = solver.SolverConfig(ds=5e-3, s_end=30.0, scheme=scheme)
        w = random_field(grid, seed, pr.kappa)
        a = step_frozen(solver.SimilarityState(s=20.0, grid=grid, w=w), cfg, pr)
        b = step_frozen(solver.SimilarityState(s=20.0, grid=grid, w=np.conj(w)), cfg, pr)
        assert np.array_equal(np.conj(a.w), b.w)
        assert a.s == b.s

    @settings(deadline=None, max_examples=30)
    @given(
        p=st.integers(2, 5), k=st.integers(0, 3), n_dim=st.sampled_from((1, 2)),
        seed=st.integers(0, 2**16),
    )
    def test_rotation_commutes_with_steps(self, p, k, n_dim, seed):
        pr = bp.make_params(p, n_dim)
        grid = symmetry_grid(n_dim)
        omega = np.exp(2j * math.pi * (k % (p - 1)) / (p - 1))

        u = random_field(grid, seed, 1.5)
        a = solver.step_physical(solver.PhysicalState(t=0.0, grid=grid, u=u), 1e-3, pr)
        b = solver.step_physical(
            solver.PhysicalState(t=0.0, grid=grid, u=omega * u), 1e-3, pr
        )
        assert np.max(np.abs(omega * a.u - b.u)) <= 1e-12 * np.max(np.abs(a.u))

        cfg = solver.SolverConfig(ds=5e-3, s_end=30.0)
        w = random_field(grid, seed, pr.kappa)
        a = step_frozen(solver.SimilarityState(s=20.0, grid=grid, w=w), cfg, pr)
        b = step_frozen(solver.SimilarityState(s=20.0, grid=grid, w=omega * w), cfg, pr)
        assert np.max(np.abs(omega * a.w - b.w)) <= 1e-12 * np.max(np.abs(a.w))

"""Tests for trajectory measurements.

Decomposition oracles use Gaussian-weighted polynomial identities (the
quadratic kernel integrates h2 to 2), membership margins are checked on
constructed boundary and violation cases, and the residual, fit, and
profile-comparison routines run against synthetic trajectories whose
closed forms are known.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import blowlab.diagnostics as dg
import blowlab.params as bp
import blowlab.rhs as rhs
import blowlab.spectral as sp


def plateau_grid_1d():
    # K sqrt(s) = 25 at s = 25, so a half-width of 16 sits inside the
    # cutoff plateau and chi is identically 1 on the grid
    return sp.Grid(1, 16.0, 321)


def component(modes, c=0):
    """Component c (0: q1, 1: q2) of decompose's five mode fields, by record field name."""
    return dict(zip(("q0", "q1", "q2", "q_minus_norm", "q_e_norm"), (f[c] for f in modes)))


# the envelope constants (A, p1) of the shrinking set, carried by the initial data
IDP = rhs.InitialDataParams(A=10.0, s0=25.0, p1=0.5)


def blank_record(s=25.0, n=1):
    """A similarity record at s, every other field zero; add it with traj.add(*rec.item())."""
    rec = np.zeros((), dg.Trajectory(grid=sp.Grid(n, 16.0, 321)).records.dtype)
    rec["s"] = s
    return rec


def similarity_trajectory():
    return dg.Trajectory(grid=plateau_grid_1d()), lambda s: blank_record(s).item()


def physical_trajectory():
    ptraj = dg.PhysicalTrajectory(grid=sp.Grid(1, 4.0, 17), probes=np.array([0.5]))
    return ptraj, lambda t: (t, 1e-3, 1.0, (0.0,), (1.0 + 2.0j,))


@pytest.mark.parametrize("make", [similarity_trajectory, physical_trajectory])
class TestTrajectoryTypes:
    def test_first_field_strictly_increasing(self, make):
        traj, row = make()
        traj.add(*row(25.0))
        traj.add(*row(25.1))
        for repeat in (25.1, 25.05):
            with pytest.raises(ValueError, match="strictly increasing"):
                traj.add(*row(repeat))
        assert len(traj.records) == 2

    def test_buffer_grows_and_keeps_rows(self, make):
        # the buffer starts at 16 rows and doubles; rows added before a
        # doubling keep their values
        traj, row = make()
        times = 25.0 + 0.01 * np.arange(40)
        for t in times:
            traj.add(*row(t))
        assert len(traj.records) == 40
        want = np.array([row(t) for t in times], dtype=traj.records.dtype)
        assert np.array_equal(traj.records, want)


class TestPhysicalRecord:
    def test_probes_read_by_the_four_node_cubic_in_1d(self):
        grid = sp.Grid(1, 4.0, 33)
        ax = grid.axis()
        probes = np.array([-3.1, 0.0, 0.37, 4.0])
        ptraj = dg.PhysicalTrajectory(grid=grid, probes=probes)
        rng = np.random.default_rng(3)
        u = rng.standard_normal(33) + 1j * rng.standard_normal(33)
        i = int(np.argmax(np.abs(u)))
        ptraj.record(0.25, 1e-3, i, float(np.abs(u[i])), u)
        (rec,) = ptraj.records
        assert (rec["t"], rec["dt"], rec["max_u"]) == (0.25, 1e-3, np.abs(u[i]))
        assert rec["argmax"][0] == grid.axis()[i]
        # the first of the four nodes around each probe's cell; the last probe's
        # are shifted inward
        assert np.array_equal(ptraj.nodes[:, 0], [2, 15, 16, 29])
        # the cubic through them in powers of (x - probe): its constant term
        want = [np.polyfit(ax[n] - x, u[n], 3)[-1] for x, n in zip(probes, ptraj.nodes)]
        np.testing.assert_allclose(rec["probe_u"], want, rtol=1e-12, atol=1e-14)
        # a probe on a node reads the node's value
        assert rec["probe_u"][1] == u[16] and rec["probe_u"][3] == u[32]

    @pytest.mark.parametrize("i", [0, 7, 17 * 9 + 4, 17 * 17 - 1])
    def test_argmax_is_the_node_position_in_2d(self, i):
        grid = sp.Grid(2, 4.0, 17)
        ptraj = dg.PhysicalTrajectory(grid=grid, probes=())
        ptraj.record(1.0, 0.5, i, 2.0, np.zeros(grid.shape, dtype=complex))
        row, col = np.unravel_index(i, grid.shape)
        assert list(ptraj.records["argmax"][0]) == [grid.axis()[row], grid.axis()[col]]
        assert ptraj.records["probe_u"].shape == (1, 0)


class TestDecompose:
    def test_h2_recovers_two(self):
        # int h2 (y^2/4 - 1/2) rho = ||h2||^2/4 = 2, and the reconstruction
        # q2 y^2/2 - q2 gives back h2 when q2 = 2
        grid = plateau_grid_1d()
        y = grid.meshes()[0]
        q = y**2 - 2.0
        d = component(dg.decompose(grid, q, 25.0, rhs.CutoffSpec()))
        assert d["q0"] == pytest.approx(0.0, abs=1e-8)
        assert d["q1"][0] == pytest.approx(0.0, abs=1e-8)
        assert d["q2"][0, 0] == pytest.approx(2.0, abs=1e-8)
        assert d["q_minus_norm"] < 1e-8

    def test_constant_recovers_q0(self):
        grid = plateau_grid_1d()
        d = component(dg.decompose(grid, np.full(grid.shape, 0.37), 25.0, rhs.CutoffSpec()))
        assert d["q0"] == pytest.approx(0.37, abs=1e-8)
        assert abs(d["q1"][0]) < 1e-9
        assert abs(d["q2"][0, 0]) < 1e-9

    def test_zero_gives_zeros(self):
        grid = plateau_grid_1d()
        d = component(dg.decompose(grid, np.zeros(grid.shape), 25.0, rhs.CutoffSpec()))
        assert d["q0"] == 0.0
        assert np.all(d["q1"] == 0.0)
        assert np.all(d["q2"] == 0.0)
        assert d["q_minus_norm"] == 0.0
        assert d["q_e_norm"] == 0.0

    def test_cross_term_2d(self):
        # q = y1 y2 projects onto the off-diagonal kernel alone:
        # int (y1 y2)(y1 y2/4) rho = 1
        grid = sp.Grid(2, 10.0, 81)
        y1, y2 = grid.meshes()
        d = component(dg.decompose(grid, y1 * y2, 25.0, rhs.CutoffSpec()))
        assert d["q2"][0, 1] == pytest.approx(1.0, abs=1e-8)
        assert d["q2"][1, 0] == pytest.approx(1.0, abs=1e-8)
        assert abs(d["q2"][0, 0]) < 1e-8
        assert abs(d["q0"]) < 1e-9
        assert d["q_minus_norm"] < 1e-7

    def test_grid_ending_mid_transition_rejected(self):
        # K sqrt(s) = 25, 2K sqrt(s) = 50; half-width 30 ends inside
        grid = sp.Grid(1, 30.0, 61)
        with pytest.raises(dg.CoverageError):
            dg.decompose(grid, np.zeros(grid.shape), 25.0, rhs.CutoffSpec())

    def test_grid_covering_full_transition_accepted(self):
        grid = sp.Grid(1, 21.0, 211)
        d = component(dg.decompose(grid, np.ones(grid.shape), 4.0, rhs.CutoffSpec()))
        assert d["q0"] == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("K,s", [(5.0, 1.0), (3.0, 2.0), (2.0, 3.0)])
    def test_polynomial_recovery_with_cutoff_corrections(self, K, s):
        # for q = (a0 + a1 y + a2 (y^2 - 2)) chi the recovered coefficients
        # match (a0, a1, 2 a2) up to the Gaussian tail of the cut region
        cut = rhs.CutoffSpec(K=K)
        edge = 2.0 * K * math.sqrt(s)
        grid = sp.Grid(1, edge + 0.5, 801)
        a0, a1, a2 = 0.3, -0.2, 0.15
        y = grid.meshes()[0]
        chi = rhs.cutoff_chi(cut, grid.radius2(), s)
        q = (a0 + a1 * y + a2 * (y**2 - 2.0)) * chi
        d = component(dg.decompose(grid, q, s, cut))
        tail = 20.0 * math.exp(-K**2 * s / 4.0)
        assert abs(d["q0"] - a0) <= tail
        assert abs(d["q1"][0] - a1) <= tail
        assert abs(d["q2"][0, 0] - 2.0 * a2) <= tail

    @settings(deadline=None, max_examples=25)
    @given(seed=st.integers(0, 2**16), a=st.floats(-3.0, 3.0), b=st.floats(-3.0, 3.0))
    def test_coefficients_linear_in_q(self, seed, a, b):
        grid = sp.Grid(1, 12.0, 121)
        cut = rhs.CutoffSpec()
        rng = np.random.default_rng(seed)
        f = rng.standard_normal(grid.shape)
        g = rng.standard_normal(grid.shape)
        s = 1.0
        d_f = component(dg.decompose(grid, f, s, cut))
        d_g = component(dg.decompose(grid, g, s, cut))
        d_c = component(dg.decompose(grid, a * f + b * g, s, cut))
        assert d_c["q0"] == pytest.approx(a * d_f["q0"] + b * d_g["q0"], abs=1e-11)
        assert d_c["q1"][0] == pytest.approx(
            a * d_f["q1"][0] + b * d_g["q1"][0], abs=1e-11
        )
        assert d_c["q2"][0, 0] == pytest.approx(
            a * d_f["q2"][0, 0] + b * d_g["q2"][0, 0], abs=1e-11
        )
        # the sup norms are subadditive rather than linear
        assert d_c["q_minus_norm"] <= (
            abs(a) * d_f["q_minus_norm"] + abs(b) * d_g["q_minus_norm"] + 1e-11
        )

    def test_reconstruction_identity(self):
        # build the polynomial from the returned coefficients; for data that
        # is itself polynomial on the plateau the remainder must vanish
        grid = plateau_grid_1d()
        y = grid.meshes()[0]
        vals = 0.4 - 0.1 * y + 0.05 * (y**2 - 2.0)
        d = component(dg.decompose(grid, vals, 25.0, rhs.CutoffSpec()))
        poly = d["q0"] + d["q1"][0] * y + 0.5 * d["q2"][0, 0] * y**2 - np.trace(d["q2"])
        assert np.max(np.abs(vals - poly)) < 1e-10
        assert d["q_minus_norm"] < 1e-10


    @pytest.mark.parametrize("n,npts,s", [(1, 121, 1.0), (2, 61, 25.0)])
    def test_complex_splits_into_components(self, n, npts, s):
        # one pass over q1 + i q2 gives the same two decompositions as the
        # components taken separately; a real q has a zero second one
        grid = sp.Grid(n, 12.0, npts)
        cut = rhs.CutoffSpec()
        rng = np.random.default_rng(3)
        q1 = rng.standard_normal(grid.shape)
        q2 = rng.standard_normal(grid.shape)
        modes = dg.decompose(grid, q1 + 1j * q2, s, cut)
        d1, d2 = component(modes, 0), component(modes, 1)
        for got, part in ((d1, q1), (d2, q2)):
            single = dg.decompose(grid, part, s, cut)
            want, zero = component(single, 0), component(single, 1)
            assert got["q0"] == pytest.approx(want["q0"], rel=1e-14)
            np.testing.assert_allclose(got["q1"], want["q1"], rtol=1e-14, atol=0)
            np.testing.assert_allclose(got["q2"], want["q2"], rtol=1e-14, atol=0)
            assert got["q_minus_norm"] == pytest.approx(
                want["q_minus_norm"], rel=1e-14)
            assert got["q_e_norm"] == pytest.approx(want["q_e_norm"], rel=1e-14)
            assert zero["q0"] == 0.0 and not np.any(zero["q1"]) and not np.any(zero["q2"])
            assert zero["q_minus_norm"] == 0.0 and zero["q_e_norm"] == 0.0


class TestMembership:
    def test_zero_decompositions_inside_with_unit_margins(self):
        margins = dg.in_shrinking_set(blank_record(25.0), IDP)
        assert all(m >= 0.0 for m in margins.values())
        assert set(margins) == {
            "q1_0", "q1_j", "q1_jk", "q1_minus", "q1_e",
            "q2_0", "q2_j", "q2_jk", "q2_minus", "q2_e",
        }
        assert all(m == 1.0 for m in margins.values())

    def test_exact_bound_is_boundary(self):
        s = 25.0
        rec = blank_record(s)
        rec["q0"][0] = IDP.A / s**2
        margins = dg.in_shrinking_set(rec, IDP)
        assert margins["q1_0"] == 0.0
        assert all(m >= 0.0 for m in margins.values())

    def test_doubled_bound_gives_minus_one_margin(self):
        s = 25.0
        rec = blank_record(s)
        rec["q2"][1] = 2.0 * IDP.A**5 * math.log(s) / s ** (IDP.p1 + 2)
        margins = dg.in_shrinking_set(rec, IDP)
        assert margins["q2_jk"] == -1.0
        assert not all(m >= 0.0 for m in margins.values())

    def test_zero_log_bounds_at_s_one(self):
        # ln 1 = 0 makes the jk bounds 0: a zero coefficient keeps margin 1,
        # any other is outside by -inf
        rec = blank_record(1.0)
        margins = dg.in_shrinking_set(rec, IDP)
        assert margins["q1_jk"] == 1.0 and margins["q2_jk"] == 1.0
        rec["q2"][0] = 1e-12
        margins = dg.in_shrinking_set(rec, IDP)
        assert margins["q1_jk"] == -math.inf and margins["q2_jk"] == 1.0

    def test_requires_s_at_least_one(self):
        with pytest.raises(ValueError):
            dg.shrinking_set_bounds(IDP, 0.5)

    @settings(deadline=None, max_examples=60)
    @given(
        vals=st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=8),
        lam=st.floats(0.0, 1.0, exclude_max=True),
    )
    def test_scaling_down_never_decreases_margins(self, vals, lam):
        def scaled(c):
            rec = blank_record(30.0)
            for comp, (v0, v1, v2, vm) in enumerate((vals[:4], vals[4:])):
                rec["q0"][comp], rec["q1"][comp], rec["q2"][comp] = c * v0, c * v1, c * v2
                rec["q_minus_norm"][comp], rec["q_e_norm"][comp] = abs(c * vm), abs(c * vm) / 2.0
            return dg.in_shrinking_set(rec, IDP)

        base = scaled(1.0)
        shrunk = scaled(lam)
        for name in base:
            assert shrunk[name] >= base[name] - 1e-15


def synthetic_trajectory(s_values, q_fns=None, rate_fns=None):
    """Records with prescribed mode histories; everything else zero.

    q_fns and rate_fns map names to callables of s: 'd1_q0', 'd2_q0',
    'd1_q2', 'd2_q2' fill scalar modes; 'rate1_0', 'rate2_0' fill the
    first removal-rate slot.
    """
    q_fns = q_fns or {}
    rate_fns = rate_fns or {}
    traj = dg.Trajectory(grid=plateau_grid_1d())
    for s in s_values:
        rec = blank_record(s)
        if "d1_q0" in q_fns:
            rec["q0"][0] = q_fns["d1_q0"](s)
        if "d2_q0" in q_fns:
            rec["q0"][1] = q_fns["d2_q0"](s)
        if "d1_q2" in q_fns:
            rec["q2"][0] = q_fns["d1_q2"](s)
        if "d2_q2" in q_fns:
            rec["q2"][1] = q_fns["d2_q2"](s)
        if "rate1_0" in rate_fns:
            rec["removal_rate"][0, 0] = rate_fns["rate1_0"](s)
        if "rate2_0" in rate_fns:
            rec["removal_rate"][1, 0] = rate_fns["rate2_0"](s)
        traj.add(*rec.item())
    return traj


class TestModeResiduals:
    def test_pinned_zero_solution_residuals_equal_projected_sources(self):
        # a run held exactly at q = 0 removes per unit s precisely what the
        # approximate profile's residual injects; adding the removal back
        # makes the mode-ODE residual equal that injected size
        pr = bp.make_params(2, 1)
        grid = sp.Grid(1, 60.0, 1201)
        r2 = grid.radius2()
        rho = grid.rho()
        cut = rhs.CutoffSpec()

        def projected_rest(s):
            rest1, rest2 = rhs.rest_r(pr, r2, s)
            chi = rhs.cutoff_chi(cut, r2, s)
            return (
                sp.integrate(grid, chi * rest1 * rho),
                sp.integrate(grid, chi * rest2 * rho),
            )

        s_values = 25.0 + 0.1 * np.arange(21)
        p1_sizes = {s: projected_rest(s) for s in s_values}
        traj = synthetic_trajectory(
            s_values,
            rate_fns={
                "rate1_0": lambda s: p1_sizes[s][0],
                "rate2_0": lambda s: p1_sizes[s][1],
            },
        )
        series = dg.mode_ode_residuals(traj, IDP)
        for i, s in enumerate(series.s):
            want1 = abs(p1_sizes[s][0]) * s**2
            want2 = abs(p1_sizes[s][1]) * s ** (IDP.p1 + 2)
            assert series.residuals["q1_0"][i] == pytest.approx(want1, rel=0.02)
            assert series.residuals["q2_0"][i] == pytest.approx(want2, rel=0.02)
        assert np.all(series.residuals["q1_j"] == 0.0)
        assert np.all(series.residuals["q1_jk"] == 0.0)

    def test_static_mode_measures_missing_drift(self):
        # a frozen q1_0 = c violates dq/ds = q by exactly c
        c = 1e-4
        s_values = 25.0 + 0.1 * np.arange(11)
        traj = synthetic_trajectory(s_values, q_fns={"d1_q0": lambda s: c})
        series = dg.mode_ode_residuals(traj, IDP)
        assert series.residuals["q1_0"] == pytest.approx(c * series.s**2, rel=1e-12)

    def test_null_mode_power_law_is_near_solution(self):
        # q ~ 1/s^2 solves dq/ds = -(2/s) q exactly; only the centered
        # difference's O(ds^2) truncation remains
        s_values = 25.0 + 0.1 * np.arange(21)
        traj = synthetic_trajectory(s_values, q_fns={"d1_q2": lambda s: 1.0 / s**2})
        series = dg.mode_ode_residuals(traj, IDP)
        assert np.max(series.residuals["q1_jk"]) < 1e-4

    def test_achieved_exponent_recovered(self):
        # q2 null mode ~ s^{-3/2} leaves a residual ~ s^{-5/2}
        s_values = 25.0 + 0.1 * np.arange(41)
        traj = synthetic_trajectory(s_values, q_fns={"d2_q2": lambda s: s**-1.5})
        series = dg.mode_ode_residuals(traj, IDP)
        assert series.achieved_exponent_q2_null == pytest.approx(2.5, abs=0.02)

    def test_achieved_exponent_not_fitted_on_a_short_window(self):
        # one unit of s at s = 25 spans ln(26/25) = 0.039 in ln s, too
        # short to tell one power of s from another
        s_values = 25.0 + 0.1 * np.arange(11)
        traj = synthetic_trajectory(s_values, q_fns={"d2_q2": lambda s: s**-1.5})
        series = dg.mode_ode_residuals(traj, IDP)
        assert math.isnan(series.achieved_exponent_q2_null)
        assert np.all(np.isfinite(series.residuals["q2_jk"]))

    def test_constants_are_95th_percentiles(self):
        c = 1e-4
        s_values = 25.0 + 0.1 * np.arange(11)
        traj = synthetic_trajectory(s_values, q_fns={"d1_q0": lambda s: c})
        series = dg.mode_ode_residuals(traj, IDP)
        assert series.constants["q1_0"] == pytest.approx(
            float(np.percentile(series.residuals["q1_0"], 95)), rel=1e-12
        )

    def test_sparse_trajectory_rejected(self):
        traj = synthetic_trajectory([25.0, 25.5, 26.0])
        with pytest.raises(dg.TrajectoryTooSparseError, match="0.5"):
            dg.mode_ode_residuals(traj, IDP)

    def test_too_few_records_rejected(self):
        traj = synthetic_trajectory([25.0, 25.1])
        with pytest.raises(dg.TrajectoryTooSparseError):
            dg.mode_ode_residuals(traj, IDP)


class TestProfileError:
    @pytest.mark.parametrize("p,n,s", [(2, 1, 25.0), (3, 2, 40.0), (5, 1, 30.0)])
    def test_profile_state_gap_matches_closed_form(self, p, n, s):
        # Phi1 - f0 = n kappa/(2ps) and s Phi2 - g0 = -2n kappa/((p-1)s)
        # exactly, pointwise
        pr = bp.make_params(p, n)
        grid = sp.Grid(n, 20.0, 101 if n == 1 else 41)
        r2 = grid.radius2()
        state = type("S", (), {})()
        state.s = s
        state.grid = grid
        state.w = bp.phi(pr, r2, s)
        e1, e2 = dg.profile_error(state, pr)
        assert e1 == pytest.approx(n * pr.kappa / (2 * p * s), rel=1e-12)
        assert e2 == pytest.approx(2 * n * pr.kappa / ((p - 1) * s), rel=1e-12)
        assert e1 * s == pytest.approx(n * pr.kappa / (2 * p), rel=1e-12)


class TestLateLoglogSlope:
    def test_power_law_over_late_half(self):
        # the early half carries a transient the fit must ignore
        s = np.linspace(25.0, 60.0, 40)
        y = 3.0 * s**-1.5
        y[:20] = 7.0
        assert dg.late_loglog_slope(s, y) == pytest.approx(-1.5, rel=1e-12)

    def test_zero_and_too_few_positive(self):
        s = np.linspace(25.0, 60.0, 10)
        y = np.ones(10)
        y[5:] = 0.0
        assert dg.late_loglog_slope(s, y) == 0.0
        y[7] = 1.0
        assert math.isnan(dg.late_loglog_slope(s, y))
        # zero entries are left out of the fit
        y[5:] = s[5:] ** 2.0
        y[6] = 0.0
        assert dg.late_loglog_slope(s, y) == pytest.approx(2.0, rel=1e-12)


class TestFitBlowupTime:
    """fit_blowup_time on synthetic (t, max|u|) records, y = kappa^(p-1) max|u|^(1-p)."""

    @staticmethod
    def records(pr, t, y):
        return t, pr.kappa * y ** (-1.0 / (pr.p - 1))

    @pytest.mark.parametrize("p", [2, 3])
    def test_exact_collapse(self, p):
        # y = T - t: slope -1 at every record, the clean band's centre
        pr = bp.make_params(p, 1)
        t = np.linspace(0.0, 0.99, 300)
        assert dg.fit_blowup_time(*self.records(pr, t, 1.0 - t), pr) == pytest.approx(
            1.0, rel=1e-12)

    def test_slope_outside_the_band_takes_the_last_decade(self):
        # y falls at slope -0.2 down to 0.1, then at -1/3 to 0.01: no slope lies
        # in (-1.5, -0.5), and the records with y <= 10 y[-1] lie on the second
        # line, which reaches 0 at T = 4.8 (a fit over all records would not)
        pr = bp.make_params(2, 1)
        t1 = np.linspace(0.0, 4.5, 200)
        t2 = np.linspace(4.5, 4.77, 100)[1:]
        t = np.concatenate([t1, t2])
        y = np.concatenate([1.0 - 0.2 * t1, 0.1 - (t2 - 4.5) / 3.0])
        assert dg.fit_blowup_time(*self.records(pr, t, y), pr) == pytest.approx(4.8, rel=1e-12)

    def test_too_little_growth(self):
        pr = bp.make_params(2, 1)
        with pytest.raises(dg.NoBlowupError, match="too little growth"):
            dg.fit_blowup_time(np.array([0.0, 1.0]), np.array([1.0, 2.0]), pr)

    def test_rising_y_is_not_decaying(self):
        pr = bp.make_params(2, 1)
        t = np.linspace(0.0, 1.0, 50)
        with pytest.raises(dg.NoBlowupError, match="not decaying"):
            dg.fit_blowup_time(*self.records(pr, t, 1.0 + t), pr)


class TestRadialCoefficients:
    @pytest.mark.parametrize("n,npts", [(1, 201), (2, 81)])
    def test_radial_quadratic_normalized(self, n, npts):
        # |y|^2 - 2n has weighted square norm 8n, so its own coefficient is 1
        grid = sp.Grid(n, 14.0, npts)
        vals = grid.radius2() - 2.0 * n
        c0, c2 = dg.radial_mode_coefficients(grid, vals)
        assert c0 == pytest.approx(0.0, abs=1e-9)
        assert c2 == pytest.approx(1.0, abs=1e-9)

    def test_constant_goes_to_c0(self):
        grid = sp.Grid(1, 14.0, 201)
        c0, c2 = dg.radial_mode_coefficients(grid, np.full(grid.shape, 1.7))
        assert c0 == pytest.approx(1.7, abs=1e-10)
        assert c2 == pytest.approx(0.0, abs=1e-10)


class TestInnerFit:
    def make_traj(self, s_values, pr, beta=0.3, c0_tilde=0.7071, gamma=-0.4, delta=2.5):
        traj = dg.Trajectory(grid=plateau_grid_1d())
        for s in s_values:
            rec = blank_record(s)
            rec["w1bar_h2"] = -pr.kappa / (4 * pr.p * s) + beta / s**2
            rec["w2_h0"] = delta / s**3
            rec["w2_h2"] = c0_tilde / s**2 + gamma / s**3
            traj.add(*rec.item())
        return traj

    def test_affine_tail_recovered_exactly(self):
        pr = bp.make_params(2, 1)
        s_values = 25.0 + 0.5 * np.arange(71)
        fit = dg.inner_fit(self.make_traj(s_values, pr), pr)
        # s * w1bar_h2 = -kappa/(4p) + beta/s is exactly in the fit span
        assert fit.w1bar_limit == pytest.approx(-pr.kappa / (4 * pr.p), abs=1e-10)
        assert fit.target_w1bar == pytest.approx(-0.125)
        assert fit.c0_tilde == pytest.approx(0.7071, abs=1e-10)
        assert np.all(np.abs(fit.s3_w2_h0 - 2.5) < 1e-10)
        assert fit.drift_w1bar < 0.05
        assert fit.drift_w2h2 < 0.05

    def test_insufficient_span_rejected(self):
        pr = bp.make_params(2, 1)
        with pytest.raises(dg.InsufficientSpanError):
            dg.inner_fit(self.make_traj(25.0 + 0.5 * np.arange(11), pr), pr)

    def test_too_few_records_rejected(self):
        pr = bp.make_params(2, 1)
        with pytest.raises(dg.InsufficientSpanError):
            dg.inner_fit(self.make_traj(np.array([25.0, 40.0]), pr), pr)


class TestExtractFinalProfile:
    @staticmethod
    def make_converging(probes=(0.8,), c1=2.0, c2=0.5, extra=None):
        """Snapshots u = c (1 + T - t), T = 1, with extra(T - t) added to each field."""
        grid = sp.Grid(1, 4.0, 65)
        ptraj = dg.PhysicalTrajectory(grid=grid, probes=np.array(probes), T_estimate=1.0)
        for k in range(15):
            left = 0.1 / 2**k
            u1 = np.full(grid.shape, c1 * (1.0 + left))
            u2 = np.full(grid.shape, c2 * (1.0 + left))
            u = u1 + 1j * u2 + (0.0 if extra is None else extra(left))
            ptraj.keep_snapshot(1.0 - left, u)
        return ptraj

    def test_cauchy_converged_values_returned(self):
        u1s, u2s = dg.extract_final_profile(self.make_converging(), 0.8)
        assert u1s == pytest.approx(2.0, rel=1e-4)
        assert u2s == pytest.approx(0.5, rel=1e-4)

    def test_last_two_distinct_snapshots_compared(self):
        # a last snapshot 40x closer to T than the one before it is the nearest
        # to several dyadic targets; the test must still compare it with its
        # predecessor, from which it differs by 5%
        ptraj = self.make_converging()
        t, vals = ptraj.snapshots[-1]
        ptraj.snapshots.append((1.0 - (1.0 - t) / 40.0, 1.05 * vals))
        with pytest.raises(dg.NonConvergenceError, match="not Cauchy"):
            dg.extract_final_profile(ptraj, 0.8)

    def test_trajectory_without_blowup_time_refused(self):
        ptraj = self.make_converging()
        ptraj.T_estimate = None
        with pytest.raises(ValueError, match="no T_estimate"):
            dg.extract_final_profile(ptraj, 0.8)

    def test_diverging_point_rejected(self):
        grid = sp.Grid(1, 4.0, 65)
        ptraj = dg.PhysicalTrajectory(grid=grid, probes=np.array([0.8]), T_estimate=1.0)
        for k in range(15):
            left = 0.1 / 2**k
            vals = np.full(grid.shape, left ** (-0.3))
            ptraj.keep_snapshot(1.0 - left, vals + 1j * (0.0 * vals))
        with pytest.raises(dg.NonConvergenceError, match="not Cauchy"):
            dg.extract_final_profile(ptraj, 0.8)

    def test_many_probes_read_one_at_a_time(self):
        # each probe of one trajectory reads its own value or raises its own
        # error; here x > 1 does not converge
        xs = [-2.0, 3.0, -2.5, 1.7]
        ax = sp.Grid(1, 4.0, 65).axis()
        ptraj = self.make_converging(
            xs, extra=lambda left: np.where(ax > 1.0, left ** -0.3, 0.0))
        for x in xs:
            if x <= 1.0:
                assert dg.extract_final_profile(ptraj, x) == pytest.approx((2.0, 0.5), rel=1e-4)
            else:
                with pytest.raises(dg.NonConvergenceError,
                                   match=rf"^u1\({re.escape(str(x))}\) not Cauchy"):
                    dg.extract_final_profile(ptraj, x)
        ptraj.snapshots = ptraj.snapshots[-1:]
        for x in xs:
            with pytest.raises(dg.NonConvergenceError, match="fewer than two snapshots"):
                dg.extract_final_profile(ptraj, x)

    def test_needs_snapshots_before_blowup(self):
        grid = sp.Grid(1, 4.0, 65)
        ptraj = dg.PhysicalTrajectory(grid=grid, probes=np.array([0.8]), T_estimate=1.0)
        ptraj.keep_snapshot(1.5, np.zeros(grid.shape) + 1j * np.zeros(grid.shape))
        with pytest.raises(dg.NonConvergenceError):
            dg.extract_final_profile(ptraj, 0.8)

    def test_position_outside_grid_rejected(self):
        # refused when the trajectory is built, before any snapshot is kept,
        # where a probe's nodes would fall off the grid and its cubic extrapolate
        ptraj = self.make_converging([0.8, -4.0])
        assert dg.extract_final_profile(ptraj, -4.0) == pytest.approx((2.0, 0.5), rel=1e-4)
        for x in (4.0 + 1e-9, -4.5, math.nan):
            with pytest.raises(dg.CoverageError, match="must lie within the grid"):
                dg.PhysicalTrajectory(grid=ptraj.grid, probes=np.array([0.8, x]))

    def test_position_that_is_not_a_probe_rejected(self):
        # the trajectory keeps values at its probes only; x = 0.8 is on the
        # grid and among the nodes of the probe at 0.75, and still refused
        ptraj = self.make_converging([0.75, -2.0])
        assert dg.extract_final_profile(ptraj, 0.75) == pytest.approx((2.0, 0.5), rel=1e-4)
        for x in (0.8, 0.75 + 1e-12, 4.0):
            with pytest.raises(dg.CoverageError, match="not one of the trajectory's probes"):
                dg.extract_final_profile(ptraj, x)


class TestSnapshotSpline:
    """The probe read, PhysicalTrajectory.at_probes, with scipy's cubic spline as the oracle."""

    @pytest.mark.parametrize("npts", [33, 65, 7201])
    def test_matches_global_cubic_spline(self, npts):
        # the four-node cubic and the global not-a-knot spline are both O(h^4)
        # reads: they differ by at most h^4 sup|u''''| / 8 (the cubic's error
        # constant is at most 1/24 in an end cell, the spline's near 5/384)
        from scipy.interpolate import CubicSpline

        grid = sp.Grid(1, 9e-5, npts)
        ax, h, k, a = grid.axis(), grid.h, 4e4, 3e-5
        u = 1e12 * (3.0 + np.sin(k * ax) + 1j * (2.0 + np.exp(-((ax / a) ** 2))))
        # sup|u''''| of the sine and of the Gaussian (12/a^4, at its center)
        bound = h**4 * 1e12 * (k**4 + 12.0 / a**4) / 8.0
        # interior probes on both sides, then probes within 3 nodes of each grid end
        xs = np.array([0.37 * grid.half_width, -0.61 * grid.half_width, ax[0],
                       ax[0] + 0.5 * h, ax[2] + 0.3 * h, ax[-1], ax[-1] - 0.5 * h,
                       ax[-3] - 0.4 * h])
        got = dg.PhysicalTrajectory(grid=grid, probes=xs).at_probes(u)
        assert np.max(np.abs(got - CubicSpline(ax, u)(xs))) <= bound

    @pytest.mark.parametrize("npts", [33, 7201])
    def test_windows_hold_the_nodes_around_each_probe(self, npts):
        # four consecutive nodes, two on each side of the probe, shifted
        # inward at a grid end
        grid = sp.Grid(1, 1.0, npts)
        ax, h = grid.axis(), grid.h
        xs = np.array([0.1 + 0.3 * h, ax[0], ax[0] + 0.5 * h, ax[-1], ax[-2] - 0.5 * h])
        ptraj = dg.PhysicalTrajectory(grid=grid, probes=xs)
        assert ptraj.nodes.shape == ptraj.weights.shape == (xs.size, 4)
        for x, nodes in zip(xs, ptraj.nodes):
            assert np.array_equal(np.diff(nodes), [1, 1, 1])
            assert ax[nodes[0]] <= x <= ax[nodes[-1]]
        cell = int(np.searchsorted(ax, xs[0])) - 1
        assert np.array_equal(ptraj.nodes[0], np.arange(cell - 1, cell + 3))
        assert ptraj.nodes[1][0] == ptraj.nodes[2][0] == 0
        assert ptraj.nodes[3][-1] == ptraj.nodes[4][-1] == npts - 1
        u = ax + 1j * ax**2
        ptraj.keep_snapshot(0.0, u)
        t, values = ptraj.snapshots[0]
        assert t == 0.0 and values.shape == xs.shape
        np.testing.assert_allclose(values, xs + 1j * xs**2, rtol=1e-13, atol=1e-15)

    def test_exact_on_cubics(self):
        # a probe on a node, mid-cell, in the first and the last cell (nodes
        # shifted inward) and at negative x
        grid = sp.Grid(1, 4.0, 33)
        ax, h = grid.axis(), grid.h
        xs = np.array([ax[21], ax[20] + 0.5 * h, ax[0] + 0.3 * h, ax[-1] - 0.3 * h, -2.7])
        coef = np.array([0.7 - 1.1j, -2.0 + 0.4j, 0.3 + 1.5j, -0.9 + 0.2j])
        got = dg.PhysicalTrajectory(grid=grid, probes=xs).at_probes(np.polyval(coef, ax))
        np.testing.assert_allclose(got, np.polyval(coef, xs), rtol=1e-13, atol=1e-13)

    def test_record_and_snapshot_read_alike(self):
        # probe_u of a record and the values of a snapshot of one state agree bit for bit
        grid = sp.Grid(1, 4.0, 65)
        ptraj = dg.PhysicalTrajectory(grid=grid, probes=np.array([-3.99, -0.3, 1.23, 3.9]))
        rng = np.random.default_rng(5)
        u = rng.standard_normal(65) + 1j * rng.standard_normal(65)
        ptraj.record(0.5, 0.1, 0, float(np.abs(u[0])), u)
        ptraj.keep_snapshot(0.5, u)
        assert np.array_equal(ptraj.records["probe_u"][0].view(np.uint64),
                              ptraj.snapshots[0][1].view(np.uint64))


def min_margins(traj):
    return [min(dg.in_shrinking_set(rec, IDP).values()) for rec in traj.records]


class TestWriters:
    def make_traj(self):
        s_values = [25.0, 25.1, 25.2]
        return synthetic_trajectory(
            s_values,
            q_fns={"d1_q0": lambda s: 1.0 / s**3, "d2_q2": lambda s: -2.0 / s**2},
            rate_fns={"rate1_0": lambda s: 0.5 / s**2},
        )

    def test_csv_deterministic_and_complete(self, tmp_path):
        traj = self.make_traj()
        pr = bp.make_params(2, 1)
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        margins = min_margins(traj)
        dg.write_trajectory_csv(traj, p1, idp=IDP, params=pr, min_margin=margins, c0_tilde=0.7)
        dg.write_trajectory_csv(traj, p2, idp=IDP, params=pr, min_margin=margins, c0_tilde=0.7)
        b1 = p1.read_bytes()
        assert b1 == p2.read_bytes()
        lines = b1.decode().strip().split("\n")
        header = lines[0].split(",")
        assert len(lines) == 1 + len(traj.records)
        for name in ("s", "q1_0", "q2_quad00", "e1", "min_margin",
                     "env_q1_0", "ref_w1bar_h2", "ref_w2_h2", "removal1_0"):
            assert name in header
        assert all(len(line.split(",")) == len(header) for line in lines[1:])

    def test_csv_floats_round_trip(self, tmp_path):
        traj = self.make_traj()
        path = tmp_path / "t.csv"
        dg.write_trajectory_csv(traj, path, IDP, bp.make_params(2, 1), min_margins(traj))
        lines = path.read_text().strip().split("\n")
        header = lines[0].split(",")
        row = lines[1].split(",")
        q1_0 = float(row[header.index("q1_0")])
        assert q1_0 == traj.records[0]["q0"][0]

    def test_csv_requires_records(self, tmp_path):
        traj = dg.Trajectory(grid=plateau_grid_1d())
        with pytest.raises(ValueError, match="no records"):
            dg.write_trajectory_csv(
                traj, tmp_path / "x.csv", IDP, bp.make_params(2, 1), []
            )

    def test_json_deterministic_sorted_and_typed(self, tmp_path):
        payload = {
            "b": np.array([1.0, 2.0]),
            "a": {"z": np.float64(0.25), "y": np.int64(3)},
            "c": math.nan,
        }
        p1 = tmp_path / "a.json"
        p2 = tmp_path / "b.json"
        dg.write_json(payload, p1)
        dg.write_json(payload, p2)
        text = p1.read_text()
        assert text == p2.read_text()
        assert text.index('"a"') < text.index('"b"') < text.index('"c"')
        import json

        loaded = json.loads(text)
        assert loaded["b"] == [1.0, 2.0]
        assert loaded["a"]["z"] == 0.25
        assert loaded["a"]["y"] == 3
        assert loaded["c"] == "nan"

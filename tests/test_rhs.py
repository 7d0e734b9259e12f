"""Tests for blowlab.rhs: nonlinearity, potentials, remainders, rest term, initial data."""

import math
import re

import numpy as np
import pytest

from blowlab import params as bp
from blowlab import rhs
from blowlab import spectral as sp


@pytest.fixture(scope="module")
def p2():
    return bp.make_params(2, 1)


class TestF1F2:
    def test_frozen_values(self):
        assert rhs.f1f2(2.0, 1.0, 2) == pytest.approx((3.0, 4.0))
        assert rhs.f1f2(1.0, 1.0, 3) == pytest.approx((-2.0, 2.0))

    def test_p_validation(self):
        with pytest.raises(ValueError):
            rhs.f1f2(1.0, 1.0, 1)
        with pytest.raises(ValueError):
            rhs.f1f2(1.0, 1.0, 10)
        with pytest.raises(TypeError):
            rhs.f1f2(1.0, 1.0, 2.0)

    @pytest.mark.parametrize("bad", [1, 10, 2.0, True])
    def test_p_rule_is_make_params_rule(self, bad):
        with pytest.raises((TypeError, ValueError)) as want:
            bp.make_params(bad, 1)
        with pytest.raises(want.type, match=f"^{re.escape(str(want.value))}$"):
            rhs.f1f2(1.0, 1.0, bad)

    @pytest.mark.parametrize("p", range(2, 8))
    def test_complex_power_oracle(self, p):
        # (u1 + i u2)^p computed by complex arithmetic is the independent route
        rng = np.random.default_rng(123)
        u1 = rng.uniform(-3, 3, 10_000)
        u2 = rng.uniform(-3, 3, 10_000)
        g1, g2 = rhs.f1f2(u1, u2, p)
        w = (u1 + 1j * u2) ** p
        scale = np.maximum(np.abs(w), 1e-30)
        assert np.max(np.abs(g1 - w.real) / scale) < 1e-12
        assert np.max(np.abs(g2 - w.imag) / scale) < 1e-12

    def test_real_input_keeps_imag_zero(self):
        g1, g2 = rhs.f1f2(np.linspace(-2, 2, 9), np.zeros(9), 5)
        assert np.all(g2 == 0.0)


class TestBarB:
    def test_frozen_values(self, p2):
        assert rhs.bar_b(p2, 0.1, 0.0) == pytest.approx((0.01, 0.0), abs=1e-15)
        b1, b2 = rhs.bar_b(p2, 0.1, 0.2)
        assert b1 == pytest.approx(-0.03, abs=1e-15)
        assert b2 == pytest.approx(0.04, abs=1e-15)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_reconstruction(self, p):
        # adding the subtracted parts back recovers F exactly
        pr = bp.make_params(p, 1)
        rng = np.random.default_rng(5)
        w1 = rng.uniform(-0.4, 0.4, 200)
        w2 = rng.uniform(-0.4, 0.4, 200)
        b1, b2 = rhs.bar_b(pr, w1, w2)
        g1, g2 = rhs.f1f2(pr.kappa + w1, w2, p)
        lin = p / (p - 1.0)
        assert np.max(np.abs(b1 + pr.kappa**p + lin * w1 - g1)) < 1e-13
        assert np.max(np.abs(b2 + lin * w2 - g2)) < 1e-13

    def test_leading_coefficients(self, p2):
        # bar_b1/w1bar^2 -> p/(2 kappa), bar_b2/(w1bar w2) -> p/kappa
        t = 1e-5
        b1, _ = rhs.bar_b(p2, t, 0.0)
        assert b1 / t**2 == pytest.approx(1.0, rel=1e-4)
        _, b2 = rhs.bar_b(p2, t, t)
        assert b2 / t**2 == pytest.approx(2.0, rel=1e-4)


class TestPotentials:
    def test_v_frozen(self, p2):
        assert rhs.potential_v(p2, bp.phi(p2, 0.0, 10.0)) == pytest.approx(0.05, rel=1e-13)

    def test_v_vanishes_at_kappa_limit(self, p2):
        assert rhs.potential_v(p2, bp.phi(p2, 0.0, 1e10)) == pytest.approx(0.0, abs=1e-9)

    def test_vjk_p2_identities(self, p2):
        y2 = np.linspace(0, 200, 101)
        s = 10.0
        v11, v12, v21, v22 = rhs.potentials_vjk(p2, bp.phi(p2, y2, s))
        p2v = bp.phi(p2, y2, s).imag
        assert np.all(v11 == 0.0)
        assert np.all(v22 == 0.0)
        np.testing.assert_allclose(v12, -2.0 * p2v, rtol=1e-14)
        np.testing.assert_allclose(v21, 2.0 * p2v, rtol=1e-14)

    def test_vjk_frozen_values(self, p2):
        v11, v12, v21, v22 = rhs.potentials_vjk(p2, bp.phi(p2, 0.0, 10.0))
        assert v12 == pytest.approx(0.04, rel=1e-13)
        assert v21 == pytest.approx(-0.04, rel=1e-13)

    @pytest.mark.parametrize("p", [3, 4, 7])
    def test_vjk_match_numerical_jacobian(self, p):
        pr = bp.make_params(p, 1)
        y2, s = 30.0, 20.0
        pair = bp.phi(pr, y2, s)
        u1, u2 = float(pair.real), float(pair.imag)
        h = 1e-6
        dF1_du1 = (rhs.f1f2(u1 + h, u2, p)[0] - rhs.f1f2(u1 - h, u2, p)[0]) / (2 * h)
        dF1_du2 = (rhs.f1f2(u1, u2 + h, p)[0] - rhs.f1f2(u1, u2 - h, p)[0]) / (2 * h)
        dF2_du1 = (rhs.f1f2(u1 + h, u2, p)[1] - rhs.f1f2(u1 - h, u2, p)[1]) / (2 * h)
        dF2_du2 = (rhs.f1f2(u1, u2 + h, p)[1] - rhs.f1f2(u1, u2 - h, p)[1]) / (2 * h)
        v11, v12, v21, v22 = rhs.potentials_vjk(pr, pair)
        diag = p * u1 ** (p - 1)
        assert v11 + diag == pytest.approx(dF1_du1, rel=1e-7, abs=1e-9)
        assert v12 == pytest.approx(dF1_du2, rel=1e-7, abs=1e-9)
        assert v21 == pytest.approx(dF2_du1, rel=1e-7, abs=1e-9)
        assert v22 + diag == pytest.approx(dF2_du2, rel=1e-7, abs=1e-9)


class TestQuadraticB:
    def test_p2_exact(self, p2):
        rng = np.random.default_rng(11)
        q1 = rng.uniform(-0.5, 0.5, 300)
        q2 = rng.uniform(-0.5, 0.5, 300)
        y2 = rng.uniform(0, 100, 300)
        b1, b2 = rhs.quadratic_b(p2, q1, q2, bp.phi(p2, y2, 25.0))
        np.testing.assert_allclose(b1, q1 * q1 - q2 * q2, atol=1e-12)
        np.testing.assert_allclose(b2, 2.0 * q1 * q2, atol=1e-12)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_consistency_with_bar_b(self, p):
        # both remainders reconstruct the same F1, F2
        pr = bp.make_params(p, 1)
        rng = np.random.default_rng(17)
        q1 = rng.uniform(-0.3, 0.3, 100)
        q2 = rng.uniform(-0.3, 0.3, 100)
        y2 = rng.uniform(0, 50, 100)
        s = 30.0
        pair = bp.phi(pr, y2, s)
        p1v, p2v = pair.real, pair.imag
        b1, b2 = rhs.quadratic_b(pr, q1, q2, pair)
        v11, v12, v21, v22 = rhs.potentials_vjk(pr, pair)
        diag = p * p1v ** (p - 1)
        f1_base, f2_base = rhs.f1f2(p1v, p2v, p)
        f1_route1 = b1 + f1_base + (diag + v11) * q1 + v12 * q2
        f2_route1 = b2 + f2_base + v21 * q1 + (diag + v22) * q2
        bb1, bb2 = rhs.bar_b(pr, p1v + q1 - pr.kappa, p2v + q2)
        lin = p / (p - 1.0)
        f1_route2 = bb1 + pr.kappa**p + lin * (p1v + q1 - pr.kappa)
        f2_route2 = bb2 + lin * (p2v + q2)
        assert np.max(np.abs(f1_route1 - f1_route2)) < 1e-10
        assert np.max(np.abs(f2_route1 - f2_route2)) < 1e-10

    def test_quadratic_smallness(self, p2):
        # remainder shrinks quadratically with the perturbation
        b1a, b2a = rhs.quadratic_b(p2, 1e-3, 5e-4, bp.phi(p2, 4.0, 25.0))
        b1b, b2b = rhs.quadratic_b(p2, 1e-4, 5e-5, bp.phi(p2, 4.0, 25.0))
        assert abs(b1b) < abs(b1a) / 50
        assert abs(b2b) < abs(b2a) / 50


class TestRestR:
    @pytest.mark.parametrize("p,n,tol", [(2, 1, 2e-6), (3, 1, 2e-6), (2, 2, 1e-5)])
    def test_against_finite_differences(self, p, n, tol):
        pr = bp.make_params(p, n)
        s, ds = 30.0, 1e-3
        grid = sp.Grid(1, 8.0, 401)
        ax = grid.axis()
        if n == 1:
            y2 = ax * ax
            meshes = [ax]
        else:
            grid = sp.Grid(2, 8.0, 201)
            meshes = grid.meshes()
            y2 = grid.radius2()
        h = grid.h

        def profile_fields(ss):
            pair = bp.phi(pr, y2, ss)
            return pair.real, pair.imag

        p1v, p2v = profile_fields(s)
        lap1 = np.zeros_like(p1v)
        lap2 = np.zeros_like(p1v)
        drift1 = np.zeros_like(p1v)
        drift2 = np.zeros_like(p1v)
        for axis_idx, y in enumerate(meshes):
            lap1 += sp.second_derivative(p1v, h, axis=axis_idx)
            lap2 += sp.second_derivative(p2v, h, axis=axis_idx)
            drift1 += 0.5 * y * sp.first_derivative(p1v, h, axis=axis_idx)
            drift2 += 0.5 * y * sp.first_derivative(p2v, h, axis=axis_idx)
        f1v, f2v = rhs.f1f2(p1v, p2v, p)
        p1_plus, p2_plus = profile_fields(s + ds)
        p1_minus, p2_minus = profile_fields(s - ds)
        dt1 = (p1_plus - p1_minus) / (2 * ds)
        dt2 = (p2_plus - p2_minus) / (2 * ds)
        r1_fd = lap1 - drift1 - p1v / (p - 1) + f1v - dt1
        r2_fd = lap2 - drift2 - p2v / (p - 1) + f2v - dt2

        r1_an, r2_an = rhs.rest_r(pr, y2, s)
        core = (slice(2, -2),) * grid.n_dim
        assert np.max(np.abs((r1_an - r1_fd)[core])) < tol
        assert np.max(np.abs((r2_an - r2_fd)[core])) < tol

    def test_fd_error_shrinks_quadratically(self):
        pr = bp.make_params(2, 1)
        s = 30.0
        errs = []
        for npts in (201, 401):
            grid = sp.Grid(1, 6.0, npts)
            ax = grid.axis()
            y2 = ax * ax
            pair = bp.phi(pr, y2, s)
            p1v = pair.real
            lap = sp.second_derivative(p1v, grid.h)
            drift = 0.5 * ax * sp.first_derivative(p1v, grid.h)
            f1v, _ = rhs.f1f2(p1v, pair.imag, 2)
            ds = 1e-5
            dt = (bp.phi(pr, y2, s + ds).real - bp.phi(pr, y2, s - ds).real) / (2 * ds)
            r1_fd = lap - drift - p1v + f1v - dt
            r1_an, _ = rhs.rest_r(pr, y2, s)
            errs.append(np.max(np.abs((r1_an - r1_fd)[2:-2])))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.35)

    @pytest.mark.parametrize("p,n,want", [(2, 1, -5.0), (2, 2, -12.0), (3, 1, -5.0 * math.sqrt(2.0) / 4.0)])
    def test_r2_origin_limit(self, p, n, want):
        # s^3 R2(0, s) -> -n(n+4) kappa/(p-1)
        pr = bp.make_params(p, n)
        target = -n * (n + 4) * pr.kappa / (p - 1)
        assert target == pytest.approx(want, rel=1e-12)
        _, r2v = rhs.rest_r(pr, 0.0, 1e4)
        assert r2v * 1e12 == pytest.approx(target, rel=1e-3)

    def test_r1_sup_decay(self):
        # ||R1||_inf <= C/s over the profile region
        pr = bp.make_params(2, 1)
        sups = []
        for s in (100.0, 400.0):
            y2 = np.linspace(0, (2 * 5) ** 2 * s, 2000)
            r1v, _ = rhs.rest_r(pr, y2, s)
            sups.append(np.max(np.abs(r1v)) * s)
        assert sups[1] < 3.0 * sups[0]


class TestCutoff:
    def test_chi0_plateaus(self):
        x = np.array([0.0, 0.5, 1.0, 2.0, 3.0])
        np.testing.assert_array_equal(rhs.chi0(x), [1.0, 1.0, 1.0, 0.0, 0.0])

    def test_chi0_monotone(self):
        x = np.linspace(0.9, 2.1, 500)
        vals = rhs.chi0(x)
        assert np.all(np.diff(vals) <= 0)
        assert np.all((vals >= 0) & (vals <= 1))

    def test_chi0_midpoint_symmetry(self):
        # the e^{-1/x} partition is symmetric about x = 1.5
        assert rhs.chi0(1.5) == pytest.approx(0.5, abs=1e-15)
        assert rhs.chi0(1.3) + rhs.chi0(1.7) == pytest.approx(1.0, abs=1e-14)

    def test_cutoff_chi_scaling(self):
        cut = rhs.CutoffSpec(K=5.0)
        s = 16.0
        # chi = 1 inside |y| <= K sqrt(s), 0 beyond 2K sqrt(s)
        assert rhs.cutoff_chi(cut, (5.0 * 4.0) ** 2, s) == 1.0
        assert rhs.cutoff_chi(cut, (10.0 * 4.0) ** 2 + 1.0, s) == 0.0

    @pytest.mark.parametrize("n_dim", [1, 2])
    @pytest.mark.parametrize("K,s", [(5.0, 25.0), (5.0, 30.7), (1.3, 2.0), (0.01, 1.0), (9.0, 25.0)])
    def test_box_within_2k_sqrt_s_holds_all_of_chi(self, n_dim, K, s):
        # the rows are the axis nodes with |y| < 2K sqrt(s); chi is zero off their box
        grid, cut = sp.Grid(n_dim, 87.5, 257), rhs.CutoffSpec(K=K)
        rows = grid.rows_within(2.0 * K * math.sqrt(s))
        inside = np.abs(grid.axis()) < 2.0 * K * math.sqrt(s)
        assert np.array_equal(np.arange(grid.npts)[rows], np.nonzero(inside)[0])
        box = np.zeros(grid.shape, dtype=bool)
        box[(rows,) * n_dim] = True
        chi = rhs.cutoff_chi(cut, grid.radius2(), s)
        assert np.all(chi[~box] == 0.0) and chi[(grid.npts // 2,) * n_dim] == 1.0

    def test_cutoff_chi_needs_positive_s(self):
        for s in (0.0, -1.0):
            with pytest.raises(ValueError, match="s must be > 0"):
                rhs.cutoff_chi(rhs.CutoffSpec(), 1.0, s)

    def test_spec_validation(self):
        # NaN passes a "<= 0" test
        for K in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="K must be > 0 and finite"):
                rhs.CutoffSpec(K=K)


class TestInitialData:
    def make(self, **kw):
        base = dict(A=10.0, s0=25.0, p1=0.5, n_dim=1)
        base.update(kw)
        return rhs.InitialDataParams(**base)

    def test_origin_value(self):
        pr = bp.make_params(2, 1)
        cut = rhs.CutoffSpec(K=5.0)
        grid = sp.Grid(1, 40.0, 513)
        idp = self.make(d1_const=1.0)
        q1, q2 = rhs.initial_data(pr, idp, cut, grid)
        i0 = grid.npts // 2
        assert q1[i0] == pytest.approx(10.0 / 25.0**2, rel=1e-14)
        assert np.all(q2 == 0.0)

    @pytest.mark.parametrize("n_dim,half_width,npts", [(1, 40.0, 513), (1, 87.5, 1023), (2, 30.0, 65)])
    @pytest.mark.parametrize("K,s0", [(5.0, 25.0), (1.3, 2.0), (9.0, 30.7)])
    def test_cutoff_is_chi_at_2y_bit_for_bit(self, n_dim, half_width, npts, K, s0):
        # q1 with d1 = 1 is (A/s0^2) chi(2y, s0), chi(2y, s0) = chi0(2 |y| / (K sqrt(s0)))
        pr, cut = bp.make_params(2, n_dim), rhs.CutoffSpec(K=K)
        grid = sp.Grid(n_dim, half_width, npts)
        q1, _ = rhs.initial_data(pr, self.make(s0=s0, d1_const=1.0, n_dim=n_dim), cut, grid)
        chi2 = rhs.chi0(2.0 * np.sqrt(grid.radius2() / (K * K * s0)))
        assert np.array_equal(q1.view(np.uint64), ((10.0 / s0**2) * chi2).view(np.uint64))

    def test_support_bound(self):
        pr = bp.make_params(2, 1)
        cut = rhs.CutoffSpec(K=5.0)
        grid = sp.Grid(1, 60.0, 1025)
        idp = self.make(d1_const=1.0, d1_lin=[0.5], d2_const=-1.0,
                        d2_lin=[0.2], d2_quad=[[0.3]])
        q1, q2 = rhs.initial_data(pr, idp, cut, grid)
        ax = grid.axis()
        outside = np.abs(ax) > cut.K * math.sqrt(idp.s0)
        assert np.all(q1[outside] == 0.0)
        assert np.all(q2[outside] == 0.0)
        # and the outer ("e") components vanish identically at s0
        chi = rhs.cutoff_chi(cut, grid.radius2(), idp.s0)
        assert np.max(np.abs((1.0 - chi) * q1)) == 0.0
        assert np.max(np.abs((1.0 - chi) * q2)) == 0.0

    def test_quadratic_term_shape(self):
        pr = bp.make_params(2, 2)
        cut = rhs.CutoffSpec(K=5.0)
        grid = sp.Grid(2, 30.0, 65)
        idp = self.make(n_dim=2, d2_quad=[[1.0, 0.25], [0.25, -0.5]])
        q1, q2 = rhs.initial_data(pr, idp, cut, grid)
        assert np.all(q1 == 0.0)
        i0 = grid.npts // 2
        s0 = idp.s0
        # at y=0 only the -2 tr(d2_quad) part survives
        want = 10.0**5 * math.log(s0) / s0**2.5 * (-2.0 * 0.5)
        assert q2[i0, i0] == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("entry,value", [
        ("d1_const", math.nan), ("d1_lin", [math.nan]), ("d2_const", math.inf),
        ("d2_lin", [-math.inf]), ("d2_quad", [[math.nan]]),
    ], ids=["d1_const", "d1_lin", "d2_const", "d2_lin", "d2_quad"])
    def test_non_finite_directions_refused(self, entry, value):
        # max |NaN| > 2 is False, and a NaN d2_quad is not equal to its transpose
        with pytest.raises(ValueError, match="^direction entries must be finite$"):
            self.make(**{entry: value})

    def test_validation(self):
        for A in (0.5, math.nan):
            with pytest.raises(ValueError):
                self.make(A=A)
        with pytest.raises(ValueError):
            self.make(s0=math.nan)
        for p1 in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                self.make(p1=p1)
        with pytest.raises(ValueError):
            self.make(s0=0.2)
        with pytest.raises(ValueError):
            self.make(d1_const=2.5)
        with pytest.raises(ValueError):
            self.make(d2_quad=[[3.0]])
        with pytest.raises(ValueError):
            rhs.InitialDataParams(A=10, s0=25, p1=0.5, n_dim=2,
                                  d2_quad=[[0.0, 1.0], [0.5, 0.0]])

    def test_shapes_refused(self):
        with pytest.raises(ValueError, match="linear direction entries must have shape"):
            self.make(d1_lin=[0.1, 0.2])
        with pytest.raises(ValueError, match="linear direction entries must have shape"):
            self.make(d2_lin=0.1)
        with pytest.raises(ValueError, match="d2_quad must have shape"):
            self.make(d2_quad=[0.1])

    def test_dimension_mismatch_refused(self):
        pr, cut = bp.make_params(2, 1), rhs.CutoffSpec()
        for idp, grid in ((self.make(n_dim=2), sp.Grid(1, 8.0, 33)),
                          (self.make(), sp.Grid(2, 8.0, 33))):
            with pytest.raises(ValueError, match="dimension mismatch"):
                rhs.initial_data(pr, idp, cut, grid)

"""Tests for blowlab.params: constants, closed-form profiles, exact solutions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blowlab import params as bp
from blowlab import solver, spectral


def assert_phi_parts_are_outer_profiles(pr, y2, s):
    """phi's real part against R10(|y|^2/s) + n kappa/(2ps) and its imaginary part
    against R21(|y|^2/s)/s - 2n kappa/((p-1)s^2), compared bit for bit."""
    p, n, kappa = pr.p, pr.n_dim, pr.kappa
    z2 = np.asarray(y2, dtype=float) / s
    got = bp.phi(pr, y2, s)
    real = bp.outer_profile(pr, "R10", z2) + n * kappa / (2.0 * p * s)
    imag = bp.outer_profile(pr, "R21", z2) / s - 2.0 * n * kappa / ((p - 1) * s * s)
    assert got.dtype == np.complex128 and got.shape == np.shape(real) == np.shape(imag)
    assert np.array_equal(got.real.view(np.uint64), np.asarray(real).view(np.uint64))
    assert np.array_equal(got.imag.view(np.uint64), np.asarray(imag).view(np.uint64))


class TestMakeParams:
    def test_p2(self):
        pr = bp.make_params(2, 1)
        assert pr.kappa == 1.0
        assert pr.b == 0.125

    def test_p3(self):
        pr = bp.make_params(3, 1)
        assert pr.kappa == pytest.approx(0.7071067812, abs=1e-9)
        assert pr.b == pytest.approx(1.0 / 3.0, rel=1e-15)

    @pytest.mark.parametrize("p", range(2, 10))
    def test_kappa_identity(self, p):
        # (p-1) kappa^{p-1} = 1 to 1e-14 relative
        pr = bp.make_params(p, 1)
        assert (p - 1) * pr.kappa ** (p - 1) == pytest.approx(1.0, rel=1e-14)

    @pytest.mark.parametrize("bad", [1, 0, -3])
    def test_rejects_small_p(self, bad):
        with pytest.raises(ValueError):
            bp.make_params(bad, 1)

    def test_rejects_non_integer_p(self):
        with pytest.raises(TypeError):
            bp.make_params(2.5, 1)
        with pytest.raises(TypeError):
            bp.make_params(True, 1)

    def test_rejects_non_integer_n_dim(self):
        with pytest.raises(TypeError, match="n_dim must be an integer"):
            bp.make_params(2, 1.5)

    def test_rejects_large_p(self):
        with pytest.raises(ValueError):
            bp.make_params(10, 1)

    def test_rejects_bad_n_dim(self):
        with pytest.raises(ValueError):
            bp.make_params(2, 0)


class TestProfiles:
    def setup_method(self):
        self.p2 = bp.make_params(2, 1)

    def test_f0_values(self):
        assert bp.outer_profile(self.p2, "R10", 0.0) == pytest.approx(1.0, abs=1e-15)
        assert bp.outer_profile(self.p2, "R10", 8.0) == pytest.approx(0.5, abs=1e-15)

    def test_f0_rejects_negative(self):
        with pytest.raises(ValueError):
            bp.outer_profile(self.p2, "R10", -1.0)

    @pytest.mark.parametrize("p", range(2, 8))
    def test_f0_decreasing_and_starts_at_kappa(self, p):
        pr = bp.make_params(p, 1)
        z2 = np.linspace(0.0, 50.0, 400)
        vals = bp.outer_profile(pr, "R10", z2)
        assert vals[0] == pytest.approx(pr.kappa, rel=1e-14)
        assert np.all(np.diff(vals) < 0)

    def test_g0_values(self):
        assert bp.outer_profile(self.p2, "R21", 0.0) == 0.0
        assert bp.outer_profile(self.p2, "R21", 1.0) == pytest.approx(64.0 / 81.0, rel=1e-14)
        assert bp.outer_profile(self.p2, "R21", 8.0) == pytest.approx(2.0, rel=1e-14)

    @pytest.mark.parametrize("p", [2, 3, 5, 9])
    def test_g0_identity(self, p):
        # g0(z2) (p-1+b z2)^{p/(p-1)} == z2 at 1000 points, rel < 1e-13
        pr = bp.make_params(p, 1)
        z2 = np.linspace(1e-3, 100.0, 1000)
        lhs = bp.outer_profile(pr, "R21", z2) * (p - 1 + pr.b * z2) ** (p / (p - 1.0))
        assert np.max(np.abs(lhs / z2 - 1.0)) < 1e-13

    def test_phi1_values(self):
        assert bp.phi(self.p2, 0.0, 10.0).real == pytest.approx(1.025, rel=1e-14)
        assert bp.phi(self.p2, 80.0, 10.0).real == pytest.approx(0.525, rel=1e-14)

    def test_phi1_limit_kappa(self):
        assert bp.phi(self.p2, 0.0, 1e12).real == pytest.approx(1.0, abs=1e-11)

    def test_phi2_values(self):
        assert bp.phi(self.p2, 0.0, 10.0).imag == pytest.approx(-0.02, rel=1e-14)
        expect = 1.0 / (100.0 * (9.0 / 8.0) ** 2) - 2e-4
        assert bp.phi(self.p2, 100.0, 100.0).imag == pytest.approx(expect, rel=1e-14)
        assert expect == pytest.approx(0.0077012, abs=1e-6)

    def test_phi_reject_bad_s(self):
        with pytest.raises(ValueError):
            bp.phi(self.p2, 1.0, 0.0)
        with pytest.raises(ValueError):
            bp.phi(self.p2, 1.0, -2.0)

    @pytest.mark.parametrize("p,n_dim", [(2, 1), (3, 2), (5, 1)])
    def test_phi_array_s_broadcasts_like_scalar_calls(self, p, n_dim):
        # a (k, 1) column of s against a (1, m) row of y2 gives, row by row,
        # exactly the values of one scalar-s call each
        pr = bp.make_params(p, n_dim)
        y2 = np.array([0.0, 0.3, 17.0, 4.5e3, 7.6e3])
        s = 25.0 + np.arange(1, 7) * (0.005 / 6)
        got = bp.phi(pr, y2[None, :], s[:, None])
        want = np.stack([bp.phi(pr, y2, float(si)) for si in s])
        assert got.shape == (6, 5)
        assert np.array_equal(got, want)

    def test_phi_reject_one_bad_s_in_array(self):
        s = np.array([[25.0], [0.0], [26.0]])
        with pytest.raises(ValueError, match="s must be > 0"):
            bp.phi(self.p2, np.ones((1, 3)), s)
        with pytest.raises(ValueError, match="s must be > 0"):
            bp.phi(self.p2, 1.0, -s)

    @settings(max_examples=60, deadline=None)
    @given(
        p=st.integers(2, bp.MAX_P),
        n_dim=st.integers(1, 2),
        y2=st.lists(st.floats(0.0, 1e4), min_size=1, max_size=9),
        s=st.lists(st.floats(1.0, 1e4), min_size=1, max_size=7),
    )
    def test_phi_is_phi1_plus_i_phi2_bit_for_bit(self, p, n_dim, y2, s):
        # Phi1 and Phi2 written through the outer profiles R10 = f0 and R21 = g0,
        # for a scalar s and for an (m, 1) column of s against a row of y2
        pr = bp.make_params(p, n_dim)
        y2 = np.array(y2)
        assert_phi_parts_are_outer_profiles(pr, y2, s[0])
        assert_phi_parts_are_outer_profiles(pr, y2[None, :], np.array(s)[:, None])

    @pytest.mark.parametrize("p,n_dim,npts", [(2, 1, 4097), (3, 2, 257), (9, 2, 33)])
    def test_phi_parts_are_outer_profiles_on_the_edge_radii(self, p, n_dim, npts):
        # the clamp's call: the edge nodes' radii against one s, and against the
        # (substeps, 1) column of s the solver takes them at
        pr = bp.make_params(p, n_dim)
        grid = spectral.Grid(n_dim, 87.5, npts)
        y2 = grid.radius2()[solver._edge_mask(grid)]
        s = 25.0 + np.arange(1, 7) * (5e-3 / 6)
        assert_phi_parts_are_outer_profiles(pr, y2, 25.0)
        assert_phi_parts_are_outer_profiles(pr, y2, s[..., None])
        assert np.array_equal(solver._clamp_values(pr, grid, s), bp.phi(pr, y2, s[..., None]))

    @pytest.mark.parametrize(
        "y2,s,match",
        [(1.0, 0.0, "s must be > 0"),
         (np.ones((1, 3)), np.array([[25.0], [-1.0]]), "s must be > 0"),
         (np.array([1.0, -1e-3]), 25.0, "y2 is a squared radius"),
         (-1.0, -1.0, "s must be > 0")],
    )
    def test_phi_raises_as_phi1_and_phi2(self, y2, s, match):
        with pytest.raises(ValueError, match=match):
            bp.phi(self.p2, y2, s)

    def test_phi2_mean_shift_scaling(self):
        # second term is -2 n kappa / ((p-1) s^2) for any p, n
        pr = bp.make_params(3, 2)
        s = 7.0
        assert bp.phi(pr, 0.0, s).imag == pytest.approx(
            -2 * 2 * pr.kappa / ((3 - 1) * s * s), rel=1e-14
        )


class TestOuterProfiles:
    def setup_method(self):
        self.p2 = bp.make_params(2, 1)

    def test_r10_is_f0(self):
        # f0(z^2) = (p-1 + b z^2)^{-1/(p-1)}
        z2 = np.linspace(0, 30, 101)
        np.testing.assert_allclose(
            bp.outer_profile(self.p2, "R10", z2), (1.0 + 0.125 * z2) ** -1.0, rtol=1e-15
        )
        assert bp.outer_profile(self.p2, "R10", 0.0) == pytest.approx(1.0)

    def test_r21_equals_g0(self):
        # g0(z^2) = z^2 (p-1 + b z^2)^{-p/(p-1)}
        z2 = np.linspace(0, 50, 500)
        np.testing.assert_allclose(
            bp.outer_profile(self.p2, "R21", z2), z2 * (1.0 + 0.125 * z2) ** -2.0, rtol=1e-14
        )
        assert bp.outer_profile(self.p2, "R21", 8.0) == pytest.approx(2.0, rel=1e-14)

    def test_r11_at_origin(self):
        assert bp.outer_profile(self.p2, "R11", 0.0) == pytest.approx(0.25, rel=1e-14)

    @pytest.mark.parametrize("p", range(2, bp.MAX_P + 1))
    def test_r22_closed_form_at_origin(self, p):
        # no constants to pass; every correction term vanishes at z = 0
        pr = bp.make_params(p, 1)
        z2 = np.linspace(0.0, 30.0, 61)
        val = bp.outer_profile(pr, "R22", z2)
        assert val.shape == z2.shape and np.all(np.isfinite(val))
        assert val[0] == pytest.approx(-2.0 * (p - 1) ** (-p / (p - 1)), rel=1e-14)

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            bp.outer_profile(self.p2, "R99", 1.0)


class TestExactSolution:
    def test_values(self):
        pr = bp.make_params(2, 1)
        assert bp.exact_constant_solution(pr, 0, 0.0, 1.0) == pytest.approx((1.0, 0.0))
        assert bp.exact_constant_solution(pr, 0, 0.5, 1.0) == pytest.approx((2.0, 0.0))

    def test_k_periodicity_p2(self):
        pr = bp.make_params(2, 1)
        u1a, u2a = bp.exact_constant_solution(pr, 0, 0.3, 1.0)
        u1b, u2b = bp.exact_constant_solution(pr, 1, 0.3, 1.0)
        assert (u1b, u2b) == pytest.approx((u1a, u2a), abs=1e-12)

    def test_rejects_t_past_T(self):
        pr = bp.make_params(2, 1)
        with pytest.raises(ValueError):
            bp.exact_constant_solution(pr, 0, 1.0, 1.0)

    @pytest.mark.parametrize("p,k", [(2, 0), (3, 1), (5, 2)])
    def test_satisfies_ode(self, p, k):
        # u' = u^p to 1e-8 under numerical differentiation, as complex numbers
        pr = bp.make_params(p, 1)
        T, t = 1.0, 0.4
        h = 1e-6

        def u_of(tt):
            u1, u2 = bp.exact_constant_solution(pr, k, tt, T)
            return complex(u1, u2)

        du = (u_of(t + h) - u_of(t - h)) / (2 * h)
        rhs = u_of(t) ** p
        assert abs(du - rhs) / abs(rhs) < 1e-8


class TestHatUV:
    def test_tau0_matches_profiles(self):
        pr = bp.make_params(2, 1)
        u, v2 = bp.hat_uv(pr, 0.0, 8.0)
        assert u == pytest.approx(0.5, rel=1e-14)
        assert v2 == pytest.approx(2.0, rel=1e-14)

    def test_tau1_limit(self):
        pr = bp.make_params(2, 1)
        u, v2 = bp.hat_uv(pr, 1.0, 8.0)
        assert u == pytest.approx(1.0, rel=1e-14)
        assert v2 == pytest.approx(8.0, rel=1e-14)

    def test_rejects_bad_tau(self):
        pr = bp.make_params(2, 1)
        with pytest.raises(ValueError):
            bp.hat_uv(pr, -0.1, 8.0)
        with pytest.raises(ValueError):
            bp.hat_uv(pr, 1.1, 8.0)

    @pytest.mark.parametrize("p,k0sq", [(2, 8.0), (3, 4.0), (4, 12.0)])
    def test_ode_residuals(self, p, k0sq):
        # dU/dtau = U^p and dV2/dtau = p U^{p-1} V2, central differences at 1e-5
        pr = bp.make_params(p, 1)
        h = 1e-5
        for tau in (0.1, 0.35, 0.6, 0.9):
            up, vp = bp.hat_uv(pr, tau + h, k0sq)
            um, vm = bp.hat_uv(pr, tau - h, k0sq)
            u, v = bp.hat_uv(pr, tau, k0sq)
            assert abs((up - um) / (2 * h) - u**p) < 1e-6
            assert abs((vp - vm) / (2 * h) - p * u ** (p - 1) * v) < 1e-6


class TestFinalProfilePrediction:
    def test_p2_value(self):
        pr = bp.make_params(2, 1)
        x = math.exp(-10.0)
        u1, u2 = bp.final_profile_prediction(pr, x)
        assert u1 == pytest.approx(8 * 2 * 10.0 / (1.0 * x * x), rel=1e-12)
        assert u2 / u1 == pytest.approx(4.0 / 10.0, rel=1e-12)

    def test_ratio_shrinks(self):
        pr = bp.make_params(2, 1)
        u1a, u2a = bp.final_profile_prediction(pr, 1e-3)
        u1b, u2b = bp.final_profile_prediction(pr, 1e-6)
        assert u2a / u1a > u2b / u1b
        assert u1b > u1a

    def test_domain(self):
        pr = bp.make_params(2, 1)
        with pytest.raises(ValueError):
            bp.final_profile_prediction(pr, 1.0)
        with pytest.raises(ValueError):
            bp.final_profile_prediction(pr, 0.0)


class TestBisect:
    def test_simple_root(self):
        root = bp.bisect_root(lambda x: x * x - 2.0, 0.0, 2.0, residual_scale=2.0)
        assert root == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_residual_tolerance_respected(self):
        calls = []

        def f(x):
            calls.append(x)
            return x - 0.3

        root = bp.bisect_root(f, 0.0, 1.0)
        assert abs(f(root)) <= 1e-12

    def test_no_bracket(self):
        with pytest.raises(ValueError):
            bp.bisect_root(lambda x: x * x + 1.0, -1.0, 1.0)

    @given(st.floats(min_value=-5.0, max_value=5.0))
    @settings(max_examples=40, deadline=None)
    def test_recovers_linear_roots(self, c):
        root = bp.bisect_root(lambda x: x - c, -10.0, 10.0, residual_scale=10.0)
        assert abs(root - c) < 1e-10

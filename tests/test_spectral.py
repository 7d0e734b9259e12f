"""Tests for blowlab.spectral: Hermite polynomials, projections, the operator L."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blowlab import spectral as sp


def hermite_explicit_sum(m, y):
    """Independent oracle: h_m(y) = sum_j (-1)^j m! y^{m-2j} / (j! (m-2j)!)."""
    y = np.asarray(y, dtype=float)
    out = np.zeros_like(y)
    for j in range(m // 2 + 1):
        coeff = (-1) ** j * math.factorial(m) // (math.factorial(j) * math.factorial(m - 2 * j))
        out = out + coeff * y ** (m - 2 * j)
    return out


class TestGrid:
    def test_basic(self):
        g = sp.Grid(1, 16.0, 1025)
        assert g.h == pytest.approx(32.0 / 1024.0)
        ax = g.axis()
        assert ax[0] == -16.0 and ax[-1] == 16.0
        assert ax[512] == 0.0

    def test_rejects_even_npts(self):
        with pytest.raises(ValueError):
            sp.Grid(1, 16.0, 1024)

    def test_rejects_small_npts(self):
        with pytest.raises(ValueError):
            sp.Grid(1, 16.0, 15)

    def test_rejects_3d(self):
        with pytest.raises(ValueError):
            sp.Grid(3, 16.0, 65)

    def test_radius2_2d(self):
        g = sp.Grid(2, 4.0, 17)
        r2 = g.radius2()
        assert r2.shape == (17, 17)
        assert r2[8, 8] == 0.0
        assert r2[0, 0] == pytest.approx(32.0)

    def test_field_shape_check(self):
        g = sp.Grid(1, 16.0, 65)
        with pytest.raises(ValueError):
            sp.Field(g, np.zeros(64))


class TestHermite:
    def test_frozen_values(self):
        assert sp.hermite(0, 5.0) == 1.0
        assert sp.hermite(2, 3.0) == 7.0
        assert sp.hermite(3, 2.0) == -4.0

    @pytest.mark.parametrize("m", range(11))
    def test_recurrence_matches_explicit_sum(self, m):
        y = np.linspace(-6, 6, 201)
        np.testing.assert_allclose(
            sp.hermite(m, y), hermite_explicit_sum(m, y), rtol=1e-11, atol=1e-9
        )

    def test_degree_cap(self):
        sp.hermite(30, 1.0)
        with pytest.raises(ValueError):
            sp.hermite(31, 1.0)
        with pytest.raises(ValueError):
            sp.hermite(-1, 1.0)

    def test_multi(self):
        assert sp.hermite_multi((0, 0), (np.float64(1.0), np.float64(2.0))) == 1.0
        assert sp.hermite_multi((2, 0), (np.float64(1.0), np.float64(5.0))) == -1.0
        assert sp.hermite_multi((1, 1), (np.float64(2.0), np.float64(3.0))) == 6.0

    def test_multi_dimension_mismatch(self):
        with pytest.raises(ValueError):
            sp.hermite_multi((1, 1), (np.array(1.0),))


class TestWeightAndNorms:
    def test_rho_values(self):
        assert sp.weight_rho(0.0, 1) == pytest.approx(0.2820948, abs=1e-7)
        assert sp.weight_rho(0.0, 2) == pytest.approx(0.0795775, abs=1e-7)

    def test_rho_normalized(self):
        g = sp.Grid(1, 16.0, 1025)
        total = sp.integrate(g, sp.weight_rho(g.radius2(), 1))
        assert total == pytest.approx(1.0, abs=1e-13)
        g2 = sp.Grid(2, 16.0, 257)
        total2 = sp.integrate(g2, sp.weight_rho(g2.radius2(), 2))
        assert total2 == pytest.approx(1.0, abs=1e-12)

    def test_rho_factorizes(self):
        g = sp.Grid(2, 8.0, 65)
        ax = g.axis()
        rho1 = sp.weight_rho(ax * ax, 1)
        product = rho1[:, None] * rho1[None, :]
        full = sp.weight_rho(g.radius2(), 2)
        np.testing.assert_allclose(full, product, rtol=1e-15)

    def test_norms(self):
        assert sp.norm_h_beta_sq((0,)) == 1.0
        assert sp.norm_h_beta_sq((2,)) == 8.0
        assert sp.norm_h_beta_sq((2, 1)) == 16.0


@pytest.fixture(scope="module")
def grid_1d():
    return sp.Grid(1, 16.0, 1025)


class TestProject:
    def test_h2_normalization(self, grid_1d):
        f = sp.Field(grid_1d, sp.hermite(2, grid_1d.axis()))
        assert sp.project(f, (2,)) == pytest.approx(1.0, abs=1e-8)
        assert sp.project(f, (0,)) == pytest.approx(0.0, abs=1e-8)

    def test_y_squared_decomposition(self, grid_1d):
        ax = grid_1d.axis()
        f = sp.Field(grid_1d, ax * ax)
        assert sp.project(f, (2,)) == pytest.approx(1.0, abs=1e-8)
        assert sp.project(f, (0,)) == pytest.approx(2.0, abs=1e-8)

    def test_orthogonality_matrix(self, grid_1d):
        # |project(h_i, (j,)) - delta_ij| < 1e-7 for i, j <= 10
        ax = grid_1d.axis()
        worst = 0.0
        for i in range(11):
            f = sp.Field(grid_1d, sp.hermite(i, ax))
            for j in range(11):
                val = sp.project(f, (j,))
                worst = max(worst, abs(val - (1.0 if i == j else 0.0)))
        assert worst < 1e-7

    def test_orthogonality_2d(self):
        g = sp.Grid(2, 16.0, 257)
        ys = g.meshes()
        for beta in [(0, 0), (1, 0), (2, 1), (0, 3)]:
            f = sp.Field(g, sp.hermite_multi(beta, ys))
            for gamma in [(0, 0), (1, 0), (2, 1), (0, 3), (1, 1)]:
                want = 1.0 if beta == gamma else 0.0
                assert sp.project(f, gamma) == pytest.approx(want, abs=1e-7)

    def test_linearity(self, grid_1d):
        ax = grid_1d.axis()
        rng = np.random.default_rng(7)
        f = np.cos(ax) * np.exp(-(ax**2) / 8) + 0.1 * rng.standard_normal(ax.size)
        g = np.sin(0.5 * ax) + ax**2 / 50.0
        a, b = 1.7, -2.9
        lhs = sp.project(sp.Field(grid_1d, a * f + b * g), (2,))
        rhs = a * sp.project(sp.Field(grid_1d, f), (2,)) + b * sp.project(
            sp.Field(grid_1d, g), (2,)
        )
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_narrow_grid_warns(self):
        g = sp.Grid(1, 6.0, 129)
        f = sp.Field(g, sp.hermite(8, g.axis()))
        with pytest.warns(RuntimeWarning, match="too narrow"):
            sp.project(f, (8,))

    def test_beta_mismatch(self, grid_1d):
        f = sp.Field(grid_1d, np.ones(grid_1d.npts))
        with pytest.raises(ValueError):
            sp.project(f, (1, 1))


class TestGaussianMoments:
    @pytest.mark.parametrize("n,npts", [(1, 201), (2, 61)])
    @pytest.mark.parametrize("is_complex", [False, True])
    def test_matches_direct_integrals(self, n, npts, is_complex):
        # each moment against a direct trapezoid integral of its basis function
        grid = sp.Grid(n, 12.0, npts)
        rng = np.random.default_rng(7)
        f = rng.standard_normal(grid.shape)
        if is_complex:
            f = f + 1j * rng.standard_normal(grid.shape)
        rho = sp.weight_rho(grid.radius2(), n)
        m0, m1, m2 = sp.gaussian_moments(grid, f, rho)
        assert np.iscomplexobj(m1) == is_complex
        assert m1.shape == (n,) and m2.shape == (n, n)
        ys = grid.meshes()

        def direct(kernel):
            return sp.integrate(grid, f * kernel * rho)

        assert m0 == pytest.approx(direct(1.0), rel=1e-12)
        for j in range(n):
            assert m1[j] == pytest.approx(direct(0.5 * ys[j]), rel=1e-12)
            for k in range(n):
                kern = 0.25 * ys[j] * ys[k] - (0.5 if j == k else 0.0)
                assert m2[j, k] == pytest.approx(direct(kern), rel=1e-12)
        assert np.array_equal(m2, m2.T)


class TestApplyL:
    @pytest.mark.parametrize("m,lam", [(0, 1.0), (1, 0.5), (2, 0.0), (3, -0.5),
                                       (4, -1.0), (5, -1.5), (6, -2.0)])
    def test_eigenfunctions_1d(self, grid_1d, m, lam):
        ax = grid_1d.axis()
        vals = sp.hermite(m, ax)
        out = sp.apply_L(sp.Field(grid_1d, vals)).values
        interior = np.abs(ax) <= grid_1d.half_width / 2
        err = np.max(np.abs(out[interior] - lam * vals[interior]))
        scale = np.max(np.abs(vals[interior]))
        assert err / scale < 10.0 * grid_1d.h**2

    def test_eigenfunctions_2d(self):
        g = sp.Grid(2, 16.0, 257)
        ys = g.meshes()
        for beta, lam in [((0, 0), 1.0), ((1, 1), 0.0), ((2, 1), -0.5), ((2, 2), -1.0)]:
            vals = sp.hermite_multi(beta, ys)
            out = sp.apply_L(sp.Field(g, vals)).values
            r_ok = (np.abs(ys[0]) <= g.half_width / 2) & (np.abs(ys[1]) <= g.half_width / 2)
            err = np.max(np.abs(out[r_ok] - lam * vals[r_ok]))
            scale = np.max(np.abs(vals[r_ok]))
            assert err / scale < 10.0 * g.h**2

    def test_derivative_helpers_converge(self):
        # centered stencils are second order: halving h cuts error ~4x
        errs = []
        for n in (129, 257):
            g = sp.Grid(1, 4.0, n)
            ax = g.axis()
            d2 = sp.second_derivative(np.sin(ax), g.h)
            errs.append(np.max(np.abs(d2 + np.sin(ax))[2:-2]))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)


class TestProjectProperties:
    @given(st.floats(-3, 3), st.floats(-3, 3))
    @settings(max_examples=25, deadline=None)
    def test_linearity_property(self, a, b):
        g = sp.Grid(1, 12.0, 129)
        ax = g.axis()
        f = np.exp(-(ax**2) / 6.0)
        h = np.tanh(ax)
        lhs = sp.project(sp.Field(g, a * f + b * h), (1,))
        rhs = a * sp.project(sp.Field(g, f), (1,)) + b * sp.project(sp.Field(g, h), (1,))
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(a) + abs(b))

"""Tests for blowlab.spectral: Hermite polynomials, Gaussian moments, the operator L."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blowlab import params as bp
from blowlab import rhs
from blowlab import spectral as sp
from blowlab.solver import _real


def bits(vals):
    """The bit patterns of vals; np.array_equal counts -0 and +0 as equal."""
    return np.ascontiguousarray(vals).view(np.uint64)


def hermite_explicit_sum(m, y):
    """Independent oracle: h_m(y) = sum_j (-1)^j m! y^{m-2j} / (j! (m-2j)!)."""
    y = np.asarray(y, dtype=float)
    out = np.zeros_like(y)
    for j in range(m // 2 + 1):
        coeff = (-1) ** j * math.factorial(m) // (math.factorial(j) * math.factorial(m - 2 * j))
        out = out + coeff * y ** (m - 2 * j)
    return out


def hermite_product(beta, ys):
    """h_beta = prod_j h_{beta_j}(y_j) on the meshes ys of a grid."""
    return math.prod(sp.hermite(m, y) for m, y in zip(beta, ys))


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

    @pytest.mark.parametrize("half_width", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_half_width_outside_zero_to_inf(self, half_width):
        # NaN passes a "<= 0" test, and would give h = nan
        with pytest.raises(ValueError, match="half_width"):
            sp.Grid(1, half_width, 17)

    def test_rejects_3d(self):
        with pytest.raises(ValueError):
            sp.Grid(3, 16.0, 65)

    def test_radius2_2d(self):
        g = sp.Grid(2, 4.0, 17)
        r2 = g.radius2()
        assert r2.shape == (17, 17)
        assert r2[8, 8] == 0.0
        assert r2[0, 0] == pytest.approx(32.0)


class TestRadialTable:
    @pytest.mark.parametrize("n_dim,half_width,npts", [(1, 8.0, 33), (1, 9e-5, 7201),
                                                       (2, 4.0, 17), (2, 87.5, 257)])
    def test_table_holds_each_nodes_radius(self, n_dim, half_width, npts):
        # sorted distinct |y|^2 and an index shaped like the grid, in the smallest
        # integer dtype, read-only and shared by equal grids, that gives radius2()
        grid = sp.Grid(n_dim, half_width, npts)
        r2, index = grid.radial_table()
        assert np.all(np.diff(r2) > 0.0)
        assert index.shape == grid.shape and index.dtype == np.min_scalar_type(r2.size - 1)
        assert index.dtype.itemsize <= 4
        assert np.array_equal(bits(r2[index]), bits(grid.radius2()))
        assert not r2.flags.writeable and not index.flags.writeable
        assert sp.Grid(n_dim, half_width, npts).radial_table()[1] is index

    @settings(deadline=None, max_examples=40)
    @given(
        n_dim=st.sampled_from((1, 2)),
        half_width=st.sampled_from((4.0, 24.0, 87.5, 120.0)),
        npts=st.sampled_from((17, 33, 65, 129, 257)),
        p=st.integers(2, bp.MAX_P),
        K=st.sampled_from((0.5, 2.0, 5.0)),
        s=st.floats(1.0, 400.0),
        radius=st.floats(0.01, 200.0),
    )
    def test_tabled_profiles_are_the_direct_bits(self, n_dim, half_width, npts, p, K, s,
                                                 radius):
        # every radial profile read through the table, on the whole grid and on
        # rows_within boxes (the cutoff's support among them), has the bits of the
        # same elementwise call on radius2() there: Phi, chi, chi rho, f0 = R10,
        # g0 = R21 at |y|^2/s and decompose's weight 1 + |y|^3
        grid = sp.Grid(n_dim, half_width, npts)
        pr, cut = bp.make_params(p, n_dim), rhs.CutoffSpec(K=K)
        norm = (4.0 * math.pi) ** (n_dim / 2.0)
        profiles = {
            "phi": lambda y2: bp.phi(pr, y2, s),
            "chi": lambda y2: rhs.cutoff_chi(cut, y2, s),
            "chi rho": lambda y2: rhs.cutoff_chi(cut, y2, s) * (np.exp(-y2 / 4.0) / norm),
            "R10": lambda y2: bp.outer_profile(pr, "R10", y2 / s),
            "R21": lambda y2: bp.outer_profile(pr, "R21", y2 / s),
            "weight": lambda y2: 1.0 + np.sqrt(y2) ** 3,
        }
        for rows in (slice(None), grid.rows_within(2.0 * K * math.sqrt(s)),
                     grid.rows_within(radius)):
            box = (rows,) * n_dim
            r2 = grid.radius2()[box]
            for name, fn in profiles.items():
                got = grid.radial(fn, rows)
                assert got.shape == r2.shape, name
                assert np.array_equal(bits(got), bits(fn(r2))), name
            chi_rho = rhs.cutoff_chi(cut, r2, s) * grid.rho()[box]
            assert np.array_equal(bits(grid.radial(profiles["chi rho"], rows)), bits(chi_rho))
            assert np.array_equal(bits(rhs.cutoff_box(cut, grid, s)[1]),
                                  bits(rhs.cutoff_chi(cut, grid.radius2()[(grid.rows_within(
                                      2.0 * K * math.sqrt(s)),) * n_dim], s)))


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

class TestWeightAndNorms:
    def test_rho_values(self):
        assert sp.Grid(1, 8.0, 17).rho()[8] == pytest.approx(0.2820948, abs=1e-7)
        assert sp.Grid(2, 8.0, 17).rho()[8, 8] == pytest.approx(0.0795775, abs=1e-7)

    def test_rho_normalized(self):
        g = sp.Grid(1, 16.0, 1025)
        total = sp.integrate(g, g.rho())
        assert total == pytest.approx(1.0, abs=1e-13)
        g2 = sp.Grid(2, 16.0, 257)
        total2 = sp.integrate(g2, g2.rho())
        assert total2 == pytest.approx(1.0, abs=1e-12)

    def test_rho_factorizes(self):
        g = sp.Grid(2, 8.0, 65)
        rho1 = sp.Grid(1, 8.0, 65).rho()
        product = rho1[:, None] * rho1[None, :]
        full = g.rho()
        np.testing.assert_allclose(full, product, rtol=1e-15)

    @pytest.mark.parametrize("n", [1, 2])
    def test_rho_is_its_formula(self, n):
        g = sp.Grid(n, 8.0, 65)
        assert np.array_equal(g.rho(), np.exp(-g.radius2() / 4.0) / (4.0 * math.pi) ** (n / 2.0))

    @pytest.mark.parametrize("radius", [0.1, 3.0, 3.25, 7.999, 8.0, 100.0])
    def test_rows_within(self, radius):
        ax = sp.Grid(1, 8.0, 65).axis()
        rows = sp.Grid(2, 8.0, 65).rows_within(radius)
        assert np.array_equal(np.arange(65)[rows], np.nonzero(np.abs(ax) < radius)[0])

    def test_norms(self):
        assert sp.norm_h_beta_sq((0,)) == 1.0
        assert sp.norm_h_beta_sq((2,)) == 8.0
        assert sp.norm_h_beta_sq((2, 1)) == 16.0


@pytest.fixture(scope="module")
def grid_1d():
    return sp.Grid(1, 16.0, 1025)


class TestGaussianMoments:
    @pytest.mark.parametrize("n,npts", [(1, 201), (2, 61)])
    def test_rows_box_matches_zero_padded_grid(self, n, npts):
        # moments of an integrand on the box of rows on every axis equal those of
        # the same integrand padded with zeros to the whole grid
        grid = sp.Grid(n, 12.0, npts)
        rows = slice(npts // 4, npts - npts // 3)
        box = (rows,) * n
        rng = np.random.default_rng(3)
        f = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
        padded = np.zeros(grid.shape, dtype=complex)
        padded[box] = f[box]
        got = sp.gaussian_moments(grid, f[box], grid.rho()[box], rows)
        want = sp.gaussian_moments(grid, padded, grid.rho())
        for a, b in zip(got, want):
            np.testing.assert_allclose(a, b, rtol=1e-13, atol=0.0)
        whole = sp.gaussian_moments(grid, f, grid.rho(), slice(None))
        for a, b in zip(whole, sp.gaussian_moments(grid, f, grid.rho())):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("n,npts", [(1, 201), (2, 61)])
    @pytest.mark.parametrize("is_complex", [False, True])
    @pytest.mark.parametrize("source", ["random", "hermite"])
    def test_matches_direct_integrals(self, n, npts, is_complex, source):
        # random f: each moment against a direct trapezoid integral of its basis
        # function.  f = c h_beta: the basis functions are 1 = h_0, y_j/2 = h_{e_j}/2
        # and y_j y_k/4 - δ_jk/2 = h_{e_j+e_k}/4, so orthogonality leaves
        # c ‖h_beta‖² times that factor in the one matching entry and 0 elsewhere
        grid = sp.Grid(n, 12.0, npts)
        rng = np.random.default_rng(7)
        rho = grid.rho()
        ys = grid.meshes()
        c = 1.0 - 0.5j if is_complex else 1.0
        betas = itertools.product(range(4), repeat=n) if source == "hermite" else [None]
        for beta in betas:
            if beta is None:
                f = rng.standard_normal(grid.shape)
                if is_complex:
                    f = f + 1j * rng.standard_normal(grid.shape)
            else:
                f = c * hermite_product(beta, ys)
            m0, m1, m2 = sp.gaussian_moments(grid, f, rho)
            assert np.iscomplexobj(m1) == is_complex
            assert m1.shape == (n,) and m2.shape == (n, n)

            def expect(got, kernel, factor, gamma):
                if beta is None:
                    assert got == pytest.approx(sp.integrate(grid, f * kernel * rho), rel=1e-12)
                else:
                    want = factor * c * sp.norm_h_beta_sq(beta) if gamma == beta else 0.0
                    assert abs(got - want) < 1e-7

            expect(m0, 1.0, 1.0, (0,) * n)
            for j in range(n):
                e_j = tuple(int(i == j) for i in range(n))
                expect(m1[j], 0.5 * ys[j], 0.5, e_j)
                for k in range(n):
                    e_jk = tuple(int(i == j) + int(i == k) for i in range(n))
                    kern = 0.25 * ys[j] * ys[k] - (0.5 if j == k else 0.0)
                    expect(m2[j, k], kern, 0.25, e_jk)
            assert np.array_equal(m2, m2.T)


class TestApplyL:
    @pytest.mark.parametrize("m,lam", [(0, 1.0), (1, 0.5), (2, 0.0), (3, -0.5),
                                       (4, -1.0), (5, -1.5), (6, -2.0)])
    def test_eigenfunctions_1d(self, grid_1d, m, lam):
        ax = grid_1d.axis()
        vals = sp.hermite(m, ax)
        out = vals + sp.diffusion_drift(grid_1d, vals)
        interior = np.abs(ax) <= grid_1d.half_width / 2
        err = np.max(np.abs(out[interior] - lam * vals[interior]))
        scale = np.max(np.abs(vals[interior]))
        assert err / scale < 10.0 * grid_1d.h**2

    def test_eigenfunctions_2d(self):
        g = sp.Grid(2, 16.0, 257)
        ys = g.meshes()
        for beta, lam in [((0, 0), 1.0), ((1, 1), 0.0), ((2, 1), -0.5), ((2, 2), -1.0)]:
            vals = hermite_product(beta, ys)
            out = vals + sp.diffusion_drift(g, vals)
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

    @pytest.mark.parametrize("n,npts", [(1, 65), (2, 33)])
    def test_trailing_axes_carried(self, n, npts):
        # the two components of a complex array's real view go through one by one
        g = sp.Grid(n, 6.0, npts)
        rng = np.random.default_rng(3)
        w = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
        out = sp.diffusion_drift(g, _real(w))
        assert np.array_equal(out[..., 0], sp.diffusion_drift(g, w.real))
        assert np.array_equal(out[..., 1], sp.diffusion_drift(g, w.imag))

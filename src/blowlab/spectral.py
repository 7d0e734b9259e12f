"""Hermite spectral tools for the Gaussian-weighted linearization.

The linearized operator about the blow-up constant is
L = Δ - y/2·∇ + Id, self-adjoint in L²_ρ with ρ(y) = e^{-|y|²/4}/(4π)^{n/2}.
Its eigenfunctions are products of the rescaled Hermite polynomials

    h_0 = 1,  h_1 = y,  h_{m+1}(y) = y h_m(y) - 2 m h_{m-1}(y),

with ∫ h_i h_j ρ dy = i! 2^i δ_{ij} and L h_m = (1 - m/2) h_m per axis.
Runs need only the projections onto h_0, h_1 and h_2, which
`gaussian_moments` computes, and the finite-difference Δ - y/2·∇ of the
explicit RK4 scheme, `diffusion_drift`.  Grids are uniform, symmetric about
the origin, with an odd point count so y = 0 is a gridline.  The module also
binds `lapack`, scipy's compiled LAPACK wrappers, for the package's
tridiagonal solves: the LDL^T pair dpttrf/zpttrs for a 1-D grid's diffusion,
whose Dirichlet rows fold into a symmetric positive definite matrix, and the
LU pair dgttrf/zgttrs for the 2-D ADI lines (scipy's wrapper releases the
GIL for zgttrs, not for zpttrs, and the ADI halves run on two threads).
"""

from __future__ import annotations

import functools
import importlib.util
import math
import os
import sysconfig
from dataclasses import dataclass

import numpy as np


def _load_flapack():
    """scipy's compiled LAPACK wrappers, loaded from their file on their own.

    `scipy.linalg.lapack` only re-exports this extension (`from
    scipy.linalg._flapack import *`), so `dgttrf`, `zgttrs`, `dpttrf` and
    `zpttrs` here are the same compiled functions and every result is
    bit-identical.  The public
    import is avoided because the package init of `scipy.linalg` clones the
    numpy namespace through `scipy._lib._array_api` (numpy.f2py, numpy.testing,
    numpy.ma, numpy.random, ...): about 0.3 s and 18 MiB of every run's start-up.
    """
    spec = importlib.util.find_spec("scipy")
    if spec is None:
        raise ImportError("scipy is not installed")
    path = os.path.join(spec.submodule_search_locations[0], "linalg",
                        "_flapack" + sysconfig.get_config_var("EXT_SUFFIX"))
    if not os.path.isfile(path):
        raise ImportError(f"scipy's LAPACK extension not found at {path}")
    spec = importlib.util.spec_from_file_location("scipy.linalg._flapack", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


lapack = _load_flapack()

MAX_HERMITE_DEGREE = 30
# spatial dimensions a Grid supports
N_DIMS = (1, 2)

MultiIndex = tuple[int, ...]


@dataclass(frozen=True)
class Grid:
    """Uniform symmetric grid on [-L, L]^n_dim, odd point count per axis."""

    n_dim: int
    half_width: float
    npts: int

    def __post_init__(self):
        if self.n_dim not in N_DIMS:
            raise ValueError(f"n_dim must be one of {N_DIMS}, got {self.n_dim}")
        if not 0 < self.half_width < math.inf:
            raise ValueError(f"half_width must be > 0 and finite, got {self.half_width}")
        if self.npts < 16:
            raise ValueError(f"npts must be >= 16, got {self.npts}")
        if self.npts % 2 == 0:
            raise ValueError(f"npts must be odd so y=0 is a gridline, got {self.npts}")

    @property
    def h(self) -> float:
        return 2.0 * self.half_width / (self.npts - 1)

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.npts,) * self.n_dim

    @functools.lru_cache(maxsize=32)
    def axis(self) -> np.ndarray:
        """Node coordinates along one axis (read-only, shared by equal grids)."""
        ax = np.linspace(-self.half_width, self.half_width, self.npts)
        ax.setflags(write=False)
        return ax

    def meshes(self, rows: slice = slice(None)) -> list[np.ndarray]:
        """Coordinate arrays, one per axis, broadcastable to the box of rows on every axis."""
        ax = self.axis()[rows]
        if self.n_dim == 1:
            return [ax]
        return [ax[:, None], ax[None, :]]

    @functools.lru_cache(maxsize=32)
    def radius2(self) -> np.ndarray:
        """|y|^2 on the grid (read-only, shared by equal grids)."""
        ax2 = self.axis() ** 2
        r2 = ax2 if self.n_dim == 1 else ax2[:, None] + ax2[None, :]
        r2.setflags(write=False)
        return r2

    @functools.lru_cache(maxsize=32)
    def radial_table(self) -> tuple:
        """(r2, index): the sorted distinct |y|^2, and each node's place in r2 shaped like the
        grid in the smallest integer dtype (read-only, shared by equal grids)."""
        r2, index = np.unique(self.radius2(), return_inverse=True)
        index = index.reshape(self.shape).astype(np.min_scalar_type(r2.size - 1))
        for table in (r2, index):
            table.setflags(write=False)
        return r2, index

    def radial(self, fn, rows: slice = slice(None)) -> np.ndarray:
        """fn(radius2()[box])'s bits for an elementwise fn on the box of rows on every axis
        (default: the grid), fn evaluated once per distinct |y|^2 up to the box's largest."""
        r2, index = self.radial_table()
        index = index[(rows,) * self.n_dim]
        return np.take(fn(r2[: int(index.max()) + 1]), index)

    @functools.lru_cache(maxsize=32)
    def rho(self) -> np.ndarray:
        """Gaussian weight ρ = e^{-|y|²/4} / (4π)^{n/2} (read-only, shared by equal grids)."""
        rho = np.exp(-self.radius2() / 4.0) / (4.0 * math.pi) ** (self.n_dim / 2.0)
        rho.setflags(write=False)
        return rho

    def rows_within(self, radius: float) -> slice:
        """The axis nodes with |y| < radius: on every axis, a box holding that ball's nodes."""
        ax = self.axis()
        return slice(int(np.searchsorted(ax, -radius, "right")), int(np.searchsorted(ax, radius)))


def hermite(m: int, y) -> np.ndarray:
    """Rescaled Hermite polynomial h_m by the three-term recurrence."""
    if isinstance(m, bool) or not isinstance(m, (int, np.integer)):
        raise TypeError(f"degree must be an integer, got {m!r}")
    if m < 0 or m > MAX_HERMITE_DEGREE:
        raise ValueError(f"degree must be in [0, {MAX_HERMITE_DEGREE}], got {m}")
    y = np.asarray(y, dtype=float)
    prev = np.ones_like(y)
    if m == 0:
        return prev
    cur = y.copy()
    for k in range(1, m):
        prev, cur = cur, y * cur - 2.0 * k * prev
    return cur


def norm_h_beta_sq(beta: MultiIndex) -> float:
    """Squared L²_ρ norm of h_beta: prod_i beta_i! 2^{beta_i} (exact)."""
    out = 1
    for m in beta:
        m = int(m)
        if m < 0:
            raise ValueError("multi-index entries must be >= 0")
        out *= math.factorial(m) * 2**m
    return float(out)


def _trapz_uniform(vals: np.ndarray, h: float, axis: int = -1) -> np.ndarray:
    """Trapezoid rule on a uniform grid along one axis."""
    sl_first = [slice(None)] * vals.ndim
    sl_last = [slice(None)] * vals.ndim
    sl_first[axis] = 0
    sl_last[axis] = -1
    return h * (vals.sum(axis=axis) - 0.5 * (vals[tuple(sl_first)] + vals[tuple(sl_last)]))


def integrate(grid: Grid, vals: np.ndarray) -> float | complex:
    """Trapezoid integral of vals over the grid domain (complex for complex vals)."""
    out = np.asarray(vals, dtype=np.result_type(vals, float))
    for _ in range(grid.n_dim):
        out = _trapz_uniform(out, grid.h, axis=-1)
    return out.item()


@functools.lru_cache(maxsize=32)
def _moment_basis(grid: Grid) -> np.ndarray:
    """Trapezoid weights times [1, y/2, y²/4 − 1/2] along one axis: (npts, 3), read-only."""
    y = grid.axis()
    basis = grid.h * np.column_stack([np.ones_like(y), 0.5 * y, 0.25 * y * y - 0.5])
    basis[[0, -1]] *= 0.5
    basis.setflags(write=False)
    return basis


def gaussian_moments(grid: Grid, f: np.ndarray, weight: np.ndarray,
                     rows: slice = slice(None)) -> tuple:
    """Trapezoid integrals (m0, m1, m2) of f·weight against 1, y_j/2 and y_j y_k/4 − δ_jk/2.

    f and weight live on the box of rows on every axis (default: the whole grid)
    and the integrand is zero beyond it.  m1 is (n,) and m2 symmetric (n, n),
    complex when f is: a complex integrand is contracted through its real view,
    so the contraction with the real basis stays real.
    """
    basis_t = _moment_basis(grid)[rows].T
    npts = basis_t.shape[1]
    vals = np.ascontiguousarray(f * weight)
    is_complex = np.iscomplexobj(vals)
    # components (1 real or 2 complex) on a trailing axis
    vals = (vals.view(np.float64) if is_complex else vals).reshape((npts,) * grid.n_dim + (-1,))
    for axis in range(grid.n_dim):
        # the axes before `axis` already hold basis indices
        vals = basis_t @ vals.reshape((3,) * axis + (npts, -1))
    # raw[a_1, ..., a_n]: moment against the product of basis columns a_j, so
    # y_j y_k/4 - δ_jk/2 sits at index e_j + e_k
    raw = vals[..., 0] + 1j * vals[..., 1] if is_complex else vals[..., 0]
    eye = np.eye(grid.n_dim, dtype=int)
    return raw[(0,) * grid.n_dim], raw[tuple(eye)], raw[tuple(e[:, None] + e for e in eye)]


def second_derivative(vals: np.ndarray, h: float, axis: int = 0) -> np.ndarray:
    """Second derivative, centered interior, one-sided second order at the edges."""
    v = np.moveaxis(np.asarray(vals, dtype=float), axis, 0)
    out = np.empty_like(v)
    out[1:-1] = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / (h * h)
    out[0] = (2.0 * v[0] - 5.0 * v[1] + 4.0 * v[2] - v[3]) / (h * h)
    out[-1] = (2.0 * v[-1] - 5.0 * v[-2] + 4.0 * v[-3] - v[-4]) / (h * h)
    return np.moveaxis(out, 0, axis)


def first_derivative(vals: np.ndarray, h: float, axis: int = 0) -> np.ndarray:
    """First derivative, centered interior, one-sided second order at the edges."""
    v = np.moveaxis(np.asarray(vals, dtype=float), axis, 0)
    out = np.empty_like(v)
    out[1:-1] = (v[2:] - v[:-2]) / (2.0 * h)
    out[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * h)
    out[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * h)
    return np.moveaxis(out, 0, axis)


def diffusion_drift(grid: Grid, vals: np.ndarray) -> np.ndarray:
    """(Δ - y/2·∇) vals by finite differences over the leading grid.n_dim axes.

    Trailing axes, such as the two components of a complex array's real
    view, are carried along.  L = Δ - y/2·∇ + Id is vals + diffusion_drift(grid, vals).
    """
    vals = np.asarray(vals, dtype=float)
    trailing = (1,) * (vals.ndim - grid.n_dim)
    lap = np.zeros_like(vals)
    g = np.zeros_like(vals)
    for axis, y in enumerate(grid.meshes()):
        lap += second_derivative(vals, grid.h, axis=axis)
        g += 0.5 * y.reshape(y.shape + trailing) * first_derivative(vals, grid.h, axis=axis)
    return lap - g

"""Hermite spectral tools for the Gaussian-weighted linearization.

The linearized operator about the blow-up constant is
L = Δ - y/2·∇ + Id, self-adjoint in L²_ρ with ρ(y) = e^{-|y|²/4}/(4π)^{n/2}.
Its eigenfunctions are products of the rescaled Hermite polynomials

    h_0 = 1,  h_1 = y,  h_{m+1}(y) = y h_m(y) - 2 m h_{m-1}(y),

with ∫ h_i h_j ρ dy = i! 2^i δ_{ij} and L h_m = (1 - m/2) h_m per axis.
Grids are uniform, symmetric about the origin, with an odd point count so
y = 0 is a gridline.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

MAX_HERMITE_DEGREE = 30
# spatial dimensions a Grid supports
N_DIMS = (1, 2)
TAIL_WARN_FRACTION = 1e-12

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
        if self.half_width <= 0:
            raise ValueError(f"half_width must be > 0, got {self.half_width}")
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

    def axis(self) -> np.ndarray:
        """Node coordinates along one axis (read-only, shared by equal grids)."""
        return _axis(self)

    def meshes(self) -> list[np.ndarray]:
        """Coordinate arrays broadcastable to self.shape, one per axis."""
        ax = self.axis()
        if self.n_dim == 1:
            return [ax]
        return [ax[:, None], ax[None, :]]

    def radius2(self) -> np.ndarray:
        """|y|^2 on the grid (read-only, shared by equal grids)."""
        return _radius2(self)


@functools.lru_cache(maxsize=32)
def _axis(grid: Grid) -> np.ndarray:
    ax = np.linspace(-grid.half_width, grid.half_width, grid.npts)
    ax.setflags(write=False)
    return ax


@functools.lru_cache(maxsize=32)
def _radius2(grid: Grid) -> np.ndarray:
    ax2 = grid.axis() ** 2
    r2 = ax2 if grid.n_dim == 1 else ax2[:, None] + ax2[None, :]
    r2.setflags(write=False)
    return r2


@dataclass
class Field:
    """Real scalar field sampled on a Grid."""

    grid: Grid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.grid.shape:
            raise ValueError(
                f"values shape {self.values.shape} does not match grid {self.grid.shape}"
            )


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


def hermite_multi(beta: MultiIndex, ys) -> np.ndarray:
    """Product of per-axis Hermite polynomials: prod_i h_{beta_i}(y_i).

    ys is a sequence of coordinate arrays (broadcastable against each
    other), one per axis, as returned by Grid.meshes().
    """
    beta = tuple(int(m) for m in beta)
    if len(beta) != len(ys):
        raise ValueError(f"beta length {len(beta)} does not match {len(ys)} axes")
    out = hermite(beta[0], ys[0])
    for m, y in zip(beta[1:], ys[1:]):
        out = out * hermite(m, y)
    return out


def weight_rho(y2, n_dim: int) -> np.ndarray:
    """Gaussian weight ρ = e^{-|y|²/4} / (4π)^{n/2}, given the squared radius."""
    y2 = np.asarray(y2, dtype=float)
    return np.exp(-y2 / 4.0) / (4.0 * math.pi) ** (n_dim / 2.0)


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


def gaussian_moments(grid: Grid, f: np.ndarray, weight: np.ndarray) -> tuple:
    """Trapezoid integrals (m0, m1, m2) of f·weight against 1, y_j/2 and y_j y_k/4 − δ_jk/2.

    m1 has shape (n,) and m2 is symmetric (n, n); all are complex when f
    is.  A complex integrand is contracted through its real view, so the
    axis-by-axis contraction with the real basis stays real.
    """
    vals = np.ascontiguousarray(f * weight)
    is_complex = np.iscomplexobj(vals)
    # components (1 real or 2 complex) on a trailing axis
    vals = (vals.view(np.float64) if is_complex else vals).reshape(grid.shape + (-1,))
    basis_t = _moment_basis(grid).T
    for axis in range(grid.n_dim):
        # the axes before `axis` already hold basis indices
        vals = basis_t @ vals.reshape((3,) * axis + (grid.npts, -1))
    # raw[a_1, ..., a_n]: moment against the product of basis columns a_j, so
    # y_j y_k/4 - δ_jk/2 sits at index e_j + e_k
    raw = vals[..., 0] + 1j * vals[..., 1] if is_complex else vals[..., 0]
    eye = np.eye(grid.n_dim, dtype=int)
    return raw[(0,) * grid.n_dim], raw[tuple(eye)], raw[tuple(e[:, None] + e for e in eye)]


@functools.lru_cache(maxsize=256)
def _axis_tail_integral(m: int, half_width: float) -> float:
    """∫_{L}^{∞} |h_m(y)| e^{-y²/4} dy, approximated on a fine extension grid."""
    # integrand decays super-fast; 40 units of extension is plenty past any
    # polynomial turnaround for m <= 30
    y = np.linspace(half_width, half_width + 40.0, 4001)
    vals = np.abs(hermite(m, y)) * np.exp(-y * y / 4.0)
    return float(_trapz_uniform(vals, y[1] - y[0]))


def _tail_fraction(f: Field, beta: MultiIndex) -> float:
    """Estimated fraction of ∫|f h_beta ρ| mass lost beyond the grid edge.

    Bounds the exterior part by max|f| times the per-axis Gaussian tail of
    |h_m|; used only to warn when the grid is too narrow for the requested
    projection.
    """
    grid = f.grid
    fmax = float(np.max(np.abs(f.values)))
    if fmax == 0.0:
        return 0.0
    # on-grid mass of the integrand
    integrand = np.abs(f.values * hermite_multi(beta, grid.meshes()))
    integrand = integrand * weight_rho(grid.radius2(), grid.n_dim)
    mass = integrate(grid, integrand)
    # per-axis interior and tail factors of the separable bound
    norm = (4.0 * math.pi) ** (grid.n_dim / 2.0)
    ax = grid.axis()
    tail_bound = 0.0
    interior = []
    tails = []
    for m in beta:
        vals = np.abs(hermite(int(m), ax)) * np.exp(-ax * ax / 4.0)
        interior.append(float(_trapz_uniform(vals, grid.h)))
        tails.append(2.0 * _axis_tail_integral(int(m), grid.half_width))
    # tail of a product region: sum over axes of (tail_i * prod of full_j)
    for i in range(len(beta)):
        term = tails[i]
        for j in range(len(beta)):
            if j != i:
                term *= interior[j] + tails[j]
        tail_bound += term
    tail_bound *= fmax / norm
    denom = mass + tail_bound
    return tail_bound / denom if denom > 0 else 0.0


def project(f: Field, beta: MultiIndex) -> float:
    """Normalized ρ-weighted projection coefficient of f onto h_beta.

    Returns ∫ f h_beta ρ / ‖h_beta‖²_ρ by the trapezoid rule, so that
    project(h_beta, beta) = 1.  Warns if the Gaussian tail beyond the grid
    half-width could contribute more than 1e-12 of the integrand mass.
    """
    beta = tuple(int(m) for m in beta)
    if len(beta) != f.grid.n_dim:
        raise ValueError(f"beta {beta} does not match grid dimension {f.grid.n_dim}")
    frac = _tail_fraction(f, beta)
    if frac > TAIL_WARN_FRACTION:
        warnings.warn(
            f"grid half-width {f.grid.half_width} too narrow for beta={beta}: "
            f"estimated tail fraction {frac:.2e}",
            RuntimeWarning,
            stacklevel=2,
        )
    integrand = f.values * hermite_multi(beta, f.grid.meshes())
    integrand = integrand * weight_rho(f.grid.radius2(), f.grid.n_dim)
    return integrate(f.grid, integrand) / norm_h_beta_sq(beta)


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


def apply_L(f: Field) -> Field:
    """Apply L = Δ - y/2·∇ + Id by finite differences on the grid."""
    grid = f.grid
    h = grid.h
    ax = grid.axis()
    out = f.values.copy()
    for axis_idx in range(grid.n_dim):
        y = ax if grid.n_dim == 1 else np.expand_dims(ax, tuple(i for i in range(grid.n_dim) if i != axis_idx))
        out = out + second_derivative(f.values, h, axis=axis_idx)
        out = out - 0.5 * y * first_derivative(f.values, h, axis=axis_idx)
    return Field(grid, out)

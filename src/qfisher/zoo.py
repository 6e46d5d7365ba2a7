"""Reproducible test densities: smooth random fields and standard shapes.

Random members are softplus of a fixed-seed band-limited field, damped by a
Gaussian envelope so that the boundary mass stays far below the constructor
threshold while the values remain strictly positive.
"""

from __future__ import annotations

import numpy as np

from .grid import GridDensity, GridSpec

# Envelope half-width as a fraction of the grid half-extent; exp(-5.5^2) ~ 7e-14
# at the boundary keeps every zoo member boundary-negligible.
ENVELOPE_SIGMA_FRACTION = 1.0 / 5.5


def _envelope(grid: GridSpec) -> np.ndarray:
    e = 0.0
    for ax, x in enumerate(grid.open_mesh()):
        c = 0.5 * (grid.lo[ax] + grid.hi[ax])
        half = 0.5 * (grid.hi[ax] - grid.lo[ax])
        s = ENVELOPE_SIGMA_FRACTION * half
        e = e + ((x - c) / s) ** 2
    return np.exp(-e)


def _smooth_field(grid: GridSpec, rng: np.random.Generator, n_modes: int) -> np.ndarray:
    field = np.zeros(grid.shape)
    mesh = grid.open_mesh()
    for _ in range(n_modes):
        amp = rng.normal(0.0, 1.0) / np.sqrt(n_modes)
        arg = rng.uniform(0.0, 2.0 * np.pi)  # the phase
        for ax, x in enumerate(mesh):
            span = grid.hi[ax] - grid.lo[ax]
            freq = rng.uniform(0.5, 3.0) * 2.0 * np.pi / span
            arg = arg + freq * rng.normal(0.0, 1.0) * x
        field = field + amp * np.cos(arg)
    return field


def random_density(grid: GridSpec, seed: int, n_modes: int = 6) -> GridDensity:
    """Strictly positive, smooth, boundary-negligible random density."""
    rng = np.random.default_rng(seed)
    field = _smooth_field(grid, rng, n_modes)
    vals = np.logaddexp(0.0, 3.0 * field) * _envelope(grid)
    return GridDensity.from_values(grid, vals, normalize=True)


def random_triple(grid: GridSpec, seed: int) -> tuple[GridDensity, GridDensity, GridDensity]:
    """(f1, f2, g) with independent shapes from one seed; g strictly positive."""
    return (
        random_density(grid, seed * 3 + 0),
        random_density(grid, seed * 3 + 1),
        random_density(grid, seed * 3 + 2),
    )


def gaussian_density(grid: GridSpec, mean=0.0, sigma=1.0) -> GridDensity:
    """Isotropic or per-axis diagonal normal, trapezoid-normalized."""
    mean = np.broadcast_to(np.asarray(mean, dtype=float), (grid.dims,))
    sigma = np.broadcast_to(np.asarray(sigma, dtype=float), (grid.dims,))
    if np.any(sigma <= 0.0):
        raise ValueError("sigma must be positive")
    expo = 0.0
    for ax, x in enumerate(grid.open_mesh()):
        expo = expo + ((x - mean[ax]) / sigma[ax]) ** 2
    return GridDensity.from_values(grid, np.exp(-0.5 * expo), normalize=True)


def laplace_smoothed_density(grid: GridSpec, theta: float = 0.0, eps: float = 0.005) -> GridDensity:
    """1D Laplace with the |x| kink smoothed as sqrt(x^2 + eps^2)."""
    if grid.dims != 1:
        raise ValueError("Laplace family is one-dimensional here")
    x = grid.axes()[0]
    vals = np.exp(-np.sqrt((x - theta) ** 2 + eps**2))
    return GridDensity.from_values(grid, vals, normalize=True)


def smoothed_uniform(grid: GridSpec, support_lo: float, support_hi: float, edge: float = 0.05) -> GridDensity:
    """1D near-uniform plateau with logistic shoulders; strictly positive."""
    if grid.dims != 1:
        raise ValueError("smoothed uniform is one-dimensional here")
    x = grid.axes()[0]
    up = 1.0 / (1.0 + np.exp(-(x - support_lo) / edge))
    down = 1.0 / (1.0 + np.exp((x - support_hi) / edge))
    return GridDensity.from_values(grid, up * down * _envelope(grid), normalize=True)


def mixture_density(grid: GridSpec, centers, sigmas, weights) -> GridDensity:
    """1D Gaussian mixture."""
    if grid.dims != 1:
        raise ValueError("mixture helper is one-dimensional here")
    x = grid.axes()[0]
    vals = np.zeros_like(x)
    for c, s, w in zip(centers, sigmas, weights):
        vals = vals + w * np.exp(-0.5 * ((x - c) / s) ** 2) / s
    return GridDensity.from_values(grid, vals, normalize=True)


def random_wavefunction(grid: GridSpec, seed: int, n_modes: int = 5):
    """Complex smooth random field with Gaussian envelope, L2-normalized values.

    Returned as raw complex values; wrap with uncertainty.WaveFunction.
    """
    rng = np.random.default_rng(seed)
    re = _smooth_field(grid, rng, n_modes)
    im = _smooth_field(grid, rng, n_modes)
    vals = (1.0 + 0.5 * re + 0.5j * im) * _envelope(grid)
    return vals

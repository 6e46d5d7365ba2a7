"""Chi^beta divergences and the Holder bound on statistic differences.

chi_beta(f1, f2)      = E_{f2}[|1 - f1/f2|^beta]
chi_beta_g(f1, f2, g) = E_g[|(f2 - f1)/g|^beta]

The second form averages the squared-style deviation against a third density
g; with g = f2 it reduces exactly to the first.  Both are jointly convex in
(f1, f2), which is what makes them contract under coarse-graining.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import GridDensity


def _check_same_grid(*densities: GridDensity) -> None:
    g0 = densities[0].grid
    for d in densities[1:]:
        if d.grid != g0:
            raise ValueError("densities must share one grid")


def chi_beta_g(f1: GridDensity, f2: GridDensity, g: GridDensity, beta: float) -> float:
    """Modified divergence E_g[|(f2 - f1)/g|^beta] by trapezoid quadrature."""
    if not beta > 1.0:
        raise ValueError("beta must exceed 1")
    _check_same_grid(f1, f2, g)
    value = g.masked_power_integral(
        np.abs(f2.values - f1.values),
        beta,
        mismatch="f2 - f1 carries weight where g sits below the support floor; "
        "the modified divergence is dominated by unresolvable tail ratios",
    )
    return float(value)


def chi_beta(f1: GridDensity, f2: GridDensity, beta: float) -> float:
    """Standard divergence E_{f2}[|1 - f1/f2|^beta]; equals chi_beta_g with g = f2."""
    return chi_beta_g(f1, f2, f2, beta)


@dataclass(frozen=True)
class HolderBound:
    lhs: float  # |E_{f2}[T] - E_{f1}[T]|
    rhs: float  # E_g[|T|^alpha]^(1/alpha) * chi_beta_g^(1/beta)

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs


def holder_statistic_bound(
    t_field: np.ndarray,
    f1: GridDensity,
    f2: GridDensity,
    g: GridDensity,
    alpha: float,
    beta: float,
) -> HolderBound:
    """Bound |E_{f2}[T] - E_{f1}[T]| by the alpha-moment of T under g times chi^(1/beta)."""
    if abs(1.0 / alpha + 1.0 / beta - 1.0) > 1e-12:
        raise ValueError("alpha and beta must be Holder conjugate")
    _check_same_grid(f1, f2, g)
    t = np.asarray(t_field, dtype=float)
    if t.shape != f1.grid.shape:
        raise ValueError("statistic field must match the grid shape")
    lhs = abs(f2.expectation(t) - f1.expectation(t))
    t_mom = g.expectation(np.abs(t) ** alpha) ** (1.0 / alpha)
    chi = chi_beta_g(f1, f2, g, beta) ** (1.0 / beta)
    return HolderBound(lhs=float(lhs), rhs=float(t_mom * chi))

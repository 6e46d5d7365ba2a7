"""Uniform rectangular grids, densities on them, and trapezoid quadrature.

All densities in this package live on node-centered tensor grids: each axis
holds `points` equally spaced nodes from `lo` to `hi` inclusive.  Integrals
are trapezoid sums, which makes quadrature a fixed linear functional and
keeps every downstream check deterministic.
"""

from __future__ import annotations

import csv
import json
import warnings
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .errors import BoundaryMassWarning, NonIntegrable, SupportMismatch

# Relative threshold below which boundary density mass is considered negligible.
BOUNDARY_REL_TOL = 1e-10
# Values at or below this fraction of the maximum lie outside a density's support.
SUPPORT_REL_TOL = 1e-12
# Cells stripped from the edge of a compact support before quadrature.
EDGE_EXCLUSION_CELLS = 2


@dataclass(frozen=True)
class GridSpec:
    """Axis-aligned uniform grid: nodes linspace(lo[a], hi[a], points[a]) per axis."""

    lo: tuple[float, ...]
    hi: tuple[float, ...]
    points: tuple[int, ...]

    def __post_init__(self):
        if not (len(self.lo) == len(self.hi) == len(self.points)):
            raise ValueError("lo, hi, points must have equal length")
        if len(self.points) == 0:
            raise ValueError("grid needs at least one axis")
        for a, (l, h, n) in enumerate(zip(self.lo, self.hi, self.points)):
            if not (np.isfinite(l) and np.isfinite(h) and h > l):
                raise ValueError(f"axis {a}: need finite lo < hi")
            if n < 2:
                raise ValueError(f"axis {a}: need at least 2 points")
        object.__setattr__(self, "lo", tuple(float(x) for x in self.lo))
        object.__setattr__(self, "hi", tuple(float(x) for x in self.hi))
        object.__setattr__(self, "points", tuple(int(n) for n in self.points))

    @staticmethod
    def line(lo: float, hi: float, points: int) -> "GridSpec":
        return GridSpec((lo,), (hi,), (points,))

    @staticmethod
    def box(lo: float, hi: float, points: int, dims: int) -> "GridSpec":
        return GridSpec((lo,) * dims, (hi,) * dims, (points,) * dims)

    @property
    def dims(self) -> int:
        return len(self.points)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.points

    @property
    def spacing(self) -> tuple[float, ...]:
        return tuple(
            (h - l) / (n - 1) for l, h, n in zip(self.lo, self.hi, self.points)
        )

    def axes(self) -> tuple[np.ndarray, ...]:
        return _axes(self)

    def mesh(self) -> list[np.ndarray]:
        """Coordinate arrays broadcast to the full grid shape (ij indexing)."""
        return list(np.meshgrid(*self.axes(), indexing="ij"))

    def open_mesh(self) -> list[np.ndarray]:
        """Axis a as a read-only view of shape (1, .., points[a], .., 1).

        Pointwise arithmetic on these broadcasts to the full grid and gives
        the same values as on `mesh()`, without a grid-sized array per axis.
        """
        return list(np.meshgrid(*self.axes(), indexing="ij", sparse=True, copy=False))

    def trap_weights(self) -> np.ndarray:
        """Trapezoid quadrature weights, shape == grid shape."""
        return _trap_weights(self)

    def radius(self, norm_p: float = 2.0) -> np.ndarray:
        """Field of ||x||_p over the grid: a new, writable array of the grid shape.

        Built from `open_mesh()`, so it equals `lp_norm(self.mesh(), norm_p)`
        bit for bit.  It is recomputed on every call: a cached field would
        keep a grid-sized array alive between calls.
        """
        return lp_norm(self.open_mesh(), norm_p)

    def shifted(self, delta) -> "GridSpec":
        """Translate the coordinate frame by -delta (new origin at delta)."""
        d = np.broadcast_to(np.asarray(delta, dtype=float), (self.dims,))
        lo = tuple(l - x for l, x in zip(self.lo, d))
        hi = tuple(h - x for h, x in zip(self.hi, d))
        return GridSpec(lo, hi, self.points)


@lru_cache(maxsize=128)
def _axes(spec: GridSpec) -> tuple[np.ndarray, ...]:
    out = []
    for l, h, n in zip(spec.lo, spec.hi, spec.points):
        ax = np.linspace(l, h, n)
        ax.setflags(write=False)
        out.append(ax)
    return tuple(out)


@lru_cache(maxsize=64)
def _trap_weights(spec: GridSpec) -> np.ndarray:
    w = np.array([1.0])
    for h, n in zip(spec.spacing, spec.points):
        w1 = np.full(n, h)
        w1[0] = w1[-1] = h / 2.0
        w = np.multiply.outer(w, w1)
    w = w.reshape(spec.shape)
    w.setflags(write=False)
    return w


def lp_norm(components, p: float) -> np.ndarray:
    """||v||_p applied pointwise to a list of component arrays.

    The components may be any arrays that broadcast together (for example
    `GridSpec.open_mesh()`); the result has their broadcast shape.  They are
    folded left to right with binary ufuncs, which is the order a reduction
    over stacked full-size components takes, so both give the same bits.
    """
    comps = [np.abs(np.asarray(c, dtype=float)) for c in components]
    if len(comps) == 1:
        return comps[0]
    if p == np.inf:
        return reduce(np.maximum, comps)
    if p < 1.0:
        raise ValueError("p-norm needs p >= 1")
    if p == 1.0:
        return reduce(np.add, comps)
    if p == 2.0:
        return np.sqrt(reduce(np.add, [c * c for c in comps]))
    return reduce(np.add, [c**p for c in comps]) ** (1.0 / p)


def boundary_abs_max(values) -> float:
    """Largest |value| on the outer faces of a grid-shaped array."""
    v = np.asarray(values)
    return max(
        float(np.abs(np.take(v, i, axis=a)).max()) for a in range(v.ndim) for i in (0, -1)
    )


def support_floor(values: np.ndarray) -> float:
    """Value at or below which a node lies outside the support of `values`."""
    return max(SUPPORT_REL_TOL * float(values.max()), 1e-300)


def _erode_support(mask: np.ndarray, iterations: int) -> np.ndarray:
    """Shrink a mask; cells beyond the domain edge count as inside."""
    m = mask
    for _ in range(iterations):
        p = np.pad(m, 1, mode="constant", constant_values=True)
        center = tuple(slice(1, -1) for _ in range(m.ndim))
        out = m.copy()
        for ax in range(m.ndim):
            lo = list(center)
            hi = list(center)
            lo[ax] = slice(0, -2)
            hi[ax] = slice(2, None)
            out = out & p[tuple(lo)] & p[tuple(hi)]
        m = out
    return m


def interior_support(values: np.ndarray) -> np.ndarray:
    """Support mask of `values`, less EDGE_EXCLUSION_CELLS cells at a compact
    support's edge, where one-sided stencil kinks would enter the sum."""
    mask = values > support_floor(values)
    if not np.all(mask):
        mask = _erode_support(mask, EDGE_EXCLUSION_CELLS)
    return mask


def dual_exponent(p: float) -> float:
    """Holder conjugate p* with 1/p + 1/p* = 1; requires 1 < p < inf."""
    if not (1.0 < p < np.inf):
        raise ValueError("dual exponent defined only for 1 < p < inf")
    return p / (p - 1.0)


@dataclass(frozen=True)
class HolderPair:
    """Conjugate exponent pair with 1/alpha + 1/beta = 1, both > 1."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not (self.alpha > 1.0 and np.isfinite(self.alpha)):
            raise ValueError("alpha must be finite and > 1 (alpha = 1 pairs with beta = inf)")
        if not (self.beta > 1.0 and np.isfinite(self.beta)):
            raise ValueError("beta must be finite and > 1")
        if abs(1.0 / self.alpha + 1.0 / self.beta - 1.0) > 1e-12:
            raise ValueError("alpha and beta are not Holder conjugate")

    @staticmethod
    def from_alpha(alpha: float) -> "HolderPair":
        if not (alpha > 1.0 and np.isfinite(alpha)):
            raise ValueError("alpha must be finite and > 1")
        return HolderPair(float(alpha), alpha / (alpha - 1.0))

    @staticmethod
    def from_beta(beta: float) -> "HolderPair":
        if not (beta > 1.0 and np.isfinite(beta)):
            raise ValueError("beta must be finite and > 1")
        return HolderPair(beta / (beta - 1.0), float(beta))


@dataclass(frozen=True)
class GridDensity:
    """Nonnegative values on a GridSpec with trapezoid integral 1."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != self.grid.shape:
            raise ValueError(f"values shape {v.shape} != grid shape {self.grid.shape}")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @staticmethod
    def from_values(
        grid: GridSpec,
        values,
        *,
        normalize: bool = True,
        check_boundary: bool = True,
        strict: bool = False,
    ) -> "GridDensity":
        """Validate, optionally renormalize, and wrap raw grid values.

        With normalize=False the values are trusted (mass must still be 1
        within 1e-6); used by mass-conserving transforms that must not
        rescale, e.g. coarse-graining and diffusion steps.
        """
        v = np.asarray(values, dtype=float)
        if v.shape != grid.shape:
            raise ValueError(f"values shape {v.shape} != grid shape {grid.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("density values must be finite")
        vmax = float(v.max(initial=0.0))
        if vmax <= 0.0:
            raise NonIntegrable("density has no positive mass")
        if float(v.min()) < -1e-12 * vmax:
            raise ValueError("density values must be nonnegative")
        v = np.clip(v, 0.0, None)
        w = grid.trap_weights()
        z = float((w * v).sum())
        if not np.isfinite(z) or z <= 0.0:
            raise NonIntegrable("density mass is zero or not finite")
        if normalize:
            v = v / z
        elif abs(z - 1.0) > 1e-6:
            raise ValueError(f"unnormalized construction requires mass 1, got {z!r}")
        d = GridDensity(grid, v)
        if check_boundary:
            b = boundary_abs_max(d.values)
            if b > BOUNDARY_REL_TOL * float(d.values.max()):
                msg = (
                    f"boundary density {b:.3e} exceeds {BOUNDARY_REL_TOL:.0e} x max; "
                    "widen the grid or pass check_boundary=False for compact support"
                )
                if strict:
                    raise ValueError(msg)
                warnings.warn(msg, BoundaryMassWarning, stacklevel=2)
        return d

    # -- quadrature ---------------------------------------------------------

    def integral(self, field=None) -> float:
        """Trapezoid integral of `field` (default: the density itself)."""
        w = self.grid.trap_weights()
        if field is None:
            return float((w * self.values).sum())
        return float((w * np.asarray(field)).sum())

    def expectation(self, field) -> float:
        """Trapezoid integral of field * density."""
        w = self.grid.trap_weights()
        return float((w * np.asarray(field) * self.values).sum())

    def mean(self) -> np.ndarray:
        return np.array([self.expectation(x) for x in self.grid.mesh()])

    def masked_power_integral(
        self, num: np.ndarray, beta: float,
        mismatch: str = "gradient field carries weight where g vanishes",
    ) -> float:
        """E_g[(num/g)^beta], computed as the integral of num^beta g^(1-beta)
        over the support of this density g.

        Nodes with g below the support floor are excluded; clamping g at the
        floor there UNDER-estimates their contribution, so if even the clamped
        total is material relative to the masked value the expectation is
        divergent in the continuum and SupportMismatch(mismatch) is raised
        instead of a number.  Rounding-scale tail residue passes through.
        """
        gv = self.values
        tol = support_floor(gv)
        mask = (gv > tol) & (num > 0.0)
        integrand = np.zeros_like(gv)
        integrand[mask] = num[mask] ** beta * gv[mask] ** (1.0 - beta)
        value = self.integral(integrand)
        off = (gv <= tol) & (num > 0.0)
        if bool(np.any(off)):
            leaked = self.integral(np.where(off, num**beta * tol ** (1.0 - beta), 0.0))
            if leaked > 1e-6 * max(value, 1e-300):
                raise SupportMismatch(mismatch)
        return value

    def spatial_gradient(self) -> list[np.ndarray]:
        """Central-difference gradient per axis (one-sided at the domain edge)."""
        g = np.gradient(self.values, *self.grid.spacing)
        return list(g) if isinstance(g, (list, tuple)) else [g]

    def on_shifted_grid(self, delta) -> "GridDensity":
        """Same values with the origin moved to `delta` (pure relabeling)."""
        return GridDensity(self.grid.shifted(delta), self.values)

    # -- serialization ------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "dims": self.grid.dims,
            "lo": list(self.grid.lo),
            "hi": list(self.grid.hi),
            "points": list(self.grid.points),
            "values": self.values.ravel(order="C").tolist(),
        }

    @staticmethod
    def from_json_dict(d: dict) -> "GridDensity":
        grid = GridSpec(tuple(d["lo"]), tuple(d["hi"]), tuple(d["points"]))
        vals = np.asarray(d["values"], dtype=float).reshape(grid.shape, order="C")
        return GridDensity.from_values(grid, vals, normalize=False, check_boundary=False)

    def save_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh)

    @staticmethod
    def load_json(path) -> "GridDensity":
        with open(path) as fh:
            return GridDensity.from_json_dict(json.load(fh))

    def save_csv(self, path) -> None:
        mesh = self.grid.mesh()
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([f"x{a}" for a in range(self.grid.dims)] + ["value"])
            cols = [m.ravel(order="C") for m in mesh] + [self.values.ravel(order="C")]
            for row in zip(*cols):
                writer.writerow([repr(float(x)) for x in row])

"""Uniform rectangular grids, densities on them, and trapezoid quadrature.

All densities in this package live on node-centered tensor grids: each axis
holds `points` equally spaced nodes from `lo` to `hi` inclusive.  Integrals
are trapezoid sums, which makes quadrature a fixed linear functional and
keeps every downstream check deterministic.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .errors import BoundaryMassWarning, NonIntegrable, SupportMismatch, warn

# Relative threshold below which boundary density mass is considered negligible.
BOUNDARY_REL_TOL = 1e-10
# Values at or below this fraction of the maximum lie outside a density's support.
SUPPORT_REL_TOL = 1e-12


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
            if not (isinstance(n, (int, np.integer)) or isinstance(n, float) and n.is_integer()):
                raise ValueError(f"axis {a}: need an integral point count, got {n!r}")
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
        return _trap_weights(self.spacing, self.points)

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


# keyed on what the weights depend on, so shifted copies of a grid share them
@lru_cache(maxsize=64)
def _trap_weights(spacing: tuple[float, ...], points: tuple[int, ...]) -> np.ndarray:
    w = np.array([1.0])
    for h, n in zip(spacing, points):
        w1 = np.full(n, h)
        w1[0] = w1[-1] = h / 2.0
        w = np.multiply.outer(w, w1)
    w = w.reshape(points)
    w.setflags(write=False)
    return w


def lp_norm(components, p: float) -> np.ndarray:
    """||v||_p applied pointwise to a list of component arrays.

    The components may be any arrays that broadcast together (for example
    `GridSpec.open_mesh()`); the result has their broadcast shape.  They are
    folded left to right with binary ufuncs, which is the order a reduction
    over stacked full-size components takes, so both give the same bits.
    p = 1 and p = 2 sum |c|^p unscaled.  Any other p scales by the largest
    component, top * (sum (c/top)^p)^(1/p),
    so that |c|^p neither underflows (p near 1 or large, |c| < 1) nor
    overflows (large p, |c| > 1).
    """
    return _norm_of_magnitudes([np.abs(np.asarray(c, dtype=float)) for c in components], p)


def _norm_of_magnitudes(comps: list, p: float):
    """`lp_norm` of the magnitudes |c| (at p = 2 they may be c itself: the
    squares are the same)."""
    if len(comps) == 1:
        return comps[0]
    if p == 2.0:
        return reduce(np.add, [c**p for c in comps]) ** (1.0 / p)
    if p == np.inf:
        return reduce(np.maximum, comps)
    if p < 1.0:
        raise ValueError("p-norm needs p >= 1")
    if p == 1.0:
        return reduce(np.add, comps)
    top = reduce(np.maximum, comps)
    safe = np.where((top > 0.0) & (top < np.inf), top, 1.0)
    return reduce(np.add, [(c / safe) ** p for c in comps]) ** (1.0 / p) * top


# nodes (or draws) per block of a streamed pass: 2D work runs over strips of
# grid rows and the sampler over batches of draws, so its temporaries scale
# with a block, not with the grid or the sample
BLOCK = 16384


def blocks(n: int, size: int) -> list[slice]:
    """Slices of `size` items that cover range(n) once, in order; the last
    one ends at n."""
    return [slice(lo, min(lo + size, n)) for lo in range(0, n, size)]


def row_strips(shape: tuple[int, ...]) -> list[slice]:
    """`blocks` of rows (axis 0) of a grid array of `shape`, each of about
    BLOCK nodes and at least one row.  A line is one strip, so 1D sums are
    those of the whole array."""
    if len(shape) == 1:
        return [slice(0, shape[0])]
    return blocks(shape[0], max(1, BLOCK // math.prod(shape[1:])))


def strip_radius(mesh: list[np.ndarray], rows: slice, norm_p: float) -> np.ndarray:
    """||x||_p on the rows `rows` of a grid whose `open_mesh()` is `mesh`:
    those rows of `GridSpec.radius(norm_p)`, bit for bit."""
    x0, *rest = mesh
    return _norm_of_magnitudes([np.abs(c) for c in (x0[rows], *rest)], norm_p)


def strip_gradient(values: np.ndarray, rows: slice, spacing) -> list[np.ndarray]:
    """`np.gradient(values, *spacing)` on the rows `rows` of a grid array, bit
    for bit, from those rows and a halo of one row on each side: central
    differences inside, one-sided ones at the grid's faces only."""
    top = max(rows.start - 1, 0)
    inner = slice(rows.start - top, rows.stop - top)
    d0 = _axis_gradient(values[top:rows.stop + 1], spacing[0], 0)[inner]
    return [d0] + [_axis_gradient(values[rows], h, a) for a, h in enumerate(spacing[1:], 1)]


def _axis_gradient(values: np.ndarray, h: float, axis: int) -> np.ndarray:
    """np.gradient(values, h, axis=axis) with the same passes: central
    differences inside, one-sided differences at the two ends.  The central
    pass runs over the flattened array, node i against i -+ stride, and the
    ends, where it crossed a face, are then overwritten."""
    out = np.empty(values.shape)
    s = math.prod(values.shape[axis + 1:])
    f, d = values.ravel(), out.ravel()
    np.subtract(f[2 * s:], f[:-2 * s], out=d[s:-s])
    d[s:-s] /= 2.0 * h
    f, d = np.moveaxis(values, axis, 0), np.moveaxis(out, axis, 0)
    np.subtract(f[1:2], f[:1], out=d[:1])
    d[:1] /= h
    np.subtract(f[-1:], f[-2:-1], out=d[-1:])
    d[-1:] /= h
    return out


def boundary_abs_max(values) -> float:
    """Largest |value| on the outer faces of a grid-shaped array."""
    v = np.asarray(values)
    return strip_face_abs_max(v, slice(0, len(v)), len(v))


def strip_face_abs_max(strip: np.ndarray, rows: slice, n_rows: int) -> float:
    """Largest |value| of `strip`, the rows `rows` of a grid array with
    `n_rows` rows, on that array's outer faces."""
    faces = [np.take(strip, i, axis=a) for a in range(1, strip.ndim) for i in (0, -1)]
    faces += [strip[i] for i, edge in ((0, rows.start == 0), (-1, rows.stop == n_rows)) if edge]
    return max(float(np.abs(f).max()) for f in faces)


def support_floor(values: np.ndarray) -> float:
    """Value at or below which a node lies outside the support of `values`."""
    return max(SUPPORT_REL_TOL * float(values.max()), 1e-300)


def support_power(values: np.ndarray, y: float, floor: float = 0.0) -> np.ndarray:
    """values**y where values > floor and 0 elsewhere, as a new array: the one
    rule that restricts a power to a support.  No power is taken at or below
    the floor, so a negative y meets no zero, and with y > 0 and floor 0 the
    bits are those of np.where(values > 0, values, 0)**y.  glibc's libm takes
    about 4x as long for a power of zero as for one of x > 0 (4.2 against
    1.0 ms per 513^2 array), and a compact q-Gaussian is mostly zeros."""
    out = np.zeros(values.shape)
    np.power(values, y, out=out, where=values > floor)
    return out


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
                warn(f"boundary density {b:.3e} exceeds {BOUNDARY_REL_TOL:.0e} x max; "
                     "widen the grid or pass check_boundary=False for compact support",
                     BoundaryMassWarning)
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
        return np.array([self.expectation(x) for x in self.grid.open_mesh()])

    def masked_power_integral(
        self, num: np.ndarray, beta: float,
        mismatch: str = "gradient field carries weight where g vanishes",
    ) -> float:
        """E_g[(num/g)^beta], the integral of num^beta g^(1-beta) over the
        support of this density g (both powers by `support_power`), held to
        `check_leak`."""
        num_beta = support_power(num, beta)
        floor = support_floor(self.values)
        value = self.integral(num_beta * support_power(self.values, 1.0 - beta, floor))
        self.check_leak(num_beta, beta, value, mismatch)
        return value

    def check_leak(self, num_beta: np.ndarray, beta: float, value: float, mismatch: str) -> None:
        """SupportMismatch(mismatch) unless `value`, E_g[(num/g)^beta] over the
        support of g, is the whole of it; `num_beta` is num^beta (0 where
        num <= 0).  Clamping g at the support floor below it UNDER-estimates what the
        nodes there add, so if even that clamped total exceeds 1e-6 of `value`
        the expectation is divergent in the continuum.  Rounding-scale tail
        residue passes through."""
        gv = self.values
        floor = support_floor(gv)
        off = (gv <= floor) & (num_beta > 0.0)
        if bool(np.any(off)):
            leaked = self.integral(np.where(off, num_beta * floor ** (1.0 - beta), 0.0))
            if leaked > 1e-6 * max(value, 1e-300):
                raise SupportMismatch(mismatch)

    def spatial_gradient(self) -> list[np.ndarray]:
        """Central-difference gradient per axis (one-sided at the domain edge)."""
        return [_axis_gradient(self.values, h, a) for a, h in enumerate(self.grid.spacing)]

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
        # json.dumps runs the C encoder, json.dump the pure-Python one; same bytes
        write_text(path, json.dumps(self.to_json_dict()))

    @staticmethod
    def load_json(path) -> "GridDensity":
        with open(path) as fh:
            return GridDensity.from_json_dict(json.load(fh))


def _csv_cell(v) -> str:
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


# binary mode where the platform has one (Windows), so "\n" stays one byte
_WRITE_FLAGS = os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0)


def write_text(path, text: str) -> None:
    """Writes `text` (UTF-8) to `path` as its whole content: the one output
    writer.  An existing file is overwritten in place and then trimmed to the
    new length; it is never truncated to zero first (no O_TRUNC), because on
    a disk that discards freed blocks that truncation costs far more than the
    write (0.2-0.45 ms against about 15 us for 10 KB on ext4 mounted with
    `discard`).  A missing file is created.

    Nothing is synced, as before.  A crash mid-write may leave old and new
    bytes mixed in the file, where truncate-then-write could leave it cut
    short."""
    with open(os.open(path, _WRITE_FLAGS, 0o666), "wb") as fh:
        fh.write(text.encode())
        fh.truncate()


def write_csv(path, header: list[str], rows) -> None:
    """Comma-separated rows in the order given, with LF line ends: floats as
    `repr`, anything else as `str`."""
    lines = [",".join(header), *(",".join(map(_csv_cell, row)) for row in rows)]
    write_text(path, "\n".join(lines) + "\n")

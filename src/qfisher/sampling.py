"""Inverse-CDF sampling from grid densities (1D and 2D).

The sampled law is the piecewise-(bi)linear interpolant of the node values,
the same object the trapezoid rule integrates exactly, so sampler moments and
quadrature moments agree up to O(h^2).

A 2D draw picks its axis-0 coordinate from the marginal, then a grid row,
then its axis-1 coordinate from that row's piecewise-linear law.  The last
step runs in one pass over all draws: sorted stably by row, they take one
block of uniforms, and one bisection over the flattened row CDFs, each draw
confined to its own row's slice, places them all.  A fixed seed gives the
same points as drawing row by row.

A call makes its arrays once and writes every pass into them: the row CDFs
in one grid array, the draw stage in a workspace of draw-sized arrays, and
the points in the one result.  `np.take` gathers with mode="clip" so that it
writes straight into its `out`; every index is in range, so nothing is
clipped.
"""

from __future__ import annotations

import numpy as np

from .grid import GridDensity, _Workspace


def _segment_positions(v: np.ndarray, h: float, seg: np.ndarray, du: np.ndarray,
                       ws: _Workspace) -> np.ndarray:
    """Fractional position s in [0, 1] inside each chosen linear segment,
    in an array of `ws` (a workspace of the draws' shape)."""
    a = np.take(v, seg, out=ws.take(), mode="clip")
    dv = np.take(v[1:], seg, out=ws.take(), mode="clip")  # b = v[seg + 1]
    # node values are >= 0, so max(a, b) is the larger magnitude
    t = np.maximum(a, dv, out=ws.take())
    np.maximum(t, 1e-300, out=t)
    t *= 1e-12
    dv -= a
    s = np.abs(dv, out=ws.take())
    linear = np.less_equal(s, t, out=ws.take(bool))
    rhs = np.multiply(du, 2.0, out=t)
    rhs /= h
    with np.errstate(divide="ignore", invalid="ignore"):
        rhs *= dv
        np.multiply(a, a, out=s)
        s += rhs
        np.maximum(s, 0.0, out=s)  # the discriminant
        np.sqrt(s, out=s)
        s -= a
        np.copyto(dv, 1.0, where=linear)
        s /= dv
    lin = np.flatnonzero(linear)
    a_lin = a[lin]
    s[lin] = np.where(a_lin > 0.0, du[lin] / (h * np.maximum(a_lin, 1e-300)), 0.0)
    ws.give(a, dv, t, linear)
    return np.clip(s, 0.0, 1.0, out=s)


def _count_at_most(cdf: np.ndarray, start: int | np.ndarray, length: int,
                   target: np.ndarray, ws: _Workspace | None = None) -> np.ndarray:
    """`np.searchsorted(cdf[s:s + length], t, side="right")` for each start s
    and target t, where every slice is nondecreasing.

    A branchless bisection: all slices share `length`, so each step halves
    every draw's window by one gather over the draws.  The counts go into an
    array of `ws`, a workspace of the targets' shape.
    """
    ws = _Workspace(target.shape) if ws is None else ws
    base = ws.take(np.intp)
    base[...] = start
    val, hit = ws.take(), ws.take(bool)
    step = val.view(np.intp)  # the gathered values' memory, once they are compared
    n = length
    while n > 1:
        half = n // 2
        np.take(cdf[half:], base, out=val, mode="clip")  # cdf[base + half]
        np.less_equal(val, target, out=hit)
        base += np.multiply(hit, half, out=step)
        n -= half
    np.less_equal(np.take(cdf, base, out=val, mode="clip"), target, out=hit)
    base -= start
    base += hit
    ws.give(val, hit)
    return base


def _cdf(seg_mass: np.ndarray) -> np.ndarray:
    """Cumulative mass at the nodes, along the last axis, from 0."""
    zero = np.zeros(seg_mass.shape[:-1] + (1,))
    return np.concatenate([zero, np.cumsum(seg_mass, axis=-1)], axis=-1)


def _sample_pl_1d(x: np.ndarray, v: np.ndarray, u: np.ndarray,
                  ws: _Workspace | None = None, out: np.ndarray | None = None):
    """Samples from the piecewise-linear density given uniforms u in [0, 1):
    the points (written into `out` when given), each one's segment and its
    position in that segment (in arrays of `ws`, a workspace of u's shape)."""
    h = float(x[1] - x[0])
    cdf = _cdf(0.5 * (v[:-1] + v[1:]) * h)
    total = cdf[-1]
    if total <= 0.0:
        raise ValueError("cannot sample from zero-mass values")
    ws = _Workspace(u.shape) if ws is None else ws
    target = np.multiply(u, total, out=ws.take())
    seg = _count_at_most(cdf, 0, len(cdf), target, ws)
    seg -= 1
    np.clip(seg, 0, len(v) - 2, out=seg)
    du = np.take(cdf, seg, out=ws.take(), mode="clip")
    np.subtract(target, du, out=du)
    ws.give(target)
    s = _segment_positions(v, h, seg, du, ws)
    pts = np.take(x, seg, out=out, mode="clip")
    pts += np.multiply(s, h, out=du)
    ws.give(du)
    return pts, seg, s


def sample_density(g: GridDensity, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n points from g; returns shape (dims, n)."""
    if g.grid.dims not in (1, 2):
        raise ValueError("sampling supports 1D and 2D grids")
    if n < 0:
        raise ValueError(f"n = {n}: the number of points to draw cannot be negative")
    if g.grid.dims == 1:
        pts = np.empty((1, n))
        _sample_pl_1d(g.grid.axes()[0], g.values, rng.random(n), out=pts[0])
        return pts
    return _sample_2d(g, n, rng)


def _sample_2d(g: GridDensity, n: int, rng: np.random.Generator) -> np.ndarray:
    x0, x1 = g.grid.axes()
    h1 = float(x1[1] - x1[0])
    vals = g.values
    n_rows, n1 = vals.shape
    # all row CDFs in one array: segment masses 0.5 (v_j + v_j+1) h1 summed
    # along each row from a first node of 0
    cdf = np.empty((n_rows, n1))
    cdf[:, 0] = 0.0
    seg_mass = np.add(vals[:, :-1], vals[:, 1:], out=cdf[:, 1:])
    seg_mass *= 0.5
    seg_mass *= h1
    # axis-0 marginal of the bilinear interpolant is piecewise linear with
    # node masses given by the trapezoid rule over axis 1
    row_mass = seg_mass.sum(axis=1)
    np.cumsum(seg_mass, axis=1, out=seg_mass)
    pts = np.empty((2, n))
    ws = _Workspace((n,))
    _, seg0, s0 = _sample_pl_1d(x0, row_mass, rng.random(n), ws, out=pts[0])
    # conditional slice at x0 is the s0-blend of rows seg0 and seg0+1; sample
    # the mixture by picking a component row, then its piecewise-linear law
    u = rng.random(n)
    w_hi = np.take(row_mass[1:], seg0, out=ws.take(), mode="clip")
    w_hi *= s0
    w_lo = np.take(row_mass, seg0, out=ws.take(), mode="clip")
    w_lo *= np.subtract(1.0, s0, out=s0)
    w_lo += w_hi
    w_hi /= np.maximum(w_lo, 1e-300, out=w_lo)
    take_hi = np.less(u, w_hi, out=ws.take(bool))
    del u
    rows = seg0
    rows += take_hi
    ws.give(w_hi, w_lo, s0, take_hi)
    # work in row order: the stable sort keeps draw order within a row, so
    # one block of uniforms lands where row-by-row draws put theirs (a small
    # unsigned dtype lets the stable sort run as a radix sort)
    order = np.argsort(rows.astype(np.min_scalar_type(n_rows)), kind="stable")
    start = np.take(rows, order, out=ws.take(np.intp), mode="clip")
    ws.give(rows)
    total = np.take(cdf[:, -1], start, out=ws.take(), mode="clip")
    empty = np.less_equal(total, 0.0, out=ws.take(bool))
    if empty.any():
        raise ValueError("cannot sample from zero-mass values")
    ws.give(empty)
    target = rng.random(n)
    target *= total
    ws.give(total)
    start *= n1
    cdf = cdf.ravel()
    seg = _count_at_most(cdf, start, n1, target, ws)
    seg -= 1
    np.clip(seg, 0, n1 - 2, out=seg)
    flat = start
    flat += seg
    du = target
    at_seg = np.take(cdf, flat, out=ws.take(), mode="clip")
    du -= at_seg
    ws.give(at_seg)
    s = _segment_positions(vals.ravel(), h1, flat, du, ws)
    pts1 = np.take(x1, seg, out=du, mode="clip")
    pts1 += np.multiply(s, h1, out=s)
    pts[1][order] = pts1
    return pts

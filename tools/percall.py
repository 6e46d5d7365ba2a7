"""Per-call timings: named library calls, each timed in fresh processes,
alternating two source trees.

    python tools/percall.py [--trees DIR [DIR]] [--calls PATTERN ...]
                            [--rounds N] [--repeat R] [--out FILE] [--list]

Each round starts one fresh interpreter per tree, the trees' order swapping
from round to round.  As in every tool built on ``tools/_trees.py``, the
interpreter imports ``qfisher`` from the tree's ``src/`` with BLAS and
OpenMP pinned to one thread.  It builds the call's inputs, runs it once so
that caches fill, then times R batches of the call with
``time.perf_counter``, garbage collection off, and keeps the fastest batch.
It also counts the minor page faults of the batches, and runs the call once
more under ``tracemalloc`` for its traced peak.  The report gives, per tree
and call, the min and median over the rounds of those per-process figures.

``--trees`` defaults to the checkout this script sits in.  With two trees
the first is the parent and the second the change.  ``--out`` writes the
report as the ``per_call`` block of a JSON file, keeping its other blocks.
Nothing needs installing; run it from anywhere.

The calls reach private functions whose signatures moved: the flux
constants of `diffusion._rkl2` and `_flux_divergence` live in their
buffers, and older trees pass them with each call.  Each call's set-up
accepts either form, so that any two trees can be compared.
"""

from __future__ import annotations

import argparse
import fnmatch
import gc
import json
import statistics
import sys
from pathlib import Path
from typing import NamedTuple

import _trees


class Call(NamedTuple):
    what: str
    setup: str  # Python source that defines call(), run in the worker
    number: int  # calls per timed batch
    per: int = 1  # units of work per call, e.g. stages per super step
    unit: str = "us"


# the flow workload's start: 512 points on [-3, 3], sigma0 = 0.05, here
# evolved to t = 0.005, and its buffers in either layout
_FLOW = """
import inspect
from qfisher import diffusion, zoo
from qfisher.grid import GridSpec

m_exp, beta = {m}, {beta}
grid = GridSpec.line(-3.0, 3.0, 512)
state = diffusion.evolve(diffusion.DiffusionState(
    density=zoo.gaussian_density(grid, 0.0, 0.05), t=0.0, m_exp=m_exp, beta=beta), 0.005)
f0, dx, n = state.density.values, state.dx, grid.shape[0]
if len(inspect.signature(diffusion._rkl2).parameters) == 5:
    stage_buf = diffusion._StageBuffers(n, dx, m_exp, beta)
    flux_buf = diffusion._FluxBuffers(n, dx, m_exp, beta)

    def flux(f, buf):
        return diffusion._flux_divergence(f, buf)

    def cfl(f, slope):
        return diffusion._cfl_dt(f, slope, flux_buf)

    def super_step(l0, tau, stages):
        return diffusion._rkl2(f0, l0, tau, stages, stage_buf)
else:
    stage_buf, flux_buf = diffusion._StageBuffers(n), diffusion._FluxBuffers(n)

    def flux(f, buf):
        return diffusion._flux_divergence(f, dx, m_exp, beta, buf)

    def cfl(f, slope):
        return diffusion._cfl_dt(f, slope, dx, m_exp, beta)

    def super_step(l0, tau, stages):
        return diffusion._rkl2(f0, l0, tau, stages, dx, m_exp, beta, stage_buf)
l0, slope = flux(f0, flux_buf)
l0, slope = l0.copy(), slope.copy()
dt_e = cfl(f0, slope)
"""

_RKL2 = _FLOW + """
tau = dt_e * diffusion._rkl2_reach(16)


def call():
    super_step(l0, tau, 16)
"""

_FLUX = _FLOW + """

def call():
    flux(f0, stage_buf.flux)
"""

# a Gaussian; at q = 1 (beta = 2) the P1 kernel takes the floored path, and
# of sd 1 at 4096 points on [-12, 12], 38% of the nodes lie below the floor
_PARTS = """
import numpy as np
from qfisher.fisher import QFisherKernel
from qfisher.grid import GridSpec

grid = GridSpec.line({lo}, {hi}, {n})
(x,) = grid.axes()
g = np.exp(-0.5 * (x / {sd}) ** 2)
if {pinned}:
    g[[0, -1]] = 0.0
g /= g.sum() * grid.spacing[0]
kernel = QFisherKernel(grid, 2.0, {q})


def call():
    kernel.parts(g, {gradient})
"""

# the checks workload's qcr-q0.8-a1.5 input: matched q-Gaussian, 4096 points
_FIT = """
from qfisher import QGaussianParams, escort, make_q_gaussian, suggested_half_extent
from qfisher.cramer_rao import _equality_field_fit
from qfisher.grid import GridSpec

params = QGaussianParams(q=0.8, alpha=1.5, gamma=1.0)
half = suggested_half_extent(params)
g = make_q_gaussian(params, GridSpec.line(-half, half, 4096))
f_values = escort(g, 0.8).values


def call():
    _equality_field_fit(f_values, g, 1.5, 2.0)
"""

# one CLI op, run again and again into one directory removed at exit, so
# that every call after the first rewrites the files of the one before
_CLI = """
import atexit, contextlib, io, tempfile
from qfisher import cli

out = tempfile.TemporaryDirectory(prefix="percall-")
atexit.register(out.cleanup)
argv = {argv} + ["--out-dir", out.name]


def call():
    with contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(argv) == 0
"""

_DEBRUIJN = ["debruijn", "--points", "512", "--t-final", "0.1", "--sigma0", "0.05"]

# one output file rewritten over its previous copy, as a re-run into one
# --out-dir rewrites it: a 513-point density as the minimize argmin, and a
# 319-row objective trace.  Back-to-back batches understate what a rewrite
# costs inside a run: what truncating a file costs depends on where the
# disk's writeback of the file stands
_REWRITE = """
import atexit, tempfile
import numpy as np
from qfisher import zoo
from qfisher.grid import GridSpec, write_csv

out = tempfile.TemporaryDirectory(prefix="percall-")
atexit.register(out.cleanup)
path = out.name + "/out"
density = zoo.gaussian_density(GridSpec.line(-10.0, 10.0, 513), 0.0, 2.0)
trace = list(enumerate(1.0 + np.geomspace(1.0, 1e-6, 319)))


def call():
    {call}
"""

_REGIMES = {"m1b2": (1.0, 2.0), "m2b2": (2.0, 2.0), "m1b3": (1.0, 3.0)}

CALLS = {
    **{f"rkl2-{tag}": Call(f"diffusion._rkl2 per stage: one 16-stage super step at (m, beta) = "
                           f"({m:g}, {b:g}), 512 points, from the flow start at t = 0.005",
                           _RKL2.format(m=m, beta=b), number=40, per=16)
       for tag, (m, b) in _REGIMES.items()},
    **{f"flux-{tag}": Call(f"diffusion._flux_divergence on the stage buffers at (m, beta) = "
                           f"({m:g}, {b:g}), 512 points",
                           _FLUX.format(m=m, beta=b), number=400)
       for tag, (m, b) in _REGIMES.items()},
    "parts-floored-n4096-q1.0": Call(
        "QFisherKernel(beta=2, q=1).parts(g), unit Gaussian at 4096 points on [-12, 12], "
        "38% of the nodes below the support floor",
        _PARTS.format(lo=-12.0, hi=12.0, n=4096, sd=1.0, q=1.0, pinned=False, gradient=False),
        number=20),
    "parts-floored-n4096-q1.0-grad": Call(
        "the same with gradient=True",
        _PARTS.format(lo=-12.0, hi=12.0, n=4096, sd=1.0, q=1.0, pinned=False, gradient=True),
        number=20),
    "parts-pinned-n513-q1.0-grad": Call(
        "parts(g, gradient=True) at q = 1, a Gaussian of sd 2.5 at 513 points on [-10, 10] "
        "with its two ends pinned at 0, as in a minimize run: only the ends lie below the "
        "support floor, so the span is the whole line",
        _PARTS.format(lo=-10.0, hi=10.0, n=513, sd=2.5, q=1.0, pinned=True, gradient=True),
        number=40),
    "fit-1d-q0.8-a1.5": Call(
        "cramer_rao._equality_field_fit on the qcr-q0.8-a1.5 input (matched q-Gaussian, "
        "4096 points)", _FIT, number=40),
    **{f"debruijn-{tag}": Call(f"one flow-workload op: debruijn {' '.join(flags)}, 512 points "
                               f"to t = 0.1, sigma0 = 0.05",
                               _CLI.format(argv=json.dumps(_DEBRUIJN + flags)), number=2,
                               unit="ms")
       for tag, flags in (("m1b2-snap", ["--m", "1", "--beta", "2", "--snap-every", "2"]),
                          ("m2b2", ["--m", "2", "--beta", "2"]),
                          ("m1b3", ["--m", "1", "--beta", "3"]))},
    "minimize-default": Call("one descent-workload op: minimize at its defaults, rewriting "
                             "its summary, trace and final density",
                             _CLI.format(argv=json.dumps(["minimize"])), number=20, unit="ms"),
    "minimize-tol1e-12-n257": Call(
        "one descent-workload op: minimize at 257 points, tol 1e-12, at most 6000 "
        "iterations, which ends on a reported stall",
        _CLI.format(argv=json.dumps(["minimize", "--grid-points", "257", "--tol", "1e-12",
                                     "--iters", "6000"])), number=2, unit="ms"),
    "save-json-n513": Call("GridDensity.save_json of a 513-point density over its previous copy",
                           _REWRITE.format(call="density.save_json(path)"), number=100),
    "write-csv-319-rows": Call("grid.write_csv of a 319-row (iter, objective) trace over its "
                               "previous copy",
                               _REWRITE.format(call='write_csv(path, ["iter", "objective"], trace)'),
                               number=100),
}


def _worker(name: str, repeat: str) -> dict:
    """Times one call in this process."""
    import resource
    import time
    import tracemalloc

    spec, repeat = CALLS[name], int(repeat)
    namespace: dict = {}
    exec(compile(spec.setup, f"<{name} set-up>", "exec"), namespace)
    call = namespace["call"]
    call()
    scale = (1e3 if spec.unit == "ms" else 1e6) / (spec.number * spec.per)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    batches = []
    gc.disable()
    try:
        for _ in range(repeat):
            start = time.perf_counter()
            for _ in range(spec.number):
                call()
            batches.append((time.perf_counter() - start) * scale)
    finally:
        gc.enable()
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {"best": min(batches), "peak_kb": peak / 1024.0,
            "minflt_per_call": faults / (repeat * spec.number)}


def measure(sides: list[tuple[str, Path]], names: list[str], rounds: int, repeat: int) -> dict:
    """{name: {side: [per-process figures]}}, one process per tree, call and
    round, the trees' order swapping from round to round."""
    runs: dict = {name: {side: [] for side, _ in sides} for name in names}
    for r in range(rounds):
        order = sides[::-1] if r % 2 else sides
        for name in names:
            for side, tree in order:
                runs[name][side].append(_trees.spawn(__file__, tree, name, str(repeat)))
    return runs


def report(runs: dict) -> dict:
    """The per_call block: per call and side, the per-round fastest batch,
    its min and median, and the traced peak and minor faults per call."""
    block = {}
    for name, by_side in runs.items():
        spec = CALLS[name]
        entry = {"what": spec.what, "unit": f"{spec.unit} per stage" if spec.per > 1 else spec.unit}
        for side, samples in by_side.items():
            best = [round(s["best"], 3) for s in samples]
            entry[side] = best
            entry[f"{side}_min"] = min(best)
            entry[f"{side}_median"] = round(statistics.median(best), 3)
            entry[f"{side}_peak_kb"] = round(statistics.median(s["peak_kb"] for s in samples), 1)
            entry[f"{side}_minflt_per_call"] = round(
                statistics.median(s["minflt_per_call"] for s in samples), 2)
        if "parent" in by_side:
            entry["change_over_parent"] = round(entry["change_median"] / entry["parent_median"] - 1.0, 4)
            entry["change_faster_in_rounds"] = sum(
                c < p for p, c in zip(entry["parent"], entry["change"]))
        block[name] = entry
    return block


def main(argv=None) -> int:
    if argv is None and _trees.serve(_worker):
        return 0
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    _trees.add_options(parser, "per_call")
    parser.add_argument("--calls", nargs="+", default=["*"], help="names or shell patterns")
    parser.add_argument("--rounds", type=int, default=8)
    parser.add_argument("--repeat", type=int, default=5, help="timed batches per process")
    parser.add_argument("--list", action="store_true", help="list the calls and exit")
    args = parser.parse_args(argv)
    if args.list:
        for name, spec in CALLS.items():
            print(f"{name}: {spec.what}")
        return 0
    sides = _trees.sides(parser, args.trees)
    names = [n for n in CALLS if any(fnmatch.fnmatch(n, p) for p in args.calls)]
    if not names:
        parser.error(f"no call matches {args.calls}; see --list")
    _trees.publish(report(measure(sides, names, args.rounds, args.repeat)), "per_call", args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())

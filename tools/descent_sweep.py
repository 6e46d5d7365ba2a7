"""Descent pace on many starts: iterations per start, side by side in two
source trees.

    python tools/descent_sweep.py [--trees DIR [DIR]] [--out FILE]

Two evidence sets, both run in one fresh interpreter per tree
(``tools/_trees.py``: it imports ``qfisher`` from the tree's ``src/``, BLAS
and OpenMP pinned to one thread); `SPEC` fixes their sizes:

- the sweep: ``minimize_q_fisher`` at its default tol and alpha = 2 from the
  two-bump starts drawn by ``numpy.random.default_rng(seed)``, seed 0 to 99
  (as in ``tests/test_minimizer.py``), on [-10, 10] at 257 and 513 points
  and q in {1, 1.2, 1.5, 2};
- the stalls: the benchmark's tol 1e-12 descent (the mixture start, 6000
  iterations at most) at 257, 513 and 1025 points and q in {1.2, 1.5, 2}.

Per sweep cell and tree the report gives the median, p90 and max
iterations, the evaluations summed over the starts and the converged count;
with two trees (the parent's, then the change's) also the starts whose
trace differs, the starts that took more iterations and the starts that
converge only in the parent.  Per stall it gives the iterations,
evaluations, stop reason and final J^(1/beta) - 1 of each tree.  ``--out``
writes the report as the ``descent_sweep`` block of a JSON file, keeping
its other blocks.  Nothing needs installing; run it from anywhere.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import sys
from pathlib import Path

import _trees

SPEC = {"starts": 100, "points": [257, 513], "q": [1.0, 1.2, 1.5, 2.0],
        "stall_points": [257, 513, 1025], "stall_q": [1.2, 1.5, 2.0]}


def _worker(spec: str) -> dict:
    """Every start's outcome under the JSON `spec`, computed in this process."""
    import numpy as np
    from qfisher import GridSpec, MinimizationConfig, minimize_q_fisher, zoo

    spec = json.loads(spec)

    def outcome(res):
        return {"iters": res.n_iters, "evaluations": res.counters.evaluations,
                "converged": res.converged, "stop": res.stop_reason,
                "final": float(res.objective).hex(),
                "trace": hashlib.sha256(np.asarray(res.objective_trace).tobytes()).hexdigest()}

    sweep = {}
    for n in spec["points"]:
        grid = GridSpec.line(-10.0, 10.0, n)
        for q in spec["q"]:
            runs = []
            for seed in range(spec["starts"]):
                rng = np.random.default_rng(seed)
                start = zoo.mixture_density(grid, np.sort(rng.uniform(-1.5, 1.5, 2)),
                                            rng.uniform(0.4, 0.9, 2), rng.uniform(0.3, 0.7, 2))
                runs.append(outcome(minimize_q_fisher(start, MinimizationConfig(q=q, alpha=2.0))))
            sweep[f"n{n}-q{q:g}"] = runs
    stalls = {}
    for n in spec["stall_points"]:
        grid = GridSpec.line(-10.0, 10.0, n)
        start = zoo.mixture_density(grid, (-1.2, 1.1), (0.7, 0.45), (0.6, 0.4))
        for q in spec["stall_q"]:
            cfg = MinimizationConfig(q=q, alpha=2.0, max_iters=6000, tol=1e-12)
            stalls[f"n{n}-q{q:g}"] = outcome(minimize_q_fisher(start, cfg))
    return {"sweep": sweep, "stalls": stalls}


def measure(sides: list[tuple[str, Path]], spec: dict) -> dict:
    """{side: that tree's outcomes under `spec`}, one fresh process per tree."""
    return {side: _trees.spawn(__file__, tree, json.dumps(spec)) for side, tree in sides}


def report(spec: dict, by_side: dict[str, dict]) -> dict:
    """The descent_sweep block from each side's outcomes."""
    sides = list(by_side)
    cells = {}
    for cell in next(iter(by_side.values()))["sweep"]:
        entry = {}
        for side in sides:
            runs = by_side[side]["sweep"][cell]
            iters = [r["iters"] for r in runs]
            entry[side] = {"median_iters": statistics.median(iters),
                           "p90_iters": round(statistics.quantiles(
                               iters, n=10, method="inclusive")[8], 1),
                           "max_iters": max(iters),
                           "evaluations": sum(r["evaluations"] for r in runs),
                           "converged": sum(r["converged"] for r in runs)}
        if len(sides) == 2:
            pairs = list(zip(by_side["parent"]["sweep"][cell], by_side["change"]["sweep"][cell]))
            entry["starts_changed"] = sum(p["trace"] != c["trace"] for p, c in pairs)
            entry["starts_slower"] = sum(c["iters"] > p["iters"] for p, c in pairs)
            entry["converged_lost"] = sum(p["converged"] and not c["converged"] for p, c in pairs)
        cells[cell] = entry
    stalls = {}
    for cell in next(iter(by_side.values()))["stalls"]:
        stalls[cell] = {side: {"iters": r["iters"], "evaluations": r["evaluations"],
                               "stop": r["stop"],
                               "final_minus_1": float(f"{float.fromhex(r['final']) - 1.0:.4e}")}
                        for side in sides for r in [by_side[side]["stalls"][cell]]}
    how = (f"minimize_q_fisher at the default tol, alpha = 2, on [-10, 10], from the two-bump "
           f"starts of numpy.random.default_rng(seed), seed 0..{spec['starts'] - 1}, per cell "
           f"n{{points}}-q{{q}}; the stalls: tol 1e-12, max_iters 6000, the mixture start")
    return {"how": how, "sides": sides, "cells": cells, "stalls": stalls}


def main(argv=None) -> int:
    if argv is None and _trees.serve(_worker):
        return 0
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    _trees.add_options(parser, "descent_sweep")
    args = parser.parse_args(argv)
    sides = _trees.sides(parser, args.trees)
    _trees.publish(report(SPEC, measure(sides, SPEC)), "descent_sweep", args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())

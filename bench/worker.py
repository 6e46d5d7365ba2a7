"""One benchmark interpreter: set up a workload, then run timed passes over it.

Started by run.py, never by hand.  It prints ``ready`` once qfisher is
imported and the workload's inputs exist; in ``setup`` mode it exits there.
In ``run`` mode it then runs whole passes over the workload's ops, back to
back on one thread, until the next pass would overrun ``--seconds``.  With
``--trace 1`` the first half of the time runs untraced and the second half
under the layer tracer.  Every op is judged by the oracle; the raw results go
to ``--result`` as JSON.

Between ops, at most every REF_EVERY_S seconds, it also times a fixed
reference kernel that runs no qfisher code.  run.py divides each op's latency
by the kernel's time around that op, which cancels the shifts in the speed of
a shared machine that no median over one run can remove.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # must precede the first numpy import

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

# seconds between two samples of the reference kernel
REF_EVERY_S = 0.2


def _reference_sample(refs, with_2d):
    """Times the reference kernels once; appends [start, s_1d, s_2d] to `refs`.

    The 1D kernel is the kind of work the solvers do per step: a Python loop
    of small-array numpy arithmetic and reductions.  The 2D kernel is the kind
    the 2D checks do: elementwise passes over a 513 x 513 array, 2.1 MB, which
    lean on memory more than on the interpreter; it runs only `with_2d`, so
    that its arrays stay out of the peak memory of 1D workloads.  Each takes
    8 to 15 ms on a 2-core Xeon VM, as its speed varies.
    """
    import numpy as np

    x = np.linspace(-3.0, 3.0, 512)
    acc = 0.0
    start = time.perf_counter()
    for i in range(600):
        y = x * (1.0 + 1e-3 * i)
        acc += float(np.sum(np.abs(np.diff(y)) ** 1.5)) + float(np.max(y))
    s_1d = time.perf_counter() - start
    s_2d = None
    if with_2d:
        box = np.add.outer(np.linspace(-3.0, 3.0, 513), np.linspace(-3.0, 3.0, 513))
        mid = time.perf_counter()
        for i in range(3):
            acc += float(np.sum(np.abs(np.diff(box * (1.0 + 1e-3 * i), axis=0)) ** 1.5))
        s_2d = time.perf_counter() - mid
    refs.append([start, s_1d, s_2d])


def _run_op(op, oracle, tracer, op_id):
    from qfisher.errors import QFisherError

    if tracer is not None:
        tracer.op_id = op_id
    rec = None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        start = time.perf_counter()
        try:
            raw = op.call()
        except QFisherError as exc:  # the library's typed refusal of an input
            rec = {"refused": f"{type(exc).__name__}: {exc}"}
        except Exception as exc:  # an op that raises is a failed op, not a crash of the run
            rec = {"error": f"{type(exc).__name__}: {exc}"}
            traceback.print_exc()
        latency = time.perf_counter() - start
    if rec is None:
        try:
            rec = op.collect(raw)
        except (OSError, ValueError, KeyError) as exc:
            rec = {"error": f"unreadable output: {type(exc).__name__}: {exc}"}
    wrong, verdict = oracle.judge(op.kind, op.expect, rec)
    return start, latency, rec, wrong, verdict, len(caught)


def _passes(passes, oracle, budget, tracer, log, last, problems, refs):
    """Whole passes until the next one would overrun `budget` seconds."""
    traced = int(tracer is not None)
    with_2d = any(op.expect["dims"] == 2 for ops in passes for op in ops)
    walls = []
    start = time.perf_counter()
    while True:
        wall = 0.0
        for op in passes[len(walls) % len(passes)]:
            if not refs or time.perf_counter() - refs[-1][0] >= REF_EVERY_S:
                _reference_sample(refs, with_2d)
            began, latency, rec, wrong, verdict, n_warn = _run_op(op, oracle, tracer, len(log))
            wall += latency
            log.append([op.name, len(walls), traced, latency, int(bool(wrong)),
                        int(bool(verdict)), n_warn, began, op.expect["dims"]])
            last[op.name] = (op.name, op.kind, op.expect, rec)
            if (wrong or verdict) and op.name not in problems:
                problems[op.name] = {"wrong": wrong, "verdict": verdict}
        walls.append(wall)
        elapsed = time.perf_counter() - start
        if elapsed * (len(walls) + 1) / len(walls) > budget:
            _reference_sample(refs, with_2d)  # so that the last op has a sample after it too
            return walls


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "run"), required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work-dir", required=True)
    ap.add_argument("--result")
    ap.add_argument("--spans")
    args = ap.parse_args()

    import oracle
    import workloads

    passes = workloads.build(args.workload, args.seed, Path(args.work_dir))
    print("ready", flush=True)
    if args.mode == "setup":
        return 0

    import numpy as np

    log, last, problems, refs = [], {}, {}, []
    result = {}
    if args.trace:
        import tracer as tracer_mod

        walls_plain = _passes(passes, oracle, args.seconds / 2.0, None, log, last, problems,
                              refs)
        tracer = tracer_mod.Tracer()
        tracer.install()
        walls_traced = _passes(passes, oracle, args.seconds / 2.0, tracer, log, last, problems,
                               refs)
        layers = tracer.layer_metrics(len(walls_traced))
        evals = layers["minimizer.gradient_adjoint.calls"]
        layers["minimizer.accept_ratio"] = layers["minimizer.iters"] / evals if evals else 0.0
        layers["warnings"] = sum(row[6] for row in log if row[2]) / len(walls_traced)
        layers["trace.overhead_ratio"] = float(np.median(walls_traced) / np.median(walls_plain))
        result["layers"] = layers
        if args.spans:
            tracer.write_spans(args.spans)
        result["spans"] = len(tracer.spans) // 6
        result["walls"] = [[0, w] for w in walls_plain] + [[1, w] for w in walls_traced]
    else:
        walls = _passes(passes, oracle, args.seconds, None, log, last, problems, refs)
        result["walls"] = [[0, w] for w in walls]

    tried, accepted = oracle.tamper_check(list(last.values()))
    result.update(
        ops=log,
        refs=refs,
        problems=problems,
        tamper={"tried": tried, "accepted": accepted},
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        python=platform.python_version(),
        numpy=np.__version__,
    )
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""qfisher benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload {flow,checks,descent} --seed N --seconds S --trace {0,1}

Run it from the root of a source checkout; it imports qfisher from ``src/``
through PYTHONPATH, so nothing needs installing.  Each run starts fresh
interpreters (bench/worker.py) with BLAS/OpenMP threads pinned to 1:
several that only set up, to time set-up (half before the run, half after
it), and one that then runs whole passes over the workload's ops for about
S seconds, one op at a time.  Op times are reported in seconds and in "ref",
runs of a reference kernel timed between the ops (see worker.py); the JSON
carries the ref figures, which a shared machine's changes of speed cancel out
of.
Inputs, CLI outputs and trace spans stay under ``.bench_out/`` in the
checkout; the per-run working directory is removed at the end.

Prints each metric by name, unit and sample count, then, as the last line,
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(end-to-end metrics with ``--trace 0``, per-layer metrics with ``--trace 1``).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
# fresh interpreters that only set up, half before the run and half after it,
# so that the set-up samples span the run's whole length
SETUP_PROBES = 8
# reference-kernel samples within this many seconds of an op scale its latency
REF_WINDOW_S = 1.0
# every run must end within this many seconds, whatever the workload does
RUN_DEADLINE_S = 170.0


def _machine(root: Path) -> dict:
    info = {"nproc": os.cpu_count(), "git": "unknown"}
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref = (root / ".git" / ref[5:]).read_text().strip()
        info["git"] = ref[:12]
    except OSError:
        pass
    for index in range(5):
        cache = Path(f"/sys/devices/system/cpu/cpu0/cache/index{index}")
        try:
            level = (cache / "level").read_text().strip()
            if (cache / "type").read_text().strip() == "Unified":
                info[f"L{level}"] = (cache / "size").read_text().strip()
        except OSError:
            continue
    return info


class Spawner:
    """Starts worker interpreters and makes sure each one has ended."""

    def __init__(self, argv_base: list[str], env: dict, deadline: float):
        self.argv_base = argv_base
        self.env = env
        self.deadline = deadline

    def _left(self) -> float:
        return max(1.0, self.deadline - time.monotonic())

    def run(self, extra: list[str]) -> float:
        """Runs one worker to completion; returns seconds from spawn to 'ready'."""
        start = time.perf_counter()
        proc = subprocess.Popen(self.argv_base + extra, env=self.env,
                                stdout=subprocess.PIPE, text=True)
        try:
            line = ""
            if select.select([proc.stdout], [], [], self._left())[0]:
                line = proc.stdout.readline()
            ready = time.perf_counter() - start
            proc.communicate(timeout=self._left())
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"worker {' '.join(extra)} exited with {proc.returncode}")
        return ready


def _tail(latencies: list[float]) -> tuple[int, float] | None:
    """Highest integer percentile with at least 10 ops beyond it (nearest rank)."""
    n = len(latencies)
    if n <= 10:
        return None
    pct = (100 * (n - 10)) // n
    rank = max(1, math.ceil(pct * n / 100))
    return pct, sorted(latencies)[rank - 1]


def _op_latencies(ops: list, traced: int, refs: list | None = None) -> dict[str, list[float]]:
    """Latencies of each op by name, in run order, from untraced or traced passes.

    With `refs`, each latency is divided by the median time of the reference
    kernel of the op's dimension (1D or 2D) sampled within REF_WINDOW_S of the
    op, so that it is counted in runs of that kernel ("ref") instead of seconds.
    """
    by_op: dict[str, list[float]] = {}
    for row in ops:
        if row[2] == traced:
            latency = row[3]
            if refs is not None:
                latency /= _ref_around(refs, row[7], row[7] + row[3], column=row[8])
            by_op.setdefault(row[0], []).append(latency)
    return by_op


def _ref_around(refs: list, start: float, end: float, column: int) -> float:
    near = [r[column] for r in refs if start - REF_WINDOW_S <= r[0] <= end + REF_WINDOW_S]
    if not near:
        near = [min(refs, key=lambda r: abs(r[0] - start))[column]]
    return statistics.median(near)


def _report(args, machine: dict, setup: list[float], res: dict) -> dict:
    ops = res["ops"]
    attempted = len(ops)
    failed = sum(row[4] for row in ops)
    passed = sum(1 for row in ops if not row[4] and not row[5])
    tamper = res["tamper"]
    correct = failed == 0 and not tamper["accepted"] and tamper["tried"] > 0

    print(f"machine: nproc={machine['nproc']} python={res['python']} numpy={res['numpy']} "
          f"git={machine['git']} L2={machine.get('L2', '?')} L3={machine.get('L3', '?')}")
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace} "
          f"passes={len(res['walls'])} ops={attempted}")
    for name, problems in sorted(res["problems"].items()):
        for tier in ("wrong", "verdict"):
            for text in problems[tier]:
                print(f"  {tier}: {name}: {text}")
    print(f"oracle: {failed}/{attempted} ops wrong, {attempted - passed}/{attempted} ops failed; "
          f"tampering: {tamper['tried']} cases, {len(tamper['accepted'])} accepted"
          + "".join(f"\n  tamper accepted: {t}" for t in tamper["accepted"]))

    n_passes = sum(1 for traced, _ in res["walls"] if not traced)
    refs = res["refs"]
    ref_ms = [f"{1e3 * statistics.median(r[dims] for r in refs):.6g} ms"
              if refs[0][dims] is not None else "not run" for dims in (1, 2)]
    # per op, in seconds and in reference-kernel runs; wall time is one pass at
    # each op's median, steadier than the median of a few whole passes
    timings = {}
    for unit, by_op in (("s", _op_latencies(ops, 0)), ("ref", _op_latencies(ops, 0, refs))):
        every = [x for lat in by_op.values() for x in lat]
        medians = [statistics.median(lat) for lat in by_op.values()]
        timings[unit] = (sum(medians), statistics.median(medians), statistics.median(every),
                         _tail(every), len(by_op), len(every))
    wall_s, _, p50_s, tail_s, n_names, n_ops = timings["s"]
    wall_ref, op_median_ref, p50_ref, tail_ref, _, _ = timings["ref"]
    wall_note = f"sum of {n_names} per-op medians over {n_passes} passes"
    print(f"reference kernels: 1D median {ref_ms[0]}, 2D median {ref_ms[1]}, "
          f"{len(refs)} samples during the run; 1 ref = one run of the op's kernel")
    for name, value, unit, note in (
        ("setup_s", statistics.median(setup), "s", f"median of {len(setup)} fresh interpreters"),
        ("wall_s", wall_s, "s", wall_note),
        ("wall_ref", wall_ref, "ref", wall_note),
        ("op_p50_ms", 1e3 * p50_s, "ms", f"n={n_ops} ops"),
        ("op_p50_ref", p50_ref, "ref", f"n={n_ops} ops"),
        ("op_median_ref", op_median_ref, "ref", f"median of the {n_names} per-op medians"),
    ):
        print(f"{name:<13} = {value:.6g} {unit}  ({note})")
    if tail_s is None:
        print(f"op_tail_ms    omitted: {n_ops} ops, needs at least 11")
    else:
        print(f"op_tail_ms    = {1e3 * tail_s[1]:.6g} ms  (p{tail_s[0]}, n={n_ops} ops)")
        print(f"op_tail_ref   = {tail_ref[1]:.6g} ref  (p{tail_ref[0]}, n={n_ops} ops)")
    print(f"fail_ratio    = {(attempted - passed) / attempted:.6g} 1  "
          f"({attempted - passed}/{attempted} ops; the JSON carries pass_ratio)")
    end_to_end = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_ref": (wall_ref, "ref"),
        "op_median_ref": (op_median_ref, "ref"),
        "pass_ratio": (passed / attempted, "1"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    print(f"pass_ratio    = {passed / attempted:.6g} 1  ({passed}/{attempted} ops)")
    print(f"peak_rss_mb   = {res['peak_rss_mb']:.6g} MB  (ru_maxrss of the run's interpreter)")

    if args.trace:
        metrics = {name: {"value": value, "unit": _layer_unit(name)}
                   for name, value in res["layers"].items()}
        traced_passes = sum(1 for traced, _ in res["walls"] if traced)
        print(f"per-layer metrics per traced pass ({traced_passes} passes, {res['spans']} spans):")
        for name, m in metrics.items():
            print(f"  {name} = {m['value']:.6g} {m['unit']}")
    else:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in end_to_end.items()}
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def _layer_unit(name: str) -> str:
    if name.endswith(".self_ms"):
        return "ms"
    if name.endswith("_ratio"):
        return "1"
    return "count"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("flow", "checks", "descent"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # turn a termination request into SystemExit, so workers are killed on the way out
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))

    deadline = time.monotonic() + RUN_DEADLINE_S
    root = Path.cwd()
    if not (root / "src" / "qfisher" / "__init__.py").is_file():
        print("bench: no qfisher sources under ./src; run from the root of a checkout",
              file=sys.stderr)
        return 2

    out = root / ".bench_out"
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = out / f"work-{tag}-{os.getpid()}"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    base = [sys.executable, str(HERE / "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed)]
    spawner = Spawner(base, env, deadline)

    def probe(i: int) -> float:
        return spawner.run(["--mode", "setup", "--work-dir", str(work / f"probe{i}")])

    result_path = work / "result.json"
    try:
        work.mkdir(parents=True, exist_ok=True)
        setup = [probe(i) for i in range(SETUP_PROBES // 2)]
        setup.append(spawner.run([
            "--mode", "run", "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--work-dir", str(work / "run"), "--result", str(result_path),
            "--spans", str(out / f"spans-{args.workload}.csv"),
        ]))
        setup += [probe(i) for i in range(SETUP_PROBES // 2, SETUP_PROBES)]
        with open(result_path) as fh:
            res = json.load(fh)
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    machine = _machine(root)
    summary = _report(args, machine, setup, res)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": {**machine, "python": res["python"],
                                               "numpy": res["numpy"]},
              "setup_samples_s": setup, "pass_walls_s": res["walls"],
              "op_latencies_s": _op_latencies(res["ops"], 0),
              "op_latencies_ref": _op_latencies(res["ops"], 0, res["refs"]),
              "ref_samples": res["refs"], **summary}
    with open(out / f"result-{tag}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())

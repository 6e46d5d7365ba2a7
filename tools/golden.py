"""Golden records: what every benchmark op produces, bit for bit.

    python tools/golden.py record OUT
    python tools/golden.py diff A B

`record` builds the benchmark's own ops with ``bench/workloads.py``
(``build``, seed 2001): pass 0 of checks and flow and passes 0-2 of descent,
plus ``minimize`` at q in {0.8, 1, 1.2, 1.5, 2} on 257, 513 and 1025 points.
It runs each op once, in this process, and writes one canonical record per
op to OUT as JSON:

- a CLI op: its exit code, its stderr and the SHA-256 of every file it
  wrote, with the run's temporary directory replaced by ``<work>`` first (the
  summaries echo their ``--out-dir``);
- a library op: its result, every float as ``float.hex``, every array as its
  shape and the SHA-256 of its bytes.

The input files the build draws are recorded too.  Each op's key is
``group/pass/index-name`` (``group/name`` for the extra ``minimize`` runs).

`diff` lists every record that differs between two record files, with the
largest relative gap of each float field, and exits 1 when any differs.  Bits
may differ across numpy, BLAS and libm builds, so compare records made on one
machine.  Run from the root of a source checkout; nothing needs installing.
"""

from __future__ import annotations

import argparse
import dataclasses
import fnmatch
import hashlib
import json
import math
import platform
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 2001
# workload -> the passes recorded
PASSES = {"checks": (0,), "flow": (0,), "descent": (0, 1, 2)}
MINIMIZE_Q = (0.8, 1.0, 1.2, 1.5, 2.0)
MINIMIZE_POINTS = (257, 513, 1025)


def _import_bench():
    for path in (ROOT / "src", ROOT / "bench"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    import numpy as np
    import qfisher
    import workloads

    return np, qfisher, workloads


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def canonical(value):
    """A JSON-ready form of `value` that keeps every bit: floats as hex,
    arrays as shape and hash."""
    import numpy as np

    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    if value is None or isinstance(value, str):
        return value
    if isinstance(value, np.ndarray):
        arr = np.ascontiguousarray(value)
        return {"shape": list(arr.shape), "dtype": str(arr.dtype), "sha256": _sha(arr.tobytes())}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: canonical(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {str(k): canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    return repr(value)


def _ops(workloads, work: Path, groups: set[str]):
    """(key, op) for every recorded op of the groups asked for."""
    for name, passes in PASSES.items():
        if name not in groups:
            continue
        built = workloads.build(name, SEED, work / name)
        for p in passes:
            for i, op in enumerate(built[p % len(built)]):
                yield f"{name}/p{p}/{i:02d}-{op.name}", op
    if "minimize" in groups:
        out = work / "minimize" / "outputs"
        for q in MINIMIZE_Q:
            for n in MINIMIZE_POINTS:
                tag = f"minimize-q{q}-n{n}"
                argv = ["minimize", "--q", str(q), "--grid-points", str(n)]
                yield f"minimize/{tag}", workloads._cli_op(tag, "minimize", argv, out / tag, {})


def _files(root: Path, work: Path) -> dict[str, str]:
    """Hash of every file under root, keyed by its path below `work`, with
    the path of `work` replaced in its bytes."""
    needle = str(work).encode()
    return {str(f.relative_to(work)): _sha(f.read_bytes().replace(needle, b"<work>"))
            for f in sorted(root.rglob("*")) if f.is_file()}


def record(patterns: list[str] | None = None) -> dict:
    """Runs the ops (those whose key matches one of the shell-style
    `patterns`, or all) and returns the records file's content."""
    np, qfisher, workloads = _import_bench()
    groups = set(PASSES) | {"minimize"}
    if patterns:
        groups = {g for g in groups if any(fnmatch.fnmatch(g, p.split("/", 1)[0]) for p in patterns)}
    records = {}
    with tempfile.TemporaryDirectory(prefix="golden-") as tmp:
        work = Path(tmp)
        for key, op in _ops(workloads, work, groups):
            if patterns and not any(fnmatch.fnmatch(key, p) for p in patterns):
                continue
            group = key.split("/", 1)[0]
            outputs = work / group / "outputs"
            try:
                raw = op.call()
            except Exception as exc:  # a raise is an outcome to record, like a result
                rec = {"raised": f"{type(exc).__name__}: {exc}".replace(str(work), "<work>")}
            else:
                if isinstance(raw, tuple) and len(raw) == 2 and isinstance(raw[1], str):
                    rc, stderr = raw  # a CLI op: qfisher.cli.main's code and stderr
                    rec = {"rc": rc, "stderr": stderr.replace(str(work), "<work>"),
                           "files": _files(outputs, work)}
                else:
                    rec = {"result": canonical(raw)}
            records[key] = rec
            # the next op finds no file of this one
            shutil.rmtree(outputs, ignore_errors=True)
            outputs.mkdir(parents=True, exist_ok=True)
        inputs = {g: _files(work / g / "inputs", work) for g in sorted(groups)
                  if (work / g / "inputs").is_dir()}
    meta = {"seed": SEED, "python": platform.python_version(), "numpy": np.__version__,
            "qfisher": qfisher.__version__}
    return {"meta": meta, "inputs": inputs, "records": records}


def _leaves(value, path=""):
    """(path, leaf) pairs of a nested record."""
    if isinstance(value, dict):
        for k, v in value.items():
            yield from _leaves(v, f"{path}.{k}" if path else k)
    elif isinstance(value, list):
        for i, v in enumerate(value):
            yield from _leaves(v, f"{path}[{i}]")
    else:
        yield path, value


def _as_float(leaf):
    """The float a `float.hex` leaf holds, else None (hashes are hex too)."""
    if isinstance(leaf, str) and leaf.lstrip("-").startswith("0x"):
        return float.fromhex(leaf)
    return None


def diff(a: dict, b: dict) -> list[str]:
    """One line per op whose record differs, or that only one side holds,
    and per differing input file."""
    lines = []
    for group in sorted(set(a["inputs"]) | set(b["inputs"])):
        fa, fb = a["inputs"].get(group, {}), b["inputs"].get(group, {})
        for name in sorted(set(fa) | set(fb)):
            if fa.get(name) != fb.get(name):
                lines.append(f"input {name}: differs")
    ra, rb = a["records"], b["records"]
    for key in sorted(set(ra) | set(rb)):
        if key not in ra or key not in rb:
            lines.append(f"{key}: only in {'B' if key not in ra else 'A'}")
            continue
        if ra[key] == rb[key]:
            continue
        la, lb = dict(_leaves(ra[key])), dict(_leaves(rb[key]))
        fields = []
        for path in sorted(set(la) | set(lb)):
            x, y = la.get(path), lb.get(path)
            if x == y:
                continue
            fx, fy = _as_float(x), _as_float(y)
            if fx is not None and fy is not None:
                scale = max(abs(fx), abs(fy))
                gap = abs(fx - fy) / scale if scale and math.isfinite(scale) else math.inf
                fields.append(f"{path} (rel gap {gap:.3e})")
            else:
                fields.append(path)
        lines.append(f"{key}: {', '.join(fields)}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    rec = sub.add_parser("record", help="run the ops and write their records")
    rec.add_argument("out", type=Path)
    dif = sub.add_parser("diff", help="list the records that differ between two files")
    dif.add_argument("a", type=Path)
    dif.add_argument("b", type=Path)
    args = parser.parse_args(argv)
    if args.cmd == "record":
        content = record()
        args.out.write_text(json.dumps(content, indent=1, sort_keys=True) + "\n")
        print(f"{len(content['records'])} records -> {args.out}")
        return 0
    a, b = (json.loads(p.read_text()) for p in (args.a, args.b))
    if a["meta"] != b["meta"]:
        print(f"note: the records come from different setups: {a['meta']} and {b['meta']}")
    lines = diff(a, b)
    print("\n".join(lines + [f"{len(set(a['records']) | set(b['records']))} records, "
                             f"{len(lines)} differ"]))
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())

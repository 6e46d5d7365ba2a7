"""What the tools that compare source trees share.

Each job runs in a fresh interpreter, ``TOOL --worker TREE ARG ...``, that
imports ``qfisher`` from the tree's ``src/`` with BLAS and OpenMP pinned to
one thread and prints its result as one JSON line.  With one tree its side
is "tree"; with two, the first is the "parent" and the second the "change".
The report is printed and, with ``--out``, written as one block of a JSON
file whose other blocks are kept.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
WORKER = "--worker"


def add_options(parser: argparse.ArgumentParser, block: str) -> None:
    """``--trees`` (default: the checkout this file sits in) and ``--out``."""
    parser.add_argument("--trees", nargs="+", type=Path, default=[ROOT],
                        help="one source tree, or the parent's and the change's")
    parser.add_argument("--out", type=Path, help=f"JSON file whose {block} block to write")


def sides(parser: argparse.ArgumentParser, trees: list[Path]) -> list[tuple[str, Path]]:
    """The (side, tree) pairs of ``--trees``."""
    if len(trees) > 2:
        parser.error("--trees takes one or two source trees")
    names = ["parent", "change"] if len(trees) == 2 else ["tree"]
    return [(name, tree.resolve()) for name, tree in zip(names, trees)]


def serve(work: Callable[..., dict]) -> bool:
    """In a worker process: print ``work(ARG ...)`` as JSON, qfisher imported
    from TREE, and return True.  In any other process return False."""
    if sys.argv[1:2] != [WORKER]:
        return False
    sys.path.insert(0, str(Path(sys.argv[2]) / "src"))
    print(json.dumps(work(*sys.argv[3:])))
    return True


def spawn(tool: str, tree: Path, *args: str) -> dict:
    """What the worker of the script `tool` computes from `tree` and `args`."""
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    done = subprocess.run([sys.executable, str(Path(tool).resolve()), WORKER, str(tree), *args],
                          env=env, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"{Path(tool).name} {' '.join(args[:1])} in {tree} failed:\n"
                           f"{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def publish(block: dict, name: str, out: Path | None) -> None:
    """Print `block`; with `out`, write it as that JSON file's `name` block."""
    print(json.dumps(block, indent=1))
    if out:
        content = json.loads(out.read_text()) if out.exists() else {}
        content[name] = block
        out.write_text(json.dumps(content, indent=1) + "\n")

"""`tools/descent_sweep.py`: one small cell, one tree, end to end."""

import importlib.util
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"
SWEEP = TOOLS / "descent_sweep.py"
if str(TOOLS) not in sys.path:  # the tools import their shared _trees
    sys.path.insert(0, str(TOOLS))


def _load():
    spec = importlib.util.spec_from_file_location("descent_sweep", SWEEP)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_cell_in_one_fresh_process_reports_its_figures():
    sweep = _load()
    spec = {"starts": 3, "points": [257], "q": [1.5], "stall_points": [], "stall_q": []}
    block = sweep.report(spec, sweep.measure([("tree", sweep._trees.ROOT)], spec))
    assert block["sides"] == ["tree"] and block["stalls"] == {}
    cell = block["cells"]["n257-q1.5"]["tree"]
    assert cell["converged"] == 3 and cell["evaluations"] > 3
    assert 0 < cell["median_iters"] <= cell["p90_iters"] <= cell["max_iters"]


def test_two_sides_count_changed_and_slower_starts():
    sweep = _load()
    run = {"iters": 10, "evaluations": 12, "converged": True, "stop": "tol",
           "final": (1.0005).hex(), "trace": "a"}
    slower = dict(run, iters=11, evaluations=13, trace="b")
    parent = {"sweep": {"n257-q1.5": [run, run]}, "stalls": {"n257-q1.5": run}}
    change = {"sweep": {"n257-q1.5": [run, slower]}, "stalls": {"n257-q1.5": slower}}
    spec = {"starts": 2, "points": [257], "q": [1.5], "stall_points": [257], "stall_q": [1.5]}
    block = sweep.report(spec, {"parent": parent, "change": change})
    cell = block["cells"]["n257-q1.5"]
    assert cell["starts_changed"] == 1 and cell["starts_slower"] == 1
    assert cell["converged_lost"] == 0
    assert cell["parent"]["max_iters"] == 10 and cell["change"]["max_iters"] == 11
    assert block["stalls"]["n257-q1.5"]["change"]["iters"] == 11
    assert block["stalls"]["n257-q1.5"]["parent"]["final_minus_1"] == 5e-4

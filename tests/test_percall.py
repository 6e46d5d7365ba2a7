"""`tools/percall.py`: one call, one round, one tree, end to end."""

import importlib.util
import json
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"
PERCALL = TOOLS / "percall.py"
if str(TOOLS) not in sys.path:  # the tools import their shared _trees
    sys.path.insert(0, str(TOOLS))


def _load():
    spec = importlib.util.spec_from_file_location("percall", PERCALL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_call_in_one_fresh_process_reports_its_figures(capsys, tmp_path):
    percall = _load()
    out = tmp_path / "bench.json"
    out.write_text(json.dumps({"what": "kept"}))
    assert percall.main(["--calls", "flux-m1b2", "--rounds", "1", "--repeat", "1",
                         "--out", str(out)]) == 0
    printed = json.loads(capsys.readouterr().out)
    written = json.loads(out.read_text())
    assert written == {"what": "kept", "per_call": printed}
    entry = printed["flux-m1b2"]
    assert entry["unit"] == "us" and len(entry["tree"]) == 1
    assert entry["tree_min"] == entry["tree_median"] > 0.0
    assert entry["tree_peak_kb"] >= 0.0 and entry["tree_minflt_per_call"] >= 0.0

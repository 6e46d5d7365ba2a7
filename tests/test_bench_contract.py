"""The benchmark's layer tracer wraps qfisher functions by dotted name.

`bench/tracer.py` lists them in `TARGETS`; a rename or removal in the
package would silently drop a layer from every traced run, so each name
must still resolve to a callable.
"""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _targets():
    # read the tuple literal without importing the tracer
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracer.py defines no TARGETS")


def test_every_tracer_target_resolves_to_a_callable():
    targets = _targets()
    assert len(targets) == len(set(targets)) > 0
    for name in targets:
        module, *attrs = name.split(".")
        obj = importlib.import_module(f"qfisher.{module}")
        for attr in attrs:
            obj = getattr(obj, attr)
        assert callable(obj), name

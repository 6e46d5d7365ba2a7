"""The benchmark's layer tracer wraps qfisher functions by dotted name.

`bench/tracer.py` lists them in `TARGETS`; a rename or removal in the
package would silently drop a layer from every traced run, so each name
must still resolve to a callable.
"""

import ast
import importlib
import sys
from pathlib import Path

import qfisher
from qfisher import minimizer

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


def test_gradient_adjoint_runs_once_per_objective_evaluation(monkeypatch):
    # the benchmark reads minimizer.gradient_adjoint calls as the number of
    # objective evaluations of a 1D descent; count them the way its tracer
    # does, by rebinding every qfisher module attribute that is the function
    calls = {"adjoint": 0, "objective": 0}
    original = minimizer.gradient_adjoint

    def adjoint(*args, **kwargs):
        calls["adjoint"] += 1
        return original(*args, **kwargs)

    objective = minimizer._objective_parts

    def objective_parts(*args, **kwargs):
        calls["objective"] += 1
        return objective(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if module is not None and (name == "qfisher" or name.startswith("qfisher.")):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, adjoint)
    monkeypatch.setattr(minimizer, "_objective_parts", objective_parts)

    grid = qfisher.GridSpec.line(-8.0, 8.0, 129)
    start = qfisher.zoo.mixture_density(grid, (-1.2, 1.1), (0.7, 0.45), (0.6, 0.4))
    res = minimizer.minimize_q_fisher(start, minimizer.MinimizationConfig(
        q=1.5, alpha=2.0, max_iters=20))
    assert res.n_iters == 20
    assert calls["objective"] > res.n_iters
    assert calls["adjoint"] == calls["objective"]

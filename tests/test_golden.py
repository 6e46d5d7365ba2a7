"""`tools/golden.py`: records are deterministic, and `diff` sees one flipped bit."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from qfisher import minimizer

GOLDEN = Path(__file__).resolve().parents[1] / "tools" / "golden.py"
# a CLI descent and a CLI check, both a few milliseconds
SUBSET = ["minimize/minimize-q1.5-n257", "checks/p0/*-qcr-q1.5-a2.0"]


@pytest.fixture(scope="module")
def golden():
    spec = importlib.util.spec_from_file_location("golden", GOLDEN)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def first(golden):
    return golden.record(SUBSET)


def test_record_of_a_two_op_subset_repeats_exactly(golden, first):
    assert sorted(first["records"]) == ["checks/p0/07-qcr-q1.5-a2.0", "minimize/minimize-q1.5-n257"]
    for rec in first["records"].values():
        assert rec["rc"] == 0 and rec["files"]
    assert golden.record(SUBSET) == first
    assert golden.diff(first, first) == []


def test_diff_reports_one_flipped_bit_of_the_objective(golden, first, monkeypatch):
    objective_parts = minimizer._objective_parts

    def flipped(*args):
        j_val, grad = objective_parts(*args)
        return float(np.nextafter(j_val, np.inf)), grad

    monkeypatch.setattr(minimizer, "_objective_parts", flipped)
    lines = golden.diff(first, golden.record(SUBSET))
    assert len(lines) == 1
    assert lines[0].startswith("minimize/minimize-q1.5-n257: files.")
    assert "minimize_trace.csv" in lines[0]

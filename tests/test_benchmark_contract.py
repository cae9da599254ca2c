"""What the benchmark in ``perfbench/`` uses of prunekit.

The benchmark traces prunekit's functions by name and runs one public-API
step of its own (``child.py verify``). These tests only read ``perfbench/``:
they load its modules from their files and check that the names, the unit
rows and the calls they rely on still exist and behave as they expect.
"""

from __future__ import annotations

import importlib
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from prunekit import build_prune_units

from conftest import make_dense_toy, save_tmp

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def perfbench_module(name: str):
    """``perfbench/<name>.py``, loaded from its file under a name of its own,
    writing no bytecode cache into ``perfbench/``."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


@pytest.fixture(scope="module")
def tracer():
    return perfbench_module("tracer")


def test_every_traced_function_resolves(tracer):
    for short, names in tracer.TRACED.items():
        module = importlib.import_module(f"prunekit.{short}")
        for name in names:
            assert callable(getattr(module, name, None)), f"prunekit.{short}.{name}"


def test_units_by_kind_counts_the_units(tracer, densenet_graph):
    units = build_prune_units(densenet_graph)
    counters = tracer.COUNTERS["units.build_prune_units"](units)
    assert counters == tracer._units_by_kind(units)
    assert counters == {"units.count.full_channel": 24 + 168 + 312, "units.count.in_channel_only": 2808}


def test_verify_step_checks_one_unit_of_each_kind(tmp_path, capsys):
    # child.py verify iterates the table's rows, filters them by .kind, calls
    # zero_equivalence_check(graph, row) and reports each row's .uid
    g = make_dense_toy(np.random.default_rng(0), with_bn=True)
    manifest, _ = save_tmp(g, tmp_path)
    child = perfbench_module("child")
    assert child.verify(manifest, "3", "2", "full_channel,in_channel_only") == 0
    results = json.loads(capsys.readouterr().out)
    units = build_prune_units(g)
    assert [r["kind"] for r in results] == ["full_channel", "in_channel_only"]
    assert all(r["equivalent"] is True for r in results)
    assert all(units.kind[units.uid.index(r["unit"])] == r["kind"] for r in results)

"""The names the benchmark reads off the library stay defined.

``perfbench/tracer.py`` hooks functions and methods by name, and
``perfbench/run.py`` calls ``tracer.hook_sites()`` even on an untraced run;
the workloads call ``ac.<name>``.  A deleted name stops every workload, and
only the slow benchmark smoke test would say so.  These tests read
``perfbench/`` and change nothing there.
"""

import re
import sys
from pathlib import Path

import pytest

import altcomm
import altcomm._modscan  # noqa: F401  hook_sites covers only the modules already loaded
import altcomm.cli  # noqa: F401
from altcomm import RationalField, matrix_algebra

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture()
def perfbench_path(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))


def test_every_hooked_name_resolves(perfbench_path):
    import tracer

    tables = tracer.SPAN_FUNCTIONS + tracer.COUNT_FUNCTIONS + tracer.CHUNK_FUNCTIONS
    assert {entry[0] for entry in tables} <= sys.modules.keys()
    sites = tracer.hook_sites()       # a missing function or method raises here
    for mod_name, cls_name, meth, _, _ in tracer.METHODS:
        assert (getattr(sys.modules[mod_name], cls_name), meth) in sites


def test_every_name_a_workload_calls_is_exported():
    names = set()
    for path in sorted((PERFBENCH / "workloads").glob("*.py")):
        names.update(re.findall(r"\bac\.(\w+)", path.read_text()))
    assert {"Matrix", "LinearMap", "random_commuting_map"} <= names
    assert [name for name in sorted(names) if not hasattr(altcomm, name)] == []


def test_the_maps_workload_builds_its_matrix_unit_map(perfbench_path):
    import workloads

    algebra, _ = matrix_algebra(RationalField(), 2)
    phi = workloads.matrix_unit_map(algebra, 0, 1)        # x -> x_0 b_1
    assert phi.matrix.columns == [{1: 1}, {}, {}, {}]

"""The traced benchmark (perfbench/workloads.py) wraps named attributes of
the library's modules in spans; a rename or deletion there breaks the
trace, so every target is checked here, in seconds, without running the
benchmark."""

import pathlib
import sys

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(PERFBENCH))
    written = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave no cache files in perfbench/
    try:
        import workloads
    finally:
        sys.dont_write_bytecode = written
        sys.path.remove(str(PERFBENCH))
    return workloads


def test_layer_patch_targets_exist(workloads):
    assert workloads.LAYER_PATCHES
    for module, attr, span in workloads.LAYER_PATCHES:
        target = getattr(module, attr, None)
        assert callable(target), f"{module.__name__}.{attr} (span {span})"


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
def test_smoke_workloads_run_clean(workloads, tmp_path, monkeypatch, traced):
    # every workload on its smallest inputs, in this process, as the
    # benchmark's one pass runs it: the library calls, the attributes the
    # trace wraps and the checks must still fit together
    sys.path.insert(0, str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    try:
        import spans
    finally:
        sys.path.remove(str(PERFBENCH))
    for name, workload in workloads.WORKLOADS.items():
        tracer = spans.Tracer() if traced else spans.NullTracer()
        stats = workloads.instrument(tracer) if traced else None
        inputs = workload.inputs(1, "smoke")
        try:
            unit = workload.run(inputs, tracer, str(tmp_path))
        finally:
            tracer.restore()
        failures = workloads.Failures()
        workload.check(inputs, unit, failures)
        assert failures.entries == [], (name, traced)
        assert unit.counts["items"] == len(inputs) >= 1, name
        if traced:
            assert stats["lattice.nodes"] == unit.counts.get("lattice.nodes", 0), name

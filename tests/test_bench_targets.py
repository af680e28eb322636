"""The traced benchmark (perfbench/workloads.py) wraps named attributes of
the library's modules in spans, and its workloads and its self-test
(perfbench/selftest.py) call others; a rename or deletion there breaks the
benchmark, so every target and every attribute they read is checked here,
in seconds, without running the benchmark."""

import ast
import importlib
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


def knotplumb_reads(source):
    """The (module, attribute) pairs a source file reads off knotplumb's
    modules: m.name for each m bound by `from knotplumb import m`, and each
    name of `from knotplumb.m import name`."""
    tree = ast.parse(source)
    modules, reads = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            if node.module == "knotplumb":
                modules.update((a.asname or a.name, a.name) for a in node.names)
            elif node.module.startswith("knotplumb."):
                reads.update((node.module[len("knotplumb."):], a.name) for a in node.names)
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
        ):
            reads.add((modules[node.value.id], node.attr))
    return reads


def test_workload_reads_exist():
    reads = set()
    for source in ("workloads.py", "selftest.py"):
        reads |= knotplumb_reads((PERFBENCH / source).read_text(encoding="utf-8"))
    # the walk finds the reads each workload and the self-test make
    assert {
        ("plumbing", "are_isomorphic"),
        ("cabling", "closed_form_two_iter"),
        ("lattice", "embedding_from_json_obj"),
        ("classify", "theorem_audit"),
        ("cli", "main"),
        ("cabling", "SurgerySpec"),
        ("classify", "known_witness"),
        ("classify", "SweepRow"),
        ("classify", "admissible_tuples"),
        ("plumbing", "gram_matrix"),
    } <= reads
    missing = [
        f"knotplumb.{module}.{attr}"
        for module, attr in sorted(reads)
        if not hasattr(importlib.import_module(f"knotplumb.{module}"), attr)
    ]
    assert missing == []

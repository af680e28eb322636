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

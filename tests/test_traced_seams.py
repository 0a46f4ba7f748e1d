# tests/test_traced_seams.py
#
# perfbench/tracing.py wraps pmba functions by (module, attribute). A seam
# deleted or renamed in src/ would only show up in a full benchmark run, so
# check here that every target still resolves.
import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def tracing():
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield importlib.import_module("tracing")
    finally:
        sys.path.remove(str(PERFBENCH))


def test_every_traced_target_resolves(tracing):
    assert tracing.TARGETS
    for module_name, attr in tracing.TARGETS:
        module = importlib.import_module(module_name)
        if "." in attr:  # tracing wraps methods on their class
            cls_name, meth = attr.split(".")
            assert callable(vars(getattr(module, cls_name)).get(meth)), (module_name, attr)
        else:
            assert callable(getattr(module, attr, None)), (module_name, attr)

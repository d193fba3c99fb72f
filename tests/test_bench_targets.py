"""The span tracer of the benchmark names its targets by module and
attribute; every one of them must resolve in the package, or a moved or
renamed function would go untraced (bench/test_bench.py, which would
catch it, runs outside this suite)."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _targets():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("target", _targets(), ids=lambda t: t[0])
def test_tracer_target_resolves(target):
    _, modname, attr = target
    module = importlib.import_module(f"maslov.{modname}")
    if "." in attr:
        cls_name, meth = attr.split(".")
        assert meth in getattr(module, cls_name).__dict__
    else:
        assert callable(getattr(module, attr, None))

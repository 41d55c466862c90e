"""The benchmark tracer (perfbench/tracer.py) wraps setkf functions by
name, so renaming or deleting one of them breaks only a traced benchmark
run.  This checks every name it lists without running the benchmark."""

import importlib
import importlib.util
from pathlib import Path

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve_in_setkf():
    tracer = _load_tracer()
    names = [
        (short, name)
        for table in (tracer.SPANNED, tracer.COUNTED)
        for short, fns in table.items()
        for name in fns
    ]
    missing = [
        f"setkf.{short}.{name}"
        for short, name in names
        if not callable(getattr(importlib.import_module(f"setkf.{short}"), name, None))
    ]
    assert names and not missing, f"traced names missing from setkf: {missing}"

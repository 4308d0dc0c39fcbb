"""perfbench can still find every function it traces.

``Tracer.install`` skips a target that no longer resolves, so a moved
function would only show as a traced run without its spans.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    for mod_name, fn_name, _ in tracing.TARGETS:
        module = importlib.import_module(f"growbp.{mod_name}")
        assert callable(getattr(module, fn_name, None)), \
            f"growbp.{mod_name}.{fn_name}"

"""The benchmark's span tracer looks up its traced functions by name.

``perfbench/run.py --trace 1`` wraps every function named in
``perfbench/spans.py`` ``LAYERS`` with ``getattr``; a function removed or
renamed in the package would crash the traced pass.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_traced_layer_function_exists():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for module, names in spans.LAYERS.items():
        mod = importlib.import_module(f"thermomi.{module}")
        for name in names:
            assert callable(getattr(mod, name, None)), f"thermomi.{module}.{name}"

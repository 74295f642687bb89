"""The layer table of bench/tracer.py names functions by module and name;
every one must stay bound in its swelab module, or a traced benchmark round
fails at install time."""
import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def test_every_traced_name_resolves_in_its_module():
    spec = importlib.util.spec_from_file_location("swelab_bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [f"{layer}.{name}" for layer, names in tracer.LAYERS.items()
               for name in names
               if not callable(getattr(importlib.import_module(f"swelab.{layer}"), name, None))]
    assert missing == []

"""The benchmark's per-layer spans name functions that exist in fellkit.

perfbench/tracing.py wraps functions by module and qualified name and only
reports the ones it cannot find when it is installed; a refactor that renames
or removes a traced function would drop its metric silently.  The module is
loaded here without installing anything.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolve(module_name, qualname):
    obj = importlib.import_module(f"fellkit.{module_name}")
    for part in qualname.split("."):
        obj = getattr(obj, part)
    return obj


def test_every_traced_name_resolves():
    tracing = load_tracing()
    for module_name, qualname in tracing.TRACED:
        assert callable(resolve(module_name, qualname)), (module_name, qualname)
    for module_name, attr, _prefix in tracing.STAGES:
        assert callable(resolve(module_name, attr)), (module_name, attr)

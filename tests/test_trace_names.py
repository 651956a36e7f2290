"""Every function the benchmark tracer wraps still exists under its traced name.

The names are resolved the way ``Tracer.install`` in ``bench/tracer.py``
resolves them (a module attribute, or an attribute in the class's own
``__dict__``), without installing anything, so a refactor that renames a
traced function fails here in seconds.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracer = load_tracer()
    missing = []
    for module_name, path, span, _hot in tracer.TRACED:
        owner = importlib.import_module(f"{tracer.PACKAGE}.{module_name}")
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        if isinstance(owner, type):
            found = attr in owner.__dict__
        else:
            found = owner is not None and callable(getattr(owner, attr, None))
        if not found:
            missing.append(f"{span}: {module_name}.{path}")
    assert tracer.TRACED and not missing, missing

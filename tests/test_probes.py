"""The attributes the benchmark's tracer wraps must exist.

``bench/tracing.py`` replaces each attribute in its ``PROBES`` with a timed
wrapper and fails to install if one is missing, so renaming or deleting one
breaks the benchmark.  This loads that file without changing it.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_probed_attribute_resolves_and_is_restored():
    tracing = _tracing()
    originals = [(module, attr, getattr(module, attr)) for module, attr, _, _ in tracing.PROBES]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert all(getattr(module, attr) is not fn for module, attr, fn in originals)
    finally:
        tracer.uninstall()
    assert all(getattr(module, attr) is fn for module, attr, fn in originals)

"""The benchmark tracer's patch targets still exist in the package.

``bench/tracing.py`` replaces the names listed in its ``TARGETS`` inside the
modules that bind them. Renaming or deleting one breaks ``bench/run.py
--trace 1``; this test catches that in the ordinary suite.
"""

import importlib.util
from pathlib import Path

import cci

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def test_every_traced_name_is_bound_in_its_owner():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    for owner_path, attr, _ in tracing.TARGETS:
        owner = cci
        for part in owner_path.split("."):
            owner = getattr(owner, part)
        assert attr in owner.__dict__, f"{owner_path}.{attr}"
        assert callable(owner.__dict__[attr])

"""The benchmark's tracer wraps piareid functions by owner and attribute
name; a rename in ``src/`` would otherwise show up only as failed traced
samples.  This reads ``perfbench/tracing.py`` and changes nothing in it."""

from __future__ import annotations

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_function_still_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    targets = tracing.Tracer({})._targets()
    assert targets
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _ in targets if attr not in owner.__dict__]
    assert not missing, f"traced but missing from their owners: {missing}"

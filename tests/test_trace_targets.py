"""The benchmark's trace targets must name kforge callables that exist.

``perfbench/child.py`` wraps each target by name and records a missing one
as ``trace.missing_targets`` without failing, so a refactor that renames a
traced function silently loses its per-layer metrics. This test resolves
every target against the package instead.
"""
from __future__ import annotations

import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# callables deleted from kforge while the benchmark still wraps them; each
# is reported as missing until the benchmark's next change drops it
KNOWN_MISSING = {
    "kforge.pipeline.StageIO.flush",
    "kforge.gateway.Gateway.complete_json",
    "kforge.gateway.Gateway.reask",
}


def _resolve(module: str, attr: str):
    owner = importlib.import_module(module)
    for name in attr.split("."):
        owner = getattr(owner, name)
    return owner


def test_every_benchmark_trace_target_exists(monkeypatch):
    # import perfbench's modules without writing bytecode next to them
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from child import _targets
    from spans import Tracer

    targets = _targets(Tracer())
    names = {f"{t.module}.{t.attr}" for t in targets}
    assert {"kforge.knowledge.kd_score", "kforge.knowledge.build_report"} <= names
    missing = set()
    for target in targets:
        try:
            assert callable(_resolve(target.module, target.attr))
        except AttributeError:
            missing.add(f"{target.module}.{target.attr}")
    assert missing - KNOWN_MISSING == set()

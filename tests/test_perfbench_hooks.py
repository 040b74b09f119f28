"""The benchmark's trace hooks still find every package name they wrap.

perfbench/run.py::install_hooks wraps package functions by module
attribute; a renamed or deleted target silently drops its per-layer metric
from a traced run. This test installs the hooks on the package under test
and checks that each one found a target.
"""

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_hook_finds_a_target(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in ("run", "checks", "tracer"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    import run

    class RecordingTracer(run.Tracer):
        def __init__(self):
            super().__init__()
            self.hooked = []

        def hook_span(self, name, *targets):
            self.hooked.append(name)
            super().hook_span(name, *targets)

        def hook_count(self, name, *targets, within=None):
            self.hooked.append(name)
            super().hook_count(name, *targets, within=within)

    tracer = RecordingTracer()
    try:
        run.install_hooks(tracer)
    finally:
        tracer.uninstall()
    assert tracer.hooked
    assert [name for name in tracer.hooked if name not in tracer.present] == []

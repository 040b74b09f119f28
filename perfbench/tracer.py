"""Per-layer spans and counts, recorded by wrapping module attributes.

Each hook replaces one name through which callers bind a public function
(for example ``ngmca.algorithms.fista_update_S``, the name the alternation
calls) with a wrapper that adds its duration and its call count to a layer
metric. A hook whose target is missing leaves its metric absent instead of
failing the run. Nested calls of one metric count once, at the outermost.
"""

import contextlib
import importlib
import time
from collections import defaultdict


class Tracer:
    """Layer totals and spans of one traced run; uninstall() undoes the hooks."""

    def __init__(self):
        self.seconds = defaultdict(float)
        self.calls = defaultdict(int)
        self.spans = []              # (name, start, end, parent index, op)
        self.present = set()         # metrics whose hook found a target
        self.op = -1
        self.enabled = True
        self._depth = defaultdict(int)
        self._open = []              # indices into spans of open spans
        self._undo = []

    def _enter(self, name: str):
        self._depth[name] += 1
        if self._depth[name] > 1:
            return None
        parent = self._open[-1] if self._open else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._open.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _exit(self, name: str, index) -> None:
        self._depth[name] -= 1
        if index is None:
            return
        end = time.perf_counter()
        span = self.spans[index]
        span[2] = end
        self._open.pop()
        self.seconds[name] += end - span[1]
        self.calls[name] += 1

    @contextlib.contextmanager
    def span(self, name: str):
        """Time a block of the benchmark's own code as metric `name`."""
        self.present.add(name)
        index = self._enter(name)
        try:
            yield
        finally:
            self._exit(name, index)

    @contextlib.contextmanager
    def paused(self):
        """Run a block (the benchmark's checks) without recording it."""
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    def _patch(self, target: str, make_wrapper) -> bool:
        module_name, attr = target.rsplit(".", 1)
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            return False
        original = getattr(module, attr, None)
        if not callable(original):
            return False
        setattr(module, attr, make_wrapper(original))
        self._undo.append((module, attr, original))
        return True

    def hook_span(self, name: str, *targets: str) -> None:
        """Time every call through the given bindings as metric `name`."""
        def make(original):
            def wrapper(*args, **kwargs):
                if not self.enabled:
                    return original(*args, **kwargs)
                index = self._enter(name)
                try:
                    return original(*args, **kwargs)
                finally:
                    self._exit(name, index)
            return wrapper

        if any([self._patch(t, make) for t in targets]):
            self.present.add(name)

    def hook_count(self, name: str, *targets: str, within: str | None = None) -> None:
        """Count calls through the given bindings, only inside `within` if set."""
        def make(original):
            def wrapper(*args, **kwargs):
                if self.enabled and (within is None or self._depth[within] > 0):
                    self.calls[name] += 1
                return original(*args, **kwargs)
            return wrapper

        if any([self._patch(t, make) for t in targets]):
            self.present.add(name)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)
        self._undo.clear()

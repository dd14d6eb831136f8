"""In-memory span tracing of the package's public functions.

Each target function is looked up by name in its defining module and the
wrapper is bound everywhere a caller imported it (`from .problems import
objective` makes a second binding in the caller's module). A function that no
longer exists is reported as absent. Only the tracing process records spans:
pool workers forked while tracing is on run the wrappers disabled.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time
from contextlib import contextmanager

# layer name -> (module, function)
TARGETS = {
    "dataio.parse_libsvm": ("fuvalkit.dataio", "parse_libsvm"),
    "problems.loss_value": ("fuvalkit.problems", "loss_value"),
    "problems.loss_grad_coef": ("fuvalkit.problems", "loss_grad_coef"),
    "problems.objective": ("fuvalkit.problems", "objective"),
    "problems.objective_grad": ("fuvalkit.problems", "objective_grad"),
    "problems.per_sample_values": ("fuvalkit.problems", "per_sample_values"),
    "problems.sample_constants": ("fuvalkit.problems", "sample_constants"),
    "problems.dense_data": ("fuvalkit.problems", "dense_data"),
    "optimizers.run": ("fuvalkit.optimizers", "run"),
    "optimizers.resolve_scaling": ("fuvalkit.optimizers", "resolve_scaling"),
    "optimizers.initial_slack": ("fuvalkit.optimizers", "initial_slack"),
    "bench.reference_solve": ("fuvalkit.bench", "reference_solve"),
    "bench.grid_search": ("fuvalkit.bench", "grid_search"),
}

# Raw spans kept for the output file; aggregates are exact beyond the cap.
SPAN_CAP = 50_000


class Stat:
    __slots__ = ("calls", "total", "self_time")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    """Spans (name, start, end, parent) with online self-time aggregation.

    Self time is a span's duration minus the time covered by its direct
    children. `nested[(ancestor, name)]` counts calls made inside an
    ancestor's span, e.g. objective calls inside reference_solve.
    """

    def __init__(self):
        self.enabled = False
        self.absent: list[str] = []
        self._patches: list[tuple[object, str, object]] = []
        self._stack: list[list] = []  # [span id, name, start, child time]
        self._next_id = 0
        self.spans: list[tuple] = []
        self.dropped = 0
        self.reset()
        os.register_at_fork(after_in_child=self._disable)

    def _disable(self):
        self.enabled = False

    def reset(self):
        """Clear the aggregates; the raw spans accumulate for the whole run."""
        self.stats: dict[str, Stat] = {}
        self.nested: dict[tuple[str, str], int] = {}

    # -- installation -----------------------------------------------------

    def install(self):
        """Bind a wrapper in place of every resolvable target."""
        self.absent = []
        for name, (mod_name, fn_name) in TARGETS.items():
            try:
                fn = getattr(importlib.import_module(mod_name), fn_name)
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, fn)
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").startswith("fuvalkit") and mod.__dict__.get(fn_name) is fn:
                    self._patches.append((mod, fn_name, fn))
                    setattr(mod, fn_name, wrapper)

    def uninstall(self):
        for mod, fn_name, fn in reversed(self._patches):
            setattr(mod, fn_name, fn)
        self._patches = []

    @contextmanager
    def tracing(self):
        self.install()
        self.enabled = True
        try:
            yield self
        finally:
            self.enabled = False
            self.uninstall()

    # -- spans ------------------------------------------------------------

    def _enter(self, name: str) -> list:
        self._next_id += 1
        frame = [self._next_id, name, time.perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list):
        end = time.perf_counter()
        self._stack.pop()
        span_id, name, start, child = frame
        dur = end - start
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = Stat()
        stat.calls += 1
        stat.total += dur
        stat.self_time += dur - child
        parent = 0
        if self._stack:
            self._stack[-1][3] += dur
            parent = self._stack[-1][0]
            for anc in {f[1] for f in self._stack}:
                key = (anc, name)
                self.nested[key] = self.nested.get(key, 0) + 1
        if len(self.spans) < SPAN_CAP:
            self.spans.append((span_id, parent, name, start, end))
        else:
            self.dropped += 1

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            frame = self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(frame)

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, e.g. around one operation."""
        if not self.enabled:
            yield
            return
        frame = self._enter(name)
        try:
            yield
        finally:
            self._exit(frame)

    # -- readout ----------------------------------------------------------

    def stat(self, name: str) -> Stat:
        return self.stats.get(name) or Stat()

    def write(self, path: str, header: dict):
        """JSON lines: a header, then one [id, parent, name, start, end] per span."""
        with open(path, "w") as fh:
            fh.write(json.dumps({**header, "spans": len(self.spans), "dropped": self.dropped}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

"""In-memory span tracing of bpsfair's modules, installed from outside.

``Tracer.install()`` replaces the names that ``bpsfair.engine``,
``bpsfair.cli``, ``bpsfair.metrics`` and ``bpsfair.data`` look up at call
time with recorders, and ``restore()`` puts the originals back.  A span
is recorded only inside a root span opened with ``Tracer.span``, so the
benchmark's own output checks never show up in a trace.  Each span keeps
its name, start, end and parent index; spans are written out only when
the benchmark ends.
"""

from __future__ import annotations

import gzip
import time
from contextlib import contextmanager

from bpsfair import cli, data, engine, metrics, network

# (module, attribute, span name); the span name is the layer that does the work.
PATCHES = (
    (engine, "run_grid", "engine.run_grid"),
    (engine, "train_model", "engine.train_model"),
    (engine, "evaluate", "engine.evaluate"),
    (engine, "dataset_for_split", "engine.dataset_for_split"),
    (engine, "init", "network.init"),
    (engine, "forward", None),  # split into network.forward.{train,eval} by mode
    (engine, "backward", "network.backward"),
    (engine, "adam_step", "network.adam_step"),
    (engine, "combined_loss_and_gradient", "losses.loss_and_grad"),
    (engine, "combined_loss", "losses.combined_loss"),
    (engine, "bps_report", "metrics.bps_report"),
    (engine, "fit_encoder", "data.fit_encoder"),
    (engine, "apply_encoder", "data.apply_encoder"),
    (engine, "mc_splits", "data.mc_splits"),
    (network.NetworkState, "copy", "network.copy"),
    (data, "load_csv", "data.load_csv"),
    (data, "fit_encoder", "data.fit_encoder"),
    (data, "apply_encoder", "data.apply_encoder"),
    (metrics, "read_prediction_dump", "metrics.read_prediction_dump"),
    (metrics, "bps_report", "metrics.bps_report"),
    (cli, "main", "cli.main"),
    (cli, "load_csv", "data.load_csv"),
    (cli, "apply_encoder", "data.apply_encoder"),
    (cli, "evaluate_state", "engine.evaluate"),
    (cli, "evaluate_prediction_dump", "metrics.evaluate_prediction_dump"),
    (cli, "load_model", "network.load_model"),
    (cli, "read_runs_csv", "report.read_runs_csv"),
    (cli, "cells_from_runs", "report.cells_from_runs"),
    (cli, "write_cells_csv", "report.write"),
    (cli, "emit_plot_series", "report.write"),
    (cli, "emit_comparison_tables", "report.write"),
)

# Every span name a trace can hold, in report order.
SPAN_NAMES = tuple(dict.fromkeys(
    name for _, _, span in PATCHES
    for name in ((span,) if span else ("network.forward.train", "network.forward.eval"))
))


class Tracer:
    """Span recorder; ``spans`` holds (name, start, end, parent) tuples."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._saved: list = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans[index] = (name, start, time.perf_counter(), parent)
            self._stack.pop()

    def _wrap(self, fn, name):
        stack = self._stack

        def recorder(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            span = name or ("network.forward." + kwargs.get(
                "mode", args[2] if len(args) > 2 else "eval"))
            with self.span(span):
                return fn(*args, **kwargs)

        recorder.__wrapped__ = fn
        return recorder

    def install(self):
        for owner, attr, name in PATCHES:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write(self, path):
        """Write all spans as gzipped CSV: index, name, start, end, parent."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("index,name,start,end,parent\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i},{name},{start:.9f},{end:.9f},{parent}\n")

    def totals(self):
        """Per span name: (seconds, calls, self seconds), over all recorded spans."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict = {}
        for (name, start, end, _), covered in zip(self.spans, child_time):
            s, calls, self_s = out.get(name, (0.0, 0, 0.0))
            out[name] = (s + end - start, calls + 1, self_s + end - start - covered)
        return out

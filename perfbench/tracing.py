"""Span tracing of the program's layers, from outside the program.

The traced run patches the public entry points of each layer (methods on
their classes, functions in every ``repro`` module that imported them)
with wrappers that record one span per call: name, start, end and the
parent span.  Spans live in flat arrays in memory and are written out
when the run ends.  Counts come from the values the wrapped calls
return (``TGResult``, ``JustResult``, ``TraceResult``, ``RelaxResult``,
``ForkOutcome``) and from the batched kernels' ``counters_snapshot()``.

Nothing in ``src/`` is edited: :meth:`Tracer.install` patches,
:meth:`Tracer.uninstall` restores the originals.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
import time
from array import array
from collections import Counter

#: (span name, module, attribute path) of every wrapped entry point.  A
#: dotted attribute path names a method on a class.
ENTRY_POINTS = (
    ("tg.generate", "repro.core.tg", "TestGenerator.generate"),
    ("dptrace.select", "repro.core.dptrace", "DPTrace.select_paths"),
    ("ctrljust.justify", "repro.core.ctrljust", "CtrlJust.justify"),
    ("clauses.refute", "repro.core.clauses", "CdclRefuter.run"),
    ("dprelax.relax", "repro.core.dprelax", "DiscreteRelaxer.relax"),
    ("cosim.golden", "repro.verify.cosim", "GoldenTraceCache.trace"),
    ("cosim.run", "repro.verify.cosim", "ProcessorSimulator.run"),
    ("faultsim.fork", "repro.datapath.faultsim", "BatchFaultSimulator.fork"),
    ("env.run", "repro.dlx.env", "DlxEnv.run"),
    ("lanes.run", "repro.dlx.lanes", "BatchDlxEnv.run"),
    ("controller.evaluate", "repro.controller.network",
     "ControlNetwork.evaluate"),
    ("env.batch_detects", "repro.dlx.env", "batch_detects"),
    ("env.detects", "repro.dlx.env", "detects"),
    ("spec.run", "repro.dlx.spec", "DlxSpec.run"),
    ("campaign.realize", "repro.dlx.realize", "realize"),
    ("campaign.drop", "repro.campaign.runner",
     "DlxCampaign.detects_realized_batch"),
    ("fuzz.coverage", "repro.analysis.coverage",
     "CoverageCollector.observe_trace"),
    ("conformance.reach", "repro.fuzz.conformance", "reaches_observable"),
    ("conformance.matrix", "repro.fuzz.conformance", "run_matrix"),
    ("setup.build", "repro.dlx.machine", "build_dlx"),
    ("setup.analyzer", "repro.model.processor", "Processor.analyzer"),
    ("setup.unroll", "repro.controller.pipeline",
     "UnrolledController.__init__"),
    ("setup.compile", "repro.datapath.compiled", "CompiledDatapath.__init__"),
    ("setup.compile", "repro.datapath.batched", "BatchedDatapath.__init__"),
    ("setup.compile", "repro.controller.implication",
     "CompiledNetwork.__init__"),
)


def _on_generate(counts: Counter, result) -> None:
    counts["tg.generate_calls"] += 1
    counts["tg.detected"] += result.status.value == "detected"
    counts["tg.attempts"] += result.attempts
    counts["tg.golden_hits"] += result.golden_hits
    counts["tg.golden_misses"] += result.golden_misses
    counts["tg.nogood_hits"] += result.nogood_hits
    counts["tg.nogood_misses"] += result.nogood_misses
    counts["tg.justify_memo_hits"] += result.justify_cache_hits
    counts["tg.path_cache_hits"] += result.path_cache_hits
    counts["tg.path_cache_misses"] += result.path_cache_misses
    counts["tg.sweeps_avoided"] += result.dptrace_sweeps_avoided
    counts["tg.clause_hits"] += result.clause_hits
    for phase, seconds in result.phase_seconds.items():
        counts[f"phase.{phase}"] += seconds


def _on_justify(counts: Counter, result) -> None:
    counts["ctrljust.calls"] += 1
    counts["ctrljust.backtracks"] += result.backtracks
    counts["ctrljust.success"] += result.status.value == "success"
    counts["ctrljust.refuted"] += result.refuted


def _on_select(counts: Counter, result) -> None:
    counts["dptrace.calls"] += 1
    counts["dptrace.backtracks"] += result.backtracks


def _on_relax(counts: Counter, result) -> None:
    counts["dprelax.calls"] += 1
    counts["dprelax.converged"] += result.converged


def _on_fork(counts: Counter, result) -> None:
    counts["faultsim.forks"] += 1
    counts["faultsim.clean"] += result.kind == "clean"


RESULT_HOOKS = {
    "tg.generate": _on_generate,
    "ctrljust.justify": _on_justify,
    "dptrace.select": _on_select,
    "dprelax.relax": _on_relax,
    "faultsim.fork": _on_fork,
}


class Tracer:
    """Records spans around the wrapped entry points while installed."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------
    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int) -> int:
        index = len(self.start)
        self.name_of.append(name_id)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._stack.pop()

    def span(self, name: str, fn, hook=None):
        """``fn`` wrapped so every call records one span named ``name``."""
        name_id = self._name_id(name)
        opened, closed, counts = self._open, self._close, self.counts

        def wrapper(*args, **kwargs):
            index = opened(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                closed(index)
            if hook is not None:
                hook(counts, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    @contextlib.contextmanager
    def root(self, name: str):
        """A span around benchmark code that is not a program call."""
        index = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(index)

    # -- patching -------------------------------------------------------
    def install(self) -> None:
        import importlib

        for name, module_name, path in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            hook = RESULT_HOOKS.get(name)
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[attr]
                self._patch(owner, attr, self.span(name, original, hook))
                continue
            original = getattr(module, path)
            wrapped = self.span(name, original, hook)
            # Rebind every module-level reference, so both lazy
            # ``from x import f`` at call time and import-time bindings
            # reach the wrapper.
            for mod_name, mod in list(sys.modules.items()):
                if (mod_name == "repro" or mod_name.startswith("repro.")) \
                        and getattr(mod, path, None) is original:
                    self._patch(mod, path, wrapped)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- analysis -------------------------------------------------------
    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, inclusive ``total`` and ``self`` time.

        A span's self time is its duration minus the part its child spans
        cover (children never outlive their parent).
        """
        n = len(self.start)
        child_time = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child_time[p] += self.end[i] - self.start[i]
        out = {name: {"calls": 0, "total": 0.0, "self": 0.0}
               for name in self.names}
        for i in range(n):
            row = out[self.names[self.name_of[i]]]
            duration = self.end[i] - self.start[i]
            row["calls"] += 1
            row["total"] += duration
            row["self"] += duration - child_time[i]
        return out

    def total_where(self, name: str, keep) -> float:
        """Inclusive time of spans ``name`` whose parent's name passes
        ``keep`` (``None`` for a top-level span)."""
        name_id = self._name_ids.get(name)
        total = 0.0
        for i in range(len(self.start)):
            if self.name_of[i] != name_id:
                continue
            p = self.parent[i]
            if keep(self.names[self.name_of[p]] if p >= 0 else None):
                total += self.end[i] - self.start[i]
        return total

    def under(self, name: str, ancestor: str) -> float:
        """Inclusive time of spans ``name`` below a span ``ancestor``."""
        name_id = self._name_ids.get(name)
        ancestor_id = self._name_ids.get(ancestor)
        total = 0.0
        for i in range(len(self.start)):
            if self.name_of[i] != name_id:
                continue
            p = self.parent[i]
            while p >= 0 and self.name_of[p] != ancestor_id:
                p = self.parent[p]
            if p >= 0:
                total += self.end[i] - self.start[i]
        return total

    def write(self, path: str) -> None:
        """Write every span as JSON columns (names indexed by ``name``)."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({
                "names": self.names,
                "name": self.name_of.tolist(),
                "parent": self.parent.tolist(),
                "start": self.start.tolist(),
                "end": self.end.tolist(),
                "counts": dict(self.counts),
            }, handle)

"""Span tracing of the simulator's layers, installed from outside.

The benchmark does not edit the program to trace it.  Instead
:func:`install` replaces each layer's public methods, at class level, with
a wrapper that times the call.  It runs in the sample process after the
imports and before anything is built or forked, so pool and service
workers inherit the wrappers through ``fork``.

Two kinds of record are kept in memory:

* an aggregate per span name ``(count, total_s, self_s, truthy)``, where
  self time is the span minus the time covered by its child spans on the
  same thread, and ``truthy`` counts calls whose return value was true
  (accepted enqueues, cache hits);
* the individual spans ``(name, start, end, parent, label)`` of the
  coarse layer boundaries: construction, the engine run, cache and store
  I/O, ``run_many``, ``execute_spec`` and the service executor.

The hot-loop methods are called millions of times per job, so they are
kept as aggregates only; their individual spans would cost more memory
than the simulation.  Each process writes its records to
``spans-<pid>.jsonl`` when its work ends: pool and service workers after
every ``execute_spec``, the sample process when the sample ends.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional

#: Hot-loop layers: aggregate only.  (span prefix, module, class, methods)
#: ``None`` methods means every public method defined on the class.
HOT_LAYERS = (
    ("workloads", "repro.workloads.synthetic", "SyntheticTraceGenerator", ("__next__",)),
    ("cpu.cache", "repro.cpu.cache", "Cache", None),
    ("cpu.core", "repro.cpu.core_model", "OooCore", None),
    ("controller", "repro.controller.controller", "MemoryController", None),
    ("controller.select", "repro.controller.channel_scheduler", "ChannelScheduler", ("select",)),
    (
        "dram.legality",
        "repro.dram.legality",
        "LegalityKernel",
        ("earliest_issue", "earliest_by_mask", "horizon"),
    ),
)

#: Layer boundaries whose individual spans are kept.
COARSE_METHODS = (
    ("sim.construct", "repro.sim.system", "CmpSystem", "__init__"),
    ("sim.engine", "repro.sim.system", "CmpSystem", "run"),
    ("sim.cache", "repro.sim.cache", "ResultCache", "get"),
    ("sim.cache", "repro.sim.cache", "ResultCache", "put"),
    ("serve.store", "repro.serve.store", "ResultStore", "get_result"),
    ("serve.store", "repro.serve.store", "ResultStore", "record"),
)

#: Methods whose true results are counted: accepted enqueues, cache hits.
COUNT_TRUE = ("try_enqueue", "get", "get_result")

#: Module-level functions, patched in every module that binds them.
COARSE_FUNCTIONS = (
    (
        "sim.parallel",
        "execute_spec",
        ("repro.sim.parallel", "repro.sim.runner"),
    ),
    (
        "sim.parallel",
        "run_many",
        ("repro.sim.parallel", "repro.experiments.quads", "repro.experiments.figure9"),
    ),
)


class Tracer:
    """Per-process span buffers, reset in every forked child."""

    def __init__(self, out_dir: Path):
        self.out_dir = Path(out_dir)
        self.root_pid = os.getpid()
        self._reset()
        os.register_at_fork(after_in_child=self._reset)

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.local = threading.local()
        self.aggregates: Dict[str, List[float]] = {}
        self.spans: List[tuple] = []

    def stack(self) -> list:
        stack = getattr(self.local, "stack", None)
        if stack is None:
            stack = self.local.stack = []
        return stack

    def wrap(
        self,
        func: Callable,
        name: str,
        keep: bool,
        label: Optional[Callable[..., str]] = None,
        count_true: bool = False,
    ) -> Callable:
        """``func`` timed as span ``name`` nested under the caller's span."""
        perf = time.perf_counter
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack = tracer.stack()
            frame = [name, 0.0]
            stack.append(frame)
            start = perf()
            try:
                result = func(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                duration = end - start
                record = tracer.aggregates.get(name)
                if record is None:
                    record = tracer.aggregates[name] = [0, 0.0, 0.0, 0]
                record[0] += 1
                record[1] += duration
                record[2] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if keep:
                    tracer.spans.append(
                        (
                            name,
                            start,
                            end,
                            stack[-1][0] if stack else None,
                            label(*args, **kwargs) if label else None,
                        )
                    )
            if count_true and result:
                record[3] += 1
            return result

        return traced

    def wrap_async(self, func: Callable, name: str, label: Callable[..., str]) -> Callable:
        """An ``async`` method timed as a detached span.

        Coroutines interleave on the event loop, so their spans are kept
        whole and never entered on the thread's span stack.
        """
        tracer = self

        @functools.wraps(func)
        async def traced(*args, **kwargs):
            start = time.perf_counter()
            try:
                return await func(*args, **kwargs)
            finally:
                tracer.span(name, start, time.perf_counter(), label(*args, **kwargs))

        return traced

    def span(self, name: str, start: float, end: float, label: Optional[str] = None) -> None:
        """Record a whole span with no children on the stack."""
        self.spans.append((name, start, end, None, label))
        record = self.aggregates.setdefault(name, [0, 0.0, 0.0, 0])
        record[0] += 1
        record[1] += end - start
        record[2] += end - start

    def flush(self) -> None:
        """Append this process's records to its spans file and clear them."""
        if not self.spans and not self.aggregates:
            return
        self.out_dir.mkdir(parents=True, exist_ok=True)
        line = json.dumps(
            {"pid": self.pid, "spans": self.spans, "aggregates": self.aggregates}
        )
        with open(self.out_dir / f"spans-{self.pid}.jsonl", "a") as handle:
            handle.write(line + "\n")
        self.aggregates = {}
        self.spans = []


def _public_methods(cls: type) -> Iterable[str]:
    for attr, value in vars(cls).items():
        if not attr.startswith("_") and callable(value) and not isinstance(
            value, (staticmethod, classmethod, type)
        ):
            yield attr


def _spec_label(spec: Any) -> str:
    from repro.sim.parallel import run_label

    return run_label(spec)


def install(out_dir: Path) -> Tracer:
    """Wrap every traced layer in this process; returns the tracer."""
    import importlib

    tracer = Tracer(out_dir)
    for prefix, module, cls_name, methods in HOT_LAYERS:
        cls = getattr(importlib.import_module(module), cls_name)
        for attr in methods or tuple(_public_methods(cls)):
            setattr(
                cls,
                attr,
                tracer.wrap(
                    vars(cls)[attr],
                    f"{prefix}:{attr}",
                    keep=False,
                    count_true=attr in COUNT_TRUE,
                ),
            )
    for prefix, module, cls_name, attr in COARSE_METHODS:
        cls = getattr(importlib.import_module(module), cls_name)
        setattr(
            cls,
            attr,
            tracer.wrap(
                vars(cls)[attr], f"{prefix}:{attr}", keep=True, count_true=attr in COUNT_TRUE
            ),
        )

    for prefix, attr, modules in COARSE_FUNCTIONS:
        original = getattr(importlib.import_module(modules[0]), attr)
        if attr == "execute_spec":
            timed = tracer.wrap(original, f"{prefix}:{attr}", keep=True, label=_spec_label)

            @functools.wraps(original)
            def traced(spec, _timed=timed):
                try:
                    return _timed(spec)
                finally:
                    # A worker's records leave with it: write them out
                    # before the result goes back to the parent.
                    if os.getpid() != tracer.root_pid:
                        tracer.flush()

        else:
            traced = tracer.wrap(original, f"{prefix}:{attr}", keep=True)
        for module in modules:
            setattr(importlib.import_module(module), attr, traced)

    from repro.serve.service import ProcessJobExecutor

    ProcessJobExecutor.run = tracer.wrap_async(
        ProcessJobExecutor.run,
        "serve.executor:run",
        label=lambda executor, job: _spec_label(job.spec),
    )
    return tracer


# -- reading the records back ----------------------------------------------


def load(out_dir: Path) -> List[Dict[str, Any]]:
    """Every flushed record under ``out_dir`` (one per process flush)."""
    records = []
    for path in sorted(Path(out_dir).glob("spans-*.jsonl")):
        with open(path) as handle:
            records.extend(json.loads(line) for line in handle if line.strip())
    return records


def merge_aggregates(records: List[Dict[str, Any]]) -> Dict[str, List[float]]:
    """Aggregates summed over every process."""
    total: Dict[str, List[float]] = {}
    for record in records:
        for name, values in record["aggregates"].items():
            into = total.setdefault(name, [0, 0.0, 0.0, 0])
            for i, value in enumerate(values):
                into[i] += value
    return total


def covered_fraction(spans: List[tuple], start: float, end: float) -> float:
    """Share of ``[start, end]`` covered by the union of ``spans``."""
    intervals = sorted(
        (max(s[1], start), min(s[2], end)) for s in spans if s[2] > start and s[1] < end
    )
    covered = 0.0
    cursor = start
    for lo, hi in intervals:
        if hi <= cursor:
            continue
        covered += hi - max(lo, cursor)
        cursor = hi
    return covered / (end - start) if end > start else 0.0


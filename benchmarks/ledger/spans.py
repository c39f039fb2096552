"""Per-layer spans, recorded from outside the program.

:func:`install` wraps public callables of :mod:`repro` (the table
``TARGETS``) so that each call records a span: name, start, end, parent
span and the op id the load generator set for the current thread.  No
file under ``src/`` knows about it.  A target that no longer exists is
reported as *absent*, never raised: later refactors may delete a layer.
``TARGETS`` is the one place that says which per-layer metrics each
target feeds, so :func:`install` also names the metrics that went absent.

Self time (a span's duration minus its direct children's durations) and
call counts are folded online, per thread, so the per-layer totals take
constant memory; individual spans are kept in memory up to ``SPAN_CAP``
per process and written out as JSON when the workload ends.

A wrapper that would open a span with the same name as the innermost
open span passes straight through, so ``ResultCache.load`` calling
``ResultCache.load_payload`` is one ``cache.load`` span, not two.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import os
import sys
import threading
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Modules imported before patching, so every ``from x import f`` alias
#: of a wrapped function already exists and is patched too.
_PRELOAD = (
    "repro.cli",
    "repro.experiments.report",
    "repro.experiments.runner",
    "repro.inject.campaign",
    "repro.service.daemon",
    "repro.service.client",
    "repro.sim.vector.engine",
    "repro.sim.vector.interp",
    "repro.verify.absint.certify",
)
#: Spans kept per process for the JSON dump; the totals are never capped.
SPAN_CAP = 200_000


class _ThreadState:
    """One thread's open-span stack and folded totals."""

    __slots__ = ("stack", "self_s", "calls", "by_label", "counts", "spans",
                 "op")

    def __init__(self) -> None:
        self.stack: List[list] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.by_label: Dict[Tuple[str, str], float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        self.spans: List[tuple] = []
        self.op: Any = None


class Recorder:
    """Collects spans and counts while ``armed``."""

    def __init__(self) -> None:
        self.armed = False
        #: Per-layer metrics whose targets no longer exist.
        self.absent: List[str] = []
        #: op id -> label (e.g. the NAS workload an op simulates).
        self.op_labels: Dict[Any, str] = {}
        self._local = threading.local()
        self._threads: List[_ThreadState] = []
        # ``next`` on a count is atomic under the GIL.
        self._ids = itertools.count(1)

    def state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = _ThreadState()
            self._local.st = st
            self._threads.append(st)
        return st

    def set_op(self, op: Any, label: Optional[str] = None) -> None:
        """Tag every span this thread opens from now on with ``op``."""
        self.state().op = op
        if label is not None:
            self.op_labels[op] = label

    def count(self, name: str, value: float = 1) -> None:
        if self.armed:
            self.state().counts[name] += value

    def wrap(self, name: str, fn: Callable, after=None) -> Callable:
        """``fn`` recording a ``name`` span per call; ``after(rec, args,
        result, children)`` runs on every armed call, merged or not.  A
        ``name`` of ``None`` records no span, only the hook."""
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not rec.armed:
                return fn(*args, **kwargs)
            st = rec.state()
            stack = st.stack
            if name is None or (stack and stack[-1][0] == name):
                result = fn(*args, **kwargs)
                if after is not None:
                    after(rec, args, result, 0)
                return result
            parent = stack[-1][3] if stack else 0
            # [name, start, child seconds, span id, parent id, children]
            frame = [name, perf_counter(), 0.0, next(rec._ids), parent, 0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - frame[1]
                own = dur - frame[2]
                if stack:
                    stack[-1][2] += dur
                    stack[-1][5] += 1
                st.self_s[name] += own
                st.calls[name] += 1
                label = rec.op_labels.get(st.op)
                if label is not None:
                    st.by_label[(label, name)] += own
                if len(st.spans) < SPAN_CAP:
                    st.spans.append(
                        (frame[3], parent, name, frame[1], end, st.op)
                    )
            if after is not None:
                after(rec, args, result, frame[5])
            return result

        return traced

    # ------------------------------------------------------------ results --
    def totals(self) -> Dict[str, Any]:
        """Folded totals over every thread (call after disarming)."""
        self_s: Dict[str, float] = defaultdict(float)
        calls: Dict[str, int] = defaultdict(int)
        by_label: Dict[str, Dict[str, float]] = defaultdict(dict)
        counts: Dict[str, float] = defaultdict(float)
        for st in self._threads:
            for k, v in st.self_s.items():
                self_s[k] += v
            for k, v in st.calls.items():
                calls[k] += v
            for (label, k), v in st.by_label.items():
                by_label[label][k] = by_label[label].get(k, 0.0) + v
            for k, v in st.counts.items():
                counts[k] += v
        return {
            "self_s": dict(self_s),
            "calls": dict(calls),
            "by_label": dict(by_label),
            "counts": dict(counts),
            "absent": list(self.absent),
        }

    def spans(self) -> List[dict]:
        out = []
        for st in self._threads:
            for sid, parent, name, start, end, op in st.spans:
                out.append({"id": sid, "parent": parent, "name": name,
                            "start": start, "end": end,
                            "op": list(op) if isinstance(op, tuple) else op})
        out.sort(key=lambda s: s["start"])
        return out


# ------------------------------------------------------------------ hooks --
def _count_plans(rec, args, result, children):
    rec.count("sim.vector.plans_built")


def _sim_run(rec, args, result, children):
    rec.count("sim.instructions", result.instructions)
    cov = result.vector_coverage
    if cov is not None:
        rec.count("sim.vector.replayed_iterations",
                  cov["replayed_iterations"])
        rec.count("sim.vector.fallback_iterations",
                  cov["fallback_iterations"])


def _cache_lookup(rec, args, result, children):
    rec.count("cache.lookups")
    if result is not None:
        rec.count("cache.hits")


def _cache_write(rec, args, result, children):
    try:
        rec.count("cache.bytes_written", os.path.getsize(result))
    except (OSError, TypeError):
        pass


def _store_get(rec, args, result, children):
    rec.count("service.store.gets")
    if result is not None and children == 0:
        rec.count("service.store.shard_hits")


def _wire_bytes(rec, args, result, children):
    rec.count("service.wire.bytes", len(result))


#: (span name, module, qualified name, after-hook, the per-layer metrics
#: the target feeds besides ``<span>.self_s`` and ``<span>.calls``).
#: Every public callable the per-layer metrics are measured at.
TARGETS: Tuple[Tuple[Optional[str], str, str, Any, Tuple[str, ...]], ...] = (
    ("workloads.build_programs", "repro.workloads.spec",
     "WorkloadSpec.build_programs", None, ()),
    ("compiler.compile_program", "repro.compiler.embed",
     "compile_program", None, ()),
    ("verify.certify_run", "repro.verify.absint.certify",
     "certify_run", None, ()),
    ("sim.vector.plan", "repro.sim.vector.plans", "ProgramPlans.plan",
     None, ()),
    (None, "repro.sim.vector.plans", "KernelPlan.__init__", _count_plans,
     ("sim.vector.plans_built",)),
    ("sim.vector.step", "repro.sim.vector.engine",
     "VectorCoreRunner.step_iterations", None, ()),
    ("isa.step", "repro.isa.interpreter", "Interpreter.step_iterations",
     None, ()),
    ("sim.run", "repro.sim.simulator", "Simulator.run", _sim_run,
     ("sim.instructions", "sim.vector.replay_ratio",
      "sim.vector.fallback_iterations")),
    ("results.to_dict", "repro.sim.results", "RunResult.to_dict", None, ()),
    ("results.from_dict", "repro.sim.results", "RunResult.from_dict", None,
     ()),
    ("cache.load", "repro.experiments.cache", "ResultCache.load", None, ()),
    ("cache.load", "repro.experiments.cache", "ResultCache.load_payload",
     _cache_lookup, ("cache.hit_ratio",)),
    ("cache.store", "repro.experiments.cache", "ResultCache.store", None,
     ()),
    ("cache.store", "repro.experiments.cache", "ResultCache.store_payload",
     _cache_write, ("cache.bytes_written",)),
    ("experiments.report", "repro.experiments.report", "generate_report",
     None, ()),
    ("resilience.lock", "repro.resilience.locks", "KeyLock.acquire", None,
     ()),
    ("resilience.lock", "repro.resilience.locks", "KeyLock.try_acquire",
     None, ()),
    ("resilience.lock", "repro.resilience.locks", "KeyLock.release", None,
     ()),
    ("resilience.journal", "repro.resilience.journal",
     "CompletionJournal.append", None, ()),
    ("inject.golden", "repro.inject.harness", "run_golden", None,
     ("inject.trials_per_golden",)),
    ("inject.fork", "repro.inject.harness", "fork", None, ()),
    ("inject.trial", "repro.inject.harness", "run_trial", None,
     ("inject.trials_per_golden",)),
    ("service.store.get", "repro.service.store",
     "ReplicatedStore.load_payload", _store_get,
     ("service.store.shard_hit_ratio",)),
    ("service.store.put", "repro.service.store",
     "ReplicatedStore.store_payload", None, ()),
    ("service.lease.claim", "repro.service.registry",
     "InFlightRegistry.claim", None, ()),
    ("service.lease.wait", "repro.service.registry",
     "InFlightRegistry.wait", None, ()),
    ("service.report", "repro.service.campaigns", "campaign_report", None,
     ()),
    ("service.wire", "repro.service.protocol", "encode_frame", _wire_bytes,
     ("service.wire.bytes",)),
    ("service.wire", "repro.service.protocol", "decode_stream", None, ()),
)


def _patch_function(module, attr: str, wrapped: Callable, original) -> None:
    """Replace ``original`` in ``module`` and in every loaded module that
    imported it by name."""
    setattr(module, attr, wrapped)
    for mod in list(sys.modules.values()):
        if mod is None or mod is module:
            continue
        if getattr(mod, attr, None) is original:
            setattr(mod, attr, wrapped)


def install(rec: Recorder, targets=TARGETS) -> Recorder:
    """Wrap every target that exists.  ``rec.absent`` lists the metrics
    of the rest: what a missing target feeds, and a span's own metrics
    once no target of that span is left."""
    for name in _PRELOAD:
        try:
            importlib.import_module(name)
        except ImportError:
            pass
    gone = [t for t in targets if not _wrap_target(rec, *t[:4])]
    alive = {t[0] for t in targets if t not in gone}
    absent = set()
    for span, _, _, _, feeds in gone:
        absent.update(feeds)
        if span is not None and span not in alive:
            absent.update((f"{span}.self_s", f"{span}.calls"))
    rec.absent = sorted(absent)
    return rec


def _wrap_target(rec: Recorder, span: Optional[str], modname: str,
                 qualname: str, after) -> bool:
    """Wrap one target in place; False when it does not exist."""
    try:
        module = importlib.import_module(modname)
    except ImportError:
        return False
    owner: Any = module
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return False
    attr = parts[-1]
    raw = inspect.getattr_static(owner, attr, None)
    if raw is None:
        return False
    if isinstance(raw, classmethod):
        setattr(owner, attr, classmethod(rec.wrap(span, raw.__func__, after)))
    elif isinstance(raw, staticmethod):
        setattr(owner, attr, staticmethod(rec.wrap(span, raw.__func__, after)))
    elif owner is module:
        _patch_function(module, attr, rec.wrap(span, raw, after), raw)
    else:
        setattr(owner, attr, rec.wrap(span, raw, after))
    return True

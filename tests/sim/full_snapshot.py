"""The full-copy snapshot: an oracle and a state comparator for tests.

:func:`capture` copies *everything* a :class:`~repro.sim.mechanism.
Mechanism` owns, at any point, as pure data: the memory image in
insertion order, the directory's log bits, every checkpoint with its
log, the open log, every AddrMap generation (open and committed) with
its counters, the operand buffers and the handler's counters.  AddrMap
entries become one table, one row per distinct entry object in the
order the capture meets them, and every reference is an index into it,
so two captures are equal only if their entry identity graphs are
isomorphic.  :func:`capture_pass` adds a fault-injection pass's step
grid and architectural state.

This is how boundaries were snapshotted before the incremental records
of :mod:`repro.sim.snapshot`: each boundary re-copied the whole state.
Tests compare a restored boundary against it, and the timed-stepper
differential test compares two runs' mechanisms with it.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.arch.buffers import AddrMapEntry
from repro.ckpt.log import IntervalLog

_BUFFER_FIELDS = ("words", "peak_words", "rejections")
_HANDLER_COUNTERS = ("assoc_executed", "omissions", "omission_lookups")


def capture(mech) -> Dict[str, Any]:
    """The mechanism's complete functional state as pure data."""
    entry_index: Dict[int, int] = {}
    entry_rows: List[List[Any]] = []

    def eid(core: int, entry: AddrMapEntry) -> int:
        got = entry_index.get(id(entry))
        if got is None:
            got = entry_index[id(entry)] = len(entry_rows)
            entry_rows.append(
                [core, entry.slice_.site, entry.address, list(entry.operands)]
            )
        return got

    def log_doc(log: IntervalLog) -> Dict[str, Any]:
        return {
            "interval": log.interval_index,
            "records": [[r.address, r.old_value, r.core]
                        for r in log.records],
            "omitted": [[o.address, eid(o.core, o.entry), o.core,
                         o.ground_truth_old_value] for o in log.omitted],
        }

    handler = mech.handler
    addrmaps = operand_buffers = gen_words = handler_counters = None
    if handler is not None:
        def gen_doc(core: int, gen: Any) -> Dict[str, Any]:
            return {
                "entries": [[a, eid(core, e)] for a, e in gen.entries.items()],
                "tombstones": sorted(gen.tombstones),
            }

        addrmaps = []
        for core, addrmap in enumerate(handler.addrmaps):
            open_gen, committed = addrmap.internal_state()
            addrmaps.append({
                "open": gen_doc(core, open_gen),
                "committed": [gen_doc(core, g) for g in committed],
                "records": addrmap.records,
                "rejections": addrmap.rejections,
            })
        operand_buffers = [
            {name: getattr(b, name) for name in _BUFFER_FIELDS}
            for b in handler.operand_buffers
        ]
        gen_words = [list(w) for w in handler.generation_words()]
        handler_counters = {
            name: getattr(handler, name) for name in _HANDLER_COUNTERS
        }
    open_log = log_doc(mech.store.current_log)
    checkpoints = [
        dict(vars(c), log=log_doc(c.log), participants=(
            None if c.participants is None else sorted(c.participants)
        ))
        for c in mech.store.checkpoints
    ]
    return {
        "memory_seed": mech.memory.seed,
        "memory_words": [[a, v] for a, v in mech.memory.snapshot().items()],
        "ecc_lookup_hits": mech.ecc_lookup_hits,
        "directory_log_bits": sorted(mech.directory.log_bit_set()),
        "entries": entry_rows,
        "open_log": open_log,
        "checkpoints": checkpoints,
        "addrmaps": addrmaps,
        "operand_buffers": operand_buffers,
        "gen_words": gen_words,
        "handler_counters": handler_counters,
    }


def _arch_row(row) -> List[Any]:
    """One core's ``[kernel, iteration, regs]``."""
    kernel, iteration, regs = row
    return [kernel, iteration, list(regs)]


def capture_pass(p) -> Dict[str, Any]:
    """:func:`capture` plus a fault-injection pass's step grid, live and
    initial architectural state and per-checkpoint architectural
    history."""
    doc = capture(p.mech)
    doc.update(
        step=p.steps,
        n_instructions=p.n_instructions,
        arch=[_arch_row(it.arch_state()) for it in p.interpreters],
        initial_arch=[_arch_row(r) for r in p.initial_arch],
        arch_history=[[_arch_row(r) for r in states]
                      for states in p.arch_snapshots],
    )
    return doc

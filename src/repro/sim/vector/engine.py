"""The simulator-side vector engine: plan replay with inlined accounting.

A :class:`VectorCoreRunner` is a drop-in replacement for one core's
timed :class:`~repro.isa.interpreter.Interpreter` inside
``_Run._run_core_to``: it exposes the same ``done`` / ``step_iterations``
surface but advances the core by replaying precomputed
:class:`~repro.sim.vector.plans.KernelPlan` trace segments through one
allocation-free loop.  Where a shape's generated timed stepper computes
values and calls :meth:`~repro.sim.mechanism.Mechanism.first_write` and
the ACR handler, the replay reads values from the plan and inlines the
whole store protocol over the mechanism's state (log bits, log appends,
AddrMap lookups and records, operand-buffer reservations): it is the
one inlined copy of :meth:`~repro.sim.mechanism.Mechanism.on_store`,
and ``_Run`` builds runners only for unobserved runs.  The cache
lookups, stalls and communication tracking are the timed stepper's,
written out once more over the same set lists.
Pure counters batch per call: integer counter updates commute with the
timed steppers', so only the *float* stall accumulators need the
flush/refetch dance around interpreter fallbacks.

Bit-identity rules (conservative fallback to the classic interpreter
otherwise):

* every *external* load address of the plan must still be unwritten in
  the memory image — then the plan's store values are exact;
* a kernel that both loads and stores the same address replays only
  through the interpreter (its forwarding assumptions cannot be
  re-validated cheaply mid-run);
* under ACR the kernel's register file must be *stable* (no register
  definition after its first store), so the handler can snapshot operand
  values from the plan's per-iteration register rows.

These exact runtime checks alone decide replay; the static vector-safety
certificates (:mod:`repro.verify.absint`) only explain.  A segment that
falls back is charged to its certificate's leading denial rule id
(ACR009–ACR012) in ``fallback_reasons``, so coverage is explainable
instruction by instruction (``acr-repro analyze --explain-fallbacks``).
The certificates are computed on the first fallback, so a run that never
falls back never certifies.  A SAFE certificate proves every check above
passes, so a fallback charged ``"unknown"`` marks a certifier soundness
bug.

Floating-point identity: the stall constants are
:meth:`~repro.arch.core.CoreTimingModel.miss_stalls_ns`, in the
expression shape of ``stall_time_ns`` (``(l1+l2) - l1`` — float
addition is not associative, so the "simplified" ``l2`` constant would
differ in the last bit), and stalls accumulate in the same
left-to-right order as in the timed stepper (L1 hits contribute an
exact ``0.0`` and are skipped — ``x + 0.0 == x`` for the non-negative
accumulator).
"""

from __future__ import annotations

from typing import Dict, Tuple
from weakref import WeakKeyDictionary

from repro.arch.buffers import AddrMapEntry
from repro.ckpt.log import LogRecord, OmittedRecord
from repro.isa.interpreter import ExecChunk
from repro.isa.opcodes import INIT_MIX, MASK64
from repro.sim.vector.plans import plans_for

__all__ = ["VectorCoreRunner"]

#: Executed (per-core, possibly ACR-compiled) program -> {kernel index ->
#: covered-store metadata}.  The compiled program object is shared across
#: runs and configurations via the simulator's compile cache, and its
#: slice table (hence the Slice objects the handler serves) is part of
#: it, so the metadata is stable for the program's lifetime.
_COVERED_CACHE: "WeakKeyDictionary" = WeakKeyDictionary()


class VectorCoreRunner:
    """Executes one core of a ``_Run`` from trace plans.

    The runner keeps its own (kernel, iteration) position; the wrapped
    classic interpreter is only synchronised (via ``restore_arch_state``)
    when a segment needs the fallback path, so plan-replayed work never
    pays interpreter bookkeeping.
    """

    def __init__(self, run, core: int) -> None:
        self.run = run
        self.core = core
        self.program = run.programs[core]
        self.interp = run.interpreters[core]
        # Plans are keyed on the *plain* (pre-ACR) program: compilation
        # only flips `assoc` flags on embedded stores (bodies, sites and
        # trip counts are untouched), so the address/value/row streams
        # are identical and one plan set serves both the baseline and
        # every ACR configuration of a workload.  Only the ASSOC-ADDR
        # instruction count differs; it comes from the executed kernel's
        # shape.
        self.plans = plans_for(
            run.sim.programs[core], run.options.memory_seed, run.config.line_bytes
        )
        self._covered_meta = _COVERED_CACHE.setdefault(self.program, {})
        #: Coverage accounting: iterations replayed from plans vs handed
        #: to the classic interpreter, the latter keyed by denial rule.
        self.replayed_iterations = 0
        self.fallback_iterations = 0
        self.fallback_reasons: Dict[str, int] = {}
        self._k = 0
        self._i = 0
        #: True while the classic interpreter's position matches ours.
        self._synced = True

        self._l2_stall, self._mem_stall = run.timing.miss_stalls_ns()
        self._track_comm = run.options.scheme == "local"

        hier = run.machine.hierarchies[core]
        self._hier = hier
        (
            self._l1_sets,
            self._l1_nsets,
            self._l1_ways,
            self._l1_dirty,
        ) = hier.l1d.internal_state()
        (
            self._l2_sets,
            self._l2_nsets,
            self._l2_ways,
            self._l2_dirty,
        ) = hier.l2.internal_state()

    # -- interpreter surface -------------------------------------------------
    @property
    def done(self) -> bool:
        """True once every kernel has run to completion."""
        return self._k >= len(self.program.kernels)

    @property
    def position(self) -> Tuple[int, int]:
        """(kernel index, next iteration) — parity with the interpreter."""
        return (self._k, self._i)

    def step_iterations(self, max_iterations: int) -> ExecChunk:
        """Execute up to ``max_iterations`` loop iterations.

        Mirrors :meth:`Interpreter.step_iterations`: crosses kernel
        boundaries, stops early at program end, returns the chunk's
        dynamic instruction counts.

        The replay fast path runs inline here with all run-level state
        pre-bound: checkpoints, rollbacks, log rotation, AddrMap
        generation commits and memory-image restores all happen *between*
        calls, so one binding per call is exact.  Cache/handler/log
        counters batch in locals and flush on return (integer adds
        commute with any classic-path increments from fallback segments);
        the float stall accumulators are written back before and
        re-fetched after every fallback, keeping the addition order
        identical to the classic engine's.
        """
        if max_iterations <= 0:
            raise ValueError("max_iterations must be positive")
        iterations = alu = loads = stores = assoc = 0
        run = self.run
        core = self.core
        kernels = self.program.kernels
        n_kernels = len(kernels)
        plan_for = self.plans.plan
        covered_meta = self._covered_meta
        mech = run.mech
        handler = mech.handler

        memory = mech.memory
        words = memory.words_map()
        seed = memory.seed
        l1_sets = self._l1_sets
        l1_nsets = self._l1_nsets
        l1_ways = self._l1_ways
        l1_dirty = self._l1_dirty
        l2_sets = self._l2_sets
        l2_nsets = self._l2_nsets
        l2_ways = self._l2_ways
        l2_dirty = self._l2_dirty
        l2_stall = self._l2_stall
        mem_stall = self._mem_stall

        track = self._track_comm
        if track:
            toucher, edges = mech.directory.comm_state()

        ckpt = run.ckpt_enabled
        if ckpt:
            log_bits = mech.directory.log_bit_set()
            log = mech.store.current_log
            log_stall = run._log_stall_ns
            rec_append = log.records.append
            om_append = log.omitted.append

        if handler is not None:
            site_slices = handler.site_slice_map(core)
            addrmap = handler.addrmaps[core]
            cycle_ns = run._cycle_ns
            # Inlined AddrMap / OperandBuffer state.  The open generation
            # is rebound only by checkpoint commits and the committed list
            # mutates in place, so per-call bindings are exact.
            ogen, committed = addrmap.internal_state()
            oentries = ogen.entries
            oe_get = oentries.get
            otombs = ogen.tombstones
            am_cap = addrmap.capacity
            n_comm = len(committed)
            gl_get = committed[-1].entries.get if n_comm else None
            gl_tombs = committed[-1].tombstones if n_comm else None
            gp_get = committed[-2].entries.get if n_comm > 1 else None
            opbuf = handler.operand_buffers[core]
            opbuf_cap = opbuf.capacity_words
            gen_words = handler._gen_words[core]
        lookups_d = omissions_d = assoc_exec_d = 0

        pend_u = run._pending_useful[core]
        pend_o = run._pending_overhead[core]
        l1_hits = l1_misses = l1_ev = l1_dev = 0
        l2_hits = l2_misses = l2_ev = l2_dev = 0
        mem_acc = wbacks = 0

        while iterations < max_iterations and self._k < n_kernels:
            k = self._k
            kernel = kernels[k]
            budget = min(kernel.trip_count - self._i, max_iterations - iterations)
            plan = plan_for(k)

            # The exact runtime check: no in-kernel overlap, a stable
            # register file when a handler observes stores, and external
            # loads still unwritten.
            usable = (
                not plan.overlap
                and (
                    handler is None
                    or plan.stores_per_iter == 0
                    or plan.regs_stable
                )
                # C-level disjointness: the keys view iterates the (small)
                # frozenset, probing the written-word dict per element.
                and words.keys().isdisjoint(plan.external_loads)
            )

            if not usable:
                # Hand the float accumulators to the classic path in
                # order; integer deltas stay batched (they commute).
                run._pending_useful[core] = pend_u
                run._pending_overhead[core] = pend_o
                interp = self.interp
                if not self._synced:
                    regs = (
                        list(plan.rows[self._i - 1])
                        if self._i > 0
                        else [0] * (plan.width + 1)
                    )
                    interp.restore_arch_state((self._k, self._i, regs))
                    self._synced = True
                chunk = interp.step_iterations(budget)
                alu += chunk.alu
                loads += chunk.loads
                stores += chunk.stores
                assoc += chunk.assoc
                iterations += chunk.iterations
                # Attribution: the budget never crosses the kernel
                # boundary, so the whole classic chunk belongs to this
                # segment's certificate (certified on first fallback,
                # cached on the simulator).  A SAFE segment passes every
                # check above; "unknown" would mark a certifier bug.
                cert = run.sim.vector_certificates()[core][k]
                reason = cert.reason or "unknown"
                self.fallback_iterations += chunk.iterations
                self.fallback_reasons[reason] = (
                    self.fallback_reasons.get(reason, 0) + chunk.iterations
                )
                self._k, self._i = interp.position
                pend_u = run._pending_useful[core]
                pend_o = run._pending_overhead[core]
                continue

            # -- replay fast path (iterations [i0, i1) of one plan) ------
            i0 = self._i
            i1 = i0 + budget
            api = plan.accesses_per_iter
            spi = plan.stores_per_iter
            if api:
                acc_rows = plan.access_rows()
                handling = handler is not None and spi > 0
                if handling:
                    covered = covered_meta.get(k)
                    if covered is None:
                        built = []
                        for site in plan.store_sites:
                            sl = site_slices.get(site)
                            built.append(
                                None
                                if sl is None
                                else (sl, sl.frontier, len(sl.frontier))
                            )
                        covered = tuple(built)
                        covered_meta[k] = covered
                    rows = plan.rows

                row = None
                for i in range(i0, i1):
                    if handling:
                        row = rows[i]
                        s = 0
                    for addr, line, is_store, value in acc_rows[i]:
                        # -- cache hierarchy (inlined access) ------------
                        # Dirtiness lives only in l1_dirty / l2_dirty
                        # (resident lines only); the set dicts hold LRU
                        # order alone and are created on first touch.
                        si = line % l1_nsets
                        cset = l1_sets[si]
                        if cset is None:
                            cset = l1_sets[si] = {}
                        if line in cset:
                            cset[line] = cset.pop(line)
                            if is_store:
                                l1_dirty.add(line)
                            l1_hits += 1
                        else:
                            l1_misses += 1
                            vdirty = False
                            if len(cset) >= l1_ways:
                                vline = next(iter(cset))
                                del cset[vline]
                                l1_ev += 1
                                if vline in l1_dirty:
                                    l1_dirty.remove(vline)
                                    vdirty = True
                                    l1_dev += 1
                            cset[line] = None
                            if is_store:
                                l1_dirty.add(line)
                            if vdirty:
                                # L1 victim lands in L2 as a write.
                                si = vline % l2_nsets
                                wset = l2_sets[si]
                                if wset is None:
                                    wset = l2_sets[si] = {}
                                if vline in wset:
                                    wset[vline] = wset.pop(vline)
                                    l2_hits += 1
                                else:
                                    l2_misses += 1
                                    if len(wset) >= l2_ways:
                                        wl = next(iter(wset))
                                        del wset[wl]
                                        if wl in l2_dirty:
                                            l2_dirty.remove(wl)
                                            l2_dev += 1
                                            wbacks += 1
                                        l2_ev += 1
                                    wset[vline] = None
                                l2_dirty.add(vline)
                            # Demand fill from L2.
                            si = line % l2_nsets
                            dset = l2_sets[si]
                            if dset is None:
                                dset = l2_sets[si] = {}
                            if line in dset:
                                dset[line] = dset.pop(line)
                                l2_hits += 1
                                pend_u += l2_stall
                            else:
                                l2_misses += 1
                                if len(dset) >= l2_ways:
                                    dl = next(iter(dset))
                                    del dset[dl]
                                    if dl in l2_dirty:
                                        l2_dirty.remove(dl)
                                        l2_dev += 1
                                        wbacks += 1
                                    l2_ev += 1
                                dset[line] = None
                                mem_acc += 1
                                pend_u += mem_stall

                        # -- directory communication tracking ------------
                        if track:
                            prev = toucher.get(line)
                            if prev is None:
                                toucher[line] = core
                            elif prev != core:
                                edges.add(
                                    (prev, core) if prev < core else (core, prev)
                                )
                                toucher[line] = core

                        if not is_store:
                            continue

                        # -- store: log bit, old value, memory write -----
                        if ckpt and addr not in log_bits:
                            log_bits.add(addr)
                            old = words.get(addr)
                            if old is None:
                                x = (addr * INIT_MIX + seed) & MASK64
                                x ^= x >> 29
                                old = (x * INIT_MIX) & MASK64
                            if handler is None:
                                rec_append(LogRecord(addr, old, core))
                                pend_o += log_stall
                            else:
                                # Inlined may_omit + committed_lookup:
                                # scan committed generations youngest-
                                # first; a tombstone ends the search.
                                lookups_d += 1
                                if gl_get is None:
                                    entry = None
                                else:
                                    entry = gl_get(addr)
                                    if (
                                        entry is None
                                        and gp_get is not None
                                        and addr not in gl_tombs
                                    ):
                                        entry = gp_get(addr)
                                if entry is not None:
                                    omissions_d += 1
                                    om_append(
                                        OmittedRecord(addr, entry, core, old)
                                    )
                                else:
                                    rec_append(LogRecord(addr, old, core))
                                    pend_o += log_stall
                        words[addr] = value
                        if handling:
                            smeta = covered[s]
                            s += 1
                            if smeta is None:
                                # Plain store: mask any association
                                # (inlined AddrMap.invalidate).
                                oentries.pop(addr, None)
                                otombs.add(addr)
                            else:
                                # Inlined ACRStoreHandler.on_store,
                                # RECORDED / REJECTED paths.
                                sl, frontier, n_ops = smeta
                                replaced = oe_get(addr)
                                if replaced is not None:
                                    freed = len(replaced.slice_.frontier)
                                    nw = opbuf.words - freed
                                    opbuf.words = nw if nw > 0 else 0
                                    gen_words[-1] -= freed
                                nw = opbuf.words + n_ops
                                if nw > opbuf_cap:
                                    # Reservation rejected -> invalidate.
                                    opbuf.rejections += 1
                                    oentries.pop(addr, None)
                                    otombs.add(addr)
                                elif (
                                    addr in oentries
                                    or len(oentries) < am_cap
                                ):
                                    opbuf.words = nw
                                    if nw > opbuf.peak_words:
                                        opbuf.peak_words = nw
                                    otombs.discard(addr)
                                    oentries[addr] = AddrMapEntry(
                                        addr,
                                        sl,
                                        tuple(row[r] for r in frontier),
                                    )
                                    addrmap.records += 1
                                    gen_words[-1] += n_ops
                                    assoc_exec_d += 1
                                    pend_o += cycle_ns
                                else:
                                    # AddrMap full: release + invalidate.
                                    opbuf.words = nw
                                    if nw > opbuf.peak_words:
                                        opbuf.peak_words = nw
                                    addrmap.rejections += 1
                                    nw -= n_ops
                                    opbuf.words = nw if nw > 0 else 0
                                    oentries.pop(addr, None)
                                    otombs.add(addr)

            alu += budget * (plan.alu_per_iter + kernel.ghost_alu)
            loads += budget * plan.loads_per_iter
            stores += budget * spi
            # The executed kernel's own count: the plan's kernel is the
            # plain one, whose stores carry no ASSOC-ADDR.
            assoc += budget * kernel.shape.assoc_count
            self._i = i1
            iterations += budget
            self.replayed_iterations += budget
            self._synced = False
            if i1 >= kernel.trip_count:
                self._k += 1
                self._i = 0

        # -- flush batched counters ----------------------------------------
        l1 = self._hier.l1d
        l1.hits += l1_hits
        l1.misses += l1_misses
        l1.evictions += l1_ev
        l1.dirty_evictions += l1_dev
        l2 = self._hier.l2
        l2.hits += l2_hits
        l2.misses += l2_misses
        l2.evictions += l2_ev
        l2.dirty_evictions += l2_dev
        self._hier.memory_accesses += mem_acc
        self._hier.writebacks += wbacks
        if handler is not None:
            handler.omission_lookups += lookups_d
            handler.omissions += omissions_d
            handler.assoc_executed += assoc_exec_d
        run._pending_useful[core] = pend_u
        run._pending_overhead[core] = pend_o
        return ExecChunk(iterations, alu, loads, stores, assoc)

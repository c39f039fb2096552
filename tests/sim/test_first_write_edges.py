"""First-write protocol edge cases: plans, intervals, AddrMap pressure.

The checkpoint log records each word's *first* write per interval; ACR's
AddrMap decides which of those records can be omitted.  These tests pin
the edges of that protocol:

* :func:`first_store_occurrence` — the first-touch reduction over a
  plan's store stream (region wrap, stride-0 streams, multiple stores
  per iteration, same-line/different-word writes);
* interval boundaries — log bits clear at every checkpoint, so the same
  address is "first" again in each interval, exactly once;
* capacity pressure — tiny AddrMap/OperandBuffer capacities drive the
  handler's reject/invalidate paths, which must stay bit-identical
  between the interpreter and the vector engine's inlined fast path.
"""

from __future__ import annotations

import pytest

from repro.arch.config import MachineConfig
from repro.experiments.configs import ConfigRequest, make_options
from repro.isa.builder import chain_kernel
from repro.isa.instructions import LINE_BYTES, WORD_BYTES, AddressPattern
from repro.isa.program import Program
from repro.sim.simulator import Simulator
from repro.sim.vector.plans import plans_for


def first_store_occurrence(plan):
    """Per store access (kernel order): first write to its address?

    A first-touch reduction over the plan's store stream: entry ``j`` is
    True iff store ``j`` is the kernel's first store to that address.
    Interval-level first-write accounting composes this with the
    directory's log bits (an address already handled earlier in the
    interval is never "first" again until the boundary).
    """
    seen: set = set()
    out = []
    flags = plan.store_flags
    for i, addr in enumerate(plan.addrs):
        if flags[i % len(flags)]:
            out.append(addr not in seen)
            seen.add(addr)
    return out


def _plan(store_pattern, trip, extra_stores=None, base=1 << 24):
    kernel = chain_kernel(
        "k",
        store_pattern,
        [AddressPattern(base + (1 << 20), 1, 64)],
        chain_depth=2,
        trip_count=trip,
        extra_stores=extra_stores,
    )
    program = Program([kernel], 0)
    return plans_for(program, 0, LINE_BYTES).plan(0)


class TestFirstStoreOccurrence:
    def test_region_wrap_retouches_are_not_first(self):
        # Words 0..3 twice over: only the first visit of each is "first".
        plan = _plan(AddressPattern(0, 1, 4), trip=8)
        assert first_store_occurrence(plan) == [True] * 4 + [False] * 4

    def test_stride_zero_single_word(self):
        plan = _plan(AddressPattern(0, 0, 8), trip=6)
        assert first_store_occurrence(plan) == [True] + [False] * 5

    def test_negative_stride_wraps_backwards(self):
        # offset 0, stride -1, length 4 -> words 0, 3, 2, 1, 0, 3, ...
        plan = _plan(AddressPattern(0, -1, 4), trip=6)
        assert first_store_occurrence(plan) == [True] * 4 + [False] * 2

    def test_two_stores_per_iteration_same_address(self):
        # The extra store duplicates the main stream: within an iteration
        # the second write to a word is never first.
        pattern = AddressPattern(0, 1, 4)
        plan = _plan(pattern, trip=4, extra_stores=[pattern])
        assert first_store_occurrence(plan) == [True, False] * 4

    def test_same_line_different_words_each_first(self):
        # Eight words share one cache line; first-write granularity is
        # the word, so every one of them is a first touch.
        plan = _plan(AddressPattern(0, 1, 8), trip=8)
        assert first_store_occurrence(plan) == [True] * 8
        assert len(set(plan.lines[p] for p, f in enumerate(plan.store_flags) if f)) \
            <= (8 * WORD_BYTES + LINE_BYTES - 1) // LINE_BYTES

    def test_no_stores_empty(self):
        from repro.isa.builder import KernelBuilder

        b = KernelBuilder("pure_loads")
        b.load(AddressPattern(0, 1, 8))
        program = Program([b.build(4)], 0)
        plan = plans_for(program, 0, LINE_BYTES).plan(0)
        assert first_store_occurrence(plan) == []

    def test_single_trip_is_always_first(self):
        # One iteration cannot retouch anything, whatever the stride.
        for stride in (1, 0, -1):
            plan = _plan(AddressPattern(0, stride, 8), trip=1)
            assert first_store_occurrence(plan) == [True]

    def test_single_trip_duplicate_store_not_first(self):
        # Even with trip 1 the *second* store of the iteration can
        # retouch the word the first one just wrote.
        pattern = AddressPattern(0, 0, 8)
        plan = _plan(pattern, trip=1, extra_stores=[pattern])
        assert first_store_occurrence(plan) == [True, False]



def _stride_one_programs(num_cores=2, reps=6, words=48):
    """Each rep rewrites the same ``words``-word region once."""
    programs = []
    for t in range(num_cores):
        base = (t + 1) << 24
        kernels = [
            chain_kernel(
                f"k{rep}",
                AddressPattern(base, 1, words),
                [AddressPattern(base + (1 << 20), 1, words, offset=rep)],
                chain_depth=3,
                trip_count=words,
                salt=t * 100 + rep,
            )
            for rep in range(reps)
        ]
        programs.append(Program(kernels, t))
    return programs


class TestIntervalBoundaries:
    """Log bits clear at checkpoints: firstness is per interval."""

    @pytest.fixture(scope="class")
    def run(self):
        num_cores, words = 2, 48
        sim = Simulator(_stride_one_programs(num_cores, 6, words), MachineConfig(num_cores=num_cores))
        base = sim.run_baseline()
        result = sim.run(
            make_options(
                ConfigRequest("Ckpt_NE", num_checkpoints=3),
                base.baseline_profile(),
            )
        )
        return result, num_cores, words

    def test_each_interval_logs_footprint_once(self, run):
        result, num_cores, words = run
        # Every interval rewrites each region fully at least once; the
        # log must hold exactly one record per word per interval — a
        # retouch before the boundary adds nothing, the first touch
        # after it always logs again.
        for iv in result.intervals:
            assert iv.logged_records == num_cores * words

    def test_readdressed_words_relog_after_boundary(self, run):
        result, num_cores, words = run
        total = sum(iv.logged_records for iv in result.intervals)
        assert total == len(result.intervals) * num_cores * words


class TestCapacityPressureEquivalence:
    """Tiny ACR structures: reject/invalidate paths on both engines."""

    REQUEST = ConfigRequest("ReCkpt_NE", num_checkpoints=3)

    def _both(self, machine):
        sim = Simulator(_stride_one_programs(), machine)
        base = sim.run_baseline()
        a = sim.run(make_options(self.REQUEST, base.baseline_profile(), engine="interp"))
        b = sim.run(make_options(self.REQUEST, base.baseline_profile(), engine="vector"))
        assert a.to_dict() == b.to_dict()
        return a

    @pytest.fixture(scope="class")
    def roomy(self):
        return self._both(MachineConfig(num_cores=2))

    def test_default_capacity_no_rejections(self, roomy):
        assert roomy.addrmap_rejections == 0
        assert roomy.omissions > 0

    def test_addrmap_full_rejects_bit_identically(self, roomy):
        run = self._both(MachineConfig(num_cores=2, addrmap_capacity=8))
        # The pressure must actually bite, or this test pins nothing.
        assert run.addrmap_rejections > 0
        assert run.omissions < roomy.omissions

    def test_operand_buffer_full_invalidates_bit_identically(self, roomy):
        run = self._both(
            MachineConfig(num_cores=2, operand_buffer_capacity=8)
        )
        # Reserve failures invalidate the would-be entries, so omission
        # coverage collapses relative to the roomy machine.
        assert run.omissions < roomy.omissions

    def test_both_full_bit_identically(self, roomy):
        run = self._both(
            MachineConfig(
                num_cores=2, addrmap_capacity=8, operand_buffer_capacity=8
            )
        )
        assert run.omissions < roomy.omissions


def _edge_pattern_programs(num_cores=2):
    """Kernels hitting the plan.overlap edges: wraparound footprints,
    stride-0 streams, negative strides, and single-trip segments."""
    programs = []
    for t in range(num_cores):
        base = (t + 1) << 24
        edges = [
            # Wraparound: the load window wraps past the region end and
            # back over words the store stream already touched.
            ("wrap", AddressPattern(base, 1, 8),
             AddressPattern(base, 1, 8, offset=6), 8),
            # Stride-0: every iteration rereads one fixed word.
            ("stride0", AddressPattern(base + 256, 1, 8),
             AddressPattern(base + 256, 0, 8, offset=3), 6),
            # Negative stride: load walks backwards through the region.
            ("negstride", AddressPattern(base + 512, 1, 4),
             AddressPattern(base + 512, -1, 4, offset=2), 4),
            # Single trip: one iteration, trivially overlap-free.
            ("singletrip", AddressPattern(base + 768, 1, 8),
             AddressPattern(base + 768 + (1 << 12), 1, 8), 1),
        ]
        kernels = [
            chain_kernel(
                name,
                store,
                [load],
                chain_depth=2,
                trip_count=trip,
                salt=t * 100 + i,
            )
            for i, (name, store, load, trip) in enumerate(edges)
        ]
        programs.append(Program(kernels, t))
    return programs


class TestEdgePatternEquivalence:
    """The overlap edges run bit-identically on both engines.

    These kernels force the vector engine down both sides of its
    replay/fallback split (the wrap and stride-0 kernels overlap, the
    single-trip one does not) — the result must not depend on which
    path executed."""

    @pytest.mark.parametrize(
        "request_", [ConfigRequest("Ckpt_NE", num_checkpoints=3),
                     ConfigRequest("ReCkpt_E", num_checkpoints=3)],
        ids=["Ckpt_NE", "ReCkpt_E"],
    )
    def test_engines_bit_identical(self, request_):
        sim = Simulator(_edge_pattern_programs(), MachineConfig(num_cores=2))
        base = sim.run_baseline()
        a = sim.run(make_options(request_, base.baseline_profile(), engine="interp"))
        b = sim.run(make_options(request_, base.baseline_profile(), engine="vector"))
        assert a.to_dict() == b.to_dict()

    def test_certifier_agrees_with_plans(self):
        from repro.verify.absint.certify import summarize_kernel

        for program in _edge_pattern_programs():
            for k, kernel in enumerate(program.kernels):
                plan = plans_for(program, 0, LINE_BYTES).plan(k)
                assert summarize_kernel(k, kernel).overlap == plan.overlap

"""Tests for repro.isa.interpreter."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.isa.builder import KernelBuilder, chain_kernel
from repro.isa.instructions import AddressPattern
from repro.isa.interpreter import Interpreter, MemoryImage
from repro.isa.opcodes import MASK64, Opcode
from repro.isa.program import Program

STORE = AddressPattern(0, 1, 16)
INPUT = AddressPattern(4096, 1, 16)


class TestMemoryImage:
    def test_initial_values_deterministic(self):
        a = MemoryImage(5)
        b = MemoryImage(5)
        assert a.read(64) == b.read(64)

    def test_initial_values_differ_by_address(self):
        m = MemoryImage(5)
        assert m.read(0) != m.read(8)

    def test_initial_values_differ_by_seed(self):
        assert MemoryImage(1).read(64) != MemoryImage(2).read(64)

    def test_write_returns_old(self):
        m = MemoryImage(0)
        init = m.read(8)
        assert m.write(8, 123) == init
        assert m.write(8, 456) == 123
        assert m.read(8) == 456

    def test_write_masks_to_64_bits(self):
        m = MemoryImage(0)
        m.write(0, (1 << 70) + 5)
        assert m.read(0) == 5

    def test_snapshot_restore(self):
        m = MemoryImage(0)
        m.write(0, 1)
        snap = m.snapshot()
        m.write(0, 2)
        m.write(8, 3)
        m.restore(snap)
        assert m.read(0) == 1
        assert m.read(8) == m.initial_value(8)
        assert len(m) == 1

    def test_touched_addresses_sorted(self):
        m = MemoryImage(0)
        for a in (64, 0, 32):
            m.write(a, 1)
        assert m.touched_addresses() == [0, 32, 64]

    @given(st.integers(min_value=0, max_value=2**40).map(lambda w: w * 8))
    def test_initial_values_in_range(self, addr):
        assert 0 <= MemoryImage(7).initial_value(addr) <= MASK64


class TestInterpreterBasics:
    def test_movi_add_store(self):
        b = KernelBuilder("k")
        x = b.movi(40)
        y = b.movi(2)
        z = b.alu(Opcode.ADD, x, y)
        b.store(z, AddressPattern(0, 1, 1))
        mem = MemoryImage(0)
        it = Interpreter(Program([b.build(1)]), mem)
        chunk = it.run_to_completion()
        assert mem.read(0) == 42
        assert chunk.alu == 3
        assert chunk.stores == 1
        assert chunk.loads == 0

    def test_load_reads_memory(self):
        mem = MemoryImage(0)
        mem.write(4096, 99)
        k = chain_kernel("k", AddressPattern(0, 1, 1), [AddressPattern(4096, 1, 1)], 0, 1, copy_store=True)
        Interpreter(Program([k]), mem).run_to_completion()
        assert mem.read(0) == 99

    def test_chunked_equals_full(self):
        k = chain_kernel("k", STORE, [INPUT], 4, 50, salt=3)
        m1, m2 = MemoryImage(9), MemoryImage(9)
        Interpreter(Program([k]), m1).run_to_completion(chunk=7)
        Interpreter(Program([k]), m2).run_to_completion(chunk=50)
        assert m1.snapshot() == m2.snapshot()

    def test_step_iterations_counts(self):
        k = chain_kernel("k", STORE, [INPUT], 2, 10)
        it = Interpreter(Program([k]), MemoryImage(0))
        chunk = it.step_iterations(4)
        assert chunk.iterations == 4
        assert chunk.stores == 4
        assert not it.done

    def test_step_crosses_kernel_boundaries(self):
        ks = [chain_kernel(f"k{i}", STORE, [INPUT], 1, 3) for i in range(3)]
        it = Interpreter(Program(ks), MemoryImage(0))
        chunk = it.step_iterations(100)
        assert chunk.iterations == 9
        assert it.done

    def test_step_rejects_nonpositive(self):
        it = Interpreter(Program([chain_kernel("k", STORE, [INPUT], 1, 3)]), MemoryImage(0))
        with pytest.raises(ValueError):
            it.step_iterations(0)

    def test_position_and_phase(self):
        k0 = chain_kernel("a", STORE, [INPUT], 1, 2, phase=0)
        k1 = chain_kernel("b", STORE, [INPUT], 1, 2, phase=5)
        it = Interpreter(Program([k0, k1]), MemoryImage(0))
        assert it.position == (0, 0)
        it.step_iterations(2)
        assert it.position == (1, 0)
        assert it.current_phase == 5

    def test_ghost_alu_counted_not_executed(self):
        k = chain_kernel("k", STORE, [INPUT], 2, 5, ghost_alu=100)
        chunk = Interpreter(Program([k]), MemoryImage(0)).run_to_completion()
        # 2 alu + 1 movi interpreted, plus 100 ghost, per iteration.
        assert chunk.alu == 5 * (3 + 100)
        assert chunk.instructions == chunk.alu + chunk.loads + chunk.stores

    def test_assoc_counted(self):
        import dataclasses
        from repro.isa.instructions import StoreInstr
        from repro.isa.program import Kernel

        k = chain_kernel("k", STORE, [INPUT], 2, 4)
        body = [
            dataclasses.replace(i, assoc=True) if isinstance(i, StoreInstr) else i
            for i in k.body
        ]
        chunk = Interpreter(
            Program([Kernel("k", body, 4)]), MemoryImage(0)
        ).run_to_completion()
        assert chunk.assoc == 4


class TestObservers:
    def test_store_events_carry_old_and_new(self):
        mem = MemoryImage(3)
        events = []
        k = chain_kernel("k", AddressPattern(0, 1, 4), [INPUT], 2, 8, salt=5)
        Interpreter(Program([k]), mem, on_store=events.append).run_to_completion()
        assert len(events) == 8
        # second sweep of the 4-word region: old values = first sweep's new
        by_addr = {}
        for e in events[:4]:
            by_addr[e.address] = e.new_value
        for e in events[4:]:
            assert e.old_value == by_addr[e.address]

    def test_load_events(self):
        loads = []
        k = chain_kernel("k", STORE, [INPUT], 1, 5)
        Interpreter(
            Program([k]), MemoryImage(0), on_load=loads.append
        ).run_to_completion()
        assert len(loads) == 5
        assert all(e.address >= 4096 for e in loads)

    def test_store_event_sites_match_program(self):
        events = []
        p = Program([chain_kernel("k", STORE, [INPUT], 1, 3)])
        Interpreter(p, MemoryImage(0), on_store=events.append).run_to_completion()
        assert {e.site for e in events} == {0}


class TestDeterminism:
    @given(st.integers(min_value=0, max_value=1000))
    @settings(max_examples=10, deadline=None)
    def test_same_seed_same_final_memory(self, seed):
        k = chain_kernel("k", STORE, [INPUT], 3, 20, salt=seed)
        m1, m2 = MemoryImage(seed), MemoryImage(seed)
        Interpreter(Program([k]), m1).run_to_completion()
        Interpreter(Program([k]), m2).run_to_completion()
        assert m1.snapshot() == m2.snapshot()

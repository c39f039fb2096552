"""Tests for repro.isa.program."""

import dataclasses

import pytest

from repro.isa.builder import KernelBuilder, chain_kernel
from repro.isa.instructions import AddressPattern, StoreInstr
from repro.isa.opcodes import Opcode
from repro.isa.program import Kernel, Program, StoreSite


def simple_kernel(name="k", trip=4, ghost=0):
    b = KernelBuilder(name)
    x = b.load(AddressPattern(1024, 1, 8))
    y = b.movi(7)
    z = b.alu(Opcode.ADD, x, y)
    b.store(z, AddressPattern(0, 1, 8))
    return b.build(trip, ghost_alu=ghost)


class TestKernel:
    def test_counts(self):
        k = simple_kernel()
        assert k.alu_count == 2  # movi + add
        assert k.load_count == 1
        assert k.store_count == 1
        assert k.instructions_per_iteration == 4
        assert k.dynamic_instructions == 16

    def test_ghost_counts(self):
        k = simple_kernel(ghost=10)
        assert k.alu_count == 12
        assert k.instructions_per_iteration == 14
        assert k.dynamic_instructions == 14 * 4

    def test_empty_body_rejected(self):
        with pytest.raises(ValueError):
            Kernel("k", [], 1)

    def test_zero_trip_rejected(self):
        with pytest.raises(ValueError):
            Kernel("k", simple_kernel().body, 0)

    def test_live_in_registers_simple(self):
        k = simple_kernel()
        assert k.live_in_registers() == set()

    @pytest.mark.parametrize("field", [
        "name", "shape", "params", "trip_count", "phase", "ghost_alu",
        "site_base",
    ])
    def test_kernel_fields_are_frozen(self, field):
        k = Program([simple_kernel(), simple_kernel("b")]).kernels[1]
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(k, field, getattr(k, field))
        assert k.site_base == 1 and k.body[-1].site == 1

    @pytest.mark.parametrize("field", [
        "key", "body", "width", "regs_stable", "store_count", "slicing",
        "evaluator",
    ])
    def test_shape_fields_are_frozen(self, field):
        shape = simple_kernel().shape
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(shape, field, None)

    def test_kernels_of_one_structure_share_a_shape(self):
        a, b = simple_kernel("a", trip=4), simple_kernel("b", trip=9, ghost=3)
        assert a.shape is b.shape
        assert Kernel("c", a.body, 2).shape is a.shape
        assert (a.params, a.body) == (b.params, b.body)

    def test_bound_kernel_round_trips_through_its_body(self):
        k = Program([simple_kernel(), simple_kernel("b", ghost=2)]).kernels[1]
        again = Kernel(k.name, k.body, k.trip_count, k.phase, k.ghost_alu)
        assert again == k
        assert Kernel.bind(k.shape, k.params, k.name, k.trip_count, k.phase,
                           k.ghost_alu, k.site_base) == k

    def test_wrong_parameter_count_rejected(self):
        shape = simple_kernel().shape
        with pytest.raises(ValueError):
            Kernel.bind(shape, (1, 2, 3), "short", 1)

    def test_live_in_registers_accumulator(self):
        k = chain_kernel(
            "acc",
            AddressPattern(0, 1, 8),
            [AddressPattern(1024, 1, 8)],
            3,
            4,
            accumulate=True,
        )
        assert len(k.live_in_registers()) == 1


class TestProgram:
    def test_site_numbering_across_kernels(self):
        p = Program([simple_kernel("a"), simple_kernel("b")])
        sites = p.store_sites
        assert [s.site for s in sites] == [0, 1]
        assert sites[0].kernel_index == 0
        assert sites[1].kernel_index == 1

    def test_site_store_lookup(self):
        p = Program([simple_kernel()])
        s = p.site_store(0)
        assert isinstance(s, StoreInstr)
        assert s.site == 0

    def test_site_kernel_lookup(self):
        p = Program([simple_kernel("a"), simple_kernel("b")])
        assert p.site_kernel(1).name == "b"

    def test_site_records(self):
        b = KernelBuilder("m")
        x = b.movi(1)
        b.store(x, AddressPattern(0, 1, 8))
        b.store(x, AddressPattern(64, 1, 8))
        p = Program([simple_kernel("a"), b.build(2)])
        assert p.store_sites == [
            StoreSite(0, 0, 3), StoreSite(1, 1, 1), StoreSite(2, 1, 2),
        ]
        assert p.num_sites == 3
        assert [p.site_position(s) for s in range(3)] == [(0, 3), (1, 1), (1, 2)]

    def test_original_kernels_untouched(self):
        k = simple_kernel()
        Program([k])
        store = [i for i in k.body if isinstance(i, StoreInstr)][0]
        assert store.site == -1  # the input kernel is not mutated

    def test_dynamic_totals(self):
        p = Program([simple_kernel(trip=4), simple_kernel(trip=6)])
        assert p.dynamic_instructions == 16 + 24
        assert p.dynamic_stores == 10

    def test_phases(self):
        k1 = Kernel("a", simple_kernel().body, 2, phase=0)
        k2 = Kernel("b", simple_kernel().body, 2, phase=3)
        assert Program([k1, k2]).phases() == [0, 3]

    def test_empty_program_rejected(self):
        with pytest.raises(ValueError):
            Program([])

    def test_negative_thread_rejected(self):
        with pytest.raises(ValueError):
            Program([simple_kernel()], thread_id=-1)

    def test_iteration_and_len(self):
        p = Program([simple_kernel("a"), simple_kernel("b")])
        assert len(p) == 2
        assert [k.name for k in p] == ["a", "b"]

    def test_multi_store_kernel_sites(self):
        b = KernelBuilder("m")
        x = b.movi(1)
        b.store(x, AddressPattern(0, 1, 8))
        b.store(x, AddressPattern(64, 1, 8))
        p = Program([b.build(2)])
        assert len(p.store_sites) == 2
        assert p.site_store(0).pattern.base == 0
        assert p.site_store(1).pattern.base == 64


class TestSharedFootprint:
    """Construction numbers sites and changes no value."""

    def _pair(self):
        args = ([AddressPattern(1 << 20, 1, 8)], 2, 4)
        return [
            chain_kernel(name, AddressPattern(0, 1, 8), *args, salt=salt)
            for name, salt in (("a", 1), ("b", 2))
        ]

    def test_values_equal_an_unshared_build(self):
        a, b = self._pair()
        for kernel, built in zip((a, b), Program([a, b]).kernels):
            assert built.body[:-1] == kernel.body[:-1]
            assert built.body[-1].pattern == kernel.body[-1].pattern

    def test_unchanged_kernels_are_kept(self):
        first = Program(self._pair())
        again = Program(first.kernels, 1)
        assert all(x is y for x, y in zip(first.kernels, again.kernels))
        assert again.store_sites == first.store_sites

"""Plan evaluator oracle: the generated evaluators vs the scalar reference.

``_build_scalar`` here is the deliberately-simple oracle, off the
production path; the shapes' generated evaluators must reproduce its
every output stream — addresses, lines, store values, register rows,
external-load sets and the overlap bit — for any body shape and trip
count.  Divergence here would surface as an engine mismatch far
downstream, so it is pinned at the source.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

import pytest

from repro.isa.instructions import (
    LINE_BYTES,
    AddressPattern,
    AluInstr,
    LoadInstr,
    MoviInstr,
)
from repro.isa.interpreter import MemoryImage
from repro.isa.program import Program
from repro.isa.opcodes import MASK64, apply_alu
from repro.sim.vector.plans import KernelPlan, _build_plan
from tests.sim.test_engine_equivalence import _random_kernel

SEED = 0

#: The large trips of the equivalence suite's trip pool (24 and up).
LARGE_TRIP = 24


def _build_scalar(
    plan: KernelPlan, kernel, seed: int, line_bytes: int
) -> None:
    """Reference evaluation: one scalar walk over ``kernel.body``, no
    observers, no events.

    Handles every body shape — in-kernel store-to-load forwarding through
    an overlay, loop-carried registers (the file persists across
    iterations, as in the interpreter), partially-defined registers.
    The oracle the plan evaluators are pinned against.
    """
    body = kernel.body
    regs = [0] * (kernel.shape.width + 1)
    rows: List[Tuple[int, ...]] = []
    addrs: List[int] = []
    svalues: List[int] = []
    overlay: Dict[int, int] = {}
    external: set = set()
    load_addrs: set = set()
    untouched = MemoryImage(seed)
    for i in range(kernel.trip_count):
        for ins in body:
            if isinstance(ins, AluInstr):
                regs[ins.dst] = apply_alu(ins.op, regs[ins.src_a],
                                          regs[ins.src_b])
            elif isinstance(ins, MoviInstr):
                regs[ins.dst] = ins.imm & MASK64
            elif isinstance(ins, LoadInstr):
                addr = ins.pattern.address(i)
                addrs.append(addr)
                load_addrs.add(addr)
                value = overlay.get(addr)
                if value is None:
                    external.add(addr)
                    value = untouched.initial_value(addr)
                regs[ins.dst] = value
            else:
                addr = ins.pattern.address(i)
                addrs.append(addr)
                value = regs[ins.src]
                svalues.append(value)
                overlay[addr] = value
        rows.append(tuple(regs))
    plan.addrs = tuple(addrs)
    plan.lines = tuple([a // line_bytes for a in addrs])
    plan.svalues = tuple(svalues)
    plan.external_loads = frozenset(external)
    plan.overlap = not load_addrs.isdisjoint(overlay)
    plan.rows = tuple(rows)


def _scalar_reference(kernel, seed=SEED):
    """Evaluate ``kernel`` through the oracle into a fresh plan."""
    plan = KernelPlan(kernel)
    _build_scalar(plan, kernel, seed, LINE_BYTES)
    return plan


def _assert_streams_match(plan, oracle, tag):
    for name in ("addrs", "lines", "svalues", "external_loads", "overlap",
                 "rows"):
        assert getattr(plan, name) == getattr(oracle, name), (name, tag)


class TestCodegenMatchesScalarOracle:
    @pytest.mark.parametrize("batch", range(5))
    def test_random_kernels(self, batch):
        rng = random.Random(1000 + batch)
        for k in range(40):
            kernel = _random_kernel(rng, f"o{batch}.{k}", 1 << 24)
            plan = _build_plan(kernel, SEED, LINE_BYTES)
            _assert_streams_match(
                plan, _scalar_reference(kernel), f"batch={batch} k={k}"
            )

    def test_large_trips_match_scalar_oracle(self):
        """Kernels of 24 trips and more (long enough to straddle interval
        boundaries), inside a program, against the oracle."""
        rng = random.Random(77)
        checked = 0
        for k in range(60):
            kernel = _random_kernel(rng, f"np.{k}", 1 << 24)
            if kernel.trip_count < LARGE_TRIP:
                continue
            program = Program([kernel], 0)
            plan = _build_plan(program.kernels[0], SEED, LINE_BYTES)
            _assert_streams_match(
                plan, _scalar_reference(program.kernels[0]), f"k={k}"
            )
            checked += 1
        assert checked >= 10  # the trip pool guarantees large trips

    def test_seed_sensitivity(self):
        """External loads (hence store values) depend on the memory seed;
        the evaluator and the oracle must agree for any seed."""
        rng = random.Random(5)
        kernel = _random_kernel(rng, "seeded", 1 << 24)
        for seed in (0, 1, 0xDEADBEEF):
            plan = _build_plan(kernel, seed, LINE_BYTES)
            oracle = _scalar_reference(kernel, seed)
            _assert_streams_match(plan, oracle, f"seed={seed}")


class TestAccessRows:
    """The replay engine's working form must mirror the flat streams."""

    def test_access_rows_consistent_with_streams(self):
        rng = random.Random(9)
        for k in range(20):
            kernel = _random_kernel(rng, f"ar.{k}", 1 << 24)
            plan = _build_plan(kernel, SEED, LINE_BYTES)
            acc = plan.access_rows()
            assert len(acc) == plan.trip
            flat = [t for row in acc for t in row]
            assert [a for a, _, _, _ in flat] == list(plan.addrs)
            assert [l for _, l, _, _ in flat] == list(plan.lines)
            assert [s for _, _, s, _ in flat] == list(plan.store_flags) * plan.trip
            assert [v for _, _, s, v in flat if s] == list(plan.svalues)
            assert all(v is None for _, _, s, v in flat if not s)

    def test_access_rows_cached(self):
        kernel = _random_kernel(random.Random(3), "cache", 1 << 24)
        plan = _build_plan(kernel, SEED, LINE_BYTES)
        assert plan.access_rows() is plan.access_rows()


def test_no_process_imports_numpy():
    """The CLI and a vector-engine run of a built-in workload, in a fresh
    process, import no numpy: every plan is built by the generated
    evaluators."""
    import subprocess
    import sys
    import textwrap
    from pathlib import Path

    script = textwrap.dedent(
        """
        import sys

        import repro.cli
        from repro.experiments.configs import ConfigRequest
        from repro.experiments.runner import ExperimentRunner

        runner = ExperimentRunner(
            num_cores=2, region_scale=0.05, reps=2, engine="vector"
        )
        run = runner.run("cg", ConfigRequest("ReCkpt_E"))
        assert run.vector_coverage["replayed_iterations"] > 0
        assert "numpy" not in sys.modules, "numpy was imported"
        """
    )
    src = Path(__file__).resolve().parents[2] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env={"PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


class TestOverlapDetection:
    def test_disjoint_regions_no_overlap(self):
        from repro.isa.builder import chain_kernel

        kernel = chain_kernel(
            "disjoint",
            AddressPattern(0, 1, 8),
            [AddressPattern(1 << 20, 1, 8)],
            chain_depth=2,
            trip_count=8,
        )
        assert not _build_plan(kernel, SEED, LINE_BYTES).overlap

    def test_store_then_load_same_word_overlaps(self):
        from repro.isa.builder import chain_kernel

        region = AddressPattern(0, 1, 8)
        kernel = chain_kernel(
            "alias", region, [region], chain_depth=2, trip_count=8
        )
        plan = _build_plan(kernel, SEED, LINE_BYTES)
        assert plan.overlap


class TestOverlapEdgeCases:
    """Directed footprint edge cases: the overlap bit must be *exact*.

    Addresses follow ``base + ((offset + i*stride) % length) * 8``; a
    range-interval approximation would get every case below wrong in at
    least one direction, so these pin the enumerated-footprint
    semantics for both the plan builder and the static certifier.
    """

    @staticmethod
    def _kernel(load, store, trip):
        from repro.isa.builder import chain_kernel

        return chain_kernel(
            "edge", store, [load], chain_depth=2, trip_count=trip
        )

    def _overlap(self, load, store, trip):
        from repro.verify.absint.certify import summarize_kernel

        kernel = self._kernel(load, store, trip)
        plan = _build_plan(kernel, SEED, LINE_BYTES)
        # The static certifier must agree with the ground truth exactly.
        assert summarize_kernel(0, kernel).overlap == plan.overlap
        return plan.overlap

    def test_wraparound_reaches_store_words(self):
        # Load indices 6,7,0,1 — the wrap back to 0,1 hits the store's
        # 0..3; without modular wrap the footprints look disjoint.
        load = AddressPattern(0, 1, 8, offset=6)
        store = AddressPattern(0, 1, 8)
        assert self._overlap(load, store, trip=4)

    def test_short_trip_stops_before_wrap(self):
        # Same patterns, trip 2: load touches only indices 6,7.
        load = AddressPattern(0, 1, 8, offset=6)
        store = AddressPattern(0, 1, 8)
        assert not self._overlap(load, store, trip=2)

    def test_stride_zero_hits_fixed_word(self):
        # A stride-0 load pins one word; the store walks into it at
        # iteration 3.
        load = AddressPattern(0, 0, 8, offset=3)
        store = AddressPattern(0, 1, 8)
        assert self._overlap(load, store, trip=4)

    def test_stride_zero_misses_untouched_word(self):
        load = AddressPattern(0, 0, 8, offset=3)
        store = AddressPattern(0, 1, 8)
        assert not self._overlap(load, store, trip=3)

    def test_negative_stride_walks_into_store(self):
        # Load indices 2,1 (walking down); store indices 0,1.
        load = AddressPattern(0, -1, 8, offset=2)
        store = AddressPattern(0, 1, 8)
        assert self._overlap(load, store, trip=2)

    def test_negative_stride_disjoint_region(self):
        load = AddressPattern(1 << 20, -1, 8, offset=2)
        store = AddressPattern(0, 1, 8)
        assert not self._overlap(load, store, trip=2)

    def test_single_trip_same_region_disjoint_words(self):
        # One iteration only: load index 5 vs store index 0 — the shared
        # region alone must not flag an overlap.
        load = AddressPattern(0, 1, 8, offset=5)
        store = AddressPattern(0, 1, 8)
        assert not self._overlap(load, store, trip=1)

    def test_single_trip_same_word_overlaps(self):
        load = AddressPattern(0, 1, 8, offset=0)
        store = AddressPattern(0, 1, 8)
        assert self._overlap(load, store, trip=1)


class TestStaticPlanAgreement:
    """The certifier's abstract interpretation vs the plan builder.

    ``summarize_kernel`` re-derives the overlap bit and register
    stability from the IR alone; both must match what the plan builder
    computed by enumeration, over the same randomized corpus the
    engine-equivalence suite draws from.
    """

    @pytest.mark.parametrize("batch", range(4))
    def test_random_kernels_agree(self, batch):
        from repro.verify.absint.certify import summarize_kernel

        rng = random.Random(7000 + batch)
        for i in range(40):
            kernel = _random_kernel(rng, f"agree{batch}_{i}", 1 << 22)
            plan = _build_plan(kernel, SEED, LINE_BYTES)
            ks = summarize_kernel(0, kernel)
            assert ks.overlap == plan.overlap, kernel.name
            assert ks.regs_stable == plan.regs_stable, kernel.name
            assert ks.trip == kernel.trip_count

    @staticmethod
    def _entering_file_is_dead(kernel, rng) -> bool:
        """Do the zero and a random entering register file produce the
        same stores and registers?"""
        from repro.isa.interpreter import Interpreter, MemoryImage

        program = Program([kernel], 0)
        width = program.kernels[0].shape.width
        outcomes = []
        for regs in ([0] * (width + 1),
                     [rng.getrandbits(64) for _ in range(width + 1)]):
            memory = MemoryImage(SEED)
            interp = Interpreter(program, memory)
            interp.restore_arch_state((0, 0, regs))
            # Stop before the end (when there is one) so the register
            # file is still the kernel's.
            interp.step_iterations(max(1, kernel.trip_count - 1))
            outcomes.append((interp.arch_state(), memory.snapshot()))
        return outcomes[0] == outcomes[1]

    def test_renewal_makes_the_entering_register_file_dead(self):
        """``KernelShape.renewed`` (read from the body alone) means a
        kernel's entering register file is dead: when it holds, any
        entering register file must produce the same stores and
        registers as the zero file."""
        rng = random.Random(7100)
        verdicts = set()
        for i in range(120):
            kernel = _random_kernel(rng, f"renew{i}", 1 << 22)
            renewed = kernel.shape.renewed
            verdicts.add(renewed)
            if renewed:
                assert self._entering_file_is_dead(kernel, rng), kernel.name
        assert verdicts == {True, False}  # both verdicts exercised

    def test_a_never_written_register_is_not_renewed(self):
        """No read precedes a definition, but r1 is never written, so a
        restored r1 stays visible: renewal must cover the whole file."""
        from repro.isa.instructions import AluInstr, MoviInstr, StoreInstr
        from repro.isa.opcodes import Opcode
        from repro.isa.program import Kernel

        gap = Kernel("gap", [
            MoviInstr(0, 5),
            AluInstr(Opcode.ADD, 2, 0, 0),
            StoreInstr(2, AddressPattern(1 << 22, 1, 8)),
        ], 4)
        assert not gap.shape.renewed
        assert not self._entering_file_is_dead(gap, random.Random(1))

"""Differential bit-identity: classic interpreter vs vector engine.

The vector engine replays precomputed trace plans with fully inlined
accounting; its one correctness obligation is producing *bit-identical*
``RunResult``s to the per-instruction interpreter on every program and
configuration.  This suite pins that obligation three ways:

* a seeded randomized program generator covering every opcode family,
  mixed/negative/zero strides, in-kernel load/store aliasing (forces the
  overlap fallback), loop-carried accumulators (forces the unstable-regs
  fallback), cross-core shared regions (forces the external-load
  disjointness fallback) and trip counts straddling interval boundaries
  — hundreds of programs, each run under both engines and compared via
  ``RunResult.to_dict()`` equality;
* every registered workload at tiny scale across **all nine** evaluated
  configurations;
* the fault-injection harness's two-pass trials under both engines.

A failure report always includes the generator seed, so any divergence
is reproducible with one parametrized id.
"""

from __future__ import annotations

import random

import pytest

from repro.arch.config import MachineConfig
from repro.experiments.configs import CONFIG_NAMES, ConfigRequest, make_options
from repro.inject.harness import TrialSpec, run_trial
from repro.isa.builder import KernelBuilder, chain_kernel
from repro.isa.instructions import WORD_BYTES, AddressPattern
from repro.isa.opcodes import Opcode
from repro.isa.program import Program
from repro.sim.simulator import Simulator
from repro.workloads.registry import all_workload_names, get_workload
from tests.conftest import dirty_sets, recording_caches

#: Every binary ALU opcode the ISA defines (MOVI rides along via the
#: generator's immediates).
ALL_ALU_OPS = (
    Opcode.ADD,
    Opcode.SUB,
    Opcode.MUL,
    Opcode.AND,
    Opcode.OR,
    Opcode.XOR,
    Opcode.SHL,
    Opcode.SHR,
)

#: Strides in words: negative, zero, unit, strided, line-crossing.
STRIDES = (-7, -3, -1, 0, 1, 1, 1, 2, 3, 5, 8, 13)

#: Region lengths in words: single-word up to multi-line, including
#: lengths that wrap mid-trip.
LENGTHS = (1, 2, 3, 5, 8, 16, 24, 32, 64)

#: Trip counts: tiny bodies, the numpy-eligibility threshold (24) and its
#: neighbours, and trips long enough to straddle interval boundaries.
TRIPS = (1, 2, 3, 4, 7, 8, 13, 16, 23, 24, 25, 31, 48, 64)

#: A region both cores may touch — writes here invalidate the other
#: core's planned external loads, forcing the disjointness fallback.
SHARED_BASE = 1 << 22

NUM_CORES = 2
GENERATED_PROGRAMS = 200
_BATCH = 20

CKPT_CONFIGS = tuple(n for n in CONFIG_NAMES if n != "NoCkpt")


def _pattern(rng: random.Random, region_base: int) -> AddressPattern:
    length = rng.choice(LENGTHS)
    return AddressPattern(
        region_base,
        rng.choice(STRIDES),
        length,
        offset=rng.randrange(length),
    )


def _random_kernel(rng: random.Random, name: str, core_base: int):
    """One randomized straight-line kernel.

    Draws every structural dimension the two engines treat differently:
    opcode mix, load/store counts, aliasing regions, loop-carried
    accumulators, stores followed by further definitions (unstable
    registers), ghost instructions and trip counts.
    """
    regions = [core_base + (j << 12) for j in range(4)]
    if rng.random() < 0.25:
        regions.append(SHARED_BASE)  # cross-core interference

    b = KernelBuilder(name, phase=rng.randrange(4))
    regs = [b.movi(rng.getrandbits(64)) for _ in range(rng.randint(1, 2))]
    for _ in range(rng.randint(0, 3)):
        regs.append(b.load(_pattern(rng, rng.choice(regions))))
    for _ in range(rng.randint(1, 6)):
        regs.append(b.alu(rng.choice(ALL_ALU_OPS), rng.choice(regs), rng.choice(regs)))
    if rng.random() < 0.15:
        # Loop-carried accumulator: the fresh register is live-in, so the
        # handler-visible register file is not stable across segments.
        acc = b.fresh_reg()
        regs.append(b.alu_into(Opcode.ADD, acc, acc, regs[-1]))
    for _ in range(rng.randint(0, 2)):
        b.store(rng.choice(regs), _pattern(rng, rng.choice(regions)))
    if rng.random() < 0.2:
        # Definition after a store: exercises the seen-store/unstable path.
        regs.append(b.alu(rng.choice(ALL_ALU_OPS), rng.choice(regs), rng.choice(regs)))
        b.store(regs[-1], _pattern(rng, rng.choice(regions)))
    return b.build(rng.choice(TRIPS), ghost_alu=rng.randrange(4))


def _random_programs(seed: int):
    """One randomized program per core, sharing a seeded RNG."""
    rng = random.Random(seed)
    programs = []
    for t in range(NUM_CORES):
        core_base = (t + 1) << 24
        kernels = [
            _random_kernel(rng, f"g{seed}.t{t}.k{k}", core_base)
            for k in range(rng.randint(2, 4))
        ]
        programs.append(Program(kernels, t))
    return programs


def _assert_engines_identical(sim: Simulator, request: ConfigRequest, baseline, tag):
    a = sim.run(make_options(request, baseline, engine="interp"))
    b = sim.run(make_options(request, baseline, engine="vector"))
    assert a.to_dict() == b.to_dict(), (
        f"engine divergence: {tag} config={request.config}"
    )
    return a


def _check_program(programs, seed: int) -> None:
    sim = Simulator(programs, MachineConfig(num_cores=NUM_CORES))
    base_req = ConfigRequest("NoCkpt", memory_seed=seed % 3)
    base = _assert_engines_identical(sim, base_req, None, f"seed={seed}")
    profile = base.baseline_profile()
    request = ConfigRequest(
        CKPT_CONFIGS[seed % len(CKPT_CONFIGS)],
        num_checkpoints=2 + seed % 5,
        error_count=1 + seed % 2,
        threshold=2 + 4 * (seed % 3),
        memory_seed=seed % 3,
    )
    _assert_engines_identical(sim, request, profile, f"seed={seed}")


class TestGeneratedPrograms:
    """Randomized differential testing across engines."""

    @pytest.mark.parametrize("batch", range(GENERATED_PROGRAMS // _BATCH))
    def test_bit_identical(self, batch):
        for seed in range(batch * _BATCH, (batch + 1) * _BATCH):
            _check_program(_random_programs(seed), seed)

    def test_generator_covers_every_opcode_family(self):
        """Meta-test: the corpus actually exercises the whole ISA and
        every fallback-triggering shape (guards generator drift)."""
        seen_ops = set()
        movi = loads = stores = shared = accum = 0
        neg_stride = zero_stride = 0
        for seed in range(GENERATED_PROGRAMS):
            for program in _random_programs(seed):
                for kernel in program.kernels:
                    for ins in kernel.body:
                        t = type(ins).__name__
                        if t == "AluInstr":
                            seen_ops.add(ins.op)
                        elif t == "MoviInstr":
                            movi += 1
                        elif t == "LoadInstr":
                            loads += 1
                            if ins.pattern.base == SHARED_BASE:
                                shared += 1
                            neg_stride += ins.pattern.stride < 0
                            zero_stride += ins.pattern.stride == 0
                        else:
                            stores += 1
                            if ins.pattern.base == SHARED_BASE:
                                shared += 1
                    regs_written_after_use = any(
                        type(ins).__name__ == "AluInstr"
                        and ins.dst in (ins.src_a, ins.src_b)
                        for ins in kernel.body
                    )
                    accum += regs_written_after_use
        assert seen_ops == set(ALL_ALU_OPS)
        assert movi and loads and stores
        assert shared > 0, "no cross-core shared-region accesses generated"
        assert accum > 0, "no loop-carried accumulators generated"
        assert neg_stride > 0 and zero_stride > 0


class TestDirectedFallbacks:
    """Deterministic programs pinning each fallback trigger by name."""

    def _run(self, programs):
        sim = Simulator(programs, MachineConfig(num_cores=NUM_CORES))
        base = _assert_engines_identical(
            sim, ConfigRequest("NoCkpt"), None, "directed"
        )
        for config in ("Ckpt_NE", "ReCkpt_NE", "ReCkpt_E_Loc"):
            _assert_engines_identical(
                sim,
                ConfigRequest(config, num_checkpoints=4),
                base.baseline_profile(),
                "directed",
            )

    def test_store_load_aliasing_overlap(self):
        """A kernel loading the region it stores runs interpreted (the
        plan's overlap bit) — results must still match exactly."""
        programs = []
        for t in range(NUM_CORES):
            base = (t + 1) << 24
            region = AddressPattern(base, 1, 16)
            kernels = [
                chain_kernel(
                    f"alias.t{t}.k{k}",
                    region,
                    [region],  # load and store the same words
                    chain_depth=3,
                    trip_count=24,
                    salt=t * 7 + k,
                )
                for k in range(3)
            ]
            programs.append(Program(kernels, t))
        self._run(programs)

    def test_loop_carried_accumulate(self):
        programs = []
        for t in range(NUM_CORES):
            base = (t + 1) << 24
            kernels = [
                chain_kernel(
                    f"acc.t{t}.k{k}",
                    AddressPattern(base, 1, 32),
                    [AddressPattern(base + (1 << 20), 1, 32, offset=k)],
                    chain_depth=4,
                    trip_count=25,
                    salt=t * 11 + k,
                    accumulate=True,
                )
                for k in range(3)
            ]
            programs.append(Program(kernels, t))
        self._run(programs)

    def test_cross_core_shared_region(self):
        """Core 0 writes what core 1 planned to load from the pristine
        image: the disjointness check must force core 1's fallback."""
        shared = AddressPattern(SHARED_BASE, 1, 32)
        p0 = Program(
            [
                chain_kernel(
                    "writer.k0", shared,
                    [AddressPattern(1 << 24, 1, 32)],
                    chain_depth=2, trip_count=32, salt=3,
                )
            ],
            0,
        )
        p1 = Program(
            [
                chain_kernel(
                    "reader.k0",
                    AddressPattern(2 << 24, 1, 32),
                    [shared],
                    chain_depth=2, trip_count=32, salt=5,
                )
            ],
            1,
        )
        self._run([p0, p1])

    def test_single_iteration_and_stride_zero(self):
        """Degenerate shapes: trip_count=1 and a stride-0 store stream
        (every iteration rewrites one word — only the first write of each
        interval is a log candidate)."""
        programs = []
        for t in range(NUM_CORES):
            base = (t + 1) << 24
            one_word = AddressPattern(base, 0, 8)
            kernels = [
                chain_kernel(
                    f"z.t{t}.k{k}", one_word,
                    [AddressPattern(base + (1 << 20), 1, 8)],
                    chain_depth=2,
                    trip_count=1 if k % 2 else 24,
                    salt=t + k,
                )
                for k in range(4)
            ]
            programs.append(Program(kernels, t))
        self._run(programs)

    def test_dirty_victims_cascade_through_full_l2_set(self):
        """Stores to lines sharing one L1 set *and* one L2 set: each L1
        miss evicts a dirty victim into an L2 set that is already full,
        so L2 evicts a dirty line in turn — the longest path of the
        inlined dirty-set bookkeeping.  Beyond bit-identical results,
        both engines must leave identical per-core L1/L2 dirty sets
        before every checkpoint flush and at the end of the run."""
        cfg = MachineConfig(num_cores=NUM_CORES)
        # Words between consecutive lines of one L2 set (hence of one L1
        # set too: L1's set count divides L2's).
        conflict = cfg.l2.num_sets * cfg.line_bytes // WORD_BYTES
        n_lines = cfg.l1d.ways + cfg.l2.ways + 4
        programs = []
        for t in range(NUM_CORES):
            base = (t + 1) << 24
            kernels = [
                chain_kernel(
                    f"cascade.t{t}.k{k}",
                    AddressPattern(base, conflict, conflict * n_lines, offset=k),
                    [AddressPattern(base + (1 << 23), 1, 32)],
                    chain_depth=2,
                    trip_count=3 * n_lines,
                    salt=t * 5 + k,
                )
                for k in range(3)
            ]
            programs.append(Program(kernels, t))
        sim = Simulator(programs, cfg)

        def run(request, baseline, engine):
            with recording_caches() as (machines, boundaries):
                result = sim.run(make_options(request, baseline, engine=engine))
            (machine,) = machines
            return result, boundaries, dirty_sets(machine.hierarchies), machine

        base = None
        for config in ("NoCkpt", "Ckpt_NE", "ReCkpt_NE", "ReCkpt_E_Loc"):
            request = ConfigRequest(config, num_checkpoints=4)
            profile = None if base is None else base.baseline_profile()
            a, a_bounds, a_final, a_machine = run(request, profile, "interp")
            b, b_bounds, b_final, _ = run(request, profile, "vector")
            assert a.to_dict() == b.to_dict(), config
            assert a_bounds == b_bounds, config
            assert a_final == b_final, config
            assert b.vector_coverage["replayed_iterations"] > 0
            for hier in a_machine.hierarchies:
                assert hier.l2.dirty_evictions > 0  # the cascade happened
            if config == "NoCkpt":
                base = a
                assert all(l1 or l2 for l1, l2 in a_final)
            else:
                assert len(a_bounds) >= 4


@pytest.mark.parametrize("workload", sorted(all_workload_names()))
class TestRegisteredWorkloads:
    """Every registered workload, every configuration, both engines."""

    def test_all_configs_bit_identical(self, workload):
        spec = get_workload(workload)
        programs = spec.build_programs(NUM_CORES, region_scale=0.05, reps=3)
        sim = Simulator(programs, MachineConfig(num_cores=NUM_CORES))
        base = _assert_engines_identical(
            sim, ConfigRequest("NoCkpt"), None, workload
        )
        profile = base.baseline_profile()
        for config in CKPT_CONFIGS:
            _assert_engines_identical(
                sim,
                ConfigRequest(
                    config,
                    num_checkpoints=4,
                    threshold=spec.default_threshold,
                ),
                profile,
                workload,
            )


class TestInjectionTrials:
    """The two-pass fault-injection harness under both engines."""

    @pytest.mark.parametrize("seed", (0, 1))
    def test_trial_results_identical(self, seed):
        spec = TrialSpec(workload="cg", seed=seed, memory_seed=seed)
        a = run_trial(spec, engine="interp")
        b = run_trial(spec, engine="vector")
        assert a.to_dict() == b.to_dict()

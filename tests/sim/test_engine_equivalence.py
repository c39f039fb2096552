"""Differential bit-identity: classic interpreter vs vector engine.

The vector engine replays precomputed trace plans with fully inlined
accounting; its one correctness obligation is producing *bit-identical*
``RunResult``s to the per-instruction interpreter on every program and
configuration.  This suite pins that obligation two ways:

* a seeded randomized program generator covering every opcode family,
  mixed/negative/zero strides, in-kernel load/store aliasing (forces the
  overlap fallback), loop-carried accumulators (forces the unstable-regs
  fallback), cross-core shared regions (forces the external-load
  disjointness fallback) and trip counts straddling interval boundaries
  — hundreds of programs, each run under both engines and compared via
  ``RunResult.to_dict()`` equality;
* every registered workload at tiny scale across **all nine** evaluated
  configurations.

Replay is decided by the runtime checks alone, so the suite also pins
that the static certificates explain every fallback: each vector
fallback is charged to its segment's ``certify_run`` rule id, no SAFE
segment falls back, and a run that never falls back never certifies.

A failure report always includes the generator seed, so any divergence
is reproducible with one parametrized id.
"""

from __future__ import annotations

import json
import random
from collections import Counter

import pytest

from repro.arch.config import MachineConfig
from repro.experiments.configs import CONFIG_NAMES, ConfigRequest, make_options
from repro.experiments.figures import fig6_time_overhead
from repro.experiments.runner import ExperimentRunner
from repro.isa.builder import KernelBuilder, chain_kernel
from repro.isa.instructions import WORD_BYTES, AddressPattern
from repro.isa.opcodes import Opcode
from repro.isa.program import Program
from repro.sim.simulator import Simulator
from repro.sim.vector.engine import VectorCoreRunner
from repro.verify.absint.certify import certify_run
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

#: Trip counts: tiny bodies, mid-sized ones (23 to 31), and trips long
#: enough to straddle interval boundaries.
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


def _assert_engines_identical(
    sim: Simulator, request: ConfigRequest, baseline, tag, log=None
):
    """Run both engines; returns (interp, vector) results.  With a
    ``fallback_log``, also check that the vector run's fallbacks are
    explained by the certificates."""
    a = sim.run(make_options(request, baseline, engine="interp"))
    if log is not None:
        del log[:]
    b = sim.run(make_options(request, baseline, engine="vector"))
    assert a.to_dict() == b.to_dict(), (
        f"engine divergence: {tag} config={request.config}"
    )
    if log is not None:
        _assert_fallbacks_explained(
            sim.programs, b, log, f"{tag} config={request.config}"
        )
    return a, b


@pytest.fixture
def fallback_log(monkeypatch):
    """Every vector fallback segment as ``(core, kernel, iterations)``.

    Wraps each runner's classic interpreter, which the runner steps only
    to execute a fallback segment (a budget never crosses a kernel)."""
    log = []
    init = VectorCoreRunner.__init__

    def recording_init(self, run, core):
        init(self, run, core)
        step = self.interp.step_iterations

        def step_fallback(budget):
            k = self.interp.position[0]
            chunk = step(budget)
            log.append((core, k, chunk.iterations))
            return chunk

        self.interp.step_iterations = step_fallback

    monkeypatch.setattr(VectorCoreRunner, "__init__", recording_init)
    return log


def _assert_fallbacks_explained(programs, result, log, tag) -> None:
    """The run's fallbacks are exactly those logged, each charged to its
    segment's certificate rule id; no SAFE segment falls back."""
    certs = certify_run(programs)
    expected = Counter()
    for core, k, n in log:
        cert = certs[core][k]
        assert not cert.safe, f"SAFE segment fell back: {tag} core={core} k={k}"
        expected[f"fallback.{cert.reason}"] += n
    cov = result.vector_coverage
    reported = {
        key: n for key, n in cov.items() if key.startswith("fallback.") and n
    }
    assert reported == dict(expected), tag
    assert cov["fallback_iterations"] == sum(n for _, _, n in log), tag
    assert "fallback.unknown" not in reported, tag


def _check_program(programs, seed: int, log) -> int:
    """Both configurations of one generated program; returns the vector
    fallback iterations seen."""
    sim = Simulator(programs, MachineConfig(num_cores=NUM_CORES))
    base_req = ConfigRequest("NoCkpt", memory_seed=seed % 3)
    base, _ = _assert_engines_identical(
        sim, base_req, None, f"seed={seed}", log
    )
    fallbacks = sum(n for _, _, n in log)
    profile = base.baseline_profile()
    request = ConfigRequest(
        CKPT_CONFIGS[seed % len(CKPT_CONFIGS)],
        num_checkpoints=2 + seed % 5,
        error_count=1 + seed % 2,
        threshold=2 + 4 * (seed % 3),
        memory_seed=seed % 3,
    )
    _assert_engines_identical(sim, request, profile, f"seed={seed}", log)
    return fallbacks + sum(n for _, _, n in log)


class TestGeneratedPrograms:
    """Randomized differential testing across engines."""

    @pytest.mark.parametrize("batch", range(GENERATED_PROGRAMS // _BATCH))
    def test_bit_identical(self, batch, fallback_log):
        fallbacks = sum(
            _check_program(_random_programs(seed), seed, fallback_log)
            for seed in range(batch * _BATCH, (batch + 1) * _BATCH)
        )
        # The attribution checks above are not vacuous.
        assert fallbacks > 0

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

    def _run(self, programs, log):
        """Every directed config on both engines; returns the vector
        results."""
        sim = Simulator(programs, MachineConfig(num_cores=NUM_CORES))
        base, vec = _assert_engines_identical(
            sim, ConfigRequest("NoCkpt"), None, "directed", log
        )
        results = [vec]
        for config in ("Ckpt_NE", "ReCkpt_NE", "ReCkpt_E_Loc"):
            _, vec = _assert_engines_identical(
                sim,
                ConfigRequest(config, num_checkpoints=4),
                base.baseline_profile(),
                "directed",
                log,
            )
            results.append(vec)
        return results

    def test_store_load_aliasing_overlap(self, fallback_log):
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
        for result in self._run(programs, fallback_log):
            assert result.vector_coverage["fallback.ACR009"] > 0

    def test_loop_carried_accumulate(self, fallback_log):
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
        self._run(programs, fallback_log)

    def test_cross_core_shared_region(self, fallback_log, monkeypatch):
        """Core 0 writes what core 1 planned to load from the pristine
        image: the disjointness check must force core 1's fallback,
        charged to ACR010 by the simulator's one certification."""
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
        calls = []

        def counting(programs):
            calls.append(programs)
            return certify_run(programs)

        monkeypatch.setattr(
            "repro.verify.absint.certify.certify_run", counting
        )
        for result in self._run([p0, p1], fallback_log):
            assert result.vector_coverage["fallback.ACR010"] > 0
        assert len(calls) == 1  # one Simulator, certified once

    def test_single_iteration_and_stride_zero(self, fallback_log):
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
        self._run(programs, fallback_log)

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


class TestCertifyOnlyOnFallback:
    """Replay reads no certificate, so a run without fallbacks never
    certifies."""

    def test_fig6_smoke_never_certifies(self, fallback_log, monkeypatch):
        def refuse(programs):
            raise AssertionError("certify_run called without a fallback")

        monkeypatch.setattr("repro.verify.absint.certify.certify_run", refuse)
        runner = ExperimentRunner(
            num_cores=2, region_scale=0.05, reps=2, engine="vector"
        )
        assert fig6_time_overhead(runner).render()
        assert fallback_log == []
        replayed = [
            runner.run(wl, ConfigRequest("NoCkpt")).vector_coverage[
                "replayed_iterations"
            ]
            for wl in runner.workloads()
        ]
        assert all(replayed)  # the sweep really ran on the vector engine


@pytest.mark.parametrize("workload", sorted(all_workload_names()))
class TestRegisteredWorkloads:
    """Every registered workload, every configuration, both engines."""

    def test_all_configs_bit_identical(self, workload):
        spec = get_workload(workload)
        programs = spec.build_programs(NUM_CORES, region_scale=0.05, reps=3)
        sim = Simulator(programs, MachineConfig(num_cores=NUM_CORES))
        base, _ = _assert_engines_identical(
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


class TestFig6SmokeBitIdentity:
    """The engine guardrail's bit-identity sweep, its data unchanged: the
    two cheapest workloads at 2 cores, scale 0.2, reps 12, all nine
    configurations at 4 checkpoints, each engine placing its dependents
    against its own NoCkpt run.  The engines' serialised results must
    render to the same canonical JSON text."""

    @staticmethod
    def _sweep(sim, spec, engine):
        results = {}
        baseline = None
        for name in CONFIG_NAMES:
            request = ConfigRequest(
                name, num_checkpoints=4, threshold=spec.default_threshold
            )
            res = sim.run(make_options(request, baseline, engine=engine))
            if request.is_baseline:
                baseline = res.baseline_profile()
            results[name] = res.to_dict()
        return json.dumps(results, sort_keys=True, separators=(",", ":"))

    @pytest.mark.parametrize("workload", ("cg", "is"))
    def test_fig6_smoke_checksums_match(self, workload):
        spec = get_workload(workload)
        programs = spec.build_programs(2, region_scale=0.2, reps=12)
        sim = Simulator(programs, MachineConfig(num_cores=2))
        interp = self._sweep(sim, spec, "interp")
        assert self._sweep(sim, spec, "vector") == interp, (
            f"engine divergence on {workload}")


class TestRunResultCoverageField:
    """The simulator reports vector coverage but never serialises it."""

    def test_simulator_reports_coverage(self):
        sim = Simulator(
            get_workload("bt").build_programs(2, region_scale=0.1, reps=4),
            MachineConfig(num_cores=2),
        )
        base = sim.run_baseline()
        result = sim.run(
            make_options(
                ConfigRequest("NoCkpt"), base.baseline_profile(), engine="vector"
            )
        )
        cov = result.vector_coverage
        assert cov is not None
        assert cov["replayed_iterations"] > 0
        # Diagnostics ride outside the serialised contract: the payload
        # round-trips without the field and stays engine-comparable.
        doc = result.to_dict()
        assert "vector_coverage" not in doc
        assert "vector_coverage" not in result.to_payload()
        restored = type(result).from_payload(result.to_payload())
        assert restored.vector_coverage is None
        assert restored.to_dict() == doc

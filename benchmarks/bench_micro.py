"""Micro-benchmarks: component throughput under pytest-benchmark.

These are conventional timing benchmarks (many rounds) for the simulator's
hot components: the interpreter, the cache model, the AddrMap and Slice
recomputation.  They guard against performance regressions that would make
the paper regeneration impractically slow.
"""

from repro.arch.buffers import AddrMap, AddrMapEntry
from repro.arch.cache import SetAssociativeCache
from repro.arch.config import CacheConfig
from repro.compiler.embed import compile_program
from repro.isa.builder import chain_kernel
from repro.isa.instructions import AddressPattern
from repro.isa.interpreter import Interpreter, MemoryImage
from repro.isa.program import Program

STORE = AddressPattern(0, 1, 256)
INPUT = AddressPattern(1 << 20, 1, 256)


def test_interpreter_throughput(benchmark):
    program = Program(
        [chain_kernel("k", STORE, [INPUT], 8, 256) for _ in range(8)]
    )

    def run():
        Interpreter(program, MemoryImage(0)).run_to_completion()

    benchmark(run)


def test_cache_access_throughput(benchmark):
    cache = SetAssociativeCache(CacheConfig("l1", 32 * 1024, 8, 3.66))
    lines = [i * 7 % 4096 for i in range(4096)]

    def run():
        for line in lines:
            cache.access(line, line & 1 == 0)

    benchmark(run)


def test_addrmap_throughput(benchmark):
    program = Program([chain_kernel("k", STORE, [INPUT], 4, 1)])
    sl = compile_program(program).slices.get(0)
    addrmap = AddrMap(8192)

    def run():
        for i in range(1024):
            addrmap.record(AddrMapEntry(i * 8, sl, (i,)))
        addrmap.commit_generation()
        for i in range(1024):
            addrmap.committed_lookup(i * 8)

    benchmark(run)


def test_slice_recompute_throughput(benchmark):
    program = Program([chain_kernel("k", STORE, [INPUT], 9, 1)])
    sl = compile_program(program).slices.get(0)

    def run():
        for i in range(1024):
            sl.execute((i,))

    benchmark(run)


# --- observability overhead guardrails -------------------------------------

def _paired_minima(run_a, run_b, pairs):
    """Best-of-N wall clock for two runnables, sampled interleaved.

    Back-to-back batches drift (allocator growth, frequency scaling), so
    timing all of A before any of B fabricates a delta.  Alternating
    A/B/A/B spreads the drift across both series, and the per-series
    minimum is the classic low-noise estimator.
    """
    import gc
    import time

    mins = [float("inf"), float("inf")]
    for _ in range(pairs):
        for slot, run in enumerate((run_a, run_b)):
            gc.collect()
            t0 = time.perf_counter()
            run()
            mins[slot] = min(mins[slot], time.perf_counter() - t0)
    return mins


def test_null_tracer_zero_overhead():
    """A NullTracer must cost the same as no tracer at all (<2% delta).

    The disabled-tracer check is hoisted once per run, so both variants
    execute the identical hot path; a delta here means instrumentation
    leaked into the untraced path.  Interleaved best-of-N with retries
    keeps the assertion robust against scheduler noise.
    """
    from repro.arch.config import MachineConfig
    from repro.obs.tracer import NullTracer
    from repro.sim.simulator import SimulationOptions, Simulator
    from repro.workloads.registry import get_workload

    config = MachineConfig(num_cores=2)
    programs = get_workload("is").build_programs(2, region_scale=0.1, reps=20)
    sim = Simulator(programs, config)
    baseline = sim.run_baseline().baseline_profile()
    plain = SimulationOptions(
        label="plain", scheme="global", acr=True,
        num_checkpoints=5, baseline=baseline,
    )
    nulled = SimulationOptions(
        label="null", scheme="global", acr=True,
        num_checkpoints=5, baseline=baseline, tracer=NullTracer(),
    )

    sim.run(plain)  # warm-up (compile caches, allocator)
    for attempt in range(3):
        t_plain, t_null = _paired_minima(
            lambda: sim.run(plain), lambda: sim.run(nulled), pairs=5
        )
        delta = abs(t_null - t_plain) / t_plain
        if delta < 0.02:
            return
    raise AssertionError(
        f"NullTracer overhead {delta * 100:.2f}% exceeds the 2% guardrail "
        f"(plain {t_plain * 1e3:.2f} ms, null {t_null * 1e3:.2f} ms)"
    )


def test_telemetry_disabled_zero_overhead():
    """Ambient telemetry must not tax an untelemetered run (<2% delta).

    Side A runs with telemetry fully disabled: the module-global sink is
    ``None``, ``_Run`` samples a single False, and the per-checkpoint
    emission never executes.  Side B runs the *enabled* streaming path —
    ``task_telemetry`` with a discarding sink, so every heartbeat,
    metrics delta and phase transition is built and dispatched.  Holding
    even the enabled delta under the guardrail bounds the disabled path
    a fortiori, and catches instrumentation leaking into the hot loop.
    """
    from repro.arch.config import MachineConfig
    from repro.obs.telemetry.emit import task_telemetry
    from repro.sim.simulator import SimulationOptions, Simulator
    from repro.workloads.registry import get_workload

    config = MachineConfig(num_cores=2)
    programs = get_workload("is").build_programs(2, region_scale=0.1, reps=20)
    sim = Simulator(programs, config)
    baseline = sim.run_baseline().baseline_profile()
    opts = SimulationOptions(
        label="bench", scheme="global", acr=True,
        num_checkpoints=5, baseline=baseline,
    )

    def run_plain():
        sim.run(opts)

    def run_streaming():
        with task_telemetry("bench", lambda frame: None):
            sim.run(opts)

    run_plain()  # warm-up (compile caches, allocator)
    for attempt in range(3):
        t_plain, t_live = _paired_minima(run_plain, run_streaming, pairs=5)
        delta = abs(t_live - t_plain) / t_plain
        if delta < 0.02:
            return
    raise AssertionError(
        f"telemetry overhead {delta * 100:.2f}% exceeds the 2% guardrail "
        f"(plain {t_plain * 1e3:.2f} ms, streaming {t_live * 1e3:.2f} ms)"
    )


def test_recording_tracer_throughput(benchmark):
    """Raw event-ingest rate of the RecordingTracer."""
    from repro.obs.events import LogWrite
    from repro.obs.tracer import RecordingTracer

    events = [
        LogWrite(ts_ns=float(i), core=i & 3, address=i * 8,
                 line=i >> 3, size_bytes=16, taken=i & 1 == 0)
        for i in range(4096)
    ]

    def run():
        tracer = RecordingTracer()
        for ev in events:
            tracer.emit(ev)

    benchmark(run)

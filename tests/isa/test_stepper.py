"""The generated steppers against an independent reference interpreter.

The classic :class:`~repro.isa.interpreter.Interpreter` runs every
kernel through its shape's ``exec``-compiled stepper.  ``_Walker`` here
is the semantics oracle: it walks each kernel's ``body`` instruction by
instruction with :func:`~repro.isa.opcodes.apply_alu` and
:meth:`MemoryImage.read`/:meth:`MemoryImage.write`, and reads no shape
attribute.  Both must agree on final memory, registers, positions,
``ExecChunk`` counts and the full ``LoadEvent``/``StoreEvent`` streams
(each store's register snapshot included), under random chunk splits,
with and without observers, and across a ``restore_arch_state`` that
rewinds mid-kernel with a flipped register bit (what fault injection
does).  Inputs: random kernels with aliasing loads and stores,
loop-carried registers, width-0 bodies and ``ASSOC-ADDR`` flags; the
slicing and chain corpora; and the built-in workloads, compiled.
"""

from __future__ import annotations

import cProfile
import linecache
import pstats
import traceback
from typing import List, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.compiler.embed import compile_program
from repro.compiler.policy import ThresholdPolicy
from repro.isa import interpreter
from repro.isa.builder import chain_kernel
from repro.isa.instructions import (
    AddressPattern,
    AluInstr,
    LoadInstr,
    MoviInstr,
    StoreInstr,
)
from repro.isa.interpreter import (
    ExecChunk,
    Interpreter,
    LoadEvent,
    MemoryImage,
    StoreEvent,
)
from repro.isa.opcodes import ALU_OPCODES, MASK64, apply_alu
from repro.isa.program import Kernel, Program
from repro.workloads import get_workload
from repro.workloads.registry import all_workload_names
from tests.compiler.test_slice_properties import random_kernels
from tests.isa.test_interning import chain_args

_OPS = sorted(ALU_OPCODES, key=lambda op: op.value)


class _Walker:
    """Reference interpreter: one instruction at a time over the body."""

    def __init__(self, kernels, thread, memory, on_load=None, on_store=None):
        self.kernels = list(kernels)
        self.thread = thread
        self.memory = memory
        self.on_load = on_load
        self.on_store = on_store
        self.k = 0
        self.i = 0
        self.regs: List[int] = []
        self._enter()

    @staticmethod
    def _width(body) -> int:
        width = 0
        for ins in body:
            if isinstance(ins, AluInstr):
                width = max(width, ins.dst, ins.src_a, ins.src_b)
            elif isinstance(ins, StoreInstr):
                width = max(width, ins.src)
            else:
                width = max(width, ins.dst)
        return width

    def _enter(self) -> None:
        if self.k < len(self.kernels):
            self.regs = [0] * (self._width(self.kernels[self.k].body) + 1)
            self.i = 0

    @property
    def done(self) -> bool:
        return self.k >= len(self.kernels)

    @property
    def position(self) -> Tuple[int, int]:
        return (self.k, self.i)

    def arch_state(self):
        return (self.k, self.i, list(self.regs))

    def restore_arch_state(self, state) -> None:
        self.k, self.i = state[0], state[1]
        self.regs = list(state[2])

    def step_iterations(self, max_iterations: int) -> ExecChunk:
        it = alu = loads = stores = assoc = 0
        regs, memory = self.regs, self.memory
        while it < max_iterations and not self.done:
            kernel = self.kernels[self.k]
            body = kernel.body
            while it < max_iterations and self.i < kernel.trip_count:
                i = self.i
                alu += kernel.ghost_alu
                for ins in body:
                    if isinstance(ins, AluInstr):
                        regs[ins.dst] = apply_alu(
                            ins.op, regs[ins.src_a], regs[ins.src_b]
                        )
                        alu += 1
                    elif isinstance(ins, MoviInstr):
                        regs[ins.dst] = ins.imm & MASK64
                        alu += 1
                    elif isinstance(ins, LoadInstr):
                        address = ins.pattern.address(i)
                        regs[ins.dst] = memory.read(address)
                        loads += 1
                        if self.on_load is not None:
                            self.on_load(LoadEvent(self.thread, address))
                    else:
                        address = ins.pattern.address(i)
                        new = regs[ins.src]
                        old = memory.write(address, new)
                        stores += 1
                        assoc += ins.assoc
                        if self.on_store is not None:
                            self.on_store(StoreEvent(
                                self.thread, ins.site, address, old, new, i,
                                list(regs),
                            ))
                self.i += 1
                it += 1
            if self.i >= kernel.trip_count:
                self.k += 1
                self._enter()
                regs = self.regs
        return ExecChunk(it, alu, loads, stores, assoc)


# -- inputs ----------------------------------------------------------------------
#: Two small regions every load and store draws from, so bodies alias
#: within a kernel, across kernels and (with strides of 0) on one word.
_REGIONS = (0, 1 << 12)


@st.composite
def _patterns(draw):
    return AddressPattern(
        draw(st.sampled_from(_REGIONS)) + 8 * draw(st.integers(0, 4)),
        draw(st.integers(0, 3)),
        draw(st.integers(1, 6)),
        draw(st.integers(0, 5)),
    )


@st.composite
def stepper_kernels(draw):
    """Arbitrary bodies: any register read before it is defined (so
    loop-carried), one register only (width 0) or a few, aliasing
    accesses, immediates wider than 64 bits, ``ASSOC-ADDR`` stores."""
    n_regs = draw(st.integers(1, 4))
    reg = st.integers(0, n_regs - 1)
    body = []
    for kind in draw(st.lists(st.sampled_from("mals"), min_size=1,
                              max_size=8)):
        if kind == "m":
            body.append(MoviInstr(draw(reg), draw(st.integers(0, 2**70))))
        elif kind == "a":
            body.append(AluInstr(draw(st.sampled_from(_OPS)), draw(reg),
                                 draw(reg), draw(reg)))
        elif kind == "l":
            body.append(LoadInstr(draw(reg), draw(_patterns())))
        else:
            body.append(StoreInstr(draw(reg), draw(_patterns()), -1,
                                   draw(st.booleans())))
    return Kernel("s", body, draw(st.integers(1, 9)),
                  ghost_alu=draw(st.integers(0, 3)))


_ANY_KERNEL = st.one_of(
    stepper_kernels(),
    random_kernels(),
    chain_args().map(lambda a: chain_kernel("c", **a)),
)

#: (save at step, restore after this many more steps, bit to flip).
_REWINDS = st.one_of(
    st.none(),
    st.tuples(st.integers(0, 5), st.integers(0, 4), st.integers(0, 1 << 12)),
)


def _drive(engine, memory, chunks, rewind, events, max_steps=None):
    """Step ``engine`` through ``chunks`` (cycled) to the end, rewinding
    once per ``rewind``; returns everything observable."""
    trace = []
    saved = None
    step = 0
    while not engine.done and (max_steps is None or step < max_steps):
        if rewind is not None:
            save_at, after, flip = rewind
            if step == save_at:
                saved = (engine.arch_state(), memory.snapshot())
            elif saved is not None and step == save_at + after + 1:
                (k, i, regs), snap = saved
                reg = flip % len(regs)
                regs[reg] ^= 1 << (flip % 64)
                engine.restore_arch_state((k, i, regs))
                memory.restore(snap)
                saved = None
        chunk = engine.step_iterations(chunks[step % len(chunks)])
        trace.append((chunk, engine.position, engine.arch_state()))
        step += 1
    return trace, events, memory.snapshot()


def _both(program, seed, chunks, rewind, observe, max_steps=None):
    runs = []
    for make in (
        lambda m, ld, st: Interpreter(program, m, on_load=ld, on_store=st),
        lambda m, ld, st: _Walker(program.kernels, program.thread_id, m,
                                  on_load=ld, on_store=st),
    ):
        memory = MemoryImage(seed)
        events: list = []
        hook = events.append if observe else None
        engine = make(memory, hook, hook)
        runs.append(_drive(engine, memory, chunks, rewind, events, max_steps))
    return runs


_CHUNKS = st.lists(st.integers(1, 12), min_size=1, max_size=6)


class TestStepperMatchesReference:
    @given(st.lists(_ANY_KERNEL, min_size=1, max_size=4), st.integers(0, 3),
           st.integers(0, 2**64 - 1), _CHUNKS, _REWINDS, st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_random_programs(self, kernels, thread, seed, chunks, rewind,
                             observe):
        stepped, walked = _both(Program(kernels, thread), seed, chunks,
                                rewind, observe)
        assert stepped == walked

    @given(stepper_kernels(), st.integers(0, 3), st.integers(0, 2**64 - 1),
           st.integers(0, 8), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_unnumbered_sites(self, kernel, thread, seed, start, observe):
        """A kernel outside a program (``site_base == -1``): every
        store reports site -1.  The span starts mid-kernel, from a
        register file wider than 64 bits, which memory writes mask."""
        assert kernel.site_base == -1
        start = min(start, kernel.trip_count - 1)
        width = kernel.shape.width
        runs = []
        for use_stepper in (True, False):
            memory = MemoryImage(seed)
            events: list = []
            hook = events.append if observe else None
            regs = [seed + ((r + 1) << 64) for r in range(width + 1)]
            n = kernel.trip_count - start
            if use_stepper:
                step = kernel.shape.prepared(
                    "stepper", interpreter._build_stepper
                )
                step(regs, start, n, kernel.params, memory.words_map(),
                     memory.seed, hook, hook, thread, -1)
            else:
                walker = _Walker([kernel], thread, memory, hook, hook)
                walker.restore_arch_state((0, start, regs))
                walker.step_iterations(n)
                regs = walker.regs
            runs.append((regs, events, memory.snapshot()))
        assert runs[0] == runs[1]
        if observe and kernel.shape.store_count:
            assert {e.site for e in events if isinstance(e, StoreEvent)} == {-1}

    def test_width_zero_body(self):
        region = AddressPattern(0, 1, 2)
        kernel = Kernel("w0", [LoadInstr(0, region), MoviInstr(0, 2**64 + 3),
                               StoreInstr(0, region)], 5)
        assert kernel.shape.width == 0
        stepped, walked = _both(Program([kernel]), 7, [2], None, True)
        assert stepped == walked
        assert [e.regs for e in stepped[1] if isinstance(e, StoreEvent)] == (
            [[3]] * 5
        )

    def test_store_snapshots_do_not_alias(self):
        """Each event's ``regs`` is its own list: later stores and
        iterations leave an earlier snapshot unchanged."""
        k = chain_kernel("k", AddressPattern(0, 1, 4),
                         [AddressPattern(4096, 1, 4)], 3, 4)
        events: list = []
        Interpreter(Program([k]), MemoryImage(1),
                    on_store=events.append).run_to_completion()
        snapshots = [e.regs for e in events]
        assert len({id(s) for s in snapshots}) == len(snapshots) == 4
        walked: list = []
        _Walker([Program([k]).kernels[0]], 0, MemoryImage(1),
                on_store=walked.append).step_iterations(4)
        assert snapshots == [e.regs for e in walked]

    @pytest.mark.parametrize("name", all_workload_names())
    def test_builtin_workloads_compiled(self, name):
        spec = get_workload(name)
        programs = spec.build_programs(2, region_scale=0.01, reps=1)
        policy = ThresholdPolicy(spec.default_threshold)
        for core, program in enumerate(programs):
            for run in (program, compile_program(program, policy).program):
                stepped, walked = _both(run, core, [5, 64, 17], (1, 2, 77),
                                        True, max_steps=40)
                assert stepped == walked


class TestSharedStepper:
    def test_one_stepper_per_plain_shape(self, monkeypatch):
        """Every kernel of a shape, and of its ``ASSOC-ADDR`` variants,
        runs one stepper object, across programs and cores; a rebuild
        and rerun generates none."""
        generated = []
        real = interpreter._generate_stepper

        def counted(shape):
            generated.append(shape)
            return real(shape)

        monkeypatch.setattr(interpreter, "_generate_stepper", counted)

        def build_and_run():
            kernels = []
            for name in ("cg", "is"):
                spec = get_workload(name)
                policy = ThresholdPolicy(spec.default_threshold)
                for program in spec.build_programs(2, region_scale=0.01,
                                                   reps=2):
                    for run in (program,
                                compile_program(program, policy).program):
                        it = Interpreter(run, MemoryImage(0))
                        for k, kernel in enumerate(run.kernels):
                            width = kernel.shape.width
                            it.restore_arch_state((k, 0, [0] * (width + 1)))
                            it.step_iterations(1)
                        kernels += run.kernels
            return kernels

        def plain(shape):
            return shape.with_assoc((False,) * shape.store_count)

        kernels = build_and_run()
        assert any(k.shape.assoc_count for k in kernels)
        plains = {plain(k.shape) for k in kernels}
        assert len(generated) <= len(plains)
        assert all(s.assoc_count == 0 for s in generated)
        for kernel in kernels:
            assert kernel.shape.stepper is not None
            assert kernel.shape.stepper is plain(kernel.shape).stepper
        assert len({k.shape.stepper for k in kernels}) == len(plains)
        del generated[:]
        assert len(build_and_run()) == len(kernels)
        assert generated == []


class TestGeneratedSource:
    """Each stepper (and plan evaluator) is compiled under a filename of
    its own, ``<stepper:digest>``, with its source in ``linecache``."""

    @staticmethod
    def _kernels():
        store, load = AddressPattern(0, 1, 4), AddressPattern(4096, 1, 4)
        short = chain_kernel("short", store, [load], 2, 4)
        deep = chain_kernel("deep", store, [load], 5, 4)
        assert short.shape is not deep.shape
        return short, deep

    def test_profile_lists_each_stepper_as_its_own_row(self):
        profile = cProfile.Profile()
        profile.enable()
        Interpreter(Program(list(self._kernels())),
                    MemoryImage(1)).run_to_completion()
        profile.disable()
        rows = [key for key in pstats.Stats(profile).stats
                if key[0].startswith("<stepper:") and key[2] == "step"]
        assert len(rows) == 2
        assert len({filename for filename, _line, _name in rows}) == 2

    def test_traceback_quotes_the_generated_line(self):
        def observer(event):
            raise RuntimeError("observer failed")

        with pytest.raises(RuntimeError) as exc:
            Interpreter(Program([self._kernels()[0]]), MemoryImage(1),
                        on_store=observer).run_to_completion()
        linecache.checkcache()  # what traceback printing does first
        frames = [frame for frame in traceback.extract_tb(exc.value.__traceback__)
                  if frame.filename.startswith("<stepper:")]
        assert len(frames) == 1
        assert frames[0].line.startswith("on_store(StoreEvent(")
        assert "on_store(StoreEvent(" in "".join(
            traceback.format_exception(exc.value)
        )

    def test_plan_evaluator_source_is_registered(self):
        from repro.sim.vector.plans import _generate_evaluator

        evaluator = _generate_evaluator(self._kernels()[1].shape)
        filename = evaluator.__code__.co_filename
        assert filename.startswith("<plan-evaluator:")
        linecache.checkcache()
        assert linecache.getline(filename, 1).startswith("def _eval(")


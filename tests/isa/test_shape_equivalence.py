"""Shape-built programs against a per-kernel reference that shares nothing.

Every layer prepares a :class:`~repro.isa.program.KernelShape` once and
then only binds each kernel's parameters: the compile pass (slicing,
embedding, Slice tables, statistics), the trace plans and the
vector-safety certificates (the interpreter's steppers have their own
reference in ``test_stepper``).  The references here walk each kernel's
own instruction list and read no shape attribute:
``DataDependenceGraph``/``extract_slice`` per store, the scalar plan
oracle's body walk, and the certifier's body walk.  Inputs are random kernels (with same-shape
variants and chain kernels), randomized multi-core programs, the
built-in workloads and their ACR009–ACR012 mutants.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.compiler.embed import compile_program
from repro.compiler.policy import ThresholdPolicy
from repro.isa.builder import chain_kernel
from repro.isa.instructions import (
    LINE_BYTES,
    AluInstr,
    LoadInstr,
    MoviInstr,
    StoreInstr,
)
from repro.isa.program import Program
from repro.sim.vector.plans import _build_plan
from repro.verify.absint import certify
from repro.verify.absint.shapes import AccessRange, range_of
from repro.verify.mutations import seed_defect
from repro.workloads import get_workload
from tests.compiler.test_compile_memo import (
    POLICIES,
    _reference_compile,
    _same_shape_variant,
    _table_rows,
)
from tests.compiler.test_slice_properties import random_kernels
from tests.isa.test_interning import chain_args
from tests.sim.test_engine_equivalence import _random_programs
from tests.sim.test_vector_plans import _scalar_reference

VECTOR_RULES = ("ACR009", "ACR010", "ACR011", "ACR012")


# -- references ----------------------------------------------------------------
def _reference_template(kernel):
    """Width, per-iteration counts, store flags, store sites and
    register stability, from one walk over the body."""
    width = alu = loads = stores = 0
    flags: List[bool] = []
    sites: List[int] = []
    seen_store = False
    stable = True
    for ins in kernel.body:
        if isinstance(ins, StoreInstr):
            width = max(width, ins.src)
            flags.append(True)
            sites.append(ins.site)
            stores += 1
            seen_store = True
            continue
        if seen_store:
            stable = False
        if isinstance(ins, AluInstr):
            width = max(width, ins.dst, ins.src_a, ins.src_b)
            alu += 1
        elif isinstance(ins, MoviInstr):
            width = max(width, ins.dst)
            alu += 1
        else:
            width = max(width, ins.dst)
            flags.append(False)
            loads += 1
    return dict(
        width=width, accesses_per_iter=loads + stores,
        stores_per_iter=stores, alu_per_iter=alu, loads_per_iter=loads,
        store_flags=tuple(flags),
        store_sites=tuple(sites), regs_stable=stable,
    )


def _reference_summary(index, kernel):
    """The certifier's abstract interpretation, walking the body."""
    trip = kernel.trip_count
    loads: List[Tuple[int, AccessRange]] = []
    stores: List[Tuple[int, AccessRange]] = []
    width = 0
    first_store: Optional[int] = None
    unstable: Optional[Tuple[int, int]] = None
    defined: set = set()
    read_first = False
    for pos, ins in enumerate(kernel.body):
        if isinstance(ins, StoreInstr):
            width = max(width, ins.src)
            read_first |= ins.src not in defined
            stores.append((pos, range_of(ins.pattern, trip)))
            if first_store is None:
                first_store = pos
            continue
        if isinstance(ins, AluInstr):
            width = max(width, ins.dst, ins.src_a, ins.src_b)
            read_first |= not {ins.src_a, ins.src_b} <= defined
        else:
            width = max(width, ins.dst)
            if isinstance(ins, LoadInstr):
                loads.append((pos, range_of(ins.pattern, trip)))
        defined.add(ins.dst)
        if first_store is not None and unstable is None:
            unstable = (first_store, pos)
    load_addrs = frozenset().union(*(r.addresses for _, r in loads))
    store_addrs = frozenset().union(*(r.addresses for _, r in stores))
    overlap = bool(load_addrs & store_addrs)
    span = None
    if overlap:
        offending = [p for p, r in loads if r.addresses & store_addrs] + [
            p for p, r in stores if r.addresses & load_addrs
        ]
        span = (min(offending), max(offending))
    return certify.KernelSummary(
        index=index, name=kernel.name, trip=trip, width=width,
        loads=tuple(loads), stores=tuple(stores), load_addrs=load_addrs,
        store_addrs=store_addrs, overlap=overlap, overlap_span=span,
        regs_stable=unstable is None, unstable_span=unstable,
        regs_renewed=not read_first
        and all(r in defined for r in range(width + 1)),
    )


def _reference_certify(programs):
    """``certify_run`` over body-walk summaries."""
    summaries = [
        [_reference_summary(k, kernel) for k, kernel in enumerate(p.kernels)]
        for p in programs
    ]
    unions = [frozenset().union(*(ks.store_addrs for ks in s)) for s in summaries]
    result = []
    for core, summary in enumerate(summaries):
        peers = frozenset().union(
            *(u for c, u in enumerate(unions) if c != core)
        )
        earlier: frozenset = frozenset()
        certs = []
        for ks in summary:
            certs.append(certify._certify_kernel(core, ks, peers, earlier))
            earlier |= ks.store_addrs
        result.append(tuple(certs))
    return result


# -- the checks ------------------------------------------------------------------
_STREAMS = ("addrs", "lines", "svalues", "external_loads", "overlap", "rows")


def _assert_layers_match(programs, policy, seed=0):
    """Compile, plans and certificates of ``programs`` equal the
    references; returns the compiled programs."""
    compiled = []
    for program in programs:
        cp = compile_program(program, policy)
        ref_program, ref_table, ref_stats = _reference_compile(program, policy)
        assert _table_rows(cp.slices) == _table_rows(ref_table)
        assert cp.stats == ref_stats
        assert cp.program.kernels == ref_program.kernels
        assert cp.program.store_sites == ref_program.store_sites
        compiled.append(cp)
        for kernel in program.kernels:
            ref = _scalar_reference(kernel, seed)
            template = _reference_template(kernel)
            plan = _build_plan(kernel, seed, LINE_BYTES)
            for name in _STREAMS:
                assert getattr(plan, name) == getattr(ref, name), name
            for name, value in template.items():
                assert getattr(plan, name) == value, name
    for run in (programs, [cp.program for cp in compiled]):
        assert certify.certify_run(run) == _reference_certify(run)
    return compiled


def _split(kernels, cores):
    """``kernels`` dealt round-robin into one program per core."""
    return [
        Program(kernels[c::cores], c) for c in range(cores) if kernels[c::cores]
    ]


class TestShapeBuiltMatchesReference:
    @given(st.lists(random_kernels(), min_size=1, max_size=4), POLICIES,
           st.integers(0, 1000), st.integers(1, 2))
    @settings(max_examples=40, deadline=None)
    def test_random_kernels(self, kernels, policy, seed, cores):
        mixed = []
        for k in kernels:
            mixed += [k, _same_shape_variant(k, seed)]
        _assert_layers_match(_split(mixed, cores), policy, seed)

    @given(st.lists(chain_args(), min_size=1, max_size=4), POLICIES,
           st.integers(0, 3))
    @settings(max_examples=30, deadline=None)
    def test_chain_kernels(self, chains, policy, seed):
        kernels = [chain_kernel(f"c{i}", **a) for i, a in enumerate(chains)]
        _assert_layers_match(_split(kernels, 2), policy, seed)

    @pytest.mark.parametrize("seed", range(0, 200, 20))
    def test_random_programs(self, seed):
        programs = _random_programs(seed)
        _assert_layers_match(programs, ThresholdPolicy(), seed)

    @pytest.mark.parametrize("name", ["cg", "dc", "ft", "is"])
    def test_workloads_and_their_vector_mutants(self, name):
        spec = get_workload(name)
        programs = spec.build_programs(2, region_scale=0.05, reps=3)
        policy = ThresholdPolicy(spec.default_threshold)
        compiled = _assert_layers_match(programs, policy)
        denied = set()
        for rule in VECTOR_RULES:
            mutant = seed_defect(compiled[0], rule)
            run = [mutant.program, *mutant.peers, *[c.program for c in compiled[1:]]]
            certs = certify.certify_run(run)
            assert certs == _reference_certify(run)
            denied |= {d.rule_id for c in certs[0] for d in c.denials}
        assert denied == set(VECTOR_RULES)

    def test_random_program_suite_denies_every_vector_rule(self):
        denied = set()
        for seed in range(0, 200, 5):
            programs = _random_programs(seed)
            certs = certify.certify_run(programs)
            assert certs == _reference_certify(programs)
            denied |= {d.rule_id for core in certs for c in core
                       for d in c.denials}
        assert denied >= {"ACR009", "ACR010", "ACR011", "ACR012"}

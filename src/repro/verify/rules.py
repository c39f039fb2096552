"""The soundness rules and their registry.

Every rule has a stable id (``ACR001`` ...), a slug, a default severity
and a checker ``fn(ctx) -> Iterator[Diagnostic]`` over a
:class:`VerifyContext`.  The rules encode the compiler invariants ACR's
safety argument rests on — a store whose old-value logging is omitted must
carry a Slice that is pure, input-complete, policy-conforming and bound to
operand values that are actually live at ``ASSOC-ADDR`` time:

========  ========================  ======================================
rule id   slug                      invariant
========  ========================  ======================================
ACR001    slice-impure              slices contain ALU/MOVI only
ACR002    frontier-incomplete       every slice input is a frontier slot
ACR003    dangling-assoc            ASSOC_ADDR stores <-> SliceTable bijection
ACR004    operand-budget-exceeded   snapshot fits the operand buffer
ACR005    threshold-violation       embedded slices pass the active policy
ACR006    result-reg-undefined      the result register is always defined
ACR007    frontier-aliasing-hazard  snapshot values equal slice-bound loads
ACR008    recompute-divergence      (dynamic oracle, see ``oracle.py``)
========  ========================  ======================================

ACR009–ACR012 are the **vector-safety** rules: advisory (info/warning)
findings backed by the abstract address-range analysis in
:mod:`repro.verify.absint`.  They never reject a program — the vector
engine falls back to the classic interpreter for any segment they deny —
but they make every such fallback explainable (``acr-repro analyze``):

========  =========================  =====================================
rule id   slug                       fallback it explains
========  =========================  =====================================
ACR009    vector-unsafe-overlap      kernel loads alias its own stores
ACR010    cross-core-aliasing-race   kernel loads alias another core's
                                     stores
ACR011    unstable-observed-register register file at store time differs
                                     from the plan's end-of-iteration row
ACR012    external-load-intersection kernel loads alias stores of earlier
                                     kernels in the same program
========  =========================  =====================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.compiler.slices import Slice, SliceTable
from repro.isa.instructions import AluInstr, LoadInstr, MoviInstr, StoreInstr
from repro.isa.opcodes import ALU_OPCODES
from repro.isa.program import Program
from repro.verify.dataflow import KernelDataflow
from repro.verify.diagnostics import Diagnostic, Severity

__all__ = [
    "Rule",
    "RULES",
    "VerifyContext",
    "slice_required_inputs",
    "run_static_rules",
]

RuleChecker = Callable[["VerifyContext"], Iterator[Diagnostic]]


@dataclass(frozen=True)
class Rule:
    """Registry entry for one verification rule."""

    rule_id: str
    slug: str
    severity: Severity
    summary: str
    check: RuleChecker


#: Registry of all static rules, keyed by rule id (insertion-ordered).
RULES: Dict[str, Rule] = {}


def _register(
    rule_id: str, slug: str, severity: Severity, summary: str
) -> Callable[[RuleChecker], RuleChecker]:
    """Class the decorated checker function under ``rule_id``."""

    def deco(fn: RuleChecker) -> RuleChecker:
        if rule_id in RULES:
            raise ValueError(f"duplicate rule id {rule_id}")
        RULES[rule_id] = Rule(rule_id, slug, severity, summary, fn)
        return fn

    return deco


@dataclass
class VerifyContext:
    """Everything a rule may inspect, with cached per-kernel dataflow."""

    program: Program
    slices: SliceTable
    #: Policy the embedding pass ran with (``None`` disables ACR005).
    policy: Optional[object] = None
    #: Operand-buffer word budget an entry's snapshot must fit.
    operand_capacity: Optional[int] = None
    #: Programs sharing memory with this one (the other cores of the
    #: run); ACR010 checks cross-core aliasing against their stores.
    peers: Tuple[Program, ...] = ()
    _dataflow: Dict[int, KernelDataflow] = field(default_factory=dict)

    def dataflow(self, kernel_index: int) -> KernelDataflow:
        """Dataflow facts for one kernel (built once, cached)."""
        df = self._dataflow.get(kernel_index)
        if df is None:
            df = KernelDataflow(self.program.kernels[kernel_index])
            self._dataflow[kernel_index] = df
        return df

    def site_location(self, site: int) -> Optional[Tuple[int, int]]:
        """(kernel index, body index) of a site id; None if out of range."""
        if 0 <= site < self.program.num_sites:
            return self.program.site_position(site)
        return None

    def describe_site(self, site: int) -> Optional[str]:
        """Human location string for a site id."""
        loc = self.site_location(site)
        if loc is None:
            return None
        k_idx, i_idx = loc
        return f"kernel {self.program.kernels[k_idx].name!r} instr {i_idx}"


def _diag(
    rule_id: str,
    message: str,
    site: Optional[int] = None,
    location: Optional[str] = None,
) -> Diagnostic:
    """Build a finding with the registry's slug/severity for ``rule_id``."""
    spec = RULES[rule_id]
    return Diagnostic(rule_id, spec.slug, spec.severity, message, site, location)


def slice_required_inputs(sl: Slice, include_result: bool = True) -> Set[int]:
    """Registers a slice consumes from its operand snapshot.

    A register is *required* when it is read before any slice instruction
    defines it; with ``include_result`` an undefined result register also
    counts (a trivial copy slice consumes its operand as the result).
    Instructions that are not ALU/MOVI are skipped here — ACR001 reports
    them separately.
    """
    required: Set[int] = set()
    defined: Set[int] = set()
    for ins in sl.instructions:
        if isinstance(ins, AluInstr):
            for reg in (ins.src_a, ins.src_b):
                if reg not in defined:
                    required.add(reg)
            defined.add(ins.dst)
        elif isinstance(ins, MoviInstr):
            defined.add(ins.dst)
    if include_result and sl.result_reg not in defined:
        required.add(sl.result_reg)
    return required


# ---------------------------------------------------------------------------
# Static rules
# ---------------------------------------------------------------------------


@_register(
    "ACR001",
    "slice-impure",
    Severity.ERROR,
    "embedded slices may contain only MOVI and binary-ALU instructions",
)
def _check_purity(ctx: VerifyContext) -> Iterator[Diagnostic]:
    for sl in ctx.slices:
        where = ctx.describe_site(sl.site)
        for pos, ins in enumerate(sl.instructions):
            if isinstance(ins, MoviInstr):
                continue
            if isinstance(ins, AluInstr):
                if ins.op not in ALU_OPCODES:
                    yield _diag(
                        "ACR001",
                        f"slice instruction {pos} uses non-ALU opcode "
                        f"{getattr(ins.op, 'value', ins.op)!r}",
                        sl.site,
                        where,
                    )
                continue
            yield _diag(
                "ACR001",
                f"slice instruction {pos} is {type(ins).__name__}, "
                f"not MOVI/ALU — recomputation would touch memory",
                sl.site,
                where,
            )


@_register(
    "ACR002",
    "frontier-incomplete",
    Severity.ERROR,
    "every register a slice consumes must occupy exactly one frontier slot",
)
def _check_frontier(ctx: VerifyContext) -> Iterator[Diagnostic]:
    for sl in ctx.slices:
        where = ctx.describe_site(sl.site)
        if len(set(sl.frontier)) != len(sl.frontier):
            dupes = sorted(
                {r for r in sl.frontier if sl.frontier.count(r) > 1}
            )
            yield _diag(
                "ACR002",
                f"duplicate frontier registers {dupes} break the "
                f"operand-snapshot alignment",
                sl.site,
                where,
            )
        # Reads only: an undefined *result* register is ACR006's finding.
        missing = sorted(
            slice_required_inputs(sl, include_result=False) - set(sl.frontier)
        )
        if missing:
            yield _diag(
                "ACR002",
                f"slice reads register(s) {missing} that no frontier slot "
                f"supplies — recomputation would use garbage",
                sl.site,
                where,
            )


@_register(
    "ACR003",
    "dangling-assoc",
    Severity.ERROR,
    "ASSOC_ADDR-flagged stores and SliceTable entries must be a bijection",
)
def _check_assoc_bijection(ctx: VerifyContext) -> Iterator[Diagnostic]:
    n_sites = ctx.program.num_sites
    table_sites = set(ctx.slices.sites)
    for site in sorted(table_sites):
        if not 0 <= site < n_sites:
            yield _diag(
                "ACR003",
                f"SliceTable covers site {site}, but the program has "
                f"{n_sites} store site(s) — StoreSite index out of range",
                site,
            )
    for loc in ctx.program.store_sites:
        store = ctx.program.site_store(loc.site)
        where = ctx.describe_site(loc.site)
        if store.assoc and loc.site not in table_sites:
            yield _diag(
                "ACR003",
                "store carries ASSOC_ADDR but the SliceTable has no slice "
                "for it — recovery would find nothing to recompute",
                loc.site,
                where,
            )
        elif not store.assoc and loc.site in table_sites:
            yield _diag(
                "ACR003",
                "SliceTable covers this site but the store lacks the "
                "ASSOC_ADDR flag — no operand snapshot is ever captured",
                loc.site,
                where,
            )


@_register(
    "ACR004",
    "operand-budget-exceeded",
    Severity.ERROR,
    "a slice's operand snapshot must fit the operand buffer word budget",
)
def _check_operand_budget(ctx: VerifyContext) -> Iterator[Diagnostic]:
    capacity = ctx.operand_capacity
    if capacity is None:
        return
    for sl in ctx.slices:
        words = len(sl.frontier)
        if words > capacity:
            yield _diag(
                "ACR004",
                f"slice needs {words} operand word(s) but the operand "
                f"buffer holds {capacity} — every ASSOC_ADDR would be "
                f"rejected, making the embedding dead weight",
                sl.site,
                ctx.describe_site(sl.site),
            )


@_register(
    "ACR005",
    "threshold-violation",
    Severity.ERROR,
    "every embedded slice must be accepted by the active selection policy",
)
def _check_policy(ctx: VerifyContext) -> Iterator[Diagnostic]:
    policy = ctx.policy
    if policy is None:
        return
    for sl in ctx.slices:
        if not policy.accept(sl):
            yield _diag(
                "ACR005",
                f"slice of length {sl.length} with {len(sl.frontier)} "
                f"operand(s) is rejected by the active "
                f"{type(policy).__name__} yet was embedded",
                sl.site,
                ctx.describe_site(sl.site),
            )


@_register(
    "ACR006",
    "result-reg-undefined",
    Severity.ERROR,
    "the result register must be defined by the slice or a frontier slot",
)
def _check_result_defined(ctx: VerifyContext) -> Iterator[Diagnostic]:
    for sl in ctx.slices:
        defined = set(sl.frontier)
        for ins in sl.instructions:
            dst = getattr(ins, "dst", None)
            if dst is not None:
                defined.add(dst)
        if sl.result_reg not in defined:
            yield _diag(
                "ACR006",
                f"result register {sl.result_reg} is never defined — "
                f"Slice.execute would only fail at recovery time",
                sl.site,
                ctx.describe_site(sl.site),
            )


@_register(
    "ACR007",
    "frontier-aliasing-hazard",
    Severity.ERROR,
    "operand snapshots at store time must carry the loads the slice bound",
)
def _check_frontier_aliasing(ctx: VerifyContext) -> Iterator[Diagnostic]:
    for sl in ctx.slices:
        loc = ctx.site_location(sl.site)
        if loc is None:
            continue  # out-of-range site: ACR003's finding
        k_idx, s_idx = loc
        # Kernels build their body on each access; take it once.
        body = ctx.program.kernels[k_idx].body
        store = body[s_idx]
        if not isinstance(store, StoreInstr):
            continue
        df = ctx.dataflow(k_idx)
        closure, _ = df.closure_of(s_idx)
        where = ctx.describe_site(sl.site)
        needed = slice_required_inputs(sl) & set(sl.frontier)
        for reg in sorted(needed):
            closure_loads = [
                i
                for i in closure
                if df.def_reg(i) == reg
                and isinstance(body[i], LoadInstr)
            ]
            if len(closure_loads) > 1:
                yield _diag(
                    "ACR007",
                    f"frontier register {reg} is produced by "
                    f"{len(closure_loads)} distinct loads in the backward "
                    f"closure — one snapshot slot cannot carry both values",
                    sl.site,
                    where,
                )
                continue
            reach = df.reaching_def(s_idx, reg)
            if reach is None:
                yield _diag(
                    "ACR007",
                    f"frontier register {reg} has no definition before the "
                    f"store — the snapshot would capture a stale live-in",
                    sl.site,
                    where,
                )
            elif reach not in closure or not isinstance(
                body[reach], LoadInstr
            ):
                yield _diag(
                    "ACR007",
                    f"frontier register {reg} is overwritten by instr "
                    f"{reach} between its slice-bound load and the store — "
                    f"the ASSOC_ADDR snapshot captures the wrong value",
                    sl.site,
                    where,
                )


# ---------------------------------------------------------------------------
# Vector-safety rules (advisory: they explain fallbacks, never reject)
# ---------------------------------------------------------------------------


def _kernel_where(ctx: VerifyContext, k_idx: int, span: Tuple[int, int]) -> str:
    """Human location string for a body-instruction span."""
    name = ctx.program.kernels[k_idx].name
    lo, hi = span
    instrs = f"instr {lo}" if lo == hi else f"instrs {lo}..{hi}"
    return f"kernel {name!r} {instrs}"


@_register(
    "ACR009",
    "vector-unsafe-overlap",
    Severity.WARNING,
    "a kernel whose loads alias its own stores cannot replay batched",
)
def _check_vector_overlap(ctx: VerifyContext) -> Iterator[Diagnostic]:
    from repro.verify.absint.certify import summarize_program

    for k_idx, ks in enumerate(summarize_program(ctx.program).kernels):
        if ks.overlap:
            witness = min(ks.load_addrs & ks.store_addrs)
            assert ks.overlap_span is not None
            yield _diag(
                "ACR009",
                f"loads and stores of kernel {ks.name!r} share word "
                f"0x{witness:x}; the vector engine must interpret this "
                f"segment classically",
                location=_kernel_where(ctx, k_idx, ks.overlap_span),
            )


@_register(
    "ACR010",
    "cross-core-aliasing-race",
    Severity.WARNING,
    "a kernel loading words another core stores cannot replay batched",
)
def _check_cross_core_aliasing(ctx: VerifyContext) -> Iterator[Diagnostic]:
    from repro.verify.absint.certify import summarize_program

    if not ctx.peers:
        return
    peer_stores = frozenset().union(
        *(summarize_program(p).store_union for p in ctx.peers)
    )
    if not peer_stores:
        return
    for k_idx, ks in enumerate(summarize_program(ctx.program).kernels):
        common = ks.load_addrs & peer_stores
        if common:
            offending = [
                pos
                for pos, r in ks.loads
                if not r.addresses.isdisjoint(peer_stores)
            ]
            yield _diag(
                "ACR010",
                f"kernel {ks.name!r} loads word 0x{min(common):x} which "
                f"another core's program stores to — replay order is not "
                f"provable across cores",
                location=_kernel_where(
                    ctx, k_idx, (min(offending), max(offending))
                ),
            )


@_register(
    "ACR011",
    "unstable-observed-register",
    Severity.INFO,
    "register files observed at store time must match plan rows",
)
def _check_unstable_registers(ctx: VerifyContext) -> Iterator[Diagnostic]:
    from repro.verify.absint.certify import summarize_program

    for k_idx, ks in enumerate(summarize_program(ctx.program).kernels):
        if ks.stores and not ks.regs_stable:
            assert ks.unstable_span is not None
            yield _diag(
                "ACR011",
                f"kernel {ks.name!r} redefines a register after its first "
                f"store; observers would see a file that differs from the "
                f"plan's end-of-iteration row",
                location=_kernel_where(ctx, k_idx, ks.unstable_span),
            )


@_register(
    "ACR012",
    "external-load-intersection",
    Severity.INFO,
    "a kernel loading words an earlier kernel stored cannot replay batched",
)
def _check_external_load_intersection(
    ctx: VerifyContext,
) -> Iterator[Diagnostic]:
    from repro.verify.absint.certify import summarize_program

    summary = summarize_program(ctx.program)
    for k_idx, ks in enumerate(summary.kernels):
        earlier = summary.prefix_stores[k_idx]
        common = ks.load_addrs & earlier
        if common:
            offending = [
                pos
                for pos, r in ks.loads
                if not r.addresses.isdisjoint(earlier)
            ]
            yield _diag(
                "ACR012",
                f"kernel {ks.name!r} loads word 0x{min(common):x} stored "
                f"by an earlier kernel of the same program; plan values "
                f"precomputed from the initial image would be stale",
                location=_kernel_where(
                    ctx, k_idx, (min(offending), max(offending))
                ),
            )


def run_static_rules(
    ctx: VerifyContext, rule_ids: Sequence[str]
) -> List[Diagnostic]:
    """Run the selected static rules over ``ctx``; returns their findings."""
    findings: List[Diagnostic] = []
    for rule_id in rule_ids:
        findings.extend(RULES[rule_id].check(ctx))
    return findings

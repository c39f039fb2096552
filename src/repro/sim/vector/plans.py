"""Trace plans: precomputed per-kernel access streams for the vector engine.

A :class:`KernelPlan` captures everything about one kernel's execution
that does not depend on run state: the flat (iteration-major) address and
line streams of its memory accesses, the values its stores write, the
register file at every iteration boundary, and the *external* load
addresses whose values the plan assumed untouched.  Store values are a
pure function of the kernel body and the memory image's deterministic
initialiser **as long as** every external load address is still unwritten
when the kernel runs — the engine re-checks exactly that before using a
plan and falls back to the interpreter otherwise, which makes plans safe
to cache on the :class:`~repro.isa.program.Program` and share across
runs, configurations and engines.

Address streams and large-trip straight-line bodies are evaluated as
batched numpy operations (``uint64`` arithmetic wraps mod 2**64, matching
the ISA's masked semantics) from the shape key and ``params``; small or
irregular bodies go through their shape's *generated evaluator*: each
:class:`~repro.isa.program.KernelShape` holds (built once per shape) an
``exec``-compiled function of the kernel's ``params``, spelled in the
interpreter steppers' vocabulary (:mod:`repro.isa.opcodes`), and the
counts, width, store flags and register stability every plan of the
shape shares.  The generated code handles every case the interpreter
does (in-kernel aliasing through a store-forwarding overlay,
loop-carried accumulators, partially-defined registers).
"""

from __future__ import annotations

from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Tuple,
    cast,
)
from weakref import WeakKeyDictionary

from repro.obs.telemetry.profile import phase as _phase

try:  # numpy accelerates large-trip plan evaluation; plans work without it
    import numpy as np
except ImportError:  # pragma: no cover - numpy-less installs
    np = None  # type: ignore[assignment]

from repro.isa.opcodes import ALU_EXPR, INIT_MIX, MASK64, Opcode
from repro.isa.opcodes import address_expr, exec_generated, initial_value_lines
from repro.isa.program import Kernel, KernelShape, Program

__all__ = ["KernelPlan", "ProgramPlans", "plans_for"]

if np is not None:
    _U64 = np.uint64
    _MIX_U64 = _U64(INIT_MIX)
    _SHIFT29 = _U64(29)
    _SIX_THREE = _U64(63)

#: Below this trip count the per-array numpy dispatch overhead outweighs
#: the vector win and the scalar evaluator is used instead.
NUMPY_MIN_TRIP = 24


def _np_alu(op: Opcode, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Vectorized equivalent of :func:`repro.isa.opcodes.apply_alu`."""
    if op is Opcode.ADD:
        return a + b
    if op is Opcode.SUB:
        return a - b
    if op is Opcode.MUL:
        return a * b
    if op is Opcode.AND:
        return a & b
    if op is Opcode.OR:
        return a | b
    if op is Opcode.XOR:
        return a ^ b
    if op is Opcode.SHL:
        return a << (b & _SIX_THREE)
    if op is Opcode.SHR:
        return a >> (b & _SIX_THREE)
    raise ValueError(f"not a binary ALU opcode: {op}")  # pragma: no cover


def _initial_values(addrs: np.ndarray, seed: int) -> np.ndarray:
    """Vectorized :meth:`MemoryImage.initial_value` over a uint64 array."""
    x = addrs * _MIX_U64 + _U64(seed & MASK64)
    x = x ^ (x >> _SHIFT29)
    return x * _MIX_U64


class KernelPlan:
    """One kernel's precomputed trace segments.

    ``addrs``/``lines`` hold all memory accesses iteration-major (body
    order within an iteration); ``svalues`` holds the store stream's new
    values, aligned with the store accesses of ``store_flags``.  Every
    stream, and every register row, is a tuple of ints: plans live as
    long as their program, and CPython's collector untracks such tuples
    instead of rescanning them on every collection.
    """

    __slots__ = (
        "kernel",
        "accesses_per_iter",
        "stores_per_iter",
        "alu_per_iter",
        "loads_per_iter",
        "trip",
        "width",
        "addrs",
        "lines",
        "svalues",
        "external_loads",
        "store_flags",
        "store_sites",
        "overlap",
        "regs_stable",
        "_rows",
        "_cols",
        "_acc_rows",
    )

    def __init__(self, kernel: Kernel) -> None:
        self.kernel = kernel
        shape = kernel.shape
        self.accesses_per_iter = len(shape.store_flags)
        self.stores_per_iter = shape.store_count
        self.alu_per_iter = shape.alu_count
        self.loads_per_iter = shape.load_count
        self.width = shape.width
        #: Per body access: is it a store?
        self.store_flags = shape.store_flags
        #: A handler observing a store's register file via the
        #: end-of-iteration rows needs no register definition after the
        #: first store of the body.
        self.regs_stable = shape.regs_stable
        self.trip = kernel.trip_count
        #: Per body *store* (in order): its site id.
        base = kernel.site_base
        self.store_sites: Tuple[int, ...] = (
            tuple(range(base, base + self.stores_per_iter))
            if base >= 0
            else (-1,) * self.stores_per_iter
        )
        self.addrs: Tuple[int, ...] = ()
        self.lines: Tuple[int, ...] = ()
        self.svalues: Tuple[int, ...] = ()
        self.external_loads: FrozenSet[int] = frozenset()
        #: The kernel both loads and stores some address.  Plan values are
        #: still exact against untouched memory, but a mid-kernel memory
        #: mutation (fault injection between segments) could be masked by
        #: the baked forwarding — such kernels always run interpreted.
        self.overlap = False
        self._rows: Optional[Tuple[Tuple[int, ...], ...]] = None
        #: numpy-evaluated plans: register -> 1-d column or 0-d constant.
        self._cols: Optional[Dict[int, Any]] = None
        self._acc_rows: Optional[Tuple[tuple, ...]] = None

    # -- register rows --------------------------------------------------------
    def rows(self) -> Tuple[Tuple[int, ...], ...]:
        """Register file at the end of each iteration (one tuple per row).

        ``rows()[i]`` is also the register file at the *start* of
        iteration ``i + 1`` — the state a mid-kernel fallback resumes
        from.  For numpy-evaluated kernels the rows are materialised
        lazily from the register columns on first use.
        """
        if self._rows is None:
            cols = self._cols
            assert cols is not None
            trip = self.trip
            columns: List[Sequence[int]] = [(0,) * trip] * (self.width + 1)
            for reg, col in cols.items():
                if getattr(col, "ndim", 0):  # numpy column (1-d array)
                    columns[reg] = col.tolist()
                else:  # constant column (0-d numpy scalar)
                    columns[reg] = (int(col),) * trip
            self._rows = tuple(zip(*columns))
            self._cols = None
        return self._rows

    def access_rows(self) -> Tuple[tuple, ...]:
        """Per iteration: the access stream as ``(addr, line, is_store,
        value)`` 4-tuples (``value`` is ``None`` for loads).

        This is the replay engine's working form — one tuple unpack per
        access replaces three indexed fetches plus two stream cursors in
        the hot loop.  Materialised lazily once per plan and shared by
        every run that replays it.
        """
        cached = self._acc_rows
        if cached is None:
            addrs = self.addrs
            lines = self.lines
            svalues = self.svalues
            flags = self.store_flags
            out = []
            idx = 0
            s = 0
            for _ in range(self.trip):
                row = []
                for is_store in flags:
                    if is_store:
                        row.append((addrs[idx], lines[idx], True, svalues[s]))
                        s += 1
                    else:
                        row.append((addrs[idx], lines[idx], False, None))
                    idx += 1
                out.append(tuple(row))
            cached = self._acc_rows = tuple(out)
        return cached


def _generate_evaluator(shape: KernelShape) -> Callable[..., tuple]:
    """``exec``-compile the specialised evaluator of one shape.

    The function signature is ``f(trip, P, seed) -> (addrs, svalues,
    rows, external, load_set, overlay)`` with ``None`` for streams the
    shape cannot produce; rows are tuples (consumers only read/copy
    them).  ``P`` is a kernel's ``params``.
    """
    width = shape.width
    body_keys = shape.key
    has_load = shape.load_count > 0
    has_store = shape.store_count > 0
    forward = has_load and has_store
    nparams = shape.n_params

    lines: List[str] = ["def _eval(trip, P, seed):"]
    w = lines.append
    if nparams:
        w(f"    ({', '.join(f'p{i}' for i in range(nparams))},) = P")
    for part, p in zip(body_keys, shape.param_offsets):
        if part[0] == 0:
            w(f"    p{p} &= {MASK64:#x}")
    w("    A = []; Aa = A.append")
    if has_store:
        w("    S = []; Sa = S.append")
    w("    R = []; Ra = R.append")
    if has_load:
        w("    E = set(); Ea = E.add")
    if forward:
        w("    ov = {}; og = ov.get")
        w("    LA = set(); La = LA.add")
    w("    " + " = ".join(f"r{r}" for r in range(width + 1)) + " = 0")
    w("    for i in range(trip):")
    p = 0
    for part in body_keys:
        tag = part[0]
        if tag == 0:  # MOVI (immediate masked above)
            w(f"        r{part[1]} = p{p}")
            p += 1
        elif tag == 1:  # ALU
            _, op, dst, a, b = part
            w(f"        r{dst} = " + ALU_EXPR[op].format(a=a, b=b))
        elif tag == 2:  # LOAD: params are (base, stride, length, offset)
            dst = part[1]
            w(f"        a = {address_expr(p)}")
            p += 4
            w("        Aa(a)")
            if forward:
                w("        La(a)")
                w("        v = og(a)")
                w("        if v is None:")
                w("            Ea(a)")
                lines.extend("            " + x for x in initial_value_lines("v"))
                w(f"        r{dst} = v")
            else:  # no stores in the body: every load reads the initialiser
                w("        Ea(a)")
                lines.extend("        " + x for x in initial_value_lines(f"r{dst}"))
        else:  # STORE
            src = part[1]
            w(f"        a = {address_expr(p)}")
            p += 4
            w("        Aa(a)")
            w(f"        Sa(r{src})")
            if forward:
                w(f"        ov[a] = r{src}")
    row = ", ".join(f"r{r}" for r in range(width + 1))
    if width == 0:
        row += ","
    w(f"        Ra(({row}))")
    w(
        "    return A, {}, R, {}, {}, {}".format(
            "S" if has_store else "None",
            "E" if has_load else "None",
            "LA" if forward else "None",
            "ov" if forward else "None",
        )
    )
    namespace: Dict[str, object] = {}
    exec_generated("plan-evaluator", "\n".join(lines), namespace)
    return cast(Callable[..., tuple], namespace["_eval"])


def _run_codegen(
    plan: KernelPlan,
    evaluator: Callable[..., tuple],
    params: tuple,
    trip: int,
    seed: int,
    line_bytes: int,
) -> None:
    """Evaluate the kernel through its shape's generated function."""
    addrs, svalues, rows, external, load_set, overlay = evaluator(
        trip, params, seed & MASK64
    )
    plan.addrs = tuple(addrs)
    plan.lines = tuple([a // line_bytes for a in addrs])
    if svalues is not None:
        plan.svalues = tuple(svalues)
    if external:
        plan.external_loads = frozenset(external)
    plan.overlap = bool(load_set) and not load_set.isdisjoint(overlay)
    plan._rows = tuple(rows)


def _build_plan(
    kernel: Kernel, seed: int, line_bytes: int, vectorize: bool = False
) -> KernelPlan:
    """Evaluate one kernel into a :class:`KernelPlan`.

    With ``vectorize``, large trips go through the batched numpy
    evaluator; the rest (and, for tests that pin each path, every plan
    built without it) through the shape's generated evaluator.
    """
    plan = KernelPlan(kernel)
    trip = kernel.trip_count
    if vectorize and np is not None and trip >= NUMPY_MIN_TRIP:
        if _try_build_numpy(plan, kernel, trip, seed, line_bytes):
            return plan
    evaluator = kernel.shape.prepared("evaluator", _generate_evaluator)
    _run_codegen(plan, evaluator, kernel.params, trip, seed, line_bytes)
    return plan


def _address_column(params: Tuple[int, ...], p: int, trip: int) -> np.ndarray:
    """The address stream of the load/store whose ``(base, stride,
    length, offset)`` start at ``params[p]``."""
    base, stride, length, offset = params[p:p + 4]
    idx = (offset + stride * np.arange(trip, dtype=np.int64)) % length
    return base + idx * 8


def _try_build_numpy(
    plan: KernelPlan, kernel: Kernel, trip: int, seed: int, line_bytes: int
) -> bool:
    """Batched evaluation for large straight-line bodies.

    Returns False (leaving the plan untouched) when the body needs the
    scalar evaluator: in-kernel load/store aliasing (store-to-load
    forwarding), or loop-carried register reads other than the canonical
    self-accumulation (``acc += value`` into an otherwise-undefined
    register, which vectorizes as a prefix sum).
    """
    shape = kernel.shape
    params = kernel.params
    body = tuple(zip(shape.key, shape.param_offsets))
    # Pass 1: addresses, and the alias pre-check.
    addr_cols: List[np.ndarray] = []
    load_addr_arrays: List[np.ndarray] = []
    store_addr_arrays: List[np.ndarray] = []
    for part, p in body:
        tag = part[0]
        if tag == 2 or tag == 3:
            col = _address_column(params, p, trip)
            addr_cols.append(col)
            (load_addr_arrays if tag == 2 else store_addr_arrays).append(col)
    if store_addr_arrays and load_addr_arrays:
        store_u = np.unique(np.concatenate(store_addr_arrays))
        load_u = np.unique(np.concatenate(load_addr_arrays))
        if np.intersect1d(store_u, load_u, assume_unique=True).size:
            return False

    defined_anywhere = set()
    for part in shape.key:
        tag = part[0]
        if tag == 0 or tag == 2:
            defined_anywhere.add(part[1])
        elif tag == 1:
            defined_anywhere.add(part[2])

    # Pass 2: register columns.
    cols: Dict[int, object] = {}
    defined: set = set()
    svalue_cols: List[np.ndarray] = []
    acc_idx = 0

    def col_of(reg: int) -> Optional[object]:
        if reg in defined:
            return cols[reg]
        if reg in defined_anywhere:
            return None  # loop-carried: previous-iteration value
        return _U64(0)  # never defined: architectural zero

    for part, p in body:
        tag = part[0]
        if tag == 0:  # MOVI
            cols[part[1]] = _U64(params[p] & MASK64)
            defined.add(part[1])
        elif tag == 2:  # LOAD (alias-free: values are the initialiser's)
            cols[part[1]] = _initial_values(
                addr_cols[acc_idx].astype(np.uint64), seed
            )
            defined.add(part[1])
            acc_idx += 1
        elif tag == 3:  # STORE
            src = col_of(part[1])
            if src is None:
                return False
            if not isinstance(src, np.ndarray):
                src = np.full(trip, src, dtype=np.uint64)
            svalue_cols.append(src)
            acc_idx += 1
        else:  # ALU
            _, opcode, dst, a, b = part
            ca = col_of(a)
            cb = col_of(b)
            if ca is None:
                # The canonical accumulator: dst += src_b with dst
                # loop-carried and starting at zero -> prefix sum.
                if opcode is Opcode.ADD and a == dst and cb is not None:
                    operand = (
                        cb
                        if isinstance(cb, np.ndarray)
                        else np.full(trip, cb, dtype=np.uint64)
                    )
                    cols[dst] = np.cumsum(operand, dtype=np.uint64)
                    defined.add(dst)
                    continue
                return False
            if cb is None:
                return False
            if not isinstance(ca, np.ndarray) and not isinstance(cb, np.ndarray):
                cols[dst] = _np_alu(
                    opcode, np.asarray(ca, dtype=np.uint64), np.asarray(cb, np.uint64)
                )[()]
            else:
                cols[dst] = _np_alu(opcode, ca, cb)
            defined.add(dst)

    api = plan.accesses_per_iter
    flat = np.empty((trip, api), dtype=np.int64)
    for j, col in enumerate(addr_cols):
        flat[:, j] = col
    addrs = flat.ravel()
    plan.addrs = tuple(addrs.tolist())
    plan.lines = tuple((addrs // line_bytes).tolist())
    if svalue_cols:
        sflat = np.empty((trip, len(svalue_cols)), dtype=np.uint64)
        for j, col in enumerate(svalue_cols):
            sflat[:, j] = col
        plan.svalues = tuple(sflat.ravel().tolist())
    if load_addr_arrays:
        plan.external_loads = frozenset(
            np.unique(np.concatenate(load_addr_arrays)).tolist()
        )
    plan._cols = cols
    return True


class ProgramPlans:
    """Lazy per-kernel plans of one program (one memory seed)."""

    def __init__(self, program: Program, seed: int, line_bytes: int) -> None:
        self.program = program
        self.seed = seed
        self.line_bytes = line_bytes
        self._plans: Dict[int, KernelPlan] = {}

    def plan(self, kernel_index: int) -> KernelPlan:
        """The plan for one kernel (built on first use, then cached)."""
        plan = self._plans.get(kernel_index)
        if plan is None:
            with _phase("plan-build"):
                plan = _build_plan(
                    self.program.kernels[kernel_index],
                    self.seed,
                    self.line_bytes,
                    vectorize=True,
                )
            self._plans[kernel_index] = plan
        return plan


#: Program -> {(seed, line_bytes) -> ProgramPlans}.  Weak keys: plans die
#: with the program; strong values are fine (plans only reference their
#: own program's kernels).
_PLAN_CACHE: "WeakKeyDictionary[Program, Dict[Tuple[int, int], ProgramPlans]]" = (
    WeakKeyDictionary()
)


def plans_for(program: Program, seed: int, line_bytes: int) -> ProgramPlans:
    """The (shared, cached) plans of ``program`` for one memory seed."""
    per_program = _PLAN_CACHE.get(program)
    if per_program is None:
        per_program = {}
        _PLAN_CACHE[program] = per_program
    key = (seed, line_bytes)
    plans = per_program.get(key)
    if plans is None:
        plans = ProgramPlans(program, seed, line_bytes)
        per_program[key] = plans
    return plans

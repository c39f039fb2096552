"""Run statistics and derived metrics.

A :class:`RunResult` captures everything the experiment harness needs:
wall/useful time, the energy ledger, per-interval checkpoint statistics,
per-recovery cost breakdowns, and the compile-pass summary.  The derived
metrics (:func:`time_overhead`, :func:`energy_overhead`,
:meth:`RunResult.overhead_edp`) are the quantities the paper's figures
plot.

Per-interval and per-recovery statistics are held as a :class:`StatsTable`
(one tuple per field); the figures read its columns, and
:class:`IntervalStats`/:class:`RecoveryStats` rows are built only when a
caller iterates or indexes the table.
"""

from __future__ import annotations

import functools
import operator
import typing
from dataclasses import dataclass
from typing import (
    Any, Dict, FrozenSet, Generic, Iterable, Iterator, List, Optional, Tuple,
    Type, TypeVar, Union,
)

from repro.compiler.embed import CompileStats
from repro.energy.accounting import EnergyLedger
from repro.obs.metrics import ObsReport
from repro.util.tables import format_table
from repro.util.validation import field_names, require_fields

__all__ = [
    "BaselineProfile",
    "IntervalStats",
    "RecoveryStats",
    "RunResult",
    "StatsTable",
    "time_overhead",
    "energy_overhead",
]

#: :class:`RunResult` fields :meth:`RunResult.to_dict` leaves out.
_UNSERIALISED = ("checkpoint_store", "vector_coverage")


#: The Python types a JSON value may decode to, per declared scalar type.
#: ``bool`` is not an ``int`` here, and an ``int`` may stand for a ``float``
#: (integral values the simulator produced as ints stay ints).
_ACCEPTS: Dict[type, FrozenSet[type]] = {
    int: frozenset({int}),
    float: frozenset({int, float}),
    bool: frozenset({bool}),
    str: frozenset({str}),
}


def _dataclass_to_dict(obj: Any) -> Dict[str, Any]:
    """Flat field mapping of a (non-nested) stats dataclass."""
    return {name: getattr(obj, name) for name in field_names(type(obj))}


@functools.lru_cache(maxsize=None)
def _typed_fields(cls: type) -> Tuple[Tuple[str, bool, FrozenSet[type]], ...]:
    """``(name, is_list, accepted types)`` for each of ``cls``'s fields
    declared as a scalar or a ``List`` of scalars, derived once per class
    from its annotations.  Other fields are decoded by their own class."""
    table = []
    for name, hint in typing.get_type_hints(cls).items():
        is_list = typing.get_origin(hint) is list
        if is_list:
            (hint,) = typing.get_args(hint)
        accepts = _ACCEPTS.get(hint)
        if accepts is not None:
            table.append((name, is_list, accepts))
    return tuple(table)


def _typed_values(cls: type, doc: Dict[str, Any]) -> Dict[str, Any]:
    """``doc``'s typed fields (see :func:`_typed_fields`) in a fresh
    mapping, each checked against its declared type as it is copied;
    ``ValueError`` on the first wrong-typed one."""
    values = {}
    for name, is_list, accepts in _typed_fields(cls):
        value = doc[name]
        if is_list:
            ok = type(value) is list and accepts.issuperset(map(type, value))
        else:
            ok = type(value) in accepts
        if not ok:
            raise ValueError(f"{cls.__name__}.{name}: wrong-typed value")
        values[name] = value
    return values


def _record(cls: type, doc: Any) -> Any:
    """One flat dataclass record (every field a typed scalar) from its
    exact, type-checked fields."""
    return cls(**_typed_values(cls, require_fields(doc, cls, cls.__name__)))


def _reduction(logged_bytes: int, omitted_bytes: int) -> float:
    """Fractional checkpoint-data reduction of one interval."""
    baseline_bytes = logged_bytes + omitted_bytes
    if baseline_bytes == 0:
        return 0.0
    return omitted_bytes / baseline_bytes


def _recovery_ns(waste_ns: float, rollback_ns: float,
                 recompute_ns: float) -> float:
    """Full cost of one recovery (Eq. 2 / Eq. 3 per-event term)."""
    return waste_ns + rollback_ns + recompute_ns


R = TypeVar("R")


@dataclass(frozen=True)
class StatsTable(Generic[R]):
    """Immutable columnar table of ``row_type`` records: one tuple per
    field of the flat stats dataclass ``row_type``, in declaration order.

    Aggregates read :meth:`column`.  Iterating or indexing builds
    ``row_type`` rows on demand and keeps none of them; a slice is a
    table.  Two tables are equal when their row types and columns are.
    """

    row_type: Type[R]
    columns: Tuple[tuple, ...]

    @classmethod
    def from_rows(cls, row_type: Type[R], rows: Iterable[R]) -> "StatsTable[R]":
        """The table holding ``rows``, in order."""
        names = field_names(row_type)
        return cls.from_tuples(row_type,
                               map(operator.attrgetter(*names), rows))

    @classmethod
    def from_tuples(cls, row_type: Type[R],
                    rows: Iterable[tuple]) -> "StatsTable[R]":
        """The table holding ``rows``, each a plain tuple of
        ``row_type``'s field values in declaration order."""
        columns = tuple(zip(*rows))
        return cls(row_type, columns or ((),) * len(field_names(row_type)))

    @classmethod
    def from_columns(cls, row_type: Type[R], doc: Any) -> "StatsTable[R]":
        """Strict inverse of :meth:`to_columns`: exactly ``row_type``'s
        fields, each a list of its declared type, all of one length.
        One pass per column checks its values' types and copies it into
        the table; no row is built.  Every field of a row type is a
        typed scalar, so :func:`_typed_fields` lists them all, in order."""
        require_fields(doc, row_type, row_type.__name__)
        columns = []
        for name, _, accepts in _typed_fields(row_type):
            value = doc[name]
            if (type(value) is not list
                    or not accepts.issuperset(map(type, value))):
                raise ValueError(
                    f"{row_type.__name__}.{name}: wrong-typed value")
            columns.append(tuple(value))
        if len(set(map(len, columns))) > 1:
            raise ValueError(f"{row_type.__name__}: ragged columns")
        return cls(row_type, tuple(columns))

    def to_columns(self) -> Dict[str, List[Any]]:
        """One JSON list per field."""
        return dict(zip(field_names(self.row_type), map(list, self.columns)))

    def to_rows(self) -> List[Dict[str, Any]]:
        """One field mapping per row (each row's ``to_dict``)."""
        names = field_names(self.row_type)
        return [dict(zip(names, row)) for row in zip(*self.columns)]

    def column(self, name: str) -> tuple:
        """Every row's value of field ``name``, in row order."""
        return self.columns[field_names(self.row_type).index(name)]

    def __len__(self) -> int:
        return len(self.columns[0])

    def __iter__(self) -> Iterator[R]:
        return map(self.row_type, *self.columns)

    def __getitem__(self, index: Union[int, slice]) -> Any:
        if isinstance(index, slice):
            return StatsTable(self.row_type,
                              tuple(col[index] for col in self.columns))
        return self.row_type(*(col[index] for col in self.columns))


@dataclass(frozen=True)
class BaselineProfile:
    """Per-core useful execution profile of an error-free, checkpoint-free
    run; checkpoint boundaries and error times are placed against it."""

    per_core_useful_ns: List[float]

    @property
    def useful_ns(self) -> float:
        """Critical-path useful time (slowest core)."""
        return max(self.per_core_useful_ns)


@dataclass(frozen=True, slots=True)
class IntervalStats:
    """One checkpoint interval's statistics."""

    index: int
    useful_ns: float
    logged_records: int
    omitted_records: int
    logged_bytes: int
    omitted_bytes: int
    flushed_bytes: int
    boundary_ns: float
    clusters: int
    #: Total bytes of memory ever written by this point of the run — the
    #: size a traditional full-snapshot checkpoint would have to copy.
    footprint_bytes: int = 0

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe field mapping."""
        return _dataclass_to_dict(self)

    @property
    def baseline_bytes(self) -> int:
        """What the baseline would have logged for this interval."""
        return self.logged_bytes + self.omitted_bytes

    @property
    def reduction(self) -> float:
        """Fractional checkpoint-data reduction ACR achieved here."""
        return _reduction(self.logged_bytes, self.omitted_bytes)


@dataclass(frozen=True, slots=True)
class RecoveryStats:
    """One recovery's statistics."""

    error_index: int
    occurred_useful_ns: float
    detected_useful_ns: float
    safe_checkpoint: int
    skipped_corrupted: bool
    participants: int
    waste_ns: float
    rollback_ns: float
    recompute_ns: float
    restored_records: int
    recomputed_values: int
    recompute_instructions: int

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe field mapping."""
        return _dataclass_to_dict(self)

    @property
    def total_ns(self) -> float:
        """Full cost of this recovery (Eq. 2 / Eq. 3 per-event term)."""
        return _recovery_ns(self.waste_ns, self.rollback_ns,
                            self.recompute_ns)


@dataclass
class RunResult:
    """Everything one simulation run produced."""

    label: str
    scheme: str
    acr: bool
    num_cores: int
    wall_ns: float
    per_core_useful_ns: List[float]
    per_core_overhead_ns: List[float]
    energy: EnergyLedger
    intervals: StatsTable[IntervalStats]
    recoveries: StatsTable[RecoveryStats]
    instructions: int
    alu_ops: int
    loads: int
    stores: int
    assoc_ops: int
    l1d_accesses: int
    l2_accesses: int
    memory_accesses: int
    writebacks: int
    compile_stats: Optional[CompileStats]
    addrmap_records: int
    addrmap_rejections: int
    omissions: int
    omission_lookups: int
    #: The run's checkpoint store (logs pruned to the retention horizon).
    #: Kept for post-run verification: tests recompute every retained
    #: omitted value and compare against ground truth.
    checkpoint_store: object = None
    #: Observability payload — present only when the run collected
    #: metrics (``collect_metrics=True`` or an enabled tracer attached).
    #: Default/untraced runs carry ``None`` and serialise it as such.
    obs: Optional[ObsReport] = None
    #: Vector-engine coverage counters (``replayed_iterations``,
    #: ``fallback_iterations``, ``fallback.<rule>`` per denial reason).
    #: Populated only on runs the vector engine executed inline;
    #: excluded from serialisation like ``checkpoint_store``, so the
    #: engine-equivalence contract stays byte-identical.
    vector_coverage: Optional[Dict[str, int]] = None

    def __post_init__(self) -> None:
        # Rows handed over as a plain sequence become a table.
        if not isinstance(self.intervals, StatsTable):
            self.intervals = StatsTable.from_rows(IntervalStats,
                                                  self.intervals)
        if not isinstance(self.recoveries, StatsTable):
            self.recoveries = StatsTable.from_rows(RecoveryStats,
                                                   self.recoveries)

    # -- core quantities -----------------------------------------------------
    @property
    def useful_ns(self) -> float:
        """Critical-path useful time."""
        return max(self.per_core_useful_ns)

    @property
    def overhead_ns(self) -> float:
        """Critical-path overhead time (wall − useful)."""
        return self.wall_ns - self.useful_ns

    @property
    def energy_pj(self) -> float:
        """Total run energy."""
        return self.energy.total_pj()

    def baseline_profile(self) -> BaselineProfile:
        """Profile for boundary/error placement of dependent runs."""
        return BaselineProfile(list(self.per_core_useful_ns))

    # -- checkpoint statistics -------------------------------------------------
    @property
    def checkpoint_count(self) -> int:
        """Checkpoints established."""
        return len(self.intervals)

    @property
    def total_checkpoint_bytes(self) -> int:
        """Total logged checkpoint data (ACR omissions excluded)."""
        return sum(self.intervals.column("logged_bytes"))

    @property
    def total_baseline_checkpoint_bytes(self) -> int:
        """Checkpoint data a non-ACR baseline would have logged."""
        return sum(map(operator.add, self.intervals.column("logged_bytes"),
                       self.intervals.column("omitted_bytes")))

    @property
    def max_checkpoint_bytes(self) -> int:
        """Largest single checkpoint (paper Fig. 9 'Max' metric)."""
        return max(self.intervals.column("logged_bytes"), default=0)

    @property
    def checkpoint_time_ns(self) -> float:
        """Boundary time plus in-interval log-write stalls (critical path).

        This is the o_chk component attributable to checkpointing; it is
        folded into per-core overhead already — exposed here for reports.
        """
        return sum(self.intervals.column("boundary_ns"))

    def interval_reductions(self) -> List[float]:
        """Each interval's :attr:`IntervalStats.reduction`, in order."""
        return list(map(_reduction, self.intervals.column("logged_bytes"),
                        self.intervals.column("omitted_bytes")))

    # -- recovery statistics ----------------------------------------------------
    @property
    def recovery_count(self) -> int:
        """Recoveries performed."""
        return len(self.recoveries)

    @property
    def recovery_time_ns(self) -> float:
        """Total recovery time (waste + rollback + recomputation)."""
        recoveries = self.recoveries
        return sum(map(_recovery_ns, recoveries.column("waste_ns"),
                       recoveries.column("rollback_ns"),
                       recoveries.column("recompute_ns")))

    # -- serialisation ---------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe mapping of everything the experiment harness consumes,
        one dict per interval and recovery.

        ``checkpoint_store`` — an in-memory object graph kept only for
        post-run verification — is deliberately excluded, as is
        ``vector_coverage`` (engine-private diagnostics that must not
        perturb the cross-engine bit-identity contract); results rebuilt
        by :meth:`from_payload` carry ``None`` for both.
        """
        return self._serialised(self.intervals.to_rows(),
                                self.recoveries.to_rows())

    def to_payload(self) -> Dict[str, Any]:
        """The form the result cache stores:
        :meth:`to_dict` with ``intervals`` and ``recoveries`` stored as
        one list per field (columns) instead of one dict per row."""
        return self._serialised(self.intervals.to_columns(),
                                self.recoveries.to_columns())

    def _serialised(self, intervals: Any, recoveries: Any) -> Dict[str, Any]:
        return {
            "label": self.label,
            "scheme": self.scheme,
            "acr": self.acr,
            "num_cores": self.num_cores,
            "wall_ns": self.wall_ns,
            "per_core_useful_ns": list(self.per_core_useful_ns),
            "per_core_overhead_ns": list(self.per_core_overhead_ns),
            "energy": self.energy.to_dict(),
            "intervals": intervals,
            "recoveries": recoveries,
            "instructions": self.instructions,
            "alu_ops": self.alu_ops,
            "loads": self.loads,
            "stores": self.stores,
            "assoc_ops": self.assoc_ops,
            "l1d_accesses": self.l1d_accesses,
            "l2_accesses": self.l2_accesses,
            "memory_accesses": self.memory_accesses,
            "writebacks": self.writebacks,
            "compile_stats": (
                _dataclass_to_dict(self.compile_stats)
                if self.compile_stats is not None
                else None
            ),
            "addrmap_records": self.addrmap_records,
            "addrmap_rejections": self.addrmap_rejections,
            "omissions": self.omissions,
            "omission_lookups": self.omission_lookups,
            "obs": self.obs.to_dict() if self.obs is not None else None,
        }

    @classmethod
    def from_payload(cls, payload: Any) -> "RunResult":
        """Rebuild a result from :meth:`to_payload` output.

        Strict: the field sets must be exact, every scalar, list and
        column must hold its declared type, and columns must be of equal
        length.  Any violation raises ``ValueError`` rather than
        producing a half-built result, so cache readers can treat it as
        a miss.  Each field is checked as it is copied into the result
        and each column in one pass; nothing is checked per row.
        """
        doc = require_fields(payload, cls, "RunResult", omit=_UNSERIALISED)
        kwargs = _typed_values(cls, doc)
        kwargs["energy"] = EnergyLedger.from_dict(doc["energy"])
        kwargs["intervals"] = StatsTable.from_columns(IntervalStats,
                                                      doc["intervals"])
        kwargs["recoveries"] = StatsTable.from_columns(RecoveryStats,
                                                       doc["recoveries"])
        stats = doc["compile_stats"]
        kwargs["compile_stats"] = (None if stats is None
                                   else _record(CompileStats, stats))
        obs = doc["obs"]
        if obs is not None:
            try:
                kwargs["obs"] = ObsReport.from_dict(obs)
            except (TypeError, KeyError, AttributeError) as exc:
                raise ValueError(f"RunResult: malformed obs payload: {exc}")
        return cls(**kwargs)

    def equivalent(self, other: "RunResult") -> bool:
        """Statistical equality: every serialised field matches.

        This is the determinism contract between the serial and parallel
        engines — it ignores only ``checkpoint_store`` and
        ``vector_coverage`` (never shipped across processes or to disk).
        """
        return self.to_dict() == other.to_dict()

    def describe(self) -> str:
        """Human summary of the run, rendered as an aligned table.

        Always includes the headline quantities; the ``trace events``
        row appears only when the run carried an observability payload.
        """
        scheme = self.scheme + ("+ACR" if self.acr else "")
        rows: List[List[object]] = [
            ["scheme", scheme],
            ["cores", self.num_cores],
            ["wall (us)", self.wall_ns / 1e3],
            ["useful (us)", self.useful_ns / 1e3],
            ["overhead (us)", self.overhead_ns / 1e3],
            ["checkpoints", self.checkpoint_count],
            ["ckpt data (KiB)", self.total_checkpoint_bytes / 1024],
            ["recoveries", self.recovery_count],
            ["energy (uJ)", self.energy_pj / 1e6],
            ["instructions", self.instructions],
        ]
        if self.obs is not None:
            rows.append(
                [
                    "trace events",
                    f"{self.obs.events_captured} captured / "
                    f"{self.obs.events_dropped} dropped",
                ]
            )
        return format_table(
            ["metric", "value"], rows, title=f"run {self.label}"
        )


def time_overhead(run: RunResult, baseline: RunResult) -> float:
    """Fractional execution-time overhead of ``run`` w.r.t. ``baseline``.

    The paper's Figs. 6/11/12 plot exactly this quantity (w.r.t. NoCkpt).
    """
    if baseline.wall_ns <= 0:
        raise ValueError("baseline wall time must be positive")
    return run.wall_ns / baseline.wall_ns - 1.0


def energy_overhead(run: RunResult, baseline: RunResult) -> float:
    """Fractional energy overhead of ``run`` w.r.t. ``baseline`` (Fig. 7)."""
    base = baseline.energy_pj
    if base <= 0:
        raise ValueError("baseline energy must be positive")
    return run.energy_pj / base - 1.0

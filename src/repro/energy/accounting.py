"""Per-component energy accounting.

A run accumulates picojoules into named buckets (``core.alu``,
``mem.dram``, ``ckpt.log``, …).  Keeping the breakdown rather than a single
scalar lets the reports show *where* ACR saves energy — the checkpoint-log
DRAM traffic — and supports assertions in tests (e.g. ACR never increases
the ``ckpt.log`` bucket).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.util.tables import format_table
from repro.util.validation import check_non_negative

__all__ = ["EnergyLedger"]


class EnergyLedger:
    """Named energy buckets, in picojoules."""

    def __init__(self) -> None:
        self._buckets: Dict[str, float] = {}

    def add(self, bucket: str, pj: float) -> None:
        """Accumulate ``pj`` picojoules into ``bucket``."""
        if pj < 0:
            check_non_negative("pj", pj)
        buckets = self._buckets
        buckets[bucket] = buckets.get(bucket, 0.0) + pj

    def get(self, bucket: str) -> float:
        """Energy in one bucket (0 when absent)."""
        return self._buckets.get(bucket, 0.0)

    def total_pj(self, prefix: str = "") -> float:
        """Total energy, optionally restricted to buckets under ``prefix``."""
        if not prefix:
            return sum(self._buckets.values())
        return sum(v for k, v in self._buckets.items() if k.startswith(prefix))

    def merge(self, other: "EnergyLedger") -> None:
        """Fold another ledger into this one."""
        for bucket, pj in other._buckets.items():
            self.add(bucket, pj)

    def buckets(self) -> List[Tuple[str, float]]:
        """(bucket, pJ) pairs, sorted by name."""
        return sorted(self._buckets.items())

    def describe(self) -> str:
        """Render the breakdown as an ASCII table (nanojoules)."""
        rows = [[name, pj / 1e3] for name, pj in self.buckets()]
        rows.append(["TOTAL", self.total_pj() / 1e3])
        return format_table(["bucket", "energy (nJ)"], rows)

    def copy(self) -> "EnergyLedger":
        """An independent copy."""
        clone = EnergyLedger()
        clone._buckets = dict(self._buckets)
        return clone

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EnergyLedger):
            return NotImplemented
        return self._buckets == other._buckets

    # -- serialisation ---------------------------------------------------------
    def to_dict(self) -> Dict[str, float]:
        """JSON-safe bucket mapping (the ledger's full state)."""
        return dict(self._buckets)

    @classmethod
    def from_dict(cls, data: Dict[str, float]) -> "EnergyLedger":
        """Rebuild a ledger from :meth:`to_dict` output (strict: anything
        but a mapping of names to ``int``/``float`` values, ``bool``
        excluded, raises ``ValueError``)."""
        if not isinstance(data, dict):
            raise ValueError("energy ledger payload is not an object")
        ledger = cls()
        for bucket, pj in data.items():
            if not isinstance(bucket, str) or type(pj) not in (int, float):
                raise ValueError(f"malformed energy bucket {bucket!r}: {pj!r}")
            ledger._buckets[bucket] = float(pj)
        return ledger

"""ACR's on-chip bookkeeping structures: AddrMap and operand buffer.

The AddrMap records ``<memory address, Slice, operand snapshot>``
associations produced by ``ASSOC-ADDR`` instructions.  Entries must cover
the **two most recent checkpoints** (error-detection latency ≤ checkpoint
period ⇒ recovery may target the second-most-recent checkpoint), so the
structure is generation-managed:

* the *open* generation collects associations made during the current
  interval (they describe values live at the *next* checkpoint);
* on a checkpoint, the open generation is *committed* and a fresh one
  opens; the two youngest committed generations are retained.

An association is usable for omitting a log record only once committed:
during interval ``k+1`` the first overwrite of address ``A`` may skip
logging iff a committed entry for ``A`` proves the old value (the one live
at checkpoint ``k``) recomputable.

Correctness subtlety — tombstones: when a *plain* (non-ASSOC) store
overwrites ``A``, the value live at the next checkpoint is no longer the
one any recorded Slice recomputes.  Removing the open-generation entry is
not enough, because a committed entry from an older generation would still
match on lookup and wrongly justify an omission.  The open generation
therefore records a *tombstone* for ``A`` (hardware: an associative entry
with the recomputable bit cleared); lookups scan generations youngest-first
and a tombstone terminates the search.  Tombstones do not count against
the entry capacity.

Capacity is finite; a full open generation rejects new associations (the
store is then checkpointed normally), which the AddrMap-capacity ablation
bench exercises.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.compiler.slices import Slice
from repro.util.validation import check_positive

__all__ = ["AddrMapEntry", "AddrMap", "OperandBuffer", "make_generation"]


@dataclass(frozen=True, slots=True)
class AddrMapEntry:
    """One association: the value at ``address`` is recomputable via
    ``slice_`` applied to ``operands``."""

    address: int
    slice_: Slice
    operands: Tuple[int, ...]


class _Generation:
    """Entries and tombstones recorded during one checkpoint interval."""

    __slots__ = ("entries", "tombstones")

    def __init__(self) -> None:
        self.entries: Dict[int, AddrMapEntry] = {}
        self.tombstones: Set[int] = set()


def make_generation(
    entries: List[Tuple[int, AddrMapEntry]], tombstones: Set[int]
) -> _Generation:
    """Build one generation from explicit state (snapshot restore).

    ``entries`` is an *ordered* ``(address, entry)`` list — insertion
    order is preserved because lookups and the fault-injection harness
    iterate ``entries.values()`` and the order is part of captured
    state.
    """
    gen = _Generation()
    for address, entry in entries:
        gen.entries[address] = entry
    gen.tombstones.update(tombstones)
    return gen


class AddrMap:
    """Generation-managed <address, Slice, operands> map."""

    def __init__(self, capacity: int) -> None:
        check_positive("capacity", capacity)
        self.capacity = capacity
        self._open = _Generation()
        self._committed: List[_Generation] = []
        self.records = 0
        self.rejections = 0
        #: id -> entry swapped in by :meth:`swap_committed` (held, so its
        #: id is never recycled); its ECC check fails at lookup.
        self.damaged: Dict[int, AddrMapEntry] = {}

    # -- during an interval -------------------------------------------------
    def record(self, entry: AddrMapEntry) -> bool:
        """Record an association from an ``ASSOC-ADDR`` execution.

        Re-associating an address already present in the open generation
        replaces the entry (the newest store defines the value live at the
        next checkpoint).  Returns ``False`` when the open generation is
        full and the address is new — the caller must then fall back to
        normal checkpointing for this value.
        """
        gen = self._open
        if entry.address not in gen.entries and len(gen.entries) >= self.capacity:
            self.rejections += 1
            return False
        gen.tombstones.discard(entry.address)
        gen.entries[entry.address] = entry
        self.records += 1
        return True

    def open_entry(self, address: int) -> Optional[AddrMapEntry]:
        """The open-generation entry for ``address``, if any."""
        return self._open.entries.get(address)

    def invalidate(self, address: int) -> None:
        """A plain store overwrote ``address``: mask any association.

        Drops the open-generation entry and plants a tombstone so that
        older committed entries cannot satisfy future lookups.
        """
        gen = self._open
        gen.entries.pop(address, None)
        gen.tombstones.add(address)

    def internal_state(self) -> Tuple[_Generation, List[_Generation]]:
        """``(open_generation, committed_generations)`` for engines that
        inline :meth:`invalidate` / :meth:`committed_lookup`.

        Generations rotate at checkpoint boundaries (``commit_generation``
        rebinds the open generation), so callers must re-fetch this
        between checkpoint intervals; the committed *list* is mutated in
        place and stays valid.
        """
        return self._open, self._committed

    def restore_generations(
        self, open_gen: _Generation, committed: List[_Generation]
    ) -> None:
        """Replace the generation state wholesale (snapshot restore).

        The inverse of reading :meth:`internal_state`: engines holding
        references from a previous ``internal_state()`` call must
        re-fetch, exactly as across a ``commit_generation``.
        """
        if len(committed) > 2:
            raise ValueError(
                f"at most 2 committed generations are retained, "
                f"got {len(committed)}"
            )
        self._open = open_gen
        self._committed = list(committed)

    def committed_lookup(self, address: int) -> Optional[AddrMapEntry]:
        """Youngest committed knowledge about ``address``.

        Scans committed generations youngest-first; an entry means "the
        value live at the last checkpoint is recomputable via this Slice",
        a tombstone means "a plain store defined it — not recomputable".
        Returns ``None`` in the tombstone / unknown cases.
        """
        for gen in reversed(self._committed):
            entry = gen.entries.get(address)
            if entry is not None:
                return entry
            if address in gen.tombstones:
                return None
        return None

    # -- at checkpoint boundaries ----------------------------------------------
    def commit_generation(self) -> None:
        """Checkpoint established: commit the open generation.

        Keeps the two youngest committed generations (matching the
        two-checkpoint retention of the underlying BER scheme).  An
        expired generation that recorded nothing opens as the next one,
        so an interval without stores allocates nothing.
        """
        committed = self._committed
        committed.append(self._open)
        expired = committed.pop(0) if len(committed) > 2 else None
        if expired is None or expired.entries or expired.tombstones:
            expired = _Generation()
        self._open = expired

    def entries_for_checkpoint(self, generations_back: int = 1) -> List[AddrMapEntry]:
        """Entries recorded in a retained generation (1 = youngest)."""
        if generations_back < 1 or generations_back > len(self._committed):
            return []
        return list(self._committed[-generations_back].entries.values())

    # -- fault-injection access ----------------------------------------------
    def committed_entries(self) -> List[AddrMapEntry]:
        """Every entry across retained committed generations, youngest
        generation first (the order :meth:`committed_lookup` scans).

        Used by the fault-injection harness to pick operand snapshots to
        corrupt; lookups are unaffected.
        """
        out: List[AddrMapEntry] = []
        for gen in reversed(self._committed):
            out.extend(gen.entries.values())
        return out

    def swap_committed(self, old: AddrMapEntry, new: AddrMapEntry) -> bool:
        """Replace one committed entry *object* with another (same address).

        Models a bit flip inside the stored operand snapshot: the entry's
        identity changes but its lookup key does not, and ``new`` is
        recorded as :attr:`damaged`.  Matching is by object identity —
        two distinct associations can be field-equal.  Returns ``False``
        when ``old`` is not resident (already expired).
        """
        if new.address != old.address:
            raise ValueError("swap_committed must preserve the address key")
        for gen in reversed(self._committed):
            if gen.entries.get(old.address) is old:
                gen.entries[old.address] = new
                self.damaged[id(new)] = new
                return True
        return False

    @property
    def open_size(self) -> int:
        """Entries in the open generation (tombstones excluded)."""
        return len(self._open.entries)

    @property
    def committed_size(self) -> int:
        """Entries across retained committed generations."""
        return sum(len(g.entries) for g in self._committed)


class OperandBuffer:
    """Capacity accounting for Slice input operands.

    Operand values are stored inline in :class:`AddrMapEntry`; this class
    tracks the *word* budget they occupy so the capacity knob in
    :class:`~repro.arch.config.MachineConfig` is enforceable.  The peak
    occupancy statistic feeds the storage-complexity discussion.
    """

    def __init__(self, capacity_words: int) -> None:
        check_positive("capacity_words", capacity_words)
        self.capacity_words = capacity_words
        self.words = 0
        self.peak_words = 0
        self.rejections = 0

    def try_reserve(self, n_words: int) -> bool:
        """Reserve space for ``n_words`` operand words."""
        if self.words + n_words > self.capacity_words:
            self.rejections += 1
            return False
        self.words += n_words
        self.peak_words = max(self.peak_words, self.words)
        return True

    def release(self, n_words: int) -> None:
        """Release ``n_words`` (entries retired with their generation)."""
        self.words = max(0, self.words - n_words)

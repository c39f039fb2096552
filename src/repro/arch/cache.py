"""Set-associative write-back LRU cache model.

Functional-timing hybrid: the cache tracks tags, LRU order and dirty
lines (so checkpoint-time dirty-line flushes are exact), but holds no
data — values live in the shared :class:`~repro.isa.interpreter.MemoryImage`.

LRU is implemented with per-set ``dict`` insertion order (Python dicts are
ordered): a hit re-inserts the tag, an eviction pops the oldest entry.
A set's dict is created on its first access (``None`` until then): a run
builds two caches per core of up to thousands of sets, and allocating
every dict up front cost more than most runs spend in them.
The dicts carry order only; dirtiness lives in one cache-wide ``set`` of
resident dirty lines, so a checkpoint flush costs O(dirty lines) rather
than a scan of every set.  Invariant: dirty ⊆ resident.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set

from repro.arch.config import CacheConfig

__all__ = ["AccessResult", "SetAssociativeCache"]


@dataclass(frozen=True, slots=True)
class AccessResult:
    """Outcome of one cache access.

    ``victim_line`` / ``victim_dirty`` describe the line evicted to make
    room on a miss (``None`` when no eviction happened).
    """

    hit: bool
    victim_line: Optional[int]
    victim_dirty: bool


class SetAssociativeCache:
    """One cache level; addresses are *line* addresses (byte addr // line)."""

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self._sets: List[Optional[Dict[int, None]]] = [None] * config.num_sets
        self._num_sets = config.num_sets
        self._ways = config.ways
        self._dirty: Set[int] = set()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.dirty_evictions = 0

    def _set_for(self, line: int) -> Dict[int, None]:
        index = line % self._num_sets
        cset = self._sets[index]
        if cset is None:
            cset = self._sets[index] = {}
        return cset

    def access(self, line: int, is_write: bool) -> AccessResult:
        """Access ``line``; allocate on miss (write-allocate policy)."""
        cset = self._set_for(line)
        if line in cset:
            cset[line] = cset.pop(line)  # re-insert: most recently used
            if is_write:
                self._dirty.add(line)
            self.hits += 1
            return AccessResult(True, None, False)

        self.misses += 1
        victim_line: Optional[int] = None
        victim_dirty = False
        if len(cset) >= self._ways:
            victim_line = next(iter(cset))
            del cset[victim_line]
            self.evictions += 1
            if victim_line in self._dirty:
                self._dirty.remove(victim_line)
                victim_dirty = True
                self.dirty_evictions += 1
        cset[line] = None
        if is_write:
            self._dirty.add(line)
        return AccessResult(False, victim_line, victim_dirty)

    def internal_state(self):
        """``(sets, num_sets, ways, dirty)`` for engines that inline :meth:`access`.

        The returned set list and dirty set are the live state (a set
        never accessed is ``None``; callers create its dict): callers
        replicating the access protocol mutate them directly and bump the
        public counters themselves (the vector engine batches counter
        updates per segment).  Callers must keep the invariant: a line's
        dirtiness lives only in ``dirty`` (the per-set dicts hold ``None``
        and carry LRU order alone), and ``dirty`` holds resident lines
        only — add on a write, remove on eviction.
        """
        return self._sets, self._num_sets, self._ways, self._dirty

    def contains(self, line: int) -> bool:
        """True when ``line`` is resident (does not touch LRU order)."""
        return line in self._set_for(line)

    def is_dirty(self, line: int) -> bool:
        """True when ``line`` is resident and dirty."""
        return line in self._dirty

    def invalidate(self, line: int) -> bool:
        """Drop ``line``; returns True when the dropped copy was dirty."""
        cset = self._set_for(line)
        if line in cset:
            del cset[line]
            if line in self._dirty:
                self._dirty.remove(line)
                return True
        return False

    def flush_dirty(self) -> List[int]:
        """Write back all dirty lines (checkpoint flush).

        Marks every dirty line clean and returns their line addresses; the
        lines stay resident (as in Rebound, clean copies remain cached).
        Costs O(dirty lines): the dirty set is emptied in place, so
        engines holding it through :meth:`internal_state` stay bound.
        """
        flushed = list(self._dirty)
        self._dirty.clear()
        return flushed

    def dirty_lines(self) -> FrozenSet[int]:
        """Snapshot of the currently dirty line addresses."""
        return frozenset(self._dirty)

    def dirty_line_count(self) -> int:
        """Number of currently dirty lines."""
        return len(self._dirty)

    def resident_lines(self) -> List[int]:
        """All resident line addresses (test helper)."""
        return [line for cset in self._sets if cset for line in cset]

    @property
    def accesses(self) -> int:
        """Total accesses so far."""
        return self.hits + self.misses

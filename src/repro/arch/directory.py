"""Directory state: per-line log bits and inter-core sharing tracking.

The paper's baseline keeps one extra *log* bit per memory line in the
directory controller: set once the line has been handled (logged — or,
under ACR, deliberately omitted) for the current checkpoint interval, and
cleared when a new checkpoint is established.

For coordinated *local* checkpointing the directory additionally records
which cores touched the same line within an interval; the transitive
closure of that relation yields the *communicating clusters* that must
checkpoint together (Koo–Toueg style coordination confined to interacting
tasks).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Set, Tuple

from repro.util.validation import check_positive

__all__ = ["Directory"]


class _UnionFind:
    """Tiny union-find over core ids."""

    def __init__(self, n: int) -> None:
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


class Directory:
    """Directory controller state shared by all cores.

    Tracks, per *word address*:

    * the log bit for the current checkpoint interval (``test_and_set_log``
      implements the "first modification this interval" check);

    and, per *line address*, the set of cores that touched the line during
    the current interval (communication tracking for local checkpointing).
    """

    def __init__(self, num_cores: int) -> None:
        check_positive("num_cores", num_cores)
        self.num_cores = num_cores
        self._log_bits: Set[int] = set()
        self._line_toucher: Dict[int, int] = {}
        self._edges: Set[Tuple[int, int]] = set()

    # -- log bits (word granularity, matching the log record granularity) ----
    def test_and_set_log(self, address: int) -> bool:
        """Set the log bit for ``address``; returns the *previous* value.

        ``False`` means this is the first modification in the interval and
        the old value must be handled (logged, or omitted under ACR).
        """
        if address in self._log_bits:
            return True
        self._log_bits.add(address)
        return False

    def log_bit(self, address: int) -> bool:
        """Current log bit for ``address``."""
        return address in self._log_bits

    def clear_log_bits(self) -> int:
        """New checkpoint established: clear every log bit.

        Returns how many bits were set (== unique addresses handled).
        """
        count = len(self._log_bits)
        self._log_bits.clear()
        return count

    @property
    def logged_addresses(self) -> int:
        """Unique addresses handled so far this interval."""
        return len(self._log_bits)

    def log_bit_set(self) -> Set[int]:
        """The live log-bit set, for engines inlining the first-mod check.

        ``clear_log_bits`` clears this set in place, so a held reference
        stays valid across interval boundaries.
        """
        return self._log_bits

    # -- communication tracking (line granularity) ----------------------------
    def record_access(self, core: int, line: int) -> None:
        """Note that ``core`` touched ``line`` this interval.

        When a different core touched the line earlier in the interval, a
        communication edge between the two cores is recorded.
        """
        prev = self._line_toucher.get(line)
        if prev is None:
            self._line_toucher[line] = core
        elif prev != core:
            edge = (prev, core) if prev < core else (core, prev)
            self._edges.add(edge)
            self._line_toucher[line] = core

    def comm_state(self) -> Tuple[Dict[int, int], Set[Tuple[int, int]]]:
        """``(line_toucher, edges)`` for engines inlining
        :meth:`record_access`.  Both are cleared in place at interval
        boundaries, so held references stay valid.
        """
        return self._line_toucher, self._edges

    def communication_groups(self) -> List[FrozenSet[int]]:
        """Communicating clusters of cores for the current interval.

        Cores with no recorded interaction form singleton clusters; the
        union of all clusters is always the full core set.
        """
        if not self._edges:
            return [frozenset((core,)) for core in range(self.num_cores)]
        uf = _UnionFind(self.num_cores)
        for a, b in self._edges:
            uf.union(a, b)
        groups: Dict[int, Set[int]] = {}
        for core in range(self.num_cores):
            groups.setdefault(uf.find(core), set()).add(core)
        return [frozenset(g) for g in groups.values()]

    def clear_interval_tracking(self) -> None:
        """Reset communication tracking at an interval boundary."""
        self._line_toucher.clear()
        self._edges.clear()

    @property
    def edge_count(self) -> int:
        """Distinct communication edges recorded this interval."""
        return len(self._edges)

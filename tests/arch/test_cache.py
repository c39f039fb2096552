"""Tests for repro.arch.cache."""

from hypothesis import example, given, settings, strategies as st

from repro.arch.cache import AccessResult, SetAssociativeCache
from repro.arch.config import CacheConfig, MachineConfig
from repro.arch.hierarchy import CoreCacheHierarchy


def small_cache(sets=4, ways=2):
    return SetAssociativeCache(
        CacheConfig("t", sets * ways * 64, ways, 1.0)
    )


class TestBasics:
    def test_miss_then_hit(self):
        c = small_cache()
        assert not c.access(0, False).hit
        assert c.access(0, False).hit
        assert c.hits == 1 and c.misses == 1

    def test_write_sets_dirty(self):
        c = small_cache()
        c.access(0, True)
        assert c.is_dirty(0)

    def test_read_does_not_dirty(self):
        c = small_cache()
        c.access(0, False)
        assert not c.is_dirty(0)

    def test_write_after_read_dirties(self):
        c = small_cache()
        c.access(0, False)
        c.access(0, True)
        assert c.is_dirty(0)

    def test_contains(self):
        c = small_cache()
        c.access(5, False)
        assert c.contains(5)
        assert not c.contains(6)


class TestLru:
    def test_eviction_order(self):
        c = small_cache(sets=1, ways=2)
        c.access(0, False)
        c.access(1, False)
        r = c.access(2, False)  # evicts 0 (LRU)
        assert r.victim_line == 0
        assert not c.contains(0)
        assert c.contains(1) and c.contains(2)

    def test_hit_refreshes_lru(self):
        c = small_cache(sets=1, ways=2)
        c.access(0, False)
        c.access(1, False)
        c.access(0, False)  # 0 becomes MRU
        r = c.access(2, False)
        assert r.victim_line == 1

    def test_dirty_eviction_flagged(self):
        c = small_cache(sets=1, ways=1)
        c.access(0, True)
        r = c.access(1, False)
        assert r.victim_line == 0 and r.victim_dirty
        assert c.dirty_evictions == 1

    def test_sets_independent(self):
        c = small_cache(sets=4, ways=1)
        for line in range(4):
            c.access(line, False)
        assert all(c.contains(line) for line in range(4))

    def test_set_dicts_created_on_first_access(self):
        c = small_cache(sets=4, ways=2)
        sets = c.internal_state()[0]
        assert sets == [None] * 4
        c.access(6, True)
        c.access(1, False)
        assert sets[0] is None and sets[3] is None
        assert sets[2] == {6: None} and sets[1] == {1: None}
        assert c.resident_lines() == [1, 6]


class TestFlush:
    def test_flush_dirty_returns_lines_and_cleans(self):
        c = small_cache()
        c.access(0, True)
        c.access(1, True)
        c.access(2, False)
        flushed = sorted(c.flush_dirty())
        assert flushed == [0, 1]
        assert c.dirty_line_count() == 0
        # lines stay resident (Rebound keeps clean copies)
        assert c.contains(0) and c.contains(1)

    def test_flush_idempotent(self):
        c = small_cache()
        c.access(0, True)
        c.flush_dirty()
        assert c.flush_dirty() == []

    def test_invalidate(self):
        c = small_cache()
        c.access(0, True)
        assert c.invalidate(0) is True
        assert not c.contains(0)
        assert c.invalidate(0) is False


class TestProperties:
    @given(st.lists(st.tuples(st.integers(0, 63), st.booleans()), max_size=300))
    @settings(max_examples=30, deadline=None)
    def test_occupancy_bounded_by_capacity(self, accesses):
        c = small_cache(sets=4, ways=2)
        for line, wr in accesses:
            c.access(line, wr)
        assert len(c.resident_lines()) <= 8
        assert c.hits + c.misses == len(accesses)

    @given(st.lists(st.tuples(st.integers(0, 63), st.booleans()), max_size=300))
    @settings(max_examples=30, deadline=None)
    def test_dirty_lines_subset_of_resident(self, accesses):
        c = small_cache(sets=4, ways=2)
        for line, wr in accesses:
            c.access(line, wr)
        resident = set(c.resident_lines())
        dirty = {l for l in resident if c.is_dirty(l)}
        assert dirty <= resident
        assert c.dirty_line_count() == len(dirty)


class _ReferenceCache:
    """The full-scan model the dirty set replaced: per-set ordered dicts
    carrying a dirty flag, with a flush that walks every set."""

    def __init__(self, sets, ways):
        self.sets = [dict() for _ in range(sets)]
        self.ways = ways
        self.hits = self.misses = self.evictions = self.dirty_evictions = 0

    def access(self, line, is_write):
        cset = self.sets[line % len(self.sets)]
        if line in cset:
            cset[line] = cset.pop(line) or is_write
            self.hits += 1
            return AccessResult(True, None, False)
        self.misses += 1
        victim, victim_dirty = None, False
        if len(cset) >= self.ways:
            victim, victim_dirty = next(iter(cset.items()))
            del cset[victim]
            self.evictions += 1
            self.dirty_evictions += victim_dirty
        cset[line] = is_write
        return AccessResult(False, victim, victim_dirty)

    def invalidate(self, line):
        return self.sets[line % len(self.sets)].pop(line, False)

    def flush_dirty(self):
        flushed = []
        for cset in self.sets:
            for line, dirty in cset.items():
                if dirty:
                    flushed.append(line)
                    cset[line] = False
        return flushed

    def dirty_lines(self):
        return {line for cset in self.sets for line, d in cset.items() if d}

    def resident_lines(self):
        return [line for cset in self.sets for line in cset]


LINES = st.integers(0, 31)
CACHE_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("access"), LINES, st.booleans()),
        st.tuples(st.just("invalidate"), LINES),
        st.tuples(st.just("flush")),
    ),
    max_size=200,
)


def _assert_same_state(cache, ref):
    assert cache.resident_lines() == ref.resident_lines()  # LRU order too
    dirty = ref.dirty_lines()
    assert cache.dirty_lines() == dirty
    assert cache.dirty_line_count() == len(dirty)
    for line in range(32):
        assert cache.is_dirty(line) == (line in dirty)
    assert (cache.hits, cache.misses, cache.evictions, cache.dirty_evictions) == (
        ref.hits, ref.misses, ref.evictions, ref.dirty_evictions,
    )


class TestDifferentialAgainstFullScan:
    """The dirty-set cache behaves exactly like the full-scan model."""

    @given(CACHE_OPS)
    @settings(max_examples=200, deadline=None)
    def test_random_interleavings(self, ops):
        cache, ref = small_cache(sets=4, ways=2), _ReferenceCache(4, 2)
        for op in ops:
            if op[0] == "access":
                assert cache.access(op[1], op[2]) == ref.access(op[1], op[2])
            elif op[0] == "invalidate":
                assert cache.invalidate(op[1]) == ref.invalidate(op[1])
            else:
                flushed = cache.flush_dirty()
                assert len(flushed) == len(set(flushed))
                assert sorted(flushed) == sorted(ref.flush_dirty())
            _assert_same_state(cache, ref)


class _ReferenceHierarchy:
    """CoreCacheHierarchy's access and flush over two reference caches."""

    def __init__(self, config):
        self.line_bytes = config.line_bytes
        self.l1d = _ReferenceCache(config.l1d.num_sets, config.l1d.ways)
        self.l2 = _ReferenceCache(config.l2.num_sets, config.l2.ways)
        self.writebacks = 0

    def access(self, address, is_write):
        line = address // self.line_bytes
        r1 = self.l1d.access(line, is_write)
        if r1.victim_dirty and self.l2.access(r1.victim_line, True).victim_dirty:
            self.writebacks += 1
        if not r1.hit and self.l2.access(line, False).victim_dirty:
            self.writebacks += 1

    def flush_dirty_lines(self):
        flushed = set(self.l1d.flush_dirty()) | set(self.l2.flush_dirty())
        self.writebacks += len(flushed)
        return len(flushed)


def _tiny_hierarchy_config():
    # L1: 2 sets x 2 ways, L2: 4 sets x 2 ways — both levels thrash.
    return MachineConfig(
        num_cores=1,
        l1d=CacheConfig("L1-D", 2 * 2 * 64, 2, 1.0),
        l2=CacheConfig("L2", 4 * 2 * 64, 2, 10.0),
    )


HIERARCHY_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("access"), LINES, st.booleans()),
        st.tuples(st.just("flush")),
    ),
    max_size=200,
)

#: Write line 0, evict it dirty from L1 into L2 (lines 2 and 4 share its
#: L1 set), then write it again: dirty in both levels at the flush.
DIRTY_IN_BOTH = [
    ("access", 0, True),
    ("access", 2, False),
    ("access", 4, False),
    ("access", 0, True),
    ("flush",),
]


class TestHierarchyDifferential:
    @given(HIERARCHY_OPS)
    @example(DIRTY_IN_BOTH)
    @settings(max_examples=200, deadline=None)
    def test_flush_counts_match_full_scan(self, ops):
        config = _tiny_hierarchy_config()
        hier, ref = CoreCacheHierarchy(config), _ReferenceHierarchy(config)
        for op in ops:
            if op[0] == "access":
                hier.access(op[1] * config.line_bytes, op[2])
                ref.access(op[1] * config.line_bytes, op[2])
            else:
                assert hier.flush_dirty_lines() == ref.flush_dirty_lines()
            assert hier.l1d.dirty_lines() == ref.l1d.dirty_lines()
            assert hier.l2.dirty_lines() == ref.l2.dirty_lines()
            assert hier.dirty_line_count() == len(
                ref.l1d.dirty_lines() | ref.l2.dirty_lines()
            )
            assert hier.writebacks == ref.writebacks

    def test_line_dirty_in_both_levels_counted_once(self):
        config = _tiny_hierarchy_config()
        hier = CoreCacheHierarchy(config)
        for _, line, is_write in DIRTY_IN_BOTH[:-1]:
            hier.access(line * config.line_bytes, is_write)
        assert hier.l1d.is_dirty(0) and hier.l2.is_dirty(0)
        assert hier.dirty_line_count() == 1
        assert hier.flush_dirty_lines() == 1
        assert hier.l1d.dirty_line_count() == hier.l2.dirty_line_count() == 0

"""The memoised boundary cost model against its unmemoised original.

:class:`CheckpointCostModel` prices each participant set's barrier and
architectural-state transfer once and replays their counter updates on
later boundaries; only the flush is priced per boundary.  The oracle is
the model as it was before, which priced everything at every boundary:
under random participant sets and dirty states, both must return the
same costs, add the same energy in the same order, and leave the NoC and
every memory controller with the same counters.
"""

from typing import Dict

from hypothesis import given, settings, strategies as st

from repro.arch.config import CacheConfig, MachineConfig
from repro.arch.hierarchy import CoreCacheHierarchy
from repro.arch.memctrl import MemorySystem
from repro.arch.noc import MeshNoc
from repro.ckpt.coordinator import CheckpointCostModel
from repro.energy.accounting import EnergyLedger
from repro.energy.model import EnergyModel

NUM_CORES = 8
#: Caches small enough for a few stores to evict, dirty, into L2.
SMALL_CACHES = dict(
    l1d=CacheConfig("L1-D", 1024, 2, 4.1),
    l2=CacheConfig("L2", 4096, 4, 24.7),
)


def oracle_boundary_cost(model, participants, hierarchies, ledger):
    """The unmemoised ``boundary_cost`` body, kept verbatim as the oracle
    (returns the cost's fields as a tuple)."""
    cfg = model.config
    barrier_ns = model.noc.barrier_latency_ns(len(participants))

    flush_bytes_per_core: Dict[int, int] = {}
    flushed_lines = 0
    for core in participants:
        lines = hierarchies[core].flush_dirty_lines()
        flushed_lines += lines
        flush_bytes_per_core[core] = lines * cfg.line_bytes
    flushed_bytes = flushed_lines * cfg.line_bytes
    flush_ns = model.memsys.bulk_transfer_time_ns(flush_bytes_per_core)

    arch_bytes = cfg.arch_state_bytes * len(participants)
    arch_ns = model.memsys.bulk_transfer_time_ns(
        {core: cfg.arch_state_bytes for core in participants}
    )

    ledger.add("ckpt.flush", model.energy.dram_transfer_pj(flushed_bytes))
    ledger.add("ckpt.arch", model.energy.dram_transfer_pj(arch_bytes))
    ledger.add(
        "ckpt.arch",
        (arch_bytes / 8) * model.energy.regfile_access_pj,
    )
    hops = model.noc.diameter_hops(len(participants))
    ledger.add(
        "ckpt.barrier",
        2 * hops * len(participants) * model.energy.noc_hop_pj,
    )
    return (barrier_ns, flush_ns, arch_ns, flushed_lines, flushed_bytes,
            arch_bytes)


class Machine:
    """The parts a boundary touches, fresh."""

    def __init__(self, config):
        self.noc = MeshNoc(config)
        self.memsys = MemorySystem(config)
        self.hierarchies = [CoreCacheHierarchy(config)
                            for _ in range(NUM_CORES)]
        self.ledger = EnergyLedger()
        self.model = CheckpointCostModel(config, self.noc, self.memsys,
                                         EnergyModel())

    def counters(self):
        return (self.noc.barriers,
                [c.bytes_transferred for c in self.memsys.controllers],
                [h.writebacks for h in self.hierarchies])


#: Participant sets: the global one, local singletons and pairs (cores
#: behind one controller and across both).
participant_sets = st.one_of(
    st.just(tuple(range(NUM_CORES))),
    st.integers(0, NUM_CORES - 1).map(lambda c: (c,)),
    st.lists(st.integers(0, NUM_CORES - 1), min_size=2, max_size=2,
             unique=True).map(lambda p: tuple(sorted(p))),
)
#: Stores before one boundary: (core, line), with lines reused so that
#: L1 and L2 dirty sets overlap and evictions cascade.
writes = st.lists(
    st.tuples(st.integers(0, NUM_CORES - 1), st.integers(0, 4096)),
    max_size=40,
)


@given(st.lists(st.tuples(writes, participant_sets), min_size=1,
                max_size=12),
       st.sampled_from([{}, SMALL_CACHES]))
@settings(max_examples=60, deadline=None)
def test_memoised_model_matches_the_oracle(boundaries, caches):
    config = MachineConfig(num_cores=NUM_CORES, **caches)
    assert config.num_controllers == 2
    live, oracle = Machine(config), Machine(config)
    for stores, participants in boundaries:
        for machine in (live, oracle):
            for core, line in stores:
                machine.hierarchies[core].access(line * config.line_bytes,
                                                 True)
        cost = live.model.boundary_cost(participants, live.hierarchies,
                                        live.ledger)
        want = oracle_boundary_cost(oracle.model, participants,
                                    oracle.hierarchies, oracle.ledger)
        assert tuple(cost) == want
        assert [x.hex() for x in cost[:3]] == [x.hex() for x in want[:3]]
        assert cost.total_ns == want[0] + want[1] + want[2]
        assert live.ledger.to_dict() == oracle.ledger.to_dict()
        assert live.counters() == oracle.counters()

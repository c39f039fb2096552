"""End-to-end ACR control-flow narrative test (paper Fig. 4a/4b).

One test class walks the exact sequence of the paper's control-flow
figures on the real mechanism core (:class:`~repro.sim.mechanism.Mechanism`
under a real interpreter), asserting each arrow:

Fig. 4a (checkpoint):  store w/ ASSOC-ADDR -> record in AddrMap ->
first-modification query -> memory controller told to skip the log.

Fig. 4b (recovery):    error detected -> pick safe checkpoint ->
recompute omitted values via Slices -> write back -> restore the rest
from the log -> consistent state.
"""

import pytest

from repro.acr.handlers import AcrRecoveryHandler
from repro.arch.config import MachineConfig
from repro.compiler.embed import compile_program
from repro.compiler.policy import ThresholdPolicy
from repro.isa.builder import chain_kernel
from repro.isa.instructions import AddressPattern
from repro.isa.interpreter import Interpreter, MemoryImage
from repro.isa.program import Program
from repro.sim.mechanism import ASSOCIATED, LOGGED, Mechanism


@pytest.fixture
def parts():
    cfg = MachineConfig(num_cores=1)
    kernels = [
        chain_kernel(
            f"k{rep}",
            AddressPattern(0, 1, 8),
            [AddressPattern(1 << 20, 1, 8, offset=rep)],
            chain_depth=3,
            trip_count=8,
            salt=rep,
        )
        for rep in range(4)
    ]
    compiled = compile_program(Program(kernels), ThresholdPolicy(10))
    mech = Mechanism(cfg, MemoryImage(3), [compiled.slices])
    return compiled, mech


class TestFig4aCheckpointFlow:
    def test_full_sequence(self, parts):
        compiled, mech = parts
        handler, store = mech.handler, mech.store
        charges = []

        def on_store(ev):
            charges.append(mech.on_store(ev))

        interp = Interpreter(compiled.program, mech.memory, on_store=on_store)

        # Interval 0: rep 0 — everything is a fresh first write, so the
        # directory sets each word's log bit and the old value is logged.
        interp.step_iterations(8)
        assert len(store.current_log.records) == 8
        assert len(store.current_log.omitted) == 0
        assert all(mech.directory.log_bit(r.address)
                   for r in store.current_log.records)
        # ...but all eight stores executed ASSOC-ADDR.
        assert handler.assoc_executed == 8
        assert handler.addrmaps[0].open_size == 8
        assert charges == [LOGGED | ASSOCIATED] * 8

        # Checkpoint 0: commit the generation, clear log bits.
        mech.establish(1.0, 1.0)
        assert mech.directory.logged_addresses == 0
        assert handler.addrmaps[0].open_size == 0
        assert handler.addrmaps[0].committed_size == 8

        # Interval 1: rep 1 rewrites the same words — every first
        # modification finds a committed association and skips the log.
        interp.step_iterations(8)
        assert len(store.current_log.records) == 0
        assert len(store.current_log.omitted) == 8
        assert handler.omissions == 8
        # No log write is charged; ASSOC-ADDR still is.
        assert charges[8:] == [ASSOCIATED] * 8

    def test_fig4b_recovery_flow(self, parts):
        compiled, mech = parts
        store, memory = mech.store, mech.memory
        interp = Interpreter(compiled.program, memory, on_store=mech.on_store)
        snapshots = []
        for rep in range(3):
            interp.step_iterations(8)
            snapshots.append(memory.snapshot())
            mech.establish(float(rep + 1), float(rep + 1))
        interp.step_iterations(8)  # partial interval 3 (all omitted)

        # "Error detected": roll back to checkpoint 2 using the recovery
        # handler for the omitted values, then the log for the rest.
        recovery = AcrRecoveryHandler()
        logs = store.logs_to_rollback(2)
        recovery.recompute_omitted(logs, memory)
        for log in logs:
            for rec in log.records:
                memory.write(rec.address, rec.old_value)
        assert memory.snapshot() == snapshots[2]
        assert recovery.stats.values == 8  # the partial interval's stores

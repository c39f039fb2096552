"""Campaign aggregator: event folding, snapshots, tolerance contracts."""

from repro.experiments.progress import ProgressTracker
from repro.obs.events import (
    MACHINE,
    CheckpointEnd,
    IntervalBoundary,
    PhaseChanged,
    TaskFinished,
    TaskStarted,
    WorkerDied,
)
from repro.obs.telemetry.aggregate import CampaignTelemetry
from repro.obs.telemetry.emit import frame_dict
from repro.obs.telemetry.snapshots import SNAPSHOT_FIELDS, read_snapshots


def _started(task="bt/Ckpt_E", ts=1.0, pid=7):
    return task, TaskStarted(ts_ns=ts, core=MACHINE, pid=pid)


def _beat(task="bt/Ckpt_E", interval=0, instructions=100, ts=1.1):
    return task, IntervalBoundary(ts_ns=ts, core=MACHINE, index=interval,
                                  instructions=instructions)


def _end(task="t", interval=0, logged_records=0, ts=1.2):
    return task, CheckpointEnd(
        ts_ns=ts, core=MACHINE, index=interval, duration_ns=1.0,
        logged_records=logged_records, omitted_records=0, logged_bytes=0,
        flushed_bytes=0, boundary_ns=1.0, cluster_flushed_bytes=(0,),
        cluster_barrier_ns=(1.0,), addrmap_occupancy=-1,
    )


def _finished(task="bt/Ckpt_E", ok=True, ts=2.0, **kw):
    kw.setdefault("seconds", 1.0)
    kw.setdefault("phase_seconds", {})
    kw.setdefault("phase_counts", {})
    return task, TaskFinished(ts_ns=ts, core=MACHINE, ok=ok, **kw)


class TestFrameFolding:
    def test_task_lifecycle(self):
        tele = CampaignTelemetry()
        tele.on_event(*_started(), worker=2)
        assert tele.tasks_started == 1
        assert list(tele.active) == [(2, "bt/Ckpt_E")]
        assert tele.active[(2, "bt/Ckpt_E")]["pid"] == 7
        tele.on_event(*_beat(interval=3), worker=2)
        assert tele.active[(2, "bt/Ckpt_E")]["interval"] == 3
        tele.on_event("bt/Ckpt_E", PhaseChanged(ts_ns=1.2, core=MACHINE,
                                                phase="simulate"), worker=2)
        assert tele.active[(2, "bt/Ckpt_E")]["phase"] == "simulate"
        tele.on_event(*_finished(), worker=2)
        assert tele.tasks_finished == 1
        assert tele.tasks_failed == 0
        assert tele.active == {}
        assert tele.frames == 4

    def test_failed_task_counted(self):
        tele = CampaignTelemetry()
        tele.on_event(*_finished(ok=False))
        assert tele.tasks_failed == 1

    def test_heartbeat_instruction_deltas_accumulate(self):
        tele = CampaignTelemetry()
        tele.on_event(*_beat(instructions=100))
        tele.on_event(*_beat(instructions=250))
        assert tele.counters["instructions"] == 250

    def test_instruction_counter_restart_treated_as_fresh_run(self):
        # A dependent's nested inline baseline restarts the cumulative
        # count; the delta must clamp, never go negative.
        tele = CampaignTelemetry()
        tele.on_event(*_beat(instructions=1000))
        tele.on_event(*_beat(instructions=40))
        assert tele.counters["instructions"] == 1040

    def test_same_label_workers_count_instructions_apart(self):
        # Fan-out workers share a ``workload/config`` label across keys:
        # two workers' interleaved boundary streams under one label must
        # sum to both runs' totals, whatever the interleaving, and one
        # worker finishing must not restart the other's count.
        tele = CampaignTelemetry()
        for worker, instructions in ((0, 100), (1, 1000), (0, 200),
                                     (1, 2000), (0, 300)):
            tele.on_frame_dict(
                frame_dict(*_beat(task="cg/Ckpt_E",
                                  instructions=instructions)),
                worker=worker,
            )
        tele.on_frame_dict(frame_dict(*_finished(task="cg/Ckpt_E")),
                           worker=0)
        tele.on_frame_dict(
            frame_dict(*_beat(task="cg/Ckpt_E", instructions=3000)),
            worker=1,
        )
        assert tele.malformed == 0
        assert tele.counters["instructions"] == 300 + 3000

    def test_same_label_workers_stay_active_apart(self):
        # Two workers running one ``workload/config`` label: the first
        # to finish must leave the other's task active.
        tele = CampaignTelemetry()
        for worker in (0, 1):
            tele.on_frame_dict(frame_dict(*_started(task="cg/Ckpt_E")),
                               worker=worker)
        assert tele.snapshot()["tasks_active"] == ["cg/Ckpt_E", "cg/Ckpt_E"]
        tele.on_frame_dict(frame_dict(*_finished(task="cg/Ckpt_E")),
                           worker=0)
        assert tele.malformed == 0
        assert list(tele.active) == [(1, "cg/Ckpt_E")]
        assert tele.snapshot()["tasks_active"] == ["cg/Ckpt_E"]

    def test_metrics_delta_folds_counters(self):
        tele = CampaignTelemetry()
        tele.on_event(*_end(interval=0, logged_records=5))
        tele.on_event(*_end(interval=1, logged_records=3))
        assert tele.counters["logged_records"] == 8

    def test_finished_merges_phase_attribution(self):
        tele = CampaignTelemetry()
        tele.on_event(*_finished(
            phase_seconds={"simulate": 2.0}, phase_counts={"simulate": 1},
        ))
        tele.on_event(*_finished(
            task="is/Ckpt_E",
            phase_seconds={"simulate": 1.0, "compile": 0.5},
            phase_counts={"simulate": 1, "compile": 1},
        ))
        assert tele.profiler.seconds["simulate"] == 3.0
        assert tele.profiler.counts == {"simulate": 2, "compile": 1}
        assert tele.tasks_finished == 2
        assert "campaign wall-clock attribution" in tele.attribution_table()

    def test_malformed_wire_dict_counted_and_dropped(self):
        tele = CampaignTelemetry()
        task, event = _started()
        doc = frame_dict(task, event)
        tele.on_frame_dict({"task": task, "event": {"name": "task_started"}})
        tele.on_frame_dict("not even a dict")
        tele.on_frame_dict({**doc, "surprise": 1})
        tele.on_frame_dict({**doc, "task": 7})
        assert tele.malformed == 4
        assert tele.frames == 0
        tele.on_frame_dict(doc, worker=1)
        assert tele.frames == 1
        assert list(tele.active) == [(1, "bt/Ckpt_E")]

    def test_subscriber_exceptions_are_swallowed(self):
        tele = CampaignTelemetry()
        seen = []

        def broken(t):
            raise RuntimeError("dashboard fell over")

        tele.subscribers.append(broken)
        tele.subscribers.append(lambda t: seen.append(t.frames))
        tele.on_event(*_started())
        assert seen == [1]


class TestSnapshots:
    def test_snapshot_has_exactly_the_published_fields(self):
        tele = CampaignTelemetry(progress=ProgressTracker())
        tele.on_event(*_started())
        tele.on_event(*_beat())
        snap = tele.snapshot()
        assert set(snap) == set(SNAPSHOT_FIELDS)
        assert snap["tasks_active"] == ["bt/Ckpt_E"]
        assert snap["counters"]["instructions"] == 100

    def test_progress_counters_ride_along(self):
        progress = ProgressTracker()
        progress.record("bt", "Ckpt_E", "sim", 0.5)
        progress.record_miss()
        progress.emit(WorkerDied(ts_ns=0.0, core=MACHINE, label="w", pid=1))
        snap = CampaignTelemetry(progress=progress).snapshot()
        assert snap["progress"]["runs"] == 1
        assert snap["progress"]["simulated"] == 1
        assert snap["progress"]["disk_misses"] == 1
        assert snap["progress"]["worker_deaths"] == 1

    def test_no_progress_means_empty_subdict(self):
        assert CampaignTelemetry().snapshot()["progress"] == {}

    def test_pool_gauges_and_utilization(self):
        tele = CampaignTelemetry()
        tele.update_pool(workers=4, busy=3, queue_depth=7)
        snap = tele.snapshot()
        assert snap["workers"] == 4
        assert snap["busy"] == 3
        assert snap["queue_depth"] == 7
        assert snap["rates"]["utilization"] == 0.75

    def test_writer_rate_limits_and_close_always_writes(self, tmp_path):
        clock_t = [0.0]
        path = tmp_path / "telemetry.jsonl"
        tele = CampaignTelemetry(snapshot_path=path,
                                 snapshot_interval_s=0.5,
                                 clock=lambda: clock_t[0])
        tele.on_event(*_started())  # due immediately: first snapshot
        tele.on_event(*_beat())     # 0.0s later: rate-limited away
        assert tele.snapshots_written == 1
        final = tele.close()
        assert tele.snapshots_written == 2
        assert final["frames"] == 2
        docs = read_snapshots(path)
        assert [d["frames"] for d in docs] == [1, 2]
        # close() is idempotent: no third line.
        tele.close()
        assert tele.snapshots_written == 2

    def test_no_snapshot_path_means_no_writer(self):
        tele = CampaignTelemetry()
        assert tele.writer is None
        assert tele.snapshots_written == 0
        tele.close()  # still fine

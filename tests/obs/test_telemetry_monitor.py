"""Monitor rendering: dumb-terminal blocks, rate limiting, replay."""

import io

from repro.obs.events import MACHINE, IntervalBoundary, TaskStarted
from repro.obs.telemetry.aggregate import CampaignTelemetry
from repro.obs.telemetry.monitor import Monitor, render_snapshot, replay
from repro.obs.telemetry.snapshots import SnapshotWriter


def _beat(interval, instructions):
    return IntervalBoundary(ts_ns=1.5, core=MACHINE, index=interval,
                            instructions=instructions)


def _telemetry():
    tele = CampaignTelemetry()
    tele.on_event("bt/Ckpt_E", TaskStarted(ts_ns=1.0, core=MACHINE, pid=7),
                  worker=0)
    tele.on_event("bt/Ckpt_E", _beat(2, 5000))
    tele.update_pool(workers=2, busy=1, queue_depth=3)
    return tele


class TestRenderSnapshot:
    def test_renders_the_core_lines(self):
        block = render_snapshot(_telemetry().snapshot())
        assert "campaign telemetry" in block
        assert "pool: 2 workers, 1 busy" in block
        assert "tasks: 1 started, 0 finished, 1 active" in block
        assert "active: bt/Ckpt_E" in block
        assert "sim-iterations/s" in block

    def test_inline_execution_renders_without_pool(self):
        block = render_snapshot(CampaignTelemetry().snapshot())
        assert "inline execution" in block

    def test_active_list_caps_at_four(self):
        tele = CampaignTelemetry()
        for i in range(6):
            tele.on_event(f"t{i}", TaskStarted(ts_ns=1.0, core=MACHINE, pid=i))
        block = render_snapshot(tele.snapshot())
        assert "(+2 more)" in block

    def test_renders_from_deserialized_snapshots_identically(self, tmp_path):
        # Live and replayed output must match: both render the dict.
        tele = _telemetry()
        snap = tele.snapshot()
        writer = SnapshotWriter(tmp_path / "t.jsonl")
        writer.write(snap)
        from repro.obs.telemetry.snapshots import read_snapshots

        [loaded] = read_snapshots(tmp_path / "t.jsonl")
        loaded = {k: v for k, v in loaded.items() if k not in ("v", "kind")}
        assert render_snapshot(loaded) == render_snapshot(snap)


class TestMonitor:
    def test_plain_blocks_on_non_tty(self, monkeypatch):
        monkeypatch.setenv("TERM", "dumb")
        out = io.StringIO()
        monitor = Monitor(stream=out, refresh_s=0.0)
        monitor.render(_telemetry().snapshot())
        text = out.getvalue()
        assert "\x1b[" not in text
        assert text.startswith("-" * 64)
        assert monitor.renders == 1

    def test_update_rate_limits_on_injected_clock(self):
        clock_t = [0.0]
        out = io.StringIO()
        monitor = Monitor(stream=out, refresh_s=0.5,
                          clock=lambda: clock_t[0])
        tele = _telemetry()
        monitor.attach(tele)
        tele.on_event("bt/Ckpt_E", _beat(3, 6000))
        assert monitor.renders == 1
        tele.on_event("bt/Ckpt_E", _beat(4, 7000))
        assert monitor.renders == 1  # within refresh window
        clock_t[0] = 1.0
        tele.on_event("bt/Ckpt_E", _beat(5, 8000))
        assert monitor.renders == 2

    def test_finish_always_renders_plain(self, monkeypatch):
        monkeypatch.setenv("TERM", "xterm-256color")
        out = io.StringIO()  # not a tty: still plain
        monitor = Monitor(stream=out)
        monitor.finish(_telemetry().snapshot())
        assert "\x1b[" not in out.getvalue()
        assert "campaign telemetry" in out.getvalue()


class TestReplay:
    def test_missing_file_exits_2(self, tmp_path):
        out = io.StringIO()
        assert replay(tmp_path / "absent.jsonl", stream=out) == 2
        assert "no snapshot file" in out.getvalue()

    def test_empty_stream_exits_1(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text("")
        out = io.StringIO()
        assert replay(path, stream=out) == 1
        assert "no committed snapshots" in out.getvalue()

    def test_replay_renders_every_snapshot_and_a_summary(self, tmp_path):
        tele = _telemetry()
        writer = SnapshotWriter(tmp_path / "t.jsonl", min_interval_s=0.0)
        writer.write(tele.snapshot())
        tele.on_event("is/Ckpt_E", TaskStarted(ts_ns=3.0, core=MACHINE, pid=8))
        writer.write(tele.snapshot())
        out = io.StringIO()
        assert replay(tmp_path / "t.jsonl", stream=out) == 0
        text = out.getvalue()
        assert text.count("campaign telemetry") == 2
        assert "replayed 2 snapshots" in text

    def test_torn_tail_still_replays_committed_prefix(self, tmp_path):
        writer = SnapshotWriter(tmp_path / "t.jsonl", min_interval_s=0.0)
        writer.write(_telemetry().snapshot())
        with open(writer.path, "a", encoding="utf-8") as fh:
            fh.write('{"v": 1, "kind": "telemetry-snapsh')  # crash mid-write
        out = io.StringIO()
        assert replay(writer.path, stream=out) == 0
        assert "replayed 1 snapshots" in out.getvalue()

"""The campaign daemon end to end: submissions over the socket, reports
bit-identical to solo runs, concurrent-client dedupe, frame streaming,
the claim-free read path for cached keys, and restart from the disk
cache.

Unix socket paths are capped around 100 bytes, so sockets live in a
short ``/tmp`` directory rather than pytest's deep ``tmp_path``.
"""

import json
import shutil
import socket
import tempfile
import threading
import time
from pathlib import Path

import pytest

from repro.experiments.cache import KIND_RUN, ResultCache
from repro.experiments.runner import ExperimentRunner
from repro.obs.telemetry.aggregate import CampaignTelemetry
from repro.resilience.locks import KeyLock
from repro.service import (
    CampaignClient,
    CampaignDaemon,
    CampaignSpec,
    ServiceError,
    campaign_report,
    wait_for_socket,
)
from repro.service.daemon import check_socket_path
from repro.service.protocol import PROTOCOL_VERSION, decode_frame, encode_frame

_SHAPE = dict(num_cores=2, region_scale=0.05, reps=2)


def _spec(**overrides):
    kwargs = dict(workloads=("is",), configs=("Ckpt_NE",), **_SHAPE)
    kwargs.update(overrides)
    return CampaignSpec(**kwargs)


def _canon(report):
    return json.dumps(report, sort_keys=True)


def _solo_report(tmp_path, spec):
    runner = ExperimentRunner(
        num_cores=spec.num_cores, region_scale=spec.region_scale,
        reps=spec.reps, cache_dir=tmp_path / "solo",
    )
    return campaign_report(runner, spec)


@pytest.fixture()
def sock():
    short = Path(tempfile.mkdtemp(prefix="acrd."))
    yield short / "s.sock"
    shutil.rmtree(short, ignore_errors=True)


def _serve(cache_dir, sock):
    """Start a daemon on a background thread; returns (daemon, thread)."""
    daemon = CampaignDaemon(cache_dir, sock, jobs=1)
    thread = threading.Thread(target=daemon.serve_forever, daemon=True)
    thread.start()
    assert wait_for_socket(sock, timeout_s=10.0)
    return daemon, thread


def _stop(daemon, thread):
    daemon.stop()
    thread.join(timeout=10.0)
    assert not thread.is_alive()


@pytest.fixture()
def daemon(tmp_path, sock):
    daemon, thread = _serve(tmp_path / "cache", sock)
    yield daemon
    _stop(daemon, thread)


class TestSubmit:
    def test_report_bit_identical_to_solo_runner(self, daemon, sock,
                                                 tmp_path):
        spec = _spec()
        with CampaignClient(sock) as client:
            served = client.submit(spec)
        assert _canon(served) == _canon(_solo_report(tmp_path, spec))

    def test_repeat_submission_costs_zero_simulations(self, daemon, sock):
        spec = _spec()
        with CampaignClient(sock) as client:
            first = client.submit(spec)
            sims = client.ping()["simulations"]
            second = client.submit(spec)
            after = client.ping()["simulations"]
        assert first == second
        assert sims == 2  # NoCkpt + Ckpt_NE, exactly once
        assert after == sims

    def test_streamed_frames_arrive_with_the_result(self, daemon, sock):
        frames = []
        with CampaignClient(sock) as client:
            report = client.submit(
                _spec(), stream=True, on_frame=frames.append
            )
        assert report["runs"]
        assert frames, "stream=True produced no telemetry frames"
        # Each frame is one task-tagged event that decodes strictly.
        telemetry = CampaignTelemetry()
        for doc in frames:
            telemetry.on_frame_dict(doc)
        assert telemetry.malformed == 0
        assert telemetry.frames == len(frames)
        assert telemetry.tasks_finished == telemetry.tasks_started > 0

    @pytest.mark.parametrize(
        "field, value", [("num_cores", "8"), ("region_scale", "x"),
                         ("reps", True)],
    )
    def test_malformed_field_is_an_error_reply(self, daemon, sock, field,
                                               value):
        doc = _spec().to_dict()
        doc[field] = value
        with CampaignClient(sock) as client:
            client._send({"op": "submit", "campaign": doc})
            reply = client._recv()
            assert reply["op"] == "error"
            assert field in reply["message"]
            assert client.ping()["op"] == "status"
            assert client.ping()["campaigns"]["active"] == 0

    def test_bad_campaign_is_an_error_reply_not_a_crash(self, daemon,
                                                        sock):
        with CampaignClient(sock) as client:
            client._send({"op": "submit", "campaign": {"bogus": 1}})
            reply = client._recv()
            assert reply["op"] == "error"
            assert "bad campaign" in reply["message"]
            # The connection (and daemon) survive for real work.
            assert client.ping()["op"] == "status"


class TestConcurrentClients:
    def test_overlapping_sweeps_execute_each_key_exactly_once(
        self, daemon, sock
    ):
        # A and B overlap on the NoCkpt baseline and Ckpt_NE; B adds
        # ReCkpt_E.  Three unique canonical keys — and exactly three
        # simulations across both clients, however the claims land.
        spec_a = _spec()
        spec_b = _spec(configs=("Ckpt_NE", "ReCkpt_E"))
        barrier = threading.Barrier(2)
        reports, errors = {}, []

        def run(name, spec):
            try:
                with CampaignClient(sock) as client:
                    barrier.wait(timeout=10.0)
                    reports[name] = client.submit(spec)
            except Exception as exc:  # surfaced below
                errors.append((name, exc))

        threads = [
            threading.Thread(target=run, args=("a", spec_a)),
            threading.Thread(target=run, args=("b", spec_b)),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300.0)
        assert not errors, errors
        assert daemon.simulations == 3
        # Shared rows agree byte-for-byte between the two reports.
        rows_b = {r["key"]: r for r in reports["b"]["runs"]}
        for row in reports["a"]["runs"]:
            assert rows_b[row["key"]] == row

    def test_concurrent_identical_sweeps_simulate_once(self, daemon,
                                                       sock):
        barrier = threading.Barrier(2)
        errors = []

        def run():
            try:
                with CampaignClient(sock) as client:
                    barrier.wait(timeout=10.0)
                    client.submit(_spec())
            except Exception as exc:
                errors.append(exc)

        threads = [threading.Thread(target=run) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300.0)
        assert not errors, errors
        assert daemon.simulations == 2  # NoCkpt + Ckpt_NE


class TestControlPlane:
    def test_ping_status_shape(self, daemon, sock):
        with CampaignClient(sock) as client:
            doc = client.ping()
        assert doc == {
            "op": "status",
            "v": PROTOCOL_VERSION,
            "campaigns": {"served": 0, "active": 0},
            "simulations": 0,
            "quarantined": 0,
            "wire_malformed": 0,
        }

    def test_ping_does_not_scan_the_cache(self, daemon, sock,
                                          monkeypatch):
        with CampaignClient(sock) as client:
            client.submit(_spec())
            globs = []
            for name in ("glob", "rglob", "iterdir"):
                real = getattr(Path, name)
                monkeypatch.setattr(
                    Path, name,
                    lambda self, *a, _real=real, _n=name, **kw: (
                        globs.append(_n) or _real(self, *a, **kw)
                    ),
                )
            client.ping()
        assert globs == []

    def test_malformed_wire_is_counted_and_survivable(self, daemon,
                                                      sock):
        raw = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        raw.settimeout(10.0)
        try:
            raw.connect(str(sock))
            raw.sendall(b"this is not a wire frame\n")
            raw.sendall(encode_frame({"op": "ping"}))
            buf = b""
            while b"\n" not in buf:
                buf += raw.recv(65536)
            reply = decode_frame(buf.split(b"\n", 1)[0])
        finally:
            raw.close()
        assert reply["op"] == "status"
        assert reply["wire_malformed"] >= 1

    def test_server_only_op_from_client_is_rejected(self, daemon, sock):
        with CampaignClient(sock) as client:
            client._send({"op": "accepted"})
            reply = client._recv()
        assert reply["op"] == "error"
        assert "accepted" in reply["message"]

    def test_watcher_sees_another_clients_campaign(self, daemon, sock):
        frames = []
        ready = threading.Event()

        def watch():
            with CampaignClient(sock, timeout_s=60.0) as watcher:
                watcher._send({"op": "watch"})
                assert watcher._recv()["op"] == "accepted"
                ready.set()
                watcher.watch(
                    frames.append, stop=lambda: len(frames) >= 1
                )

        thread = threading.Thread(target=watch, daemon=True)
        thread.start()
        assert ready.wait(timeout=10.0)
        with CampaignClient(sock) as client:
            client.submit(_spec())
        thread.join(timeout=60.0)
        assert frames, "watcher received no frames"

    def test_shutdown_stops_the_daemon(self, daemon, sock):
        with CampaignClient(sock) as client:
            client.shutdown()
        # The serve loop notices the stop flag within one heartbeat,
        # closes the listener and unlinks the socket file.
        deadline = time.monotonic() + 10.0
        while sock.exists() and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not daemon.running
        assert not sock.exists()
        assert not wait_for_socket(sock, timeout_s=0.3)

    def test_client_error_when_no_daemon(self, sock):
        with pytest.raises(ServiceError, match="cannot reach"):
            CampaignClient(sock).connect()

    def test_wait_for_socket_gives_up(self, sock):
        assert not wait_for_socket(sock, timeout_s=0.2)


class TestSocketPathGuard:
    def test_overlong_path_is_a_clear_error(self):
        with pytest.raises(ValueError, match="too long"):
            check_socket_path("/tmp/" + "x" * 200 + "/s.sock")

    def test_short_path_passes(self):
        assert check_socket_path("/tmp/ok.sock") == Path("/tmp/ok.sock")


class TestReadPath:
    def test_cached_resubmission_takes_no_lease(self, daemon, sock,
                                                monkeypatch):
        spec = _spec()
        with CampaignClient(sock) as client:
            first = client.submit(spec)
            sims = client.ping()["simulations"]
            attempts = []
            real = KeyLock.try_acquire
            monkeypatch.setattr(
                KeyLock, "try_acquire",
                lambda self: attempts.append(self.path) or real(self),
            )
            second = client.submit(spec)
            assert client.ping()["simulations"] == sims
        assert first == second
        assert attempts == []
        assert list(daemon.cache.root.glob("*/*.lock")) == []

    def test_corrupt_entry_is_quarantined_once_and_simulated_once(
        self, daemon, sock, tmp_path
    ):
        spec = _spec()
        with CampaignClient(sock) as client:
            client.submit(spec)
            before = client.ping()
        runner = ExperimentRunner(**_SHAPE)
        [dependent] = [
            runner.cache_key(wl, req)
            for wl, req in spec.pairs(runner) if not req.is_baseline
        ]
        daemon.cache.path_for(dependent).write_text("{not json")

        barrier = threading.Barrier(2)
        reports, errors = [], []

        def resubmit():
            try:
                with CampaignClient(sock) as client:
                    barrier.wait(timeout=10.0)
                    reports.append(client.submit(spec))
            except Exception as exc:  # surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=resubmit) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300.0)
        assert not errors, errors
        with CampaignClient(sock) as client:
            after = client.ping()
        assert after["quarantined"] == before["quarantined"] + 1
        assert after["simulations"] == before["simulations"] + 1
        solo = _canon(_solo_report(tmp_path, spec))
        assert [_canon(r) for r in reports] == [solo, solo]
        assert daemon.cache.load_payload(dependent, KIND_RUN) is not None

    def test_each_key_is_counted_once(self, tmp_path):
        # The read-first lookup counts hits; a miss is counted once, by
        # the claim that simulates it — never by both.
        cache = ResultCache(tmp_path / "cache")
        spec = _spec()
        for expect in (
            {"disk_misses": 2, "disk_hits": 0, "simulated": 2},
            {"disk_misses": 0, "disk_hits": 2, "simulated": 0},
        ):
            runner = ExperimentRunner(cache=cache, **_SHAPE)
            campaign_report(runner, spec)
            assert {k: getattr(runner.progress, k) for k in expect} == expect


class TestRestart:
    def test_restarted_daemon_serves_the_cache_without_simulating(
        self, tmp_path, sock
    ):
        spec = _spec()
        first, thread = _serve(tmp_path / "cache", sock)
        try:
            with CampaignClient(sock) as client:
                before = client.submit(spec)
        finally:
            _stop(first, thread)
        second, thread = _serve(tmp_path / "cache", sock)
        try:
            with CampaignClient(sock) as client:
                after = client.submit(spec)
                assert client.ping()["simulations"] == 0
        finally:
            _stop(second, thread)
        assert _canon(after) == _canon(before)

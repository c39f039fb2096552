"""The campaign scheduler daemon: submissions in, cached results out.

One :class:`CampaignDaemon` owns the disk
:class:`~repro.experiments.cache.ResultCache` — the one and only result
store (DESIGN §4.3: there is no in-memory result tier) — and a Unix
socket listener.  Each client connection gets a handler thread and — per
``submit`` — its own :class:`~repro.experiments.runner.ExperimentRunner`
(handed the shared cache via the runner's ``cache=`` parameter), so
concurrent submissions dedupe through the runner's per-key claims
exactly like independent processes would.

A submission is :func:`~repro.service.campaigns.campaign_report` on that
runner, whose one ``run_many`` reads every key first: a key already in
the cache costs one validated read (a corrupt entry is quarantined and
reads as a miss) and takes no claim; each miss is simulated under its
claim, baselines before dependents, so a client whose key is claimed by
a peer waits for the published entry instead of re-simulating it —
total simulations == unique canonical keys.

Telemetry frames stream back over the wire: the submitting connection
(``stream``) and any global ``watch`` subscribers receive every event a
campaign emits, as a task-tagged frame, so ``acr-repro monitor
--attach`` renders a remote campaign live; with no subscriber, an
event is folded and never encoded.  A client that disappears mid-stream
is dropped, never crashed into — the campaign completes and stores
regardless.
"""

from __future__ import annotations

import json
import os
import socket
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.experiments.cache import ResultCache
from repro.experiments.progress import ProgressTracker
from repro.experiments.runner import ExperimentRunner
from repro.obs.telemetry.aggregate import CampaignTelemetry
from repro.obs.telemetry.emit import frame_dict
from repro.service.campaigns import CampaignSpec, campaign_report
from repro.service.protocol import decode_stream, encode_frame
from repro.util.atomicio import append_line

__all__ = ["CampaignDaemon", "check_socket_path"]

#: Portable AF_UNIX ``sun_path`` budget (Linux 108, macOS 104, minus NUL).
_MAX_SOCKET_PATH = 100
#: How often the accept loop wakes to notice :meth:`CampaignDaemon.stop`.
_ACCEPT_POLL_S = 0.2


def check_socket_path(path: Union[str, Path]) -> Path:
    """Validate an AF_UNIX socket path (length is the silent killer:
    overlong paths fail with EINVAL deep inside ``bind``)."""
    path = Path(path)
    if len(os.fsencode(str(path))) > _MAX_SOCKET_PATH:
        raise ValueError(
            f"socket path too long for AF_UNIX ({len(str(path))} chars > "
            f"{_MAX_SOCKET_PATH}): {path} — use a shorter path, e.g. "
            f"under /tmp"
        )
    return path


class _Connection:
    """One client connection: the socket plus its send discipline.

    Sends are serialised under a lock (campaign threads forward frames
    into connections owned by other threads) and failures flip ``alive``
    — a vanished client stops receiving, the campaign keeps running.
    """

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.lock = threading.Lock()
        self.alive = True
        self.watching = False

    def send(self, doc: Dict[str, Any]) -> bool:
        if not self.alive:
            return False
        try:
            data = encode_frame(doc)
            with self.lock:
                self.sock.sendall(data)
            return True
        except OSError:
            self.alive = False
            return False


class _ForwardingTelemetry(CampaignTelemetry):
    """Campaign telemetry that also forwards each event to the service's
    subscribers (the submitting client + global watchers)."""

    def __init__(self, forward, **kwargs: Any) -> None:
        super().__init__(**kwargs)
        self._forward = forward

    def on_event(self, task, event, worker: int = -1) -> None:
        super().on_event(task, event, worker=worker)
        try:
            self._forward(task, event)
        except Exception:
            pass  # advisory: a broken subscriber must not kill a run


class CampaignDaemon:
    """Long-running scheduler over one shared disk cache."""

    def __init__(
        self,
        cache_dir: Union[str, Path],
        socket_path: Union[str, Path],
        jobs: int = 1,
        lock_stale_s: float = 600.0,
        echo=None,
    ) -> None:
        self.socket_path = check_socket_path(socket_path)
        self.cache = ResultCache(cache_dir)
        self.jobs = jobs
        self.lock_stale_s = lock_stale_s
        self.echo = echo or (lambda line: None)
        self._stop = threading.Event()
        self._state_lock = threading.Lock()
        self._connections: List[_Connection] = []
        self._handlers: List[threading.Thread] = []
        self.campaigns_served = 0
        self.campaigns_active = 0
        self.simulations = 0
        self.wire_malformed = 0
        self._listener: Optional[socket.socket] = None

    # ---------------------------------------------------------------- server --
    @property
    def running(self) -> bool:
        return self._listener is not None and not self._stop.is_set()

    def stop(self) -> None:
        """Ask the serve loop to exit (idempotent, thread-safe)."""
        self._stop.set()

    def serve_forever(self) -> None:
        """Bind, listen, dispatch — until :meth:`stop`."""
        try:
            self.socket_path.unlink()
        except OSError:
            pass
        listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        listener.bind(str(self.socket_path))
        listener.listen(16)
        listener.settimeout(_ACCEPT_POLL_S)
        self._listener = listener
        self.echo(f"serving on {self.socket_path} (jobs={self.jobs})")
        self._audit("serve", socket=str(self.socket_path))
        try:
            while not self._stop.is_set():
                try:
                    sock, _ = listener.accept()
                except socket.timeout:
                    continue
                except OSError:
                    break
                conn = _Connection(sock)
                with self._state_lock:
                    self._connections.append(conn)
                thread = threading.Thread(
                    target=self._handle, args=(conn,), daemon=True,
                    name="acr-service-conn",
                )
                self._handlers.append(thread)
                thread.start()
        finally:
            self._listener = None
            listener.close()
            try:
                self.socket_path.unlink()
            except OSError:
                pass
            for thread in self._handlers:
                thread.join(timeout=5.0)
            self._audit("stopped")
            self.echo("service stopped")

    # -------------------------------------------------------------- handlers --
    def _handle(self, conn: _Connection) -> None:
        """One connection's read loop: decode messages, dispatch ops."""
        buf = b""
        conn.sock.settimeout(0.5)
        try:
            while conn.alive and not self._stop.is_set():
                try:
                    data = conn.sock.recv(65536)
                except socket.timeout:
                    continue
                except OSError:
                    break
                if not data:
                    break
                buf += data
                messages, buf, malformed = decode_stream(buf)
                if malformed:
                    with self._state_lock:
                        self.wire_malformed += malformed
                for msg in messages:
                    if not self._dispatch(conn, msg):
                        return
        finally:
            conn.alive = False
            with self._state_lock:
                if conn in self._connections:
                    self._connections.remove(conn)
            try:
                conn.sock.close()
            except OSError:
                pass

    def _dispatch(self, conn: _Connection, msg: Dict[str, Any]) -> bool:
        """Handle one message; returns False to end the connection."""
        op = msg["op"]
        if op == "ping":
            conn.send(self.status())
            return True
        if op == "watch":
            conn.watching = True
            conn.send({"op": "accepted", "watch": True})
            return True
        if op == "shutdown":
            self._audit("shutdown")
            conn.send({"op": "bye"})
            self.stop()
            return False
        if op == "submit":
            self._serve_campaign(conn, msg)
            return True
        conn.send({"op": "error", "message": f"client cannot send {op!r}"})
        return True

    # -------------------------------------------------------------- campaigns --
    def _serve_campaign(self, conn: _Connection, msg: Dict[str, Any]) -> None:
        try:
            spec = CampaignSpec.from_dict(msg.get("campaign"))
        except ValueError as exc:
            conn.send({"op": "error", "message": f"bad campaign: {exc}"})
            return
        stream = bool(msg.get("stream"))
        with self._state_lock:
            self.campaigns_active += 1
        progress = ProgressTracker()
        telemetry = _ForwardingTelemetry(
            lambda task, event: self._forward_frame(
                conn if stream else None, task, event
            ),
            progress=progress,
        )
        try:
            runner = ExperimentRunner(
                num_cores=spec.num_cores,
                region_scale=spec.region_scale,
                reps=spec.reps,
                jobs=self.jobs,
                cache=self.cache,
                progress=progress,
                lock_stale_s=self.lock_stale_s,
                engine=spec.engine,
                telemetry=telemetry,
            )
            keys = len(spec.pairs(runner))
            conn.send({"op": "accepted", "keys": keys})
            report = campaign_report(runner, spec)
            # Settle the accounting BEFORE the result frame leaves: a
            # client holding its report may immediately ping and must
            # see this campaign's totals.
            self._account(progress)
            conn.send({"op": "result", "report": report})
            self._audit(
                "campaign",
                sha256=report["sha256"],
                keys=keys,
                simulated=progress.simulated,
                disk_hits=progress.disk_hits,
            )
        except Exception as exc:  # a bad campaign must not kill the daemon
            self._account(progress)
            conn.send(
                {"op": "error", "message": f"{type(exc).__name__}: {exc}"}
            )
            self._audit("campaign-error", error=str(exc))

    def _account(self, progress: ProgressTracker) -> None:
        """Fold one finished campaign into the daemon's totals (called
        exactly once per submission, before the client hears back)."""
        with self._state_lock:
            self.campaigns_active -= 1
            self.campaigns_served += 1
            self.simulations += progress.simulated

    # -------------------------------------------------------------- telemetry --
    def _forward_frame(
        self, submitter: Optional[_Connection], task: str, event: Any
    ) -> None:
        """Fan one task-tagged event out, as a wire frame, to the
        submitter and every watcher (encoded only when someone listens)."""
        targets: List[_Connection] = []
        with self._state_lock:
            if submitter is not None and submitter.alive:
                targets.append(submitter)
            targets.extend(
                c for c in self._connections
                if c.watching and c.alive and c is not submitter
            )
        if not targets:
            return
        wire = {"op": "frame", "frame": frame_dict(task, event)}
        for target in targets:
            target.send(wire)

    # ---------------------------------------------------------------- status --
    def status(self) -> Dict[str, Any]:
        """The daemon's health document (the ``ping`` reply)."""
        with self._state_lock:
            campaigns = {
                "served": self.campaigns_served,
                "active": self.campaigns_active,
            }
            simulations = self.simulations
            malformed = self.wire_malformed
        return {
            "op": "status",
            "campaigns": campaigns,
            "simulations": simulations,
            "quarantined": self.cache.quarantined,
            "wire_malformed": malformed,
        }

    def _audit(self, event: str, **fields: Any) -> None:
        """One line in the service audit journal beside the cache
        (same torn-tail-tolerant JSONL contract as every other stream)."""
        doc = {"v": 1, "event": event, "ts_s": time.time()}
        doc.update(fields)
        try:
            append_line(
                self.cache.root / "service.jsonl",
                json.dumps(doc, sort_keys=True),
            )
        except OSError:
            pass  # auditing is advisory

"""The campaign service client: a thin, strict wire-protocol speaker.

:class:`CampaignClient` holds one connection to a
:class:`~repro.service.daemon.CampaignDaemon`, frames every request with
:func:`~repro.service.protocol.encode_frame`, and reassembles replies
through :func:`~repro.service.protocol.decode_stream` — so a read that
lands mid-message just buffers the torn tail until the rest arrives.
Errors the daemon reports become :class:`ServiceError`; wire-shape drift
surfaces as :class:`~repro.service.protocol.ProtocolError`.  The client
is deliberately dumb: campaign semantics (reads, dedupe, phases)
all live daemon-side, so any process that can speak line-JSON over a
Unix socket is a full peer.
"""

from __future__ import annotations

import socket
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Union

from repro.service.campaigns import CampaignSpec
from repro.service.protocol import decode_stream, encode_frame

__all__ = ["ServiceError", "CampaignClient", "wait_for_socket"]


class ServiceError(RuntimeError):
    """The daemon reported an error, or the connection died mid-op."""


def wait_for_socket(
    path: Union[str, Path], timeout_s: float = 10.0, poll_s: float = 0.05
) -> bool:
    """Block until a daemon accepts connections on ``path`` (True) or the
    deadline passes (False).  The socket *file* appearing is not enough —
    this probes with a real connect, so a returned True means a live
    listener."""
    path = str(path)
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            probe.connect(path)
            return True
        except OSError:
            time.sleep(poll_s)
        finally:
            probe.close()
    return False


class CampaignClient:
    """One connection to the campaign daemon (context manager)."""

    def __init__(
        self, socket_path: Union[str, Path], timeout_s: float = 600.0
    ) -> None:
        self.socket_path = str(socket_path)
        self.timeout_s = timeout_s
        self._sock: Optional[socket.socket] = None
        self._buf = b""
        self._pending: List[Dict[str, Any]] = []
        #: Complete-but-undecodable wire lines dropped so far.
        self.malformed = 0

    # ------------------------------------------------------------ lifecycle --
    def connect(self) -> "CampaignClient":
        if self._sock is None:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(self.timeout_s)
            try:
                sock.connect(self.socket_path)
            except OSError as exc:
                sock.close()
                raise ServiceError(
                    f"cannot reach campaign daemon at "
                    f"{self.socket_path}: {exc}"
                ) from None
            self._sock = sock
        return self

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def __enter__(self) -> "CampaignClient":
        return self.connect()

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ----------------------------------------------------------------- wire --
    def _send(self, doc: Dict[str, Any]) -> None:
        self.connect()
        assert self._sock is not None
        try:
            self._sock.sendall(encode_frame(doc))
        except OSError as exc:
            raise ServiceError(f"send failed: {exc}") from None

    def _recv(self) -> Dict[str, Any]:
        """The next complete message (buffering torn tails across
        reads); raises :class:`ServiceError` on EOF or timeout."""
        assert self._sock is not None
        while not self._pending:
            try:
                data = self._sock.recv(65536)
            except socket.timeout:
                raise ServiceError(
                    f"no reply from daemon within {self.timeout_s}s"
                ) from None
            except OSError as exc:
                raise ServiceError(f"recv failed: {exc}") from None
            if not data:
                raise ServiceError("daemon closed the connection")
            self._buf += data
            messages, self._buf, malformed = decode_stream(self._buf)
            self.malformed += malformed
            self._pending.extend(messages)
        return self._pending.pop(0)

    # ------------------------------------------------------------------ ops --
    def submit(
        self,
        spec: CampaignSpec,
        stream: bool = False,
        on_frame: Optional[Callable[[Dict[str, Any]], None]] = None,
    ) -> Dict[str, Any]:
        """Run one campaign on the daemon; returns its report document.

        With ``stream=True`` the daemon forwards every telemetry frame
        and ``on_frame`` sees each frame dict as it arrives (frames are
        advisory: a raising callback aborts the client, never the
        campaign, which completes and stores daemon-side regardless).
        """
        self._send(
            {
                "op": "submit",
                "campaign": spec.to_dict(),
                "stream": bool(stream),
            }
        )
        while True:
            msg = self._recv()
            op = msg["op"]
            if op == "accepted":
                continue
            if op == "frame":
                if on_frame is not None:
                    on_frame(msg["frame"])
                continue
            if op == "result":
                return msg["report"]
            if op == "error":
                raise ServiceError(msg.get("message", "unknown error"))
            raise ServiceError(f"unexpected reply {op!r} to submit")

    def ping(self) -> Dict[str, Any]:
        """The daemon's status document (campaigns, simulations, quarantines)."""
        self._send({"op": "ping"})
        msg = self._recv()
        if msg["op"] != "status":
            raise ServiceError(f"unexpected reply {msg['op']!r} to ping")
        return msg

    def shutdown(self) -> None:
        """Ask the daemon to stop serving (acknowledged with ``bye``)."""
        self._send({"op": "shutdown"})
        try:
            msg = self._recv()
        except ServiceError:
            return  # daemon may exit before the bye flushes
        if msg["op"] not in ("bye", "error"):
            raise ServiceError(
                f"unexpected reply {msg['op']!r} to shutdown"
            )

    def watch(
        self,
        on_frame: Callable[[Dict[str, Any]], None],
        stop: Optional[Callable[[], bool]] = None,
    ) -> None:
        """Subscribe to every frame the daemon emits, for any campaign,
        until ``stop()`` goes true, the daemon says ``bye``, or the
        connection ends (a remote monitor's receive loop)."""
        self._send({"op": "watch"})
        while stop is None or not stop():
            try:
                msg = self._recv()
            except ServiceError:
                return
            if msg["op"] == "frame":
                on_frame(msg["frame"])
            elif msg["op"] == "bye":
                return

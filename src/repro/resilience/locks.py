"""Best-effort per-key lockfiles for the shared result cache.

Two ``acr-repro`` invocations (or two campaign-daemon submissions)
pointed at one ``--cache-dir`` can miss on the same key simultaneously
and both pay for the simulation.  A :class:`KeyLock` on the entry's
``cache.lock_path`` is that key's **claim**: the runner that wins it
simulates, the others wait for the winner's entry instead of
recomputing (``ExperimentRunner._claimed``).  The guarantees are deliberately
*best-effort* — correctness never depends on the lock (cache writes are
atomic and idempotent; a duplicated simulation is waste, not a bug), so
every failure mode degrades to "simulate anyway":

* acquisition hard-links a private file already holding the owner
  line to the lock path — atomic, and it fails when the path exists;
* the lockfile records its owner as ``host pid``; a lock whose owner is
  a dead process on this host is broken at once, so a runner killed
  with SIGKILL does not block its peers;
* any other lock older than ``stale_s`` (by mtime) is presumed orphaned
  by a crashed owner and broken.
"""

from __future__ import annotations

import os
import socket
import time
from pathlib import Path
from typing import Optional, Union

__all__ = ["KeyLock"]


class KeyLock:
    """An advisory exclusive lock backed by one exclusively linked
    lockfile."""

    def __init__(
        self, path: Union[str, Path], stale_s: float = 600.0
    ) -> None:
        self.path = Path(path)
        self.stale_s = stale_s
        self.owned = False

    # ---------------------------------------------------------------- acquire --
    def try_acquire(self) -> bool:
        """One non-blocking attempt (stale locks are broken first).

        The claim is published whole, by linking a private file that
        already names the owner: a runner stopped in between leaves no
        claim, never an ownerless one peers would wait out.
        """
        self._break_if_stale()
        tmp = self.path.with_name(
            f"{self.path.name}.{os.getpid()}.{id(self):x}.tmp"
        )
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            fd = os.open(tmp, os.O_CREAT | os.O_TRUNC | os.O_WRONLY)
        except OSError:
            # Unwritable cache directory etc. — locking is best-effort,
            # so behave as if we own the lock and let the caller run.
            self.owned = False
            return True
        try:
            try:
                os.write(
                    fd, f"{socket.gethostname()} {os.getpid()}\n".encode()
                )
            finally:
                os.close(fd)
            os.link(tmp, self.path)
        except FileExistsError:
            return False
        except OSError:
            self.owned = False
            return True
        finally:
            try:
                os.unlink(tmp)
            except OSError:
                pass
        self.owned = True
        return True

    # ---------------------------------------------------------------- release --
    def release(self) -> None:
        """Drop ownership (missing file is fine — someone broke us)."""
        if not self.owned:
            return
        self.owned = False
        try:
            self.path.unlink()
        except OSError:
            pass

    # -------------------------------------------------------------- liveness --
    def heartbeat(self) -> None:
        """Refresh the lockfile mtime to signal the owner is alive.

        Staleness is judged by mtime, so an owner legitimately holding
        the lock longer than ``stale_s`` would get broken by a waiting
        peer.  A runner touches the claims it still holds each time it
        publishes a key; a no-op without ownership, best-effort like
        everything else here.
        """
        if not self.owned:
            return
        try:
            os.utime(self.path)
        except OSError:
            pass

    def _mtime(self) -> Optional[float]:
        """The lockfile's current mtime, or ``None`` when unreadable.

        The single stat point of the staleness protocol (and its test
        seam: scripted subclasses replay stat races deterministically).
        """
        try:
            return self.path.stat().st_mtime
        except OSError:
            return None

    def _orphaned(self) -> bool:
        """One reading: the lock is older than ``stale_s``, or names a
        gone process on this host (a claim from another host, or an
        unreadable file, never does).

        Liveness is ``os.kill(pid, 0)``, which **succeeds on a zombie**:
        a SIGKILLed child reads as alive until its parent reaps it with
        ``waitpid``.  So a dead worker's claim is broken at once only
        after the runner that forked it reaps it (the fan-out does so as
        soon as the worker's sentinel fires); until then a waiting peer
        would sit out the whole ``stale_s`` bound.
        """
        mtime = self._mtime()
        if mtime is None:
            return False
        if time.time() - mtime > self.stale_s:
            return True
        try:
            host, pid = self.path.read_text().split()
            if host == socket.gethostname() and int(pid) > 0:
                os.kill(int(pid), 0)
        except ProcessLookupError:
            return True
        except (OSError, ValueError):
            pass
        return False

    def held(self) -> bool:
        """Whether a live owner holds the lock now: one reading, which
        never breaks it.  An orphaned lock reads as free, since the next
        :meth:`try_acquire` breaks it."""
        return self._mtime() is not None and not self._orphaned()

    def _break_if_stale(self) -> None:
        """Expire a lock whose owner is dead or long gone.

        Orphaning is confirmed by **two** reads: between a single read
        and the unlink, the orphan's owner could release and another
        process recreate the file, and the unlink would then break the
        *fresh* lock.  A second read immediately before unlinking keeps
        that window to the instruction gap (best-effort by design — a
        lost lock costs a duplicated simulation, not correctness).
        """
        if not (self._orphaned() and self._orphaned()):
            return
        try:
            self.path.unlink()
        except OSError:
            pass

"""Per-key lockfile contracts: exclusion, staleness, dead owners,
heartbeats."""

import os
import signal
import socket
import subprocess
import sys
from pathlib import Path

import repro
from repro.resilience.locks import KeyLock


def test_exclusive_acquire_and_release(tmp_path):
    path = tmp_path / "k.lock"
    a = KeyLock(path)
    b = KeyLock(path)
    assert a.try_acquire()
    assert path.exists()
    assert not b.try_acquire()
    a.release()
    assert not path.exists()
    assert b.try_acquire()
    b.release()


def test_lockfile_records_owner_pid(tmp_path):
    path = tmp_path / "k.lock"
    lock = KeyLock(path)
    assert lock.try_acquire()
    assert path.read_text().strip() == f"{socket.gethostname()} {os.getpid()}"
    lock.release()


_HOLDER = """
import sys, time
from repro.resilience.locks import KeyLock
assert KeyLock(sys.argv[1]).try_acquire()
print("held", flush=True)
time.sleep(120)
"""


def test_sigkilled_owner_claim_is_broken_at_once(tmp_path):
    # A runner killed with SIGKILL never releases its claim; the claim
    # names a dead pid on this host, so the next attempt breaks it
    # without waiting out the (fresh) mtime.
    path = tmp_path / "k.lock"
    src = str(Path(repro.__file__).resolve().parents[1])
    child = subprocess.Popen(
        [sys.executable, "-c", _HOLDER, str(path)],
        stdout=subprocess.PIPE, text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    try:
        assert child.stdout.readline().strip() == "held"
        assert not KeyLock(path, stale_s=600.0).try_acquire()
    finally:
        child.send_signal(signal.SIGKILL)
        child.wait(timeout=30)
        child.stdout.close()
    assert path.exists()
    lock = KeyLock(path, stale_s=600.0)
    assert lock.try_acquire()
    assert lock.owned
    lock.release()


def test_live_or_foreign_owner_claim_is_kept(tmp_path):
    path = tmp_path / "k.lock"
    sleeper = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(120)"])
    try:
        # A live process on this host (not the caller) holds it.
        path.write_text(f"{socket.gethostname()} {sleeper.pid}\n")
        assert not KeyLock(path, stale_s=600.0).try_acquire()
    finally:
        sleeper.kill()
        sleeper.wait(timeout=30)
    # Another host's claim is never judged by local pids, even one that
    # names a pid that is dead here.
    path.write_text(f"not-{socket.gethostname()} {sleeper.pid}\n")
    assert not KeyLock(path, stale_s=600.0).try_acquire()
    assert path.exists()


def test_stale_lock_is_broken_by_mtime(tmp_path):
    path = tmp_path / "k.lock"
    path.write_text("99999\n")  # orphan left by a crashed owner
    old = path.stat().st_mtime - 3600
    os.utime(path, (old, old))
    lock = KeyLock(path, stale_s=600.0)
    assert lock.try_acquire()
    assert lock.owned
    lock.release()


def test_fresh_lock_is_not_broken(tmp_path):
    path = tmp_path / "k.lock"
    path.write_text("99999\n")
    assert not KeyLock(path, stale_s=600.0).try_acquire()


def test_release_survives_external_break(tmp_path):
    path = tmp_path / "k.lock"
    lock = KeyLock(path)
    assert lock.try_acquire()
    path.unlink()  # someone broke us as stale
    lock.release()  # must not raise
    assert not lock.owned


class _ScriptedMtime(KeyLock):
    """Replays a fixed sequence of `_mtime` readings (stat-race rig)."""

    def __init__(self, *args, script, **kw):
        super().__init__(*args, **kw)
        self._script = list(script)

    def _mtime(self):
        return self._script.pop(0)


def test_stale_break_reverifies_before_unlink(tmp_path):
    # Regression (TOCTOU): between the staleness stat and the unlink,
    # the owner may have refreshed (or re-created) the lock.  A second
    # reading that comes back fresh must abort the break — otherwise we
    # would unlink a *live* owner's lock and let two workers in.
    path = tmp_path / "k.lock"
    path.write_text("99999\n")
    import time as _time
    stale = _time.time() - 3600
    lock = _ScriptedMtime(path, stale_s=600.0, script=[stale, _time.time()])
    lock._break_if_stale()
    assert path.exists(), "live lock was unlinked on a stale first stat"
    # Both readings stale: the break proceeds.
    lock = _ScriptedMtime(path, stale_s=600.0, script=[stale, stale])
    lock._break_if_stale()
    assert not path.exists()


def test_heartbeat_refreshes_mtime_and_defeats_breaking(tmp_path):
    path = tmp_path / "k.lock"
    lock = KeyLock(path, stale_s=600.0)
    assert lock.try_acquire()
    old = path.stat().st_mtime - 3600
    os.utime(path, (old, old))
    lock.heartbeat()
    assert path.stat().st_mtime > old + 3000
    # A freshly heartbeated lock no longer reads as stale.
    assert not KeyLock(path, stale_s=600.0).try_acquire()
    lock.release()


def test_heartbeat_is_noop_when_not_owned(tmp_path):
    path = tmp_path / "k.lock"
    lock = KeyLock(path)
    lock.heartbeat()  # never acquired: must not create the file
    assert not path.exists()
    assert lock.try_acquire()
    path.unlink()  # externally broken
    lock.heartbeat()  # must not resurrect or raise
    assert not path.exists()
    lock.release()


def test_held_reads_without_breaking(tmp_path):
    path = tmp_path / "k.lock"
    probe = KeyLock(path, stale_s=600.0)
    assert not probe.held()  # no claim file
    owner = KeyLock(path)
    assert owner.try_acquire()
    assert probe.held()
    owner.release()
    # A claim naming a gone process reads as free, and stays on disk
    # until an acquirer breaks it.
    sleeper = subprocess.Popen([sys.executable, "-c", "pass"])
    sleeper.wait(timeout=30)
    path.write_text(f"{socket.gethostname()} {sleeper.pid}\n")
    assert not probe.held()
    assert path.exists()
    # So does a stale one, whoever it names.
    path.write_text(f"{socket.gethostname()} {os.getpid()}\n")
    os.utime(path, (0, 0))
    assert not probe.held()
    assert path.exists()


def test_interrupted_acquire_leaves_no_ownerless_claim(tmp_path, monkeypatch):
    # A runner stopped while writing its owner line (a Ctrl-C landing
    # mid-acquire) must not leave a claim without an owner: peers could
    # not tell it orphaned and would wait out the whole stale bound.
    import repro.resilience.locks as locks

    path = tmp_path / "k.lock"
    real_write = os.write

    def interrupted(fd, data):
        raise KeyboardInterrupt

    monkeypatch.setattr(locks.os, "write", interrupted)
    try:
        KeyLock(path, stale_s=600.0).try_acquire()
    except KeyboardInterrupt:
        pass
    monkeypatch.setattr(locks.os, "write", real_write)

    peer = KeyLock(path, stale_s=600.0)
    assert peer.try_acquire()
    assert path.read_text().strip() == f"{socket.gethostname()} {os.getpid()}"
    peer.release()
    # Nothing else is left beside the claim path either.
    assert list(tmp_path.iterdir()) == []

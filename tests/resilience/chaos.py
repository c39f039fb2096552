"""Chaos helpers: the fan-out tests' shared data, a way to signal
fan-out workers through the claims they hold, and a witness of every
cache store.

A worker simulates a key only under its claim, and the claim file names
its owner as ``host pid`` — so a test that wants to kill (or freeze) a
worker *mid-key* watches the cache directory for claim files and signals
their owners.  This process is never signalled, nor is one pid twice.

A fresh result's only durable record is its cache entry, so "each entry
was stored exactly once" is the exactly-once proof: :func:`store_witness`
logs every store, in this process and every runner forked from it.
"""

from __future__ import annotations

import os
import socket
import tempfile
import threading
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator, List

from repro.experiments.cache import ResultCache
from repro.experiments.configs import ConfigRequest
from repro.experiments.runner import ExperimentRunner
from repro.inject.campaign import build_trials
from repro.util.atomicio import append_line

#: The longest a worker holds a claimed key for the watcher: past it
#: the key runs, and the test's count of signalled owners tells.
_HOLD_S = 30.0

#: A small machine shape: each run takes milliseconds.
SHAPE = dict(num_cores=2, region_scale=0.05, reps=2)

#: Two baselines and one dependent of each: a fan-out's key list spans
#: both resolution phases.
PAIRS = [
    (wl, req)
    for wl in ("is", "cg")
    for req in (
        ConfigRequest("NoCkpt"),
        ConfigRequest("Ckpt_E", num_checkpoints=5),
    )
]


def trial_specs():
    """Four small fault-injection trials (two configs x two seeds)."""
    return build_trials(
        ["cg"], trials=2, num_cores=2, steps_per_interval=2,
        iters_per_step=4, region_scale=0.05, reps=2,
    )


def as_dicts(results):
    return [r.to_dict() for r in results]


def once_each(cache_root) -> Counter:
    """One store per entry under ``cache_root``: what a witness reads
    when every key was simulated exactly once."""
    return Counter(path.stem for path in Path(cache_root).glob("*/*.json"))


@contextmanager
def store_witness(path) -> Iterator[Callable[[], Counter]]:
    """While the block runs, every ``ResultCache.store_payload`` appends
    its key to ``path`` (one whole line) before it stores — in this
    process and in every runner forked from it, which inherit the
    wrapper.

    Yields a reader: the keys stored so far, counted.
    """
    path = Path(path)
    real = ResultCache.store_payload

    def witnessed(self, key, result, kind):
        append_line(path, key)
        return real(self, key, result, kind)

    def stored() -> Counter:
        return Counter(path.read_text().split() if path.exists() else ())

    ResultCache.store_payload = witnessed
    try:
        yield stored
    finally:
        ResultCache.store_payload = real


@contextmanager
def signal_claim_owners(cache_root, sig: int, limit: int) -> Iterator[List[int]]:
    """While the block runs, send ``sig`` to the owner of each claim that
    appears under ``cache_root``, up to ``limit`` distinct owners.

    A small key holds its claim for tens of milliseconds, less than a
    busy machine may leave this watcher unscheduled.  So while the block
    runs, a forked worker that has claimed a key (a run or a trial)
    holds it until ``limit`` owners have been signalled (or ``_HOLD_S``
    has passed) before executing it: the signals land mid-key, however
    loaded the machine.

    Yields the list of signalled pids (filled in as it happens).
    """
    signalled: List[int] = []
    done = threading.Event()
    host, me = socket.gethostname(), os.getpid()
    gate = tempfile.TemporaryDirectory(prefix="acr-chaos-")
    opened = Path(gate.name) / "opened"

    def watch() -> None:
        while not done.is_set() and len(signalled) < limit:
            for lock in Path(cache_root).glob("*/*.lock"):
                try:
                    owner, pid_text = lock.read_text().split()
                    pid = int(pid_text)
                except (OSError, ValueError):
                    continue  # vanished, or not written yet
                if owner != host or pid == me or pid in signalled:
                    continue
                try:
                    os.kill(pid, sig)
                except ProcessLookupError:
                    continue
                signalled.append(pid)
                if len(signalled) >= limit:
                    break
            time.sleep(0.005)
        opened.touch()

    def hold(execute):
        def held(runner, *key):
            if os.getpid() != me:
                deadline = time.monotonic() + _HOLD_S
                while not opened.exists() and time.monotonic() < deadline:
                    time.sleep(0.005)
            execute(runner, *key)
        return held

    executes = {
        name: getattr(ExperimentRunner, name)
        for name in ("_simulate", "_execute_trial_inline")
    }
    for name, execute in executes.items():
        setattr(ExperimentRunner, name, hold(execute))
    thread = threading.Thread(target=watch, daemon=True)
    thread.start()
    try:
        yield signalled
    finally:
        done.set()
        thread.join(timeout=10.0)
        for name, execute in executes.items():
            setattr(ExperimentRunner, name, execute)
        gate.cleanup()
        assert not thread.is_alive()

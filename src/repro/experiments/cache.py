"""Persistent, content-addressed result cache.

A full paper regeneration funnels every figure and table through the same
(workload, :class:`~repro.experiments.configs.ConfigRequest`) runs, and
those runs are *expensive to recompute but cheap to store* — exactly the
trade ACR itself exploits.  This module persists each
:class:`~repro.sim.results.RunResult` as versioned JSON under a key that
hashes **everything that determines the run**:

* the workload name and the request's full canonical key;
* the machine configuration (every Table-I field, flattened);
* the scale knobs (``num_cores``, ``region_scale``, ``reps``);
* the cache schema version and the package version.

Entries live at ``<root>/<key[:2]>/<key>.json``.  Writes are atomic
(temp file + ``os.replace`` in the same directory) so a crashed or
concurrent writer can never leave a partially-written entry behind;
readers treat any undecodable (not UTF-8 included), truncated,
schema-drifted or version-mismatched file as a **miss** and quarantine
it by deletion.

A hit is one ``open`` of the entry and one read of its bytes, then,
inside the quarantine, one UTF-8 decode, one ``json.loads`` and the
envelope check; :meth:`RunResult.from_payload` then checks each field
as it copies it, each statistics column in one pass.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Union

from repro.arch.config import MachineConfig
from repro.experiments.configs import ConfigRequest
from repro.sim.results import RunResult
from repro.util import atomicio

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "KIND_RUN",
    "KIND_TRIAL",
    "ResultCache",
    "run_cache_key",
    "trial_cache_key",
]

#: Bump when any serialised payload layout (or anything about how keys
#: are derived) changes; old entries then read as misses.
#: v2: ``RunResult.to_dict`` gained the (nullable) ``obs`` payload.
#: v3: the envelope gained a ``kind`` discriminator ("run" simulation
#:     results vs "inject-trial" fault-injection trial results).
#: v4: campaign trial rotation decoupled workload/target indices and
#:     switched to a campaign-shared memory seed — spec fields are
#:     unchanged, but the trial population a campaign key set names is
#:     different, so pre-v4 trial entries must read as misses.
#: v5: run results are stored by ``RunResult.to_payload``: intervals and
#:     recoveries as one list per field (columns), every value
#:     type-checked on read; the envelope must be exactly
#:     ``{schema, code, kind, key, result}``; compact separators.
CACHE_SCHEMA_VERSION = 5

#: Envelope payload kinds the cache stores.
KIND_RUN = "run"
KIND_TRIAL = "inject-trial"
#: The exact key set of an entry's envelope.
_ENVELOPE_FIELDS = frozenset({"schema", "code", "kind", "key", "result"})
_HEX_DIGITS = frozenset("0123456789abcdef")


def _package_version() -> str:
    """The installed package version (imported lazily: ``repro.__init__``
    itself imports this module, so a top-level import would be circular)."""
    import repro

    return getattr(repro, "__version__", "unknown")


#: Deterministic JSON rendering for hashing and storing (sorted keys, no
#: spaces): ``json.dumps(x, sort_keys=True, separators=(",", ":"))``
#: with its encoder built once, not on every call.
_canonical = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


@functools.lru_cache(maxsize=None)
def _machine_prefix(machine: MachineConfig) -> str:
    """A run key's canonical payload text up to its ``machine`` field,
    computed once per (frozen, hashable) config: the recursive
    ``dataclasses.asdict`` and its rendering are the bulk of a key."""
    head = {"code": _package_version(), "kind": KIND_RUN,
            "machine": dataclasses.asdict(machine)}
    return _canonical(head)[:-1] + ","


def run_cache_key(
    workload: str,
    request: ConfigRequest,
    machine: MachineConfig,
    region_scale: float,
    reps: Optional[int],
) -> str:
    """The content hash identifying one simulation run.

    Every field that can change the run's outcome is folded in; two keys
    collide only if the runs they name are identical.  ``code``, ``kind``
    and ``machine`` sort before the other keys, so the memoised prefix
    plus the rest's rendering is the whole payload's canonical text.
    """
    rest = _canonical({
        "schema": CACHE_SCHEMA_VERSION,
        "workload": workload,
        "request": request.canonical_key(),
        "region_scale": repr(float(region_scale)),
        "reps": reps,
    })
    text = _machine_prefix(machine) + rest[1:]
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def trial_cache_key(spec: Any) -> str:
    """The content hash identifying one fault-injection trial.

    ``spec`` is a :class:`~repro.inject.harness.TrialSpec` (duck-typed
    here to keep the cache layer free of an ``inject`` dependency); its
    ``canonical_key()`` covers every field, so any knob that changes the
    trial changes the key.  The ``kind`` discriminator keeps trial keys
    disjoint from run keys even under identical field spellings.
    """
    payload = {
        "schema": CACHE_SCHEMA_VERSION,
        "code": _package_version(),
        "kind": KIND_TRIAL,
        "trial": spec.canonical_key(),
    }
    return hashlib.sha256(_canonical(payload).encode("utf-8")).hexdigest()


class ResultCache:
    """On-disk store of serialised run results, keyed by content hash.

    Quarantines are counted (``quarantined``) and reported through the
    optional ``on_quarantine`` hook — corruption must be visible, not
    just survivable.
    """

    def __init__(
        self,
        root: Union[str, Path],
        on_quarantine: Optional[Callable[[Path], None]] = None,
    ) -> None:
        self.root = Path(root)
        #: ``root`` ending in a separator: entry paths are built from it
        #: as strings, with no pathlib join on the read path.
        self._prefix = os.path.join(self.root, "")
        #: Corrupt entries deleted by this cache instance so far.
        self.quarantined = 0
        #: Called with the quarantined path after each deletion.
        self.on_quarantine = on_quarantine
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except FileExistsError as exc:
            raise ValueError(
                f"cache root is not a directory: {self.root}"
            ) from exc

    # ------------------------------------------------------------------ paths --
    def path_for(self, key: str) -> Path:
        """Where an entry for ``key`` lives (two-level fan-out)."""
        return Path(self._entry(key))

    def _entry(self, key: str) -> str:
        """:meth:`path_for` as a string."""
        if not key or not _HEX_DIGITS.issuperset(key):
            raise ValueError(f"malformed cache key {key!r}")
        return f"{self._prefix}{key[:2]}/{key}.json"

    def lock_path(self, key: str) -> Path:
        """Where ``key``'s claim lives — the one advisory lockfile (see
        :class:`repro.resilience.locks.KeyLock`) every runner sharing
        this cache takes before simulating the key: beside the entry, so
        concurrent runners elect one simulator per key instead of
        racing."""
        return self.path_for(key).with_suffix(".lock")

    def telemetry_path(self) -> Path:
        """The campaign-telemetry snapshot stream beside this cache (see
        :class:`repro.obs.telemetry.snapshots.SnapshotWriter`)."""
        return self.root / "telemetry.jsonl"

    # ------------------------------------------------------------------- load --
    def load(self, key: str) -> Optional[RunResult]:
        """The cached simulation result for ``key``, or ``None`` on a miss.

        Corrupt entries (truncated writes, hand-edited files, schema
        drift) are deleted and reported as misses — the caller simply
        re-simulates and overwrites them.
        """
        payload = self.load_payload(key, KIND_RUN)
        if payload is None:
            return None
        try:
            return RunResult.from_payload(payload)
        except ValueError:
            self.quarantine(key)
            return None

    def load_payload(self, key: str, kind: str) -> Optional[Any]:
        """The raw cached payload for ``key``, or ``None`` on a miss.

        Validates the envelope (decodability, exact key set, schema
        version, key echo, payload ``kind``); any violation quarantines
        the entry and reads as a miss.  Decoding the payload itself is
        the caller's job — on a decode failure it should call
        :meth:`quarantine` so the next write starts clean.
        """
        path = self._entry(key)
        try:
            with open(path, "rb", buffering=0) as fh:
                raw = fh.read()
        except OSError:
            return None
        try:
            # A UnicodeDecodeError is a ValueError: bytes that are not
            # UTF-8 are quarantined like any other undecodable entry.
            envelope = json.loads(raw.decode("utf-8"))
            if not isinstance(envelope, dict):
                raise ValueError("cache envelope is not an object")
            if envelope.keys() != _ENVELOPE_FIELDS:
                raise ValueError("bad cache envelope fields")
            if envelope["schema"] != CACHE_SCHEMA_VERSION:
                raise ValueError("cache schema version mismatch")
            if envelope["key"] != key:
                raise ValueError("cache entry key mismatch")
            if envelope["kind"] != kind:
                raise ValueError("cache entry kind mismatch")
            result = envelope["result"]
            if result is None:
                # ``None`` is load_payload's miss signal, so a stored null
                # would otherwise dodge quarantine.
                raise ValueError("cache entry has null result")
            return result
        except ValueError:
            self._quarantine(path)
            return None

    # ------------------------------------------------------------------ store --
    def store(self, key: str, result: RunResult) -> Path:
        """Persist a simulation ``result`` under ``key`` atomically."""
        return self.store_payload(key, result.to_payload(), KIND_RUN)

    def store_payload(self, key: str, result: Any, kind: str) -> Path:
        """Persist a JSON-safe payload under ``key``; returns the path."""
        path = self.path_for(key)
        envelope = {
            "schema": CACHE_SCHEMA_VERSION,
            "code": _package_version(),
            "kind": kind,
            "key": key,
            "result": result,
        }
        return atomicio.atomic_write_text(
            path, _canonical(envelope), prefix=f".{key[:8]}."
        )

    # -------------------------------------------------------------- management --
    def __contains__(self, key: str) -> bool:
        return self.path_for(key).exists()

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*/*.json"))

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        for path in self.root.glob("*/*.json"):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def describe(self) -> Dict[str, Any]:
        """Summary of the store (location, entry count, bytes)."""
        entries = list(self.root.glob("*/*.json"))
        return {
            "root": str(self.root),
            "entries": len(entries),
            "bytes": sum(p.stat().st_size for p in entries),
            "schema": CACHE_SCHEMA_VERSION,
        }

    def quarantine(self, key: str) -> None:
        """Remove ``key``'s entry (a caller-detected corrupt payload)."""
        self._quarantine(self._entry(key))

    def _quarantine(self, path: str) -> None:
        """Remove a corrupt entry so the rewrite starts clean, and make
        the deletion visible (count, hook).  A path that
        is already gone counts as nothing-to-quarantine."""
        if not atomicio.quarantine(path):
            return
        self.quarantined += 1
        if self.on_quarantine is not None:
            self.on_quarantine(Path(path))

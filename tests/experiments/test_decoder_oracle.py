"""The warm-hit decoder against the one it replaced, on mutated real
payloads and on damaged real cache entries.

:meth:`RunResult.from_payload` checks each field as it copies it and
each column in one pass (:meth:`StatsTable.from_columns`), and
:meth:`ResultCache.load_payload` decodes an entry's bytes inside its
quarantine.  The oracle is the decoder as it was before: a separate
type check over the whole document (``_check_types``, with a
``columns`` mode for tables), then a copy.  On real run payloads
mutated under hypothesis (a wrong-typed value in any column, list or
scalar, a ragged column, a missing or extra key at every level), the
new decoder must reject exactly what the oracle rejects, and build a
result equal to the oracle's otherwise.  Truncated or byte-flipped
entries read through the cache must be quarantined exactly when the
oracle rejects them — an entry that is not UTF-8 included, which the
old reader let escape as an exception — and decode equal to the
oracle's result otherwise.
"""

from __future__ import annotations

import copy
import functools
import json
import tempfile
from typing import Any, Dict, List

from hypothesis import given, settings, strategies as st

from repro.compiler.embed import CompileStats
from repro.energy.accounting import EnergyLedger
from repro.experiments.cache import CACHE_SCHEMA_VERSION, ResultCache
from repro.experiments.configs import ConfigRequest
from repro.experiments.runner import ExperimentRunner
from repro.obs.metrics import ObsReport
from repro.sim.results import (
    _UNSERIALISED,
    IntervalStats,
    RecoveryStats,
    RunResult,
    StatsTable,
    _typed_fields,
)
from repro.util.validation import field_names, require_fields

KEY = "cd" * 32
_ENVELOPE_FIELDS = frozenset({"schema", "code", "kind", "key", "result"})


# --------------------------------------------------------------- the oracle
def oracle_check_types(cls: type, doc: Dict[str, Any],
                       columns: bool = False) -> None:
    """The previous ``_check_types``, verbatim."""
    for name, is_list, accepts in _typed_fields(cls):
        value = doc[name]
        if is_list or columns:
            ok = type(value) is list and accepts.issuperset(map(type, value))
        else:
            ok = type(value) in accepts
        if not ok:
            raise ValueError(f"{cls.__name__}.{name}: wrong-typed value")


def oracle_record(cls: type, doc: Any) -> Any:
    oracle_check_types(cls, require_fields(doc, cls, cls.__name__))
    return cls(**doc)


def oracle_from_columns(row_type: type, doc: Any) -> StatsTable:
    """The previous ``StatsTable.from_columns``, verbatim."""
    oracle_check_types(row_type, require_fields(doc, row_type,
                                                row_type.__name__),
                       columns=True)
    columns = tuple(map(tuple, map(doc.__getitem__,
                                   field_names(row_type))))
    if len(set(map(len, columns))) > 1:
        raise ValueError(f"{row_type.__name__}: ragged columns")
    return StatsTable(row_type, columns)


def oracle_from_payload(payload: Any) -> RunResult:
    """The previous ``RunResult.from_payload``, verbatim."""
    doc = require_fields(payload, RunResult, "RunResult",
                         omit=_UNSERIALISED)
    oracle_check_types(RunResult, doc)
    kwargs = dict(doc)
    kwargs["energy"] = EnergyLedger.from_dict(doc["energy"])
    kwargs["intervals"] = oracle_from_columns(IntervalStats,
                                              doc["intervals"])
    kwargs["recoveries"] = oracle_from_columns(RecoveryStats,
                                               doc["recoveries"])
    if doc["compile_stats"] is not None:
        kwargs["compile_stats"] = oracle_record(CompileStats,
                                                doc["compile_stats"])
    if doc["obs"] is not None:
        try:
            kwargs["obs"] = ObsReport.from_dict(doc["obs"])
        except (TypeError, KeyError, AttributeError) as exc:
            raise ValueError(f"RunResult: malformed obs payload: {exc}")
    return RunResult(**kwargs)


def oracle_load(raw: bytes, key: str) -> Any:
    """The previous entry check on ``raw``, with a decode failure read
    as a rejection (``None``)."""
    try:
        envelope = json.loads(raw.decode("utf-8"))
        if not isinstance(envelope, dict):
            raise ValueError("cache envelope is not an object")
        if envelope.keys() != _ENVELOPE_FIELDS:
            raise ValueError("bad cache envelope fields")
        if envelope["schema"] != CACHE_SCHEMA_VERSION:
            raise ValueError("cache schema version mismatch")
        if envelope["key"] != key:
            raise ValueError("cache entry key mismatch")
        if envelope["kind"] != "run":
            raise ValueError("cache entry kind mismatch")
        if envelope["result"] is None:
            raise ValueError("cache entry has null result")
        return oracle_from_payload(envelope["result"])
    except ValueError:
        return None


# ----------------------------------------------------------- real payloads
@functools.lru_cache(maxsize=None)
def real_results() -> List[RunResult]:
    """Real runs covering every payload shape: a baseline (no compile
    stats, no recoveries), BER and ACR runs with errors, and a traced
    run (an ``obs`` payload)."""
    runner = ExperimentRunner(num_cores=2, region_scale=0.01, reps=1)
    runs = [
        runner.run("cg", ConfigRequest("NoCkpt")),
        runner.run_default("is", "Ckpt_E", num_checkpoints=5),
        runner.run_default("cg", "ReCkpt_E", num_checkpoints=5,
                           error_count=2),
        runner.run_traced("is", runner.default_request(
            "is", "ReCkpt_NE", num_checkpoints=3)),
    ]
    assert runs[0].compile_stats is None and runs[2].recoveries
    assert runs[3].obs is not None
    return runs


def real_payloads() -> List[Dict[str, Any]]:
    return [json.loads(json.dumps(r.to_payload())) for r in real_results()]


def typed(value: Any) -> Any:
    """``value`` with every leaf paired with its type, so equality also
    compares types (``1 == 1.0 == True`` otherwise)."""
    if isinstance(value, dict):
        return {k: typed(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [typed(v) for v in value]
    return (type(value).__name__, value)


def outcome(decode, payload: Any) -> Any:
    """``("rejected",)`` on ``ValueError``, else the decoded result's
    typed ``to_dict`` and tables; any other exception escapes."""
    try:
        result = decode(payload)
    except ValueError:
        return ("rejected",)
    return (typed(result.to_dict()), result.intervals, result.recoveries,
            result.compile_stats)


# --------------------------------------------------------------- mutations
#: Values a mutation writes: every JSON type, the wrong types of every
#: declared type, and nested containers.
odd_values = st.one_of(
    st.booleans(),
    st.integers(-2**40, 2**40),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=3),
    st.none(),
    st.lists(st.integers(0, 9), max_size=2),
    st.lists(st.lists(st.integers(0, 9), max_size=2), min_size=1,
             max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(0, 9), max_size=2),
)


def node_paths(doc: Any, prefix=()) -> List[tuple]:
    """The path of every node under ``doc`` (``doc`` itself first)."""
    paths = [prefix]
    if isinstance(doc, dict):
        for key, value in doc.items():
            paths += node_paths(value, prefix + (key,))
    elif isinstance(doc, list):
        for index, value in enumerate(doc):
            paths += node_paths(value, prefix + (index,))
    return paths


@st.composite
def mutated_payloads(draw) -> Any:
    """A real payload with one node replaced, dropped, grown or shrunk."""
    payload = copy.deepcopy(draw(st.sampled_from(real_payloads())))
    path = draw(st.sampled_from(node_paths(payload)))
    if not path:
        return draw(odd_values)
    parent = payload
    for part in path[:-1]:
        parent = parent[part]
    node = parent[path[-1]]
    actions = ["replace"]
    if isinstance(parent, dict):
        actions.append("delete")
    if isinstance(node, dict):
        actions.append("add key")
    if isinstance(node, list):
        actions += ["append", "drop"] if node else ["append"]
    action = draw(st.sampled_from(actions))
    if action == "replace":
        parent[path[-1]] = draw(odd_values)
    elif action == "delete":
        del parent[path[-1]]
    elif action == "add key":
        node[draw(st.text(max_size=4))] = draw(odd_values)
    elif action == "append":
        node.append(draw(odd_values))
    else:
        node.pop()
    return payload


class TestDecoderAgainstOracle:
    @given(mutated_payloads())
    @settings(max_examples=600, deadline=None)
    def test_mutated_payloads_decode_as_the_oracle_does(self, payload):
        expected = outcome(oracle_from_payload, payload)
        assert outcome(RunResult.from_payload, payload) == expected

    def test_real_payloads_are_accepted(self):
        for result, payload in zip(real_results(), real_payloads()):
            assert outcome(RunResult.from_payload, payload) == outcome(
                oracle_from_payload, payload)
            assert RunResult.from_payload(payload).equivalent(result)

    def test_every_column_and_scalar_rejects_a_wrong_type(self):
        """Each typed field, with a value of a type it does not accept,
        is rejected by both decoders (a deterministic sweep beside the
        random mutations)."""
        payload = real_payloads()[2]
        wrong = {int: [True, 1.5, "1", None, [1]],
                 float: [True, "1.0", None, [1.0]],
                 bool: [1, 0.0, "true", None],
                 str: [1, None, ["x"]]}
        cases = []
        for name, is_list, accepts in _typed_fields(RunResult):
            kind = float if float in accepts else next(iter(accepts))
            for value in wrong[kind]:
                cases.append((("result_field", name, is_list), value))
        for table, row_type in (("intervals", IntervalStats),
                                ("recoveries", RecoveryStats)):
            for name, _, accepts in _typed_fields(row_type):
                kind = float if float in accepts else next(iter(accepts))
                for value in wrong[kind]:
                    cases.append(((table, name), value))
        for path, value in cases:
            doc = copy.deepcopy(payload)
            if path[0] == "result_field":
                _, name, is_list = path
                if is_list:
                    doc[name][0] = value
                else:
                    doc[name] = value
            else:
                doc[path[0]][path[1]][0] = value
            assert outcome(RunResult.from_payload, doc) == ("rejected",), \
                (path, value)
            assert outcome(oracle_from_payload, doc) == ("rejected",)


# ----------------------------------------------------------- damaged bytes
@functools.lru_cache(maxsize=None)
def real_entries() -> tuple:
    """The cache entry bytes of every real result, stored under KEY."""
    with tempfile.TemporaryDirectory() as root:
        cache = ResultCache(root)
        entries = []
        for result in real_results():
            cache.store(KEY, result)
            entries.append(cache.path_for(KEY).read_bytes())
    return tuple(entries)


@st.composite
def damaged_entries(draw) -> bytes:
    """A real cache entry, truncated or with one byte changed."""
    raw = draw(st.sampled_from(real_entries()))
    if draw(st.booleans()):
        return raw[:draw(st.integers(0, len(raw) - 1))]
    at = draw(st.integers(0, len(raw) - 1))
    byte = draw(st.integers(0, 255).filter(lambda b: b != raw[at]))
    return raw[:at] + bytes([byte]) + raw[at + 1:]


class TestDamagedEntries:
    @given(damaged_entries())
    @settings(max_examples=300, deadline=None)
    def test_damaged_entry_is_quarantined_or_decodes_as_the_oracle(
        self, tmp_path_factory, raw
    ):
        cache = ResultCache(tmp_path_factory.mktemp("cache"))
        path = cache.path_for(KEY)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(raw)
        expected = oracle_load(raw, KEY)
        loaded = cache.load(KEY)
        if expected is None:
            assert loaded is None
            assert cache.quarantined == 1
            assert not path.exists()
        else:
            assert loaded is not None
            assert outcome(lambda r: r, loaded) == outcome(lambda r: r,
                                                           expected)
            assert cache.quarantined == 0 and path.exists()

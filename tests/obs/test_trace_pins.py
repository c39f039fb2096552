"""Absolute pins for traced runs: the metrics payload and the event stream.

``tests/sim/test_result_pins.py`` pins metrics-only ACR runs.  These
pins cover what it leaves out: runs with a :class:`RecordingTracer`
attached (plus metrics), for ACR and BER under both coordination
schemes, with ``UniformErrors(2)`` on cg, is and dc.  Two digests per
run:

* ``RunResult.obs.to_dict()`` — the counters, histograms and interval
  snapshots, plus the capture accounting;
* the JSONL event stream, each event projected onto the event names and
  fields of :data:`PINNED_FIELDS`.  Events and fields added to the
  vocabulary later are left out of the projection, so the pins hold
  across vocabulary growth while every pinned fact keeps its order,
  timestamp and value.

A capped tracer (``capacity=40``) is pinned too: the metrics must count
every event, including the ones the tracer drops.
"""

import hashlib
import json

import pytest

from repro.arch.config import MachineConfig
from repro.errors.injection import UniformErrors
from repro.obs.tracer import RecordingTracer
from repro.sim.simulator import SimulationOptions, Simulator
from repro.workloads.registry import get_workload

#: Event name -> the fields the pinned stream keeps.
PINNED_FIELDS = {
    "checkpoint_begin": ("ts_ns", "core", "index"),
    "checkpoint_end": (
        "ts_ns", "core", "index", "duration_ns", "logged_records",
        "omitted_records", "logged_bytes", "flushed_bytes",
    ),
    "interval_boundary": ("ts_ns", "core", "index"),
    "log_write": ("ts_ns", "core", "address", "line", "size_bytes", "taken"),
    "addrmap_insert": ("ts_ns", "core", "address", "operands"),
    "addrmap_evict": ("ts_ns", "core", "address", "reason"),
    "addrmap_hit": ("ts_ns", "core", "address"),
    "slice_recompute": ("ts_ns", "core", "slice_id", "ns"),
    "recovery_begin": ("ts_ns", "core", "error_index", "safe_checkpoint"),
    "recovery_end": (
        "ts_ns", "core", "error_index", "duration_ns", "waste_ns",
        "rollback_ns", "recompute_ns",
    ),
}


def _digest(doc) -> str:
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _project(events):
    out = []
    for ev in events:
        doc = ev.to_dict()
        keep = PINNED_FIELDS.get(doc["name"])
        if keep is not None:
            out.append({"name": doc["name"], **{k: doc[k] for k in keep}})
    return out


_SIMS = {}


def _traced_run(key: str):
    workload, case = key.split(":")
    config, scheme, capacity = case.split("/")
    sim = _SIMS.get(workload)
    if sim is None:
        programs = get_workload(workload).build_programs(
            2, region_scale=0.05, reps=4
        )
        sim = _SIMS[workload] = Simulator(programs, MachineConfig(num_cores=2))
    base = sim.run(SimulationOptions(label="NoCkpt", scheme="none"))
    tracer = RecordingTracer(None if capacity == "all" else int(capacity))
    result = sim.run(SimulationOptions(
        label=case,
        scheme=scheme,
        acr=config == "ACR",
        num_checkpoints=5,
        baseline=base.baseline_profile(),
        errors=UniformErrors(2),
        tracer=tracer,
        collect_metrics=True,
    ))
    return result, tracer


#: key -> (obs digest, projected event-stream digest).
TRACE_PINS = {
    "cg:ACR/global/40": (
        "f54b1a32b19cb892609c5e728125242e6142757263201def61ae8ec50d5be435",
        "f79b45278f6102d205f3035f491d30a55a2a68d5f36432e343d5f373ac3871c1",
    ),
    "cg:ACR/global/all": (
        "95e080775b632817b87123f604ea6f72bda1a657975eb0060b88297d00bafb1b",
        "215a97e628330c3ff15d065997a4c2cd5fc63ce3cb0d5f90e80ab4fb28d07df6",
    ),
    "cg:ACR/local/all": (
        "1d53704d05efe8d483c6be4baa87ed3502129f4c07381c416a69c422a0daf2b6",
        "7e87d78efbf7ab7ffef646c8d10ba26b4697d54876cfa9e142fb6fd799fc31ad",
    ),
    "cg:BER/global/all": (
        "aa47c83c6386cf7cfd74d0614e8fbba1dcd426f9c0d4ecbe9f81e14e12bdb33a",
        "ddb61c9b6d85f48e4742d3cc04b4116ab80863d08448e360228f416baabeb4ed",
    ),
    "cg:BER/local/40": (
        "5c67f780d4f9b09b6677b76f1e47376b6e4567e929fab6e039de709e0573aed9",
        "b5c6d5b284beaf47f9f091d6c8fe510c02d6e06545a72cc37eab135a18247311",
    ),
    "cg:BER/local/all": (
        "647e6c6ab483774b255d42afdc49e4c819a43f6bb410494f4ce1976388a95b41",
        "0ed4ae69a8560774ba4acccac0fa0f39b99839af77c21fe274b8136aec6a6951",
    ),
    "dc:ACR/global/40": (
        "80cb375ce4118b29e8773280bfcc2b752cf5942863cc2af0a5e741313fd494fc",
        "74964ef31321af7106b424a3efb4baf6e8fda4d033d3b63f183ed21638700110",
    ),
    "dc:ACR/global/all": (
        "678d1becc7b1091d1bd215ae25ee8d35828906683940c31436f7849fae4887cd",
        "204e6708dd7a9a8a7f2dad4f4f4c3359a4869b3b4fbc79646db6e0aa6d0b4d3f",
    ),
    "dc:ACR/local/all": (
        "aafc3cf34a2371cb5960b26bfa10ba04d059397b67b69a9dfafb0f3f30b0b2eb",
        "18df166e9656e94ca2fd091a77d0132f47bcc2d133cb1351a2d20f46ea7ff6f5",
    ),
    "dc:BER/global/all": (
        "6250e6021f4673e71743a25d29fb7a4f5c2225c56b6632f1df5d1ccc40128e61",
        "93de4ae48b60ab95801d63309e95f3df1e616bef5e53758faf8d8274baf4a6a0",
    ),
    "dc:BER/local/40": (
        "5119e970e5bc746ed72ba70e272a88d3b4afa9cc1caef87ac7494f706587a80d",
        "b5c6d5b284beaf47f9f091d6c8fe510c02d6e06545a72cc37eab135a18247311",
    ),
    "dc:BER/local/all": (
        "0d412d755d32334952dad7bee79af9e449b9cc933570d27bf843a8fcaf43a5b3",
        "fbc76e3f7813eafcec3727fb8eabe5fceaa3c187b69cf51bb9889b91ab37465c",
    ),
    "is:ACR/global/40": (
        "79f78d8c3453ce11efae1c41ee80861a190d0f1872f8f8a98635bdc4a7b3bddb",
        "121f567c68b20cc39ef5686fecdb75d35c685eb5dd13c52e1f2d8e12af6c887a",
    ),
    "is:ACR/global/all": (
        "71b991bdd50fbf60c0ba9aa84d058f41d62e93cf5124634c3ce9f160a54f6570",
        "de124532b5c165094c5c6d369063d74f2ed7942d5aed2fb0f038d302c49085a4",
    ),
    "is:ACR/local/all": (
        "dedf4476c6fce49262ae9cace4772051de6e32b6750eaa69c4ae2bc676c2b5f9",
        "a21c0e79e6b48bbe1de66558321707df70e33553fd3595eb620a34de95ca55cf",
    ),
    "is:BER/global/all": (
        "9fb8792d5ba195036b00f4a54df398dc9caab736b153c40e7b8b193358c4cdee",
        "e9e84a30324ec4efebcb3f1055124bec16eb6327db729832dcc9b3a388ae5ff2",
    ),
    "is:BER/local/40": (
        "990c7f0acecd7b26310dabe44f3cce6883a886d1365d0f19295f5656fab825b8",
        "b5c6d5b284beaf47f9f091d6c8fe510c02d6e06545a72cc37eab135a18247311",
    ),
    "is:BER/local/all": (
        "adf6d77da0879b0f7e1cdf3a87eebee6c00f7cf00c82c44584df33ef7a92c807",
        "9df755cfc52e857c62dd1b4a98e509ab0b57864eb55012b53050bbaee77a1066",
    ),
}


@pytest.mark.parametrize("key", sorted(TRACE_PINS))
def test_traced_run_pinned(key):
    result, tracer = _traced_run(key)
    obs_pin, stream_pin = TRACE_PINS[key]
    assert _digest(result.obs.to_dict()) == obs_pin
    assert _digest(_project(tracer.events)) == stream_pin


def test_trace_pins_cover_the_matrix():
    assert {k.split(":")[0] for k in TRACE_PINS} == {"cg", "is", "dc"}
    cases = {k.split(":")[1] for k in TRACE_PINS}
    assert {c.split("/")[0] for c in cases} == {"ACR", "BER"}
    assert {c.split("/")[1] for c in cases} == {"global", "local"}
    assert {c.split("/")[2] for c in cases} == {"all", "40"}

"""Absolute result pins: sha256 digests of canonical result documents.

Every other equivalence suite compares two code paths with each other
(engine vs engine, forked vs straight, parallel vs serial), so a change
to shared code that shifts both sides equally passes all of them.  These
pins compare against fixed digests instead:

* ``RunResult.to_dict()`` for NoCkpt and BER/ACR under both coordination
  schemes, error-free and with ``UniformErrors``, on both engines (the
  dict excludes engine-private diagnostics, so both engines share one
  digest), plus one metrics-observed ACR run per workload, and for two
  of the differential suite's generated programs whose results move
  with the float order of the store-path charges;
* ``TrialResult.to_dict()`` for every injection target under both
  configurations and for both seeded recovery defects;
* ``GoldenRun.to_bytes()`` for the cg recipes, so stored
  ``--snapshot-dir`` blobs stay valid without a format bump.

A digest moves only when a result moves.  Update one only with a change
that is meant to alter results, and say why in the change log.
"""

import hashlib
import json

import pytest

from repro.arch.config import MachineConfig
from repro.errors.injection import NoErrors, UniformErrors
from repro.experiments.configs import ConfigRequest, make_options
from repro.inject.harness import DEFECTS, TrialSpec, run_golden, run_trial
from repro.sim.simulator import ENGINES, SimulationOptions, Simulator
from repro.workloads.registry import get_workload
from tests.sim.test_engine_equivalence import (
    CKPT_CONFIGS,
    NUM_CORES,
    _random_programs,
)


def _digest(doc) -> str:
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


_SIMS = {}


def _simulator(workload: str) -> Simulator:
    sim = _SIMS.get(workload)
    if sim is None:
        programs = get_workload(workload).build_programs(
            2, region_scale=0.05, reps=4
        )
        sim = _SIMS[workload] = Simulator(programs, MachineConfig(num_cores=2))
    return sim


def _run_doc(workload: str, case: str, engine: str) -> dict:
    sim = _simulator(workload)
    base = sim.run(SimulationOptions(label="NoCkpt", scheme="none",
                                     engine=engine))
    if case == "NoCkpt":
        return base.to_dict()
    config, scheme, errors = case.split("/")
    options = dict(
        label=case,
        scheme=scheme,
        acr=config.startswith("ACR"),
        num_checkpoints=5,
        baseline=base.baseline_profile(),
        errors=UniformErrors(2) if errors == "err" else NoErrors(),
        engine=engine,
        collect_metrics=config == "ACR+metrics",
    )
    return sim.run(SimulationOptions(**options)).to_dict()


RUN_PINS = {
    "cg:ACR+metrics/global/err":
        "46eb62b4703b3cbb2cdeefe7a1ab9366d733d789cd760753588900bbec899b2c",
    "cg:ACR+metrics/local/err":
        "a5f6716ded9105548290e3461b0c8d9dc3ed22e5cb7810217e0ec43ba3944b6e",
    "cg:ACR/global/err":
        "a3c39b498b3689cdcf4288fe148f6ae710e4748923e88293e3de374230cf019b",
    "cg:ACR/global/ok":
        "206956eea47825d52fd5ac9ccf961059d6bf441376266d23ecc92756bcc1d33c",
    "cg:ACR/local/err":
        "41374f4874309cecbb83fcfc0f067fe32df60522f98db4160d15b45fd392933f",
    "cg:ACR/local/ok":
        "f02de91718cc8cb4c4fa6002cd246a5cbfe47e6c6ce17eb4ef24de44bf28c8b8",
    "cg:BER/global/err":
        "bc37b2419e1b9a1e089593b1f0f5d0fdcdbed605e7a8f1aad2a69e3986624e29",
    "cg:BER/global/ok":
        "f49cebff584d1649acc456bd29f2d7515f30eeb1d4535e0ef6ef01f232ad6cd2",
    "cg:BER/local/err":
        "caedba405af6c3cf87e4088730607f2a780d22c8a74d374fe6784e77f3631922",
    "cg:BER/local/ok":
        "8407556aaa2df01edbbb6840067a7428bca6db8349b0ae3bcd596379cbbdf482",
    "cg:NoCkpt":
        "2f1e90498c52784d5ee84cf17b805c77bedd937851523d6d89cacb88b0d19876",
    "dc:ACR+metrics/global/err":
        "ffe1232c5d49d767309d2fea6eb53e97fda69bce24e668f2f9fe6ad6d97533a5",
    "dc:ACR+metrics/local/err":
        "483bb15d13b06d5b80ee5d57430a5187f09c46adef2f6b6a46241589b9dfdb76",
    "dc:ACR/global/err":
        "edad682f0dc0c408c3f17b84691eaa15324b2c5a247351e5bc64d316312085ea",
    "dc:ACR/global/ok":
        "82094bcf035b7faea2d191b2ceb06028cff38eff9a82aae86b48809ca55a5c62",
    "dc:ACR/local/err":
        "ec184b50783c412c13e33757167bbfe9250537b1f492e3c5146822742602c462",
    "dc:ACR/local/ok":
        "d3d2b2bf701eaad715fbc4436f9aad0890b248e1cc101507f2b5a1a4979a06d6",
    "dc:BER/global/err":
        "6f9b5030671ff3a89a71af726c565823bc2164e8a0e1c50f2111d463e741d9d3",
    "dc:BER/global/ok":
        "f208f603e443eeeb5d91d0356d63bb818dbf598a8d1234b0b29ebc3eb509a186",
    "dc:BER/local/err":
        "2158aa2482f6cba8ad8c5fad23d08aa68d8c4e54f4fd138a751a304bc0fb51d9",
    "dc:BER/local/ok":
        "e2774aaf5850492fa7c169d023d4ed54a4ca20775dacaadc04053ec79a31f598",
    "dc:NoCkpt":
        "a8368ae7e18463325ec8120478290fabf642e647dbbb696be92f64f80ea419d8",
    "is:ACR+metrics/global/err":
        "a27f0bb6635f1dccbec033ca0ce69c2820777b32add596cc5e1cf07e0550a8ff",
    "is:ACR+metrics/local/err":
        "61068c2f822eceb4738a72b87479d1a28131aedf6cbc08cae0113a8cf5e3da2f",
    "is:ACR/global/err":
        "e18a843f8a16c8c1800cff54c631a93d879479bbbba6d6221b196535ec96606d",
    "is:ACR/global/ok":
        "ea4e91c6408ea03234fda07a3da3e81ae2aeda46e56080b6a6b9c2d02aa396ad",
    "is:ACR/local/err":
        "609abb7b77dc91ae9448c7eff36a8a2e5282da61f4ae98c05ef0082c349db426",
    "is:ACR/local/ok":
        "bc475b4760693208309aca5cfc55e4a55a194364ab69a5ebaa8614f54e3aadda",
    "is:BER/global/err":
        "340f859defc73173578f3f5b997c952ef933bc0012f2c6327eb37372e6f94607",
    "is:BER/global/ok":
        "9eb4aeec4531ae504339a1ad1f721c5d731557187bf7251338e101ace16edbae",
    "is:BER/local/err":
        "9045140bb4b9ad38d733c3ceb772871d0c88c81eaef3dfffdfb870a7143e04d3",
    "is:BER/local/ok":
        "122475a92ff6e4854cd7527b793d1c344b78700329dd3d4af9d2cc36d31eb1ab",
    "is:NoCkpt":
        "e68599005e6a20c58839066ab166d532b98a7f3430cc9b1d223a76d8a70c5114",
}

#: Generated-program seed -> digest of its checkpointed run, built as
#: the differential suite builds it.  Swapping the log-stall and
#: ASSOC-ADDR charges moves both (the default workloads above do not).
GENERATED_PINS = {
    15: "2d3b38ef8e739bc49c5d5c8f53884fd81cf83fdb3da8685f348efbeb7fe82c62",
    26: "9543b964e6d7b5420b4a1e5030e11edb4093aeb0d56ecdae60195399213663aa",
}

TRIAL_PINS = {
    "cg/ACR/addrmap/-/0":
        "94478aa6a9d8975d83ca4e6910920a5cf1bfe30d495162d0789f432a50e38e94",
    "cg/ACR/addrmap/-/3":
        "937e9ac923a2f277b5d57c78dbcf2cc6b4b72f31eaf0bec6f7898e9e2a2d46dc",
    "cg/ACR/arch/-/1":
        "a3dcf70d9ccaee336977e796975a60820d8b7aa96c3c9316d7c69f97ba1bd5e8",
    "cg/ACR/log/-/1":
        "aa65b8517b9b44932870ecef930ea0d8607c724e5f7e00bc046472c44c21ebf6",
    "cg/ACR/mem/-/1":
        "b3beddd231c407ea14f1a21c2171aa17760deb201668937e2f84ecec78214eb5",
    "cg/BER/addrmap/-/1":
        "cc523b0f03731e3ee29787271de5a29af871ec0d156695d11f6899ed0d1c9c44",
    "cg/BER/arch/-/1":
        "8f33e915040bb615d0c04480ab9872a4e943043787cccd8a7bfaced3aa096e3d",
    "cg/BER/log/-/1":
        "0e497beb393d45f399e02ac308de5a4ddc1f3dded4b6833b80304cf3b44c5f52",
    "cg/BER/mem/-/1":
        "6e1c42e762d498aab3a5af559cd7cd1280d1b1f3b1ffa6e56d254981422a8aa3",
    "dc/ACR/mem/misorder-logs/1":
        "507cc66887ac21440a7244b5ba6bd7498371f0f60678c8883d33820f47e2be63",
    "dc/ACR/mem/skip-recompute/1":
        "aeaacc78f01586eb2bd102f2ae36425423081da4f05a3312d01162ecc069db16",
    "dc/BER/mem/misorder-logs/2":
        "a3e57dba99f5836afea2b83055ff900ce59de72be18d44493b063dbcca1e9fc6",
}

#: Snapshot format version 2 (one record per closed interval); the
#: interval-record oracle tests show it describes the states version 1
#: pinned.
GOLDEN_PINS = {
    "ACR":
        "9c91040096c5e1ecb2d7d212417745cd12e54f6bc4d2d2373fa9fd9c356f65e9",
    "BER":
        "bb449a9488122fef43899b060ef498255e8fa1229d71db69d0b181c80c63ef14",
}


#: Misordered logs only show with two-log rollbacks over long intervals.
_DEFECT_KNOBS = {
    "misorder-logs": dict(iters_per_step=24, detection_latency_fraction=1.0),
}


def _trial_spec(case: str) -> TrialSpec:
    workload, config, target, defect, seed = case.split("/")
    return TrialSpec(
        workload=workload,
        config=config,
        target=target,
        seed=int(seed),
        defect=None if defect == "-" else defect,
        **_DEFECT_KNOBS.get(defect, {}),
    )


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("key", sorted(RUN_PINS))
def test_run_result_pinned(key, engine):
    workload, case = key.split(":")
    assert _digest(_run_doc(workload, case, engine)) == RUN_PINS[key]


def _generated_doc(seed: int, engine: str) -> dict:
    sim = Simulator(_random_programs(seed), MachineConfig(num_cores=NUM_CORES))
    base = sim.run(make_options(
        ConfigRequest("NoCkpt", memory_seed=seed % 3), None, engine=engine
    ))
    request = ConfigRequest(
        CKPT_CONFIGS[seed % len(CKPT_CONFIGS)],
        num_checkpoints=2 + seed % 5,
        error_count=1 + seed % 2,
        threshold=2 + 4 * (seed % 3),
        memory_seed=seed % 3,
    )
    options = make_options(request, base.baseline_profile(), engine=engine)
    return sim.run(options).to_dict()


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("seed", sorted(GENERATED_PINS))
def test_generated_program_pinned(seed, engine):
    assert _digest(_generated_doc(seed, engine)) == GENERATED_PINS[seed]


@pytest.mark.parametrize("snapshots", [False, True], ids=["straight", "forked"])
@pytest.mark.parametrize("case", sorted(TRIAL_PINS))
def test_trial_result_pinned(case, snapshots):
    result = run_trial(_trial_spec(case), snapshots=snapshots)
    assert _digest(result.to_dict()) == TRIAL_PINS[case]


@pytest.mark.parametrize("config", sorted(GOLDEN_PINS))
def test_golden_run_bytes_pinned(config):
    blob = run_golden(TrialSpec(workload="cg", config=config)).to_bytes()
    assert hashlib.sha256(blob).hexdigest() == GOLDEN_PINS[config]


def test_pins_cover_the_matrix():
    cases = {key.split(":")[1] for key in RUN_PINS}
    assert {c.split("/")[0] for c in cases} == {
        "NoCkpt", "BER", "ACR", "ACR+metrics"
    }
    assert {key.split(":")[0] for key in RUN_PINS} == {"cg", "is", "dc"}
    defects = {c.split("/")[3] for c in TRIAL_PINS} - {"-"}
    assert defects == set(DEFECTS)

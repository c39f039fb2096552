"""Kernel generation for workload specs.

Address-space layout (byte addresses, 8-byte words):

* thread-private data lives at ``(thread+1) << 30``: per-site store
  subregions (128 KiB slots), a read-only input area, and burst regions;
* cluster-shared communication regions live above ``1 << 40`` so they can
  never collide with private data.

Store values are real dataflow: a site's chain reads from its input area
(whose initial contents come from the memory image's deterministic
initialiser) at a per-rep rotating offset, so stored values change every
timestep and recomputation correctness is a meaningful check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List

from repro.isa.builder import chain_immediates, chain_kernel, chain_shape
from repro.isa.instructions import AddressPattern
from repro.isa.program import Kernel
from repro.util.rng import derive_seed
from repro.workloads.spec import BurstSpec, WorkloadSpec

__all__ = [
    "SiteAssignment",
    "assign_sites",
    "site_kernel",
    "site_sweep",
    "shared_kernel",
    "shared_sweep",
    "burst_kernels",
]

_THREAD_BASE_SHIFT = 30
_SITE_SLOT_BYTES = 1 << 17
_INPUT_AREA_OFFSET = 1 << 27
_BURST_AREA_OFFSET = 1 << 28
_SHARED_BASE = 1 << 40
_SHARED_SLOT_BYTES = 1 << 20


def _thread_base(thread: int) -> int:
    return (thread + 1) << _THREAD_BASE_SHIFT


@dataclass(frozen=True)
class SiteAssignment:
    """One store site's shape: what it writes and how."""

    index: int
    kind: str  # "chain" | "copy" | "accum"
    slice_len: int  # meaningful for kind == "chain"
    sparse: bool
    words: int


def _apportion(total: int, weights: List[float]) -> List[int]:
    """Largest-remainder apportionment of ``total`` items over weights."""
    raw = [w * total for w in weights]
    counts = [int(r) for r in raw]
    remainder = total - sum(counts)
    order = sorted(
        range(len(weights)), key=lambda i: raw[i] - counts[i], reverse=True
    )
    for i in order[:remainder]:
        counts[i] += 1
    return counts


def assign_sites(spec: WorkloadSpec, region_words: int) -> List[SiteAssignment]:
    """Deterministically apportion a spec's sites across its mix.

    Every thread gets the same site structure (SPMD workloads); only value
    salts differ per thread.  Bucket lengths are spread evenly over each
    bucket's ``[lo, hi]`` range; sparse sites are interleaved round-robin
    so sparsity does not correlate with slice length.
    """
    categories: List[tuple] = [("copy", 0, 0)] if spec.copy_frac > 0 else []
    weights: List[float] = [spec.copy_frac] if spec.copy_frac > 0 else []
    if spec.accum_frac > 0:
        categories.append(("accum", 0, 0))
        weights.append(spec.accum_frac)
    for bucket in spec.len_mix:
        categories.append(("chain", bucket.lo, bucket.hi))
        weights.append(bucket.weight)
    total_weight = sum(weights)
    if total_weight <= 0:
        raise ValueError(f"{spec.name}: no site categories")
    weights = [w / total_weight for w in weights]
    counts = _apportion(spec.sites, weights)

    base_words = region_words // spec.sites
    extra = region_words - base_words * spec.sites

    assignments: List[SiteAssignment] = []
    sparse_acc = 0.0
    index = 0
    for (kind, lo, hi), count in zip(categories, counts):
        for j in range(count):
            if kind == "chain":
                if count > 1:
                    length = lo + round(j * (hi - lo) / (count - 1))
                else:
                    length = (lo + hi) // 2
            else:
                length = 0
            words = base_words + (1 if index < extra else 0)
            # Bresenham spread of sparsity across the site sequence, so
            # sparse sites interleave evenly with every length bucket.
            sparse_acc += spec.sparse_frac
            sparse = sparse_acc >= 1.0 - 1e-9
            if sparse:
                sparse_acc -= 1.0
            assignments.append(SiteAssignment(index, kind, length, sparse, words))
            index += 1
    return assignments


def site_kernel(
    spec: WorkloadSpec,
    assignment: SiteAssignment,
    thread: int,
    rep: int,
    active_words: int,
    window_offset: int,
    window_words: int,
) -> Kernel:
    """One site's window sweep for one timestep.

    The window covers ``[window_offset, window_offset + window_words)``
    of the site's *active* subregion (``active_words`` ≤ the full
    subregion), modulo ``active_words`` — the rotating window that gets
    every active word rewritten every ``~1/window_frac`` reps (the
    recomputability engine of the whole workload suite).
    """
    return site_sweep(spec, assignment, thread)(
        rep, active_words, window_offset, window_words
    )


def site_sweep(
    spec: WorkloadSpec, assignment: SiteAssignment, thread: int
) -> Callable[[int, int, int, int], Kernel]:
    """``(rep, active_words, window_offset, window_words) -> Kernel``
    for one site of one thread (see :func:`site_kernel`).

    The site's shape, salt and bases are fixed per (thread, site), so
    they are derived here once; each rep binds only its patterns.
    """
    tbase = _thread_base(thread)
    store_base = tbase + assignment.index * _SITE_SLOT_BYTES
    input_base = tbase + _INPUT_AREA_OFFSET + assignment.index * _SITE_SLOT_BYTES
    copy = assignment.kind == "copy"
    accumulate = assignment.kind == "accum"
    # Slice length = chain depth + 1 (the salt MOVI).
    depth = 0 if copy else 3 if accumulate else assignment.slice_len - 1
    shape = chain_shape(1, depth, accumulate, copy, 1)
    imms = () if copy else chain_immediates(
        derive_seed(spec.seed, f"{spec.name}/t{thread}/s{assignment.index}"),
        True, depth, False,
    )
    sparse = assignment.sparse
    prefix = f"{spec.name}.s{assignment.index}.r"
    ghost = spec.ghost_alu
    bind = Kernel.bind

    def kernel(rep: int, words: int, offset: int, window: int) -> Kernel:
        # The rotating read offset makes loaded (hence stored) values vary.
        store = (
            (store_base, 8, words * 8, offset * 8)
            if sparse
            else (store_base, 1, words, offset)
        )
        params = (input_base, 1, words, (rep + offset) % words, *imms, *store)
        return bind(shape, params, f"{prefix}{rep}", window, rep, ghost)

    return kernel


def shared_kernel(
    spec: WorkloadSpec, thread: int, rep: int, cluster: int, member: int
) -> Kernel:
    """Per-timestep communication within a cluster.

    All cluster members load the same ``shared_words`` region (the
    directory observes the shared lines and connects the members into one
    communication group) and each writes a private one-line slot.  The
    slot store is a *copy* store: shared data is never sliceable (the
    paper confines Slices to thread-local data).
    """
    return shared_sweep(spec, cluster, member)(rep)


def shared_sweep(
    spec: WorkloadSpec, cluster: int, member: int
) -> Callable[[int], Kernel]:
    """``rep -> Kernel``: one member's :func:`shared_kernel` per rep,
    which differ only in name and phase."""
    shared_base = _SHARED_BASE + cluster * _SHARED_SLOT_BYTES
    trips = 8
    read_stride = max(1, spec.shared_words // trips)
    slot_base = shared_base + (spec.shared_words + member * 8) * 8
    shape = chain_shape(1, 0, False, True, 1)
    params = (shared_base, read_stride, spec.shared_words, 0, slot_base, 1, 8, 0)
    prefix = f"{spec.name}.shared.r"
    bind = Kernel.bind
    return lambda rep: bind(shape, params, f"{prefix}{rep}", trips, rep)


def burst_kernels(
    spec: WorkloadSpec,
    burst: BurstSpec,
    thread: int,
    rep: int,
    pass_index: int,
    region_words: int,
) -> List[Kernel]:
    """One pass of a burst phase.

    The burst region's base depends only on the burst (not the pass), so
    multi-pass bursts re-sweep the same addresses: the first pass's
    first-writes log fresh (unrecomputable) old values, later passes'
    first-writes can be omitted if the burst chains are under threshold.
    Bursts carry no ghost compute — they are traffic-dominated phases,
    which concentrates their checkpoint weight into few intervals.
    """
    tbase = _thread_base(thread)
    # A small slot index derived from the burst position: must stay well
    # inside the thread's 1 GiB private window (the burst area starts at
    # +256 MiB and each slot is 4 MiB, so ids up to ~31 are safe).
    burst_id = int(burst.rep_frac * 29)
    base = tbase + _BURST_AREA_OFFSET + burst_id * (1 << 22)
    words = max(8, int(burst.words_factor * region_words))
    n_sub = 8
    sub_words = max(1, words // n_sub)
    kernels: List[Kernel] = []
    for sub in range(n_sub):
        store = AddressPattern(base + sub * sub_words * 8, 1, sub_words)
        inputs = [
            AddressPattern(
                tbase + _INPUT_AREA_OFFSET + sub * _SITE_SLOT_BYTES,
                1,
                sub_words,
                offset=pass_index,
            )
        ]
        name = f"{spec.name}.burst{burst_id}.u{sub}.r{rep}"
        if burst.kind == "copy":
            kernels.append(
                chain_kernel(
                    name, store, inputs, 0, sub_words, phase=rep,
                    copy_store=True,
                )
            )
        else:
            salt = derive_seed(
                spec.seed,
                f"{spec.name}/burst{burst_id}/t{thread}/u{sub}/p{pass_index}",
            )
            if n_sub > 1:
                length = burst.len_lo + round(
                    sub * (burst.len_hi - burst.len_lo) / (n_sub - 1)
                )
            else:
                length = (burst.len_lo + burst.len_hi) // 2
            kernels.append(
                chain_kernel(
                    name, store, inputs, length - 1, sub_words, phase=rep,
                    salt=salt,
                )
            )
    return kernels

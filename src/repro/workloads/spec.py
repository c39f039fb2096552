"""Workload specifications.

A :class:`WorkloadSpec` fully describes one benchmark: its slice-length
mix, store-site structure, iterative rewrite cadence, burst phases,
compute density and sharing topology.  ``build_programs`` turns the spec
into one :class:`~repro.isa.program.Program` per core.

Program shape
-------------
Each thread owns ``sites`` store sites, each sweeping a private subregion
once per *rep* (a timestep).  The program is ``reps`` timesteps; with the
default 25 checkpoints a few reps land in every interval, so each
interval's first-writes overwrite values associated in the immediately
preceding interval — exactly the window the AddrMap's two-generation
retention covers.  A per-rep *shared kernel* makes the cores of one
cluster touch common cache lines, which the directory turns into the
communication groups local checkpointing coordinates.

Bursts inject one-off heavy phases (a fresh scatter in ``is``, a long-
slice sweep in ``ft``): they create the skewed Max checkpoints of Fig. 9
and the temporal variation of Fig. 10.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.isa.program import Kernel, Program
from repro.util.rng import DeterministicRng
from repro.util.validation import (
    check_in_range,
    check_non_negative,
    check_positive,
)

__all__ = ["SliceLenBucket", "BurstSpec", "WorkloadSpec"]


@dataclass(frozen=True)
class SliceLenBucket:
    """A share of store sites whose slice lengths fall in ``[lo, hi]``.

    Lengths count slice instructions (ALU chain plus its MOVI constant),
    matching the compiler's :attr:`Slice.length` metric and the paper's
    threshold axis in Table II.
    """

    weight: float
    lo: int
    hi: int

    def __post_init__(self) -> None:
        check_in_range("weight", self.weight, 0.0, 1.0)
        if not (2 <= self.lo <= self.hi):
            raise ValueError(f"bucket needs 2 <= lo <= hi, got [{self.lo}, {self.hi}]")


@dataclass(frozen=True)
class BurstSpec:
    """A one-off heavy phase.

    ``rep_frac`` positions the burst within the run; ``words_factor``
    scales its footprint relative to ``region_words``.  ``kind`` is
    ``"copy"`` (non-recomputable scatter) or ``"chain"`` (slices of length
    ``[len_lo, len_hi]``).  ``passes`` > 1 re-sweeps the same burst region
    in consecutive reps, so later passes' first-writes become omittable.
    """

    rep_frac: float
    words_factor: float
    kind: str = "copy"
    len_lo: int = 2
    len_hi: int = 10
    passes: int = 1
    #: Reps between consecutive passes.  A stride spanning a checkpoint
    #: interval makes each pass's sweep a fresh set of first-writes (the
    #: earlier pass's associations are committed by then).
    pass_stride: int = 1
    #: An exclusive burst *replaces* the regular site sweeps during its
    #: reps (the way is's key scatter or ft's transpose displaces the
    #: iterative compute), concentrating the burst's checkpoint weight.
    exclusive: bool = False

    def __post_init__(self) -> None:
        check_in_range("rep_frac", self.rep_frac, 0.0, 1.0)
        check_positive("words_factor", self.words_factor)
        check_positive("passes", self.passes)
        check_positive("pass_stride", self.pass_stride)
        if self.kind not in ("copy", "chain", "widen"):
            raise ValueError(
                f"burst kind must be copy|chain|widen, got {self.kind!r}"
            )


@dataclass(frozen=True)
class WorkloadSpec:
    """Full description of one benchmark."""

    name: str
    description: str = ""
    default_threshold: int = 10
    #: Cores per communicating cluster (0 = all cores communicate).
    cluster_size: int = 0
    #: Words in each thread's store region (the footprint ceiling; the
    #: active working set modulates below it).
    region_words: int = 256
    #: Timesteps (array sweeps) per run.
    reps: int = 100
    #: Store sites per thread (subregions of ``region_words``).
    sites: int = 32
    #: Non-stored compute per store (loop control, temporaries, FP work).
    ghost_alu: int = 50
    #: Slice-length mix over store sites (weights need not sum to 1;
    #: the remainder is split between copy and accumulator sites).
    len_mix: Tuple[SliceLenBucket, ...] = ()
    #: Fraction of sites storing loaded values unmodified (never sliceable).
    copy_frac: float = 0.03
    #: Fraction of sites with loop-carried accumulators (never sliceable).
    accum_frac: float = 0.03
    #: Fraction of sites writing one word per cache line (drives the
    #: flush-vs-log cost split of a checkpoint).
    sparse_frac: float = 0.5
    #: Fraction of a site's *active* subregion swept per rep (a rotating
    #: window).  0.5 means each active word is rewritten every ~2 reps —
    #: within the AddrMap's two-generation retention for every evaluated
    #: checkpoint frequency (up to 100 checkpoints with the default reps).
    window_frac: float = 0.5
    #: Relative jitter of the per-rep window size.
    window_noise: float = 0.2
    #: The *active* working set ramps from ``ramp_start``·words to the
    #: full subregion over the first ``ramp_frac``·reps (programs start
    #: on smaller footprints — this keeps the fresh, never-recomputable
    #: first intervals from always being the largest checkpoints).
    ramp_start: float = 0.5
    ramp_frac: float = 0.12
    #: Slow sinusoidal modulation of the active working set: amplitude
    #: (fraction of the subregion) and period (fraction of reps).  This
    #: produces the per-interval checkpoint-size and recomputability
    #: variation of Fig. 10: when the working set re-expands, the regrown
    #: words' AddrMap entries have long expired, so they log fresh.
    wave_amp: float = 0.2
    wave_period_frac: float = 0.16
    #: Words in the cluster-shared communication region.
    shared_words: int = 64
    bursts: Tuple[BurstSpec, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        check_positive("region_words", self.region_words)
        check_positive("reps", self.reps)
        check_positive("sites", self.sites)
        check_non_negative("ghost_alu", self.ghost_alu)
        check_in_range("copy_frac", self.copy_frac, 0.0, 1.0)
        check_in_range("accum_frac", self.accum_frac, 0.0, 1.0)
        check_in_range("sparse_frac", self.sparse_frac, 0.0, 1.0)
        check_non_negative("cluster_size", self.cluster_size)
        check_positive("shared_words", self.shared_words)
        check_positive("default_threshold", self.default_threshold)
        check_in_range("window_frac", self.window_frac, 0.05, 1.0)
        check_in_range("window_noise", self.window_noise, 0.0, 0.9)
        check_in_range("ramp_start", self.ramp_start, 0.05, 1.0)
        check_in_range("ramp_frac", self.ramp_frac, 0.0, 1.0)
        check_in_range("wave_amp", self.wave_amp, 0.0, 0.45)
        check_in_range("wave_period_frac", self.wave_period_frac, 0.02, 1.0)
        if self.sites > self.region_words:
            raise ValueError("need at least one word per site")
        total = sum(b.weight for b in self.len_mix)
        if total + self.copy_frac + self.accum_frac > 1.0 + 1e-9:
            raise ValueError(
                f"{self.name}: mix weights + copy + accum exceed 1 "
                f"({total + self.copy_frac + self.accum_frac:.3f})"
            )

    # ------------------------------------------------------------------ build --
    def build_programs(
        self,
        num_cores: int,
        region_scale: float = 1.0,
        reps: Optional[int] = None,
    ) -> List[Program]:
        """Generate one program per core.

        ``region_scale`` shrinks/grows the per-thread footprint (tests use
        small scales for speed); ``reps`` overrides the timestep count.
        """
        from repro.workloads.kernels import (
            assign_sites,
            burst_kernels,
            shared_sweep,
            site_sweep,
        )

        check_positive("num_cores", num_cores)
        check_positive("region_scale", region_scale)
        n_reps = reps if reps is not None else self.reps
        check_positive("reps", n_reps)
        region_words = max(self.sites, int(self.region_words * region_scale))

        programs: List[Program] = []
        assignments = assign_sites(self, region_words)
        burst_at = {int(b.rep_frac * (n_reps - 1)): b for b in self.bursts}
        for thread in range(num_cores):
            cluster = (
                thread // self.cluster_size if self.cluster_size > 0 else 0
            )
            member = (
                thread % self.cluster_size if self.cluster_size > 0 else thread
            )
            # Per-thread window jitter: threads sweep the same site
            # structure (SPMD) but with independently jittered window
            # sizes, giving the realistic load imbalance that turns
            # checkpoint barriers into actual waits — the waits grow with
            # the core count (max-of-n skew), which is what degrades
            # coordinated-global scalability (§V-D4).
            rng = DeterministicRng(self.seed, f"{self.name}/windows/t{thread}")
            sweeps = [site_sweep(self, a, thread) for a in assignments]
            shared = shared_sweep(self, cluster, member)
            offsets = [0] * len(assignments)
            kernels: List[Kernel] = []
            ramp_reps = max(1, int(self.ramp_frac * n_reps))
            wave_period = max(4, int(self.wave_period_frac * n_reps))
            for rep in range(n_reps):
                widen = False
                skip_sites = False
                for burst_start, burst in burst_at.items():
                    offset = rep - burst_start
                    if (
                        offset >= 0
                        and offset % burst.pass_stride == 0
                        and offset // burst.pass_stride < burst.passes
                    ):
                        if burst.kind == "widen":
                            widen = True
                        else:
                            if burst.exclusive:
                                skip_sites = True
                            kernels.extend(
                                burst_kernels(
                                    self,
                                    burst,
                                    thread=thread,
                                    rep=rep,
                                    pass_index=offset // burst.pass_stride,
                                    region_words=region_words,
                                )
                            )
                    elif burst.kind == "widen" and 0 <= offset < (
                        burst.passes * burst.pass_stride
                    ):
                        widen = True
                ramp = min(
                    1.0,
                    self.ramp_start + (1.0 - self.ramp_start) * rep / ramp_reps,
                )
                wave = 1.0 - self.wave_amp * 0.5 * (
                    1.0 - math.cos(2.0 * math.pi * rep / wave_period)
                )
                active_frac = 1.0 if widen else ramp * wave
                for assignment, sweep in (
                    zip(assignments, sweeps) if not skip_sites else ()
                ):
                    active = max(2, round(assignment.words * active_frac))
                    jitter = 1.0 + self.window_noise * (2.0 * rng.random() - 1.0)
                    if widen:
                        win_words = active
                    else:
                        win_words = max(
                            1,
                            min(active, round(active * self.window_frac * jitter)),
                        )
                    start = offsets[assignment.index] % active
                    kernels.append(sweep(rep, active, start, win_words))
                    offsets[assignment.index] = (start + win_words) % active
                kernels.append(shared(rep))
            programs.append(Program(kernels, thread))
        return programs

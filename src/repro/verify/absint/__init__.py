"""Static vector-safety certification (abstract address-range analysis).

The vector engine (``repro.sim.vector``) replays precomputed per-kernel
trace plans instead of interpreting instructions one by one, but it may
only do so when the replay is provably equivalent to classic execution.
PR 6 made that call *at runtime, per segment* — this package makes it at
*compile/analysis time*: an abstract interpreter over the ISA IR derives
the exact address footprint of every load/store stream (``shapes``),
summarises each kernel's dataflow stability (``certify``), and issues
per-segment **vector-safety certificates** whose denials carry a
registry rule id (ACR009–ACR012) and the offending instruction span.

The runtime checks decide replay and the certificates explain it: the
simulator certifies on a segment's first fallback, and every runtime
fallback is attributable to a concrete denial — no "unknown" fallbacks.
"""

from repro.verify.absint.certify import (
    Denial,
    KernelSummary,
    ProgramSummary,
    SegmentCertificate,
    certify_run,
    summarize_program,
)
from repro.verify.absint.shapes import AccessRange, range_of, ranges_intersect

__all__ = [
    "AccessRange",
    "Denial",
    "KernelSummary",
    "ProgramSummary",
    "SegmentCertificate",
    "certify_run",
    "range_of",
    "ranges_intersect",
    "summarize_program",
]

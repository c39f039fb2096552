"""The campaign service: a long-running scheduler over the disk cache.

ROADMAP item 2 — "heavy traffic from many users" — promoted into a
subsystem.  A :class:`~repro.service.daemon.CampaignDaemon` listens on a
local Unix socket, accepts campaign submissions as line-delimited JSON
(:mod:`repro.service.protocol`), and executes them through
per-connection :class:`~repro.experiments.runner.ExperimentRunner`\\ s
that share one content-addressed
:class:`~repro.experiments.cache.ResultCache` — the only result store.
A key already in the cache costs one validated read; overlapping misses
dedupe through the :class:`~repro.service.registry.InFlightRegistry`
(per-key leases): each canonical key simulates at most once and every
subscriber receives the result.
:class:`~repro.service.client.CampaignClient` is the client library
behind the ``acr-repro serve`` / ``submit`` / ``shutdown`` CLI verbs and
``monitor --attach``.
"""

from repro.service.campaigns import CampaignSpec, campaign_report
from repro.service.client import CampaignClient, ServiceError, wait_for_socket
from repro.service.daemon import CampaignDaemon
from repro.service.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    decode_frame,
    decode_stream,
    encode_frame,
)
from repro.service.registry import InFlightRegistry

__all__ = [
    "PROTOCOL_VERSION",
    "CampaignClient",
    "CampaignDaemon",
    "CampaignSpec",
    "InFlightRegistry",
    "ProtocolError",
    "ServiceError",
    "campaign_report",
    "decode_frame",
    "decode_stream",
    "encode_frame",
    "wait_for_socket",
]

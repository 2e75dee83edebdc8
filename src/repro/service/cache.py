"""Warm per-machine-identity campaign state shared across service requests.

Every accelerator the repo has grown — learned no-goods, CDCL
unjustifiability certificates (``repro.core.clauses``), the golden-trace
cache, the path-set cache, memoized justification answers, compiled
implication networks and datapath kernels — lives on (or hangs off) one
:class:`~repro.campaign.runner.CampaignBase` instance: the generator owns
the memo stores, and the compiled structures are cached on the processor's
netlist/controller objects the campaign pins.  A CLI invocation rebuilds
all of it per process and throws it away; the service instead keeps **one
campaign per machine identity** (``dlx``, ``mini``) alive for the life of
the process, so request N+1 starts with everything request N learned.

All the stores are outcome-transparent (see ``repro.core.nogoods``), so a
warm request returns byte-identical outcomes to a cold one — only the
hit/miss split moves, and :class:`WarmCacheRegistry` accounts for exactly
that: each lease snapshots the counters before and after the request, the
per-request delta lands on the job status, and ``/metrics`` exposes the
cumulative per-machine picture including ``warm_requests`` (requests that
started with a non-empty store — the cross-request wins the ISSUE asks
for).

Sharded runs (``jobs > 1``) still rebuild worker processes cold, but the
coordinator side of the pool *is* the warm campaign: its pooled no-good
store seeds every dispatch (``nogood_records_to_wire``), so learned
records cross both worker and request boundaries.

Concurrency: one lease per machine identity at a time (an ``asyncio``
lock), because the underlying stores are plain dicts mutated by the
worker thread.  Requests for different machines run concurrently;
requests for the same machine queue on the lock — the right trade for
caches whose value is being shared.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, field
from typing import Any, AsyncIterator

import asyncio

from repro.campaign.orchestrator import build_campaign
from repro.campaign.runner import CampaignBase


def generator_cache_counters(generator) -> dict[str, dict[str, int]]:
    """The cache counters of one TestGenerator, grouped by store."""
    return {
        "nogood": generator.nogoods.stats(),
        "golden": generator._golden.stats(),
        "path": generator._path_cache.stats(),
        "clause": generator.clauses.stats(),
    }


def _store_sizes(generator) -> dict[str, int]:
    return {
        "nogood_records": len(generator.nogoods),
        "golden_traces": len(generator._golden),
        "path_entries": len(generator._path_cache),
        "clause_records": len(generator.clauses),
    }


#: Store-size counters: meaningful as absolutes, not as request deltas.
_OCCUPANCY_KEYS = frozenset({
    "entries", "records", "justify_entries",
})


def _counter_delta(
    before: dict[str, dict[str, int]], after: dict[str, dict[str, int]]
) -> dict[str, dict[str, int]]:
    return {
        store: {
            key: value - before.get(store, {}).get(key, 0)
            for key, value in counters.items()
            if key not in _OCCUPANCY_KEYS
        }
        for store, counters in after.items()
    }


@dataclass
class _WarmEntry:
    """One machine identity's long-lived campaign plus its accounting."""

    campaign: CampaignBase
    lock: asyncio.Lock = field(default_factory=asyncio.Lock)
    requests: int = 0
    #: Requests that began with at least one warm store entry — i.e. that
    #: could (and, given identical work, do) hit caches populated by an
    #: earlier request.
    warm_requests: int = 0
    built_at: float = field(default_factory=time.time)
    last_request: dict[str, Any] | None = None


class WarmLease:
    """A held lease on one machine's warm campaign (see ``lease()``)."""

    def __init__(self, entry: _WarmEntry) -> None:
        self._entry = entry
        self.campaign = entry.campaign
        self.warm_start = _store_sizes(entry.campaign.generator)
        self._before = generator_cache_counters(entry.campaign.generator)

    def report(self) -> dict[str, Any]:
        """The per-request cache story: what was warm at the start and
        how much of it this request hit.  Attached to the job status."""
        after = generator_cache_counters(self.campaign.generator)
        return {
            "warm_start": dict(self.warm_start),
            "delta": _counter_delta(self._before, after),
        }


class WarmCacheRegistry:
    """Long-lived campaigns keyed by machine identity.

    ``lease(target, deadline_seconds)`` is an async context manager: it
    builds the campaign on first use (cold), re-arms its generator
    deadline, and yields a :class:`WarmLease` while holding the
    per-machine lock.  The campaign object — and with it the processor,
    whose netlist/controller carry the compiled kernels and implication
    network — is pinned for the registry's lifetime.
    """

    def __init__(self) -> None:
        self._entries: dict[str, _WarmEntry] = {}
        self._build_lock = asyncio.Lock()
        self.cold_builds = 0

    async def _entry(self, target: str, deadline_seconds: float) -> _WarmEntry:
        """Get-or-build, with the cold build off the event loop.

        ``build_campaign`` compiles kernels and networks for seconds —
        run it in the default executor so /healthz, submissions and live
        streams stay responsive, with a lock (double-checked) so two
        concurrent first requests build once.
        """
        entry = self._entries.get(target)
        if entry is not None:
            return entry
        async with self._build_lock:
            entry = self._entries.get(target)
            if entry is None:
                campaign = await asyncio.get_running_loop().run_in_executor(
                    None, build_campaign, target, deadline_seconds
                )
                entry = _WarmEntry(campaign=campaign)
                self._entries[target] = entry
                self.cold_builds += 1
            return entry

    @contextlib.asynccontextmanager
    async def lease(
        self, target: str, deadline_seconds: float
    ) -> AsyncIterator[WarmLease]:
        entry = await self._entry(target, deadline_seconds)
        async with entry.lock:
            # The deadline is a per-request knob on the long-lived
            # generator; TG reads it at generate() time.
            entry.campaign.generator.deadline_seconds = deadline_seconds
            lease = WarmLease(entry)
            entry.requests += 1
            if any(lease.warm_start.values()):
                entry.warm_requests += 1
            try:
                yield lease
            finally:
                entry.last_request = lease.report()

    def stats(self) -> dict[str, Any]:
        """Per-machine cumulative cache metrics for ``/metrics``."""
        out: dict[str, Any] = {}
        for target, entry in sorted(self._entries.items()):
            generator = entry.campaign.generator
            out[target] = {
                "requests": entry.requests,
                "warm_requests": entry.warm_requests,
                "store": _store_sizes(generator),
                "counters": generator_cache_counters(generator),
                "last_request": entry.last_request,
            }
        return out

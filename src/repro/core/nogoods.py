"""Cross-error learned no-goods and memoized search results for TG.

Errors at (or near) the same site select the same DPTRACE paths and hand
CTRLJUST the same objective sets — and when those objectives are
unjustifiable, today's search rediscovers the same dead end for every
error, paying a full justification failure plus the O(n²) ``_blame``
localization each time.  This module gives :class:`TestGenerator` three
memo layers, all **outcome-transparent**: every key captures everything
the deterministic search result depends on, and every hit replays the
recorded effort counters, so learning on/off produces byte-identical
detected/aborted outcomes and backtrack statistics.

* **Failure no-goods** (:meth:`LearnedNogoods.lookup_blame`) — keyed by
  the window size, the frame-offset-normalized ordered objective set,
  the normalized control-side decision set, the justify variant and the
  backtrack limit; the entry records the blamed decisions and the failed
  justification's backtrack and CDCL-refuter counters.  A hit skips both
  the doomed CTRLJUST run and the whole ``_blame`` pass.

* **Justification results** (:meth:`LearnedNogoods.cached_justify`) — a
  process-local LRU of full :class:`~repro.core.ctrljust.JustResult`\\ s
  (successes and failures) under the same keying minus the control side;
  the convergence round-trip and ``_blame``'s prefix probes re-ask the
  same questions constantly.

* **Path-set cache** (:class:`PathCache`) — memoized
  :class:`~repro.core.dptrace.TraceResult`\\ s per (window, site,
  activation frame, implied-ctrl fingerprint, discouraged fingerprint,
  variant, backtrack limit); the justify-variants retry loop and
  repeated windows across errors at one site reuse selections.

Deadline-tainted results (``deadline_hit``) are never stored: they
depend on wall-clock state, and caching them would make outcomes depend
on timing.

Keys normalize frames by subtracting the window's minimum objective
frame *and* keep that offset in the key — entries are shared exactly
(never across genuinely different windows, since frame 0 carries the
reset-state boundary and breaks shift invariance).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

#: ((frame, name), value) pairs as emitted by DPTRACE.
CtrlItems = tuple[tuple[tuple[int, str], int], ...]


def _normalize(items, offset: int) -> tuple:
    return tuple(
        ((frame - offset, name), value) for (frame, name), value in items
    )


def blame_key(
    n_frames: int,
    accumulated_items: CtrlItems,
    trace_items: CtrlItems,
    control_side,
    variant: int,
    limits: tuple[int, int],
) -> tuple:
    """Key of one (doomed) justification *plus* its blame context.

    The failed justification question is the ordered accumulated
    objective set; the blame localization runs over the current trace's
    objectives with its control-side subset preferred — both are in the
    key, with the justify variant and the (justify, blame) backtrack
    limits, so a hit replays exactly what re-running would decide.
    """
    offset = min((f for (f, _), _ in accumulated_items), default=0)
    return (
        n_frames,
        offset,
        _normalize(accumulated_items, offset),
        _normalize(trace_items, offset),
        frozenset(_normalize(control_side, offset)),
        variant,
        limits,
    )


def justify_key(
    n_frames: int, objective_items: CtrlItems, variant: int, limit: int
) -> tuple:
    """Key of one justification question (no blame context)."""
    offset = min((f for (f, _), _ in objective_items), default=0)
    return (n_frames, offset, _normalize(objective_items, offset), variant,
            limit)


@dataclass
class LearnedNogoods:
    """Shared no-good store, living on :class:`TestGenerator`."""

    max_results: int = 512

    #: blame key -> (blamed items tuple, recorded justify backtracks,
    #: recorded CDCL counters (conflicts, learned, backjumps, clause
    #: hits, refuted 0/1)).  The CDCL column lets a replay reproduce the
    #: refuter's effort accounting exactly, keeping learning on/off (and
    #: warm/cold) counter-identical outside the cache-traffic keys.
    _blames: dict = field(default_factory=dict)
    #: justify key -> JustResult (LRU).
    _results: OrderedDict = field(default_factory=OrderedDict)

    hits: int = 0
    misses: int = 0
    justify_hits: int = 0
    justify_misses: int = 0

    # ------------------------------------------------------------------
    # Failure no-goods
    # ------------------------------------------------------------------
    def lookup_blame(self, key):
        """The recorded (blamed, backtracks, cdcl) for ``key``, or
        ``None``."""
        entry = self._blames.get(key)
        if entry is None:
            self.misses += 1
        else:
            self.hits += 1
        return entry

    def record_blame(
        self,
        key,
        blamed,
        backtracks: int,
        cdcl: tuple = (0, 0, 0, 0, 0),
        deadline_hit: bool = False,
    ) -> None:
        """Record a localized failure.

        The taint rule is enforced here, uniformly for every call site:
        a search (or blame pass) cut short by the deadline never learns,
        because its blamed set is best-effort and wall-clock dependent —
        the same rule :meth:`cached_justify` and :meth:`PathCache.store`
        apply.
        """
        if deadline_hit:
            return
        if key in self._blames:
            return
        self._blames[key] = (tuple(blamed), backtracks, tuple(cdcl))

    def __len__(self) -> int:
        return len(self._blames)

    def stats(self) -> dict[str, int]:
        """Hit/miss/occupancy counters for the two memo layers (the
        campaign service's ``/metrics`` reads these)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "records": len(self._blames),
            "justify_hits": self.justify_hits,
            "justify_misses": self.justify_misses,
            "justify_entries": len(self._results),
        }

    # ------------------------------------------------------------------
    # Justification result memo
    # ------------------------------------------------------------------
    def cached_justify(self, key, compute):
        """Return the memoized :class:`JustResult` for ``key``, calling
        ``compute()`` on a miss.  Deadline-tainted results pass through
        uncached."""
        result = self._results.get(key)
        if result is not None:
            self.justify_hits += 1
            self._results.move_to_end(key)
            return result
        self.justify_misses += 1
        result = compute()
        if not getattr(result, "deadline_hit", False):
            self._results[key] = result
            while len(self._results) > self.max_results:
                self._results.popitem(last=False)
        return result


@dataclass
class PathCache:
    """Memoized DPTRACE selections, living on :class:`TestGenerator`."""

    max_entries: int = 1024

    _entries: OrderedDict = field(default_factory=OrderedDict)
    hits: int = 0
    misses: int = 0

    def __len__(self) -> int:
        return len(self._entries)

    def stats(self) -> dict[str, int]:
        """Hit/miss/occupancy counters (read by the campaign service)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "entries": len(self._entries),
        }

    @staticmethod
    def key(
        n_frames: int,
        site: str,
        act_frame: int,
        implied_ctrl: dict,
        discouraged,
        variant: int,
        limit: int,
    ) -> tuple:
        return (
            n_frames, site, act_frame,
            frozenset(implied_ctrl.items()),
            frozenset(discouraged),
            variant, limit,
        )

    def lookup(self, key):
        """The cached (TraceResult, sweeps_avoided) pair, or ``None``."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        self._entries.move_to_end(key)
        return entry

    def store(self, key, trace, sweeps_avoided: int) -> None:
        if trace.deadline_hit:
            return
        self._entries[key] = (trace, sweeps_avoided)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)

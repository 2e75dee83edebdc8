"""Tests for the structured campaign event stream."""

import io
import time

import pytest

from repro.campaign.events import (
    EVENT_KINDS,
    EVENT_SCHEMA_VERSION,
    CampaignEvent,
    EventLog,
    EventStream,
    ProgressRenderer,
    event_from_dict,
)


def test_emit_dispatches_to_all_subscribers():
    stream = EventStream()
    seen_a, seen_b = [], []
    stream.subscribe(seen_a.append)
    stream.subscribe(seen_b.append)
    event = stream.emit("error-started", error="e", index=0)
    assert seen_a == [event]
    assert seen_b == [event]
    assert event.kind == "error-started"
    assert event.data == {"error": "e", "index": 0}
    assert event.wall_time > 0


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        EventStream().emit("no-such-event")


def test_event_to_dict_roundtrip_shape():
    event = CampaignEvent("checkpoint-written", 12.5, {"path": "x"}, seq=7)
    data = event.to_dict()
    assert data == {
        "kind": "checkpoint-written",
        "schema_version": EVENT_SCHEMA_VERSION,
        "seq": 7,
        "wall_time": 12.5,
        "data": {"path": "x"},
    }
    rebuilt = event_from_dict(data)
    assert rebuilt == event


def test_event_from_dict_tolerates_preversion_records():
    """Logs written before schema_version/seq existed still load."""
    old = {"kind": "error-started", "wall_time": 1.0,
           "data": {"error": "e", "index": 0}}
    event = event_from_dict(old)
    assert event.seq == 0
    assert event.kind == "error-started"
    # Unknown kinds stream through unchanged (newer server, older client),
    # and so do retired ones (schema 3's ``--profile`` events).
    assert event_from_dict({"kind": "from-the-future"}).kind == \
        "from-the-future"
    retired = {"kind": "profile-summary", "schema_version": 3, "seq": 29,
               "wall_time": 1.0, "data": {"golden_misses": 8}}
    assert event_from_dict(retired).data == {"golden_misses": 8}
    with pytest.raises(ValueError):
        event_from_dict({"wall_time": 1.0})


def test_event_stream_seq_is_monotonic_per_stream():
    stream = EventStream()
    events = [stream.emit("error-started", error="e", index=i)
              for i in range(3)]
    assert [e.seq for e in events] == [0, 1, 2]
    assert EventStream().emit("error-started", error="x", index=0).seq == 0


def test_event_log_ring_buffer_bounds_memory():
    stream = EventStream()
    log = EventLog(max_events=3)
    stream.subscribe(log)
    for i in range(10):
        stream.emit("error-started", error=f"e{i}", index=i)
    assert len(log.events) == 3
    assert log.seen == 10
    assert log.dropped == 7
    # seq survives eviction, so readers can detect the gap and resume.
    assert [e.seq for e in log.events] == [7, 8, 9]
    assert [e.seq for e in log.since(8)] == [9]
    with pytest.raises(ValueError):
        EventLog(max_events=0)


def test_event_log_is_thread_safe_under_concurrent_append_and_read():
    """The service appends from a worker thread while /events streamers
    iterate from the asyncio thread: an unguarded deque raises
    ``deque mutated during iteration`` under that interleaving."""
    import threading

    stream = EventStream()
    log = EventLog(max_events=64)
    stream.subscribe(log)
    stop = threading.Event()
    errors: list[BaseException] = []

    def writer() -> None:
        i = 0
        while not stop.is_set():
            stream.emit("error-started", error=f"e{i}", index=i)
            i += 1

    thread = threading.Thread(target=writer)
    thread.start()
    try:
        deadline = time.time() + 1.0
        while time.time() < deadline:
            try:
                log.since(-1)
                log.to_dicts()
                log.of_kind("error-started")
                _ = log.dropped
            except BaseException as exc:  # noqa: BLE001 - recorded
                errors.append(exc)
                break
    finally:
        stop.set()
        thread.join(timeout=5)
    assert not errors
    assert log.seen > 0


def test_event_log_clear_keeps_seen():
    stream = EventStream()
    log = EventLog()
    stream.subscribe(log)
    for i in range(4):
        stream.emit("error-started", error=f"e{i}", index=i)
    log.clear()
    assert log.events == []
    assert log.seen == 4
    stream.emit("error-started", error="e4", index=4)
    assert [e.seq for e in log.events] == [4]


def test_event_log_collects_and_filters():
    stream = EventStream()
    log = EventLog()
    stream.subscribe(log)
    stream.emit("campaign-started", target="mini", n_errors=1, jobs=1,
                error_simulation=False, resumed=0)
    stream.emit("error-started", error="e", index=0)
    assert len(log.events) == 2
    assert [e.kind for e in log.of_kind("error-started")] == ["error-started"]
    assert log.to_dicts()[0]["kind"] == "campaign-started"


def test_progress_renderer_lines():
    out = io.StringIO()
    stream = EventStream()
    stream.subscribe(ProgressRenderer(out))
    stream.emit("campaign-started", target="mini", n_errors=3, jobs=2,
                error_simulation=True, resumed=1)
    stream.emit("error-finished", error="e1", index=0, detected=True,
                failure_stage="", test_length=4, backtracks=2,
                final_backtracks=1, attempts=1, seconds=0.5)
    stream.emit("test-dropped-others", error="e1", dropped=["e2"],
                seconds=0.1)
    stream.emit("campaign-finished", n_errors=3, n_detected=3, n_aborted=0,
                backtracks=2, wall_seconds=1.0)
    text = out.getvalue()
    assert "3 errors" in text
    assert "1 resumed from checkpoint" in text
    assert "[   2/3] e1: detected (len 4, 1 backtracks) in 0.5s" in text
    assert "[   3/3] dropped 1 error(s)" in text
    assert "campaign finished: 3 detected, 0 aborted" in text


def test_progress_renderer_aborted_line():
    out = io.StringIO()
    renderer = ProgressRenderer(out)
    renderer(CampaignEvent("campaign-started", 0.0,
                           {"target": "dlx", "n_errors": 1, "jobs": 1,
                            "error_simulation": False, "resumed": 0}))
    renderer(CampaignEvent("error-finished", 0.0,
                           {"error": "e", "index": 0, "detected": False,
                            "failure_stage": "tg", "test_length": 0,
                            "backtracks": 9, "final_backtracks": 9,
                            "attempts": 3, "seconds": 2.0}))
    assert "aborted (tg)" in out.getvalue()


def test_event_kinds_frozen():
    assert "error-finished" in EVENT_KINDS
    assert "campaign-finished" in EVENT_KINDS

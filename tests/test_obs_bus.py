"""Event bus semantics: delivery, filtering, exact backpressure.

The bus is the contract the whole telemetry layer rests on — emission
never blocks or raises, every subscriber owns a bounded queue, and loss
is counted exactly.  The property suite drives random emit/drain
schedules against a trivial reference model to pin the drop accounting.
"""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.obs import DEFAULT_CAPACITY, Event, EventBus, Subscription


class TestEvent:
    def test_as_tuple_round_trips_through_the_forwarding_form(self):
        event = Event("serve.batch", source="shard2", payload={"rows": 4})
        kind, source, payload = event.as_tuple()
        assert Event(kind, source, payload) == event

    def test_defaults(self):
        event = Event("x")
        assert event.source == ""
        assert event.payload == {}


class TestDelivery:
    def test_emit_reaches_every_matching_subscriber(self):
        bus = EventBus()
        everything = bus.subscribe(name="all")
        batches = bus.subscribe(kinds=["batcher.batch"], name="batches")
        bus.emit("batcher.batch", source="shard0", size=8)
        bus.emit("serve.window", window=0)
        assert [event.kind for event in everything.drain()] \
            == ["batcher.batch", "serve.window"]
        only = batches.drain()
        assert [event.kind for event in only] == ["batcher.batch"]
        assert only[0].payload == {"size": 8}
        assert only[0].source == "shard0"

    def test_emit_with_no_subscribers_only_counts(self):
        bus = EventBus()
        for _ in range(5):
            bus.emit("serve.batch")
        assert bus.emitted == 5
        assert bus.dropped == 0

    def test_drain_hands_over_and_resets(self):
        bus = EventBus()
        sub = bus.subscribe()
        bus.emit("a")
        assert len(sub) == 1
        assert len(sub.drain()) == 1
        assert len(sub) == 0
        assert sub.drain() == []
        # received is cumulative across drains.
        bus.emit("b")
        assert sub.received == 2

    def test_emit_event_forwarding_path_matches_emit(self):
        bus = EventBus()
        sub = bus.subscribe(kinds=["serve.batch"])
        bus.emit_event(Event("serve.batch", "shard3", {"rows": 2}))
        bus.emit_event(Event("other"))
        events = sub.drain()
        assert len(events) == 1
        assert events[0].source == "shard3"
        assert bus.emitted == 2


class TestBackpressure:
    def test_full_queue_drops_exactly_and_never_raises(self):
        bus = EventBus()
        sub = bus.subscribe(capacity=3)
        for index in range(10):
            bus.emit("tick", index=index)
        assert len(sub) == 3
        assert sub.dropped == 7
        assert sub.received == 3
        assert bus.dropped == 7
        # The oldest events survive (queue, not ring).
        assert [event.payload["index"] for event in sub.drain()] \
            == [0, 1, 2]
        # Draining frees capacity; the drop counter stays cumulative.
        bus.emit("tick", index=10)
        assert len(sub) == 1
        assert sub.dropped == 7

    def test_drops_are_per_subscriber(self):
        bus = EventBus()
        tiny = bus.subscribe(capacity=1)
        roomy = bus.subscribe(capacity=100)
        for _ in range(4):
            bus.emit("tick")
        assert tiny.dropped == 3
        assert roomy.dropped == 0
        assert bus.dropped == 3
        stats = bus.stats()
        assert stats["emitted"] == 4
        assert stats["dropped"] == 3
        by_name = {row["name"]: row for row in stats["subscribers"]}
        assert by_name[""]["buffered"] in (1, 4)

    def test_zero_capacity_drops_everything(self):
        bus = EventBus()
        sub = bus.subscribe(capacity=0)
        bus.emit("tick")
        assert sub.dropped == 1
        assert len(sub) == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            Subscription(capacity=-1)

    def test_default_capacity_is_generous(self):
        assert EventBus().subscribe().capacity == DEFAULT_CAPACITY


@given(st.lists(st.one_of(
    st.integers(min_value=1, max_value=40),   # emit a burst of n events
    st.just("drain")),                        # drain the queue
    max_size=30),
    st.integers(min_value=0, max_value=16))   # queue capacity
def test_drop_counter_is_exact_under_any_schedule(schedule, capacity):
    """Property: drops == emitted - received, for every emit/drain
    interleaving, and the buffered count never exceeds capacity."""
    bus = EventBus()
    sub = bus.subscribe(capacity=capacity)
    emitted = 0
    expected_buffered = 0
    expected_dropped = 0
    for step in schedule:
        if step == "drain":
            assert len(sub.drain()) == expected_buffered
            expected_buffered = 0
        else:
            for _ in range(step):
                bus.emit("tick")
                emitted += 1
                if expected_buffered < capacity:
                    expected_buffered += 1
                else:
                    expected_dropped += 1
        assert len(sub) == expected_buffered
        assert sub.dropped == expected_dropped
    assert bus.emitted == emitted
    assert sub.received == emitted - expected_dropped
    assert bus.dropped == expected_dropped

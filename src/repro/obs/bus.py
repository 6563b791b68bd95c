"""The telemetry event bus.

:class:`EventBus` decouples the serving hot path from every consumer
of its telemetry: components *emit* typed :class:`Event` records and
each subscriber owns a **bounded, drop-counting queue** — ``emit`` is
an O(1) append (or an O(1) drop when the subscriber is full), never a
block, never an exception.  Consumers *pull* with
:meth:`Subscription.drain`, so delivery happens at well-defined points
(window boundaries, report time, the ``/metrics`` scrape) and the
replay paths stay deterministic.

Loss is explicit, not silent: every subscription counts exactly how
many events it dropped (:attr:`Subscription.dropped`), and the bus
counts everything emitted (:attr:`EventBus.emitted`) — the difference
is auditable back-pressure, the property suite pins it.

Events are plain data (``kind``, ``source``, JSON-able ``payload``),
so worker processes can forward them over their existing ack pipes as
``(kind, source, payload)`` tuples and the supervisor re-emits them
onto its own bus.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Default per-subscriber queue bound.  Generous for one replay window
#: between drains; small enough that a stalled consumer costs a fixed
#: amount of memory, not an unbounded backlog.
DEFAULT_CAPACITY = 65536


@dataclass(frozen=True)
class Event:
    """One typed telemetry record."""

    kind: str
    source: str = ""
    payload: dict = field(default_factory=dict)

    def as_tuple(self) -> tuple:
        """Pickle/pipe-friendly form for cross-process forwarding."""
        return (self.kind, self.source, self.payload)


class Subscription:
    """One consumer's bounded event queue.

    ``push`` (called by the bus) appends while below ``capacity`` and
    counts a drop otherwise — the producer side can never block on a
    slow consumer.  ``drain`` hands the buffered events over and
    resets the buffer; the drop counter is cumulative and exact.
    """

    __slots__ = ("name", "kinds", "capacity", "dropped", "received",
                 "_events")

    def __init__(self, kinds=None, capacity: int = DEFAULT_CAPACITY,
                 name: str = ""):
        if capacity < 0:
            raise ValueError("capacity cannot be negative")
        self.name = name
        self.kinds = frozenset(kinds) if kinds is not None else None
        self.capacity = capacity
        self.dropped = 0
        self.received = 0
        self._events: list[Event] = []

    def matches(self, kind: str) -> bool:
        return self.kinds is None or kind in self.kinds

    def push(self, event: Event) -> bool:
        """Buffer one event; count (and report) a drop when full."""
        if len(self._events) >= self.capacity:
            self.dropped += 1
            return False
        self._events.append(event)
        self.received += 1
        return True

    def __len__(self) -> int:
        return len(self._events)

    def drain(self) -> list[Event]:
        """Hand over everything buffered since the last drain."""
        events = self._events
        self._events = []
        return events


class EventBus:
    """Typed events in, bounded subscriber queues out.

    Emission is wait-free by construction: no locks beyond the GIL, no
    allocation proportional to subscriber backlog, no exceptions on
    overflow.  With zero subscribers an ``emit`` is a counter bump.
    """

    __slots__ = ("emitted", "_subscriptions")

    def __init__(self):
        self.emitted = 0
        self._subscriptions: list[Subscription] = []

    # -- consumer side --------------------------------------------------
    def subscribe(self, kinds=None, capacity: int = DEFAULT_CAPACITY,
                  name: str = "") -> Subscription:
        """Register a consumer; ``kinds=None`` receives everything."""
        subscription = Subscription(kinds, capacity, name)
        self._subscriptions.append(subscription)
        return subscription

    # -- producer side --------------------------------------------------
    def emit(self, kind: str, source: str = "", **payload) -> None:
        """Publish one event to every matching subscriber (never blocks)."""
        self.emitted += 1
        event = None
        for subscription in self._subscriptions:
            if subscription.matches(kind):
                if event is None:
                    event = Event(kind, source, payload)
                subscription.push(event)

    def emit_event(self, event: Event) -> None:
        """Publish an already-built event (the forwarding path)."""
        self.emitted += 1
        for subscription in self._subscriptions:
            if subscription.matches(event.kind):
                subscription.push(event)

    # -- accounting -----------------------------------------------------
    @property
    def dropped(self) -> int:
        """Total events dropped across every subscription (exact)."""
        return sum(subscription.dropped
                   for subscription in self._subscriptions)

    def stats(self) -> dict:
        return {
            "emitted": self.emitted,
            "dropped": self.dropped,
            "subscribers": [
                {"name": subscription.name,
                 "buffered": len(subscription),
                 "received": subscription.received,
                 "dropped": subscription.dropped}
                for subscription in self._subscriptions],
        }

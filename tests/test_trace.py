"""Tests for per-request tracing through the metrics registry."""

import json

from repro.core import PulseCluster
from repro.obs import MetricsRegistry, render_events, request_timeline
from repro.sim import Environment
from repro.structures import LinkedList

#: top-level keys of an untraced registry snapshot
UNTRACED_KEYS = ["now_ns", "counters", "gauges", "histograms"]


def traced_registry(**kwargs):
    env = Environment()
    registry = MetricsRegistry(clock=lambda: env.now)
    registry.enable_events(**kwargs)
    return env, registry


class TestTracerUnit:
    def test_records_in_time_order(self):
        env, registry = traced_registry()
        registry.event("a", "first", (0, 1))
        env.run(until=100)
        registry.event("b", "second", (0, 1))
        events = request_timeline(registry.snapshot(), (0, 1))
        assert [e["event"] for e in events] == ["first", "second"]
        assert events[0]["time_ns"] < events[1]["time_ns"]

    def test_capacity_drops_extras(self):
        _env, registry = traced_registry(capacity=2)
        for i in range(5):
            registry.event("x", "e", (0, i))
        snapshot = registry.snapshot()
        assert len(snapshot["events"]) == 2
        assert snapshot["counters"]["obs.events_dropped"] == 3

    def test_disabled_tracer_records_nothing(self):
        registry = MetricsRegistry()
        registry.event("x", "e", (0, 1))
        assert "events" not in registry.snapshot()

    def test_null_tracer_is_inert(self):
        """Tracing off, the event call is a no-op that leaves no trace."""
        registry = MetricsRegistry()
        registry.event("x", "e", (0, 1), anything="goes")
        snapshot = registry.snapshot()
        assert list(snapshot) == UNTRACED_KEYS
        assert request_timeline(snapshot, (0, 1)) == []
        assert render_events(snapshot.get("events", ())) == ""

    def test_render_mentions_components(self):
        _env, registry = traced_registry()
        registry.event("client0", "issue", (0, 1), program="hash_find")
        registry.event("mem0", "rx", (0, 1), cur_ptr=0x40)
        text = render_events(request_timeline(registry.snapshot(), (0, 1)))
        assert "client0" in text and "hash_find" in text
        assert "req=(0, 1)" in text
        assert "cur_ptr=0x40" in text  # addresses format at render time

    def test_values_stay_raw_and_json_able(self):
        _env, registry = traced_registry()
        registry.event("mem0", "direct_read", (0, 1), vaddr=4096)
        snapshot = json.loads(json.dumps(registry.snapshot()))
        (event,) = snapshot["events"]
        assert event["detail"] == {"vaddr": 4096}
        assert event["request_id"] == [0, 1]

    def test_reset_empties_the_log(self):
        _env, registry = traced_registry(capacity=1)
        registry.event("x", "e", (0, 1))
        registry.event("x", "e", (0, 2))
        registry.reset()
        snapshot = registry.snapshot()
        assert snapshot["events"] == []
        assert snapshot["counters"]["obs.events_dropped"] == 0


def alternating_find():
    """find(5) on a 5-element chain alternating between two nodes."""
    cluster = PulseCluster(node_count=2, trace=True)
    lst = LinkedList(cluster.memory, placement=lambda o: o % 2)
    lst.extend((k, k) for k in range(1, 6))
    result = cluster.run_traversal(lst.find_iterator(), 5)
    return result, cluster.timeline((0, 1)), cluster.render((0, 1))


class TestClusterTracing:
    def test_full_request_timeline(self):
        result, timeline, text = alternating_find()
        assert result.value == 5

        events = [e["event"] for e in timeline]
        assert len(events) == 18
        assert events[0] == "issue"
        assert "route_to_memory" in events
        assert "reroute" in events          # crossed nodes 4 times
        assert events.count("execute") == 5  # one per node visit
        assert events.count("rx") == 5
        assert {"mem0", "mem1"} <= {e["component"] for e in timeline}
        assert "return_to_client" in events
        assert events[-1] == "complete"
        assert "mem1" in text and "cur_ptr=0x" in text
        # The span matches the measured latency to within the client's
        # final stack hold.
        span = timeline[-1]["time_ns"] - timeline[0]["time_ns"]
        assert span <= result.latency_ns
        assert span > 0.5 * result.latency_ns

    def test_tracing_off_by_default(self):
        cluster = PulseCluster(node_count=1)
        lst = LinkedList(cluster.memory)
        lst.extend([(1, 1)])
        cluster.run_traversal(lst.find_iterator(), 1)
        assert cluster.timeline((0, 1)) == []
        assert list(cluster.metrics_snapshot()) == UNTRACED_KEYS

    def test_tracing_does_not_change_timing(self):
        def latency(trace):
            cluster = PulseCluster(node_count=1, trace=trace)
            lst = LinkedList(cluster.memory)
            lst.extend((k, k) for k in range(1, 21))
            return cluster.run_traversal(
                lst.find_iterator(), 20).latency_ns

        assert latency(True) == latency(False)

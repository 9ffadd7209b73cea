"""Registry naming contract: collisions, malformed names, scopes,
lookup, and snapshots."""

import pytest

from repro.obs import Counter, MetricsRegistry


class TestRegistration:
    def test_collision_rejected(self):
        registry = MetricsRegistry()
        registry.counter("core.log.entries_created")
        with pytest.raises(ValueError, match="already registered"):
            registry.counter("core.log.entries_created")

    def test_collision_rejected_across_kinds(self):
        registry = MetricsRegistry()
        registry.counter("core.log.x")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("core.log.x")

    @pytest.mark.parametrize("bad", [
        "reads",                 # no hierarchy
        "block.reads",           # only two segments
        "Block.ssd0.reads",      # uppercase
        "block.ssd-0.reads",     # unsanitized dash
        "block..reads",          # empty segment
        "block.ssd0.reads ",     # trailing space
    ])
    def test_malformed_name_rejected(self, bad):
        registry = MetricsRegistry()
        with pytest.raises(ValueError, match="invalid metric name"):
            registry.counter(bad)

    def test_register_returns_the_metric(self):
        registry = MetricsRegistry()
        counter = registry.register(Counter("a.b.c"))
        assert registry.get("a.b.c") is counter

    def test_deep_hierarchies_allowed(self):
        registry = MetricsRegistry()
        registry.counter("core.nvcache.read_cache.clock.hand_sweeps")


class TestScope:
    def test_scope_prefixes_every_kind(self):
        registry = MetricsRegistry()
        scope = registry.scope("block.ssd0")
        scope.counter("reads")
        scope.gauge("queue_depth")
        scope.histogram("read_latency")
        assert registry.names() == [
            "block.ssd0.queue_depth",
            "block.ssd0.read_latency",
            "block.ssd0.reads",
        ]

    def test_scope_collision_still_rejected(self):
        registry = MetricsRegistry()
        registry.scope("block.ssd0").counter("reads")
        with pytest.raises(ValueError, match="already registered"):
            registry.scope("block.ssd0").counter("reads")


class TestLookup:
    def test_get_has_dict_get_semantics(self):
        registry = MetricsRegistry()
        assert registry.get("no.such.metric") is None
        assert registry.get("no.such.metric", 7) == 7

    def test_collect_by_prefix(self):
        registry = MetricsRegistry()
        registry.counter("block.ssd0.reads")
        registry.counter("block.hdd0.reads")
        registry.counter("core.log.full_waits")
        assert [m.name for m in registry.collect("block")] == [
            "block.hdd0.reads", "block.ssd0.reads"]
        assert [m.name for m in registry.collect("block.ssd0")] == [
            "block.ssd0.reads"]

    def test_prefix_does_not_match_partial_segment(self):
        registry = MetricsRegistry()
        registry.counter("block.ssd0.reads")
        registry.counter("blocked.x.y")
        assert [m.name for m in registry.collect("block")] == [
            "block.ssd0.reads"]

    def test_layers(self):
        registry = MetricsRegistry()
        registry.counter("block.ssd0.reads")
        registry.counter("core.log.full_waits")
        registry.counter("nvmm.pmem0.psyncs")
        assert registry.layers() == ["block", "core", "nvmm"]


class TestSnapshots:
    def test_snapshot_scalars(self):
        registry = MetricsRegistry()
        registry.counter("a.b.counter").inc(3)
        registry.gauge("a.b.gauge").set(1.5)
        hist = registry.histogram("a.b.hist")
        hist.observe(1e-5)
        hist.observe(2e-5)
        assert registry.snapshot() == {
            "a.b.counter": 3, "a.b.gauge": 1.5, "a.b.hist": 2}

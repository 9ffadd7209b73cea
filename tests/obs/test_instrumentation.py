"""The instrumented stacks: every layer registers, values move under a
workload, and metrics stay off (and free) by default."""

import pytest

from repro.harness import Scale, build_stack
from repro.harness.reporting import format_metrics_by_layer, format_metrics_table
from repro.workloads import FioJob, run_fio

SCALE = Scale(4096)


def run_small_job(stack, rw="randwrite", size=64 * 4096, fsync=1):
    job = FioJob(rw=rw, block_size=4096, size=size, fsync=fsync)
    return run_fio(stack.env, stack.libc, job, "/bench.dat",
                   settle=stack.settle)


class TestRegistration:
    def test_metrics_off_by_default(self):
        stack = build_stack("nvcache+ssd", SCALE)
        assert stack.metrics is None
        assert stack.env.metrics is None

    def test_every_layer_registers_at_least_three_metrics(self):
        stack = build_stack("nvcache+ssd", SCALE, metrics=True)
        assert stack.metrics is stack.env.metrics
        for layer in ("nvmm", "block", "kernel", "fs", "core"):
            layer_metrics = list(stack.metrics.collect(layer))
            assert len(layer_metrics) >= 3, layer

    def test_expected_component_prefixes(self):
        stack = build_stack("nvcache+ssd", SCALE, metrics=True)
        names = stack.metrics.names()
        for prefix in ("nvmm.pmem0.", "block.ssd0.", "kernel.page_cache.",
                       "fs.ext4.", "core.nvcache.", "core.log.",
                       "core.cleanup."):
            assert any(name.startswith(prefix) for name in names), prefix

    def test_dm_writecache_registers_device_name_sanitized(self):
        stack = build_stack("dm-writecache+ssd", SCALE, metrics=True)
        names = stack.metrics.names()
        assert "block.dm_writecache.occupancy" in names
        assert "block.dm_writecache.write_latency" in names
        assert not any("-" in name for name in names)

    def test_two_stacks_do_not_collide(self):
        # Registries are per-environment: building two instrumented
        # stacks in one process must not raise on re-registration.
        first = build_stack("nvcache+ssd", SCALE, metrics=True)
        second = build_stack("nvcache+ssd", SCALE, metrics=True)
        assert first.metrics is not second.metrics
        assert first.metrics.names() == second.metrics.names()


class TestValuesUnderWorkload:
    def test_write_path_populates_all_layers(self):
        stack = build_stack("nvcache+ssd", SCALE, metrics=True)
        run_small_job(stack)
        snapshot = stack.metrics.snapshot()
        assert snapshot["core.nvcache.writes"] >= 64
        assert snapshot["core.nvcache.write_latency"] >= 64  # histogram count
        assert snapshot["nvmm.pmem0.psyncs"] >= 64
        assert snapshot["core.cleanup.entries_retired"] >= 1
        assert snapshot["block.ssd0.writes"] >= 1
        assert snapshot["fs.ext4.journal_commits"] + \
            snapshot["fs.ext4.fast_commits"] >= 1
        assert snapshot["kernel.page_cache.writeback_pages"] >= 1

    def test_fsyncs_are_free_under_nvcache(self):
        stack = build_stack("nvcache+ssd", SCALE, metrics=True)
        run_small_job(stack)
        assert stack.metrics.snapshot()["core.nvcache.fsyncs_ignored"] >= 64

    def test_read_path_hits_and_latency(self):
        stack = build_stack("nvcache+ssd", SCALE, metrics=True)
        run_small_job(stack, rw="randrw", fsync=0)
        snapshot = stack.metrics.snapshot()
        assert snapshot["core.nvcache.reads"] >= 1
        assert snapshot["core.nvcache.read_latency"] >= 1
        hits, misses = (snapshot["core.nvcache.read_hits"],
                        snapshot["core.nvcache.read_misses"])
        assert hits + misses == snapshot["core.nvcache.reads"]
        if hits + misses:
            assert stack.metrics.get("core.nvcache.hit_ratio").value() \
                == pytest.approx(hits / (hits + misses))

    def test_dm_writecache_feeds_all_three_latency_histograms(self):
        # read_latency used to be registered and never observed.
        stack = build_stack("dm-writecache+ssd", SCALE, metrics=True)
        job = FioJob(rw="randrw", block_size=4096, size=64 * 4096, fsync=1,
                     direct=True)
        run_fio(stack.env, stack.libc, job, "/bench.dat", settle=stack.settle)
        snapshot = stack.metrics.snapshot()
        for kind in ("read", "write", "flush"):
            assert snapshot[f"block.dm_writecache.{kind}_latency"] >= 1, kind
        dm = stack.devices["dm"]
        assert snapshot["block.dm_writecache.dirty_blocks"] == dm.dirty_blocks()
        assert snapshot["block.dm_writecache.cached_blocks"] \
            == dm.written_blocks() >= dm.dirty_blocks()

    def test_histogram_percentiles_ordered(self):
        stack = build_stack("nvcache+ssd", SCALE, metrics=True)
        run_small_job(stack)
        latency = stack.metrics.get("core.nvcache.write_latency")
        quantiles = latency.percentiles()
        assert 0 < quantiles["p50"] <= quantiles["p95"] <= quantiles["p99"]
        assert quantiles["p99"] <= latency.max

    def test_fn_backed_metrics_track_legacy_stats(self):
        # The metrics layer wraps the stats dataclasses; both views must
        # agree at all times.
        stack = build_stack("nvcache+ssd", SCALE, metrics=True)
        run_small_job(stack)
        snapshot = stack.metrics.snapshot()
        stats = stack.nvcache.stats
        assert snapshot["core.nvcache.writes"] == stats.writes
        assert snapshot["core.nvcache.read_hits"] == stats.read_hits
        assert snapshot["core.cleanup.batches"] == stats.cleanup_batches
        ssd = stack.devices["ssd"]
        assert snapshot["block.ssd0.writes"] == ssd.stats.writes


class TestReportingIntegration:
    def test_metrics_table_renders_all_kinds(self):
        stack = build_stack("nvcache+ssd", SCALE, metrics=True)
        run_small_job(stack)
        table = format_metrics_table(stack.metrics, prefix="core.nvcache")
        assert "core.nvcache.writes" in table
        assert "histogram" in table and "p99=" in table

    def test_by_layer_sections(self):
        stack = build_stack("nvcache+ssd", SCALE, metrics=True)
        text = format_metrics_by_layer(stack.metrics)
        for layer in ("[nvmm]", "[block]", "[kernel]", "[fs]", "[core]"):
            assert layer in text

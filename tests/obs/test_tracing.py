"""Request tracing: causal span trees, critical-path attribution,
exemplars, sampling. The hard guarantee that none of it changes
simulated results is ``tests/obs/test_purity.py``."""

import json
import os

import pytest

from repro.harness import Scale, build_stack
from repro.harness.systems import SYSTEM_NAMES, nvcache_config
from repro.kernel import O_CREAT, O_RDWR, O_WRONLY
from repro.workloads import FioJob, run_fio

SCALE = Scale(4096)
GOLDEN = os.path.join(os.path.dirname(__file__), "golden",
                      "pwrite_fsync_trace.json")


def run_small_job(stack, rw="randwrite", size=64 * 4096, fsync=1):
    job = FioJob(rw=rw, block_size=4096, size=size, fsync=fsync)
    return run_fio(stack.env, stack.libc, job, "/bench.dat",
                   settle=stack.settle)


def single_pwrite_fsync(stack):
    def body():
        fd = yield from stack.libc.open("/f", O_CREAT | O_WRONLY)
        yield from stack.libc.pwrite(fd, b"x" * 4096, 0)
        yield from stack.libc.fsync(fd)
    stack.env.run_process(body())


class TestSpanTrees:
    def test_tracing_off_by_default(self):
        stack = build_stack("nvcache+ssd", SCALE)
        assert stack.tracer is None
        assert stack.env.tracer is None

    def test_pwrite_fsync_is_one_causal_tree(self):
        stack = build_stack("nvcache+ssd", SCALE, tracing=True)
        single_pwrite_fsync(stack)
        tracer = stack.tracer
        (pwrite,) = [s for s in tracer.roots() if s.qualified == "libc.pwrite"]
        children = {s.qualified: s for s in tracer.spans
                    if s.parent_id == pwrite.span_id}
        assert set(children) == {"core.log_append", "core.commit"}
        commit = children["core.commit"]
        grand = [s for s in tracer.spans if s.parent_id == commit.span_id]
        assert [s.qualified for s in grand] == ["nvmm.psync"]
        # Everything belongs to the pwrite's single trace.
        assert {s.trace_id for s in [pwrite] + list(children.values()) + grand} \
            == {pwrite.trace_id}

    def test_root_segments_sum_to_duration(self):
        # The acceptance criterion: critical-path segments decompose the
        # exact end-to-end latency of every completed root span.
        stack = build_stack("nvcache+ssd", SCALE, tracing=True)
        single_pwrite_fsync(stack)
        for root in stack.tracer.roots():
            assert sum(root.segments.values()) == pytest.approx(
                root.duration, abs=1e-15), root.qualified

    def test_matches_golden_chrome_export(self):
        # Pinned end-to-end: one pwrite+fsync exports this exact Perfetto
        # JSON (metadata, spans, segments, flow events, tids). After an
        # intentional change, regenerate with REGEN_GOLDEN=1.
        stack = build_stack("nvcache+ssd", SCALE, tracing=True)
        single_pwrite_fsync(stack)
        events = json.loads(json.dumps(stack.tracer.to_chrome_events()))
        if os.environ.get("REGEN_GOLDEN"):
            with open(GOLDEN, "w") as handle:
                json.dump(events, handle, indent=2)
                handle.write("\n")
        with open(GOLDEN) as handle:
            assert events == json.load(handle)

    def test_unknown_span_name_rejected(self):
        stack = build_stack("nvcache+ssd", SCALE, tracing=True)
        with pytest.raises(ValueError):
            stack.tracer.begin(stack.env, "core", "not_a_span")
        with pytest.raises(ValueError):
            stack.tracer.charge(stack.env, "core", "not_a_segment", 1e-6)

    def test_attribution_aggregates_roots(self):
        stack = build_stack("nvcache+ssd", SCALE, tracing=True)
        run_small_job(stack)
        totals = stack.tracer.attribution("libc.pwrite")
        assert totals  # nonempty
        pwrites = [s for s in stack.tracer.roots()
                   if s.qualified == "libc.pwrite"]
        assert sum(totals.values()) == pytest.approx(
            sum(s.duration for s in pwrites), rel=1e-12)


class TestFlowLinks:
    def test_drain_batch_links_back_to_writes(self):
        config = nvcache_config(SCALE, batch_min=1, batch_max=64)
        stack = build_stack("nvcache+ssd", SCALE, config=config,
                            tracing=True)

        def body():
            fd = yield from stack.libc.open("/f", O_CREAT | O_WRONLY)
            for i in range(3):
                yield from stack.libc.pwrite(fd, b"y" * 4096, i * 4096)
            yield stack.nvcache.cleanup.request_drain()

        stack.env.run_process(body())
        tracer = stack.tracer
        batches = [s for s in tracer.spans if s.qualified == "core.drain_batch"]
        assert batches
        linked_from = {span_id for batch in batches
                       for _trace, span_id, _time, _track in batch.links}
        pwrite_ids = {s.span_id for s in tracer.roots()
                      if s.qualified == "libc.pwrite"}
        assert linked_from and linked_from <= pwrite_ids
        # The export renders each link as a flow start/finish pair.
        events = tracer.to_chrome_events()
        starts = [e for e in events if e["ph"] == "s"]
        finishes = [e for e in events if e["ph"] == "f"]
        assert len(starts) == len(finishes) == len(linked_from)


class TestSampling:
    def test_head_sampling_keeps_whole_trees(self):
        stack = build_stack("nvcache+ssd", SCALE, tracing=True,
                            trace_sample_rate=0.3, trace_seed=7)
        run_small_job(stack)
        full = build_stack("nvcache+ssd", SCALE, tracing=True)
        run_small_job(full)
        assert 0 < len(stack.tracer.roots()) < len(full.tracer.roots())
        # Children never outlive their root's sampling decision.
        root_ids = {s.trace_id for s in stack.tracer.roots()}
        assert {s.trace_id for s in stack.tracer.spans} == root_ids

    def test_sampling_is_deterministic(self):
        def recorded():
            stack = build_stack("nvcache+ssd", SCALE, tracing=True,
                                trace_sample_rate=0.3, trace_seed=7)
            run_small_job(stack)
            return [(s.trace_id, s.qualified, s.start, s.duration)
                    for s in stack.tracer.spans]
        assert recorded() == recorded()


class TestExemplars:
    def test_p99_exemplar_resolves_to_recorded_trace(self):
        stack = build_stack("nvcache+ssd", SCALE, metrics=True, tracing=True)
        run_small_job(stack)
        hist = stack.metrics.get("core.nvcache.write_latency")
        exemplar = hist.exemplar_near(0.99)
        assert exemplar is not None
        trace_id, value = exemplar
        recorded = {s.trace_id for s in stack.tracer.roots()}
        assert trace_id in recorded
        assert value > 0

    def test_no_exemplars_without_tracing(self):
        stack = build_stack("nvcache+ssd", SCALE, metrics=True)
        run_small_job(stack)
        hist = stack.metrics.get("core.nvcache.write_latency")
        assert hist.exemplar_near(0.99) is None

    def test_trace_metrics_registered_and_move(self):
        stack = build_stack("nvcache+ssd", SCALE, metrics=True, tracing=True)
        run_small_job(stack)
        snapshot = stack.metrics.snapshot()
        assert snapshot["obs.trace.spans_recorded"] >= 64
        assert "obs.trace.events_recorded" not in snapshot
        assert snapshot["obs.trace.dropped"] == 0
        assert snapshot["obs.trace.spans_open"] == 0


class TestReadPath:
    def test_read_hit_and_miss_spans(self):
        stack = build_stack("nvcache+ssd", SCALE, tracing=True)

        def body():
            fd = yield from stack.libc.open("/f", O_CREAT | O_RDWR)
            yield from stack.libc.pwrite(fd, b"z" * 4096, 0)
            yield from stack.libc.pread(fd, 4096, 0)  # miss, then cached
            yield from stack.libc.pread(fd, 4096, 0)  # hit

        stack.env.run_process(body())
        names = [s.qualified for s in stack.tracer.spans]
        assert "core.read_miss" in names
        assert "core.read_hit" in names


class TestFullAttribution:
    @pytest.mark.parametrize("system", SYSTEM_NAMES)
    def test_every_stack_attributes_its_critical_path(self, system):
        # Every modelled step on every evaluated stack is an env.delay:
        # 64 direct sync writes and reads leave (next to) nothing in the
        # *.unattributed residual. The comparators (NOVA, Ext4-DAX,
        # tmpfs, dm-writecache) used to book 22-88% there.
        stack = build_stack(system, SCALE, tracing=True)
        job = FioJob(rw="randrw", block_size=4096, size=64 * 4096, fsync=1,
                     direct=True)
        run_fio(stack.env, stack.libc, job, "/bench.dat", settle=stack.settle)
        totals = stack.tracer.attribution()
        residual = sum(cost for segment, cost in totals.items()
                       if segment.endswith(".unattributed"))
        assert 0 < sum(totals.values())
        assert residual <= 0.01 * sum(totals.values()), totals

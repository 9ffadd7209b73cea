"""Tests for the tracing subsystem and its instrumentation hooks."""

import json

import pytest

from repro.block import SsdDevice
from repro.core import Nvcache, NvcacheConfig, NvmmLog
from repro.fs import Ext4
from repro.kernel import Kernel, O_CREAT, O_WRONLY
from repro.nvmm import NvmmDevice
from repro.sim import Environment, Tracer
from repro.sim.trace import ATTRIBUTION_SCHEMA, attribution_payload, to_ps
from repro.units import MIB

PS_PER_S = 10 ** 12


def record(env, tracer, layer, name, duration, track="main", **args):
    """Close one ``layer.name`` span lasting ``duration`` simulated
    seconds on the timeline lane ``track``."""
    def body():
        token = tracer.begin(env, layer, name, **args)
        yield env.timeout(duration)
        tracer.end(env, token)
    env.run_process(body(), name=track)


def test_tracer_records_events():
    env, tracer = Environment(), Tracer()
    record(env, tracer, "block", "write", 0.5, offset=4096)
    record(env, tracer, "block", "flush", 0.1)
    assert [span.qualified for span in tracer.spans] == [
        "block.write", "block.flush"]
    assert tracer.spans[0].args == {"offset": 4096}
    assert tracer.spans[1].start == pytest.approx(0.5)
    assert sum(span.duration for span in tracer.spans
               if span.layer == "block") == pytest.approx(0.6)
    assert [span.duration for span in tracer.spans
            if span.name == "flush"] == [pytest.approx(0.1)]


def test_tracer_capacity_bounded():
    env, tracer = Environment(), Tracer(capacity=3)
    for _ in range(10):
        record(env, tracer, "block", "write", 0.0)
    assert len(tracer.spans) == 3
    assert tracer.dropped == 7


def test_chrome_export_roundtrips(tmp_path):
    env, tracer = Environment(start_time=0.001), Tracer()
    record(env, tracer, "core", "log_append", 0.0005, nbytes=4096)
    path = tmp_path / "trace.json"
    tracer.to_chrome_json(str(path))
    loaded = json.loads(path.read_text())
    (event,) = [e for e in loaded["traceEvents"] if e["ph"] == "X"]
    assert event["name"] == "core.log_append"
    assert event["ph"] == "X"
    assert event["ts"] == pytest.approx(1000.0)  # 1 ms in us
    assert event["dur"] == pytest.approx(500.0)
    assert event["args"]["nbytes"] == 4096


def test_chrome_export_metadata_and_integer_tids(tmp_path):
    """Perfetto-clean export: M-phase process/thread metadata and stable
    integer tids instead of the track string."""
    env, tracer = Environment(), Tracer()
    record(env, tracer, "block", "write", 0.0005, track="ssd0")
    record(env, tracer, "core", "drain_batch", 0.0001, track="cleanup")
    record(env, tracer, "block", "read", 0.0005, track="ssd0")
    events = tracer.to_chrome_events()
    meta = [e for e in events if e["ph"] == "M"]
    body = [e for e in events if e["ph"] == "X"]
    process_names = [e for e in meta if e["name"] == "process_name"]
    thread_names = [e for e in meta if e["name"] == "thread_name"]
    assert len(process_names) == 1
    assert {e["args"]["name"] for e in thread_names} == {"ssd0", "cleanup"}
    # Every tid is a stable small integer, same track -> same tid.
    assert all(isinstance(e["tid"], int) for e in events)
    assert body[0]["tid"] == body[2]["tid"]  # both ssd0
    assert body[0]["tid"] != body[1]["tid"]
    tid_by_track = {e["args"]["name"]: e["tid"] for e in thread_names}
    assert body[0]["tid"] == tid_by_track["ssd0"]
    assert body[1]["tid"] == tid_by_track["cleanup"]


def test_block_device_emits_events():
    env = Environment()
    env.tracer = Tracer()
    ssd = SsdDevice(env, size=64 * MIB)

    def body():
        yield from ssd.write(0, b"x" * 4096)
        yield from ssd.read(0, 4096)
        yield from ssd.flush()

    env.run_process(body())
    spans = [span for span in env.tracer.spans
             if span.layer == "block" and span.args["device"] == "ssd0"]
    assert [span.name for span in spans] == ["write", "read", "flush"]
    # The span is the device's busy interval: no queueing here, so each
    # lasts exactly its service time and they tile the run.
    assert sum(span.duration for span in spans) == pytest.approx(env.now)
    assert spans[0].args["offset"] == 0 and spans[0].args["nbytes"] == 4096


def test_nvcache_emits_write_and_cleanup_events():
    env = Environment()
    env.tracer = Tracer()
    kernel = Kernel(env)
    kernel.mount("/", Ext4(env, SsdDevice(env, size=64 * MIB)))
    config = NvcacheConfig(log_entries=64, read_cache_pages=16,
                           batch_min=2, batch_max=16)
    nv = Nvcache(env, kernel, NvmmDevice(env, size=NvmmLog.required_size(config)),
                 config)

    def body():
        fd = yield from nv.open("/f", O_CREAT | O_WRONLY)
        for i in range(5):
            yield from nv.pwrite(fd, b"t" * 1024, i * 1024)
        yield nv.cleanup.request_drain()

    env.run_process(body())
    writes = [s for s in env.tracer.spans if s.qualified == "core.log_append"]
    batches = [s for s in env.tracer.spans if s.qualified == "core.drain_batch"]
    assert len(writes) == 5
    assert all(w.args["nbytes"] == 1024 and w.args["entries"] == 1
               for w in writes)
    assert len(batches) >= 1
    assert all(b.args["status"] == "retired" for b in batches)
    assert sum(b.args["entries"] for b in batches) == 5


def test_summary_is_readable():
    env, tracer = Environment(), Tracer()
    record(env, tracer, "block", "write", 1e-6)
    record(env, tracer, "block", "write", 3e-6)
    text = tracer.summary()
    assert "2 spans" in text
    assert "block.write" in text
    assert "n=2" in text
    assert "total=0.00ms mean=2.0us" in text


class TestQuantization:
    """Picosecond quantization of attribution segments (``to_ps``)."""

    def test_to_ps_is_integer_picoseconds(self):
        assert to_ps(1.0) == PS_PER_S
        assert to_ps(1.5e-6) == 1_500_000
        assert isinstance(to_ps(0.123456), int)

    def test_quantization_error_is_subpicosecond(self):
        value = 3.141592653589793e-3
        assert abs(to_ps(value) / PS_PER_S - value) < 1.0 / PS_PER_S


class TestAttributionPayload:
    """The machine form of an attribution (``attribution_payload``)."""

    def test_schema_and_exact_total(self):
        payload = attribution_payload({"b.y": 2, "a.x": 1}, source="test")
        assert payload["schema"] == ATTRIBUTION_SCHEMA
        assert list(payload["segments_ps"]) == ["a.x", "b.y"]  # sorted
        assert payload["total_ps"] == 3

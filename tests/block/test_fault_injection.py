"""Block-layer fault injection: error paths the happy-path tests never hit."""

import pytest

from repro.block import SsdDevice
from repro.faults import BlockFaultInjector
from repro.kernel.errno import EIO, KernelError
from repro.obs import MetricsRegistry
from repro.sim import Environment
from repro.units import MIB


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def ssd(env):
    return SsdDevice(env, size=64 * MIB)


def run(env, gen):
    return env.run_process(gen)


def test_write_error_at_exact_index(env, ssd):
    BlockFaultInjector(fail_writes=[1]).arm(ssd)

    def body():
        yield from ssd.write(0, b"first")  # request 0: fine
        with pytest.raises(KernelError) as exc:
            yield from ssd.write(4096, b"second")  # request 1: injected EIO
        assert exc.value.errno == EIO
        yield from ssd.write(8192, b"third")  # request 2: fine again
        yield from ssd.flush()

    run(env, body())
    assert run(env, ssd.read(0, 5)) == b"first"
    assert run(env, ssd.read(4096, 6)) == b"\x00" * 6  # nothing landed
    assert run(env, ssd.read(8192, 5)) == b"third"


def test_torn_write_persists_only_the_prefix(env, ssd):
    BlockFaultInjector(tear_writes=[0], torn_keep=3).arm(ssd)

    def body():
        with pytest.raises(KernelError) as exc:
            yield from ssd.write(0, b"ABCDEFGH")
        assert exc.value.errno == EIO
        yield from ssd.flush()

    run(env, body())
    assert run(env, ssd.read(0, 8)) == b"ABC" + b"\x00" * 5


def test_torn_keep_never_reaches_the_full_payload(env, ssd):
    """torn_keep larger than the payload still tears: at most len-1 bytes."""
    BlockFaultInjector(tear_writes=[0], torn_keep=10_000).arm(ssd)

    def body():
        with pytest.raises(KernelError):
            yield from ssd.write(0, b"ABCD")
        yield from ssd.flush()

    run(env, body())
    assert run(env, ssd.read(0, 4)) == b"ABC\x00"


def test_dropped_flush_loses_cached_data_at_crash(env, ssd):
    injector = BlockFaultInjector(drop_flushes=[0]).arm(ssd)

    def body():
        yield from ssd.write(0, b"volatile")
        yield from ssd.flush()  # acknowledged, but the barrier is dropped

    run(env, body())
    assert injector.flushes_dropped == 1
    ssd.crash()
    assert run(env, ssd.read(0, 8)) == b"\x00" * 8


def test_honoured_flush_survives_crash_as_control(env, ssd):
    """Same sequence without the injector: the barrier holds."""
    def body():
        yield from ssd.write(0, b"durable!")
        yield from ssd.flush()

    run(env, body())
    ssd.crash()
    assert run(env, ssd.read(0, 8)) == b"durable!"


def test_seeded_random_plan_is_deterministic(env):
    def counters(seed):
        local = Environment()
        ssd = SsdDevice(local, size=64 * MIB)
        injector = BlockFaultInjector(
            seed=seed, fail_write_probability=0.3,
            drop_flush_probability=0.5).arm(ssd)

        def body():
            for i in range(40):
                try:
                    yield from ssd.write(i * 4096, b"x" * 512)
                except KernelError:
                    pass
                if i % 4 == 3:
                    yield from ssd.flush()

        local.run_process(body())
        return (injector.writes_seen, injector.writes_failed,
                injector.flushes_seen, injector.flushes_dropped)

    first = counters(seed=42)
    assert first == counters(seed=42)
    assert first[1] > 0 and first[3] > 0
    assert first != counters(seed=43)


def test_metrics_registered_when_env_has_a_registry():
    env = Environment()
    env.metrics = MetricsRegistry()
    ssd = SsdDevice(env, size=64 * MIB, name="ssd0")
    injector = BlockFaultInjector(fail_writes=[0], tear_writes=[1],
                                  torn_keep=1, drop_flushes=[0]).arm(ssd)

    def body():
        for offset in (0, 4096):
            try:
                yield from ssd.write(offset, b"abcd")
            except KernelError:
                pass
        yield from ssd.flush()

    env.run_process(body())
    snapshot = env.metrics.snapshot()
    assert snapshot["faults.ssd0.writes_failed"] == 1
    assert snapshot["faults.ssd0.writes_torn"] == 1
    assert snapshot["faults.ssd0.flushes_dropped"] == 1
    assert injector.writes_seen == 2


def test_double_arm_is_rejected(env, ssd):
    BlockFaultInjector().arm(ssd)
    with pytest.raises(RuntimeError):
        BlockFaultInjector().arm(ssd)


def test_disarm_restores_the_clean_path(env, ssd):
    injector = BlockFaultInjector(fail_write_probability=1.0).arm(ssd)

    def failing():
        with pytest.raises(KernelError):
            yield from ssd.write(0, b"nope")

    run(env, failing())
    injector.disarm(ssd)
    assert ssd.fault_injector is None

    def clean():
        yield from ssd.write(0, b"fine")
        yield from ssd.flush()

    run(env, clean())
    assert run(env, ssd.read(0, 4)) == b"fine"


def test_torn_whole_block_write_lands_exactly_its_prefix(env, ssd):
    """The tear goes through the partial-block path: the prefix is merged
    into a new block object, the block written before stays intact in
    the hands of whoever holds it."""
    old, new = b"o" * 4096, b"n" * 4096
    BlockFaultInjector(tear_writes=[1], torn_keep=1000).arm(ssd)

    def body():
        yield from ssd.write(0, old)
        with pytest.raises(KernelError):
            yield from ssd.write(0, new)
        data = yield from ssd.read(0, 4096)
        return data

    assert run(env, body()) == b"n" * 1000 + b"o" * 3096
    assert old == b"o" * 4096

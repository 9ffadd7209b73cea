"""Fixtures for NVCache core tests: a small, fast stack."""

import pytest

from repro.core import NvcacheConfig
from repro.harness.systems import build_stack


SMALL_CONFIG = NvcacheConfig(
    log_entries=256,
    read_cache_pages=32,
    batch_min=4,
    batch_max=32,
    fd_max=64,
    cleanup_idle_flush=0.01,
)


def make_stack(config=SMALL_CONFIG):
    stack = build_stack("nvcache+ssd", config=config)
    return (stack.env, stack.kernel, stack.devices["ssd"],
            stack.nvcache.nvmm, stack.nvcache)


@pytest.fixture
def stack():
    return make_stack()


def run(env, gen):
    return env.run_process(gen)

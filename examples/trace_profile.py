#!/usr/bin/env python3
"""Profile a run with the tracer: where does the time of a synchronous
workload actually go, with and without NVCache?

Exports Chrome-trace JSON (open in chrome://tracing or Perfetto) and
prints a per-component profile.

Run with::

    python examples/trace_profile.py
"""

import tempfile

from repro.harness import Scale, build_stack
from repro.kernel import O_CREAT, O_WRONLY
from repro.sim import Tracer
from repro.units import fmt_time


def profiled_run(stack_name):
    stack = build_stack(stack_name, Scale(4096))
    stack.env.tracer = Tracer()

    def body():
        fd = yield from stack.libc.open("/data", O_CREAT | O_WRONLY)
        for i in range(300):
            yield from stack.libc.pwrite(fd, b"p" * 4096, (i % 64) * 4096)
            yield from stack.libc.fsync(fd)
        yield from stack.libc.close(fd)
        yield from stack.teardown()
        return stack.env.now

    elapsed = stack.env.run_process(body())
    return stack, elapsed


def main():
    for name in ("ssd", "nvcache+ssd"):
        stack, elapsed = profiled_run(name)
        tracer = stack.env.tracer
        print(f"=== {name}: 300 sync writes in {fmt_time(elapsed)} ===")
        print(tracer.summary())
        ssd = stack.devices.get("ssd")
        if ssd is not None:
            # Queue wait is booked apart, so the block.*_service
            # segments are exactly the time the device spent serving.
            busy = sum(cost for segment, cost in tracer.attribution().items()
                       if segment.startswith("block.")
                       and segment.endswith("_service"))
            print(f"  -> {ssd.name} busy {fmt_time(busy)} "
                  f"({busy / elapsed * 100:.0f}% of the run)")
        with tempfile.NamedTemporaryFile(suffix=f"-{name}.json",
                                         delete=False) as handle:
            tracer.to_chrome_json(handle.name)
            print(f"  chrome trace written to {handle.name}\n")

    print("On the raw SSD the device flush dominates every write; under "
          "NVCache the app-visible\nwrites are NVMM-speed and the SSD "
          "only sees the cleanup thread's batched traffic.")


if __name__ == "__main__":
    main()

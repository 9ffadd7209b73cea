"""The pieces ``tools/*.py`` shared as verbatim copies, kept once.

Only what was duplicated word for word lives here: the ``--jobs``
parser, the range-checked argparse types, ``print_json``/``dump_metrics``,
the fio flag block and stack prologue of the two dashboard tools, and
the exit-2 boundary. Each tool keeps its own flags, report code and
``main(argv) -> int``; the ``tools/`` scripts stay the only entry points.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys


def jobs_count(text) -> int:
    """``--jobs`` value -> effective worker count: ``0`` means every
    core, a negative count is a usage error (argparse exits 2)."""
    jobs = int(text)
    if jobs < 0:
        raise argparse.ArgumentTypeError(
            f"{jobs} is negative (use 0 for all cores)")
    return jobs or os.cpu_count() or 1


def bounded(kind, least=None, above=None):
    """An argparse ``type``: parse with ``kind`` and refuse an infinite
    value, one below ``least`` or one not above ``above`` (argparse
    exits 2 naming the flag)."""
    def parse(text):
        value = kind(text)
        if abs(value) == math.inf:
            raise argparse.ArgumentTypeError(f"{value} is not finite")
        if least is not None and value < least:
            raise argparse.ArgumentTypeError(f"{value} is below {least}")
        if above is not None and not value > above:
            raise argparse.ArgumentTypeError(
                f"{value} is not above {above}")
        return value
    return parse


def add_jobs_argument(parser, default: int, help: str) -> None:
    """The one ``--jobs`` flag; ``args.jobs`` is always >= 1 afterwards."""
    parser.add_argument("--jobs", type=jobs_count, metavar="N",
                        default=jobs_count(default),
                        help=f"{help} (0 = all cores; default {default})")


def print_json(payload) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def dump_metrics(registry, prefix: str) -> None:
    """``prefix.*`` metrics to stderr, one ``name = value`` per line."""
    for metric in registry.collect(prefix):
        print(f"{metric.name} = {metric.value():g}", file=sys.stderr)


def exit_boundary(*harness_errors):
    """Decorate a tool's ``main(argv) -> int`` with the shared exit-2
    contract: a ``ValueError``/``OSError`` is a usage error, any of
    ``harness_errors`` a harness error, and a reader that closed the pipe
    (``| head``) is a clean exit."""
    def wrap(main):
        @functools.wraps(main)
        def guarded(argv=None) -> int:
            try:
                return main(argv)
            except BrokenPipeError:
                return 0
            except (ValueError, OSError) as exc:
                print(f"usage error: {exc}", file=sys.stderr)
            except harness_errors as exc:
                print(f"harness error: {exc}", file=sys.stderr)
            return 2
        return guarded
    return wrap


def add_fio_arguments(parser, size_mib: float) -> None:
    """The fio job flags of the metrics and trace dashboards."""
    from .harness.systems import SYSTEM_NAMES
    parser.add_argument("--system", default="nvcache+ssd", choices=SYSTEM_NAMES)
    parser.add_argument("--rw", default="randwrite",
                        choices=["write", "randwrite", "read", "randread",
                                 "randrw"])
    parser.add_argument("--size-mib", type=bounded(float, above=0),
                        default=size_mib,
                        help="bytes transferred by the job (MiB)")
    parser.add_argument("--fsync", type=bounded(int, least=0), default=1,
                        help="fsync every N writes (0 = never)")
    parser.add_argument("--scale", type=bounded(int, least=1), default=4096,
                        help="Scale.factor dividing the paper's sizes")


def fio_stack(args, **stack_options):
    """Build the instrumented stack and the fio job ``args`` describe;
    returns ``(stack, job, run)`` where ``run()`` drives the job to
    completion and returns its result."""
    from .harness.systems import Scale, build_stack
    from .units import KIB, MIB
    from .workloads.fio import FioJob, run_fio
    stack = build_stack(args.system, Scale(args.scale), metrics=True,
                        **stack_options)
    job = FioJob(rw=args.rw, block_size=4 * KIB,
                 size=int(args.size_mib * MIB), fsync=args.fsync)

    def run():
        return run_fio(stack.env, stack.libc, job, "/bench.dat",
                       settle=stack.settle)

    return stack, job, run

#!/usr/bin/env python
"""Docs drift check: every registered metric must be documented.

``NAMESPACES`` below lists, per metric namespace, the doc that owns it
and how to obtain a registry that registers it. The checker unions the
registry names of every row and fails if any exact name is missing from
the union of the listed docs. The reverse direction is checked too: a
documented name that no row registers is stale and also fails.

The tracing vocabulary is held to the same contract: every span name in
``repro.sim.SPAN_NAMES`` and every critical-path segment in
``repro.sim.SEGMENT_NAMES`` must appear in the doc, and every documented
two-segment ``layer.name`` must be an emitted span or segment. A
vocabulary entry no ``begin``/``traced``/``charge``/``delay`` call site
under ``src/repro`` can emit is dead and fails too. So does a backticked
repository path (``tests/…py``, ``repro/…py``, …) in README.md, DESIGN.md,
EXPERIMENTS.md or ``docs/*.md`` that names no file.

Run by the ``docs_check`` smoke tests (``smoke/``, outside tier-1) and
usable standalone::

    PYTHONPATH=src python tools/check_docs.py
"""

from __future__ import annotations

import argparse
import ast
import dataclasses
import os
import pathlib
import re
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.block import SsdDevice  # noqa: E402
from repro.cli import print_json  # noqa: E402
from repro.faults import BlockFaultInjector  # noqa: E402
from repro.fuzz import FuzzEngine  # noqa: E402
from repro.harness.systems import Scale, build_stack, nvcache_config  # noqa: E402
from repro.obs import MetricsRegistry  # noqa: E402
from repro.parallel import register_engine_metrics  # noqa: E402
from repro.sim import Environment, SEGMENT_NAMES, SPAN_NAMES  # noqa: E402


SCALE = Scale(4096)


def _stack(system="nvcache+ssd", **options):
    """Registry of an instrumented evaluated stack."""
    return lambda: build_stack(system, SCALE, metrics=True,
                               **options).metrics


def _env(attach):
    """Registry of a bare environment once ``attach(env)`` has run."""
    def source():
        env = Environment()
        env.metrics = MetricsRegistry()
        attach(env)
        return env.metrics
    return source


def _fresh(register):
    """A fresh registry once ``register(registry)`` has run."""
    def source():
        registry = MetricsRegistry()
        register(registry)
        return registry
    return source


#: (namespace prefixes, owning doc under docs/, registry source). A new
#: namespace is one new row; the name pattern, the scanned doc list and
#: the failure message are all derived from this table.
NAMESPACES = (
    (("nvmm", "block.ssd0", "kernel", "fs", "core"), "OBSERVABILITY.md",
     _stack()),
    (("block.dm_writecache",), "OBSERVABILITY.md",
     _stack("dm-writecache+ssd")),
    (("obs.trace",), "OBSERVABILITY.md", _stack(tracing=True)),
    (("faults",), "OBSERVABILITY.md",
     _env(lambda env: BlockFaultInjector().arm(
         SsdDevice(env, size=1 << 20, name="ssd0")))),
    (("parallel.engine",), "OBSERVABILITY.md",
     _fresh(register_engine_metrics)),
    (("fuzz",), "FUZZING.md",
     _fresh(lambda registry: FuzzEngine(registry=registry))),
    (("core.paging",), "POLICIES.md", _stack(config=dataclasses.replace(
        nvcache_config(SCALE), cache_mode="paging"))),
)

#: Scanned docs, in table order; their union is the documented set.
DOC_NAMES = list(dict.fromkeys(doc for _, doc, _ in NAMESPACES))
DOC_PATHS = [os.path.join(REPO_ROOT, "docs", doc) for doc in DOC_NAMES]

#: Matches backticked metric names: a known layer (the first segment of
#: a table prefix) followed by at least two more segments. Anchoring on
#: the layer set keeps module paths (`repro.fs.ext4`) out of the
#: documented-name set.
DOC_NAME_PATTERN = re.compile(
    r"`((?:" + "|".join(sorted({prefix.split(".")[0]
                                for prefixes, _, _ in NAMESPACES
                                for prefix in prefixes}))
    + r")\.[a-z0-9_]+(?:\.[a-z0-9_]+)+)`")

#: Matches backticked span/segment names: exactly two segments with a
#: tracing layer prefix (`libc.pwrite`, `block.queue_wait`). Metric
#: names always have three or more segments, so the two vocabularies
#: cannot collide.
TRACE_NAME_PATTERN = re.compile(
    r"`((?:libc|core|kernel|fs|block|nvmm)\.[a-z0-9_]+)`")


#: Matches a repository file path inside a backticked span; ``repro/…``
#: is relative to ``src/``. Globs and placeholders do not match.
PATH_PATTERN = re.compile(
    r"(?<![\w/.*-])((?:src|repro|tests|tools|benchmarks|smoke|examples)"
    r"/[\w./-]+\.(?:py|md|json|yml))\b")


def missing_paths(doc_text: str) -> set:
    """Backticked repository paths in ``doc_text`` that do not exist."""
    return {path
            for span in re.findall(r"`([^`\n]+)`", doc_text)
            for path in PATH_PATTERN.findall(span)
            if not os.path.exists(os.path.join(
                REPO_ROOT, "src" if path.startswith("repro/") else "", path))}


def registered_names() -> set:
    """Union of metric names across every row of ``NAMESPACES``; a row
    whose source registers nothing under one of its prefixes is stale."""
    names = set()
    for prefixes, _, source in NAMESPACES:
        row = set(source().names())
        for prefix in prefixes:
            if not any(name.startswith(prefix + ".") for name in row):
                raise LookupError(f"NAMESPACES row {prefix!r}: its source "
                                  "registers no metric under that prefix")
        names |= row
    return names


def documented_names(doc_text: str) -> set:
    return set(DOC_NAME_PATTERN.findall(doc_text))


#: Emitting call -> index of its ``layer`` argument (the name follows).
_EMITTERS = {"begin": 1, "charge": 1, "delay": 1, "traced": 0}


def _strings(node) -> set:
    return {child.value for child in ast.walk(node)
            if isinstance(child, ast.Constant) and isinstance(child.value, str)}


def _emitted_by(function: ast.FunctionDef) -> set:
    emitted = set()
    for call in ast.walk(function):
        if not isinstance(call, ast.Call):
            continue
        at = _EMITTERS.get(getattr(call.func, "attr", None)
                           or getattr(call.func, "id", None))
        if at is None or len(call.args) < at + 2:
            continue
        layer, name = call.args[at], call.args[at + 1]
        if isinstance(layer, ast.Constant) and isinstance(layer.value, str):
            emitted |= {f"{layer.value}.{each}"
                        for each in _strings(name) or _strings(function)}
    return emitted


def emitted_trace_names() -> set:
    """``layer.name`` for every span/segment a call site under
    ``src/repro`` can emit. A name argument that is not a literal counts
    for every string of its expression (``"a" if cond else "b"``) or,
    for a plain variable, of the enclosing function."""
    emitted = set()
    for path in pathlib.Path(REPO_ROOT, "src", "repro").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef):
                emitted |= _emitted_by(node)
    return emitted


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--json", action="store_true",
                        help="emit a machine-readable summary on stdout "
                             "(for tools/ci_run.py aggregation)")
    args = parser.parse_args(argv)
    doc_text = ""
    for path in DOC_PATHS:
        if not os.path.exists(path):
            print(f"FAIL: {path} does not exist", file=sys.stderr)
            return 1
        with open(path) as handle:
            doc_text += handle.read() + "\n"
    registered = registered_names() | set(SPAN_NAMES) | set(SEGMENT_NAMES)
    documented = documented_names(doc_text) \
        | set(TRACE_NAME_PATTERN.findall(doc_text))

    undocumented = sorted(registered - documented)
    stale = sorted(documented - registered)
    # The *.unattributed residuals are booked by Tracer.end itself.
    dead = sorted(name for name in (set(SPAN_NAMES) | set(SEGMENT_NAMES))
                  - emitted_trace_names()
                  if not name.endswith(".unattributed"))
    root = pathlib.Path(REPO_ROOT)
    missing = sorted(
        f"{doc.relative_to(root)}: {path}"
        for doc in [root / "README.md", root / "DESIGN.md",
                    root / "EXPERIMENTS.md", *root.glob("docs/*.md")]
        for path in missing_paths(doc.read_text()))
    failed = bool(undocumented or stale or dead or missing)
    if args.json:
        print_json({
            "ok": not failed,
            "registered": len(registered),
            "documented": len(documented),
            "undocumented": undocumented,
            "stale": stale,
            "dead": dead,
            "missing_paths": missing,
        })
        return int(failed)
    if undocumented:
        print("FAIL: registered metrics missing from the docs "
              f"({' / '.join(DOC_NAMES)}):", file=sys.stderr)
        for name in undocumented:
            print(f"  {name}", file=sys.stderr)
    if stale:
        print("FAIL: documented metrics no component registers (stale?):",
              file=sys.stderr)
        for name in stale:
            print(f"  {name}", file=sys.stderr)
    if dead:
        print("FAIL: span/segment names in repro.sim.trace no call site "
              "emits (delete them, in code and docs):", file=sys.stderr)
        for name in dead:
            print(f"  {name}", file=sys.stderr)
    if missing:
        print("FAIL: backticked paths in the docs that name no file:",
              file=sys.stderr)
        for name in missing:
            print(f"  {name}", file=sys.stderr)
    if failed:
        return 1
    print(f"OK: {len(registered)} registered metrics, all documented, "
          "none stale")
    return 0


if __name__ == "__main__":
    sys.exit(main())

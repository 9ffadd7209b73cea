"""Dead-surface guard (ROADMAP item 10c): a public function, method or
class of ``src/repro`` that nothing but its own tests uses is either
deleted or named below with the reason it stays.

*Used* means referenced by name — a ``Name``, an attribute access, or a
string constant naming it (``getattr`` dispatch, ``"module:function"``
worker entry points) — anywhere in ``src/repro``, ``tools``, ``bench``,
``benchmarks`` or ``examples``. Import statements and ``__all__`` lists
do not count: re-exporting a name is not using it. Matching is by bare
name, so the guard errs towards "used" (a method called ``read`` is
kept alive by any ``.read``); what it does report is certain.
"""

import ast
import pathlib
import textwrap

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = REPO_ROOT / "src" / "repro"
CONSUMERS = ("tools", "bench", "benchmarks", "examples")

#: ``(module, name) -> why it stays``; ``"*"`` covers every public name
#: the module defines. Compared both ways: a name that gains a user (or
#: goes away) must leave this table.
ALLOWED = {
    ("libc/aio.py", "*"):
        "POSIX surface (paper Table III): the aio_* family",
    ("libc/stdio.py", "*"):
        "POSIX surface (paper Table III): buffered stdio",
    ("core/nvcache.py", "ftell"):
        "POSIX surface (paper Table III): the cursor's read accessor",
    ("core/nvcache.py", "check_invariants"):
        "test observation point: cross-checks tables, index and log",
    ("core/paging.py", "check_invariants"):
        "test observation point: cross-checks the slot table",
    ("core/read_cache.py", "loaded_pages"):
        "test observation point: what the read cache holds",
    ("fs/base.py", "used_bytes"):
        "test observation point: page-store occupancy (ENOSPC tests)",
    ("nvmm/device.py", "persisted_view"):
        "test observation point: the media as a crash would leave it",
    ("block/device.py", "durable_snapshot"):
        "test observation point: blocks that survive a power cut",
    ("block/device.py", "written_blocks"):
        "test observation point: blocks ever written",
    ("sim/core.py", "fired"):
        "test observation point: read-only view of Waitable._fired",
    ("sim/sync.py", "wait"):
        "SimPy spelling ``yield event.wait()``, kept for ported models",
    ("block/ramdisk.py", "RamDisk"):
        "zero-latency backend the filesystem and VFS unit tests mount",
    ("kernel/page_cache.py", "start_writeback_daemon"):
        "the kernel's periodic flusher; opt-in, no shipped stack enables it",
    ("kernel/vfs.py", "unmount"):
        "inverse of mount, the other half of the mount table contract",
}


def _definitions(tree):
    """Public top-level functions and classes, and public methods."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        if isinstance(node, ast.ClassDef):
            for child in node.body:
                if isinstance(child, ast.FunctionDef):
                    yield child.name


def _references(tree):
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            exported.update(id(child) for child in ast.walk(node))
    for node in ast.walk(tree):
        if id(node) in exported:
            continue
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value.rpartition(":")[2]


def dead_surface(package, consumers=()):
    """``(module, name)`` of every public definition under ``package``
    that nothing in ``package`` or ``consumers`` refers to."""
    modules = {path: ast.parse(path.read_text())
               for path in sorted(package.rglob("*.py"))}
    used = set()
    for tree in modules.values():
        used.update(_references(tree))
    for directory in consumers:
        for path in sorted(directory.rglob("*.py")):
            used.update(_references(ast.parse(path.read_text())))
    return {(path.relative_to(package).as_posix(), name)
            for path, tree in modules.items()
            for name in _definitions(tree)
            if not name.startswith("_") and name not in used}


def test_every_unused_public_name_is_allowlisted_with_a_reason():
    found = dead_surface(PACKAGE, [REPO_ROOT / name for name in CONSUMERS])
    whole_modules = {module for module, name in ALLOWED if name == "*"}
    unexplained = {(module, name) for module, name in found
                   if module not in whole_modules
                   and (module, name) not in ALLOWED}
    assert unexplained == set(), "unused: delete it, or say why it stays"
    stale = {(module, name) for module, name in ALLOWED
             if (module, name) not in found
             and not (name == "*" and any(m == module for m, _ in found))}
    assert stale == set(), "in use (or gone): drop the allowlist line"
    assert all(reason.strip() for reason in ALLOWED.values())


def test_the_guard_sees_an_unused_name_and_ignores_reexports(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "__init__.py").write_text(textwrap.dedent("""
        from .model import Model, helper, orphan
        __all__ = ["Model", "helper", "orphan"]
    """))
    (package / "model.py").write_text(textwrap.dedent("""
        def helper():
            return Model().step()

        def orphan():
            return 1

        def dispatched():
            return 2

        class Model:
            def step(self):
                return getattr(self, "dispatched")

            def unused_method(self):
                return 3

            def _private(self):
                return 4
    """))
    assert dead_surface(package) == {
        ("model.py", "helper"), ("model.py", "orphan"),
        ("model.py", "unused_method")}
    tool = tmp_path / "tools"
    tool.mkdir()
    (tool / "run.py").write_text("import pkg\npkg.helper()\n")
    assert dead_surface(package, [tool]) == {
        ("model.py", "orphan"), ("model.py", "unused_method")}

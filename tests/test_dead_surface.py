"""Dead-surface guard (ROADMAP items 6 and 10c): what nothing but its own
tests reaches is either deleted or named below with the reason it stays.
Four rules:

- *Names.* A public function, method or class of ``src/repro`` is used
  when it is referenced by name — a ``Name``, an attribute access, or a
  string constant naming it (``getattr`` dispatch, ``"module:function"``
  worker entry points) — anywhere in ``src/repro``, ``tools``, ``bench``,
  ``benchmarks`` or ``examples``. Import statements and ``__all__`` lists
  do not count: re-exporting a name is not using it. Matching is by bare
  name, so the guard errs towards "used" (a method called ``read`` is
  kept alive by any ``.read``); what it does report is certain.
- *Modules.* A module has a caller when one of its public top-level
  names is referenced from another ``src/repro`` module (not an
  ``__init__``) or from ``tools``, ``bench`` or ``benchmarks``. Examples
  do not count: a module only an example drives is a demo, not a part.
- *Knobs.* Every field of an options dataclass (``NvcacheConfig``,
  ``KVOptions``, ``FioJob``) is passed by keyword to the class,
  ``replace(...)`` or ``dict(...)`` somewhere outside its own module
  and the tests, and every defaulted parameter of the stack builder
  (``build_stack``) and of the app and driver entry
  points (``DbBench(...)``, ``MiniSqlite.open``, ``MiniRocks.open``) is
  passed, by keyword or position, to a call outside the tests; a knob
  with one value in use is a constant.
- *Mode rows.* Every ``CACHE_MODES`` name is spelled as an exact string
  constant in ``src/repro`` outside ``core/config.py``, or in ``tools``,
  ``bench`` or ``benchmarks``: a design point nothing selects is not
  one.
"""

import ast
import pathlib
import textwrap

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = REPO_ROOT / "src" / "repro"
CONSUMERS = ("tools", "bench", "benchmarks", "examples")
MODULE_CALLERS = ("tools", "bench", "benchmarks")
CONFIG = PACKAGE / "core" / "config.py"
STACK_BUILDERS = ((PACKAGE / "harness" / "systems.py", "build_stack"),)
#: App and driver entry points: ``Class`` is its constructor.
ENTRY_POINTS = ((PACKAGE / "workloads" / "db_bench.py", "DbBench"),
                (PACKAGE / "apps" / "sqldb" / "db.py", "MiniSqlite.open"),
                (PACKAGE / "apps" / "kvstore" / "db.py", "MiniRocks.open"))
OPTIONS_CLASSES = ((CONFIG, "NvcacheConfig"),
                   (PACKAGE / "apps" / "kvstore" / "db.py", "KVOptions"),
                   (PACKAGE / "workloads" / "fio.py", "FioJob"))

#: ``(module, name) -> why it stays``; ``"*"`` names a whole module that
#: may have no caller. Compared both ways: a name that gains a user (or
#: goes away) must leave this table.
ALLOWED = {
    ("core/nvcache.py", "ftell"):
        "test observation point: the cursor",
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
    ("kernel/page_cache.py", "start_writeback_daemon"):
        "the kernel's periodic flusher; ROADMAP item 12 gives it a caller",
}

#: ``(owner, knob) -> why it stays`` for the knobs only the tests turn
#: (owner: a builder, an entry point or an options class); compared both
#: ways, like :data:`ALLOWED`.
ALLOWED_KNOBS = {
    ("FioJob", "o_sync"):
        "fio's O_SYNC open, the flag Table IV's durability column turns "
        "on; ROADMAP item 6(b) gives it a caller",
    ("FioJob", "numjobs"):
        "fio's concurrent jobs; the driver's multi-job path is tested, "
        "and every figure and benchmark runs one job",
    ("KVOptions", "max_levels"):
        "the LSM's depth; every caller outside the tests keeps the "
        "default of four",
    ("DbBench", "op_overhead"):
        "the application CPU per op that Fig 3 rests on; ROADMAP item "
        "17 fits it per application",
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


def _top_level_names(tree):
    """Every public name a module binds at top level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            names = [child.id for target in targets
                     for child in ast.walk(target) if isinstance(child, ast.Name)]
        else:
            continue
        yield from (name for name in names if not name.startswith("_"))


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


def _parse_all(directories):
    return {path: ast.parse(path.read_text())
            for directory in directories
            for path in sorted(directory.rglob("*.py"))}


def dead_surface(package, consumers=()):
    """``(module, name)`` of every public definition under ``package``
    that nothing in ``package`` or ``consumers`` refers to."""
    modules = _parse_all([package])
    used = set()
    for tree in [*modules.values(), *_parse_all(consumers).values()]:
        used.update(_references(tree))
    return {(path.relative_to(package).as_posix(), name)
            for path, tree in modules.items()
            for name in _definitions(tree)
            if not name.startswith("_") and name not in used}


def orphan_modules(package, callers=()):
    """Every module under ``package`` (``__init__`` aside) none of whose
    public names another non-``__init__`` module or ``callers`` refers to."""
    modules = {path: tree for path, tree in _parse_all([package]).items()
               if path.name != "__init__.py"}
    outside = set()
    for tree in _parse_all(callers).values():
        outside.update(_references(tree))
    refs = {path: set(_references(tree)) for path, tree in modules.items()}
    return {path.relative_to(package).as_posix()
            for path, tree in modules.items()
            if not set(_top_level_names(tree)) & outside.union(
                *(r for other, r in refs.items() if other != path))}


def _callee(call):
    func = call.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def knobs_never_set(config_path, class_name, sources):
    """Fields of dataclass ``class_name`` in ``config_path`` that no call
    in ``sources`` to ``class_name``, ``replace`` or ``dict`` passes by
    keyword. A keyword of any other call does not count, so a field
    named like an unrelated argument (``size``, ``policy``) is not
    turned by it."""
    tree = ast.parse(config_path.read_text())
    cls = next(node for node in tree.body
               if isinstance(node, ast.ClassDef) and node.name == class_name)
    fields = {node.target.id for node in cls.body
              if isinstance(node, ast.AnnAssign)}
    passed = set()
    for source in sources:
        nodes = list(ast.walk(ast.parse(source.read_text())))
        setters = {class_name, "replace", "dict"}
        setters.update(alias.asname for node in nodes
                       if isinstance(node, ast.ImportFrom)
                       for alias in node.names
                       if alias.name in setters and alias.asname)
        passed.update(keyword.arg for node in nodes
                      if isinstance(node, ast.Call) and _callee(node) in setters
                      for keyword in node.keywords)
    return fields - passed


def _target(tree, function):
    """The definition ``function`` names in ``tree`` (a top-level
    function, ``Class`` for its ``__init__``, or ``Class.method``) and a
    predicate telling the calls that reach it."""
    owner, _, name = function.rpartition(".")
    top = {node.name: node for node in tree.body
           if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    if not owner and isinstance(top[name], ast.FunctionDef):
        return top[name], lambda call: _callee(call) == name
    if not owner:
        owner, name = name, "__init__"
    method = next(node for node in top[owner].body
                  if isinstance(node, ast.FunctionDef) and node.name == name)
    if name == "__init__":
        return method, lambda call: _callee(call) == owner
    return method, lambda call: (
        isinstance(call.func, ast.Attribute) and call.func.attr == name
        and getattr(call.func.value, "id", None) == owner)


def parameters_never_passed(path, function, sources):
    """Defaulted parameters of ``function`` in ``path`` (see
    :func:`_target`) that no call in ``sources`` passes, by position to
    ``function`` or by keyword to it or to a function that forwards
    ``**options`` to it."""
    node, calls_target = _target(ast.parse(path.read_text()), function)
    positional = [arg.arg for arg in node.args.args]
    defaulted = set(positional[len(positional) - len(node.args.defaults):])
    defaulted.update(arg.arg for arg in node.args.kwonlyargs)
    if positional[:1] in (["self"], ["cls"]):
        positional = positional[1:]
    nodes = [node for source in sources
             for node in ast.walk(ast.parse(source.read_text()))]
    calls = [node for node in nodes if isinstance(node, ast.Call)]
    forwarders = {
        node.name for node in nodes if isinstance(node, ast.FunctionDef)
        and any(isinstance(call, ast.Call) and calls_target(call)
                and any(keyword.arg is None for keyword in call.keywords)
                for call in ast.walk(node))}
    passed = set()
    for call in calls:
        if calls_target(call):
            passed.update(positional[:len(call.args)])
        if calls_target(call) or _callee(call) in forwarders:
            passed.update(keyword.arg for keyword in call.keywords)
    return defaulted - passed


def rows_never_named(config_path, table, sources):
    """Keys of the dict literal ``table`` in ``config_path`` that no
    string constant in ``sources`` spells exactly (a docstring that
    mentions a key does not select it)."""
    tree = ast.parse(config_path.read_text())
    literal = next(node.value for node in tree.body
                   if isinstance(node, ast.Assign)
                   and any(isinstance(target, ast.Name) and target.id == table
                           for target in node.targets))
    named = {node.value for source in sources
             for node in ast.walk(ast.parse(source.read_text()))
             if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    return {key.value for key in literal.keys} - named


def _sources(exclude=(), consumers=CONSUMERS):
    """Every module outside the tests: ``src/repro`` and the consumers."""
    sources = [path for path in sorted(PACKAGE.rglob("*.py"))
               if path not in exclude]
    for name in consumers:
        sources.extend(sorted((REPO_ROOT / name).rglob("*.py")))
    return sources


def test_every_unused_public_name_is_allowlisted_with_a_reason():
    found = dead_surface(PACKAGE, [REPO_ROOT / name for name in CONSUMERS])
    whole_modules = {module for module, name in ALLOWED if name == "*"}
    unexplained = {(module, name) for module, name in found
                   if module not in whole_modules
                   and (module, name) not in ALLOWED}
    assert unexplained == set(), "unused: delete it, or say why it stays"
    stale = {(module, name) for module, name in ALLOWED
             if name != "*" and (module, name) not in found}
    assert stale == set(), "in use (or gone): drop the allowlist line"
    assert all(reason.strip() for reason in ALLOWED.values())


def test_every_module_has_a_caller_or_a_reason():
    orphans = orphan_modules(
        PACKAGE, [REPO_ROOT / name for name in MODULE_CALLERS])
    whole_modules = {module for module, name in ALLOWED if name == "*"}
    assert orphans - whole_modules == set(), \
        "no caller outside tests and examples: delete it, or say why it stays"
    assert whole_modules - orphans == set(), \
        "has a caller (or is gone): drop the allowlist line"


def _check_knobs(owner, unturned):
    allowed = {name for knob_owner, name in ALLOWED_KNOBS
               if knob_owner == owner}
    assert unturned - allowed == set(), \
        f"{owner}: one value in use: make it a constant"
    assert allowed - unturned == set(), \
        f"{owner}: turned outside the tests (or gone): drop the allowlist line"


def test_every_config_knob_is_turned_outside_the_tests():
    for path, class_name in OPTIONS_CLASSES:
        _check_knobs(class_name, knobs_never_set(
            path, class_name, _sources(exclude={path})))


def test_every_cache_mode_is_selected_outside_the_tests():
    assert rows_never_named(
        CONFIG, "CACHE_MODES",
        _sources(exclude={CONFIG}, consumers=MODULE_CALLERS)) == set(), \
        "no caller selects it: delete the row"


@pytest.mark.parametrize("path, function", STACK_BUILDERS,
                         ids=[function for _path, function in STACK_BUILDERS])
def test_every_stack_builder_knob_is_turned_outside_the_tests(path, function):
    _check_knobs(function, parameters_never_passed(path, function, _sources()))


@pytest.mark.parametrize("path, function", ENTRY_POINTS,
                         ids=[function for _path, function in ENTRY_POINTS])
def test_every_entry_point_knob_is_turned_outside_the_tests(path, function):
    _check_knobs(function.partition(".")[0],
                 parameters_never_passed(path, function, _sources()))


def test_the_guard_sees_an_unused_name_and_ignores_reexports(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "__init__.py").write_text(textwrap.dedent("""
        from .legacy import BUFSIZ, fopen
        from .model import Model, helper, orphan
        __all__ = ["BUFSIZ", "Model", "fopen", "helper", "orphan"]
    """))
    (package / "legacy.py").write_text(textwrap.dedent("""
        BUFSIZ = 8192

        def fopen():
            return BUFSIZ
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
        ("legacy.py", "fopen"),
        ("model.py", "helper"), ("model.py", "orphan"),
        ("model.py", "unused_method")}
    assert orphan_modules(package) == {"legacy.py", "model.py"}
    tool = tmp_path / "tools"
    tool.mkdir()
    (tool / "run.py").write_text("import pkg\npkg.helper()\n")
    assert dead_surface(package, [tool]) == {
        ("legacy.py", "fopen"),
        ("model.py", "orphan"), ("model.py", "unused_method")}
    assert orphan_modules(package, [tool]) == {"legacy.py"}


def test_the_guard_sees_a_knob_nobody_turns(tmp_path):
    config = tmp_path / "config.py"
    config.write_text(textwrap.dedent("""
        class Config:
            size: int = 1
            mode: str = "a"
            overhead: float = 0.5
    """))
    user = tmp_path / "user.py"
    user.write_text(textwrap.dedent("""
        small = Config(size=2)
        row = dict(mode="b")
        cost = Config().overhead
        grown = resize(overhead=1.0)
    """))
    aliased = tmp_path / "aliased.py"
    aliased.write_text(textwrap.dedent("""
        from dataclasses import replace as _replace
        tuned = _replace(Config(), overhead=0.25)
    """))
    assert knobs_never_set(config, "Config", [user, aliased]) == set()
    assert knobs_never_set(config, "Config", [user]) == {"overhead"}


def test_the_guard_sees_a_builder_parameter_nobody_passes(tmp_path):
    builder = tmp_path / "builder.py"
    builder.write_text(textwrap.dedent("""
        def build(name, scale=1, *, size=2, timing=None, trace=False):
            return name
    """))
    user = tmp_path / "user.py"
    user.write_text(textwrap.dedent("""
        stack = build("ssd", 4, trace=True)
        other = make(size=8)
    """))
    assert parameters_never_passed(builder, "build", [user]) == {
        "size", "timing"}
    wrapper = tmp_path / "wrapper.py"
    wrapper.write_text(textwrap.dedent("""
        def traced_stack(name, **options):
            return build(name, trace=True, **options)

        stack = traced_stack("ssd", timing=0.5)
    """))
    assert parameters_never_passed(builder, "build", [user, wrapper]) == {
        "size"}


def test_the_guard_sees_an_entry_point_parameter_nobody_passes(tmp_path):
    app = tmp_path / "app.py"
    app.write_text(textwrap.dedent("""
        class Db:
            def __init__(self, path, cache=8, mode="a"):
                self.path = path

            @classmethod
            def open(cls, path, sync=True, journal="delete"):
                return cls(path)
    """))
    user = tmp_path / "user.py"
    user.write_text(textwrap.dedent("""
        db = Db("/x", 16)
        other = Db.open("/y", False)
        unrelated = libc.open("/z", journal="wal", mode="b")
    """))
    assert parameters_never_passed(app, "Db", [user]) == {"mode"}
    assert parameters_never_passed(app, "Db.open", [user]) == {"journal"}


def test_the_guard_sees_a_mode_row_nobody_selects(tmp_path):
    config = tmp_path / "config.py"
    config.write_text(textwrap.dedent("""
        MODES = {"fast": ("a", 1), "safe": ("b", 2), "lite": ("c", 3)}
    """))
    user = tmp_path / "user.py"
    user.write_text(textwrap.dedent('''
        """Builds the lite mode too, as build(mode="lite")."""
        stack = build(mode="fast")
        if stack.mode == "safe":
            label = "lite mode"
    '''))
    assert rows_never_named(config, "MODES", [user]) == {"lite"}
    assert rows_never_named(config, "MODES", []) == {"fast", "safe", "lite"}

"""Rules on the package source itself."""
import ast
import re
from pathlib import Path

import cubiclat

SOURCES = sorted(Path(cubiclat.__file__).parent.glob("*.py"))
MODULES = [path for path in SOURCES if path.name != "__init__.py"]
ROOT = Path(cubiclat.__file__).resolve().parents[2]


def test_package_source_has_no_assert():
    # python -O strips assert statements, so a check that carries weight
    # must raise explicitly
    found = [f"{path.name}:{node.lineno}" for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert SOURCES and not found, found


def test_module_level_api_has_a_non_test_user():
    # every module-level def and class but a click command is named outside
    # its own definition in the package modules (re-exports in __init__ do
    # not count) or bench/*.py; what only tests or the docs reach is deleted
    texts = {path: path.read_text(encoding="utf-8").splitlines() for path in
             [*MODULES, *(ROOT / "bench").glob("*.py")]}
    unused = []
    for path in MODULES:
        for node in ast.parse("\n".join(texts[path])).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or any(
                    getattr(getattr(d, "func", None), "attr", None)
                    in ("command", "group") for d in node.decorator_list):
                continue
            word = re.compile(rf"\b{node.name}\b")
            if not any(word.search(line) for other, lines in texts.items()
                       for i, line in enumerate(lines, 1)
                       if other != path or not node.lineno <= i <= node.end_lineno):
                unused.append(f"{path.name}:{node.name}")
    assert MODULES
    assert not unused, unused


def test_every_method_has_a_non_test_reader():
    # every non-dunder method or property of a package class is read as an
    # attribute outside its own definition, in the package modules or
    # bench/*.py, or is named as Class.method in a bench/*.py string (the
    # trace hooks).  Attributes match by name only, so a method passes when
    # a same-named method of another class is read.
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in [*MODULES, *(ROOT / "bench").glob("*.py")]}
    reads = [(path, node.lineno, node.attr) for path, tree in trees.items()
             for node in ast.walk(tree) if isinstance(node, ast.Attribute)]
    hooks = " ".join(node.value for path, tree in trees.items()
                     if path.parent.name == "bench" for node in ast.walk(tree)
                     if isinstance(node, ast.Constant)
                     and isinstance(node.value, str))
    unread = []
    for path in MODULES:
        for cls in ast.walk(trees[path]):
            if not isinstance(cls, ast.ClassDef):
                continue
            for fn in cls.body:
                if (not isinstance(fn, ast.FunctionDef)
                        or fn.name.startswith("__") and fn.name.endswith("__")):
                    continue
                if not (re.search(rf"\b{cls.name}\.{fn.name}\b", hooks) or any(
                        attr == fn.name and not (
                            other == path and fn.lineno <= line <= fn.end_lineno)
                        for other, line, attr in reads)):
                    unread.append(f"{path.name}:{cls.name}.{fn.name}")
    assert MODULES
    assert not unread, unread


def test_every_imported_name_is_read():
    # each name a package module imports is read in that module; __init__
    # re-exports, and the __future__ import is a compiler directive
    unread = []
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if (not isinstance(node, (ast.Import, ast.ImportFrom))
                    or getattr(node, "module", None) == "__future__"):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read:
                    unread.append(f"{path.name}:{node.lineno}:{name}")
    assert MODULES
    assert not unread, unread


def test_reports_are_serialized_only_by_the_cli_emitter():
    # every command prints its reports through cli._emit_reports, so no
    # other package code calls .to_json()
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in MODULES}
    emit = next(node for node in trees["cli.py"].body
                if getattr(node, "name", None) == "_emit_reports")
    calls = [(name, node.lineno) for name, tree in trees.items()
             for node in ast.walk(tree) if isinstance(node, ast.Call)
             and getattr(node.func, "attr", None) == "to_json"]
    assert calls and all(
        name == "cli.py" and emit.lineno <= line <= emit.end_lineno
        for name, line in calls), calls


def test_library_imports_no_dataclasses_inspect_or_json(run_optimized):
    # records are NamedTuples and claims are formatted from details, so the
    # library loads none of these heavy modules (json is the CLI's alone);
    # modules already loaded at start-up do not count
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import cubiclat.checks, cubiclat.shortvec, cubiclat.hassett, "
        "cubiclat.core\n"
        "print(*sorted(set(sys.modules) - before))\n")
    added = set(run_optimized(script).split())
    assert "cubiclat.checks" in added
    assert not added & {"dataclasses", "inspect", "json"}, added


def test_only_core_calls_the_discriminant_aliases():
    # the package reads L.disc_form; discriminant_group and
    # discriminant_bilinear_form stay only as the benchmark's entry points
    aliases = {"discriminant_group", "discriminant_bilinear_form"}
    calls = [f"{path.name}:{node.lineno}" for path in MODULES
             if path.name != "core.py"
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Call) and (
                 getattr(node.func, "id", None) in aliases
                 or getattr(node.func, "attr", None) in aliases)]
    assert MODULES and not calls, calls


def test_only_hassett_and_the_class_rule_call_is_admissible():
    # geomchecks._class_rule is the one R4 predicate: the scan and the
    # sat.511 witnesses both read it, so no second span test grows back
    calls = []
    for path in MODULES:
        if path.name == "hassett.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = set()
        if path.name == "geomchecks.py":
            rule = next(node for node in tree.body
                        if getattr(node, "name", None) == "_class_rule")
            allowed = set(ast.walk(rule))
        calls += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and node not in allowed
                  and "is_admissible" in (getattr(node.func, "id", None),
                                          getattr(node.func, "attr", None))]
    assert MODULES and not calls, calls

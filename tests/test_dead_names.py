"""Every name the package defines is referred to somewhere, and every
import is used.

Definitions are the module-level functions, classes and constants of
``src/javastyle/*.py`` and every non-dunder method of a module-level
class. A reference is a loaded name, an attribute, an imported name, a
keyword argument or a word inside a string literal (the benchmark names
the functions it wraps in strings), in any Python file under ``src/``,
``tests/``, ``perfbench/`` or ``scripts/``, or an entry point in
``pyproject.toml``.

An import is used when the file reads the name it binds, directly or in
a string that is a Python expression (a quoted annotation).

Every annotated field of a ``model.py`` class that is a dataclass, a
named tuple or declares ``__slots__``, and of the classes in ``GROWING``,
is read somewhere in ``src/`` as an attribute (``x.field``); a keyword
argument or an assignment that writes it is no read, so a field only the
parser fills fails. The guard matches field names, not classes: a field
named like a field of another class that is read (``kind``, ``line``,
``annotations``) passes even when nothing reads it on its own class.
Every class ``model.py`` defines and every ``GROWING`` class has
``__slots__``, which keeps the many small objects compact, and every
class ``model.py`` defines is a named tuple without an ``__init__`` of
its own. No named tuple of the package has a list, dict or set default,
which every instance would share.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import re
from pathlib import Path

from javastyle import checkers, model, project_index

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "javastyle"
SEARCHED = ("src", "tests", "perfbench", "scripts")
IMPORTS_CHECKED = ("src", "tests", "scripts")
_WORD = re.compile(r"[A-Za-z_]\w*")
# A `name = "module:function"` line; tomllib is not in Python 3.10.
_ENTRY_POINT = re.compile(r'^\s*[\w.-]+\s*=\s*"[\w.]+:(\w+)"', re.MULTILINE)
# Outside the model, the classes with one instance per finding or per
# type of the tree.
GROWING = (checkers.Violation, project_index.TypeEntry)


def defined_names(tree: ast.Module) -> list[tuple[str, int]]:
    """(name, line) of each definition the guard requires a reference to."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append((node.name, node.lineno))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [(t.id, node.lineno) for t in targets if isinstance(t, ast.Name)]
        if isinstance(node, ast.ClassDef):
            found += [(item.name, item.lineno) for item in node.body
                      if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))]
    return [(name, line) for name, line in found
            if not (name.startswith("__") and name.endswith("__"))]


def referenced_names(tree: ast.AST) -> set[str]:
    refs: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.alias):
            refs.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.keyword) and node.arg is not None:
            refs.add(node.arg)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            refs.update(_WORD.findall(node.value))
    return refs


def entry_point_names(pyproject: Path) -> set[str]:
    """Functions named in the ``[project.scripts]`` table."""
    text = pyproject.read_text(encoding="utf-8")
    table = text.split("[project.scripts]", 1)[-1].split("\n[", 1)[0]
    return set(_ENTRY_POINT.findall(table))


def dead_names(modules: dict[str, str], sources: list[str],
               extra_refs: set[str]) -> list[str]:
    """``module:line name`` of each definition in modules that no source
    refers to."""
    refs = set(extra_refs)
    for text in sources:
        refs |= referenced_names(ast.parse(text))
    return [f"{module}:{line} {name}"
            for module, text in sorted(modules.items())
            for name, line in defined_names(ast.parse(text))
            if name not in refs]


def declares_slots(node: ast.ClassDef) -> bool:
    return any(isinstance(item, ast.Assign)
               and any(isinstance(t, ast.Name) and t.id == "__slots__"
                       for t in item.targets)
               for item in node.body)


def unread_fields(model_text: str, sources: list[str]) -> list[str]:
    """``Class.field`` of each annotated field of a dataclass, a named
    tuple or a class with ``__slots__`` in model_text that no source
    reads as an attribute."""
    reads = {node.attr for text in sources for node in ast.walk(ast.parse(text))
             if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return [f"{node.name}.{item.target.id}"
            for node in ast.parse(model_text).body
            if isinstance(node, ast.ClassDef) and (any(
                "dataclass" in ast.unparse(d) for d in node.decorator_list)
                or any(ast.unparse(b) == "NamedTuple" for b in node.bases)
                or declares_slots(node))
            for item in node.body
            if isinstance(item, ast.AnnAssign)
            and isinstance(item.target, ast.Name)
            and item.target.id not in reads]


def unused_imports(text: str) -> list[tuple[str, int]]:
    """(name, line) of each name an import binds that the file never reads."""
    tree = ast.parse(text)
    bound = []
    reads: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(a.asname or a.name.split(".")[0], node.lineno)
                      for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(a.asname or a.name, node.lineno) for a in node.names]
        elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            reads.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                quoted = ast.parse(node.value.strip(), mode="eval")
            except SyntaxError:
                continue
            reads.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    return [(name, line) for name, line in bound if name not in reads]


def test_every_package_name_is_referenced():
    modules = {p.name: p.read_text(encoding="utf-8")
               for p in sorted(PACKAGE.glob("*.py"))}
    sources = [p.read_text(encoding="utf-8")
               for d in SEARCHED for p in sorted((ROOT / d).rglob("*.py"))]
    assert dead_names(modules, sources,
                      entry_point_names(ROOT / "pyproject.toml")) == []


def test_guard_flags_an_unused_function():
    module = ("LIMIT = 3\n"
              "def helper():\n    return LIMIT\n"
              "def orphan():\n    return 1\n"
              "class Box:\n"
              "    def __len__(self):\n        return 0\n"
              "    def used(self):\n        return helper()\n"
              "    def unused(self):\n        return 2\n")
    caller = "from m import Box\nBox().used()\n"
    assert dead_names({"m.py": module}, [module, caller], set()) == [
        "m.py:4 orphan", "m.py:11 unused"]


def test_string_words_and_entry_points_count_as_references(tmp_path):
    module = "def wrapped():\n    pass\ndef run():\n    pass\n"
    pyproject = tmp_path / "pyproject.toml"
    pyproject.write_text('[project.scripts]\ntool = "m:run"\n\n[tool.x]\n'
                         'other = "m:wrapped"\n')
    assert dead_names({"m.py": module}, ['SPANS = ("m.wrapped",)'],
                      entry_point_names(pyproject)) == []


def test_every_import_is_used():
    unused = [f"{p.relative_to(ROOT)}:{line} {name}"
              for d in IMPORTS_CHECKED for p in sorted((ROOT / d).rglob("*.py"))
              for name, line in unused_imports(p.read_text(encoding="utf-8"))]
    assert unused == []


def test_guard_flags_an_unused_import():
    module = ("from __future__ import annotations\n"
              "import os.path\n"
              "from collections import Counter\n"
              "from dataclasses import dataclass, field as fld\n"
              "from typing import Callable\n"
              "Fn = Callable[[str], \"Sized\"]\n"
              "@dataclass\nclass Box:\n    size: int = 0\n"
              "def exists(p):\n    return os.path.exists(p)\n")
    assert unused_imports(module) == [("Counter", 3), ("fld", 4)]
    assert unused_imports("from typing import Sized\nx: 'Sized'\n") == []


def test_every_model_field_is_read():
    sources = [p.read_text(encoding="utf-8")
               for p in sorted((ROOT / "src").rglob("*.py"))]
    assert unread_fields((PACKAGE / "model.py").read_text(encoding="utf-8"),
                         sources) == []
    growing = {c.__name__ for c in GROWING}
    assert [f for c in GROWING
            for f in unread_fields(Path(inspect.getfile(c)).read_text(
                encoding="utf-8"), sources)
            if f.partition(".")[0] in growing] == []


def test_guard_flags_a_field_nothing_reads():
    module = ("from dataclasses import dataclass\n"
              "@dataclass(slots=True)\nclass Fact:\n"
              "    line: int\n    kind: str\n    done: bool = False\n"
              "class Plain:\n    size: int\n"
              "class Row(NamedTuple):\n    line: int\n    cells: int\n")
    caller = ("def make(n):\n    f = Fact(line=n, kind='x', done=True)\n"
              "    f.done = False\n    f.kind += '!'\n    return f.line\n")
    assert unread_fields(module, [module, caller]) == [
        "Fact.kind", "Fact.done", "Row.cells"]


def test_guard_reads_the_fields_of_a_slotted_class():
    module = ("class Entry:\n"
              "    __slots__ = ('name', 'size', 'seen')\n"
              "    name: str\n    size: int\n    seen: bool\n"
              "    def __init__(self, name, size):\n"
              "        self.name, self.size, self.seen = name, size, False\n"
              "class Loose:\n    size: int\n")
    caller = ("def mark(e):\n    e.seen = True\n    e.size += 1\n"
              "    return e.name\n")
    assert unread_fields(module, [module, caller]) == [
        "Entry.size", "Entry.seen"]


def test_every_model_class_has_slots():
    classes = [c for c in vars(model).values()
               if isinstance(c, type) and c.__module__ == model.__name__]
    assert classes
    assert [c.__name__ for c in [*classes, *GROWING]
            if "__slots__" not in vars(c)] == []
    # The parser builds each fact once, as a named tuple, when its last
    # field is known.
    assert [c.__name__ for c in classes
            if not (issubclass(c, tuple) and hasattr(c, "_fields"))
            or "__init__" in vars(c)] == []


def test_no_named_tuple_shares_a_mutable_default():
    # A named tuple's default is one object for all its instances, so a
    # list default would carry facts from one file into the next.
    modules = [importlib.import_module(f"javastyle.{p.stem}")
               for p in sorted(PACKAGE.glob("*.py")) if p.stem != "__init__"]
    tuples = [c for m in modules for c in vars(m).values()
              if isinstance(c, type) and issubclass(c, tuple)
              and c.__module__ == m.__name__ and hasattr(c, "_field_defaults")]
    assert tuples
    assert [f"{c.__name__}.{name}" for c in tuples
            for name, value in c._field_defaults.items()
            if isinstance(value, (list, dict, set))] == []

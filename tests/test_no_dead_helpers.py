"""No dead helpers: every top-level function or class that src/liepq
defines, public or private, and every public method of a top-level class is
named somewhere in src/liepq, bench/*.py or demos/*.py.

A top-level name counts as used where it is read as a variable, an
attribute or an imported name, or inside a dotted-name string constant such
as "Subspace.reduce" (bench/layers.py names the functions it wraps that
way).  A method counts as used only where it is read as an attribute or
named in a dotted-name string: a local variable of the same name does not
call it.  Definitions, parameters, keyword names, comments, docstrings and
other strings do not count.  The names liepq/__init__.py imports are the package
API and so always count as used; a helper only the tests call belongs in
tests/conftest.py.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*\Z")
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def checked_definitions(tree):
    """(name, line, is_method) of every top-level function and class, and of
    every public method of a top-level class."""
    out = []
    for node in tree.body:
        if isinstance(node, DEFINITIONS):
            out.append((node.name, node.lineno, False))
        if isinstance(node, ast.ClassDef):
            out.extend(
                (item.name, item.lineno, True)
                for item in node.body
                if isinstance(item, DEFINITIONS) and not item.name.startswith("_")
            )
    return out


def used_names(tree):
    """(every name the module reads, the attribute names among them): the
    first holds variables, attributes, imported names and the parts of
    dotted-name strings that are not docstrings; the second only the
    attributes and the dotted-name string parts."""
    bare = {
        id(node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
    }
    names, attributes = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attributes.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and id(node) not in bare
            and DOTTED.match(node.value)
        ):
            attributes.update(node.value.split("."))
    return names | attributes, attributes


def dead_helpers(root: Path):
    """'file:line name' for each checked definition under root/src/liepq
    whose name no scanned module uses."""
    library = sorted((root / "src" / "liepq").glob("*.py"))
    scanned = library + sorted((root / "bench").glob("*.py")) + sorted((root / "demos").glob("*.py"))
    trees = {path: ast.parse(path.read_text(), str(path)) for path in scanned}
    used, attributes = set(), set()
    for tree in trees.values():
        names, attrs = used_names(tree)
        used |= names
        attributes |= attrs
    return [
        f"{path.name}:{line} {name}"
        for path in library
        for name, line, is_method in checked_definitions(trees[path])
        if name not in (attributes if is_method else used)
    ]


def test_every_checked_definition_in_the_library_is_used():
    assert (ROOT / "src" / "liepq" / "__init__.py").is_file()
    assert dead_helpers(ROOT) == []


def test_the_scan_reports_a_helper_only_its_definition_names(tmp_path):
    for part in ("src/liepq", "bench", "demos"):
        (tmp_path / part).mkdir(parents=True)
    (tmp_path / "src/liepq/__init__.py").write_text("from .core import exported\n")
    (tmp_path / "src/liepq/core.py").write_text(
        '"""helper"""\n'
        "def exported():\n    return helper()\n\n"
        "def helper():\n    '''dead'''\n    return dead\n\n"
        "def dead(validate=True):\n    return 'the dead one'\n\n"
        "def validate():\n    pass\n\n"
        "class Box:\n    def wrapped(self):\n        pass\n\n"
        "    def unused(self):\n        pass\n\n"
        "    def _private(self):\n        pass\n\n"
        "    def shadowed(self):\n        pass\n\n"
        "    def called(self):\n        return [shadowed for shadowed in self.called()]\n\n"
        "def _used():\n    pass\n\n"
        "def _dead():\n    return _used()\n\n"
        "class _Base:\n    pass\n\n"
        "class _Unused(_Base):\n    pass\n"
    )
    (tmp_path / "bench/layers.py").write_text('LAYERS = [("core", "Box.wrapped")]\n')
    (tmp_path / "demos/demo.py").write_text("# unused(), _dead()\n")
    assert dead_helpers(tmp_path) == [
        "core.py:12 validate", "core.py:19 unused", "core.py:25 shadowed",
        "core.py:34 _dead", "core.py:40 _Unused",
    ]

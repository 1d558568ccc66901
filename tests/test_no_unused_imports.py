"""No unused imports: every name a src/liepq module binds by an import is
read somewhere in that module.

A name counts as read where it appears as a variable in load context, the
base of an attribute included (`math.lcm` reads `math`).  The package's
`__init__.py` imports to re-export, and `from __future__ import
annotations` binds no name, so both are exempt.  A deletion that leaves an
import behind fails here.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(root: Path):
    """'file:line name' for each name a module under root/src/liepq imports
    and never reads."""
    out = []
    for path in sorted((root / "src" / "liepq").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        read = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name != "annotations" and name not in read:
                        out.append(f"{path.name}:{node.lineno} {name}")
    return out


def test_every_imported_name_in_the_library_is_read():
    assert unused_imports(ROOT) == []


def test_the_scan_reports_an_import_only_its_statement_names(tmp_path):
    (tmp_path / "src/liepq").mkdir(parents=True)
    (tmp_path / "src/liepq/__init__.py").write_text("from .core import exported, unused\n")
    (tmp_path / "src/liepq/core.py").write_text(
        '"""kept"""\n'
        "from __future__ import annotations\n"
        "import math\n"
        "import os.path\n"
        "from .base import (\n    kept,\n    dropped,\n)\n"
        "from .other import thing as alias, unread as renamed\n"
        "def exported(dropped=1):\n"
        "    '''math kept renamed'''\n"
        "    result = math.lcm(kept, 2)\n"
        "    return result\n"
    )
    assert unused_imports(tmp_path) == [
        "core.py:4 os", "core.py:5 dropped", "core.py:9 alias", "core.py:9 renamed",
    ]

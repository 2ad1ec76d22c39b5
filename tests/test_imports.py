"""Every name a ``chocosim`` module imports at module level is read in that
module; ``__init__.py`` imports to re-export. Only the stdlib ``ast`` reads
the sources: no linter is needed."""

import ast
from pathlib import Path

import chocosim

SOURCES = sorted(Path(chocosim.__file__).parent.glob("*.py"))


def _unread_imports(tree):
    imported = {}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # ``import a.b`` binds ``a``
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_no_module_imports_a_name_it_never_reads():
    unread = {path.name: _unread_imports(ast.parse(path.read_text(encoding="utf-8")))
              for path in SOURCES if path.name != "__init__.py"}
    assert {name: found for name, found in unread.items() if found} == {}


def test_the_check_finds_an_unread_import():
    tree = ast.parse("import os\nfrom json import dumps, loads as read\nimport a.b\n"
                     "read(os.sep)\n")
    assert _unread_imports(tree) == [(2, "dumps"), (3, "a")]

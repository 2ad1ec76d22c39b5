"""Every name a ``chocosim`` module imports at module level is read in that
module; ``__init__.py`` imports to re-export. Every module-level private
name (one leading underscore) is read by some module of the package. No
module compares a value with an algorithm name or a compressor kind: what
an algorithm or a kind does is read from its table row. Only the stdlib
``ast`` reads the sources: no linter is needed."""

import ast
from pathlib import Path

import chocosim
from chocosim.compression import COMPRESSOR_TABLE
from chocosim.optim import ALGORITHM_TABLE

SOURCES = sorted(Path(chocosim.__file__).parent.glob("*.py"))
TABLE_NAMES = frozenset(ALGORITHM_TABLE) | frozenset(COMPRESSOR_TABLE)


def _trees():
    return {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}


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


def _unread_privates(trees):
    """``(module, line, name)`` of each module-level private function, class or
    constant that no tree reads: by name, as an attribute or through an import."""
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    unread = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            unread += [(module, node.lineno, name) for name in names
                       if name.startswith("_") and not name.startswith("__")
                       and name not in read]
    return sorted(unread)


def test_no_module_imports_a_name_it_never_reads():
    unread = {name: _unread_imports(tree) for name, tree in _trees().items()
              if name != "__init__.py"}
    assert {name: found for name, found in unread.items() if found} == {}


def test_the_check_finds_an_unread_import():
    tree = ast.parse("import os\nfrom json import dumps, loads as read\nimport a.b\n"
                     "read(os.sep)\n")
    assert _unread_imports(tree) == [(2, "dumps"), (3, "a")]


def test_every_private_name_is_read_by_some_module():
    assert _unread_privates(_trees()) == []


def test_the_check_finds_unread_private_code():
    a = ast.parse("_LIMIT = 3\n_table: dict = {}\nclass _Row:\n    pass\n"
                  "def _used():\n    return _LIMIT\ndef _dead():\n    pass\n"
                  "__all__ = []\n")
    b = ast.parse("from a import _used\nimport a\na._Row()\n")
    assert _unread_privates({"a.py": a, "b.py": b}) == [("a.py", 2, "_table"),
                                                        ("a.py", 7, "_dead")]


def _table_name_comparisons(tree, names=TABLE_NAMES):
    """``(line, name)`` of each ``==``, ``!=``, ``in`` or ``not in`` whose
    operand is one of ``names`` as a string constant, or a tuple, list or set
    of constants holding one."""
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Compare) and any(
                isinstance(op, (ast.Eq, ast.NotEq, ast.In, ast.NotIn)) for op in node.ops)):
            continue
        for operand in [node.left, *node.comparators]:
            listed = isinstance(operand, (ast.Tuple, ast.List, ast.Set))
            items = operand.elts if listed else [operand]
            found += [(node.lineno, item.value) for item in items
                      if isinstance(item, ast.Constant) and item.value in names]
    return sorted(found)


def test_no_module_compares_with_an_algorithm_name_or_a_compressor_kind():
    found = {name: _table_name_comparisons(tree) for name, tree in _trees().items()}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_the_check_finds_a_comparison_with_a_table_name():
    tree = ast.parse('if comp.kind == "topk":\n    pass\n'
                     'flag = kind in ("gsgd", "other")\n'
                     'other = "choco" != algorithm or name not in ["sign"]\n'
                     'fine = kind == "auto" or kind is "topk" or Compressor("identity")\n'
                     'also = {"choco": 1}["choco"] < 2\n')
    assert _table_name_comparisons(tree) == [(1, "topk"), (3, "gsgd"), (4, "choco"),
                                             (4, "sign")]

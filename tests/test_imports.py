"""The imports that run when ``focklab`` is imported.

Most of a sweep's set-up time is ``import focklab``, and nearly all of that
is scipy.  Only the standard library and the packages below may be imported
at module level; heavier ones belong inside the function that needs them.
"""

import ast
import sys
from pathlib import Path

import focklab

_SRC = Path(focklab.__file__).parent
ALLOWED = {"numpy", "scipy.sparse", "scipy.special", "scipy.integrate"}


def _module_level_imports(tree):
    """Dotted names imported outside function bodies, with their lines."""
    found = []

    def visit(node):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            return
        if isinstance(node, ast.Import):
            found.extend((node.lineno, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            # ``from scipy import special`` imports the submodule scipy.special
            found.extend((node.lineno, node.module if node.module in ALLOWED
                          else f"{node.module}.{alias.name}") for alias in node.names)
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(tree)
    return found


def _offenders(path):
    return [f"{path.name}:{line}: {name}"
            for line, name in _module_level_imports(ast.parse(path.read_text(encoding="utf-8")))
            if name.split(".")[0] not in sys.stdlib_module_names and name not in ALLOWED]


def test_module_level_imports_are_the_standard_library_and_a_pinned_set():
    assert [p for p in _SRC.glob("*.py")], "no sources found"
    offenders = [o for path in sorted(_SRC.glob("*.py")) for o in _offenders(path)]
    assert offenders == []


def test_the_import_pin_sees_each_form(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(
        "import json\n"
        "import numpy as np\n"
        "from scipy import special\n"
        "from scipy.special import gammaln\n"
        "from . import fock\n"
        "import scipy.linalg\n"
        "from scipy import optimize\n"
        "try:\n    import mpmath\nexcept ImportError:\n    pass\n"
        "class A:\n    import pandas\n"
        "def f():\n    import scipy.stats\n"
    )
    assert _offenders(path) == ["mod.py:6: scipy.linalg", "mod.py:7: scipy.optimize",
                                "mod.py:9: mpmath", "mod.py:13: pandas"]


def _json_dump_calls(tree):
    """The enclosing function of every ``json.dump`` call and ``from json
    import dump``, in source order (None at module level)."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "dump" and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "json"):
            found.append(func)
        elif isinstance(node, ast.ImportFrom) and node.module == "json":
            found.extend(func for alias in node.names if alias.name == "dump")
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return found


def test_json_files_are_written_only_by_fock_written():
    calls = {path.name: _json_dump_calls(ast.parse(path.read_text(encoding="utf-8")))
             for path in sorted(_SRC.glob("*.py"))}
    assert {name: found for name, found in calls.items() if found} == {"fock.py": ["_written"]}


def test_the_json_dump_pin_sees_each_form():
    tree = ast.parse(
        "import json\n"
        "json.dump({}, None)\n"
        "def f(fh):\n    json.dumps({})\n    json.dump({}, fh, indent=1)\n"
        "class A:\n    def g(self):\n        from json import dump\n"
    )
    assert _json_dump_calls(tree) == [None, "f", "g"]


_POTENTIAL_KINDS = {"contact", "neighbor", "gaussian"}


def _potential_kind_names(tree):
    """Lines of the string constants that name a pair-potential kind; a
    docstring is never equal to a bare kind name."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and node.value in _POTENTIAL_KINDS]


def test_only_modes_names_the_potential_kinds():
    found = {path.name: _potential_kind_names(ast.parse(path.read_text(encoding="utf-8")))
             for path in sorted(_SRC.glob("*.py"))}
    assert [name for name, lines in found.items() if lines] == ["modes.py"]


def test_the_potential_kind_pin_sees_a_planted_dispatch():
    tree = ast.parse(
        '"""Dispatch on contact, neighbor or gaussian."""\n'
        "def parse(pot):\n"
        "    if pot['kind'] == 'gaussian':\n        return pot.get('sigma', 1.0)\n"
        "    elif pot['kind'] in ('contact', \"neighbor\"):\n        return None\n"
        "    return {'kind': 'yukawa'}\n"
    )
    assert _potential_kind_names(tree) == [3, 5, 5]

"""The imports that run when ``focklab`` is imported.

Most of a sweep's set-up time is ``import focklab``, and nearly all of that
is scipy.  Only the standard library and the packages below may be imported
at module level; heavier ones belong inside the function that needs them.
The mean-field integrator is focklab's own, so a sweep loads neither
scipy.integrate nor what it imports in turn (scipy.optimize, scipy.linalg,
scipy.sparse.linalg).  So are the Bessel series, the Poisson tail, the
log-factorials and zeta, so neither a sweep nor the quick invariant suite
loads scipy.special.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import focklab

_SRC = Path(focklab.__file__).parent
ALLOWED = {"numpy", "scipy.sparse"}


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


_RUNS = """
import sys
import focklab as fl
from focklab.cli import main


def unwanted():
    return sorted(m for m in sys.modules
                  if m.split(".")[:2] in (["scipy", "integrate"], ["scipy", "optimize"],
                                          ["scipy", "special"])
                  or m.split(".")[:3] == ["scipy", "sparse", "linalg"])


lattice = {"geometry": "lattice", "sites": 3, "potential": {"kind": "contact", "g": 1.0}}
phi = [[0.6, 0], [0.0, 0.8], [0, 0]]
fl.run_convergence_sweep(fl.ExperimentConfig.from_dict({
    "mode_system": lattice, "state": {"family": "theta", "phi": phi, "m": 1},
    "n_list": [3, 4, 5], "t_list": [0.5, 1.0]}))
fl.run_superposition_sweep(fl.ExperimentConfig.from_dict({
    "mode_system": lattice, "n_list": [2, 3], "t_list": [0.5],
    "state": {"family": "superposition", "kind": "coherent", "components": [
        {"phi": phi, "coeff": 1.0}, {"phi": [[0, 0], [0.6, 0], [0.8, 0]], "coeff": 1.0}]}}))
print(unwanted())
assert main(["check", "--level", "quick", "--out", sys.argv[1]]) == 0
print(unwanted())
"""


def test_sweeps_and_the_quick_suite_load_no_scipy_special_integrate_or_optimize(tmp_path):
    # nor scipy.sparse.linalg; the quick suite loads scipy.linalg for the
    # Weyl displacement block, inside ``fock._spectrum``
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(_SRC.parent)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", _RUNS, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    out = proc.stdout.splitlines()
    assert out[0] == "[]" and out[-1] == "[]"


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
    assert _offenders(path) == ["mod.py:3: scipy.special", "mod.py:4: scipy.special.gammaln",
                                "mod.py:6: scipy.linalg", "mod.py:7: scipy.optimize",
                                "mod.py:9: mpmath", "mod.py:13: pandas"]


def _module_calls(tree, module, name):
    """The enclosing function of every ``module.name`` call and ``from
    module import name``, in source order (None at module level)."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == name and isinstance(node.func.value, ast.Name)
                and node.func.value.id == module):
            found.append(func)
        elif isinstance(node, ast.ImportFrom) and node.module == module:
            found.extend(func for alias in node.names if alias.name == name)
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return found


def _callers(module, name):
    calls = {path.name: _module_calls(ast.parse(path.read_text(encoding="utf-8")), module, name)
             for path in sorted(_SRC.glob("*.py"))}
    return {name: found for name, found in calls.items() if found}


def test_json_files_are_written_only_by_fock_written():
    assert _callers("json", "dump") == {"fock.py": ["_written"]}


def test_the_json_dump_pin_sees_each_form():
    tree = ast.parse(
        "import json\n"
        "json.dump({}, None)\n"
        "def f(fh):\n    json.dumps({})\n    json.dump({}, fh, indent=1)\n"
        "class A:\n    def g(self):\n        from json import dump\n"
    )
    assert _module_calls(tree, "json", "dump") == [None, "f", "g"]


def test_csv_files_are_written_only_by_fock_written_csv():
    assert _callers("csv", "writer") == {"fock.py": ["_written_csv"]}


def test_the_csv_writer_pin_sees_each_form():
    tree = ast.parse(
        "import csv\n"
        "csv.writer(None)\n"
        "class Report:\n"
        "    def to_csv(self, fh):\n"
        "        csv.DictReader(fh)\n        w = csv.writer(fh, lineterminator='\\n')\n"
        "def g():\n    from csv import reader, writer\n"
    )
    assert _module_calls(tree, "csv", "writer") == [None, "to_csv", "g"]


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


_SECTOR_KINDS = {"fixed", "truncated"}
_LAYOUT_READERS = {"rank", "unrank", "sector_dimension", "index_of", "sector_slice",
                   "_ladder_target"}


def _names_a_kind(node):
    """A name ``kind`` or a ``sector[0]`` subscript (a kind's string constant
    is reported on its own)."""
    if isinstance(node, ast.Subscript):
        base = node.value
        return (isinstance(node.slice, ast.Constant) and node.slice.value == 0
                and "sector" in (getattr(base, "attr", None), getattr(base, "id", None)))
    return isinstance(node, ast.Name) and node.id == "kind"


def _sector_kind_sites(tree):
    """The enclosing function of every string constant that names a sector
    kind, and of every comparison with a kind in a function that reads the
    layout (marked "compares"), in source order (None at module level)."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Constant) and node.value in _SECTOR_KINDS:
            found.append(func)
        elif (func in _LAYOUT_READERS and isinstance(node, ast.Compare)
              and any(map(_names_a_kind, [node.left, *node.comparators]))):
            found.append(f"{func} compares")
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return found


def test_only_the_fock_layout_names_the_sector_kinds():
    found = {path.name: _sector_kind_sites(ast.parse(path.read_text(encoding="utf-8")))
             for path in sorted(_SRC.glob("*.py"))}
    assert {name: sites for name, sites in found.items() if sites} == {
        "fock.py": ["fixed", "truncated", "_layout", "_layout"]}


def test_the_sector_kind_pin_sees_a_planted_dispatch():
    tree = ast.parse(
        '"""Dispatch on fixed or truncated sectors."""\n'
        "def rank(basis, occs):\n"
        "    if basis.sector[0] == KIND:\n        return 0\n"
        "class FockBasis:\n"
        "    def sector_slice(self, n):\n"
        "        kind, cap = self.sector\n"
        "        return slice(0, cap) if kind != FIXED else slice(0, 1)\n"
        "def coherent_state(basis):\n"
        "    return basis.sector[0] in ('truncated', \"fixed\")\n"
        "KIND = 'truncated'\n"
    )
    assert _sector_kind_sites(tree) == ["rank compares", "sector_slice compares",
                                        "coherent_state", "coherent_state", None]


_LOOKUPS = {"index_of", "ndindex"}


def _reads_occs(node):
    """An ``occs`` attribute, or a subscript of one, such as ``basis.occs[i]``."""
    while isinstance(node, ast.Subscript):
        node = node.value
    return isinstance(node, ast.Attribute) and node.attr == "occs"


def _calls_to(tree, names):
    """Lines of every call to a function in ``names``, by name or as an
    attribute."""
    return sorted(node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
                  and (getattr(node.func, "id", None) in names
                       or getattr(node.func, "attr", None) in names))


def _occupation_lookups(tree):
    """Lines of every call to ``index_of`` or ``ndindex`` and of every
    comparison with an ``occs`` attribute, or a subscript of one, as an
    operand: the ways to find a state other than ``rank``."""
    return sorted(_calls_to(tree, _LOOKUPS) + [
        node.lineno for node in ast.walk(tree) if isinstance(node, ast.Compare)
        and any(map(_reads_occs, [node.left, *node.comparators]))])


def test_only_fock_finds_states_other_than_by_rank():
    found = {path.name: _occupation_lookups(ast.parse(path.read_text(encoding="utf-8")))
             for path in sorted(_SRC.glob("*.py")) if path.name != "fock.py"}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_the_rank_pin_sees_each_planted_lookup():
    tree = ast.parse(
        '"""Find states with index_of or ndindex, or by occs >= o."""\n'
        "from numpy import ndindex\n"
        "def scan(out, o, basis, v):\n"
        "    hit = np.all(out.occs >= o, axis=1)\n"
        "    same = o == basis.occs[3][1]\n"
        "    i = basis.index_of((1, 0))\n"
        "    cells = [v.coeffs[basis.index_of(occ)] for occ in ndindex(2, 2)]\n"
        "    for idx in np.ndindex(2, 2):\n"
        "        pass\n"
        "    occs = out.occs - o\n"
        "    return occs >= 0, v.occs_total > 0\n"
    )
    assert _occupation_lookups(tree) == [4, 5, 6, 7, 7, 8]


# the rules of a sweep cell's sector, which ``states._cell_sector`` owns
_CELL_RULES = {"fixed", "truncated", "_poisson_cutoff"}


def _cell_rule_uses(tree):
    """Lines of every call to a cell rule and of every string constant
    "coherent", the kind whose cells are truncated."""
    return sorted(_calls_to(tree, _CELL_RULES) + [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and node.value == "coherent"])


def test_the_harness_leaves_a_cells_sector_to_states():
    tree = ast.parse((_SRC / "harness.py").read_text(encoding="utf-8"))
    assert _cell_rule_uses(tree) == []


def test_the_cell_sector_pin_sees_each_planted_call():
    tree = ast.parse(
        '"""A cell on fixed(n), or truncated at _poisson_cutoff(n) if coherent."""\n'
        "from .fock import fixed\n"
        "def cell(kind, n):\n"
        "    if kind == 'coherent':\n"
        "        return fock.truncated(states._poisson_cutoff(n))\n"
        "    return fixed(n)\n"
        "rule = _poisson_cutoff\n"
        'ledger = {"coherent": 1} if kind in ("product", "coherent") else None\n'
    )
    assert _cell_rule_uses(tree) == [4, 5, 5, 6, 8, 8]


# the limits that ``tolerances.check_capacity`` and ``check_time_radius`` own
_LIMITS = {"DEFAULT_STATE_CAP", "MAX_TIME_RADIUS"}


def _limit_comparisons(tree):
    """Lines of every comparison with a limit, by name or as an attribute,
    as an operand."""
    return sorted(node.lineno for node in ast.walk(tree) if isinstance(node, ast.Compare)
                  for operand in [node.left, *node.comparators]
                  if getattr(operand, "id", getattr(operand, "attr", None)) in _LIMITS)


def test_only_tolerances_compares_against_a_limit():
    found = {path.name: _limit_comparisons(ast.parse(path.read_text(encoding="utf-8")))
             for path in sorted(_SRC.glob("*.py")) if path.name != "tolerances.py"}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_the_limit_pin_sees_each_planted_comparison():
    tree = ast.parse(
        '"""Refuse a basis above DEFAULT_STATE_CAP or a |t r| above MAX_TIME_RADIUS."""\n'
        "from .tolerances import DEFAULT_STATE_CAP, MAX_TIME_RADIUS\n"
        "def guard(dim, t, r, sites):\n"
        "    if dim > DEFAULT_STATE_CAP:\n        raise CapacityError(dim)\n"
        "    if not t * r <= tolerances.MAX_TIME_RADIUS:\n        raise CapacityError(t)\n"
        "    big = 0 < sites**2 <= DEFAULT_STATE_CAP < dim\n"
        "    return min(dim, DEFAULT_STATE_CAP), dim > CAP\n"
    )
    assert _limit_comparisons(tree) == [4, 6, 8]


def _unused_imports(source):
    """``line: name`` of every module-level import the module never reads;
    an import whose lines carry ``# noqa: F401`` is exempt."""
    tree, lines = ast.parse(source), source.splitlines()
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{node.lineno}: {name}" for node in tree.body
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and not any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno])
            for name in ((a.asname or a.name.split(".")[0]) for a in node.names)
            if name not in read]


def test_every_module_level_import_is_used():
    unused = {path.name: _unused_imports(path.read_text(encoding="utf-8"))
              for path in sorted(_SRC.glob("*.py")) if path.name != "__init__.py"}
    assert {name: found for name, found in unused.items() if found} == {}


def test_the_unused_import_pin_sees_a_planted_import():
    source = (
        "import os.path\n"
        "import numpy as np\n"
        "from math import comb, sqrt\n"
        "from .fock import (\n    rank,  # noqa: F401\n    unrank,\n)\n"
        "from .errors import SectorError\n"
        "def f(x):\n    import json\n    return np.sqrt(x) + sqrt(x) + os.sep\n"
    )
    assert _unused_imports(source) == ["3: comb", "8: SectorError"]


def _import_cycle(sources):
    """The modules of ``sources`` (name -> source) that lie on an import
    cycle or import, at any remove, one that does.  A module imports the
    ones its relative imports name, at any depth, so an import inside a
    function that dodges a cycle still closes it."""
    graph = {}
    for name, source in sources.items():
        found = set()
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                found.update([node.module] if node.module else [a.name for a in node.names])
        graph[name] = found & set(sources)
    while True:  # peel the modules whose imports are all peeled
        leaves = [name for name, found in graph.items() if not found & set(graph)]
        if not leaves:
            return sorted(graph)
        for name in leaves:
            del graph[name]


def test_the_modules_import_one_another_without_a_cycle():
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted(_SRC.glob("*.py")) if path.name != "__init__.py"}
    assert _import_cycle(sources) == []


def test_the_cycle_pin_sees_a_deferred_import():
    assert _import_cycle({
        "fock": "from .modes import ModeSystem\nfrom .errors import SectorError\n",
        "modes": "def lattice():\n    from .fock import DEFAULT_STATE_CAP\n",
        "errors": "from . import __version__\n",
        "harness": "from . import fock, errors\n",
    }) == ["fock", "harness", "modes"]

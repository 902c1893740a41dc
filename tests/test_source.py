"""Checks on the package source for breaks that running it here cannot show.

pyproject.toml declares numpy>=1.24, but the numpy.fft functions accept an
out= keyword only from NumPy 2.0: a call that passes it runs here and
raises TypeError under NumPy 1.x.

The command line sets the C allocator's policy of its own process (cli.py);
a library module that did so would change it in every program that imports
nnstokes.

Fields that meet in a call share one grid, a rule with one owner,
spectral._check_grid: no other code compares .grid attributes with == or
!=.

The power law has one owner, rheology: no other module compares a name
or attribute ending in delta with a number (the rule for when delta acts
as zero is rheology._acts_as_zero), and none calls expm1 or log1p (the
cancellation-free lifted power is rheology._lifted_power).

Every name a library module imports is used there; only the package's
__init__.py imports names to re-export them. Every private module-level
function, class or constant is read somewhere in the package: one that
only the tests read is dead code kept alive by its tests.
"""

import ast
import pathlib

import pytest

SOURCES = sorted((pathlib.Path(__file__).resolve().parent.parent / "src" / "nnstokes").glob("*.py"))
LIBRARY_SOURCES = [path for path in SOURCES if path.name != "cli.py"]


def fft_calls_with_out(source: str):
    """(line, callee) of every np.fft.* or numpy.fft.* call that passes out=."""
    return [(node.lineno, ast.unparse(node.func)) for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call)
            and ast.unparse(node.func).startswith(("np.fft.", "numpy.fft."))
            and any(kw.arg == "out" for kw in node.keywords)]


def test_sources_found():
    assert any(path.name == "spectral.py" for path in SOURCES)


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_fft_call_passes_out(path):
    assert fft_calls_with_out(path.read_text(encoding="utf-8")) == []


def test_guard_flags_an_fft_out():
    source = "np.fft.ifft(a, axis=0, out=b)\nnp.multiply(a, 0.5, out=c)\nnumpy.fft.rfft(a, out=d)\n"
    assert fft_calls_with_out(source) == [(1, "np.fft.ifft"), (3, "numpy.fft.rfft")]


def allocator_policy_uses(source: str):
    """(line, source) of every ctypes import and every use of the name
    mallopt, the ways a module could load libc and set its allocator."""
    def names(node):
        if isinstance(node, ast.Import):
            return [alias.name.split(".")[0] for alias in node.names]
        if isinstance(node, ast.ImportFrom):
            return [(node.module or "").split(".")[0]]
        if isinstance(node, ast.Name):
            return [node.id]
        if isinstance(node, ast.Attribute):
            return [node.attr]
        if isinstance(node, ast.Constant):
            return [node.value]
        return []

    return [(node.lineno, ast.unparse(node)) for node in ast.walk(ast.parse(source))
            if {"ctypes", "mallopt"} & set(names(node))]


@pytest.mark.parametrize("path", LIBRARY_SOURCES, ids=lambda path: path.name)
def test_library_leaves_the_allocator_alone(path):
    assert allocator_policy_uses(path.read_text(encoding="utf-8")) == []


def test_cli_sets_the_allocator_policy():
    cli = next(path for path in SOURCES if path.name == "cli.py")
    assert allocator_policy_uses(cli.read_text(encoding="utf-8")) != []


def test_guard_flags_an_allocator_policy():
    source = ("import ctypes.util\nfrom ctypes import CDLL\nlibc.mallopt(-2, 1)\n"
              "getattr(libc, 'mallopt')\nimportlib.import_module('ctypes')\n"
              "'prose naming mallopt'\n")
    assert sorted(allocator_policy_uses(source)) == [
        (1, "import ctypes.util"), (2, "from ctypes import CDLL"), (3, "libc.mallopt"),
        (4, "'mallopt'"), (5, "'ctypes'")]


def unused_imports(source: str):
    """(line, name) of every name a module-level import binds that the
    module never reads; `from __future__` imports bind no name."""
    tree = ast.parse(source)
    bound = [(node.lineno, alias.asname or alias.name.split(".")[0])
             for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
             and getattr(node, "module", None) != "__future__" for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in bound if name not in read]


@pytest.mark.parametrize("path", [path for path in SOURCES if path.name != "__init__.py"],
                         ids=lambda path: path.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_guard_flags_an_unused_import():
    source = ("from __future__ import annotations\nimport os\nimport numpy as np\n"
              "import os.path\nfrom .errors import BadValue, _field as field\n"
              "def f():\n    import math\n    return np.zeros(3)\n")
    assert unused_imports(source) == [(2, "os"), (4, "os"), (5, "BadValue"), (5, "field")]


def private_definitions(source: str):
    """(line, name) of every private name, _x but not __x__, that a
    module-level def, class or assignment binds."""
    def bound(node):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return [node.name]
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        return [leaf.id for target in targets for leaf in getattr(target, "elts", [target])
                if isinstance(leaf, ast.Name)]

    return [(node.lineno, name) for node in ast.parse(source).body for name in bound(node)
            if name.startswith("_") and not name.startswith("__")]


def names_read(source: str) -> set:
    """Every name the source reads, as a bare name or as an attribute."""
    return {node.id if isinstance(node, ast.Name) else node.attr for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}


def unused_private_names(sources: dict):
    """(module, line, name) of every private module-level name of the
    sources, a dict of module name to source, that none of them reads."""
    read = set().union(*(names_read(source) for source in sources.values()))
    return [(module, line, name) for module, source in sources.items()
            for line, name in private_definitions(source) if name not in read]


def test_every_private_name_is_read():
    sources = {path.name: path.read_text(encoding="utf-8") for path in SOURCES}
    assert sum(len(private_definitions(source)) for source in sources.values()) > 50
    assert unused_private_names(sources) == []


def test_guard_flags_an_unused_private_name():
    sources = {
        "a.py": ("_USED, _SPARE = 1, 2\n_TABLE: dict = {}\n__all__ = []\n"
                 "def _helper():\n    return _USED\nclass _Gone:\n    pass\n"
                 "def public():\n    def _inner():\n        pass\n    return _TABLE\n"),
        "b.py": "from .a import _helper\n_helper()\nimport a\na._Gone = None\n",
    }
    assert unused_private_names(sources) == [("a.py", 1, "_SPARE"), ("a.py", 6, "_Gone")]


def grid_comparisons(source: str):
    """(line, source) of every == or != comparison of a .grid attribute
    outside the body of a function named _check_grid."""
    tree = ast.parse(source)
    owner = {id(node) for fn in ast.walk(tree)
             if isinstance(fn, ast.FunctionDef) and fn.name == "_check_grid" for node in ast.walk(fn)}
    return [(node.lineno, ast.unparse(node)) for node in ast.walk(tree)
            if isinstance(node, ast.Compare) and id(node) not in owner
            and any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops)
            and any(isinstance(x, ast.Attribute) and x.attr == "grid"
                    for x in (node.left, *node.comparators))]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_grids_are_compared_by_one_helper(path):
    assert grid_comparisons(path.read_text(encoding="utf-8")) == []


def test_guard_flags_a_grid_comparison():
    source = ("def _check_grid(grid, fields):\n    return [f for f in fields if f.grid != grid]\n"
              "if rho.grid != u.grid:\n    pass\nsame = grid == u.grid\n"
              "ok = rho.grid is u.grid or rho.grid.d == 3 or a < b.grid\n")
    assert grid_comparisons(source) == [(3, "rho.grid != u.grid"), (5, "grid == u.grid")]


def power_law_evaluations(source: str):
    """(line, source) of every comparison of a name or attribute ending in
    delta with a number, and of every call of a function named expm1 or
    log1p."""
    def ends_in_delta(x):
        return (isinstance(x, ast.Name) and x.id.endswith("delta")
                or isinstance(x, ast.Attribute) and x.attr.endswith("delta"))

    def number(x):
        if isinstance(x, ast.UnaryOp) and isinstance(x.op, (ast.USub, ast.UAdd)):
            x = x.operand
        return (isinstance(x, ast.Constant) and isinstance(x.value, (int, float))
                and not isinstance(x.value, bool))

    def flagged(node):
        if isinstance(node, ast.Compare):
            operands = (node.left, *node.comparators)
            return any(map(ends_in_delta, operands)) and any(map(number, operands))
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            return name in ("expm1", "log1p")
        return False

    return [(node.lineno, ast.unparse(node)) for node in ast.walk(ast.parse(source)) if flagged(node)]


@pytest.mark.parametrize("path", [path for path in SOURCES if path.name != "rheology.py"],
                         ids=lambda path: path.name)
def test_power_law_is_evaluated_in_rheology(path):
    assert power_law_evaluations(path.read_text(encoding="utf-8")) == []


def test_rheology_owns_the_power_law():
    rheology = next(path for path in SOURCES if path.name == "rheology.py")
    assert power_law_evaluations(rheology.read_text(encoding="utf-8")) != []


def test_guard_flags_a_power_law_evaluation():
    source = ("if self.delta > 0:\n    pass\nsingular = p < 2 and params.delta == 0.0\n"
              "x = np.expm1(a) + log1p(b)\nok = delta * delta == 0 or -1 < ws.delta\n"
              "fine = delta_schedule == (1e-4,) or delta > eps or self.delta is None or p > 2\n"
              "flag = delta != True\n")
    assert power_law_evaluations(source) == [
        (1, "self.delta > 0"), (3, "params.delta == 0.0"), (4, "np.expm1(a)"), (4, "log1p(b)"),
        (5, "-1 < ws.delta")]

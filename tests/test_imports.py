"""Every module-level import in ``src/sepseg`` is used by its module,
every graph op in ``autograd`` has a caller in another module, every
defaulted parameter of a module-level function is passed by some call in
``src/sepseg`` and left out by another, and the package loads nothing
beyond numpy and the standard library.

No linter ships with the project, so this parses each module with ``ast``:
an imported name counts as used when the module reads it as a name or
lists it in ``__all__``; an op counts as called when another module
imports it from ``autograd``; a parameter counts as passed when a call of
a function of that name gives it by position or by keyword.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "sepseg"


def unused_imports(tree):
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted(f"line {line}: {name}" for name, line in bound.items() if name not in used)


def test_detects_an_unused_import():
    tree = ast.parse("import os\nfrom a import b, c as d\n__all__ = ['b']\n")
    assert unused_imports(tree) == ["line 1: os", "line 2: d"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_module_level_import(path):
    assert unused_imports(ast.parse(path.read_text())) == []


# graph ops that no other module imports, each kept for a stated reason
UNCALLED_OPS = {
    "im2col",  # a traced benchmark target until the benchmark drops it
    "matmul",  # the same
}


def uncalled_ops(autograd_tree, other_trees):
    """Functions of ``autograd`` that make graph nodes (call ``_make`` or
    another such function) and that no other module imports."""
    calls = {
        node.name: {n.func.id for n in ast.walk(node)
                    if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)}
        for node in autograd_tree.body if isinstance(node, ast.FunctionDef)
    }
    ops = {"_make"}
    while True:
        more = ops | {name for name, called in calls.items() if called & ops}
        if more == ops:
            break
        ops = more
    ops.discard("_make")
    imported = {
        alias.name for tree in other_trees for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "autograd"
        for alias in node.names
    }
    return ops - imported


def test_detects_an_uncalled_op():
    autograd = ast.parse(
        "def f(x):\n    return _make(x, (), None)\n"
        "def g(x):\n    return _make(x, (), None)\n"
        "def mean(x):\n    return f(x)\n"
        "def h():\n    pass\n"
    )
    other = ast.parse("from .autograd import f, h\n")
    assert uncalled_ops(autograd, [other]) == {"g", "mean"}


def test_every_graph_op_has_a_caller():
    others = [ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py")) if p.name != "autograd.py"]
    assert uncalled_ops(ast.parse((SRC / "autograd.py").read_text()), others) == UNCALLED_OPS


# defaulted parameters that no call in src/sepseg passes, each kept for a
# stated reason
UNPASSED_DEFAULTS = {
    ("cli", "main", "argv"),  # the entry point: the console script passes nothing
    ("autograd", "im2col", "stride"),  # a traced benchmark target until the benchmark drops it
    ("autograd", "im2col", "pad"),  # the same
    ("model", "build_model", "dtype"),  # the float64 model test builds one
}


def _passes(call, index, param):
    """Whether ``call`` gives ``param`` by keyword, or by position when
    ``param`` is the ``index``-th positional parameter (``index`` is None
    for a keyword-only one)."""
    if any(k.arg in (param, None) for k in call.keywords):
        return True
    return index is not None and (
        len(call.args) > index or any(isinstance(x, ast.Starred) for x in call.args))


def default_passes(trees):
    """``(module, function, parameter)`` -> whether each call in ``trees``
    (module name -> ast) passes it, for each defaulted parameter of a
    module-level function. Calls match functions by name alone; a ``*args``
    or ``**kwargs`` argument passes every positional or keyword parameter."""
    calls = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                calls.setdefault(name, []).append(node)
    passes = {}
    for module, tree in trees.items():
        for fn in tree.body:
            if not isinstance(fn, ast.FunctionDef):
                continue
            a = fn.args
            positional = [p.arg for p in a.posonlyargs + a.args]
            first = len(positional) - len(a.defaults)
            defaulted = [(i, p) for i, p in enumerate(positional) if i >= first]
            defaulted += [(None, p.arg) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
            for index, param in defaulted:
                passes[module, fn.name, param] = [
                    _passes(c, index, param) for c in calls.get(fn.name, [])]
    return passes


def unpassed_defaults(trees):
    """Defaulted parameters that no call passes."""
    return {key for key, passed in default_passes(trees).items() if not any(passed)}


def always_passed_defaults(trees):
    """Defaulted parameters that every call passes, so that only code
    outside ``trees`` can rely on the default."""
    return {key for key, passed in default_passes(trees).items() if passed and all(passed)}


def test_detects_an_unpassed_default():
    trees = {
        "a": ast.parse("def f(x, y=1, *, z=None, w=2):\n    pass\n"
                       "def g(p=0):\n    pass\n"
                       "def h(q=0, r=1):\n    pass\n"),
        "b": ast.parse("from .a import f, g\nf(1, 2)\nf(1, w=3)\nobj.g(*args)\nh(**kw)\n"),
    }
    assert unpassed_defaults(trees) == {("a", "f", "z")}


def test_detects_an_always_passed_default():
    trees = {
        "a": ast.parse("def f(x, y=1, *, z=None, w=2):\n    pass\n"
                       "def g(p=0):\n    pass\n"
                       "def h(q=0):\n    pass\n"),
        "b": ast.parse("from .a import f, g\nf(1, 2)\nf(1, 3, w=3)\ng()\n"),
    }
    assert always_passed_defaults(trees) == {("a", "f", "y")}


def _src_trees():
    return {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}


def test_every_defaulted_parameter_is_passed():
    assert unpassed_defaults(_src_trees()) == UNPASSED_DEFAULTS


def test_no_defaulted_parameter_is_always_passed():
    assert always_passed_defaults(_src_trees()) == set()


def test_cli_runs_without_scipy():
    code = (
        "import sys\n"
        "from sepseg.cli import main\n"
        "def scipy_modules():\n"
        "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "assert scipy_modules() == [], scipy_modules()\n"
        "assert main(['params', '--compare', '--base-depth', '8']) == 0\n"
        "assert scipy_modules() == [], scipy_modules()\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr

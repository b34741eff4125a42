"""Every module-level import in ``src/sepseg`` is used by its module,
every name a module's ``__all__`` lists is defined there, every graph op
in ``autograd`` has a caller in another module, every defaulted parameter
is passed by some call in ``src/sepseg`` and left out by another, no
required parameter is passed the same literal by every call, the count
of settable values stays within its bound, and the package loads nothing
beyond numpy and the standard library.

No linter ships with the project, so this parses each module with ``ast``:
an imported name counts as used when the module reads it as a name or
lists it in ``__all__``; an op counts as called when another module
imports it from ``autograd``; a parameter counts as passed when a call of
a function of that name gives it by position or by keyword. The
parameters are those of module-level functions, of methods (called by
their attribute name, ``self`` left out) and of class constructors (an
``__init__``, or the fields a dataclass constructor takes).
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
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | set(exported_names(tree))
    return sorted(f"line {line}: {name}" for name, line in bound.items() if name not in used)


def exported_names(tree):
    """The names a module lists in ``__all__``, else none."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return list(ast.literal_eval(node.value))
    return []


def foreign_exports(tree):
    """Names in ``__all__`` that the module does not define itself (by a
    ``def``, a ``class`` or an assignment): re-exports of an import."""
    defined = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined.update(t.id for t in targets if isinstance(t, ast.Name))
    return sorted(set(exported_names(tree)) - defined)


def test_detects_an_unused_import():
    tree = ast.parse("import os\nfrom a import b, c as d\n__all__ = ['b']\n")
    assert unused_imports(tree) == ["line 1: os", "line 2: d"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_module_level_import(path):
    assert unused_imports(ast.parse(path.read_text())) == []


def test_detects_a_foreign_export():
    tree = ast.parse("from a import b\ndef f():\n    pass\nclass C:\n    pass\n"
                     "D = 1\nE: int = 2\n__all__ = ['b', 'f', 'C', 'D', 'E']\n")
    assert foreign_exports(tree) == ["b"]


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"),
                         ids=lambda p: p.name)
def test_every_export_is_defined_by_its_module(path):
    # the package __init__ is exempt: re-exporting the modules' names is its job
    assert foreign_exports(ast.parse(path.read_text())) == []


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

# defaulted parameters that every call in src/sepseg passes, each kept for a
# stated reason
ALWAYS_PASSED_DEFAULTS = set()

# settable values in src/sepseg (see ``settable_values``); a change that adds
# one raises this bound and says why
SETTABLE_VALUES_BOUND = 56


def _field_keywords(node):
    """The keywords of a ``field(...)`` call, else an empty dict."""
    if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "field":
        return {k.arg: k.value for k in node.keywords}
    return {}


def _is_dataclass(cls):
    return any(getattr(d, "id", getattr(getattr(d, "func", None), "id", None)) == "dataclass"
               for d in cls.decorator_list)


def _function_params(fn, skip):
    """(index, name, defaulted) of each parameter after the first ``skip``
    positional ones; index is None for a keyword-only one."""
    a = fn.args
    positional = [p.arg for p in a.posonlyargs + a.args]
    first = len(positional) - len(a.defaults)
    params = [(i - skip, p, i >= first) for i, p in enumerate(positional) if i >= skip]
    params += [(None, p.arg, d is not None) for p, d in zip(a.kwonlyargs, a.kw_defaults)]
    return params


def _dataclass_params(cls):
    """(index, name, defaulted) of each field the constructor takes; a
    ``field(init=False)`` is state, not a parameter."""
    fields = [n for n in cls.body if isinstance(n, ast.AnnAssign) and isinstance(n.target, ast.Name)]
    fields = [f for f in fields if getattr(_field_keywords(f.value).get("init"), "value", True)]
    return [(i, f.target.id, f.value is not None) for i, f in enumerate(fields)]


def signatures(trees):
    """``(module, name, call name, params, is_dataclass)`` of each
    module-level function, each method (``Class.method``) and each class
    constructor (``Class``), with ``params`` as ``_function_params`` gives
    them."""
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                yield module, node.name, node.name, _function_params(node, 0), False
            if not isinstance(node, ast.ClassDef):
                continue
            if _is_dataclass(node):
                yield module, node.name, node.name, _dataclass_params(node), True
            for fn in node.body:
                if not isinstance(fn, ast.FunctionDef):
                    continue
                if fn.name == "__init__":
                    yield module, node.name, node.name, _function_params(fn, 1), False
                elif not fn.name.startswith("__"):
                    yield module, f"{node.name}.{fn.name}", fn.name, _function_params(fn, 1), False


def _calls(trees, set_by_keys):
    """Call nodes by the name they call. Besides the calls in ``trees``, a
    ``field(default_factory=X)`` counts as a call ``X()``, and each
    ``(Class, field)`` of ``set_by_keys`` as a call that passes the field
    by keyword, as a config key sets it."""
    calls = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                calls.setdefault(name, []).append(node)
                factory = _field_keywords(node).get("default_factory")
                if factory is not None:
                    calls.setdefault(getattr(factory, "id", None), []).append(ast.Call(factory, [], []))
    for cls, field in set_by_keys:
        calls.setdefault(cls, []).append(ast.Call(ast.Name(cls), [], [ast.keyword(field, ast.Name("value"))]))
    return calls


def _passes(call, index, param):
    """Whether ``call`` gives ``param`` by keyword, or by position when
    ``param`` is the ``index``-th positional parameter (``index`` is None
    for a keyword-only one)."""
    if any(k.arg in (param, None) for k in call.keywords):
        return True
    return index is not None and (
        len(call.args) > index or any(isinstance(x, ast.Starred) for x in call.args))


def default_passes(trees, set_by_keys=()):
    """``(module, name, parameter)`` -> whether each call in ``trees``
    (module name -> ast) passes it, for each defaulted parameter of
    ``signatures``. Calls match by name alone; a ``*args`` or ``**kwargs``
    argument passes every positional or keyword parameter."""
    calls = _calls(trees, set_by_keys)
    return {(module, name, param): [_passes(c, index, param) for c in calls.get(call_name, [])]
            for module, name, call_name, params, _ in signatures(trees)
            for index, param, defaulted in params if defaulted}


def unpassed_defaults(trees, set_by_keys=()):
    """Defaulted parameters that no call passes."""
    return {key for key, passed in default_passes(trees, set_by_keys).items() if not any(passed)}


def always_passed_defaults(trees, set_by_keys=()):
    """Defaulted parameters that every call passes, so that only code
    outside ``trees`` can rely on the default."""
    return {key for key, passed in default_passes(trees, set_by_keys).items()
            if passed and all(passed)}


def _literal(call, index, param):
    """``(type, value)`` of the literal that ``call`` passes for the
    parameter, or None when it passes something else."""
    arg = next((k.value for k in call.keywords if k.arg == param), None)
    if arg is None and index is not None and index < len(call.args):
        if not any(isinstance(x, ast.Starred) for x in call.args[: index + 1]):
            arg = call.args[index]
    return (type(arg.value), arg.value) if isinstance(arg, ast.Constant) else None


def constant_arguments(trees):
    """Required parameters that every call passes as one same literal, so
    that the parameter is a constant."""
    calls = _calls(trees, ())
    found = set()
    for module, name, call_name, params, _ in signatures(trees):
        for index, param, defaulted in params:
            literals = {_literal(c, index, param) for c in calls.get(call_name, [])}
            if not defaulted and len(literals) == 1 and None not in literals:
                found.add((module, name, param))
    return found


def settable_values(trees):
    """Defaulted parameters of functions and methods, plus every field that
    a dataclass constructor takes."""
    return sum(len(params) if is_dataclass else sum(d for _, _, d in params)
               for *_, params, is_dataclass in signatures(trees))


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


CLASS_TREES = {
    "a": ast.parse(
        "@dataclass\n"
        "class Spec:\n"
        "    width: int\n"
        "    depth: int = 1\n"
        "    table: dict = field(default_factory=dict)\n"
        "    count: int = field(default=0, init=False)\n"
        "@dataclass\n"
        "class Config:\n"
        "    spec: Spec = field(default_factory=Spec)\n"
        "class Gen:\n"
        "    def __init__(self, seed, stream=()):\n"
        "        pass\n"
        "    def draw(self, low, high=None, size=None):\n"
        "        pass\n"
        "    def __repr__(self, unused=0):\n"
        "        pass\n"
    ),
    "b": ast.parse("Spec(1, 2)\nGen(0)\ngen.draw(0, 1)\ngen.draw(0, high=2)\nConfig()\n"),
}


def test_detects_defaults_of_dataclasses_and_methods():
    # field(default_factory=Spec) is a call Spec() that leaves out every field
    assert unpassed_defaults(CLASS_TREES) == {
        ("a", "Spec", "table"), ("a", "Config", "spec"), ("a", "Gen", "stream"),
        ("a", "Gen.draw", "size")}
    assert always_passed_defaults(CLASS_TREES) == {("a", "Gen.draw", "high")}
    # a config key sets its field by keyword
    assert unpassed_defaults(CLASS_TREES, [("Spec", "table"), ("Config", "spec")]) == {
        ("a", "Gen", "stream"), ("a", "Gen.draw", "size")}


def test_detects_a_constant_argument():
    trees = {
        "a": ast.parse("def f(x, axis):\n    pass\n"
                       "def g(x, r):\n    pass\n"
                       "def h(x, y, z=2):\n    pass\n"
                       "def u(v):\n    pass\n"
                       "class K:\n    def m(self, n):\n        pass\n"),
        "b": ast.parse("f(a, axis=1)\nf(b, 1)\ng(a, 1)\ng(b, True)\n"
                       "h(1, 's', 2)\nh(2, 's', 2)\nu(*args)\nk.m(4)\n"),
    }
    assert constant_arguments(trees) == {("a", "f", "axis"), ("a", "h", "y"), ("a", "K.m", "n")}


def test_counts_settable_values():
    # Spec's three constructor fields, Config's one, and Gen's stream, high
    # and size; neither an init=False field nor __repr__'s default counts
    assert settable_values(CLASS_TREES) == 7


def _src_trees():
    return {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}


def _src_keys():
    """(section class, field) of every config key."""
    from sepseg.config import KEYS, SECTIONS

    return [(SECTIONS[section].__name__, name) for section, name in KEYS.values()]


def test_every_defaulted_parameter_is_passed():
    assert unpassed_defaults(_src_trees(), _src_keys()) == UNPASSED_DEFAULTS


def test_no_defaulted_parameter_is_always_passed():
    assert always_passed_defaults(_src_trees(), _src_keys()) == ALWAYS_PASSED_DEFAULTS


def test_no_required_parameter_is_always_one_literal():
    assert constant_arguments(_src_trees()) == set()


def test_settable_values_within_bound():
    assert settable_values(_src_trees()) <= SETTABLE_VALUES_BOUND


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

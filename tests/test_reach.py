"""Every statement in a function body of the package runs in a sweep of
every command, or is on ``ALLOWED`` with its reason.

The sweep runs each command in this process through ``cli.main``: train,
infer and eval of both variants on phantoms and on a small NIfTI
directory, with augmentation on and off, eval with and without ``--csv``
and ``--lesion-class``, the three ``params`` forms and ``gradcheck
model``. A ``sys.settrace`` tracer records the line events of frames whose
code lives in the package. A statement is reached when a line it spans has
an event. ``raise`` statements are exempt, and so are ``global`` and
``nonlocal``, which run no code.

Where a valid input reaches a statement, the sweep holds that input: a seed
whose first steps clip the gradient norm, a NIfTI with ``scl_slope`` 0, a
constant slice, a lesion smaller than the resize grid (a validation split
with no lesion slice), a checkpoint that predicts background everywhere
(two empty masks to score), a lesion class below the last. ``ALLOWED``
keys a statement by its function and its first source line, not by line
number, so an unrelated edit does not move it, and files each one under
its reason.
"""

import ast
import contextlib
import io
import os
import sys

import numpy as np

import sepseg
from sepseg.autograd import Rng
from sepseg.cli import main
from sepseg.config import load_config
from sepseg.data import save_checkpoint
from sepseg.model import build_model

from conftest import make_nifti

PACKAGE = os.path.dirname(sepseg.__file__)

# reason -> (module, function) -> first lines of the statements allowed there
ALLOWED = {
    "error path": {  # only malformed input or a failed check takes it
        ("cli", "main"): [
            'print(f"config error: {exc}", file=sys.stderr)', "return EXIT_CONFIG",
            'print(f"data error: {exc}", file=sys.stderr)', "return EXIT_DATA",
            'print(f"numeric abort: {exc}", file=sys.stderr)', "return EXIT_NUMERIC",
            'print(f"checkpoint mismatch: {exc}", file=sys.stderr)', "return EXIT_MISMATCH",
        ],
        ("cli", "cmd_gradcheck"): [
            'failed = f"{name}[{wrt}]"', 'print(f"gradient check failed for {failed}")',
            "return EXIT_GRADCHECK",
        ],
        ("config", "_build"): [
            "lines = sorted((n, key, name, value) for name, (n, key, value) in settings.items())",
            "n, key, _, _ = next((s for s in lines if _rejects(cls, **{s[2]: s[3]})), lines[-1])",
        ],
        ("config", "_rejects"): ["try:", "cls(**values)", "return True", "return False"],
    },
    "benchmark pin": {  # perfbench reads it; no command does
        # the tracer's view of a node
        ("autograd", "Tensor._parents"): ["return () if self.node is None else self.node._parents"],
        ("autograd", "Tensor._backward"): [
            "return None if self.node is None else self.node._backward",
            "self.node._backward = fn",
        ],
        # the cost model's padding of a conv
        ("layers", "Conv2dParams.pad"): ["return (self.weight.shape[2] - 1) // 2"],
    },
    "valid-input edge": {  # valid input reaches it, but no command input can
        # a rotation by an exact multiple of 90 degrees, which the drawn angle never is
        ("preprocess", "rotate_pair"): ["c = 0.0", "s = 0.0"],
        # a root that needs no gradient, and a node that a later parent's
        # ancestors reach first: no model's loss makes either
        ("autograd", "backward"): ["return", "continue"],
    },
}


def allowed(table):
    """The ``(module, function, text)`` keys of an allow-list laid out as ``ALLOWED``."""
    return {(module, function, text) for by_function in table.values()
            for (module, function), texts in by_function.items() for text in texts}


def statements(source):
    """``(function, text, lines)`` of each statement in a function body,
    except ``raise``, ``global``, ``nonlocal`` and docstrings. ``function``
    is the dotted name of the innermost enclosing function (``Class.method``,
    ``outer.inner``), ``text`` the statement's first source line from its
    first column, stripped, and ``lines`` the range of lines the statement
    spans. A compound statement's range holds its body, so it counts as
    reached when any of it ran; each statement of the body counts on its own."""
    skip = (ast.Raise, ast.Global, ast.Nonlocal)
    scopes = (ast.FunctionDef, ast.ClassDef)
    source_lines = source.encode().split(b"\n")  # col_offset counts UTF-8 bytes

    def visit(node, scope, in_function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.stmt) and in_function and not isinstance(child, skip):
                docstring = isinstance(child, ast.Expr) and isinstance(child.value, ast.Constant)
                if not docstring:
                    text = source_lines[child.lineno - 1][child.col_offset:].decode().strip()
                    yield ".".join(scope), text, range(child.lineno, child.end_lineno + 1)
            if isinstance(child, scopes):
                yield from visit(child, scope + (child.name,), not isinstance(child, ast.ClassDef))
            else:
                yield from visit(child, scope, in_function)

    yield from visit(ast.parse(source), (), False)


def unreached(sources, executed):
    """``(module, function, text)`` of each statement of ``sources``
    (module -> (path, source)) with no line in ``executed``, a set of
    ``(path, line)``."""
    return {(module, function, text)
            for module, (path, source) in sources.items()
            for function, text, lines in statements(source)
            if not any((path, line) in executed for line in lines)}


def executed_lines(root, fn):
    """``(path, line)`` of each line event in code under the directory
    ``root`` while ``fn()`` runs."""
    prefix, seen = os.path.join(root, ""), set()

    def local(frame, event, arg):
        if event == "line":
            seen.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def calls(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    previous = sys.gettrace()
    sys.settrace(calls)
    try:
        fn()
    finally:
        sys.settrace(previous)
    return seen


def _package_sources():
    paths = sorted(os.path.join(PACKAGE, f) for f in os.listdir(PACKAGE) if f.endswith(".py"))
    return {os.path.basename(p)[:-3]: (p, open(p).read()) for p in paths}


SCRATCH_MODULE = """\
def command(x):
    \"\"\"Returns x + 1.\"\"\"
    global calls
    if x < 0:
        raise ValueError(x)
    if x > 100:
        return 0
    return step(x)


def step(x):
    return x + 1


def helper(x):
    y = 2 * x
    return y
"""


def test_detects_an_unreached_helper(tmp_path):
    path = tmp_path / "scratch.py"
    path.write_text(SCRATCH_MODULE)
    namespace = {}
    exec(compile(SCRATCH_MODULE, str(path), "exec"), namespace)  # runs no function body
    executed = executed_lines(str(tmp_path), lambda: namespace["command"](1))
    missed = unreached({"scratch": (str(path), SCRATCH_MODULE)}, executed)
    table = {"valid-input edge": {("scratch", "command"): ["return 0"]}}
    assert missed - allowed(table) == {("scratch", "helper", "y = 2 * x"),
                                       ("scratch", "helper", "return y")}


# the proposed network, augmented, on NIfTI slices already at its 32 x 32
# input size; at seed 2 its steps on phantoms clip the gradient norm (6.5,
# 5.1 and 5.5 against 5), and the parser skips the comment line
PROPOSED_CONFIG = """\
# proposed network, augmented
model.base-depth = 4
train.iterations = 3
train.batch-size = 2
train.eval-every = 2
train.augment = true
data.resize = 32
seed = 2
folds = 2
"""

# the U-net, not augmented, resizing NIfTI slices to 16 x 16; fold 0 of
# seed 0 validates on volume b, whose one lesion pixel the resize drops
UNET_CONFIG = """\
model.variant = baseline-unet
model.base-depth = 4
train.iterations = 2
train.batch-size = 2
train.augment = false
data.resize = 16
folds = 2
"""


def _nifti_directory(path):
    """Two 5-slice 32 x 32 volumes, lesions on slices 1 to 3: volume a
    stores ``scl_slope`` 0 (read as 1), volume b has a constant slice 0 and
    a lesion of one pixel at (0, 0), off the 16 x 16 resize grid."""
    path.mkdir()
    rng = np.random.default_rng(0)
    for vid in ("a", "b"):
        hu = rng.integers(-200, 300, (5, 32, 32))
        mask = np.zeros((5, 32, 32))
        if vid == "a":
            mask[1:4, 8:20, 10:24] = 1
        else:
            hu[0] = -1000
            mask[1:4, 0, 0] = 1
        make_nifti(str(path / f"volume-{vid}.nii"), hu, slope=0.0 if vid == "a" else 1.0)
        make_nifti(str(path / f"segmentation-{vid}.nii"), mask)
    return str(path)


def _blank_checkpoint(path, config):
    """A checkpoint of ``config``'s model whose head predicts background
    everywhere: zero weights, bias 1 on class 0."""
    model = build_model(load_config(config).model, Rng(0, 0))
    model.head.weight.data[...] = 0
    model.head.bias.data[...] = np.eye(len(model.head.bias.data))[0]
    save_checkpoint(model.named_parameters(), path)
    return str(path)


def _sweep_commands(tmp_path):
    """The argument lists of the sweep, in order."""
    data = _nifti_directory(tmp_path / "nifti")
    commands = []
    for variant, text in (("proposed", PROPOSED_CONFIG), ("unet", UNET_CONFIG)):
        config = tmp_path / f"{variant}.cfg"
        config.write_text(text)
        for source, image in (("phantoms:8x32", "phantoms:2x32"), (data, f"{data}/volume-a.nii")):
            out = tmp_path / f"{variant}-{'nifti' if source == data else 'phantoms'}"
            common = ["--config", str(config), "--checkpoint", str(out / "best.ckpt")]
            commands += [["train", "--config", str(config), "--data", source, "--out", str(out)],
                         ["infer", *common, "--input", image, "--out", str(out / "masks")],
                         ["eval", *common, "--data", source]]
    unet = str(tmp_path / "unet.cfg")
    commands += [
        # class 0 has a class above it
        ["infer", "--config", unet, "--checkpoint", str(tmp_path / "unet-nifti" / "final.ckpt"),
         "--input", "phantoms:1x32", "--out", str(tmp_path / "background"), "--lesion-class", "0"],
        ["eval", "--config", unet, "--checkpoint", str(tmp_path / "unet-nifti" / "final.ckpt"),
         "--data", data, "--lesion-class", "1", "--csv", str(tmp_path / "scores.csv")],
        ["eval", "--config", unet, "--checkpoint", _blank_checkpoint(tmp_path / "blank.ckpt", unet),
         "--data", data],
        ["params", "--base-depth", "4"],
        ["params", "--compare", "--base-depth", "4"],
        ["params", "--csv", "--variant", "baseline-unet", "--base-depth", "4"],
        ["gradcheck", "model"],
    ]
    return commands


def _run(commands):
    for argv in commands:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0, argv


def test_every_statement_is_reached_or_allowed(tmp_path):
    assert ALLOWED.keys() == {"error path", "benchmark pin", "valid-input edge"}
    commands = _sweep_commands(tmp_path)
    missed = unreached(_package_sources(), executed_lines(PACKAGE, lambda: _run(commands)))
    assert missed - allowed(ALLOWED) == set(), "unreached and not allowed"
    assert allowed(ALLOWED) - missed == set(), "allowed but reached, or gone"

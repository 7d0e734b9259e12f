"""src/blowlab carries no dead names.

Every module-level import is used (names in __all__ count as used), every
module-level function, class and method is read somewhere in the package,
except the oracles that only tests call, which are listed by name, and every
optional parameter is set by some call in the package, except a named few.
"""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "blowlab"


def unused_imports(source: str) -> list[str]:
    """Names bound by top-level imports of source that it never reads or exports."""
    tree = ast.parse(source)
    bound = []
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return [name for name in bound if name not in used]


def test_checker_finds_unused_and_honours_all():
    src = "import os\nimport os.path as osp\nfrom a import b, c\n__all__ = ['c']\nos.sep\n"
    assert unused_imports(src) == ["osp", "b"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []


def unread_definitions(sources: dict) -> list[str]:
    """module.name (module.Class.method for a method) of each module-level function or
    class, and each method, whose name no ast.Name or ast.Attribute of sources
    ({module: source}) reads; dunder methods are called implicitly and never count."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    defs = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            defs.append((node.name, f"{module}.{node.name}"))
            if isinstance(node, ast.ClassDef):
                defs += [(m.name, f"{module}.{node.name}.{m.name}") for m in node.body
                         if isinstance(m, ast.FunctionDef)]
    return sorted(dotted for name, dotted in defs
                  if name not in read and not (name.startswith("__") and name.endswith("__")))


# Called only by tests, on purpose: independent oracles and references.
TEST_ONLY = [
    # replay of one physical step, the cross-check of the in-place loop
    "solver.step_physical",
    # exact spatially constant solution, the physical run's oracle
    "params.exact_constant_solution",
    # the one-x final-profile read: test_8 and perfbench's FIT group call it
    "diagnostics.extract_final_profile",
    # the t0-curve ODE pair and its root finder: test_8_final_profile's reference
    "params.hat_uv",
    "params.bisect_root",
    # Hermite polynomials, their norms and the plain trapezoid rule: the
    # independent oracles of the Gaussian-moment routine
    "spectral.hermite",
    "spectral.norm_h_beta_sq",
    "spectral.integrate",
]


def test_definition_checker_finds_unread_names():
    sources = {
        "a": "def used(): pass\ndef dead(): pass\nclass C:\n"
             "    def __init__(self): pass\n    def m(self): pass\n    def n(self): pass\n",
        "b": "from .a import used\nused()\nC().m()\ndead = 1\n",
    }
    # an assignment to a name is no read of it
    assert unread_definitions(sources) == ["a.C.n", "a.dead"]


def test_no_test_only_code_outside_the_oracle_list():
    sources = {path.stem: path.read_text() for path in SRC.glob("*.py")}
    assert unread_definitions(sources) == sorted(TEST_ONLY)


def unset_options(sources: dict, skip=()) -> list[str]:
    """module.function(parameter) of each optional parameter in sources ({module:
    source}) that no call in sources sets; functions named in skip are left out.

    Calls are matched to functions by name (a class call to its __init__).  A
    call sets a parameter by keyword, by position (self or cls skipped for a
    method) or, for all of them, through a * or ** splat.
    """
    trees = {module: ast.parse(source) for module, source in sources.items()}
    defs = []  # (function node, dotted name, name its calls use, is a method)

    def visit(node, prefix, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}.{child.name}", child.name)
            elif isinstance(child, ast.FunctionDef):
                called = cls if cls and child.name == "__init__" else child.name
                defs.append((child, f"{prefix}.{child.name}", called, cls is not None))
                visit(child, f"{prefix}.{child.name}", None)
            else:
                visit(child, prefix, cls)

    for module, tree in trees.items():
        visit(tree, module, None)
    calls = [node for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, ast.Call)]
    unset = []
    for fn, dotted, called, method in defs:
        args = fn.args
        positional = [a.arg for a in args.posonlyargs + args.args]
        optional = positional[len(positional) - len(args.defaults):] + [
            a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
        if dotted in skip or not optional:
            continue
        if method and not any(isinstance(d, ast.Name) and d.id == "staticmethod"
                              for d in fn.decorator_list):
            positional = positional[1:]
        given = set()
        for call in calls:
            func = call.func
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            if name != called:
                continue
            if (any(k.arg is None for k in call.keywords)
                    or any(isinstance(a, ast.Starred) for a in call.args)):
                given.update(optional)
            given.update(k.arg for k in call.keywords)
            given.update(positional[: len(call.args)])
        unset += [f"{dotted}({name})" for name in optional if name not in given]
    return sorted(unset)


def test_option_checker_finds_unset_parameters():
    sources = {
        "a": "def f(x, y=1, *, z=2): pass\ndef g(x=0, y=0): pass\ndef h(u=0): pass\n"
             "class C:\n    def __init__(self, k=0): pass\n    def m(self, v=0): pass\n",
        "b": "f(0, 1)\ng(*xs)\nh(**kw)\nC(k=1).m(2)\n",
    }
    # a keyword, a position (self skipped) and either splat set parameters
    assert unset_options(sources) == ["a.f(z)"]
    assert unset_options(sources, skip=["a.f"]) == []


# Optional parameters that no src/ call sets, on purpose.
OPTIONS_SET_OUTSIDE = [
    # the command line; the console script reads sys.argv
    "cli.main(argv)",
    # the progress hook of a similarity run, for a progress stream to use
    "solver.evolve(observer)",
    # where a physical run stops; tests end short runs with it
    "solver.run_physical_blowup(stop_max)",
    # the z-window and sample count of R22's refit
    "verifier.fit_r22_constants(n_samples)",
    "verifier.fit_r22_constants(z_hi)",
    "verifier.fit_r22_constants(z_lo)",
]


def test_no_option_only_tests_set():
    sources = {path.stem: path.read_text() for path in SRC.glob("*.py")}
    assert unset_options(sources, skip=TEST_ONLY) == sorted(OPTIONS_SET_OUTSIDE)


def test_package_loads_neither_scipy_integrate_nor_interpolate():
    # both pull in scipy.special and scipy.optimize, about 0.4 s of every
    # run's start-up on a 2-CPU host; a fresh interpreter shows what loads
    code = ("import sys, blowlab.cli, blowlab.verifier\n"
            "print(sorted(m for m in ('scipy.integrate', 'scipy.interpolate')"
            " if m in sys.modules))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"

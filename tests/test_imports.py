"""src/blowlab carries no dead names.

Every module-level import is used (names in __all__ count as used), every
module-level function, class and method is read somewhere in the package,
except the oracles that only tests call, which are listed by name, and every
optional parameter and dataclass field with a default is set somewhere in the
package, except a named few.
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


def _name(node):
    """The name a Name or Attribute node ends in (the called name of a call's func)."""
    return getattr(node, "id", None) or getattr(node, "attr", None)


def unset_options(sources: dict, skip=()) -> list[str]:
    """module.function(parameter) of each optional parameter, and module.Class(field)
    of each dataclass field with a default, in sources ({module: source}) that
    nothing in sources sets; functions and classes named in skip are left out.

    Calls are matched to functions by name (a class call to its __init__, or to
    a dataclass's fields in order).  A call sets a parameter by keyword, by
    position (self or cls skipped for a method) or, for all of them, through a
    * or ** splat.  A dataclass field is also set by a keyword of a replace
    call or by a store to an attribute of its name.  A field whose value is a
    field() call has a default only when it passes default=.
    """
    trees = {module: ast.parse(source) for module, source in sources.items()}
    # (dotted name, name its calls use, positional names, optional names, is a dataclass)
    defs = []

    def has_default(value):
        if isinstance(value, ast.Call) and _name(value.func) == "field":
            return any(k.arg == "default" for k in value.keywords)
        return value is not None

    def visit(node, prefix, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                if any(_name(getattr(d, "func", d)) == "dataclass" for d in child.decorator_list):
                    fields = [(f.target.id, f.value) for f in child.body
                              if isinstance(f, ast.AnnAssign) and isinstance(f.target, ast.Name)]
                    defs.append((f"{prefix}.{child.name}", child.name, [n for n, _ in fields],
                                 [n for n, v in fields if has_default(v)], True))
                visit(child, f"{prefix}.{child.name}", child.name)
            elif isinstance(child, ast.FunctionDef):
                args = child.args
                positional = [a.arg for a in args.posonlyargs + args.args]
                optional = positional[len(positional) - len(args.defaults):] + [
                    a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
                if cls and not any(_name(d) == "staticmethod" for d in child.decorator_list):
                    positional = positional[1:]
                called = cls if cls and child.name == "__init__" else child.name
                defs.append((f"{prefix}.{child.name}", called, positional, optional, False))
                visit(child, f"{prefix}.{child.name}", None)
            else:
                visit(child, prefix, cls)

    for module, tree in trees.items():
        visit(tree, module, None)
    nodes = [node for tree in trees.values() for node in ast.walk(tree)]
    calls = [node for node in nodes if isinstance(node, ast.Call)]
    # what sets a dataclass field besides a call to its class
    stored = {node.attr for node in nodes
              if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)}
    stored |= {k.arg for call in calls if _name(call.func) == "replace" for k in call.keywords}
    unset = []
    for dotted, called, positional, optional, dataclass in defs:
        if dotted in skip or not optional:
            continue
        given = stored.copy() if dataclass else set()
        for call in calls:
            if _name(call.func) != called:
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


def test_option_checker_finds_unset_dataclass_fields():
    sources = {
        "a": "@dataclass(frozen=True)\nclass D:\n    x: int\n    y: int = 0\n"
             "    z: list = field(default_factory=list)\n    u: int = field(default=1)\n"
             "    v: int = 2\n    w: int = 3\n    t: int = 4\n"
             "@dataclasses.dataclass\nclass E:\n    k: int = 0\n",
        "b": "D(0, 1)\ndataclasses.replace(d, v=5)\nd.w = 6\n",
    }
    # a position, a replace keyword and an attribute store set fields; a
    # default_factory is no default
    assert unset_options(sources) == ["a.D(t)", "a.D(u)", "a.E(k)"]
    assert unset_options({**sources, "c": "D(**kw)\n"}) == ["a.E(k)"]


# Optional parameters and dataclass fields that no src/ code sets, on purpose.
OPTIONS_SET_OUTSIDE = [
    # the command line; the console script reads sys.argv
    "cli.main(argv)",
    # the progress hook of a similarity run, for a progress stream to use
    "solver.evolve(observer)",
]
FIELDS_SET_OUTSIDE = [
    # the boundary the exact-symmetry and fixed-point tests step with
    "solver.SolverConfig(boundary)",
    # views of the field for tests; perfbench reads Trajectory.snapshots
    "solver.SolverConfig(snapshot_at)",
]


def test_no_option_only_tests_set():
    sources = {path.stem: path.read_text() for path in SRC.glob("*.py")}
    assert unset_options(sources, skip=TEST_ONLY) == sorted(
        OPTIONS_SET_OUTSIDE + FIELDS_SET_OUTSIDE)


def test_package_loads_no_scipy_linalg_integrate_or_interpolate():
    # the package init of scipy.linalg clones the numpy namespace (numpy.f2py,
    # numpy.testing, numpy.ma, numpy.random, ...), about 0.3 s and 18 MiB of
    # every run's start-up on a 2-CPU host, so the package loads only scipy's
    # LAPACK extension (spectral.lapack); scipy.integrate and scipy.interpolate
    # pull in scipy.special and scipy.optimize, about 0.4 s more.  A fresh
    # interpreter shows what loads
    code = ("import sys, blowlab.cli, blowlab.verifier\n"
            "print(sorted(m for m in ('scipy.linalg', 'scipy.integrate', 'scipy.interpolate')"
            " if m in sys.modules))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"


def test_lapack_routines_are_scipys_own():
    # Python keeps one copy of a single-phase extension per path and name, so
    # the routines the package loads are the objects scipy.linalg.lapack
    # exports; if a scipy release breaks that, this fails before any answer moves
    from scipy.linalg import lapack

    from blowlab import spectral

    assert spectral.lapack.dgttrf is lapack.dgttrf
    assert spectral.lapack.zgttrs is lapack.zgttrs


def test_missing_lapack_extension_names_the_path(monkeypatch):
    import sysconfig

    from blowlab import spectral

    monkeypatch.setattr(sysconfig, "get_config_var", lambda name: ".missing.so")
    with pytest.raises(ImportError, match=r"_flapack\.missing\.so"):
        spectral._load_flapack()

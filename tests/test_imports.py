"""src/blowlab carries no dead names.

Every module-level import is used (names in __all__ count as used), every
local name a function assigns and every parameter it takes is read in it, every
module-level function, class and method is read somewhere in the package,
except the oracles that only tests call, which are listed by name, and every
optional parameter and dataclass field with a default is set somewhere in the
package, except a named few, and every dataclass field is read somewhere in
the package or its tests.
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


def unread_locals(source: str) -> list[str]:
    """function:name of each name a function of source (a module-level one or a
    method, nested functions included) assigns and never reads; names starting
    with _ are exempt, and an augmented assignment reads its target."""
    tree = ast.parse(source)
    units = [(node.name, node) for node in tree.body if isinstance(node, ast.FunctionDef)]
    units += [(f"{cls.name}.{node.name}", node) for cls in tree.body
              if isinstance(cls, ast.ClassDef) for node in cls.body
              if isinstance(node, ast.FunctionDef)]
    unread = []
    for qualname, func in units:
        stored, read = {}, set()
        for node in ast.walk(func):
            if isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name):
                read.add(node.target.id)
            elif isinstance(node, (ast.Global, ast.Nonlocal)):
                read.update(node.names)
            elif isinstance(node, ast.Name):
                if isinstance(node.ctx, ast.Store):
                    stored.setdefault(node.id, node.lineno)
                else:
                    read.add(node.id)
        unread += [(line, f"{qualname}:{name}") for name, line in stored.items()
                   if name not in read and not name.startswith("_")]
    return [name for _, name in sorted(unread)]


def test_local_checker_finds_unread_names():
    src = ("def f(x):\n    a, b = x\n    _c = 1\n    d = 2\n    d += 1\n    return a\n"
           "class C:\n    def m(self):\n        e = 1\n        def g():\n"
           "            nonlocal e\n            e = 2\n            k = 3\n        return g\n")
    # b and k are never read; _c is exempt, d is read by its += and e by g's nonlocal
    assert unread_locals(src) == ["f:b", "C.m:k"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unread_local_names(path):
    assert unread_locals(path.read_text()) == []


def unread_parameters(source: str) -> list[str]:
    """function(parameter) of each parameter that a function of source (a
    module-level one, a method, a nested function or a lambda) never reads in
    its body; dunder methods and parameters starting with _ are exempt."""
    unread = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
                continue
            if not isinstance(child, (ast.FunctionDef, ast.Lambda)):
                visit(child, prefix)
                continue
            name = getattr(child, "name", "<lambda>")
            if not (name.startswith("__") and name.endswith("__")):
                args = child.args
                params = [(a.arg, a.arg) for a in args.posonlyargs + args.args + args.kwonlyargs]
                params += [(f"*{a.arg}", a.arg) for a in (args.vararg,) if a]
                params += [(f"**{a.arg}", a.arg) for a in (args.kwarg,) if a]
                body = [child.body] if isinstance(child, ast.Lambda) else child.body
                read = {n.id for stmt in body for n in ast.walk(stmt)
                        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
                unread.extend(f"{prefix}{name}({shown})" for shown, arg in params
                              if arg not in read and not arg.startswith("_"))
            visit(child, f"{prefix}{name}.")

    visit(ast.parse(source), "")
    return unread


def test_parameter_checker_finds_unread_parameters():
    src = ("def f(x, y, *a, _z=0, **k):\n    return x + k['v']\n"
           "class C:\n    def __exit__(self, *exc): pass\n"
           "    def m(self, u):\n        g = lambda v, w: v\n"
           "        def h(t):\n            return u\n        return self, g, h\n")
    # y, *a, the lambda's w and h's t are never read; _z and __exit__ are exempt,
    # and m's u is read by its nested h
    assert unread_parameters(src) == ["f(y)", "f(*a)", "C.m.<lambda>(w)", "C.m.h(t)"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unread_parameters(path):
    assert unread_parameters(path.read_text()) == []


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


def unread_fields(sources: dict, readers=()) -> list[str]:
    """module.Class.field of each field of a dataclass in sources ({module:
    source}) whose name no attribute read in sources or readers (more
    sources) loads; an augmented assignment reads its target."""
    fields, read = [], set()
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ClassDef) and any(
                    _name(getattr(d, "func", d)) == "dataclass" for d in node.decorator_list):
                fields += [(f.target.id, f"{module}.{node.name}.{f.target.id}")
                           for f in node.body
                           if isinstance(f, ast.AnnAssign) and isinstance(f.target, ast.Name)]
    for source in [*sources.values(), *readers]:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Attribute):
                read.add(node.target.attr)
    return sorted(dotted for name, dotted in fields if name not in read)


def test_field_checker_finds_unread_fields():
    sources = {
        "a": "@dataclass\nclass D:\n    x: int\n    y: int = 0\n    z: int = 0\n"
             "    u: int = 0\nclass P:\n    k: int\n",
        "b": "d = D(1, y=2)\nd.x\nd.z = 3\nd.u += 1\n",
    }
    # passing a field to the class or storing it is no read; P is no dataclass
    assert unread_fields(sources) == ["a.D.y", "a.D.z"]
    assert unread_fields(sources, readers=["print(d.y)"]) == ["a.D.z"]


def test_no_dataclass_field_nothing_reads():
    sources = {path.stem: path.read_text() for path in SRC.glob("*.py")}
    tests = [path.read_text() for path in pathlib.Path(__file__).parent.glob("*.py")]
    assert unread_fields(sources, readers=tests) == []


# Optional parameters and dataclass fields that no src/ code sets, on purpose.
OPTIONS_SET_OUTSIDE = [
    # the command line; the console script reads sys.argv
    "cli.main(argv)",
    # the progress hook of a similarity run, for a progress stream to use
    "solver.evolve(observer)",
]
FIELDS_SET_OUTSIDE = [
    # views of the field for tests; perfbench reads Trajectory.snapshots
    "solver.SolverConfig(snapshot_at)",
]


def test_no_option_only_tests_set():
    sources = {path.stem: path.read_text() for path in SRC.glob("*.py")}
    assert unset_options(sources, skip=TEST_ONLY) == sorted(
        OPTIONS_SET_OUTSIDE + FIELDS_SET_OUTSIDE)


def loaded_at_import(modules) -> list[str]:
    """Those of modules that a fresh interpreter has loaded once it imports
    blowlab.cli, blowlab.verifier and blowlab.solver."""
    code = ("import sys, blowlab.cli, blowlab.verifier, blowlab.solver\n"
            f"print(sorted(m for m in {tuple(modules)!r} if m in sys.modules))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    return ast.literal_eval(out.stdout.strip())


def test_package_loads_no_scipy_linalg_integrate_or_interpolate():
    # the package init of scipy.linalg clones the numpy namespace (numpy.f2py,
    # numpy.testing, numpy.ma, numpy.random, ...), about 0.3 s and 18 MiB of
    # every run's start-up on a 2-CPU host, so the package loads only scipy's
    # LAPACK extension (spectral.lapack); scipy.integrate and scipy.interpolate
    # pull in scipy.special and scipy.optimize, about 0.4 s more
    assert loaded_at_import(("scipy.linalg", "scipy.integrate", "scipy.interpolate")) == []


def test_package_loads_no_multiprocessing():
    # only a sweep forks cells, so cli imports ProcessPoolExecutor, and with
    # it multiprocessing, inside _run_sweep; every other mode starts without
    assert loaded_at_import(("multiprocessing", "concurrent.futures.process")) == []


def test_package_loads_no_yaml_argparse_or_thread_pool():
    # every run's start-up pays for what the modules import: cli.load_config
    # imports yaml (about 20 ms after numpy on a 2-CPU host), cli.main argparse
    # (3 ms), and a 2-D stepper's helper thread concurrent.futures (7 ms, with
    # logging); a config handed to cli.run, the verifier and 1-D runs need none
    assert loaded_at_import(("yaml", "argparse", "concurrent.futures", "logging")) == []


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

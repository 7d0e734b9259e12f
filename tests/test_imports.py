"""src/blowlab carries no dead names.

Every module-level import is used (names in __all__ count as used), and every
module-level function, class and method is read somewhere in the package,
except the oracles that only tests call, which are listed by name.
"""

import ast
import pathlib

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

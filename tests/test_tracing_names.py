"""Every span name in perfbench's layer groups names an attribute of the package.

perfbench/tracing.py folds spans into per-layer metrics by dotted name
("solver.step_similarity", "spectral.Grid.axis", ...).  A function renamed
in src/blowlab would leave its metric at zero without any error, so the
names are checked here.  The file is read as text and run in a fresh
namespace (it imports only the standard library); nothing under perfbench/
is imported or written.
"""

import importlib
import pathlib

import pytest

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
GROUPS = ("STEP", "LOOP", "INITIAL", "PROFILES", "GEOMETRY", "RECORD", "FIT", "WRITE")


def group_names():
    namespace = {"__name__": "tracing"}
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), namespace)
    return [name for group in GROUPS for name in namespace[group]]


@pytest.mark.parametrize("dotted", group_names())
def test_group_name_resolves(dotted):
    module, *attrs = dotted.split(".")
    obj = importlib.import_module(f"blowlab.{module}")
    for attr in attrs:
        assert hasattr(obj, attr), f"{dotted}: no attribute {attr!r}"
        obj = getattr(obj, attr)
    assert callable(obj), dotted

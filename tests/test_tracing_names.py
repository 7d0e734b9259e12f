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
# Names a group still lists whose functions the package deleted on purpose:
# params.phi and params.outer_profile carry every profile evaluation, so the
# params.profile metrics read 0 until PROFILES names those two.
DELETED = ("params.phi1", "params.phi2", "params.f0", "params.g0")


def group_names(deleted=False):
    """The dotted names the groups list: the live ones, or the DELETED ones."""
    namespace = {"__name__": "tracing"}
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), namespace)
    return [name for group in GROUPS for name in namespace[group]
            if (name in DELETED) == deleted]


@pytest.mark.parametrize("dotted", group_names())
def test_group_name_resolves(dotted):
    module, *attrs = dotted.split(".")
    obj = importlib.import_module(f"blowlab.{module}")
    for attr in attrs:
        assert hasattr(obj, attr), f"{dotted}: no attribute {attr!r}"
        obj = getattr(obj, attr)
    assert callable(obj), dotted


def test_deleted_names_are_gone_and_still_listed():
    # once the groups drop a deleted name, it leaves DELETED too
    assert sorted(group_names(deleted=True)) == sorted(DELETED)
    for dotted in DELETED:
        module, attr = dotted.split(".")
        assert not hasattr(importlib.import_module(f"blowlab.{module}"), attr), dotted

"""Each benchmark workload runs end to end, traced, on its tiny inputs.

perfbench/child.py builds its configs, initial states and traced runs from
the package's public names (cli.config_from_dict, rhs.CutoffSpec,
rhs.InitialDataParams, the solver's initial-state builders, the
trajectories' .snapshots).  A break in any of them shows here rather than
only when the benchmark runs.  The child runs in a fresh process with its
working directory, outputs and spans under tmp_path; nothing under
perfbench/ is written.
"""

import json
import math
import os
import pathlib
import subprocess
import sys
import time

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
# per-layer metrics that perfbench/run.py adds to the child's, from untraced runs
ADDED_BY_RUNNER = {"trace.overhead_s", "checks.failed_frac"}


@pytest.mark.parametrize("name", WORKLOADS)
def test_workload_runs_traced_on_tiny_inputs(name, tmp_path):
    out = tmp_path / "out"
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, str(ROOT / "perfbench" / "child.py"), name, "0",
            repr(time.monotonic()), str(out), "run", "1", "1", str(tmp_path / "spans.json")]
    proc = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])

    failed = [label for label, ok, known in report["checks"] if not ok and not known]
    assert report["checks"] and not failed
    layers = report["layers"]
    names = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    assert set(layers) == names - ADDED_BY_RUNNER
    assert len(layers) == 29
    assert all(math.isfinite(v) for v in layers.values())
    assert (tmp_path / "spans.json").exists()
    if name == "phys-collapse-1d":
        # each snapshot keeps one complex128 value per probe, whatever the grid size
        fits = json.loads((out / "fits.json").read_text())
        assert len(fits["probes"]) == 3
        assert layers["diagnostics.snapshot_bytes"] == fits["snapshots"] * len(fits["probes"]) * 16
        # the tracer's FIT group names the final-profile read the run calls
        assert layers["diagnostics.fit.s"] > 0
    if name in ("sim-desk-1d", "sim-2d-cell"):
        # and its STEP group the step that evolve takes
        assert layers["solver.steps"] > 0

"""Span tracing of blowlab's public functions, installed from outside the package.

Tracer.install replaces every binding of each public function of the seven
modules (module attributes, names imported into other modules such as
`rhs.phi1`, and the package namespace) and the Grid geometry methods with a
wrapper that records a span: name, start, end and the span that was open
when it started.  Spans stay in memory; `dump` writes them out and `metrics`
folds them into per-layer numbers.  A layer's self time is the time its spans
cover minus the part their direct child spans cover.
"""

import functools
import inspect
import json
import os
import time
from collections import defaultdict

MODULES = ("params", "spectral", "rhs", "solver", "diagnostics", "verifier", "cli")
GRID_METHODS = ("axis", "meshes", "radius2")

STEP = ("solver.step_similarity", "solver.step_physical")
LOOP = ("solver.evolve", "solver.run_physical_blowup")
INITIAL = ("solver.similarity_initial_state", "solver.physical_initial_from_similarity")
PROFILES = ("params.phi1", "params.phi2", "params.f0", "params.g0")
GEOMETRY = tuple(f"spectral.Grid.{m}" for m in GRID_METHODS)
RECORD = ("diagnostics.decompose", "diagnostics.profile_error",
          "diagnostics.radial_mode_coefficients")
FIT = ("diagnostics.in_shrinking_set", "diagnostics.inner_fit",
       "diagnostics.mode_ode_residuals", "diagnostics.extract_final_profile")
WRITE = ("diagnostics.write_json", "diagnostics.write_trajectory_csv")

# (name, unit, better) of every per-layer metric, in report order
LAYER_METRICS = (
    ("solver.steps", "count", "lower"),
    ("solver.cell_updates", "count", "lower"),
    ("solver.cell_updates_per_s", "1/s", "higher"),
    ("solver.step.self_s", "s", "lower"),
    ("solver.loop.self_s", "s", "lower"),
    ("solver.setup_s", "s", "lower"),
    ("rhs.f1f2.calls", "count", "lower"),
    ("rhs.f1f2.s", "s", "lower"),
    ("rhs.cutoff_chi.calls", "count", "lower"),
    ("rhs.self_s", "s", "lower"),
    ("params.profile.calls", "count", "lower"),
    ("params.profile.points", "count", "lower"),
    ("params.self_s", "s", "lower"),
    ("spectral.grid_geometry.calls", "count", "lower"),
    ("spectral.grid_geometry.s", "s", "lower"),
    ("spectral.integrate.calls", "count", "lower"),
    ("spectral.self_s", "s", "lower"),
    ("diagnostics.record.s", "s", "lower"),
    ("diagnostics.fit.s", "s", "lower"),
    ("diagnostics.write.s", "s", "lower"),
    ("diagnostics.write.bytes", "B", "lower"),
    ("diagnostics.records", "count", "lower"),
    ("diagnostics.snapshot_bytes", "B", "lower"),
    ("verifier.checks", "count", "higher"),
    ("verifier.failed", "count", "lower"),
    ("verifier.self_s", "s", "lower"),
    ("cli.validate.s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("checks.failed_frac", "ratio", "lower"),
)

# metrics that must repeat exactly between traced runs of one seed
COUNTS = tuple(name for name, unit, _ in LAYER_METRICS if unit in ("count", "B"))


def _count_cells(counts, args, result):
    grid = args[0].grid
    counts["cells"] += grid.npts ** grid.n_dim


def _count_points(counts, args, result):
    counts["points"] += int(getattr(args[1], "size", 1))


def _count_bytes(counts, args, result):
    counts["bytes"] += os.path.getsize(args[1])


def _count_trajectory(counts, args, result):
    traj = result[0] if isinstance(result, tuple) else result
    counts["records"] += len(traj.records)
    counts["snapshot_bytes"] += sum(arr.nbytes for snap in traj.snapshots for arr in snap[1:])


def _count_battery(counts, args, result):
    counts["checks"] += len(result["reports"])
    counts["failed"] += sum(1 for rep in result["reports"] if not rep["pass"])


# computed counters, keyed by the span whose arguments or result they read
HOOKS = {
    **dict.fromkeys(STEP, _count_cells),
    **dict.fromkeys(PROFILES, _count_points),
    **dict.fromkeys(WRITE, _count_bytes),
    **dict.fromkeys(LOOP, _count_trajectory),
    "verifier.run_all": _count_battery,
}


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.names = []
        self.spans = []  # [name index, start, end, parent span index or -1]
        self.counts = defaultdict(int)
        self._open = []

    def _wrap(self, name, fn):
        index = len(self.names)
        self.names.append(name)
        hook = HOOKS.get(name)
        spans, stack, counts = self.spans, self._open, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [index, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                hook(counts, args, result)
            return result

        return traced

    def install(self, package):
        """Wrap the public functions of package's modules at every binding."""
        modules = [package] + [getattr(package, m) for m in MODULES]
        wrapped = {}
        for mod in modules[1:]:
            layer = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrapped[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    setattr(mod, attr, wrapped[id(obj)])
        grid = package.spectral.Grid
        for attr in GRID_METHODS:
            setattr(grid, attr, self._wrap(f"spectral.Grid.{attr}", getattr(grid, attr)))

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"names": self.names, "spans": self.spans,
                       "counts": dict(self.counts)}, fh)

    def metrics(self):
        """Per-layer metrics of the spans so far.

        The caller adds trace.overhead_s and checks.failed_frac, which need
        untraced runs and the output checks.
        """
        names = [self.names[s[0]] for s in self.spans]
        duration = [s[2] - s[1] for s in self.spans]
        child = [0.0] * len(self.spans)
        for i, s in enumerate(self.spans):
            if s[3] >= 0:
                child[s[3]] += duration[i]
        calls = defaultdict(int)
        self_s = defaultdict(float)
        for i, name in enumerate(names):
            calls[name] += 1
            self_s[name] += duration[i] - child[i]

        def covered(group):
            # time under spans of group, counting nested ones once
            group = set(group)
            inside = [False] * len(self.spans)
            total = 0.0
            for i, s in enumerate(self.spans):
                parent = s[3]
                inside[i] = parent >= 0 and (inside[parent] or names[parent] in group)
                if names[i] in group and not inside[i]:
                    total += duration[i]
            return total

        def layer_self(layer):
            return sum(v for k, v in self_s.items() if k.startswith(layer + "."))

        def n(group):
            return sum(calls[k] for k in group)

        step_s = covered(STEP)
        c = self.counts
        return {
            "solver.steps": n(STEP),
            "solver.cell_updates": c["cells"],
            "solver.cell_updates_per_s": c["cells"] / step_s if step_s > 0 else 0.0,
            "solver.step.self_s": sum(self_s[k] for k in STEP),
            "solver.loop.self_s": sum(self_s[k] for k in LOOP),
            "solver.setup_s": covered(INITIAL),
            "rhs.f1f2.calls": calls["rhs.f1f2"],
            "rhs.f1f2.s": covered(("rhs.f1f2",)),
            "rhs.cutoff_chi.calls": calls["rhs.cutoff_chi"],
            "rhs.self_s": layer_self("rhs"),
            "params.profile.calls": n(PROFILES),
            "params.profile.points": c["points"],
            "params.self_s": layer_self("params"),
            "spectral.grid_geometry.calls": n(GEOMETRY),
            "spectral.grid_geometry.s": covered(GEOMETRY),
            "spectral.integrate.calls": calls["spectral.integrate"],
            "spectral.self_s": layer_self("spectral"),
            "diagnostics.record.s": covered(RECORD),
            "diagnostics.fit.s": covered(FIT),
            "diagnostics.write.s": covered(WRITE),
            "diagnostics.write.bytes": c["bytes"],
            "diagnostics.records": c["records"],
            "diagnostics.snapshot_bytes": c["snapshot_bytes"],
            "verifier.checks": c["checks"],
            "verifier.failed": c["failed"],
            "verifier.self_s": layer_self("verifier"),
            "cli.validate.s": covered(("cli.config_from_dict",)),
            "cli.self_s": layer_self("cli"),
            "trace.spans": len(self.spans),
        }


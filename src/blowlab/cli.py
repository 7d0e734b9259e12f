"""Batch entry point: run configurations in, trajectory data and reports out.

A run is described by one YAML file:

    mode: simulate-similarity        # simulate-physical | verify | sweep
    params:        {p: 2, n_dim: 1}
    grid:          {L: 87.5, N: 4097}
    solver:        {ds: 5.0e-3, s0: 25.0, s_end: 60.0, scheme: semi-implicit,
                    pin: true, record_every: 20, eta: 2.5e-4}
    shrinking_set: {A: 10.0, p1: 0.5, K: 5.0}
    initial_data:  {d1: 0.0, d2: 0.0}       # scalar, or {const, lin, quad}
    physical:      {probe_log_radii: [10.0, 12.0, 14.0]}
    sweep:         {ps: [2, 3, 4], ns: [1, 2], N_2d: 257}
    output_dir: out
    seed: 0
    workers: 2

Each key is declared once, on its RunConfig field (section, kind, default, the
modes that require it), and each single-field rule once, in BOUNDS; parsing,
unknown-key rejection, the rules and RunConfig.as_dict read FIELDS (those
field declarations, in order) and BOUNDS.  Cross-field constraints follow,
among them a substep pre-check on every grid the run (or each sweep cell)
steps on; all violations are reported at once, with exit 2.
Every mode runs through one entry, which returns the exit code together with
the mode's result (fits, verify payload or sweep rows); a sweep's cells
return their fits through the process pool, and its rows are built from
them, not read back from disk.  Outputs (run_header.json always;
trajectory.csv, laid out by diagnostics, fits.json, verify_report.json,
sweep_summary.json, sweep_table.csv per mode) are byte-deterministic for
identical config and seed, carry no timestamps, and embed the config hash
so every artifact is self-describing.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import diagnostics as _diag
from . import params as _params
from . import rhs as _rhs
from . import solver as _solver
from . import spectral as _spectral
from . import verifier as _verifier

ARTIFACT_VERSION = "1"
MODES = ("simulate-similarity", "simulate-physical", "verify", "sweep")
# most substeps one ds step of a similarity run may need, checked at load
MAX_SUBSTEPS_PER_STEP = 200


class ConfigError(ValueError):
    """Invalid run configuration; carries every violation found."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__(
            "invalid run configuration:\n"
            + "\n".join(f"  - {e}" for e in self.errors)
        )


# modes that read the grid and s0, and those that also read the window
_GRID_MODES = ("simulate-similarity", "simulate-physical", "sweep")
_WINDOW_MODES = ("simulate-similarity", "sweep")


def _key(section, key, kind, default=None, required=()):
    """A RunConfig field's config-file key: its section ("" is the root), key, kind
    (_take's float, int, bool, str or list; "direction" and "radii" have parsers of
    their own), default and the modes that require it (True: every config)."""
    return dataclasses.field(metadata={"key": (section, key, kind, default, required)})


@dataclass(frozen=True)
class RunConfig:
    """Fully expanded, validated settings of one run; a key the mode does not need may be None.

    Each field declares its config-file key (_key), and FIELDS lists them.
    """

    mode: str = _key("", "mode", str, required=True)
    p: int | None = _key("params", "p", int, required=_GRID_MODES)
    # a verify config without params.p runs the default battery over n = 1, 2,
    # so it leaves params.n_dim unset and may not set it
    n_dim: int | None = _key("params", "n_dim", int, 1)
    L: float | None = _key("grid", "L", float, required=_GRID_MODES)
    N: int | None = _key("grid", "N", int, required=_GRID_MODES)
    ds: float = _key("solver", "ds", float, 5e-3, _WINDOW_MODES)
    s0: float | None = _key("solver", "s0", float, required=_GRID_MODES)
    s_end: float | None = _key("solver", "s_end", float, required=_WINDOW_MODES)
    scheme: str = _key("solver", "scheme", str, "semi-implicit")
    pin: bool = _key("solver", "pin", bool, True)
    record_every: int = _key("solver", "record_every", int, 20)
    eta: float = _key("solver", "eta", float, 2.5e-4)
    A: float = _key("shrinking_set", "A", float, 10.0)
    p1: float = _key("shrinking_set", "p1", float, 0.5)
    K: float = _key("shrinking_set", "K", float, _rhs.CutoffSpec.K)
    d1: dict = _key("initial_data", "d1", "direction")
    d2: dict = _key("initial_data", "d2", "direction")
    probe_log_radii: tuple = _key("physical", "probe_log_radii", "radii", [10.0, 12.0, 14.0])
    sweep_ps: tuple = _key("sweep", "ps", list, [2, 3, 4])
    sweep_ns: tuple = _key("sweep", "ns", list, [1, 2])
    sweep_n2d: int = _key("sweep", "N_2d", int, 257)
    output_dir: str = _key("", "output_dir", str, "out")
    seed: int = _key("", "seed", int, 0)
    workers: int = _key("", "workers", int, 2)

    def as_dict(self) -> dict:
        """The settings in the layout of a config file, tuples as lists, unset keys left out."""
        out: dict = {}
        for name, section, key, *_ in FIELDS:
            value = getattr(self, name)
            if value is None:
                continue
            (out.setdefault(section, {}) if section else out)[key] = (
                list(value) if isinstance(value, tuple) else value)
        return out


# (field, section, key, kind, default, required modes) of every RunConfig field
FIELDS = tuple((f.name, *f.metadata["key"]) for f in dataclasses.fields(RunConfig))
_FIELD = {row[0]: row for row in FIELDS}


def _distinct(values) -> bool:
    return len(set(values)) == len(values)


# One row per single-field rule: (field, test, requirement), read as "{dotted}
# must {requirement}, got {value!r}" (no value for a list).  A field that fails
# a rule skips its later rules and the cross-field constraints that read it.
BOUNDS = (
    ("mode", lambda v: v in MODES, f"be one of {MODES}"),
    ("p", lambda v: 2 <= v <= _params.MAX_P, f"be an integer in [2, {_params.MAX_P}]"),
    ("n_dim", lambda v: v >= 1, "be >= 1"),
    ("L", lambda v: v > 0, "be positive"),
    ("N", lambda v: v >= 17 and v % 2, "be an odd integer >= 17 (origin on a gridline)"),
    ("ds", lambda v: v > 0, "be positive"),
    ("s0", lambda v: v >= 1.0, "be >= 1"),
    ("scheme", lambda v: v in _solver.SCHEMES, f"be one of {_solver.SCHEMES}"),
    ("record_every", lambda v: v >= 1, "be >= 1"),
    ("eta", lambda v: 0 < v <= 0.1, "lie in (0, 0.1]"),
    ("A", lambda v: v >= 1.0, "be >= 1"),
    ("p1", lambda v: 0.0 < v < 1.0, "lie in (0, 1)"),
    ("K", lambda v: v > 0.0, "be positive"),
    ("sweep_ps", lambda v: isinstance(v, list) and all(
        type(x) is int and 2 <= x <= _params.MAX_P for x in v),
     f"be a list of integers in [2, {_params.MAX_P}]"),
    ("sweep_ps", _distinct, "not repeat a value"),
    ("sweep_ns", lambda v: isinstance(v, list) and all(
        type(x) is int and x in _spectral.N_DIMS for x in v),
     f"be a list of integers in {_spectral.N_DIMS}"),
    ("sweep_ns", _distinct, "not repeat a value"),
    ("sweep_n2d", lambda v: v >= 17 and v % 2, "be an odd integer >= 17"),
    ("seed", lambda v: v >= 0, "be >= 0"),
    ("workers", lambda v: v >= 1, "be >= 1"),
)


def config_hash(config: RunConfig) -> str:
    canon = json.dumps(config.as_dict(), sort_keys=True)
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


# what a value of each scalar kind must be, and its test (YAML true is no number)
_KINDS = {
    float: ("a number", lambda v: isinstance(v, (int, float)) and not isinstance(v, bool)),
    int: ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool)),
    bool: ("true or false", lambda v: isinstance(v, bool)),
    str: ("a string", lambda v: isinstance(v, str)),
}


def _take(node, key, where, errors, *, default=None, required=False, kind=None):
    if key not in node:
        if required:
            errors.append(f"missing required key {where}.{key}")
        return default
    value = node.pop(key)
    if kind not in _KINDS:
        return value
    text, test = _KINDS[kind]
    if not test(value):
        errors.append(f"{where}.{key} must be {text}, got {value!r}")
        return default
    if kind is float and not math.isfinite(value):
        errors.append(f"{where}.{key} must be finite, got {value!r}")
        return default
    return float(value) if kind is float else value


def _float_array(value):
    """value as a float array, or None unless every entry is a number (no bool or str)."""
    if isinstance(value, (bool, str)) or (
            isinstance(value, (list, tuple)) and any(_float_array(v) is None for v in value)):
        return None
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        return None


def _parse_direction(node, name, n, errors, *, allow_quad) -> dict:
    """Normalize d1/d2 to {const, lin[, quad]} with plain list entries."""
    out = {"const": 0.0, "lin": [0.0] * n}
    if allow_quad:
        out["quad"] = [[0.0] * n for _ in range(n)]
    if node is None:
        return out
    if isinstance(node, (int, float)) and not isinstance(node, bool):
        node = {"const": node}
    if not isinstance(node, dict):
        errors.append(f"initial_data.{name} must be a number or a mapping")
        return out
    node = dict(node)
    out["const"] = _take(node, "const", f"initial_data.{name}", errors,
                         default=0.0, kind=float)
    shapes = {"lin": ((n,), f"a list of {n} numbers, all finite"),
              "quad": ((n, n), f"an {n}x{n} matrix of finite numbers")}
    for entry, (shape, text) in shapes.items():
        value = node.pop(entry, None)
        if value is None:
            continue
        arr = _float_array(value)
        if entry not in out:
            errors.append(f"initial_data.{name} does not take a quad entry")
        elif arr is None or arr.shape != shape or not np.all(np.isfinite(arr)):
            errors.append(f"initial_data.{name}.{entry} must be {text}")
        else:
            out[entry] = arr.tolist()
    errors += [f"unknown key initial_data.{name}.{key}" for key in node]
    flat = [abs(out["const"])] + [abs(v) for v in out["lin"]]
    flat += [abs(v) for row in out.get("quad", []) for v in row]
    if max(flat) > 2.0:
        errors.append(f"initial_data.{name} entries must lie in [-2, 2]")
    if allow_quad and not np.allclose(out["quad"], np.transpose(out["quad"]), atol=1e-12):
        errors.append(f"initial_data.{name}.quad must be symmetric")
    return out


def _parse_radii(value, errors) -> list:
    """physical.probe_log_radii as a list of floats; [] unless they are all finite and positive."""
    arr = _float_array(value)
    radii = [] if arr is None else [float(v) for v in arr.ravel()]
    if arr is None:
        errors.append("physical.probe_log_radii must be a list of numbers")
    if not all(math.isfinite(v) for v in radii):
        errors.append("physical.probe_log_radii entries must be finite numbers")
        radii = []
    if any(v <= 0 for v in radii):
        errors.append("physical.probe_log_radii entries must be positive")
        radii = []
    return radii


def config_from_dict(raw: dict, overrides: dict = None) -> RunConfig:
    """Validate and expand a raw configuration mapping.

    Every violation is collected; a ConfigError lists all of them at once.
    """
    if not isinstance(raw, dict):
        raise ConfigError(["configuration root must be a mapping"])
    errors: list[str] = []
    nodes = {"": dict(raw)}
    for section in dict.fromkeys(row[1] for row in FIELDS if row[1]):
        node = nodes[""].pop(section, None)
        if node is not None and not isinstance(node, dict):
            errors.append(f"{section} must be a mapping")
            node = None
        nodes[section] = dict(node or {})
    params_given = set(nodes["params"])

    values = {}
    for name, section, key, kind, default, need in FIELDS:
        node = nodes[section]
        if kind == "direction":
            values[name] = _parse_direction(node.pop(key, None), key, max(values["n_dim"] or 1, 1),
                                            errors, allow_quad=name == "d2")
        elif kind == "radii":
            values[name] = _parse_radii(node.pop(key, default), errors)
        else:
            values[name] = _take(node, key, section or "<root>", errors, default=default,
                                 required=need is True or values.get("mode") in need, kind=kind)
    errors += [f"unknown key {section or '<root>'}.{key}"
               for section, node in nodes.items() for key in node]
    # command-line overrides replace the file's values before they are checked
    for name, flag in (("output_dir", "out"), ("seed", "seed"), ("workers", "workers")):
        if overrides and overrides.get(flag) is not None:
            values[name] = overrides[flag]

    bad = set()
    for name, test, requirement in BOUNDS:
        _, section, key, kind, *_ = _FIELD[name]
        value = values[name]
        if name in bad or (value is None and kind is not list) or test(value):
            continue
        bad.add(name)
        dotted = f"{section}.{key}" if section else key
        errors.append(f"{dotted} must {requirement}"
                      + ("" if kind is list else f", got {value!r}"))

    # cross-field constraints; each runs once its own inputs passed the rules above
    def ok(*names):
        return all(values[k] is not None and k not in bad for k in names)

    mode, n_dim, L, ds = (values[k] for k in ("mode", "n_dim", "L", "ds"))
    s0, s_end, scheme, K = (values[k] for k in ("s0", "s_end", "scheme", "K"))
    probe_log_radii = values["probe_log_radii"]
    if mode == "verify" and values["p"] is None:
        if "n_dim" in params_given and "p" not in params_given:
            errors.append("verify needs params.p when params.n_dim is set "
                          "(without p it runs the default battery over n = 1, 2)")
        values["n_dim"] = None
    if mode == "simulate-similarity" and ok("n_dim") and n_dim not in _spectral.N_DIMS:
        errors.append(
            f"simulate-similarity needs params.n_dim in {_spectral.N_DIMS} "
            f"(the grid dimensions), got {n_dim}"
        )
    if mode in _WINDOW_MODES:
        if ok("s0", "s_end") and not s_end > s0:
            errors.append(f"solver.s_end = {s_end} must exceed solver.s0 = {s0}")
            bad.add("s_end")
        if ok("s0", "s_end", "K", "L"):
            need = 2.0 * K * math.sqrt(s_end)
            if L < need:
                errors.append(
                    "grid does not cover the localized region at the end "
                    f"time: require L >= 2*K*sqrt(s_end) = {need:.3f}, got L = {L}"
                )
        # the pre-check runs on every grid the run steps on: a sweep's cells
        # run on grid.N in one dimension and on sweep.N_2d in two
        cells = ([(n, "N" if n == 1 else "sweep_n2d") for n in values["sweep_ns"]]
                 if mode == "sweep" and ok("sweep_ns") else [])
        for n, size in dict.fromkeys([(n_dim, "N")] + cells):
            if not (ok("L", size, "ds", "scheme") and n in _spectral.N_DIMS):
                continue
            grid = _spectral.Grid(n, L, values[size])
            substeps = _solver._substep_count(scheme, grid, ds)
            if substeps > MAX_SUBSTEPS_PER_STEP:
                on = ("this grid" if (n, size) == (n_dim, "N")
                      else f"the {n}-D sweep cells' grid (N = {grid.npts})")
                errors.append(
                    f"ds CFL pre-check failed: ds = {ds} needs {substeps} "
                    f"{scheme} substeps per step on {on} "
                    f"(limit {MAX_SUBSTEPS_PER_STEP}); reduce ds or N"
                )
        cap = _solver.SEMI_IMPLICIT_MAX_DS
        if scheme == "semi-implicit" and ds is not None and ds > cap:
            errors.append(f"semi-implicit scheme requires solver.ds <= {cap}, got {ds}")
    if mode == "simulate-physical":
        if n_dim is not None and n_dim != 1:
            errors.append(
                "simulate-physical supports n_dim = 1 only "
                "(profile extraction interpolates along a line)"
            )
        if ok("scheme") and scheme != "semi-implicit":
            errors.append("simulate-physical steps semi-implicit only: solver.scheme "
                          f"must be semi-implicit, got {scheme!r}")
        if probe_log_radii and ok("L"):
            x_max = math.exp(-min(probe_log_radii))
            if x_max >= L:
                errors.append(
                    f"largest probe point exp(-{min(probe_log_radii)}) = "
                    f"{x_max:.3e} lies outside the grid (L = {L})"
                )
    if errors:
        raise ConfigError(errors)

    # lists become tuples; a key the mode leaves unset stays None
    return RunConfig(**{name: tuple(value) if isinstance(value, list) else value
                        for name, value in values.items()})


def load_config(path: str, overrides: dict = None) -> RunConfig:
    import yaml  # imported here: a run handed a RunConfig never parses YAML

    try:
        with open(path, encoding="utf-8") as fh:
            raw = yaml.safe_load(fh)
    except (yaml.YAMLError, UnicodeDecodeError) as exc:
        raise ConfigError([f"{path} is not a readable YAML file: {exc}"]) from exc
    return config_from_dict(raw, overrides)


def _write_header(config: RunConfig) -> None:
    _diag.write_json(
        {
            "artifact_version": ARTIFACT_VERSION,
            "config_hash": config_hash(config),
            "config": config.as_dict(),
        },
        os.path.join(config.output_dir, "run_header.json"),
    )


def _initial_pieces(config: RunConfig):
    pr = _params.make_params(config.p, config.n_dim)
    cut = _rhs.CutoffSpec(K=config.K)
    idp = _rhs.InitialDataParams(
        A=config.A, s0=config.s0, p1=config.p1,
        d1_const=config.d1["const"], d1_lin=np.asarray(config.d1["lin"]),
        d2_const=config.d2["const"], d2_lin=np.asarray(config.d2["lin"]),
        d2_quad=np.asarray(config.d2["quad"]),
        n_dim=config.n_dim,
    )
    return pr, cut, idp


def _run_similarity(config: RunConfig) -> tuple:
    pr, cut, idp = _initial_pieces(config)
    grid = _spectral.Grid(config.n_dim, config.L, config.N)
    state = _solver.similarity_initial_state(pr, idp, cut, grid)
    cfg = _solver.SolverConfig(
        ds=config.ds, s_end=config.s_end, scheme=config.scheme,
        record_every=config.record_every, pin_unstable_modes=config.pin,
        cutoff=cut,
    )
    traj = _solver.evolve(state, cfg, pr)

    recs = traj.records
    margins = [_diag.in_shrinking_set(r, idp) for r in recs]
    min_margin = [min(m.values()) for m in margins]
    s_vals, e1, e2 = recs["s"], recs["e1"], recs["e2"]
    fits: dict = {
        "profile_errors": {
            "e1_final": float(e1[-1]),
            "e2_final": float(e2[-1]),
            "e1_sqrt_s_final": float(e1[-1] * math.sqrt(s_vals[-1])),
            "e2_s_p1_final": float(e2[-1] * s_vals[-1] ** (config.p1 / 2.0)),
            "e1_slope": _diag.late_loglog_slope(s_vals, e1),
            "e2_slope": _diag.late_loglog_slope(s_vals, e2),
        },
        "membership": {
            "all_inside": all(v >= 0.0 for m in margins for v in m.values()),
            "min_margin": float(min(min_margin)),
            "final_margins": {k: float(v) for k, v in margins[-1].items()},
        },
    }
    c0_tilde = None
    try:
        inner = _diag.inner_fit(traj, pr)
        c0_tilde = inner.c0_tilde
        fits["inner"] = {
            "w1bar_limit": inner.w1bar_limit,
            "target_w1bar": inner.target_w1bar,
            "c0_tilde": inner.c0_tilde,
            "drift_w1bar": inner.drift_w1bar,
            "drift_w2h2": inner.drift_w2h2,
        }
    except _diag.InsufficientSpanError as exc:
        fits["inner"] = None
        fits["inner_skipped"] = str(exc)
    try:
        res = _diag.mode_ode_residuals(traj, idp, pr)
        fits["mode_residuals"] = {
            "constants": {k: float(v) for k, v in res.constants.items()},
            "achieved_exponent_q2_null": float(res.achieved_exponent_q2_null),
        }
    except _diag.TrajectoryTooSparseError as exc:
        fits["mode_residuals"] = None
        fits["mode_residuals_skipped"] = str(exc)

    _diag.write_trajectory_csv(
        traj, os.path.join(config.output_dir, "trajectory.csv"),
        idp=idp, params=pr, min_margin=min_margin, c0_tilde=c0_tilde,
    )
    _diag.write_json(fits, os.path.join(config.output_dir, "fits.json"))
    return 0, fits


def _run_physical(config: RunConfig) -> tuple:
    pr, cut, idp = _initial_pieces(config)
    grid_x = _spectral.Grid(1, config.L, config.N)
    u0 = _solver.physical_initial_from_similarity(pr, idp, cut, grid_x)
    probes = np.exp(-np.asarray(config.probe_log_radii, dtype=float))
    ptraj = _solver.run_physical_blowup(u0, pr, eta=config.eta, probes=probes)
    probe_rows = []
    for lr, x in zip(config.probe_log_radii, probes):
        entry = {"log_radius": float(lr), "x": float(x),
                 "u_star_prediction": float(_params.final_profile_prediction(pr, x)[0])}
        try:
            u1s, u2s = _diag.extract_final_profile(ptraj, x)
        except _diag.NonConvergenceError as exc:
            entry.update({"converged": False, "reason": str(exc)})
        else:
            entry.update({
                "converged": True,
                "u1_star": u1s,
                "u2_star": u2s,
                "ratio_u1_over_prediction": u1s / entry["u_star_prediction"],
                "ratio_u2_lnx_over_u1": u2s * lr / u1s if u1s != 0.0 else float("nan"),
            })
        probe_rows.append(entry)
    fits = {
        "T_estimate": ptraj.T_estimate,
        "T_target": math.exp(-config.s0),
        "status": ptraj.status,
        "records": len(ptraj.records),
        "snapshots": len(ptraj.snapshots),
        "probes": probe_rows,
    }
    _diag.write_physical_csv(ptraj, os.path.join(config.output_dir, "trajectory.csv"))
    _diag.write_json(fits, os.path.join(config.output_dir, "fits.json"))
    return 0, fits


def _run_verify(config: RunConfig) -> tuple:
    # a config without params.p runs the default battery
    battery = {} if config.p is None else {"ps": (config.p,), "ns": (config.n_dim,)}
    payload = _verifier.run_all(seed=config.seed, **battery)
    _diag.write_json(payload, os.path.join(config.output_dir, "verify_report.json"))
    return (0 if payload["all_pass"] else 3), payload


# the fits a sweep row reports, as (fits.json section, key); a cell whose
# window is too short for the inner fit reports None for its keys
SWEEP_FITS = (
    ("inner", "w1bar_limit"), ("inner", "target_w1bar"), ("inner", "c0_tilde"),
    ("inner", "drift_w1bar"), ("profile_errors", "e1_slope"),
    ("profile_errors", "e2_slope"), ("membership", "min_margin"),
)


def _run_sweep(config: RunConfig) -> tuple:
    children = []
    for p in sorted(config.sweep_ps):
        for n in sorted(config.sweep_ns):
            sub_n = config.N if n == 1 else config.sweep_n2d
            child = dataclasses.replace(
                config,
                mode="simulate-similarity",
                p=p, n_dim=n, N=sub_n,
                d1={"const": config.d1["const"], "lin": [config.d1["lin"][0]] * n},
                d2={
                    "const": config.d2["const"],
                    "lin": [config.d2["lin"][0]] * n,
                    "quad": [[config.d2["quad"][0][0] if i == j else 0.0
                              for j in range(n)] for i in range(n)],
                },
                output_dir=os.path.join(config.output_dir, f"p{p}_n{n}"),
            )
            children.append(child)

    # the pool forks all its workers at once, so it gets no more than there are cells
    results = []
    if children:
        # imported here: it loads multiprocessing, which no other mode needs
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(config.workers, len(children))) as pool:
            results = list(pool.map(_run, children))

    rows = []
    for child, (code, result) in zip(children, results):
        row = {"p": child.p, "n_dim": child.n_dim,
               "out_dir": os.path.relpath(child.output_dir, config.output_dir)}
        if code == 0:
            row["status"] = "ok"
            row.update({key: (result[section] or {}).get(key) for section, key in SWEEP_FITS})
        else:
            row.update({"status": "failed", "error": result})
        rows.append(row)

    all_ok = all(r["status"] == "ok" for r in rows)
    _diag.write_json(
        {"runs": rows, "all_ok": bool(all_ok), "count": len(rows)},
        os.path.join(config.output_dir, "sweep_summary.json"),
    )
    cols = ["p", "n_dim", "status"] + [key for _, key in SWEEP_FITS]
    _diag.write_csv(os.path.join(config.output_dir, "sweep_table.csv"), cols,
                    [[row.get(col) for col in cols] for row in rows])
    return (0 if all_ok else 1), rows


def _run(config: RunConfig) -> tuple:
    """run's exit code and the mode's result (fits, verify payload or sweep rows).

    A failure after validation writes error.json and returns (4, its message).
    """
    os.makedirs(config.output_dir, exist_ok=True)
    _write_header(config)
    dispatch = {
        "simulate-similarity": _run_similarity,
        "simulate-physical": _run_physical,
        "verify": _run_verify,
        "sweep": _run_sweep,
    }
    try:
        return dispatch[config.mode](config)
    except Exception as exc:
        _diag.write_json(
            {"error": type(exc).__name__, "message": str(exc)},
            os.path.join(config.output_dir, "error.json"),
        )
        return 4, str(exc)


def run(config: RunConfig) -> int:
    """Execute one validated configuration; 0 on success.

    Failures after validation leave a machine-readable error.json in the
    output directory and return a nonzero status.
    """
    return _run(config)[0]


_DEFAULT_VERIFY = {"mode": "verify"}


def main(argv=None) -> int:
    import argparse  # imported here: only the command line parses arguments

    parser = argparse.ArgumentParser(
        prog="blowlab",
        description="Blow-up simulation and certification runs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (
        ("simulate", "run one simulation described by --config"),
        ("verify", "run the certification battery"),
        ("sweep", "run a parameter sweep described by --config"),
    ):
        sp = sub.add_parser(name, help=text)
        sp.add_argument("--config", default=None, help="YAML run configuration")
        sp.add_argument("--out", default=None, help="override output directory")
        sp.add_argument("--seed", type=int, default=None, help="override seed")
        sp.add_argument("--workers", type=int, default=None,
                        help="override sweep worker count")
    args = parser.parse_args(argv)
    overrides = {"out": args.out, "seed": args.seed, "workers": args.workers}

    try:
        if args.config is None:
            if args.command != "verify":
                raise ConfigError([f"--config is required for {args.command}"])
            config = config_from_dict(dict(_DEFAULT_VERIFY), overrides)
        else:
            config = load_config(args.config, overrides)
        allowed = {
            "simulate": ("simulate-similarity", "simulate-physical"),
            "verify": ("verify",),
            "sweep": ("sweep",),
        }[args.command]
        if config.mode not in allowed:
            raise ConfigError(
                [f"subcommand {args.command} requires mode in {allowed}, "
                 f"got {config.mode!r}"]
            )
    except (ConfigError, OSError) as exc:
        error = "ConfigError" if isinstance(exc, ConfigError) else "OSError"
        messages = exc.errors if isinstance(exc, ConfigError) else [str(exc)]
        print(
            json.dumps({"error": error, "messages": messages}, indent=2),
            file=sys.stderr,
        )
        return 2
    return run(config)


if __name__ == "__main__":
    sys.exit(main())

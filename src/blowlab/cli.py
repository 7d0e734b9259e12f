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

All cross-field constraints are checked at load and reported exhaustively.
Outputs (run_header.json always; trajectory.csv, fits.json,
verify_report.json, sweep_summary.json, sweep_table.csv per mode) are
byte-deterministic for identical config and seed, carry no timestamps, and
embed the config hash so every artifact is self-describing.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np
import yaml

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
# a physical trajectory.csv is thinned to about this many rows
MAX_PHYSICAL_CSV_ROWS = 5000


class ConfigError(ValueError):
    """Invalid run configuration; carries every violation found."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__(
            "invalid run configuration:\n"
            + "\n".join(f"  - {e}" for e in self.errors)
        )


@dataclass(frozen=True)
class RunConfig:
    """Fully expanded, validated settings of one run."""

    mode: str
    p: int
    n_dim: int
    L: float
    N: int
    ds: float
    s0: float
    s_end: float
    scheme: str
    pin: bool
    record_every: int
    eta: float
    A: float
    p1: float
    K: float
    d1: dict
    d2: dict
    probe_log_radii: tuple
    sweep_ps: tuple
    sweep_ns: tuple
    sweep_n2d: int
    output_dir: str
    seed: int
    workers: int

    def as_dict(self) -> dict:
        return {
            "mode": self.mode,
            "params": {"p": self.p, "n_dim": self.n_dim},
            "grid": {"L": self.L, "N": self.N},
            "solver": {
                "ds": self.ds, "s0": self.s0, "s_end": self.s_end,
                "scheme": self.scheme, "pin": self.pin,
                "record_every": self.record_every, "eta": self.eta,
            },
            "shrinking_set": {"A": self.A, "p1": self.p1, "K": self.K},
            "initial_data": {"d1": self.d1, "d2": self.d2},
            "physical": {"probe_log_radii": list(self.probe_log_radii)},
            "sweep": {
                "ps": list(self.sweep_ps), "ns": list(self.sweep_ns),
                "N_2d": self.sweep_n2d,
            },
            "output_dir": self.output_dir,
            "seed": self.seed,
            "workers": self.workers,
        }


def config_hash(config: RunConfig) -> str:
    canon = json.dumps(config.as_dict(), sort_keys=True)
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _section(raw, name, errors) -> dict:
    node = raw.get(name, {})
    if node is None:
        node = {}
    if not isinstance(node, dict):
        errors.append(f"{name} must be a mapping")
        return {}
    return dict(node)


def _take(node, key, where, errors, *, default=None, required=False, kind=None):
    if key not in node:
        if required:
            errors.append(f"missing required key {where}.{key}")
        return default
    value = node.pop(key)
    if kind is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            errors.append(f"{where}.{key} must be a number, got {value!r}")
            return default
        if not math.isfinite(value):
            errors.append(f"{where}.{key} must be finite, got {value!r}")
            return default
        return float(value)
    if kind is int:
        if isinstance(value, bool) or not isinstance(value, int):
            errors.append(f"{where}.{key} must be an integer, got {value!r}")
            return default
        return value
    if kind is bool:
        if not isinstance(value, bool):
            errors.append(f"{where}.{key} must be true or false, got {value!r}")
            return default
        return value
    if kind is str:
        if not isinstance(value, str):
            errors.append(f"{where}.{key} must be a string, got {value!r}")
            return default
        return value
    return value


def _float_array(value):
    """value as a float array, or None unless every entry is a number (no bool or str)."""
    if isinstance(value, (bool, str)) or (
            isinstance(value, (list, tuple)) and any(_float_array(v) is None for v in value)):
        return None
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        return None


def _reject_unknown(node, where, errors):
    for key in node:
        errors.append(f"unknown key {where}.{key}")


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
    lin = node.pop("lin", None)
    if lin is not None:
        arr = _float_array(lin)
        if arr is None or arr.shape != (n,) or not np.all(np.isfinite(arr)):
            errors.append(
                f"initial_data.{name}.lin must be a list of {n} numbers, all finite"
            )
        else:
            out["lin"] = [float(v) for v in arr]
    quad = node.pop("quad", None)
    if quad is not None:
        if not allow_quad:
            errors.append(f"initial_data.{name} does not take a quad entry")
        else:
            arr = _float_array(quad)
            if arr is None or arr.shape != (n, n) or not np.all(np.isfinite(arr)):
                errors.append(
                    f"initial_data.{name}.quad must be an {n}x{n} matrix of finite numbers"
                )
            else:
                out["quad"] = [[float(v) for v in row] for row in arr]
    _reject_unknown(node, f"initial_data.{name}", errors)
    return out


def config_from_dict(raw: dict, overrides: dict = None) -> RunConfig:
    """Validate and expand a raw configuration mapping.

    Every violation is collected; a ConfigError lists all of them at once.
    """
    if not isinstance(raw, dict):
        raise ConfigError(["configuration root must be a mapping"])
    raw = dict(raw)
    errors: list[str] = []

    mode = _take(raw, "mode", "<root>", errors, required=True, kind=str)
    if mode is not None and mode not in MODES:
        errors.append(f"mode must be one of {MODES}, got {mode!r}")

    par = _section(raw, "params", errors)
    raw.pop("params", None)
    p = _take(par, "p", "params", errors, required=True, kind=int)
    n_dim = _take(par, "n_dim", "params", errors, default=1, kind=int)
    _reject_unknown(par, "params", errors)
    if p is not None and not 2 <= p <= _params.MAX_P:
        errors.append(f"params.p must be an integer in [2, {_params.MAX_P}], got {p}")
    if n_dim is not None and n_dim < 1:
        errors.append(f"params.n_dim must be >= 1, got {n_dim}")

    needs_grid = mode in ("simulate-similarity", "simulate-physical", "sweep")
    grid = _section(raw, "grid", errors)
    raw.pop("grid", None)
    L = _take(grid, "L", "grid", errors, required=needs_grid, kind=float)
    N = _take(grid, "N", "grid", errors, required=needs_grid, kind=int)
    _reject_unknown(grid, "grid", errors)
    if L is not None and L <= 0:
        errors.append(f"grid.L must be positive, got {L}")
    if N is not None and (N < 17 or N % 2 == 0):
        errors.append(f"grid.N must be an odd integer >= 17 (origin on a gridline), got {N}")

    sol = _section(raw, "solver", errors)
    raw.pop("solver", None)
    needs_window = mode in ("simulate-similarity", "sweep")
    ds = _take(sol, "ds", "solver", errors, default=5e-3,
               required=needs_window, kind=float)
    s0 = _take(sol, "s0", "solver", errors,
               required=mode in ("simulate-similarity", "simulate-physical", "sweep"),
               kind=float)
    s_end = _take(sol, "s_end", "solver", errors, required=needs_window, kind=float)
    scheme = _take(sol, "scheme", "solver", errors, default="semi-implicit", kind=str)
    pin = _take(sol, "pin", "solver", errors, default=True, kind=bool)
    record_every = _take(sol, "record_every", "solver", errors, default=20, kind=int)
    eta = _take(sol, "eta", "solver", errors, default=2.5e-4, kind=float)
    _reject_unknown(sol, "solver", errors)
    if ds is not None and ds <= 0:
        errors.append(f"solver.ds must be positive, got {ds}")
    if s0 is not None and s0 < 1.0:
        errors.append(f"solver.s0 must be >= 1, got {s0}")
    if scheme is not None and scheme not in _solver.SCHEMES:
        errors.append(f"solver.scheme must be one of {_solver.SCHEMES}, got {scheme!r}")
    if record_every is not None and record_every < 1:
        errors.append(f"solver.record_every must be >= 1, got {record_every}")
    if eta is not None and not 0 < eta <= 0.1:
        errors.append(f"solver.eta must lie in (0, 0.1], got {eta}")

    shr = _section(raw, "shrinking_set", errors)
    raw.pop("shrinking_set", None)
    A = _take(shr, "A", "shrinking_set", errors, default=10.0, kind=float)
    p1 = _take(shr, "p1", "shrinking_set", errors, default=0.5, kind=float)
    K = _take(shr, "K", "shrinking_set", errors, default=5.0, kind=float)
    _reject_unknown(shr, "shrinking_set", errors)
    if A is not None and A < 1.0:
        errors.append(f"shrinking_set.A must be >= 1, got {A}")
    if p1 is not None and not 0.0 < p1 < 1.0:
        errors.append(f"shrinking_set.p1 must lie in (0, 1), got {p1}")
    if K is not None and K <= 0.0:
        errors.append(f"shrinking_set.K must be positive, got {K}")

    ini = _section(raw, "initial_data", errors)
    raw.pop("initial_data", None)
    n_eff = n_dim if (n_dim is not None and n_dim >= 1) else 1
    d1 = _parse_direction(ini.pop("d1", None), "d1", n_eff, errors, allow_quad=False)
    d2 = _parse_direction(ini.pop("d2", None), "d2", n_eff, errors, allow_quad=True)
    _reject_unknown(ini, "initial_data", errors)
    for name, d in (("d1", d1), ("d2", d2)):
        flat = [abs(d["const"])] + [abs(v) for v in d["lin"]]
        flat += [abs(v) for row in d.get("quad", []) for v in row]
        if max(flat) > 2.0:
            errors.append(f"initial_data.{name} entries must lie in [-2, 2]")
    if "quad" in d2:
        q = np.asarray(d2["quad"])
        if not np.allclose(q, q.T, atol=1e-12):
            errors.append("initial_data.d2.quad must be symmetric")

    phys = _section(raw, "physical", errors)
    raw.pop("physical", None)
    probe_raw = phys.pop("probe_log_radii", [10.0, 12.0, 14.0])
    _reject_unknown(phys, "physical", errors)
    probe_arr = _float_array(probe_raw)
    probe_log_radii = [] if probe_arr is None else [float(v) for v in probe_arr.ravel()]
    if probe_arr is None:
        errors.append("physical.probe_log_radii must be a list of numbers")
    if not all(math.isfinite(v) for v in probe_log_radii):
        errors.append("physical.probe_log_radii entries must be finite numbers")
        probe_log_radii = []
    if any(v <= 0 for v in probe_log_radii):
        errors.append("physical.probe_log_radii entries must be positive")

    swp = _section(raw, "sweep", errors)
    raw.pop("sweep", None)
    sweep_ps = swp.pop("ps", [2, 3, 4])
    sweep_ns = swp.pop("ns", [1, 2])
    sweep_n2d = _take(swp, "N_2d", "sweep", errors, default=257, kind=int)
    _reject_unknown(swp, "sweep", errors)
    if not (isinstance(sweep_ps, list) and
            all(type(v) is int and 2 <= v <= _params.MAX_P for v in sweep_ps)):
        errors.append(f"sweep.ps must be a list of integers in [2, {_params.MAX_P}]")
        sweep_ps = []
    if not (isinstance(sweep_ns, list) and
            all(type(v) is int and v in _spectral.N_DIMS for v in sweep_ns)):
        errors.append(f"sweep.ns must be a list of integers in {_spectral.N_DIMS}")
        sweep_ns = []
    if sweep_n2d is not None and (sweep_n2d < 17 or sweep_n2d % 2 == 0):
        errors.append(f"sweep.N_2d must be an odd integer >= 17, got {sweep_n2d}")

    output_dir = _take(raw, "output_dir", "<root>", errors, default="out", kind=str)
    seed = _take(raw, "seed", "<root>", errors, default=0, kind=int)
    workers = _take(raw, "workers", "<root>", errors, default=2, kind=int)
    _reject_unknown(raw, "<root>", errors)
    # command-line overrides replace the file's values before they are checked
    if overrides:
        if overrides.get("out") is not None:
            output_dir = overrides["out"]
        if overrides.get("seed") is not None:
            seed = overrides["seed"]
        if overrides.get("workers") is not None:
            workers = overrides["workers"]
    if seed is not None and seed < 0:
        errors.append(f"seed must be >= 0, got {seed}")
    if workers is not None and workers < 1:
        errors.append(f"workers must be >= 1, got {workers}")

    # cross-field constraints; each runs as soon as its own inputs parsed
    if (mode == "simulate-similarity" and n_dim is not None and n_dim >= 1
            and n_dim not in _spectral.N_DIMS):
        errors.append(
            f"simulate-similarity needs params.n_dim in {_spectral.N_DIMS} "
            f"(the grid dimensions), got {n_dim}"
        )
    if mode in ("simulate-similarity", "sweep"):
        window_ok = (
            s0 is not None and s_end is not None and s0 >= 1.0
        )
        if window_ok and not s_end > s0:
            errors.append(f"solver.s_end = {s_end} must exceed solver.s0 = {s0}")
            window_ok = False
        if window_ok and K is not None and K > 0 and L is not None and L > 0:
            need = 2.0 * K * math.sqrt(s_end)
            if L < need:
                errors.append(
                    "grid does not cover the localized region at the end "
                    f"time: require L >= 2*K*sqrt(s_end) = {need:.3f}, got L = {L}"
                )
        if (L is not None and L > 0 and N is not None and N >= 17 and N % 2
                and ds is not None and ds > 0 and scheme in _solver.SCHEMES
                and n_dim in _spectral.N_DIMS):
            substeps = _solver._substep_count(scheme, _spectral.Grid(n_dim, L, N), ds)
            if substeps > MAX_SUBSTEPS_PER_STEP:
                errors.append(
                    f"ds CFL pre-check failed: ds = {ds} needs {substeps} "
                    f"{scheme} substeps per step on this grid "
                    f"(limit {MAX_SUBSTEPS_PER_STEP}); reduce ds or N"
                )
        if scheme == "semi-implicit" and ds is not None and ds > 0.01:
            errors.append(
                f"semi-implicit scheme requires solver.ds <= 0.01, got {ds}"
            )
    if mode == "simulate-physical":
        if n_dim is not None and n_dim != 1:
            errors.append(
                "simulate-physical supports n_dim = 1 only "
                "(profile extraction interpolates along a line)"
            )
        if probe_log_radii and L is not None and L > 0:
            x_max = math.exp(-min(probe_log_radii))
            if x_max >= L:
                errors.append(
                    f"largest probe point exp(-{min(probe_log_radii)}) = "
                    f"{x_max:.3e} lies outside the grid (L = {L})"
                )
    if errors:
        raise ConfigError(errors)

    return RunConfig(
        mode=mode, p=p, n_dim=n_dim,
        L=L if L is not None else 0.0, N=N if N is not None else 0,
        ds=ds, s0=s0 if s0 is not None else 0.0,
        s_end=s_end if s_end is not None else 0.0,
        scheme=scheme, pin=pin, record_every=record_every, eta=eta,
        A=A, p1=p1, K=K, d1=d1, d2=d2,
        probe_log_radii=tuple(probe_log_radii),
        sweep_ps=tuple(sweep_ps), sweep_ns=tuple(sweep_ns), sweep_n2d=sweep_n2d,
        output_dir=output_dir, seed=seed, workers=workers,
    )


def load_config(path: str, overrides: dict = None) -> RunConfig:
    with open(path) as fh:
        raw = yaml.safe_load(fh)
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


def _run_similarity(config: RunConfig) -> int:
    pr, cut, idp = _initial_pieces(config)
    grid = _spectral.Grid(config.n_dim, config.L, config.N)
    state = _solver.similarity_initial_state(pr, idp, cut, grid)
    ssp = _diag.ShrinkingSetParams(A=config.A, p1=config.p1, K=config.K)
    cfg = _solver.SolverConfig(
        ds=config.ds, s_end=config.s_end, scheme=config.scheme,
        record_every=config.record_every, pin_unstable_modes=config.pin,
        cutoff=cut,
    )
    traj = _solver.evolve(state, cfg, pr, ssp=ssp)

    recs = traj.records
    margins = [_diag.in_shrinking_set(r, ssp) for r in recs]
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
            "min_margin": float(min(min(m.values()) for m in margins)),
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
        res = _diag.mode_ode_residuals(traj, ssp, pr)
        fits["mode_residuals"] = {
            "constants": {k: float(v) for k, v in res.constants.items()},
            "achieved_exponent_q2_null": float(res.achieved_exponent_q2_null),
        }
    except _diag.TrajectoryTooSparseError as exc:
        fits["mode_residuals"] = None
        fits["mode_residuals_skipped"] = str(exc)

    _diag.write_trajectory_csv(
        traj, os.path.join(config.output_dir, "trajectory.csv"),
        ssp=ssp, params=pr, c0_tilde=c0_tilde,
    )
    _diag.write_json(fits, os.path.join(config.output_dir, "fits.json"))
    return 0


def _write_physical_csv(ptraj, path: str) -> None:
    n = ptraj.grid.n_dim
    cols = ["t", "dt", "max_u"] + [f"argmax_{i}" for i in range(n)]
    for i in range(len(ptraj.probes)):
        cols += [f"probe{i}_u1", f"probe{i}_u2"]
    # thin long runs to every stride-th row plus the last one; the float view
    # of probe_u interleaves u1 and u2 per probe
    recs = ptraj.records
    stride = max(1, -(-len(recs) // MAX_PHYSICAL_CSV_ROWS))
    last = recs[-1:] if (len(recs) - 1) % stride else recs[:0]
    recs = np.concatenate([recs[::stride], last])
    _diag.write_csv(path, cols, np.column_stack([
        recs["t"], recs["dt"], recs["max_u"], recs["argmax"], recs["probe_u"].view(np.float64)]))


def _run_physical(config: RunConfig) -> int:
    pr, cut, idp = _initial_pieces(config)
    grid_x = _spectral.Grid(1, config.L, config.N)
    u0 = _solver.physical_initial_from_similarity(pr, idp, cut, grid_x)
    probes = np.exp(-np.asarray(config.probe_log_radii, dtype=float))
    ptraj, t_est = _solver.run_physical_blowup(u0, pr, eta=config.eta, probes=probes)
    probe_rows = []
    finals = _diag.extract_final_profiles(ptraj, probes.tolist())
    for lr, x, final in zip(config.probe_log_radii, probes, finals):
        entry = {"log_radius": float(lr), "x": float(x),
                 "u_star_prediction": float(_params.final_profile_prediction(pr, x)[0])}
        if isinstance(final, _diag.NonConvergenceError):
            entry.update({"converged": False, "reason": str(final)})
        else:
            u1s, u2s = final
            entry.update({
                "converged": True,
                "u1_star": u1s,
                "u2_star": u2s,
                "ratio_u1_over_prediction": u1s / entry["u_star_prediction"],
                "ratio_u2_lnx_over_u1": u2s * lr / u1s if u1s != 0.0 else float("nan"),
            })
        probe_rows.append(entry)
    fits = {
        "T_estimate": float(t_est),
        "T_target": math.exp(-config.s0),
        "status": ptraj.status,
        "records": len(ptraj.records),
        "snapshots": len(ptraj.snapshots),
        "probes": probe_rows,
    }
    _write_physical_csv(ptraj, os.path.join(config.output_dir, "trajectory.csv"))
    _diag.write_json(fits, os.path.join(config.output_dir, "fits.json"))
    return 0


def _run_verify(config: RunConfig) -> int:
    if config.p is None:
        payload = _verifier.run_all(seed=config.seed)
    else:
        payload = _verifier.run_all(
            ps=(config.p,), ns=(config.n_dim,), seed=config.seed
        )
    _diag.write_json(payload, os.path.join(config.output_dir, "verify_report.json"))
    return 0 if payload["all_pass"] else 3


def _sweep_child(child_dict: dict) -> tuple:
    config = RunConfig(**child_dict)
    code = run(config)
    return config.p, config.n_dim, code


def _run_sweep(config: RunConfig) -> int:
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
                probe_log_radii=config.probe_log_radii,
                output_dir=os.path.join(config.output_dir, f"p{p}_n{n}"),
            )
            children.append(child)

    results = {}
    if children:
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            for p, n, code in pool.map(
                _sweep_child, [dataclasses.asdict(c) for c in children]
            ):
                results[(p, n)] = code

    rows = []
    for child in children:
        key = (child.p, child.n_dim)
        row = {"p": child.p, "n_dim": child.n_dim,
               "out_dir": os.path.relpath(child.output_dir, config.output_dir)}
        code = results.get(key, 4)
        fits_path = os.path.join(child.output_dir, "fits.json")
        if code == 0 and os.path.exists(fits_path):
            with open(fits_path) as fh:
                fits = json.load(fh)
            inner = fits.get("inner") or {}
            row.update({
                "status": "ok",
                "w1bar_limit": inner.get("w1bar_limit"),
                "target_w1bar": inner.get("target_w1bar"),
                "c0_tilde": inner.get("c0_tilde"),
                "drift_w1bar": inner.get("drift_w1bar"),
                "e1_slope": fits["profile_errors"]["e1_slope"],
                "e2_slope": fits["profile_errors"]["e2_slope"],
                "min_margin": fits["membership"]["min_margin"],
            })
        else:
            row["status"] = "failed"
            err_path = os.path.join(child.output_dir, "error.json")
            if os.path.exists(err_path):
                with open(err_path) as fh:
                    row["error"] = json.load(fh).get("message", "unknown")
            else:
                row["error"] = f"exit code {code}"
        rows.append(row)

    all_ok = all(r["status"] == "ok" for r in rows)
    _diag.write_json(
        {"runs": rows, "all_ok": bool(all_ok), "count": len(rows)},
        os.path.join(config.output_dir, "sweep_summary.json"),
    )
    table_cols = ["p", "n_dim", "status", "w1bar_limit", "target_w1bar",
                  "c0_tilde", "drift_w1bar", "e1_slope", "e2_slope", "min_margin"]
    lines = [",".join(table_cols)]
    for row in rows:
        cells = []
        for col in table_cols:
            v = row.get(col)
            if v is None:
                cells.append("")
            elif isinstance(v, float):
                cells.append(_diag._fmt(v))
            else:
                cells.append(str(v))
        lines.append(",".join(cells))
    with open(os.path.join(config.output_dir, "sweep_table.csv"), "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return 0 if all_ok else 1


def run(config: RunConfig) -> int:
    """Execute one validated configuration; 0 on success.

    Failures after validation leave a machine-readable error.json in the
    output directory and return a nonzero status.
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
        return 4


_DEFAULT_VERIFY = {"mode": "verify", "params": {"p": 2}}


def main(argv=None) -> int:
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
            config = dataclasses.replace(config, p=None)
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
    except ConfigError as exc:
        print(
            json.dumps({"error": "ConfigError", "messages": exc.errors}, indent=2),
            file=sys.stderr,
        )
        return 2
    except OSError as exc:
        print(
            json.dumps({"error": "OSError", "messages": [str(exc)]}, indent=2),
            file=sys.stderr,
        )
        return 2
    return run(config)


if __name__ == "__main__":
    sys.exit(main())

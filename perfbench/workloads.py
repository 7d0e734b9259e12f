"""Workload definitions: seeded inputs, the call that runs them, and their checks.

Each workload turns a seed into the inputs the program receives (a run
configuration, or the verifier's seed) and knows how to judge the outputs.
For the similarity runs seed 0 uses the acceptance fixtures' zero direction
data; every other seed draws the constant and linear entries of d1 and d2
uniformly in [-1, 1] and keeps d2.quad = 0 (a nonzero quad leaves the
trapping set within a few steps of s0 = 25).  The physical run keeps the
zero data and seeds its probe radii instead (see `config`).

Checks come in two kinds.  Physics bands apply at every seed.  Fingerprints
apply at seed 0 only and compare against the values the parent commit of the
benchmark produced on these exact inputs; they hold to FINGERPRINT_RTOL, so a
change that only reorders floating-point work passes and one that moves the
answer does not.
"""

import json
import math
import os
import random

WORKLOADS = ("sim-desk-1d", "phys-collapse-1d", "sim-2d-cell", "verify-battery")

# Why each workload is in the benchmark (also recorded in BENCHMARK.json).
WHY = {
    "sim-desk-1d": "W1: p=2 n=1 N=4097 similarity run, s 25->35 (inner fit), seeded d1/d2; "
                   "6 drift substeps per step, so solve, drift and full-grid profile overhead "
                   "dominate",
    "phys-collapse-1d": "W2: physical collapse to T=e^-25 on 7201 points; ~5k recorded steps, "
                        "no drift, pinning or profiles; stresses record and snapshot memory. "
                        "Seed picks probe radii",
    "sim-2d-cell": "W4: 2-D sweep cell, p=3 N=257, s 25->26, seeded d1/d2; one substep on "
                   "66k points per field, so per-point kernels and the strided ADI axis "
                   "dominate",
    "verify-battery": "W3: verifier.run_all over p=2..9, n=1,2 with the seed; small radial "
                      "arrays and no solver, so the bypass case for solver changes and the "
                      "only verifier load",
}

FINGERPRINT_RTOL = 1e-6
# |T_estimate - e^-s0| / e^-s0 on the physical workload
T_BAND = 0.05

# verifier checks with a known defect: check_quadratic_bounds fails for some
# (p, n) at most seeds.  Their failures are reported, not counted as failed.
KNOWN_DEFECT_PREFIX = "quadratic_bounds_"

VERIFY_PS = tuple(range(2, 10))
VERIFY_NS = (1, 2)

# parent-commit outputs at seed 0 on the full-size inputs below
FINGERPRINTS = {
    "sim-desk-1d": {
        "e1_final": 0.01654848650916213,
        "w1bar_limit": -0.13403474037008675,
    },
    "phys-collapse-1d": {
        "status": "receded",
        "T_estimate": 1.3997688593828147e-11,
        "u1_star": [271155772527.11557, 766681288079.811, 2230327835517.1665],
        "u2_star": [83874726666.40706, 230305437284.15878, 653030956518.0769],
    },
    "sim-2d-cell": {
        "e1_final": 0.009149372509063891,
        "e2_final": 0.05466831625679722,
    },
}


def direction_data(seed, n_dim):
    """Initial-data directions d1, d2 for one seed."""
    zero = [0.0] * n_dim
    if seed == 0:
        return ({"const": 0.0, "lin": zero},
                {"const": 0.0, "lin": zero, "quad": [zero[:] for _ in range(n_dim)]})
    rng = random.Random(seed)
    draw = lambda: rng.uniform(-1.0, 1.0)  # noqa: E731
    d1 = {"const": draw(), "lin": [draw() for _ in range(n_dim)]}
    d2 = {"const": draw(), "lin": [draw() for _ in range(n_dim)],
          "quad": [zero[:] for _ in range(n_dim)]}
    return d1, d2


def _similarity(p, n_dim, N, s_end, seed, out, tiny):
    d1, d2 = direction_data(seed, n_dim)
    return {
        "mode": "simulate-similarity",
        "params": {"p": p, "n_dim": n_dim},
        "grid": {"L": 87.5, "N": 129 if tiny else N},
        "solver": {"ds": 5e-3, "s0": 25.0, "s_end": 25.2 if tiny else s_end,
                   "scheme": "semi-implicit", "pin": True, "record_every": 20},
        "shrinking_set": {"A": 10.0, "p1": 0.5, "K": 5.0},
        "initial_data": {"d1": d1, "d2": d2},
        "seed": seed,
        "output_dir": out,
    }


def config(name, seed, out, tiny=False):
    """Raw run configuration for a CLI-driven workload (None for verify-battery).

    tiny shrinks grids and windows for the harness self-test; the answers then
    no longer match the fingerprints and are not checked against them.
    """
    if name == "sim-desk-1d":
        return _similarity(2, 1, 4097, 35.0, seed, out, tiny)
    if name == "sim-2d-cell":
        return _similarity(3, 2, 257, 26.0, seed, out, tiny)
    if name == "phys-collapse-1d":
        # The collapse is too sensitive to the direction data to seed it:
        # draws as for the similarity runs, even with the linear entries
        # zeroed, change the step count 25-fold (2k to 52k steps over seeds
        # 1-6) and end the run at different stages of the unresolved core.
        # So every seed runs the fixture's zero data, and the seed picks the
        # probe radii, which leave the collapse untouched.
        d1, d2 = direction_data(0, 1)
        probes = [10.5, 11.0, 11.5]
        if seed:
            rng = random.Random(seed)
            probes = sorted(rng.uniform(10.5, 11.5) for _ in range(3))
        return {
            "mode": "simulate-physical",
            "params": {"p": 2, "n_dim": 1},
            "grid": {"L": 9e-5, "N": 1801 if tiny else 7201},
            # eta is twenty times the acceptance fixture's 2.5e-4, which
            # sizes one run to ~5k steps instead of ~88k
            "solver": {"s0": 25.0, "eta": 2e-2 if tiny else 5e-3},
            "shrinking_set": {"A": 10.0, "p1": 0.5, "K": 5.0},
            "initial_data": {"d1": d1, "d2": d2},
            "physical": {"probe_log_radii": probes},
            "seed": seed,
            "output_dir": out,
        }
    if name == "verify-battery":
        return None
    raise ValueError(f"unknown workload {name!r}")


def verify_args(seed, tiny=False):
    """Keyword arguments of verifier.run_all for the verify-battery workload."""
    if tiny:
        return {"ps": (2,), "ns": (1,), "seed": seed}
    return {"ps": VERIFY_PS, "ns": VERIFY_NS, "seed": seed}


def _close(got, want):
    return math.isfinite(got) and abs(got - want) <= FINGERPRINT_RTOL * abs(want)


def _rules(name, seed, out, tiny):
    """(check name, predicate on fits.json) pairs for a CLI-driven workload."""
    rules = [("artifacts", lambda f: all(
        os.path.exists(os.path.join(out, a))
        for a in ("run_header.json", "trajectory.csv", "fits.json")))]
    fp = FINGERPRINTS[name]
    fingerprint = seed == 0 and not tiny
    if name == "phys-collapse-1d":
        rules += [
            ("stop_reason", lambda f: f["status"] in ("blown-up", "stalled", "receded")),
            ("records", lambda f: f["records"] > 1 and f["snapshots"] > 1),
        ]
        if not tiny:
            rules += [
                ("T_band", lambda f: abs(f["T_estimate"] - f["T_target"])
                 <= T_BAND * f["T_target"]),
                ("probes_converged", lambda f: all(
                    pr["converged"] and pr["u1_star"] > 0 for pr in f["probes"])),
            ]
        if fingerprint:
            rules += [
                ("fingerprint.status", lambda f: f["status"] == fp["status"]),
                ("fingerprint.T_estimate", lambda f: _close(f["T_estimate"], fp["T_estimate"])),
                ("fingerprint.u_star", lambda f: all(
                    _close(pr["u1_star"], u1) and _close(pr["u2_star"], u2)
                    for pr, u1, u2 in zip(f["probes"], fp["u1_star"], fp["u2_star"]))),
            ]
        return rules
    rules += [
        ("containment", lambda f: f["membership"]["all_inside"]
         and f["membership"]["min_margin"] > 0.0),
        ("profile_errors_finite", lambda f: all(
            math.isfinite(f["profile_errors"][k]) for k in ("e1_final", "e2_final"))),
    ]
    if name == "sim-desk-1d" and not tiny:
        rules.append(("w1bar_band", lambda f: abs(
            f["inner"]["w1bar_limit"] - f["inner"]["target_w1bar"])
            <= 0.2 * abs(f["inner"]["target_w1bar"])))
    if fingerprint:
        rules += [(f"fingerprint.{key}", lambda f, key=key: _close(
            f["inner"]["w1bar_limit"] if key == "w1bar_limit" else f["profile_errors"][key],
            fp[key])) for key in fp]
    return rules


def check(name, seed, out, result, tiny=False):
    """Judge one run: a list of (check name, passed, known defect).

    result is cli.run's exit code, verifier.run_all's payload, or None when
    the run raised or died; every check of such a run fails.
    """
    if name == "verify-battery":
        args = verify_args(seed, tiny)
        if result is None:
            # the seed check, then per p five outer-ODE checks and three
            # more, and per (p, n) three
            count = 1 + len(args["ps"]) * (8 + 3 * len(args["ns"]))
            return [(f"verifier.check{i}", False, False) for i in range(count)]
        checks = [("verifier.seed", result["seed"] == seed, False)]
        checks += [(f"verifier.{rep['name']}", bool(rep["pass"]),
                    rep["name"].startswith(KNOWN_DEFECT_PREFIX))
                   for rep in result["reports"]]
        return checks
    fits = None
    if result == 0:
        try:
            with open(os.path.join(out, "fits.json")) as fh:
                fits = json.load(fh)
        except (OSError, ValueError):
            fits = None
    checks = [("exit_code", result == 0, False)]
    for label, rule in _rules(name, seed, out, tiny):
        try:
            ok = fits is not None and bool(rule(fits))
        except (KeyError, TypeError, ValueError):
            ok = False
        checks.append((label, ok, False))
    return checks

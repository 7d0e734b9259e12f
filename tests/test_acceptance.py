"""Acceptance battery: end-to-end quantitative checks of the whole package.

Each test prints one indexed PASS/FAIL line (visible with pytest -s, or in
the captured output of a failing run) and then asserts the same condition.
Two long runs are shared session fixtures: a pinned similarity-variable
run to s = 60 on a desk-scale grid, and a physical-frame blow-up run with
blow-up time near e^{-25}.  Everything here is deterministic.
"""

import json
import math
import time

import numpy as np
import pytest

from blowlab import cli
from blowlab import diagnostics as diag
from blowlab import params as bp
from blowlab import rhs
from blowlab import solver
from blowlab import spectral as sp
from blowlab import verifier


def _report(index, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{index}/9] {label}: {status}{suffix}")


def _late_loglog_slope(s, vals, s_min):
    s = np.asarray(s, dtype=float)
    vals = np.abs(np.asarray(vals, dtype=float))
    keep = (s >= s_min) & (vals > 0)
    design = np.column_stack([np.ones(keep.sum()), np.log(s[keep])])
    coef, *_ = np.linalg.lstsq(design, np.log(vals[keep]), rcond=None)
    return float(coef[1])


@pytest.fixture(scope="session")
def desk_run():
    """Pinned p=2, n=1 run from s0=25 to s=60 with zero direction data."""
    t0 = time.perf_counter()
    pr = bp.make_params(2, 1)
    K = 5.0
    grid = sp.Grid(1, 2.0 * K * math.sqrt(60.0) + 10.0, 4097)
    cut = rhs.CutoffSpec(K=K)
    idp = rhs.InitialDataParams(A=10.0, s0=25.0, p1=0.5, n_dim=1)
    state = solver.similarity_initial_state(pr, idp, cut, grid)
    cfg = solver.SolverConfig(
        ds=5e-3, s_end=60.0, scheme="semi-implicit",
        record_every=20, pin_unstable_modes=True, cutoff=cut,
    )
    traj = solver.evolve(state, cfg, pr)
    runtime = time.perf_counter() - t0
    return pr, idp, traj, runtime


@pytest.fixture(scope="session")
def physical_run():
    """Physical-frame blow-up from profile-shaped data, T = e^{-25}, 1D."""
    t0 = time.perf_counter()
    pr = bp.make_params(2, 1)
    cut = rhs.CutoffSpec(K=5.0)
    idp = rhs.InitialDataParams(A=10.0, s0=25.0, p1=0.5, n_dim=1)
    grid_x = sp.Grid(1, 9e-5, 7201)
    u0 = solver.physical_initial_from_similarity(pr, idp, cut, grid_x)
    log_radii = (10.5, 11.0, 11.5)
    probes = np.exp(-np.array(log_radii))
    ptraj = solver.run_physical_blowup(u0, pr, eta=2.5e-4, probes=probes)
    runtime = time.perf_counter() - t0
    return pr, ptraj, ptraj.T_estimate, log_radii, probes, runtime


def test_1_certification_battery():
    t0 = time.perf_counter()
    payload = verifier.run_all(ps=(2, 3, 4), ns=(1, 2), seed=0)
    runtime = time.perf_counter() - t0
    by_name = {r["name"]: r for r in payload["reports"]}

    ok = payload["all_pass"] and runtime < 60.0
    worst_lines = []
    for p in (2, 3, 4):
        ok &= by_name[f"b_selection_p{p}"]["worst_residual"] <= 1e-14
        ok &= by_name[f"complex_identity_p{p}"]["worst_residual"] < 1e-12
        ok &= by_name[f"outer_ode_R10_p{p}"]["worst_residual"] < 1e-13
        ok &= by_name[f"outer_ode_R21_p{p}"]["worst_residual"] < 1e-13
        bar = by_name[f"barB_expansion_p{p}"]["details"]
        ok &= abs(bar["coefficient_1"] - bar["target_1"]) <= 1e-6
        ok &= abs(bar["coefficient_2"] - bar["target_2"]) <= 1e-6
        for n in (1, 2):
            rest = by_name[f"rest_bounds_p{p}_n{n}"]["details"]
            ok &= rest["c2_rel_err"] < 0.01
            want = -n * (n + 4) * bp.make_params(p, n).kappa / (p - 1)
            ok &= rest["c2_closed_form"] == pytest.approx(want, rel=1e-12)
    worst_lines.append(f"runtime {runtime:.1f}s")
    _report(1, "certification battery", ok, "; ".join(worst_lines))

    assert payload["all_pass"] is True
    for p in (2, 3, 4):
        assert by_name[f"b_selection_p{p}"]["worst_residual"] <= 1e-14
        assert by_name[f"complex_identity_p{p}"]["worst_residual"] < 1e-12
        assert by_name[f"outer_ode_R10_p{p}"]["worst_residual"] < 1e-13
        assert by_name[f"outer_ode_R21_p{p}"]["worst_residual"] < 1e-13
        bar = by_name[f"barB_expansion_p{p}"]["details"]
        kappa = bp.make_params(p, 1).kappa
        assert bar["target_1"] == pytest.approx(p / (2.0 * kappa), rel=1e-12)
        assert bar["target_2"] == pytest.approx(p / kappa, rel=1e-12)
        assert abs(bar["coefficient_1"] - bar["target_1"]) <= 1e-6
        assert abs(bar["coefficient_2"] - bar["target_2"]) <= 1e-6
        for n in (1, 2):
            rest = by_name[f"rest_bounds_p{p}_n{n}"]["details"]
            want = -n * (n + 4) * bp.make_params(p, n).kappa / (p - 1)
            assert rest["c2_closed_form"] == pytest.approx(want, rel=1e-12)
            assert rest["c2_rel_err"] < 0.01
    assert runtime < 60.0


def test_2_spectral_suite():
    t0 = time.perf_counter()
    grid = sp.Grid(1, 16.0, 1025)
    ax = grid.axis()
    rho = grid.rho()

    worst_orth = 0.0
    for i in range(11):
        hi = sp.hermite(i, ax)
        norm_i = float(math.factorial(i) * 2 ** i)
        assert sp.norm_h_beta_sq((i,)) == norm_i
        for j in range(11):
            hj = sp.hermite(j, ax)
            raw = sp.integrate(grid, hi * hj * rho)
            want = norm_i if i == j else 0.0
            worst_orth = max(worst_orth, abs(raw - want) / norm_i)

    worst_eig = 0.0
    interior = np.abs(ax) <= grid.half_width / 2
    for m in range(7):
        vals = sp.hermite(m, ax)
        lam = 1.0 - m / 2.0
        out = vals + sp.diffusion_drift(grid, vals)
        err = np.max(np.abs(out[interior] - lam * vals[interior]))
        worst_eig = max(worst_eig, err / np.max(np.abs(vals[interior])))
    runtime = time.perf_counter() - t0

    ok = worst_orth < 1e-7 and worst_eig < 10.0 * grid.h ** 2 and runtime < 30.0
    _report(2, "spectral suite", ok,
            f"orthogonality {worst_orth:.2e}, eigen {worst_eig:.2e}, "
            f"runtime {runtime:.1f}s")
    assert worst_orth < 1e-7
    assert worst_eig < 10.0 * grid.h ** 2
    assert runtime < 30.0


def test_3_solver_oracles():
    # constant data u0 = 1 for p = 2 blows up at exactly T = 1
    pr = bp.make_params(2, 1)
    grid = sp.Grid(1, 8.0, 33)
    st = solver.PhysicalState(
        t=0.0, grid=grid, u=np.ones(grid.shape) + 1j * np.zeros(grid.shape),
    )
    t_err = abs(solver.run_physical_blowup(st, pr).T_estimate - 1.0)

    # every rotation of the constant kappa is a similarity fixed point; the step
    # freezes the edge at its incoming values, since the profile clamp would move it
    worst_step = 0.0
    n_sub = solver._substep_count("semi-implicit", grid, 0.01)
    for p in (2, 3):
        prp = bp.make_params(p, 1)
        cfg = solver.SolverConfig(ds=0.01, s_end=11.0)
        for k in range(p - 1):
            theta = 2.0 * math.pi * k / (p - 1)
            st0 = solver.SimilarityState(
                s=10.0, grid=grid,
                w=np.full(grid.shape, prp.kappa * math.cos(theta))
                + 1j * np.full(grid.shape, prp.kappa * math.sin(theta)),
            )
            edge = st0.w[solver._edge_mask(grid)]
            clamp = np.broadcast_to(edge, (n_sub,) + edge.shape)
            st1 = solver.step_similarity(st0, cfg, prp, clamp=clamp)
            worst_step = max(
                worst_step,
                float(np.max(np.abs(st1.w.real - st0.w.real))),
                float(np.max(np.abs(st1.w.imag - st0.w.imag))),
            )

    ok = t_err < 1e-3 and worst_step < 1e-12
    _report(3, "solver oracles", ok,
            f"|T-1| {t_err:.2e}, fixed-point step {worst_step:.2e}")
    assert t_err < 1e-3
    assert worst_step < 1e-12


def test_4_profile_convergence(desk_run):
    _, _, traj, runtime = desk_run
    s = traj.records["s"]
    e1 = traj.records["e1"]
    e2 = traj.records["e2"]
    late = s >= 35.0
    band1 = e1[late] * np.sqrt(s[late])
    band2 = e2[late] * s[late] ** 0.25
    ratio1 = float(band1.max() / band1.min())
    ratio2 = float(band2.max() / band2.min())

    ok = ratio1 < 2.0 and ratio2 < 3.0 and runtime < 600.0
    _report(4, "profile convergence orders", ok,
            f"e1*sqrt(s) band {ratio1:.2f}x, e2*s^(1/4) band {ratio2:.2f}x, "
            f"runtime {runtime:.0f}s")
    assert ratio1 < 2.0
    assert ratio2 < 3.0
    assert runtime < 600.0


def test_5_inner_expansion_fits(desk_run):
    pr, _, traj, _ = desk_run
    fit = diag.inner_fit(traj, pr)

    final = float(fit.s_w1bar_h2[-1])
    rel = abs(final - fit.target_w1bar) / abs(fit.target_w1bar)
    mean_steps = np.abs(np.diff(fit.window_means_w1bar))
    drift_shrinks = bool(np.all(np.diff(mean_steps) < 0))
    w2h2_final = float(fit.s2_w2_h2[-1])
    w2h0_max = float(np.max(np.abs(fit.s3_w2_h0)))
    w2h0_slope = _late_loglog_slope(fit.s, fit.s3_w2_h0, 35.0)

    ok = (rel <= 0.20 and drift_shrinks
          and abs(w2h2_final) > 0.1 and fit.drift_w2h2 < 0.10
          and w2h0_max < 10.0 and w2h0_slope < 0.1)
    _report(5, "inner expansion fits", ok,
            f"s*w1bar {final:.4f} vs {fit.target_w1bar} ({100 * rel:.2f}%), "
            f"s^2*w2_h2 {w2h2_final:.3f} drift {fit.drift_w2h2:.3f}, "
            f"s^3*w2_h0 max {w2h0_max:.2f}")
    assert fit.target_w1bar == pytest.approx(-0.125)
    assert rel <= 0.20
    assert drift_shrinks
    assert abs(w2h2_final) > 0.1
    assert fit.drift_w2h2 < 0.10
    assert w2h0_max < 10.0
    assert w2h0_slope < 0.1


def test_6_mode_ode_residuals(desk_run):
    _, idp, traj, _ = desk_run
    res = diag.mode_ode_residuals(traj, idp)

    details = []
    ok = True
    for key in ("q1_0", "q1_j", "q1_jk"):
        series = np.abs(np.asarray(res.residuals[key]))
        peak = float(series.max())
        if peak < 1e-8:
            # the mode carries no signal above roundoff on symmetric data,
            # so its evolution law holds identically
            details.append(f"{key} at roundoff ({peak:.1e})")
            continue
        slope = _late_loglog_slope(res.s, series, 30.0)
        details.append(f"{key} slope {slope:+.3f}")
        ok &= slope < 0.1

    _report(6, "mode evolution residual flatness", ok, ", ".join(details))
    for key in ("q1_0", "q1_j", "q1_jk"):
        series = np.abs(np.asarray(res.residuals[key]))
        if float(series.max()) < 1e-8:
            continue
        assert _late_loglog_slope(res.s, series, 30.0) < 0.1


def test_7_shrinking_set_containment(desk_run):
    _, idp, traj, _ = desk_run
    margins = []
    inside = []
    for r in traj.records:
        rep = diag.in_shrinking_set(r, idp)
        margins.append(min(rep.values()))
        inside.append(all(m >= 0.0 for m in rep.values()))
    min_margin = float(min(margins))

    ok = all(inside) and min_margin > 0.0
    _report(7, "shrinking-set containment", ok,
            f"min margin {min_margin:.4f} over {len(margins)} records")
    assert all(inside)
    assert min_margin > 0.0


# The t0-curve parameter of the final-profile reference: the cutoff K of
# physical_run.
K0 = 5.0


def _final_profile_reference(pr, log_radius, k0=K0):
    """Finite-radius final profile at |x| = e^{-log_radius}, in log form.

    The value at x freezes on the curve |x| = k0 sqrt((T - t0)|ln(T - t0)|),
    after which the t0-curve ODE pair (U, V2) of params.hat_uv runs to
    tau = 1.  With sigma = |ln(T - t0)|, the curve reads
    sigma - ln(sigma) = 2|ln x| + ln(k0^2), and
      u*_fx  = (T - t0)^{-1/(p-1)} U(1),
      u2*_fx = (T - t0)^{-1/(p-1)} V2(1) / sigma.
    Returns (sigma, ln u*_fx, ln u2*_fx); logs keep |ln x| = 1e4 in range.
    """
    c = 2.0 * log_radius + math.log(k0 * k0)
    sigma = bp.bisect_root(lambda sg: sg - math.log(sg) - c, c, 2.0 * c,
                           residual_tol=1e-14, residual_scale=c)
    u_hat, v2_hat = bp.hat_uv(pr, 1.0, k0 * k0)
    log_scale = sigma / (pr.p - 1)
    return (sigma, log_scale + math.log(u_hat),
            log_scale + math.log(v2_hat) - math.log(sigma))


def _log_final_profile_prediction(pr, log_radius):
    """ln of params.final_profile_prediction at |x| = e^{-log_radius}."""
    p = pr.p
    log_u = (2.0 * log_radius
             + math.log(8.0 * p * log_radius / (p - 1) ** 2)) / (p - 1)
    return log_u, log_u + math.log(2.0 * p / (p - 1) ** 2 / log_radius)


def test_final_profile_reference_limits():
    # the log form above is the package's own x -> 0 prediction
    for p in (2, 3):
        pr = bp.make_params(p, 1)
        want_u, want_u2 = bp.final_profile_prediction(pr, math.exp(-10.5))
        log_u, log_u2 = _log_final_profile_prediction(pr, 10.5)
        assert math.exp(log_u) == pytest.approx(float(want_u), rel=1e-12)
        assert math.exp(log_u2) == pytest.approx(float(want_u2), rel=1e-12)

    # the finite-radius reference tends to that prediction as |ln x| grows
    for p in (2, 3):
        pr = bp.make_params(p, 1)
        gaps = []
        for lr in (10.5, 100.0, 1e4):
            log_u_fx = _final_profile_reference(pr, lr)[1]
            gaps.append(abs(math.expm1(
                log_u_fx - _log_final_profile_prediction(pr, lr)[0])))
            assert gaps[-1] <= math.log(2.0 * K0 ** 2 * lr) / lr
        assert gaps[0] > gaps[1] > gaps[2]

    # for p = 2, u2*_fx = 1/(b^2 x^2) whatever K0 is
    pr = bp.make_params(2, 1)
    for k0 in (1.0, K0, 10.0):
        for lr in (10.5, 11.0, 11.5):
            x = math.exp(-lr)
            log_u2_fx = _final_profile_reference(pr, lr, k0)[2]
            assert math.exp(log_u2_fx) == pytest.approx(
                1.0 / (pr.b ** 2 * x * x), rel=1e-9)


def test_8_final_profile(physical_run):
    """Frozen final profile against the paper's finite-radius construction.

    The paper states u* and u2* only as x -> 0.  Its proof reaches them
    through the curve |x| = K0 sqrt((T - t0)|ln(T - t0)|): the value at x
    freezes at sigma = |ln(T - t0(x))|, the root of
    sigma - ln(sigma) = 2|ln x| + ln(K0^2), and is then carried by the
    t0-curve ODE pair (U, V2) of params.hat_uv from tau = 0 to tau = 1.
    The references are u*_fx = (T - t0)^{-1/(p-1)} U(1) and
    u2*_fx = (T - t0)^{-1/(p-1)} V2(1) / sigma (_final_profile_reference).
    The paper leaves K0 free; it enters only through ln(K0^2) in sigma,
    and K0 = 5 is the package's own value (the cutoff K of the fixture).
    For p = 2, u2*_fx does not depend on K0.  Each t0(x) must fall inside
    this run, 0 < t0 < T_est.

    The leading-order ratios u*/pred and u2*|ln x|/u* are printed, not
    banded: at these radii the o(1) correction to the limit, about
    ln(2 K0^2 |ln x|) / (2 |ln x|), is 20-30%, so they show the
    convergence toward the limit rather than a pass/fail condition.
    """
    pr, ptraj, t_est, log_radii, probes, runtime = physical_run

    details = [f"T {t_est:.3e} (target {math.exp(-25.0):.3e})"]
    ok = runtime < 900.0
    ratios = []
    for lr, x in zip(log_radii, probes):
        pred = ((pr.p - 1) ** 2 * x * x
                / (8.0 * pr.p * lr)) ** (-1.0 / (pr.p - 1))
        u1s, u2s = diag.extract_final_profile(ptraj, float(x))
        sigma, log_u_fx, log_u2_fx = _final_profile_reference(
            pr, abs(math.log(x)))
        t0 = t_est - math.exp(-sigma)
        f1 = u1s / math.exp(log_u_fx)
        f2 = u2s / math.exp(log_u2_fx)
        ratios.append((lr, t0, f1, f2))
        details.append(f"|ln x|={lr}: u*/pred {u1s / pred:.3f}, "
                       f"u2*|ln x|/u* {u2s * lr / u1s:.3f}, "
                       f"u*/u*_fx {f1:.3f}, u2*/u2*_fx {f2:.3f}")
        ok &= 0.0 < t0 < t_est
        ok &= 0.85 <= f1 <= 1.15
        ok &= 0.85 <= f2 <= 1.15

    _report(8, "final profile asymptotics", ok, "; ".join(details))
    for lr, t0, f1, f2 in ratios:
        assert 0.0 < t0 < t_est, f"t0 outside the run at |ln x|={lr}: {t0}"
        assert 0.85 <= f1 <= 1.15, f"u*/u*_fx at |ln x|={lr}: {f1}"
        assert 0.85 <= f2 <= 1.15, f"u2*/u2*_fx at |ln x|={lr}: {f2}"
    assert runtime < 900.0


def test_9_determinism(tmp_path):
    raw = {
        "mode": "simulate-similarity",
        "params": {"p": 2, "n_dim": 1},
        "grid": {"L": 24.0, "N": 257},
        "solver": {"ds": 5.0e-3, "s0": 25.0, "s_end": 26.0, "record_every": 10},
        "shrinking_set": {"A": 10.0, "p1": 0.5, "K": 2.0},
        "initial_data": {"d1": 0.0, "d2": 0.0},
        "seed": 0,
        "output_dir": str(tmp_path / "run"),
    }
    config = cli.config_from_dict(raw)
    names = ("run_header.json", "fits.json", "trajectory.csv")
    assert cli.run(config) == 0
    first = {n: (tmp_path / "run" / n).read_bytes() for n in names}
    assert cli.run(config) == 0
    second = {n: (tmp_path / "run" / n).read_bytes() for n in names}

    battery_a = json.dumps(verifier.run_all(ps=(2,), ns=(1,), seed=0), sort_keys=True)
    battery_b = json.dumps(verifier.run_all(ps=(2,), ns=(1,), seed=0), sort_keys=True)

    ok = first == second and battery_a == battery_b
    _report(9, "byte-identical reruns", ok,
            f"{len(names)} artifacts + certification report")
    assert first == second
    assert battery_a == battery_b

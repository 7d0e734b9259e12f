"""Standalone numeric certification of the closed-form identities and bounds.

Everything here is independent of the time steppers: each check plugs a
closed form into the equation or bound it is supposed to satisfy and
measures the residual.  Derivatives come from evaluating the closed forms
(params.outer_profile) on a truncated Taylor series in z (params.Series),
so they are exact up to roundoff, and the residual of an exact identity
sits at the roundoff floor.  All four outer profiles R10, R11, R21 and R22
are held to that floor; R22's check also integrates its linear ODE by
classical RK4 on tabulated coefficients, an independent oracle, and
refits its three correction coefficients.

Bound checks are slope tests: the envelope constants C are unspecified,
so the falsifiable content is that the normalized sup does not grow across
a decade sweep in s.  Growth (log-log slope above 0.05 on the late half of
the sweep, where transients have died out) falsifies the bound; decay only
means the envelope has slack.  The fitted constant is reported alongside.
The potential, quadratic and rest checks each sweep their sups with
_sweep and report through _envelope_report.

Checks that sample randomly record their seed; rerunning with the same
seed reproduces every report bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import diagnostics as _diag
from . import params as _params
from . import rhs as _rhs

SLOPE_TOL = 0.05
# slow-variable samples z of the outer-profile equations
Z_SAMPLES = np.linspace(0.1, 10.0, 397)
# geometric sweep in s of the bound checks
S_GRID = np.geomspace(10.0, 1e4, 13)
# the weighted sups run over |y| <= 2 K sqrt(s), the default cutoff's support
K = _rhs.CutoffSpec.K
# random points of the complex-identity check
COMPLEX_SAMPLES = 10_000
# r-nodes of the quadratic-bound check, each with its own (q1, q2) draws
QUADRATIC_NODES = 301
# RK4 steps of R22's integrator cross-check, on a geometric z-grid
R22_STEPS = 2000
# the z-window of R22's checks, and the samples its three coefficients are refitted on
R22_Z_WINDOW = (0.1, 5.0)
R22_FIT_SAMPLES = 201
Z_SAMPLES.setflags(write=False)
S_GRID.setflags(write=False)


@dataclass
class CheckReport:
    """Outcome of one certification check.

    passed is determined solely by the check's stated tolerance; details
    carries named fitted constants and sub-residuals for the JSON report.
    """

    check_name: str
    samples: int
    worst_residual: float
    passed: bool
    fitted_constant: float | None = None
    seed: int | None = None
    notes: str = ""
    details: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "name": self.check_name,
            "samples": self.samples,
            "worst_residual": self.worst_residual,
            "fitted_constant": self.fitted_constant,
            "pass": self.passed,
            "seed": self.seed,
            "notes": self.notes,
            "details": dict(self.details),
        }


def _in_z(params: _params.Params, kind: str, z):
    """The outer profile of kind as its Taylor series in z at the points z (it takes z^2):
    c[0], c[1] and 2 c[2] are the profile and its first two z-derivatives."""
    x = _params.Series.at(z)
    return _params.outer_profile(params, kind, x * x)


def _linear_operator(params: _params.Params, f, z):
    """-(z/2) f' - f/(p-1) + p R10^{p-1} f for f given as its series in z at the points z."""
    p = params.p
    r10_pm1 = _params.outer_profile(params, "R10", z * z) ** (p - 1)
    return -0.5 * z * f.c[1] - f.c[0] / (p - 1) + p * r10_pm1 * f.c[0]


def _r11_source(r10, z):
    """F11 = R10'' + (z/2) R10', the source of R11's equation, from R10's series at the points z."""
    return 2.0 * r10.c[2] + 0.5 * z * r10.c[1]


def _r22_source(params: _params.Params, z):
    """R21'' + R21 + (z/2) R21' + p(p-1) R10^{p-2} R11 R21 at the points z."""
    p = params.p
    r21 = _in_z(params, "R21", z)
    r10, r11 = (_params.outer_profile(params, kind, z * z) for kind in ("R10", "R11"))
    coupling = p * (p - 1) * r10 ** (p - 2) * r11
    return 2.0 * r21.c[2] + r21.c[0] + 0.5 * z * r21.c[1] + coupling * r21.c[0]


def _r22_terms(params: _params.Params, z):
    """R22's leading term and its three correction terms as series in z at the points z.

    With A = p-1 + b z^2: -2 A^{-p/(p-1)}, then z^2 A^{-(2p-1)/(p-1)},
    z^2 ln(A) A^{-p/(p-1)} and z^2 ln(A) A^{-(2p-1)/(p-1)}.
    """
    p = params.p
    x = _params.Series.at(z)
    z2 = x * x
    base = p - 1 + params.b * z2
    slow, steep = base ** (-p / (p - 1.0)), base ** (-(2.0 * p - 1) / (p - 1.0))
    log_base = np.log(base)
    return -2.0 * slow, (z2 * steep, z2 * log_base * slow, z2 * log_base * steep)


def fit_r22_constants(params: _params.Params) -> CheckReport:
    """Certify the closed-form R22 profile against its ODE, two ways, and refit it.

    The closed form (params.outer_profile) has no free parameter.  Its
    residual on a dense grid, with exact series derivatives, must sit at the
    roundoff floor (< 1e-13), like R10, R11 and R21, and a classical RK4
    integration of the linear ODE r' = a(z) r + g(z) started on it, over
    R22_STEPS geometric steps in z, must follow it at every node (< 1e-6;
    it is about 1e-11 at 2000 steps).  Independently, the ODE residual is
    affine in the three correction coefficients, so least squares over z
    samples recovers them, and they must match the closed form's -(p-1)/2,
    (p-2)/(p-1) and p (< 1e-12).  (Matching field values against
    a shooting solution instead would be ill-posed: the regular solutions
    form a one-parameter family and any shot picks an arbitrary member.)
    """
    p = params.p
    z_lo, z_hi = R22_Z_WINDOW
    z_fit = np.linspace(z_lo, z_hi, R22_FIT_SAMPLES)
    base, terms = _r22_terms(params, z_fit)
    design = np.column_stack([_linear_operator(params, f, z_fit) for f in terms])
    target = -(_linear_operator(params, base, z_fit) + _r22_source(params, z_fit))
    coef, *_ = np.linalg.lstsq(design, target, rcond=None)
    fit_dev = float(np.max(np.abs(coef - [-(p - 1) / 2.0, (p - 2) / (p - 1.0), p])))

    z_dense = np.linspace(z_lo, z_hi, 601)
    closed = _in_z(params, "R22", z_dense)
    residual = _linear_operator(params, closed, z_dense) + _r22_source(params, z_dense)
    worst = float(np.max(np.abs(residual)))

    # independent RK4 integration of the same linear ODE r' = a(z) r + g(z),
    # started on the closed form, with a and g tabulated at nodes and midpoints
    z_nodes = np.geomspace(z_lo, z_hi, R22_STEPS + 1)
    z_tab = np.empty(2 * R22_STEPS + 1)
    z_tab[0::2] = z_nodes
    z_tab[1::2] = 0.5 * (z_nodes[:-1] + z_nodes[1:])
    r10_pm1 = _params.outer_profile(params, "R10", z_tab * z_tab) ** (p - 1)
    a = ((2.0 / z_tab) * (p * r10_pm1 - 1.0 / (p - 1))).tolist()
    g = ((2.0 / z_tab) * _r22_source(params, z_tab)).tolist()
    exact = _params.outer_profile(params, "R22", z_nodes * z_nodes)
    r = float(exact[0])
    path = [r]
    for h, a0, am, a1, g0, gm, g1 in zip(np.diff(z_nodes).tolist(), a[0:-1:2], a[1::2],
                                         a[2::2], g[0:-1:2], g[1::2], g[2::2]):
        k1 = a0 * r + g0
        k2 = am * (r + 0.5 * h * k1) + gm
        k3 = am * (r + 0.5 * h * k2) + gm
        k4 = a1 * (r + h * k3) + g1
        r += h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        path.append(r)
    ivp_dev = float(np.max(np.abs(np.array(path) - exact)))

    passed = worst < 1e-13 and ivp_dev < 1e-6 and fit_dev < 1e-12
    notes = (
        f"integrator deviation {ivp_dev:.3e}; "
        f"fit deviation {fit_dev:.3e}. The two log coefficients differ, so a form "
        "using a single shared log constant cannot satisfy this equation."
    )
    if not passed:
        notes = "CERTIFICATION FAILED: the closed form misses its ODE or its refit. " + notes
    return CheckReport(
        check_name=f"r22_fit_p{p}", samples=R22_FIT_SAMPLES, worst_residual=worst,
        fitted_constant=float(coef[0]), passed=passed, notes=notes,
        details={
            "c_alg": float(coef[0]), "c_log_slow": float(coef[1]),
            "c_log_steep": float(coef[2]), "fit_deviation": fit_dev,
            "integrator_deviation": ivp_dev,
        },
    )


def selection_coefficient(p: int, b: float) -> float:
    """The 1/z coefficient -2b/(p-1) + 8 p b^2/(p-1)^3 of the reduced source."""
    return -2.0 * b / (p - 1) + 8.0 * p * b**2 / (p - 1) ** 3


def _log_term_coefficient(params: _params.Params, z) -> tuple[float, float]:
    """Fit (2H/z) F11 onto {1/z^3, 1/z, z/(p-1+b z^2)}, with F11 from R10's series.

    Returns the fitted 1/z coefficient and the fit residual.  A nonzero
    1/z part integrates to a ln z term, destroying analyticity at z=0.
    """
    p = params.p
    a = p - 1 + params.b * (z * z)
    g = (2.0 * a ** (p / (p - 1.0)) / z**3) * _r11_source(_in_z(params, "R10", z), z)
    design = np.column_stack([1.0 / z**3, 1.0 / z, z / a])
    coef, *_ = np.linalg.lstsq(design, g, rcond=None)
    resid = float(np.max(np.abs(design @ coef - g)))
    return float(coef[1]), resid


def check_outer_ode_residuals(params: _params.Params) -> list[CheckReport]:
    """Certify the four order-by-order profile equations.

    All four closed forms are exact solutions, so their residuals, with
    exact series derivatives, must sit at the roundoff floor (< 1e-13);
    R22's report also carries an integrator cross-check and a refit of its
    coefficients (fit_r22_constants).  A final report perturbs the curvature
    constant and verifies the log-term obstruction appears.
    """
    z = Z_SAMPLES
    p = params.p
    f10, f11, f21 = (_in_z(params, kind, z) for kind in ("R10", "R11", "R21"))
    # (profile, residual of its equation at z)
    table = (
        ("R10", -0.5 * z * f10.c[1] - f10.c[0] / (p - 1) + f10.c[0] ** p),
        ("R11", _linear_operator(params, f11, z) + _r11_source(f10, z)),
        ("R21", _linear_operator(params, f21, z)),
    )
    reports = []
    for kind, residual in table:
        worst = float(np.max(np.abs(residual)))
        reports.append(CheckReport(
            check_name=f"outer_ode_{kind}_p{p}", samples=len(z),
            worst_residual=worst, passed=worst < 1e-13,
        ))

    reports.append(fit_r22_constants(params))

    # with the selected curvature constant the 1/z source component cancels;
    # at 1.1 b it reappears and would integrate to a non-analytic ln z term
    z_fit = z[z <= 5.0]
    coeff_at_b, resid_b = _log_term_coefficient(params, z_fit)
    perturbed = _params.Params(p=p, n_dim=params.n_dim, kappa=params.kappa, b=1.1 * params.b)
    coeff_pert, resid_pert = _log_term_coefficient(perturbed, z_fit)
    expected_pert = selection_coefficient(p, 1.1 * params.b)
    ok = (
        abs(coeff_at_b) < 1e-10
        and abs(coeff_pert - expected_pert) < 1e-6
        and abs(coeff_pert) > 1e-3
        and max(resid_b, resid_pert) < 1e-9
    )
    reports.append(
        CheckReport(
            check_name=f"outer_log_term_obstruction_p{p}", samples=len(z_fit),
            worst_residual=max(resid_b, resid_pert),
            fitted_constant=coeff_pert, passed=ok,
            notes="fitted 1/z coefficient at the selected constant and at 1.1x",
            details={
                "coefficient_at_selected_b": coeff_at_b,
                "coefficient_at_perturbed_b": coeff_pert,
                "closed_form_at_perturbed_b": expected_pert,
            },
        )
    )
    return reports


def check_b_selection(params: _params.Params) -> CheckReport:
    """The curvature constant is the unique positive root of the 1/z coefficient."""
    p = params.p
    b_star = params.b
    at_star = selection_coefficient(p, b_star)
    lo = selection_coefficient(p, 0.9 * b_star)
    hi = selection_coefficient(p, 1.1 * b_star)
    passed = abs(at_star) < 1e-14 and abs(lo) > 1e-3 and abs(hi) > 1e-3
    return CheckReport(
        check_name=f"b_selection_p{p}", samples=3,
        worst_residual=abs(at_star), fitted_constant=b_star, passed=passed,
        details={"at_selected": at_star, "at_0.9x": lo, "at_1.1x": hi},
    )


def _richardson_limit(values):
    """Limit of a sequence sampled at scales r, r/2, r/4, ... with power-1 error."""
    tableau = [np.asarray(values, dtype=float)]
    fac = 2.0
    while len(tableau[-1]) > 1:
        prev = tableau[-1]
        tableau.append((fac * prev[1:] - prev[:-1]) / (fac - 1.0))
        fac *= 2.0
    return float(tableau[-1][0])


def check_barB_expansion(params: _params.Params) -> CheckReport:
    """Leading coefficients and remainder order of the flattened quadratic terms."""
    p = params.p
    kappa = params.kappa
    want1 = p / (2.0 * kappa)
    want2 = p / kappa

    scales = 1e-2 * 0.5 ** np.arange(6)
    seq1 = []
    seq2 = []
    for r in scales:
        b1, _ = _rhs.bar_b(params, np.array([r]), np.array([0.0]))
        seq1.append(b1[0] / r**2)
        _, b2c = _rhs.bar_b(params, np.array([r]), np.array([r]))
        seq2.append(b2c[0] / r**2)
    coeff1 = _richardson_limit(seq1)
    coeff2 = _richardson_limit(seq2)
    err1 = abs(coeff1 - want1)
    err2 = abs(coeff2 - want2)

    # remainder ratios on shrinking shells |w1bar| + |w2| = r
    theta = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
    ratio1_max = 0.0
    ratio2_max = 0.0
    for r in (1e-1, 1e-2, 1e-3, 1e-4):
        w1 = r * np.cos(theta)
        w2 = r * np.sin(theta)
        b1, b2 = _rhs.bar_b(params, w1, w2)
        rem1 = np.abs(b1 - want1 * w1**2)
        den1 = np.abs(w1) ** 3 + w2**2
        rem2 = np.abs(b2 - want2 * w1 * w2)
        den2 = w1**2 * np.abs(w2) + np.abs(w2) ** 3
        keep1 = den1 > 1e-300
        keep2 = den2 > 1e-300
        ratio1_max = max(ratio1_max, float(np.max(rem1[keep1] / den1[keep1])))
        ratio2_max = max(ratio2_max, float(np.max(rem2[keep2] / den2[keep2])))

    passed = err1 < 1e-6 and err2 < 1e-6 and math.isfinite(ratio1_max) and math.isfinite(ratio2_max)
    return CheckReport(
        check_name=f"barB_expansion_p{p}", samples=6 + 4 * len(theta),
        worst_residual=max(err1, err2), fitted_constant=coeff1, passed=passed,
        notes="Richardson-extrapolated leading coefficients; shell remainder ratios",
        details={
            "coefficient_1": coeff1, "target_1": want1,
            "coefficient_2": coeff2, "target_2": want2,
            "remainder_ratio_1": ratio1_max, "remainder_ratio_2": ratio2_max,
        },
    )


def _bounded_verdict(s_grid, sups) -> dict:
    """Boundedness verdict for a per-s normalized sup on a geometric s grid.

    A bounded envelope shows one of three signatures: a flat curve, a
    shrinking one, or saturation from below with geometrically decaying
    increments (then the limit is extrapolated, and the constant is the
    larger of it and the sweep's maximum).  Logarithmic or power growth
    keeps its increments and fails.
    """
    sups = np.asarray(sups, dtype=float)
    slope = _diag.late_loglog_slope(s_grid, sups)
    constant = float(np.max(sups))
    verdict = {"constant": constant, "slope": slope, "bounded": True}
    if slope < SLOPE_TOL:
        return verdict
    half = len(sups) // 2
    late = sups[half:]
    floor = 1e-3 * late[-1]
    deltas = np.diff(late)
    if np.all(deltas <= floor):
        return verdict
    d_prev, d_last = deltas[-2], deltas[-1]
    if d_prev > floor and d_last > floor and d_last / d_prev <= 0.8:
        ratio = d_last / d_prev
        verdict["constant"] = max(constant, float(late[-1] + d_last * ratio / (1.0 - ratio)))
        return verdict
    verdict["bounded"] = False
    return verdict


def _sweep(names, sups, s_grid=S_GRID) -> dict:
    """{name: (s_grid, its per-s sups)}; sups(s) gives one sup per name, in order."""
    table = np.array([sups(s) for s in s_grid])
    return {name: (s_grid, table[:, i]) for i, name in enumerate(names)}


def _envelope_report(check_name: str, sweeps: dict, *, samples: int, notes: str,
                     extra_ok: bool = True, fitted_constant: float | None = None,
                     seed: int | None = None, details: dict | None = None) -> CheckReport:
    """One report for the envelope bounds in sweeps, each judged by _bounded_verdict.

    Passes when every sup is finite, every verdict is bounded and extra_ok
    holds.  The residual is the most-growing late-half slope; the fitted
    constant is the first bound's unless given.
    """
    bounds = {name: _bounded_verdict(s, sups) for name, (s, sups) in sweeps.items()}
    finite = all(np.all(np.isfinite(sups)) for _, sups in sweeps.values())
    passed = finite and extra_ok and all(v["bounded"] for v in bounds.values())
    if fitted_constant is None:
        fitted_constant = next(iter(bounds.values()))["constant"]
    return CheckReport(
        check_name=check_name, samples=samples,
        worst_residual=max(0.0, max(v["slope"] for v in bounds.values())),
        fitted_constant=fitted_constant, passed=bool(passed), seed=seed, notes=notes,
        details={**bounds, **(details or {})},
    )


_SLOPE_NOTES = "residual column is the most-growing late-half slope across bounds"


def check_potential_bounds(params: _params.Params) -> CheckReport:
    """Slope-stability of the stated envelope bounds for the linearization potentials."""
    n = params.n_dim

    def sups(s):
        # every sup at one s, from one profile read and one evaluation of each potential per grid
        r = np.linspace(0.0, 20.0 * math.sqrt(s), 2001)
        r2 = r * r
        pair = _params.phi(params, r2, s)
        v = np.abs(_rhs.potential_v(params, pair))
        v11, v12, v21, v22 = _rhs.potentials_vjk(params, pair)
        vdiag = np.abs(v11) + np.abs(v22)
        voff = np.abs(v12) + np.abs(v21)
        r_in = np.linspace(0.0, 2.0 * K * math.sqrt(s), 2001)
        r2_in = r_in * r_in
        v_in = _rhs.potential_v(params, _params.phi(params, r2_in, s))
        tilde = v_in + (r2_in - 2.0 * n) / (4.0 * s)
        return (
            np.max(np.abs(tilde) * s**2 / (1.0 + r2_in**2)),
            np.max(v),
            np.max(v * s / (1.0 + r2)),
            np.max(vdiag * s**2.0),
            np.max(voff * s),
            np.max(vdiag * s**4.0 / (1.0 + r2**2)),
            np.max(voff * s**2.0 / (1.0 + r2)),
        )

    # V_tilde first: its constant is the report's fitted constant
    names = ("V_tilde", "V_global", "V_quadratic_over_s", "Vdiag_sup_s2", "Voff_sup_s",
             "Vdiag_weighted_s4", "Voff_weighted_s2")
    s_top = float(S_GRID[-1])
    origin = float(_rhs.potential_v(params, _params.phi(params, np.array([0.0]), s_top))[0] * s_top)
    origin_err = abs(origin - 0.5 * n) / (0.5 * n)
    return _envelope_report(
        f"potential_bounds_p{params.p}_n{n}", _sweep(names, sups),
        samples=len(S_GRID) * 2001, notes=_SLOPE_NOTES, extra_ok=origin_err < 0.01,
        details={"V_origin_times_s": origin, "V_origin_target": 0.5 * n},
    )


def check_quadratic_bounds(params: _params.Params, seed: int = 0) -> CheckReport:
    """Ratio-boundedness of the nonlinear remainder against its stated envelope.

    One uniform (q1, q2) draw per scale and r-node serves every s; the r-grid
    scales with sqrt(s), so each sits at one z = r/sqrt(s), and the sweep
    measures the s-trend of the bounds, not of the sampler.
    """
    rng = np.random.default_rng([seed, params.p, params.n_dim, 3])
    unit = rng.uniform(-1.0, 1.0, size=(2, 2, QUADRATIC_NODES))
    c_q1q2 = [0.0]

    def sups(s):
        r = np.linspace(0.0, 10.0 * math.sqrt(s), QUADRATIC_NODES)
        r2 = r * r
        # floor the small-deviation scale: the remainder is a difference of
        # order-one quantities, so probing below ~1e-5 measures roundoff
        scales = (1.0, max(math.log(s) / s**2, 1e-5))
        column = np.array(scales)[:, None]
        q1s, q2s = column * unit[:, 0], column * unit[:, 1]
        b1s, b2s = _rhs.quadratic_b(params, q1s, q2s, _params.phi(params, r2, s))
        ratio1 = []
        ratio2 = []
        for scale, q1, q2, b1, b2 in zip(scales, q1s, q2s, b1s, b2s):
            den1 = q1**2 + q2**2
            den2 = q1**2 / s + np.abs(q1 * q2) + q2**2
            keep = den1 > 1e-300
            ratio1.append(np.max(np.abs(b1[keep]) / den1[keep]))
            ratio2.append(np.max(np.abs(b2[keep]) / den2[keep]))
            if scale == 1.0:
                prod = np.abs(q1 * q2)
                keep2 = prod > 1e-3
                if np.any(keep2):
                    c_q1q2.append(float(np.max(np.abs(b2[keep2]) / prod[keep2])))
        return np.max(ratio1), np.max(ratio2)

    sweeps = _sweep(("B1", "B2"), sups)
    return _envelope_report(
        f"quadratic_bounds_p{params.p}_n{params.n_dim}", sweeps,
        samples=2 * len(S_GRID) * QUADRATIC_NODES, seed=seed,
        notes="uniform and envelope-scaled deviations; ratios against the stated bounds",
        details={"C_q1q2_product": max(c_q1q2)},
    )


def check_rest_bounds(params: _params.Params) -> CheckReport:
    """Origin constants and envelope slope-stability of the profile residual."""
    s_grid = S_GRID
    p = params.p
    n = params.n_dim
    kappa = params.kappa
    c1 = n * (n + 4) * kappa / (8.0 * p)
    c2 = -n * (n + 4) * kappa / (p - 1.0)

    # fitted origin constants from the scaling of R(0, s)
    origin = np.array([_rhs.rest_r(params, np.array([0.0]), s) for s in s_grid])[:, :, 0]
    c1_fit = _diag.line_fit(1.0 / s_grid, origin[:, 0] * s_grid**2)[0]
    c2_fit = _diag.line_fit(1.0 / s_grid, origin[:, 1] * s_grid**3)[0]
    c2_err = abs(c2_fit - c2) / abs(c2)

    def tilde_sups(s):
        # both components less their leading origin terms, weighted
        r = np.linspace(0.0, 2.0 * K * math.sqrt(s), 2001)
        r2 = r * r
        rest1, rest2 = _rhs.rest_r(params, r2, s)
        return (np.max(np.abs(rest1 - c1 / s**2.0) * s**3.0 / (1.0 + r2**2)),
                np.max(np.abs(rest2 - c2 / s**3.0) * s**4.0 / (1.0 + r2**3)))

    def sup_norms(s):
        r = np.linspace(0.0, 20.0 * math.sqrt(s), 2001)
        rest1, rest2 = _rhs.rest_r(params, r * r, s)
        return np.max(np.abs(rest1)) * s, np.max(np.abs(rest2)) * s**2.0

    # the subtracted remainder comes out of cancelling order-one terms, so
    # past s ~ 3e3 the s^3-amplified roundoff floor overtakes it; its sweep
    # stops there while the leading-order fits use the full range
    sweeps = {**_sweep(("R1_tilde", "R2_tilde"), tilde_sups, s_grid[s_grid <= 3e3]),
              **_sweep(("R1_sup", "R2_sup"), sup_norms)}
    return _envelope_report(
        f"rest_bounds_p{p}_n{n}", sweeps, samples=len(s_grid) * 2001, notes=_SLOPE_NOTES,
        extra_ok=c2_err < 0.01, fitted_constant=c2_fit,
        details={
            "c1_fit": c1_fit, "c1_closed_form": c1,
            "c2_fit": c2_fit, "c2_closed_form": c2, "c2_rel_err": c2_err,
        },
    )


def check_complex_identity(p: int, seed: int = 0) -> CheckReport:
    """The split nonlinearity agrees with iterated complex multiplication."""
    rng = np.random.default_rng([seed, p, 7])
    u1 = rng.uniform(-2.0, 2.0, size=COMPLEX_SAMPLES)
    u2 = rng.uniform(-2.0, 2.0, size=COMPLEX_SAMPLES)
    f1, f2 = _rhs.f1f2(u1, u2, p)
    ref = (u1 + 1j * u2) ** p
    scale = np.maximum(np.abs(ref), 1e-300)
    err = np.maximum(np.abs(f1 - ref.real), np.abs(f2 - ref.imag)) / scale
    worst = float(np.max(err))
    return CheckReport(
        check_name=f"complex_identity_p{p}", samples=COMPLEX_SAMPLES,
        worst_residual=worst, passed=worst < 1e-12, seed=seed,
    )


def run_all(ps=(2, 3, 4), ns=(1, 2), seed: int = 0) -> dict:
    """Full certification battery; deterministic given the seed."""
    reports: list[CheckReport] = []
    for p in ps:
        pr = _params.make_params(p, 1)
        reports.extend(check_outer_ode_residuals(pr))
        reports.append(check_b_selection(pr))
        reports.append(check_barB_expansion(pr))
        reports.append(check_complex_identity(p, seed=seed))
        for n in ns:
            prn = _params.make_params(p, n)
            reports.append(check_potential_bounds(prn))
            reports.append(check_quadratic_bounds(prn, seed=seed))
            reports.append(check_rest_bounds(prn))
    all_pass = all(r.passed for r in reports)
    return {
        "seed": seed,
        "all_pass": bool(all_pass),
        "reports": [r.as_dict() for r in reports],
    }

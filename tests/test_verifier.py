"""Certification battery tests with frozen expected values.

The closed-form constants asserted here were derived by hand and
cross-checked against two independent numeric routes (stencil residuals
and an RK4 integrator) before being frozen.  The 7-point stencils here are
the independent oracle of the Taylor-series derivatives (params.Series)
that the verifier takes.
"""

import hashlib
import json
import math
import time

import numpy as np
import pytest

from blowlab import params as bp
from blowlab import rhs as br
from blowlab import verifier as bv


def reports_by_name(reports):
    return {r.check_name: r for r in reports}


# 6th-order centered first and second derivative stencils on 7 points, at the
# roundoff-optimal step eps^{1/7} of a 6th-order formula
D1_COEF = np.array([-1.0, 9.0, -45.0, 0.0, 45.0, -9.0, 1.0]) / 60.0
D2_COEF = np.array([2.0, -27.0, 270.0, -490.0, 270.0, -27.0, 2.0]) / 180.0
DIFF_STEP = float(np.finfo(float).eps ** (1.0 / 7.0))


def _stencil(fn, z, coef):
    """sum_k coef_k fn(z + k h) over the 7 points k = -3..3, h = DIFF_STEP, zero weights skipped."""
    z = np.asarray(z, dtype=float)
    return sum(c * fn(z + k * DIFF_STEP) for k, c in zip(range(-3, 4), coef) if c != 0.0)


def stencil_d1(fn, z):
    """6th-order first derivative of fn at the points z, at step DIFF_STEP."""
    return _stencil(fn, z, D1_COEF) / DIFF_STEP


def stencil_d2(fn, z):
    """6th-order second derivative of fn at the points z, at step DIFF_STEP."""
    return _stencil(fn, z, D2_COEF) / DIFF_STEP**2


class TestStencils:
    def test_first_derivative_exact_on_degree_five(self):
        z = np.linspace(0.5, 3.0, 11)
        got = stencil_d1(lambda x: x**5, z)
        assert np.max(np.abs(got - 5.0 * z**4)) < 1e-9

    def test_second_derivative_exact_on_degree_five(self):
        z = np.linspace(0.5, 3.0, 11)
        got = stencil_d2(lambda x: x**5, z)
        assert np.max(np.abs(got - 20.0 * z**3)) < 1e-6

    def test_transcendental_near_noise_floor(self):
        z = np.linspace(0.5, 3.0, 11)
        got = stencil_d1(np.sin, z)
        assert np.max(np.abs(got - np.cos(z))) < 1e-11


@pytest.mark.parametrize("p", [2, 3, 5, 9])
@pytest.mark.parametrize("kind", bp.OUTER_KINDS)
def test_profile_series_match_the_stencils(p, kind):
    # the series the verifier reads carry the closed form's value bit for bit and
    # its z-derivatives to within the stencils' own error: on sin the 7-point
    # first derivative is 2e-13 off and the second 2e-11 off, and on the profiles
    # the two routes differ by at most 2e-13 and 8e-11
    pr = bp.make_params(p, 1)
    z = bv.Z_SAMPLES
    closed = lambda x: bp.outer_profile(pr, kind, x * x)
    series = bv._in_z(pr, kind, z)
    np.testing.assert_array_equal(series.c[0], closed(z))
    assert np.max(np.abs(series.c[1] - stencil_d1(closed, z))) < 1e-12
    assert np.max(np.abs(2.0 * series.c[2] - stencil_d2(closed, z))) < 1e-9


@pytest.mark.parametrize("p", [2, 3, 4])
def test_exact_profile_residuals_at_noise_floor(p):
    pr = bp.make_params(p, 1)
    by_name = reports_by_name(bv.check_outer_ode_residuals(pr))
    for label in ("R10", "R11", "R21"):
        rep = by_name[f"outer_ode_{label}_p{p}"]
        assert rep.passed
        assert rep.worst_residual < 1e-13


@pytest.mark.parametrize(
    "p, c_alg, c_log_slow, c_log_steep",
    [(p, -(p - 1) / 2.0, (p - 2) / (p - 1), float(p)) for p in range(2, bp.MAX_P + 1)],
)
def test_r22_constants_match_closed_forms(p, c_alg, c_log_slow, c_log_steep):
    # the closed form -(p-1)/2, (p-2)/(p-1), p satisfies its ODE at the roundoff
    # floor, and both the integrator and the least-squares refit agree with it
    rep = bv.fit_r22_constants(bp.make_params(p, 1))
    assert rep.passed
    assert rep.worst_residual < 1e-13
    assert rep.details["integrator_deviation"] < 1e-9
    assert rep.details["fit_deviation"] < 1e-12
    assert rep.details["c_alg"] == pytest.approx(c_alg, abs=1e-12)
    assert rep.details["c_log_slow"] == pytest.approx(c_log_slow, abs=1e-12)
    assert rep.details["c_log_steep"] == pytest.approx(c_log_steep, abs=1e-12)


def test_r22_integrator_is_fourth_order(monkeypatch):
    # the cross-check integrates the ODE: its deviation from the closed form
    # is truncation error, which falls 16x per doubling of an RK4 step count
    pr = bp.make_params(2, 1)
    devs = []
    for steps in (200, 400):
        monkeypatch.setattr(bv, "R22_STEPS", steps)
        devs.append(bv.fit_r22_constants(pr).details["integrator_deviation"])
    assert devs[1] < devs[0] / 10.0


def test_r22_fit_invariant_under_sample_placement(monkeypatch):
    pr = bp.make_params(2, 1)
    a = bv.fit_r22_constants(pr).details
    monkeypatch.setattr(bv, "R22_Z_WINDOW", (0.3, 4.0))
    monkeypatch.setattr(bv, "R22_FIT_SAMPLES", 97)
    b = bv.fit_r22_constants(pr).details
    for key in ("c_alg", "c_log_slow", "c_log_steep"):
        assert abs(a[key] - b[key]) < 1e-12


def test_r22_log_coefficients_are_distinct_for_p_above_two():
    fitted = bv.fit_r22_constants(bp.make_params(3, 1)).details
    assert abs(fitted["c_log_slow"] - fitted["c_log_steep"]) > 1.0


def test_log_term_obstruction_appears_under_perturbation():
    pr = bp.make_params(2, 1)
    by_name = reports_by_name(bv.check_outer_ode_residuals(pr))
    rep = by_name["outer_log_term_obstruction_p2"]
    assert rep.passed
    assert abs(rep.details["coefficient_at_selected_b"]) < 1e-10
    assert rep.details["coefficient_at_perturbed_b"] == pytest.approx(0.0275, abs=1e-9)
    assert rep.details["closed_form_at_perturbed_b"] == pytest.approx(0.0275, abs=1e-12)


class TestCurvatureSelection:
    def test_selected_value_is_exact_root_p2(self):
        rep = bv.check_b_selection(bp.make_params(2, 1))
        assert rep.passed
        assert rep.worst_residual == 0.0
        assert rep.details["at_0.9x"] == pytest.approx(-0.0225, abs=1e-12)
        assert rep.details["at_1.1x"] == pytest.approx(0.0275, abs=1e-12)

    def test_selected_value_is_exact_root_p3(self):
        rep = bv.check_b_selection(bp.make_params(3, 1))
        assert rep.passed
        assert abs(rep.worst_residual) < 1e-14

    def test_off_root_value_frozen(self):
        # 1/z coefficient at p=2 with the constant forced to 0.15
        assert bv.selection_coefficient(2, 0.15) == pytest.approx(0.06, abs=1e-12)

    def test_root_formula_matches_parameter_derivation(self):
        for p in range(2, bp.MAX_P + 1):
            b_star = (p - 1) ** 2 / (4.0 * p)
            assert abs(bv.selection_coefficient(p, b_star)) < 1e-14


@pytest.mark.parametrize(
    "p, want1, want2",
    [
        (2, 1.0, 2.0),
        (3, 2.1213203435596424, 4.242640687119285),
    ],
)
def test_flattened_quadratic_leading_coefficients(p, want1, want2):
    rep = bv.check_barB_expansion(bp.make_params(p, 1))
    assert rep.passed
    assert rep.details["coefficient_1"] == pytest.approx(want1, abs=1e-6)
    assert rep.details["coefficient_2"] == pytest.approx(want2, abs=1e-6)
    assert math.isfinite(rep.details["remainder_ratio_1"])
    assert math.isfinite(rep.details["remainder_ratio_2"])


class TestComplexIdentity:
    def test_square_case_machine_exact(self):
        rep = bv.check_complex_identity(2)
        assert rep.passed
        assert rep.worst_residual < 1e-15

    def test_high_power_within_relative_tolerance(self):
        rep = bv.check_complex_identity(7)
        assert rep.passed
        assert rep.worst_residual < 1e-12

    def test_fifth_power_spot_value(self):
        f1, f2 = br.f1f2(np.array([1.0]), np.array([1.0]), 5)
        assert f1[0] == pytest.approx(-4.0, abs=1e-12)
        assert f2[0] == pytest.approx(-4.0, abs=1e-12)

    @pytest.mark.parametrize("p", [1, bp.MAX_P + 1])
    def test_rejects_unsupported_power(self, p):
        with pytest.raises(ValueError):
            bv.check_complex_identity(p)


@pytest.mark.parametrize("p, n", [(2, 1), (2, 2), (3, 2)])
def test_potential_bounds_pass(p, n):
    rep = bv.check_potential_bounds(bp.make_params(p, n))
    assert rep.passed
    assert rep.details["V_origin_times_s"] == pytest.approx(0.5 * n, rel=1e-4)
    for key in ("V_global", "V_quadratic_over_s", "V_tilde"):
        assert rep.details[key]["bounded"]


@pytest.mark.parametrize("p, n", [(2, 1), (5, 2)])
def test_potential_bounds_read_the_profile_once_per_grid(monkeypatch, p, n):
    # one read on each s's 20 sqrt(s) grid (V and the four V_jk), one on its
    # 2K sqrt(s) grid (V_tilde), and one at the origin
    reads = []
    phi = bp.phi

    def counted(*args):
        reads.append(args)
        return phi(*args)

    for module in (bp, br):  # every module that binds phi
        monkeypatch.setattr(module, "phi", counted)
    bv.check_potential_bounds(bp.make_params(p, n))
    assert len(reads) == 2 * len(bv.S_GRID) + 1


def test_square_case_diagonal_potentials_vanish():
    rep = bv.check_potential_bounds(bp.make_params(2, 1))
    assert rep.details["Vdiag_sup_s2"]["constant"] == 0.0
    assert rep.details["Vdiag_weighted_s4"]["constant"] == 0.0


@pytest.mark.parametrize("p, n", [(2, 1), (3, 1), (4, 2)])
def test_quadratic_bounds_pass(p, n):
    rep = bv.check_quadratic_bounds(bp.make_params(p, n))
    assert rep.passed
    assert rep.details["B1"]["bounded"]
    assert rep.details["B2"]["bounded"]


BATTERY = [(p, n) for p in range(2, 10) for n in (1, 2)]


@pytest.mark.parametrize("seed", range(5))
def test_quadratic_bounds_pass_at_every_seed(seed):
    # the draws sit at fixed z = r/sqrt(s) for the whole sweep, so a seed
    # changes the sampled points, not the s-trend the verdict reads
    failed = [(p, n) for p, n in BATTERY
              if not bv.check_quadratic_bounds(bp.make_params(p, n), seed=seed).passed]
    assert failed == []


def test_quadratic_verdicts_hold_on_a_finer_r_grid(monkeypatch):
    def verdicts():
        reports = [bv.check_quadratic_bounds(bp.make_params(p, n)) for p, n in BATTERY]
        return [(r.passed, r.details["B1"]["bounded"], r.details["B2"]["bounded"])
                for r in reports]

    coarse = verdicts()
    monkeypatch.setattr(bv, "QUADRATIC_NODES", 2 * bv.QUADRATIC_NODES - 1)
    assert verdicts() == coarse


def test_square_case_second_component_is_exact_product():
    rep = bv.check_quadratic_bounds(bp.make_params(2, 1))
    assert rep.details["C_q1q2_product"] == pytest.approx(2.0, abs=1e-9)


@pytest.mark.parametrize(
    "p, n, c2_expected",
    [(2, 1, -5.0), (2, 2, -12.0), (3, 1, -2.5 * 2 ** -0.5)],
)
def test_rest_origin_constants(p, n, c2_expected):
    rep = bv.check_rest_bounds(bp.make_params(p, n))
    assert rep.passed
    assert rep.details["c2_closed_form"] == pytest.approx(c2_expected, rel=1e-12)
    assert rep.details["c2_rel_err"] < 0.01
    c1_expected = n * (n + 4) * bp.make_params(p, n).kappa / (8.0 * p)
    assert rep.details["c1_fit"] == pytest.approx(c1_expected, rel=0.02)


def test_rest_bounds_pass_on_saturating_case():
    # the weighted first-component remainder converges to its envelope
    # constant from below here, exercising the extrapolation branch
    rep = bv.check_rest_bounds(bp.make_params(4, 2))
    assert rep.passed
    assert rep.details["R1_tilde"]["bounded"]


class TestBoundedVerdict:
    def setup_method(self):
        self.s = np.geomspace(10.0, 1e4, 13)

    def test_flat_passes(self):
        assert bv._bounded_verdict(self.s, np.full(13, 3.0))["bounded"]

    def test_decay_passes(self):
        assert bv._bounded_verdict(self.s, 5.0 / self.s**0.5)["bounded"]

    def test_saturation_passes_with_extrapolated_constant(self):
        # late slope 0.095, above SLOPE_TOL, so the saturation branch judges it:
        # the increments shrink by 10^-0.25 a grid step and the limit 2 is
        # extrapolated above the sweep's maximum 1.98
        sups = 2.0 - 200.0 / self.s
        v = bv._bounded_verdict(self.s, sups)
        assert v["bounded"]
        assert v["slope"] > bv.SLOPE_TOL
        assert 1.9 < v["constant"] < 2.3
        assert v["constant"] > max(sups)

    def test_saturation_constant_covers_an_early_spike(self):
        # the late half still rises (slope 0.18) with geometrically shrinking
        # increments, so the limit is extrapolated: about 2.006, above the
        # sweep's maximum 1.94; an early spike of 5.0 then sets the constant
        sups = 2.0 / (1.0 + 300.0 / self.s)
        v = bv._bounded_verdict(self.s, sups)
        assert v["bounded"] and v["slope"] > bv.SLOPE_TOL
        assert max(sups) < v["constant"] < 2.01
        sups[0] = 5.0
        v = bv._bounded_verdict(self.s, sups)
        assert v["bounded"] and v["constant"] == 5.0

    def test_late_drop_to_zero_passes_flat(self):
        # a sup that drops to exactly zero late has a NaN slope; the flat
        # increment test still judges it bounded
        v = bv._bounded_verdict(self.s, [1.0] * 6 + [2.0] + [0.0] * 6)
        assert v["bounded"] and v["constant"] == 2.0 and math.isnan(v["slope"])

    def test_log_growth_fails(self):
        assert not bv._bounded_verdict(self.s, np.log(self.s))["bounded"]

    def test_power_growth_fails(self):
        assert not bv._bounded_verdict(self.s, self.s**0.3)["bounded"]


def test_report_serialization_fields():
    rep = bv.check_b_selection(bp.make_params(2, 1))
    d = rep.as_dict()
    assert set(d) == {
        "name", "samples", "worst_residual", "fitted_constant",
        "pass", "seed", "notes", "details",
    }
    json.dumps(d)


def test_run_all_green_deterministic_and_fast():
    t0 = time.time()
    first = bv.run_all()
    wall = time.time() - t0
    second = bv.run_all()
    assert first["all_pass"]
    assert wall < 60.0
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)
    names = [r["name"] for r in first["reports"]]
    assert len(names) == len(set(names))
    assert first["seed"] == 0


def test_run_all_seed_recorded_in_sampled_checks():
    payload = bv.run_all(ps=(2,), ns=(1,), seed=11)
    assert payload["seed"] == 11
    sampled = [r for r in payload["reports"] if r["seed"] is not None]
    assert sampled
    assert all(r["seed"] == 11 for r in sampled)


# sha256 of json.dumps(run_all(ps=2..9, ns=(1, 2), seed), sort_keys=True), recorded
# when the verifier and rest_r took their derivatives from Taylor series and the
# saturation branch's envelope constant became at least the sweep's maximum; the
# outer_ode_*, r22_fit_*, outer_log_term_obstruction_* and rest_bounds_* reports
# moved then
RUN_ALL_SHA256 = {
    0: "a2accf9863b5ac2ab588973de151c507102ab3acb9c1c7d09094f55efb5e6674",
    5: "22213836c53116a33b9a01fb6a5c341bb3fda5bed88907f78afd79b7a39c244c",
}


@pytest.mark.parametrize("seed", sorted(RUN_ALL_SHA256))
def test_run_all_matches_recorded_bytes(seed):
    # every report of the full battery, bit for bit: a reordering of the
    # floating-point work in any check, or a moved sample, shows here
    payload = bv.run_all(ps=range(2, 10), ns=(1, 2), seed=seed)
    text = json.dumps(payload, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == RUN_ALL_SHA256[seed]

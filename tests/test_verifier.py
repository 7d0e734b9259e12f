"""Certification battery tests with frozen expected values.

The closed-form constants asserted here were derived by hand and
cross-checked against two independent numeric routes (stencil residuals
and an RK4 integrator) before being frozen.
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


class TestStencils:
    def test_first_derivative_exact_on_degree_five(self):
        z = np.linspace(0.5, 3.0, 11)
        got = bv.stencil_d1(lambda x: x**5, z)
        assert np.max(np.abs(got - 5.0 * z**4)) < 1e-9

    def test_second_derivative_exact_on_degree_five(self):
        z = np.linspace(0.5, 3.0, 11)
        got = bv.stencil_d2(lambda x: x**5, z)
        assert np.max(np.abs(got - 20.0 * z**3)) < 1e-6

    def test_transcendental_near_noise_floor(self):
        z = np.linspace(0.5, 3.0, 11)
        got = bv.stencil_d1(np.sin, z)
        assert np.max(np.abs(got - np.cos(z))) < 1e-11


@pytest.mark.parametrize("p", [2, 3, 4])
def test_exact_profile_residuals_at_noise_floor(p):
    pr = bp.make_params(p, 1)
    by_name = reports_by_name(bv.check_outer_ode_residuals(pr))
    for label in ("R10", "R11", "R21"):
        rep = by_name[f"outer_ode_{label}_p{p}"]
        assert rep.passed
        assert rep.worst_residual < 1e-9


@pytest.mark.parametrize(
    "p, c_alg, c_log_slow, c_log_steep",
    [(p, -(p - 1) / 2.0, (p - 2) / (p - 1), float(p)) for p in range(2, bp.MAX_P + 1)],
)
def test_r22_constants_match_closed_forms(p, c_alg, c_log_slow, c_log_steep):
    # the closed form -(p-1)/2, (p-2)/(p-1), p satisfies its ODE at the noise
    # floor, and both the integrator and the least-squares refit agree with it
    rep = bv.fit_r22_constants(bp.make_params(p, 1))
    assert rep.passed
    assert rep.worst_residual < 1e-9
    assert rep.details["integrator_deviation"] < 1e-9
    assert rep.details["fit_deviation"] < 1e-6
    assert rep.details["c_alg"] == pytest.approx(c_alg, abs=1e-6)
    assert rep.details["c_log_slow"] == pytest.approx(c_log_slow, abs=1e-6)
    assert rep.details["c_log_steep"] == pytest.approx(c_log_steep, abs=1e-6)


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
        assert abs(a[key] - b[key]) < 1e-6


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
        v = bv._bounded_verdict(self.s, 2.0 - 100.0 / self.s)
        assert v["bounded"]
        assert 1.9 < v["constant"] < 2.3

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
# when the quadratic-bound check began to reuse its draws at every s; only the
# quadratic_bounds_* reports moved then
RUN_ALL_SHA256 = {
    0: "a5c69690fb7959abd4b24d79ce4c98502c7b4a5e17196614c56d036e0afdad33",
    5: "6e60e2e62beb171e5bcdb25e6c8a9207cbeba92cd1c5a1a0e9d3c3d717afb103",
}


@pytest.mark.parametrize("seed", sorted(RUN_ALL_SHA256))
def test_run_all_matches_recorded_bytes(seed):
    # every report of the full battery, bit for bit: a reordering of the
    # floating-point work in any check, or a moved sample, shows here
    payload = bv.run_all(ps=range(2, 10), ns=(1, 2), seed=seed)
    text = json.dumps(payload, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == RUN_ALL_SHA256[seed]

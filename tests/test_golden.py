"""Golden fingerprints: short CLI runs reproduce recorded fits.json values.

Five short runs go through `cli.run`, each naming its scheme explicitly:
the p=2 similarity configuration of the determinism check (test_9), the
same configuration run to s=35 so that the inner-expansion fits (which come
from the radial mode coefficients) are recorded, a p=3, n=2 similarity cell
with nonzero direction data, the same p=2 configuration under the explicit
RK4 oracle scheme, and a coarse physical collapse (the benchmark's reduced
phys-collapse-1d inputs).  Every float in their
fits.json must match the recorded value to rel 1e-9, however small (the
physical blow-up time is ~1e-11).  The one exception is a mode residual
constant below 1e-9: those sit at roundoff (1e-12 to 1e-15), move with any
reordering of floating-point work, and must match to abs 1e-10.  Every other
entry (counts, flags, status, messages) must match exactly.
The trajectory.csv of the physical run and of the three short similarity
runs is pinned byte for byte by its sha256, which the 1e-9 band cannot
replace: a change in the last bit of any recorded value shows there.  So is
the physical run's fits.json, whose final-profile values u1*, u2* are the
snapshots' four-node cubic reads at the probes and would otherwise be seen
only to 1e-9.
A refactor that only reorders floating-point work passes the fits.json
check; one that moves an answer does not.
"""

import copy
import hashlib
import json
import math

import pytest

from blowlab import cli

REL = 1e-9
# below this magnitude a mode residual constant is roundoff and may move to ABS
ABS_FLOOR = 1e-9
ABS = 1e-10

_SIM_P2 = {
    "mode": "simulate-similarity",
    "params": {"p": 2, "n_dim": 1},
    "grid": {"L": 24.0, "N": 257},
    "solver": {"ds": 5.0e-3, "s0": 25.0, "s_end": 26.0, "record_every": 10,
               "scheme": "semi-implicit"},
    "shrinking_set": {"A": 10.0, "p1": 0.5, "K": 2.0},
    "initial_data": {"d1": 0.0, "d2": 0.0},
    "seed": 0,
}


def _configs():
    sim_p3_n2 = copy.deepcopy(_SIM_P2)
    sim_p3_n2["params"] = {"p": 3, "n_dim": 2}
    sim_p3_n2["grid"] = {"L": 24.0, "N": 65}
    sim_p3_n2["solver"]["s_end"] = 25.5
    sim_p3_n2["initial_data"] = {
        "d1": {"const": 0.3, "lin": [0.2, -0.1]},
        "d2": {"const": -0.4, "lin": [0.1, 0.3], "quad": [[0.0, 0.0], [0.0, 0.0]]},
    }
    sim_p2_n1_long = copy.deepcopy(_SIM_P2)
    sim_p2_n1_long["solver"]["s_end"] = 35.0
    sim_p2_n1_long["solver"]["record_every"] = 20
    sim_p2_n1_rk4 = copy.deepcopy(_SIM_P2)
    sim_p2_n1_rk4["solver"]["scheme"] = "explicit-rk4"
    sim_p2_n1_rk4["solver"]["s_end"] = 25.1
    phys_p2 = {
        "mode": "simulate-physical",
        "params": {"p": 2, "n_dim": 1},
        "grid": {"L": 9e-5, "N": 1801},
        "solver": {"s0": 25.0, "eta": 2e-2, "scheme": "semi-implicit"},
        "shrinking_set": {"A": 10.0, "p1": 0.5, "K": 5.0},
        "initial_data": {"d1": 0.0, "d2": 0.0},
        "physical": {"probe_log_radii": [10.5, 11.0, 11.5]},
        "seed": 0,
    }
    return {
        "sim_p2_n1": copy.deepcopy(_SIM_P2),
        "sim_p2_n1_long": sim_p2_n1_long,
        "sim_p3_n2": sim_p3_n2,
        "sim_p2_n1_rk4": sim_p2_n1_rk4,
        "phys_p2": phys_p2,
    }


# recorded fits.json of each run; "nan" is how write_json spells a
# non-finite float
GOLDEN = {
    "phys_p2": {
        "T_estimate": 1.4272640327424978e-11,
        "T_target": 1.3887943864964021e-11,
        "probes": [
            {
                "converged": True,
                "log_radius": 10.5,
                "ratio_u1_over_prediction": 1.2599020992995276,
                "ratio_u2_lnx_over_u1": 3.295138753916721,
                "u1_star": 279145223694.0613,
                "u2_star": 87602118530.0051,
                "u_star_prediction": 221561043393.18005,
                "x": 2.7536449349747158e-05,
            },
            {
                "converged": True,
                "log_radius": 11.0,
                "ratio_u1_over_prediction": 1.2673401836976776,
                "ratio_u2_lnx_over_u1": 3.350200668634435,
                "u1_star": 799621522472.3573,
                "u2_star": 243535687203.7615,
                "u_star_prediction": 630944660919.1602,
                "x": 1.670170079024566e-05,
            },
            {
                "converged": True,
                "log_radius": 11.5,
                "ratio_u1_over_prediction": 1.3051939654821783,
                "ratio_u2_lnx_over_u1": 3.390388697053797,
                "u1_star": 2340269992125.136,
                "u2_star": 689949993856.9774,
                "u_star_prediction": 1793043834109.798,
                "x": 1.013009359863071e-05,
            },
        ],
        "records": 800,
        "snapshots": 183,
        "status": "receded",
    },
    "sim_p2_n1": {
        "inner": None,
        "inner_skipped": "need at least ~10 units of s (and 8 records) for limit fits",
        "membership": {
            "all_inside": True,
            "final_margins": {
                "q1_0": 0.9999999999999964,
                "q1_e": 0.9993613104558885,
                "q1_j": 0.9999999999999996,
                "q1_jk": 0.9999936252222215,
                "q1_minus": 0.9985747559489896,
                "q2_0": 1.0,
                "q2_e": 0.9998360132950218,
                "q2_j": 1.0,
                "q2_jk": 0.9999999288506661,
                "q2_minus": 0.9994607599766088,
            },
            "min_margin": 0.9985747559489896,
        },
        "mode_residuals": {
            "achieved_exponent_q2_null": "nan",
            "constants": {
                "q1_0": 0.2981800881866175,
                "q1_j": 5.227103620048939e-13,
                "q1_jk": 0.008835700541621506,
                "q2_0": 0.9709407939238146,
                "q2_j": 8.861029428534773e-15,
                "q2_jk": 0.002024873190906108,
            },
        },
        "profile_errors": {
            "e1_final": 0.009649371458788969,
            "e1_slope": -0.9356763706077864,
            "e1_sqrt_s_final": 0.04920233336227023,
            "e2_final": 0.0770669873292337,
            "e2_s_p1_final": 0.1740250307012417,
            "e2_slope": -0.9745843510564686,
        },
    },
    "sim_p2_n1_long": {
        "inner": {
            "c0_tilde": 1.0013758034909763,
            "drift_w1bar": 0.0011094921022957703,
            "drift_w2h2": 0.004001201491215741,
            "target_w1bar": -0.125,
            "w1bar_limit": -0.1170830011568271,
        },
        "membership": {
            "all_inside": True,
            "final_margins": {
                "q1_0": 0.9999999999999953,
                "q1_e": 0.9990244465117685,
                "q1_j": 0.9999999999999996,
                "q1_jk": 0.9997347459115726,
                "q1_minus": 0.998093310587981,
                "q2_0": 1.0,
                "q2_e": 0.9997140294010765,
                "q2_j": 1.0,
                "q2_jk": 0.999999769922926,
                "q2_minus": 0.999316802521695,
            },
            "min_margin": 0.9980421912266894,
        },
        "mode_residuals": {
            "achieved_exponent_q2_null": 12.941383157356446,
            "constants": {
                "q1_0": 0.3013752436696673,
                "q1_j": 6.666660190352119e-13,
                "q1_jk": 0.06674874744222563,
                "q2_0": 0.9622966089559208,
                "q2_j": 1.2414505267499626e-14,
                "q2_jk": 0.0017502776574067661,
            },
        },
        "profile_errors": {
            "e1_final": 0.009347006483042375,
            "e1_slope": -2.895260066020094,
            "e1_sqrt_s_final": 0.05529763608682804,
            "e2_final": 0.06209258771351567,
            "e2_s_p1_final": 0.1510277563329003,
            "e2_slope": -0.7735295587587047,
        },
    },
    "sim_p2_n1_rk4": {
        "inner": None,
        "inner_skipped": "need at least ~10 units of s (and 8 records) for limit fits",
        "membership": {
            "all_inside": True,
            "final_margins": {
                "q1_0": 0.9999999999999978,
                "q1_e": 0.9999278437797867,
                "q1_j": 0.9999999999999998,
                "q1_jk": 0.9999892190846498,
                "q1_minus": 0.9998053129608571,
                "q2_0": 1.0,
                "q2_e": 0.9999786127527337,
                "q2_j": 1.0,
                "q2_jk": 0.9999999769727993,
                "q2_minus": 0.9999366408173667,
            },
            "min_margin": 0.9998053129608571,
        },
        "mode_residuals": {
            "achieved_exponent_q2_null": "nan",
            "constants": {
                "q1_0": 0.2939307569340738,
                "q1_j": 1.0527032107021366e-13,
                "q1_jk": 0.08703900363033636,
                "q2_0": 0.9611006082588565,
                "q2_j": 1.4386533294077712e-15,
                "q2_jk": 0.005766292431480802,
            },
        },
        "profile_errors": {
            "e1_final": 0.00996284760416466,
            "e1_slope": -0.9323425431316376,
            "e1_sqrt_s_final": 0.049913767067149103,
            "e2_final": 0.07971778108541973,
            "e2_s_p1_final": 0.1784323651405814,
            "e2_slope": -0.8832301551952524,
        },
    },
    "sim_p3_n2": {
        "inner": None,
        "inner_skipped": "need at least ~10 units of s (and 8 records) for limit fits",
        "membership": {
            "all_inside": True,
            "final_margins": {
                "q1_0": 0.9999999999999996,
                "q1_e": 0.9978981918211557,
                "q1_j": 0.9999999999999999,
                "q1_jk": 0.9999785691083078,
                "q1_minus": 0.9980968988272619,
                "q2_0": 1.0,
                "q2_e": 0.9939943014193247,
                "q2_j": 1.0,
                "q2_jk": 0.9999999754979976,
                "q2_minus": 0.9946140730770876,
            },
            "min_margin": 0.6000053428366161,
        },
        "mode_residuals": {
            "achieved_exponent_q2_null": "nan",
            "constants": {
                "q1_0": 0.4635223443916249,
                "q1_j": 0.03154480689856565,
                "q1_jk": 0.0372758709967222,
                "q2_0": 2.1472169999725916,
                "q2_j": 0.4384918816757438,
                "q2_jk": 0.002644108264278501,
            },
        },
        "profile_errors": {
            "e1_final": 0.04778875320084491,
            "e1_slope": 0.9310651084544013,
            "e1_sqrt_s_final": 0.24132137447504987,
            "e2_final": 3.401494780694752,
            "e2_s_p1_final": 7.643721481043997,
            "e2_slope": 2.555330690185803,
        },
    },
}


# sha256 of trajectory.csv (17 significant digits): per-step t, dt, max|u|,
# argmax and probe values of the physical run, the records of the similarity runs
GOLDEN_CSV_SHA256 = {
    "sim_p2_n1": "5f3b04d56afd108fab0c4b1796d5420ef2a561f709d92ff9d3090760062d9d97",
    "sim_p2_n1_rk4": "640fa4012a7ea33044bbfc577a4a1f7ec4338d46409ba6a703ef5849bcae9237",
    "sim_p3_n2": "320c97c6e4898b8194bb2a351cfad8291d064e8d6ada48b8164d5eab944c7fcf",
    "phys_p2": "c94840e4ac1eb5df43f36894fa00eaf73d1ec10b2aba69ba44d1cf50198f92d9",
}


# sha256 of fits.json where the 1e-9 band is too coarse: the final-profile
# values u1*, u2* of the physical run in their last bit, as the probes'
# four-node cubics read them
GOLDEN_FITS_SHA256 = {
    "phys_p2": "3775c85efd2745d93944bab98a5ba1c089bbe19ec942694f96d0f09bd90476ea",
}


def _mismatches(got, want, where):
    if isinstance(want, float):
        if isinstance(got, bool) or not isinstance(got, (int, float)):
            return [f"{where}: {got!r} is not a number"]
        roundoff = ".mode_residuals." in where and abs(want) < ABS_FLOOR
        tol = ABS if roundoff else REL * abs(want)
        if not (math.isfinite(got) and abs(got - want) <= tol):
            return [f"{where}: {got!r} != {want!r} (tolerance {tol:.1e})"]
        return []
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{where}: keys {sorted(got) if isinstance(got, dict) else got!r} "
                    f"!= {sorted(want)}"]
        return [m for k in want for m in _mismatches(got[k], want[k], f"{where}.{k}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{where}: {got!r} != {want!r}"]
        return [m for i, (g, w) in enumerate(zip(got, want))
                for m in _mismatches(g, w, f"{where}[{i}]")]
    return [] if got == want and type(got) is type(want) else [f"{where}: {got!r} != {want!r}"]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_fits_match_golden(name, tmp_path):
    raw = _configs()[name]
    raw["output_dir"] = str(tmp_path / name)
    assert cli.run(cli.config_from_dict(raw)) == 0
    with open(tmp_path / name / "fits.json") as fh:
        fits = json.load(fh)
    bad = _mismatches(fits, GOLDEN[name], name)
    assert not bad, "\n".join(bad)


@pytest.mark.parametrize("name", sorted(GOLDEN_CSV_SHA256))
def test_trajectory_csv_matches_golden(name, tmp_path):
    raw = _configs()[name]
    raw["output_dir"] = str(tmp_path / name)
    assert cli.run(cli.config_from_dict(raw)) == 0
    data = (tmp_path / name / "trajectory.csv").read_bytes()
    assert hashlib.sha256(data).hexdigest() == GOLDEN_CSV_SHA256[name]


@pytest.mark.parametrize("name", sorted(GOLDEN_FITS_SHA256))
def test_fits_json_matches_golden_bytes(name, tmp_path):
    raw = _configs()[name]
    raw["output_dir"] = str(tmp_path / name)
    assert cli.run(cli.config_from_dict(raw)) == 0
    data = (tmp_path / name / "fits.json").read_bytes()
    assert hashlib.sha256(data).hexdigest() == GOLDEN_FITS_SHA256[name]


def test_comparison_catches_a_moved_value():
    moved = copy.deepcopy(GOLDEN["sim_p2_n1"])
    moved["profile_errors"]["e1_final"] *= 1.0 + 10.0 * REL
    assert _mismatches(moved, GOLDEN["sim_p2_n1"], "sim_p2_n1")
    moved = copy.deepcopy(GOLDEN["sim_p2_n1"])
    moved["mode_residuals"]["constants"]["q2_j"] += 0.5 * ABS
    assert not _mismatches(moved, GOLDEN["sim_p2_n1"], "sim_p2_n1")

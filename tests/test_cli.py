"""Tests for the batch front end.

Covers configuration parsing (exhaustive error reporting, cross-field
constraints, direction normalization), the artifact contract of each mode
(run_header.json, fits.json, trajectory.csv, sweep tables), byte-level
determinism of reruns, error.json on runtime failure, and the exit-code
scheme of the command line entry point.

The simulation runs here are deliberately tiny (short windows, coarse
grids, a reduced localization constant K) so the whole file stays fast;
quantitative quality of the numerics is covered elsewhere.
"""

import copy
import hashlib
import io
import json
import math
import multiprocessing
import os
import signal
import subprocess
import sys
import unittest
from concurrent import futures
from contextlib import redirect_stderr

import numpy as np
import pytest

from blowlab import cli
from blowlab import diagnostics
from blowlab import params as params_mod
from blowlab import rhs
from blowlab import spectral

TINY = {
    "mode": "simulate-similarity",
    "params": {"p": 2, "n_dim": 1},
    "grid": {"L": 24.0, "N": 257},
    "solver": {"ds": 5.0e-3, "s0": 25.0, "s_end": 26.0, "record_every": 10},
    "shrinking_set": {"A": 10.0, "p1": 0.5, "K": 2.0},
    "initial_data": {"d1": 0.0, "d2": 0.0},
    "seed": 0,
}

_REAL_RUN_SIMILARITY = cli._run_similarity


def _boom_on_p3(config):
    if config.p == 3:
        raise RuntimeError("injected failure for p=3")
    return _REAL_RUN_SIMILARITY(config)


class InProcessPool:
    """Stands in for ProcessPoolExecutor: maps in this process and records the size asked for."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


def tiny_raw(**top_level):
    raw = copy.deepcopy(TINY)
    raw.update(top_level)
    return raw


def _set_in(raw, dotted, value):
    node = raw
    *head, last = dotted.split(".")
    for key in head:
        node = node.setdefault(key, {})
    node[last] = value
    return raw


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("tiny_sim") / "run"
    config = cli.config_from_dict(tiny_raw(output_dir=str(out)))
    code = cli.run(config)
    return code, config, out


class TestConfigParsing:
    def test_minimal_verify_config_fills_defaults(self):
        config = cli.config_from_dict({"mode": "verify", "params": {"p": 3}})
        assert config.n_dim == 1
        assert config.scheme == "semi-implicit"
        assert config.pin is True
        assert config.eta == pytest.approx(2.5e-4)
        assert config.A == 10.0 and config.p1 == 0.5 and config.K == 5.0
        assert config.probe_log_radii == (10.0, 12.0, 14.0)
        assert config.sweep_ps == (2, 3, 4) and config.sweep_ns == (1, 2)
        assert config.output_dir == "out"
        assert config.seed == 0 and config.workers == 2

    def test_all_violations_reported_at_once(self):
        raw = {
            "mode": "simulate-similarity",
            "params": {"p": 11},
            "grid": {"L": 10.0, "N": 64},
            "solver": {"ds": 0.02, "s0": 25.0, "s_end": 60.0,
                       "eta": 0.5, "foo": 1},
            "extra": True,
        }
        with pytest.raises(cli.ConfigError) as info:
            cli.config_from_dict(raw)
        messages = info.value.errors
        assert len(messages) == 7
        joined = "\n".join(messages)
        assert "params.p" in joined
        assert "grid.N" in joined
        assert "solver.eta" in joined
        assert "2*K*sqrt(s_end)" in joined
        assert "semi-implicit scheme requires" in joined
        assert "unknown key solver.foo" in joined
        assert "unknown key <root>.extra" in joined

    def test_unknown_section_key_rejected(self):
        raw = tiny_raw()
        raw["params"]["bogus"] = 1
        with pytest.raises(cli.ConfigError) as info:
            cli.config_from_dict(raw)
        assert any("unknown key params.bogus" in m for m in info.value.errors)

    @pytest.mark.parametrize(
        "dotted, value, fragment",
        [
            ("params.p", 2.5, "params.p must be an integer"),
            ("grid.L", "wide", "grid.L must be a number"),
            ("solver.pin", "yes", "solver.pin must be true or false"),
            ("solver.s0", 0.5, "solver.s0 must be >= 1"),
            ("solver.record_every", 0, "solver.record_every must be >= 1"),
            ("shrinking_set.p1", 1.5, "shrinking_set.p1 must lie in (0, 1)"),
            ("seed", -1, "seed must be >= 0"),
        ],
    )
    def test_field_violation_messages(self, dotted, value, fragment):
        raw = _set_in(tiny_raw(), dotted, value)
        with pytest.raises(cli.ConfigError) as info:
            cli.config_from_dict(raw)
        assert any(fragment in m for m in info.value.errors)

    def test_cfl_precheck_rejects_coarse_step_on_fine_grid(self):
        raw = tiny_raw()
        raw["grid"] = {"L": 24.0, "N": 8193}
        raw["solver"]["ds"] = 0.1
        raw["solver"]["scheme"] = "explicit-rk4"
        with pytest.raises(cli.ConfigError) as info:
            cli.config_from_dict(raw)
        assert any("CFL pre-check" in m for m in info.value.errors)

    def test_scalar_directions_normalize(self):
        config = cli.config_from_dict(tiny_raw(initial_data={"d1": 0.5, "d2": -0.25}))
        assert config.d1 == {"const": 0.5, "lin": [0.0]}
        assert config.d2 == {"const": -0.25, "lin": [0.0], "quad": [[0.0]]}

    def test_mapping_directions_normalize_in_two_dimensions(self):
        raw = tiny_raw()
        raw["params"]["n_dim"] = 2
        raw["grid"]["N"] = 65
        raw["initial_data"] = {
            "d1": {"const": 0.1, "lin": [0.2, -0.2]},
            "d2": {"quad": [[0.3, 0.1], [0.1, -0.3]]},
        }
        config = cli.config_from_dict(raw)
        assert config.d1 == {"const": 0.1, "lin": [0.2, -0.2]}
        assert config.d2["const"] == 0.0
        assert config.d2["quad"] == [[0.3, 0.1], [0.1, -0.3]]

    @pytest.mark.parametrize(
        "initial_data, n_dim, fragment",
        [
            ({"d1": {"lin": [0.1, 0.2]}}, 1, "list of 1 numbers"),
            ({"d1": {"quad": [[0.1]]}}, 1, "does not take a quad entry"),
            ({"d2": {"quad": [[0.0, 0.5], [0.1, 0.0]]}}, 2, "must be symmetric"),
            ({"d1": 3.0}, 1, "entries must lie in [-2, 2]"),
            ({"d1": [0.1]}, 1, "must be a number or a mapping"),
        ],
    )
    def test_direction_violations(self, initial_data, n_dim, fragment):
        raw = tiny_raw(initial_data=initial_data)
        raw["params"]["n_dim"] = n_dim
        with pytest.raises(cli.ConfigError) as info:
            cli.config_from_dict(raw)
        assert any(fragment in m for m in info.value.errors)

    def test_similarity_mode_requires_grid_and_window(self):
        with pytest.raises(cli.ConfigError) as info:
            cli.config_from_dict({"mode": "simulate-similarity", "params": {"p": 2}})
        joined = "\n".join(info.value.errors)
        for key in ("grid.L", "grid.N", "solver.ds", "solver.s0", "solver.s_end"):
            assert f"missing required key {key}" in joined

    def test_physical_mode_does_not_require_window(self):
        raw = {
            "mode": "simulate-physical",
            "params": {"p": 2, "n_dim": 1},
            "grid": {"L": 0.5, "N": 1025},
            "solver": {"s0": 10.0},
            "physical": {"probe_log_radii": [4.0, 5.0]},
        }
        config = cli.config_from_dict(raw)
        assert config.mode == "simulate-physical"
        assert config.s_end is None

    def test_physical_mode_requires_one_dimension(self):
        raw = {
            "mode": "simulate-physical",
            "params": {"p": 2, "n_dim": 2},
            "grid": {"L": 0.5, "N": 65},
            "solver": {"s0": 10.0},
        }
        with pytest.raises(cli.ConfigError) as info:
            cli.config_from_dict(raw)
        assert any("n_dim = 1 only" in m for m in info.value.errors)

    def test_probe_outside_grid_rejected(self):
        raw = {
            "mode": "simulate-physical",
            "params": {"p": 2, "n_dim": 1},
            "grid": {"L": 0.2, "N": 1025},
            "solver": {"s0": 10.0},
            "physical": {"probe_log_radii": [1.0]},
        }
        with pytest.raises(cli.ConfigError) as info:
            cli.config_from_dict(raw)
        assert any("outside the grid" in m for m in info.value.errors)

    def test_overrides_apply(self):
        config = cli.config_from_dict(
            tiny_raw(), overrides={"out": "elsewhere", "seed": 7, "workers": 5}
        )
        assert config.output_dir == "elsewhere"
        assert config.seed == 7
        assert config.workers == 5

    @pytest.mark.parametrize("overrides, message", [
        ({"seed": "3"}, "override.seed must be an integer, got '3'"),
        ({"seed": True}, "override.seed must be an integer, got True"),
        ({"seed": 2.5}, "override.seed must be an integer, got 2.5"),
        ({"workers": 1.5}, "override.workers must be an integer, got 1.5"),
        ({"out": 7}, "override.out must be a string, got 7"),
        ({"out": ""}, "output_dir must not be empty, got ''"),
    ], ids=["seed-str", "seed-bool", "seed-float", "workers-float", "out-int", "out-empty"])
    def test_override_validated_like_the_value_it_replaces(self, overrides, message):
        given = dict(overrides)
        with pytest.raises(cli.ConfigError) as info:
            cli.config_from_dict({"mode": "verify"}, given)
        assert info.value.errors == [message]
        assert given == overrides

    def test_config_hash_stable_and_sensitive(self):
        a = cli.config_from_dict(tiny_raw())
        b = cli.config_from_dict(tiny_raw())
        c = cli.config_from_dict(tiny_raw(seed=1))
        assert cli.config_hash(a) == cli.config_hash(b)
        assert cli.config_hash(a) != cli.config_hash(c)
        assert len(cli.config_hash(a)) == 16
        assert set(cli.config_hash(a)) <= set("0123456789abcdef")

    def test_as_dict_round_trips_through_parser(self):
        config = cli.config_from_dict(tiny_raw())
        again = cli.config_from_dict(config.as_dict())
        assert again == config


class TestSimilarityArtifacts:
    def test_run_succeeds(self, tiny_run):
        code, _, _ = tiny_run
        assert code == 0

    def test_header_contents(self, tiny_run):
        _, config, out = tiny_run
        with open(out / "run_header.json") as fh:
            header = json.load(fh)
        assert header["artifact_version"] == cli.ARTIFACT_VERSION
        assert header["config_hash"] == cli.config_hash(config)
        reparsed = cli.config_from_dict(header["config"])
        assert cli.config_hash(reparsed) == header["config_hash"]

    def test_fits_schema_and_values(self, tiny_run):
        _, config, out = tiny_run
        with open(out / "fits.json") as fh:
            fits = json.load(fh)
        pe = fits["profile_errors"]
        for key in ("e1_final", "e2_final", "e1_sqrt_s_final", "e2_s_p1_final",
                    "e1_slope", "e2_slope"):
            assert key in pe
        assert pe["e1_final"] > 0
        mem = fits["membership"]
        assert mem["all_inside"] is True
        assert mem["min_margin"] > 0
        bounds = diagnostics.shrinking_set_bounds(rhs.InitialDataParams(A=10.0, s0=25.0, p1=0.5), 26.0)
        assert set(mem["final_margins"]) == set(bounds)
        # a one-unit window is too short for the inner fit, which must be
        # reported as skipped rather than silently absent
        assert fits["inner"] is None
        assert "inner_skipped" in fits
        res = fits["mode_residuals"]
        assert res is not None
        assert "achieved_exponent_q2_null" in res
        assert set(res["constants"])

    def test_trajectory_csv_parses(self, tiny_run):
        _, _, out = tiny_run
        table = np.genfromtxt(out / "trajectory.csv", delimiter=",", names=True)
        assert "s" in table.dtype.names
        s = np.atleast_1d(table["s"])
        assert len(s) >= 20
        assert np.all(np.diff(s) > 0)
        assert s[0] == pytest.approx(25.0)

    def test_sparse_records_skip_mode_residuals(self, tmp_path):
        # records 0.2 apart are too sparse for the centered differences of the
        # mode residuals: the run still exits 0 and says why they are missing
        raw = tiny_raw(output_dir=str(tmp_path / "out"))
        raw["solver"]["record_every"] = 40
        code, err = _main_on(raw, tmp_path, "simulate")
        assert (code, err) == (0, "")
        fits = json.loads((tmp_path / "out" / "fits.json").read_text())
        assert fits["mode_residuals"] is None
        assert fits["mode_residuals_skipped"].startswith(
            "record spacing up to 0.2000 exceeds 0.1; ")

    def test_margins_computed_once_per_record(self, tmp_path, monkeypatch):
        calls = []
        real = diagnostics.in_shrinking_set

        def counted(rec, idp):
            calls.append(float(rec["s"]))
            return real(rec, idp)

        monkeypatch.setattr(diagnostics, "in_shrinking_set", counted)
        out = tmp_path / "once"
        assert cli.run(cli.config_from_dict(tiny_raw(output_dir=str(out)))) == 0
        rows = (out / "trajectory.csv").read_text().splitlines()[1:]
        assert len(calls) == len(rows) == len(set(calls))

    def test_rerun_is_byte_identical(self, tiny_run):
        _, config, out = tiny_run
        names = ("run_header.json", "fits.json", "trajectory.csv")
        before = {n: (out / n).read_bytes() for n in names}
        assert cli.run(config) == 0
        after = {n: (out / n).read_bytes() for n in names}
        assert before == after


class TestVerifyMode:
    def test_restricted_battery(self, tmp_path):
        raw = {
            "mode": "verify",
            "params": {"p": 3, "n_dim": 2},
            "output_dir": str(tmp_path / "v"),
        }
        config = cli.config_from_dict(raw)
        assert cli.run(config) == 0
        with open(tmp_path / "v" / "verify_report.json") as fh:
            payload = json.load(fh)
        assert payload["all_pass"] is True
        names = [r["name"] for r in payload["reports"]]
        assert len(names) == len(set(names))
        assert all("p3" in n for n in names)
        assert 5 < len(names) < 42

    def test_verify_subcommand_without_config_runs_full_battery(self, tmp_path):
        out = tmp_path / "battery"
        code = cli.main(["verify", "--out", str(out)])
        assert code == 0
        with open(out / "verify_report.json") as fh:
            payload = json.load(fh)
        assert payload["all_pass"] is True
        assert len(payload["reports"]) == 42
        # the header names the run: no p or n_dim (the default battery), no grid keys
        with open(out / "run_header.json") as fh:
            header = json.load(fh)
        assert "params" not in header["config"] and "grid" not in header["config"]
        again = cli.config_from_dict(header["config"])
        assert again.p is None
        assert cli.config_hash(again) == header["config_hash"]


def _sweep_digests(out):
    """sha256 (first 16 hex digits) of a sweep's tables and of each cell's fits.json and
    trajectory.csv; run headers embed the output directory, so they are left out."""
    names = ["sweep_summary.json", "sweep_table.csv"] + sorted(
        f"{cell.name}/{name}" for cell in out.iterdir() if cell.is_dir()
        for name in ("fits.json", "trajectory.csv") if (cell / name).exists())
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest()[:16] for name in names}


# _sweep_digests of the four-cell sweep ps [2, 3], ns [1, 2] on TINY (N_2d 65),
# at d1 = 0 and d1 = 0.5, and at d1 = 0 with the p = 3 cells failing; and of
# ps [2, 3], ns [1] over s 25 -> 35 at d1 = 0.3, d2 = 0.1, where the inner fit runs
SWEEP_SHA256 = {
    "inner fits": {
        "sweep_summary.json": "a9761d44c3b475c6",
        "sweep_table.csv": "3e587629ac4e6581",
        "p2_n1/fits.json": "99fc8366efaa6830",
        "p2_n1/trajectory.csv": "a6d26d7da437da11",
        "p3_n1/fits.json": "08b544adc7226468",
        "p3_n1/trajectory.csv": "f0e497087460e6b3",
    },
    0.0: {
        "sweep_summary.json": "82b2c0e1ff4e12bb",
        "sweep_table.csv": "1ea3f912168cf222",
        "p2_n1/fits.json": "72313c8f889a7b0f",
        "p2_n1/trajectory.csv": "5f3b04d56afd108f",
        "p2_n2/fits.json": "2170243f06ab12a0",
        "p2_n2/trajectory.csv": "d46549cc1d994157",
        "p3_n1/fits.json": "c2e9853914c7fc0b",
        "p3_n1/trajectory.csv": "8ab344815227cf7a",
        "p3_n2/fits.json": "3d43a926a2c3a888",
        "p3_n2/trajectory.csv": "f7bb6cde9e23b89b",
    },
    0.5: {
        "sweep_summary.json": "3b033c320db0d412",
        "sweep_table.csv": "8cf7b7468e3f22ea",
        "p2_n1/fits.json": "98d833c3bcdcd0b6",
        "p2_n1/trajectory.csv": "9e6f3e71745e3596",
        "p2_n2/fits.json": "99394738bf6a9d3a",
        "p2_n2/trajectory.csv": "7f1acb73e5dc1306",
        "p3_n1/fits.json": "2acd0c6bd26c8f87",
        "p3_n1/trajectory.csv": "026f7f75b388e8fb",
        "p3_n2/fits.json": "829605efde07781c",
        "p3_n2/trajectory.csv": "2d5a8492269340c8",
    },
    "p3 fails": {
        "sweep_summary.json": "c466da900c44f37f",
        "sweep_table.csv": "c10066aad799659d",
        "p2_n1/fits.json": "72313c8f889a7b0f",
        "p2_n1/trajectory.csv": "5f3b04d56afd108f",
        "p2_n2/fits.json": "2170243f06ab12a0",
        "p2_n2/trajectory.csv": "d46549cc1d994157",
    },
}


class TestSweepMode:
    def _sweep_raw(self, out, ps, ns, workers=2):
        raw = tiny_raw(output_dir=str(out), workers=workers)
        raw["mode"] = "sweep"
        raw["sweep"] = {"ps": ps, "ns": ns, "N_2d": 65}
        return raw

    def test_single_child_sweep(self, tmp_path):
        config = cli.config_from_dict(
            self._sweep_raw(tmp_path / "sw", ps=[2], ns=[1], workers=1)
        )
        assert cli.run(config) == 0
        with open(tmp_path / "sw" / "sweep_summary.json") as fh:
            summary = json.load(fh)
        assert summary["all_ok"] is True
        assert summary["count"] == 1
        row = summary["runs"][0]
        assert row["status"] == "ok"
        assert row["p"] == 2 and row["n_dim"] == 1
        assert row["min_margin"] > 0
        assert isinstance(row["e1_slope"], float)
        # the short window skips the inner fit, so those cells are null
        assert row["w1bar_limit"] is None
        child = tmp_path / "sw" / "p2_n1"
        assert (child / "fits.json").exists()
        assert (child / "run_header.json").exists()
        lines = (tmp_path / "sw" / "sweep_table.csv").read_text().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("p,n_dim,status,")

    def test_pool_gets_no_more_workers_than_cells(self, tmp_path, monkeypatch):
        # a fork pool starts all of its workers at once; the fake runs the
        # cells in this process and records the size it was asked for
        monkeypatch.setattr(InProcessPool, "sizes", [])
        monkeypatch.setattr(futures, "ProcessPoolExecutor", InProcessPool)
        config = cli.config_from_dict(
            self._sweep_raw(tmp_path / "sw", ps=[2], ns=[1], workers=64)
        )
        assert cli.run(config) == 0
        assert InProcessPool.sizes == [1]

    @pytest.mark.parametrize("d1", [0.0, 0.5])
    def test_sweep_bytes_pinned(self, tmp_path, d1):
        raw = self._sweep_raw(tmp_path / "sw", ps=[2, 3], ns=[1, 2])
        raw["initial_data"]["d1"] = d1
        assert cli.run(cli.config_from_dict(raw)) == 0
        assert _sweep_digests(tmp_path / "sw") == SWEEP_SHA256[d1]

    def test_sweep_forked_after_a_2d_run_in_process(self, tmp_path):
        # a 2-D run in one process, then a sweep whose pool forks its cells from
        # it: a helper thread left alive by the run would be missing in the
        # forked n = 2 cell, which would wait for it forever
        single = tiny_raw(output_dir=str(tmp_path / "one"))
        single["params"]["n_dim"], single["grid"]["N"] = 2, 65
        sweep = self._sweep_raw(tmp_path / "sw", ps=[2], ns=[1, 2])
        code = ("import json, sys\nfrom blowlab import cli\n"
                "for raw in json.loads(sys.argv[1]):\n"
                "    assert cli.run(cli.config_from_dict(raw)) == 0\n")
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.Popen(
            [sys.executable, "-c", code, json.dumps([single, sweep])], env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True)
        try:
            _, err = proc.communicate(timeout=120)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)  # the forked cells too
            proc.communicate()
            pytest.fail("the sweep after a 2-D run in the same process hung")
        assert proc.returncode == 0, err

    def test_sweep_with_inner_fits_bytes_pinned(self, tmp_path):
        # s 25 -> 35 is wide enough for the inner fit, so its columns are filled
        raw = self._sweep_raw(tmp_path / "sw", ps=[2, 3], ns=[1])
        raw["solver"].update(s_end=35.0)
        raw["initial_data"] = {"d1": 0.3, "d2": 0.1}
        assert cli.run(cli.config_from_dict(raw)) == 0
        assert _sweep_digests(tmp_path / "sw") == SWEEP_SHA256["inner fits"]

    def test_failed_cell_bytes_pinned(self, tmp_path, monkeypatch):
        # the cells run in this process, so the patch reaches them under any
        # multiprocessing start method
        monkeypatch.setattr(futures, "ProcessPoolExecutor", InProcessPool)
        monkeypatch.setattr(cli, "_run_similarity", _boom_on_p3)
        out = tmp_path / "swf"
        config = cli.config_from_dict(self._sweep_raw(out, ps=[2, 3], ns=[1, 2]))
        assert cli.run(config) == 1
        with open(out / "sweep_summary.json") as fh:
            rows = json.load(fh)["runs"]
        assert [row["status"] for row in rows] == ["ok", "ok", "failed", "failed"]
        for row in rows[2:]:
            assert row["error"] == "injected failure for p=3"
            with open(out / row["out_dir"] / "error.json") as fh:
                assert json.load(fh)["message"] == row["error"]
        assert _sweep_digests(out) == SWEEP_SHA256["p3 fails"]

    def test_empty_sweep_is_ok(self, tmp_path):
        config = cli.config_from_dict(
            self._sweep_raw(tmp_path / "sw0", ps=[], ns=[1])
        )
        assert cli.run(config) == 0
        with open(tmp_path / "sw0" / "sweep_summary.json") as fh:
            summary = json.load(fh)
        assert summary == {"all_ok": True, "count": 0, "runs": []}
        lines = (tmp_path / "sw0" / "sweep_table.csv").read_text().splitlines()
        assert len(lines) == 1

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="failure injection relies on fork inheriting the patched module",
    )
    def test_partial_failure_marks_row_and_exits_nonzero(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "_run_similarity", _boom_on_p3)
        config = cli.config_from_dict(
            self._sweep_raw(tmp_path / "swf", ps=[2, 3], ns=[1])
        )
        assert cli.run(config) == 1
        with open(tmp_path / "swf" / "sweep_summary.json") as fh:
            summary = json.load(fh)
        assert summary["all_ok"] is False
        by_p = {row["p"]: row for row in summary["runs"]}
        assert by_p[2]["status"] == "ok"
        assert by_p[3]["status"] == "failed"
        assert by_p[3]["error"] == "injected failure for p=3"
        table = (tmp_path / "swf" / "sweep_table.csv").read_text()
        assert "failed" in table


class TestRuntimeFailure:
    def test_error_json_written_and_exit_4(self, tmp_path, monkeypatch):
        def explode(config):
            raise ValueError("synthetic runtime failure")

        monkeypatch.setattr(cli, "_run_similarity", explode)
        config = cli.config_from_dict(tiny_raw(output_dir=str(tmp_path / "boom")))
        assert cli.run(config) == 4
        with open(tmp_path / "boom" / "error.json") as fh:
            err = json.load(fh)
        assert err == {"error": "ValueError", "message": "synthetic runtime failure"}
        # the header is written before dispatch, so a failed run is still
        # attributable to its configuration
        assert (tmp_path / "boom" / "run_header.json").exists()


class TestPhysicalMode:
    def _fake_trajectory(self, grid, probes):
        axis = grid.axis()
        bump = np.exp(-((axis / 0.1) ** 2))
        ptraj = diagnostics.PhysicalTrajectory(
            grid=grid, probes=np.asarray(probes), T_estimate=1.0, status="ok",
        )
        for k, t in enumerate((0.5, 0.7, 0.9)):
            ptraj.add(t, 0.01, 2.0 + k, (8,), np.full(len(probes), 2.0 + 1.0j))
        for t, growth in ((0.9, 1.0), (0.95, 1.0), (0.975, 2.0)):
            ptraj.keep_snapshot(t, 2.0 + growth * bump + 1j * np.full_like(axis, 1.0))
        return ptraj

    def test_plumbing_with_stubbed_evolution(self, tmp_path, monkeypatch):
        grid = spectral.Grid(1, 0.5, 17)
        holder = {}

        def fake_run(u0, pr, **kwargs):
            ptraj = self._fake_trajectory(grid, kwargs["probes"])
            holder["ptraj"] = ptraj
            return ptraj

        monkeypatch.setattr(cli._solver, "run_physical_blowup", fake_run)
        raw = {
            "mode": "simulate-physical",
            "params": {"p": 2, "n_dim": 1},
            "grid": {"L": 0.5, "N": 17},
            "solver": {"s0": 3.0},
            "physical": {"probe_log_radii": [1.0, 2.0]},
            "output_dir": str(tmp_path / "phys"),
        }
        config = cli.config_from_dict(raw)
        assert cli.run(config) == 0

        with open(tmp_path / "phys" / "fits.json") as fh:
            fits = json.load(fh)
        assert fits["T_estimate"] == 1.0
        assert fits["T_target"] == pytest.approx(math.exp(-3.0))
        assert fits["status"] == "ok"
        assert fits["records"] == 3 and fits["snapshots"] == 3

        outer, inner = fits["probes"]
        # at x = e^{-1} the bump has died off, so the dyadic samples agree; the
        # fits carry the last snapshot's values at the probe, read by its cubic
        # on this 17-node grid, and u2 = 1 everywhere
        _, last = holder["ptraj"].snapshots[-1]
        assert outer["log_radius"] == 1.0
        assert outer["converged"] is True
        assert (outer["u1_star"], outer["u2_star"]) == (last[0].real, 1.0)
        assert outer["ratio_u2_lnx_over_u1"] == 1.0 / outer["u1_star"]
        assert outer["ratio_u1_over_prediction"] == pytest.approx(
            outer["u1_star"] / outer["u_star_prediction"], rel=1e-12
        )
        # at x = e^{-2} the last two dyadic samples differ by the bump growth
        assert inner["converged"] is False
        assert inner["reason"] == (
            "u1(0.1353352832366127) not Cauchy-converged: last dyadic samples "
            "2.16367 and 2.32734 differ by more than 1%")

        lines = (tmp_path / "phys" / "trajectory.csv").read_text().splitlines()
        assert lines[0] == ("t,dt,max_u,argmax_0,"
                            "probe0_u1,probe0_u2,probe1_u1,probe1_u2")
        assert len(lines) == 4

    def test_u_star_prediction_spot_values(self):
        pr = params_mod.make_params(2, 1)
        x = math.exp(-10.0)
        assert params_mod.final_profile_prediction(pr, x)[0] == pytest.approx(
            160.0 * math.exp(20.0), rel=1e-12
        )
        pr3 = params_mod.make_params(3, 1)
        expect = (4.0 * x * x / (24.0 * 10.0)) ** -0.5
        assert params_mod.final_profile_prediction(pr3, x)[0] == pytest.approx(
            expect, rel=1e-12
        )

    def test_physical_csv_thins_long_runs(self, tmp_path):
        grid = spectral.Grid(1, 0.5, 17)
        ptraj = diagnostics.PhysicalTrajectory(
            grid=grid, probes=np.array([]), T_estimate=None,
        )
        for k in range(12003):
            ptraj.add(float(k), 1.0, 1.0, (0,), ())
        path = tmp_path / "long.csv"
        diagnostics.write_physical_csv(ptraj, str(path))
        lines = path.read_text().splitlines()
        # stride 3 keeps indices 0, 3, ..., 12000, plus the appended last row
        assert len(lines) == 1 + 4001 + 1
        assert lines[-1].split(",")[0] == diagnostics._fmt(12002.0)


class TestMainEntry(unittest.TestCase):
    def _main_with_stderr(self, argv):
        err = io.StringIO()
        with redirect_stderr(err):
            code = cli.main(argv)
        return code, err.getvalue()

    def test_subcommand_is_required(self):
        with self.assertRaises(SystemExit):
            cli.main([])

    def test_simulate_requires_config(self):
        code, err = self._main_with_stderr(["simulate"])
        self.assertEqual(code, 2)
        payload = json.loads(err)
        self.assertEqual(payload["error"], "ConfigError")
        self.assertIn("--config is required", payload["messages"][0])

    def test_missing_config_file_exits_2(self):
        code, err = self._main_with_stderr(
            ["simulate", "--config", "/nonexistent/run.yaml"]
        )
        self.assertEqual(code, 2)
        self.assertEqual(json.loads(err)["error"], "OSError")

    def test_subcommand_mode_mismatch_exits_2(self):
        import tempfile

        import yaml

        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "run.yaml")
            with open(path, "w") as fh:
                yaml.safe_dump({"mode": "verify", "params": {"p": 2}}, fh)
            code, err = self._main_with_stderr(["simulate", "--config", path])
        self.assertEqual(code, 2)
        payload = json.loads(err)
        self.assertIn("requires mode in", payload["messages"][0])

    def test_invalid_config_lists_messages(self):
        import tempfile

        import yaml

        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "run.yaml")
            with open(path, "w") as fh:
                yaml.safe_dump({"mode": "simulate-similarity",
                                "params": {"p": 99}}, fh)
            code, err = self._main_with_stderr(["simulate", "--config", path])
        self.assertEqual(code, 2)
        payload = json.loads(err)
        self.assertGreater(len(payload["messages"]), 1)


def _main_on(raw, tmp_path, command):
    import yaml

    path = tmp_path / "run.yaml"
    path.write_text(yaml.safe_dump(raw))
    err = io.StringIO()
    with redirect_stderr(err):
        code = cli.main([command, "--config", str(path)])
    return code, err.getvalue()


class TestGridDimensionValidation:
    def test_similarity_three_dimensions_exits_2(self, tmp_path):
        raw = tiny_raw(output_dir=str(tmp_path / "out"))
        raw["params"]["n_dim"] = 3
        code, err = _main_on(raw, tmp_path, "simulate")
        assert code == 2
        messages = json.loads(err)["messages"]
        assert any("params.n_dim in (1, 2)" in m and "got 3" in m for m in messages)
        assert not (tmp_path / "out" / "error.json").exists()

    def test_sweep_three_dimensions_exits_2(self, tmp_path):
        raw = tiny_raw(mode="sweep", output_dir=str(tmp_path / "out"))
        raw["sweep"] = {"ps": [2], "ns": [3], "N_2d": 65}
        code, err = _main_on(raw, tmp_path, "sweep")
        assert code == 2
        assert "sweep.ns must be a list of integers in (1, 2)" in json.loads(err)["messages"]
        assert not (tmp_path / "out").exists()

    def test_sweep_with_a_dimension_of_its_own_exits_2(self, tmp_path):
        # each cell takes its dimension from sweep.ns and its direction data
        # from the one entry of a 1-D config; a second entry would be dropped
        raw = tiny_raw(mode="sweep", output_dir=str(tmp_path / "out"))
        raw["params"]["n_dim"] = 2
        raw["initial_data"]["d1"] = {"lin": [0.3, -0.5]}
        raw["sweep"] = {"ps": [2], "ns": [1, 2], "N_2d": 65}
        code, err = _main_on(raw, tmp_path, "sweep")
        assert code == 2
        assert json.loads(err)["messages"] == [
            "sweep cells take their dimension from sweep.ns, so params.n_dim "
            "must be 1 (one entry per direction), got 2"]
        assert not (tmp_path / "out").exists()

    def test_allowed_set_is_the_grid_set(self):
        for n in spectral.N_DIMS:
            spectral.Grid(n, 1.0, 17)
        raw = tiny_raw()
        raw["params"]["n_dim"] = max(spectral.N_DIMS) + 1
        with pytest.raises(ValueError):
            spectral.Grid(raw["params"]["n_dim"], 1.0, 17)
        with pytest.raises(cli.ConfigError):
            cli.config_from_dict(raw)

    def test_verify_three_dimensions_still_runs(self, tmp_path):
        raw = {"mode": "verify", "params": {"p": 2, "n_dim": 3},
               "output_dir": str(tmp_path / "out")}
        code, _ = _main_on(raw, tmp_path, "verify")
        assert code == 0


_PHYSICAL = {
    "mode": "simulate-physical",
    "params": {"p": 2, "n_dim": 1},
    "grid": {"L": 0.5, "N": 1025},
    "solver": {"s0": 10.0},
    "physical": {"probe_log_radii": [4.0, 5.0]},
}
_BASES = {"sim": TINY, "phys": _PHYSICAL}


class TestValidationBeforeRun:
    """Bad values exit 2 at validation and leave no output directory."""

    @pytest.mark.parametrize(
        "command, flags",
        [("verify", ["--seed", "-1"]), ("sweep", ["--workers", "0"])],
    )
    def test_invalid_override_exits_2(self, tmp_path, command, flags):
        import yaml

        argv = [command, "--out", str(tmp_path / "out"), *flags]
        if command == "sweep":
            path = tmp_path / "run.yaml"
            path.write_text(yaml.safe_dump(tiny_raw(mode="sweep")))
            argv += ["--config", str(path)]
        err = io.StringIO()
        with redirect_stderr(err):
            code = cli.main(argv)
        assert code == 2
        assert json.loads(err.getvalue())["error"] == "ConfigError"
        assert not (tmp_path / "out").exists()

    def test_empty_output_dir_exits_2(self, tmp_path):
        code, err = _main_on({"mode": "verify", "output_dir": ""}, tmp_path, "verify")
        assert code == 2
        assert json.loads(err)["messages"] == ["output_dir must not be empty, got ''"]

    def test_output_dir_that_cannot_be_made_exits_2(self, tmp_path):
        # exit 1 is a sweep with failed cells; a directory that cannot be made
        # is refused like a bad config, before the battery runs
        taken = tmp_path / "taken"
        taken.write_text("")
        err = io.StringIO()
        with redirect_stderr(err):
            code = cli.main(["verify", "--out", str(taken)])
        assert code == 2
        payload = json.loads(err.getvalue())
        assert payload["error"] == "OSError" and str(taken) in payload["messages"][0]

    def test_config_root_not_a_mapping_exits_2(self, tmp_path):
        code, err = _main_on(["mode", "verify"], tmp_path, "verify")
        assert code == 2
        assert json.loads(err)["messages"] == ["configuration root must be a mapping"]

    def test_rk4_diffusion_limit_exits_2(self, tmp_path, monkeypatch):
        # the drift CFL alone asks 56 substeps of this step; explicit-rk4's
        # diffusion limit asks 418, past the 200 a step may take.  A config
        # that got through validation would not be run here
        monkeypatch.setattr(cli, "run", lambda config: 0)
        raw = tiny_raw(output_dir=str(tmp_path / "out"))
        raw["grid"] = {"L": 87.5, "N": 40001}
        raw["solver"].update(scheme="explicit-rk4", s_end=35.0)
        code, err = _main_on(raw, tmp_path, "simulate")
        assert code == 2
        messages = json.loads(err)["messages"]
        assert any("CFL pre-check" in m and "needs 418" in m for m in messages)
        assert not (tmp_path / "out").exists()

    def test_physical_rk4_exits_2(self, tmp_path, monkeypatch):
        # the physical run has one stepper, the semi-implicit one; an rk4
        # config would run it and record explicit-rk4 in its header
        monkeypatch.setattr(cli, "run", lambda config: 0)
        raw = _set_in(copy.deepcopy(_PHYSICAL), "solver.scheme", "explicit-rk4")
        raw["output_dir"] = str(tmp_path / "out")
        code, err = _main_on(raw, tmp_path, "simulate")
        assert code == 2
        assert json.loads(err)["messages"] == [
            "simulate-physical steps semi-implicit only: solver.scheme must be "
            "semi-implicit, got 'explicit-rk4'"]
        assert not (tmp_path / "out").exists()
        raw["solver"]["scheme"] = "semi-implicit"
        assert cli.config_from_dict(raw).scheme == "semi-implicit"

    @pytest.mark.parametrize(
        "base, dotted, value",
        [
            ("sim", "grid.L", math.nan),
            ("sim", "grid.L", math.inf),
            ("sim", "solver.s0", math.nan),
            ("sim", "shrinking_set.A", math.inf),
            ("sim", "shrinking_set.p1", math.nan),
            ("sim", "shrinking_set.K", math.nan),
            ("sim", "initial_data.d1", math.nan),
            ("sim", "initial_data.d1", {"const": -math.inf}),
            ("sim", "initial_data.d2", {"lin": [math.nan]}),
            ("sim", "initial_data.d2", {"quad": [[math.nan]]}),
            ("phys", "physical.probe_log_radii", None),
            ("phys", "physical.probe_log_radii", [4.0, math.nan]),
        ],
    )
    def test_non_finite_value_exits_2(self, tmp_path, base, dotted, value):
        raw = _set_in(copy.deepcopy(_BASES[base]), dotted, value)
        raw["output_dir"] = str(tmp_path / "out")
        code, err = _main_on(raw, tmp_path, "simulate")
        assert code == 2
        assert any("finite" in m for m in json.loads(err)["messages"])
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "base, dotted, value, fragment",
        [
            ("sim", "initial_data.d1", {"lin": [True]}, "d1.lin must be a list of 1 numbers"),
            ("sim", "initial_data.d2", {"quad": [[False]]}, "d2.quad must be an 1x1 matrix"),
            ("phys", "physical.probe_log_radii", True, "must be a list of numbers"),
            ("phys", "physical.probe_log_radii", [True, 4.0], "must be a list of numbers"),
        ],
    )
    def test_boolean_in_number_list_exits_2(self, tmp_path, base, dotted, value, fragment):
        # YAML true/false are not numbers, inside a list as for a scalar field
        raw = _set_in(copy.deepcopy(_BASES[base]), dotted, value)
        raw["output_dir"] = str(tmp_path / "out")
        code, err = _main_on(raw, tmp_path, "simulate")
        assert code == 2
        assert any(fragment in m for m in json.loads(err)["messages"])
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "base, dotted, value, fragment",
        [
            ("sim", "initial_data.d1", {"lin": ["0.1"]}, "d1.lin must be a list of 1 numbers"),
            ("sim", "initial_data.d2", {"quad": [["0"]]}, "d2.quad must be an 1x1 matrix"),
            ("phys", "physical.probe_log_radii", ["10.5"], "must be a list of numbers"),
            ("phys", "physical.probe_log_radii", [10.5, "11"], "must be a list of numbers"),
            ("phys", "physical.probe_log_radii", "10.5", "must be a list of numbers"),
        ],
    )
    def test_numeric_string_in_number_list_exits_2(self, tmp_path, base, dotted, value,
                                                   fragment):
        # a quoted number is a string, inside a list as for a scalar field
        raw = _set_in(copy.deepcopy(_BASES[base]), dotted, value)
        raw["output_dir"] = str(tmp_path / "out")
        code, err = _main_on(raw, tmp_path, "simulate")
        assert code == 2
        assert any(fragment in m for m in json.loads(err)["messages"])
        assert not (tmp_path / "out").exists()

    def test_sweep_cell_grid_cfl_exits_2(self, tmp_path, monkeypatch):
        # the root grid (n = 1, N = 257) needs few substeps; each 2-D cell
        # runs on N_2d = 8001, where explicit-rk4 needs 445 per step
        monkeypatch.setattr(cli, "run", lambda config: 0)
        raw = tiny_raw(mode="sweep", output_dir=str(tmp_path / "out"))
        raw["solver"]["scheme"] = "explicit-rk4"
        raw["sweep"] = {"ps": [2], "ns": [1, 2], "N_2d": 8001}
        code, err = _main_on(raw, tmp_path, "sweep")
        assert code == 2
        messages = json.loads(err)["messages"]
        assert len(messages) == 1
        assert "CFL pre-check" in messages[0] and "needs 445" in messages[0]
        assert "2-D sweep cells' grid (N = 8001)" in messages[0]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "sweep, message",
        [
            ({"ps": [2, 2], "ns": [1]}, "sweep.ps must not repeat a value"),
            ({"ps": [2, 3], "ns": [1, 2, 1]}, "sweep.ns must not repeat a value"),
        ],
    )
    def test_repeated_sweep_value_exits_2(self, tmp_path, monkeypatch, sweep, message):
        # a repeat would run two cells into the same directory
        monkeypatch.setattr(cli, "run", lambda config: 0)
        raw = tiny_raw(mode="sweep", output_dir=str(tmp_path / "out"))
        raw["sweep"] = dict(sweep, N_2d=65)
        code, err = _main_on(raw, tmp_path, "sweep")
        assert code == 2
        assert json.loads(err)["messages"] == [message]
        assert not (tmp_path / "out").exists()

    def test_boolean_in_sweep_dimensions_exits_2(self, tmp_path):
        # YAML true equals 1 in Python but is not the integer dimension 1
        raw = tiny_raw(mode="sweep", output_dir=str(tmp_path / "out"))
        raw["sweep"] = {"ps": [2], "ns": [True], "N_2d": 65}
        code, err = _main_on(raw, tmp_path, "sweep")
        assert code == 2
        assert "sweep.ns must be a list of integers in (1, 2)" in json.loads(err)["messages"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "content",
        [
            b"mode: verify\nparams: {p: [2\n",
            b"mode: verify\nparams:\n\tp: 2\n",
            b"mode: verify\nparams: {p: 2}\n# \xff\xfe\n",
        ],
        ids=["yaml-syntax", "tab-indent", "not-utf8"],
    )
    def test_unparsable_config_file_exits_2(self, tmp_path, content):
        # exit 1 means a sweep with failed cells, so a file that does not
        # parse must not end in a traceback
        path = tmp_path / "bad.yaml"
        path.write_bytes(content)
        err = io.StringIO()
        with redirect_stderr(err):
            code = cli.main(["verify", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        payload = json.loads(err.getvalue())
        assert payload["error"] == "ConfigError"
        assert str(path) in payload["messages"][0]
        assert not (tmp_path / "out").exists()


# grids that validate and then diverge at the outflow edge, y ~ L: the explicit
# upwind drift is stable on its own only to CFL 0.5, and a substep may reach
# CFL_SAFETY = 0.9 on each axis; in 2-D the two axes' drift adds up at the box's
# corners (ROADMAP, Findings 2 and 11, direction 1)
_DIVERGES = "validates, then exits 4 with BlowupInSimilarityError by s = 25.3"


class TestAcceptedConfigsRun:
    """Every config the validator accepts either runs or exits 2."""

    @staticmethod
    def _raw(tmp_path, p, n_dim, L, N):
        # a benchmark similarity run (zero direction data at seed 0) on a short window
        return {
            "mode": "simulate-similarity",
            "params": {"p": p, "n_dim": n_dim},
            "grid": {"L": L, "N": N},
            "solver": {"ds": 5e-3, "s0": 25.0, "s_end": 25.5, "scheme": "semi-implicit",
                       "pin": True, "record_every": 20},
            "shrinking_set": {"A": 10.0, "p1": 0.5, "K": 5.0},
            "initial_data": {"d1": 0.0, "d2": 0.0},
            "output_dir": str(tmp_path / "out"),
        }

    @pytest.mark.parametrize("L, N", [
        (87.5, 1023),
        (120.0, 5581),
        *(pytest.param(L, N, marks=pytest.mark.xfail(strict=True, reason=_DIVERGES))
          for L, N in ((120.0, 1405), (175.0, 2047), (120.0, 2825), (175.0, 4119),
                       (250.0, 5883))),
    ])
    def test_similarity_grid_runs_or_exits_2(self, tmp_path, L, N):
        # the sim-desk-1d settings
        code, _ = _main_on(self._raw(tmp_path, 2, 1, L, N), tmp_path, "simulate")
        assert code in (0, 2), (tmp_path / "out" / "error.json").read_text()

    @pytest.mark.parametrize("N", [
        257,
        321,
        *(pytest.param(N, marks=pytest.mark.xfail(strict=True, reason=_DIVERGES))
          for N in (385, 513)),
    ])
    def test_2d_similarity_grid_runs_or_exits_2(self, tmp_path, N):
        # the sim-2d-cell settings
        code, _ = _main_on(self._raw(tmp_path, 3, 2, 87.5, N), tmp_path, "simulate")
        assert code in (0, 2), (tmp_path / "out" / "error.json").read_text()

    @pytest.mark.xfail(strict=True, reason="its 2-D cell diverges as N = 385 does; exits 1")
    def test_2d_sweep_cell_runs_or_exits_2(self, tmp_path):
        raw = self._raw(tmp_path, 3, 1, 87.5, 1023)
        raw.update(mode="sweep", sweep={"ps": [3], "ns": [2], "N_2d": 385}, workers=1)
        code, _ = _main_on(raw, tmp_path, "sweep")
        assert code in (0, 2)


def test_module_entry_point_help():
    proc = subprocess.run(
        [sys.executable, "-m", "blowlab.cli", "--help"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    for word in ("simulate", "verify", "sweep"):
        assert word in proc.stdout

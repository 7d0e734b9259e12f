"""Recorded behaviour of the run-config parser.

A corpus of invalid configs, each with its full sorted list of error
messages, and the hashes of a few accepted configs (their `as_dict()` and
their run_header.json).  The corpus covers every single-field bound, every
kind error, missing and unknown keys, a root and sections that are not
mappings, directions, probes (ragged lists too) and sweep lists; a parser
rewrite must keep every message and every accepted config as it is.
"""

import copy
import hashlib
import json
import math
import pathlib

import pytest

from blowlab import cli

WORKLOADS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"

_SIM = {
    "mode": "simulate-similarity",
    "params": {"p": 2, "n_dim": 1},
    "grid": {"L": 24.0, "N": 257},
    "solver": {"ds": 5.0e-3, "s0": 25.0, "s_end": 26.0, "record_every": 10},
    "shrinking_set": {"A": 10.0, "p1": 0.5, "K": 2.0},
    "initial_data": {"d1": 0.0, "d2": 0.0},
    "seed": 0,
}
_PHYS = {
    "mode": "simulate-physical",
    "params": {"p": 2, "n_dim": 1},
    "grid": {"L": 0.5, "N": 1025},
    "solver": {"s0": 10.0},
    "physical": {"probe_log_radii": [4.0, 5.0]},
}


def _edit(base, **sections):
    """A deep copy of base with each named section updated (a non-dict replaces it)."""
    raw = copy.deepcopy(base)
    for name, value in sections.items():
        if isinstance(value, dict) and isinstance(raw.get(name), dict):
            raw[name].update(value)
        else:
            raw[name] = value
    return raw


CORPUS = {
    # one bad value per single-field bound; an unknown mode requires nothing
    "bounds_every_field": {
        "mode": "bogus",
        "params": {"p": 1, "n_dim": 0},
        "grid": {"L": -1.0, "N": 16},
        "solver": {"ds": -0.1, "s0": 0.5, "scheme": "euler", "record_every": 0,
                   "eta": 0.2},
        "shrinking_set": {"A": 0.5, "p1": 1.0, "K": 0.0},
        "sweep": {"N_2d": 18},
        "output_dir": "",
        "seed": -1,
        "workers": 0,
    },
    "bounds_upper_ends": _edit(_SIM, params={"p": 10}, grid={"N": 258},
                               solver={"eta": 0.1000001},
                               shrinking_set={"p1": 0.0}, sweep={"N_2d": 258}),
    "kind_number": _edit(_SIM, grid={"L": "wide"}, solver={"ds": True},
                         shrinking_set={"A": [1.0]}),
    "kind_finite": _edit(_SIM, grid={"L": math.nan}, solver={"s0": math.inf},
                         shrinking_set={"K": -math.inf}),
    "kind_integer": _edit(_SIM, params={"p": 2.5}, grid={"N": True},
                          solver={"record_every": "20"}, sweep={"N_2d": 65.0}),
    "kind_bool_and_string": _edit(_SIM, mode=3, solver={"pin": "yes", "scheme": 3},
                                  output_dir=5),
    "kind_root_integers": _edit(_SIM, seed=True, workers=1.5),
    "missing_everything": {},
    "missing_similarity_window": {"mode": "simulate-similarity", "params": {"p": 2}},
    "missing_physical_grid": {"mode": "simulate-physical", "params": {"p": 2}},
    "unknown_keys": _edit(_SIM, extra=True, params={"bogus": 1}, solver={"foo": 1},
                          initial_data={"d3": 0.0, "d1": {"const": 0.1, "foo": 2}}),
    "root_not_a_mapping": ["mode", "simulate-similarity"],
    "sections_not_mappings": _edit(_SIM, params=3, grid=[1, 2], solver="x",
                                   physical=None, sweep=0.5),
    "directions_shapes": _edit(_SIM, initial_data={
        "d1": {"lin": [0.1, 0.2], "quad": [[0.1]]},
        "d2": {"lin": ["0.1"], "quad": [[0.0, 1.0]]}}),
    "directions_values": _edit(_SIM, params={"n_dim": 2}, grid={"N": 65},
                               initial_data={
                                   "d1": {"const": 3.0, "lin": [0.1, -2.5]},
                                   "d2": {"const": math.nan,
                                          "quad": [[0.0, 0.5], [0.1, 0.0]]}}),
    "directions_types": _edit(_SIM, initial_data={"d1": [0.1], "d2": "x"}),
    "directions_ragged": _edit(_SIM, initial_data={"d1": {"lin": [[0.1], [0.2, 0.3]]}}),
    "probes_not_a_list": _edit(_PHYS, physical={"probe_log_radii": "10.5"}),
    "probes_entries": _edit(_PHYS, physical={"probe_log_radii": [True, 4.0]}),
    "probes_non_finite": _edit(_PHYS, physical={"probe_log_radii": None}),
    "probes_ragged": _edit(_PHYS, physical={"probe_log_radii": [[4.0], [5.0, 6.0]]}),
    "probes_range_and_dimension": _edit(_PHYS, params={"n_dim": 2}, grid={"L": 0.2},
                                        physical={"probe_log_radii": [-1.0, 1.0]}),
    "sweep_lists_not_lists": _edit(_SIM, mode="sweep", sweep={"ps": 5, "ns": None}),
    "sweep_list_entries": _edit(_SIM, mode="sweep",
                                sweep={"ps": ["2", 10], "ns": [True, 3]}),
    # a sweep cell's dimension comes from sweep.ns; a 2-D config's second
    # direction entries would be dropped
    "sweep_n_dim": _edit(_SIM, mode="sweep", params={"n_dim": 2},
                         initial_data={"d1": {"lin": [0.3, -0.5]}}),
    "window_coverage_and_step": {
        "mode": "simulate-similarity",
        "params": {"p": 11},
        "grid": {"L": 10.0, "N": 64},
        "solver": {"ds": 0.02, "s0": 25.0, "s_end": 60.0, "eta": 0.5, "foo": 1},
        "extra": True,
    },
    "window_reversed_and_cfl": _edit(_SIM, grid={"N": 8193},
                                     solver={"ds": 0.1, "s_end": 20.0,
                                             "scheme": "explicit-rk4"}),
    "similarity_dimension": _edit(_SIM, params={"n_dim": 3}),
    # without p, verify runs the default battery over n = 1, 2 and cannot honour n_dim
    "verify_n_dim_without_p": {"mode": "verify", "params": {"n_dim": 2}},
    "verify_p_of_wrong_kind": {"mode": "verify", "params": {"p": "3", "n_dim": 2}},
}

EXPECTED = {
    "bounds_every_field": [
        "grid.L must be positive, got -1.0",
        "grid.N must be an odd integer >= 17 (origin on a gridline), got 16",
        "mode must be one of ('simulate-similarity', 'simulate-physical', 'verify', 'sweep'), "
        "got 'bogus'",
        "output_dir must not be empty, got ''",
        "params.n_dim must be >= 1, got 0",
        "params.p must be an integer in [2, 9], got 1",
        "seed must be >= 0, got -1",
        "shrinking_set.A must be >= 1, got 0.5",
        "shrinking_set.K must be positive, got 0.0",
        "shrinking_set.p1 must lie in (0, 1), got 1.0",
        "solver.ds must be positive, got -0.1",
        "solver.eta must lie in (0, 0.1], got 0.2",
        "solver.record_every must be >= 1, got 0",
        "solver.s0 must be >= 1, got 0.5",
        "solver.scheme must be one of ('semi-implicit', 'explicit-rk4'), got 'euler'",
        "sweep.N_2d must be an odd integer >= 17, got 18",
        "workers must be >= 1, got 0",
    ],
    "bounds_upper_ends": [
        "grid.N must be an odd integer >= 17 (origin on a gridline), got 258",
        "params.p must be an integer in [2, 9], got 10",
        "shrinking_set.p1 must lie in (0, 1), got 0.0",
        "solver.eta must lie in (0, 0.1], got 0.1000001",
        "sweep.N_2d must be an odd integer >= 17, got 258",
    ],
    "directions_shapes": [
        "initial_data.d1 does not take a quad entry",
        "initial_data.d1.lin must be a list of 1 numbers, all finite",
        "initial_data.d2.lin must be a list of 1 numbers, all finite",
        "initial_data.d2.quad must be an 1x1 matrix of finite numbers",
    ],
    "directions_ragged": [
        "initial_data.d1.lin must be a list of 1 numbers, all finite",
    ],
    "directions_types": [
        "initial_data.d1 must be a number or a mapping",
        "initial_data.d2 must be a number or a mapping",
    ],
    "directions_values": [
        "initial_data.d1 entries must lie in [-2, 2]",
        "initial_data.d2.const must be finite, got nan",
        "initial_data.d2.quad must be symmetric",
    ],
    "kind_bool_and_string": [
        "<root>.mode must be a string, got 3",
        "<root>.output_dir must be a string, got 5",
        "solver.pin must be true or false, got 'yes'",
        "solver.scheme must be a string, got 3",
    ],
    "kind_finite": [
        "grid.L must be finite, got nan",
        "shrinking_set.K must be finite, got -inf",
        "solver.s0 must be finite, got inf",
    ],
    "kind_integer": [
        "grid.N must be an integer, got True",
        "params.p must be an integer, got 2.5",
        "solver.record_every must be an integer, got '20'",
        "sweep.N_2d must be an integer, got 65.0",
    ],
    "kind_number": [
        "grid.L must be a number, got 'wide'",
        "shrinking_set.A must be a number, got [1.0]",
        "solver.ds must be a number, got True",
    ],
    "kind_root_integers": [
        "<root>.seed must be an integer, got True",
        "<root>.workers must be an integer, got 1.5",
    ],
    "missing_everything": [
        "missing required key <root>.mode",
    ],
    "missing_physical_grid": [
        "missing required key grid.L",
        "missing required key grid.N",
        "missing required key solver.s0",
    ],
    "missing_similarity_window": [
        "missing required key grid.L",
        "missing required key grid.N",
        "missing required key solver.ds",
        "missing required key solver.s0",
        "missing required key solver.s_end",
    ],
    "probes_entries": [
        "physical.probe_log_radii must be a list of numbers",
    ],
    "probes_non_finite": [
        "physical.probe_log_radii entries must be finite numbers",
    ],
    "probes_not_a_list": [
        "physical.probe_log_radii must be a list of numbers",
    ],
    "probes_ragged": [
        "physical.probe_log_radii must be a list of numbers",
    ],
    "probes_range_and_dimension": [
        "physical.probe_log_radii entries must be positive",
        "simulate-physical supports n_dim = 1 only (profile extraction interpolates along a line)",
    ],
    "root_not_a_mapping": [
        "configuration root must be a mapping",
    ],
    "sections_not_mappings": [
        "grid must be a mapping",
        "missing required key grid.L",
        "missing required key grid.N",
        "missing required key params.p",
        "missing required key solver.ds",
        "missing required key solver.s0",
        "missing required key solver.s_end",
        "params must be a mapping",
        "solver must be a mapping",
        "sweep must be a mapping",
    ],
    "similarity_dimension": [
        "simulate-similarity needs params.n_dim in (1, 2) (the grid dimensions), got 3",
    ],
    "sweep_list_entries": [
        "sweep.ns must be a list of integers in (1, 2)",
        "sweep.ps must be a list of integers in [2, 9]",
    ],
    "sweep_n_dim": [
        "sweep cells take their dimension from sweep.ns, so params.n_dim "
        "must be 1 (one entry per direction), got 2",
    ],
    "sweep_lists_not_lists": [
        "sweep.ns must be a list of integers in (1, 2)",
        "sweep.ps must be a list of integers in [2, 9]",
    ],
    "unknown_keys": [
        "unknown key <root>.extra",
        "unknown key initial_data.d1.foo",
        "unknown key initial_data.d3",
        "unknown key params.bogus",
        "unknown key solver.foo",
    ],
    "window_coverage_and_step": [
        "grid does not cover the localized region at the end time: "
        "require L >= 2*K*sqrt(s_end) = 77.460, got L = 10.0",
        "grid.N must be an odd integer >= 17 (origin on a gridline), got 64",
        "params.p must be an integer in [2, 9], got 11",
        "semi-implicit scheme requires solver.ds <= 0.01, got 0.02",
        "solver.eta must lie in (0, 0.1], got 0.5",
        "unknown key <root>.extra",
        "unknown key solver.foo",
    ],
    "window_reversed_and_cfl": [
        "ds CFL pre-check failed: ds = 0.1 needs 4657 explicit-rk4 substeps per step "
        "on this grid (limit 200); reduce ds or N",
        "solver.s_end = 20.0 must exceed solver.s0 = 25.0",
    ],
    "verify_n_dim_without_p": [
        "verify needs params.p when params.n_dim is set "
        "(without p it runs the default battery over n = 1, 2)",
    ],
    "verify_p_of_wrong_kind": [
        "params.p must be an integer, got '3'",
    ],
}


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_invalid_config_errors_recorded(name):
    with pytest.raises(cli.ConfigError) as info:
        cli.config_from_dict(copy.deepcopy(CORPUS[name]))
    assert sorted(info.value.errors) == EXPECTED[name]


def _workload_config(name):
    namespace = {"__name__": "workloads"}
    exec(compile(WORKLOADS.read_text(), str(WORKLOADS), "exec"), namespace)
    return namespace["config"](name, 0, "out/pinned")


ACCEPTED = {
    "tiny": lambda: copy.deepcopy(_SIM),
    "verify_default": lambda: dict(cli._DEFAULT_VERIFY),
    "sim-desk-1d": lambda: _workload_config("sim-desk-1d"),
    "sim-2d-cell": lambda: _workload_config("sim-2d-cell"),
    "phys-collapse-1d": lambda: _workload_config("phys-collapse-1d"),
}

# config_hash, then the sha256 (first 16 hex digits) of run_header.json.
# phys-collapse-1d and verify_default were re-pinned when unset keys stopped
# being written as their kind's zero (solver.s_end: 0.0; grid.L, grid.N,
# solver.s0 and solver.s_end) and the verify default stopped setting params.p.
# verify_default was re-pinned again when a verify config without params.p
# stopped writing params.n_dim: 1 (it runs the default battery over n = 1, 2).
PINNED = {
    "phys-collapse-1d": ("2fc795b69522deee", "9a879528b1f0fcb1"),
    "sim-2d-cell": ("605f523d9dd303fa", "7bfa73c3f92b463c"),
    "sim-desk-1d": ("af7e2a67778bbe9e", "70094240c8fece44"),
    "tiny": ("b6dd2945a54cd1d4", "30a8c7732a930b54"),
    "verify_default": ("988363c644db1f93", "7f4e70b11cd063f7"),
}


@pytest.mark.parametrize("name", sorted(ACCEPTED))
def test_accepted_config_hash_and_header_pinned(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    raw = ACCEPTED[name]()
    raw["output_dir"] = "out/pinned"
    config = cli.config_from_dict(raw)
    (tmp_path / "out" / "pinned").mkdir(parents=True)
    canon = json.dumps(config.as_dict(), sort_keys=True)
    assert hashlib.sha256(canon.encode()).hexdigest()[:16] == cli.config_hash(config)
    cli._write_header(config)
    header = (tmp_path / "out" / "pinned" / "run_header.json").read_bytes()
    got = (cli.config_hash(config), hashlib.sha256(header).hexdigest()[:16])
    assert got == PINNED[name]


ROUND_TRIP = {
    **ACCEPTED,
    "sweep": lambda: _edit(_SIM, mode="sweep", sweep={"ps": [2, 3], "ns": [1, 2], "N_2d": 65}),
    "verify_p3_n2": lambda: {"mode": "verify", "params": {"p": 3, "n_dim": 2}},
}


@pytest.mark.parametrize("name", sorted(ROUND_TRIP))
def test_header_config_rebuilds_the_config_that_ran(name, tmp_path, monkeypatch):
    # in every mode, the header's config parses back to the same config and hash
    monkeypatch.chdir(tmp_path)
    config = cli.config_from_dict(ROUND_TRIP[name]())
    pathlib.Path(config.output_dir).mkdir(parents=True)
    cli._write_header(config)
    header = json.loads(pathlib.Path(config.output_dir, "run_header.json").read_text())
    again = cli.config_from_dict(header["config"])
    assert again == config
    assert cli.config_hash(again) == header["config_hash"]

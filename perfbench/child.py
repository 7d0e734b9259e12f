"""One workload run in a fresh process; prints its measurements as one JSON line.

    python3 perfbench/child.py WORKLOAD SEED SPAWNED OUT MODE TRACE TINY [SPANS]

SPAWNED is the parent's time.monotonic() just before it started this process,
so setup_s covers interpreter start, imports, config validation, grid and
initial state.  MODE "setup" stops there; MODE "run" then times the call into
the package (cli.run, or verifier.run_all for the battery) through fits and
artifacts written, and checks the outputs.  TRACE 1 wraps the package's
public functions before validation and writes the spans to SPANS at the end.
"""

import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import numpy  # noqa: E402
import scipy  # noqa: E402

import blowlab  # noqa: E402
from blowlab import cli, params, rhs, solver, spectral, verifier  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402


def _initial_state(config):
    """Grid and initial state of a simulate config, as cli.run builds them."""
    pr = params.make_params(config.p, config.n_dim)
    cut = rhs.CutoffSpec(K=config.K)
    idp = rhs.InitialDataParams(
        A=config.A, s0=config.s0, p1=config.p1,
        d1_const=config.d1["const"], d1_lin=config.d1["lin"],
        d2_const=config.d2["const"], d2_lin=config.d2["lin"],
        d2_quad=config.d2["quad"], n_dim=config.n_dim,
    )
    grid = spectral.Grid(config.n_dim, config.L, config.N)
    if config.mode == "simulate-physical":
        return solver.physical_initial_from_similarity(pr, idp, cut, grid)
    return solver.similarity_initial_state(pr, idp, cut, grid)


def main(argv):
    name, seed, spawned, out, mode, traced, tiny = argv[:7]
    seed, spawned = int(seed), float(spawned)
    traced, tiny = traced == "1", tiny == "1"
    tracer = None
    if traced:
        tracer = tracing.Tracer()
        tracer.install(blowlab)

    raw = workloads.config(name, seed, out, tiny)
    config = None
    if raw is not None:
        config = cli.config_from_dict(raw)
        _initial_state(config)
    report = {"setup_s": time.monotonic() - spawned}
    if mode == "run":
        start = time.perf_counter()
        if config is None:
            result = verifier.run_all(**workloads.verify_args(seed, tiny))
        else:
            result = cli.run(config)
        report["wall_s"] = time.perf_counter() - start
        report["checks"] = workloads.check(name, seed, out, result, tiny)
        report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        report["versions"] = {"python": sys.version.split()[0],
                              "numpy": numpy.__version__, "scipy": scipy.__version__}
    if tracer is not None:
        report["layers"] = tracer.metrics()
        tracer.dump(argv[7])
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""One pass of a benchmark workload, in a fresh process.

Run from the root of a gridsde checkout by ``run.py``; it imports the
package from ``src/``.  Set-up time runs from the launch time that the
parent passes in (a CLOCK_MONOTONIC reading, which is system-wide) until
``gridsde.cli`` is imported.  The pass then calls ``gridsde.cli.main`` once
per workload command, timing each call, checks every command's outputs
after it, and writes a JSON record.  With ``--trace`` the layer wrappers
are installed first and the record also holds the per-layer metrics.
"""

import sys
import time

sys.path.insert(0, "src")
import gridsde.cli  # noqa: E402  (the import is what set-up time measures)

READY = time.clock_gettime(time.CLOCK_MONOTONIC)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
from workloads import commands  # noqa: E402


def run_pass(workload: str, seed: int, out: Path, tracer) -> list[dict]:
    digests = checks.load_digests()
    results = []
    for cmd in commands(workload, seed):
        cmd_out = out / cmd.label
        argv = list(cmd.argv) + ["--out", str(cmd_out)]
        start = time.perf_counter()
        try:
            if tracer is None:
                rc = gridsde.cli.main(argv)
            else:
                with tracer.span("cli." + cmd.label):
                    rc = gridsde.cli.main(argv)
        except Exception:  # a crash is a failed command, not a failed benchmark
            traceback.print_exc()
            rc = -1
        seconds = time.perf_counter() - start
        failures, hashes = checks.check_command(workload, cmd, seed, rc, cmd_out, digests)
        results.append(
            {
                "label": cmd.label,
                "role": cmd.role,
                "path_steps": cmd.path_steps,
                "seconds": seconds,
                "rc": rc,
                "failures": failures,
                "csv_digests": hashes,
            }
        )
    return results


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--launched", type=float, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--record", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    ns = parser.parse_args()

    record = {
        "setup_s": READY - ns.launched,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "gridsde": getattr(gridsde, "__version__", None),
        },
    }
    if not ns.setup_only:
        tracer = tracing.Tracer() if ns.trace else None
        restore = tracing.install(tracer) if tracer is not None else None
        try:
            record["commands"] = run_pass(ns.workload, ns.seed, ns.out, tracer)
        finally:
            if restore is not None:
                restore()
        record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is not None:
            record["layers"] = tracing.layer_metrics(tracer, tracing.useful_nodes(tracer.iterations))
            tracer.write_csv(ns.out / "spans.csv")
    ns.record.write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Record the digests of the exact-count density CSVs into digests.json.

Run from the root of a gridsde checkout at the commit whose outputs are the
reference (``python3 bench/record_digests.py``).  The exhaustive CSV has no
seed; the sampled CSV is recorded for seeds 0..99.  The correctness gate
then requires these files to match bit for bit at every later commit.
"""

import contextlib
import io
import json
import shutil
import sys
from pathlib import Path

sys.path.insert(0, "src")
import gridsde.cli  # noqa: E402

from checks import DIGESTS_PATH, digest_key, sha256  # noqa: E402
from workloads import WORKLOADS, commands  # noqa: E402

SEEDS = range(100)


def main() -> int:
    work = Path(".bench_out") / "digests"
    digests = {}
    for workload in WORKLOADS:
        for seed in SEEDS:
            for cmd in commands(workload, seed):
                key = digest_key(workload, cmd, seed)
                if cmd.argv[0] != "simulate" or key in digests:
                    continue
                out = work / cmd.label
                with contextlib.redirect_stdout(io.StringIO()):
                    rc = gridsde.cli.main(list(cmd.argv) + ["--out", str(out)])
                if rc != 0:
                    print(f"{key}: exit code {rc}", file=sys.stderr)
                    return 1
                digests[key] = sha256(out / "density.csv")
                print(key, digests[key], file=sys.stderr)
    shutil.rmtree(work, ignore_errors=True)
    DIGESTS_PATH.write_text(json.dumps({"digests": digests}, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""gridsde benchmark: run one workload for a fixed time and print its metrics.

Usage, from the root of a gridsde checkout:

    python3 bench/run.py --workload exhaustive --seed 1 --seconds 40 --trace 0

Each pass of the workload runs in a fresh single-threaded worker process
(``worker.py``) that calls ``gridsde.cli.main`` in-process once per command.
Passes repeat while another one fits in ``--seconds``; timings are medians
over passes.  ``--trace 0`` reports the end-to-end metrics.  ``--trace 1``
alternates untraced and traced passes and reports the per-layer metrics of
the traced passes, the untraced time of each command, and the tracing
overhead.  The last line of standard output is a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a fuller record,
with the machine facts, goes to ``--results``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, commands

BENCH_DIR = Path(__file__).resolve().parent
HARD_LIMIT_S = 170.0  # the whole run, workers included, ends well before 180 s
MIN_SETUP_SAMPLES = 5
# One worker thread per process: BLAS pools would otherwise race the
# other core and make timings depend on what else the machine runs.
SINGLE_THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}



class Run:
    """The worker processes of one benchmark run and their records."""

    def __init__(self, root: Path, workload: str, seed: int, seconds: int):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.start = time.monotonic()
        tag = f"{workload}-seed{seed}-{os.getpid()}"
        self.work = root / ".bench_out" / "work" / tag
        self.env = dict(os.environ, **SINGLE_THREAD_ENV)
        self.passes: list[dict] = []  # records of workload passes, in run order
        self.setups: list[float] = []
        self.failures: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.pass_seconds: list[float] = []
        self.launches = 0

    def elapsed(self) -> float:
        return time.monotonic() - self.start

    def worker(self, traced: bool = False, setup_only: bool = False) -> dict | None:
        """Run one worker process; its record, or None if it failed."""
        index = self.launches
        self.launches += 1
        out = self.work / f"worker{index}"
        out.mkdir(parents=True, exist_ok=True)
        record_path = out / "record.json"
        argv = [
            sys.executable, str(BENCH_DIR / "worker.py"),
            "--workload", self.workload, "--seed", str(self.seed),
            "--out", str(out), "--record", str(record_path),
        ]
        argv += ["--trace"] if traced else []
        argv += ["--setup-only"] if setup_only else []
        timeout = HARD_LIMIT_S - self.elapsed()
        launched = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.Popen(
            argv + ["--launched", repr(launched)],
            cwd=self.root, env=self.env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
        )
        try:
            rc = proc.wait(timeout=max(1.0, timeout))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            rc = "timeout"
        if rc != 0 or not record_path.is_file():
            self.failures.append(f"worker {index}: ended with {rc}")
            return None
        record = json.loads(record_path.read_text())
        self.setups.append(record["setup_s"])
        return record

    def run_pass(self, traced: bool) -> bool:
        index = len(self.passes)
        began = self.elapsed()
        cmds = commands(self.workload, self.seed)
        self.attempted += len(cmds)
        record = self.worker(traced=traced)
        self.pass_seconds.append(self.elapsed() - began)
        if record is None:
            self.failed += len(cmds)
            return False
        record["traced"] = traced
        record["worker"] = self.launches - 1
        first = self.passes[0] if self.passes else record
        for cmd, ref in zip(record["commands"], first["commands"]):
            problems = list(cmd["failures"])
            if cmd["csv_digests"] != ref["csv_digests"]:
                problems.append("CSV output differs from the first pass of this run")
            if problems:
                self.failed += 1
                self.failures += [f"pass {index} {cmd['label']}: {p}" for p in problems]
        self.passes.append(record)
        return True

    def another_pass_fits(self) -> bool:
        typical = statistics.median(self.pass_seconds)
        return self.elapsed() + typical <= min(self.seconds, HARD_LIMIT_S - 2 * typical)

    def top_up_setup(self) -> None:
        while len(self.setups) < MIN_SETUP_SAMPLES and self.elapsed() < HARD_LIMIT_S - 10:
            if self.worker(setup_only=True) is None:
                break

    def keep_spans(self, dest: Path) -> None:
        traced = [r["worker"] for r in self.passes if r["traced"]]
        if traced:
            spans = self.work / f"worker{traced[-1]}" / "spans.csv"
            if spans.is_file():
                shutil.copyfile(spans, dest)

    def cleanup(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _sum_seconds(record: dict, pred) -> float:
    return sum(c["seconds"] for c in record["commands"] if pred(c))


def end_to_end(run: Run) -> dict[str, float]:
    plain = [r for r in run.passes if not r["traced"]]
    return {
        "setup_s": _median(run.setups),
        "wall_s": _median([_sum_seconds(r, lambda c: True) for r in plain]),
        "density_cmd_s": _median([_sum_seconds(r, lambda c: c["role"] == "density") for r in plain]),
        "verify_cmd_s": _median([_sum_seconds(r, lambda c: c["role"] == "verify") for r in plain]),
        "path_steps_per_s": _median(
            [
                sum(c["path_steps"] for c in r["commands"])
                / _sum_seconds(r, lambda c: c["path_steps"] > 0)
                for r in plain
            ]
        ),
        "peak_rss_mb": _median([r["peak_rss_mb"] for r in plain]),
    }


def command_times(run: Run) -> dict[str, float]:
    plain = [r for r in run.passes if not r["traced"]]
    labels = [c.label for c in commands(run.workload, run.seed)]
    return {
        f"cli.{label}_s": _median(
            [c["seconds"] for r in plain for c in r["commands"] if c["label"] == label]
        )
        for label in labels
    }


def per_layer(run: Run) -> dict[str, float]:
    """Traced-pass medians of the layer metrics, with untraced command times."""
    traced = [r for r in run.passes if r["traced"]]
    names = traced[0]["layers"] if traced else {}
    metrics = {name: _median([r["layers"][name] for r in traced]) for name in names}
    times = command_times(run)
    for label in {c.label for w in WORKLOADS for c in commands(w, run.seed)}:
        metrics[f"cli.{label}_s"] = times.get(f"cli.{label}_s", 0.0)
    traced_wall = _median([_sum_seconds(r, lambda c: True) for r in traced])
    plain_wall = _median([_sum_seconds(r, lambda c: True) for r in run.passes if not r["traced"]])
    metrics["trace_overhead_frac"] = traced_wall / plain_wall - 1.0 if plain_wall else 0.0
    return metrics


def machine_facts(run: Run) -> dict:
    versions = run.passes[0]["versions"] if run.passes else {}
    return {
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "python": versions.get("python", platform.python_version()),
        "numpy": versions.get("numpy"),
        "gridsde": versions.get("gridsde"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", type=Path, default=Path(".bench_out") / "results",
                        help="directory for the full run record (default .bench_out/results)")
    ns = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "gridsde" / "cli.py").is_file():
        print("bench: src/gridsde/cli.py not found; run from the root of a gridsde checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if ns.trace else "end_to_end"]}
    if ns.seconds < 1:
        parser.error("--seconds must be at least 1")

    run = Run(root, ns.workload, ns.seed, ns.seconds)
    try:
        while True:
            traced = bool(ns.trace) and len(run.passes) % 2 == 1
            if not run.run_pass(traced):
                break
            both_kinds = {r["traced"] for r in run.passes} == ({False, True} if ns.trace else {False})
            if both_kinds and not run.another_pass_fits():
                break
        run.top_up_setup()

        ok = run.failed == 0 and bool(run.passes) and run.attempted > 0
        if ns.trace and ok and not any(r["traced"] for r in run.passes):
            run.failures.append("no traced pass completed")
            ok = False
        measured = per_layer(run) if ns.trace else end_to_end(run)
        if ok and set(measured) != set(units):
            raise SystemExit(f"bench: metrics {sorted(set(measured) ^ set(units))} are not both "
                             "measured and listed in BENCHMARK.json")
        metrics = {name: {"value": measured.get(name, 0.0), "unit": unit} for name, unit in units.items()}

        ns.results.mkdir(parents=True, exist_ok=True)
        stem = f"{ns.workload}-trace{ns.trace}-seed{ns.seed}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
        record = {
            "workload": ns.workload,
            "seed": ns.seed,
            "trace": ns.trace,
            "seconds": ns.seconds,
            "passes": len(run.passes),
            "correct": ok,
            "attempted": run.attempted,
            "failed": run.failed,
            "failures": run.failures,
            "machine": machine_facts(run),
            "metrics": metrics,
            "command_times": command_times(run),
        }
        (ns.results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
        if ns.trace:
            run.keep_spans(ns.results / f"{stem}-spans.csv")
    finally:
        run.cleanup()

    for failure in run.failures:
        print(f"bench: FAILED {failure}", file=sys.stderr)
    print(f"bench: {ns.workload} seed {ns.seed}: {len(run.passes)} passes in {run.elapsed():.1f} s; "
          f"machine {json.dumps(record['machine'])}", file=sys.stderr)
    for name, metric in metrics.items():
        print(f"bench:   {name} = {metric['value']:.6g} {metric['unit']}", file=sys.stderr)
    print(json.dumps({
        "correct": ok,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())

"""Output-correctness gate for one benchmark command.

A command fails when it exits nonzero or when any of its outputs fails a
check: verify reports must say ``passed: true``; a density CSV must hold
integer path counts per bin that, with the overflow, account for every path
of the ensemble; exact-count density CSVs must match the digests recorded
in ``digests.json`` bit for bit; the finite-volume CSV must be finite,
nonnegative and of unit mass.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

from workloads import Command

DIGESTS_PATH = Path(__file__).with_name("digests.json")


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def digest_key(workload: str, cmd: Command, seed: int) -> str:
    """Key of a command's density CSV in the digest table.

    Inputs without a seed are the same at every seed, so their key has none.
    """
    key = f"{workload}/{cmd.label}/density.csv"
    return f"{key}@seed={int(seed)}" if "--seed" in cmd.argv else key


def load_digests(path: Path = DIGESTS_PATH) -> dict[str, str]:
    return json.loads(path.read_text())["digests"]


def _read_csv(path: Path) -> tuple[list[float], list[list[float]]]:
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    if header[0] != "t":
        raise ValueError("header does not start with 't'")
    edges = [float(v) for v in header[1:]]
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    if any(len(row) != len(edges) + 1 for row in rows):
        raise ValueError("row length differs from the header")
    return edges, rows


def check_density(csv_path: Path, meta: dict) -> list[str]:
    """Counts recovered from the CSV are whole, and with overflow sum to the count."""
    failures = []
    if meta.get("normalization_exact") is not True:
        failures.append("density.json: normalization_exact is not true")
    n = meta["ensemble"]["n"]
    count = meta["ensemble"]["count"]
    try:
        edges, rows = _read_csv(csv_path)
    except (ValueError, IndexError) as exc:
        return failures + [f"{csv_path.name}: unreadable ({exc})"]
    if len(rows) != len(meta["slices"]):
        failures.append(f"{csv_path.name}: {len(rows)} rows for {len(meta['slices'])} slices")
    if any(abs(e * n - round(e * n)) > 1e-9 for e in edges):
        failures.append(f"{csv_path.name}: bin edges are off the 1/n lattice")
    for row, t, overflow in zip(rows, meta["slices"], meta["overflow_fractions"]):
        if row[0] != t:
            failures.append(f"{csv_path.name}: row time {row[0]!r} is not the slice {t!r}")
        counts = [rho * count / n for rho in row[1:]]
        whole = [round(c) for c in counts]
        if any(not math.isfinite(c) or abs(c - w) > 1e-6 * max(1.0, abs(c)) or w < 0
               for c, w in zip(counts, whole)):
            failures.append(f"{csv_path.name}: t={t!r} has a bin that is not a whole path count")
        elif sum(whole) + round(overflow * count) != count:
            failures.append(f"{csv_path.name}: t={t!r} bins plus overflow do not sum to {count}")
    return failures


def check_fp(csv_path: Path, meta: dict) -> list[str]:
    dx = meta["solution"]["dx"]
    try:
        _, rows = _read_csv(csv_path)
    except (ValueError, IndexError) as exc:
        return [f"{csv_path.name}: unreadable ({exc})"]
    failures = []
    if len(rows) != len(meta["solution"]["times"]):
        failures.append(f"{csv_path.name}: {len(rows)} rows for {len(meta['solution']['times'])} times")
    for row in rows:
        values = row[1:]
        if not all(math.isfinite(v) and v >= -1e-12 for v in values):
            failures.append(f"{csv_path.name}: t={row[0]!r} has a negative or non-finite value")
        elif abs(math.fsum(values) * dx - 1.0) > 1e-6:
            failures.append(f"{csv_path.name}: t={row[0]!r} does not have unit mass")
    return failures


def check_command(
    workload: str, cmd: Command, seed: int, rc: int, out: Path, digests: dict[str, str]
) -> tuple[list[str], dict[str, str]]:
    """Failures of one command run, and the digests of its CSV files."""
    failures = [] if rc == 0 else [f"exit code {rc}"]
    hashes = {p.name: sha256(p) for p in sorted(out.glob("*.csv"))}
    try:
        if cmd.argv[0] == "verify":
            report = json.loads((out / f"verify_{cmd.argv[1]}.json").read_text())
            if report.get("passed") is not True:
                failures.append(f"verify_{cmd.argv[1]}.json: passed is not true")
        elif cmd.argv[0] == "simulate":
            meta = json.loads((out / "density.json").read_text())
            failures += check_density(out / "density.csv", meta)
            expected = digests.get(digest_key(workload, cmd, seed))
            if expected is not None and hashes["density.csv"] != expected:
                failures.append("density.csv differs from the recorded exact-count digest")
        elif cmd.argv[0] == "fp-solve":
            failures += check_fp(out / "fp.csv", json.loads((out / "fp.json").read_text()))
    except (OSError, KeyError, ValueError) as exc:
        failures.append(f"missing or malformed output: {exc!r}")
    return failures, hashes

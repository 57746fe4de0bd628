"""README example outputs against recorded files.

``tests/golden/`` holds the files as the README examples wrote them, with
``config.out`` (the output directory) left out of each JSON report;
``tests/golden/record.py`` rewrites them.  ``density.csv`` must match byte
for byte: the exhaustive density is integer counts scaled by one factor.
The other CSVs are compared cell by cell, as a JSON report is: keys,
strings, ints and bools must match exactly; floats within ``ULPS`` units in
the last place.  Bump derivatives go through ``np.exp``, whose last bit
depends on the CPU: with numpy's AVX-512 exp disabled
(``NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR"``) the
chain-rule residuals of verify ito, differences of nearby phi values, move
by up to 13 ulps, and verify weakform not at all.  The ito column of
``convergence.csv`` goes through ``np.exp`` too, so no float CSV is held to
the byte.
"""

import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from gridsde.cli import main

GOLDEN = Path(__file__).parent / "golden"
ULPS = 64

SIMULATE = ["simulate", "--n", "8", "--mode", "exhaustive", "--f", "0", "--h", "1", "--x0", "0"]
CONVERGENCE = ["convergence", "--levels", "16,32,64"]
FP_SOLVE = ["fp-solve", "--f=-x", "--h", "1"]
# each recorded file and the README example that writes it
EXAMPLES = {
    "density.csv": SIMULATE,
    "density.json": SIMULATE,
    "verify_lemmas.json": ["verify", "lemmas", "--n", "8"],
    "verify_weakform.json": ["verify", "weakform", "--n", "16", "--mode", "exhaustive"],
    "verify_ito.json": ["verify", "ito", "--n", "64"],
    "verify_crossval.json": ["verify", "crossval", "--n", "128", "--f=-x", "--h", "1", "--samples", "100000"],
    "convergence.csv": CONVERGENCE,
    "convergence.json": CONVERGENCE,
    "fp.csv": FP_SOLVE,
    "fp.json": FP_SOLVE,
    "pair.json": ["pair", "--dist", "dirac-derivative", "--center", "0.25"],
    "equivalent.json": ["equivalent", "--dist", "dirac", "--dist2", "split-dirac"],
}
# the exact counts, held to the byte; every other CSV is compared cell by cell
EXACT = {"density.csv"}


def stored(path: Path) -> str:
    """The text of an output file as it is recorded: a JSON report without ``config.out``."""
    if path.suffix != ".json":
        return path.read_text()
    report = json.loads(path.read_text())
    del report["config"]["out"]
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def mismatches(got, want, path="") -> list[str]:
    """Where ``got`` leaves ``want``: a different key, type or length, an
    unequal non-float, or a float more than ``ULPS`` ulps away."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or list(got) != list(want):
            return [f"{path}: keys {list(got) if isinstance(got, dict) else got!r} != {list(want)}"]
        return [m for key in want for m in mismatches(got[key], want[key], f"{path}.{key}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: {got!r} != {want!r}"]
        return [m for i, (g, w) in enumerate(zip(got, want)) for m in mismatches(g, w, f"{path}[{i}]")]
    if type(got) is not type(want):
        return [f"{path}: {got!r} != {want!r}"]
    if isinstance(want, float):
        if got == want or abs(got - want) <= ULPS * np.spacing(max(abs(got), abs(want))):
            return []
    elif got == want:
        return []
    return [f"{path}: {got!r} != {want!r}"]


def cells(text: str) -> list[list]:
    """The rows of a CSV, each cell a float where it reads as one."""

    def cell(text: str):
        try:
            return float(text)
        except ValueError:
            return text

    return [[cell(c) for c in line.split(",")] for line in text.splitlines()]


def compare(name: str, got: str, want: str) -> list[str]:
    """Where the text of file ``name`` leaves its recorded text: an exact
    CSV byte for byte, any other CSV and a JSON report through ``mismatches``."""
    if name in EXACT:
        return [] if got == want else [f"{name}: the bytes differ"]
    if name.endswith(".csv"):
        return mismatches(cells(got), cells(want))
    return mismatches(json.loads(got), json.loads(want))


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_readme_example_matches_its_recorded_report(tmp_path, name):
    assert main([*EXAMPLES[name], "--out", str(tmp_path)]) == 0
    assert compare(name, stored(tmp_path / name), (GOLDEN / name).read_text()) == []


def test_readme_examples_are_the_recorded_examples():
    # the lines CI runs: a README edit cannot leave a golden file checking a command it no longer shows
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    lines = [line for line in readme.splitlines() if re.fullmatch(r"gridsde .* --out run", line)]
    shown = {tuple(shlex.split(line)[1:-2]) for line in lines}
    assert len(shown) == len(lines) and shown == {tuple(argv) for argv in EXAMPLES.values()}


@pytest.mark.parametrize(
    "change, caught",
    [
        (lambda r: r, False),
        (lambda r: r.update(drift_term=float(np.nextafter(r["drift_term"], 1.0))), False),
        (lambda r: r.update(drift_term=r["drift_term"] + ULPS * 2 * np.spacing(r["drift_term"])), True),
        (lambda r: r.update(quadratic_term=r["quadratic_term"] + 1e-9), True),
        (lambda r: r.update(n=16.0), True),
        (lambda r: r.update(extra=0), True),
        (lambda r: r["ensemble"]["alphabet"].pop(), True),
    ],
    ids=["unchanged", "one-ulp", "beyond-ulps", "piece-1e-9", "int-as-float", "extra-key", "shorter-list"],
)
def test_comparison_catches_a_changed_report(change, caught):
    want = json.loads((GOLDEN / "verify_weakform.json").read_text())
    got = json.loads((GOLDEN / "verify_weakform.json").read_text())
    change(got["results"])
    assert bool(mismatches(got, want)) == caught


@pytest.mark.parametrize("ulps, caught", [(0, False), (1, True)], ids=["unchanged", "one-ulp"])
def test_density_csv_comparison_catches_a_one_ulp_change(ulps, caught):
    want = (GOLDEN / "density.csv").read_text()
    *head, last = want.splitlines()
    cells = last.split(",")
    j = next(i for i, cell in enumerate(cells[1:], 1) if float(cell) > 0)
    value = float(cells[j])
    cells[j] = repr(float(np.nextafter(value, np.inf)) if ulps else value)
    got = "\n".join([*head, ",".join(cells)]) + "\n"
    assert bool(compare("density.csv", got, want)) == caught


@pytest.mark.parametrize("ulps, caught", [(1, False), (ULPS, False), (2 * ULPS, True)])
def test_float_csv_comparison_allows_ulps(ulps, caught):
    want = (GOLDEN / "convergence.csv").read_text()
    head, row, *rest = want.splitlines()
    cells = row.split(",")
    value = float(cells[2])
    cells[2] = repr(value + ulps * float(np.spacing(value)))
    got = "\n".join([head, ",".join(cells), *rest]) + "\n"
    assert bool(compare("convergence.csv", got, want)) == caught

"""The README's verify weakform and verify ito reports, against recorded files.

``tests/golden/`` holds the two reports as the README examples wrote them,
with ``config.out`` (the output directory) left out.  Keys, strings, ints
and bools must match exactly; floats within ``ULPS`` units in the last
place.  Bump derivatives go through ``np.exp``, whose last bit depends on
the CPU: with numpy's AVX-512 exp disabled (``NPY_DISABLE_CPU_FEATURES=
"X86_V4 AVX512_ICL AVX512_SPR"``) the chain-rule residuals of verify ito,
differences of nearby phi values, move by up to 13 ulps, and verify
weakform not at all.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from gridsde.cli import main

GOLDEN = Path(__file__).parent / "golden"
ULPS = 64

EXAMPLES = {
    "verify_weakform.json": ["verify", "weakform", "--n", "16", "--mode", "exhaustive"],
    "verify_ito.json": ["verify", "ito", "--n", "64"],
}


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


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_readme_example_matches_its_recorded_report(tmp_path, name):
    assert main([*EXAMPLES[name], "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / name).read_text())
    del report["config"]["out"]
    assert mismatches(report, json.loads((GOLDEN / name).read_text())) == []


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

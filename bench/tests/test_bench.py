"""Tests of the benchmark's own code: span arithmetic, the correctness gate,
workload inputs, the distinct-node analysis and the compare verdicts.

Run from the root of a gridsde checkout: ``python3 -m pytest bench/tests``.
"""

import contextlib
import io
import itertools

import numpy as np
import pytest

import checks
import compare
import tracing
from workloads import WORKLOADS, Command, commands


def test_self_time_of_nested_spans():
    spans = [
        ["root", 0.0, 10.0, None],
        ["a", 1.0, 4.0, 0],
        ["a", 2.0, 3.0, 1],
        ["b", 5.0, 6.0, 0],
        ["c", 5.5, 7.0, 0],  # overlaps b: the covered part counts once
    ]
    assert tracing.self_times(spans) == pytest.approx([5.0, 2.0, 1.0, 1.0, 1.5])
    assert tracing.inclusive_time(spans, {"a"}) == pytest.approx(3.0)
    assert tracing.self_time(spans, {"a"}) == pytest.approx(3.0)
    assert tracing.inclusive_time(spans, {"b", "c"}) == pytest.approx(2.5)


def test_tracer_records_parents():
    ticks = itertools.count()
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    assert tracer.spans == [["outer", 0.0, 3.0, None], ["inner", 1.0, 2.0, 0]]
    assert tracing.self_times(tracer.spans) == [2.0, 1.0]


def test_workload_inputs_are_a_pure_function_of_the_seed():
    for workload in WORKLOADS:
        assert commands(workload, 7) == commands(workload, 7)
    assert commands("sampled", 1) != commands("sampled", 2)
    assert commands("exhaustive", 1) == commands("exhaustive", 2)
    assert commands("pde", 1)[0] == commands("pde", 2)[0]  # fp-solve has no random input
    for workload in WORKLOADS:
        for cmd in commands(workload, 3):
            if "--seed" in cmd.argv:
                assert cmd.argv[cmd.argv.index("--seed") + 1] == "3"
            assert "--threads" not in cmd.argv
    with pytest.raises(ValueError):
        commands("nope", 1)


SMALL_N = 8
SMALL = Command(
    "simulate",
    ("simulate", "--n", str(SMALL_N), "--mode", "exhaustive", "--f=-x", "--h", "1"),
    "density",
    2 ** (SMALL_N + 1) * SMALL_N,
)


def _simulate(out):
    import gridsde.cli

    with contextlib.redirect_stdout(io.StringIO()):
        return gridsde.cli.main(list(SMALL.argv) + ["--out", str(out)])


def test_corrupted_density_csv_counts_as_a_failed_op(tmp_path):
    rc = _simulate(tmp_path)
    key = checks.digest_key("exhaustive", SMALL, 0)
    digests = {key: checks.sha256(tmp_path / "density.csv")}
    assert checks.check_command("exhaustive", SMALL, 0, rc, tmp_path, digests)[0] == []

    csv = tmp_path / "density.csv"
    lines = csv.read_text().splitlines()
    row = lines[-1].split(",")
    hit = next(i for i, v in enumerate(row) if i and float(v) > 0)
    # moving mass between two bins keeps whole counts; only the digest sees it
    row[hit], row[hit + 1] = row[hit + 1], row[hit]
    csv.write_text("\n".join(lines[:-1] + [",".join(row)]) + "\n")
    failures, _ = checks.check_command("exhaustive", SMALL, 0, rc, tmp_path, digests)
    assert failures == ["density.csv differs from the recorded exact-count digest"]

    row[hit + 1] = repr(float(row[hit + 1]) * 1.001)
    csv.write_text("\n".join(lines[:-1] + [",".join(row)]) + "\n")
    failures, _ = checks.check_command("exhaustive", SMALL, 0, rc, tmp_path, {})
    assert failures and "not a whole path count" in failures[0]


def test_failed_exit_and_missing_output_count(tmp_path):
    failures, _ = checks.check_command("exhaustive", SMALL, 0, 1, tmp_path, {})
    assert failures[0] == "exit code 1"
    assert "missing or malformed output" in failures[1]


def test_recorded_digests_cover_the_exhaustive_workload():
    digests = checks.load_digests()
    for cmd in commands("exhaustive", 0):
        if cmd.argv[0] == "simulate":
            assert checks.digest_key("exhaustive", cmd, 0) in digests
    assert checks.digest_key("sampled", commands("sampled", 5)[0], 5) in digests


def test_traced_simulate_matches_untraced_and_closed_form(tmp_path):
    _simulate(tmp_path / "plain")
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        _simulate(tmp_path / "traced")
    finally:
        restore()
    import gridsde.sde

    assert not hasattr(gridsde.sde.TrajectorySet.batches, "__wrapped__")
    assert (tmp_path / "plain" / "density.csv").read_bytes() == (
        tmp_path / "traced" / "density.csv"
    ).read_bytes()
    metrics = tracing.layer_metrics(tracer, tracing.useful_nodes(tracer.iterations))
    paths = 2 ** (SMALL_N + 1)
    assert metrics["sde.path_steps"] == paths * SMALL_N
    assert metrics["noise.paths"] == paths
    assert metrics["sde.step_useful_frac"] == pytest.approx((paths - 2) / (paths * SMALL_N), rel=1e-15)
    assert metrics["cli.bytes_written"] > 0
    assert metrics["sde.kernel_s"] > 0


def test_distinct_prefix_nodes_matches_brute_force():
    from gridsde.grids import GridLevel
    from gridsde.noise import sample_paths

    n = 70  # two 64-bit words per prefix
    ensemble = sample_paths(GridLevel(n), 300, seed=4)
    values = np.concatenate([block for _, block in ensemble.batches(128)])
    for t0 in (0, 3):
        brute = sum(
            len({tuple(row[t0 : k + 1] > 0) for row in values}) for k in range(t0, n)
        )
        assert tracing.distinct_prefix_nodes(ensemble.batches(128), t0, n) == brute


def test_compare_verdicts():
    parent = [10.0, 10.1, 9.9, 10.0, 10.05, 9.95, 10.0, 10.02, 9.98, 10.0]
    faster = [v * 0.8 for v in parent]
    slower = [v * 1.3 for v in parent]
    same = list(parent)
    pairs = lambda a, b: list(zip(a, b))  # noqa: E731
    assert compare.verdict(parent, faster, pairs(parent, faster), "lower", 0.1)[0] == "improved"
    assert compare.verdict(parent, slower, pairs(parent, slower), "lower", 0.1)[0] == "regressed"
    assert compare.verdict(parent, same, pairs(parent, same), "lower", 0.1)[0] == "unchanged"
    assert compare.verdict(parent, faster, pairs(parent, faster), "higher", 0.1)[0] == "regressed"
    assert compare.verdict(parent, faster, pairs(parent, faster), "lower", 0.1, True)[0] == "unresolved"
    noisy = [1.0, 2.0, 3.0, 1.5, 2.5, 1.0, 3.0, 2.0, 1.2, 2.8]
    assert compare.verdict(noisy, noisy, pairs(noisy, noisy), "lower", 0.1)[0] == "unresolved"
    assert compare.verdict(parent, same, pairs(parent, same), "lower", None)[0] == "unresolved"
    counts = [7.0] * 10
    assert compare.verdict(counts, counts, pairs(counts, counts), "lower", None)[0] == "unchanged"


def test_fp_substeps_from_inputs_match_the_solver():
    from gridsde import fokker_planck

    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        sol = fokker_planck.fp_solve("-x", "1", 0.0, (-2.0, 2.0), 1 / 32, t_end=0.5, save_times=(0.25, 0.5))
    finally:
        restore()
    (fp_span,) = [i for i, s in enumerate(tracer.spans) if s[0] == "fokker_planck.fp_solve"]
    evals = sum(1 for s in tracer.spans if s[0] == "expr.eval" and s[3] == fp_span)
    # the solver samples f and h at 33 times for its step bound, then evaluates both per substep
    assert tracer.counters["fokker_planck.fp_substeps"] == (evals - 2 * 33) // 2
    assert tracer.counters["fokker_planck.fp_cell_updates"] == (evals - 66) // 2 * sol.cells
    steps, cells = tracing.fp_substeps(
        lambda t, x: -x, lambda t, x: 1.0, (-3.0, 3.0), 1 / 128, None, 1.0, None
    )
    assert (steps, cells) == (36835, 768)

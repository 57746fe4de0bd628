import math
import tracemalloc
import weakref
from fractions import Fraction

import numpy as np
import pytest

from gridsde import sde
from gridsde.expr import TestFunction
from gridsde.fokker_planck import weak_form_residual
from gridsde.grids import GridError, GridLevel
from gridsde.identities import increment_report
from gridsde.noise import (
    NoiseAlphabet,
    NoiseEnsemble,
    NoiseError,
    NoisePath,
    conditional,
    enumerate_paths,
    sample_paths,
)
from gridsde.sde import (
    CauchyProblem,
    DivergenceError,
    TrajectorySet,
    bin_counts,
    continuous_dependence_check,
    density,
    event_probability,
    solve_grid_ode,
    weighted_sum,
)


def brownian_problem(n):
    return CauchyProblem("0", "1", 0.0, GridLevel(n))


class TestSolveGridOde:
    def test_zero_dynamics_constant(self):
        tr = solve_grid_ode(CauchyProblem("0", "0", 1.0, GridLevel(8)))
        assert np.all(tr.values == 1.0)

    def test_compound_growth_closed_form(self):
        tr = solve_grid_ode(CauchyProblem("x", "0", 1.0, GridLevel(4)))
        assert tr.values[-1] == 2.44140625  # (1 + 1/4)^4, exact in binary

    def test_all_plus_noise_reaches_sqrt_n_exactly(self):
        n = 8
        path = NoisePath(GridLevel(n), np.full(n + 1, math.sqrt(n)))
        tr = solve_grid_ode(brownian_problem(n), path)
        assert tr.values[-1] == math.sqrt(n)

    def test_initial_value_exact(self):
        tr = solve_grid_ode(CauchyProblem("sin(t)", "0", -0.75, GridLevel(16)))
        assert tr.values[0] == -0.75

    def test_divergence_guard_reports_step(self):
        with pytest.raises(DivergenceError, match="diverged at step"):
            solve_grid_ode(CauchyProblem("x^2", "0", 10.0, GridLevel(16)))

    def test_level_mismatch_rejected(self):
        path = NoisePath(GridLevel(8), np.zeros(9))
        with pytest.raises(GridError):
            solve_grid_ode(brownian_problem(4), path)

    def test_adaptedness_future_noise_irrelevant(self):
        n = 16
        level = GridLevel(n)
        base = sample_paths(level, 1, seed=3).path(0)
        problem = CauchyProblem("-x + sin(t)", "1", 0.5, level)
        reference = solve_grid_ode(problem, base)
        k = 9
        mutated_values = base.values.copy()
        mutated_values[k:] = -mutated_values[k:]
        mutated = NoisePath(level, mutated_values)
        other = solve_grid_ode(problem, mutated)
        assert np.array_equal(reference.values[: k + 1], other.values[: k + 1])
        assert not np.array_equal(reference.values, other.values)


class TestSimulateEnsemble:
    def test_brownian_moments_exact_n8(self):
        ts = TrajectorySet(brownian_problem(8), enumerate_paths(GridLevel(8)))
        final = np.concatenate([block[:, -1].copy() for _, _, block in ts.batches()])
        assert math.fsum(final) == 0.0
        assert math.fsum(final**2) / len(final) == pytest.approx(1.0, rel=1e-12)

    def test_deterministic_ensemble_matches_single_solve(self):
        level = GridLevel(8)
        problem = CauchyProblem("-x", "0", 0.7, level)
        single = solve_grid_ode(problem)
        ts = TrajectorySet(problem, enumerate_paths(level))
        for _, _, block in ts.batches():
            assert np.array_equal(block, np.tile(single.values, (block.shape[0], 1)))

    def test_ou_second_moment_closed_form(self):
        n, m = 64, 100_000
        level = GridLevel(n)
        problem = CauchyProblem("-x", "1", 0.0, level)
        ens = sample_paths(level, m, seed=17)
        final = np.concatenate(
            [block[:, -1].copy() for _, _, block in TrajectorySet(problem, ens).batches()]
        )
        target = (1.0 - math.exp(-2.0)) / 2.0
        stderr = float(np.std(final**2)) / math.sqrt(m)
        assert abs(float(np.mean(final**2)) - target) <= 0.02 + 3.0 * stderr

    def test_divergence_carries_path_index(self):
        level = GridLevel(8)
        problem = CauchyProblem("x^2", "0", 9.0, level)
        with pytest.raises(DivergenceError) as info:
            for _ in TrajectorySet(problem, enumerate_paths(level)).batches():
                pass
        assert info.value.path_index is not None


class TestBatchIndependence:
    def test_counts_and_event_probability_ignore_batching(self):
        cases = (
            (sample_paths(GridLevel(16), 40000, seed=4), (777, 32768)),
            (enumerate_paths(GridLevel(12)), (5, 777, 32768)),
        )
        for ens, batch_sizes in cases:
            # density bins the window of the problem's level; TrajectorySet compares only n
            narrow = CauchyProblem(
                "sin(t)-x", "1+0.5*sin(x)", 0.0, GridLevel(ens.level.n, Fraction(1, 2))
            )
            results = []
            for batch_size in batch_sizes:
                ts = TrajectorySet(narrow, ens, batch_size=batch_size)
                dens = density(ts)
                prob = event_probability(ts, 0.5, -0.25, 0.5)
                results.append((dens.counts.tolist(), dens.overflow.tolist(), prob))
            assert sum(results[0][1]) > 0
            assert all(r == results[0] for r in results[1:])

    @pytest.mark.parametrize("ens", [sample_paths(GridLevel(8), 64, seed=2)], ids=["sampled"])
    def test_one_batch_alive_while_the_next_is_built(self, monkeypatch, ens):
        # a sampled tile is the run of _step_nodes calls from k = 0, and its arrays
        # are the states, compensations and masks it steps through (its noise column
        # is one buffer for every tile).  A tile yields x_k before it steps k, so it
        # reads from k = 2: the caller's loop variables still hold the last tile's
        # yields when the next one steps
        ts = TrajectorySet(CauchyProblem("-x", "1", 0.0, ens.level), ens, batch_size=16)
        step_nodes, built, tile, tiles = sde._step_nodes, [], [], []

        def recording_step_nodes(problem, k, x, comp, xi):
            if k == 0:
                built.extend(tile)
                tile.clear()
                tiles.append(len(x))
                assert all(ref() is None for ref in built), "an earlier tile is still alive"
            out = step_nodes(problem, k, x, comp, xi)
            tile.extend(weakref.ref(a) for a in (x, comp, *out))
            return out

        monkeypatch.setattr(sde, "_step_nodes", recording_step_nodes)
        yielded = 0
        for _, xk, xik, _ in ts.steps((2, 4), with_noise=True):
            yielded += 1  # xk and xik stay bound while the next tile is built
        assert yielded == 2 * len(tiles) and tiles == [16] * (ens.count // 16)


class TestBatchBuffers:
    @pytest.mark.parametrize("bad", [0, -3, 2.5, 4.0, True, "8"])
    @pytest.mark.parametrize(
        "ens", [sample_paths(GridLevel(4), 10, seed=1), enumerate_paths(GridLevel(4))],
        ids=["sampled", "exhaustive"],
    )
    def test_batch_size_must_be_a_positive_integer(self, ens, bad):
        message = "batch size must be a positive integer"
        with pytest.raises(NoiseError, match=message):
            list(ens.batches(bad))
        with pytest.raises(NoiseError, match=message):
            TrajectorySet(brownian_problem(4), ens, batch_size=bad)

    @pytest.mark.parametrize(
        "ens", [sample_paths(GridLevel(4), 10, seed=1), enumerate_paths(GridLevel(4))],
        ids=["sampled", "exhaustive"],
    )
    def test_batch_sizes_one_and_seven_count_every_path(self, ens):
        want = density(TrajectorySet(brownian_problem(4), ens))
        for batch_size in (1, 7):
            got = density(TrajectorySet(brownian_problem(4), ens, batch_size=batch_size))
            assert got.normalization_exact()
            assert np.array_equal(got.counts, want.counts)
            assert np.array_equal(got.overflow, want.overflow)

    @pytest.mark.parametrize("kind", ["exhaustive", "conditional", "sampled"])
    def test_walks_reuse_two_buffers_and_every_batch_is_exact(self, kind):
        level = GridLevel(8)
        problem = CauchyProblem("sin(t)-x", "1+0.5*sin(x)", 0.1, level)
        ensemble, batch_size = enumerate_paths(level), 64
        if kind == "conditional":
            ensemble, batch_size = conditional(ensemble, (math.sqrt(8), -math.sqrt(8))), 16
        elif kind == "sampled":
            # 777 + 23 paths: a short last batch
            ensemble, batch_size = sample_paths(level, 800, seed=5), 777
        noise = np.concatenate([b for _, b in ensemble.batches()])
        views, kept = [], []
        for _, xi, values in TrajectorySet(problem, ensemble, batch_size).batches():
            views.append((xi, values))
            kept.append((xi.copy(), values.copy()))
        assert len(views) == -(-ensemble.count // batch_size) > 1
        for xi, values in views[1:]:
            assert np.shares_memory(xi, views[0][0])
            assert np.shares_memory(values, views[0][1])
            assert not np.shares_memory(xi, values)
        assert np.concatenate([xi for xi, _ in kept]).tobytes() == noise.tobytes()
        want = _per_row_states(problem, noise)
        assert np.concatenate([values for _, values in kept]).tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "ens", [sample_paths(GridLevel(64), 100_000, seed=1), enumerate_paths(GridLevel(18))],
        ids=["sampled", "exhaustive"],
    )
    def test_density_holds_at_most_two_batch_blocks(self, ens):
        trajectories = TrajectorySet(CauchyProblem("-x", "1", 0.0, ens.level), ens)
        block_bytes = trajectories.batch_size * (ens.level.n + 1) * 8
        tracemalloc.start()
        try:
            density(trajectories)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the noise block and the states, plus the step kernel's per-step arrays
        assert peak < 2.5 * block_bytes

    def test_sampled_density_memory_is_set_by_the_batch_size_alone(self):
        # a tile holds about a dozen arrays of batch_size floats at any n: the hash
        # buffers and the noise column, the states and compensations, one step's
        # temporaries and the binning's; a [batch, n+1] block alone is 65 or 513 of them
        batch_size, peaks = 1 << 14, []
        for n in (64, 512):
            level = GridLevel(n)
            ensemble = sample_paths(level, 2 * batch_size + 100, seed=1)
            trajectories = TrajectorySet(CauchyProblem("-x", "1", 0.0, level), ensemble, batch_size)
            tracemalloc.start()
            try:
                density(trajectories, range(0, n + 1, n // 4))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks) < 20 * 8 * batch_size


class TestBinCounts:
    N, K = 16, 8

    def place(self, x):
        counts = np.zeros(2 * self.K, dtype=np.int64)
        overflow = bin_counts(np.array([x]), self.N, self.K, counts)
        assert counts.sum() + overflow == 1
        return int(np.flatnonzero(counts)[0]) - self.K if overflow == 0 else "overflow"

    def test_lattice_point_lands_in_its_own_bin(self):
        assert [self.place(j / self.N) for j in range(-self.K, self.K)] == list(range(-self.K, self.K))

    def test_window_edges(self):
        left = -self.K / self.N
        assert self.place(left) == -self.K
        assert self.place(self.K / self.N) == "overflow"
        assert self.place(np.nextafter(left, -np.inf)) == "overflow"


class TestDensity:
    def test_initial_slice_is_point_mass(self):
        n = 8
        ts = TrajectorySet(brownian_problem(n), enumerate_paths(GridLevel(n)))
        dens = density(ts, time_indices=[0])
        rho = dens.rho()[0]
        center = dens.window_steps  # bin [0, 1/n)
        assert rho[center] == float(n)
        assert np.count_nonzero(rho) == 1

    def test_binomial_profile_at_t1(self):
        n = 8
        ts = TrajectorySet(brownian_problem(n), enumerate_paths(GridLevel(n)))
        dens = density(ts, time_indices=[n])
        counts = dens.counts[0]
        sites = {}
        for j in range(n + 1):
            x = (2 * j - n) / math.sqrt(n)
            sites[int(math.floor(x * n)) + dens.window_steps] = 2 * math.comb(n, j)
        for idx, count in enumerate(counts):
            assert count == sites.get(idx, 0)

    def test_normalization_exact_every_slice(self):
        n = 8
        ts = TrajectorySet(brownian_problem(n), enumerate_paths(GridLevel(n)))
        dens = density(ts)
        assert dens.normalization_exact()

    def test_overflow_counted_with_small_window(self):
        n = 8
        problem = CauchyProblem("0", "1", 0.0, GridLevel(n, Fraction(1)))
        ts = TrajectorySet(problem, enumerate_paths(GridLevel(n)))
        dens = density(ts, time_indices=[n])
        assert dens.overflow[0] > 0
        assert dens.normalization_exact()

    def test_sampled_mode_normalization(self):
        n = 16
        level = GridLevel(n)
        ts = TrajectorySet(
            CauchyProblem("-x", "1", 0.0, level), sample_paths(level, 5000, seed=2)
        )
        dens = density(ts, time_indices=[0, 8, 16])
        assert dens.normalization_exact()

    def test_state_average_matches_binned_average_within_bin_variation(self):
        # E[phi(t, x(t))] vs step-weighted sum of phi at bin left edges:
        # the gap is at most max|phi_x| * step
        n = 16
        level = GridLevel(n)
        phi = TestFunction.from_bumps(x_center=0.0, x_width=2.0)
        ts = TrajectorySet(brownian_problem(n), enumerate_paths(GridLevel(n)))
        k = n // 2
        values = np.concatenate([b[:, k].copy() for _, _, b in ts.batches()])
        exact = float(np.mean([phi(k / n, v) for v in values]))
        dens = density(TrajectorySet(brownian_problem(n), enumerate_paths(GridLevel(n))), time_indices=[k])
        edges = dens.bin_left_edges()
        binned = float(np.sum([phi(k / n, e) for e in edges] * dens.rho()[0]) / n)
        fine = np.linspace(-2, 2, 10 * n + 1)
        max_slope = max(abs(phi.d_x(k / n, float(v))) for v in fine)
        assert abs(exact - binned) <= max_slope / n


class TestTimeIndices:
    """steps, and density and increment_report through it, take integers 0..n only."""

    @pytest.mark.parametrize("k", [-1, 5, 2.5, True], ids=["negative", "past-n", "fractional", "bool"])
    @pytest.mark.parametrize("mode", ["exhaustive", "sampled"])
    def test_bad_index_raises_before_the_first_batch(self, k, mode):
        n = 4
        level = GridLevel(n)
        ens = enumerate_paths(level) if mode == "exhaustive" else sample_paths(level, 10, seed=1)
        ts = TrajectorySet(brownian_problem(n), ens)
        ts.batches = lambda: pytest.fail("a batch was stepped")
        message = f"time index {k!r} is not an integer in 0..4"
        for with_noise in (False, True):
            with pytest.raises(GridError, match=message):
                next(ts.steps((0, k), with_noise=with_noise))
        with pytest.raises(GridError, match=message):
            density(ts, (k,))
        with pytest.raises(GridError, match=message):
            increment_report(brownian_problem(n), ens, ["x"], time_indices=(k,))

    def test_numpy_integers_and_both_ends_are_indices(self):
        n = 4
        ts = TrajectorySet(brownian_problem(n), enumerate_paths(GridLevel(n)))
        dens = density(ts, (np.int64(0), np.int64(n)))
        assert dens.normalization_exact()
        assert dens.times().tolist() == [0.0, 1.0]


class TestEventProbability:
    def test_whole_space(self):
        ts = TrajectorySet(brownian_problem(4), enumerate_paths(GridLevel(4)))
        assert event_probability(ts, 1.0, -math.inf, math.inf) == 1

    def test_binomial_count_with_ties(self):
        n = 8
        ts = TrajectorySet(brownian_problem(n), enumerate_paths(GridLevel(n)))
        p = event_probability(ts, 1.0, 0.0, math.inf)
        assert p == Fraction(163, 256)

    def test_bin_aligned_event_equals_density_mass(self):
        n = 8
        level = GridLevel(n)
        a, b = 0.0, 0.5  # bin-aligned: 4 bins of width 1/8
        ts = TrajectorySet(brownian_problem(n), enumerate_paths(level))
        p = event_probability(ts, 1.0, a, b)
        dens = density(TrajectorySet(brownian_problem(n), enumerate_paths(level)), time_indices=[n])
        k = dens.window_steps
        mass = Fraction(int(dens.counts[0][k : k + 4].sum()), dens.ensemble_size)
        assert p == mass

    def test_off_grid_time_rejected(self):
        ts = TrajectorySet(brownian_problem(4), enumerate_paths(GridLevel(4)))
        with pytest.raises(GridError):
            event_probability(ts, 0.3, 0.0, 1.0)


class TestContinuousDependence:
    def test_linear_decay_within_bound(self):
        problem = CauchyProblem("-x", "0", 0.0, GridLevel(64))
        report = continuous_dependence_check(problem, 0.0, 0.01, lipschitz_constant=1.0, horizon=1.0)
        assert report.ok
        assert report.max_gap <= 0.01 * math.e
        assert report.max_gap <= 0.01 + 1e-15  # contraction: gap never grows

    def test_equal_starts_zero_gap(self):
        problem = CauchyProblem("sin(3*x)", "0", 0.0, GridLevel(32))
        report = continuous_dependence_check(problem, 0.4, 0.4, lipschitz_constant=3.0, horizon=1.0)
        assert report.ok
        assert report.max_gap == 0.0

    def test_expanding_flow_within_exponential_envelope(self):
        problem = CauchyProblem("2*x", "0", 0.0, GridLevel(64))
        report = continuous_dependence_check(problem, 0.1, 0.11, lipschitz_constant=2.0, horizon=1.0)
        assert report.ok
        assert report.max_gap > 0.01  # the gap really grows

    def test_wrong_lipschitz_constant_reports_first_violation(self):
        problem = CauchyProblem("3*x", "0", 0.0, GridLevel(64))
        report = continuous_dependence_check(problem, 0.1, 0.2, lipschitz_constant=1.0, horizon=1.0)
        assert not report.ok
        assert report.first_violation_step is not None
        assert report.gap_at_violation > report.bound_at_violation


class _PerPath:
    """An exhaustive ensemble that ``TrajectorySet`` steps path by path.

    Its mode is not "exhaustive", so it is treated as a sampled ensemble
    is: a batch of ``batch_size`` paths is a tree with one child per node,
    so the step kernel steps every path on its own, and every path is
    reduced with multiplicity 1.  This is the reference that the
    reductions over the prefix tree are checked against; the kernel itself
    is checked against ``_per_row_states``.
    """

    mode = "per-path"

    def __init__(self, ensemble):
        self._ensemble = ensemble

    def __getattr__(self, name):
        return getattr(self._ensemble, name)


def _per_row_states(problem, noise):
    """The states of every noise row, each row stepped on its own by a plain loop.

    The update is the kernel's compensated (Kahan) step, written out here,
    so the kernel's node sharing and memory layout are checked against code
    that has neither.
    """
    n = problem.level.n
    drift, diffusion = problem.drift.vectorized(), problem.diffusion.vectorized()
    out = np.empty((noise.shape[0], n + 1))
    for row, xi in enumerate(noise):
        x, comp = np.full(1, problem.x0), np.zeros(1)
        out[row, 0] = problem.x0
        for k in range(n):
            rate = drift(k / n, x) + diffusion(k / n, x) * xi[k]
            inc = rate / n - comp
            nxt = x + inc
            x, comp = nxt, (nxt - x) - inc
            out[row, k + 1] = x[0]
    return out


TERNARY = NoiseAlphabet.from_symbols((-3.0, 1.0, 2.0))
PHI = TestFunction.from_expression("bump((t-0.5)/0.45)*bump(x/2)")


def _close(a, b, scale=1.0):
    return abs(a - b) <= 1e-12 * max(scale, abs(a), abs(b))


def assert_matches_per_path(problem, ensemble, batch_size=1 << 15):
    """``steps``, whichever walk it takes, against the per-path view and ``_PerPath``.

    The weights of each level add up to the path count.  Bin counts,
    overflow, event probabilities and the weak-form residual must equal
    both the per-path view ``batches()`` and ``_PerPath``; the weak-form
    pieces and increment sums must agree with ``_PerPath`` within 1e-12
    relative.  exp(-exp(1/x)) is 0 at 0.0 and 1 at -0.0, so a merge of
    states that are equal as floats but not as bits changes its sums.
    """
    n = problem.level.n
    tree = TrajectorySet(problem, ensemble, batch_size=batch_size)
    reference = TrajectorySet(problem, _PerPath(ensemble))
    values = np.concatenate([v.copy() for _, _, v in tree.batches()])

    for k in range(n + 1):
        for with_noise in (False, True):
            steps = tree.steps((k,), with_noise=with_noise)
            total = sum(weighted_sum(np.ones(len(x), dtype=bool), w) for _, x, _, w in steps)
            assert total == ensemble.count
    got, want = density(tree), density(reference)
    counts, overflow = np.zeros_like(got.counts), np.zeros_like(got.overflow)
    for k in range(n + 1):
        overflow[k] = bin_counts(values[:, k], n, problem.level.window_steps, counts[k])
    assert np.array_equal(got.counts, want.counts) and np.array_equal(got.counts, counts)
    assert np.array_equal(got.overflow, want.overflow) and np.array_equal(got.overflow, overflow)
    assert got.ensemble_descriptor == want.ensemble_descriptor
    for k, a, b in ((n // 2, -0.25, 0.5), (n, 0.0, math.inf), (n, -0.3, 0.1)):
        hits = int(np.count_nonzero((values[:, k] >= a) & (values[:, k] < b)))
        got = event_probability(tree, k / n, a, b)
        assert got == event_probability(reference, k / n, a, b) == Fraction(hits, ensemble.count)

    got = weak_form_residual(problem, ensemble, PHI)
    want = weak_form_residual(problem, _PerPath(ensemble), PHI)
    assert (got.residual, got.double_sum) == (want.residual, want.double_sum)
    pieces = ("drift_term", "noise_term", "correction_term", "quadratic_term", "taylor_total")
    scale = max(1.0, *(abs(getattr(want, p)) for p in pieces))
    for piece in pieces:
        assert _close(getattr(got, piece), getattr(want, piece), scale), piece

    functions = ["sin(x) + 1", "bump(x/4)", "x^2", "exp(-exp(1/x))"]
    indices = (0, 1, n // 2, n - 1, n)
    got = increment_report(problem, ensemble, functions, indices)
    want = increment_report(problem, _PerPath(ensemble), functions, indices)
    for g, w in zip(got.entries, want.entries, strict=True):
        assert _close(g.orthogonality_gap, w.orthogonality_gap, max(1.0, w.orthogonality_scale)), g
        assert _close(g.orthogonality_scale, w.orthogonality_scale), g
        assert _close(g.quadratic_gap, w.quadratic_gap, w.quadratic_scale), g


def _sorted_bits(x, xi):
    """The (x, xi) pairs in order of their bit patterns, so that two multisets compare bit for bit."""
    order = np.lexsort((xi.view(np.int64), x.view(np.int64)))
    return x[order], xi[order]


def merges(problem, ensemble, batch_size=1 << 15):
    """Whether ``steps`` walks the recombining lattice: its weights are arrays."""
    _, _, _, weight = next(TrajectorySet(problem, ensemble, batch_size).steps((0,)))
    return isinstance(weight, np.ndarray)


class TestPrefixTree:
    @pytest.mark.parametrize(
        "alphabet, n", [(NoiseAlphabet.white(), 8), (TERNARY, 5)], ids=["binary", "ternary"]
    )
    @pytest.mark.parametrize("prefix", [None, (1, 0, 1)], ids=["full", "conditional"])
    def test_matches_per_path_reduction(self, alphabet, n, prefix):
        level = GridLevel(n)
        problem = CauchyProblem("sin(t)-x", "1+0.5*sin(x)", 0.1, level)
        ensemble = enumerate_paths(level, alphabet)
        if prefix is not None:
            ensemble = conditional(ensemble, tuple(alphabet.scaled(level)[list(prefix)]))
        assert_matches_per_path(problem, ensemble)
        assert_matches_per_path(problem, ensemble, batch_size=5)

    @pytest.mark.parametrize("batch_size", [7, 1 << 15])
    def test_states_match_per_path_bit_for_bit(self, batch_size):
        n = 10
        level = GridLevel(n)
        problem = CauchyProblem("sin(t)-x", "1+0.5*sin(x)", 0.0, level)
        ensemble = enumerate_paths(level)
        tree = TrajectorySet(problem, ensemble, batch_size=batch_size)
        rows = min(batch_size, ensemble.count)
        rows = 1 << (rows.bit_length() - 1)  # a batch is a whole subtree
        assert tree.batch_size == rows
        reference = TrajectorySet(problem, _PerPath(ensemble), batch_size=batch_size)
        noise = np.concatenate([b for _, b in ensemble.batches()])
        want = np.concatenate([v.copy() for _, _, v in reference.batches()])
        got = np.concatenate([v.copy() for _, _, v in tree.batches()])
        assert got.tobytes() == want.tobytes()
        for with_noise in (False, True):
            states = {k: [] for k in range(n + 1)}
            values = {k: [] for k in range(n + 1)}
            for k, xk, xik, weight in tree.steps(range(n + 1), with_noise):
                assert xk.shape[0] * weight == rows
                states[k].append(np.repeat(xk, weight))
                if with_noise:
                    values[k].append(np.repeat(xik, weight))
            for k in range(n + 1):
                # each yielded state stands for the next `weight` rows of its batch
                assert np.concatenate(states[k]).tobytes() == want[:, k].tobytes()
                if with_noise:
                    assert np.concatenate(values[k]).tobytes() == noise[:, k].tobytes()

    @pytest.mark.parametrize("batch_size", [7, 777, 1 << 15])
    @pytest.mark.parametrize("kind", ["exhaustive", "conditional", "sampled"])
    @pytest.mark.parametrize(
        "alphabet, n", [(NoiseAlphabet.white(), 8), (TERNARY, 5)], ids=["binary", "ternary"]
    )
    def test_states_match_a_per_row_loop(self, alphabet, n, kind, batch_size):
        level = GridLevel(n)
        ensemble = enumerate_paths(level, alphabet)
        if kind == "conditional":
            ensemble = conditional(ensemble, tuple(alphabet.scaled(level)[[1, 0]]))
        elif kind == "sampled":
            ensemble = sample_paths(level, 800, seed=5, alphabet=alphabet)
        noise = np.concatenate([b for _, b in ensemble.batches()])
        # constant coefficients are broadcast against the children, not spread to the nodes
        for f, h in (("sin(t)-x", "1+0.5*sin(x)"), ("0.3", "1")):
            problem = CauchyProblem(f, h, 0.1, level)
            want = _per_row_states(problem, noise)
            for stepped in (ensemble, _PerPath(ensemble)):
                trajectories = TrajectorySet(problem, stepped, batch_size=batch_size)
                got = np.concatenate([v.copy() for _, _, v in trajectories.batches()])
                assert got.tobytes() == want.tobytes()
                # each yielded (x_k, xi_k) stands for the next `weight` rows of its batch,
                # or on the lattice, where constant coefficients merge, for `weight` rows
                states = {k: [] for k in range(n + 1)}
                values = {k: [] for k in range(n + 1)}
                for k, xk, xik, weight in trajectories.steps(range(n + 1), with_noise=True):
                    states[k].append(np.repeat(xk, weight))
                    values[k].append(np.repeat(xik, weight))
                in_order = not merges(problem, stepped, batch_size)
                for k in range(n + 1):
                    pairs = np.concatenate(states[k]), np.concatenate(values[k])
                    rows = want[:, k], noise[:, k]
                    if not in_order:
                        pairs, rows = _sorted_bits(*pairs), _sorted_bits(*rows)
                    assert pairs[0].tobytes() == rows[0].tobytes()
                    assert pairs[1].tobytes() == rows[1].tobytes()
            for row in (0, ensemble.count - 1):
                got = solve_grid_ode(problem, NoisePath(level, noise[row])).values
                assert got.tobytes() == want[row].tobytes()

    @pytest.mark.parametrize("batch_size", [1 << 15, 7])
    def test_sampled_divergence_names_a_path_that_diverges_there(self, batch_size):
        level = GridLevel(10)
        problem = CauchyProblem("exp(2*x)", "3", 0.0, level)
        ensemble = sample_paths(level, 300, seed=11)
        with pytest.raises(DivergenceError) as info:
            density(TrajectorySet(problem, ensemble, batch_size=batch_size))
        step, index = info.value.step, info.value.path_index
        assert index > 0
        with pytest.raises(DivergenceError) as single:
            solve_grid_ode(problem, ensemble.path(index))
        assert (single.value.step, single.value.path_index) == (step, index)
        # every earlier path survives or fails later, whatever its batch, and no path fails earlier
        for j in range(ensemble.count):
            try:
                solve_grid_ode(problem, ensemble.path(j))
            except DivergenceError as other:
                assert other.step > step if j < index else other.step >= step

    def test_int64_guard_trips_before_traversal(self):
        level = GridLevel(40)
        ternary = NoiseAlphabet.from_symbols((-1.0, 0.0, 1.0))
        ensemble = NoiseEnsemble("exhaustive", level, ternary, 3**41)
        trajectories = TrajectorySet(CauchyProblem("0", "1", 0.0, level), ensemble)
        with pytest.raises(NoiseError, match=r"int64 limit 2\*\*63"):
            density(trajectories)

    @pytest.mark.parametrize("batch_size", [1 << 15, 5])
    def test_divergence_names_smallest_path_through_first_bad_node(self, batch_size):
        n = 10
        level = GridLevel(n)
        problem = CauchyProblem("exp(2*x)", "3", 0.0, level)
        ensemble = enumerate_paths(level)
        with pytest.raises(DivergenceError) as info:
            density(TrajectorySet(problem, ensemble, batch_size=batch_size))
        step, index = info.value.step, info.value.path_index
        assert index % 2 ** (n + 1 - step) == 0  # all later digits are the first symbol
        with pytest.raises(DivergenceError) as single:
            solve_grid_ode(problem, ensemble.path(index))
        assert single.value.step == step


@pytest.mark.parametrize(
    "kind, batch_size, want",
    [
        ("exhaustive", 1 << 10, (3, 114688)),
        ("exhaustive", 1 << 15, (3, 114688)),
        ("exhaustive", 1 << 17, (3, 114688)),
        ("sampled", 7, (4, 9)),
        ("sampled", 64, (4, 9)),
        ("sampled", 1 << 15, (4, 9)),
    ],
)
def test_divergence_names_the_first_step_of_the_whole_ensemble(kind, batch_size, want):
    # a batch that diverges early must not hide an earlier step in a later batch; at
    # 2^10 the 2^17 paths are 128 batches (batch size 5, 32768 batches, takes 10 s)
    if kind == "exhaustive":
        problem = CauchyProblem(1.6e12, 1.2e12, 0.0, GridLevel(16))
        ensemble = enumerate_paths(GridLevel(16))
    else:
        problem = CauchyProblem("exp(2*x)", "3", 0.0, GridLevel(10))
        ensemble = sample_paths(GridLevel(10), 300, seed=11)
    with pytest.raises(DivergenceError) as info:
        density(TrajectorySet(problem, ensemble, batch_size=batch_size))
    assert (info.value.step, info.value.path_index) == want


def test_batches_after_a_divergence_are_stepped_only_below_its_step(monkeypatch):
    # from x0 = 5e11 with f = 0 and h = 4e11, paths with many upper symbols pass 1e12:
    # batch 15 of 8 paths first, at step 8, then batch 31 at step 6 and batch 60 at
    # step 4.  Each later batch is stepped only below the earliest step so far, and
    # no batch is yielded after the first divergence
    n = 8
    level = GridLevel(n)
    problem, ensemble = CauchyProblem(0, 4e11, 5e11, level), enumerate_paths(level)
    step_nodes, levels = sde._step_nodes, []

    def counting(problem, k, *args):
        if k == 0:
            levels.append(0)
        levels[-1] += 1
        return step_nodes(problem, k, *args)

    monkeypatch.setattr(sde, "_step_nodes", counting)
    starts = []
    with pytest.raises(DivergenceError) as info:
        for start, _, _ in TrajectorySet(problem, ensemble, batch_size=8).batches():
            starts.append(start)
    assert starts == list(range(0, 15 * 8, 8))
    assert levels == [8] * 16 + [7] * 15 + [6] + [5] * 28 + [4] + [3] * 3
    monkeypatch.undo()
    first = {}
    for index in range(ensemble.count):
        try:
            solve_grid_ode(problem, ensemble.path(index))
        except DivergenceError as exc:
            first.setdefault(exc.step, index)
    step = min(first)
    assert (info.value.step, info.value.path_index) == (step, first[step]) and step == 4


def test_tiles_after_a_divergence_yield_nothing_and_are_stepped_only_below_its_step(monkeypatch):
    # the sampled walk's rule, on the problem above: of 32 tiles of 8 paths, tile 1
    # diverges first, at step 8, after yielding x_0 and x_4; tile 2 then diverges at
    # step 6 and tile 4 at step 4, and no tile yields after tile 1
    n = 8
    level = GridLevel(n)
    problem, ensemble = CauchyProblem(0, 4e11, 5e11, level), sample_paths(level, 256, seed=0)
    step_nodes, levels = sde._step_nodes, []

    def counting(problem, k, *args):
        if k == 0:
            levels.append(0)
        levels[-1] += 1
        return step_nodes(problem, k, *args)

    monkeypatch.setattr(sde, "_step_nodes", counting)
    yielded = []
    with pytest.raises(DivergenceError) as info:
        for i, xk, _, _ in TrajectorySet(problem, ensemble, batch_size=8).steps((0, 4)):
            yielded.append((i, len(xk)))
    assert yielded == [(0, 8), (1, 8)] * 2
    assert levels == [8, 8, 6, 5, 4] + [3] * 27
    monkeypatch.undo()
    first = {}
    for index in range(ensemble.count):
        try:
            solve_grid_ode(problem, ensemble.path(index))
        except DivergenceError as exc:
            first.setdefault(exc.step, index)
    assert min(first) == 4 and first[4] >= 32  # in tile 4 or later
    assert (info.value.step, info.value.path_index) == (4, first[4])


def test_a_sampled_ensemble_the_size_of_the_enumeration_is_walked_path_by_path():
    # 2^(n+1) sampled paths are as many as a full enumeration holds, but they are not
    # one: walked as the recombining lattice, they would be weighted by prefix classes
    n = 4
    ensemble = sample_paths(GridLevel(n), 2 ** (n + 1), seed=3)
    assert_matches_per_path(brownian_problem(n), ensemble)


def test_arr_returns_a_float_array_of_the_states_shape_as_it_is():
    x = np.linspace(-1.0, 1.0, 7)
    value = np.sin(x)
    got = sde._arr(value, x)
    assert got is value and got.tobytes() == np.sin(x).tobytes()
    for other in (2.5, np.float64(2.5), np.array(2.5), np.arange(7), value.astype(np.float32), value[:1]):
        got = sde._arr(other, x)
        assert got is not other and got.dtype == np.float64 and got.shape == x.shape
        assert not got.flags.writeable
        assert got.tobytes() == np.broadcast_to(np.asarray(other, dtype=np.float64), x.shape).tobytes()


@pytest.mark.parametrize("x0", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_x0_is_refused_when_the_problem_is_built(x0):
    with pytest.raises(GridError, match="x0 must be finite"):
        CauchyProblem("0", "1", x0, GridLevel(4))


def test_ensemble_of_another_level_is_refused():
    with pytest.raises(GridError, match="ensemble level does not match the problem level"):
        TrajectorySet(brownian_problem(4), enumerate_paths(GridLevel(3)))


class TestRecombiningLattice:
    """A full exhaustive enumeration whose states merge is walked level by level."""

    @staticmethod
    def walks(monkeypatch):
        """The batch walks that ``TrajectorySet.steps`` starts, as a list that grows."""
        started, batches = [], TrajectorySet.batches

        def recording(self):
            started.append(self)
            return batches(self)

        monkeypatch.setattr(TrajectorySet, "batches", recording)
        return started

    @pytest.mark.parametrize(
        "alphabet, n", [(NoiseAlphabet.white(), 12), (TERNARY, 6)], ids=["binary", "ternary"]
    )
    def test_brownian_walk_holds_few_states_per_level(self, monkeypatch, alphabet, n):
        level = GridLevel(n)
        problem, ensemble = brownian_problem(n), enumerate_paths(level, alphabet)
        walks = self.walks(monkeypatch)
        for with_noise in (False, True):
            for k, xk, xik, weight in TrajectorySet(problem, ensemble).steps(range(n + 1), with_noise):
                assert weight.dtype == np.int64 and weight.shape == xk.shape
                assert int(weight.sum()) == ensemble.count
                states = xk.shape[0] // (alphabet.size if with_noise else 1)
                if alphabet.size == 2:
                    assert states == k + 1  # a binary walk recombines fully: k+1 sites at level k
                elif k >= 2:
                    assert states < alphabet.size**k  # a ternary one in part
                if with_noise:
                    assert xik.tolist() == alphabet.scaled(level).tolist() * states
        assert walks == []
        monkeypatch.undo()
        assert_matches_per_path(problem, ensemble)

    def test_states_are_merged_by_bits_not_by_float_equality(self):
        # from x0 = -0.0 with f = -0.0 and h = 0, a lower symbol keeps -0.0, an upper one
        # gives 0.0, and 0.0 stays 0.0: the all-lower prefix alone holds -0.0
        n = 6
        level = GridLevel(n)
        problem, ensemble = CauchyProblem(-0.0, 0.0, -0.0, level), enumerate_paths(level)
        (_, xk, _, weight), = TrajectorySet(problem, ensemble).steps((3,))
        assert xk.tobytes() == np.array([-0.0, 0.0]).tobytes()
        assert weight.tolist() == [2**4, 7 * 2**4]
        assert_matches_per_path(problem, ensemble)

    def test_mean_reverting_drift_takes_the_batch_walk(self, monkeypatch):
        # f = -x: no two level-2 states agree, so the walk falls back at depth 2
        level = GridLevel(8)
        problem, ensemble = CauchyProblem("-x", "1", 0.0, level), enumerate_paths(level)
        walks = self.walks(monkeypatch)
        weights = [w for _, _, _, w in TrajectorySet(problem, ensemble).steps(range(9))]
        assert len(walks) == 1 and all(type(w) is int for w in weights)

    def test_more_states_than_the_batch_size_takes_the_batch_walk(self, monkeypatch):
        # level 8 of the coin-flip walk holds 9 states, more than batch_size 8
        problem, ensemble = brownian_problem(8), enumerate_paths(GridLevel(8))
        walks = self.walks(monkeypatch)
        want = density(TrajectorySet(problem, ensemble))
        assert walks == []
        got = density(TrajectorySet(problem, ensemble, batch_size=8))
        assert len(walks) == 1 and np.array_equal(got.counts, want.counts)
        assert not merges(problem, ensemble, batch_size=8) and merges(problem, ensemble, batch_size=16)

    def test_divergence_raises_the_batch_walks_error(self, monkeypatch):
        # sqrt(16) = 4, so every state is an exact integer and level 2 merges.  The
        # all-upper node, x_k = 4e11 * k, passes 1e12 at step 3 before any other
        # node, and path 7 * 2^14 is the smallest through it
        n = 16
        level = GridLevel(n)
        problem, ensemble = CauchyProblem(1.6e12, 1.2e12, 0.0, level), enumerate_paths(level)
        walks = self.walks(monkeypatch)
        with pytest.raises(DivergenceError) as merged:
            density(TrajectorySet(problem, ensemble))
        assert len(walks) == 1
        with pytest.raises(DivergenceError) as per_path:
            density(TrajectorySet(problem, _PerPath(ensemble)))
        got = (merged.value.step, merged.value.path_index)
        assert got == (per_path.value.step, per_path.value.path_index) == (3, 7 << 14)

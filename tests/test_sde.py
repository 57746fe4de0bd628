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

    def test_nonzero_start_time_holds_state_before_t0(self):
        level = GridLevel(8)
        problem = CauchyProblem("1", "0", 2.0, level, t0=0.5)
        tr = solve_grid_ode(problem)
        assert np.all(tr.values[:5] == 2.0)
        assert tr.values[-1] == pytest.approx(2.5, rel=1e-15)

    def test_off_grid_t0_rejected(self):
        with pytest.raises(GridError):
            CauchyProblem("0", "0", 0.0, GridLevel(8), t0=0.3)

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

    @pytest.mark.parametrize(
        "ens", [sample_paths(GridLevel(8), 64, seed=2), enumerate_paths(GridLevel(7))],
        ids=["sampled", "exhaustive"],
    )
    def test_one_batch_alive_while_the_next_is_built(self, monkeypatch, ens):
        ts = TrajectorySet(CauchyProblem("-x", "1", 0.0, ens.level), ens, batch_size=16)
        step_block, built = sde._step_block, []

        def recording_step_block(problem, block, *args):
            assert all(ref() is None for ref in built), "an earlier batch is still alive"
            values = step_block(problem, block, *args)
            built.extend((weakref.ref(block), weakref.ref(values)))
            return values

        monkeypatch.setattr(sde, "_step_block", recording_step_block)
        yielded = 0
        for _, xk, xik, _ in ts.steps((0, 4), with_noise=True):
            yielded += 1  # xk and xik stay bound while the next batch is built
        assert yielded == len(built) == 2 * (ens.count // 16)

    @pytest.mark.parametrize("shape", [(1, 9), (7, 3), (3641, 9), (2 * 4096 + 1, 8), (2, 40000)])
    def test_time_major_copy_is_the_transpose(self, shape):
        # row tiles of 2^15 // points rows: 3641 and 8193 rows span tile boundaries
        block = np.random.default_rng(3).standard_normal(shape)
        copy = sde._time_major(block)
        assert copy.flags.c_contiguous
        assert copy.tobytes() == np.ascontiguousarray(block.T).tobytes()


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
    def test_exhaustive_walks_reuse_two_buffers_and_every_batch_is_exact(self, kind):
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
        reused = kind != "sampled"
        for xi, values in views[1:]:
            assert np.shares_memory(xi, views[0][0]) is reused
            assert np.shares_memory(values, views[0][1]) is reused
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
    n, m0 = problem.level.n, problem.t0_index
    drift, diffusion = problem.drift.vectorized(), problem.diffusion.vectorized()
    out = np.empty((noise.shape[0], n + 1))
    for row, xi in enumerate(noise):
        x, comp = np.full(1, problem.x0), np.zeros(1)
        out[row, : m0 + 1] = problem.x0
        for k in range(m0, n):
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


def assert_tree_matches_per_path(problem, ensemble, batch_size=1 << 15):
    n = problem.level.n
    tree = TrajectorySet(problem, ensemble, batch_size=batch_size)
    reference = TrajectorySet(problem, _PerPath(ensemble))

    for k in range(n + 1):
        for with_noise in (False, True):
            total = sum(w * len(x) for _, x, _, w in tree.steps((k,), with_noise=with_noise))
            assert total == ensemble.count
    got, want = density(tree), density(reference)
    assert np.array_equal(got.counts, want.counts)
    assert np.array_equal(got.overflow, want.overflow)
    assert got.ensemble_descriptor == want.ensemble_descriptor
    for t, a, b in (((n // 2) / n, -0.25, 0.5), (1.0, 0.0, math.inf), (1.0, -0.3, 0.1)):
        assert event_probability(tree, t, a, b) == event_probability(reference, t, a, b)

    got = weak_form_residual(problem, ensemble, PHI)
    want = weak_form_residual(problem, _PerPath(ensemble), PHI)
    assert (got.residual, got.double_sum) == (want.residual, want.double_sum)
    pieces = ("drift_term", "noise_term", "correction_term", "quadratic_term", "taylor_total")
    scale = max(1.0, *(abs(getattr(want, p)) for p in pieces))
    for piece in pieces:
        assert _close(getattr(got, piece), getattr(want, piece), scale), piece

    functions = ["sin(x) + 1", "bump(x/4)", "x^2"]
    indices = (0, 1, n // 2, n - 1, n)
    got = increment_report(problem, ensemble, functions, indices)
    want = increment_report(problem, _PerPath(ensemble), functions, indices)
    for g, w in zip(got.entries, want.entries, strict=True):
        assert _close(g.orthogonality_gap, w.orthogonality_gap, max(1.0, w.orthogonality_scale))
        assert _close(g.orthogonality_scale, w.orthogonality_scale)
        assert _close(g.quadratic_gap, w.quadratic_gap, w.quadratic_scale)


class TestPrefixTree:
    @pytest.mark.parametrize("t0_index", [0, 2, 4])
    @pytest.mark.parametrize(
        "alphabet, n", [(NoiseAlphabet.white(), 8), (TERNARY, 5)], ids=["binary", "ternary"]
    )
    @pytest.mark.parametrize("prefix", [None, (1, 0, 1)], ids=["full", "conditional"])
    def test_matches_per_path_reduction(self, alphabet, n, t0_index, prefix):
        level = GridLevel(n)
        problem = CauchyProblem("sin(t)-x", "1+0.5*sin(x)", 0.1, level, t0=t0_index / n)
        ensemble = enumerate_paths(level, alphabet)
        if prefix is not None:
            ensemble = conditional(ensemble, tuple(alphabet.scaled(level)[list(prefix)]))
        assert_tree_matches_per_path(problem, ensemble)
        assert_tree_matches_per_path(problem, ensemble, batch_size=5)

    @pytest.mark.parametrize("batch_size", [7, 1 << 15])
    @pytest.mark.parametrize("t0_index", [0, 2])
    def test_states_match_per_path_bit_for_bit(self, t0_index, batch_size):
        n = 10
        level = GridLevel(n)
        problem = CauchyProblem("sin(t)-x", "1+0.5*sin(x)", 0.0, level, t0=t0_index / n)
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
    @pytest.mark.parametrize("t0_index", [0, 2])
    @pytest.mark.parametrize(
        "alphabet, n", [(NoiseAlphabet.white(), 8), (TERNARY, 5)], ids=["binary", "ternary"]
    )
    def test_states_match_a_per_row_loop(self, alphabet, n, t0_index, kind, batch_size):
        level = GridLevel(n)
        problem = CauchyProblem("sin(t)-x", "1+0.5*sin(x)", 0.1, level, t0=t0_index / n)
        ensemble = enumerate_paths(level, alphabet)
        if kind == "conditional":
            ensemble = conditional(ensemble, tuple(alphabet.scaled(level)[[1, 0]]))
        elif kind == "sampled":
            ensemble = sample_paths(level, 800, seed=5, alphabet=alphabet)
        noise = np.concatenate([b for _, b in ensemble.batches()])
        want = _per_row_states(problem, noise)
        for stepped in (ensemble, _PerPath(ensemble)):
            trajectories = TrajectorySet(problem, stepped, batch_size=batch_size)
            got = np.concatenate([v.copy() for _, _, v in trajectories.batches()])
            assert got.tobytes() == want.tobytes()
            # each yielded (x_k, xi_k) stands for the next `weight` rows of its batch
            states = {k: [] for k in range(n + 1)}
            values = {k: [] for k in range(n + 1)}
            for k, xk, xik, weight in trajectories.steps(range(n + 1), with_noise=True):
                states[k].append(np.repeat(xk, weight))
                values[k].append(np.repeat(xik, weight))
            for k in range(n + 1):
                assert np.concatenate(states[k]).tobytes() == want[:, k].tobytes()
                assert np.concatenate(values[k]).tobytes() == noise[:, k].tobytes()
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
        # every earlier path survives, or fails later in the same batch
        for j in range(index):
            try:
                solve_grid_ode(problem, ensemble.path(j))
            except DivergenceError as other:
                assert j // batch_size == index // batch_size and other.step > step

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


@pytest.mark.parametrize("t0", [0.0, 1.0])
@pytest.mark.parametrize("x0", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_x0_is_refused_when_the_problem_is_built(x0, t0):
    # at t0 = 1 no step runs, so no divergence check would see it
    with pytest.raises(GridError, match="x0 must be finite"):
        CauchyProblem("0", "1", x0, GridLevel(4), t0=t0)


def test_ensemble_of_another_level_is_refused():
    with pytest.raises(GridError, match="ensemble level does not match the problem level"):
        TrajectorySet(brownian_problem(4), enumerate_paths(GridLevel(3)))

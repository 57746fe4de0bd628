"""Counts over a sampled ensemble's tiles in one or two workers.

Each worker walks whole tiles and adds into its own integer counts, so the
counts, the overflow and the event probabilities are the same integers
with either count, and so is the DivergenceError of a diverging ensemble.
Tests force the worker count through the core count, allow small tiles to
take two workers, and lift the cap of two workers, by monkeypatching
``sde._cores``, ``sde._THREAD_ROWS`` and ``sde._MAX_WORKERS``.
"""

import sys
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gridsde import expr, sde
from gridsde.grids import GridLevel
from gridsde.noise import enumerate_paths, sample_paths
from gridsde.sde import (
    CauchyProblem,
    DivergenceError,
    TrajectorySet,
    bin_counts,
    density,
    event_probability,
    solve_grid_ode,
)


class Starts:
    """Counts the threads started while it is installed."""

    def __init__(self, monkeypatch):
        self.count = 0
        start = threading.Thread.start

        def counting(thread):
            self.count += 1
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counting)


def forced(monkeypatch, cores, thread_rows=sde._THREAD_ROWS, max_workers=sde._MAX_WORKERS):
    monkeypatch.setattr(sde, "_cores", lambda: cores)
    monkeypatch.setattr(sde, "_THREAD_ROWS", thread_rows)
    monkeypatch.setattr(sde, "_MAX_WORKERS", max_workers)


def counted(trajectories, time_indices, t0, a, b):
    """density's counts and overflow and event_probability, checking that no thread is left."""
    threads = threading.active_count()
    field = density(trajectories, time_indices)
    probability = event_probability(trajectories, t0, a, b)
    assert threading.active_count() == threads
    return field.counts.tobytes(), field.overflow.tobytes(), probability


def streamed(trajectories, time_indices, t0, a, b):
    """The same numbers from steps(), the one-worker stream of the float reducers."""
    level = trajectories.problem.level
    k_window = level.window_steps
    counts = np.zeros((len(time_indices), 2 * k_window), dtype=np.int64)
    overflow = np.zeros(len(time_indices), dtype=np.int64)
    for row, xk, _, weight in trajectories.steps(time_indices):
        overflow[row] += bin_counts(xk, level.n, k_window, counts[row], weight)
    (k0,) = sde.slice_indices(level, (t0,))
    hits = sum(int(((xk >= a) & (xk < b)).sum()) for _, xk, _, _ in trajectories.steps((k0,)))
    return counts.tobytes(), overflow.tobytes(), Fraction(hits, trajectories.count)


@settings(max_examples=30, deadline=None)
@given(
    tiles=st.sampled_from([2, 3, 13]),
    batch_size=st.integers(1, 40),
    short=st.integers(0, 39),
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 12),
    drift=st.sampled_from(["-x", "0.3", "sin(3*x)"]),
)
def test_counts_are_the_same_integers_in_one_worker_and_two(tiles, batch_size, short, seed, n, drift):
    # the last tile is short by `short` rows, where it has that many
    count = tiles * batch_size - short % batch_size
    level = GridLevel(n)
    ensemble = sample_paths(level, count, seed=seed)
    trajectories = TrajectorySet(CauchyProblem(drift, "1", 0.0, level), ensemble, batch_size)
    time_indices, t0 = range(0, n + 1, max(1, n // 3)), (n // 2) / n
    threaded = count // batch_size >= 2  # a short last tile does not count
    got = {}
    for cores in (1, 2):
        with pytest.MonkeyPatch.context() as monkeypatch:
            forced(monkeypatch, cores, thread_rows=1)
            starts = Starts(monkeypatch)
            got[cores] = counted(trajectories, time_indices, t0, -0.25, 0.5)
            # one thread for each of the two counts
            assert starts.count == (2 * (cores - 1) if threaded else 0)
    assert got[1] == got[2] == streamed(trajectories, time_indices, t0, -0.25, 0.5)


def diverging(seed, count):
    # from x0 = 5e11 with f = 0 and h = 4e11, paths with many upper symbols pass 1e12
    level = GridLevel(8)
    return CauchyProblem(0, 4e11, 5e11, level), sample_paths(level, count, seed=seed)


def first_divergence(problem, ensemble):
    """(step, path) of the earliest divergence and the smallest path there, path by path."""
    first = {}
    for index in range(ensemble.count):
        try:
            solve_grid_ode(problem, ensemble.path(index))
        except DivergenceError as exc:
            first.setdefault(exc.step, index)
    return (min(first), first[min(first)]) if first else None


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1), batch_size=st.integers(8, 24), tiles=st.sampled_from([2, 3, 13])
)
def test_a_diverging_ensemble_raises_the_same_error_in_one_worker_and_two(seed, batch_size, tiles):
    problem, ensemble = diverging(seed, tiles * batch_size - batch_size // 2)
    trajectories = TrajectorySet(problem, ensemble, batch_size)
    want = first_divergence(problem, ensemble)
    assume(want is not None)
    for cores in (1, 2):
        with pytest.MonkeyPatch.context() as monkeypatch:
            forced(monkeypatch, cores, thread_rows=1)
            threads = threading.active_count()
            for count in (density, lambda ts: event_probability(ts, 0.5, 0, 1)):
                with pytest.raises(DivergenceError) as info:
                    count(trajectories)
                assert (info.value.step, info.value.path_index) == want
            assert threading.active_count() == threads


@pytest.mark.parametrize("cores", [1, 2])
def test_a_later_tile_that_diverges_earlier_names_the_error(monkeypatch, cores):
    # of 32 tiles of 8 paths, tile 1 diverges first, at step 8; tile 2 diverges at
    # step 6 and tile 4 at step 4, which names the error
    problem, ensemble = diverging(0, 256)
    forced(monkeypatch, cores, thread_rows=1)
    with pytest.raises(DivergenceError) as info:
        density(TrajectorySet(problem, ensemble, batch_size=8))
    step, path = first_divergence(problem, ensemble)
    assert step == 4 and path >= 32  # in tile 4 or later
    assert (info.value.step, info.value.path_index) == (step, path)


def test_more_workers_than_cores_under_a_short_switch_interval_count_each_tile_once(monkeypatch):
    # 8 workers over 41 tiles of 16 paths, switching threads every microsecond: a tile
    # taken twice or dropped, or a divergence lost, would change a count or the error
    level = GridLevel(8)
    ensemble = sample_paths(level, 650, seed=9)
    trajectories = TrajectorySet(CauchyProblem("-x", "1", 0.0, level), ensemble, 16)
    problem, bad_ensemble = diverging(3, 650)
    bad_trajectories = TrajectorySet(problem, bad_ensemble, 16)
    want = counted(trajectories, range(9), 0.5, -0.25, 0.5), first_divergence(problem, bad_ensemble)
    forced(monkeypatch, 8, thread_rows=1, max_workers=8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            with pytest.raises(DivergenceError) as info:
                density(bad_trajectories)
            bad = info.value.step, info.value.path_index
            assert (counted(trajectories, range(9), 0.5, -0.25, 0.5), bad) == want
    finally:
        sys.setswitchinterval(interval)


def big(count, n=2, batch_size=1 << 15):
    level = GridLevel(n)
    ensemble = sample_paths(level, count, seed=5)
    return TrajectorySet(CauchyProblem("-x", "1", 0.0, level), ensemble, batch_size)


@pytest.mark.parametrize(
    "cores, trajectories",
    [
        (1, big(2 * (1 << 15) + 7)),
        (2, big(1 << 15)),
        (2, big((1 << 15) + 1)),
        (2, big(3 * (1 << 14), batch_size=1 << 14)),
        (2, TrajectorySet(CauchyProblem("-x", "1", 0.0, GridLevel(16)), enumerate_paths(GridLevel(16)))),
    ],
    ids=["one-core", "one-tile", "one-full-tile-and-a-short-one", "tiles-under-2^15-rows", "exhaustive"],
)
def test_no_thread_starts_where_threads_do_not_pay(monkeypatch, cores, trajectories):
    forced(monkeypatch, cores)
    starts = Starts(monkeypatch)
    threads = threading.active_count()
    density(trajectories, (0, trajectories.problem.level.n))
    event_probability(trajectories, 1.0, -1.0, 1.0)
    assert starts.count == 0 and threading.active_count() == threads


def test_two_tiles_of_2_15_rows_on_two_cores_start_one_thread(monkeypatch):
    forced(monkeypatch, 2)
    starts = Starts(monkeypatch)
    threads = threading.active_count()
    density(big(2 * (1 << 15)))
    assert starts.count == 1 and threading.active_count() == threads
    monkeypatch.setattr(sde, "_cores", lambda: 64)  # two workers at most, whatever the cores
    density(big(4 * (1 << 15) + 7))
    assert starts.count == 2 and threading.active_count() == threads
    monkeypatch.setattr(sde, "_MAX_WORKERS", 64)  # uncapped: one worker per full tile
    density(big(3 * (1 << 15) + 7))
    assert starts.count == 4 and threading.active_count() == threads


class Boom(Exception):
    pass


@pytest.mark.parametrize("where", ["worker", "caller"])
def test_an_exception_in_a_worker_ends_the_walk_and_is_raised_after_every_thread(monkeypatch, where):
    # of 3 tiles, the caller's first waits until the worker's has raised and the walk
    # has stopped, so the caller takes no second tile
    trajectories = big(3 * (1 << 15))
    forced(monkeypatch, 2)
    step_nodes, stop, caller = sde._step_nodes, sde._Tiles.stop, threading.current_thread()
    stopped, tiles, waits = threading.Event(), [], []

    def stopping(self):
        stop(self)
        stopped.set()

    def failing(problem, k, *args):
        in_caller = threading.current_thread() is caller
        if k == 0:
            tiles.append(in_caller)
        if k == 1 and in_caller == (where == "caller"):
            raise Boom(where)
        if k == 1 and in_caller:
            waits.append(stopped.wait(timeout=10))
        return step_nodes(problem, k, *args)

    monkeypatch.setattr(sde._Tiles, "stop", stopping)
    monkeypatch.setattr(sde, "_step_nodes", failing)
    threads = threading.active_count()
    with pytest.raises(Boom, match=where):
        density(trajectories)
    assert threading.active_count() == threads
    assert all(waits) and tiles.count(True) == 1
    assert where == "caller" or tiles.count(False) == 1


def test_tiles_keep_the_earliest_divergence_in_whatever_order_it_comes():
    # a worker may report a tile it took before a later tile's earlier divergence
    problem, ensemble = diverging(0, 40)
    tiles = sde._Tiles(TrajectorySet(problem, ensemble, batch_size=8))
    assert tiles.take() == (0, 8, True)
    tiles.diverged(DivergenceError(4, 35))
    assert tiles.take() == (8, 3, False)
    for step, path in ((8, 9), (4, 36), (4, 33), (5, 1)):
        tiles.diverged(DivergenceError(step, path))
    assert tiles.first_bad == (4, 33)
    tiles.stop()
    assert tiles.take() is None
    with pytest.raises(DivergenceError) as info:
        tiles.raise_divergence()
    assert (info.value.step, info.value.path_index) == (4, 33)


def test_two_workers_hold_at_most_20_arrays_of_a_tile_each():
    # each worker: its noise column and hash buffers, five step buffers, one step's
    # temporaries and the binning's; a [batch, n+1] block alone would be 65 of them
    batch_size, workers = 1 << 15, 2
    trajectories = big(3 * batch_size + 100, n=64, batch_size=batch_size)
    with pytest.MonkeyPatch.context() as monkeypatch:
        forced(monkeypatch, workers)
        starts = Starts(monkeypatch)
        tracemalloc.start()
        try:
            density(trajectories, range(0, 65, 16))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert starts.count == workers - 1
    assert peak < workers * 20 * 8 * batch_size


def test_f_and_h_are_compiled_once_each_in_the_calling_thread(monkeypatch):
    compiled = []
    compile_ = expr._compile

    def recording(*exprs):
        thread = threading.current_thread()
        compiled.append((tuple(map(str, exprs)), thread, threading.active_count()))
        return compile_(*exprs)

    monkeypatch.setattr(expr, "_compile", recording)
    forced(monkeypatch, 2)
    level = GridLevel(4)
    problem = CauchyProblem("-0.5*x", "1 + 0.25*x", 0.0, level)  # fresh expressions, not yet compiled
    threads = threading.active_count()
    density(TrajectorySet(problem, sample_paths(level, 3 * (1 << 15), seed=2)))
    assert sorted(names for names, _, _ in compiled) == [("-0.5*x",), ("1.0 + 0.25*x",)]
    caller = threading.current_thread()
    assert all(thread is caller and active == threads for _, thread, active in compiled)

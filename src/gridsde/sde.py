"""Grid ODE/SDE solving, ensemble simulation, densities, event probabilities.

The dynamics are the explicit one-step recursion
``x[k+1] = x[k] + (1/n) * (f(t_k, x[k]) + h(t_k, x[k]) * xi(t_k))``
from ``x[0] = x0``, driven by a noise path (or by zero noise, giving the
deterministic grid ODE).  Every walk starts at t = 0: a ``CauchyProblem``
holds f, h, x0 and the level, and has no start time.  Existence and
uniqueness are by construction: the recursion is total and deterministic.
``solve_grid_ode`` returns a ``GridFunction`` on the time grid, and slice
times become time indices by one rule, ``slice_indices``.

Densities, event probabilities, the weak form and the increment report all
read one step stream, ``TrajectorySet.steps``: the states x_k, the noise
values xi_k and path weights, reduced through one rule, ``weighted_sum``.
The three walks below step a level by one function, ``_step_nodes``: f and
h once per node at t_k, times each child's noise value, and the compensated
update, so a state is the same bits whichever walk reaches it.  The batch
walk, the tiles and ``solve_grid_ode`` step their paths by one generator,
``_walk``, and hold ``np.errstate`` around each step alone.

A full exhaustive enumeration is first walked as a recombining lattice (the
discrete Cox-Ross-Rubinstein lattice): level by level, each distinct
(x, Kahan compensation) pair is held once, keyed by its bit pattern, with an
int64 count of the noise prefixes that reach it.  Two prefixes that reach
the same state have the same future, so merging them is exact, and every
state is bit-identical to the path-by-path state.  With f = 0 and h = 1 a
level k holds k+1 states in place of 2^k.  The lattice falls back to the
batch walk below, from the start and before anything is yielded, when from
depth 2 on a level's children are all distinct (f = -x stops there), when a
level holds more distinct states than the walk's batch size, or when a step
leaves the divergence guard, so that the batch walk raises the
``DivergenceError`` that names the path.

A sampled ensemble is walked tile by tile: tiles of batch_size paths in
path order, each stepped step by step.  Its noise is counter-based, so the
noise of step k for a tile's rows is one strided run of counters, hashed
into one reused column where it is stepped; no [batch, n+1] noise block or
state block is built.  The walk makes five buffers of batch_size floats
once, for the states, their compensations, the step's increment and its two
outputs, and every tile steps in them through ``_step_nodes``'s ``out``, so
no step makes an array of the tile's size for its states, whatever n is.

The exact-count reducers, ``density`` and ``event_probability``, walk a
sampled ensemble's tiles in two workers, the calling thread one of them,
where there are at least two full tiles of at least 2^15 rows
(``_THREAD_ROWS``) and two cores; with one core, smaller tiles or one full
tile, and for any other ensemble, the calling thread walks alone.  Two is
the most (``_MAX_WORKERS``): speed and memory were measured with two.  The tiles are handed out in path
order from one shared counter.  Each worker owns a noise column with its
hash buffers, the five step buffers and its own int64 counts, about a dozen
arrays of batch_size floats with a step's and the binning's temporaries, and
adds x_k into its counts before its next step.  The counts of the workers
are summed, which is exact, so they are the same integers for any number of
workers.  The float reducers read ``steps()`` in the calling thread alone.

Every other walk streams batches of paths in path order, one at a time, so
a million paths never live in memory at once; the walk allocates two flat
buffers of batch_size * (n+1) floats and reuses them for every batch.
``_walk`` steps every batch as a piece of the noise tree, from the columns
of its noise block: x_k depends only on xi_0..xi_{k-1}, so it steps
each distinct noise prefix once.  An exhaustive batch is a whole subtree,
so an exhaustive run costs about |A|^(n+1)/(|A|-1) steps in place of
n * |A|^(n+1), plus one write of every path's states for the per-path view
``batches()``.  The step stream then carries each distinct state once per
batch, weighted by the number of the batch's paths through it.
``batches()`` is also the per-path view of a sampled ensemble, whose
batches, like the single path of ``solve_grid_ode``, are trees with one
child per node, so every path is stepped on its own.

Once a tile or batch diverges, nothing more is yielded, and a later one is
stepped only to the step before the earliest divergence so far, where only
an earlier step could change the report.  The ``DivergenceError`` raised
after the last one names the first diverging step of the whole ensemble and
the smallest path through a bad node there, so it depends neither on the
batch size nor on the number of workers: a worker takes a tile together
with the earliest divergence so far, which is then an earlier tile's, and
the earliest (step, path) that any worker reports is kept.

Integer bin and event counts, and so the weak-form residual, which reads
only bin counts, are bit-identical to path-by-path counts for every walk
and any batch size.  Float sums such as the weak-form pieces add
``weight * value`` over distinct states, so they agree with a path-by-path
reduction only to rounding, as a sampled run's float sums agree across
batch sizes only to rounding.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

import numpy as np

from .expr import Expr, as_expr
from .grids import GridError, GridFunction, GridLevel, integer_in
from .noise import (
    _DEFAULT_BATCH,
    NoiseEnsemble,
    NoiseError,
    NoisePath,
    _block,
    _class_size,
    _sampled_hash,
)

__all__ = [
    "DivergenceError",
    "CauchyProblem",
    "TrajectorySet",
    "DensityField",
    "DependenceReport",
    "solve_grid_ode",
    "slice_indices",
    "weighted_sum",
    "bin_counts",
    "density",
    "event_probability",
    "continuous_dependence_check",
    "write_density_csv",
]

DIVERGENCE_GUARD = 1e12
# The smallest tile that a count hands to more than one worker.  On two cores,
# two threads on separate ufuncs of 2^15 elements ran 1.7x as fast as one, and
# at 2^14 elements 0.92x as fast.
_THREAD_ROWS = 1 << 15
# The most workers a count uses: speed and memory were measured with two, and
# each worker holds its own tile working set.
_MAX_WORKERS = 2


class DivergenceError(RuntimeError):
    """A trajectory left the finite range the solver is willing to track."""

    def __init__(self, step: int, path_index: int | None = None):
        self.step = step
        self.path_index = path_index
        where = f" (path {path_index})" if path_index is not None else ""
        super().__init__(f"trajectory diverged at step {step}{where}")


@dataclass(frozen=True)
class CauchyProblem:
    """Drift/diffusion pair with an initial state x(0) = x0 on a grid level."""

    drift: Expr
    diffusion: Expr
    x0: float
    level: GridLevel

    # every walk starts at t = 0; bench/tracing.py's count_steps reads this
    # until the library counts its own steps (ROADMAP item 1)
    t0_index = 0

    def __post_init__(self):
        object.__setattr__(self, "drift", as_expr(self.drift))
        object.__setattr__(self, "diffusion", as_expr(self.diffusion))
        object.__setattr__(self, "x0", float(self.x0))
        if not math.isfinite(self.x0):
            raise GridError(f"x0 must be finite, got {self.x0!r}")

    def describe(self) -> dict:
        return {
            "f": str(self.drift),
            "h": str(self.diffusion),
            "x0": self.x0,
            "n": self.level.n,
        }


def _arr(value, like: np.ndarray) -> np.ndarray:
    """An expression's value at the states ``like`` as a float array of their shape.

    A float64 array of that shape is returned as it is; anything else is
    broadcast, read-only.
    """
    if isinstance(value, np.ndarray) and value.dtype == np.float64 and value.shape == like.shape:
        return value
    return np.broadcast_to(np.asarray(value, dtype=np.float64), like.shape)


def _step_nodes(
    problem: CauchyProblem,
    k: int,
    x: np.ndarray,
    comp: np.ndarray,
    xi: np.ndarray,
    out: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
):
    """Step the nodes x at t_k, f and h evaluated once each, to their children.

    Node i's children are its run of len(xi) // len(x) noise values in xi;
    the flat (states, compensations, in-range mask) are aligned with xi.
    A constant f or h is broadcast against the children as it is, not
    spread to an array of the nodes' shape first.  Compensated (Kahan)
    accumulation: exactly cancelling coin-flip increments must return the
    walk to an exact lattice site, otherwise balanced paths end a few ulps
    off zero and land in the wrong half-open density bin.  The update is
    written into ``out = (inc, nxt, new_comp)``, three contiguous flat
    arrays of len(xi) floats that overlap none of x, comp and xi, and nxt
    and new_comp are returned as the states and compensations; without
    ``out`` the step makes three fresh arrays.  Each operation is the same
    one, in the same order, either way, so every state, compensation and
    mask has the same bits.
    """
    n, tk, node = problem.level.n, k / problem.level.n, x[:, None]
    fv = np.asarray(problem.drift.vectorized()(tk, x), dtype=np.float64)[..., None]
    hv = np.asarray(problem.diffusion.vectorized()(tk, x), dtype=np.float64)[..., None]
    if out is None:
        out = tuple(np.empty(xi.shape[0]) for _ in range(3))
    inc, nxt, new_comp = (a.reshape(x.shape[0], -1) for a in out)
    # inc = (fv + hv * xi) / n - comp; nxt = node + inc; new_comp = (nxt - node) - inc
    np.multiply(hv, xi.reshape(x.shape[0], -1), out=inc)
    np.add(fv, inc, out=inc)
    np.divide(inc, n, out=inc)
    np.subtract(inc, comp[:, None], out=inc)
    np.add(node, inc, out=nxt)
    np.subtract(nxt, node, out=new_comp)
    np.subtract(new_comp, inc, out=new_comp)
    # NaN and inf compare False, so they are out of range too
    ok = np.abs(nxt, out=inc) <= DIVERGENCE_GUARD
    return out[1], out[2], ok.ravel()


def _walk(
    problem: CauchyProblem,
    start: int | None,
    rows: int,
    steps: int,
    noise,
    widths: Sequence[int],
    buffers: Sequence[np.ndarray] | None = None,
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Step ``rows`` paths from x_0 to x_steps, yielding (k, x_k, xi_k) before each step.

    The rows sharing xi_0..xi_{k-1}, and so x_k, are runs of ``widths[k]``
    rows: a node of the noise tree at depth k, and x_k holds one state per
    node.  ``noise(k)`` gives step k's noise, one value per row; each node
    is stepped once, its children being its runs of ``widths[k+1]`` rows,
    each read at its first row's noise value, and xi_k is those values.
    Widths of 1 step every path on its own; a whole subtree in
    lexicographic order shares its prefixes.  Each level is one
    ``_step_nodes`` call, as in the lattice walk.  Without ``buffers`` every
    step makes fresh arrays; with five flat buffers of at least ``rows``
    floats (the states, their compensations, the step's increment and its
    two outputs), every step writes into their fronts, the new states and
    compensations taking the buffers that held the previous ones, so x_k is
    valid only until the next step.  A step that leaves the guard raises
    DivergenceError naming its step and the smallest path through a bad
    node there, or no path if ``start`` is None.  ``np.errstate`` is held
    around each step alone, so none of it reaches the caller at a yield.
    """
    nodes = -(-rows // widths[0])  # at depth 0; a short exhaustive batch has one
    if buffers is None:
        x, comp, free = np.empty(nodes), np.empty(nodes), []
    else:
        x, comp, *free = (buffer[:rows] for buffer in buffers)
    x[...], comp[...] = problem.x0, 0.0
    for k in range(steps + 1):
        xi = noise(k)[:: widths[k + 1]]
        yield k, x, xi
        if k == steps:
            return
        with np.errstate(all="ignore"):
            nxt, new_comp, ok = _step_nodes(problem, k, x, comp, xi, free or None)
        if free:
            free[1:] = x, comp
        x, comp = nxt, new_comp
        if not ok.all():
            row = int(np.argmin(ok)) * widths[k + 1]
            raise DivergenceError(k + 1, None if start is None else start + row)


def solve_grid_ode(problem: CauchyProblem, noise: NoisePath | None = None) -> GridFunction:
    """Solve the grid equation along one noise path (zero noise by default).

    The solution is x(t_k), k = 0..n, as a function on the level's time grid.
    """
    n = problem.level.n
    path, index = np.zeros(n + 1), None
    if noise is not None:
        if noise.level.n != n:
            raise GridError("noise path level does not match the problem level")
        path, index = noise.values, noise.path_index
    values = np.empty(n + 1)
    for k, x, _ in _walk(problem, index, 1, n, lambda k: path[k : k + 1], [1] * (n + 2)):
        values[k] = x[0]
    return GridFunction(problem.level.time_grid(), values)


def slice_indices(level: GridLevel, times: Sequence[float]) -> list[int]:
    """The time indices of slice times; GridError unless each is a time grid point."""
    grid = level.time_grid()
    try:
        return [grid.index_of(t) for t in times]
    except GridError as exc:
        raise GridError(f"slice times must be grid points: {exc}") from exc


class TrajectorySet:
    """Streaming view of the solutions over every path of an ensemble.

    A full exhaustive enumeration is walked as a recombining lattice where
    its states merge.  A sampled ensemble is walked in tiles of batch_size
    paths, step by step, hashing each step's noise column as it goes; the
    exact counts walk its tiles in more than one worker where threads pay
    (``_reduce_counts``).  Otherwise the batch walk steps each distinct
    noise prefix of a batch once: an exhaustive batch is a whole subtree of
    the noise tree.  ``batches()`` is the per-path view of either kind.
    Tiles and batches are stepped by one generator, ``_walk``, and handed
    out with their earliest divergence by one ``_Tiles``.
    """

    def __init__(
        self,
        problem: CauchyProblem,
        ensemble: NoiseEnsemble,
        batch_size: int = _DEFAULT_BATCH,
    ):
        if ensemble.level.n != problem.level.n:
            raise GridError("ensemble level does not match the problem level")
        message = f"batch size must be a positive integer, got {batch_size!r}"
        self.batch_size = batch_size = integer_in(batch_size, 1, None, NoiseError, message)
        self.problem = problem
        self.ensemble = ensemble
        n = problem.level.n
        # widths[k]: rows of a batch that share xi_0..xi_{k-1}, hence x_k
        self._widths = [1] * (n + 2)
        if ensemble.mode == "exhaustive":
            # a batch is a whole subtree: the largest prefix class that fits
            classes = [ensemble.prefix_rows(k) for k in range(n + 2)]
            self.batch_size = next(rows for rows in classes if rows <= batch_size)
            self._widths = [min(self.batch_size, rows) for rows in classes]

    @property
    def count(self) -> int:
        return self.ensemble.count

    def _check_counts(self) -> None:
        """NoiseError if the int64 bin counts could not hold an exhaustive ensemble's paths."""
        if self.ensemble.mode == "exhaustive" and self.count >= 1 << 63:
            raise NoiseError(
                f"exhaustive ensemble of {self.count} paths: its bin counts would pass "
                "the int64 limit 2**63 - 1"
            )

    def batches(self) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
        """Yield (start, noise, values) in path order.

        ``noise`` and ``values`` are ``[batch, n+1]``, views of two flat
        buffers of min(batch_size, count) * (n+1) floats that the walk owns:
        each batch writes its noise block to one and its states to the
        other, so the next batch overwrites them, and a caller copies what
        it keeps past its iteration.  The batch boundaries are fixed by
        batch_size alone (for exhaustive ensembles, by the largest prefix
        class not above it), so any reduction that combines batch results
        in yield order is reproducible.  Path indices are Python ints, exact
        at any index, but the bin and event counts that the weights add
        into are int64, so an exhaustive ensemble of 2^63 paths or more
        raises NoiseError before the first batch.  This per-path view never
        merges states, and it is the one way to see a sampled ensemble's
        paths whole: ``steps()`` walks sampled ensembles without blocks.
        ``_walk`` steps each batch into fresh arrays.  The batches and the
        earliest divergence come from ``_Tiles``, as the tiles do, and a
        batch is taken before its noise block is made: after a batch
        diverges at step s no batch is yielded, later batches are stepped
        only to step s-1, where only an earlier step could change the
        report, and none is made after step 1.  After the last batch a
        DivergenceError names the first diverging step of the whole
        ensemble and the smallest path through a bad node there, whatever
        the batch size.
        """
        self._check_counts()
        n = self.problem.level.n
        size = min(self.batch_size, self.count) * (n + 1)
        block, buffer = np.empty(size), np.empty(size)
        tiles, blocks = _Tiles(self), self.ensemble.batches(self.batch_size, out=block)
        while (tile := tiles.take()) is not None:
            start, steps, reading = tile
            _, noise = next(blocks)
            states = _block(buffer, n + 1, noise.shape[0])  # time-major
            try:
                for k, x, _ in _walk(
                    self.problem, start, noise.shape[0], steps, lambda k: noise[:, k], self._widths
                ):
                    states[k].reshape(x.shape[0], -1)[...] = x[:, None]
            except DivergenceError as exc:
                tiles.diverged(exc)
                continue
            if reading:
                yield start, noise, states.T
        tiles.raise_divergence()

    def steps(self, time_indices: Sequence[int], with_noise: bool = False) -> Iterator[tuple]:
        """Yield (i, x_k, xi_k, weight) for k = time_indices[i].

        Every element of x_k stands for its weight in paths, so the weights
        of one k add up to the ensemble count.  ``weight`` is an int that
        holds for every element, or an int64 array aligned with x_k;
        ``weighted_sum`` reduces either.  A full exhaustive enumeration whose
        states merge yields each level once: its distinct states, weighted
        by the paths through each, or with ``with_noise`` each (state,
        symbol) pair, weighted by the paths through the pair.  A sampled
        ensemble is walked tile by tile (``_tile_reads``), step by step: each
        tile of batch_size paths yields every path with weight 1 at each k
        it reaches, in order of k, so for ascending time indices the yield
        order is the batch walk's.  Otherwise the batch walk yields batch by
        batch each distinct state of an exhaustive batch once, weighted by
        the batch's paths through it, and with ``with_noise`` each distinct
        pair (x_k, xi_k).  Without it xi_k is None.  x_k and xi_k are
        copies, so a caller's loop variables keep no tile or batch alive.
        GridError before any walk unless every k is an integer in 0..n
        (numpy's too; not a bool), and NoiseError for an exhaustive ensemble
        of 2^63 paths or more.
        """
        time_indices = _checked_times(self.problem.level, time_indices)
        self._check_counts()
        lattice = self._lattice(set(time_indices))
        if lattice is not None:
            symbols = self.ensemble.alphabet.scaled(self.problem.level)
            for i, k in enumerate(time_indices):
                x, prefixes = lattice[k]
                if with_noise:
                    pairs = np.repeat(prefixes, len(symbols)) * self.ensemble.prefix_rows(k + 1)
                    yield i, np.repeat(x, len(symbols)), np.tile(symbols, x.shape[0]), pairs
                else:
                    yield i, x.copy(), None, prefixes * self.ensemble.prefix_rows(k)
            return
        if self.ensemble.mode == "sampled":
            tiles = _Tiles(self)
            for i, x, xi in self._tile_reads(tiles, _readers(time_indices), with_noise):
                yield i, x.copy(), xi.copy() if with_noise else None, 1
            tiles.raise_divergence()
            return
        shift = 1 if with_noise else 0
        for _, noise, values in self.batches():
            for i, k in enumerate(time_indices):
                w = self._widths[k + shift]
                yield i, values[::w, k].copy(), noise[::w, k].copy() if with_noise else None, w

    def _reduce_counts(self, time_indices: Sequence[int], new_part, add) -> list:
        """An exact-count reduction of the states at ``time_indices``: one part per worker.

        Each worker makes its part by ``new_part()`` and adds the states x_k
        of slice i into it by ``add(part, i, x_k, weight)`` before its next
        step, so no state is copied; the caller sums the parts, which is
        exact for integer counts.  A sampled ensemble's tiles go to
        ``_workers()`` workers, the calling thread one of them, from one
        ``_Tiles``, and each worker owns its part and its ``_tile_reads``; any
        other ensemble is read through ``steps()`` in the calling thread.
        f and h are compiled before any worker starts, so no two workers
        compile one expression.  An exception in a worker stops the others
        taking tiles, and the first one is raised once every thread has
        ended; else a divergence raises the DivergenceError that names the
        earliest step and the smallest path through a bad node there.
        """
        if self.ensemble.mode != "sampled":
            part = new_part()
            for i, xk, _, weight in self.steps(time_indices):
                add(part, i, xk, weight)
            return [part]
        readers = _readers(_checked_times(self.problem.level, time_indices))
        tiles = _Tiles(self)
        parts, errors, threads = [new_part() for _ in range(self._workers())], [], []

        def work(part):
            try:
                for i, x, _ in self._tile_reads(tiles, readers, False):
                    add(part, i, x, 1)
            except BaseException as exc:
                tiles.stop()
                errors.append(exc)

        for coefficient in (self.problem.drift, self.problem.diffusion):
            coefficient.vectorized()  # compiled once, here, and cached
        try:
            for part in parts[1:]:
                thread = threading.Thread(target=work, args=(part,))
                thread.start()
                threads.append(thread)
            work(parts[0])
        except BaseException:  # a thread did not start
            tiles.stop()
            raise
        finally:
            for thread in threads:
                thread.join()
        if errors:
            raise errors[0]
        tiles.raise_divergence()
        return parts

    def _workers(self) -> int:
        """The workers of a sampled ``_reduce_counts``: up to two where threads pay, else 1.

        Threads pay where there are at least two full tiles of at least
        ``_THREAD_ROWS`` rows; a short last tile does not count.
        """
        full = self.ensemble.count // self.batch_size
        if self.batch_size < _THREAD_ROWS or full < 2:
            return 1
        return min(_MAX_WORKERS, _cores(), full)

    def _tile_reads(self, tiles: _Tiles, readers: dict, with_noise: bool) -> Iterator[tuple]:
        """Yield (i, x_k, xi_k) for each slice i that reads k, over the tiles taken from ``tiles``.

        The walk owns a noise column with its hash buffers and five step
        buffers of min(batch_size, count) floats, made once; each tile's
        rows use the front of them.  ``_walk`` steps each tile in them,
        step-major: the noise of step k, counters r*(n+1) + k for the
        tile's rows r, is hashed into the column where it is stepped, or
        read with ``with_noise``.  So no [batch, n+1] block is built, and no
        step makes an array of the tile's size for its states.  x_k and
        xi_k are views of the buffers, valid until the next step.  A tile
        taken after a divergence reads nothing, and its own divergence is
        handed to ``tiles``.
        """
        problem, ensemble = self.problem, self.ensemble
        n = problem.level.n
        size = min(self.batch_size, ensemble.count)
        hash_column = _sampled_hash(ensemble.seed, ensemble.alphabet.scaled(problem.level), n + 1, size)
        column, buffers = np.empty(size), [np.empty(size) for _ in range(5)]
        while (tile := tiles.take()) is not None:
            start, steps, reading = tile
            rows, reads = min(self.batch_size, ensemble.count - start), readers if reading else {}

            def noise(k):  # hashed where it is stepped or read
                if k < steps or (with_noise and k in reads):
                    hash_column(start * (n + 1) + k, column[:rows])
                return column[:rows]

            try:
                for k, x, xi in _walk(problem, start, rows, steps, noise, self._widths, buffers):
                    for i in reads.get(k, ()):
                        yield i, x, xi
            except DivergenceError as exc:
                tiles.diverged(exc)

    def _lattice(self, wanted: set[int]) -> dict[int, tuple[np.ndarray, np.ndarray]] | None:
        """The recombining walk: {k: (distinct x_k, prefix counts)} for each wanted k.

        None, with nothing kept, where the batch walk takes over: the
        ensemble is not a full enumeration, from depth 2 on a level's
        children are all distinct, a level holds more than ``batch_size``
        states, or a step leaves the divergence guard.  Every level is
        stepped, wanted or not, as the batch walk steps it, so a divergence
        at any step falls back.  A prefix count stays below the path count,
        which ``_check_counts`` keeps below 2^63.
        """
        problem, ensemble = self.problem, self.ensemble
        n = problem.level.n
        from_zero = ensemble.mode == "exhaustive" and not ensemble.first
        if not from_zero or ensemble.count != _class_size(ensemble.alphabet, ensemble.level, 0):
            return None
        symbols = ensemble.alphabet.scaled(problem.level)
        x, comp = np.full(1, problem.x0), np.zeros(1)
        prefixes = np.ones(1, dtype=np.int64)
        kept = {}
        with np.errstate(all="ignore"):
            for k in range(n):
                if k in wanted:
                    kept[k] = (x, prefixes)
                # the children of each state, one per symbol
                x, comp, ok = _step_nodes(problem, k, x, comp, np.tile(symbols, x.shape[0]))
                if not ok.all():
                    return None
                children = x.shape[0]
                x, comp, prefixes = _merge(x, comp, np.repeat(prefixes, len(symbols)))
                if x.shape[0] > self.batch_size or (k >= 1 and x.shape[0] == children):
                    return None
        if n in wanted:
            kept[n] = (x, prefixes)
        return kept


def _merge(x: np.ndarray, comp: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, ...]:
    """The distinct (x, comp) pairs, each once with the sum of its counts.

    Pairs are equal when their bits are: 0.0 and -0.0 are different states,
    since a step can tell them apart (1/x, or the sign of a zero sum).
    """
    x_bits, comp_bits = x.view(np.int64), comp.view(np.int64)
    order = np.lexsort((comp_bits, x_bits))
    x_bits, comp_bits = x_bits[order], comp_bits[order]
    first = np.ones(order.shape[0], dtype=bool)
    first[1:] = (x_bits[1:] != x_bits[:-1]) | (comp_bits[1:] != comp_bits[:-1])
    starts = np.flatnonzero(first)
    keep = order[starts]
    return x[keep], comp[keep], np.add.reduceat(counts[order], starts)


class _Tiles:
    """The tiles of a walk, or the batches of ``batches()``, in path order, and its earliest divergence."""

    def __init__(self, trajectories: TrajectorySet):
        self._starts = iter(range(0, trajectories.ensemble.count, trajectories.batch_size))
        self._n = trajectories.problem.level.n
        self._lock = threading.Lock()
        self._stopped = False
        self.first_bad = None  # (step, path) of the earliest divergence

    def take(self) -> tuple[int, int, bool] | None:
        """(start, last step, whether to read) of the next tile; None when none is left.

        The tile and the earliest divergence so far are read in one locked
        step, so a divergence seen here is an earlier tile's, and the tile
        is stepped only to the step before it, reading nothing.  None once
        that step is 0, since no later tile can diverge earlier.
        """
        with self._lock:
            start = None if self._stopped else next(self._starts, None)
            bad = self.first_bad
        steps = self._n if bad is None else bad[0] - 1
        return None if start is None or steps == 0 else (start, steps, bad is None)

    def diverged(self, exc: DivergenceError) -> None:
        """Keep the earliest (step, path) of the divergences handed in."""
        with self._lock:
            bad = exc.step, exc.path_index
            self.first_bad = bad if self.first_bad is None else min(self.first_bad, bad)

    def stop(self) -> None:
        """Hand out no more tiles."""
        with self._lock:
            self._stopped = True

    def raise_divergence(self) -> None:
        if self.first_bad is not None:
            raise DivergenceError(*self.first_bad)


def _readers(time_indices: Sequence[int]) -> dict[int, list[int]]:
    """{k: the slices i with time_indices[i] = k}."""
    readers = {}
    for i, k in enumerate(time_indices):
        readers.setdefault(k, []).append(i)
    return readers


def _cores() -> int:
    """The cores this process may run on: its CPU affinity, so ``taskset -c 0`` gives 1."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _checked_times(level: GridLevel, time_indices: Iterable[int]) -> tuple[int, ...]:
    """The time indices as ints; GridError unless each is an integer in 0..n (numpy's too; not a bool)."""
    message = "time index {!r} is not an integer in 0..{}"
    return tuple(integer_in(k, 0, level.n, GridError, message.format(k, level.n)) for k in time_indices)


@dataclass(frozen=True)
class DensityField:
    """Exact bin counts of trajectory positions on the spatial lattice.

    Bins are half-open [j/n, (j+1)/n) for j = -K..K-1; mass outside the
    window is tracked per time slice as overflow, so for every slice
    counts + overflow account for each path exactly once.
    """

    level: GridLevel
    time_indices: tuple[int, ...]
    window_steps: int
    counts: np.ndarray
    overflow: np.ndarray
    ensemble_size: int
    ensemble_descriptor: dict

    def times(self) -> np.ndarray:
        return np.asarray(self.time_indices, dtype=np.float64) / self.level.n

    def bin_left_edges(self) -> np.ndarray:
        return self.level.spatial_grid().points()[:-1]

    def rho(self) -> np.ndarray:
        """Density values: count / (step * ensemble size), one row per slice."""
        return self.counts * (self.level.n / self.ensemble_size)

    def overflow_fractions(self) -> np.ndarray:
        return self.overflow / self.ensemble_size

    def normalization_exact(self) -> bool:
        """step * sum(rho) + overflow fraction == 1, checked in integers."""
        totals = self.counts.sum(axis=1) + self.overflow
        return bool(np.all(totals == self.ensemble_size))

    def to_csv(self, path) -> None:
        write_density_csv(path, self.times(), self.bin_left_edges(), self.rho())


def weighted_sum(values: np.ndarray, weight: int | np.ndarray) -> int | float:
    """The sum of ``values``, each element counted ``weight`` times.

    ``weight`` is a step stream's weight: an int for every element, or an
    int64 array aligned with ``values``.  Boolean values give an exact int
    count.  Other values give a float: ``weight * float(values.sum())`` for
    an int weight, the sum of the elementwise products for an array.
    """
    per_element = isinstance(weight, np.ndarray)
    if values.dtype == np.bool_:
        return int(weight[values].sum()) if per_element else weight * int(np.count_nonzero(values))
    return float((values * weight).sum()) if per_element else weight * float(values.sum())


def bin_counts(
    xk: np.ndarray, n: int, k_window: int, counts: np.ndarray, weight: int | np.ndarray = 1
) -> int:
    """Add the positions xk to the half-open bins [j/n, (j+1)/n), j = -K..K-1.

    ``counts`` holds the 2K bins in order and is updated in place; each
    position counts ``weight`` times, an int for all or an int64 array
    aligned with xk, so integer counts stay exact.  The return value is the
    weighted number of positions outside the window.
    """
    bins = np.floor(xk * n).astype(np.int64)
    inside = (bins >= -k_window) & (bins < k_window)
    if isinstance(weight, np.ndarray):
        np.add.at(counts, bins[inside] + k_window, weight[inside])
    else:
        counts += np.bincount(bins[inside] + k_window, minlength=2 * k_window) * weight
    return weighted_sum(~inside, weight)


def density(
    trajectories: TrajectorySet,
    time_indices: Sequence[int] | None = None,
) -> DensityField:
    """Accumulate the empirical density over the window at ``time_indices`` (default 0..n).

    Bin counts and overflow are int64 counts of paths.  A sampled ensemble
    of at least two full tiles of at least 2^15 rows is counted by two
    workers on two cores or more, the calling thread one of them
    (``TrajectorySet._reduce_counts``); each holds about a dozen arrays of
    batch_size floats and counts of its own, which are summed at the end.
    The counts are the same integers for any number of workers, and a
    diverging ensemble raises the same DivergenceError: the earliest step
    and the smallest path through a bad node there.
    """
    level = trajectories.problem.level
    n = level.n
    time_indices = _checked_times(level, range(n + 1) if time_indices is None else time_indices)
    k_window, rows = level.window_steps, len(time_indices)

    def new_part():  # the bin counts and the overflow of each slice
        return np.zeros((rows, 2 * k_window), dtype=np.int64), np.zeros(rows, dtype=np.int64)

    def add(part, row, xk, weight):
        part[1][row] += bin_counts(xk, n, k_window, part[0][row], weight)

    parts = trajectories._reduce_counts(time_indices, new_part, add)
    return DensityField(
        level=level,
        time_indices=time_indices,
        window_steps=k_window,
        counts=sum(counts for counts, _ in parts),
        overflow=sum(overflow for _, overflow in parts),
        ensemble_size=trajectories.count,
        ensemble_descriptor=trajectories.ensemble.descriptor(),
    )


def event_probability(trajectories: TrajectorySet, t0: float, a: float, b: float) -> Fraction:
    """Exact fraction of paths with a <= x(t0) < b, as a ratio of integers.

    With [a, b) aligned to bin edges this equals the binned density mass
    exactly, because both sides count the same paths.  The paths are
    counted as ``density`` counts them, in more than one worker where the
    same rule allows, and the fraction and any DivergenceError are the same
    for any number of workers.
    """
    (k0,) = slice_indices(trajectories.problem.level, (t0,))

    def add(hits, _, xk, weight):
        hits[0] += weighted_sum((xk >= a) & (xk < b), weight)

    parts = trajectories._reduce_counts((k0,), lambda: [0], add)
    return Fraction(sum(hits for (hits,) in parts), trajectories.count)


@dataclass(frozen=True)
class DependenceReport:
    """Gap between two deterministic solutions against the Lipschitz bound."""

    ok: bool
    lipschitz_constant: float
    horizon: float
    initial_gap: float
    max_gap: float
    first_violation_step: int | None
    gap_at_violation: float | None
    bound_at_violation: float | None
    note: str


def continuous_dependence_check(
    problem: CauchyProblem,
    x0: float,
    x1: float,
    lipschitz_constant: float,
    horizon: float,
) -> DependenceReport:
    """Check |x(t, x0) - x(t, x1)| <= |x0 - x1| * exp(L t) up to the horizon.

    Both runs use zero noise.  A violation signals that the supplied L is
    not a Lipschitz constant for the drift on the visited range; the first
    violating step is reported rather than raised.
    """
    level = problem.level
    n = level.n
    k_max = level.time_grid().index_of(horizon)
    a = solve_grid_ode(replace(problem, x0=float(x0)))
    b = solve_grid_ode(replace(problem, x0=float(x1)))
    gap0 = abs(float(x0) - float(x1))
    first = None
    max_gap = 0.0
    gap_v = bound_v = None
    for k in range(k_max + 1):
        gap = abs(float(a.values[k] - b.values[k]))
        max_gap = max(max_gap, gap)
        bound = gap0 * math.exp(lipschitz_constant * k / n)
        if gap > bound * (1.0 + 1e-12) and first is None:
            first = k
            gap_v, bound_v = gap, bound
    note = (
        "discrete one-step growth factor (1 + L/n)^(n t) is at most exp(L t), "
        "so the continuous bound dominates the grid recursion"
    )
    return DependenceReport(
        ok=first is None,
        lipschitz_constant=float(lipschitz_constant),
        horizon=float(horizon),
        initial_gap=gap0,
        max_gap=max_gap,
        first_violation_step=first,
        gap_at_violation=gap_v,
        bound_at_violation=bound_v,
        note=note,
    )


def _fmt(value: float) -> str:
    return repr(float(value))


def write_density_csv(path, times: np.ndarray, edges: np.ndarray, rows: np.ndarray) -> None:
    """Shared density/FP CSV schema: header of bin left edges, one row per slice.

    Numbers are shortest round-trip decimals so identical runs produce
    byte-identical files.
    """
    lines = ["t," + ",".join(_fmt(e) for e in edges)]
    for t, row in zip(times, rows):
        lines.append(_fmt(t) + "," + ",".join(_fmt(v) for v in row))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")

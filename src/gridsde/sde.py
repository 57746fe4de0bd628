"""Grid ODE/SDE solving, ensemble simulation, densities, event probabilities.

The dynamics are the explicit one-step recursion
``x[k+1] = x[k] + (1/n) * (f(t_k, x[k]) + h(t_k, x[k]) * xi(t_k))``
driven by a noise path (or by zero noise, giving the deterministic grid
ODE).  Existence and uniqueness are by construction: the recursion is total
and deterministic.  ``solve_grid_ode`` returns a ``GridFunction`` on the
time grid, and slice times become time indices by one rule, ``slice_indices``.

Densities, event probabilities, the weak form and the increment report all
read one step stream, ``TrajectorySet.steps``: per batch of paths, the
states x_k, the noise values xi_k and a path multiplicity.  Batches
arrive in path order, one at a time, so a million paths never live in
memory at once; an exhaustive walk allocates two flat buffers of
batch_size * (n+1) floats and reuses them for every batch.

One kernel steps every batch as a piece of the noise tree: x_k depends
only on xi_0..xi_{k-1}, so it steps each distinct noise prefix once.  A
sampled batch, like the single path of ``solve_grid_ode``, is a tree with
one child per node and is stepped path by path, from a time-major copy of
its noise block, so each step reads one contiguous row.  An exhaustive
batch, which reads one row per child, steps from a transposed view of its
block.  It is a whole subtree, so an exhaustive run costs about
|A|^(n+1)/(|A|-1) steps in place of n * |A|^(n+1), plus one write of every
path's states for the per-path view ``batches()``, and every state is
bit-identical to the path-by-path state.  The step stream then carries
each distinct state once per batch, weighted by the number of the batch's
paths through it, so integer bin and event counts are bit-identical to
path-by-path counts for any batch size.  Float sums such as the weak-form
pieces add ``weight * sum`` over distinct states, so they agree with a
path-by-path reduction only to rounding, as a sampled run's float sums
agree across batch sizes only to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

import numpy as np

from .expr import Expr, as_expr
from .grids import GridError, GridFunction, GridLevel, integer_in
from .noise import _DEFAULT_BATCH, _TILE, NoiseEnsemble, NoiseError, NoisePath, _block

__all__ = [
    "DivergenceError",
    "CauchyProblem",
    "TrajectorySet",
    "DensityField",
    "DependenceReport",
    "solve_grid_ode",
    "slice_indices",
    "bin_counts",
    "density",
    "event_probability",
    "continuous_dependence_check",
    "write_density_csv",
]

DIVERGENCE_GUARD = 1e12


class DivergenceError(RuntimeError):
    """A trajectory left the finite range the solver is willing to track."""

    def __init__(self, step: int, path_index: int | None = None):
        self.step = step
        self.path_index = path_index
        where = f" (path {path_index})" if path_index is not None else ""
        super().__init__(f"trajectory diverged at step {step}{where}")


@dataclass(frozen=True)
class CauchyProblem:
    """Drift/diffusion pair with an initial state on a grid level."""

    drift: Expr
    diffusion: Expr
    x0: float
    level: GridLevel
    t0: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "drift", as_expr(self.drift))
        object.__setattr__(self, "diffusion", as_expr(self.diffusion))
        object.__setattr__(self, "x0", float(self.x0))
        if not math.isfinite(self.x0):
            raise GridError(f"x0 must be finite, got {self.x0!r}")
        # t0 must be a grid point; snaps within 1e-9
        self.level.time_grid().index_of(self.t0)

    @property
    def t0_index(self) -> int:
        return self.level.time_grid().index_of(self.t0)

    def describe(self) -> dict:
        return {
            "f": str(self.drift),
            "h": str(self.diffusion),
            "x0": self.x0,
            "t0": self.t0,
            "n": self.level.n,
        }


def _kahan_step(xk, comp, rate, n: int):
    """One compensated step x + rate/n: (next states, their compensation, in-range mask).

    Compensated (Kahan) accumulation: exactly cancelling coin-flip
    increments must return the walk to an exact lattice site, otherwise
    balanced paths end a few ulps off zero and land in the wrong half-open
    density bin.
    """
    inc = rate / n - comp
    nxt = xk + inc
    # NaN and inf compare False, so they are out of range too
    return nxt, (nxt - xk) - inc, np.abs(nxt) <= DIVERGENCE_GUARD


def _time_major(block: np.ndarray) -> np.ndarray:
    """A C-contiguous copy of ``block.T``, built from row tiles that stay in cache."""
    out = np.empty(block.shape[::-1])
    rows = max(1, _TILE // block.shape[1])
    for lo in range(0, block.shape[0], rows):
        out[:, lo : lo + rows] = block[lo : lo + rows].T
    return out


def _step_block(
    problem: CauchyProblem,
    noise: np.ndarray,
    start_index: int | None,
    widths: Sequence[int],
    out: np.ndarray | None = None,
) -> np.ndarray:
    """The states of a batch of noise paths under ``problem``, one row per path.

    The noise and the states are time-major, ``[n+1, rows]``; the noise is
    a copy or a transposed view of the batch's block, and the states, fresh
    or the front of the flat buffer ``out``, are returned transposed.  The
    rows sharing xi_0..xi_{k-1}, and so x_k, are runs of ``widths[k]``
    rows: a node of the noise tree at depth k.  Each node is stepped once,
    its children being its runs of ``widths[k+1]`` rows, each read at its
    first row's noise value.  Widths of 1 step every path on its own; a
    whole subtree in lexicographic order shares its prefixes.  A divergence
    names the first diverging step and the smallest path index through the
    first bad node there, or no path if ``start_index`` is None.  f and h
    are read from ``problem``: each expression compiles its closure once
    and caches it, so every batch steps with the same two closures.
    """
    n = problem.level.n
    m0 = problem.t0_index
    drift_fn, diffusion_fn = problem.drift.vectorized(), problem.diffusion.vectorized()
    states = _block(out, n + 1, noise.shape[1])
    states[: m0 + 1] = problem.x0
    # states never read the noise before t0, so every node at t0 is at x0
    x = states[m0, :: widths[m0]]
    comp = np.zeros(x.shape[0])
    with np.errstate(all="ignore"):
        for k in range(m0, n):
            tk = k / n
            # row i: the children of node i
            xi = noise[k, :: widths[k + 1]].reshape(x.shape[0], -1)
            fv = np.broadcast_to(drift_fn(tk, x), x.shape)[:, None]
            hv = np.broadcast_to(diffusion_fn(tk, x), x.shape)[:, None]
            x, comp, ok = _kahan_step(x[:, None], comp[:, None], fv + hv * xi, n)
            x, comp = x.reshape(-1), comp.reshape(-1)
            if not ok.all():
                row = int(np.argmin(ok)) * widths[k + 1]
                raise DivergenceError(
                    step=k + 1,
                    path_index=None if start_index is None else start_index + row,
                )
            states[k + 1].reshape(x.shape[0], -1)[...] = x[:, None]
    return states.T


def solve_grid_ode(problem: CauchyProblem, noise: NoisePath | None = None) -> GridFunction:
    """Solve the grid equation along one noise path (zero noise by default).

    The solution is x(t_k), k = 0..n, as a function on the level's time grid.
    """
    n = problem.level.n
    if noise is None:
        block = np.zeros((n + 1, 1))
        index = None
    else:
        if noise.level.n != n:
            raise GridError("noise path level does not match the problem level")
        block = noise.values[:, None]
        index = noise.path_index
    values = _step_block(problem, block, index, [1] * (n + 2))[0]
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

    One batch kernel steps each distinct noise prefix of a batch once: a
    sampled batch is a tree with one child per node, so its paths are
    stepped one by one; an exhaustive batch is a whole subtree of the noise
    tree.
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

    def batches(self) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
        """Yield (start, noise, values) in path order.

        ``noise`` and ``values`` are ``[batch, n+1]``; their memory layout
        is unspecified, and the next batch may overwrite them, so a caller
        copies what it keeps past its iteration.  An exhaustive walk owns
        two flat buffers of batch_size * (n+1) floats: each batch writes
        its noise block to one and its states to the other, and yields
        views of them.  A sampled batch is stepped from a fresh time-major
        copy of its noise, and ``noise`` is a transposed view of that copy.
        The batch boundaries are fixed by batch_size alone (for exhaustive
        ensembles, by the largest prefix class not above it), so any
        reduction that combines batch results in yield order is
        reproducible.  Path indices are Python ints, exact at any index, but
        the bin and event counts that the weights add into are int64, so an
        exhaustive ensemble of 2^63 paths or more raises NoiseError before
        the first batch.
        """
        if self.ensemble.mode == "exhaustive" and self.count >= 1 << 63:
            raise NoiseError(
                f"exhaustive ensemble of {self.count} paths: its bin counts would pass "
                "the int64 limit 2**63 - 1"
            )
        # every row of a tree with one child per node is read at every step, so
        # a contiguous time-major copy pays for itself; an exhaustive batch
        # reads only every widths[k+1]-th row, and steps from a transposed view
        one_child = all(w == 1 for w in self._widths)
        # A subtree batch writes its noise and its states into the walk's two
        # buffers; fresh arrays of that size were returned to the system and
        # faulted back in for every batch.  A one-child batch keeps fresh arrays:
        # the row-major block it frees before stepping is recycled for the next
        # one, and with no large block freed the step kernel's per-step arrays
        # were faulted back in at every step instead (a first sampled n=64
        # density took 143k page faults, against 12k with fresh arrays).
        block = states = None
        if not one_child:
            size = self.batch_size * (self.problem.level.n + 1)  # batch_size <= count
            block, states = np.empty(size), np.empty(size)
        for start, noise in self.ensemble.batches(self.batch_size, out=block):
            # rebinding drops a fresh row-major block before the states are allocated
            noise = _time_major(noise) if one_child else noise.T
            values = _step_block(self.problem, noise, start, self._widths, states)
            out = (start, noise.T, values)
            # hold no batch while the next is built: one batch is alive at a time
            del noise, values
            yield out
            del out

    def steps(self, time_indices: Sequence[int], with_noise: bool = False) -> Iterator[tuple]:
        """Yield (i, x_k, xi_k, weight) for k = time_indices[i], batch by batch.

        Every element of x_k stands for ``weight`` paths of the batch, so
        the weights of one k add up to the ensemble count.  Sampled
        ensembles yield every path with weight 1.  Exhaustive ensembles
        yield each distinct state of a batch once, weighted by the paths
        through it; with ``with_noise`` each distinct pair (x_k, xi_k).
        Without it xi_k is None.  x_k and xi_k are copies, so a caller's
        loop variables do not keep a finished batch alive.  GridError before
        the first batch unless every k is an integer in 0..n (numpy's too; not a bool).
        """
        time_indices = _checked_times(self.problem.level, time_indices)
        shift = 1 if with_noise else 0
        for _, noise, values in self.batches():
            for i, k in enumerate(time_indices):
                w = self._widths[k + shift]
                yield i, values[::w, k].copy(), noise[::w, k].copy() if with_noise else None, w
            del noise, values


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
        k = self.window_steps
        return np.arange(-k, k, dtype=np.float64) / self.level.n

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


def bin_counts(xk: np.ndarray, n: int, k_window: int, counts: np.ndarray, weight: int = 1) -> int:
    """Add the positions xk to the half-open bins [j/n, (j+1)/n), j = -K..K-1.

    ``counts`` holds the 2K bins in order and is updated in place; each
    position counts ``weight`` times.  The return value is the weighted
    number of positions outside the window.
    """
    bins = np.floor(xk * n).astype(np.int64)
    inside = (bins >= -k_window) & (bins < k_window)
    counts += np.bincount(bins[inside] + k_window, minlength=2 * k_window) * weight
    return weight * int(bins.shape[0] - int(inside.sum()))


def density(
    trajectories: TrajectorySet,
    time_indices: Sequence[int] | None = None,
) -> DensityField:
    """Accumulate the empirical density over the window at ``time_indices`` (default 0..n)."""
    level = trajectories.problem.level
    n = level.n
    time_indices = _checked_times(level, range(n + 1) if time_indices is None else time_indices)
    k_window = level.window_steps
    counts = np.zeros((len(time_indices), 2 * k_window), dtype=np.int64)
    overflow = np.zeros(len(time_indices), dtype=np.int64)
    for row, xk, _, weight in trajectories.steps(time_indices):
        overflow[row] += bin_counts(xk, n, k_window, counts[row], weight)
    return DensityField(
        level=level,
        time_indices=time_indices,
        window_steps=k_window,
        counts=counts,
        overflow=overflow,
        ensemble_size=trajectories.count,
        ensemble_descriptor=trajectories.ensemble.descriptor(),
    )


def event_probability(trajectories: TrajectorySet, t0: float, a: float, b: float) -> Fraction:
    """Exact fraction of paths with a <= x(t0) < b, as a ratio of integers.

    With [a, b) aligned to bin edges this equals the binned density mass
    exactly, because both sides count the same paths.
    """
    (k0,) = slice_indices(trajectories.problem.level, (t0,))
    hits = 0
    for _, xk, _, weight in trajectories.steps((k0,)):
        hits += weight * int(np.count_nonzero((xk >= a) & (xk < b)))
    return Fraction(hits, trajectories.count)


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

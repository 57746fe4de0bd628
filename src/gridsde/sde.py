"""Grid ODE/SDE solving, ensemble simulation, densities, event probabilities.

The dynamics are the explicit one-step recursion
``x[k+1] = x[k] + (1/n) * (f(t_k, x[k]) + h(t_k, x[k]) * xi(t_k))``
driven by a noise path (or by zero noise, giving the deterministic grid
ODE).  Existence and uniqueness are by construction: the recursion is total
and deterministic.

Densities, event probabilities, the weak form and the increment report all
read one step stream, ``TrajectorySet.steps``: per batch of paths, the
states x_k, the noise values xi_k and a path multiplicity.  Batches
(a million paths never live in memory at once) arrive in path order at any
worker count, so results do not depend on the worker count.

One kernel steps every batch as a piece of the noise tree: x_k depends
only on xi_0..xi_{k-1}, so it steps each distinct noise prefix once.  A
sampled batch, like the single path of ``solve_grid_ode``, is a tree with
one child per node and is stepped path by path.  An exhaustive batch is a
whole subtree, so an exhaustive run costs about |A|^(n+1)/(|A|-1) steps in
place of n * |A|^(n+1), plus one write of every path's states for the
per-path view ``batches()``, and every state is bit-identical to the
path-by-path state.  The step stream then carries each distinct state once
per batch, weighted by the number of the batch's paths through it, so
integer bin and event counts are bit-identical to path-by-path counts for
any batch size.  Float sums such as the weak-form pieces add
``weight * sum`` over distinct states, so they agree with a path-by-path
reduction only to rounding, as a sampled run's float sums agree across
batch sizes only to rounding.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from .expr import Expr, as_expr
from .grids import GridError, GridLevel
from .noise import NoiseEnsemble, NoiseError, NoisePath

__all__ = [
    "DivergenceError",
    "CauchyProblem",
    "Trajectory",
    "TrajectorySet",
    "DensityField",
    "DependenceReport",
    "solve_grid_ode",
    "simulate_ensemble",
    "bin_counts",
    "density",
    "event_probability",
    "continuous_dependence_check",
    "write_density_csv",
]

DIVERGENCE_GUARD = 1e12
_DEFAULT_BATCH = 1 << 15


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


@dataclass(frozen=True)
class Trajectory:
    """One solution of the grid equation: x(t_k) for k = 0..n."""

    level: GridLevel
    values: np.ndarray
    path_index: int | None = None

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.ndim != 1 or arr.shape[0] != self.level.n + 1:
            raise GridError(f"trajectory needs {self.level.n + 1} values")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    def __len__(self) -> int:
        return len(self.values)


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


def _step_block(
    problem: CauchyProblem,
    noise_block: np.ndarray,
    start_index: int | None,
    widths: Sequence[int],
    drift_fn,
    diffusion_fn,
) -> np.ndarray:
    """The states of a batch of noise paths, one row per path.

    The rows sharing xi_0..xi_{k-1}, and so x_k, are runs of ``widths[k]``
    rows: a node of the noise tree at depth k.  Each node is stepped once,
    its children being its runs of ``widths[k+1]`` rows, each read at its
    first row's noise value.  Widths of 1 step every path on its own; a
    whole subtree in lexicographic order shares its prefixes.  States are
    stored time-major, ``[n+1, rows]``, and returned transposed.  A
    divergence names the first diverging step and the smallest path index
    through the first bad node there, or no path if ``start_index`` is None.
    """
    n = problem.level.n
    m0 = problem.t0_index
    out = np.empty((n + 1, noise_block.shape[0]))
    out[: m0 + 1] = problem.x0
    # states never read the noise before t0, so every node at t0 is at x0
    x = out[m0, :: widths[m0]]
    comp = np.zeros(x.shape[0])
    with np.errstate(all="ignore"):
        for k in range(m0, n):
            tk = k / n
            # row i: the children of node i
            xi = noise_block[:: widths[k + 1], k].reshape(x.shape[0], -1)
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
            out[k + 1].reshape(x.shape[0], -1)[...] = x[:, None]
    return out.T


def solve_grid_ode(problem: CauchyProblem, noise: NoisePath | None = None) -> Trajectory:
    """Solve the grid equation along one noise path (zero noise by default)."""
    n = problem.level.n
    if noise is None:
        block = np.zeros((1, n + 1))
        index = None
    else:
        if noise.level.n != n:
            raise GridError("noise path level does not match the problem level")
        block = noise.values[None, :]
        index = noise.path_index
    values = _step_block(
        problem,
        block,
        index,
        [1] * (n + 2),
        problem.drift.vectorized(),
        problem.diffusion.vectorized(),
    )[0]
    return Trajectory(problem.level, values, path_index=index)


class TrajectorySet:
    """Streaming view of the solutions over every path of an ensemble.

    ``threads`` workers run the one batch kernel, which steps each distinct
    noise prefix of a batch once: a sampled batch is a tree with one child
    per node, so its paths are stepped one by one; an exhaustive batch is a
    whole subtree of the noise tree.
    """

    def __init__(
        self,
        problem: CauchyProblem,
        ensemble: NoiseEnsemble,
        batch_size: int = _DEFAULT_BATCH,
        threads: int = 1,
    ):
        if ensemble.level.n != problem.level.n:
            raise GridError("ensemble level does not match the problem level")
        self.problem = problem
        self.ensemble = ensemble
        self.batch_size = int(batch_size)
        if threads < 1:
            raise ValueError(f"threads must be a positive integer, got {threads}")
        self.threads = int(threads)
        self._drift_fn = problem.drift.vectorized()
        self._diffusion_fn = problem.diffusion.vectorized()
        n = problem.level.n
        # widths[k]: rows of a batch that share xi_0..xi_{k-1}, hence x_k
        self._widths = [1] * (n + 2)
        if ensemble.mode == "exhaustive":
            # a batch is a whole subtree: the largest power of |A| that fits
            size = ensemble.alphabet.size
            rows = 1
            while rows * size <= min(self.batch_size, ensemble.count):
                rows *= size
            self.batch_size = rows
            self._widths = [min(rows, size ** (n + 1 - k)) for k in range(n + 2)]

    @property
    def count(self) -> int:
        return self.ensemble.count

    def _run(self, start: int, noise_block: np.ndarray):
        values = _step_block(
            self.problem, noise_block, start, self._widths, self._drift_fn, self._diffusion_fn
        )
        return start, noise_block, values

    def batches(self, with_noise: bool = False) -> Iterator[tuple]:
        """Yield (start, values) or (start, noise, values) in path order.

        The batch boundaries are fixed by batch_size alone (for exhaustive
        ensembles, by the largest power of |A| not above it), and batches
        are yielded in index order regardless of thread count, so any
        reduction that combines batch results in yield order is
        reproducible.  Exhaustive path indices and weights are int64, so an
        exhaustive ensemble of 2^63 paths or more raises NoiseError before
        the first batch.
        """
        if self.ensemble.mode == "exhaustive" and self.count >= 1 << 63:
            raise NoiseError(
                f"exhaustive ensemble of {self.count} paths: path indices would pass "
                "the int64 limit 2**63 - 1"
            )
        if self.threads == 1:
            for start, noise_block in self.ensemble.batches(self.batch_size):
                out = self._run(start, noise_block)
                yield out if with_noise else (out[0], out[2])
            return
        source = self.ensemble.batches(self.batch_size)
        pending: deque = deque()
        with ThreadPoolExecutor(max_workers=self.threads) as pool:
            for start, block in itertools.islice(source, 2 * self.threads):
                pending.append(pool.submit(self._run, start, block))
            while pending:
                out = pending.popleft().result()
                nxt = next(source, None)
                if nxt is not None:
                    pending.append(pool.submit(self._run, *nxt))
                yield out if with_noise else (out[0], out[2])

    def steps(self, time_indices: Sequence[int], with_noise: bool = False) -> Iterator[tuple]:
        """Yield (i, x_k, xi_k, weight) for k = time_indices[i], batch by batch.

        Every element of x_k stands for ``weight`` paths of the batch, so
        the weights of one k add up to the ensemble count.  Sampled
        ensembles yield every path with weight 1.  Exhaustive ensembles
        yield each distinct state of a batch once, weighted by the paths
        through it; with ``with_noise`` each distinct pair (x_k, xi_k).
        Without it xi_k is None.
        """
        shift = 1 if with_noise else 0
        for _, noise, values in self.batches(with_noise=True):
            for i, k in enumerate(time_indices):
                w = self._widths[k + shift]
                yield i, values[::w, k], noise[::w, k] if with_noise else None, w


def simulate_ensemble(
    problem: CauchyProblem,
    ensemble: NoiseEnsemble,
    batch_size: int = _DEFAULT_BATCH,
    threads: int = 1,
) -> TrajectorySet:
    """One trajectory per noise path, as a streaming set."""
    return TrajectorySet(problem, ensemble, batch_size=batch_size, threads=threads)


def _window_steps(level: GridLevel, window) -> int:
    if window is None:
        return level.window_steps
    hw = Fraction(window)
    if hw <= 0:
        raise GridError("density window must be positive")
    if (hw * level.n).denominator != 1:
        raise GridError(f"window {window!r} is not a multiple of the step 1/{level.n}")
    return int(hw * level.n)


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

    def slice_rho(self, time_index: int) -> np.ndarray:
        pos = self.time_indices.index(time_index)
        return self.rho()[pos]

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
    window=None,
) -> DensityField:
    """Accumulate the empirical density over the trajectory stream."""
    level = trajectories.problem.level
    n = level.n
    if time_indices is None:
        time_indices = range(n + 1)
    time_indices = tuple(int(k) for k in time_indices)
    if any(not 0 <= k <= n for k in time_indices):
        raise GridError("time indices must lie in 0..n")
    k_window = _window_steps(level, window)
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
    level = trajectories.problem.level
    k0 = level.time_grid().index_of(t0)
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

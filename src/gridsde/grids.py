"""Uniform 1/n lattices, grid functions, and the discrete calculus on them.

Coordinates live on the lattice {i/n}: the time axis uses i = 0..n (the
interval [0, 1]) and the spatial axis uses i = -K..K for a window halfwidth
of K/n.  Indices are exact integers and a coordinate becomes a float only at
evaluation time, so the telescoping identities of the discrete calculus are
checked against rounding error alone, never against grid drift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "GridError",
    "GridLevel",
    "UniformGrid",
    "GridFunction",
    "ConvergenceEstimate",
    "grid_derivative",
    "grid_integral",
    "integral_function",
    "fundamental_theorem_check",
    "multilevel_integral",
]


class GridError(ValueError):
    """Invalid grid construction or grid operation."""


_DEFAULT_WINDOW = 8


@dataclass(frozen=True)
class GridLevel:
    """Refinement level n: time step 1/n plus a truncated spatial window.

    The full spatial lattice at level n would extend to n/2 on either side
    of the origin, so ``spatial_halfwidth`` may never exceed n/2 and must be
    an integer multiple of the step.  The default window is 8, clamped to
    n/2 for small n (at n = 1 the full lattice is the single point {0} and
    the window degenerates to it).
    """

    n: int
    spatial_halfwidth: Fraction | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or isinstance(self.n, bool) or self.n < 1:
            raise GridError("level n must be a positive integer")
        if self.spatial_halfwidth is None:
            hw = Fraction(min(_DEFAULT_WINDOW * self.n, self.n * self.n // 2), self.n)
            object.__setattr__(self, "spatial_halfwidth", hw)
        else:
            try:
                hw = Fraction(self.spatial_halfwidth)
            except (TypeError, ValueError, OverflowError) as exc:
                raise GridError(f"invalid spatial halfwidth: {self.spatial_halfwidth!r}") from exc
            object.__setattr__(self, "spatial_halfwidth", hw)
            if hw <= 0:
                raise GridError("spatial halfwidth must be positive")
        if (hw * self.n).denominator != 1:
            raise GridError(f"spatial halfwidth {hw} is not a multiple of the step 1/{self.n}")
        if hw > Fraction(self.n, 2):
            raise GridError(f"spatial halfwidth {hw} exceeds the lattice extent n/2 = {self.n}/2")

    @property
    def step(self) -> Fraction:
        """Grid step 1/n, exact."""
        return Fraction(1, self.n)

    @property
    def window_steps(self) -> int:
        """Number of steps K from the origin to the spatial window edge."""
        return int(self.spatial_halfwidth * self.n)

    def time_grid(self) -> "UniformGrid":
        """The n+1 time points k/n, k = 0..n, spanning [0, 1]."""
        return UniformGrid(self, 0, self.n + 1)

    def spatial_grid(self) -> "UniformGrid":
        """The 2K+1 spatial points j/n, j = -K..K."""
        k = self.window_steps
        return UniformGrid(self, -k, k + 1)


@dataclass(frozen=True)
class UniformGrid:
    """Lattice points i/n for i in the half-open index range [i_start, i_stop)."""

    level: GridLevel
    i_start: int
    i_stop: int

    def __post_init__(self) -> None:
        if self.i_stop <= self.i_start:
            raise GridError("grid index range is empty")

    @property
    def point_count(self) -> int:
        return self.i_stop - self.i_start

    def point(self, pos: int) -> Fraction:
        """Exact coordinate of the pos-th grid point (0-based)."""
        if not 0 <= pos < self.point_count:
            raise GridError(f"grid position {pos} out of range")
        return Fraction(self.i_start + pos, self.level.n)

    def points(self) -> np.ndarray:
        """All coordinates as floats, each rounded once from the exact value."""
        return np.arange(self.i_start, self.i_stop, dtype=np.float64) / self.level.n

    def index_of(self, value) -> int:
        """Position of a coordinate on the grid; snaps within 1e-9 of a point."""
        n = self.level.n
        if not math.isfinite(float(value)):
            raise GridError(f"{value!r} is not a finite grid coordinate")
        k = round(float(value) * n)
        if abs(float(value) * n - k) > 1e-9:
            raise GridError(f"{value!r} is not on the 1/{n} grid")
        if not self.i_start <= k < self.i_stop:
            raise GridError(f"{value!r} lies outside the grid window")
        return k - self.i_start


@dataclass(frozen=True)
class GridFunction:
    """Real values attached to the points of a uniform grid."""

    grid: UniformGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.ndim != 1 or arr.shape[0] != self.grid.point_count:
            raise GridError(
                f"expected {self.grid.point_count} values, got shape {arr.shape}"
            )
        if not np.all(np.isfinite(arr)):
            raise GridError("grid function values must be finite")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    def __len__(self) -> int:
        return self.grid.point_count

    @classmethod
    def from_callable(cls, grid: UniformGrid, fn: Callable[[float], float]) -> "GridFunction":
        values = np.empty(grid.point_count)
        for pos, coord in enumerate(grid.points()):
            v = float(fn(float(coord)))
            if not math.isfinite(v):
                raise GridError(f"function is not finite at grid point {grid.point(pos)}")
            values[pos] = v
        return cls(grid, values)


def grid_derivative(f: GridFunction) -> GridFunction:
    """Forward difference quotient (f[k+1] - f[k]) * n, one point shorter.

    The last point has no successor on the grid, so the result drops it
    rather than padding.
    """
    if len(f) < 2:
        raise GridError("grid derivative undefined for a single-point function")
    n = f.grid.level.n
    diff = (f.values[1:] - f.values[:-1]) * n
    return GridFunction(UniformGrid(f.grid.level, f.grid.i_start, f.grid.i_stop - 1), diff)


def grid_integral(f: GridFunction, start: int = 0, stop: int | None = None) -> float:
    """Step-weighted sum of f over the half-open position range [start, stop).

    Defaults to the full grid.  An empty range integrates to exactly 0.
    """
    if stop is None:
        stop = len(f)
    if not (0 <= start <= stop <= len(f)):
        raise GridError(f"integration range [{start}, {stop}) out of bounds")
    return math.fsum(f.values[start:stop]) / f.grid.level.n


def integral_function(f: GridFunction) -> GridFunction:
    """The running integral g[m] = step * sum(f[0:m]) on the same grid.

    g[0] = 0 and the last value of f is never consumed, so the grid
    derivative of the result recovers f exactly on all but its last point.
    """
    n = f.grid.level.n
    prefix = np.concatenate(([0.0], np.cumsum(f.values[:-1]))) / n
    return GridFunction(f.grid, prefix)


def fundamental_theorem_check(f: GridFunction, x_idx: int, y_idx: int) -> tuple[float, float]:
    """Both sides of the telescoping identity over positions [x_idx, y_idx).

    Returns (integral of the grid derivative, f[y] - f[x]); the two agree to
    rounding error because the sum telescopes term by term.
    """
    if not (0 <= x_idx < y_idx < len(f)):
        raise GridError(f"need 0 <= x_idx < y_idx < {len(f)}")
    lhs = grid_integral(grid_derivative(f), x_idx, y_idx)
    rhs = float(f.values[y_idx] - f.values[x_idx])
    return lhs, rhs


@dataclass(frozen=True)
class ConvergenceEstimate:
    """Grid sums of an integrand across refinement levels.

    ``estimate`` is the finest-level value; ``spread`` is the largest
    pairwise difference over the last three levels and ``converged`` holds
    iff it is within the requested tolerance.  Convergence is reported, not
    assumed: for integrands without a classical integral the value may
    genuinely depend on the lattice family (a dyadic-rational indicator sums
    to 1 on every dyadic level while its Lebesgue integral is 0), and then
    the honest answer is converged=False or a level-dependent number.
    """

    levels: tuple[int, ...]
    values: tuple[float, ...]
    estimate: float
    spread: float
    converged: bool
    tolerance: float


def multilevel_integral(
    fn: Callable[[float], float],
    domain: tuple[float, float],
    levels: Sequence[int],
    tol: float,
) -> ConvergenceEstimate:
    """Estimate the integral of fn over the half-open interval [a, b).

    At each level n the value is (1/n) * sum of fn over lattice points k/n
    with a <= k/n < b.  For Riemann-integrable fn this converges to the
    classical integral; the half-open convention makes the constant case
    exact at every level.
    """
    a, b = domain
    if not (a < b):
        raise GridError("domain must satisfy a < b")
    levels = tuple(int(n) for n in levels)
    if len(levels) < 3:
        raise GridError("need at least 3 levels")
    if any(n2 <= n1 for n1, n2 in zip(levels, levels[1:])):
        raise GridError("levels must be strictly increasing")

    values = []
    for n in levels:
        k0, k1 = math.ceil(Fraction(a) * n), math.ceil(Fraction(b) * n)
        if k1 <= k0:  # no lattice point in [a, b)
            values.append(0.0)
            continue
        values.append(grid_integral(GridFunction.from_callable(UniformGrid(GridLevel(n), k0, k1), fn)))

    tail = values[-3:]
    spread = max(abs(u - v) for u in tail for v in tail)
    return ConvergenceEstimate(
        levels=levels,
        values=tuple(values),
        estimate=values[-1],
        spread=spread,
        converged=spread <= tol,
        tolerance=tol,
    )

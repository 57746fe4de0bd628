"""Uniform 1/n lattices, grid functions, and the discrete calculus on them.

Coordinates live on the lattice {i/n}: the time axis uses i = 0..n (the
interval [0, 1]) and the spatial axis uses i = -K..K for a window halfwidth
of K/n.  Indices are exact integers and a coordinate becomes a float only at
evaluation time, so the telescoping identities of the discrete calculus are
checked against rounding error alone, never against grid drift.
"""

from __future__ import annotations

import math
import numbers
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


def integer_in(value, lo: int | None, hi: int | None, error: type[Exception], message: str) -> int:
    """int(value) if it is an integer in lo..hi (None: open), not a bool; else error(message)."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        if (lo is None or lo <= value) and (hi is None or value <= hi):
            return int(value)
    raise error(message)


_DEFAULT_WINDOW = 8


@dataclass(frozen=True)
class GridLevel:
    """Refinement level n: time step 1/n plus a truncated spatial window.

    The full spatial lattice at level n would extend to n/2 on either side
    of the origin, so ``spatial_halfwidth`` may never exceed n/2 and must be
    an integer multiple of the step.  The default window is 8, clamped to
    n/2 for small n (at n = 1 the full lattice is the single point {0} and
    the window degenerates to it).  n is a non-bool integer >= 1, stored as int.
    """

    n: int
    spatial_halfwidth: Fraction | None = None

    def __post_init__(self) -> None:
        message = "level n must be a positive integer"
        object.__setattr__(self, "n", integer_in(self.n, 1, None, GridError, message))
        if self.spatial_halfwidth is None:
            hw = Fraction(min(_DEFAULT_WINDOW * self.n, self.n * self.n // 2), self.n)
        else:
            try:
                hw = Fraction(self.spatial_halfwidth)
            except (TypeError, ValueError, OverflowError) as exc:
                raise GridError(f"invalid spatial halfwidth: {self.spatial_halfwidth!r}") from exc
            if hw <= 0:
                raise GridError("spatial halfwidth must be positive")
        object.__setattr__(self, "spatial_halfwidth", hw)
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

    def window_holds(self, lo: float, hi: float) -> bool:
        """Whether [lo, hi] lies in the spatial window, with a slack of 1e-12."""
        halfwidth = float(self.spatial_halfwidth) + 1e-12
        return -halfwidth <= lo and hi <= halfwidth

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
        message = f"grid index range [{self.i_start!r}, {self.i_stop!r}) is empty or not integer"
        start = integer_in(self.i_start, None, None, GridError, message)
        object.__setattr__(self, "i_start", start)
        object.__setattr__(self, "i_stop", integer_in(self.i_stop, start + 1, None, GridError, message))

    @property
    def point_count(self) -> int:
        return self.i_stop - self.i_start

    def point(self, pos: int) -> Fraction:
        """Exact coordinate of the pos-th grid point (0-based)."""
        pos = integer_in(pos, 0, self.point_count - 1, GridError, f"grid position {pos!r} out of range")
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
    message = f"integration range [{start!r}, {stop!r}) out of bounds"
    start = integer_in(start, 0, len(f), GridError, message)
    stop = integer_in(len(f) if stop is None else stop, start, len(f), GridError, message)
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
    message = f"need integers 0 <= x_idx < y_idx < {len(f)}, got {x_idx!r}, {y_idx!r}"
    x_idx = integer_in(x_idx, 0, len(f) - 2, GridError, message)
    y_idx = integer_in(y_idx, x_idx + 1, len(f) - 1, GridError, message)
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
    levels = tuple(GridLevel(n).n for n in levels)  # GridError unless positive integers
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

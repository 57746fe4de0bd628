"""Grid-function representations of point distributions.

A grid function with a spike of height n at one lattice point integrates to
1 and pairs with a test function to its point value, so it stands in for
the Dirac delta; the two-point n^2 spike plays the derivative.  Pairing is
the step-weighted sum of value * test function over the lattice, and
macroscopic equivalence compares pairings against a family of bumps within
a tolerance.  Whether a grid function corresponds to a distribution at all
is a boundedness-across-levels question, so the pairing reports magnitudes
and callers compare levels (the n^2 spike grows linearly and matches
nothing macroscopic).

Sign convention: the pairing of the discrete delta-derivative tends to
-phi'(center), matching the classical distributional derivative through
summation by parts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .expr import TestFunction
from .grids import GridFunction, GridLevel

__all__ = [
    "DistributionError",
    "GridDistribution",
    "EquivalenceReport",
    "dirac",
    "dirac_derivative",
    "split_dirac",
    "sample_distribution",
    "pair",
    "equivalent",
    "default_bump_family",
]


class DistributionError(ValueError):
    """Invalid distribution construction or pairing."""


@dataclass(frozen=True)
class GridDistribution:
    """A grid function on the spatial lattice of a level, used via pairings."""

    gf: GridFunction
    label: str = ""

    @property
    def level(self) -> GridLevel:
        return self.gf.grid.level

    @classmethod
    def from_values(cls, level: GridLevel, values, label: str = "") -> "GridDistribution":
        return cls(GridFunction(level.spatial_grid(), np.asarray(values, dtype=np.float64)), label)


def _spike(level: GridLevel, at: float, offsets_heights: list[tuple[int, float]], label: str) -> GridDistribution:
    grid = level.spatial_grid()
    pos = grid.index_of(at)
    values = np.zeros(grid.point_count)
    for offset, height in offsets_heights:
        target = pos + offset
        if not 0 <= target < grid.point_count:
            raise DistributionError(f"point {at!r} has no grid successor inside the window")
        values[target] = height
    return GridDistribution(GridFunction(grid, values), label)


def dirac(level: GridLevel, at: float = 0.0) -> GridDistribution:
    """Height n at the given lattice point: integrates to exactly 1."""
    return _spike(level, at, [(0, float(level.n))], f"dirac({at})")


def dirac_derivative(level: GridLevel, at: float = 0.0) -> GridDistribution:
    """Heights +n^2 and -n^2 at a point and its successor.

    The full-grid integral is exactly 0 and the pairing tends to
    -phi'(center) as the level grows.
    """
    n2 = float(level.n) ** 2
    return _spike(level, at, [(0, n2), (1, -n2)], f"dirac_derivative({at})")


def split_dirac(level: GridLevel, at: float = 0.0) -> GridDistribution:
    """Height n/2 on a point and its successor: a delta smeared by one step."""
    half = level.n / 2.0
    return _spike(level, at, [(0, half), (1, half)], f"split_dirac({at})")


def sample_distribution(level: GridLevel, fn: Callable[[float], float], label: str = "") -> GridDistribution:
    """The grid function of an ordinary real function, sampled on the window."""
    return GridDistribution(GridFunction.from_callable(level.spatial_grid(), fn), label)


def pair(dist: GridDistribution, phi: TestFunction, fixed_t: float = 0.0) -> float:
    """Step-weighted sum of gf * phi(fixed_t, .) over the spatial lattice.

    The test function's spatial support must fit inside the window,
    otherwise the truncated sum would silently drop mass; fixed_t must be
    finite.
    """
    if not math.isfinite(fixed_t):
        raise DistributionError(f"fixed_t must be finite, got {fixed_t}")
    grid = dist.gf.grid
    halfwidth = float(dist.level.spatial_halfwidth)
    lo, hi = phi.x_support
    if lo < -halfwidth - 1e-12 or hi > halfwidth + 1e-12:
        raise DistributionError(
            f"window too small: support [{lo}, {hi}] exceeds [-{halfwidth}, {halfwidth}]"
        )
    values = dist.gf.values
    terms = []
    for pos in np.nonzero(values)[0]:
        point = float(grid.point(int(pos)))
        terms.append(values[pos] * phi(fixed_t, point))
    return math.fsum(terms) / dist.level.n


@dataclass(frozen=True)
class EquivalenceEntry:
    phi: str
    pair_left: float
    pair_right: float
    gap: float  # |pair_left - pair_right|


@dataclass(frozen=True)
class EquivalenceReport:
    """Per-test-function pairings of two grid functions and their gaps."""

    equivalent: bool
    tolerance: float
    entries: tuple[EquivalenceEntry, ...]

    def max_gap(self) -> float:
        return max((entry.gap for entry in self.entries), default=0.0)


def default_bump_family(
    centers: Sequence[float] | None = None,
    widths: Sequence[float] = (0.5, 1.0),
) -> list[TestFunction]:
    """Nine bump centers from -1 to 1 in steps of 0.25, at two widths each.

    A finite stand-in for the universal quantifier over test functions;
    callers can and should pass their own family when the defaults cannot
    separate the grid functions under study.
    """
    if centers is None:
        centers = [k * 0.25 for k in range(-4, 5)]
    family = []
    for width in widths:
        for center in centers:
            family.append(
                TestFunction.from_bumps(
                    x_center=float(center),
                    x_width=float(width),
                    label=f"bump(c={center}, w={width})",
                )
            )
    return family


def equivalent(
    d1: GridDistribution,
    d2: GridDistribution,
    phis: Sequence[TestFunction] | None = None,
    tol: float = 1e-9,
    fixed_t: float = 0.0,
) -> EquivalenceReport:
    """Whether two grid functions pair identically (within tol) on a phi family."""
    if d1.level.n != d2.level.n:
        raise DistributionError("grid functions live on different levels")
    if phis is None:
        phis = default_bump_family()
    entries = []
    for phi in phis:
        p1 = pair(d1, phi, fixed_t)
        p2 = pair(d2, phi, fixed_t)
        entries.append(EquivalenceEntry(phi.label, p1, p2, abs(p1 - p2)))
    ok = all(entry.gap <= tol for entry in entries)
    return EquivalenceReport(equivalent=ok, tolerance=tol, entries=tuple(entries))

"""Exact expectation identities on exhaustive ensembles.

On an exhaustive ensemble with a symmetric alphabet these identities hold
by counting, not asymptotically, so the checks assert equality up to
floating-point roundoff (1e-10 relative is generous):

* single-point moments: E[xi(t)] = 0, E[xi(t)^2] = n, E[xi(t) xi(s)] = 0;
* the tower property: a full-ensemble average equals the average over
  prefixes of conditional averages, for any path functional, because the
  conditional classes partition the ensemble into equal-sized blocks;
* increment orthogonality: E[F(t, x(t)) * xi(t)] = 0 and
  E[F(t, x(t)) * xi(t)^2] = n * E[F(t, x(t))] whenever F reads only the
  state, which depends on strictly earlier noise values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .expr import as_expr
from .noise import NoiseEnsemble, PathFunctional, _path_values
from .sde import CauchyProblem, TrajectorySet, _arr, weighted_sum

__all__ = [
    "MomentReport",
    "TowerReport",
    "IncrementReport",
    "moment_report",
    "tower_property_report",
    "increment_report",
]


@dataclass(frozen=True)
class MomentReport:
    """Worst-case deviations of the empirical noise moments from exact values."""

    n: int
    count: int
    max_abs_mean: float
    max_diag_deviation: float
    max_offdiag_abs: float
    max_relative_deviation: float  # the largest of the three above, over n


def moment_report(ensemble: NoiseEnsemble) -> MomentReport:
    """E[xi(t)], and the full matrix E[xi(t) xi(s)], against 0 and n*[t == s]."""
    points = ensemble.level.n + 1
    sums = np.zeros(points)
    cross = np.zeros((points, points))
    for _, block in ensemble.batches():
        sums += block.sum(axis=0)
        cross += block.T @ block
    means = sums / ensemble.count
    second = cross / ensemble.count
    diag = np.diag(second)
    off = second - np.diag(diag)
    n = ensemble.level.n
    max_abs_mean = float(np.max(np.abs(means)))
    max_diag_deviation = float(np.max(np.abs(diag - n)))
    max_offdiag_abs = float(np.max(np.abs(off)))
    scale = float(n)
    return MomentReport(
        n=n,
        count=ensemble.count,
        max_abs_mean=max_abs_mean,
        max_diag_deviation=max_diag_deviation,
        max_offdiag_abs=max_offdiag_abs,
        max_relative_deviation=max(
            max_abs_mean / scale, max_diag_deviation / scale, max_offdiag_abs / scale
        ),
    )


@dataclass(frozen=True)
class TowerEntry:
    functional: str
    full: float
    decomposed: float
    gap: float  # |full - decomposed|


@dataclass(frozen=True)
class TowerReport:
    """Full-ensemble averages against prefix-decomposed averages."""

    n: int
    split_index: int
    entries: tuple[TowerEntry, ...]
    max_relative_gap: float  # max of gap / max(1, |full|)


def tower_property_report(
    ensemble: NoiseEnsemble,
    functionals: Sequence[tuple[str, PathFunctional]],
    split_index: int,
) -> TowerReport:
    """Compare E[Phi] with the mean over prefix classes of conditional means.

    Exhaustive only; the classes are the runs of ``prefix_rows(split_index)``
    paths that agree on the first ``split_index`` grid points, and the fsum
    mean of a run is its conditional mean.  Each functional maps a noise
    block to one value per row, reading each row alone.  Each holds one float
    per path, so the enumeration cap is a memory bound: 8 * count bytes each.
    """
    rows = ensemble.prefix_rows(split_index)
    values = _path_values(ensemble, [phi for _, phi in functionals])
    entries = []
    for (label, _), column in zip(functionals, values):
        full = math.fsum(column) / len(column)
        blocks = column.reshape(-1, rows)
        decomposed = math.fsum(math.fsum(b) / rows for b in blocks) / len(blocks)
        entries.append(TowerEntry(label, full, decomposed, abs(full - decomposed)))
    return TowerReport(
        n=ensemble.level.n,
        split_index=split_index,
        entries=tuple(entries),
        max_relative_gap=max(e.gap / max(1.0, abs(e.full)) for e in entries),
    )


@dataclass(frozen=True)
class IncrementEntry:
    F: str
    time_index: int
    orthogonality_gap: float  # |E[F xi]|
    orthogonality_scale: float  # E[|F xi|]
    quadratic_gap: float  # |E[F xi^2] - n E[F]|
    quadratic_scale: float  # max(1, |n E[F]|)


@dataclass(frozen=True)
class IncrementReport:
    """E[F(t, x(t)) xi(t)] vs 0 and E[F xi(t)^2] vs n E[F], per F and t."""

    n: int
    count: int
    entries: tuple[IncrementEntry, ...]
    max_orthogonality_rel: float  # max of orthogonality_gap / max(1, orthogonality_scale)
    max_quadratic_rel: float  # max of quadratic_gap / quadratic_scale


def increment_report(
    problem: CauchyProblem,
    ensemble: NoiseEnsemble,
    state_functions: Sequence,
    time_indices: Sequence[int] | None = None,
) -> IncrementReport:
    """Check increment orthogonality for expressions F(t, x) along solutions.

    F is evaluated at (t_k, x(t_k)); adaptedness of the solver (x(t_k) never
    reads xi(t_k) or later) is exactly what makes these counting identities
    exact, so a nonzero gap beyond roundoff indicates a lookahead bug.
    """
    n = problem.level.n
    if time_indices is None:
        time_indices = (0, n // 2, n - 1)
    exprs = [(str(as_expr(src)), as_expr(src).vectorized()) for src in state_functions]
    trajset = TrajectorySet(problem, ensemble)

    sums_f = np.zeros((len(exprs), len(time_indices)))
    sums_fxi = np.zeros_like(sums_f)
    sums_fxi2 = np.zeros_like(sums_f)
    sums_abs = np.zeros_like(sums_f)
    with np.errstate(all="ignore"):
        for col, xk, xik, weight in trajset.steps(time_indices, with_noise=True):
            tk = time_indices[col] / n
            for row, (_, fn) in enumerate(exprs):
                fv = _arr(fn(tk, xk), xk)
                sums_f[row, col] += weighted_sum(fv, weight)
                sums_fxi[row, col] += weighted_sum(fv * xik, weight)
                sums_fxi2[row, col] += weighted_sum(fv * xik * xik, weight)
                sums_abs[row, col] += weighted_sum(np.abs(fv * xik), weight)
    count = trajset.count
    entries = []
    for row, (label, _) in enumerate(exprs):
        for col, k in enumerate(time_indices):
            mean_f = sums_f[row, col] / count
            target = n * mean_f
            entries.append(
                IncrementEntry(
                    F=label,
                    time_index=int(k),
                    orthogonality_gap=abs(sums_fxi[row, col] / count),
                    orthogonality_scale=sums_abs[row, col] / count,
                    quadratic_gap=abs(sums_fxi2[row, col] / count - target),
                    quadratic_scale=max(1.0, abs(target)),
                )
            )
    return IncrementReport(
        n=n,
        count=count,
        entries=tuple(entries),
        max_orthogonality_rel=max(
            e.orthogonality_gap / max(1.0, e.orthogonality_scale) for e in entries
        ),
        max_quadratic_rel=max(e.quadratic_gap / e.quadratic_scale for e in entries),
    )

"""Verification core: discrete chain-rule residuals, the weak-form density
equation, and an independent finite-volume solver for cross-validation.

The discrete chain rule estimates the one-step change of phi(t, x(t)) by
``phi_t + phi_x * r + (1/(2n)) * phi_xx * r^2`` with r the difference
quotient of x; its residual decays like 1/n on smooth paths and like
n^(-1/2) on coin-flip paths (the cube of r enters the remainder there).

The weak form tests the empirical density rho against
``eps^2 * sum_t sum_x (phi_t + f phi_x + h^2/2 phi_xx) rho + phi(0, x0) = 0``
for compactly supported smooth phi vanishing before t = 1.  The report also
splits the underlying ensemble average into its four algebraic pieces
(drift, terms linear in the noise, the f^2 step correction, and the
quadratic noise term); the pieces are an exact regrouping, so they must sum
to the directly computed total to roundoff.  On an exhaustive ensemble
each node's children carry the whole zero-sum alphabet, so the
linear-in-noise piece cancels up to rounding.

The finite-volume solver shares nothing with the ensemble simulator beyond
expression evaluation, so agreement between the two is evidence, not
circularity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .expr import TestFunction, as_expr
from .grids import GridError, GridFunction
from .noise import NoiseEnsemble
from .sde import (
    CauchyProblem,
    TrajectorySet,
    bin_counts,
    density,
    slice_indices,
    write_density_csv,
)

__all__ = [
    "VerificationError",
    "FPStabilityError",
    "MAX_SUBSTEPS",
    "MAX_CELLS",
    "ItoReport",
    "WeakFormReport",
    "FPSolution",
    "CrossValReport",
    "ito_residual",
    "weak_form_residual",
    "fp_solve",
    "cross_validate",
]


class VerificationError(ValueError):
    """Unusable inputs for a verification run."""


class FPStabilityError(VerificationError):
    """The explicit stability bound rules out the requested time step, or every step at some t."""


# The most substeps one fp_solve takes, planned and split alike: 3.5 times the
# 36835 of fp-solve --f=-x --h 1 --dx 0.0078125, a few seconds of stepping.
MAX_SUBSTEPS = 1 << 17

# The most cells one fp_solve steps, far above the 768 of bench pde's fp-solve.
MAX_CELLS = 1 << 20


def _arr(value, like: np.ndarray) -> np.ndarray:
    return np.broadcast_to(np.asarray(value, dtype=np.float64), like.shape)


# ----------------------------------------------------------------------
# discrete chain-rule residual


@dataclass(frozen=True)
class ItoReport:
    """Residual of the discrete chain rule along one trajectory.

    ``hypothesis_ok`` records whether max |dx/dt| stayed within n^(2/3),
    the growth bound under which the second-order estimate is valid.
    """

    n: int
    residuals: np.ndarray
    max_abs_residual: float
    mean_abs_residual: float
    max_rate: float
    rate_bound: float
    hypothesis_ok: bool
    phi_label: str


def ito_residual(phi: TestFunction, trajectory: GridFunction) -> ItoReport:
    """Per-step residual of the second-order chain-rule estimate along x on the time grid, k = 0..n-2.

    phi_t, phi_x and phi_xx come from one call of ``phi.jet`` at the states
    x_0..x_{n-1}, bit for bit as their own compiled functions give them.
    """
    n = trajectory.grid.level.n
    if n < 2:
        raise VerificationError("need at least 2 steps for a residual")
    xv = trajectory.values
    times = np.arange(n + 1, dtype=np.float64) / n
    with np.errstate(all="ignore"):
        pv = _arr(phi.value_fn(times, xv), xv)
        rate = (xv[1:] - xv[:-1]) * n
        tk, xk = times[:-1], xv[:-1]
        pt, px, pxx = phi.jet(tk, xk)
        estimate = pt + px * rate + (0.5 / n) * pxx * rate * rate
        residuals = ((pv[1:] - pv[:-1]) * n - estimate)[: n - 1]
    if not np.all(np.isfinite(residuals)):
        raise VerificationError("residuals are not finite")
    max_rate = float(np.max(np.abs(rate)))
    bound = float(n) ** (2.0 / 3.0)
    return ItoReport(
        n=n,
        residuals=residuals,
        max_abs_residual=float(np.max(np.abs(residuals))),
        mean_abs_residual=float(np.mean(np.abs(residuals))),
        max_rate=max_rate,
        rate_bound=bound,
        hypothesis_ok=max_rate <= bound,
        phi_label=phi.label,
    )


# ----------------------------------------------------------------------
# weak form


@dataclass(frozen=True)
class WeakFormReport:
    """Weak-form residual plus the four-piece ensemble decomposition."""

    n: int
    residual: float
    double_sum: float
    initial_term: float
    drift_term: float
    noise_term: float
    correction_term: float
    quadratic_term: float
    taylor_total: float
    pieces_sum_error: float
    ensemble: dict
    phi: str


def weak_form_residual(
    problem: CauchyProblem,
    ensemble: NoiseEnsemble,
    phi: TestFunction,
) -> WeakFormReport:
    """Residual of the weak-form density equation for one test function.

    The headline residual uses the empirical density with f, h, and the phi
    derivatives evaluated at bin left edges.  The four decomposition pieces
    are ensemble averages accumulated along the same trajectories:
    E[phi_t + f phi_x], E[(phi_x h + eps phi_xx f h) xi],
    E[(eps/2) phi_xx f^2], and E[(eps/2) phi_xx h^2 xi^2], each summed over
    t with weight eps.  Both loops, over the stepped states and over the
    bin edges, read phi_t, phi_x and phi_xx from one call of ``phi.jet``,
    which evaluates their shared subexpressions once and gives each bit for
    bit as its own compiled function does.
    """
    level = problem.level
    n = level.n
    if not phi.t_support[1] < 1.0:
        raise VerificationError(
            "test function must vanish at t = 1 (its time support must end before 1)"
        )
    if not level.window_holds(*phi.x_support):
        raise VerificationError("window too small for the test function's spatial support")

    k_window = level.window_steps
    counts = np.zeros((n, 2 * k_window), dtype=np.int64)
    drift_sum = noise_sum = corr_sum = quad_sum = taylor_sum = 0.0
    eps = 1.0 / n

    fdrift = problem.drift.vectorized()
    fdiff = problem.diffusion.vectorized()
    trajset = TrajectorySet(problem, ensemble)
    t_lo, t_hi = phi.t_support
    with np.errstate(all="ignore"):
        for k, xk, xik, weight in trajset.steps(range(n), with_noise=True):
            bin_counts(xk, n, k_window, counts[k], weight)
            tk = k / n
            if not t_lo < tk < t_hi:
                # phi and its derivatives are exactly 0 off its time support, so
                # each piece adds exactly 0 where f and h are finite, which the
                # divergence guard makes them at every stepped state
                continue
            fv = _arr(fdrift(tk, xk), xk)
            hv = _arr(fdiff(tk, xk), xk)
            pt, px, pxx = (_arr(d, xk) for d in phi.jet(tk, xk))
            q = fv + hv * xik
            drift_sum += weight * float((pt + fv * px).sum())
            noise_sum += weight * float(((px * hv + eps * pxx * fv * hv) * xik).sum())
            corr_sum += weight * float((0.5 * eps * pxx * fv * fv).sum())
            quad_sum += weight * float((0.5 * eps * pxx * hv * hv * xik * xik).sum())
            taylor_sum += weight * float((pt + px * q + 0.5 * eps * pxx * q * q).sum())

    total = trajset.count
    drift_term = eps * drift_sum / total
    noise_term = eps * noise_sum / total
    correction_term = eps * corr_sum / total
    quadratic_term = eps * quad_sum / total
    taylor_total = eps * taylor_sum / total
    pieces_error = abs(
        (drift_term + noise_term + correction_term + quadratic_term) - taylor_total
    )

    edges = np.arange(-k_window, k_window, dtype=np.float64) / n
    weighted = 0.0
    with np.errstate(all="ignore"):
        for k in range(n):
            tk = k / n
            pt, px, pxx = (_arr(d, edges) for d in phi.jet(tk, edges))
            g = pt + _arr(fdrift(tk, edges), edges) * px + 0.5 * _arr(fdiff(tk, edges), edges) ** 2 * pxx
            weighted += float((g * counts[k]).sum())
    double_sum = weighted / (n * total)
    initial_term = phi(0.0, problem.x0)

    return WeakFormReport(
        n=n,
        residual=double_sum + initial_term,
        double_sum=double_sum,
        initial_term=initial_term,
        drift_term=drift_term,
        noise_term=noise_term,
        correction_term=correction_term,
        quadratic_term=quadratic_term,
        taylor_total=taylor_total,
        pieces_sum_error=pieces_error,
        ensemble=ensemble.descriptor(),
        phi=phi.label,
    )


# ----------------------------------------------------------------------
# finite-volume Fokker-Planck solver


@dataclass(frozen=True)
class FPSolution:
    """Conservative finite-volume solution P(t, x) on cells of width dx.

    Flux form with upwinded drift and central diffusion, zero-flux
    boundaries; mass is conserved to rounding and the explicit stability
    bound keeps P nonnegative.  Moments use cell left edges to match the
    density convention.
    """

    lo: float
    hi: float
    dx: float
    times: tuple[float, ...]
    values: np.ndarray
    masses: tuple[float, ...]

    @property
    def cells(self) -> int:
        return self.values.shape[1]

    def cell_left_edges(self) -> np.ndarray:
        return self.lo + np.arange(self.cells, dtype=np.float64) * self.dx

    def moment(self, slice_index: int, power: int = 1) -> float:
        edges = self.cell_left_edges()
        return float(np.sum(self.values[slice_index] * edges**power) * self.dx)

    def to_csv(self, path) -> None:
        write_density_csv(path, np.asarray(self.times), self.cell_left_edges(), self.values)

    def to_dict(self) -> dict:
        return {
            "window": [self.lo, self.hi],
            "dx": self.dx,
            "times": list(self.times),
            "masses": list(self.masses),
        }


def _check_density(state: np.ndarray, dx: float, t: float) -> float:
    """Mass of ``state``; VerificationError unless it is 1 and no cell is negative."""
    mass = float(np.add.reduce(state) * dx)
    low = float(np.minimum.reduce(state))
    if abs(mass - 1.0) > 1e-6:
        raise VerificationError(f"mass conservation violated: mass = {mass} at t = {t}")
    if low < -1e-12:
        raise VerificationError(f"negative density {low} at t = {t}")
    return mass


def fp_solve(
    drift,
    diffusion,
    x0: float,
    window: tuple[float, float],
    dx: float,
    dt: float | None = None,
    t_end: float = 1.0,
    save_times: Sequence[float] | None = None,
) -> FPSolution:
    """Solve the forward density equation from a delta at the cell containing x0.

    Requires dt <= dx^2 / (2 max h^2 + dx max |f|), the maxima taken at 33
    times in [0, t_end]; passing dt=None picks 90% of that bound.  Snapshots
    land exactly on the requested save times (the step is shortened per
    interval as needed, never lengthened).  FPStabilityError is raised
    before the first substep when dt is below the float resolution of the
    last save time, or when the save times need more than ``MAX_SUBSTEPS``
    substeps of dt.  When f or h reads t, a substep longer than the bound
    from its own coefficients is split into equal substeps of at most 90% of
    it, and FPStabilityError is raised, before the split, where that bound
    is below the float resolution of t or the split takes the solve past
    ``MAX_SUBSTEPS`` substeps.  ``dx``, ``t_end``, the save times, a given
    dt and 2 max h^2 + dx max |f| wherever it is taken must be finite, with
    dx > 0, dt > 0, t_end >= 0, at least one save time and at most
    ``MAX_CELLS`` cells.  f and h are evaluated at the 33 sampled times and
    once per substep, split ones included, and mass and sign checked after it.
    """
    drift = as_expr(drift)
    diffusion = as_expr(diffusion)
    dx, t_end = float(dx), float(t_end)
    if not (math.isfinite(dx) and dx > 0):
        raise VerificationError(f"dx must be finite and positive, got {dx}")
    if not (math.isfinite(t_end) and t_end >= 0):
        raise VerificationError(f"t_end must be finite and >= 0, got {t_end}")
    lo, hi = float(window[0]), float(window[1])
    if not lo < hi:
        raise VerificationError("window must satisfy lo < hi")
    if not lo <= x0 < hi:
        raise VerificationError("window must contain x0")
    cells_f = (hi - lo) / dx
    cells = round(cells_f) if math.isfinite(cells_f) else 0
    if not 3 <= cells <= MAX_CELLS or abs(cells_f - cells) > 1e-9:
        raise VerificationError(f"window width must be an integer number (3 to {MAX_CELLS}) of dx cells")
    if save_times is None:
        save_times = (t_end,)
    save_times = tuple(float(t) for t in save_times)
    if not save_times:
        raise VerificationError("no save times")
    if not all(map(math.isfinite, save_times)):
        raise VerificationError("save times must be finite")
    if any(t < 0 or t > t_end + 1e-12 for t in save_times):
        raise VerificationError("save times must lie in [0, t_end]")
    if any(t2 <= t1 for t1, t2 in zip(save_times, save_times[1:])):
        raise VerificationError("save times must be strictly increasing")

    centers = lo + (np.arange(cells, dtype=np.float64) + 0.5) * dx
    faces = lo + np.arange(1, cells, dtype=np.float64) * dx
    drift_fn = drift.vectorized()
    diffusion_fn = diffusion.vectorized()

    # Coefficients and work buffers, written in place by every evaluation and
    # substep.  full[0] and full[-1] stay 0 (zero-flux boundaries); flux is its interior.
    v_face = np.empty(cells - 1)
    d_cell = np.empty(cells)
    upwind_row = np.empty(cells - 1, dtype=np.intp)
    left_cell = np.arange(cells - 1, dtype=np.intp)
    full = np.zeros(cells + 1)
    flux, full_hi, full_lo = full[1:-1], full[1:], full[:-1]
    d_state = np.empty(cells)
    d_hi, d_lo = d_state[1:], d_state[:-1]
    d_diff = np.empty(cells - 1)
    cell_diff = np.empty(cells)
    two_dx = 2.0 * dx

    def coefficients(t: float) -> None:
        v_face[...] = drift_fn(t, faces)
        np.square(diffusion_fn(t, centers), out=d_cell)
        # upwind cell of each face: its left cell where v >= 0, else its right
        np.add(left_cell, np.logical_not(v_face >= 0.0), out=upwind_row)

    def peaks(t: float) -> tuple[float, float]:
        """Evaluate f and h at t; (max h^2, max |f|) over the window."""
        coefficients(t)
        h2, f = float(np.max(d_cell)), float(np.max(np.abs(v_face)))
        if not math.isfinite(2.0 * h2 + dx * f):
            raise VerificationError(f"2 max h^2 + dx max |f| is not finite on the solver window at t = {t}")
        return h2, f

    def bound(h2: float, f: float) -> float:
        """The longest stable substep, dx^2 / (2 h2 + dx f), for peaks h2 and f."""
        denom = 2.0 * h2 + dx * f
        return dx * dx / denom if denom > 0 else math.inf

    with np.errstate(all="ignore"):
        sampled = [peaks(float(t)) for t in np.linspace(0.0, t_end, 33)]
    limit = bound(max(h2 for h2, _ in sampled), max(f for _, f in sampled))
    if dt is None:
        dt = 0.9 * limit if math.isfinite(limit) else max(t_end, 1e-9)
    if not (math.isfinite(dt) and dt > 0):
        raise VerificationError(f"dt must be finite and positive, got {dt}")
    if dt > limit * (1.0 + 1e-12):
        raise FPStabilityError(
            f"dt = {dt} violates the explicit stability bound; maximal admissible dt is {limit}"
        )
    if save_times[-1] + dt == save_times[-1]:
        raise FPStabilityError(
            f"dt = {dt} (stability bound {limit}) is below the float resolution of "
            f"t = {save_times[-1]}"
        )

    # (start, substeps, substep length) of each save interval
    plan = []
    for start, target in zip((0.0,) + save_times[:-1], save_times):
        span = target - start
        substeps = max(1, math.ceil(span / dt - 1e-9)) if span > 1e-15 else 0
        plan.append((start, substeps, span / substeps if substeps else 0.0))
    total = sum(substeps for _, substeps, _ in plan)
    if total > MAX_SUBSTEPS:
        raise FPStabilityError(
            f"{total} substeps of dt = {dt} (stability bound {limit}) are needed to reach "
            f"t = {save_times[-1]}; a solve takes at most {MAX_SUBSTEPS}"
        )

    state = np.zeros(cells)
    i0 = min(int(math.floor((x0 - lo) / dx + 1e-12)), cells - 1)
    state[i0] = 1.0 / dx

    # Without t the sampled bound holds everywhere at every time; with t each
    # substep is checked against the coefficients it steps with.
    reads_t = "t" in drift.variables() | diffusion.variables()

    def advance(t: float, length: float) -> None:
        """Step the state from t to t + length, in equal shorter substeps if unstable."""
        later = ()
        if not reads_t:
            coefficients(t)
        else:
            local = bound(*peaks(t))
            if length > local * (1.0 + 1e-12):
                split = length / (0.9 * local) if local > 0 else math.inf  # 0 where dx^2 underflows
                pieces = math.ceil(split) if split < math.inf else split
                length /= pieces
                if t + length == t:
                    raise FPStabilityError(
                        f"stability bound {local} at t = {t} is below the float resolution of t"
                    )
                nonlocal total
                total += pieces - 1
                if total > MAX_SUBSTEPS:
                    raise FPStabilityError(
                        f"stability bound {local} at t = {t} needs {total} substeps in all; "
                        f"a solve takes at most {MAX_SUBSTEPS}"
                    )
                # the first substep steps with the coefficients at t, each later one at its own
                later = range(1, pieces)
        # flux = v * upwind - (d[1:] s[1:] - d[:-1] s[:-1]) / (2 dx)
        state.take(upwind_row, out=flux)
        np.multiply(v_face, flux, out=flux)
        np.multiply(d_cell, state, out=d_state)
        np.subtract(d_hi, d_lo, out=d_diff)
        np.divide(d_diff, two_dx, out=d_diff)
        np.subtract(flux, d_diff, out=flux)
        # state -= (dt / dx) * (full[1:] - full[:-1])
        np.subtract(full_hi, full_lo, out=cell_diff)
        np.multiply(length / dx, cell_diff, out=cell_diff)
        np.subtract(state, cell_diff, out=state)
        _check_density(state, dx, t + length)
        for j in later:
            advance(t + j * length, length)

    snapshots = []
    masses = []
    with np.errstate(all="ignore"):
        for target, (start, substeps, length) in zip(save_times, plan):
            for step in range(substeps):
                advance(start + step * length, length)
            snapshots.append(state.copy())
            masses.append(_check_density(state, dx, target))

    return FPSolution(
        lo=lo,
        hi=hi,
        dx=dx,
        times=save_times,
        values=np.asarray(snapshots),
        masses=tuple(masses),
    )


# ----------------------------------------------------------------------
# cross-validation


@dataclass(frozen=True)
class CrossValReport:
    """L1 distance per slice between the empirical and finite-volume densities."""

    slice_times: tuple[float, ...]
    l1: tuple[float, ...]
    max_l1: float
    outside_mass: tuple[float, ...]
    fp: dict
    ensemble: dict


def cross_validate(
    problem: CauchyProblem,
    ensemble: NoiseEnsemble,
    window: tuple[float, float] | None = None,
    dx: float | None = None,
    slice_times: Sequence[float] = (0.5, 0.75, 1.0),
) -> CrossValReport:
    """Compare the empirical density with the finite-volume solution.

    The empirical bins (width 1/n) are regrouped onto the solver cells, so
    dx must be a whole number of grid steps and the solver window must sit
    on the 1/n lattice inside the density window.  The default window is
    (-h, h) with h = min(3, the level's spatial halfwidth); the default dx
    is m/n for the largest whole m <= max(1, n // 64) that divides the
    window's width in 1/n steps, so every level has a grid.

    Early slices are a poor comparison: a coin-flip walk initially lives on
    a parity lattice of spacing 2/sqrt(n) which fine cells resolve as a
    comb against the smooth solution, so the default slices start at 0.5,
    by when drift dispersion has smeared the lattice.
    """
    level = problem.level
    n = level.n
    slice_times = tuple(float(t) for t in slice_times)
    if not slice_times:
        raise VerificationError("no slice times to compare")
    time_indices = slice_indices(level, slice_times)

    if window is None:
        half = min(3.0, float(level.spatial_halfwidth))
        window = (-half, half)
    lo, hi = float(window[0]), float(window[1])
    try:
        lo_pos, hi_pos = (level.spatial_grid().index_of(x) for x in (lo, hi))
    except GridError as exc:
        raise VerificationError(f"solver window must lie on the density window's lattice: {exc}") from exc
    if dx is None:
        dx = next(m for m in range(max(1, n // 64), 0, -1) if (hi_pos - lo_pos) % m == 0) / n
    ratio_f = dx * n
    ratio = round(ratio_f)
    if ratio < 1 or abs(ratio_f - ratio) > 1e-9:
        raise VerificationError("incompatible bin alignment: dx must be a whole number of 1/n steps")

    trajset = TrajectorySet(problem, ensemble)
    dens = density(trajset, time_indices=time_indices)
    fp = fp_solve(
        problem.drift,
        problem.diffusion,
        problem.x0,
        (lo, hi),
        dx,
        t_end=max(slice_times),
        save_times=slice_times,
    )
    cells = fp.cells
    assert cells * ratio == hi_pos - lo_pos

    total = dens.ensemble_size
    l1_list = []
    outside_list = []
    for pos in range(len(slice_times)):
        fine = dens.counts[pos]
        segment = fine[lo_pos:hi_pos].reshape(cells, ratio).sum(axis=1)
        cell_mass = segment / total
        emp = cell_mass / dx
        l1_list.append(float(np.sum(np.abs(emp - fp.values[pos])) * dx))
        outside_list.append(float((total - segment.sum()) / total))

    return CrossValReport(
        slice_times=slice_times,
        l1=tuple(l1_list),
        max_l1=max(l1_list),
        outside_mass=tuple(outside_list),
        fp={"window": [lo, hi], "dx": dx, "times": list(slice_times)},
        ensemble=ensemble.descriptor(),
    )

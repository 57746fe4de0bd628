import math
from fractions import Fraction

import numpy as np
import pytest

from gridsde.grids import (
    ConvergenceEstimate,
    GridError,
    GridFunction,
    GridLevel,
    UniformGrid,
    fundamental_theorem_check,
    grid_derivative,
    grid_integral,
    integral_function,
    multilevel_integral,
)


def grid_fn(n, fn):
    level = GridLevel(n)
    return GridFunction.from_callable(level.time_grid(), fn)


class TestGridLevel:
    def test_step_times_n_is_one_exactly(self):
        for n in (1, 3, 7, 64, 1000):
            level = GridLevel(n)
            assert level.step * n == 1

    def test_default_window_clamped_to_half_n(self):
        assert GridLevel(64).spatial_halfwidth == 8
        assert GridLevel(16).spatial_halfwidth == 8
        assert GridLevel(8).spatial_halfwidth == 4
        assert GridLevel(4).spatial_halfwidth == 2

    def test_window_must_be_step_multiple(self):
        with pytest.raises(GridError):
            GridLevel(8, Fraction(1, 3))

    def test_window_cannot_exceed_half_n(self):
        with pytest.raises(GridError):
            GridLevel(8, Fraction(5))

    def test_invalid_n(self):
        with pytest.raises(GridError):
            GridLevel(0)
        with pytest.raises(GridError):
            GridLevel(-2)

    def test_time_grid_points(self):
        grid = GridLevel(4).time_grid()
        assert grid.point_count == 5
        assert list(grid.points()) == [0.0, 0.25, 0.5, 0.75, 1.0]
        assert grid.point(2) == Fraction(1, 2)

    def test_spatial_grid_symmetric(self):
        grid = GridLevel(8).spatial_grid()
        assert grid.point_count == 2 * 32 + 1
        pts = grid.points()
        assert pts[0] == -4.0 and pts[-1] == 4.0

    def test_index_of_snaps_and_rejects(self):
        grid = GridLevel(8).time_grid()
        assert grid.index_of(0.25) == 2
        with pytest.raises(GridError):
            grid.index_of(0.3)
        with pytest.raises(GridError):
            grid.index_of(2.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, "nan"])
    def test_index_of_rejects_non_finite(self, value):
        for grid in (GridLevel(8).time_grid(), GridLevel(8).spatial_grid()):
            with pytest.raises(GridError, match="not a finite grid coordinate"):
                grid.index_of(value)

    @pytest.mark.parametrize("window", [math.nan, math.inf, -math.inf])
    def test_non_finite_window_rejected(self, window):
        with pytest.raises(GridError, match="invalid spatial halfwidth"):
            GridLevel(8, window)


class TestGridFunction:
    def test_length_must_match(self):
        grid = GridLevel(4).time_grid()
        with pytest.raises(GridError):
            GridFunction(grid, np.zeros(3))

    def test_rejects_non_finite(self):
        grid = GridLevel(4).time_grid()
        with pytest.raises(GridError):
            GridFunction(grid, [0.0, 1.0, np.nan, 0.0, 0.0])

    def test_from_callable_reports_bad_point(self):
        grid = GridLevel(4).time_grid()
        with pytest.raises(GridError, match="not finite"):
            GridFunction.from_callable(grid, lambda t: float("inf") if t == 0.5 else 0.0)

    def test_from_callable_names_the_exact_point(self):
        grid = UniformGrid(GridLevel(8), -8, 9)
        for at, name in [(0.5, "1/2"), (-0.375, "-3/8"), (0.0, "0")]:
            with pytest.raises(GridError, match=f"not finite at grid point {name}$"):
                GridFunction.from_callable(grid, lambda t: math.nan if t == at else 0.0)

    def test_values_read_only(self):
        f = grid_fn(4, lambda t: t)
        with pytest.raises(ValueError):
            f.values[0] = 3.0


class TestDerivative:
    def test_constant_gives_zero(self):
        d = grid_derivative(grid_fn(8, lambda t: 3.5))
        assert np.all(d.values == 0.0)

    def test_identity_gives_ones(self):
        d = grid_derivative(grid_fn(4, lambda t: t))
        assert list(d.values) == [1.0, 1.0, 1.0, 1.0]

    def test_square_gives_two_t_plus_step(self):
        # ((t + e)^2 - t^2) / e = 2t + e with e = 1/4
        d = grid_derivative(grid_fn(4, lambda t: t * t))
        assert np.allclose(d.values, [0.25, 0.75, 1.25, 1.75], rtol=0, atol=1e-15)

    def test_result_one_point_shorter(self):
        f = grid_fn(8, lambda t: t)
        assert len(grid_derivative(f)) == len(f) - 1

    def test_single_point_rejected(self):
        level = GridLevel(4)
        single = GridFunction(UniformGrid(level, 0, 1), [1.0])
        with pytest.raises(GridError, match="derivative undefined"):
            grid_derivative(single)

    def test_linear_in_inputs(self):
        rng = np.random.default_rng(7)
        grid = GridLevel(16).time_grid()
        a = GridFunction(grid, rng.uniform(-1, 1, grid.point_count))
        b = GridFunction(grid, rng.uniform(-1, 1, grid.point_count))
        combo = GridFunction(grid, 2.0 * a.values + 3.0 * b.values)
        lhs = grid_derivative(combo).values
        rhs = 2.0 * grid_derivative(a).values + 3.0 * grid_derivative(b).values
        assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


class TestIntegral:
    def test_constant_over_unit_interval(self):
        f = grid_fn(8, lambda t: 1.0)
        assert grid_integral(f, 0, 8) == 1.0

    def test_identity_hand_sum(self):
        f = grid_fn(4, lambda t: t)
        assert grid_integral(f, 0, 4) == 0.375

    def test_empty_range_is_zero(self):
        f = grid_fn(4, lambda t: t)
        assert grid_integral(f, 2, 2) == 0.0

    def test_full_grid_default(self):
        f = grid_fn(8, lambda t: 1.0)
        assert grid_integral(f) == pytest.approx(9 / 8, rel=0, abs=0)

    def test_bounds_checked(self):
        f = grid_fn(4, lambda t: t)
        with pytest.raises(GridError):
            grid_integral(f, 0, 9)

    def test_linear_in_inputs(self):
        rng = np.random.default_rng(3)
        grid = GridLevel(16).time_grid()
        a = GridFunction(grid, rng.uniform(-1, 1, grid.point_count))
        b = GridFunction(grid, rng.uniform(-1, 1, grid.point_count))
        combo = GridFunction(grid, 5.0 * a.values - 2.0 * b.values)
        assert grid_integral(combo) == pytest.approx(
            5.0 * grid_integral(a) - 2.0 * grid_integral(b), rel=1e-13, abs=1e-13
        )


class TestFundamentalTheorem:
    def test_single_step_telescapes(self):
        f = grid_fn(8, lambda t: math.sin(3 * t))
        lhs, rhs = fundamental_theorem_check(f, 3, 4)
        assert lhs == pytest.approx(rhs, rel=0, abs=1e-15)

    def test_square_full_range(self):
        f = grid_fn(8, lambda t: t * t)
        lhs, rhs = fundamental_theorem_check(f, 0, 8)
        assert rhs == 1.0
        assert lhs == pytest.approx(1.0, rel=0, abs=1e-13)

    def test_random_functions_many_seeds(self):
        rng = np.random.default_rng(42)
        grid = GridLevel(16).time_grid()
        for _ in range(50):
            f = GridFunction(grid, rng.uniform(-1, 1, grid.point_count))
            x, y = sorted(rng.integers(0, grid.point_count, 2))
            if x == y:
                continue
            lhs, rhs = fundamental_theorem_check(f, int(x), int(y))
            assert abs(lhs - rhs) <= 1e-12

    def test_derivative_of_integral_recovers_values(self):
        rng = np.random.default_rng(9)
        grid = GridLevel(32).time_grid()
        f = GridFunction(grid, rng.uniform(-1, 1, grid.point_count))
        recovered = grid_derivative(integral_function(f))
        assert np.all(np.abs(recovered.values - f.values[:-1]) <= 1e-12)

    def test_bad_indices(self):
        f = grid_fn(4, lambda t: t)
        with pytest.raises(GridError):
            fundamental_theorem_check(f, 3, 3)


class TestProductRule:
    def discrepancy(self, n):
        f = grid_fn(n, lambda t: math.sin(2 * t) + 0.5)
        g = grid_fn(n, lambda t: math.exp(-t) * t)
        fg = GridFunction(f.grid, f.values * g.values)
        lhs = grid_derivative(fg).values
        rhs = grid_derivative(f).values * g.values[:-1] + f.values[:-1] * grid_derivative(g).values
        return lhs - rhs, grid_derivative(f).values * grid_derivative(g).values / n

    def test_discrepancy_is_step_times_cross_term(self):
        # exact algebra: D(fg) - (Df g + f Dg) = (1/n) Df Dg
        diff, cross = self.discrepancy(32)
        assert np.allclose(diff, cross, rtol=1e-10, atol=1e-12)

    def test_max_norm_bounded_by_fitted_constant_over_n(self):
        d16 = np.max(np.abs(self.discrepancy(16)[0]))
        d32 = np.max(np.abs(self.discrepancy(32)[0]))
        fitted = 1.05 * max(16 * d16, 32 * d32)
        d64 = np.max(np.abs(self.discrepancy(64)[0]))
        assert d64 <= fitted / 64


class TestMultilevelIntegral:
    def test_constant_exact_every_level(self):
        est = multilevel_integral(lambda x: 1.0, (0.0, 1.0), [8, 16, 32], tol=1e-12)
        assert est.values == (1.0, 1.0, 1.0)
        assert est.converged
        assert est.estimate == 1.0

    def test_square_converges_to_third(self):
        est = multilevel_integral(lambda x: x * x, (0.0, 1.0), [64, 128, 256], tol=1e-2)
        assert est.converged
        assert abs(est.estimate - 1.0 / 3.0) <= 1e-2

    def test_dyadic_indicator_sums_to_one(self):
        # indicator of lattice rationals with denominator dividing 2^20:
        # every grid point at dyadic levels is such a rational, so the sum
        # is the full interval length even though the function is 0 a.e.
        def dyadic(x):
            return 1.0 if float(x * 2**20) == int(x * 2**20) else 0.0

        est = multilevel_integral(dyadic, (0.0, 1.0), [64, 128, 256], tol=1e-12)
        assert est.values == (1.0, 1.0, 1.0)
        assert est.converged

    def test_oscillating_levels_report_not_converged(self):
        est = multilevel_integral(
            lambda x: math.sin(1000.0 * x) * 50.0, (0.0, 1.0), [11, 13, 17], tol=1e-6
        )
        assert isinstance(est, ConvergenceEstimate)
        assert not est.converged
        assert est.spread > 1e-6

    def test_non_finite_point_named(self):
        with pytest.raises(GridError, match="grid point 1/2"):
            multilevel_integral(
                lambda x: float("nan") if x == 0.5 else 1.0, (0.0, 1.0), [2, 4, 8], tol=1.0
            )

    def test_interval_without_lattice_points_is_zero(self):
        # [0.1, 0.2) holds no point k/4 but the point 1/8 and 2/16, 3/16
        est = multilevel_integral(lambda x: 1.0, (0.1, 0.2), [4, 8, 16], tol=1.0)
        assert est.values == (0.0, 1 / 8, 2 / 16)

    def test_level_validation(self):
        with pytest.raises(GridError):
            multilevel_integral(lambda x: 1.0, (0.0, 1.0), [4, 8], tol=1.0)
        with pytest.raises(GridError):
            multilevel_integral(lambda x: 1.0, (0.0, 1.0), [8, 8, 16], tol=1.0)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: GridLevel(4, 0), "spatial halfwidth must be positive"),
        (lambda: UniformGrid(GridLevel(4), 2, 2), r"grid index range \[2, 2\) is empty"),
        (lambda: multilevel_integral(math.exp, (1.0, 1.0), [8, 16, 32], 1.0), "a < b"),
    ],
    ids=["window-zero", "empty-range", "empty-domain"],
)
def test_refusal(build, message):
    with pytest.raises(GridError, match=message):
        build()


def test_window_holds_a_support_up_to_a_slack_of_1e_12():
    level = GridLevel(8)  # window [-4, 4]
    assert level.window_holds(-4.0, 4.0) and level.window_holds(-4.0 - 1e-13, 4.0 + 1e-13)
    assert not level.window_holds(-4.0 - 1e-9, 0.0)
    assert not level.window_holds(0.0, 4.0 + 1e-9)

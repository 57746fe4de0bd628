import math

import numpy as np
import pytest

from gridsde.distrib import (
    DistributionError,
    GridDistribution,
    default_bump_family,
    dirac,
    dirac_derivative,
    equivalent,
    pair,
    sample_distribution,
    split_dirac,
)
from gridsde.expr import TestFunction
from gridsde.grids import GridError, GridLevel, grid_integral


PHI = TestFunction.from_bumps(x_center=0.0, x_width=2.0, label="bump(x/2)")
PHI_X = TestFunction.from_bumps(x_center=0.0, x_width=2.0, extra="x", label="x*bump(x/2)")


class TestDirac:
    def test_pairing_is_point_value_exact(self):
        d = dirac(GridLevel(8), 0.0)
        assert pair(d, PHI) == PHI(0.0, 0.0)

    def test_pairing_exact_at_shifted_center(self):
        d = dirac(GridLevel(64), 0.25)
        assert pair(d, PHI) == PHI(0.0, 0.25)

    def test_integral_is_one_exact(self):
        d = dirac(GridLevel(8), 0.0)
        assert grid_integral(d.gf) == 1.0

    def test_off_grid_center_rejected(self):
        with pytest.raises(GridError):
            dirac(GridLevel(8), 0.3)

    def test_split_delta_pairs_with_step_error(self):
        for n in (32, 64, 128):
            level = GridLevel(n)
            gap = abs(pair(split_dirac(level, 0.0), PHI) - PHI(0.0, 0.0))
            # Taylor: (phi(0) + phi(eps))/2 = phi(0) + O(1/n)
            assert gap <= 2.0 / n


class TestDiracDerivative:
    def test_pairing_tends_to_minus_derivative(self):
        errors = []
        for n in (64, 128, 256):
            value = pair(dirac_derivative(GridLevel(n), 0.0), PHI_X)
            errors.append(abs(value - (-math.exp(-1))))
        # error at least halves per doubling (here it quarters: phi'' = 0 at 0)
        assert errors[0] / errors[1] >= 1.9
        assert errors[1] / errors[2] >= 1.9

    def test_constant_on_support_pairs_to_zero_limit(self):
        wide = TestFunction.from_bumps(x_center=0.0, x_width=8.0)
        gaps = [abs(pair(dirac_derivative(GridLevel(n), 0.0), wide)) for n in (64, 128)]
        assert gaps[0] <= 0.05
        assert gaps[1] <= gaps[0]

    def test_full_grid_integral_zero_exact(self):
        d = dirac_derivative(GridLevel(16), 0.0)
        assert grid_integral(d.gf) == 0.0

    def test_center_at_window_edge_rejected(self):
        level = GridLevel(8)
        edge = float(level.spatial_halfwidth)
        with pytest.raises(DistributionError, match="successor"):
            dirac_derivative(level, edge)


class TestPair:
    def test_zero_grid_function(self):
        d = GridDistribution.from_values(GridLevel(8), np.zeros(65))
        assert pair(d, PHI) == 0.0

    def test_identity_function_against_fine_quadrature(self):
        n = 256
        shifted = TestFunction.from_bumps(x_center=0.3, x_width=1.0)
        d = sample_distribution(GridLevel(n), lambda x: x)
        value = pair(d, shifted)
        # oracle: Riemann sum at 10x resolution
        fine = np.arange(-0.7 * 2560, 1.3 * 2560) / 2560.0
        oracle = float(np.sum(fine * np.array([shifted(0.0, v) for v in fine])) / 2560.0)
        assert value == pytest.approx(oracle, abs=1e-3)

    def test_bilinear_in_values_and_phi(self):
        level = GridLevel(16)
        rng = np.random.default_rng(2)
        va = rng.uniform(-1, 1, level.spatial_grid().point_count)
        vb = rng.uniform(-1, 1, level.spatial_grid().point_count)
        da = GridDistribution.from_values(level, va)
        db = GridDistribution.from_values(level, vb)
        dsum = GridDistribution.from_values(level, 2.0 * va + vb)
        assert pair(dsum, PHI) == pytest.approx(2.0 * pair(da, PHI) + pair(db, PHI), rel=1e-12, abs=1e-12)

    def test_support_exceeding_window_rejected(self):
        level = GridLevel(8)  # window halfwidth 4
        wide = TestFunction.from_bumps(x_center=0.0, x_width=6.0)
        with pytest.raises(DistributionError, match="window too small"):
            pair(dirac(level, 0.0), wide)

    @pytest.mark.parametrize("fixed_t", [math.nan, math.inf, -math.inf])
    def test_non_finite_fixed_t_rejected(self, fixed_t):
        # a phi with time support would otherwise pair to 0 at t = nan
        phi = TestFunction.from_expression("bump(t-0.5)*bump(x/2)")
        with pytest.raises(DistributionError, match="fixed_t must be finite"):
            pair(dirac(GridLevel(8), 0.0), phi, fixed_t=fixed_t)
        with pytest.raises(DistributionError, match="fixed_t must be finite"):
            equivalent(dirac(GridLevel(8)), split_dirac(GridLevel(8)), [phi], fixed_t=fixed_t)


class TestEquivalent:
    def test_dirac_vs_split_dirac_within_ten_over_n(self):
        n = 64
        level = GridLevel(n)
        report = equivalent(dirac(level, 0.0), split_dirac(level, 0.0), tol=10.0 / n)
        assert report.equivalent

    def test_dirac_vs_double_dirac_not_equivalent(self):
        level = GridLevel(64)
        d = dirac(level, 0.0)
        double = GridDistribution.from_values(level, 2.0 * d.gf.values)
        report = equivalent(d, double, tol=0.1)
        assert not report.equivalent

    def test_reflexive_at_zero_tolerance(self):
        d = dirac(GridLevel(32), 0.25)
        assert equivalent(d, d, tol=0.0).equivalent

    def test_symmetric_and_transitive_under_exact_equality(self):
        level = GridLevel(32)
        a = dirac(level, 0.0)
        b = GridDistribution.from_values(level, a.gf.values.copy())
        c = GridDistribution.from_values(level, a.gf.values.copy())
        assert equivalent(a, b, tol=0.0).equivalent
        assert equivalent(b, a, tol=0.0).equivalent
        assert equivalent(b, c, tol=0.0).equivalent
        assert equivalent(a, c, tol=0.0).equivalent

    def test_level_mismatch_rejected(self):
        with pytest.raises(DistributionError, match="level"):
            equivalent(dirac(GridLevel(8)), dirac(GridLevel(16)), tol=1.0)

    def test_report_lists_each_phi(self):
        level = GridLevel(32)
        phis = default_bump_family(widths=(0.5,))
        report = equivalent(dirac(level, 0.0), split_dirac(level, 0.0), phis=phis, tol=1.0)
        assert len(report.entries) == len(phis)
        assert report.max_gap() >= 0.0


class TestNonDistributionWitness:
    def test_n_squared_spike_pairing_grows_linearly(self):
        values = []
        for n in (64, 128, 256):
            level = GridLevel(n)
            spike = np.zeros(level.spatial_grid().point_count)
            spike[level.spatial_grid().index_of(0.0)] = float(n) ** 2
            d = GridDistribution.from_values(level, spike)
            values.append(abs(pair(d, PHI)))
        assert values[1] / values[0] >= 1.9
        assert values[2] / values[1] >= 1.9

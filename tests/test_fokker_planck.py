import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from gridsde import fokker_planck
from gridsde.distrib import dirac, equivalent, split_dirac
from gridsde.expr import Const, Expr, TestFunction, as_expr
from gridsde.fokker_planck import (
    FPStabilityError,
    VerificationError,
    _check_density,
    cross_validate,
    fp_solve,
    ito_residual,
    weak_form_residual,
)
from gridsde.grids import GridFunction, GridLevel
from gridsde.identities import increment_report, moment_report, tower_property_report
from gridsde.noise import (
    NoiseAlphabet,
    NoiseError,
    conditional,
    enumerate_paths,
    expectation_detail,
    sample_paths,
)
from gridsde.sde import (
    CauchyProblem,
    TrajectorySet,
    density,
    slice_indices,
    solve_grid_ode,
    weighted_sum,
)

def record_mass_checks(monkeypatch):
    """The t of every later fp_solve mass check: one per substep and one per save time."""
    checked = []
    check = fokker_planck._check_density

    def recording(state, dx, t):
        checked.append(t)
        return check(state, dx, t)

    monkeypatch.setattr(fokker_planck, "_check_density", recording)
    return checked


STANDARD_PHI = TestFunction.from_bumps(
    x_center=0.0, x_width=2.0, t_center=0.5, t_width=0.45, label="standard"
)


class TestItoResidual:
    def test_constant_phi_zero_residual(self):
        const_phi = TestFunction(
            expr=Const(2.0),
            d_t=Const(0.0),
            d_x=Const(0.0),
            d_xx=Const(0.0),
            t_support=(-math.inf, math.inf),
            x_support=(-math.inf, math.inf),
            label="const",
        )
        level = GridLevel(32)
        problem = CauchyProblem("-x", "1", 0.0, level)
        path = sample_paths(level, 1, seed=1).path(0)
        report = ito_residual(const_phi, solve_grid_ode(problem, path))
        assert report.max_abs_residual == 0.0

    def test_deterministic_residual_order_one_over_n(self):
        values = []
        for n in (64, 128):
            level = GridLevel(n)
            problem = CauchyProblem("-x", "0", 0.3, level)
            values.append(ito_residual(STANDARD_PHI, solve_grid_ode(problem)).max_abs_residual)
        assert values[0] / values[1] >= 1.8

    def test_deterministic_x_weighted_phi_bounded_by_fitted_constant(self):
        phi = TestFunction.from_bumps(
            x_center=0.0, x_width=2.0, t_center=0.5, t_width=0.45, extra="x"
        )
        values = []
        for n in (64, 128, 256):
            level = GridLevel(n)
            problem = CauchyProblem("-x", "0", 0.3, level)
            values.append(ito_residual(phi, solve_grid_ode(problem)).max_abs_residual)
        fitted = 1.05 * max(64 * values[0], 128 * values[1])
        assert values[2] <= fitted / 256
        assert values[0] / values[1] >= 1.8
        assert values[1] / values[2] >= 1.8

    def test_noise_residual_decays(self):
        means = []
        for n in (64, 128):
            level = GridLevel(n)
            problem = CauchyProblem("0", "1", 0.0, level)
            per_seed = []
            for seed in range(1, 6):
                path = sample_paths(level, 1, seed).path(0)
                per_seed.append(
                    ito_residual(STANDARD_PHI, solve_grid_ode(problem, path)).max_abs_residual
                )
            means.append(np.mean(per_seed))
        assert means[0] / means[1] >= 1.3

    def test_hypothesis_flag_for_white_noise(self):
        n = 64
        level = GridLevel(n)
        problem = CauchyProblem("0", "1", 0.0, level)
        path = sample_paths(level, 1, seed=2).path(0)
        report = ito_residual(STANDARD_PHI, solve_grid_ode(problem, path))
        # max rate sqrt(n) is below the n^(2/3) threshold
        assert report.hypothesis_ok
        assert report.max_rate == pytest.approx(math.sqrt(n), rel=1e-12)

    def test_residual_count(self):
        n = 16
        level = GridLevel(n)
        problem = CauchyProblem("0", "1", 0.0, level)
        path = sample_paths(level, 1, seed=3).path(0)
        report = ito_residual(STANDARD_PHI, solve_grid_ode(problem, path))
        assert len(report.residuals) == n - 1


def test_unlabeled_test_function_is_labelled_by_its_expression():
    e = as_expr("bump((t-0.5)/0.45)*bump(x/2)")
    d_x = e.diff("x")
    phi = TestFunction(e, e.diff("t"), d_x, d_x.diff("x"), (0.05, 0.95), (-2.0, 2.0))
    assert phi.label == str(e)
    level = GridLevel(8)
    problem = CauchyProblem("0", "1", 0.0, level)
    assert ito_residual(phi, solve_grid_ode(problem)).phi_label == str(e)
    assert weak_form_residual(problem, enumerate_paths(level), phi).phi == str(e)
    report = equivalent(dirac(level, 0.0), split_dirac(level, 0.0), phis=[phi])
    assert [entry.phi for entry in report.entries] == [str(e)]


class TestWeakForm:
    def test_deterministic_trivial_case_small_residual(self):
        # f = h = 0: the double sum telescopes phi_t along the constant path
        phi = TestFunction.from_bumps(x_center=0.0, x_width=2.0, t_center=0.3, t_width=0.35)
        values = []
        for n in (16, 32):
            level = GridLevel(n)
            problem = CauchyProblem("0", "0", 0.0, level)
            ens = sample_paths(level, 1, seed=1)
            values.append(abs(weak_form_residual(problem, ens, phi).residual))
        assert values[0] <= 10.0 / 16
        assert values[1] <= values[0] + 1e-12

    def test_initial_term_enters_residual(self):
        # a bump alive at t = 0 exercises the phi(0, x0) term
        phi = TestFunction.from_bumps(x_center=0.0, x_width=2.0, t_center=0.2, t_width=0.4)
        assert phi(0.0, 0.0) > 0.0
        level = GridLevel(16)
        problem = CauchyProblem("0", "1", 0.0, level)
        report = weak_form_residual(problem, enumerate_paths(level), phi)
        assert report.initial_term == phi(0.0, 0.0)
        assert abs(report.residual) <= 0.05

    def test_exhaustive_noise_term_exactly_zero(self):
        level = GridLevel(10)
        problem = CauchyProblem("-x", "1", 0.0, level)
        report = weak_form_residual(problem, enumerate_paths(level), STANDARD_PHI)
        scale = max(1.0, abs(report.drift_term))
        assert abs(report.noise_term) <= 1e-10 * scale

    def test_pieces_sum_to_taylor_total(self):
        level = GridLevel(12)
        problem = CauchyProblem("sin(t)-x", "1", 0.1, level)
        report = weak_form_residual(problem, enumerate_paths(level), STANDARD_PHI)
        assert report.pieces_sum_error <= 1e-10

    def test_residual_below_frozen_bound_n16(self):
        level = GridLevel(16)
        problem = CauchyProblem("0", "1", 0.0, level)
        report = weak_form_residual(problem, enumerate_paths(level), STANDARD_PHI)
        # pilot fit at n in {8, 16}: max(n |r|) < 0.04, so bound = 0.04 / n
        assert abs(report.residual) <= 0.04 / 16

    def test_phi_must_vanish_before_one(self):
        bad = TestFunction.from_bumps(x_center=0.0, x_width=2.0, t_center=0.8, t_width=0.4)
        level = GridLevel(8)
        problem = CauchyProblem("0", "1", 0.0, level)
        with pytest.raises(VerificationError, match="vanish"):
            weak_form_residual(problem, enumerate_paths(level), bad)

    def test_unbounded_time_support_rejected(self):
        spatial_only = TestFunction.from_bumps(x_center=0.0, x_width=2.0)
        level = GridLevel(8)
        problem = CauchyProblem("0", "1", 0.0, level)
        with pytest.raises(VerificationError, match="vanish"):
            weak_form_residual(problem, enumerate_paths(level), spatial_only)

    def test_non_finite_residual_is_refused(self):
        # log(x+1) is NaN on the states left of -1 that the coin flips reach
        phi = TestFunction.from_expression("bump((t-0.5)/0.45)*bump(x/2)*log(x+1)")
        level = GridLevel(12)
        problem = CauchyProblem("0", "1", 0.5, level)
        with pytest.raises(VerificationError, match="weak-form terms are not finite: residual"):
            weak_form_residual(problem, enumerate_paths(level), phi)

    def test_support_exceeding_window_rejected(self):
        wide = TestFunction.from_bumps(x_center=0.0, x_width=6.0, t_center=0.5, t_width=0.45)
        level = GridLevel(8)  # window halfwidth 4
        problem = CauchyProblem("0", "1", 0.0, level)
        with pytest.raises(VerificationError, match="window too small"):
            weak_form_residual(problem, enumerate_paths(level), wide)

    def test_sampled_residual_decreases_across_doublings(self):
        # three levels a doubling apart, seed-averaged; beyond n = 32 the
        # Monte Carlo noise floor at this sample size hides the bias, so
        # the ladder starts at 8
        means = []
        for n in (8, 16, 32):
            level = GridLevel(n)
            problem = CauchyProblem("0", "1", 0.0, level)
            per_seed = [
                abs(weak_form_residual(problem, sample_paths(level, 200_000, seed), STANDARD_PHI).residual)
                for seed in range(1, 6)
            ]
            means.append(float(np.mean(per_seed)))
        assert means[0] / means[1] >= 1.2
        assert means[1] / means[2] >= 1.2


    @pytest.mark.parametrize(
        "phi",
        [
            STANDARD_PHI,
            # support (0.25, 0.75): its ends are grid times at n = 64, where phi is exactly 0
            TestFunction.from_bumps(x_center=0.0, x_width=2.0, t_center=0.5, t_width=0.25),
        ],
        ids=["standard", "narrow"],
    )
    @pytest.mark.parametrize(
        "f, h", [("0", "1"), ("-x", "1"), ("sin(t)-x", "1+0.5*sin(x)"), ("0.3", "1")]
    )
    @pytest.mark.parametrize("mode", ["sampled", "exhaustive"])
    def test_pieces_skip_steps_off_the_time_support_bit_for_bit(self, mode, f, h, phi):
        n = 64 if mode == "sampled" else 14
        level = GridLevel(n)
        ens = sample_paths(level, 20_000, seed=3) if mode == "sampled" else enumerate_paths(level)
        problem = CauchyProblem(f, h, 0.0, level)
        report = weak_form_residual(problem, ens, phi)
        got = (
            report.drift_term,
            report.noise_term,
            report.correction_term,
            report.quadratic_term,
            report.taylor_total,
        )
        assert [v.hex() for v in got] == [v.hex() for v in _unskipped_pieces(problem, ens, phi)]


def _unskipped_pieces(problem, ensemble, phi):
    """The five weak-form pieces, with every step evaluated and summed."""
    n = problem.level.n
    eps = 1.0 / n
    fdrift, fdiff = problem.drift.vectorized(), problem.diffusion.vectorized()
    drift_sum = noise_sum = corr_sum = quad_sum = taylor_sum = 0.0
    trajset = TrajectorySet(problem, ensemble)
    arr = fokker_planck._arr
    with np.errstate(all="ignore"):
        for k, xk, xik, weight in trajset.steps(range(n), with_noise=True):
            tk = k / n
            fv, hv = arr(fdrift(tk, xk), xk), arr(fdiff(tk, xk), xk)
            pt, px = arr(phi.dt_fn(tk, xk), xk), arr(phi.dx_fn(tk, xk), xk)
            pxx = arr(phi.dxx_fn(tk, xk), xk)
            q = fv + hv * xik
            drift_sum += weighted_sum(pt + fv * px, weight)
            noise_sum += weighted_sum((px * hv + eps * pxx * fv * hv) * xik, weight)
            corr_sum += weighted_sum(0.5 * eps * pxx * fv * fv, weight)
            quad_sum += weighted_sum(0.5 * eps * pxx * hv * hv * xik * xik, weight)
            taylor_sum += weighted_sum(pt + px * q + 0.5 * eps * pxx * q * q, weight)
    total = trajset.count
    return tuple(eps * s / total for s in (drift_sum, noise_sum, corr_sum, quad_sum, taylor_sum))


class TestFPSolve:
    def test_heat_kernel_variance(self):
        fp = fp_solve("0", "1", 0.0, (-3.0, 3.0), 1 / 64, t_end=0.5, save_times=(0.5,))
        mean = fp.moment(0, 1)
        var = fp.moment(0, 2) - mean**2
        assert abs(mean) <= 1e-3
        assert abs(var - 0.5) <= 2e-2

    def test_frozen_delta(self):
        fp = fp_solve("0", "0", 0.25, (-1.0, 1.0), 1 / 8, t_end=1.0)
        values = fp.values[0]
        assert float(values.max()) * fp.dx == 1.0
        assert np.count_nonzero(values) == 1
        assert fp.masses[0] == pytest.approx(1.0, abs=1e-12)

    def test_ou_variance_tends_to_half(self):
        fp = fp_solve("-x", "1", 0.0, (-3.0, 3.0), 1 / 64, t_end=4.0, save_times=(4.0,))
        var = fp.moment(0, 2) - fp.moment(0, 1) ** 2
        assert abs(var - 0.5) <= 2e-2

    def test_mass_conserved_along_the_way(self):
        fp = fp_solve("-x", "1", 0.0, (-3.0, 3.0), 1 / 32, t_end=1.0, save_times=(0.25, 0.5, 1.0))
        for mass in fp.masses:
            assert abs(mass - 1.0) <= 1e-6

    def test_positivity(self):
        fp = fp_solve("sin(3*x)", "1", 0.0, (-3.0, 3.0), 1 / 32, t_end=1.0)
        assert float(fp.values.min()) >= -1e-12

    def test_stability_violation_names_admissible_dt(self):
        with pytest.raises(FPStabilityError, match="maximal admissible dt"):
            fp_solve("0", "1", 0.0, (-2.0, 2.0), 1 / 64, dt=1e-3, t_end=1.0)

    def test_window_must_contain_x0(self):
        with pytest.raises(VerificationError, match="contain"):
            fp_solve("0", "1", 5.0, (-2.0, 2.0), 1 / 16)

    def test_window_holds_its_lower_edge_but_not_its_upper(self):
        # the window is [lo, hi): x0 = lo starts the delta in cell 0
        fp = fp_solve("0", "1", -2.0, (-2.0, 2.0), 1 / 16, t_end=0.0)
        assert fp.values[0][0] == 16.0 and not fp.values[0][1:].any()
        with pytest.raises(VerificationError, match="window must contain x0"):
            fp_solve("0", "1", 2.0, (-2.0, 2.0), 1 / 16)

    def test_time_dependent_coefficients(self):
        fp = fp_solve("sin(6*t)", "1", 0.0, (-3.0, 3.0), 1 / 32, t_end=0.5)
        assert fp.masses[-1] == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize(
        "drift, diffusion, dx, save_times",
        [
            ("-x", "1", 1 / 128, (1.0,)),
            ("0.3", "1", 1 / 64, (1.0,)),
            ("sin(6*t)", "1", 1 / 64, (1.0,)),
            ("-x", "1", 1 / 64, (0.25, 0.5, 1.0)),
        ],
        ids=["ou", "constant", "t-dependent", "three-saves"],
    )
    def test_matches_reference_substep_loop_bit_for_bit(self, drift, diffusion, dx, save_times):
        fp = fp_solve(drift, diffusion, 0.0, (-3.0, 3.0), dx, save_times=save_times)
        values, masses = reference_fp_solve(drift, diffusion, 0.0, (-3.0, 3.0), dx, save_times)
        assert fp.values.tobytes() == values.tobytes()
        assert fp.masses == masses

    def test_pulse_in_t_is_split_into_stable_substeps(self):
        # a drift pulse of height 2000 falls between the 33 sampled times, so
        # only the bound from each substep's own coefficients keeps it stable
        fp = fp_solve("2000*bump((t-0.015)/0.01)", "1", 0.0, (-3.0, 3.0), 1 / 64)
        assert all(abs(m - 1.0) <= 1e-6 for m in fp.masses)
        assert float(fp.values.min()) >= -1e-12

    def test_coefficient_not_finite_between_sampled_times_rejected(self):
        # NaN inside the pulse, 0 at every sampled time
        with pytest.raises(VerificationError, match="not finite on the solver window at t = "):
            fp_solve("sqrt(-bump((t-0.015)/0.01))", "1", 0.0, (-3.0, 3.0), 1 / 16)

    def test_pulse_beyond_the_float_resolution_of_t_raises(self):
        with pytest.raises(FPStabilityError, match="below the float resolution of t"):
            fp_solve("1e300*bump((t-0.015)/0.01)", "1", 0.0, (-3.0, 3.0), 1 / 16)

    @pytest.mark.parametrize("dx", [1e-170, 1e-160], ids=["bound-is-0", "split-overflows"])
    def test_bound_below_the_float_range_raises(self, dx):
        # dx^2 underflows: inside the pulse the bound is 0 at dx = 1e-170 and
        # subnormal at 1e-160, where length / bound overflows to inf
        message = "at t = 0.01 is below the float resolution of t"
        with pytest.raises(FPStabilityError, match=message):
            fp_solve("0", "bump((t-0.015)/0.01)", 0.0, (-1.5 * dx, 1.5 * dx), dx, save_times=(0.01, 1))

    def test_more_planned_substeps_than_the_limit_raise_before_stepping(self, monkeypatch):
        # dt ~ 1.9e-10 plans about 5.2e9 substeps; none may be taken
        def no_substep(*args):
            raise AssertionError("a substep ran")

        monkeypatch.setattr(fokker_planck, "_check_density", no_substep)
        message = (
            r"^5222222792 substeps of dt = \S+ \(stability bound \S+\) are needed to reach "
            rf"t = 1\.0; a solve takes at most {fokker_planck.MAX_SUBSTEPS}$"
        )
        with pytest.raises(FPStabilityError, match=message):
            fp_solve("1e8*x", "1", 0.0, (-3.0, 3.0), 1 / 16)

    def test_split_past_the_limit_raises_before_stepping_it(self, monkeypatch):
        # a pulse between the 33 sampled times whose bound stays above the float
        # resolution of t: unlimited, its splits took about 3e8 substeps
        checked = record_mass_checks(monkeypatch)
        message = (
            r"^stability bound \S+ at t = 0\.00615\d* needs 156227 substeps in all; "
            rf"a solve takes at most {fokker_planck.MAX_SUBSTEPS}$"
        )
        with pytest.raises(FPStabilityError, match=message):
            fp_solve("1e9*bump((t-0.015)/0.01)", "1", 0.0, (-3.0, 3.0), 1 / 16)
        assert len(checked) == 4 and max(checked) < 0.00616

    @pytest.mark.parametrize(
        "drift, dx",
        [("-x", 1 / 32), ("2000*bump((t-0.015)/0.01)", 1 / 64)],
        ids=["planned", "split"],
    )
    def test_limit_counts_every_substep_taken(self, monkeypatch, drift, dx):
        checked = record_mass_checks(monkeypatch)
        fp = fp_solve(drift, "1", 0.0, (-3.0, 3.0), dx, save_times=(0.5, 1.0))
        taken = len(checked) - 2  # one mass check per substep and per save time
        monkeypatch.setattr(fokker_planck, "MAX_SUBSTEPS", taken)
        assert fp_solve(drift, "1", 0.0, (-3.0, 3.0), dx, save_times=(0.5, 1.0)).masses == fp.masses
        monkeypatch.setattr(fokker_planck, "MAX_SUBSTEPS", taken - 1)
        with pytest.raises(FPStabilityError, match=f"{taken} substeps"):
            fp_solve(drift, "1", 0.0, (-3.0, 3.0), dx, save_times=(0.5, 1.0))

    @pytest.mark.parametrize(
        "drift, dx",
        [("-x", 1 / 32), ("2000*bump((t-0.015)/0.01)", 1 / 64)],
        ids=["planned", "split"],
    )
    def test_f_and_h_are_evaluated_once_per_substep_taken(self, monkeypatch, drift, dx):
        # 33 sampled times, then once per substep; the first piece of a split
        # steps with the coefficients already evaluated at its start
        evaluations = []
        vectorized = Expr.vectorized

        def counting(self):
            fn = vectorized(self)

            def evaluate(t, x):
                evaluations.append(t)
                return fn(t, x)

            return evaluate

        monkeypatch.setattr(Expr, "vectorized", counting)
        checked = record_mass_checks(monkeypatch)
        fp_solve(drift, "1", 0.0, (-3.0, 3.0), dx, save_times=(0.5, 1.0))
        taken = len(checked) - 2  # one mass check per substep and per save time
        assert len(evaluations) == 66 + 2 * taken

    def test_cell_limit_is_inclusive(self, monkeypatch):
        # (-2, 2) at dx = 1/16 is 64 cells
        fp = fp_solve("-x", "1", 0.0, (-2.0, 2.0), 1 / 16)
        monkeypatch.setattr(fokker_planck, "MAX_CELLS", 64)
        assert fp_solve("-x", "1", 0.0, (-2.0, 2.0), 1 / 16).values.tobytes() == fp.values.tobytes()
        monkeypatch.setattr(fokker_planck, "MAX_CELLS", 63)
        with pytest.raises(VerificationError, match=r"integer number \(3 to 63\) of dx cells"):
            fp_solve("-x", "1", 0.0, (-2.0, 2.0), 1 / 16)

    def test_bound_beyond_the_float_resolution_of_the_last_save_time_raises(self, monkeypatch):
        # f does not read t, so no substep checks a bound of its own; about
        # 5e301 substeps of dt ~ 2e-302 would follow, so none may be taken
        def no_substep(*args):
            raise AssertionError("a substep ran")

        monkeypatch.setattr(fokker_planck, "_check_density", no_substep)
        with pytest.raises(FPStabilityError, match="below the float resolution of t = 1.0"):
            fp_solve("1e300*x", "1", 0.0, (-3.0, 3.0), 1 / 16)

    def test_guard_stops_a_negative_density_at_its_substep(self):
        # every substep ends in this guard; each substep meets the bound of
        # its own coefficients, so only a hand-made state shows it firing
        with pytest.raises(VerificationError) as info:
            _check_density(np.array([1.0, 0.5, -1e-9, 0.5 + 1e-9]), 0.5, 0.25)
        assert str(info.value) == "negative density -1e-09 at t = 0.25"

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"dt": math.nan}, "dt must be finite and positive"),
            ({"dt": math.inf}, "dt must be finite and positive"),
            ({"dt": -1e-4}, "dt must be finite and positive"),
            ({"dx": math.nan}, "dx must be finite and positive"),
            ({"dx": 0.0}, "dx must be finite and positive"),
            ({"dx": -1 / 16}, "dx must be finite and positive"),
            ({"t_end": math.inf}, "t_end must be finite"),
            ({"t_end": math.nan}, "t_end must be finite"),
            ({"t_end": -0.5}, "t_end must be finite and >= 0"),
            ({"save_times": (0.5, math.nan)}, "save times must be finite"),
            ({"save_times": ()}, "no save times"),
            ({"window": (-math.inf, math.inf)}, "integer number"),
        ],
        ids=[
            "dt-nan", "dt-inf", "dt-negative", "dx-nan", "dx-zero", "dx-negative",
            "t-end-inf", "t-end-nan", "t-end-negative", "save-nan", "save-empty", "window-inf",
        ],
    )
    def test_non_finite_or_non_positive_inputs_rejected(self, kwargs, message):
        args = {"window": (-2.0, 2.0), "dx": 1 / 16, **kwargs}
        with pytest.raises(VerificationError, match=message):
            fp_solve("0", "1", 0.0, **args)


def reference_fp_solve(drift, diffusion, x0, window, dx, save_times):
    """The finite-volume loop written out plainly: fresh arrays every substep."""
    drift_fn, diffusion_fn = as_expr(drift).vectorized(), as_expr(diffusion).vectorized()
    lo, hi = window
    cells = round((hi - lo) / dx)
    centers = lo + (np.arange(cells, dtype=np.float64) + 0.5) * dx
    faces = lo + np.arange(1, cells, dtype=np.float64) * dx

    def full(fn, t, xs):
        return np.broadcast_to(np.asarray(fn(t, xs), dtype=np.float64), xs.shape)

    t_samples = np.linspace(0.0, save_times[-1], 33)
    max_h = max(float(np.max(np.abs(full(diffusion_fn, float(t), centers)))) for t in t_samples)
    max_f = max(float(np.max(np.abs(full(drift_fn, float(t), faces)))) for t in t_samples)
    dt = 0.9 * (dx * dx / (2.0 * max_h**2 + dx * max_f))

    state = np.zeros(cells)
    state[int(math.floor((x0 - lo) / dx + 1e-12))] = 1.0 / dx
    snapshots, masses, now = [], [], 0.0
    with np.errstate(all="ignore"):
        for target in save_times:
            substeps = max(1, math.ceil((target - now) / dt - 1e-9))
            dt_local = (target - now) / substeps
            for step in range(substeps):
                t_here = now + step * dt_local
                v_face = full(drift_fn, t_here, faces)
                d_cell = full(diffusion_fn, t_here, centers) ** 2
                upwind = np.where(v_face >= 0.0, state[:-1], state[1:])
                flux = v_face * upwind - (d_cell[1:] * state[1:] - d_cell[:-1] * state[:-1]) / (
                    2.0 * dx
                )
                flux = np.concatenate(([0.0], flux, [0.0]))
                state = state - (dt_local / dx) * (flux[1:] - flux[:-1])
            now = target
            snapshots.append(state.copy())
            masses.append(float(np.sum(state) * dx))
    return np.asarray(snapshots), tuple(masses)


class TestCrossValidate:
    def test_identical_data_zero_distance(self):
        # h = f = 0: both sides keep the delta in the same cell forever
        level = GridLevel(64)
        problem = CauchyProblem("0", "0", 0.0, level)
        ens = sample_paths(level, 100, seed=1)
        report = cross_validate(problem, ens, slice_times=(0.5, 1.0))
        assert report.max_l1 == 0.0

    def test_deterministic_delta_within_two(self):
        level = GridLevel(64)
        problem = CauchyProblem("-x", "0", 0.5, level)
        ens = sample_paths(level, 10, seed=1)
        report = cross_validate(problem, ens, slice_times=(0.5, 1.0))
        assert report.max_l1 <= 2.0

    def test_ou_within_frozen_tolerance(self):
        level = GridLevel(128)
        problem = CauchyProblem("-x", "1", 0.0, level)
        ens = sample_paths(level, 100_000, seed=7)
        report = cross_validate(problem, ens)
        assert report.fp["window"] == [-3.0, 3.0] and report.fp["dx"] == 1 / 64
        assert report.max_l1 <= 0.1

    def test_outside_mass_is_the_share_of_paths_outside_the_window(self):
        # h = 3 spreads the walk past (-3, 3), inside the density window (-8, 8)
        level = GridLevel(16)
        problem = CauchyProblem("0", "3", 0.0, level)
        ens = enumerate_paths(level)
        report = cross_validate(problem, ens)
        assert report.fp["window"] == [-3.0, 3.0]
        dens = density(TrajectorySet(problem, ens), slice_indices(level, report.slice_times))
        inside = dens.counts[:, level.window_steps - 48 : level.window_steps + 48].sum(axis=1)
        want = tuple(float(Fraction(ens.count - int(c), ens.count)) for c in inside)
        assert report.outside_mass == want
        assert min(want) > 0.0

    def test_no_slice_times_rejected(self):
        level = GridLevel(64)
        problem = CauchyProblem("0", "1", 0.0, level)
        ens = sample_paths(level, 10, seed=1)
        with pytest.raises(VerificationError, match="no slice times"):
            cross_validate(problem, ens, slice_times=())

    @pytest.mark.parametrize(
        "n, slices, dx",
        [(100, (0.5, 0.75, 1.0), 1 / 100), (128, (0.5, 0.75, 1.0), 2 / 128), (257, (1.0,), 3 / 257)],
    )
    def test_default_grid_fits_every_level(self, n, slices, dx):
        # dx = m/n for the largest m <= max(1, n // 64) dividing the 6n steps of (-3, 3):
        # at n = 257 that is 3, where the 4 of n // 64 leaves 1542 steps a part cell
        level = GridLevel(n)
        problem = CauchyProblem("-x", "1", 0.0, level)
        ens = sample_paths(level, 2000, seed=1)
        report = cross_validate(problem, ens, slice_times=slices)
        assert report.fp == {"window": [-3.0, 3.0], "dx": dx, "times": list(slices)}
        assert 0.0 < report.max_l1 < 2.0

    def test_default_window_is_clamped_to_the_density_window(self):
        level = GridLevel(64, 2)
        problem = CauchyProblem("0", "0", 0.0, level)
        report = cross_validate(problem, sample_paths(level, 10, seed=1))
        assert report.fp["window"] == [-2.0, 2.0] and report.fp["dx"] == 1 / 64
        assert report.max_l1 == 0.0


class TestMomentIdentities:
    @pytest.mark.parametrize("n", [4, 8, 10])
    def test_exact_moments(self, n):
        report = moment_report(enumerate_paths(GridLevel(n)))
        assert report.max_relative_deviation <= 1e-10

    def test_sampled_moments_are_noisy_but_close(self):
        report = moment_report(sample_paths(GridLevel(8), 200_000, seed=1))
        assert report.max_diag_deviation <= 1e-9  # xi^2 = n identically for binary
        assert report.max_abs_mean <= 4 * math.sqrt(8) / math.sqrt(200_000)


class TestTowerProperty:
    def test_exact_for_path_functionals(self):
        ens = enumerate_paths(GridLevel(6))
        functionals = [
            ("max partial sum", lambda v: np.cumsum(v, axis=1).max(axis=1)),
            ("sin of midpoint", lambda v: np.sin(v[:, 3])),
            ("abs sum", lambda v: np.abs(v).sum(axis=1)),
        ]
        report = tower_property_report(ens, functionals, split_index=3)
        assert report.max_relative_gap <= 1e-10

    def test_one_walk_evaluates_each_functional_once_per_batch(self):
        ens = enumerate_paths(GridLevel(15))  # 65536 paths: two batches of 32768
        seen = {"first": [], "last": []}

        def recorded(label, phi):
            return label, lambda v: seen[label].append(v) or phi(v)

        functionals = [
            recorded("first", lambda v: v[:, 0]),
            recorded("last", lambda v: v[:, -1] ** 2),
        ]
        report = tower_property_report(ens, functionals, split_index=2)
        rows = np.concatenate([block for _, block in ens.batches()])
        for blocks in seen.values():
            assert len(blocks) == 2
            assert np.concatenate(blocks).tobytes() == rows.tobytes()
        assert report.max_relative_gap <= 1e-15

    @pytest.mark.parametrize(
        "alphabet, n",
        [(NoiseAlphabet.white(), 4), (NoiseAlphabet.from_symbols((-1.0, 0.0, 1.0)), 3)],
        ids=["binary", "ternary"],
    )
    def test_conditional_tower_holds_over_true_prefix_classes(self, alphabet, n):
        # E[E[Phi | F_s] | F_r] = E[Phi | F_r], F_k fixing grid points 0..k-1
        level = GridLevel(n)
        ens = enumerate_paths(level, alphabet)
        scaled = alphabet.scaled(level)
        functionals = [
            ("max partial sum", lambda v: np.cumsum(v, axis=1).max(axis=1)),
            ("sin times square", lambda v: np.sin(v[:, 1]) * v[:, -1] ** 2),
        ]
        for r in (1, 2):
            for head in itertools.product(scaled, repeat=r):
                given = conditional(ens, head)
                for s in range(r, n + 2):
                    report = tower_property_report(given, functionals, s)
                    for (_, phi), entry in zip(functionals, report.entries):
                        inner = [
                            expectation_detail(conditional(given, head + tail), phi).mean
                            for tail in itertools.product(scaled, repeat=s - r)
                        ]
                        assert entry.full == expectation_detail(given, phi).mean
                        assert entry.decomposed == math.fsum(inner) / len(inner)
                        assert entry.decomposed == pytest.approx(entry.full, rel=1e-15, abs=1e-15)

    def test_max_relative_gap_scales_each_gap_by_its_full_mean(self):
        # values set by a row's place in the block, not by its noise: 2^53 + 3 rounds
        # in a class sum, so the decomposed mean misses the full mean 1.5 by 0.25
        ens = enumerate_paths(GridLevel(2))
        functionals = [
            ("mean", lambda v: v.mean(axis=1)),
            ("cancelling", lambda v: np.tile([2.0**53, 3.0, -(2.0**53), 3.0], len(v) // 4)),
        ]
        report = tower_property_report(ens, functionals, split_index=2)
        entry = report.entries[1]
        assert (entry.full, entry.decomposed, entry.gap) == (1.5, 1.75, 0.25)
        assert report.max_relative_gap == max(e.gap / max(1.0, abs(e.full)) for e in report.entries)
        assert report.max_relative_gap == 0.25 / 1.5

    def test_split_past_the_last_grid_point_of_a_conditional_ensemble(self):
        # one class per path: 16 classes of 1, not 32 classes of half a path
        cond = conditional(enumerate_paths(GridLevel(4)), (2.0,))
        report = tower_property_report(cond, [("mean", lambda v: v.mean(axis=1))], 5)
        assert report.entries[0].full == report.entries[0].decomposed == 0.4

    def test_sampled_ensemble_rejected(self):
        with pytest.raises(NoiseError, match="exhaustive"):
            tower_property_report(
                sample_paths(GridLevel(4), 10, seed=1), [("c", lambda v: np.ones(len(v)))], 1
            )

    @pytest.mark.parametrize("split_index", [-1, 6, 2.5])
    def test_prefix_length_outside_the_path_rejected(self, split_index):
        ens = enumerate_paths(GridLevel(4))
        message = f"prefix length {split_index} is not an integer in 0..5"
        with pytest.raises(NoiseError, match=message):
            tower_property_report(ens, [("first", lambda v: v[:, 0])], split_index)


class TestIncrementIdentities:
    def test_exact_orthogonality_and_quadratic(self):
        level = GridLevel(8)
        problem = CauchyProblem("-x", "1", 0.2, level)
        report = increment_report(
            problem,
            enumerate_paths(level),
            state_functions=["sin(x)+1", "bump(x/4)", "x^2"],
        )
        assert report.max_orthogonality_rel <= 1e-10
        assert report.max_quadratic_rel <= 1e-10


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: fp_solve("-x", "1", 0.0, (1.0, -1.0), 0.125), "window must satisfy lo < hi"),
        (lambda: fp_solve("-x", "1", 0.0, (-1.0, 1.0), 0.125, save_times=(0.5, 1.5)),
         r"save times must lie in \[0, t_end\]"),
        (lambda: fp_solve("-x", "1", 0.0, (-1.0, 1.0), 0.125, save_times=(0.5, 0.25)),
         "save times must be strictly increasing"),
        (lambda: ito_residual(STANDARD_PHI, GridFunction(GridLevel(1).time_grid(), [0.0, 0.0])),
         "need at least 2 steps"),
    ],
    ids=["window-reversed", "save-past-t-end", "save-decreasing", "ito-n1"],
)
def test_refusal(build, message):
    with pytest.raises(VerificationError, match=message):
        build()

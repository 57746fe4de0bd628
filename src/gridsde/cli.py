"""Command-line front end: simulate, verify, convergence tables, FP solves,
distribution pairings.

Each command reads only its own settings, listed with their defaults in
`_COMMANDS`; each `verify` suite is a subcommand and takes its flags after
the suite name.  A setting takes the command's default, then the value in
a flat JSON config file (--config), then the flag, each through the one
converter that `_SETTINGS` gives it; `tol_<name>` can only be set in the
config file.  A flag or config key that the command does not read is a
usage or config error.  Every output file embeds the command's resolved
settings as `config`, and passing that object back with --config reruns
the command, so a run can be reproduced from its artifacts alone.
Exit codes: 0 pass, 1 tolerance failure, 2 usage or config error,
3 runtime divergence.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict
from functools import partial
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, NamedTuple

import numpy as np

from .distrib import (
    DistributionError,
    dirac,
    dirac_derivative,
    equivalent,
    pair,
    split_dirac,
)
from .expr import ExprError, TestFunction
from .fokker_planck import (
    VerificationError,
    cross_validate,
    fp_solve,
    ito_residual,
    weak_form_residual,
)
from .grids import GridError, GridLevel
from .identities import increment_report, moment_report, tower_property_report
from .noise import (
    NoiseError,
    _enumeration_fits,
    enumerate_paths,
    sample_paths,
)
from .sde import (
    CauchyProblem,
    DivergenceError,
    TrajectorySet,
    density,
    slice_indices,
    solve_grid_ode,
)

__all__ = ["main", "ConfigError"]


class ConfigError(ValueError):
    """Unusable configuration."""


STANDARD_PHI = "bump((t-0.5)/0.45)*bump(x/2)"
SPATIAL_PHI = "bump(x/2)"
# the path functionals of the tower check in `verify lemmas`, on noise blocks [rows, n+1]
LEMMA_FUNCTIONALS = (
    ("mean increment", lambda v: v.mean(axis=1)),
    ("squared midpoint", lambda v: v[:, v.shape[1] // 2] ** 2),
    ("running max", lambda v: np.cumsum(v, axis=1).max(axis=1)),
)
_DISTRIBUTIONS = {"dirac": dirac, "dirac-derivative": dirac_derivative, "split-dirac": split_dirac}


def _number_list(convert):
    """Parser of a comma-separated string or a JSON list into a non-empty tuple."""

    def parse(raw) -> tuple:
        if isinstance(raw, str):
            raw = [p for p in raw.split(",") if p.strip()]
        values = tuple(convert(v) for v in raw)
        if not values:
            raise ValueError("empty list")
        return values

    return parse


def _integer(value) -> int:
    """int() that refuses booleans and fractional numbers instead of truncating them."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError("not an integer")
    return int(value)


def _number(value) -> float:
    """float() that refuses booleans; nan and the infinities go on to the library's checks."""
    if isinstance(value, bool):
        raise ValueError("not a number")
    return float(value)


def _checked(convert, accept, message: str):
    """Converter of convert(value) that refuses a result for which accept is false."""

    def parse(value):
        value = convert(value)
        if not accept(value):
            raise ValueError(message)
        return value

    return parse


_finite = _checked(_number, math.isfinite, "not a finite number")
_positive_integer = _checked(_integer, lambda v: v >= 1, "not a positive integer")
_tolerance = _checked(_finite, lambda v: v >= 0, "not a non-negative tolerance")
_mode = _checked(str, ("exhaustive", "sampled").__contains__, "not exhaustive or sampled")
_distribution = _checked(str, _DISTRIBUTIONS.__contains__, "not " + " or ".join(_DISTRIBUTIONS))

# Every setting: its converter, which config values and flags both go
# through, and its flag help.  A setting with help None has no flag and can
# only be set in a config file.
_SETTINGS = {
    "n": (_positive_integer, "grid level n (step 1/n)"),
    "mode": (_mode, "ensemble mode: exhaustive | sampled"),
    "samples": (_integer, "sample count M for sampled mode"),
    "seed": (_integer, "seed for sampled mode"),
    "f": (str, "drift expression f(t, x); write --f=-x for a leading minus"),
    "h": (str, "diffusion expression h(t, x)"),
    "phi": (str, "test function expression (product of bumps)"),
    "x0": (_finite, "initial state"),
    "window": (_checked(_finite, lambda v: v > 0, "not positive"), "spatial window halfwidth"),
    "slices": (_number_list(_number), "comma-separated time slices"),
    "out": (str, "output directory"),
    "levels": (_number_list(_integer), "comma-separated increasing levels (>= 3)"),
    "dx": (_number, "cell width"),
    "dt": (_number, "time step (defaults to 90%% of the stability bound)"),
    "t_end": (_number, "final time"),
    "dist": (_distribution, " | ".join(_DISTRIBUTIONS)),
    "center": (_number, "lattice point of the distribution"),
    "fixed_t": (_number, "time at which phi is paired"),
    "dist2": (_distribution, "the second distribution"),
    "center2": (_number, "lattice point of the second distribution"),
    "tol": (_tolerance, "pairing tolerance (default 10/n)"),
    **dict.fromkeys(
        ("tol_lemmas", "tol_weakform_scale", "tol_crossval_l1", "tol_ito_ratio_det",
         "tol_ito_ratio_noise"),
        (_tolerance, None),
    ),
}


def _convert(key: str, value):
    try:
        return _SETTINGS[key][0](value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value {value!r} for {key}: {exc}") from exc


def load_config(command: str, ns: argparse.Namespace) -> SimpleNamespace:
    """The command's settings: its defaults, then the config file, then the flags.

    None means "not given" in every source; a setting whose value is still
    None is left to the command or the library.
    """
    defaults = _COMMANDS[command].settings
    data = {}
    if ns.config:
        path = Path(ns.config)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        try:
            data = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("config file must hold a flat JSON object")
    for key in data:
        if key not in defaults:
            raise ConfigError(f"unknown config key {key!r} for {command}")
    cfg = SimpleNamespace(**dict.fromkeys(defaults))
    for source in (defaults, data, vars(ns)):
        for key, value in source.items():
            if key in defaults and value is not None:
                setattr(cfg, key, _convert(key, value))
    return cfg


def _level(cfg) -> GridLevel:
    return GridLevel(cfg.n, cfg.window)


def _ensemble(level: GridLevel, mode: str | None, samples: int, seed: int):
    """The ensemble of ``mode``; without one, exhaustive when its 2^(n+1) paths fit under the cap."""
    if mode is None:
        mode = "exhaustive" if _enumeration_fits(level) else "sampled"
    if mode == "exhaustive":
        return enumerate_paths(level)
    return sample_paths(level, samples, seed)


def _coefficients(cfg) -> tuple[str, str]:
    """The drift and diffusion expressions; ConfigError naming the first one missing."""
    if cfg.f is None:
        raise ConfigError("missing drift expression --f")
    if cfg.h is None:
        raise ConfigError("missing diffusion expression --h")
    return cfg.f, cfg.h


def _problem(cfg, level: GridLevel) -> CauchyProblem:
    return CauchyProblem(*_coefficients(cfg), cfg.x0, level)


def _out_path(cfg, name: str) -> Path:
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    return out / name


def _write_json(cfg, name: str, command: str, **payload) -> Path:
    """Write one result file: the payload plus the command and its resolved settings."""
    path = _out_path(cfg, name)
    payload.update(command=command, config=vars(cfg))
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


# ----------------------------------------------------------------------
# subcommands


def cmd_simulate(cfg) -> int:
    level = _level(cfg)
    problem = _problem(cfg, level)
    ensemble = _ensemble(level, cfg.mode, cfg.samples, cfg.seed)
    cfg.mode = ensemble.mode
    trajset = TrajectorySet(problem, ensemble)
    dens = density(trajset, time_indices=slice_indices(level, cfg.slices))
    csv_path = _out_path(cfg, "density.csv")
    dens.to_csv(csv_path)
    _write_json(
        cfg,
        "density.json",
        "simulate",
        problem=problem.describe(),
        ensemble=dens.ensemble_descriptor,
        slices=list(cfg.slices),
        overflow_fractions=[float(v) for v in dens.overflow_fractions()],
        normalization_exact=dens.normalization_exact(),
        csv=csv_path.name,
    )
    print(f"wrote {csv_path}")
    return 0


def cmd_fp_solve(cfg) -> int:
    window = (-cfg.window, cfg.window)
    f, h = _coefficients(cfg)
    solution = fp_solve(f, h, cfg.x0, window, cfg.dx, dt=cfg.dt, t_end=cfg.t_end, save_times=cfg.slices)
    csv_path = _out_path(cfg, "fp.csv")
    solution.to_csv(csv_path)
    _write_json(cfg, "fp.json", "fp-solve", solution=solution.to_dict(), csv=csv_path.name)
    print(f"wrote {csv_path}")
    return 0


def _verify_lemmas(cfg) -> tuple[dict, dict, str | None]:
    level = _level(cfg)
    ensemble = enumerate_paths(level)
    problem = _problem(cfg, level)
    tol = cfg.tol_lemmas

    moments = moment_report(ensemble)
    tower = tower_property_report(ensemble, LEMMA_FUNCTIONALS, split_index=max(1, cfg.n // 2))
    increments = increment_report(
        problem,
        ensemble,
        state_functions=["sin(x) + 1", "bump(x/4)", "x^2"],
    )
    worst = max(
        moments.max_relative_deviation,
        tower.max_relative_gap,
        increments.max_orthogonality_rel,
        increments.max_quadratic_rel,
    )
    results = {
        "moments": asdict(moments),
        "tower": asdict(tower),
        "increments": asdict(increments),
        "worst_relative_deviation": worst,
    }
    failure = None if worst <= tol else f"worst relative deviation {worst:.3e} exceeds {tol}"
    return results, {"lemmas": tol}, failure


def _verify_weakform(cfg) -> tuple[dict, dict, str | None]:
    level = _level(cfg)
    ensemble = _ensemble(level, cfg.mode, cfg.samples, cfg.seed)
    cfg.mode = ensemble.mode
    problem = _problem(cfg, level)
    phi = TestFunction.from_expression(cfg.phi)
    report = weak_form_residual(problem, ensemble, phi)
    bound = cfg.tol_weakform_scale / cfg.n
    results = {**asdict(report), "bound": bound}
    failure = None
    if abs(report.residual) > bound:
        failure = f"|residual| {abs(report.residual):.3e} exceeds the bound {bound:.3e}"
    elif report.pieces_sum_error > 1e-10:
        failure = f"pieces_sum_error {report.pieces_sum_error:.3e} exceeds 1e-10"
    return results, {"weakform_bound": bound, "pieces_sum": 1e-10}, failure


def _verify_crossval(cfg) -> tuple[dict, dict, str | None]:
    level = _level(cfg)
    ensemble = _ensemble(level, cfg.mode, cfg.samples, cfg.seed)
    cfg.mode = ensemble.mode
    problem = _problem(cfg, level)
    report = cross_validate(problem, ensemble, slice_times=cfg.slices)
    tol = cfg.tol_crossval_l1
    failure = None if report.max_l1 <= tol else f"max L1 {report.max_l1:.3e} exceeds {tol}"
    return asdict(report), {"crossval_l1": tol}, failure


def _ito_mean(phi: TestFunction, problem: CauchyProblem, seed: int, seeds: int) -> float:
    """Max chain-rule residual averaged over sampled noise paths of seeds seed..seed+seeds-1."""
    per_seed = []
    for offset in range(seeds):
        path = sample_paths(problem.level, 1, seed + offset).path(0)
        per_seed.append(ito_residual(phi, solve_grid_ode(problem, path)).max_abs_residual)
    return float(np.mean(per_seed))


def _decay_exponent(levels, values) -> float:
    """Least-squares slope of -log2(value) against log2(n); nan unless every value is positive."""
    vals = np.asarray(values, dtype=np.float64)
    if np.any(vals <= 0):
        return float("nan")
    return float(-np.polyfit(np.log2(levels), np.log2(vals), 1)[0])


def _verify_ito(cfg) -> tuple[dict, dict, str | None]:
    phi = TestFunction.from_expression(cfg.phi)
    levels = (cfg.n, 2 * cfg.n, 4 * cfg.n)
    # f = None leaves each ladder its own drift: -x without noise, 0 with it
    det_f = cfg.f if cfg.f is not None else "-x"
    noise_f = cfg.f if cfg.f is not None else "0"

    det_values = []
    noise_values = []
    for n in levels:
        level = GridLevel(n)
        problem = CauchyProblem(det_f, "0", cfg.x0, level)
        det_values.append(ito_residual(phi, solve_grid_ode(problem)).max_abs_residual)
        noise_values.append(_ito_mean(phi, CauchyProblem(noise_f, cfg.h, cfg.x0, level), cfg.seed, 5))

    for ladder, values in (("deterministic", det_values), ("noise", noise_values)):
        if 0.0 in values[1:]:
            n = levels[values.index(0.0, 1)]
            raise VerificationError(f"{ladder} chain-rule residual is exactly 0 at n = {n}; no decay ratio")
    det_ratios = [a / b for a, b in zip(det_values, det_values[1:])]
    noise_ratios = [a / b for a, b in zip(noise_values, noise_values[1:])]
    tol_det, tol_noise = cfg.tol_ito_ratio_det, cfg.tol_ito_ratio_noise
    failure = None
    if not all(r >= tol_det for r in det_ratios):
        failure = f"deterministic decay ratios {det_ratios} fall below {tol_det}"
    elif not all(r >= tol_noise for r in noise_ratios):
        failure = f"noise decay ratios {noise_ratios} fall below {tol_noise}"

    results = {
        "levels": list(levels),
        "deterministic_max_residuals": det_values,
        "deterministic_ratios": det_ratios,
        "deterministic_exponent": _decay_exponent(levels, det_values),
        "noise_max_residuals": noise_values,
        "noise_ratios": noise_ratios,
        "noise_exponent": _decay_exponent(levels, noise_values),
    }
    return results, {"ito_ratio_det": tol_det, "ito_ratio_noise": tol_noise}, failure


def cmd_verify(which: str, check, cfg) -> int:
    results, tolerances, failure = check(cfg)
    path = _write_json(
        cfg,
        f"verify_{which}.json",
        f"verify {which}",
        results=results,
        tolerances=tolerances,
        passed=failure is None,
    )
    if failure is None:
        print(f"PASS verify {which} ({path})")
        return 0
    print(f"FAIL verify {which}: {failure}; see {path}", file=sys.stderr)
    return 1


def cmd_convergence(cfg) -> int:
    levels = cfg.levels
    if levels is None:
        raise ConfigError("convergence needs --levels")
    if len(levels) < 3:
        raise ConfigError("convergence needs at least 3 levels")
    if any(b <= a for a, b in zip(levels, levels[1:])):
        raise ConfigError("levels must be strictly increasing")
    phi = TestFunction.from_expression(cfg.phi)
    grid_levels = [GridLevel(n) for n in levels]
    for level in grid_levels:
        slice_indices(level, cfg.slices)  # every level's slices, before the first level runs

    rows = []
    for level in grid_levels:
        n = level.n
        problem = _problem(cfg, level)
        # one ensemble per level, by the rule of verify weakform without --mode
        ensemble = _ensemble(level, None, cfg.samples, cfg.seed)
        weak = weak_form_residual(problem, ensemble, phi)
        ito_max = _ito_mean(phi, problem, cfg.seed, 3)
        cross = cross_validate(problem, ensemble, slice_times=cfg.slices)
        rows.append((n, abs(weak.residual), ito_max, cross.max_l1))

    exponents = {
        "weakform": _decay_exponent(levels, [r[1] for r in rows]),
        "ito": _decay_exponent(levels, [r[2] for r in rows]),
        "l1_fp": _decay_exponent(levels, [r[3] for r in rows]),
    }
    csv_path = _out_path(cfg, "convergence.csv")
    lines = ["n,weakform_residual,ito_max_residual,l1_fp"]
    for n, weak, ito_max, l1 in rows:
        lines.append(f"{n},{weak!r},{ito_max!r},{l1!r}")
    csv_path.write_text("\n".join(lines) + "\n")
    _write_json(
        cfg,
        "convergence.json",
        "convergence",
        levels=levels,
        rows=[list(r) for r in rows],
        exponents=exponents,
        csv=csv_path.name,
    )
    print(f"wrote {csv_path}; exponents {exponents}")
    return 0


def cmd_pair(cfg) -> int:
    dist = _DISTRIBUTIONS[cfg.dist](_level(cfg), cfg.center)
    phi = TestFunction.from_expression(cfg.phi)
    value = pair(dist, phi, fixed_t=cfg.fixed_t)
    _write_json(
        cfg,
        "pair.json",
        "pair",
        distribution=dist.label,
        phi=phi.label,
        fixed_t=cfg.fixed_t,
        value=value,
    )
    print(repr(value))
    return 0


def cmd_equivalent(cfg) -> int:
    level = _level(cfg)
    d1 = _DISTRIBUTIONS[cfg.dist](level, cfg.center)
    d2 = _DISTRIBUTIONS[cfg.dist2](level, cfg.center2)
    if cfg.tol is None:
        cfg.tol = 10.0 / cfg.n
    report = equivalent(d1, d2, tol=cfg.tol)
    _write_json(
        cfg, "equivalent.json", "equivalent", left=d1.label, right=d2.label, report=asdict(report)
    )
    if report.equivalent:
        print(f"equivalent within {cfg.tol} (max gap {report.max_gap()!r})")
        return 0
    print(f"not equivalent: max gap {report.max_gap()!r} > {cfg.tol}", file=sys.stderr)
    return 1


# ----------------------------------------------------------------------
# commands and argument parsing


class _Command(NamedTuple):
    runner: Callable
    help: str
    settings: dict  # every setting the command reads, with its default


def _command(runner, help: str, **settings) -> _Command:
    return _Command(runner, help, {**settings, "out": "out"})


_SAMPLING = {"samples": 100000, "seed": 1}

# The frozen tolerances.  The weak-form bound scale comes from a pilot fit of
# the residual on the standard test function at n in {8, 16} (exhaustive,
# f = 0, h = 1): max(n * |residual|) rounded up to 0.04, so the per-level
# bound is 0.04 / n.
_COMMANDS = {
    "simulate": _command(
        cmd_simulate, "simulate an ensemble and write the density",
        n=16, mode="sampled", **_SAMPLING, f=None, h=None, x0=0.0, window=None,
        slices=(0.0, 0.25, 0.5, 0.75, 1.0),
    ),
    "verify lemmas": _command(
        partial(cmd_verify, "lemmas", _verify_lemmas), "exact identities on the exhaustive ensemble",
        n=8, f="0", h="1", x0=0.0, window=None, tol_lemmas=1e-10,
    ),
    "verify weakform": _command(
        partial(cmd_verify, "weakform", _verify_weakform), "weak-form residual against its bound",
        n=16, mode=None, **_SAMPLING, f="0", h="1", phi=STANDARD_PHI, x0=0.0, window=None,
        tol_weakform_scale=0.04,
    ),
    "verify crossval": _command(
        partial(cmd_verify, "crossval", _verify_crossval), "empirical density vs FP solve",
        n=128, mode="sampled", **_SAMPLING, f="-x", h="1", x0=0.0, window=None,
        slices=(0.5, 0.75, 1.0), tol_crossval_l1=0.1,
    ),
    "verify ito": _command(
        partial(cmd_verify, "ito", _verify_ito), "chain-rule residual decay",
        n=64, seed=1, f=None, h="1", phi=STANDARD_PHI, x0=0.0,
        tol_ito_ratio_det=1.8, tol_ito_ratio_noise=1.3,
    ),
    "convergence": _command(
        cmd_convergence, "residual decay table across levels",
        levels=None, **_SAMPLING, f="0", h="1", phi=STANDARD_PHI, x0=0.0,
        slices=(0.5, 0.75, 1.0),
    ),
    "fp-solve": _command(
        cmd_fp_solve, "finite-volume forward solve",
        f=None, h=None, x0=0.0, window=3.0, slices=None, dx=1.0 / 64, dt=None, t_end=1.0,
    ),
    "pair": _command(
        cmd_pair, "pair a grid distribution with a test function",
        n=64, window=None, phi=SPATIAL_PHI, dist="dirac", center=0.0, fixed_t=0.0,
    ),
    "equivalent": _command(
        cmd_equivalent, "macroscopic equivalence of two distributions",
        n=64, window=None, dist="dirac", center=0.0, dist2="split-dirac", center2=0.0, tol=None,
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gridsde", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)
    suites = commands.add_parser("verify", help="run a verification suite")
    suites = suites.add_subparsers(dest="suite", required=True)
    for name, command in _COMMANDS.items():
        group, _, leaf = name.rpartition(" ")
        # no abbreviations: --f must not stand for pair's --fixed-t
        p = (suites if group else commands).add_parser(leaf, help=command.help, allow_abbrev=False)
        p.set_defaults(name=name, parser=p)
        for key in command.settings:
            if _SETTINGS[key][1] is not None:
                p.add_argument("--" + key.replace("_", "-"), help=_SETTINGS[key][1])
        p.add_argument("--config", help="flat JSON config file of the same settings")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        ns, unread = parser.parse_known_args(argv)
        if unread:
            # the command's own usage lists the flags that it does read
            ns.parser.error("unrecognized arguments: " + " ".join(unread))
    except SystemExit as exc:
        code = exc.code
        return int(code) if code else 0
    try:
        cfg = load_config(ns.name, ns)
        return _COMMANDS[ns.name].runner(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (GridError, ExprError, NoiseError, DistributionError, VerificationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DivergenceError as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())

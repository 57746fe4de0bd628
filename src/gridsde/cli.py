"""Command-line front end: simulate, verify, convergence tables, FP solves,
distribution pairings.

Configuration comes from a flat JSON file (--config) with CLI flags taking
precedence.  Every output file embeds the resolved configuration and the
ensemble descriptor so a run can be reproduced from its artifacts alone.
Exit codes: 0 pass, 1 tolerance failure, 2 usage or config error,
3 runtime divergence.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path

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
    DEFAULT_ENUMERATION_CAP,
    NoiseError,
    enumerate_paths,
    sample_paths,
)
from .sde import (
    CauchyProblem,
    DivergenceError,
    density,
    simulate_ensemble,
    solve_grid_ode,
)

__all__ = ["main", "ConfigError", "RunConfig", "DEFAULT_TOLERANCES"]


class ConfigError(ValueError):
    """Unusable configuration."""


# Frozen defaults.  The weak-form bound scale comes from a pilot fit of the
# residual on the standard test function at n in {8, 16} (exhaustive,
# f = 0, h = 1): max(n * |residual|) rounded up to 0.04, so the per-level
# bound is 0.04 / n.
DEFAULT_TOLERANCES = {
    "lemmas": 1e-10,
    "weakform_scale": 0.04,
    "crossval_l1": 0.1,
    "ito_ratio_noise": 1.3,
    "ito_ratio_det": 1.8,
}

STANDARD_PHI = "bump((t-0.5)/0.45)*bump(x/2)"
SPATIAL_PHI = "bump(x/2)"
# the path functionals of the tower check in `verify lemmas`, on noise blocks [rows, n+1]
LEMMA_FUNCTIONALS = (
    ("mean increment", lambda v: v.mean(axis=1)),
    ("squared midpoint", lambda v: v[:, v.shape[1] // 2] ** 2),
    ("running max", lambda v: np.cumsum(v, axis=1).max(axis=1)),
)


@dataclass
class RunConfig:
    n: int | None = None
    mode: str | None = None
    samples: int = 100000
    seed: int = 1
    f: str | None = None
    h: str | None = None
    phi: str | None = None
    x0: float = 0.0
    window: float | None = None
    slices: tuple[float, ...] | None = None
    out: str = "out"
    threads: int = 1
    cap: int = DEFAULT_ENUMERATION_CAP
    tolerances: dict = field(default_factory=dict)

    def tol(self, key: str) -> float:
        return float(self.tolerances.get(key, DEFAULT_TOLERANCES[key]))


def _number_list(convert):
    """Parser of a comma-separated string or a JSON list into a tuple."""

    def parse(raw) -> tuple:
        if isinstance(raw, str):
            raw = [p for p in raw.split(",") if p.strip()]
        return tuple(convert(v) for v in raw)

    return parse


def _integer(value) -> int:
    """int() that refuses booleans and fractional numbers instead of truncating them."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError("not an integer")
    return int(value)


def _finite(value) -> float:
    """float() that refuses booleans, nan and the infinities."""
    if isinstance(value, bool):
        raise ValueError("not a number")
    number = float(value)
    if not math.isfinite(number):
        raise ValueError("not a finite number")
    return number


# One converter per RunConfig field; config-file values and flags both go
# through it, and None means "not given" in either source.
_CONVERTERS = {
    **dict.fromkeys(("n", "samples", "seed", "threads", "cap"), _integer),
    **dict.fromkeys(("mode", "f", "h", "phi", "out"), str),
    **dict.fromkeys(("x0", "window"), _finite),
    "slices": _number_list(float),
}


def _convert(key: str, convert, value):
    try:
        return convert(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value {value!r} for {key}: {exc}") from exc


def load_config(ns: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    data = {}
    if getattr(ns, "config", None):
        path = Path(ns.config)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        try:
            data = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("config file must hold a flat JSON object")
    flags = [(key, value) for key, value in vars(ns).items() if key in _CONVERTERS]
    for key, value in [*data.items(), *flags]:
        if key.startswith("tol_") and key[4:] in DEFAULT_TOLERANCES:
            if value is not None:
                cfg.tolerances[key[4:]] = _convert(key, _finite, value)
        elif key not in _CONVERTERS:
            raise ConfigError(f"unknown config key {key!r}")
        elif value is not None:
            setattr(cfg, key, _convert(key, _CONVERTERS[key], value))
    if cfg.mode is not None and cfg.mode not in ("exhaustive", "sampled"):
        raise ConfigError(f"unknown mode {cfg.mode!r}")
    if cfg.n is not None and cfg.n < 1:
        raise ConfigError("n must be a positive integer")
    if cfg.threads < 1:
        raise ConfigError("threads must be a positive integer")
    if cfg.window is not None and cfg.window <= 0:
        raise ConfigError("window must be positive")
    return cfg


def _default_n(cfg: RunConfig, default: int) -> None:
    # per-command default levels: the exact identity suites live at small
    # exhaustive n while cross-validation needs a fine lattice
    if cfg.n is None:
        cfg.n = default


def _level(cfg: RunConfig) -> GridLevel:
    return GridLevel(cfg.n, cfg.window)


def _resolve_mode(cfg: RunConfig, prefer_exhaustive: bool) -> str:
    if cfg.mode is not None:
        return cfg.mode
    if prefer_exhaustive and 2 ** (cfg.n + 1) <= cfg.cap:
        return "exhaustive"
    return "sampled"


def _ensemble(cfg: RunConfig, level: GridLevel, prefer_exhaustive: bool = False):
    mode = _resolve_mode(cfg, prefer_exhaustive)
    if mode == "exhaustive":
        return enumerate_paths(level, cap=cfg.cap)
    return sample_paths(level, cfg.samples, cfg.seed)


def _problem(cfg: RunConfig, level: GridLevel, default_f=None, default_h=None) -> CauchyProblem:
    f = cfg.f if cfg.f is not None else default_f
    h = cfg.h if cfg.h is not None else default_h
    if f is None:
        raise ConfigError("missing drift expression --f")
    if h is None:
        raise ConfigError("missing diffusion expression --h")
    return CauchyProblem(f, h, cfg.x0, level)


def _phi(cfg: RunConfig, default: str = STANDARD_PHI) -> TestFunction:
    return TestFunction.from_expression(cfg.phi if cfg.phi is not None else default)


def _out_path(cfg: RunConfig, name: str) -> Path:
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    return out / name


def _write_json(cfg: RunConfig, name: str, command: str, **payload) -> Path:
    """Write one result file: the payload plus the command and the resolved config."""
    path = _out_path(cfg, name)
    payload.update(command=command, config=asdict(cfg))
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def _auto_dx(n: int) -> float:
    # widest cell not exceeding 1/64 that is a whole number of 1/n steps
    return max(1, n // 64) / n


def _fp_window(level: GridLevel) -> tuple[float, float]:
    half = min(3.0, float(level.spatial_halfwidth))
    return (-half, half)


# ----------------------------------------------------------------------
# subcommands


def cmd_simulate(cfg: RunConfig, ns: argparse.Namespace) -> int:
    _default_n(cfg, 16)
    level = _level(cfg)
    problem = _problem(cfg, level)
    mode = cfg.mode or "sampled"
    cfg.mode = mode
    ensemble = _ensemble(cfg, level)
    slices = cfg.slices if cfg.slices is not None else (0.0, 0.25, 0.5, 0.75, 1.0)
    grid = level.time_grid()
    try:
        indices = [grid.index_of(t) for t in slices]
    except GridError as exc:
        raise ConfigError(f"slice times must be grid points: {exc}") from exc

    trajset = simulate_ensemble(problem, ensemble, threads=cfg.threads)
    dens = density(trajset, time_indices=indices)
    csv_path = _out_path(cfg, "density.csv")
    dens.to_csv(csv_path)
    _write_json(
        cfg,
        "density.json",
        "simulate",
        problem=problem.describe(),
        ensemble=dens.ensemble_descriptor,
        slices=list(slices),
        overflow_fractions=[float(v) for v in dens.overflow_fractions()],
        normalization_exact=dens.normalization_exact(),
        csv=csv_path.name,
    )
    print(f"wrote {csv_path}")
    return 0


def cmd_fp_solve(cfg: RunConfig, ns: argparse.Namespace) -> int:
    _default_n(cfg, 16)
    if cfg.f is None or cfg.h is None:
        raise ConfigError("fp-solve needs --f and --h")
    window_half = cfg.window if cfg.window is not None else 3.0
    window = (-float(window_half), float(window_half))
    dx = ns.dx if ns.dx is not None else 1.0 / 64
    t_end = ns.t_end if ns.t_end is not None else 1.0
    save = cfg.slices if cfg.slices is not None else (t_end,)
    solution = fp_solve(cfg.f, cfg.h, cfg.x0, window, dx, dt=ns.dt, t_end=t_end, save_times=save)
    csv_path = _out_path(cfg, "fp.csv")
    solution.to_csv(csv_path)
    _write_json(cfg, "fp.json", "fp-solve", solution=solution.to_dict(), csv=csv_path.name)
    print(f"wrote {csv_path}")
    return 0


def _verify_lemmas(cfg: RunConfig) -> tuple[dict, dict, str | None]:
    _default_n(cfg, 8)
    cfg.mode = "exhaustive"
    level = _level(cfg)
    ensemble = _ensemble(cfg, level, prefer_exhaustive=True)
    problem = _problem(cfg, level, default_f="0", default_h="1")
    tol = cfg.tol("lemmas")

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


def _verify_weakform(cfg: RunConfig) -> tuple[dict, dict, str | None]:
    _default_n(cfg, 16)
    level = _level(cfg)
    ensemble = _ensemble(cfg, level, prefer_exhaustive=True)
    problem = _problem(cfg, level, default_f="0", default_h="1")
    phi = _phi(cfg)
    report = weak_form_residual(problem, ensemble, phi, threads=cfg.threads)
    bound = cfg.tol("weakform_scale") / cfg.n
    results = {**asdict(report), "bound": bound}
    failure = None
    if abs(report.residual) > bound:
        failure = f"|residual| {abs(report.residual):.3e} exceeds the bound {bound:.3e}"
    elif report.pieces_sum_error > 1e-10:
        failure = f"pieces_sum_error {report.pieces_sum_error:.3e} exceeds 1e-10"
    return results, {"weakform_bound": bound, "pieces_sum": 1e-10}, failure


def _verify_crossval(cfg: RunConfig) -> tuple[dict, dict, str | None]:
    _default_n(cfg, 128)
    level = _level(cfg)
    cfg.mode = cfg.mode or "sampled"
    ensemble = _ensemble(cfg, level)
    problem = _problem(cfg, level, default_f="-x", default_h="1")
    slices = cfg.slices if cfg.slices is not None else (0.5, 0.75, 1.0)
    report = cross_validate(
        problem,
        ensemble,
        window=_fp_window(level),
        dx=_auto_dx(cfg.n),
        slice_times=slices,
        threads=cfg.threads,
    )
    tol = cfg.tol("crossval_l1")
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


def _verify_ito(cfg: RunConfig) -> tuple[dict, dict, str | None]:
    _default_n(cfg, 64)
    phi = _phi(cfg)
    levels = (cfg.n, 2 * cfg.n, 4 * cfg.n)
    det_f = cfg.f if cfg.f is not None else "-x"
    noise_f = cfg.f if cfg.f is not None else "0"
    noise_h = cfg.h if cfg.h is not None else "1"

    det_values = []
    noise_values = []
    for n in levels:
        level = GridLevel(n)
        problem = CauchyProblem(det_f, "0", cfg.x0, level)
        det_values.append(ito_residual(phi, solve_grid_ode(problem)).max_abs_residual)
        noise_values.append(_ito_mean(phi, CauchyProblem(noise_f, noise_h, cfg.x0, level), cfg.seed, 5))

    for ladder, values in (("deterministic", det_values), ("noise", noise_values)):
        if 0.0 in values[1:]:
            n = levels[values.index(0.0, 1)]
            raise VerificationError(f"{ladder} chain-rule residual is exactly 0 at n = {n}; no decay ratio")
    det_ratios = [a / b for a, b in zip(det_values, det_values[1:])]
    noise_ratios = [a / b for a, b in zip(noise_values, noise_values[1:])]
    tol_det, tol_noise = cfg.tol("ito_ratio_det"), cfg.tol("ito_ratio_noise")
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


def cmd_verify(cfg: RunConfig, ns: argparse.Namespace) -> int:
    which = ns.which
    runner = {
        "lemmas": _verify_lemmas,
        "weakform": _verify_weakform,
        "crossval": _verify_crossval,
        "ito": _verify_ito,
    }[which]
    results, tolerances, failure = runner(cfg)
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


def cmd_convergence(cfg: RunConfig, ns: argparse.Namespace) -> int:
    _default_n(cfg, 16)
    levels = _convert("levels", _number_list(int), ns.levels)
    if len(levels) < 3:
        raise ConfigError("convergence needs at least 3 levels")
    if any(b <= a for a, b in zip(levels, levels[1:])):
        raise ConfigError("levels must be strictly increasing")
    phi = _phi(cfg)
    f = cfg.f if cfg.f is not None else "0"
    h = cfg.h if cfg.h is not None else "1"

    rows = []
    for n in levels:
        level = GridLevel(n)
        problem = CauchyProblem(f, h, cfg.x0, level)
        if 2 ** (n + 1) <= min(cfg.cap, 1 << 17):
            ensemble = enumerate_paths(level)
        else:
            ensemble = sample_paths(level, cfg.samples, cfg.seed)
        weak = weak_form_residual(problem, ensemble, phi, threads=cfg.threads)
        ito_max = _ito_mean(phi, problem, cfg.seed, 3)
        mc = sample_paths(level, min(cfg.samples, 50000), cfg.seed)
        cross = cross_validate(
            problem,
            mc,
            window=_fp_window(level),
            dx=_auto_dx(n),
            slice_times=cfg.slices if cfg.slices is not None else (0.5, 0.75, 1.0),
            threads=cfg.threads,
        )
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


def _build_distribution(kind: str, level: GridLevel, center: float):
    builders = {
        "dirac": dirac,
        "dirac-derivative": dirac_derivative,
        "split-dirac": split_dirac,
    }
    if kind not in builders:
        raise ConfigError(f"unknown distribution {kind!r}")
    return builders[kind](level, center)


def cmd_pair(cfg: RunConfig, ns: argparse.Namespace) -> int:
    _default_n(cfg, 64)
    level = _level(cfg)
    dist = _build_distribution(ns.dist, level, ns.center)
    phi = _phi(cfg, default=SPATIAL_PHI)
    value = pair(dist, phi, fixed_t=ns.fixed_t)
    _write_json(
        cfg,
        "pair.json",
        "pair",
        distribution=dist.label,
        phi=phi.label,
        fixed_t=ns.fixed_t,
        value=value,
    )
    print(repr(value))
    return 0


def cmd_equivalent(cfg: RunConfig, ns: argparse.Namespace) -> int:
    _default_n(cfg, 64)
    level = _level(cfg)
    d1 = _build_distribution(ns.dist, level, ns.center)
    d2 = _build_distribution(ns.dist2, level, ns.center2)
    tol = _convert("tol", _finite, ns.tol) if ns.tol is not None else 10.0 / cfg.n
    report = equivalent(d1, d2, tol=tol)
    _write_json(
        cfg, "equivalent.json", "equivalent", left=d1.label, right=d2.label, report=asdict(report)
    )
    if report.equivalent:
        print(f"equivalent within {tol} (max gap {report.max_gap()!r})")
        return 0
    print(f"not equivalent: max gap {report.max_gap()!r} > {tol}", file=sys.stderr)
    return 1


# ----------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--n", type=int, help="grid level n (step 1/n)")
    shared.add_argument("--mode", choices=("exhaustive", "sampled"), help="ensemble mode")
    shared.add_argument("--samples", type=int, help="sample count M for sampled mode")
    shared.add_argument("--seed", type=int, help="seed for sampled mode")
    shared.add_argument("--f", help="drift expression f(t, x); write --f=-x for a leading minus")
    shared.add_argument("--h", help="diffusion expression h(t, x)")
    shared.add_argument("--phi", help="test function expression (product of bumps)")
    shared.add_argument("--x0", type=float, help="initial state")
    shared.add_argument("--window", type=float, help="spatial window halfwidth")
    shared.add_argument("--slices", help="comma-separated time slices")
    shared.add_argument("--out", help="output directory")
    shared.add_argument("--threads", type=int, help="worker cap (does not change results)")
    shared.add_argument("--config", help="flat JSON config file")

    parser = argparse.ArgumentParser(prog="gridsde", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", parents=[shared], help="simulate an ensemble and write the density")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", parents=[shared], help="run a verification suite")
    p.add_argument("which", choices=("ito", "weakform", "crossval", "lemmas"))
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("convergence", parents=[shared], help="residual decay table across levels")
    p.add_argument("--levels", required=True, help="comma-separated increasing levels (>= 3)")
    p.set_defaults(func=cmd_convergence)

    p = sub.add_parser("fp-solve", parents=[shared], help="finite-volume forward solve")
    p.add_argument("--dx", type=float, help="cell width")
    p.add_argument("--dt", type=float, help="time step (defaults to 90%% of the stability bound)")
    p.add_argument("--t-end", dest="t_end", type=float, help="final time")
    p.set_defaults(func=cmd_fp_solve)

    p = sub.add_parser("pair", parents=[shared], help="pair a grid distribution with a test function")
    p.add_argument("--dist", default="dirac", help="dirac | dirac-derivative | split-dirac")
    p.add_argument("--center", type=float, default=0.0)
    p.add_argument("--fixed-t", dest="fixed_t", type=float, default=0.0)
    p.set_defaults(func=cmd_pair)

    p = sub.add_parser("equivalent", parents=[shared], help="macroscopic equivalence of two distributions")
    p.add_argument("--dist", default="dirac")
    p.add_argument("--center", type=float, default=0.0)
    p.add_argument("--dist2", default="split-dirac")
    p.add_argument("--center2", type=float, default=0.0)
    p.add_argument("--tol", type=float, help="pairing tolerance (default 10/n)")
    p.set_defaults(func=cmd_equivalent)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return int(code) if code else 0
    try:
        cfg = load_config(ns)
        return ns.func(cfg, ns)
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

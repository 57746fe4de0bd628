import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from gridsde import cli
from gridsde.cli import _COMMANDS, main
from gridsde.fokker_planck import MAX_CELLS, MAX_SUBSTEPS
from gridsde.noise import DEFAULT_ENUMERATION_CAP
from gridsde.sde import TrajectorySet

README = Path(__file__).resolve().parents[1] / "README.md"


def run(*args):
    return main(list(args))


class TestSimulate:
    def test_binomial_density_slice(self, tmp_path):
        rc = run(
            "simulate", "--n", "8", "--mode", "exhaustive",
            "--f", "0", "--h", "1", "--x0", "0",
            "--slices", "0,1", "--out", str(tmp_path),
        )
        assert rc == 0
        lines = (tmp_path / "density.csv").read_text().strip().splitlines()
        header = lines[0].split(",")
        assert header[0] == "t"
        edges = [float(v) for v in header[1:]]
        row_t1 = [float(v) for v in lines[2].split(",")]
        assert row_t1[0] == 1.0
        rho = np.array(row_t1[1:])
        # binomial oracle: mass C(8,j)/2^8 at site (2j-8)/sqrt(8)
        for j in range(9):
            x = (2 * j - 8) / math.sqrt(8)
            idx = next(i for i, e in enumerate(edges) if e <= x < e + 1 / 8)
            assert rho[idx] * (1 / 8) == pytest.approx(math.comb(8, j) / 256, abs=1e-15)
        sidecar = json.loads((tmp_path / "density.json").read_text())
        assert sidecar["ensemble"]["mode"] == "exhaustive"
        assert sidecar["normalization_exact"] is True

    def test_missing_h_is_usage_error(self, tmp_path):
        assert run("simulate", "--n", "8", "--f", "0", "--out", str(tmp_path)) == 2

    def test_exhaustive_cap_is_usage_error(self, tmp_path):
        rc = run(
            "simulate", "--n", "40", "--mode", "exhaustive",
            "--f", "0", "--h", "1", "--out", str(tmp_path),
        )
        assert rc == 2

    def test_divergence_exit_code(self, tmp_path):
        rc = run(
            "simulate", "--n", "8", "--mode", "exhaustive",
            "--f", "x^2", "--h", "0", "--x0", "50", "--out", str(tmp_path),
        )
        assert rc == 3

    def test_bad_expression_exit_code(self, tmp_path):
        rc = run(
            "simulate", "--n", "8", "--f", "x^t", "--h", "1", "--out", str(tmp_path),
        )
        assert rc == 2

    def test_rerun_reproduces_bytes(self, tmp_path):
        blobs = []
        for sub in ("first", "second"):
            out = tmp_path / sub
            run(
                "simulate", "--n", "8", "--mode", "exhaustive",
                "--f", "0", "--h", "1", "--out", str(out),
            )
            blobs.append((out / "density.csv").read_bytes())
        assert blobs[0] == blobs[1]


class TestConfigFile:
    def test_config_supplies_values_and_flags_override(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"n": 8, "mode": "exhaustive", "f": "0", "h": "1", "x0": 0.25}))
        out = tmp_path / "out"
        rc = run("simulate", "--config", str(cfg), "--x0", "0", "--slices", "0", "--out", str(out))
        assert rc == 0
        sidecar = json.loads((out / "density.json").read_text())
        assert sidecar["problem"]["x0"] == 0.0  # flag wins
        assert sidecar["problem"]["n"] == 8

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"nope": 1}))
        assert run("simulate", "--config", str(cfg), "--f", "0", "--h", "1") == 2

    def test_tolerance_override(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"tol_weakform_scale": 1e-9}))
        rc = run(
            "verify", "weakform", "--config", str(cfg), "--n", "8",
            "--mode", "exhaustive", "--out", str(tmp_path),
        )
        assert rc == 1  # impossible bound -> tolerance failure


@pytest.mark.parametrize(
    "argv, config",
    [
        (("convergence", "--levels", "16,32,x"), None),
        (("simulate", "--f", "0", "--h", "1", "--slices", "0,a"), None),
        (("simulate", "--f", "0", "--h", "1"), {"slices": "0,a"}),
        (("simulate", "--f", "0", "--h", "1"), {"window": "abc"}),
        (("verify", "lemmas", "--n", "4"), {"tol_lemmas": "abc"}),
        (("verify", "lemmas", "--n", "4"), {"tol_lemma": 1e-3}),
        (("simulate", "--f", "0", "--h", "1"), {"n": 8.5}),
        (("simulate", "--f", "0", "--h", "1", "--n", "8"), {"seed": 1.9}),
        (("simulate", "--f", "0", "--h", "1"), {"samples": True}),
        (("simulate", "--n", "8", "--f", "0", "--h", "1", "--window", "nan"), None),
        (("verify", "lemmas", "--n", "4", "--window", "inf"), None),
        (("simulate", "--n", "8", "--f", "0", "--h", "1", "--x0", "nan"), None),
        (("verify", "weakform", "--x0", "inf"), None),
        (("verify", "lemmas", "--n", "4"), {"x0": float("-inf")}),
        (("verify", "lemmas", "--n", "4"), {"tol_lemmas": float("nan")}),
        (("equivalent", "--tol", "nan"), None),
        (("verify", "lemmas", "--n", "4"), {"x0": True}),
        (("verify", "lemmas", "--n", "4"), {"tol_lemmas": True}),
        (("simulate", "--n", "8", "--f", "0", "--h", "1", "--window=-1"), None),
        (("simulate", "--n", "8", "--f", "0", "--h", "1", "--window=0"), None),
        (("fp-solve", "--f=-x", "--h", "1", "--window=-1"), None),
        (("simulate", "--f", "0", "--h", "1", "--n", "8.5"), None),
        (("simulate", "--f", "0", "--h", "1", "--mode", "bogus"), None),
        (("convergence",), None),
        (("simulate", "--n", "8", "--f", "0", "--h", "1", "--slices", ","), None),
        (("fp-solve", "--f", "0", "--h", "1", "--slices", ","), None),
        (("verify", "crossval", "--n", "64", "--samples", "100", "--slices", ","), None),
        (("convergence", "--levels", "4,8,16", "--samples", "100", "--slices", ","), None),
        (("equivalent", "--tol=-1"), None),
        (("verify", "lemmas", "--n", "4"), {"tol_lemmas": -1}),
    ],
    ids=[
        "levels", "slices-flag", "slices-config", "window-config", "tol-value", "tol-name",
        "n-fraction", "seed-fraction", "samples-bool", "window-nan", "window-inf", "x0-nan", "x0-inf",
        "x0-config", "tol-nan", "equivalent-tol-nan", "x0-true", "tol-true",
        "window-negative", "window-zero", "fp-solve-window-negative", "n-flag-fraction",
        "mode-bogus", "levels-missing", "simulate-slices-empty", "fp-solve-slices-empty",
        "crossval-slices-empty", "convergence-slices-empty", "equivalent-tol-negative",
        "tol-negative",
    ],
)
def test_bad_value_is_one_config_error_line(tmp_path, capsys, argv, config):
    args = [*argv, "--out", str(tmp_path / "out")]
    if config is not None:
        path = tmp_path / "run.json"
        path.write_text(json.dumps(config))
        args += ["--config", str(path)]
    assert run(*args) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error:")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ("simulate", "--n", "8", "--f=-x", "--h", "1", "--slices", "nan"),
        ("verify", "crossval", "--n", "64", "--samples", "1000", "--slices", "inf"),
        ("convergence", "--levels", "4,8,16", "--slices", "nan"),
        ("pair", "--center", "nan"),
        ("equivalent", "--center2", "inf"),
    ],
    ids=["simulate-slices", "crossval-slices", "convergence-slices", "pair-center",
         "equivalent-center2"],
)
def test_non_finite_coordinate_is_one_error_line(tmp_path, capsys, argv):
    assert run(*argv, "--out", str(tmp_path / "out")) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(("error:", "config error:"))
    assert "finite grid coordinate" in lines[0]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "crossval", "--n", "257", "--samples", "100"),
        ("convergence", "--levels", "64,128,257", "--samples", "100"),
        ("simulate", "--n", "257", "--f", "0", "--h", "1", "--samples", "10"),
    ],
    ids=["crossval", "convergence", "simulate"],
)
def test_off_grid_slice_is_one_error_line_before_any_level_runs(tmp_path, capsys, monkeypatch, argv):
    def no_level_runs(*args, **kwargs):
        raise AssertionError("a level ran before every level's slices were checked")

    monkeypatch.setattr(cli, "weak_form_residual", no_level_runs)
    assert run(*argv, "--out", str(tmp_path / "out")) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert re.fullmatch(r"error: slice times must be grid points: 0\.\d+ is not on the 1/257 grid", lines[0])
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["fp-solve", "simulate"])
def test_missing_coefficient_is_one_line_for_every_command(tmp_path, capsys, command):
    assert run(command, "--f", "0", "--out", str(tmp_path / "out")) == 2
    assert capsys.readouterr().err.splitlines() == ["config error: missing diffusion expression --h"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv, files, code, first_line",
    [
        (("simulate", "--config", "missing.json", "--f", "0", "--h", "1"), {}, 2,
         "config error: config file not found: "),
        (("simulate", "--config", "run.json", "--f", "0", "--h", "1"), {"run.json": "{bad"}, 2,
         "config error: config file is not valid JSON: "),
        (("simulate", "--config", "run.json", "--f", "0", "--h", "1"), {"run.json": "[1, 2]"}, 2,
         "config error: config file must hold a flat JSON object"),
        (("convergence", "--levels", "16,8,32"), {}, 2,
         "config error: levels must be strictly increasing"),
        (("simulate", "--h", "1"), {}, 2, "config error: missing drift expression --f"),
        (("verify", "ito", "--config", "run.json"), {"run.json": '{"tol_ito_ratio_noise": 100}'}, 1,
         "FAIL verify ito: noise decay ratios "),
    ],
    ids=["config-missing", "config-not-json", "config-list", "levels-decreasing", "simulate-no-f",
         "ito-noise-ladder-fails"],
)
def test_refusal_is_one_line_with_its_exit_code(
    tmp_path, capsys, monkeypatch, argv, files, code, first_line
):
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        Path(name).write_text(text)
    assert run(*argv, "--out", "out") == code
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(first_line)


@pytest.mark.parametrize(
    "argv, mode",
    [(("--n", "8"), "exhaustive"), (("--n", "24", "--samples", "1000"), "sampled")],
    ids=["n8", "n24"],
)
def test_weakform_without_mode_walks_exhaustively_when_the_paths_fit(tmp_path, argv, mode):
    run("verify", "weakform", *argv, "--out", str(tmp_path))
    report = json.loads((tmp_path / "verify_weakform.json").read_text())
    assert report["results"]["ensemble"]["mode"] == report["config"]["mode"] == mode


class TestVerify:
    def test_lemmas_pass(self, tmp_path):
        assert run("verify", "lemmas", "--n", "8", "--out", str(tmp_path)) == 0
        report = json.loads((tmp_path / "verify_lemmas.json").read_text())
        assert report["passed"] is True
        assert report["results"]["worst_relative_deviation"] <= 1e-10

    def test_weakform_pass(self, tmp_path):
        rc = run("verify", "weakform", "--n", "16", "--mode", "exhaustive", "--out", str(tmp_path))
        assert rc == 0
        report = json.loads((tmp_path / "verify_weakform.json").read_text())
        assert abs(report["results"]["residual"]) <= report["results"]["bound"]

    def test_crossval_h_zero_trivial(self, tmp_path):
        # default drift, no diffusion: both densities stay in the x0 cell
        rc = run(
            "verify", "crossval", "--n", "64", "--h", "0",
            "--samples", "100", "--out", str(tmp_path),
        )
        assert rc == 0

    def test_crossval_grid_fits_a_level_n_over_64_does_not_divide(self, tmp_path):
        # n // 64 = 4 cells of 1/257 do not tile the window (-3, 3); cross_validate picks 3
        rc = run(
            "verify", "crossval", "--n", "257", "--slices", "1",
            "--samples", "2000", "--out", str(tmp_path),
        )
        assert rc in (0, 1)
        report = json.loads((tmp_path / "verify_crossval.json").read_text())
        assert report["results"]["fp"]["dx"] == 3 / 257

    def test_crossval_at_level_1_is_one_error_line_naming_the_level(self, tmp_path, capsys, monkeypatch):
        # GridLevel(1) has spatial halfwidth 0: no density bin, so nothing to compare
        monkeypatch.setattr(TrajectorySet, "steps", lambda *a: pytest.fail("a walk ran"))
        argv = ("verify", "crossval", "--n", "1", "--slices", "1", "--samples", "10")
        assert run(*argv, "--out", str(tmp_path / "out")) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: level n = 1 has an empty density window [0, 0); no density to compare"]
        assert not (tmp_path / "out").exists()

    def test_non_finite_weakform_residual_is_one_error_line(self, tmp_path, capsys):
        phi = "bump((t-0.5)/0.45)*bump(x/2)*log(x+1)"
        rc = run("verify", "weakform", "--n", "12", "--x0", "0.5", "--phi", phi, "--out", str(tmp_path))
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: weak-form terms are not finite: residual")
        assert not (tmp_path / "verify_weakform.json").exists()

    def test_ito_pass_with_unit_exponents(self, tmp_path):
        assert run("verify", "ito", "--n", "64", "--out", str(tmp_path)) == 0
        report = json.loads((tmp_path / "verify_ito.json").read_text())
        assert abs(report["results"]["deterministic_exponent"] - 1.0) <= 0.3

    def test_ito_zero_deterministic_residual_is_usage_error(self, tmp_path, capsys):
        # f = 0 keeps x constant and phi has no t: the residual is exactly 0
        rc = run("verify", "ito", "--f", "0", "--phi", "bump(x/2)", "--out", str(tmp_path))
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: deterministic chain-rule residual is exactly 0 at n = 128")


class TestConvergence:
    def test_fewer_than_three_levels(self, tmp_path):
        assert run("convergence", "--levels", "8,16", "--out", str(tmp_path)) == 2

    def test_table_and_exponents(self, tmp_path):
        rc = run(
            "convergence", "--levels", "8,16,32", "--samples", "200000",
            "--out", str(tmp_path),
        )
        assert rc == 0
        lines = (tmp_path / "convergence.csv").read_text().strip().splitlines()
        assert lines[0] == "n,weakform_residual,ito_max_residual,l1_fp"
        assert len(lines) == 4
        meta = json.loads((tmp_path / "convergence.json").read_text())
        # weak-form residual decays across levels (superconvergent here,
        # so only positivity of the fitted exponent is asserted)
        assert meta["exponents"]["weakform"] > 0.5

    def test_rows_read_the_verify_reports_of_each_level(self, tmp_path):
        # one ensemble per level, by the rule of verify weakform without --mode:
        # 8 and 18 (2^19 paths) are exhaustive, 24 (2^25 paths) is sampled
        levels, slices = (8, 18, 24), ("--slices", "0.5,1")
        argv = ("--samples", "2000", "--f", "0", "--h", "1")
        assert run("convergence", "--levels", "8,18,24", *argv, *slices, "--out", str(tmp_path)) == 0
        rows = json.loads((tmp_path / "convergence.json").read_text())["rows"]
        for (n, weak, _, l1), level in zip(rows, levels, strict=True):
            mode = "exhaustive" if 2 ** (n + 1) <= DEFAULT_ENUMERATION_CAP else "sampled"
            out = tmp_path / str(n)
            assert run("verify", "weakform", "--n", str(n), *argv, "--out", str(out)) in (0, 1)
            cross_argv = ("verify", "crossval", "--n", str(n), *argv, *slices, "--mode", mode)
            assert run(*cross_argv, "--out", str(out)) in (0, 1)
            weakform = json.loads((out / "verify_weakform.json").read_text())["results"]
            crossval = json.loads((out / "verify_crossval.json").read_text())["results"]
            assert n == level and weakform["ensemble"]["mode"] == crossval["ensemble"]["mode"] == mode
            assert (weak, l1) == (abs(weakform["residual"]), crossval["max_l1"])


class TestFpSolve:
    def test_writes_same_schema_as_density(self, tmp_path):
        rc = run(
            "fp-solve", "--f", "0", "--h", "1", "--x0", "0",
            "--t-end", "0.5", "--slices", "0.25,0.5", "--out", str(tmp_path),
        )
        assert rc == 0
        lines = (tmp_path / "fp.csv").read_text().strip().splitlines()
        assert lines[0].startswith("t,")
        assert len(lines) == 3

    def test_unstable_dt_is_config_error(self, tmp_path):
        rc = run(
            "fp-solve", "--f", "0", "--h", "1", "--x0", "0",
            "--dt", "0.01", "--out", str(tmp_path),
        )
        assert rc == 2

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--dt", "nan", "dt must be finite and positive"),
            ("--dx", "nan", "dx must be finite and positive"),
            ("--t-end", "inf", "t_end must be finite"),
            ("--dx", "0", "dx must be finite and positive"),
            ("--t-end", "nan", "t_end must be finite"),
        ],
        ids=["dt-nan", "dx-nan", "t-end-inf", "dx-zero", "t-end-nan"],
    )
    def test_non_finite_or_zero_value_is_one_error_line(self, tmp_path, capsys, flag, value, message):
        rc = run("fp-solve", "--f=-x", "--h", "1", f"{flag}={value}", "--out", str(tmp_path))
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ") and message in err
        assert len(err.strip().splitlines()) == 1
        assert not (tmp_path / "fp.csv").exists()

    def test_more_substeps_than_the_limit_is_one_error_line(self, tmp_path, capsys):
        rc = run("fp-solve", "--f", "1e8*x", "--h", "1", "--dx", "0.0625", "--out", str(tmp_path))
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: 5222222792 substeps of dt = ")
        assert err.rstrip().endswith(f"a solve takes at most {MAX_SUBSTEPS}")
        assert len(err.strip().splitlines()) == 1
        assert not (tmp_path / "fp.csv").exists()

    @pytest.mark.parametrize("window, dx", [("1.5e-170", "1e-170"), ("1.5e-160", "1e-160")])
    def test_bound_below_the_float_range_is_one_error_line(self, tmp_path, capsys, window, dx):
        # dx^2 underflows, so the split of the pulse's substep has no length to take
        h = "bump((t-0.015)/0.01)"
        argv = ("--f", "0", "--h", h, "--window", window, "--dx", dx, "--slices", "0.01,1")
        rc = run("fp-solve", *argv, "--out", str(tmp_path))
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: stability bound ") and "below the float resolution of t" in err
        assert len(err.strip().splitlines()) == 1
        assert not (tmp_path / "fp.csv").exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (
                ("--h", "1e200", "--dx", "0.0625"),
                "2 max h^2 + dx max |f| is not finite on the solver window at t = 0.0",
            ),
            (("--h", "1", "--dx", "1e-300"), f"integer number (3 to {MAX_CELLS}) of dx cells"),
            (("--h", "1", "--window", "1e300"), f"integer number (3 to {MAX_CELLS}) of dx cells"),
        ],
        ids=["h-squared-overflows", "dx-tiny", "window-huge"],
    )
    def test_unusable_coefficient_or_grid_is_one_error_line(self, tmp_path, capsys, flags, message):
        rc = run("fp-solve", "--f=-x", *flags, "--out", str(tmp_path))
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ") and message in err
        assert len(err.strip().splitlines()) == 1
        assert not (tmp_path / "fp.csv").exists()


class TestPairAndEquivalent:
    def test_pair_dirac_exact(self, tmp_path, capsys):
        rc = run("pair", "--n", "64", "--dist", "dirac", "--center", "0", "--out", str(tmp_path))
        assert rc == 0
        printed = capsys.readouterr().out.strip()
        assert float(printed) == math.exp(-1)

    def test_pair_derivative_sign_convention(self, tmp_path):
        rc = run(
            "pair", "--n", "128", "--dist", "dirac-derivative", "--center", "0",
            "--phi", "x*bump(x/2)", "--out", str(tmp_path),
        )
        assert rc == 0
        report = json.loads((tmp_path / "pair.json").read_text())
        assert report["value"] == pytest.approx(-math.exp(-1), abs=1e-3)

    def test_equivalent_dirac_vs_split(self, tmp_path):
        rc = run("equivalent", "--n", "64", "--out", str(tmp_path))
        assert rc == 0

    def test_not_equivalent_exit_code(self, tmp_path):
        rc = run(
            "equivalent", "--n", "64", "--dist", "dirac", "--dist2", "dirac",
            "--center2", "1.0", "--tol", "0.01", "--out", str(tmp_path),
        )
        assert rc == 1

    def test_unknown_distribution(self, tmp_path):
        assert run("pair", "--n", "8", "--dist", "comb", "--out", str(tmp_path)) == 2

    def test_non_finite_fixed_t_is_one_error_line(self, tmp_path, capsys):
        rc = run(
            "pair", "--fixed-t", "nan", "--phi", "bump(t-0.5)*bump(x/2)",
            "--out", str(tmp_path / "out"),
        )
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == ["error: fixed_t must be finite, got nan"]
        assert not (tmp_path / "out").exists()


class TestUsage:
    def test_unknown_flag_exits_two(self, capsys):
        assert run("simulate", "--bogus") == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv, command, error",
        [
            (("verify", "lemmas", "--n", "8", "--mode", "sampled"), "verify lemmas",
             "unrecognized arguments: --mode sampled"),
            (("fp-solve", "--f=-x", "--h", "1", "--dx", "0.125", "--n", "64"), "fp-solve",
             "unrecognized arguments: --n 64"),
            (("convergence", "--levels", "4,8,16", "--samples", "1000", "--mode", "sampled"),
             "convergence", "unrecognized arguments: --mode sampled"),
            (("verify", "ito", "--window", "2"), "verify ito", "unrecognized arguments: --window 2"),
            (("simulate", "--n", "8", "--f", "0", "--h", "1", "--phi", "x"), "simulate",
             "unrecognized arguments: --phi x"),
            (("pair", "--f", "0"), "pair", "unrecognized arguments: --f 0"),
            (("verify", "--n", "8", "lemmas"), "verify", "argument suite: invalid choice: '8'"),
            (("simulate", "--n", "8", "--mode", "exhaustive", "--f", "0", "--h", "1",
              "--threads", "0"), "simulate", "unrecognized arguments: --threads 0"),
            (("simulate", "--n", "8", "--mode", "exhaustive", "--f", "0", "--h", "1",
              "--threads=-3"), "simulate", "unrecognized arguments: --threads=-3"),
            (("simulate", "--n", "8", "--f", "0", "--h", "1", "--threads", "2"), "simulate",
             "unrecognized arguments: --threads 2"),
            (("verify", "weakform", "--n", "8", "--threads", "2"), "verify weakform",
             "unrecognized arguments: --threads 2"),
            (("verify", "crossval", "--n", "64", "--threads", "2"), "verify crossval",
             "unrecognized arguments: --threads 2"),
            (("convergence", "--levels", "4,8,16", "--threads", "2"), "convergence",
             "unrecognized arguments: --threads 2"),
        ],
        ids=["lemmas-mode", "fp-solve-n", "convergence-mode", "ito-window", "simulate-phi",
             "pair-f", "verify-flag-before-suite", "threads-zero", "threads-negative",
             "simulate-threads", "weakform-threads", "crossval-threads", "convergence-threads"],
    )
    def test_flag_the_command_does_not_read_exits_two(
        self, tmp_path, capsys, argv, command, error
    ):
        assert run(*argv, "--out", str(tmp_path / "out")) == 2
        err = capsys.readouterr().err
        # the usage of the command itself, which lists the flags that it reads
        assert err.startswith(f"usage: gridsde {command} ")
        assert f"gridsde {command}: error: {error}" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "argv, key, value",
        [
            (("verify", "lemmas", "--n", "8"), "mode", "sampled"),
            (("fp-solve", "--f=-x", "--h", "1", "--dx", "0.125"), "n", 64),
            (("convergence", "--levels", "4,8,16", "--samples", "1000"), "mode", "sampled"),
            (("verify", "ito"), "window", 2),
            (("simulate", "--n", "8", "--f", "0", "--h", "1"), "phi", "x"),
            (("pair",), "f", "0"),
            (("verify", "lemmas", "--n", "8"), "tolerances", {"lemmas": 1e-10}),
            (("simulate", "--f", "0", "--h", "1", "--n", "8"), "threads", 1e400),
            (("verify", "lemmas", "--n", "4"), "cap", 1e9 + 0.5),
        ],
        ids=["lemmas-mode", "fp-solve-n", "convergence-mode", "ito-window", "simulate-phi",
             "pair-f", "lemmas-tolerances", "threads-inf", "cap-fraction"],
    )
    def test_config_key_the_command_does_not_read_exits_two(
        self, tmp_path, capsys, argv, key, value
    ):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({key: value}))
        assert run(*argv, "--config", str(path), "--out", str(tmp_path / "out")) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"config error: unknown config key {key!r} for {command_of(argv)}"
        ]
        assert not (tmp_path / "out").exists()

    def test_missing_subcommand_exits_two(self, capsys):
        assert run() == 2
        capsys.readouterr()


def key_paths(value, prefix=""):
    """Sorted dotted key paths of a JSON value; list entries that are objects add '[]'."""
    if isinstance(value, dict) and value:
        keys = {k: f"{prefix}.{k}" if prefix else k for k in value}
        return sorted({p for k, v in value.items() for p in key_paths(v, keys[k])})
    if isinstance(value, list) and value and all(isinstance(v, dict) for v in value):
        return sorted({p for v in value for p in key_paths(v, prefix + "[]")})
    return [prefix]


# The settings each command reads (the README table), echoed resolved under `config`.
SETTINGS = {
    "simulate": "n mode samples seed f h x0 window slices",
    "verify lemmas": "n f h x0 window tol_lemmas",
    "verify weakform": "n mode samples seed f h phi x0 window tol_weakform_scale",
    "verify crossval": "n mode samples seed f h x0 window slices tol_crossval_l1",
    "verify ito": "n seed f h phi x0 tol_ito_ratio_det tol_ito_ratio_noise",
    "convergence": "levels samples seed f h phi x0 slices",
    "fp-solve": "f h x0 window slices dx dt t_end",
    "pair": "n window phi dist center fixed_t",
    "equivalent": "n window dist center dist2 center2 tol",
}


def readme_settings_table():
    """The README's per-command table: command -> its settings, in table order."""
    lines = README.read_text().splitlines()
    start = lines.index("| command | settings read |") + 2
    table = {}
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        command, settings = (cell.strip() for cell in line.strip("|").split("|"))
        table[command] = settings.split()
    return table


def test_readme_settings_table_is_what_each_command_reads():
    reads = {name: [k for k in c.settings if k != "out"] for name, c in _COMMANDS.items()}
    assert readme_settings_table() == reads
    assert {name: settings.split() for name, settings in SETTINGS.items()} == reads


ENVELOPE_KEYS = {
    command: ["command", *(f"config.{k}" for k in [*settings.split(), "out"])]
    for command, settings in SETTINGS.items()
}


def command_of(argv):
    return " ".join(argv[:2] if argv[0] == "verify" else argv[:1])


ENSEMBLE_KEYS = ["alphabet", "count", "mode", "n", "seed"]

# Each result file's key tree: report fields are the keys written, so a field
# rename shows up here.
RESULT_FILES = {
    "density.json": (
        ("simulate", "--n", "4", "--mode", "exhaustive", "--f", "0", "--h", "1"),
        ["csv", *(f"ensemble.{k}" for k in ENSEMBLE_KEYS), "normalization_exact",
         "overflow_fractions", "problem.f", "problem.h", "problem.n",
         "problem.x0", "slices"],
    ),
    "fp.json": (
        ("fp-solve", "--f=-x", "--h", "1", "--dx", "0.125"),
        ["csv", "solution.dx", "solution.masses", "solution.times", "solution.window"],
    ),
    "verify_lemmas.json": (
        ("verify", "lemmas", "--n", "4"),
        ["passed", "results.increments.count", "results.increments.entries[].F",
         "results.increments.entries[].orthogonality_gap",
         "results.increments.entries[].orthogonality_scale",
         "results.increments.entries[].quadratic_gap",
         "results.increments.entries[].quadratic_scale",
         "results.increments.entries[].time_index", "results.increments.max_orthogonality_rel",
         "results.increments.max_quadratic_rel", "results.increments.n",
         "results.moments.count", "results.moments.max_abs_mean",
         "results.moments.max_diag_deviation", "results.moments.max_offdiag_abs",
         "results.moments.max_relative_deviation", "results.moments.n",
         "results.tower.entries[].decomposed", "results.tower.entries[].full",
         "results.tower.entries[].functional", "results.tower.entries[].gap",
         "results.tower.max_relative_gap", "results.tower.n", "results.tower.split_index",
         "results.worst_relative_deviation", "tolerances.lemmas"],
    ),
    "verify_weakform.json": (
        ("verify", "weakform", "--n", "8", "--mode", "exhaustive"),
        ["passed", "results.bound", "results.correction_term", "results.double_sum",
         "results.drift_term", *(f"results.ensemble.{k}" for k in ENSEMBLE_KEYS),
         "results.initial_term", "results.n", "results.noise_term", "results.phi",
         "results.pieces_sum_error", "results.quadratic_term", "results.residual",
         "results.taylor_total", "tolerances.pieces_sum", "tolerances.weakform_bound"],
    ),
    "verify_crossval.json": (
        ("verify", "crossval", "--n", "64", "--samples", "1000"),
        ["passed", *(f"results.ensemble.{k}" for k in ENSEMBLE_KEYS), "results.fp.dx",
         "results.fp.times", "results.fp.window", "results.l1", "results.max_l1",
         "results.outside_mass", "results.slice_times", "tolerances.crossval_l1"],
    ),
    "verify_ito.json": (
        ("verify", "ito", "--n", "8"),
        ["passed", "results.deterministic_exponent", "results.deterministic_max_residuals",
         "results.deterministic_ratios", "results.levels", "results.noise_exponent",
         "results.noise_max_residuals", "results.noise_ratios", "tolerances.ito_ratio_det",
         "tolerances.ito_ratio_noise"],
    ),
    "convergence.json": (
        ("convergence", "--levels", "4,8,16", "--samples", "1000"),
        ["csv", "exponents.ito", "exponents.l1_fp", "exponents.weakform", "levels", "rows"],
    ),
    "pair.json": (("pair",), ["distribution", "fixed_t", "phi", "value"]),
    "equivalent.json": (
        ("equivalent",),
        ["left", "report.entries[].gap", "report.entries[].pair_left",
         "report.entries[].pair_right", "report.entries[].phi", "report.equivalent",
         "report.tolerance", "right"],
    ),
}


@pytest.mark.parametrize("name", list(RESULT_FILES))
def test_result_file_key_tree(tmp_path, capsys, name):
    argv, keys = RESULT_FILES[name]
    assert run(*argv, "--out", str(tmp_path)) in (0, 1)  # a tolerance failure still writes
    capsys.readouterr()
    written = json.loads((tmp_path / name).read_text())
    assert written["command"] == command_of(argv)
    assert key_paths(written) == sorted([*ENVELOPE_KEYS[command_of(argv)], *keys])


@pytest.mark.parametrize("name", list(RESULT_FILES))
def test_echoed_config_reruns_the_command(tmp_path, capsys, name):
    argv, _ = RESULT_FILES[name]
    first, out = tmp_path / "first", tmp_path / "out"
    rc = run(*argv, "--out", str(out))
    out.rename(first)
    config = json.loads((first / name).read_text())["config"]
    del config["out"]
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    assert run(*command_of(argv).split(), "--config", str(path), "--out", str(out)) == rc
    capsys.readouterr()
    assert sorted(p.name for p in out.iterdir()) == sorted(p.name for p in first.iterdir())
    for path in first.iterdir():
        assert (out / path.name).read_bytes() == path.read_bytes(), path.name

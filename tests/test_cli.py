"""Command line interface: subcommands, exit codes, config files."""

import argparse
import dataclasses
import json

import pytest

from saddlescape import (
    ExperimentConfig,
    SmoothnessSpec,
    VerifyReport,
    derive_nc_params,
    harness,
)
from saddlescape.cli import _RUN_FIELDS, build_parser, main, read_config


_RUN_FUNCTIONS = ("pgd_nc_run", "ancgd_run", "sgd_nc_run", "pgd_run", "pagd_run", "psgd_run")


class TestRunCommand:
    def test_run_writes_outputs(self, tmp_path, capsys):
        out = str(tmp_path / "res")
        code = main([
            "run", "--alg", "nc", "--fn", "quartic",
            "--trials", "3", "--seed", "0", "--out", out,
        ])
        assert code == 0
        assert (tmp_path / "res.csv").exists()
        assert (tmp_path / "res.summary.json").exists()
        stdout = capsys.readouterr().out
        assert "escape_rate=" in stdout
        assert "wrote" in stdout

    def test_derived_budget_too_large_needs_steps(self, tmp_path, capsys, monkeypatch):
        # Paper-mode ancgd on the quartic derives 58 734 828 411 955 steps;
        # a trial that started would not end, so one fails the test at once.
        argv = ["run", "--alg", "ancgd", "--fn", "quartic", "--mode", "paper", "--trials", "1"]
        with monkeypatch.context() as m:
            m.setattr(harness, "ancgd_run", lambda *args: pytest.fail("a trial ran"))
            assert main(argv) == 1
        err = capsys.readouterr().err
        assert "58734828411955" in err and str(harness.MAX_DERIVED_STEPS) in err
        assert "--steps" in err
        out = tmp_path / "anc"
        assert main(argv + ["--steps", "200", "--out", str(out)]) == 0
        assert (tmp_path / "anc.csv").read_text() == (
            "trial,seed,t,f0,f_final,decrease,escaped\n"
            "0,0,200,0.0,-1.855444522649346e-22,1.855444522649346e-22,0\n"
        )

    def test_missing_alg_is_usage_error(self, capsys):
        code = main(["run", "--fn", "quartic"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_flag_exits_one(self):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--alg", "nc", "--fn", "quartic", "--nope", "1"])
        assert exc.value.code == 1

    def test_unknown_landscape_exits_one(self, capsys):
        code = main(["run", "--alg", "nc", "--fn", "mystery", "--trials", "1"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_divergence_exits_three(self, capsys):
        code = main([
            "run", "--alg", "pgd", "--fn", "quartic",
            "--eta", "100", "--steps", "10", "--trials", "1",
        ])
        assert code == 3
        assert "diverged:" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_degenerate_search_exits_three(self, capsys):
        # A finite probe radius passes validation, but its squared norm
        # overflows, which leaves the search nothing finite to iterate on.
        code = main([
            "run", "--alg", "nc", "--fn", "quartic", "--trials", "1", "--r", "1e300",
        ])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_overflowing_start_diverges(self, capsys):
        # x1**4 overflows at the start: the landscape returns inf/nan as
        # numpy does, and the trial ends as a divergence, not a traceback.
        code = main([
            "run", "--alg", "nc", "--fn", "quartic", "--trials", "1", "--x0", "1e300,0",
        ])
        assert code == 3
        assert "diverged:" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("x0", ["1e300,0", "1e100,0"])
    def test_overflowing_start_diverges_in_paper_mode(self, x0, capsys):
        # f(x0) is nan or inf, so there is no gap bound to derive the budget
        # from: the start diverged, whichever mode asked for the bound.
        code = main([
            "run", "--alg", "nc", "--fn", "quartic", "--mode", "paper", "--steps", "20",
            "--trials", "1", "--x0", x0,
        ])
        assert code == 3
        assert capsys.readouterr().err.startswith("diverged:")

    def test_exponential_far_from_saddle_runs(self):
        # e^(x1^2) overflows at x1 = 30 while f is finite.
        code = main([
            "run", "--alg", "nc", "--fn", "exponential", "--trials", "2", "--x0", "30,0",
            "--eta", "0.1", "--r", "0.01", "--ncf-steps", "5", "--steps", "10",
            "--threshold", "0.1", "--eps", "0.1",
        ])
        assert code == 0

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--alg", "pagd", "--theta", "2"], "theta must be in (0, 1)"),
            (["--alg", "pagd", "--theta", "nan"], "theta must be in (0, 1)"),
            (["--alg", "pagd", "--gamma", "nan"], "gamma must be positive"),
            (["--alg", "pagd", "--nce-radius", "-1"], "nce_radius must be positive"),
            (["--alg", "nc", "--trust-region", "nan"], "trust_region must be positive"),
            (["--alg", "pgd", "--trust-region", "-5"], "trust_region must be positive"),
            (["--alg", "ancgd", "--trust-region", "0"], "trust_region must be positive"),
        ],
    )
    def test_bad_momentum_and_trust_region_exit_one(self, flags, message, capsys, monkeypatch):
        ran = []
        for name in ("pgd_nc_run", "pgd_run", "pagd_run", "ancgd_run"):
            monkeypatch.setattr(harness, name, lambda *a: ran.append(a))
        code = main(["run", "--fn", "quartic", "--trials", "3", *flags])
        assert code == 1
        assert message in capsys.readouterr().err
        assert ran == []

    @pytest.mark.parametrize("alg, fn", [("nc", "quartic"), ("ancgd", "quartic"), ("snc", "cubic")])
    def test_infinite_radius_exits_one(self, alg, fn, capsys):
        code = main(["run", "--alg", alg, "--fn", fn, "--trials", "1", "--r", "inf"])
        assert code == 1
        assert "radius must be positive and finite" in capsys.readouterr().err

    def test_bad_jobs_env_exits_one(self, monkeypatch, capsys):
        monkeypatch.setenv("SADDLESCAPE_JOBS", "abc")
        code = main(["run", "--alg", "nc", "--fn", "quartic", "--trials", "2"])
        assert code == 1
        assert "SADDLESCAPE_JOBS" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags",
        [
            ["--eta", "-1"],
            ["--eta", "nan"],
            ["--eta", "0"],
            ["--threshold", "nan"],
            ["--mode", "paper", "--steps", "20", "--eta", "nan"],
            ["--alg", "pgd", "--eta", "nan"],
        ],
    )
    def test_bad_values_rejected_before_running(self, flags, capsys, monkeypatch):
        ran = []
        for name in ("pgd_nc_run", "pgd_run"):
            monkeypatch.setattr(harness, name, lambda *a: ran.append(a))
        code = main(["run", "--alg", "nc", "--fn", "quartic", "--trials", "2", *flags])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")
        assert ran == []

    @pytest.mark.parametrize(
        "alg, fn, flags",
        [
            (alg, fn, ["--eps", "nan"])
            for alg, fn in (("nc", "quartic"), ("ancgd", "quartic"), ("snc", "cubic"))
        ]
        + [
            (alg, fn, ["--g-thresh", value])
            for alg, fn in (
                ("nc", "quartic"), ("ancgd", "quartic"), ("snc", "cubic"),
                ("pgd", "quartic"), ("psgd", "cubic"),
            )
            for value in ("nan", "-1")
        ]
        + [
            (alg, fn, ["--pert", "nan"])
            for alg, fn in (("nc", "quartic"), ("ancgd", "quartic"), ("snc", "cubic"))
        ]
        + [
            (alg, fn, ["--t-thresh", "-5"])
            for alg, fn in (
                ("nc", "quartic"), ("ancgd", "quartic"), ("snc", "cubic"),
                ("pgd", "quartic"), ("pagd", "quartic"),
            )
        ]
        + [
            ("snc", "cubic", ["--sigma", "nan"]),
            ("psgd", "cubic", ["--sigma", "nan"]),
            ("nc", "quartic", ["--x0", "nan,0"]),
            ("pgd", "quartic", ["--x0", "0,inf"]),
            ("nc", "quartic", ["--mode", "paper", "--steps", "20", "--g-thresh", "nan"]),
            ("snc", "cubic", ["--mode", "paper", "--steps", "20", "--t-thresh", "-1"]),
            ("ancgd", "quartic", ["--mode", "paper", "--steps", "20", "--delta", "1"]),
        ],
    )
    def test_bad_knobs_rejected_before_running(self, alg, fn, flags, capsys, monkeypatch):
        ran = []
        for name in _RUN_FUNCTIONS:
            monkeypatch.setattr(harness, name, lambda *a: ran.append(a))
        code = main(["run", "--alg", alg, "--fn", fn, "--trials", "2", *flags])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")
        assert ran == []

    @pytest.mark.parametrize(
        "flags, env",
        [
            ("--alg pgd --delta 7", None),
            ("--alg pgd --delta 0", None),
            ("--alg pgd --sigma nan", None),
            ("--alg pgd --sigma -1", None),
            ("--alg pgd --ncf-steps -2", None),
            ("--alg pgd --pert 0", None),
            ("--alg nc --M -1", None),
            ("--alg nc --gamma -1", None),
            ("--alg nc --theta 1", None),
            ("--alg nc --delta-f nan", None),
            ("--alg nc --delta-f -3", None),
            ("--alg nc --mode paper --steps 20 --delta-f 0", None),
            ("--alg nc --jobs 0", None),
            ("--alg nc --jobs -4", None),
            ("--alg nc", "0"),
            ("--alg nc", "-2"),
        ],
    )
    def test_every_knob_range_checked_whatever_the_algorithm(
        self, flags, env, capsys, monkeypatch
    ):
        # Each knob is checked once, on the config, so a knob the chosen
        # algorithm ignores is rejected too and nothing is clamped.
        ran = []
        for name in _RUN_FUNCTIONS:
            monkeypatch.setattr(harness, name, lambda *a: ran.append(a))
        if env is not None:
            monkeypatch.setenv("SADDLESCAPE_JOBS", env)
        code = main(["run", "--fn", "quartic", "--trials", "2", *flags.split()])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")
        assert ran == []

    def test_missing_out_dir_fails_before_first_trial(self, tmp_path, capsys, monkeypatch):
        ran = []
        monkeypatch.setattr(harness, "_run_trial", lambda *a: ran.append(a))
        out = str(tmp_path / "missing" / "x")
        code = main(["run", "--alg", "nc", "--fn", "quartic", "--trials", "2", "--out", out])
        assert code == 1
        assert "does not exist" in capsys.readouterr().err
        assert ran == []

    def test_bad_x0_exits_one(self, capsys):
        code = main([
            "run", "--alg", "nc", "--fn", "quartic", "--trials", "1",
            "--x0", "a,b",
        ])
        assert code == 1
        assert "bad x0" in capsys.readouterr().err


class TestConfigFile:
    def test_flags_override_config(self, tmp_path):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text(
            "# quartic comparison\n"
            "alg = nc\n"
            "fn = quartic\n"
            "eta = 0.9\n"
            "t-thresh = 7\n"
            "\n"
            "trials = 2\n"
        )
        out = str(tmp_path / "res")
        code = main([
            "run", "--config", str(cfg_file), "--eta", "0.05", "--out", out,
        ])
        assert code == 0
        summary = json.loads((tmp_path / "res.summary.json").read_text())
        echo = summary["config"]
        assert echo["eta"] == 0.05
        assert echo["cooldown"] == 7
        assert echo["trials"] == 2
        assert summary["algorithm"] == "nc"

    def test_field_names_accepted_too(self, tmp_path):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text("algorithm = nc\nlandscape = quartic\ntrials = 1\n")
        assert main(["run", "--config", str(cfg_file)]) == 0

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text("alg = nc\nfn = quartic\nwarp = 9\n")
        code = main(["run", "--config", str(cfg_file)])
        assert code == 1
        assert "unknown config key" in capsys.readouterr().err

    def test_read_config_parsing(self, tmp_path):
        cfg_file = tmp_path / "mix.cfg"
        cfg_file.write_text(
            "eta = 0.5   # trailing comment\n"
            "trials = 12\n"
            "fn = quartic\n"
            "mode = experiment\n"
        )
        values = read_config(str(cfg_file))
        assert values == {
            "eta": 0.5, "trials": 12, "fn": "quartic", "mode": "experiment"
        }

    @pytest.mark.parametrize(
        "line",
        ["eta = abc", "seed = abc", "threshold = abc", "trust_region = abc",
         "eta = true", "steps = true"],
    )
    def test_non_numeric_value_is_usage_error(self, tmp_path, capsys, line):
        # Words are kept as strings (no field is boolean, so "true" is one
        # too) and every numeric field rejects them by name.
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text(f"alg = pgd\nfn = quartic\ntrials = 1\n{line}\n")
        assert main(["run", "--config", str(cfg_file)]) == 1
        err = capsys.readouterr().err
        assert f"error: {line.split()[0]} must" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "line, code, message",
        [
            ("out = 123", 0, None),
            ("fn = 5", 1, "error: unknown landscape id: '5'"),
            ("x0 = 1", 1, "error: x0 has dimension 1, expected 2"),
        ],
    )
    def test_text_fields_stay_text(self, tmp_path, monkeypatch, capsys, line, code, message):
        # landscape, out and x0 keep their text even when it reads as a number.
        monkeypatch.chdir(tmp_path)
        cfg_file = tmp_path / "text.cfg"
        cfg_file.write_text(f"alg = pgd\nfn = quartic\ntrials = 1\n{line}\n")
        assert main(["run", "--config", str(cfg_file)]) == code
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if message is None:
            assert "error:" not in err
            assert (tmp_path / "123.csv").is_file()
        else:
            assert message in err

    def test_every_config_field_is_a_run_flag(self):
        # A field without a flag could only be set from a config file.
        (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        dests = {action.dest for action in sub.choices["run"]._actions} - {"help", "config"}
        assert dests <= set(_RUN_FIELDS)
        fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
        assert {_RUN_FIELDS[dest] for dest in dests} == fields

    def test_read_config_bad_line(self, tmp_path):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text("eta 0.5\n")
        code = main(["run", "--config", str(cfg_file)])
        assert code == 1


class TestVerifyCommand:
    def test_verify_quartic_passes(self, capsys):
        code = main(["verify", "--fn", "quartic"])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "verification passed" in stdout
        assert "quartic: gradient-consistency" in stdout

    def test_verify_failure_exits_two(self, capsys, monkeypatch):
        import saddlescape.cli as cli_mod

        def fake_verify(ids=None):
            return VerifyReport(entries=[], failures=["broken: check: detail"])

        monkeypatch.setattr(cli_mod, "run_verify", fake_verify)
        code = main(["verify"])
        assert code == 2
        assert "verification failed" in capsys.readouterr().out


class TestParamsCommand:
    def test_ncf_json_matches_derivation(self, capsys):
        code = main([
            "params", "--alg", "ncf", "--ell", "1", "--rho", "1",
            "--eps", "0.01", "--delta", "0.1", "--n", "2",
        ])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        ref = derive_nc_params(SmoothnessSpec(1.0, 1.0), 0.01, 0.1, 2)
        assert out["steps"] == ref.steps == 351
        assert out["radius"] == pytest.approx(ref.radius, rel=1e-15)

    @pytest.mark.parametrize(
        "alg, flags",
        [
            (alg, ["--eps", eps])
            for alg in ("ncf", "nc", "ancgd", "snc")
            for eps in ("nan", "-1", "inf")
        ]
        + [
            ("nc", ["--eps", "0.1", "--delta-f", "nan"]),
            ("ancgd", ["--eps", "0.1", "--delta-f", "-1"]),
            ("snc", ["--eps", "0.1", "--delta-f", "nan"]),
            ("snc", ["--eps", "0.1", "--ell-tilde", "nan"]),
            ("ancgd", ["--eps", "0.1", "--delta-f", "0"]),
            ("ancgd", ["--eps", "0.1", "--delta", "1"]),
        ],
    )
    def test_bad_values_exit_one(self, alg, flags, capsys):
        code = main([
            "params", "--alg", alg, "--ell", "1", "--rho", "1", "--n", "2", *flags
        ])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_unsupported_alg_exits_one(self, capsys):
        code = main([
            "params", "--alg", "pgd", "--ell", "1", "--rho", "1",
            "--eps", "0.1", "--n", "2",
        ])
        assert code == 1


class TestDimscaleCommand:
    def test_small_sweep(self, capsys):
        code = main(["dimscale", "--p", "1", "--trials", "2", "--seed", "0"])
        assert code == 0
        assert "p=1 n=10" in capsys.readouterr().out

    def test_zero_jobs_exits_one(self, capsys):
        code = main(["dimscale", "--p", "1", "--trials", "2", "--jobs", "0"])
        assert code == 1
        assert "jobs must be an integer >= 1" in capsys.readouterr().err

    def test_bad_p_list(self, capsys):
        code = main(["dimscale", "--p", "x"])
        assert code == 1

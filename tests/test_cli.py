"""Command line interface: subcommands, exit codes, flags."""

import argparse
import dataclasses
import json
import time

import pytest

from saddlescape import (
    VERIFY_IDS,
    ExperimentConfig,
    SmoothnessSpec,
    VerifyReport,
    derive_nc_params,
    derive_params_for,
    harness,
)
from saddlescape import verify
from saddlescape.cli import build_parser, main
from saddlescape.verify import MAX_VERIFY_DIM


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
        # The run line prints the summary's own numbers and csv path.
        summary = json.loads((tmp_path / "res.summary.json").read_text())
        assert capsys.readouterr().out.splitlines() == [
            f"alg=nc fn=quartic mode=experiment trials=3 steps=90 threshold=0.9 "
            f"escape_rate={summary['escape_rate']:.4f} "
            f"fraction_below={summary['fraction_below_threshold']:.4f} "
            f"mean_decrease={summary['mean_decrease']:.6f}",
            f"wrote {out}.csv",
        ]

    @pytest.mark.parametrize("argv", [
        "run --alg nc --fn quartic --trials 2 --out",
        "dimscale --p 1 --trials 2 --out",
    ])
    def test_empty_out_exits_one_before_any_trial(self, argv, trials_run, capsys):
        # An empty --out would run every trial, exit 0 and write nothing.
        assert main(argv.split() + [""]) == 1
        assert capsys.readouterr().err.startswith("error: out")
        assert trials_run == []

    def test_paper_run_prints_its_derived_budget(self, capsys):
        # The budget is derived, not given, so the run line is where it shows;
        # the CSV and summary do not echo it.
        argv = ["run", "--alg", "pgd", "--fn", "quartic", "--mode", "paper", "--eps", "0.3",
                "--trials", "2"]
        assert main(argv) == 0
        assert " trials=2 steps=512 " in capsys.readouterr().out

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

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("alg, fn, x0", [
        ("nc", "quartic", "1e300,0"),
        ("ancgd", "quartic", "1e300,0"),
        ("nc", "highdim-10", "1e300" + ",0" * 9),
    ])
    def test_divergence_prints_no_numpy_warning(self, alg, fn, x0, capsys):
        # Overflow and invalid-value warnings are turned into errors here, so
        # one that escapes cli.main fails the run instead of printing.
        code = main(["run", "--alg", alg, "--fn", fn, "--trials", "5", "--x0", x0])
        assert code == 3
        assert capsys.readouterr() == ("", "diverged: non-finite iterate encountered\n")

    # e^(x1^2) overflows at x1 = 30 while f is finite; at x1 = 26.6 it does
    # not, but 4 x1^2 e^(x1^2) does.
    @pytest.mark.parametrize("x0", ["30,0", "26.6,0.3"])
    def test_exponential_far_from_saddle_runs(self, x0, capsys):
        code = main([
            "run", "--alg", "nc", "--fn", "exponential", "--trials", "2", "--x0", x0,
            "--eta", "0.1", "--r", "0.01", "--ncf-steps", "5", "--steps", "10",
            "--threshold", "0.1", "--eps", "0.1",
        ])
        assert code == 0
        assert capsys.readouterr().err == ""

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
        "flags",
        [
            "--alg pgd --delta 7",
            "--alg pgd --delta 0",
            "--alg pgd --sigma nan",
            "--alg pgd --sigma -1",
            "--alg pgd --ncf-steps -2",
            "--alg pgd --pert 0",
            "--alg nc --M -1",
            "--alg nc --gamma -1",
            "--alg nc --theta 1",
            "--alg nc --delta-f nan",
            "--alg nc --delta-f -3",
            "--alg nc --mode paper --steps 20 --delta-f 0",
            "--alg nc --jobs 0",
            "--alg nc --jobs -4",
        ],
    )
    def test_every_knob_range_checked_whatever_the_algorithm(self, flags, capsys, monkeypatch):
        # Each knob is checked once, on the config, so a knob the chosen
        # algorithm ignores is rejected too and nothing is clamped.
        ran = []
        for name in _RUN_FUNCTIONS:
            monkeypatch.setattr(harness, name, lambda *a: ran.append(a))
        code = main(["run", "--fn", "quartic", "--trials", "2", *flags.split()])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")
        assert ran == []

    @pytest.mark.parametrize(
        "flags, knob",
        [
            ("--alg pgd --pert 0.3", "exploit_step"),
            ("--alg nc --M 4", "outer_batch"),
            ("--alg nc --sigma 0.1", "sigma"),
            ("--alg pgd --m 2", "batch"),
            ("--alg pagd --ncf-steps 5", "ncf_steps"),
            ("--alg psgd --theta 0.3", "theta"),
            ("--alg ancgd --mode paper --steps 20 --M 4", "outer_batch"),
        ],
    )
    def test_knob_the_algorithm_never_reads_rejected(self, flags, knob, capsys, monkeypatch):
        # In range, but the chosen algorithm would silently drop it.
        ran = []
        for name in _RUN_FUNCTIONS:
            monkeypatch.setattr(harness, name, lambda *a: ran.append(a))
        code = main(["run", "--fn", "quartic", "--trials", "2", *flags.split()])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and knob in err
        assert ran == []

    @pytest.mark.parametrize(
        "flags, knob",
        [
            ("--alg pgd --eps 0.3", "eps"),
            ("--alg psgd --delta 0.2", "delta"),
            ("--alg pagd --delta 0.2", "delta"),
            ("--alg nc --delta-f 5", "delta_f"),
            ("--alg ancgd --delta-f 5", "delta_f"),
            ("--alg nc --delta 0.5", "delta"),
            ("--alg ancgd --delta 0.5", "delta"),
            ("--alg snc --delta 0.5", "delta"),
        ],
    )
    def test_paper_only_knob_rejected_in_experiment_mode(
        self, flags, knob, capsys, monkeypatch
    ):
        # Experiment mode would silently drop it; paper mode reads it.
        ran = []
        for name in _RUN_FUNCTIONS:
            monkeypatch.setattr(harness, name, lambda *a: ran.append(a))
        code = main(["run", "--fn", "quartic", "--trials", "2", *flags.split()])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"reads {knob} in paper mode only" in err
        assert ran == []

    @pytest.mark.parametrize("flags", ["--alg pgd --eps 0.3", "--alg nc --delta-f 5"])
    def test_paper_only_knob_runs_in_paper_mode(self, flags):
        code = main([
            "run", "--fn", "quartic", "--trials", "2", "--mode", "paper", "--steps", "20",
            *flags.split(),
        ])
        assert code == 0

    @pytest.mark.parametrize("flags", [
        "--fn quartic --steps 2000000000 --trials 1000000",
        "--fn highdim-1000000 --trials 100000",
        # Billed at n coordinates a step, this run would take about 5 h.
        "--fn highdim-100000 --trials 9 --steps 1000000",
    ])
    def test_runaway_run_fails_before_first_trial(self, flags, capsys, monkeypatch):
        ran = []
        monkeypatch.setattr(harness, "_run_trial", lambda *a: ran.append(a))
        assert main(["run", "--alg", "nc", *flags.split()]) == 1
        assert "exceed the work cap" in capsys.readouterr().err
        assert ran == []

    @pytest.mark.parametrize("argv, taken", [
        ("run --alg nc --fn quartic --trials 3 --out r", "r.csv"),
        ("run --alg nc --fn quartic --trials 3 --out r", "r.summary.json"),
        ("dimscale --p 1 --trials 1 --out r.csv", "r.csv"),
    ])
    def test_output_that_is_a_directory_fails_before_first_trial(
        self, argv, taken, tmp_path, monkeypatch, trials_run, capsys
    ):
        monkeypatch.chdir(tmp_path)
        (tmp_path / taken).mkdir()
        assert main(argv.split()) == 1
        assert capsys.readouterr().err == f"error: output path '{taken}' is a directory\n"
        assert trials_run == []

    @pytest.mark.parametrize("out", ["results/", ".csv", "results/.csv"])
    def test_out_with_no_file_name_fails_before_first_trial(
        self, out, tmp_path, monkeypatch, trials_run, capsys
    ):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "results").mkdir()
        argv = ["run", "--alg", "nc", "--fn", "quartic", "--trials", "2", "--out", out]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: out must be a string naming a file, got {out!r}\n"
        assert captured.out == ""
        assert trials_run == []
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["results"]

    def test_write_failure_exits_one(self, tmp_path, capsys, monkeypatch):
        def full(*args):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(harness, "_write_table", full)
        out = str(tmp_path / "r")
        assert main(["run", "--alg", "nc", "--fn", "quartic", "--trials", "2", "--out", out]) == 1
        assert capsys.readouterr().err == "error: [Errno 28] No space left on device\n"

    def test_missing_out_dir_fails_before_first_trial(self, tmp_path, capsys, monkeypatch):
        ran = []
        monkeypatch.setattr(harness, "_run_trial", lambda *a: ran.append(a))
        out = str(tmp_path / "missing" / "x")
        code = main(["run", "--alg", "nc", "--fn", "quartic", "--trials", "2", "--out", out])
        assert code == 1
        assert "does not exist" in capsys.readouterr().err
        assert ran == []

    def test_config_file_flag_is_gone(self):
        # Flags are the one way into a run.
        with pytest.raises(SystemExit) as exc:
            main(["run", "--alg", "nc", "--fn", "quartic", "--config", "exp.cfg"])
        assert exc.value.code == 1

    @pytest.mark.parametrize("alg", ["pgd-nc", "sgd-nc"])
    def test_each_algorithm_has_one_name(self, alg, capsys):
        code = main(["run", "--alg", alg, "--fn", "quartic", "--trials", "1"])
        assert code == 1
        assert "unknown algorithm" in capsys.readouterr().err

    def test_every_config_field_is_a_run_flag(self):
        (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        dests = {action.dest for action in sub.choices["run"]._actions} - {"help"}
        assert dests == {f.name for f in dataclasses.fields(ExperimentConfig)}

    def test_bad_x0_exits_one(self, capsys):
        code = main([
            "run", "--alg", "nc", "--fn", "quartic", "--trials", "1",
            "--x0", "a,b",
        ])
        assert code == 1
        assert "bad x0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "alg, fn, eta",
        [
            ("nc", "quartic", "1e-320"), ("snc", "cubic", "1e-320"),
            ("ancgd", "quartic", "1e-310"), ("ancgd", "quartic", "1e308"),
        ],
    )
    def test_eta_outside_the_local_ell_exits_one_naming_eta(self, alg, fn, eta, capsys):
        # Experiment mode's local ell = 1/eta (1/(4 eta) for ancgd) is inf
        # for a tiny eta, and 0 where 4 eta overflows.
        argv = ["run", "--alg", alg, "--fn", fn, "--eta", eta, "--trials", "1"]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith(f"error: eta {float(eta)} is out of range")

    def test_probe_scale_underflow_exits_one_before_any_trial(self, trials_run, capsys):
        # The local ell = 1/eta = 1e-300 times the radius 1e-30 is 0 in floats,
        # and the curvature search divided by it: a ZeroDivisionError.
        argv = "run --alg nc --fn quartic --eta 1e300 --r 1e-30 --trials 1".split()
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            "error: radius 1e-30 times ell 1e-300 underflows to 0; "
            "the curvature search divides by it\n"
        )
        assert trials_run == []

    def test_batch_help_names_both_readers(self):
        # psgd reads --m as the minibatch of its gradient estimate, not of a search.
        (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        text = " ".join(sub.choices["run"].format_help().split())
        assert "--m BATCH minibatch size of snc's search differences and of psgd's " in text

    @pytest.mark.parametrize("flag, value", [("--eta", "1e-320"), ("--theta", "1e-200")])
    def test_paper_pagd_momentum_out_of_the_floats_names_its_input(self, flag, value, capsys):
        # gamma = theta^2 / eta overflows for a tiny eta; theta^2 underflows
        # to 0 for a tiny theta.  Neither is eps's doing.
        argv = ["run", "--alg", "pagd", "--fn", "quartic", "--mode", "paper", "--steps", "5"]
        assert main(argv + ["--trials", "1", flag, value]) == 1
        name = flag[2:]
        assert capsys.readouterr().err.startswith(f"error: {name} {float(value)} is too small")

    def test_experiment_pagd_momentum_refusal_names_no_mode(self, capsys):
        # Experiment mode derives pagd's gamma from an explicit eta too, so
        # the refusal must not call the quantity a paper-mode one.
        argv = [
            "run", "--alg", "pagd", "--fn", "triangle", "--eta", "1e-320", "--r", "0.1",
            "--g-thresh", "0.1", "--steps", "5", "--trials", "1",
        ]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: eta 1e-320 is too small")
        assert "paper-mode" not in err


@pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
@pytest.mark.parametrize("command", [
    ["run", "--alg", "snc", "--fn", "cubic", "--trials", "3"],
    ["dimscale", "--p", "1", "--trials", "3"],
])
def test_seed_outside_64_bits_exits_one(command, seed, capsys, tmp_path, monkeypatch):
    # Streams key Philox with the seed modulo 2**64, so -1 would run as
    # 2**64 - 1 and 2**64 as 0, while the CSV and summary named the seed given.
    monkeypatch.chdir(tmp_path)
    assert main([*command, "--seed", seed]) == 1
    assert capsys.readouterr().err == (
        f"error: seed must be an integer from 0 to 18446744073709551615, got {seed}\n"
    )
    assert list(tmp_path.iterdir()) == []


class TestVerifyCommand:
    def test_verify_quartic_passes(self, capsys):
        code = main(["verify", "--fn", "quartic"])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "verification passed" in stdout
        assert "quartic: gradient-consistency" in stdout

    def test_verify_above_the_cap_exits_one_at_once(self, capsys):
        n = MAX_VERIFY_DIM + 1
        start = time.perf_counter()
        assert main(["verify", "--fn", f"highdim-{n}"]) == 1
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().err == (
            f"error: verify caps n at {MAX_VERIFY_DIM}; highdim-{n} has n={n}\n"
        )

    def test_verify_above_the_dense_cap_reads_the_analytic_hessian(self, capsys, monkeypatch):
        # Past DENSE_CAP every curvature the audit reads is land.hessian's:
        # at the saddle, at both minima and at the 25 spectrum samples.
        points = []
        registry = verify.get_landscape

        def spied(land_id):
            land = registry(land_id)
            hessian = land.hessian
            land.hessian = lambda x: points.append(x) or hessian(x)
            return land

        monkeypatch.setattr(verify, "get_landscape", spied)
        assert main(["verify", "--fn", "highdim-300"]) == 0
        assert len(points) == 1 + 2 + 25
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == "verification passed: 1 landscape(s)"
        assert all(line.startswith("ok   highdim-300: ") for line in lines[:-1])
        assert lines[-2].startswith("ok   highdim-300: spectrum-bound: max |eig| ")

    @pytest.mark.parametrize("fn", [",", " , ", ""])
    def test_verify_with_no_id_exits_one(self, fn, capsys):
        # An --fn that names no id is not the default set.
        assert main(["verify", "--fn", fn]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: verify needs at least one landscape\n")

    def test_verify_help_names_the_default_set(self):
        (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        text = " ".join(sub.choices["verify"].format_help().split())
        assert f"(default VERIFY_IDS: {VERIFY_IDS})" in text

    def test_verify_failure_exits_two(self, capsys, monkeypatch):
        import saddlescape.cli as cli_mod

        def fake_verify(ids=None):
            check = {"name": "check", "ok": False, "detail": "detail"}
            return VerifyReport(entries=[{"landscape": "broken", "checks": [check]}])

        monkeypatch.setattr(cli_mod, "run_verify", fake_verify)
        code = main(["verify"])
        assert code == 2
        assert "verification failed" in capsys.readouterr().out


class TestParamsCommand:
    def test_snc_search_outside_its_log_domain_names_its_inputs(self, capsys):
        code = main([
            "params", "--alg", "snc", "--ell", "0.001", "--rho", "1e-6", "--eps", "1",
            "--n", "1", "--delta", "0.99",
        ])
        assert code == 1
        # delta=0.4296875 is the search's own, split from the --delta given.
        assert capsys.readouterr().err == (
            "error: concentration log argument must exceed 1 at "
            "ell=0.001, rho=1e-06, eps=1.0, delta=0.4296875, n=1 "
            "(given delta=0.99, delta_f=1.0)\n"
        )

    def test_snc_probe_radius_underflow_names_delta_f(self, capsys):
        # At --delta-f 1 the same eps derives params: delta_f shrinks the
        # search's delta, and so its probe radius, to 0.
        argv = ["params", "--alg", "snc", "--ell", "5.75", "--rho", "4.5", "--n", "2"]
        assert main(argv + ["--eps", "5e-93", "--delta", "0.9", "--delta-f", "1"]) == 0
        capsys.readouterr()
        assert main(argv + ["--eps", "5e-93", "--delta", "0.9", "--delta-f", "1e116"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: eps 5e-93 is too small")
        assert "delta=0.9, delta_f=1e+116" in err

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
            for alg in ("ncf", *harness.ALGORITHMS)
            for eps in ("nan", "-1", "inf")
        ]
        + [
            ("nc", ["--eps", "0.1", "--delta-f", "nan"]),
            ("ancgd", ["--eps", "0.1", "--delta-f", "-1"]),
            ("snc", ["--eps", "0.1", "--delta-f", "nan"]),
            ("snc", ["--eps", "0.1", "--ell-tilde", "nan"]),
            ("ancgd", ["--eps", "0.1", "--delta-f", "0"]),
            ("ancgd", ["--eps", "0.1", "--delta", "1"]),
            # Inputs the derivation never reads, and a zero that is not unset.
            ("ncf", ["--eps", "0.1", "--delta-f", "nan"]),
            ("ncf", ["--eps", "0.1", "--ell-tilde", "-3"]),
            ("nc", ["--eps", "0.1", "--ell-tilde", "nan"]),
            ("pgd", ["--eps", "0.1", "--ell-tilde", "0"]),
            ("snc", ["--eps", "0.1", "--ell-tilde", "0"]),
        ],
    )
    def test_bad_values_exit_one(self, alg, flags, capsys):
        code = main([
            "params", "--alg", alg, "--ell", "1", "--rho", "1", "--n", "2", *flags
        ])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("command", ["params", "run"])
    @pytest.mark.parametrize(
        "alg, eps",
        [
            ("pgd", "1e-200"), ("pagd", "1e-200"), ("psgd", "1e-155"),
            ("nc", "1e-200"), ("ancgd", "1e-200"), ("snc", "1e-170"),
        ],
    )
    def test_tiny_eps_exits_one_naming_eps(self, command, alg, eps, capsys):
        # Each eps takes a paper-mode budget or failure probability out of
        # the floats (to 0, inf or a division by zero).
        argv = {
            "params": ["params", "--ell", "1", "--rho", "1", "--n", "2"],
            "run": ["run", "--fn", "quartic", "--mode", "paper", "--trials", "1"],
        }[command]
        assert main(argv + ["--alg", alg, "--eps", eps]) == 1
        assert capsys.readouterr().err.startswith(f"error: eps {float(eps)} is too small")

    @pytest.mark.parametrize("command", ["params", "run"])
    @pytest.mark.parametrize("alg", harness.ALGORITHMS)
    def test_large_eps_exits_one_naming_eps(self, command, alg, capsys):
        # eps**3 overflows (float ** raises where * gives inf) in the failure
        # probabilities of nc, snc and ancgd; pgd, pagd and psgd meet the
        # curvature-threshold check sqrt(rho * eps) <= ell first.
        argv = {
            "params": ["params", "--ell", "1", "--rho", "1", "--n", "2"],
            "run": ["run", "--fn", "quartic", "--mode", "paper", "--trials", "1"],
        }[command]
        assert main(argv + ["--alg", alg, "--eps", "1e150"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "eps" in err
        if alg in ("nc", "snc", "ancgd"):
            assert err.startswith("error: eps 1e+150 is too large")

    @pytest.mark.parametrize(
        "argv",
        [
            # snc's probe radius underflows to 0.
            ["params", "--alg", "snc", "--ell", "5.75", "--rho", "4.5", "--n", "2"]
            + ["--eps", "5e-93", "--delta", "0.9", "--delta-f", "1e116"],
            ["run", "--alg", "snc", "--fn", "quartic", "--mode", "paper", "--trials", "1"]
            + ["--eps", "5e-93", "--delta", "0.9", "--delta-f", "1e116"],
            # rho * eps underflows, so the curvature threshold is 0.
            ["params", "--alg", "ncf", "--ell", "1e-55", "--rho", "1e-66", "--n", "2"]
            + ["--eps", "1e-298"],
        ],
    )
    def test_quantity_out_of_the_floats_exits_one_naming_eps(self, argv, capsys):
        assert main(argv) == 1
        eps = argv[argv.index("--eps") + 1]
        assert capsys.readouterr().err.startswith(f"error: eps {float(eps)} is too small")

    def test_ncf_delta_out_of_range_names_the_flag(self, capsys):
        # ncf's delta is the search's delta0; the error names the flag given.
        argv = ["params", "--alg", "ncf", "--ell", "1", "--rho", "1", "--eps", "0.1", "--n", "2"]
        assert main(argv + ["--delta", "1.5"]) == 1
        assert capsys.readouterr().err == "error: delta must be in (0, 1], got 1.5\n"

    def test_unknown_alg_exits_one(self, capsys):
        code = main([
            "params", "--alg", "pgd-nc", "--ell", "1", "--rho", "1",
            "--eps", "0.1", "--n", "2",
        ])
        assert code == 1
        assert "unknown algorithm" in capsys.readouterr().err

    @pytest.mark.parametrize("alg", ["pgd", "pagd", "psgd"])
    def test_baselines_print_their_paper_params(self, alg, capsys):
        code = main([
            "params", "--alg", alg, "--ell", "5.75", "--rho", "4.5",
            "--eps", "0.01", "--n", "2",
        ])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out == dataclasses.asdict(derive_params_for(alg, 5.75, 4.5, 0.01, 0.1, 2))
        assert out["total_steps"] == 460000


class TestDimscaleCommand:
    @pytest.mark.parametrize(
        "argv",
        [
            ["dimscale", "--p", "7", "--trials", "1"],
            ["run", "--alg", "nc", "--fn", "highdim-1000000000", "--trials", "1"],
        ],
    )
    def test_oversized_highdim_exits_one_before_allocating(self, argv, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("allocated a highdim landscape")

        monkeypatch.setattr(harness.np, "ones", refuse)
        assert main(argv) == 1
        assert "n <= 1000000" in capsys.readouterr().err

    def test_small_sweep(self, capsys):
        code = main(["dimscale", "--p", "1", "--trials", "2", "--seed", "0"])
        assert code == 0
        assert "p=1 n=10" in capsys.readouterr().out

    def test_zero_jobs_exits_one(self, capsys):
        code = main(["dimscale", "--p", "1", "--trials", "2", "--jobs", "0"])
        assert code == 1
        assert "jobs must be an integer >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("p", ["2,0", "2,7"])
    def test_bad_exponent_exits_one_before_any_trial(self, p, forks, trials_run, capsys):
        assert main(["dimscale", "--p", p, "--trials", "4", "--jobs", "2"]) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert trials_run == [] and forks == []

    def test_bad_p_list(self, capsys):
        code = main(["dimscale", "--p", "x"])
        assert code == 1

    def test_empty_p_list_exits_one(self, capsys):
        assert main(["dimscale", "--p", ","]) == 1
        assert "error: --p must list at least one exponent" in capsys.readouterr().err

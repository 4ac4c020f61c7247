"""Command line interface: subcommands, exit codes, config files."""

import json

import pytest

from saddlescape import SmoothnessSpec, VerifyReport, derive_nc_params, harness
from saddlescape.cli import main, read_config


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

    def test_degenerate_search_exits_three(self, capsys):
        # An infinite probe radius passes validation but leaves the search
        # nothing finite to iterate on.
        code = main([
            "run", "--alg", "nc", "--fn", "quartic", "--trials", "1", "--r", "inf",
        ])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

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

    def test_bad_p_list(self, capsys):
        code = main(["dimscale", "--p", "x"])
        assert code == 1

"""Experiment harness: configs, histograms, outputs, verification sweep."""

import dataclasses
import inspect
import json
import os
import time

import numpy as np
import pytest

from saddlescape import (
    AdditiveNoiseOracle,
    AlgorithmError,
    DivergenceError,
    ExperimentConfig,
    GradientOracle,
    Landscape,
    ParameterError,
    SaddleInfo,
    SmoothnessSpec,
    VERIFY_IDS,
    derive_nc_params,
    derive_params_for,
    get_landscape,
    run_dimension_scaling,
    run_experiment,
    run_verify,
    with_noise,
)
from saddlescape import harness, verify
from saddlescape.cli import main
from saddlescape.harness import _resolve_knobs, build_payload


class TestExperimentConfig:
    @pytest.mark.parametrize("alg", ["adam", "pgd-nc", "sgd-nc"])
    def test_rejects_unknown_algorithm(self, alg):
        with pytest.raises(ParameterError, match="unknown algorithm"):
            ExperimentConfig(algorithm=alg, landscape="quartic")

    def test_rejects_bad_mode_and_trials(self):
        with pytest.raises(ParameterError):
            ExperimentConfig(algorithm="nc", landscape="quartic", mode="fast")
        with pytest.raises(ParameterError):
            ExperimentConfig(algorithm="nc", landscape="quartic", trials=0)

    @pytest.mark.parametrize("field", [{"landscape": 5}, {"landscape": None}, {"out": 123}])
    def test_rejects_non_text_landscape_and_out(self, field):
        with pytest.raises(ParameterError, match="must be a string"):
            ExperimentConfig(**{"algorithm": "nc", "landscape": "quartic", **field})

    @pytest.mark.parametrize("out", ["", "r/", ".csv", "r/.csv"])
    def test_rejects_empty_out(self, out):
        # An empty out would run every trial and write nothing; an empty file
        # name would write the hidden files .csv and .summary.json.
        match = f"^out must be a string naming a file, got {out!r}$"
        with pytest.raises(ParameterError, match=match):
            ExperimentConfig(algorithm="nc", landscape="quartic", out=out)

    def test_runs_the_largest_seed(self):
        # Seeds from 0 to 2**64 - 1 each key their own streams.
        cfg = ExperimentConfig(algorithm="snc", landscape="cubic", trials=1, seed=2**64 - 1)
        assert run_experiment(cfg).rows[0].seed == 2**64 - 1

    def test_rejects_knob_the_algorithm_never_reads(self):
        with pytest.raises(ParameterError, match="never reads exploit_step"):
            ExperimentConfig(algorithm="pgd", landscape="quartic", exploit_step=0.3)
        with pytest.raises(ParameterError, match="never reads outer_batch"):
            ExperimentConfig(algorithm="nc", landscape="quartic", mode="paper", outer_batch=4)
        # A range error still comes first.
        with pytest.raises(ParameterError, match="exploit_step must be positive"):
            ExperimentConfig(algorithm="pgd", landscape="quartic", exploit_step=0.0)

    def test_recipes_and_needs_lie_within_the_read_knobs(self):
        for (alg, _), recipe in harness.RECIPES.items():
            assert set(recipe) <= set(harness._ALGORITHMS[alg].reads), alg
        for entry in harness._ALGORITHMS.values():
            assert set(entry.needs) <= set(entry.reads)

    @pytest.mark.parametrize("arm, baseline, family", [
        ("nc", "pgd", "quartic"), ("snc", "psgd", "cubic"),
        ("ancgd", "pagd", "quartic"), ("nc", "pgd", "highdim"),
    ])
    def test_equal_budget_pair_shares_its_knobs(self, arm, baseline, family):
        # A curvature arm and its baseline run at one step size, radius and
        # budget, and are scored against one escape bar.
        a, b = harness.RECIPES[arm, family], harness.RECIPES[baseline, family]
        assert {"eta", "radius", "steps", "threshold"} <= a.keys() & b.keys()
        assert {k: a[k] for k in a.keys() & b.keys()} == {k: b[k] for k in a.keys() & b.keys()}

    def test_recipe_overlay_precedence(self):
        cfg = ExperimentConfig(algorithm="nc", landscape="quartic", eta=0.123)
        knobs = _resolve_knobs(cfg)
        assert knobs["eta"] == 0.123
        assert knobs["radius"] == 0.1
        assert knobs["ncf_steps"] == 30

    def test_unreciped_landscape_needs_explicit_knobs(self):
        cfg = ExperimentConfig(algorithm="ancgd", landscape="triangle", trials=1)
        with pytest.raises(ParameterError, match="explicit settings"):
            run_experiment(cfg)

    def test_payload_threshold_defaults_to_gap_fraction(self):
        cfg = ExperimentConfig(algorithm="nc", landscape="quartic", threshold=None)
        payload = build_payload(cfg, get_landscape("quartic"))
        # Saddle value 0, minimum value -1: escape bar is 90% of the gap.
        assert payload["threshold"] == pytest.approx(0.9)

    @pytest.mark.parametrize("mode, calls", [("experiment", 0), ("paper", 1)])
    def test_gap_bound_computed_at_most_once(self, monkeypatch, mode, calls):
        # The pgd recipe sets the escape threshold, so experiment mode never
        # needs the gap bound; paper mode takes it once for every trial's
        # budget and the default threshold.
        gap_bound = harness._gap_bound
        seen = []
        monkeypatch.setattr(
            harness, "_gap_bound", lambda land, x0: seen.append(x0) or gap_bound(land, x0)
        )
        cfg = ExperimentConfig(
            algorithm="pgd", landscape="quartic", mode=mode, trials=5, steps=20
        )
        run_experiment(cfg)
        assert len(seen) == calls

    def test_payload_keeps_explicit_delta_f(self):
        cfg = ExperimentConfig(algorithm="nc", landscape="quartic", mode="paper", delta_f=2.5)
        land = get_landscape("quartic")
        payload = build_payload(cfg, land)
        spec = land.oracle.spec
        derived = derive_params_for("nc", spec.ell, spec.rho, 0.01, 0.1, land.dim, delta_f=2.5)
        assert payload["params"].total_steps == derived.total_steps
        assert payload["threshold"] == pytest.approx(0.9)

    @pytest.mark.parametrize(
        "alg, land_id, budget, fits_one_trial",
        [
            ("nc", "triangle", 14971077, True),
            ("snc", "triangle", 14971077, True),
            ("ancgd", "highdim-10-soft", 3712188226, False),
            ("nc", "exponential", 3072000, True),
            ("snc", "cubic", 5738301, True),
            ("pgd", "triangle", 4400000, True),
        ],
    )
    def test_derived_budget_cap(self, alg, land_id, budget, fits_one_trial):
        # Derived paper-mode budgets at the default eps meet the one work cap,
        # trials * (budget + 1) * (n + _STEP_COORDS) <= MAX_WORK, as given ones do.
        land = get_landscape(land_id)
        work = (budget + 1) * (land.dim + harness._STEP_COORDS)
        assert (work <= harness.MAX_WORK) == fits_one_trial
        for trials in (1, 100):
            cfg = ExperimentConfig(algorithm=alg, landscape=land_id, mode="paper", trials=trials)
            if trials * work <= harness.MAX_WORK:
                assert build_payload(cfg, land)["params"].total_steps == budget
            else:
                refusal = f"^{trials} trials of {budget} steps at n={land.dim} exceed the work cap"
                with pytest.raises(ParameterError, match=refusal):
                    build_payload(cfg, land)
        capped = dataclasses.replace(cfg, steps=200)
        assert build_payload(capped, land)["params"].total_steps == 200

    def test_work_cap(self):
        # trials * (steps + 1) * (n + _STEP_COORDS) may reach MAX_WORK, not pass it.
        land = get_landscape("quartic")
        most = harness.MAX_WORK // (1000 * (land.dim + harness._STEP_COORDS))
        cfg = ExperimentConfig(algorithm="nc", landscape="quartic", trials=most, steps=999)
        assert build_payload(cfg, land)["params"].total_steps == 999
        with pytest.raises(ParameterError, match=f"^{most + 1} trials of 999 steps at n=2 "):
            build_payload(dataclasses.replace(cfg, trials=most + 1), land)

    def test_x0_dimension_checked(self):
        cfg = ExperimentConfig(
            algorithm="nc", landscape="quartic", trials=1, x0=(0.0, 0.0, 0.0)
        )
        with pytest.raises(ParameterError):
            build_payload(cfg, get_landscape("quartic"))

    @pytest.mark.parametrize(
        "x0", [1, "1,0", (1, "a"), ((1, 0), (0, 1)), (True, 0.0)], ids=repr
    )
    def test_x0_must_be_flat_finite_numbers(self, x0):
        with pytest.raises(ParameterError, match="x0 must be"):
            ExperimentConfig(algorithm="pgd", landscape="quartic", trials=1, x0=x0)

    def test_x0_past_the_floats_is_refused(self):
        # 2**1100 has no float, so a math.isfinite check of it raises OverflowError.
        with pytest.raises(ParameterError, match="^x0 must be a finite numeric vector"):
            ExperimentConfig(algorithm="nc", landscape="quartic", x0=(1, 2**1100))


def _summary_of(decreases) -> dict:
    """summary() of an experiment whose trials decreased f by decreases."""
    cfg = ExperimentConfig(algorithm="nc", landscape="quartic", trials=len(decreases))
    rows = [harness.TrialResult(k, 0, 1, 0.0, -d, d, d > 0.1) for k, d in enumerate(decreases)]
    return harness.ExperimentResult(cfg, rows, 0.1, 1).summary()


class TestHistogramSummary:
    def test_summary_bins(self):
        summary = _summary_of([0.01, 0.06, 0.99, 1.0])
        assert summary["bin_width"] == 0.05
        assert summary["bin_edges"][0] == 0.0
        assert summary["bin_edges"][-1] == pytest.approx(1.0)
        assert len(summary["bin_edges"]) == len(summary["counts"]) + 1
        assert sum(summary["counts"]) == 4
        assert summary["counts"][0] == 1
        assert summary["counts"][1] == 1

    def test_negative_decreases_extend_left(self):
        summary = _summary_of([-0.12, 0.3])
        assert summary["bin_edges"][0] == pytest.approx(-0.15)
        assert sum(summary["counts"]) == 2


class TestRunExperiment:
    def test_rows_ordered_and_summary_consistent(self):
        cfg = ExperimentConfig(
            algorithm="nc", landscape="quartic", trials=8, seed=3
        )
        res = run_experiment(cfg)
        assert [r.trial for r in res.rows] == list(range(8))
        assert all(r.seed == 3 for r in res.rows)
        summary = res.summary()
        assert summary["trials"] == 8
        assert summary["escape_rate"] == pytest.approx(res.escape_rate)
        assert res.escape_rate + res.fail_rate == pytest.approx(1.0)

    def test_landscape_built_once_per_experiment(self, monkeypatch):
        calls = []
        real = harness.get_landscape

        def counting(land_id):
            calls.append(land_id)
            return real(land_id)

        monkeypatch.setattr(harness, "get_landscape", counting)
        run_experiment(ExperimentConfig(algorithm="nc", landscape="quartic", trials=8, jobs=1))
        assert calls == ["quartic"]

    def test_noisy_oracle_built_once_per_experiment(self, monkeypatch):
        # The payload carries the oracle every trial queries.
        built = []
        real = AdditiveNoiseOracle.__init__
        monkeypatch.setattr(
            AdditiveNoiseOracle, "__init__", lambda self, *a: built.append(a) or real(self, *a)
        )
        run_experiment(ExperimentConfig(algorithm="snc", landscape="cubic", trials=5))
        assert len(built) == 1
        land = get_landscape("quartic")
        payload = build_payload(ExperimentConfig(algorithm="nc", landscape="quartic"), land)
        assert payload["oracle"] is land.oracle and "sigma" not in payload

    @pytest.mark.parametrize(
        "algorithm, landscape, trials",
        [("pgd", "quartic", 6), ("snc", "cubic", 13)],  # 13 = uneven shares under 2 jobs
    )
    def test_serial_and_parallel_outputs_identical(
        self, tmp_path, two_cpus, algorithm, landscape, trials
    ):
        outs = {}
        for jobs in (1, 2):
            out = str(tmp_path / f"jobs{jobs}")
            cfg = ExperimentConfig(
                algorithm=algorithm, landscape=landscape, trials=trials, seed=0,
                jobs=jobs, out=out,
            )
            run_experiment(cfg)
            outs[jobs] = (
                (tmp_path / f"jobs{jobs}.csv").read_bytes(),
                (tmp_path / f"jobs{jobs}.summary.json").read_bytes(),
            )
        assert outs[1][0] == outs[2][0]
        # Summaries differ only in the echoed jobs/out fields.
        s1 = json.loads(outs[1][1])
        s2 = json.loads(outs[2][1])
        for s in (s1, s2):
            s["config"].pop("jobs")
            s["config"].pop("out")
        assert s1 == s2

    def test_out_writes_csv_and_summary(self, tmp_path):
        out = str(tmp_path / "res.csv")
        cfg = ExperimentConfig(
            algorithm="nc", landscape="quartic", trials=3, seed=0, out=out
        )
        res = run_experiment(cfg)
        csv_lines = (tmp_path / "res.csv").read_text().strip().split("\n")
        assert csv_lines[0] == "trial,seed,t,f0,f_final,decrease,escaped"
        assert len(csv_lines) == 4
        # repr-formatted floats round-trip exactly.
        first = csv_lines[1].split(",")
        assert float(first[5]) == res.rows[0].decrease
        summary = json.loads((tmp_path / "res.summary.json").read_text())
        assert summary["algorithm"] == "nc"
        assert summary["counts"] == res.summary()["counts"]

    @pytest.mark.parametrize("mode", ["experiment", "paper"])
    @pytest.mark.parametrize("alg", harness.ALGORITHMS)
    def test_params_built_once_per_experiment(self, monkeypatch, alg, mode):
        calls = []
        row = harness._ALGORITHMS[alg]

        def spy(setting):
            calls.append(setting)
            return row.build(setting)

        monkeypatch.setitem(harness._ALGORITHMS, alg, dataclasses.replace(row, build=spy))
        land_id = "cubic" if alg in ("snc", "psgd") else "quartic"
        cfg = ExperimentConfig(algorithm=alg, landscape=land_id, mode=mode, steps=12)
        assert len(run_experiment(cfg).rows) == 100
        assert len(calls) == 1

    def test_start_point_is_read_only_and_shared(self, monkeypatch):
        seen = []
        real = harness.pgd_nc_run
        monkeypatch.setattr(
            harness, "pgd_nc_run",
            lambda *args, **kwargs: seen.append(args[1]) or real(*args, **kwargs),
        )
        run_experiment(ExperimentConfig(algorithm="nc", landscape="quartic", trials=3))
        assert seen[0] is seen[1] is seen[2]
        assert not seen[0].flags.writeable

    @pytest.mark.parametrize("alg", ["pagd", "ancgd"])
    def test_derives_only_unset_momentum_constants(self, alg):
        # In paper mode both momentum loops re-derive each constant no knob
        # sets, at the run's eta.
        land = get_landscape("quartic")
        rho = land.oracle.spec.rho

        def params(**knobs):
            cfg = ExperimentConfig(alg, "quartic", mode="paper", steps=12, **knobs)
            return build_payload(cfg, land)["params"]

        p = params(theta=0.3)
        assert (p.theta, p.gamma) == (0.3, 0.3**2 / p.eta)
        assert p.nce_radius == p.gamma / (4.0 * rho)
        p = params(gamma=0.05)
        assert (p.theta, p.gamma, p.nce_radius) == (params().theta, 0.05, 0.05 / (4.0 * rho))
        assert params(nce_radius=0.01).nce_radius == 0.01
        p = params(eta=0.01)
        assert (p.eta, p.theta, p.gamma) == (0.01, params().theta, params().theta**2 / 0.01)
        assert p.nce_radius == p.gamma / (4.0 * rho)

    def test_reruns_are_deterministic(self):
        cfg = ExperimentConfig(algorithm="snc", landscape="cubic", trials=3, seed=1)
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        assert [r.f_final for r in a.rows] == [r.f_final for r in b.rows]


class OddError(Exception):
    """Pickles, but cannot be unpickled: its args hold one of its two."""

    def __init__(self, a, b):
        super().__init__(a)


class TestProcessPool:
    """The fork-join trial workers.  At most two are alive at any time in
    these tests, and the forks fixture checks that none is left behind."""

    @staticmethod
    def _cfg(jobs, out=None, **kw):
        kw = {"algorithm": "pgd", "landscape": "quartic", "trials": 6, **kw}
        return ExperimentConfig(seed=0, jobs=jobs, out=out, **kw)

    def test_jobs_capped_at_available_cpus(self, two_cpus):
        assert [harness._resolve_jobs(j) for j in (None, 1, 2, 3, 100000)] == [1, 1, 2, 2, 2]

    def test_cpu_count_fallback(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert harness._resolve_jobs(8) == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert harness._resolve_jobs(8) == 1

    def test_serial_without_fork(self, monkeypatch, two_cpus):
        monkeypatch.delattr(os, "fork")
        assert harness._resolve_jobs(2) == 1
        assert len(run_experiment(self._cfg(2)).rows) == 6

    def test_workers_never_wider_than_cpus(self, forks):
        rows = run_experiment(self._cfg(100000, trials=100)).rows
        assert len(forks) == 1
        assert rows == run_experiment(self._cfg(1, trials=100)).rows
        assert len(forks) == 1

    def test_nothing_forks_for_one_worker_or_a_bad_payload(self, forks, trials_run):
        run_experiment(self._cfg(2, trials=1))
        run_experiment(self._cfg(1))
        with pytest.raises(ParameterError):
            run_experiment(self._cfg(2, x0=(1.0,)))
        assert forks == []
        assert trials_run == [0, 0, 1, 2, 3, 4, 5]

    def test_one_fork_per_sweep(self, forks, trials_run):
        rows = run_dimension_scaling([1, 2, 3], trials=4, jobs=2)
        assert len(forks) == 1
        # This process runs every other (experiment, trial) pair of the six
        # experiments; the child runs the rest.
        assert trials_run == [0, 2] * 6
        assert rows == run_dimension_scaling([1, 2, 3], trials=4, jobs=1)

    def test_child_error_reaches_the_caller(self, forks, monkeypatch, capsys):
        parent, real = os.getpid(), harness._run_trial

        def run_trial(payload, trial):
            if os.getpid() != parent:
                raise DivergenceError(f"trial {trial} left the trust region")
            return real(payload, trial)

        monkeypatch.setattr(harness, "_run_trial", run_trial)
        with pytest.raises(DivergenceError, match="^trial 1 left the trust region$"):
            run_experiment(self._cfg(2))
        argv = ["run", "--alg", "pgd", "--fn", "quartic", "--trials", "6", "--jobs", "2"]
        assert main(argv) == 3
        assert capsys.readouterr().err == "diverged: trial 1 left the trust region\n"
        assert len(forks) == 2

    def test_parent_error_kills_a_blocked_child(self, forks, monkeypatch):
        parent = os.getpid()

        def run_trial(payload, trial):
            if os.getpid() != parent:
                time.sleep(60)
            raise DivergenceError("failed in the parent's share")

        monkeypatch.setattr(harness, "_run_trial", run_trial)
        start = time.perf_counter()
        with pytest.raises(DivergenceError, match="parent's share"):
            run_experiment(self._cfg(2))
        assert time.perf_counter() - start < 5.0
        assert len(forks) == 1

    @pytest.mark.parametrize(
        "child, message",
        [
            (lambda: (lambda: None), "could not send the result"),
            (lambda: ValueError(lambda: None), "could not send the error ValueError"),
            (lambda: OddError("a", "b"), "without a readable result"),
            (lambda: os._exit(1), "without a readable result"),
        ],
        ids=["result", "error", "unreadable-error", "exit"],
    )
    def test_unsendable_or_missing_result_is_an_error(self, forks, child, message):
        parent = os.getpid()

        def fn(task):
            if os.getpid() == parent:
                return task
            out = child()
            if isinstance(out, Exception):
                raise out
            return out

        with pytest.raises(AlgorithmError, match=message):
            harness._fork_map(fn, [0, 1])
        assert len(forks) == 1


class TestDimensionScaling:
    def test_single_dimension_row(self):
        rows = run_dimension_scaling([1], trials=10, seed=0)
        (row,) = rows
        assert row["n"] == 10
        assert row["nc_steps"] == 30
        assert row["pgd_steps"] == 30
        assert row["nc_escape_rate"] >= row["pgd_escape_rate"] - 0.05

    def test_rejects_p_below_one(self):
        with pytest.raises(ParameterError):
            run_dimension_scaling([0], trials=1)

    def test_rejects_empty_out_before_any_trial(self, trials_run):
        with pytest.raises(ParameterError, match="^out must be a string naming a file, got ''$"):
            run_dimension_scaling([1], trials=2, out="")
        assert trials_run == []

    def test_rejects_p_beyond_the_largest_highdim_before_any_trial(self, trials_run):
        with pytest.raises(ParameterError, match=r"^p=5000 .* n <= 1000000$"):
            run_dimension_scaling([5000], trials=1)
        assert trials_run == []

    @pytest.mark.parametrize("ps, message", [
        ("12", "ps must be a list of exponents, got the string '12'"),
        ([], "ps must list at least one exponent"),
        (None, "ps must be a list of exponents, got None"),
        (5, "ps must be a list of exponents, got 5"),
    ], ids=["string", "empty", "none", "int"])
    def test_rejects_ps_that_is_not_a_list_of_exponents_before_any_trial(
        self, ps, message, tmp_path, trials_run
    ):
        out = tmp_path / "dims.csv"
        with pytest.raises(ParameterError, match=f"^{message}$"):
            run_dimension_scaling(ps, trials=2, out=str(out))
        assert trials_run == []
        assert not out.exists()

    @pytest.mark.parametrize("out", [5, b"dims.csv"], ids=["int", "bytes"])
    def test_rejects_out_that_is_not_a_string(self, out, tmp_path, monkeypatch, trials_run):
        # As ExperimentConfig does; bytes would otherwise name a file.
        monkeypatch.chdir(tmp_path)
        match = f"^out must be a string naming a file, got {out!r}$"
        with pytest.raises(ParameterError, match=match):
            run_dimension_scaling([1], trials=2, out=out)
        assert trials_run == []
        assert list(tmp_path.iterdir()) == []

    def test_out_csv(self, tmp_path):
        out = str(tmp_path / "dims.csv")
        run_dimension_scaling([1], trials=5, seed=0, out=out)
        lines = (tmp_path / "dims.csv").read_text().strip().split("\n")
        assert lines[0].startswith("p,n,trials")
        assert len(lines) == 2


def _broken_landscape() -> Landscape:
    # Declares the wrong minimum value and an understated smoothness bound.
    oracle = GradientOracle(
        f=lambda x: float(0.5 * x @ x),
        grad=lambda x: np.asarray(x, dtype=float),
        spec=SmoothnessSpec(0.5, 1.0),
        dim=2,
    )
    saddle = SaddleInfo(
        point=np.zeros(2),
        lambda_min=-1.0,
        direction=np.array([1.0, 0.0]),
        ell_local=1.0,
        rho_local=1.0,
    )
    return Landscape(
        id="broken",
        oracle=oracle,
        box=(-2.0, 2.0),
        saddles=[saddle],
        minima=[(np.zeros(2), -1.0)],
        hessian=lambda x: np.eye(2),
    )


def _audit(monkeypatch, land: Landscape):
    """run_verify's report on land, which the registry hands out as land.id."""
    registry = verify.get_landscape
    monkeypatch.setattr(verify, "get_landscape", lambda i: land if i == land.id else registry(i))
    return run_verify(ids=[land.id])


class TestRunVerify:
    def test_catalog_passes(self):
        report = run_verify(ids=VERIFY_IDS)
        assert report.ok
        assert not report.failures
        assert {e["landscape"] for e in report.entries} == set(VERIFY_IDS)
        for entry in report.entries:
            assert all(c["ok"] for c in entry["checks"])
            assert "saddle-0-stationary" in {c["name"] for c in entry["checks"]}

    def test_broken_landscape_flagged(self, monkeypatch):
        report = _audit(monkeypatch, _broken_landscape())
        assert not report.ok
        names = {f.split(": ")[1] for f in report.failures}
        # The declared minimum value is wrong (bowl bottom is 0, not -1), the
        # declared eigenvalue is wrong, and ell understates the spectrum.
        assert "minimum-0-value" in names
        assert "saddle-0-eigenvalue" in names
        assert "spectrum-bound" in names
        failed = [c for c in report.entries[0]["checks"] if not c["ok"]]
        assert report.failures == [f"broken: {c['name']}: {c['detail']}" for c in failed]

    @pytest.mark.parametrize(
        "shift, check",
        [("saddles", "saddle-0-stationary"), ("minima", "minimum-0-stationary")],
    )
    def test_declared_point_off_critical_flagged(self, shift, check, monkeypatch):
        # Move the first declared saddle or minimum of the quartic off its
        # critical point: only the stationarity checks see the gradient.
        land = get_landscape("quartic")
        if shift == "saddles":
            moved = dataclasses.replace(land.saddles[0], point=np.array([0.0, 1e-3]))
            land = dataclasses.replace(land, saddles=[moved])
        else:
            moved = (np.array([2.0, 1e-3]), land.minima[0][1])
            land = dataclasses.replace(land, minima=[moved])
        report = _audit(monkeypatch, land)
        assert f"quartic: {check}" in {f.rsplit(": ", 1)[0] for f in report.failures}

    def test_rejects_an_empty_list(self):
        # Only ids=None means the VERIFY_IDS default.
        with pytest.raises(ParameterError, match="^verify needs at least one landscape$"):
            run_verify(ids=[])

    def test_rejects_a_string_of_ids(self):
        # A string would be read one character at a time: "q", "u", ...
        with pytest.raises(ParameterError, match="^ids must be a list of landscape ids"):
            run_verify(ids="quartic")

    def test_rejects_what_is_not_a_list_by_name(self):
        # Unchecked, an int fails later with a TypeError.
        with pytest.raises(ParameterError, match="^ids must be a list of landscape ids, got 5$"):
            run_verify(ids=5)

    def test_takes_only_ids(self):
        assert list(inspect.signature(run_verify).parameters) == ["ids"]


class TestDeriveParamsFor:
    def test_ncf_matches(self):
        out = derive_params_for("ncf", 1.0, 1.0, 0.01, 0.1, 2)
        assert out == derive_nc_params(SmoothnessSpec(1.0, 1.0), 0.01, 0.1, 2)
        assert out.steps == 351

    @pytest.mark.parametrize("land_id", VERIFY_IDS)
    @pytest.mark.parametrize("alg", harness.ALGORITHMS)
    def test_equals_paper_mode(self, alg, land_id):
        # At the landscape's declared constants and an explicit gap bound,
        # the params are those run --mode paper builds; where the work cap
        # refuses the derived budget at one trial, --steps sets it.
        land = get_landscape(land_id)
        spec = land.oracle.spec
        ell_tilde = with_noise(land, 0.01).ell_tilde if alg == "snc" else None
        out = derive_params_for(alg, spec.ell, spec.rho, 0.01, 0.1, land.dim, 1.5, ell_tilde)
        cfg = ExperimentConfig(
            algorithm=alg, landscape=land_id, mode="paper", trials=1, delta_f=1.5
        )
        if (out.total_steps + 1) * (harness._STEP_COORDS + land.dim) > harness.MAX_WORK:
            cfg = dataclasses.replace(cfg, steps=200)
            out = dataclasses.replace(out, total_steps=200)
        assert build_payload(cfg, land)["params"] == out

    @pytest.mark.parametrize("alg", ["pgd-nc", "sgd-nc", "adam", ["nc"]])
    def test_unknown_algorithm(self, alg):
        with pytest.raises(ParameterError, match="unknown algorithm"):
            derive_params_for(alg, 1.0, 1.0, 0.1, 0.1, 2, 1.0)

    @pytest.mark.parametrize(
        "alg, given, unread",
        [
            ("ncf", dict(delta_f=1.0), "delta_f"),
            ("ncf", dict(ell_tilde=1.0), "ell_tilde"),
            ("nc", dict(ell_tilde=1.0), "ell_tilde"),
            ("pgd", dict(ell_tilde=1.0), "ell_tilde"),
        ],
    )
    def test_unread_input_refused(self, alg, given, unread):
        with pytest.raises(ParameterError, match=f"never reads {unread}"):
            derive_params_for(alg, 1.0, 1.0, 0.1, 0.1, 2, **given)

    @pytest.mark.parametrize("ell_tilde, read", [(None, 1.0), (3.0, 3.0)])
    def test_snc_search_reads_ell_tilde(self, ell_tilde, read):
        # Only the minibatch, 160 (ell + ell_tilde) / (delta sqrt(rho eps)) *
        # sqrt(steps iota), reads ell_tilde; ell = 1 here.
        one = derive_params_for("snc", 1.0, 1.0, 0.1, 0.1, 2, ell_tilde=1.0).search
        out = derive_params_for("snc", 1.0, 1.0, 0.1, 0.1, 2, ell_tilde=ell_tilde).search
        assert out == dataclasses.replace(one, batch=out.batch)
        assert out.batch == pytest.approx(one.batch * (1.0 + read) / 2.0, rel=1e-9)

    def test_ell_tilde_zero_is_not_unset(self):
        with pytest.raises(ParameterError, match="ell_tilde must be positive"):
            derive_params_for("snc", 1.0, 1.0, 0.1, 0.1, 2, ell_tilde=0.0)

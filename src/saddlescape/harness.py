"""Seeded experiment harness: configs and knobs, trial runners, escape
histograms and scaling sweeps."""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
import os
import pickle
import signal
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

# The six run functions are module globals that _trial_trace looks up by
# name at call time, so a wrapper installed on this module sees every trial.
from .ancgd import ANCParams, ancgd_run
from .core import (
    AlgorithmError,
    Array,
    DivergenceError,
    ParameterError,
    RngStream,
    SmoothnessSpec,
    _is_number,
    require_bound,
    require_count,
    require_finite,
    require_fraction,
    require_list,
    require_nonnegative,
    require_positive,
    require_vector,
)
from .drivers import BaselineParams, pagd_run, pgd_nc_run, pgd_run, psgd_run
from .ncfind import NCDescentParams, NCParams
from .schedules import _ancgd, _baseline, _descent, _Setting, derive_nc_params
from .stochastic import sgd_nc_run
from .testbed import Landscape, get_landscape, with_noise


BIN_WIDTH = 0.05
_NEVER = 10**9
# The largest budget a run takes from a derivation; a larger one needs steps.
MAX_DERIVED_STEPS = 10**7
# The most work an experiment may take, as trials * (steps + 1) * (step cost): a step
# costs _STEP_COORDS coordinates plus n, or 6 n past 2**14 floats (128 KiB), where nc's
# time per coordinate about quadruples.  An hour or so of nc at each n from 2 to 10**6.
MAX_WORK = 10**12
_STEP_COORDS = 1500

# Calibrated equal-budget settings for the desk-scale comparisons.  Keyed by
# (algorithm, landscape family); missing knobs fall back to derived values
# where a formula exists and otherwise must be supplied explicitly.  Each
# curvature arm and its baseline extend one dict of the knobs they share.
_QUARTIC = dict(eta=0.05, radius=0.1, grad_threshold=0.05, steps=90, threshold=0.9)
_CUBIC = dict(eta=0.02, radius=0.01, sigma=0.01, batch=1, steps=60, threshold=0.6)
_QUARTIC_MOMENTUM = dict(
    eta=0.05, radius=0.08, grad_threshold=0.02, steps=40, threshold=0.9,
    theta=0.042, gamma=0.0355, nce_radius=0.0089,
)
_HIGHDIM = dict(eta=0.2, radius=0.1, grad_threshold=0.05, steps=30, threshold=0.9)
RECIPES: dict[tuple[str, str], dict] = {
    ("nc", "quartic"): dict(_QUARTIC, ncf_steps=30, exploit_step=1.0, eps=0.05),
    ("pgd", "quartic"): dict(_QUARTIC, cooldown=_NEVER),
    ("snc", "cubic"): dict(_CUBIC, outer_batch=10, ncf_steps=45, exploit_step=0.5, eps=0.5),
    ("psgd", "cubic"): dict(_CUBIC, grad_threshold=0.05, cooldown=10),
    ("ancgd", "quartic"): dict(_QUARTIC_MOMENTUM, ncf_steps=20, exploit_step=1.2, eps=0.02),
    ("pagd", "quartic"): dict(_QUARTIC_MOMENTUM, cooldown=_NEVER),
    ("nc", "highdim"): dict(_HIGHDIM, ncf_steps=28, exploit_step=2.0, eps=0.05),
    ("pgd", "highdim"): dict(_HIGHDIM, cooldown=_NEVER),
}


@dataclass
class ExperimentConfig:
    """One experiment: algorithm, landscape, trial plan, and knob overrides.

    None means "use the recipe or derived default".  steps counts iterations
    beyond the initial record; every curvature-search step and exploit step
    is billed against it, so arms with equal steps see equal oracle budgets.
    """

    algorithm: str
    landscape: str
    mode: str = "experiment"
    trials: int = 100
    seed: int = 0
    steps: int | None = None
    eps: float | None = None
    delta: float | None = None
    delta_f: float | None = None
    eta: float | None = None
    radius: float | None = None
    sigma: float | None = None
    batch: int | None = None
    outer_batch: int | None = None
    ncf_steps: int | None = None
    exploit_step: float | None = None
    grad_threshold: float | None = None
    cooldown: int | None = None
    threshold: float | None = None
    theta: float | None = None
    gamma: float | None = None
    nce_radius: float | None = None
    x0: tuple | None = None
    jobs: int | None = None
    out: str | None = None
    trust_region: float = 1e6

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ParameterError(
                f"unknown algorithm {self.algorithm!r}; choose from {ALGORITHMS}"
            )
        if not isinstance(self.landscape, str):
            raise ParameterError(f"landscape must be a string, got {self.landscape!r}")
        # out less ".csv" must end in a file name, so "r/" and ".csv" are refused.
        if self.out is not None and not (
            isinstance(self.out, str) and os.path.basename(self.out.removesuffix(".csv"))
        ):
            raise ParameterError(f"out must be a string naming a file, got {self.out!r}")
        if self.mode not in ("paper", "experiment"):
            raise ParameterError(f"mode must be 'paper' or 'experiment', got {self.mode!r}")
        if not (_is_number(self.seed, numbers.Integral) and 0 <= self.seed < 2**64):
            raise ParameterError(f"seed must be an integer from 0 to {2**64 - 1}, got {self.seed}")
        require_finite(threshold=self.threshold)
        if self.trust_region is not None:
            require_bound(trust_region=self.trust_region)
        require_positive(
            eta=self.eta, radius=self.radius, eps=self.eps, delta_f=self.delta_f,
            exploit_step=self.exploit_step, gamma=self.gamma, nce_radius=self.nce_radius,
        )
        require_nonnegative(sigma=self.sigma, grad_threshold=self.grad_threshold)
        require_count(
            trials=self.trials, steps=self.steps, batch=self.batch,
            outer_batch=self.outer_batch, ncf_steps=self.ncf_steps, jobs=self.jobs,
        )
        require_count(least=0, cooldown=self.cooldown)
        require_fraction(delta=self.delta, theta=self.theta)
        if self.x0 is not None and not (
            isinstance(self.x0, (tuple, list))
            and all(_is_number(v) and math.isfinite(v) for v in self.x0)
        ):
            raise ParameterError(
                f"x0 must be a flat sequence of finite numbers, got {self.x0!r}"
            )
        alg = _ALGORITHMS[self.algorithm]
        ignored = [n for n in _KNOBS if getattr(self, n) is not None and n not in alg.reads]
        if ignored:
            raise ParameterError(
                f"{self.algorithm!r} never reads {', '.join(ignored)}; leave it unset"
            )
        paper_only = [n for n in alg.paper_only if getattr(self, n) is not None]
        if paper_only and self.mode == "experiment":
            raise ParameterError(
                f"{self.algorithm!r} reads {', '.join(paper_only)} in paper mode only; "
                "leave it unset or use --mode paper"
            )


@dataclass(frozen=True)
class TrialResult:
    trial: int
    seed: int
    t: int
    f0: float
    f_final: float
    decrease: float
    escaped: bool


def _histogram(decreases: list[float]) -> tuple[list[float], list[int]]:
    """Bin edges, multiples of BIN_WIDTH covering [0, BIN_WIDTH] and every
    decrease, and the count of decreases in each bin."""
    vals = np.asarray(decreases, dtype=float)
    lo_bin = min(0, math.floor(float(vals.min()) / BIN_WIDTH)) if vals.size else 0
    hi_bin = max(1, math.ceil(float(vals.max()) / BIN_WIDTH)) if vals.size else 1
    edges = [round(i * BIN_WIDTH, 10) for i in range(lo_bin, hi_bin + 1)]
    counts, _ = np.histogram(vals, bins=edges)
    return edges, [int(c) for c in counts]


@dataclass
class ExperimentResult:
    """One experiment's rows; total_steps is the budget each trial ran
    (derived in paper mode), which summary() does not echo."""

    config: ExperimentConfig
    rows: list[TrialResult]
    threshold: float
    total_steps: int

    @property
    def escape_rate(self) -> float:
        return sum(r.escaped for r in self.rows) / len(self.rows)

    @property
    def fail_rate(self) -> float:
        return 1.0 - self.escape_rate

    @property
    def mean_decrease(self) -> float:
        return float(np.mean([r.decrease for r in self.rows]))

    def summary(self) -> dict:
        decreases = [r.decrease for r in self.rows]
        edges, counts = _histogram(decreases)
        return {
            "algorithm": self.config.algorithm,
            "landscape": self.config.landscape,
            "mode": self.config.mode,
            "trials": len(self.rows),
            "seed": self.config.seed,
            "threshold": self.threshold,
            "escape_rate": self.escape_rate,
            "fraction_below_threshold": self.fail_rate,
            "mean_decrease": self.mean_decrease,
            "min_decrease": float(np.min(decreases)),
            "max_decrease": float(np.max(decreases)),
            "bin_width": BIN_WIDTH,
            "bin_edges": edges,
            "counts": counts,
            "config": _config_echo(self.config),
        }


def _family(land_id: str) -> str:
    return land_id.split("-")[0]


def _config_echo(cfg: ExperimentConfig) -> dict:
    echo = {}
    for f in dataclasses.fields(cfg):
        v = getattr(cfg, f.name)
        if v is not None:
            echo[f.name] = list(v) if isinstance(v, tuple) else v
    return echo


# Config fields that plan the experiment; every other field is a knob.
_PLAN_FIELDS = ("algorithm", "landscape", "mode", "trials", "seed", "x0", "jobs", "out")
_KNOBS = tuple(
    f.name for f in dataclasses.fields(ExperimentConfig) if f.name not in _PLAN_FIELDS
)


def _resolve_knobs(cfg: ExperimentConfig) -> dict:
    """Recipe defaults for the (algorithm, landscape family) pair overlaid
    with every explicitly set config field.  Experiment mode must end up
    with every knob its parameter builder reads."""
    knobs: dict = {}
    if cfg.mode == "experiment":
        knobs.update(RECIPES.get((cfg.algorithm, _family(cfg.landscape)), {}))
    for name in _KNOBS:
        value = getattr(cfg, name)
        if value is not None:
            knobs[name] = value
    missing = [n for n in _ALGORITHMS[cfg.algorithm].needs if n not in knobs]
    if cfg.mode == "experiment" and missing:
        raise ParameterError(
            f"experiment mode for {cfg.algorithm!r} needs explicit settings for "
            f"{', '.join(missing)} (no recipe covers this landscape); "
            "pass them or use paper mode"
        )
    return knobs


def _start_point(x0, land: Landscape) -> Array:
    if x0 is not None:
        return require_vector(x0, "x0", land.dim)
    if not land.saddles:
        raise ParameterError(f"landscape {land.id} declares no saddle to start from")
    return land.saddles[0].point.copy()


def _gap_bound(land: Landscape, x0: Array) -> float:
    f0 = land.oracle.value(x0)
    if not math.isfinite(f0):
        raise DivergenceError(f"f(x0) = {f0} is not finite; no gap bound")
    if land.minima:
        floor = min(v for _, v in land.minima)
    else:
        floor = f0 - 1.0
    return max(f0 - floor, 1e-6)


_SEARCH_NEEDS = ("eta", "radius", "ncf_steps", "eps", "steps")
_BASELINE_NEEDS = ("eta", "radius", "grad_threshold", "steps")
# The knobs every algorithm reads, in at least one mode.
_COMMON_READS = (
    "steps", "eps", "delta", "delta_f", "eta", "radius", "grad_threshold", "cooldown",
    "threshold", "trust_region",
)
_SEARCH_READS = _COMMON_READS + ("ncf_steps", "exploit_step")
_MOMENTUM_READS = ("theta", "gamma", "nce_radius")
_NOISE_READS = ("sigma", "batch")
# Of those, the knobs only a paper derivation reads: the failure probability
# and the gap bound always, and eps for pgd and psgd (pagd keeps eps, which
# sets its momentum constants when no knob does).
_PAPER_ONLY = ("delta", "delta_f")
_BASELINE_PAPER_ONLY = _PAPER_ONLY + ("eps",)


@dataclass(frozen=True)
class _Algorithm:
    """What one algorithm is to the harness: the name of its run function
    (a module global, looked up at call time), its params builder (one of
    schedules' builders, called with a _Setting), the knobs experiment mode
    needs, the knobs it reads in either mode (a config that sets any other
    knob is refused), those of them that it reads in paper mode only
    (refused in experiment mode), and whether it sees the noisy oracle."""

    run: str
    build: Callable
    needs: tuple[str, ...]
    reads: tuple[str, ...]
    paper_only: tuple[str, ...]
    noisy: bool = False


# The one table of algorithms: ALGORITHMS, the CLI's --alg and
# derive_params_for all read it.
_ALGORITHMS = {
    "nc": _Algorithm("pgd_nc_run", _descent, _SEARCH_NEEDS, _SEARCH_READS, _PAPER_ONLY),
    "ancgd": _Algorithm(
        "ancgd_run", _ancgd, _SEARCH_NEEDS + _MOMENTUM_READS,
        _SEARCH_READS + _MOMENTUM_READS, _PAPER_ONLY,
    ),
    "snc": _Algorithm(
        "sgd_nc_run", partial(_descent, noisy=True), _SEARCH_NEEDS,
        _SEARCH_READS + _NOISE_READS + ("outer_batch",), _PAPER_ONLY, noisy=True,
    ),
    "pgd": _Algorithm("pgd_run", _baseline, _BASELINE_NEEDS, _COMMON_READS, _BASELINE_PAPER_ONLY),
    "pagd": _Algorithm(
        "pagd_run", partial(_baseline, momentum=True), _BASELINE_NEEDS,
        _COMMON_READS + _MOMENTUM_READS, _PAPER_ONLY,
    ),
    "psgd": _Algorithm(
        "psgd_run", _baseline, _BASELINE_NEEDS, _COMMON_READS + _NOISE_READS,
        _BASELINE_PAPER_ONLY, noisy=True,
    ),
}
ALGORITHMS = tuple(_ALGORITHMS)


def _trial_trace(payload: dict, trial: int):
    """Run one seeded trial of the payload's algorithm on its oracle, keeping no iterates."""
    run = globals()[_ALGORITHMS[payload["algorithm"]].run]
    # x0 and params stay positional: perfbench's wrappers read args[1] and args[2].
    stream = RngStream(payload["seed"], trial)
    return run(payload["oracle"], payload["x0"], payload["params"], stream, record="summary")


def _run_trial(payload: dict, trial: int) -> TrialResult:
    trace = _trial_trace(payload, trial)
    f0, f_final = trace.initial_f(), trace.final_f()
    decrease = f0 - f_final
    return TrialResult(
        trial=trial,
        seed=payload["seed"],
        t=trace.records[-1].t,
        f0=f0,
        f_final=f_final,
        decrease=decrease,
        escaped=decrease >= payload["threshold"],
    )


def _resolve_jobs(cfg_jobs: int | None) -> int:
    """jobs= (default 1), capped at the CPUs this process may use; 1 where
    os.fork does not exist."""
    if not hasattr(os, "fork"):
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return min(1 if cfg_jobs is None else cfg_jobs, cpus or 1)


def _fork_map(fn: Callable, tasks) -> list:
    """[fn(task) for task in tasks] for a non-empty sequence of tasks: the
    first task runs in this process, each other in an os.fork child.  A
    child inherits fn and what it closes over, so nothing is pickled on the
    way in; it pickles (ok, result or exception) into a pipe and leaves with
    os._exit.  Results are read in task order and a child's exception is
    re-raised here with its own type.  If anything fails, every child still
    running is killed; every child is reaped before this returns."""
    children: list[tuple[int, int]] = []  # (pid, read end of its pipe)
    done = False
    try:
        for task in tasks[1:]:
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:
                try:
                    os.close(r)
                    _send(w, fn, task)
                finally:
                    os._exit(0)
            os.close(w)
            children.append((pid, r))
        results = [fn(tasks[0])]
        for pid, r in children:
            with open(r, "rb", closefd=False) as fh:
                data = fh.read()
            try:
                ok, value = pickle.loads(data)
            except Exception as exc:
                raise AlgorithmError(
                    f"trial worker {pid} ended without a readable result ({exc!r})"
                ) from None
            if not ok:
                raise value
            results.append(value)
        done = True
        return results
    finally:
        for pid, r in children:
            if not done:
                os.kill(pid, signal.SIGKILL)
            os.close(r)
            os.waitpid(pid, 0)


def _send(fd: int, fn: Callable, task) -> None:
    """In a _fork_map child: run fn(task) and write what the parent reads."""
    try:
        out = (True, fn(task))
    except Exception as exc:
        out = (False, exc)
    try:
        data = pickle.dumps(out)
    except Exception as exc:
        what = "result" if out[0] else f"error {out[1]!r}"
        data = pickle.dumps((False, AlgorithmError(f"could not send the {what}: {exc!r}")))
    with open(fd, "wb") as fh:
        fh.write(data)


def build_payload(cfg: ExperimentConfig, land: Landscape) -> dict:
    """Resolve recipes and defaults into the work every trial shares: the
    params, the oracle the trials query (land's, or the noisy one over it),
    the read-only start point and the escape threshold; land is
    cfg.landscape, already built by the caller."""
    knobs = _resolve_knobs(cfg)
    alg = _ALGORITHMS[cfg.algorithm]
    paper = cfg.mode == "paper"
    x0 = _start_point(cfg.x0, land)
    x0.setflags(write=False)
    threshold, delta_f = knobs.get("threshold"), knobs.get("delta_f")
    # The gap bound f(x0) - min f sets the default escape threshold and, in
    # paper mode, the derived budgets; an explicit delta_f wins.
    if threshold is None or (delta_f is None and paper):
        gap = _gap_bound(land, x0)
        threshold = 0.9 * gap if threshold is None else threshold
        delta_f = gap if delta_f is None else delta_f
    spec = land.oracle.spec
    oracle = with_noise(land, knobs.get("sigma", 0.01)) if alg.noisy else land.oracle
    params = alg.build(_Setting(
        paper=paper, spec=spec, n=land.dim, knobs=knobs,
        eps=knobs.get("eps", 0.01), delta=knobs.get("delta", 0.1), delta_f=delta_f,
        rho_loc=land.saddles[0].rho_local if land.saddles else spec.rho,
        ell_tilde=oracle.ell_tilde if alg.noisy else spec.ell,
    ))
    if "steps" not in knobs and params.total_steps > MAX_DERIVED_STEPS:
        raise ParameterError(
            f"derived budget of {params.total_steps} steps exceeds {MAX_DERIVED_STEPS}; "
            "pass --steps"
        )
    step_cost = _STEP_COORDS + (land.dim if land.dim <= 2**14 else 6 * land.dim)
    if cfg.trials * (params.total_steps + 1) * step_cost > MAX_WORK:
        raise ParameterError(
            f"{cfg.trials} trials of {params.total_steps} steps at n={land.dim} exceed the "
            f"work cap of {MAX_WORK:.0e}; run fewer trials or steps"
        )
    return {
        "algorithm": cfg.algorithm,
        "landscape": cfg.landscape,
        "seed": cfg.seed,
        "x0": x0,
        "oracle": oracle,
        "threshold": float(threshold),
        "params": params,
    }


def derive_params_for(
    alg: str, ell: float, rho: float, eps: float, delta: float, n: int,
    delta_f: float | None = None, ell_tilde: float | None = None,
) -> NCParams | NCDescentParams | ANCParams | BaselineParams:
    """The paper-mode params of ncf (the curvature search alone, an NCParams)
    or of one of the six algorithms (what `run --mode paper` builds at these
    constants): the one path to them, and CLI `params`.  delta_f, the gap
    bound, defaults to 1 and ell_tilde to ell; ncf reads neither, and only
    snc reads ell_tilde."""
    spec = SmoothnessSpec(ell, rho)
    if alg != "ncf" and alg not in ALGORITHMS:
        raise ParameterError(f"unknown algorithm {alg!r}; choose ncf or one of {ALGORITHMS}")
    reads = {"ncf": (), "snc": ("delta_f", "ell_tilde")}.get(alg, ("delta_f",))
    given = {"delta_f": delta_f, "ell_tilde": ell_tilde}
    ignored = [name for name, v in given.items() if v is not None and name not in reads]
    if ignored:
        raise ParameterError(f"{alg!r} never reads {', '.join(ignored)}; leave it unset")
    if alg == "ncf":
        require_fraction(closed=True, delta=delta)  # derive_nc_params would name its delta0
        return derive_nc_params(spec, eps, delta, n)
    delta_f = 1.0 if delta_f is None else delta_f
    ell_tilde = ell if ell_tilde is None else ell_tilde
    require_positive(eps=eps, delta_f=delta_f, ell_tilde=ell_tilde)
    require_fraction(delta=delta)
    return _ALGORITHMS[alg].build(_Setting(
        paper=True, spec=spec, n=n, knobs={}, eps=eps, delta=delta, delta_f=delta_f,
        rho_loc=rho, ell_tilde=ell_tilde,
    ))


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Run cfg.trials seeded trials (trial index = stream id) and summarize."""
    return _run_experiments([cfg], cfg.jobs)[0]


def _run_experiments(cfgs: list[ExperimentConfig], jobs: int | None) -> list[ExperimentResult]:
    """Run each config's experiment, with every landscape and payload built,
    and so checked, before the first trial.  The (experiment, trial) pairs
    are dealt round-robin to at most jobs workers (see _fork_map), which
    keeps cheap and dear experiments of a sweep balanced.  The same
    per-trial entry point runs on every worker and rows go back into trial
    order, so outputs are byte-identical for any job count."""
    payloads, trials = [], []
    for cfg in cfgs:
        if cfg.out is not None:
            _check_out_dir(*_out_paths(cfg.out))
        payloads.append(build_payload(cfg, get_landscape(cfg.landscape)))
        trials += [(payloads[-1], trial) for trial in range(cfg.trials)]
    workers = max(1, min(_resolve_jobs(jobs), len(trials)))
    shares = _fork_map(lambda w: [_run_trial(*t) for t in trials[w::workers]], range(workers))
    rows: list = [None] * len(trials)
    for w, share in enumerate(shares):
        rows[w::workers] = share
    results = []
    for cfg, payload in zip(cfgs, payloads):
        own, rows = rows[: cfg.trials], rows[cfg.trials :]
        result = ExperimentResult(cfg, own, payload["threshold"], payload["params"].total_steps)
        if cfg.out is not None:
            csv_path, summary_path = _out_paths(cfg.out)
            write_csv(own, csv_path)
            with open(summary_path, "w") as fh:
                json.dump(result.summary(), fh, indent=2, sort_keys=True)
                fh.write("\n")
        results.append(result)
    return results


def _check_out_dir(*paths: str) -> None:
    """Fail before the first trial when an output path is not a string or is
    empty, its directory is missing or the path is itself a directory."""
    for path in paths:
        if not isinstance(path, str):
            raise ParameterError(f"out must be a string naming a file, got {path!r}")
        if not path:
            raise ParameterError("output path is empty")
        parent = os.path.dirname(path)
        if parent and not os.path.isdir(parent):
            raise ParameterError(f"output directory {parent!r} does not exist")
        if os.path.isdir(path):
            raise ParameterError(f"output path {path!r} is a directory")


def _out_paths(out: str) -> tuple[str, str]:
    base = out.removesuffix(".csv")
    return base + ".csv", base + ".summary.json"


def _write_table(path: str, columns, rows) -> None:
    """A CSV of the column names, then one line per row with each int or
    float cell written by str() (a float's repr)."""
    with open(path, "w") as fh:
        for row in [columns, *rows]:
            fh.write(",".join(map(str, row)) + "\n")


def write_csv(rows: list[TrialResult], path: str) -> None:
    _write_table(path, ("trial", "seed", "t", "f0", "f_final", "decrease", "escaped"), (
        (r.trial, r.seed, r.t, r.f0, r.f_final, r.decrease, int(r.escaped)) for r in rows
    ))


def run_dimension_scaling(
    ps,
    trials: int = 100,
    seed: int = 0,
    jobs: int | None = None,
    out: str | None = None,
) -> list[dict]:
    """Escape rates across dimensions n = 10**p under the published budgets:
    the curvature arm gets 30p iterations, the perturbation arm 20p**2 + 10.
    ps must list at least one exponent (a string is refused, not read as digits)."""
    ps = require_list(ps, "ps", "exponents")
    if not ps:
        raise ParameterError("ps must list at least one exponent")
    if out is not None:
        _check_out_dir(out)
    require_count(trials=trials)
    rows, cfgs = [], []
    for p in ps:
        require_count(p=p)
        n = 10**p
        nc_steps, pgd_steps = 30 * p, 20 * p * p + 10
        rows.append(
            {"p": p, "n": n, "trials": trials, "nc_steps": nc_steps, "pgd_steps": pgd_steps}
        )
        # The ("nc", "highdim") and ("pgd", "highdim") recipes supply every
        # other knob.
        cfgs += [
            ExperimentConfig(
                algorithm="nc", landscape=f"highdim-{n}", trials=trials, seed=seed,
                steps=nc_steps, ncf_steps=nc_steps - 2, jobs=jobs,
            ),
            ExperimentConfig(
                algorithm="pgd", landscape=f"highdim-{n}", trials=trials, seed=seed,
                steps=pgd_steps, jobs=jobs,
            ),
        ]
    # Every p is checked and every payload built before the first trial.
    results = _run_experiments(cfgs, jobs)
    for row, nc_res, pgd_res in zip(rows, results[::2], results[1::2]):
        row["nc_escape_rate"] = nc_res.escape_rate
        row["pgd_escape_rate"] = pgd_res.escape_rate
    if out is not None:
        cols = ("p", "n", "trials", "nc_steps", "pgd_steps", "nc_escape_rate", "pgd_escape_rate")
        _write_table(out, cols, ([r[c] for c in cols] for r in rows))
    return rows


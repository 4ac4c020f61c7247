"""Seeded experiment harness: trial runners, escape histograms and scaling sweeps."""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
import math
import numbers
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

# The six run functions are module globals that _trial_trace looks up by
# name at call time, so a wrapper installed on this module sees every trial.
from .ancgd import ANCParams, ancgd_run, derive_anc_params
from .core import (
    Array,
    DivergenceError,
    ParameterError,
    RngStream,
    SmoothnessSpec,
    _is_number,
    require_bound,
    require_count,
    require_nonnegative,
    require_positive,
)
from .drivers import (
    BaselineParams,
    derive_pgdnc_params,
    pagd_run,
    pgd_nc_run,
    pgd_run,
    psgd_run,
)
from .ncfind import NCDescentParams, NCParams, _episode_delta0, derive_nc_params
from .stochastic import SNCParams, derive_sgdnc_params, sgd_nc_run
from .testbed import Landscape, get_landscape, with_noise

__all__ = [
    "ALGORITHMS",
    "ExperimentConfig",
    "TrialResult",
    "ExperimentResult",
    "HistogramSummary",
    "run_experiment",
    "run_dimension_scaling",
    "derive_params_for",
    "write_csv",
]

_ALIASES = {"pgd-nc": "nc", "sgd-nc": "snc"}
BIN_WIDTH = 0.05
_NEVER = 10**9
# The largest budget a run takes from a derivation; a larger one needs steps.
MAX_DERIVED_STEPS = 10**7

# Calibrated equal-budget settings for the desk-scale comparisons.  Keyed by
# (algorithm, landscape family); missing knobs fall back to derived values
# where a formula exists and otherwise must be supplied explicitly.
RECIPES: dict[tuple[str, str], dict] = {
    ("nc", "quartic"): dict(
        eta=0.05, radius=0.1, ncf_steps=30, exploit_step=1.0, eps=0.05,
        grad_threshold=0.05, steps=90, threshold=0.9,
    ),
    ("pgd", "quartic"): dict(
        eta=0.05, radius=0.1, grad_threshold=0.05, cooldown=_NEVER,
        steps=90, threshold=0.9,
    ),
    ("snc", "cubic"): dict(
        eta=0.02, radius=0.01, sigma=0.01, batch=1, outer_batch=10,
        ncf_steps=45, exploit_step=0.5, eps=0.5, steps=60, threshold=0.6,
    ),
    ("psgd", "cubic"): dict(
        eta=0.02, radius=0.01, sigma=0.01, batch=1, grad_threshold=0.05,
        cooldown=10, steps=60, threshold=0.6,
    ),
    ("ancgd", "quartic"): dict(
        eta=0.05, radius=0.08, ncf_steps=20, exploit_step=1.2, eps=0.02,
        grad_threshold=0.02, steps=40, threshold=0.9,
        theta=0.042, gamma=0.0355, nce_radius=0.0089,
    ),
    ("pagd", "quartic"): dict(
        eta=0.05, radius=0.08, grad_threshold=0.02, cooldown=_NEVER,
        steps=40, threshold=0.9, theta=0.042, gamma=0.0355, nce_radius=0.0089,
    ),
    ("nc", "highdim"): dict(
        eta=0.2, radius=0.1, ncf_steps=28, exploit_step=2.0, eps=0.05,
        grad_threshold=0.05, steps=30, threshold=0.9,
    ),
    ("pgd", "highdim"): dict(
        eta=0.2, radius=0.1, grad_threshold=0.05, cooldown=_NEVER,
        steps=30, threshold=0.9,
    ),
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
        self.algorithm = _ALIASES.get(self.algorithm, self.algorithm)
        if self.algorithm not in ALGORITHMS:
            raise ParameterError(
                f"unknown algorithm {self.algorithm!r}; choose from {ALGORITHMS}"
            )
        if not isinstance(self.landscape, str):
            raise ParameterError(f"landscape must be a string, got {self.landscape!r}")
        if self.out is not None and not isinstance(self.out, str):
            raise ParameterError(f"out must be a string, got {self.out!r}")
        if self.mode not in ("paper", "experiment"):
            raise ParameterError(f"mode must be 'paper' or 'experiment', got {self.mode!r}")
        if not _is_number(self.seed, numbers.Integral):
            raise ParameterError(f"seed must be an integer, got {self.seed}")
        if self.threshold is not None and not (
            _is_number(self.threshold) and math.isfinite(self.threshold)
        ):
            raise ParameterError(f"threshold must be finite, got {self.threshold}")
        if self.trust_region is not None:
            require_bound(trust_region=self.trust_region)
        require_positive(
            eta=self.eta, radius=self.radius, eps=self.eps, delta_f=self.delta_f,
            exploit_step=self.exploit_step, gamma=self.gamma, nce_radius=self.nce_radius,
        )
        require_nonnegative(
            sigma=self.sigma, grad_threshold=self.grad_threshold, cooldown=self.cooldown
        )
        require_count(
            trials=self.trials, steps=self.steps, batch=self.batch,
            outer_batch=self.outer_batch, ncf_steps=self.ncf_steps, jobs=self.jobs,
        )
        if self.delta is not None and not (_is_number(self.delta) and 0 < self.delta < 1):
            raise ParameterError(f"delta must be in (0, 1), got {self.delta}")
        if self.theta is not None and not (_is_number(self.theta) and 0 < self.theta < 1):
            raise ParameterError(f"theta must be in (0, 1), got {self.theta}")
        if self.x0 is not None and not (
            isinstance(self.x0, (tuple, list))
            and all(_is_number(v) and math.isfinite(v) for v in self.x0)
        ):
            raise ParameterError(
                f"x0 must be a flat sequence of finite numbers, got {self.x0!r}"
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


@dataclass
class HistogramSummary:
    """Fixed-width histogram of per-trial decreases."""

    bin_width: float
    bin_edges: list[float]
    counts: list[int]
    total: int

    @classmethod
    def from_decreases(cls, decreases, bin_width: float = BIN_WIDTH) -> "HistogramSummary":
        vals = np.asarray(list(decreases), dtype=float)
        lo_bin = min(0, math.floor(float(vals.min()) / bin_width)) if vals.size else 0
        hi_bin = max(1, math.ceil(float(vals.max()) / bin_width)) if vals.size else 1
        if hi_bin <= lo_bin:
            hi_bin = lo_bin + 1
        edges = [round(i * bin_width, 10) for i in range(lo_bin, hi_bin + 1)]
        counts, _ = np.histogram(vals, bins=edges)
        return cls(
            bin_width=bin_width,
            bin_edges=edges,
            counts=[int(c) for c in counts],
            total=int(vals.size),
        )


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    rows: list[TrialResult]
    histogram: HistogramSummary
    threshold: float

    @property
    def escape_rate(self) -> float:
        return sum(r.escaped for r in self.rows) / len(self.rows)

    @property
    def fail_rate(self) -> float:
        return 1.0 - self.escape_rate

    def summary(self) -> dict:
        decreases = [r.decrease for r in self.rows]
        return {
            "algorithm": self.config.algorithm,
            "landscape": self.config.landscape,
            "mode": self.config.mode,
            "trials": len(self.rows),
            "seed": self.config.seed,
            "threshold": self.threshold,
            "escape_rate": self.escape_rate,
            "fraction_below_threshold": self.fail_rate,
            "mean_decrease": float(np.mean(decreases)),
            "min_decrease": float(np.min(decreases)),
            "max_decrease": float(np.max(decreases)),
            "bin_width": self.histogram.bin_width,
            "bin_edges": self.histogram.bin_edges,
            "counts": self.histogram.counts,
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
        x0 = np.asarray(x0, dtype=float)
        if x0.shape[0] != land.dim:
            raise ParameterError(f"x0 has dimension {x0.shape[0]}, expected {land.dim}")
        return x0
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


@dataclass(frozen=True)
class _Setting:
    """What an experiment's parameters are built from: the mode, the
    landscape's constants and the resolved knobs, with the defaults the
    builders share."""

    paper: bool
    spec: SmoothnessSpec
    n: int
    knobs: dict
    eps: float
    delta: float
    delta_f: float | None
    rho_loc: float
    ell_tilde: float


def _fields(knobs: dict, **names) -> dict:
    """Each params field mapped to the knob named for it, where that is set."""
    return {f: knobs[name] for f, name in names.items() if name in knobs}


# Each builder lays the knobs over a base that only the mode chooses: paper
# mode derives it at the declared (ell, rho), experiment mode takes the local
# constants ell = 1/eta (1/(4 eta) for ancgd), rho_local and delta0 = delta.
_OUTER_KNOBS = dict(
    total_steps="steps", eta="eta", grad_threshold="grad_threshold",
    exploit_step="exploit_step", cooldown="cooldown", trust_region="trust_region",
)
_SEARCH_NEEDS = ("eta", "radius", "ncf_steps", "eps", "steps")
_BASELINE_NEEDS = ("eta", "radius", "grad_threshold", "steps")


def _nc(s: _Setting) -> NCDescentParams:
    k = s.knobs
    search = _fields(k, steps="ncf_steps", radius="radius")
    outer = _fields(k, **_OUTER_KNOBS)
    if s.paper:
        params = derive_pgdnc_params(s.spec, s.eps, s.delta, s.n, s.delta_f)
        return dataclasses.replace(
            params, search=dataclasses.replace(params.search, **search), **outer
        )
    nc = NCParams(**search, eps=s.eps, delta0=s.delta, ell=1.0 / k["eta"], rho=s.rho_loc)
    return NCDescentParams(nc, **outer)


def _snc(s: _Setting) -> NCDescentParams:
    k = s.knobs if s.paper else {"batch": 1, "outer_batch": 10, **s.knobs}
    search = _fields(k, steps="ncf_steps", radius="radius", batch="batch")
    outer = _fields(k, outer_batch="outer_batch", **_OUTER_KNOBS)
    if s.paper:
        params = derive_sgdnc_params(s.spec, s.ell_tilde, s.eps, s.delta, s.n, s.delta_f)
        return dataclasses.replace(
            params, search=dataclasses.replace(params.search, **search), **outer
        )
    snc = SNCParams(
        **search, log_term=10.0, eps=s.eps, delta=s.delta, ell=1.0 / k["eta"],
        rho=s.rho_loc, ell_tilde=s.ell_tilde,
    )
    return NCDescentParams(snc, **outer)


def _ancgd(s: _Setting) -> ANCParams:
    k = s.knobs
    fields = _fields(
        k, perturb_radius="radius", ncf_steps="ncf_steps", theta="theta", gamma="gamma",
        nce_radius="nce_radius", **_OUTER_KNOBS,
    )
    if s.paper:
        delta0 = _episode_delta0(s.delta, s.delta_f, s.eps, s.spec.rho)
        params = derive_anc_params(
            s.spec, s.eps, delta0, s.n, s.delta_f, total_steps=k.get("steps")
        )
        return dataclasses.replace(params, **fields)
    return ANCParams(
        **fields, eps=s.eps, delta0=s.delta, ell=1.0 / (4.0 * k["eta"]), rho=s.rho_loc
    )


def _baseline(s: _Setting, momentum: bool = False) -> BaselineParams:
    """PGD and PSGD, or PAGD with momentum.  Paper mode's defaults come from
    the search schedule and the gap bound; momentum constants that no knob
    sets are derived from the smoothness constants in either mode."""
    k = s.knobs
    if s.paper:
        nc = derive_nc_params(s.spec, s.eps, s.delta, s.n)
        defaults = dict(
            eta=1.0 / s.spec.ell, radius=nc.radius, grad_threshold=s.eps,
            cooldown=nc.steps,
        )
        if "steps" not in k:
            defaults["steps"] = max(1, math.ceil(8.0 * s.spec.ell * s.delta_f / s.eps**2))
        k = {**defaults, **k}
    if momentum:
        theta = k.get(
            "theta", min(0.999, (s.spec.rho * s.eps) ** 0.25 / (4.0 * math.sqrt(s.spec.ell)))
        )
        gamma = k.get("gamma", theta**2 / k["eta"])
        k = {"theta": theta, "gamma": gamma, "nce_radius": gamma / (4.0 * s.spec.rho), **k}
    return BaselineParams(**_fields(
        k, eta="eta", radius="radius", grad_threshold="grad_threshold",
        total_steps="steps", cooldown="cooldown", theta="theta", gamma="gamma",
        nce_radius="nce_radius", batch="batch", trust_region="trust_region",
    ))


@dataclass(frozen=True)
class _Algorithm:
    """How the harness runs one algorithm: the name of its run function
    (a module global, looked up at call time), its parameter builder, the
    knobs experiment mode needs, and whether it sees the noisy oracle."""

    run: str
    build: Callable[[_Setting], object]
    needs: tuple[str, ...]
    noisy: bool = False


_ALGORITHMS = {
    "nc": _Algorithm("pgd_nc_run", _nc, _SEARCH_NEEDS),
    "ancgd": _Algorithm(
        "ancgd_run", _ancgd, _SEARCH_NEEDS + ("theta", "gamma", "nce_radius")
    ),
    "snc": _Algorithm("sgd_nc_run", _snc, _SEARCH_NEEDS, noisy=True),
    "pgd": _Algorithm("pgd_run", _baseline, _BASELINE_NEEDS),
    "pagd": _Algorithm(
        "pagd_run", functools.partial(_baseline, momentum=True), _BASELINE_NEEDS
    ),
    "psgd": _Algorithm("psgd_run", _baseline, _BASELINE_NEEDS, noisy=True),
}
ALGORITHMS = tuple(_ALGORITHMS)


def _trial_trace(payload: dict, land: Landscape, trial: int):
    """Run one seeded trial of the payload's algorithm on land."""
    alg = _ALGORITHMS[payload["algorithm"]]
    oracle = with_noise(land, payload["sigma"]) if alg.noisy else land.oracle
    run = globals()[alg.run]
    return run(oracle, payload["x0"], payload["params"], RngStream(payload["seed"], trial))


def _run_trial(payload: dict, land: Landscape, trial: int) -> TrialResult:
    trace = _trial_trace(payload, land, trial)
    f0 = trace.initial_f()
    f_final = trace.final_f()
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


def _run_chunk(args: tuple) -> list[TrialResult]:
    """Pool task: a contiguous run of trials sharing one landscape.  A
    Landscape holds closures and cannot be pickled, so each task builds it."""
    payload, trials = args
    land = get_landscape(payload["landscape"])
    return [_run_trial(payload, land, trial) for trial in trials]


def _resolve_jobs(cfg_jobs: int | None) -> int:
    """jobs= or SADDLESCAPE_JOBS, capped at the CPUs this process may use."""
    env = os.environ.get("SADDLESCAPE_JOBS", "").strip()
    if cfg_jobs is None and env:
        try:
            cfg_jobs = int(env)
        except ValueError:
            raise ParameterError(f"SADDLESCAPE_JOBS must be an integer, got {env!r}") from None
        require_count(SADDLESCAPE_JOBS=cfg_jobs)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return min(1 if cfg_jobs is None else cfg_jobs, cpus or 1)


def _open_pool(workers: int):
    """The process pool of one experiment or one sweep, or a null context
    (no pool) for one worker.  Its workers start with the first chunk and
    are joined when the context exits."""
    if workers <= 1:
        return contextlib.nullcontext()
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers=workers)


def build_payload(cfg: ExperimentConfig, land: Landscape) -> dict:
    """Resolve recipes and defaults into the work every trial shares: the
    params, the read-only start point and the escape threshold; land is
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
    sigma = knobs.get("sigma", 0.01)
    setting = _Setting(
        paper=paper,
        spec=spec,
        n=land.dim,
        knobs=knobs,
        eps=knobs.get("eps", 0.01),
        delta=knobs.get("delta", 0.1),
        delta_f=delta_f,
        rho_loc=land.saddles[0].rho_local if land.saddles else spec.rho,
        ell_tilde=with_noise(land, sigma).ell_tilde if alg.noisy else spec.ell,
    )
    params = alg.build(setting)
    if "steps" not in knobs and params.total_steps > MAX_DERIVED_STEPS:
        raise ParameterError(
            f"derived budget of {params.total_steps} steps exceeds {MAX_DERIVED_STEPS}; "
            "pass --steps"
        )
    return {
        "algorithm": cfg.algorithm,
        "landscape": cfg.landscape,
        "seed": cfg.seed,
        "x0": x0,
        "sigma": sigma,
        "threshold": float(threshold),
        "params": params,
    }


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Run cfg.trials seeded trials (trial index = stream id) and summarize.

    The landscape is built once: the serial path shares it between the
    payload and every trial, and under the process pool each worker task
    builds its own copy for one contiguous chunk of trials.  The same
    per-trial entry point runs either way and rows come back in trial
    order, so outputs are byte-identical for any job count.
    """
    _check_out_dir(cfg.out)
    workers = min(_resolve_jobs(cfg.jobs), cfg.trials)
    with _open_pool(workers) as pool:
        return _run_experiment(cfg, pool, workers)


def _run_experiment(cfg: ExperimentConfig, pool, workers: int) -> ExperimentResult:
    """run_experiment on a pool of `workers` opened by the caller (None:
    serial), so that a sweep forks one pool for all its experiments."""
    land = get_landscape(cfg.landscape)
    payload = build_payload(cfg, land)
    if pool is None:
        rows = [_run_trial(payload, land, trial) for trial in range(cfg.trials)]
    else:
        bounds = [cfg.trials * i // workers for i in range(workers + 1)]
        tasks = [(payload, range(lo, hi)) for lo, hi in zip(bounds, bounds[1:])]
        rows = [row for chunk in pool.map(_run_chunk, tasks) for row in chunk]
    hist = HistogramSummary.from_decreases([r.decrease for r in rows])
    result = ExperimentResult(
        config=cfg, rows=rows, histogram=hist, threshold=payload["threshold"]
    )
    if cfg.out:
        csv_path, summary_path = _out_paths(cfg.out)
        write_csv(rows, csv_path)
        with open(summary_path, "w") as fh:
            json.dump(result.summary(), fh, indent=2, sort_keys=True)
            fh.write("\n")
    return result


def _check_out_dir(out: str | None) -> None:
    """Fail before the first trial when the output directory is missing."""
    parent = os.path.dirname(out or "")
    if parent and not os.path.isdir(parent):
        raise ParameterError(f"output directory {parent!r} does not exist")


def _out_paths(out: str) -> tuple[str, str]:
    base = out[:-4] if out.endswith(".csv") else out
    csv_path = base + ".csv"
    return csv_path, base + ".summary.json"


def write_csv(rows: list[TrialResult], path: str) -> None:
    with open(path, "w") as fh:
        fh.write("trial,seed,t,f0,f_final,decrease,escaped\n")
        for r in rows:
            fh.write(
                f"{r.trial},{r.seed},{r.t},{r.f0!r},{r.f_final!r},"
                f"{r.decrease!r},{int(r.escaped)}\n"
            )


def run_dimension_scaling(
    ps,
    trials: int = 100,
    seed: int = 0,
    jobs: int | None = None,
    out: str | None = None,
) -> list[dict]:
    """Escape rates across dimensions n = 10**p under the published budgets:
    the curvature arm gets 30p iterations, the perturbation arm 20p**2 + 10."""
    _check_out_dir(out)
    require_count(trials=trials)
    workers = min(_resolve_jobs(jobs), trials)
    rows = []
    with _open_pool(workers) as pool:
        for p in ps:
            require_count(p=p)
            n = 10**p
            land_id = f"highdim-{n}"
            # The ("nc", "highdim") and ("pgd", "highdim") recipes supply
            # every other knob.
            nc_cfg = ExperimentConfig(
                algorithm="nc", landscape=land_id, trials=trials, seed=seed,
                steps=30 * p, ncf_steps=30 * p - 2, jobs=jobs,
            )
            pgd_cfg = ExperimentConfig(
                algorithm="pgd", landscape=land_id, trials=trials, seed=seed,
                steps=20 * p * p + 10, jobs=jobs,
            )
            nc_res = _run_experiment(nc_cfg, pool, workers)
            pgd_res = _run_experiment(pgd_cfg, pool, workers)
            rows.append(
                {
                    "p": p,
                    "n": n,
                    "trials": trials,
                    "nc_steps": 30 * p,
                    "pgd_steps": 20 * p * p + 10,
                    "nc_escape_rate": nc_res.escape_rate,
                    "pgd_escape_rate": pgd_res.escape_rate,
                }
            )
    if out:
        with open(out, "w") as fh:
            fh.write("p,n,trials,nc_steps,pgd_steps,nc_escape_rate,pgd_escape_rate\n")
            for r in rows:
                fh.write(
                    f"{r['p']},{r['n']},{r['trials']},{r['nc_steps']},"
                    f"{r['pgd_steps']},{r['nc_escape_rate']!r},{r['pgd_escape_rate']!r}\n"
                )
    return rows


def derive_params_for(
    alg: str,
    ell: float,
    rho: float,
    eps: float,
    delta: float,
    n: int,
    delta_f: float = 1.0,
    ell_tilde: float | None = None,
) -> dict:
    """Derived constants for one algorithm as a plain dict (CLI `params`)."""
    alg = _ALIASES.get(alg, alg)
    spec = SmoothnessSpec(ell, rho)
    if alg == "ncf":
        return dataclasses.asdict(derive_nc_params(spec, eps, delta, n))
    if alg not in ("nc", "ancgd", "snc"):
        raise ParameterError(
            f"no derived parameters for {alg!r}; choose nc, ncf, ancgd, or snc"
        )
    require_positive(eps=eps, delta_f=delta_f)
    if not 0 < delta < 1:
        raise ParameterError(f"delta must be in (0, 1), got {delta}")
    setting = _Setting(
        paper=True, spec=spec, n=n, knobs={}, eps=eps, delta=delta, delta_f=delta_f,
        rho_loc=rho, ell_tilde=ell_tilde or ell,
    )
    return dataclasses.asdict(_ALGORITHMS[alg].build(setting))

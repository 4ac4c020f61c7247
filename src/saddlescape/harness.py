"""Seeded experiment harness: trial runners, escape histograms, scaling sweeps,
and the landscape verification report."""

from __future__ import annotations

import dataclasses
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

# The six run functions are module globals that _trial_trace looks up by
# name at call time, so a wrapper installed on this module sees every trial.
from . import verify as verify_mod
from .ancgd import ANCParams, ancgd_run, derive_anc_params
from .core import (
    Array,
    GradientOracle,
    ParameterError,
    RngStream,
    SmoothnessSpec,
    require_positive,
)
from .drivers import (
    BaselineParams,
    PGDNCParams,
    derive_pgdnc_params,
    pagd_run,
    pgd_nc_run,
    pgd_run,
    psgd_run,
)
from .ncfind import NCParams, derive_nc_params
from .stochastic import SGDNCParams, SNCParams, derive_sgdnc_params, sgd_nc_run
from .testbed import VERIFY_IDS, Landscape, get_landscape, with_noise

__all__ = [
    "ALGORITHMS",
    "ExperimentConfig",
    "TrialResult",
    "ExperimentResult",
    "HistogramSummary",
    "run_experiment",
    "run_dimension_scaling",
    "VerifyReport",
    "run_verify",
    "derive_params_for",
    "write_csv",
]

_ALIASES = {"pgd-nc": "nc", "sgd-nc": "snc"}
BIN_WIDTH = 0.05
_NEVER = 10**9

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
        if self.mode not in ("paper", "experiment"):
            raise ParameterError(f"mode must be 'paper' or 'experiment', got {self.mode!r}")
        if self.trials < 1:
            raise ParameterError(f"trials must be >= 1, got {self.trials}")
        if self.threshold is not None and not math.isfinite(self.threshold):
            raise ParameterError(f"threshold must be finite, got {self.threshold}")


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

    def fraction_below(self, value: float) -> float:
        """Fraction of mass in bins strictly below value (bin edges align)."""
        if self.total == 0:
            return 0.0
        acc = 0
        for left, count in zip(self.bin_edges[:-1], self.counts):
            if left < value - 1e-12 and left + self.bin_width <= value + 1e-12:
                acc += count
        return acc / self.total


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
    with every explicitly set config field."""
    knobs: dict = {}
    if cfg.mode == "experiment":
        knobs.update(RECIPES.get((cfg.algorithm, _family(cfg.landscape)), {}))
    for name in _KNOBS:
        value = getattr(cfg, name)
        if value is not None:
            knobs[name] = value
    return knobs


def _require(knobs: dict, names: list[str], alg: str) -> None:
    missing = [n for n in names if knobs.get(n) is None]
    if missing:
        raise ParameterError(
            f"experiment mode for {alg!r} needs explicit settings for "
            f"{', '.join(missing)} (no recipe covers this landscape); "
            "pass them or use paper mode"
        )


def _start_point(payload: dict, land: Landscape) -> Array:
    if payload.get("x0") is not None:
        x0 = np.asarray(payload["x0"], dtype=float)
        if x0.shape[0] != land.dim:
            raise ParameterError(f"x0 has dimension {x0.shape[0]}, expected {land.dim}")
        return x0
    if not land.saddles:
        raise ParameterError(f"landscape {land.id} declares no saddle to start from")
    return land.saddles[0].point.copy()


def _gap_bound(land: Landscape, x0: Array) -> float:
    f0 = land.oracle.value(x0)
    if land.minima:
        floor = min(v for _, v in land.minima)
    else:
        floor = f0 - 1.0
    return max(f0 - floor, 1e-6)


@dataclass(frozen=True)
class _Setting:
    """What one trial's parameters are built from: the landscape's constants
    and the resolved knobs, with the defaults the builders share."""

    spec: SmoothnessSpec
    n: int
    knobs: dict
    eps: float
    delta: float
    delta_f: float
    rho_loc: float
    ell_tilde: float

    @property
    def trust(self) -> float:
        return self.knobs.get("trust_region", 1e6)


def _overlay(params, knobs: dict, **names):
    """params with each field replaced by the knob named for it, where set."""
    return dataclasses.replace(
        params, **{f: knobs[name] for f, name in names.items() if name in knobs}
    )


_OUTER_KNOBS = dict(
    total_steps="steps", eta="eta", exploit_step="exploit_step",
    cooldown="cooldown", trust_region="trust_region",
)
_SEARCH_NEEDS = ("eta", "radius", "ncf_steps", "eps", "steps")
_BASELINE_NEEDS = ("eta", "radius", "grad_threshold", "steps")


def _nc_paper(s: _Setting) -> PGDNCParams:
    params = derive_pgdnc_params(s.spec, s.eps, s.delta, s.n, s.delta_f)
    nc = _overlay(params.nc, s.knobs, steps="ncf_steps", radius="radius")
    return _overlay(
        dataclasses.replace(params, nc=nc), s.knobs,
        grad_threshold="grad_threshold", **_OUTER_KNOBS,
    )


def _nc_recipe(s: _Setting) -> PGDNCParams:
    k = s.knobs
    ell_eff = 1.0 / k["eta"]
    nc = NCParams(
        steps=k["ncf_steps"], radius=k["radius"], eps=s.eps,
        delta0=s.delta, ell=ell_eff, rho=s.rho_loc,
    )
    return PGDNCParams(
        nc=nc, total_steps=k["steps"], eps=s.eps, ell=ell_eff, rho=s.rho_loc,
        eta=k["eta"], grad_threshold=k.get("grad_threshold"),
        exploit_step=k.get("exploit_step"), cooldown=k.get("cooldown"),
        trust_region=s.trust,
    )


def _ancgd_paper(s: _Setting) -> ANCParams:
    delta0 = min(1.0, s.delta / (384.0 * s.delta_f) * math.sqrt(s.eps**3 / s.spec.rho))
    params = derive_anc_params(
        s.spec, s.eps, delta0, s.n, s.delta_f, total_steps=s.knobs.get("steps")
    )
    return _overlay(
        params, s.knobs, cooldown="cooldown", grad_threshold="grad_threshold",
        exploit_step="exploit_step", trust_region="trust_region",
    )


def _ancgd_recipe(s: _Setting) -> ANCParams:
    k = s.knobs
    return ANCParams(
        eta=k["eta"], theta=k["theta"], gamma=k["gamma"],
        nce_radius=k["nce_radius"], ncf_steps=k["ncf_steps"],
        perturb_radius=k["radius"], total_steps=k["steps"], eps=s.eps,
        delta0=s.delta, ell=1.0 / (4.0 * k["eta"]), rho=s.rho_loc,
        cooldown=k.get("cooldown"), grad_threshold=k.get("grad_threshold"),
        exploit_step=k.get("exploit_step"), trust_region=s.trust,
    )


def _snc_paper(s: _Setting) -> SGDNCParams:
    params = derive_sgdnc_params(s.spec, s.ell_tilde, s.eps, s.delta, s.n, s.delta_f)
    snc = _overlay(params.snc, s.knobs, steps="ncf_steps", radius="radius", batch="batch")
    return _overlay(
        dataclasses.replace(params, snc=snc), s.knobs,
        outer_batch="outer_batch", **_OUTER_KNOBS,
    )


def _snc_recipe(s: _Setting) -> SGDNCParams:
    k = s.knobs
    ell_eff = 1.0 / k["eta"]
    snc = SNCParams(
        steps=k["ncf_steps"], radius=k["radius"], batch=k.get("batch", 1),
        log_term=10.0, eps=s.eps, delta=s.delta,
        ell=ell_eff, rho=s.rho_loc, ell_tilde=s.ell_tilde,
    )
    return SGDNCParams(
        snc=snc, outer_batch=k.get("outer_batch", 10),
        total_steps=k["steps"], eps=s.eps, ell=ell_eff, rho=s.rho_loc,
        trigger_threshold=k.get("grad_threshold"),
        exploit_step=k.get("exploit_step"), eta=k["eta"],
        cooldown=k.get("cooldown"), trust_region=s.trust,
    )


def _baseline(s: _Setting, defaults: dict) -> BaselineParams:
    k = {**defaults, **s.knobs}
    return BaselineParams(
        eta=k["eta"], radius=k["radius"], grad_threshold=k["grad_threshold"],
        total_steps=k["steps"], cooldown=k.get("cooldown"), theta=k.get("theta"),
        gamma=k.get("gamma"), nce_radius=k.get("nce_radius"),
        batch=k.get("batch", 1), trust_region=s.trust,
    )


def _baseline_paper(s: _Setting) -> BaselineParams:
    nc = derive_nc_params(s.spec, s.eps, min(s.delta, 1.0), s.n)
    defaults = dict(
        eta=1.0 / s.spec.ell, radius=nc.radius, grad_threshold=s.eps, cooldown=nc.steps
    )
    if "steps" not in s.knobs:
        defaults["steps"] = max(1, math.ceil(8.0 * s.spec.ell * s.delta_f / s.eps**2))
    return _baseline(s, defaults)


def _baseline_recipe(s: _Setting) -> BaselineParams:
    return _baseline(s, {})


def _momentum(params: BaselineParams, s: _Setting) -> BaselineParams:
    """PAGD's momentum constants, derived from the smoothness constants
    unless theta is set."""
    if params.theta is not None:
        return params
    theta = min(0.999, (s.spec.rho * s.eps) ** 0.25 / (4.0 * math.sqrt(s.spec.ell)))
    gamma = theta**2 / params.eta
    return dataclasses.replace(
        params, theta=theta, gamma=gamma, nce_radius=gamma / (4.0 * s.spec.rho)
    )


@dataclass(frozen=True)
class _Algorithm:
    """How the harness runs one algorithm: the name of its run function
    (a module global, looked up at call time), its paper-mode and
    experiment-mode parameter builders, the knobs experiment mode needs,
    and whether it sees the noisy oracle."""

    run: str
    paper: Callable[[_Setting], object]
    recipe: Callable[[_Setting], object]
    needs: tuple[str, ...]
    noisy: bool = False


_ALGORITHMS = {
    "nc": _Algorithm("pgd_nc_run", _nc_paper, _nc_recipe, _SEARCH_NEEDS),
    "ancgd": _Algorithm(
        "ancgd_run", _ancgd_paper, _ancgd_recipe,
        _SEARCH_NEEDS + ("theta", "gamma", "nce_radius"),
    ),
    "snc": _Algorithm("sgd_nc_run", _snc_paper, _snc_recipe, _SEARCH_NEEDS, noisy=True),
    "pgd": _Algorithm("pgd_run", _baseline_paper, _baseline_recipe, _BASELINE_NEEDS),
    "pagd": _Algorithm(
        "pagd_run",
        lambda s: _momentum(_baseline_paper(s), s),
        lambda s: _momentum(_baseline_recipe(s), s),
        _BASELINE_NEEDS,
    ),
    "psgd": _Algorithm(
        "psgd_run", _baseline_paper, _baseline_recipe, _BASELINE_NEEDS, noisy=True
    ),
}
ALGORITHMS = tuple(_ALGORITHMS)


def _trial_trace(payload: dict, land: Landscape, trial: int):
    """Build parameters from the payload and run one seeded trial on land."""
    x0 = _start_point(payload, land)
    k = payload["knobs"]
    alg = _ALGORITHMS[payload["algorithm"]]
    spec = land.oracle.spec
    oracle = with_noise(land, k.get("sigma", 0.01)) if alg.noisy else land.oracle
    setting = _Setting(
        spec=spec,
        n=land.dim,
        knobs=k,
        eps=k.get("eps", 0.01),
        delta=k.get("delta", 0.1),
        delta_f=k.get("delta_f") or _gap_bound(land, x0),
        rho_loc=land.saddles[0].rho_local if land.saddles else spec.rho,
        ell_tilde=oracle.ell_tilde if alg.noisy else spec.ell,
    )
    if payload["mode"] == "paper":
        params = alg.paper(setting)
    else:
        _require(k, alg.needs, payload["algorithm"])
        require_positive(eta=k["eta"])
        params = alg.recipe(setting)
    run = globals()[alg.run]
    return run(oracle, x0, params, RngStream(payload["seed"], trial))


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
    if cfg_jobs is not None:
        return max(1, cfg_jobs)
    env = os.environ.get("SADDLESCAPE_JOBS", "").strip()
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ParameterError(
                f"SADDLESCAPE_JOBS must be an integer, got {env!r}"
            ) from None
    return 1


def _default_threshold(land: Landscape, x0: Array) -> float:
    return 0.9 * _gap_bound(land, x0)


def build_payload(cfg: ExperimentConfig, land: Landscape) -> dict:
    """Resolve recipes and defaults into the per-trial work description;
    land is cfg.landscape, already built by the caller."""
    knobs = _resolve_knobs(cfg)
    x0 = _start_point({"x0": cfg.x0}, land)
    threshold = knobs.get("threshold")
    if threshold is None:
        threshold = _default_threshold(land, x0)
    return {
        "algorithm": cfg.algorithm,
        "landscape": cfg.landscape,
        "mode": cfg.mode,
        "seed": cfg.seed,
        "x0": None if cfg.x0 is None else tuple(cfg.x0),
        "threshold": float(threshold),
        "knobs": knobs,
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
    jobs = _resolve_jobs(cfg.jobs)
    land = get_landscape(cfg.landscape)
    payload = build_payload(cfg, land)
    if jobs > 1 and cfg.trials > 1:
        jobs = min(jobs, cfg.trials)
        bounds = [cfg.trials * i // jobs for i in range(jobs + 1)]
        tasks = [(payload, range(lo, hi)) for lo, hi in zip(bounds, bounds[1:])]
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = [row for chunk in pool.map(_run_chunk, tasks) for row in chunk]
    else:
        rows = [_run_trial(payload, land, trial) for trial in range(cfg.trials)]
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
    rows = []
    for p in ps:
        if p < 1:
            raise ParameterError(f"p must be >= 1, got {p}")
        n = 10**p
        land_id = f"highdim-{n}"
        nc_cfg = ExperimentConfig(
            algorithm="nc", landscape=land_id, mode="experiment", trials=trials,
            seed=seed, steps=30 * p, ncf_steps=30 * p - 2, eta=0.2, radius=0.1,
            eps=0.05, exploit_step=2.0, grad_threshold=0.05, threshold=0.9,
            jobs=jobs,
        )
        pgd_cfg = ExperimentConfig(
            algorithm="pgd", landscape=land_id, mode="experiment", trials=trials,
            seed=seed, steps=20 * p * p + 10, eta=0.2, radius=0.1,
            grad_threshold=0.05, cooldown=_NEVER, threshold=0.9, jobs=jobs,
        )
        nc_res = run_experiment(nc_cfg)
        pgd_res = run_experiment(pgd_cfg)
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


@dataclass
class VerifyReport:
    entries: list[dict] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def _check(report: VerifyReport, entry: dict, name: str, ok: bool, detail: str) -> None:
    entry["checks"].append({"name": name, "ok": bool(ok), "detail": detail})
    if not ok:
        report.failures.append(f"{entry['landscape']}: {name}: {detail}")


def _fd_gradient(oracle: GradientOracle, x: Array) -> Array:
    h = verify_mod.default_step(x)
    g = np.empty_like(x)
    for i in range(x.shape[0]):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (oracle.value(x + e) - oracle.value(x - e)) / (2 * h)
    return g


def run_verify(ids=None, landscapes=None, points_per_landscape: int = 100) -> VerifyReport:
    """Independent numerical audit of every registered landscape.

    Checks per landscape: analytic gradients against central differences at
    sampled box points, saddle classification (non-second-order-stationary
    with the declared bottom eigenvalue), minimum classification, and the
    sampled Hessian spectrum against the declared smoothness constant.
    """
    report = VerifyReport()
    if landscapes is None:
        landscapes = [get_landscape(i) for i in (ids or VERIFY_IDS)]
    for land in landscapes:
        entry = {"landscape": land.id, "checks": []}
        report.entries.append(entry)
        oracle = land.oracle
        n = land.dim
        stream = RngStream(2026, 0).substream(("verify", land.id))
        lo, hi = land.box

        worst = 0.0
        for _ in range(points_per_landscape):
            x = stream.gen.uniform(lo, hi, size=n)
            g = oracle.gradient(x)
            g_fd = _fd_gradient(oracle, x)
            rel = float(np.linalg.norm(g - g_fd)) / max(1.0, float(np.linalg.norm(g)))
            worst = max(worst, rel)
        _check(
            report, entry, "gradient-consistency", worst <= 1e-5,
            f"worst relative error {worst:.3e} over {points_per_landscape} points",
        )

        for idx, sad in enumerate(land.saddles):
            eps_ref = 0.5 * sad.lambda_min**2 / sad.rho_local
            curv = _curvature_at(land, sad.point)
            lam_err = abs(curv.lambda_min - sad.lambda_min) / max(1.0, abs(sad.lambda_min))
            _check(
                report, entry, f"saddle-{idx}-eigenvalue", lam_err <= 1e-3,
                f"measured {curv.lambda_min:.6f}, declared {sad.lambda_min:.6f}",
            )
            verdict = _classify_at(land, sad.point, eps_ref, sad.rho_local)
            _check(
                report, entry, f"saddle-{idx}-not-sosp", not verdict.is_sosp,
                f"lambda_min {verdict.lambda_min:.6f} vs threshold {verdict.threshold:.6f}",
            )

        for idx, (point, value) in enumerate(land.minima):
            fval = oracle.value(point)
            _check(
                report, entry, f"minimum-{idx}-value", abs(fval - value) <= 1e-9,
                f"f={fval!r}, declared {value!r}",
            )
            rho_ref = land.saddles[0].rho_local if land.saddles else oracle.spec.rho
            eps_ref = (
                0.5 * land.saddles[0].lambda_min**2 / rho_ref if land.saddles else 0.01
            )
            verdict = _classify_at(land, point, eps_ref, rho_ref)
            _check(
                report, entry, f"minimum-{idx}-sosp", verdict.is_sosp,
                f"grad {verdict.grad_norm:.3e}, lambda_min {verdict.lambda_min:.6f}",
            )

        worst_eig = 0.0
        for _ in range(25):
            x = stream.gen.uniform(lo, hi, size=n)
            if n <= verify_mod.DENSE_CAP:
                H = verify_mod.dense_hessian(oracle, x)
            elif land.hessian is not None:
                H = land.hessian(x)
            else:
                break
            worst_eig = max(worst_eig, float(np.max(np.abs(np.linalg.eigvalsh(H)))))
        _check(
            report, entry, "spectrum-bound", worst_eig <= oracle.spec.ell * 1.001,
            f"max |eig| {worst_eig:.4f} vs declared ell {oracle.spec.ell}",
        )
    return report


def _curvature_at(land: Landscape, x: Array):
    if land.dim <= verify_mod.DENSE_CAP:
        return verify_mod.dense_hessian_eig(land.oracle, x)
    if land.hessian is not None:
        H = land.hessian(x)
        vals, vecs = np.linalg.eigh(H)
        return verify_mod.CurvatureReport(
            lambda_min=float(vals[0]),
            direction=vecs[:, 0],
            quad_form=float(vals[0]),
            method="analytic",
            h=0.0,
        )
    return verify_mod.grad_power_lambda_min(
        land.oracle, x, iters=200, stream=RngStream(7, 0)
    )


def _classify_at(land: Landscape, x: Array, eps: float, rho: float):
    if land.dim <= verify_mod.DENSE_CAP:
        return verify_mod.classify(land.oracle, x, eps, rho=rho)
    curv = _curvature_at(land, x)
    g = land.oracle.gradient(x)
    grad_norm = float(np.linalg.norm(g))
    threshold = -math.sqrt(rho * eps)
    grad_ok = grad_norm <= eps
    curv_ok = curv.lambda_min >= threshold
    return verify_mod.StationarityVerdict(
        grad_ok=grad_ok,
        curv_ok=curv_ok,
        is_sosp=grad_ok and curv_ok,
        grad_norm=grad_norm,
        lambda_min=curv.lambda_min,
        threshold=threshold,
    )


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
    setting = _Setting(
        spec=spec, n=n, knobs={}, eps=eps, delta=delta, delta_f=delta_f,
        rho_loc=rho, ell_tilde=ell_tilde or ell,
    )
    return dataclasses.asdict(_ALGORITHMS[alg].paper(setting))

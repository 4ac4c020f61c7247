"""Span tracing for the benchmark, installed from outside the package.

The tracer replaces public functions of saddlescape under the names their
callers bind (``harness.pgd_nc_run``, ``drivers.nc_find``, the oracle
methods on ``GradientOracle``, ...) with wrappers that record one span per
call: name, start, end, parent span and trial id.  Spans are kept in
compact in-memory arrays and written out once, at the end of a run.
``uninstall`` puts every original object back.

Nothing under ``src/`` is changed; spans inside pool worker processes are
not collected.
"""

from __future__ import annotations

import statistics
import time
from array import array
from dataclasses import dataclass

import numpy as np

LAYERS = (
    "core", "testbed", "ncfind", "stochastic", "ancgd", "drivers", "verify",
    "harness", "cli", "bench",
)

# Escape loops by the name of their run function; these calls are trials.
RUN_FUNCTIONS = {
    "pgd_nc_run": ("nc", "drivers"),
    "pgd_run": ("pgd", "drivers"),
    "pagd_run": ("pagd", "drivers"),
    "psgd_run": ("psgd", "drivers"),
    "ancgd_run": ("ancgd", "ancgd"),
    "sgd_nc_run": ("snc", "stochastic"),
}
RUN_LAYER = {alg: layer for alg, layer in RUN_FUNCTIONS.values()}
ALGORITHMS = ("nc", "pgd", "ancgd", "pagd", "snc", "psgd")
CURVATURE_ARMS = ("nc", "snc", "ancgd")


@dataclass(frozen=True)
class TrialOutcome:
    """What one escape-loop call returned, reduced to the numbers the
    benchmark reports.  escape_iter is the first record whose decrease from
    the start met the experiment's threshold, or budget + 1 if none did; it
    is None for calls made outside an experiment (no threshold)."""

    alg: str
    escape_iter: int | None
    records: int
    dim: int
    certified_exploits: int
    first_certified: bool
    windows: int
    samples: int


def escape_iteration(trace, threshold: float, budget: int) -> int:
    f0 = trace.records[0].f
    for rec in trace.records:
        if f0 - rec.f >= threshold:
            return rec.t
    return budget + 1


class Tracer:
    """Span recorder plus the per-trial outcomes of wrapped escape loops."""

    def __init__(self):
        self.names: list[str] = []
        self.layers: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("q")
        self.parent = array("q")
        self.trial = array("q")
        self.start = array("q")
        self.end = array("q")
        self.stack = [-1]
        self.trial_count = 0
        self.outcomes: list[TrialOutcome] = []
        self.counts: dict[str, int] = {}
        self.threshold: float | None = None
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def name_id(self, name: str, layer: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
        return self._ids[name]

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def open(self, nid: int, new_trial: bool) -> int:
        idx = len(self.start)
        parent = self.stack[-1]
        if new_trial:
            self.trial_count += 1
            trial = self.trial_count
        else:
            trial = self.trial[parent] if parent >= 0 else -1
        self.name.append(nid)
        self.parent.append(parent)
        self.trial.append(trial)
        self.start.append(0)
        self.end.append(0)
        self.stack.append(idx)
        return idx

    def close(self, idx: int, t0: int, t1: int) -> None:
        self.stack.pop()
        self.start[idx] = t0
        self.end[idx] = t1

    def wrap(self, fn, name: str, layer: str, new_trial: bool = False, after=None):
        """Wrapper recording a span per call.  `after(args, kwargs, result)`
        runs once the span is closed, inside a bench.inspect span, so the
        benchmark's own bookkeeping is not charged to the caller's layer."""
        nid = self.name_id(name, layer)
        inspect_id = self.name_id("bench.inspect", "bench")
        clock = time.perf_counter_ns
        tracer = self

        def wrapper(*args, **kwargs):
            idx = tracer.open(nid, new_trial)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                tracer.close(idx, t0, t1)
            if after is not None:
                j = tracer.open(inspect_id, False)
                t2 = clock()
                after(args, kwargs, result)
                tracer.close(j, t2, clock())
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def span(self, name: str, layer: str, new_trial: bool = False):
        """Context manager for a span the benchmark opens around its own calls."""
        return _Span(self, self.name_id(name, layer), new_trial)

    # -- installation ------------------------------------------------------

    def patch(self, owner, attr: str, name: str, layer: str, **kw) -> None:
        original = owner.__dict__[attr]
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, layer, **kw))

    def install(self, mods, full: bool) -> None:
        """Wrap the escape loops where the harness binds them (enough to
        read each trial's outcome); with full=True also every layer boundary
        the per-layer metrics need."""
        harness = mods["harness"]
        self.patch(harness, "build_payload", "harness.build_payload", "harness",
                   after=self._after_payload)
        for fname, (alg, layer) in RUN_FUNCTIONS.items():
            self.patch(harness, fname, f"{layer}.{fname}", layer, new_trial=True,
                       after=self._after_run(alg))
        if not full:
            return
        core, testbed, cli = mods["core"], mods["testbed"], mods["cli"]
        self.patch(core.GradientOracle, "gradient", "core.gradient", "core")
        self.patch(core.GradientOracle, "value", "core.value", "core")
        self.patch(harness, "get_landscape", "testbed.get_landscape", "testbed")
        self.patch(testbed, "get_landscape", "testbed.get_landscape", "testbed")
        self.patch(harness, "write_csv", "harness.write_csv", "harness")
        self.patch(harness, "run_experiment", "harness.run_experiment", "harness")
        self.patch(cli, "run_experiment", "harness.run_experiment", "harness")
        self.patch(harness, "run_dimension_scaling", "harness.run_dimension_scaling", "harness")
        self.patch(cli, "main", "cli.main", "cli")
        self.patch(mods["drivers"], "nc_find", "ncfind.nc_find", "ncfind",
                   after=self._after_nc_find)
        self.patch(mods["ncfind"], "nc_find", "ncfind.nc_find", "ncfind",
                   after=self._after_nc_find)
        self.patch(mods["stochastic"], "snc_find", "stochastic.snc_find", "stochastic",
                   after=self._after_snc_find)
        self.patch(mods["ancgd"], "ancgd_run", "ancgd.ancgd_run", "ancgd",
                   after=self._after_run("ancgd"))
        self.patch(mods["verify"], "fd_quadform", "verify.fd_quadform", "verify")

    def uninstall(self) -> list[str]:
        """Restore every wrapped attribute; return the ones that did not
        come back as the original object (empty when all is well)."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        bad = [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, original in self._patched
            if owner.__dict__[attr] is not original
        ]
        self._patched.clear()
        return bad

    # -- outcome readers (run inside bench.inspect spans) -------------------

    def _after_payload(self, args, kwargs, payload) -> None:
        self.threshold = payload["threshold"]

    def _after_run(self, alg: str):
        def after(args, kwargs, trace) -> None:
            params = args[2]
            meta = trace.meta
            exploits = meta.get("exploits", [])
            self.outcomes.append(
                TrialOutcome(
                    alg=alg,
                    escape_iter=None if self.threshold is None
                    else escape_iteration(trace, self.threshold, params.total_steps),
                    records=len(trace.records),
                    dim=len(args[1]),
                    certified_exploits=sum(bool(e["certified"]) for e in exploits),
                    first_certified=bool(exploits) and bool(exploits[0]["certified"]),
                    windows=len(meta.get("perturbs", [])) if alg == "ancgd" else 0,
                    samples=int(meta.get("samples", 0)),
                )
            )
        return after

    def _after_nc_find(self, args, kwargs, outcome) -> None:
        self.count("ncfind.steps", outcome.steps_used)

    def _after_snc_find(self, args, kwargs, outcome) -> None:
        params = args[2]
        batch = kwargs.get("batch", args[4] if len(args) > 4 else None) or params.batch
        self.count("stochastic.steps", outcome.steps_used)
        self.count("stochastic.search_samples", 2 * batch * outcome.steps_used)

    # -- output ------------------------------------------------------------

    def write_csv(self, fh) -> None:
        fh.write("span,name,layer,start_ns,end_ns,parent,trial\n")
        for i in range(len(self.start)):
            nid = self.name[i]
            fh.write(
                f"{i},{self.names[nid]},{self.layers[nid]},{self.start[i]},"
                f"{self.end[i]},{self.parent[i]},{self.trial[i]}\n"
            )


class _Span:
    def __init__(self, tracer: Tracer, nid: int, new_trial: bool):
        self.tracer = tracer
        self.nid = nid
        self.new_trial = new_trial

    def __enter__(self):
        self.idx = self.tracer.open(self.nid, self.new_trial)
        self.t0 = time.perf_counter_ns()
        return self

    def __exit__(self, *exc):
        self.tracer.close(self.idx, self.t0, time.perf_counter_ns())
        return False


@dataclass
class PassProfile:
    """Per-layer numbers of one traced pass, computed from its spans."""

    wall_ns: int
    trials: int
    self_ns: dict  # layer -> strict self time (span minus child spans)
    share_ns: dict  # layer -> self time plus the oracle calls it made directly
    by_name: dict  # span name -> (calls, inclusive ns, self ns)
    construction_oracle_calls: int
    trial_ms: list
    counts: dict
    outcomes: list


def profile(tracer: Tracer, wall_ns: int, trials: int) -> PassProfile:
    n = len(tracer.start)
    start, end, parent, name = (
        np.array(a, dtype=np.int64) for a in (tracer.start, tracer.end, tracer.parent, tracer.name)
    )
    dur = end - start
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)[:n]
    self_t = dur - child
    layer_of_name = np.array([LAYERS.index(l) for l in tracer.layers], dtype=np.int64)
    layer = layer_of_name[name] if n else name
    core = LAYERS.index("core")

    self_ns = {l: int(self_t[layer == i].sum()) for i, l in enumerate(LAYERS)}
    # Oracle calls count toward the layer that made them (a landscape built
    # with 6n value calls is construction work); core's share is the total
    # oracle time across layers.
    oracle = layer == core
    parent_layer = np.where(has_parent, layer[np.where(has_parent, parent, 0)], -1)
    share_ns = {
        l: int(self_t[layer == i].sum() + dur[oracle & (parent_layer == i)].sum())
        for i, l in enumerate(LAYERS)
    }
    share_ns["core"] = int(dur[oracle].sum())

    by_name = {}
    for nid, nm in enumerate(tracer.names):
        sel = name == nid
        by_name[nm] = (int(sel.sum()), int(dur[sel].sum()), int(self_t[sel].sum()))

    landscape_ids = [i for i, nm in enumerate(tracer.names) if nm == "testbed.get_landscape"]
    construction = 0
    if landscape_ids:
        parent_name = np.where(has_parent, name[np.where(has_parent, parent, 0)], -1)
        construction = int((oracle & np.isin(parent_name, landscape_ids)).sum())

    trial_roots = [
        i for i, nm in enumerate(tracer.names)
        if nm.split(".", 1)[-1] in RUN_FUNCTIONS or nm == "bench.trial"
    ]
    roots = np.isin(name, trial_roots) & (
        ~has_parent | ~np.isin(name[np.where(has_parent, parent, 0)], trial_roots)
    )
    return PassProfile(
        wall_ns=wall_ns,
        trials=trials,
        self_ns=self_ns,
        share_ns=share_ns,
        by_name=by_name,
        construction_oracle_calls=construction,
        trial_ms=(dur[roots] / 1e6).tolist(),
        counts=dict(tracer.counts),
        outcomes=list(tracer.outcomes),
    )


def self_test(profiles: list[PassProfile]) -> list[str]:
    """Self times are non-negative and the layers' self times of a pass sum
    to no more than that pass's wall time."""
    problems = []
    for k, p in enumerate(profiles):
        neg = {l: v for l, v in p.self_ns.items() if v < 0}
        if neg:
            problems.append(f"traced pass {k}: negative self time {neg}")
        total = sum(p.self_ns.values())
        if total > p.wall_ns:
            problems.append(
                f"traced pass {k}: layer self times sum to {total} ns > pass wall {p.wall_ns} ns"
            )
    return problems


def _median(values):
    return float(statistics.median(values)) if values else 0.0


def _quantile(values, q):
    if not values:
        return 0.0
    return float(np.quantile(np.asarray(values, dtype=float), q))


def per_layer_metrics(profiles: list[PassProfile], tracing_overhead: float,
                      import_ms: float) -> dict:
    """The per-layer metrics: counts from the last traced pass (they repeat
    exactly) and times as medians over the traced passes."""
    last = profiles[-1]

    def med(fn):
        return _median([fn(p) for p in profiles])

    def calls(p, nm):
        return p.by_name.get(nm, (0, 0, 0))[0]

    def incl(p, nm):
        return p.by_name.get(nm, (0, 0, 0))[1]

    def mean_us(p, nm):
        c = calls(p, nm)
        return incl(p, nm) / c / 1e3 if c else 0.0

    def share(p, layer):
        return p.share_ns[layer] / p.wall_ns

    def runs(alg=None, layer=None):
        out = last.outcomes
        if alg is not None:
            out = [o for o in out if o.alg == alg]
        if layer is not None:
            out = [o for o in out if RUN_LAYER[o.alg] == layer]
        return out

    def per(num, den):
        return num / den if den else 0.0

    trials = last.trials
    all_runs = runs()
    nc_runs = runs("nc")
    drivers_runs = runs(layer="drivers")
    drivers_iters = sum(o.records - 1 for o in drivers_runs)
    ancgd_runs = runs("ancgd")
    ancgd_iters = sum(o.records - 1 for o in ancgd_runs)
    snc_runs = runs("snc")
    nc_calls = calls(last, "ncfind.nc_find")
    snc_calls = calls(last, "stochastic.snc_find")
    steps = last.counts.get("ncfind.steps", 0)
    snc_steps = last.counts.get("stochastic.steps", 0)
    nc_certified = sum(o.certified_exploits for o in nc_runs)
    nc_certified += last.counts.get("ncfind.certified", 0)
    if snc_runs:
        samples_per_trial = per(sum(o.samples for o in snc_runs), len(snc_runs))
    else:
        samples_per_trial = per(last.counts.get("stochastic.search_samples", 0), snc_calls)
    harness_top = ("harness.run_experiment", "harness.run_dimension_scaling")

    def harness_self(p):
        # Dispatch, histogram and summary: the harness share minus the
        # payload builder and CSV writer, which have their own metrics.
        own = p.share_ns["harness"]
        for nm in ("harness.build_payload", "harness.write_csv"):
            own -= p.by_name.get(nm, (0, 0, 0))[2]
        return own / p.wall_ns if any(calls(p, nm) for nm in harness_top) else 0.0

    m = {
        "testbed.get_landscape_calls": (calls(last, "testbed.get_landscape"), "count"),
        "testbed.get_landscape_ms": (med(lambda p: mean_us(p, "testbed.get_landscape") / 1e3), "ms"),
        "testbed.construction_oracle_calls": (last.construction_oracle_calls, "count"),
        "testbed.share": (med(lambda p: share(p, "testbed")), "ratio"),
        "core.grad_calls": (per(calls(last, "core.gradient"), trials), "count"),
        "core.value_calls": (per(calls(last, "core.value"), trials), "count"),
        "core.grad_us": (med(lambda p: mean_us(p, "core.gradient")), "us"),
        "core.value_us": (med(lambda p: mean_us(p, "core.value")), "us"),
        "core.oracle_share": (med(lambda p: share(p, "core")), "ratio"),
        "core.records_per_trial": (per(sum(o.records for o in all_runs), len(all_runs)), "count"),
        "core.record_bytes_per_trial": (
            per(sum(o.records * o.dim * 8 for o in all_runs), len(all_runs)), "B"),
        "ncfind.nc_find_calls": (nc_calls, "count"),
        "ncfind.search_steps": (steps, "count"),
        "ncfind.us_per_step": (med(lambda p: per(incl(p, "ncfind.nc_find"), steps) / 1e3), "us"),
        "ncfind.share": (med(lambda p: share(p, "ncfind")), "ratio"),
        "ncfind.certified_ratio": (per(nc_certified, nc_calls), "ratio"),
        "stochastic.snc_find_calls": (snc_calls, "count"),
        "stochastic.us_per_step": (
            med(lambda p: per(incl(p, "stochastic.snc_find"), snc_steps) / 1e3), "us"),
        "stochastic.samples_per_trial": (samples_per_trial, "count"),
        "stochastic.share": (med(lambda p: share(p, "stochastic")), "ratio"),
        "ancgd.ancgd_run_calls": (len(ancgd_runs), "count"),
        "ancgd.us_per_iter": (
            med(lambda p: per(p.share_ns["ancgd"], ancgd_iters) / 1e3), "us"),
        "ancgd.windows_per_trial": (per(sum(o.windows for o in ancgd_runs), len(ancgd_runs)), "count"),
        "ancgd.share": (med(lambda p: share(p, "ancgd")), "ratio"),
        "drivers.trial_ms_p50": (med(lambda p: _quantile(p.trial_ms, 0.5)), "ms"),
        "drivers.trial_ms_p90": (med(lambda p: _quantile(p.trial_ms, 0.9)), "ms"),
        "drivers.us_per_iter": (med(lambda p: per(p.self_ns["drivers"], drivers_iters) / 1e3), "us"),
        "drivers.share": (med(lambda p: share(p, "drivers")), "ratio"),
    }
    for alg in ALGORITHMS:
        iters = [o.escape_iter for o in runs(alg) if o.escape_iter is not None]
        m[f"drivers.escape_iter_p50.{alg}"] = (_median(iters), "iter")
    m.update({
        "verify.fd_quadform_calls": (calls(last, "verify.fd_quadform"), "count"),
        "verify.fd_quadform_us": (med(lambda p: mean_us(p, "verify.fd_quadform")), "us"),
        "verify.share": (med(lambda p: share(p, "verify")), "ratio"),
        "harness.build_payload_ms": (med(lambda p: mean_us(p, "harness.build_payload") / 1e3), "ms"),
        "harness.write_csv_ms": (med(lambda p: mean_us(p, "harness.write_csv") / 1e3), "ms"),
        "harness.self_share": (med(harness_self), "ratio"),
        "cli.self_ms": (med(lambda p: per(p.by_name.get("cli.main", (0, 0, 0))[2],
                                          calls(p, "cli.main")) / 1e6), "ms"),
        "cli.import_ms": (import_ms, "ms"),
        "bench.tracing_overhead": (tracing_overhead, "ratio"),
    })
    return m


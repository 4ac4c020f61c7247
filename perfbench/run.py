#!/usr/bin/env python3
"""saddlescape benchmark: fixed-seed workloads through the package's public API.

    python3 perfbench/run.py --workload recipes-2d --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py                  # every workload, one process each

A run imports saddlescape from ``src/`` of the checkout it sits in, makes one
untimed pass whose outputs are checked, then repeats the same pass with
tracing off for ``--seconds`` and reports the median pass.  With
``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics instead.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics; the lines
before it name every metric with its unit, plus provenance.  Exit code 0
means every check passed, 1 that a check failed (the result is still
printed), 2 that the package source is missing (nothing is printed).

Workloads, metrics and references are described in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext, redirect_stdout
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

import spans

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REF_DIR = BENCH_DIR / "ref"
OUT_DIR = ROOT / ".perfbench-out"

DEFAULT_SEED = 0
SETUP_PROBES = 7
WORKLOADS = ("recipes-2d", "dimscale", "certify", "dimscale-jobs2")

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "trials_per_s": "1/s",
    "peak_rss_mb": "MB",
    "escape_rate": "ratio",
    "escape_iter_p50": "iter",
    "certified_rate": "ratio",
}


class SourceMissing(Exception):
    pass


def load_package():
    """Import saddlescape from this checkout's src/, never from elsewhere."""
    if not (SRC / "saddlescape" / "__init__.py").is_file():
        raise SourceMissing(f"no saddlescape package under {SRC}")
    sys.path.insert(0, str(SRC))
    import saddlescape
    from saddlescape import ancgd, cli, core, drivers, harness, ncfind, stochastic, testbed, verify

    if not Path(saddlescape.__file__).resolve().is_relative_to(SRC):
        raise SourceMissing(f"saddlescape imported from {saddlescape.__file__}, not {SRC}")
    return {
        "saddlescape": saddlescape, "ancgd": ancgd, "cli": cli, "core": core,
        "drivers": drivers, "harness": harness, "ncfind": ncfind,
        "stochastic": stochastic, "testbed": testbed, "verify": verify,
    }


@dataclass
class Experiment:
    """The unit that succeeds or fails as a whole: one CLI run, one dimension
    row, one finder x saddle cell.  A raise or a failed check fails all of
    its trials, because the harness discards the whole experiment today."""

    label: str
    trials: int
    output: object = None
    error: str | None = None
    elapsed: float = 0.0
    iters: list = field(default_factory=list)


# -- workloads ----------------------------------------------------------------


class Recipes2D:
    """The six calibrated 2-d recipes through cli.main, jobs=1."""

    ref_name = "recipes-2d"
    landscapes = ("quartic", "cubic")
    recipes = (
        ("nc", "quartic"), ("pgd", "quartic"), ("ancgd", "quartic"),
        ("pagd", "quartic"), ("snc", "cubic"), ("psgd", "cubic"),
    )
    trials = 100

    def units(self, pkg, seed, tracer=None, capture=False):
        return [partial(self.run_recipe, pkg, seed, alg, fn) for alg, fn in self.recipes]

    def run_recipe(self, pkg, seed, alg, fn):
        exp = Experiment(label=f"{alg}-{fn}", trials=self.trials)
        argv = [
            "run", "--alg", alg, "--fn", fn, "--trials", str(self.trials),
            "--seed", str(seed), "--jobs", "1", "--out", exp.label,
        ]
        t0 = time.perf_counter()
        try:
            with redirect_stdout(io.StringIO()):
                code = pkg["cli"].main(argv)
            if code != 0:
                exp.error = f"cli exit code {code}"
        except Exception:
            exp.error = traceback.format_exc()
        exp.elapsed = time.perf_counter() - t0
        return [exp]

    def collect(self, exps):
        for exp in exps:
            if exp.error is None:
                exp.output = {
                    "csv": Path(f"{exp.label}.csv").read_bytes(),
                    "summary.json": Path(f"{exp.label}.summary.json").read_bytes(),
                }

    def ref_files(self, exps):
        return {
            f"{exp.label}.{suffix}": data
            for exp in exps if exp.output is not None
            for suffix, data in exp.output.items()
        }

    def check_ref(self, exps, ref_dir):
        bad = []
        for exp in exps:
            if exp.output is None:
                continue
            for suffix, data in exp.output.items():
                path = ref_dir / f"{exp.label}.{suffix}"
                if not path.is_file() or path.read_bytes() != data:
                    bad.append((exp, f"{exp.label}.{suffix} differs from {path.name}"))
                    break
        return bad

    def check_bars(self, exps):
        """Acceptance criteria 1-3 with their own bars."""
        by = {exp.label: exp for exp in exps if exp.output is not None}
        fail = {
            label: json.loads(exp.output["summary.json"])["fraction_below_threshold"]
            for label, exp in by.items()
        }
        bars = [
            ("criterion 1", "nc-quartic", "<", 0.10), ("criterion 1", "pgd-quartic", ">", 0.30),
            ("criterion 2", "snc-cubic", "<", 0.15), ("criterion 2", "psgd-cubic", ">", 0.40),
            ("criterion 3", "ancgd-quartic", "<", 0.10), ("criterion 3", "pagd-quartic", ">", 0.15),
        ]
        bad = []
        for crit, label, op, bar in bars:
            if label not in fail:
                continue
            ok = fail[label] < bar if op == "<" else fail[label] > bar
            if not ok:
                bad.append((by[label], f"{crit}: {label} fail rate {fail[label]:.4f} not {op} {bar}"))
        for crit, pair, limit in (("criterion 1", ("nc-quartic", "pgd-quartic"), 60.0),
                                  ("criterion 2", ("snc-cubic", "psgd-cubic"), 120.0)):
            if all(p in by for p in pair):
                elapsed = sum(by[p].elapsed for p in pair)
                if elapsed >= limit:
                    bad.append((by[pair[0]], f"{crit}: {elapsed:.1f}s not < {limit}s"))
        return bad

    def escape_rate(self, exps):
        escaped = total = 0
        for exp in exps:
            if exp.output is not None:
                summary = json.loads(exp.output["summary.json"])
                escaped += round(summary["escape_rate"] * summary["trials"])
                total += summary["trials"]
        return escaped / total if total else 0.0


class DimScale:
    """run_dimension_scaling over p = 1, 2, 3: nc and pgd on highdim-10/100/1000."""

    ref_name = "dimscale"
    landscapes = ("highdim-10", "highdim-100", "highdim-1000")
    ps = (1, 2, 3)
    trials = 20
    jobs = 1

    def units(self, pkg, seed, tracer=None, capture=False):
        # One call per p, so each can be calibrated on its own; the rows are
        # those of a single run_dimension_scaling([1, 2, 3]) call.  The
        # checked pass runs in-process so the wrapped escape loops see every
        # trial; rows do not depend on the job count.
        jobs = 1 if capture else self.jobs
        return [partial(self.run_sweep, pkg, seed, p, jobs) for p in self.ps]

    def run_sweep(self, pkg, seed, p, jobs):
        try:
            rows = pkg["harness"].run_dimension_scaling(
                [p], trials=self.trials, seed=seed, jobs=jobs
            )
        except Exception:
            return [Experiment(label=f"p={p}", trials=2 * self.trials, error=traceback.format_exc())]
        return [Experiment(label=f"p={row['p']}", trials=2 * self.trials, output=row) for row in rows]

    def collect(self, exps):
        pass

    def ref_files(self, exps):
        rows = {exp.label: exp.output for exp in exps if exp.output is not None}
        return {"rows.json": (json.dumps(rows, indent=1, sort_keys=True) + "\n").encode()}

    def check_ref(self, exps, ref_dir):
        path = ref_dir / "rows.json"
        ref = json.loads(path.read_text()) if path.is_file() else {}
        return [
            (exp, f"{exp.label} row {exp.output} differs from reference {ref.get(exp.label)}")
            for exp in exps if exp.output is not None and ref.get(exp.label) != exp.output
        ]

    def check_bars(self, exps):
        """Acceptance criterion 4: nc_escape_rate >= pgd_escape_rate - 0.05."""
        return [
            (exp, f"criterion 4: {exp.label} nc {exp.output['nc_escape_rate']:.2f} "
                  f"< pgd {exp.output['pgd_escape_rate']:.2f} - 0.05")
            for exp in exps
            if exp.output is not None
            and not exp.output["nc_escape_rate"] >= exp.output["pgd_escape_rate"] - 0.05
        ]

    def escape_rate(self, exps):
        escaped = total = 0.0
        for exp in exps:
            if exp.output is not None:
                row = exp.output
                escaped += (row["nc_escape_rate"] + row["pgd_escape_rate"]) * row["trials"]
                total += 2 * row["trials"]
        return escaped / total if total else 0.0


class DimScaleJobs2(DimScale):
    """dimscale with two worker processes: the harness's process-pool path."""

    jobs = 2


class Certify:
    """The criterion-5 sweep as library calls: each finder's direction at
    each VERIFY_IDS saddle, certified with fd_quadform."""

    ref_name = "certify"
    eps = 0.04
    trials = 10  # per finder x saddle cell
    finder_seeds = {"nc": 101, "ancgd": 103, "snc": 107}

    def __init__(self, pkg):
        self.landscapes = tuple(pkg["testbed"].VERIFY_IDS)

    def units(self, pkg, seed, tracer=None, capture=False):
        return [partial(self.run_saddle, pkg, seed, land_id, tracer) for land_id in self.landscapes]

    def run_saddle(self, pkg, seed, land_id, tracer):
        """The three finders at one saddle; its landscape is built once."""
        s = pkg["saddlescape"]
        exps = [Experiment(label=f"{f}/{land_id}", trials=self.trials) for f in self.finder_seeds]
        try:
            land = pkg["testbed"].get_landscape(land_id)
            saddle = land.saddles[0]
            spec = s.SmoothnessSpec(saddle.ell_local, saddle.rho_local)
            nc_params = s.derive_nc_params(spec, self.eps, 0.1, land.dim)
            base = s.derive_anc_params(spec, self.eps, 0.1, land.dim, 1.0, total_steps=1)
            anc_params = dataclasses.replace(base, total_steps=base.ncf_steps + 1)
            snc_params = s.derive_snc_params(spec, spec.ell, self.eps, 0.1, land.dim)
            noisy = s.with_noise(land, 0.01)
        except Exception:
            for exp in exps:
                exp.error = traceback.format_exc()
            return exps
        gate = -math.sqrt(saddle.rho_local * self.eps) / 4.0
        searches = {
            "nc": (nc_params.steps, lambda st: pkg["ncfind"].nc_find(
                land.oracle, saddle.point, nc_params, st).e_hat),
            "ancgd": (anc_params.ncf_steps, lambda st: pkg["ancgd"].ancgd_run(
                land.oracle, saddle.point, anc_params, st).meta["exploits"][0]["e_hat"]),
            "snc": (snc_params.steps, lambda st: pkg["stochastic"].snc_find(
                noisy, saddle.point, snc_params, st).e_hat),
        }
        for exp, (finder, (steps, search)) in zip(exps, searches.items()):
            flags = []
            try:
                for k in range(self.trials):
                    stream = s.RngStream(self.finder_seeds[finder] + 1000 * seed, k)
                    with tracer.span("bench.trial", "bench", True) if tracer else nullcontext():
                        e_hat = search(stream)
                        q = pkg["verify"].fd_quadform(land.oracle, saddle.point, e_hat)
                    flags.append(q <= gate)
                    if tracer is not None and finder == "nc" and q <= gate:
                        tracer.count("ncfind.certified")
            except Exception:
                exp.error = traceback.format_exc()
            else:
                exp.output = "".join("1" if f else "0" for f in flags)
                # Iterations to a certified direction; a miss counts as the
                # search budget + 1, as a non-escaping trial does.
                exp.iters = [steps if f else steps + 1 for f in flags]
        return exps

    def collect(self, exps):
        pass

    def ref_files(self, exps):
        cells = {exp.label: exp.output for exp in exps if exp.output is not None}
        return {"cells.json": (json.dumps(cells, indent=1, sort_keys=True) + "\n").encode()}

    def check_ref(self, exps, ref_dir):
        path = ref_dir / "cells.json"
        ref = json.loads(path.read_text()) if path.is_file() else {}
        return [
            (exp, f"{exp.label} certificates {exp.output} differ from reference {ref.get(exp.label)}")
            for exp in exps if exp.output is not None and ref.get(exp.label) != exp.output
        ]

    def check_bars(self, exps):
        """Acceptance criterion 5: every finder x saddle rate >= 0.85."""
        return [
            (exp, f"criterion 5: {exp.label} certified {self.rate(exp):.3f} < 0.85")
            for exp in exps if exp.output is not None and self.rate(exp) < 0.85
        ]

    @staticmethod
    def rate(exp):
        return exp.output.count("1") / len(exp.output)

    def escape_rate(self, exps):
        # A certify trial escapes when its direction is certified.
        done = [exp for exp in exps if exp.output is not None]
        total = sum(len(exp.output) for exp in done)
        return sum(exp.output.count("1") for exp in done) / total if total else 0.0


def make_workload(name, pkg):
    if name == "certify":
        return Certify(pkg)
    return {"recipes-2d": Recipes2D, "dimscale": DimScale, "dimscale-jobs2": DimScaleJobs2}[name]()


# -- timing -------------------------------------------------------------------

# What calibration_kernel() takes on the reference machine (2 cores, Python
# 3.11.7, numpy 2.4.6) in its fast phase.  It only fixes the scale of the
# calibrated times: they read as seconds on that machine.
CALIBRATION_REF_S = 0.0034


def calibration_kernel():
    """A fixed slice of work shaped like the benchmark's: a driver step on a
    2-vector (small numpy arrays, a norm, Python floats) and a value call on
    a 1000-vector.  Returns the median time of three runs, so one
    interrupted run does not skew the scale."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        x = np.array([0.3, -0.2])
        v = np.linspace(-1.0, 1.0, 1000)
        acc = 0.0
        for _ in range(500):
            g = np.array([x[0] ** 3 / 4 - x[0], 2.25 * x[1]])
            x = x - 0.01 * g
            acc += float(np.linalg.norm(g))
            e = np.zeros(1000)
            e[0] = 1e-6
            acc += 0.5 * float(np.dot(v + e, v * (v + e)))
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_pass(units, calibrated=False):
    """Run one pass unit by unit: (experiments, wall seconds, calibrated seconds).

    With calibrated=True the calibration kernel runs before the first unit
    and after each one, untimed.  Each unit's time is scaled by
    CALIBRATION_REF_S over the mean of the kernel times on either side of it,
    which cancels the host's speed swings (see README, "Calibrated time").
    """
    exps, wall, cal = [], 0.0, 0.0
    c_prev = calibration_kernel() if calibrated else 0.0
    for unit in units:
        t0 = time.perf_counter()
        exps += unit()
        t = time.perf_counter() - t0
        wall += t
        if calibrated:
            c_next = calibration_kernel()
            cal += t * CALIBRATION_REF_S / ((c_prev + c_next) / 2)
            c_prev = c_next
    return exps, wall, cal


# -- quality metrics from the checked pass ------------------------------------


def quality(wl, exps, outcomes):
    """escape_rate, escape_iter_p50 and certified_rate of one pass.

    In the run workloads they come from the escape loops' returned traces
    (curvature-search arms nc, snc, ancgd); certified_rate is their share of
    trials whose first exploit met the lemma decrease bound.  In certify they
    come from the fd_quadform certificates, and certified_rate is the worst
    finder x saddle cell.
    """
    if isinstance(wl, Certify):
        done = [exp for exp in exps if exp.output is not None]
        iters = [i for exp in done for i in exp.iters]
        certified = min((wl.rate(exp) for exp in done), default=0.0)
    else:
        arms = [o for o in outcomes if o.alg in spans.CURVATURE_ARMS and o.escape_iter is not None]
        iters = [o.escape_iter for o in arms]
        certified = sum(o.first_certified for o in arms) / len(arms) if arms else 0.0
    return {
        "escape_rate": wl.escape_rate(exps),
        "escape_iter_p50": float(statistics.median(iters)) if iters else 0.0,
        "certified_rate": certified,
    }


# -- checks -------------------------------------------------------------------


class Ledger:
    """Trials attempted and failed across every pass of a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, exps, bad):
        self.attempted += sum(exp.trials for exp in exps)
        failed = {id(exp): exp for exp in exps if exp.error is not None}
        for exp in exps:
            if exp.error is not None:
                self.problems.append(f"{exp.label}: {exp.error.strip().splitlines()[-1]}")
                sys.stderr.write(f"[{exp.label}] {exp.error}\n")
        for exp, msg in bad:
            failed[id(exp)] = exp
            self.problems.append(msg)
        self.failed += sum(exp.trials for exp in failed.values())


def same_outputs(reference, exps):
    ref = {exp.label: exp.output for exp in reference}
    return [
        (exp, f"{exp.label}: output differs from the checked pass")
        for exp in exps if exp.output is not None and ref.get(exp.label) != exp.output
    ]


# -- set-up probes, provenance ------------------------------------------------

PROBE = """
import json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, {src!r})
import saddlescape.cli
t1 = time.perf_counter()
from saddlescape.testbed import get_landscape
for land_id in {ids!r}:
    get_landscape(land_id)
t2 = time.perf_counter()
print(json.dumps({{"import_s": t1 - t0, "setup_s": t2 - t0}}))
"""


def setup_probes(landscapes):
    """Fresh interpreters that import saddlescape and build the workload's
    landscapes once.  Returns the medians of set-up and import time, both
    calibrated like a timed pass, and the raw median set-up time."""
    code = PROBE.format(src=str(SRC), ids=list(landscapes))
    setups, imports, raw = [], [], []
    c_prev = calibration_kernel()
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True,
            timeout=60, check=True,
        )
        c_next = calibration_kernel()
        scale = CALIBRATION_REF_S / ((c_prev + c_next) / 2)
        c_prev = c_next
        probe = json.loads(out.stdout.strip().splitlines()[-1])
        raw.append(probe["setup_s"])
        setups.append(probe["setup_s"] * scale)
        imports.append(probe["import_s"] * scale)
    return statistics.median(setups), statistics.median(imports), statistics.median(raw)


def git_sha():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    text = head.read_text().strip()
    if not text.startswith("ref: "):
        return text
    ref = text[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def provenance(seed, numpy_version):
    files = sorted((SRC / "saddlescape").glob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in files:
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "git_sha": git_sha(),
        "src_sha256": digest.hexdigest()[:16],
        "src_lines": lines,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "seed": seed,
    }


# -- one workload -------------------------------------------------------------


def run_workload(name, seed, seconds, trace, write_refs=False):
    pkg = load_package()
    wl = make_workload(name, pkg)
    ref_dir = REF_DIR / wl.ref_name
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{name}-{os.getpid()}"
    workdir.mkdir()
    home = os.getcwd()
    ledger = Ledger()
    walls, cals, traced_cals, profiles = [], [], [], []
    restore_problems: list[str] = []
    os.chdir(workdir)
    try:
        # Checked pass: untimed, with the escape loops wrapped to read each
        # trial's trace.  It also lets lazy set-up finish before timing.
        capture = spans.Tracer()
        capture.install(pkg, full=False)
        try:
            checked, _, _ = run_pass(wl.units(pkg, seed, capture=True))
        finally:
            restore_problems += capture.uninstall()
        wl.collect(checked)
        bad = wl.check_bars(checked)
        if seed == DEFAULT_SEED and not write_refs:
            bad += wl.check_ref(checked, ref_dir)
        ledger.record(checked, bad)
        qual = quality(wl, checked, capture.outcomes)
        if write_refs:
            ref_dir.mkdir(parents=True, exist_ok=True)
            for fname, data in wl.ref_files(checked).items():
                (ref_dir / fname).write_bytes(data)

        deadline = time.perf_counter() + seconds
        while True:
            gc.collect()
            exps, wall, cal = run_pass(wl.units(pkg, seed), calibrated=True)
            walls.append(wall)
            cals.append(cal)
            wl.collect(exps)
            ledger.record(exps, same_outputs(checked, exps))
            if trace:
                tracer = spans.Tracer()
                tracer.install(pkg, full=True)
                gc.collect()
                try:
                    exps, wall, cal = run_pass(wl.units(pkg, seed, tracer=tracer), calibrated=True)
                finally:
                    restore_problems += tracer.uninstall()
                traced_cals.append(cal)
                wl.collect(exps)
                ledger.record(exps, same_outputs(checked, exps))
                trials = sum(exp.trials for exp in exps)
                profiles.append(spans.profile(tracer, round(wall * 1e9), trials))
            if time.perf_counter() >= deadline:
                break
    finally:
        os.chdir(home)
        shutil.rmtree(workdir, ignore_errors=True)

    peak_self = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    peak_workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    setup_s, import_s, raw_setup_s = setup_probes(wl.landscapes)

    wall_s = statistics.median(cals)
    trials_per_pass = sum(exp.trials for exp in checked)
    e2e = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "trials_per_s": trials_per_pass / wall_s,
        "peak_rss_mb": peak_self,
        **qual,
    }
    ledger.problems += [f"not restored after tracing: {p}" for p in restore_problems]
    ledger.problems = list(dict.fromkeys(ledger.problems))  # one line per distinct problem
    prov = provenance(seed, np.__version__)
    lines = [
        f"workload {name}  seed {seed}  seconds {seconds}  trace {trace}",
        "provenance " + json.dumps(prov, sort_keys=True),
    ]
    if trace:
        ledger.problems += spans.self_test(profiles)
        overhead = statistics.median(traced_cals) / wall_s - 1.0
        layer = spans.per_layer_metrics(profiles, overhead, import_s * 1e3)
        metrics = {k: {"value": float(v), "unit": u} for k, (v, u) in layer.items()}
        lines.append(f"{len(profiles)} traced passes, median {statistics.median(traced_cals):.4f} s; "
                     f"{len(walls)} untraced passes, median {wall_s:.4f} s (calibrated)")
        with open(OUT_DIR / f"spans-{name}.csv", "w") as fh:
            tracer.write_csv(fh)
    else:
        metrics = {k: {"value": float(v), "unit": END_TO_END_UNITS[k]} for k, v in e2e.items()}
    notes = {
        "setup_s": f"median of {SETUP_PROBES} calibrated fresh interpreters; raw median {raw_setup_s:.4f} s",
        "wall_s": f"median of {len(walls)} calibrated passes, tracing off; raw median "
                  f"{statistics.median(walls):.4f} s, fastest {min(walls):.4f} s",
        "trials_per_s": f"{trials_per_pass} trials per pass",
        "peak_rss_mb": "this process",
    }
    for key, m in metrics.items():
        lines.append(f"{key:36s} {m['value']:<14.6g} {m['unit']:6s} {notes.get(key, '')}".rstrip())
    if not trace:
        if isinstance(wl, DimScaleJobs2):
            lines.append(f"{'workers_peak_rss_mb':36s} {peak_workers:<14.6g} MB     pool workers")
        rate = ledger.failed / ledger.attempted if ledger.attempted else 0.0
        lines.append(f"{'error_rate':36s} {rate:<14.6g} ratio  "
                     f"{ledger.failed} failed of {ledger.attempted} attempted")
    lines.append("checks: " + ("ok" if not ledger.problems else f"{len(ledger.problems)} problem(s)"))
    lines += [f"  - {p}" for p in ledger.problems]
    result = {
        "correct": not ledger.problems,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }
    record = {
        "workload": name, "trace": trace, "seconds": seconds,
        "provenance": prov,
        "pass_walls_s": walls, "calibrated_pass_s": cals, "traced_calibrated_pass_s": traced_cals,
        "problems": ledger.problems, **result,
    }
    (OUT_DIR / f"result-{name}-trace{trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


def run_all(seed, seconds, trace):
    """Each workload in its own process; a summary line per workload."""
    results, code = {}, 0
    for name in WORKLOADS:
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600,
        )
        print(out.stdout, end="", flush=True)
        if out.returncode == 2:
            return 2
        results[name] = json.loads(out.stdout.strip().splitlines()[-1])
        code = max(code, out.returncode)
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "workloads": {k: r["metrics"] for k, r in results.items()},
    }))
    return code


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-refs", action="store_true",
                        help=f"rewrite {REF_DIR.name}/ from the checked pass (seed {DEFAULT_SEED} only)")
    args = parser.parse_args(argv)
    if args.write_refs and (args.seed != DEFAULT_SEED or args.workload in ("all", "dimscale-jobs2")):
        parser.error(f"--write-refs needs --seed {DEFAULT_SEED} and one of recipes-2d, dimscale, certify")
    try:
        if args.workload == "all":
            return run_all(args.seed, args.seconds, args.trace)
        return run_workload(args.workload, args.seed, args.seconds, args.trace, args.write_refs)
    except SourceMissing as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())

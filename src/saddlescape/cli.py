"""Command line front end: run experiments, scale dimensions, verify, derive."""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from .core import AlgorithmError, DivergenceError, ParameterError
from .harness import (
    ALGORITHMS, ExperimentConfig, _out_paths, derive_params_for, run_dimension_scaling,
    run_experiment,
)
from .testbed import VERIFY_IDS
from .verify import run_verify

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2
EXIT_DIVERGED = 3


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(EXIT_USAGE)


def _parse_x0(text: str) -> tuple:
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError as exc:
        raise ParameterError(f"bad x0 {text!r}: {exc}") from None


def _build_run_config(args: argparse.Namespace) -> ExperimentConfig:
    # Each run flag's dest is the ExperimentConfig field it sets.
    fields = (f.name for f in dataclasses.fields(ExperimentConfig))
    values = {name: getattr(args, name) for name in fields if getattr(args, name) is not None}
    if "x0" in values:
        values["x0"] = _parse_x0(values["x0"])
    if "algorithm" not in values or "landscape" not in values:
        raise ParameterError("--alg and --fn are required")
    return ExperimentConfig(**values)


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--alg", dest="algorithm", help=f"algorithm id: {', '.join(ALGORITHMS)}")
    p.add_argument("--fn", dest="landscape", help="landscape id, e.g. quartic, cubic, highdim-10")
    p.add_argument("--mode", choices=["paper", "experiment"], help="parameter source")
    p.add_argument("--trials", type=int, help="number of seeded trials (default 100)")
    p.add_argument("--seed", type=int, help="base seed (default 0)")
    p.add_argument("--steps", type=int, help="iteration budget per trial")
    p.add_argument("--out", help="output path; writes .csv and .summary.json")
    p.add_argument("--jobs", type=int, help="workers, at most the CPUs")
    p.add_argument("--eta", type=float, help="step size")
    p.add_argument("--r", dest="radius", type=float, help="perturbation/probe radius")
    p.add_argument("--sigma", type=float, help="gradient noise level")
    p.add_argument(
        "--m", dest="batch", type=int,
        help="minibatch size of snc's search differences and of psgd's gradient estimate",
    )
    p.add_argument("--M", dest="outer_batch", type=int, help="outer SGD minibatch size")
    p.add_argument("--eps", type=float, help="target accuracy")
    p.add_argument("--delta", type=float, help="failure probability")
    p.add_argument("--delta-f", dest="delta_f", type=float, help="initial gap bound")
    p.add_argument("--ncf-steps", dest="ncf_steps", type=int, help="curvature-search length")
    p.add_argument("--pert", dest="exploit_step", type=float, help="exploit step length")
    p.add_argument("--g-thresh", dest="grad_threshold", type=float, help="gradient trigger")
    p.add_argument("--t-thresh", dest="cooldown", type=int, help="trigger cooldown steps")
    p.add_argument("--threshold", type=float, help="escape decrease threshold")
    p.add_argument("--theta", type=float, help="momentum parameter")
    p.add_argument("--gamma", type=float, help="certificate curvature parameter")
    p.add_argument("--nce-radius", dest="nce_radius", type=float, help="momentum-reset step")
    p.add_argument("--x0", help="start point, comma separated (default: first saddle)")
    p.add_argument("--trust-region", dest="trust_region", type=float, help="divergence bound")


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = _build_run_config(args)
    result = run_experiment(cfg)
    print(
        f"alg={cfg.algorithm} fn={cfg.landscape} mode={cfg.mode} "
        f"trials={len(result.rows)} steps={result.total_steps} threshold={result.threshold:g} "
        f"escape_rate={result.escape_rate:.4f} "
        f"fraction_below={result.fail_rate:.4f} "
        f"mean_decrease={result.mean_decrease:.6f}"
    )
    if cfg.out is not None:
        print(f"wrote {_out_paths(cfg.out)[0]}")
    return EXIT_OK


def _cmd_dimscale(args: argparse.Namespace) -> int:
    try:
        ps = [int(p) for p in args.p.split(",") if p.strip()]
    except ValueError:
        raise ParameterError(f"bad --p list {args.p!r}") from None
    if not ps:
        raise ParameterError("--p must list at least one exponent")
    rows = run_dimension_scaling(
        ps, trials=args.trials, seed=args.seed, jobs=args.jobs, out=args.out
    )
    for row in rows:
        print(
            f"p={row['p']} n={row['n']} nc[{row['nc_steps']} steps]="
            f"{row['nc_escape_rate']:.4f} pgd[{row['pgd_steps']} steps]="
            f"{row['pgd_escape_rate']:.4f}"
        )
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    ids = None if args.fn is None else [p.strip() for p in args.fn.split(",") if p.strip()]
    report = run_verify(ids=ids)
    for entry in report.entries:
        for check in entry["checks"]:
            status = "ok" if check["ok"] else "FAIL"
            print(f"{status:4s} {entry['landscape']}: {check['name']}: {check['detail']}")
    if not report.ok:
        print(f"verification failed: {len(report.failures)} check(s)")
        return EXIT_VERIFY
    print(f"verification passed: {len(report.entries)} landscape(s)")
    return EXIT_OK


def _cmd_params(args: argparse.Namespace) -> int:
    out = derive_params_for(
        args.alg, ell=args.ell, rho=args.rho, eps=args.eps, delta=args.delta, n=args.n,
        delta_f=args.delta_f, ell_tilde=args.ell_tilde,
    )
    print(json.dumps(dataclasses.asdict(out), indent=2, sort_keys=True))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="saddlescape",
        description="Escape saddle points with gradient-only negative-curvature search.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_run = sub.add_parser("run", help="run seeded trials of one algorithm on one landscape")
    _add_run_flags(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_dim = sub.add_parser("dimscale", help="escape rates across dimensions 10**p")
    p_dim.add_argument("--p", default="1,2,3", help="comma list of exponents")
    p_dim.add_argument("--trials", type=int, default=100)
    p_dim.add_argument("--seed", type=int, default=0)
    p_dim.add_argument("--jobs", type=int, help="workers, at most the CPUs")
    p_dim.add_argument("--out", help="CSV output path")
    p_dim.set_defaults(func=_cmd_dimscale)

    p_ver = sub.add_parser("verify", help="audit landscape gradients, saddles, spectra")
    p_ver.add_argument("--fn", help=f"comma list of ids (default VERIFY_IDS: {VERIFY_IDS})")
    p_ver.set_defaults(func=_cmd_verify)

    p_par = sub.add_parser("params", help="print derived constants for an algorithm")
    p_par.add_argument("--alg", required=True, help="ncf or any run --alg id")
    p_par.add_argument("--ell", type=float, required=True)
    p_par.add_argument("--rho", type=float, required=True)
    p_par.add_argument("--eps", type=float, required=True)
    p_par.add_argument("--delta", type=float, default=0.1)
    p_par.add_argument("--n", type=int, required=True)
    p_par.add_argument("--delta-f", dest="delta_f", type=float, help="gap bound (default 1)")
    p_par.add_argument("--ell-tilde", dest="ell_tilde", type=float)
    p_par.set_defaults(func=_cmd_params)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # A diverging iterate is reported once, as exit 3, not as numpy warnings.
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except ParameterError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except DivergenceError as exc:
        sys.stderr.write(f"diverged: {exc}\n")
        return EXIT_DIVERGED
    except AlgorithmError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_DIVERGED
    except OSError as exc:  # say, an output that could not be written
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

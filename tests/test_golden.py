"""Golden outputs, pinned bit for bit: paper-mode params over a fixed grid
of experiments, `params` JSON, `verify` stdout and short paper-mode runs
(tests/golden/), and the benchmark's reference outputs of the six
calibrated recipes and the dimension sweep (perfbench/ref/, read only).
The acceptance tests check their own verdict lines against
tests/golden/acceptance_lines.txt.

Regenerate tests/golden/ after an intended change with

    PYTHONPATH=src python tests/test_golden.py

and the benchmark references with perfbench/run.py --write-refs, and say
in CHANGES.md why the bytes changed.
"""

import contextlib
import io
import itertools
import json
import os
import sys
from pathlib import Path

import pytest

from saddlescape import ExperimentConfig, ParameterError, get_landscape, run_dimension_scaling
from saddlescape.cli import main
from saddlescape.harness import ALGORITHMS, build_payload

GOLDEN = Path(__file__).resolve().parent / "golden"
PAPER_PARAMS = GOLDEN / "paper_params.txt"
PARAMS_JSON = GOLDEN / "params_json.txt"
VERIFY_STDOUT = GOLDEN / "verify_stdout.txt"
ACCEPTANCE_LINES = GOLDEN / "acceptance_lines.txt"
PAPER_RUNS = GOLDEN / "paper_runs"
REF = Path(__file__).resolve().parents[1] / "perfbench" / "ref"
RECIPES = [
    ("nc", "quartic"), ("pgd", "quartic"), ("ancgd", "quartic"), ("pagd", "quartic"),
    ("snc", "cubic"), ("psgd", "cubic"),
]

LANDSCAPES = ("quartic", "cubic", "triangle", "exponential", "highdim-10", "highdim-100-soft")
EPSILONS = (0.3, 0.01, 0.001)
DELTAS = (0.1, 0.5)
KNOB_SETS = ({}, {"steps": 200}, {"ncf_steps": 7, "radius": 0.01})


def paper_params_lines() -> list[str]:
    """One line per grid case: the case, then repr(params) of its paper-mode
    payload, or the ParameterError that refuses it."""
    lands = {land_id: get_landscape(land_id) for land_id in LANDSCAPES}
    lines = []
    for alg, land_id, eps, delta, knobs in itertools.product(
        ALGORITHMS, LANDSCAPES, EPSILONS, DELTAS, KNOB_SETS
    ):
        case = f"{alg} {land_id} eps={eps!r} delta={delta!r} {knobs}"
        try:
            cfg = ExperimentConfig(
                algorithm=alg, landscape=land_id, mode="paper", eps=eps, delta=delta, **knobs
            )
            out = repr(build_payload(cfg, lands[land_id])["params"])
        except ParameterError as exc:
            out = f"ParameterError: {exc}"
        lines.append(f"{case}: {out}")
    return lines


# `params` at the recipes' quartic constants and at unit constants in ten
# dimensions, each for ncf and the six algorithms.
PARAMS_SETTINGS = (("5.75", "4.5", "0.01", "2"), ("1", "1", "0.1", "10"))
PAPER_RUN_FNS = ("quartic", "cubic")


def _stdout_of(argv: list[str]) -> str:
    """cli.main's stdout for argv, which must exit 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0, argv
    return out.getvalue()


def params_json_text() -> str:
    """Each `params` command line, then the JSON it prints."""
    chunks = []
    for (ell, rho, eps, n), alg in itertools.product(PARAMS_SETTINGS, ("ncf",) + ALGORITHMS):
        argv = ["params", "--alg", alg, "--ell", ell, "--rho", rho, "--eps", eps, "--n", n,
                "--delta", "0.3"]
        chunks.append(f"$ {' '.join(argv)}\n{_stdout_of(argv)}")
    return "".join(chunks)


def paper_run_files(alg: str, fn: str, workdir: Path) -> dict[str, bytes]:
    """The CSV and summary of `run --mode paper --steps 200 --trials 20`,
    written under workdir as <alg>-<fn>.*."""
    label = f"{alg}-{fn}"
    argv = ["run", "--alg", alg, "--fn", fn, "--mode", "paper", "--steps", "200",
            "--trials", "20", "--out", label]
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        _stdout_of(argv)
    finally:
        os.chdir(cwd)
    names = (f"{label}.csv", f"{label}.summary.json")
    return {name: (workdir / name).read_bytes() for name in names}


def acceptance_lines() -> list[str]:
    """Run tests/test_acceptance.py and return its seven verdict lines,
    wall times masked, in criterion order."""
    pytest.main(["-q", "-p", "no:cacheprovider", str(Path(__file__).with_name("test_acceptance.py"))])
    lines = list(sys.modules["test_acceptance"].VERDICTS.values())
    assert len(lines) == 7, lines
    return lines


def test_paper_params_match_golden():
    want = PAPER_PARAMS.read_text().splitlines()
    got = paper_params_lines()
    assert len(got) == len(want) == 648
    changed = [(w, g) for w, g in zip(want, got) if w != g]
    assert not changed, f"{len(changed)} case(s) differ; first:\n{changed[0][0]}\n{changed[0][1]}"


def test_params_json_matches_golden():
    assert params_json_text() == PARAMS_JSON.read_text()


def test_verify_stdout_matches_golden():
    assert _stdout_of(["verify"]) == VERIFY_STDOUT.read_text()


@pytest.mark.parametrize("fn", PAPER_RUN_FNS)
@pytest.mark.parametrize("alg", ALGORITHMS)
def test_paper_run_matches_golden(alg, fn, tmp_path):
    for name, got in paper_run_files(alg, fn, tmp_path).items():
        assert got == (PAPER_RUNS / name).read_bytes(), name


@pytest.mark.parametrize("jobs", [1, 2])
def test_recipes_match_benchmark_reference(jobs, tmp_path, monkeypatch, capsys):
    # The six recipes as the benchmark runs them (100 trials, seed 0, --out
    # <alg>-<fn> in the working directory, so config.out matches).  Rows do
    # not depend on the job count; the summary echoes it.
    monkeypatch.chdir(tmp_path)
    for alg, fn in RECIPES:
        label = f"{alg}-{fn}"
        argv = ["run", "--alg", alg, "--fn", fn, "--trials", "100", "--seed", "0"]
        assert main(argv + ["--jobs", str(jobs), "--out", label]) == 0
        csv = (tmp_path / f"{label}.csv").read_bytes()
        assert csv == (REF / "recipes-2d" / f"{label}.csv").read_bytes(), label
        summary = (tmp_path / f"{label}.summary.json").read_text()
        echo = f'    "jobs": {jobs},\n'
        assert summary.count(echo) == 1, label
        want = (REF / "recipes-2d" / f"{label}.summary.json").read_text()
        assert summary.replace(echo, '    "jobs": 1,\n') == want, label


@pytest.mark.parametrize("jobs", [1, 2])
def test_dimension_sweep_matches_benchmark_reference(jobs):
    rows = run_dimension_scaling([1, 2, 3], trials=20, seed=0, jobs=jobs)
    want = json.loads((REF / "dimscale" / "rows.json").read_text())
    assert {f"p={row['p']}": row for row in rows} == want


if __name__ == "__main__":
    PAPER_RUNS.mkdir(parents=True, exist_ok=True)
    PAPER_PARAMS.write_text("\n".join(paper_params_lines()) + "\n")
    PARAMS_JSON.write_text(params_json_text())
    VERIFY_STDOUT.write_text(_stdout_of(["verify"]))
    for alg, fn in itertools.product(ALGORITHMS, PAPER_RUN_FNS):
        paper_run_files(alg, fn, PAPER_RUNS)
    ACCEPTANCE_LINES.write_text("\n".join(acceptance_lines()) + "\n")
    print(f"wrote {PAPER_PARAMS}, {PARAMS_JSON}, {VERIFY_STDOUT}, {ACCEPTANCE_LINES} and "
          f"{PAPER_RUNS}/")

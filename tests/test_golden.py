"""Golden outputs: paper-mode params over a fixed grid of experiments,
pinned bit for bit in tests/golden/.

Regenerate after an intended change with

    PYTHONPATH=src python tests/test_golden.py

and say in CHANGES.md why the bytes changed.
"""

import itertools
from pathlib import Path

from saddlescape import ExperimentConfig, ParameterError, get_landscape
from saddlescape.harness import ALGORITHMS, build_payload

GOLDEN = Path(__file__).resolve().parent / "golden"
PAPER_PARAMS = GOLDEN / "paper_params.txt"

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


def test_paper_params_match_golden():
    want = PAPER_PARAMS.read_text().splitlines()
    got = paper_params_lines()
    assert len(got) == len(want) == 648
    changed = [(w, g) for w, g in zip(want, got) if w != g]
    assert not changed, f"{len(changed)} case(s) differ; first:\n{changed[0][0]}\n{changed[0][1]}"


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    PAPER_PARAMS.write_text("\n".join(paper_params_lines()) + "\n")
    print(f"wrote {PAPER_PARAMS}")

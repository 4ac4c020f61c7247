"""Curvature-search descent vs random perturbations at the same oracle budget.

Both methods start at the strict saddle of the quartic two-well landscape
with 90 gradient calls per trial. The curvature arm spends 30 of them on a
search plus one exploit step; the baseline replaces flat gradient steps with
uniform ball draws. The decrease histograms show why direction information
matters: random perturbations waste most of the budget re-approaching the
ridge.
"""

from saddlescape import ExperimentConfig, run_experiment

TRIALS = 200


def show(result, label):
    print(f"\n{label}: escape rate {result.escape_rate:.3f} "
          f"(bar: decrease >= {result.threshold:g})")
    hist = result.summary()
    peak = max(hist["counts"]) or 1
    for left, count in zip(hist["bin_edges"][:-1], hist["counts"]):
        if count == 0:
            continue
        bar = "#" * max(1, int(round(40 * count / peak)))
        print(f"  decrease {left:5.2f}-{left + hist['bin_width']:.2f}  {bar}{count:>5d}")


def main():
    nc = run_experiment(ExperimentConfig(
        algorithm="nc", landscape="quartic", trials=TRIALS, seed=0))
    pgd = run_experiment(ExperimentConfig(
        algorithm="pgd", landscape="quartic", trials=TRIALS, seed=0))

    show(nc, "curvature search (nc)")
    show(pgd, "perturbed descent (pgd)")

    print(f"\nstuck fraction: nc {nc.fail_rate:.3f} vs pgd {pgd.fail_rate:.3f} "
          f"at identical budgets")


if __name__ == "__main__":
    main()

"""The accelerated loop: momentum descent with curvature-search windows.

One trace from the quartic saddle shows the anatomy: a perturbation anchors
a pinned search window, the window's momentum pair stays on a sphere around
the anchor, and the exploit step converts the found direction into function
decrease. Between windows an exact certificate check occasionally resets
momentum (the "nce" event). The energy f(x) + |v|^2 / (2 eta) is monotone
outside windows, which is the mechanism behind the accelerated rate.
A window's records hold the anchor (its f, no query) and carry no momentum
(v_norm is None), so the energy skips them: across a window it goes from the
anchor's record straight to the exploit's.
"""

from collections import Counter

from saddlescape import ExperimentConfig, get_landscape, run_experiment
from saddlescape.ancgd import ANCParams, ancgd_run
from saddlescape.core import RngStream

import numpy as np

RECIPE = dict(
    eta=0.05, theta=0.042, gamma=0.0355, nce_radius=0.0089, ncf_steps=20,
    perturb_radius=0.08, total_steps=40, eps=0.02, delta0=0.1, ell=5.0,
    rho=1.0, grad_threshold=0.02, exploit_step=1.2, cooldown=10**6,
)


def anatomy():
    land = get_landscape("quartic")
    trace = ancgd_run(land.oracle, np.zeros(2), ANCParams(**RECIPE), RngStream(0, 3))
    print("one trace, event timeline:")
    print("  " + " ".join(r.event for r in trace.records))
    print(f"  final f = {trace.final_f():.4f} (saddle f = 0, minima f = -1)")

    exploit = trace.meta["exploits"][0]
    print(f"  window exploit at t = {exploit['t']}: decrease {exploit['decrease']:.4f}, "
          f"certified = {exploit['certified']}")

    scored = [r for r in trace.records if r.v_norm is not None]
    energies = [r.f + r.v_norm**2 / (2 * RECIPE["eta"]) for r in scored]
    steps = list(zip(energies, energies[1:], scored[1:]))
    plain = [b - a for a, b, rec in steps if rec.event in ("agd", "nce")]
    across = [b - a for a, b, rec in steps if rec.event == "ncf-exploit"]
    print(f"  energy {energies[0]:.4f} -> {energies[-1]:.4f}; largest rise on "
          f"plain steps {max(plain):.2e}, change across each window "
          f"{', '.join(f'{d:+.4f}' for d in across)}")


def comparison():
    ancgd = run_experiment(ExperimentConfig(
        algorithm="ancgd", landscape="quartic", trials=200, seed=0))
    pagd = run_experiment(ExperimentConfig(
        algorithm="pagd", landscape="quartic", trials=200, seed=0))
    print(f"\n200 trials at 40 iterations each:")
    print(f"  accelerated + curvature windows: escape rate {ancgd.escape_rate:.3f}")
    print(f"  accelerated + ball perturbations: escape rate {pagd.escape_rate:.3f}")
    events = Counter()
    for r in ancgd.rows:
        events[r.escaped] += 1
    print(f"  ancgd escaped/stuck: {events[True]}/{events[False]}")


if __name__ == "__main__":
    anatomy()
    comparison()

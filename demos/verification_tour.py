"""Independent verification: trust nothing the landscapes declare.

The verify module rebuilds every claim from gradient calls alone:
finite-difference gradients and Hessians for declared eigenvalues, and
quadratic forms for curvature certificates. This tour runs the full catalog
sweep, classifies points on the quartic landscape, and cross-checks declared
bottom eigenvalues from public parts: at n = 300, where a dense Hessian is
refused, the gradient-only curvature search (nc_find) scored by fd_quadform;
at n = 10, the dense finite-difference Hessian's spectrum.
"""

import numpy as np

from saddlescape import (
    NCParams,
    RngStream,
    classify,
    dense_hessian,
    fd_quadform,
    get_landscape,
    nc_find,
    run_verify,
)


def catalog_sweep():
    report = run_verify()
    worst = {}
    for entry in report.entries:
        fails = [c for c in entry["checks"] if not c["ok"]]
        worst[entry["landscape"]] = len(fails)
    print(f"catalog sweep: {'OK' if report.ok else 'FAILED'} "
          f"({sum(len(e['checks']) for e in report.entries)} checks, "
          f"{len(report.failures)} failures)")
    for land_id, nfail in worst.items():
        print(f"  {land_id:<16} {'ok' if nfail == 0 else f'{nfail} FAILED'}")


def classify_points():
    land = get_landscape("quartic")
    for label, x in [("saddle", np.zeros(2)), ("minimum", np.array([2.0, 0.0])),
                     ("slope", np.array([1.0, 1.0]))]:
        verdict = classify(land.oracle, x, eps=0.01, rho=land.oracle.spec.rho)
        print(f"  {label:<8} grad_norm {verdict.grad_norm:.2e}  "
              f"lambda_min {verdict.lambda_min:+.3f}  sosp = {verdict.is_sosp}")


def big_eigenvalue():
    land = get_landscape("highdim-300")
    saddle, spec = land.saddles[0], land.oracle.spec
    # A vanishing probe radius, so the search sees the Hessian at the saddle.
    radius = 1e-5 * max(1.0, float(np.linalg.norm(saddle.point)))
    params = NCParams(steps=300, radius=radius, eps=0.1, ell=spec.ell, rho=spec.rho)
    e_hat = nc_find(land.oracle, saddle.point, params, RngStream(0, 0)).e_hat
    lam = fd_quadform(land.oracle, saddle.point, e_hat)
    print(f"  n = 300 nc_find + fd_quadform: lambda_min ~ {lam:+.4f} "
          f"(declared {saddle.lambda_min:+.4f})")
    small = get_landscape("highdim-10")
    lam = np.linalg.eigvalsh(dense_hessian(small.oracle, small.saddles[0].point))[0]
    print(f"  n = 10 dense Hessian: lambda_min = {lam:+.4f} "
          f"(declared {small.saddles[0].lambda_min:+.4f})")


if __name__ == "__main__":
    catalog_sweep()
    print("\nclassification on the quartic landscape (eps = 0.01):")
    classify_points()
    print("\nbottom-eigenvalue cross-checks:")
    big_eigenvalue()

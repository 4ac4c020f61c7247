"""Independent checks of declared structure: finite-difference gradients and
Hessians, the second-order stationarity test, and the landscape audit."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    Array, GradientOracle, ParameterError, RngStream, require_list, require_positive,
    require_vector,
)
from .testbed import VERIFY_IDS, Landscape, get_landscape


# Above this dimension a dense finite-difference Hessian is refused; callers
# with analytic structure should verify it directly.
DENSE_CAP = 200
# run_verify's largest dimension.  Its audit builds n x n arrays (a difference
# stencil per sampled point, and 25 Hessians for the spectrum); at this n it
# ran for 56 s on a 2-core VM, and at 10**5 one stencil alone is 80 GB.
MAX_VERIFY_DIM = 3000
# run_verify's box points per landscape for the gradient check.
_POINTS = 100


@dataclass(frozen=True)
class StationarityVerdict:
    """Outcome of a second-order stationarity test at tolerances (eps, rho)."""

    grad_ok: bool
    curv_ok: bool
    is_sosp: bool
    grad_norm: float
    lambda_min: float
    threshold: float


def default_step(x: Array) -> float:
    """Central-difference step balancing truncation against roundoff."""
    return float(np.finfo(float).eps ** (1.0 / 3.0) * max(1.0, float(np.linalg.norm(x))))


def fd_quadform(oracle: GradientOracle, x: Array, e: Array, h: float | None = None) -> float:
    """Rayleigh quotient estimate <e, H(x) e> from two gradient calls.

    For a unit direction the error is bounded by rho * h on a declared
    Hessian-Lipschitz domain.
    """
    x = require_vector(x, "x", oracle.dim)
    e = require_vector(e, "direction", oracle.dim)
    require_positive(h=h)
    norm = float(np.linalg.norm(e))
    if not 0.0 < norm < math.inf:
        raise ParameterError(f"direction must be nonzero with a finite norm, got {norm}")
    e = e / norm
    if h is None:
        h = default_step(x)
    gp = oracle.gradient(x + h * e)
    gm = oracle.gradient(x - h * e)
    return float(np.dot(gp - gm, e) / (2.0 * h))


def _central_differences(fn, x: Array, h: float) -> Array:
    """(fn(x + h e_i) - fn(x - h e_i)) / 2h for each coordinate axis e_i,
    stacked along the last axis."""
    diffs = [(fn(x + e) - fn(x - e)) / (2.0 * h) for e in h * np.eye(x.shape[0])]
    return np.array(diffs).T


def dense_hessian(oracle: GradientOracle, x: Array, h: float | None = None) -> Array:
    """Symmetrized central-difference Hessian, one gradient pair per column."""
    x = require_vector(x, "x", oracle.dim)
    if x.shape[0] > DENSE_CAP:
        raise ParameterError(
            f"dense Hessian capped at n={DENSE_CAP}; use fd_quadform or analytic structure"
        )
    require_positive(h=h)
    if h is None:
        h = default_step(x)
    columns = _central_differences(oracle.gradient, x, h)
    return (columns + columns.T) / 2.0


def _verdict(
    grad_norm: float, lambda_min: float, h: float, eps: float, rho: float
) -> StationarityVerdict:
    """Small gradient and no strong negative curvature; the curvature margin
    10 * rho * h absorbs the error of a Hessian differenced at step h (none
    for an analytic Hessian, h = 0)."""
    threshold = -math.sqrt(rho * eps)
    grad_ok = grad_norm <= eps
    curv_ok = lambda_min >= threshold - 10.0 * rho * h
    return StationarityVerdict(
        grad_ok=grad_ok,
        curv_ok=curv_ok,
        is_sosp=grad_ok and curv_ok,
        grad_norm=grad_norm,
        lambda_min=lambda_min,
        threshold=threshold,
    )


def classify(
    oracle: GradientOracle,
    x: Array,
    eps: float,
    rho: float | None = None,
    h: float | None = None,
) -> StationarityVerdict:
    """Second-order stationarity test at tolerances (eps, rho) on the
    finite-difference Hessian."""
    require_positive(eps=eps, rho=rho)
    x = require_vector(x, "x", oracle.dim)
    rho = oracle.spec.rho if rho is None else rho
    grad_norm = float(np.linalg.norm(oracle.gradient(x)))
    h = default_step(x) if h is None else h
    lambda_min = float(np.linalg.eigvalsh(dense_hessian(oracle, x, h))[0])
    return _verdict(grad_norm, lambda_min, h, eps, rho)


@dataclass
class VerifyReport:
    entries: list[dict] = field(default_factory=list)

    @property
    def failures(self) -> list[str]:
        return [
            f"{entry['landscape']}: {check['name']}: {check['detail']}"
            for entry in self.entries for check in entry["checks"] if not check["ok"]
        ]

    @property
    def ok(self) -> bool:
        return not self.failures


def _check(entry: dict, name: str, ok: bool, detail: str) -> None:
    entry["checks"].append({"name": name, "ok": bool(ok), "detail": detail})


def _fd_gradient(oracle: GradientOracle, x: Array) -> Array:
    return _central_differences(oracle.value, x, default_step(x))


def _spectrum_at(land: Landscape, x: Array) -> tuple[Array, float]:
    """Ascending eigenvalues of the Hessian the audit trusts at x, and its
    difference step: central differences up to DENSE_CAP, else the analytic
    Hessian (step 0)."""
    if land.dim <= DENSE_CAP:
        h = default_step(x)
        return np.linalg.eigvalsh(dense_hessian(land.oracle, x, h)), h
    return np.linalg.eigvalsh(land.hessian(x)), 0.0


def run_verify(ids=None) -> VerifyReport:
    """Independent numerical audit of the landscapes ids (VERIFY_IDS if None).

    Checks per landscape: analytic gradients against central differences at
    _POINTS sampled box points; every declared saddle is stationary, has the
    declared bottom eigenvalue and is not second-order stationary; every
    declared minimum is stationary, has the declared value and is
    second-order stationary; the sampled Hessian spectrum respects the
    declared ell.  ids that is not a list or is empty, and a landscape of
    n > MAX_VERIFY_DIM, are refused before any landscape is audited.
    """
    ids = VERIFY_IDS if ids is None else require_list(ids, "ids", "landscape ids")
    if not ids:
        raise ParameterError("verify needs at least one landscape")
    landscapes = [get_landscape(i) for i in ids]
    for land in landscapes:
        if land.dim > MAX_VERIFY_DIM:
            raise ParameterError(f"verify caps n at {MAX_VERIFY_DIM}; {land.id} has n={land.dim}")
    report = VerifyReport()
    for land in landscapes:
        entry = {"landscape": land.id, "checks": []}
        report.entries.append(entry)
        oracle = land.oracle
        stream = RngStream(2026, 0).substream(("verify", land.id))
        lo, hi = land.box

        worst = 0.0
        for _ in range(_POINTS):
            x = stream.gen.uniform(lo, hi, size=land.dim)
            g = oracle.gradient(x)
            err = float(np.linalg.norm(g - _fd_gradient(oracle, x)))
            worst = max(worst, err / max(1.0, float(np.linalg.norm(g))))
        _check(
            entry, "gradient-consistency", worst <= 1e-5,
            f"worst relative error {worst:.3e} over {_POINTS} points",
        )

        for idx, sad in enumerate(land.saddles):
            grad_norm = float(np.linalg.norm(oracle.gradient(sad.point)))
            _check(
                entry, f"saddle-{idx}-stationary", grad_norm <= 1e-9,
                f"grad {grad_norm:.3e} vs bound 1e-09",
            )
            eps_ref = 0.5 * sad.lambda_min**2 / sad.rho_local
            eigs, h = _spectrum_at(land, sad.point)
            lam = float(eigs[0])
            lam_err = abs(lam - sad.lambda_min) / max(1.0, abs(sad.lambda_min))
            _check(
                entry, f"saddle-{idx}-eigenvalue", lam_err <= 1e-3,
                f"measured {lam:.6f}, declared {sad.lambda_min:.6f}",
            )
            verdict = _verdict(grad_norm, lam, h, eps_ref, sad.rho_local)
            _check(
                entry, f"saddle-{idx}-not-sosp", not verdict.is_sosp,
                f"lambda_min {verdict.lambda_min:.6f} vs threshold {verdict.threshold:.6f}",
            )

        rho_ref = land.saddles[0].rho_local if land.saddles else oracle.spec.rho
        eps_ref = 0.5 * land.saddles[0].lambda_min**2 / rho_ref if land.saddles else 0.01
        for idx, (point, value) in enumerate(land.minima):
            fval = oracle.value(point)
            _check(
                entry, f"minimum-{idx}-value", abs(fval - value) <= 1e-9,
                f"f={fval!r}, declared {value!r}",
            )
            grad_norm = float(np.linalg.norm(oracle.gradient(point)))
            _check(
                entry, f"minimum-{idx}-stationary", grad_norm <= 1e-7,
                f"grad {grad_norm:.3e} vs bound 1e-07",
            )
            eigs, h = _spectrum_at(land, point)
            verdict = _verdict(grad_norm, float(eigs[0]), h, eps_ref, rho_ref)
            _check(
                entry, f"minimum-{idx}-sosp", verdict.is_sosp,
                f"grad {verdict.grad_norm:.3e}, lambda_min {verdict.lambda_min:.6f}",
            )

        worst_eig = 0.0
        for _ in range(25):
            eigs = _spectrum_at(land, stream.gen.uniform(lo, hi, size=land.dim))[0]
            worst_eig = max(worst_eig, float(np.max(np.abs(eigs))))
        _check(
            entry, "spectrum-bound", worst_eig <= oracle.spec.ell * 1.001,
            f"max |eig| {worst_eig:.4f} vs declared ell {oracle.spec.ell}",
        )
    return report

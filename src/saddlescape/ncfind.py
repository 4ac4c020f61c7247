"""Negative-curvature finding from gradient differences, the exploit step it
feeds, and the escape-episode loop both escape drivers run."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import (
    AlgorithmError,
    Array,
    EVENT_NCF_EXPLOIT,
    EVENT_NCF_STEP,
    GradientOracle,
    ParameterError,
    RngStream,
    SmoothnessSpec,
    Trace,
    TraceRecord,
    check_finite,
    check_trust_region,
    require_positive,
    uniform_ball_sample,
    _norm,
)

__all__ = [
    "NCParams",
    "NCOutcome",
    "derive_nc_params",
    "nc_find",
    "perturb_along_nc",
    "lemma_decrease_bound",
    "exploit",
    "search_descent",
]

_MAX_RESTARTS = 3


@dataclass(frozen=True)
class NCParams:
    """Step count and probe radius for gradient-based curvature search."""

    steps: int
    radius: float
    eps: float
    delta0: float
    ell: float
    rho: float

    def __post_init__(self):
        if self.steps < 1:
            raise ParameterError(f"steps must be >= 1, got {self.steps}")
        if self.radius <= 0:
            raise ParameterError(f"radius must be positive, got {self.radius}")
        if self.eps <= 0:
            raise ParameterError(f"eps must be positive, got {self.eps}")
        if not (0 < self.delta0 <= 1):
            raise ParameterError(f"delta0 must be in (0, 1], got {self.delta0}")
        require_positive(ell=self.ell, rho=self.rho)


@dataclass(frozen=True)
class NCOutcome:
    """Unit escape direction plus diagnostics from the curvature search."""

    e_hat: Array
    steps_used: int
    renormalized: bool
    path: list[Array] | None = None
    ledger: list[float] | None = None


def derive_nc_params(spec: SmoothnessSpec, eps: float, delta0: float, n: int) -> NCParams:
    """Failure-probability-delta0 step count and radius for dimension n.

    Requires sqrt(rho * eps) <= ell so the curvature threshold is inside the
    representable spectrum.
    """
    if eps <= 0:
        raise ParameterError(f"eps must be positive, got {eps}")
    if not (0 < delta0 <= 1):
        raise ParameterError(f"delta0 must be in (0, 1], got {delta0}")
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    ell, rho = spec.ell, spec.rho
    threshold = math.sqrt(rho * eps)
    if threshold > ell:
        raise ParameterError(
            f"sqrt(rho*eps)={threshold:g} exceeds ell={ell:g}; shrink eps"
        )
    log_arg = (ell / delta0) * math.sqrt(n / (math.pi * rho * eps))
    steps = max(1, math.ceil(8 * ell / threshold * math.log(log_arg)))
    radius = eps / (8 * ell) * math.sqrt(math.pi / n) * delta0
    return NCParams(steps=steps, radius=radius, eps=eps, delta0=delta0, ell=ell, rho=rho)


def nc_find(
    oracle: GradientOracle,
    x_tilde: Array,
    params: NCParams,
    stream: RngStream,
    renormalize: bool = True,
    y0: Array | None = None,
    record_path: bool = False,
) -> NCOutcome:
    """Estimate the most-negative-curvature direction at x_tilde.

    Gradient differences at a fixed probe radius act as Hessian-vector
    products, so the loop is a power iteration on (I - H/ell) and converges
    to the bottom eigenvector.  The update is 1-homogeneous in y, so
    renormalizing the iterate to the probe radius each step (the default,
    which keeps magnitudes tame) leaves the direction unchanged.
    """
    x_tilde = np.asarray(x_tilde, dtype=float)
    n = x_tilde.shape[0]
    ell = params.ell
    r = params.radius
    g0 = oracle.gradient(x_tilde)

    for attempt in range(_MAX_RESTARTS + 1):
        if y0 is not None and attempt == 0:
            y = np.asarray(y0, dtype=float).copy()
        else:
            y = uniform_ball_sample(np.zeros(n), r, stream)
        path: list[Array] | None = [] if record_path else None
        failed = False
        for _ in range(params.steps):
            norm = _norm(y)
            if norm == 0.0 or not math.isfinite(norm):
                failed = True
                break
            probe = oracle.gradient(x_tilde + (r / norm) * y) - g0
            y = y - (norm / (ell * r)) * probe
            if renormalize:
                new_norm = _norm(y)
                if new_norm == 0.0 or not math.isfinite(new_norm):
                    failed = True
                    break
                y = (r / new_norm) * y
            if path is not None:
                path.append(y.copy())
        norm = _norm(y)
        if not failed and norm > 0.0 and math.isfinite(norm):
            return NCOutcome(
                e_hat=y / norm,
                steps_used=params.steps,
                renormalized=renormalize,
                path=path,
            )
    raise AlgorithmError("curvature search degenerated to the zero vector repeatedly")


def lemma_decrease_bound(eps: float, rho: float) -> float:
    """Guaranteed decrease of a certified escape step."""
    return math.sqrt(eps**3 / rho) / 384.0


def exploit(
    value: Callable[[Array], float],
    anchor: Array,
    anchor_f: float,
    e_hat: Array,
    eps: float,
    rho: float,
    step: float | None = None,
    *,
    meta: dict | None = None,
    t: int = 0,
    stop_at_candidate: bool = False,
) -> tuple[Array, bool]:
    """Two-candidate exploit: step `step` (default sqrt(eps/rho)/4) both ways
    along e_hat from the anchor, keep the lower candidate, and fall back to
    the anchor when neither decreases f.

    With meta, the episode is logged in meta["exploits"] as ending at record
    t and certified against lemma_decrease_bound; an uncertified anchor is a
    second-order candidate.  Returns the new point and whether the loop stops
    there (stop_at_candidate and the anchor became a candidate).
    """
    if step is None:
        step = 0.25 * math.sqrt(eps / rho)
    plus = anchor + step * e_hat
    minus = anchor - step * e_hat
    f_plus = value(plus)
    f_minus = value(minus)
    cand, f_cand = (plus, f_plus) if f_plus <= f_minus else (minus, f_minus)
    if f_cand < anchor_f:
        x, decrease = cand, anchor_f - f_cand
    else:
        x, decrease = anchor.copy(), 0.0
    if meta is None:
        return x, False
    certified = decrease >= lemma_decrease_bound(eps, rho)
    meta["exploits"].append(
        {"t": t, "anchor": anchor, "e_hat": e_hat, "decrease": decrease, "certified": certified}
    )
    if certified:
        return x, False
    meta["candidates"].append(anchor)
    if stop_at_candidate:
        meta["stopped_at_candidate"] = anchor
    return x, stop_at_candidate


def search_descent(
    x0: Array,
    params,
    trace: Trace,
    estimate: Callable[[Array], Array],
    recorder,
    search: Callable[[Array, int, int], NCOutcome],
    event: str,
) -> Trace:
    """Descent loop that runs a curvature search at flat points.

    Each iteration takes a gradient estimate(x).  When it is at most
    params.effective_threshold, the cooldown since the last search has
    passed and at least two iterations remain, x anchors an episode:
    search(anchor, budget, episode) returns a direction from at most budget
    steps, each billed as one record at the anchor, and the exploit from the
    anchor takes one more record.  Otherwise x steps against the estimate
    and the record is tagged event.  recorder.value and recorder.gradient
    score the records and the exploit candidates.  params is a PGDNCParams
    or SGDNCParams; the loop reads only the fields the two share.
    """
    x = np.asarray(x0, dtype=float).copy()
    eta = params.effective_eta
    records, meta = trace.records, trace.meta
    meta["exploits"], meta["candidates"] = [], []

    def record(t: int, x: Array, tag: str) -> None:
        records.append(
            TraceRecord(
                t=t,
                f=recorder.value(x),
                grad_norm=_norm(recorder.gradient(x)),
                event=tag,
                x=x.copy(),
            )
        )

    record(0, x, event)
    t = 0
    episode = 0
    last_search: int | None = None
    while t < params.total_steps:
        g = estimate(x)
        g_norm = _norm(g)
        cooled = (
            last_search is None
            or params.cooldown is None
            or t - last_search > params.cooldown
        )
        remaining = params.total_steps - t
        if g_norm <= params.effective_threshold and cooled and remaining >= 2:
            last_search = t
            anchor = x.copy()
            anchor_f = recorder.value(anchor)
            outcome = search(anchor, remaining - 1, episode)
            episode += 1
            for _ in range(outcome.steps_used):
                t += 1
                records.append(
                    TraceRecord(
                        t=t, f=anchor_f, grad_norm=g_norm, event=EVENT_NCF_STEP, x=anchor.copy()
                    )
                )
            t += 1
            x, stop = exploit(
                recorder.value, anchor, anchor_f, outcome.e_hat, params.eps, params.rho,
                params.exploit_step, meta=meta, t=t, stop_at_candidate=params.stop_at_candidate,
            )
            record(t, x, EVENT_NCF_EXPLOIT)
            if stop:
                break
        else:
            x = x - eta * g
            t += 1
            record(t, x, event)
        check_finite(x, trace, "iterate")
        check_trust_region(x, params.trust_region, trace)
    return trace


def perturb_along_nc(
    oracle: GradientOracle,
    x0: Array,
    e_hat: Array,
    eps: float,
    rho: float,
    mode: str = "two-candidate",
    step: float | None = None,
) -> Array:
    """Step distance sqrt(eps/rho)/4 along the curvature direction.

    two-candidate mode evaluates both signs and keeps the lower value,
    falling back to x0 when neither candidate decreases f.  gradient-sign
    mode uses the sign of the directional derivative, as stated.
    """
    x0 = np.asarray(x0, dtype=float)
    e_hat = np.asarray(e_hat, dtype=float)
    norm = _norm(e_hat)
    if norm == 0.0:
        raise ParameterError("e_hat must be nonzero")
    e_hat = e_hat / norm
    if mode == "gradient-sign":
        if step is None:
            step = 0.25 * math.sqrt(eps / rho)
        sign = 1.0 if float(np.dot(oracle.gradient(x0), e_hat)) >= 0 else -1.0
        return x0 - step * sign * e_hat
    if mode != "two-candidate":
        raise ParameterError(f"unknown perturbation mode: {mode!r}")
    return exploit(oracle.value, x0, oracle.value(x0), e_hat, eps, rho, step)[0]

"""Accelerated descent with curvature search run inside the momentum loop."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import (
    Array,
    EVENT_AGD,
    EVENT_NCE,
    EVENT_NCF_EXPLOIT,
    EVENT_NCF_STEP,
    EVENT_PERTURB,
    CountingOracle,
    GradientOracle,
    RngStream,
    Trace,
    TraceRecord,
    check_iterate,
    keeps_iterates,
    require_bound,
    require_count,
    require_fraction,
    require_nonnegative,
    require_positive,
    uniform_ball_sample,
    _norm,
)
from .ncfind import _lower_step, _point, exploit

__all__ = [
    "ANCParams",
    "accelerate",
    "ancgd_run",
]


@dataclass(frozen=True)
class ANCParams:
    """Step sizes, momentum, and scheduling constants for the accelerated loop."""

    eta: float
    theta: float
    gamma: float
    nce_radius: float
    ncf_steps: int
    perturb_radius: float
    total_steps: int
    eps: float
    delta0: float
    ell: float
    rho: float
    cooldown: int | None = None
    grad_threshold: float | None = None
    exploit_step: float | None = None
    stop_at_candidate: bool = False
    trust_region: float = 1e6

    def __post_init__(self):
        require_positive(
            eta=self.eta, ell=self.ell, rho=self.rho, gamma=self.gamma,
            nce_radius=self.nce_radius, perturb_radius=self.perturb_radius,
            eps=self.eps, exploit_step=self.exploit_step,
        )
        require_nonnegative(grad_threshold=self.grad_threshold)
        require_fraction(theta=self.theta)
        require_count(ncf_steps=self.ncf_steps, total_steps=self.total_steps)
        require_count(least=0, cooldown=self.cooldown)
        require_bound(trust_region=self.trust_region)


def _nce_step(
    oracle: GradientOracle, x: Array, v: Array, s: float, f_x: float | None
) -> tuple[Array, float | None]:
    """Momentum-reset step taken when the certificate flags negative curvature.

    Long momentum (norm >= s) already made progress, so x stays put.  Short
    momentum is stretched to length s and the lower side is taken
    (_lower_step).  Returns the point and f there: f_x (f(x), as the caller
    holds it) where x stays, else the winner's value.  The caller zeroes the
    momentum.
    """
    v_norm = _norm(v)
    if v_norm >= s or v_norm == 0.0:
        return x, f_x
    return _lower_step(oracle.value, x, (s / v_norm) * v)


def accelerate(
    oracle: CountingOracle, x0: Array, params, trace: Trace,
    escape: Callable[[Array, Array, int, int], tuple], threshold: float, cooldown: int,
    *, record: str = "full",
) -> Trace:
    """The momentum loop of ancgd and pagd, with descend's episode hooks.

    Each iteration records x and takes one accelerated step from z.  At a
    flat x (gradient norm at most threshold, more than cooldown iterations
    since the last episode) the loop calls escape(x, g, t, budget) as
    descend does, g being the gradient x's record took; the hook returns
    (new x, tag, held, stop) and may not decline.  Held iterations are
    ncf-step records of the anchor's f, gradient norm and x, with v_norm
    None.  If they use up the budget, the new x is scored as the last
    record; otherwise momentum restarts there and the step from it is taken
    in the same iteration, tagged tag, and the loop stops after that record
    if stop is set.  A per-step certificate compares f(x) against the
    gamma-strongly-convex lower model at z and reroutes through the momentum
    reset when violated.  params supplies eta, theta, gamma, nce_radius,
    total_steps and trust_region; trace.meta gets the oracle's call counts.
    x0 must be a finite (dim,) vector.  At record="summary" no record keeps
    its iterate.

    Queries per iteration: the record takes f(x) and grad f(x) in one
    value_and_gradient call, or grad f(x) alone while f_x holds f(x); a held
    record queries nothing.  The step takes grad f(z) unless g_z holds it or
    z holds the recorded point's bytes, whose gradient it then reuses.  The
    certificate takes f(x_next) and, in one value_and_gradient call, f(z_next)
    and grad f(z_next), which become f_x and g_z; a reset of short momentum
    adds its two candidates' values and keeps the winner's as f_x.  An
    episode clears both.  Whatever escape queries comes on top.
    """
    keep = keeps_iterates(record)
    x = z = _point(oracle, x0, "x0").copy()
    v = np.zeros_like(x)
    eta, theta, gamma, total = params.eta, params.theta, params.gamma, params.total_steps
    records = trace.records
    # The first small gradient triggers, whatever the cooldown.
    last = -math.inf
    f_x = g_z = None
    event, stop, t = EVENT_AGD, False, 0

    while True:
        if f_x is None:
            f, g_x = oracle.value_and_gradient(x)
        else:
            f, g_x = f_x, oracle.gradient(x)
        g_norm = _norm(g_x)
        records.append(TraceRecord(t, f, g_norm, event, x if keep else None, _norm(v)))
        if t == total or stop:
            break
        event = EVENT_AGD
        scored = x  # the point g_x belongs to, whatever an episode makes of x

        if g_norm <= threshold and t - last > cooldown:
            last, anchor = t, records[-1].x
            x, event, held, stop = escape(x, g_x, t, total - t)
            for _ in range(min(held, total - t)):
                t += 1
                if t < total:
                    records.append(TraceRecord(t, f, g_norm, EVENT_NCF_STEP, anchor))
            z, f_x, g_z = x, None, None
            if t == total:
                # The episode used up the budget: its point is the last record.
                v = np.zeros_like(x)
                continue

        if g_z is None:
            # t = 0, a reset (z = x + (1 - theta) * 0, the bits of x unless x
            # holds -0.0) or an episode whose exploit fell back to the anchor.
            g_z = g_x if z.tobytes() == scored.tobytes() else oracle.gradient(z)
        x_next = z - eta * g_z
        v_next = x_next - x
        z_next = x_next + (1.0 - theta) * v_next
        f_x = oracle.value(x_next)
        f_z_next, g_z = oracle.value_and_gradient(z_next)
        gap = x_next - z_next
        if f_x <= f_z_next + float(np.dot(g_z, gap)) - 0.5 * gamma * float(np.dot(gap, gap)):
            x_next, f_x = _nce_step(oracle, x_next, v_next, params.nce_radius, f_x)
            v_next = np.zeros_like(x_next)
            z_next, g_z = x_next + (1.0 - theta) * v_next, None
            if event == EVENT_AGD:
                event = EVENT_NCE

        x, z, v = x_next, z_next, v_next
        check_iterate(x, params.trust_region, trace)
        t += 1

    trace.meta.update(f_evals=oracle.f_evals, grad_evals=oracle.grad_evals)
    return trace


def _window(oracle: CountingOracle, params: ANCParams, trace: Trace, stream: RngStream):
    """ancgd's episode hook: a momentum search window pinned to the probe
    sphere around the anchor, then an exploit.  A uniform draw from the
    perturb_radius ball starts the pair; it re-tags the anchor's record
    perturb-uniform and is logged as {"t", "anchor", "offset"}.  Each of
    min(ncf_steps, budget) held steps queries grad f(z) alone, subtracts g
    and pins the pair to the sphere.  A window that uses up the budget
    returns its last point, tagged ncf-step; otherwise ncfind.exploit from
    the anchor along the direction the pair drifted (the anchor, if none)
    closes it, tagged ncf-exploit.  It is not ncfind._power_search, which
    has no momentum.
    """
    eta, theta, radius = params.eta, params.theta, params.perturb_radius

    def escape(anchor: Array, g: Array, t: int, budget: int):
        x = z = uniform_ball_sample(anchor, radius, stream)
        trace.records[-1].event = EVENT_PERTURB
        trace.meta["perturbs"].append({"t": t, "anchor": anchor, "offset": x - anchor})
        steps = min(params.ncf_steps, budget)
        for _ in range(steps):
            x_next = z - eta * (oracle.gradient(z) - g)
            z_next = x_next + (1.0 - theta) * (x_next - x)
            z_off = z_next - anchor
            zn = _norm(z_off)
            if zn > 0.0:
                # Both offsets shrink by the z factor, not their own norms:
                # the pair stays a rigid rescaling of the free-space iterates.
                scale = radius / zn
                z_next = anchor + scale * z_off
                x_next = anchor + scale * (x_next - anchor)
            x, z = x_next, z_next
            check_iterate(x, params.trust_region, trace)
        if steps == budget:
            return x, EVENT_NCF_STEP, steps, False
        diff = x - anchor
        dn = _norm(diff)
        if dn == 0.0:
            return anchor, EVENT_NCF_EXPLOIT, steps, False
        x, stop = exploit(
            oracle.value, anchor, trace.records[-1].f, diff / dn, params.eps, params.rho,
            params.exploit_step, meta=trace.meta, t=t + steps + 1,
            stop_at_candidate=params.stop_at_candidate,
        )
        return x, EVENT_NCF_EXPLOIT, steps, stop

    return escape


def ancgd_run(
    oracle: GradientOracle,
    x0: Array,
    params: ANCParams,
    stream: RngStream,
    *, record: str = "full",
) -> Trace:
    """Run the accelerated escape loop from x0 for the configured budget,
    with _window as accelerate's episode hook.  The trigger defaults to eps
    and the cooldown to ncf_steps.
    """
    trace = Trace.start(
        "ancgd", stream, eta=params.eta, perturbs=[], exploits=[], candidates=[]
    )
    counted = CountingOracle(oracle)
    threshold = params.eps if params.grad_threshold is None else params.grad_threshold
    cooldown = params.ncf_steps if params.cooldown is None else params.cooldown
    return accelerate(
        counted, x0, params, trace, _window(counted, params, trace, stream), threshold,
        cooldown, record=record,
    )

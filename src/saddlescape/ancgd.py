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
    ParameterError,
    RngStream,
    Trace,
    TraceRecord,
    check_iterate,
    keeps_iterates,
    require_bound,
    require_count,
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
        require_nonnegative(grad_threshold=self.grad_threshold, cooldown=self.cooldown)
        if not (0 < self.theta < 1):
            raise ParameterError(f"theta must be in (0, 1), got {self.theta}")
        require_count(ncf_steps=self.ncf_steps, total_steps=self.total_steps)
        require_bound(trust_region=self.trust_region)


def _nce_step(
    oracle: GradientOracle, x: Array, v: Array, s: float, f_x: float | None
) -> tuple[Array, Array, float | None]:
    """Momentum-reset step taken when the certificate flags negative curvature.

    Long momentum (norm >= s) already made progress, so x stays put.  Short
    momentum is stretched to length s and the lower side is taken
    (_lower_step).  Momentum is zeroed in every branch.  Also returns f at
    the point it returns: f_x (f(x), as the caller holds it) where x stays,
    else the winner's value.
    """
    v_norm = _norm(v)
    zero = np.zeros(v.shape[0])
    if v_norm >= s or v_norm == 0.0:
        return x, zero, f_x
    x_new, f_new = _lower_step(oracle.value, x, (s / v_norm) * v)
    return x_new, zero, f_new


def accelerate(
    oracle: CountingOracle, x0: Array, params, trace: Trace, stream: RngStream,
    threshold: float, cooldown: int, radius: float, window: int,
    close: Callable[[Array, float, Array, int], tuple[Array, bool]] | None = None,
    *, record: str = "full",
) -> Trace:
    """The momentum loop of ancgd and pagd.

    Each iteration records x and takes one accelerated step from z.  When
    the gradient norm is at most threshold and more than cooldown iterations
    have passed since the last trigger, x (the anchor) is replaced by a
    uniform draw from the radius ball around it and the momentum restarts.
    With window > 0 the draw opens a search window: the anchor gradient zeta
    is subtracted from every step, for the next window iterations the
    momentum pair is pinned to the probe sphere around the anchor, and at
    its end close(anchor, anchor_f, direction, t) takes the unit direction
    the pair drifted toward and returns the point of record t, where the
    loop restarts, and whether the loop stops there.  It is not
    ncfind._power_search: it pins the pair, its steps are scored records of
    this loop, and this loop's trigger opens it.  With window = 0 the draw
    only re-seeds the iterate.  Outside windows a per-step certificate
    compares f(x) against the gamma-strongly-convex lower model at z and
    reroutes through the momentum reset when violated.  params supplies
    eta, theta, gamma, nce_radius, total_steps and trust_region; trace.meta
    gets the oracle's call counts.  x0 must be a finite (dim,) vector.  At
    record="summary" no record keeps its iterate (TraceRecord).

    Queries per iteration: the record takes grad f(x), and f(x) with it in
    one value_and_gradient call unless the last certificate or momentum
    reset already scored that very array.  The step takes grad f(z) unless
    z is the certificate's z_next, or z is the start point at t = 0, or z
    follows a reset and equals the recorded x bit for bit (z = x + (1 -
    theta) * 0 differs from x only where x holds -0.0), when it reuses that
    gradient.  Outside windows the certificate takes f(x_next) and, in one
    value_and_gradient call, f(z_next) and grad f(z_next); a reset of short
    momentum adds the values of its two candidates.
    """
    keep = keeps_iterates(record)
    # z is x at t = 0, so the first step reuses the first record's gradient.
    x = z = z_reset = _point(oracle, x0, "x0").copy()
    v = zeta = np.zeros_like(x)
    eta, theta = params.eta, params.theta
    records, meta = trace.records, trace.meta
    # The first small gradient triggers, whatever the cooldown.
    last = -math.inf
    x_scored = z_scored = g_z_next = None
    f_x_next = 0.0
    event = EVENT_AGD
    stop = False

    for t in range(params.total_steps + 1):
        if x is x_scored:
            f, g_x = f_x_next, oracle.gradient(x)
        else:
            f, g_x = oracle.value_and_gradient(x)
        g_norm = _norm(g_x)
        records.append(TraceRecord(t, f, g_norm, event, x if keep else None, _norm(v)))
        if t == params.total_steps or stop:
            break
        event = EVENT_AGD

        if g_norm <= threshold and t - last > cooldown:
            anchor, anchor_f, last = x, f, t
            x = z = uniform_ball_sample(anchor, radius, stream)
            v = np.zeros_like(x)
            if window > 0:
                # The anchor's record marks the draw; the window's records
                # are search steps.
                zeta = g_x
                records[-1].event = EVENT_PERTURB
                meta["perturbs"].append({"t": t, "anchor": anchor, "offset": x - anchor})
            else:
                event = EVENT_PERTURB
                meta["perturbs"].append({"t": t, "x": x})
        elif t - last == window:
            # End of the search window: close maps the direction the
            # momentum pair drifted toward to the next record's point.
            diff = x - anchor
            dn = _norm(diff)
            x, stop = close(anchor, anchor_f, diff / dn, t + 1) if dn > 0.0 else (anchor, False)
            z = x
            v = zeta = np.zeros_like(x)
            event = EVENT_NCF_EXPLOIT

        if z is z_scored:
            g_z = g_z_next
        elif z is z_reset and z.tobytes() == x.tobytes():
            # z = x + (1 - theta) * 0: the bits of x unless x holds -0.0.
            g_z = g_x
        else:
            g_z = oracle.gradient(z)
        x_next = z - eta * (g_z - zeta)
        v_next = x_next - x
        z_next = x_next + (1.0 - theta) * v_next

        if t - last < window:
            z_off = z_next - anchor
            zn = _norm(z_off)
            if zn > 0.0:
                scale = radius / zn
                # Both offsets shrink by the z factor, not their own norms:
                # the pair stays a rigid rescaling of the free-space iterates.
                z_next = anchor + scale * z_off
                x_next = anchor + scale * (x_next - anchor)
                v_next = x_next - x
            event = EVENT_NCF_STEP
        else:
            f_x_next = oracle.value(x_next)
            f_z_next, g_z_next = oracle.value_and_gradient(z_next)
            x_scored, z_scored = x_next, z_next
            gap = x_next - z_next
            model = (
                f_z_next
                + float(np.dot(g_z_next, gap))
                - 0.5 * params.gamma * float(np.dot(gap, gap))
            )
            if f_x_next <= model:
                x_next, v_next, f_x_next = _nce_step(
                    oracle, x_next, v_next, params.nce_radius, f_x_next
                )
                x_scored = x_next
                z_next = z_reset = x_next + (1.0 - theta) * v_next
                if event == EVENT_AGD:
                    event = EVENT_NCE

        x, z, v = x_next, z_next, v_next
        check_iterate(x, params.trust_region, trace)

    meta["f_evals"] = oracle.f_evals
    meta["grad_evals"] = oracle.grad_evals
    return trace


def ancgd_run(
    oracle: GradientOracle,
    x0: Array,
    params: ANCParams,
    stream: RngStream,
    *, record: str = "full",
) -> Trace:
    """Run the accelerated escape loop from x0 for the configured budget.

    Each trigger opens a window of ncf_steps pinned search steps, closed by
    a certified exploit step from the anchor along the direction the
    momentum pair drifted toward (see accelerate).  The trigger defaults
    to eps and the cooldown to ncf_steps.
    """
    counted = CountingOracle(oracle)
    trace = Trace.start(
        "ancgd", stream, eta=params.eta, perturbs=[], exploits=[], candidates=[]
    )

    def close(anchor: Array, anchor_f: float, direction: Array, t: int):
        return exploit(
            counted.value, anchor, anchor_f, direction, params.eps, params.rho,
            params.exploit_step, meta=trace.meta, t=t,
            stop_at_candidate=params.stop_at_candidate,
        )

    threshold = params.eps if params.grad_threshold is None else params.grad_threshold
    cooldown = params.ncf_steps if params.cooldown is None else params.cooldown
    return accelerate(
        counted, x0, params, trace, stream, threshold, cooldown,
        params.perturb_radius, params.ncf_steps, close, record=record,
    )

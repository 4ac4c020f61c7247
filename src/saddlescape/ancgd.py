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
    require_fraction,
    require_nonnegative,
    require_positive,
    require_square,
    require_vector,
    uniform_ball_sample,
    _check_planar,
    _norm,
    _norm2,
)
from .ncfind import _episode, _lower_step, exploit


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
    rho: float
    cooldown: int | None = None
    grad_threshold: float | None = None
    exploit_step: float | None = None
    stop_at_candidate: bool = False
    trust_region: float = 1e6

    def __post_init__(self):
        require_positive(
            eta=self.eta, rho=self.rho, gamma=self.gamma, nce_radius=self.nce_radius,
            perturb_radius=self.perturb_radius, eps=self.eps, exploit_step=self.exploit_step,
        )
        require_square(perturb_radius=self.perturb_radius)
        require_nonnegative(grad_threshold=self.grad_threshold)
        require_fraction(theta=self.theta)
        require_count(ncf_steps=self.ncf_steps, total_steps=self.total_steps)
        require_count(least=0, cooldown=self.cooldown)
        require_bound(trust_region=self.trust_region)


def accelerate(
    oracle: CountingOracle, x0: Array, params, trace: Trace,
    escape: Callable[[Array, Array, int, int], tuple | None], threshold: float, cooldown: int,
    *, record: str = "full",
) -> Trace:
    """The momentum loop of ancgd and pagd, with descend's episode hooks.

    Each iteration records x and takes one accelerated step from z.  At a
    flat x (gradient norm at most threshold, more than cooldown iterations
    since the last episode) x is offered to the episode hook as descend
    does (see ncfind._episode).  A hook that holds the whole budget has its
    point scored as the last record; otherwise momentum restarts there and
    the step from it is taken in the same iteration, tagged as the hook
    says, and the loop stops after that record if the hook says so.  A
    per-step certificate compares f(x) against the gamma-strongly-convex
    lower model at z; when it is violated, momentum shorter than nce_radius
    (not zero) is stretched to it and x takes the lower side
    (ncfind._lower_step), and z restarts at x.  The loop
    carries the momentum's length v_norm, which each record takes: 0 at the
    start, after a reset and at a budget-end episode, and None on held
    records.  params supplies eta, theta, gamma, nce_radius (none of them
    None), total_steps and trust_region; trace.meta gets the oracle's call
    counts.  x0 must be a finite (dim,) vector.  At record="summary" no
    record keeps its iterate.

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
    if params.theta is None or params.gamma is None or params.nce_radius is None:
        raise ParameterError("accelerate needs theta, gamma, and nce_radius")
    require_nonnegative(threshold=threshold)
    require_count(least=0, cooldown=cooldown)
    x = z = require_vector(x0, "x0", oracle.dim).copy()
    eta, theta, gamma, total = params.eta, params.theta, params.gamma, params.total_steps
    records = trace.records
    # The first small gradient triggers, whatever the cooldown.
    last = -math.inf
    f_x = g_z = None
    v_norm, event, stop, t = 0.0, EVENT_AGD, False, 0

    while True:
        if f_x is None:
            f, g_x = oracle.value_and_gradient(x)
        else:
            f, g_x = f_x, oracle.gradient(x)
        g_norm = _norm(g_x)
        records.append(TraceRecord(t, f, g_norm, event, x if keep else None, v_norm))
        if t == total or stop:
            break
        event = EVENT_AGD
        scored = x  # the point g_x belongs to, whatever an episode makes of x

        flat = g_norm <= threshold and t - last > cooldown
        episode = _episode(escape, records, x, g_x, t, total) if flat else None
        if episode is not None:
            last, (x, event, held, stop) = t, episode
            z, f_x, g_z = x, None, None
            if held >= total - t:
                # The episode used up the budget: its point is the last record.
                t, v_norm = total, 0.0
                continue
            t += held

        if g_z is None:
            # t = 0, a reset (z = x + 0.0, the bits of x unless x holds -0.0)
            # or an episode whose exploit fell back to the anchor.
            g_z = g_x if z.tobytes() == scored.tobytes() else oracle.gradient(z)
        x_next = z - eta * g_z
        v_next = x_next - x
        v_norm = _norm(v_next)
        z_next = x_next + (1.0 - theta) * v_next
        f_x = oracle.value(x_next)
        f_z_next, g_z = oracle.value_and_gradient(z_next)
        gap = x_next - z_next
        if f_x <= f_z_next + float(np.dot(g_z, gap)) - 0.5 * gamma * float(np.dot(gap, gap)):
            if not (v_norm >= params.nce_radius or v_norm == 0.0):
                x_next, f_x = _lower_step(
                    oracle.value, x_next, (params.nce_radius / v_norm) * v_next
                )
            z_next, g_z, v_norm = x_next + 0.0, None, 0.0
            if event == EVENT_AGD:
                event = EVENT_NCE

        x, z = x_next, z_next
        check_iterate(x, params.trust_region, trace)
        t += 1

    trace.meta.update(f_evals=oracle.f_evals, grad_evals=oracle.grad_evals)
    return trace


def _pinned(oracle, params: ANCParams, trace: Trace, anchor, g, x, steps: int) -> Array:
    """_window's pinned steps from x = z at anchor, whose gradient is g."""
    eta, theta, radius = params.eta, params.theta, params.perturb_radius
    z = x
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
    return x


def _pinned_planar(oracle, params: ANCParams, trace: Trace, anchor, g, x, steps: int) -> Array:
    """_pinned at a 2-d anchor on the pair's Python floats, bit for bit.
    Float +, - and * round as numpy's elementwise ops do; lengths come from
    core._norm2 and the trust-region check from core._check_planar, which
    keep _norm's and check_iterate's bits; gradients come from
    oracle._gradient_pair, so with grad's float twin the one array is the result."""
    eta, c, radius = params.eta, 1.0 - params.theta, params.perturb_radius
    (a1, a2), (g1, g2) = anchor.tolist(), g.tolist()
    x1, x2 = z1, z2 = x.tolist()
    for _ in range(steps):
        d1, d2 = oracle._gradient_pair(z1, z2)
        u1, u2 = z1 - eta * (d1 - g1), z2 - eta * (d2 - g2)
        x1, x2, z1, z2 = u1, u2, u1 + c * (u1 - x1), u2 + c * (u2 - x2)
        zn = _norm2(z1 - a1, z2 - a2)
        if zn > 0.0:
            scale = radius / zn
            z1, z2 = a1 + scale * (z1 - a1), a2 + scale * (z2 - a2)
            x1, x2 = a1 + scale * (x1 - a1), a2 + scale * (x2 - a2)
        _check_planar(x1, x2, params.trust_region, trace)
    return np.array([x1, x2])


def _window(oracle: CountingOracle, params: ANCParams, trace: Trace, stream: RngStream):
    """ancgd's episode hook: a momentum search window pinned to the probe
    sphere around the anchor, then an exploit.  A uniform draw from the
    perturb_radius ball starts the pair; it re-tags the anchor's record
    perturb-uniform and is logged as {"t", "anchor", "offset"}.  Each of
    min(ncf_steps, budget) held steps (_pinned; _pinned_planar at n = 2)
    queries grad f(z) alone, subtracts g and pins the pair to the sphere.  A
    window that uses up the budget returns its last point, tagged ncf-step;
    otherwise ncfind.exploit from the anchor along the direction the pair
    drifted (the anchor, if none) closes it, tagged ncf-exploit.  It is not
    ncfind._power_search, which has no momentum.
    """

    def escape(anchor: Array, g: Array, t: int, budget: int):
        x = uniform_ball_sample(anchor, params.perturb_radius, stream)
        trace.records[-1].event = EVENT_PERTURB
        trace.meta["perturbs"].append({"t": t, "anchor": anchor, "offset": x - anchor})
        steps = min(params.ncf_steps, budget)
        pinned = _pinned_planar if anchor.size == 2 else _pinned
        x = pinned(oracle, params, trace, anchor, g, x, steps)
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

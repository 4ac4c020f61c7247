"""Accelerated descent with curvature search run inside the momentum loop."""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    SmoothnessSpec,
    Trace,
    TraceRecord,
    check_finite,
    check_trust_region,
    require_positive,
    uniform_ball_sample,
    _norm,
)
from .ncfind import exploit

__all__ = [
    "ANCParams",
    "derive_anc_params",
    "nce_step",
    "ancgd_run",
    "anc_find_unnormalized",
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
        require_positive(eta=self.eta, ell=self.ell, rho=self.rho)
        if not (0 < self.theta < 1):
            raise ParameterError(f"theta must be in (0, 1), got {self.theta}")
        if self.gamma <= 0 or self.nce_radius <= 0 or self.perturb_radius <= 0:
            raise ParameterError("gamma, nce_radius, perturb_radius must be positive")
        if self.ncf_steps < 1:
            raise ParameterError(f"ncf_steps must be >= 1, got {self.ncf_steps}")
        if self.total_steps < 1:
            raise ParameterError(f"total_steps must be >= 1, got {self.total_steps}")
        if self.eps <= 0:
            raise ParameterError(f"eps must be positive, got {self.eps}")

    @property
    def effective_cooldown(self) -> int:
        return self.ncf_steps if self.cooldown is None else self.cooldown

    @property
    def effective_threshold(self) -> float:
        return self.eps if self.grad_threshold is None else self.grad_threshold


def derive_anc_params(
    spec: SmoothnessSpec,
    eps: float,
    delta0: float,
    n: int,
    delta_f_bound: float,
    c_a: float = 8.0,
    total_steps: int | None = None,
) -> ANCParams:
    """Constants for the accelerated loop at target accuracy eps.

    delta0 is the per-episode failure probability of the curvature search;
    delta_f_bound bounds f(x0) - inf f and sets the step budget.  c_a is the
    free constant in the episode length and must keep the per-episode
    decrease target below the certified decrease, hence c_a**7 >= 384.
    """
    if eps <= 0:
        raise ParameterError(f"eps must be positive, got {eps}")
    if not (0 < delta0 <= 1):
        raise ParameterError(f"delta0 must be in (0, 1], got {delta0}")
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    if delta_f_bound <= 0:
        raise ParameterError(f"delta_f_bound must be positive, got {delta_f_bound}")
    if c_a**7 < 384.0:
        raise ParameterError(f"c_a**7 must be >= 384, got c_a={c_a}")
    ell, rho = spec.ell, spec.rho
    threshold = math.sqrt(rho * eps)
    if threshold > ell:
        raise ParameterError(
            f"sqrt(rho*eps)={threshold:g} exceeds ell={ell:g}; shrink eps"
        )
    eta = 1.0 / (4.0 * ell)
    theta = (rho * eps) ** 0.25 / (4.0 * math.sqrt(ell))
    gamma = theta**2 / eta
    s = gamma / (4.0 * rho)
    log_arg = (ell / delta0) * math.sqrt(n / (rho * eps))
    ncf_steps = max(
        1, math.ceil(32.0 * math.sqrt(ell) / (rho * eps) ** 0.25 * math.log(log_arg))
    )
    r_prime = (delta0 * eps / 32.0) * math.sqrt(math.pi / (rho * n))
    if total_steps is None:
        episode = math.sqrt(ell / threshold) * c_a
        decrease = math.sqrt(eps**3 / rho) / c_a**7
        budget = max(
            4.0 * delta_f_bound * (episode + ncf_steps) / decrease,
            768.0 * delta_f_bound * ncf_steps * math.sqrt(rho / eps**3),
        )
        total_steps = max(1, math.ceil(budget))
    return ANCParams(
        eta=eta,
        theta=theta,
        gamma=gamma,
        nce_radius=s,
        ncf_steps=ncf_steps,
        perturb_radius=r_prime,
        total_steps=total_steps,
        eps=eps,
        delta0=delta0,
        ell=ell,
        rho=rho,
    )


def nce_step(oracle: GradientOracle, x: Array, v: Array, s: float) -> tuple[Array, Array]:
    """Momentum-reset step taken when the certificate flags negative curvature.

    Long momentum (norm >= s) already made progress, so x stays put.  Short
    momentum is stretched to length s and both signs are tried; ties keep the
    positive side.  Momentum is zeroed in every branch.
    """
    v_norm = _norm(v)
    zero = np.zeros_like(v)
    if v_norm >= s or v_norm == 0.0:
        return x, zero
    xi = (s / v_norm) * v
    plus = x + xi
    minus = x - xi
    if oracle.value(plus) <= oracle.value(minus):
        return plus, zero
    return minus, zero


def ancgd_run(
    oracle: GradientOracle,
    x0: Array,
    params: ANCParams,
    stream: RngStream,
) -> Trace:
    """Run the accelerated escape loop from x0 for the configured budget.

    Iteration shape: a small-gradient trigger replaces the iterate by a
    uniform ball draw and anchors a curvature-search window; for the next
    ncf_steps iterations the momentum pair is pinned to the probe sphere
    around the anchor (x is rescaled by the same factor as z, which keeps
    the pair's geometry aligned with the unnormalized search); the window
    ends with a certified exploit step from the anchor.  Outside windows a
    per-step certificate compares f(x) against the gamma-strongly-convex
    lower model at z and reroutes through the momentum reset when violated.
    """
    counted = CountingOracle(oracle)
    x = np.asarray(x0, dtype=float).copy()
    z = x.copy()
    zeta = np.zeros_like(x)
    v = np.zeros_like(x)
    eta, theta = params.eta, params.theta
    anchor: Array | None = None
    anchor_f = 0.0
    t_perturb: int | None = None
    pending_event = EVENT_AGD
    trace = Trace.start("ancgd", stream, eta=eta, perturbs=[], exploits=[], candidates=[])
    records, meta = trace.records, trace.meta
    stopped = False

    for t in range(params.total_steps + 1):
        g_x = counted.gradient(x)
        g_norm = _norm(g_x)
        records.append(
            TraceRecord(
                t=t,
                f=counted.value(x),
                grad_norm=g_norm,
                event=pending_event,
                x=x.copy(),
                v_norm=_norm(v),
            )
        )
        if t == params.total_steps or stopped:
            break
        pending_event = EVENT_AGD

        in_window = t_perturb is not None and t - t_perturb < params.ncf_steps
        trigger = g_norm <= params.effective_threshold and (
            t_perturb is None or t - t_perturb > params.effective_cooldown
        )
        if trigger:
            anchor = x.copy()
            anchor_f = counted.value(anchor)
            zeta = g_x.copy()
            x = uniform_ball_sample(anchor, params.perturb_radius, stream)
            z = x.copy()
            v = np.zeros_like(x)
            t_perturb = t
            in_window = True
            pending_event = EVENT_NCF_STEP
            meta["perturbs"].append(
                {"t": t, "anchor": anchor.copy(), "offset": x - anchor}
            )
            records[-1] = TraceRecord(
                t=t,
                f=records[-1].f,
                grad_norm=records[-1].grad_norm,
                event=EVENT_PERTURB,
                x=records[-1].x,
                v_norm=records[-1].v_norm,
            )
        elif t_perturb is not None and t - t_perturb == params.ncf_steps and anchor is not None:
            # End of the search window: exploit the direction the momentum
            # pair drifted toward, then restart the loop from the winner.
            diff = x - anchor
            dn = _norm(diff)
            if dn > 0.0:
                # The exploit's outcome is the next record, t + 1.
                x, stopped = exploit(
                    counted.value, anchor, anchor_f, diff / dn, params.eps, params.rho,
                    params.exploit_step, meta=meta, t=t + 1,
                    stop_at_candidate=params.stop_at_candidate,
                )
            else:
                x = anchor.copy()
            z = x.copy()
            v = np.zeros_like(x)
            zeta = np.zeros_like(x)
            in_window = False
            pending_event = EVENT_NCF_EXPLOIT

        g_z = counted.gradient(z)
        x_next = z - eta * (g_z - zeta)
        v_next = x_next - x
        z_next = x_next + (1.0 - theta) * v_next

        if in_window and anchor is not None:
            z_off = z_next - anchor
            zn = _norm(z_off)
            if zn > 0.0:
                scale = params.perturb_radius / zn
                # Both offsets shrink by the z factor, not their own norms:
                # the pair stays a rigid rescaling of the free-space iterates.
                z_next = anchor + scale * z_off
                x_next = anchor + scale * (x_next - anchor)
                v_next = x_next - x
            if pending_event == EVENT_AGD:
                pending_event = EVENT_NCF_STEP
        else:
            f_x_next = counted.value(x_next)
            f_z_next = counted.value(z_next)
            g_z_next = counted.gradient(z_next)
            gap = x_next - z_next
            model = (
                f_z_next
                + float(np.dot(g_z_next, gap))
                - 0.5 * params.gamma * float(np.dot(gap, gap))
            )
            if f_x_next <= model:
                x_next, v_next = nce_step(counted, x_next, v_next, params.nce_radius)
                z_next = x_next + (1.0 - theta) * v_next
                if pending_event == EVENT_AGD:
                    pending_event = EVENT_NCE

        x, z, v = x_next, z_next, v_next
        check_finite(x, trace, "iterate")
        check_trust_region(x, params.trust_region, trace)

    meta["f_evals"] = counted.f_evals
    meta["grad_evals"] = counted.grad_evals
    return trace


def anc_find_unnormalized(
    oracle: GradientOracle,
    x_tilde: Array,
    params: ANCParams,
    stream: RngStream | None = None,
    x0_offset: Array | None = None,
    steps: int | None = None,
) -> tuple[Array, list[Array]]:
    """Free-space twin of the pinned search window; returns (unit direction, offsets).

    The iterate runs unconstrained while every gradient is taken on the probe
    sphere and scaled by the offset norm over the probe radius.  With the same
    initial offset this reproduces the pinned window's direction sequence
    exactly, which is the correctness check for the pinning trick.
    """
    x_tilde = np.asarray(x_tilde, dtype=float)
    r = params.perturb_radius
    if x0_offset is not None:
        x_off = np.asarray(x0_offset, dtype=float).copy()
    elif stream is not None:
        x_off = uniform_ball_sample(np.zeros_like(x_tilde), r, stream)
    else:
        raise ParameterError("provide x0_offset or a stream")
    if steps is None:
        steps = params.ncf_steps
    g_anchor = oracle.gradient(x_tilde)
    z_off = x_off.copy()
    path = [x_off.copy()]
    for _ in range(steps):
        zn = _norm(z_off)
        if zn > 0.0:
            g_scaled = (zn / r) * oracle.gradient(x_tilde + (r / zn) * z_off)
        else:
            g_scaled = np.zeros_like(z_off)
        x_next = z_off - params.eta * (g_scaled - g_anchor)
        v = x_next - x_off
        z_off = x_next + (1.0 - params.theta) * v
        x_off = x_next
        path.append(x_off.copy())
    norm = _norm(x_off)
    if norm == 0.0:
        raise ParameterError("search collapsed to the anchor")
    return x_off / norm, path

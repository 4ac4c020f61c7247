"""Full escape loops: gradient descent plus curvature search, and the
perturbation-based baselines it is compared against."""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    Array,
    EVENT_AGD,
    EVENT_GD,
    EVENT_NCE,
    EVENT_PERTURB,
    EVENT_SGD,
    CountingOracle,
    GradientOracle,
    ParameterError,
    RngStream,
    SmoothnessSpec,
    StochasticOracle,
    Trace,
    TraceRecord,
    check_finite,
    check_trust_region,
    gaussian_sample,
    require_positive,
    uniform_ball_sample,
    _norm,
)
from .ancgd import nce_step
from .ncfind import NCParams, derive_nc_params, nc_find, search_descent

__all__ = [
    "PGDNCParams",
    "derive_pgdnc_params",
    "pgd_nc_run",
    "BaselineParams",
    "pgd_run",
    "pagd_run",
    "psgd_run",
]


@dataclass(frozen=True)
class PGDNCParams:
    """Outer gradient-descent loop wrapped around the curvature search."""

    nc: NCParams
    total_steps: int
    eps: float
    ell: float
    rho: float
    eta: float | None = None
    grad_threshold: float | None = None
    exploit_step: float | None = None
    cooldown: int | None = None
    stop_at_candidate: bool = False
    trust_region: float = 1e6

    def __post_init__(self):
        if self.total_steps < 1:
            raise ParameterError(f"total_steps must be >= 1, got {self.total_steps}")
        if self.eps <= 0:
            raise ParameterError(f"eps must be positive, got {self.eps}")
        require_positive(ell=self.ell, rho=self.rho, eta=self.eta)

    @property
    def effective_eta(self) -> float:
        return 1.0 / self.ell if self.eta is None else self.eta

    @property
    def effective_threshold(self) -> float:
        return self.eps if self.grad_threshold is None else self.grad_threshold


def derive_pgdnc_params(
    spec: SmoothnessSpec,
    eps: float,
    delta_overall: float,
    n: int,
    delta_f_bound: float,
) -> PGDNCParams:
    """Search schedule and step budget for overall failure probability
    delta_overall, given the initial gap bound delta_f_bound."""
    if delta_f_bound <= 0:
        raise ParameterError(f"delta_f_bound must be positive, got {delta_f_bound}")
    if not (0 < delta_overall < 1):
        raise ParameterError(f"delta_overall must be in (0, 1), got {delta_overall}")
    ell, rho = spec.ell, spec.rho
    delta0 = delta_overall / (384.0 * delta_f_bound) * math.sqrt(eps**3 / rho)
    nc = derive_nc_params(spec, eps, min(delta0, 1.0), n)
    budget = max(
        8.0 * ell * delta_f_bound / eps**2,
        768.0 * delta_f_bound * math.sqrt(rho / eps**3),
    )
    return PGDNCParams(
        nc=nc,
        total_steps=max(1, math.ceil(budget)),
        eps=eps,
        ell=ell,
        rho=rho,
    )


def pgd_nc_run(
    oracle: GradientOracle,
    x0: Array,
    params: PGDNCParams,
    stream: RngStream,
) -> Trace:
    """Gradient descent that runs the curvature search at flat points.

    Search steps are billed against the same iteration budget as descent
    steps (one record each), the exploit step tries both signs from the
    anchor, and there is no cooldown by default: a failed exploit falls back
    to the anchor and the small gradient immediately re-enters the search.
    """
    counted = CountingOracle(oracle)

    def search(anchor: Array, budget: int, episode: int):
        inner = dataclasses.replace(params.nc, steps=min(params.nc.steps, budget))
        return nc_find(counted, anchor, inner, stream.substream(("ncf", episode)))

    trace = search_descent(
        x0, params, Trace.start("pgd-nc", stream), counted.gradient, counted, search, EVENT_GD
    )
    trace.meta["f_evals"] = counted.f_evals
    trace.meta["grad_evals"] = counted.grad_evals
    return trace


@dataclass(frozen=True)
class BaselineParams:
    """Shared knob set for the perturbation baselines.

    theta, gamma, and nce_radius are only needed by the accelerated variant;
    batch only by the stochastic one.  cooldown=None allows re-perturbing on
    consecutive flat iterations.
    """

    eta: float
    radius: float
    grad_threshold: float
    total_steps: int
    cooldown: int | None = None
    theta: float | None = None
    gamma: float | None = None
    nce_radius: float | None = None
    batch: int = 1
    trust_region: float = 1e6

    def __post_init__(self):
        require_positive(eta=self.eta, radius=self.radius)
        if self.grad_threshold < 0:
            raise ParameterError("grad_threshold must be nonnegative")
        if self.total_steps < 1:
            raise ParameterError(f"total_steps must be >= 1, got {self.total_steps}")
        if self.batch < 1:
            raise ParameterError(f"batch must be >= 1, got {self.batch}")


def _perturb_ready(t: int, last: int | None, cooldown: int | None) -> bool:
    return last is None or cooldown is None or t - last > cooldown


def pgd_run(
    oracle: GradientOracle,
    x0: Array,
    params: BaselineParams,
    stream: RngStream,
) -> Trace:
    """Gradient descent with uniform-ball perturbations at flat points."""
    counted = CountingOracle(oracle)
    x = np.asarray(x0, dtype=float).copy()
    trace = Trace.start("pgd", stream, perturbs=[])
    records, meta = trace.records, trace.meta
    last: int | None = None
    event = EVENT_GD
    for t in range(params.total_steps + 1):
        g = counted.gradient(x)
        g_norm = _norm(g)
        records.append(
            TraceRecord(
                t=t,
                f=counted.value(x),
                grad_norm=g_norm,
                event=event,
                x=x.copy(),
            )
        )
        if t == params.total_steps:
            break
        if (
            g_norm <= params.grad_threshold
            and _perturb_ready(t, last, params.cooldown)
        ):
            x = uniform_ball_sample(x, params.radius, stream)
            last = t
            event = EVENT_PERTURB
            meta["perturbs"].append({"t": t, "x": x.copy()})
        else:
            x = x - params.eta * g
            event = EVENT_GD
        check_finite(x, trace, "iterate")
        check_trust_region(x, params.trust_region, trace)
    meta["f_evals"] = counted.f_evals
    meta["grad_evals"] = counted.grad_evals
    return trace


def pagd_run(
    oracle: GradientOracle,
    x0: Array,
    params: BaselineParams,
    stream: RngStream,
) -> Trace:
    """Accelerated descent with ball perturbations and the momentum reset.

    Same momentum loop as the accelerated escape algorithm, but the
    perturbation only re-seeds the iterate (no anchor gradient, no pinned
    window, no exploit step); the per-step certificate and momentum reset
    still run every iteration.
    """
    if params.theta is None or params.gamma is None or params.nce_radius is None:
        raise ParameterError("pagd_run needs theta, gamma, and nce_radius")
    counted = CountingOracle(oracle)
    x = np.asarray(x0, dtype=float).copy()
    z = x.copy()
    v = np.zeros_like(x)
    trace = Trace.start("pagd", stream, perturbs=[])
    records, meta = trace.records, trace.meta
    last: int | None = None
    event = EVENT_AGD
    for t in range(params.total_steps + 1):
        g = counted.gradient(x)
        g_norm = _norm(g)
        records.append(
            TraceRecord(
                t=t,
                f=counted.value(x),
                grad_norm=g_norm,
                event=event,
                x=x.copy(),
                v_norm=_norm(v),
            )
        )
        if t == params.total_steps:
            break
        event = EVENT_AGD
        if (
            g_norm <= params.grad_threshold
            and _perturb_ready(t, last, params.cooldown)
        ):
            x = uniform_ball_sample(x, params.radius, stream)
            z = x.copy()
            v = np.zeros_like(x)
            last = t
            event = EVENT_PERTURB
            meta["perturbs"].append({"t": t, "x": x.copy()})
        g_z = counted.gradient(z)
        x_next = z - params.eta * g_z
        v_next = x_next - x
        z_next = x_next + (1.0 - params.theta) * v_next
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
            z_next = x_next + (1.0 - params.theta) * v_next
            if event == EVENT_AGD:
                event = EVENT_NCE
        x, z, v = x_next, z_next, v_next
        check_finite(x, trace, "iterate")
        check_trust_region(x, params.trust_region, trace)
    meta["f_evals"] = counted.f_evals
    meta["grad_evals"] = counted.grad_evals
    return trace


def psgd_run(
    oracle: StochasticOracle,
    x0: Array,
    params: BaselineParams,
    stream: RngStream,
) -> Trace:
    """Minibatch SGD with Gaussian perturbations at flat points.

    Traces record the noiseless objective so decreases are measured against
    the true landscape.
    """
    x = np.asarray(x0, dtype=float).copy()
    theta_stream = stream.substream("theta")
    trace = Trace.start("psgd", stream, perturbs=[], samples=0)
    records, meta = trace.records, trace.meta
    last: int | None = None
    event = EVENT_SGD
    variance = params.radius**2 / x.shape[0]
    for t in range(params.total_steps + 1):
        records.append(
            TraceRecord(
                t=t,
                f=oracle.mean.value(x),
                grad_norm=_norm(oracle.mean.gradient(x)),
                event=event,
                x=x.copy(),
            )
        )
        if t == params.total_steps:
            break
        g = oracle.minibatch_mean(x, params.batch, theta_stream)
        meta["samples"] += params.batch
        if (
            _norm(g) <= params.grad_threshold
            and _perturb_ready(t, last, params.cooldown)
        ):
            x = gaussian_sample(x, variance, stream)
            last = t
            event = EVENT_PERTURB
            meta["perturbs"].append({"t": t, "x": x.copy()})
        else:
            x = x - params.eta * g
            event = EVENT_SGD
        check_finite(x, trace, "iterate")
        check_trust_region(x, params.trust_region, trace)
    return trace

"""Full escape loops: gradient descent plus curvature search, and the
perturbation-based baselines it is compared against."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .core import (
    Array,
    EVENT_GD,
    EVENT_PERTURB,
    EVENT_SGD,
    CountingOracle,
    GradientOracle,
    ParameterError,
    RngStream,
    StochasticOracle,
    Trace,
    gaussian_sample,
    require_bound,
    require_count,
    require_fraction,
    require_nonnegative,
    require_positive,
    uniform_ball_sample,
)
from .ancgd import accelerate
from .ncfind import NCDescentParams, curvature_escape, descend, nc_find

__all__ = [
    "pgd_nc_run",
    "BaselineParams",
    "pgd_run",
    "pagd_run",
    "psgd_run",
]


def pgd_nc_run(
    oracle: GradientOracle,
    x0: Array,
    params: NCDescentParams,
    stream: RngStream,
    *, record: str = "full",
) -> Trace:
    """Gradient descent that runs the curvature search at flat points.

    Search steps are billed against the same iteration budget as descent
    steps (one record each), the exploit step tries both signs from the
    anchor, and there is no cooldown by default: a failed exploit falls back
    to the anchor and the small gradient immediately re-enters the search.
    The step size defaults to 1/ell and the trigger to eps.
    """
    counted = CountingOracle(oracle)
    nc = params.search
    eta = 1.0 / nc.ell if params.eta is None else params.eta
    threshold = nc.eps if params.grad_threshold is None else params.grad_threshold
    trace = Trace.start("pgd-nc", stream)
    escape = curvature_escape(
        trace, params, counted.value,
        lambda anchor, g, search, sub: nc_find(counted, anchor, search, sub, g=g), stream, "ncf",
    )
    return descend(
        x0, params, trace, lambda x, g: g, counted, escape, EVENT_GD, eta, threshold,
        record=record,
    )


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
        require_positive(
            eta=self.eta, radius=self.radius, gamma=self.gamma, nce_radius=self.nce_radius
        )
        require_fraction(theta=self.theta)
        require_bound(trust_region=self.trust_region)
        require_nonnegative(grad_threshold=self.grad_threshold)
        require_count(total_steps=self.total_steps, batch=self.batch)
        require_count(least=0, cooldown=self.cooldown)


def _perturbation(trace: Trace, draw: Callable[[Array], Array]):
    """Episode hook for descend and accelerate: x becomes draw(x), tagged
    perturb-uniform and holding no iterations; meta["perturbs"] logs {"t", "x"}."""

    def escape(x: Array, g: Array, t: int, budget: int):
        x = draw(x)
        trace.meta["perturbs"].append({"t": t, "x": x})
        return x, EVENT_PERTURB, 0, False

    return escape


def pgd_run(
    oracle: GradientOracle,
    x0: Array,
    params: BaselineParams,
    stream: RngStream,
    *, record: str = "full",
) -> Trace:
    """Gradient descent with uniform-ball perturbations at flat points."""
    trace = Trace.start("pgd", stream, perturbs=[])
    escape = _perturbation(trace, lambda x: uniform_ball_sample(x, params.radius, stream))
    return descend(
        x0, params, trace, lambda x, g: g, CountingOracle(oracle), escape, EVENT_GD,
        params.eta, params.grad_threshold, record=record,
    )


def pagd_run(
    oracle: GradientOracle,
    x0: Array,
    params: BaselineParams,
    stream: RngStream,
    *, record: str = "full",
) -> Trace:
    """Accelerated descent with ball perturbations and the momentum reset:
    accelerate with _perturbation as its episode hook, so a draw only
    re-seeds the iterate, and the certificate and reset run every step."""
    if params.theta is None or params.gamma is None or params.nce_radius is None:
        raise ParameterError("pagd_run needs theta, gamma, and nce_radius")
    trace = Trace.start("pagd", stream, perturbs=[])
    escape = _perturbation(trace, lambda x: uniform_ball_sample(x, params.radius, stream))
    return accelerate(
        CountingOracle(oracle), x0, params, trace, escape, params.grad_threshold,
        params.cooldown or 0, record=record,
    )


def psgd_run(
    oracle: StochasticOracle,
    x0: Array,
    params: BaselineParams,
    stream: RngStream,
    *, record: str = "full",
) -> Trace:
    """Minibatch SGD with Gaussian perturbations at flat points.

    Traces record the noiseless objective so decreases are measured against
    the true landscape.
    """
    trace = Trace.start("psgd", stream, perturbs=[], samples=0)
    variance = params.radius**2 / oracle.dim
    sample = oracle.mean_sampler(params.batch, stream.substream("theta"), params.total_steps)

    def estimate(x: Array, g: Array) -> Array:
        trace.meta["samples"] += params.batch
        return sample(x, g)

    escape = _perturbation(trace, lambda x: gaussian_sample(x, variance, stream))
    return descend(
        x0, params, trace, estimate, oracle.mean, escape, EVENT_SGD,
        params.eta, params.grad_threshold, record=record,
    )

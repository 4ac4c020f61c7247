"""Stochastic curvature search and the SGD escape loop built on it."""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    Array,
    EVENT_SGD,
    ParameterError,
    RngStream,
    SmoothnessSpec,
    StochasticOracle,
    Trace,
    require_bound,
    require_count,
    require_nonnegative,
    require_positive,
)
from .ncfind import (
    NCOutcome,
    _curvature_threshold,
    _descent_budget,
    _point,
    _power_search,
    curvature_escape,
    descend,
)

__all__ = [
    "SNCParams",
    "derive_snc_params",
    "snc_find",
    "SGDNCParams",
    "derive_sgdnc_params",
    "sgd_nc_run",
]


@dataclass(frozen=True)
class SNCParams:
    """Schedule for the stochastic curvature search.

    log_term is the concentration exponent solved jointly with the probe
    radius; batch_raw keeps the pre-ceiling minibatch size for scaling checks.
    """

    steps: int
    radius: float
    batch: int
    log_term: float
    eps: float
    delta: float
    ell: float
    rho: float
    ell_tilde: float
    batch_raw: float = 0.0

    def __post_init__(self):
        require_count(steps=self.steps, batch=self.batch)
        require_positive(
            eps=self.eps, radius=self.radius, ell=self.ell, rho=self.rho,
            ell_tilde=self.ell_tilde,
        )


def derive_snc_params(
    spec: SmoothnessSpec,
    ell_tilde: float,
    eps: float,
    delta: float,
    n: int,
) -> SNCParams:
    """Step count, probe radius, and minibatch size at failure probability delta.

    The concentration exponent iota appears on both sides of its defining
    equation (the radius depends on iota, iota depends on the radius through
    a log), so it is resolved by fixed-point iteration from iota = 10.
    """
    require_positive(eps=eps, ell_tilde=ell_tilde)
    if not (0 < delta < 1):
        raise ParameterError(f"delta must be in (0, 1), got {delta}")
    require_count(n=n)
    ell, rho = spec.ell, spec.rho
    threshold = _curvature_threshold(ell, rho, eps)
    steps_arg = ell * n / (delta * threshold)
    if steps_arg <= 1.0:
        raise ParameterError("step-count log argument must exceed 1")
    steps = max(1, math.ceil(8 * ell / threshold * math.log(steps_arg)))
    eta = 1.0 / ell

    def radius_of(iota: float) -> float:
        return delta / (480.0 * rho * n * steps) * math.sqrt(rho * eps / iota)

    iota = 10.0
    for _ in range(100):
        r_s = radius_of(iota)
        inner = math.sqrt(n) / (eta * r_s)
        if inner <= 1.0:
            raise ParameterError("concentration log argument must exceed 1")
        outer = (n * steps**2 / delta) * math.log(inner)
        if outer <= 1.0:
            raise ParameterError("concentration log argument must exceed 1")
        iota_next = 10.0 * math.log(outer)
        if abs(iota_next - iota) <= 1e-12 * max(1.0, abs(iota)):
            iota = iota_next
            break
        iota = iota_next
    else:
        raise ParameterError("concentration exponent iteration did not converge")
    r_s = radius_of(iota)
    batch_raw = 160.0 * (ell + ell_tilde) / (delta * threshold) * math.sqrt(steps * iota)
    batch = max(1, math.ceil(batch_raw))
    return SNCParams(
        steps=steps,
        radius=r_s,
        batch=batch,
        log_term=iota,
        eps=eps,
        delta=delta,
        ell=ell,
        rho=rho,
        ell_tilde=ell_tilde,
        batch_raw=batch_raw,
    )


def _noise_draw(stream: RngStream, n: int, radius: float) -> Array:
    """Isotropic Gaussian with total variance radius**2."""
    return stream.gen.standard_normal(n) * (radius / math.sqrt(n))


def snc_find(
    oracle: StochasticOracle,
    x_tilde: Array,
    params: SNCParams,
    stream: RngStream,
) -> NCOutcome:
    """Stochastic curvature search with per-step renormalization.

    Starts from the zero vector; injected Gaussian noise supplies the initial
    alignment.  _power_search renormalizes each step to the probe radius, and
    scale carries the magnitude the free-running recursion would have
    reached: dividing the injected noise by scale / radius keeps the
    noise-to-signal schedule of that recursion.  Gradient differences share
    the sample draw across both query points, which is what turns them into
    curvature probes.
    """
    x_tilde = _point(oracle, x_tilde)
    n = x_tilde.shape[0]
    r_s = scale = params.radius
    theta_stream = stream.substream("theta")
    xi_stream = stream.substream("xi")

    def step(y: Array, norm: float) -> Array:
        nonlocal scale
        # Only an attempt's first step, from zero, sees norm 0: scale restarts.
        scale = scale * (norm / r_s) if norm else r_s
        diff = oracle.minibatch_diff(x_tilde, x_tilde + y, params.batch, theta_stream)
        xi = _noise_draw(xi_stream, n, r_s)
        return y - (1.0 / params.ell) * (diff + xi / (scale / r_s))

    y = _power_search(lambda: np.zeros(n), step, r_s, params.steps)
    return NCOutcome(e_hat=y / r_s, steps_used=params.steps)


@dataclass(frozen=True)
class SGDNCParams:
    """Outer SGD loop constants wrapped around the stochastic curvature search."""

    snc: SNCParams
    outer_batch: int
    total_steps: int
    eps: float
    ell: float
    rho: float
    trigger_threshold: float | None = None
    exploit_step: float | None = None
    eta: float | None = None
    cooldown: int | None = None
    stop_at_candidate: bool = False
    trust_region: float = 1e6

    def __post_init__(self):
        require_count(outer_batch=self.outer_batch, total_steps=self.total_steps)
        require_positive(
            eps=self.eps, ell=self.ell, rho=self.rho, eta=self.eta,
            exploit_step=self.exploit_step,
        )
        require_nonnegative(
            trigger_threshold=self.trigger_threshold, cooldown=self.cooldown
        )
        require_bound(trust_region=self.trust_region)

    @property
    def effective_threshold(self) -> float:
        return 0.75 * self.eps if self.trigger_threshold is None else self.trigger_threshold

    @property
    def effective_eta(self) -> float:
        return 1.0 / self.ell if self.eta is None else self.eta


def derive_sgdnc_params(
    spec: SmoothnessSpec,
    ell_tilde: float,
    eps: float,
    delta_overall: float,
    n: int,
    delta_f_bound: float,
) -> SGDNCParams:
    """Outer batch size, budget, and inner search schedule for overall failure
    probability delta_overall given the initial gap bound delta_f_bound."""
    require_positive(eps=eps, delta_f_bound=delta_f_bound)
    if not (0 < delta_overall < 1):
        raise ParameterError(f"delta_overall must be in (0, 1), got {delta_overall}")
    ell, rho = spec.ell, spec.rho
    delta = delta_overall / (2304.0 * delta_f_bound) * math.sqrt(eps**3 / rho)
    snc = derive_snc_params(spec, ell_tilde, eps, delta, n)
    outer_batch = max(1, math.ceil(16.0 * ell * delta_f_bound / eps**2))
    return SGDNCParams(
        snc=snc,
        outer_batch=outer_batch,
        total_steps=_descent_budget(ell, rho, eps, delta_f_bound),
        eps=eps,
        ell=ell,
        rho=rho,
    )


def sgd_nc_run(
    oracle: StochasticOracle,
    x0: Array,
    params: SGDNCParams,
    stream: RngStream,
) -> Trace:
    """Minibatch SGD that switches to the curvature search at flat points.

    Each outer iteration measures an outer_batch-sample gradient estimate.  A
    small estimate triggers the search: its steps are recorded one per
    iteration against the budget, the resulting direction feeds a two-sided
    exploit from the anchor (scored with noiseless values, standing in for
    the stated exact directional sign), and the loop resumes with a fresh
    estimate.  Otherwise the estimate is consumed by a plain SGD step.
    """
    trace = Trace.start("sgd-nc", stream, samples=0)
    theta_stream = stream.substream("outer-theta")

    def estimate(x: Array, g: Array) -> Array:
        trace.meta["samples"] += params.outer_batch
        return oracle.minibatch_mean(x, params.outer_batch, theta_stream)

    def search(anchor: Array, budget: int, episode: int) -> NCOutcome:
        inner = dataclasses.replace(params.snc, steps=min(params.snc.steps, budget))
        trace.meta["samples"] += inner.steps * inner.batch * 2
        return snc_find(oracle, anchor, inner, stream.substream(("snc", episode)))

    escape = curvature_escape(trace, params, oracle.mean.value, search)
    return descend(
        x0, params, trace, estimate, oracle.mean, escape, EVENT_SGD,
        params.effective_eta, params.effective_threshold,
    )

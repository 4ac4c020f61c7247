"""Stochastic curvature search and the SGD escape loop built on it."""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    AlgorithmError,
    Array,
    EVENT_SGD,
    ParameterError,
    RngStream,
    SmoothnessSpec,
    StochasticOracle,
    Trace,
    require_positive,
    _norm,
)
from .ncfind import NCOutcome, search_descent

__all__ = [
    "SNCParams",
    "derive_snc_params",
    "snc_find",
    "snc_find_unnormalized",
    "SGDNCParams",
    "derive_sgdnc_params",
    "sgd_nc_run",
]

_MAX_RESTARTS = 3


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
        if self.steps < 1:
            raise ParameterError(f"steps must be >= 1, got {self.steps}")
        if self.radius <= 0:
            raise ParameterError(f"radius must be positive, got {self.radius}")
        if self.batch < 1:
            raise ParameterError(f"batch must be >= 1, got {self.batch}")
        require_positive(ell=self.ell, rho=self.rho)


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
    if eps <= 0:
        raise ParameterError(f"eps must be positive, got {eps}")
    if not (0 < delta < 1):
        raise ParameterError(f"delta must be in (0, 1), got {delta}")
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    if ell_tilde <= 0:
        raise ParameterError(f"ell_tilde must be positive, got {ell_tilde}")
    ell, rho = spec.ell, spec.rho
    threshold = math.sqrt(rho * eps)
    if threshold > ell:
        raise ParameterError(
            f"sqrt(rho*eps)={threshold:g} exceeds ell={ell:g}; shrink eps"
        )
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
    batch: int | None = None,
) -> NCOutcome:
    """Stochastic curvature search with per-step renormalization.

    Starts from the zero vector; injected Gaussian noise supplies the initial
    alignment.  Each step renormalizes the iterate to the probe radius and
    tracks the would-be magnitude in a scale ledger, dividing the injected
    noise by the accumulated scale so the noise-to-signal schedule matches
    the free-running recursion.  Gradient differences share the sample draw
    across both query points, which is what turns them into curvature probes.
    """
    x_tilde = np.asarray(x_tilde, dtype=float)
    n = x_tilde.shape[0]
    r_s = params.radius
    ell = params.ell
    m = params.batch if batch is None else batch
    theta_stream = stream.substream("theta")
    xi_stream = stream.substream("xi")

    for _ in range(_MAX_RESTARTS + 1):
        y = np.zeros(n)
        scale = r_s
        ledger = [scale]
        failed = False
        for _ in range(params.steps):
            diff = oracle.minibatch_diff(x_tilde, x_tilde + y, m, theta_stream)
            xi = _noise_draw(xi_stream, n, r_s)
            y = y - (1.0 / ell) * (diff + xi / (scale / r_s))
            norm = _norm(y)
            if norm == 0.0 or not math.isfinite(norm):
                failed = True
                break
            scale = scale * (norm / r_s)
            ledger.append(scale)
            y = (r_s / norm) * y
        if not failed:
            return NCOutcome(
                e_hat=y / r_s,
                steps_used=params.steps,
                renormalized=True,
                ledger=ledger,
            )
    raise AlgorithmError("stochastic curvature search degenerated repeatedly")


def snc_find_unnormalized(
    oracle: StochasticOracle,
    x_tilde: Array,
    params: SNCParams,
    stream: RngStream,
    batch: int | None = None,
) -> NCOutcome:
    """Free-running twin of snc_find: same randomness, no renormalization.

    Queries stay on the probe sphere (the iterate is rescaled to radius r_s
    for each gradient difference, and the result is scaled back up), so with
    a shared stream the direction sequence matches snc_find exactly while the
    magnitude grows freely.
    """
    x_tilde = np.asarray(x_tilde, dtype=float)
    n = x_tilde.shape[0]
    r_s = params.radius
    ell = params.ell
    m = params.batch if batch is None else batch
    theta_stream = stream.substream("theta")
    xi_stream = stream.substream("xi")

    for _ in range(_MAX_RESTARTS + 1):
        z = np.zeros(n)
        failed = False
        for _ in range(params.steps):
            zn = _norm(z)
            if zn > 0.0:
                diff = oracle.minibatch_diff(
                    x_tilde, x_tilde + (r_s / zn) * z, m, theta_stream
                )
                g_est = (zn / r_s) * diff
            else:
                # Consume the same sample draws as the renormalized twin so
                # the two runs stay aligned stream-for-stream.
                oracle.minibatch_diff(x_tilde, x_tilde, m, theta_stream)
                g_est = np.zeros(n)
            xi = _noise_draw(xi_stream, n, r_s)
            z = z - (1.0 / ell) * (g_est + xi)
            if not np.isfinite(z).all():
                failed = True
                break
        zn = _norm(z)
        if not failed and zn > 0.0:
            return NCOutcome(e_hat=z / zn, steps_used=params.steps, renormalized=False)
    raise AlgorithmError("stochastic curvature search degenerated repeatedly")


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
        if self.outer_batch < 1:
            raise ParameterError(f"outer_batch must be >= 1, got {self.outer_batch}")
        if self.total_steps < 1:
            raise ParameterError(f"total_steps must be >= 1, got {self.total_steps}")
        if self.eps <= 0:
            raise ParameterError(f"eps must be positive, got {self.eps}")
        require_positive(ell=self.ell, rho=self.rho, eta=self.eta)

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
    if delta_f_bound <= 0:
        raise ParameterError(f"delta_f_bound must be positive, got {delta_f_bound}")
    if not (0 < delta_overall < 1):
        raise ParameterError(f"delta_overall must be in (0, 1), got {delta_overall}")
    ell, rho = spec.ell, spec.rho
    delta = delta_overall / (2304.0 * delta_f_bound) * math.sqrt(eps**3 / rho)
    snc = derive_snc_params(spec, ell_tilde, eps, delta, n)
    outer_batch = max(1, math.ceil(16.0 * ell * delta_f_bound / eps**2))
    budget = max(
        8.0 * ell * delta_f_bound / eps**2,
        768.0 * delta_f_bound * math.sqrt(rho / eps**3),
    )
    return SGDNCParams(
        snc=snc,
        outer_batch=outer_batch,
        total_steps=max(1, math.ceil(budget)),
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

    def estimate(x: Array) -> Array:
        trace.meta["samples"] += params.outer_batch
        return oracle.minibatch_mean(x, params.outer_batch, theta_stream)

    def search(anchor: Array, budget: int, episode: int) -> NCOutcome:
        inner = dataclasses.replace(params.snc, steps=min(params.snc.steps, budget))
        trace.meta["samples"] += inner.steps * inner.batch * 2
        return snc_find(oracle, anchor, inner, stream.substream(("snc", episode)))

    return search_descent(x0, params, trace, estimate, oracle.mean, search, EVENT_SGD)

"""Stochastic curvature search and the SGD escape loop built on it."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    Array,
    EVENT_SGD,
    RngStream,
    StochasticOracle,
    Trace,
    _normal_rows,
    require_count,
    require_fraction,
    require_nonnegative,
    require_positive,
    require_vector,
)
from .ncfind import (
    NCDescentParams,
    NCOutcome,
    _power_search,
    curvature_escape,
    descend,
)


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
            ell_tilde=self.ell_tilde, log_term=self.log_term,
        )
        require_fraction(delta=self.delta)
        require_nonnegative(batch_raw=self.batch_raw)


def snc_find(
    oracle: StochasticOracle,
    x_tilde: Array,
    params: SNCParams,
    stream: RngStream,
    *,
    g: Array | None = None,
) -> NCOutcome:
    """Stochastic curvature search with per-step renormalization.

    Starts from the zero vector; injected Gaussian noise supplies the initial
    alignment.  _power_search renormalizes each step to the probe radius, and
    scale carries the magnitude the free-running recursion would have
    reached: dividing the injected noise by scale / radius keeps the
    noise-to-signal schedule of that recursion.  Gradient differences share
    the sample draw across both query points, which is what turns them into
    curvature probes.  g is grad f at x_tilde, queried here when absent.
    Under additive noise a search then queries grad f once per step but the
    first, whose difference at offset zero is zero; sgd_nc_run bills
    2 * batch samples per step but that first, which draws none.  The
    injected noise is drawn in blocks of rows, the same bits as one draw
    per step.
    """
    x_tilde = require_vector(x_tilde, "x_tilde", oracle.dim)
    g = oracle.mean.gradient(x_tilde) if g is None else require_vector(g, "g", oracle.dim)
    n = x_tilde.shape[0]
    r_s = scale = params.radius
    diff = oracle.diff_sampler(x_tilde, g, params.batch, stream.substream("theta"))
    xi_rows = _normal_rows(stream.substream("xi"), n, r_s / math.sqrt(n), params.steps)

    def step(y: Array, norm: float) -> Array:
        nonlocal scale
        # Only the first step, from zero, sees norm 0: scale stays r_s, and
        # the shared-sample difference at x_tilde + 0 is 0.
        scale *= norm / r_s if norm else 1.0
        probe = diff(x_tilde + y) if norm else 0.0
        return y - (1.0 / params.ell) * (probe + next(xi_rows) / (scale / r_s))

    y = _power_search(lambda: np.zeros(n), step, r_s, params.steps)
    return NCOutcome(e_hat=y / r_s, steps_used=params.steps)


def sgd_nc_run(
    oracle: StochasticOracle,
    x0: Array,
    params: NCDescentParams,
    stream: RngStream,
    *, record: str = "full",
) -> Trace:
    """Minibatch SGD that switches to the curvature search at flat points.

    Each outer iteration measures an outer_batch-sample gradient estimate.  A
    small estimate triggers the search: its steps are recorded one per
    iteration against the budget, the resulting direction feeds a two-sided
    exploit from the anchor (scored with noiseless values, standing in for
    the stated exact directional sign), and the loop resumes with a fresh
    estimate.  Otherwise the estimate is consumed by a plain SGD step.  The
    step size defaults to 1/ell and the trigger to 0.75 eps.
    """
    snc = params.search
    eta = 1.0 / snc.ell if params.eta is None else params.eta
    threshold = 0.75 * snc.eps if params.grad_threshold is None else params.grad_threshold
    trace = Trace.start("sgd-nc", stream, samples=0)
    sample = oracle.mean_sampler(
        params.outer_batch, stream.substream("outer-theta"), params.total_steps
    )

    def estimate(x: Array, g: Array) -> Array:
        trace.meta["samples"] += params.outer_batch
        return sample(x, g)

    def find(anchor: Array, g: Array, search: SNCParams, sub: RngStream) -> NCOutcome:
        # The search's first step, from zero, draws no sample.
        trace.meta["samples"] += (search.steps - 1) * search.batch * 2
        return snc_find(oracle, anchor, search, sub, g=g)

    escape = curvature_escape(trace, params, oracle.mean.value, find, stream, "snc")
    return descend(
        x0, params, trace, estimate, oracle.mean, escape, EVENT_SGD, eta, threshold,
        record=record,
    )

"""Negative-curvature finding from gradient differences, the exploit step it
feeds, and the descent loop with escape episodes that nc, snc, pgd and psgd
share."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable

import numpy as np

from .core import (
    AlgorithmError,
    Array,
    CountingOracle,
    EVENT_NCF_EXPLOIT,
    EVENT_NCF_STEP,
    GradientOracle,
    ParameterError,
    RngStream,
    Trace,
    TraceRecord,
    check_iterate,
    keeps_iterates,
    require_bound,
    require_count,
    require_finite,
    require_nonnegative,
    require_positive,
    require_square,
    require_vector,
    uniform_ball_sample,
    _norm,
    _norm2,
)

if TYPE_CHECKING:
    from .stochastic import SNCParams


@dataclass(frozen=True)
class NCParams:
    """Step count and probe radius for gradient-based curvature search."""

    steps: int
    radius: float
    eps: float
    ell: float
    rho: float

    def __post_init__(self):
        require_count(steps=self.steps)
        require_positive(eps=self.eps, radius=self.radius, ell=self.ell, rho=self.rho)
        require_square(radius=self.radius)
        if self.radius * self.ell == 0.0:
            raise ParameterError(
                f"radius {self.radius!r} times ell {self.ell!r} underflows to 0; "
                "the curvature search divides by it")


@dataclass(frozen=True)
class NCOutcome:
    """Unit escape direction and the number of search steps it took."""

    e_hat: Array
    steps_used: int


def _power_search(
    start: Callable[[], Array], step: Callable, radius: float, steps: int, planar=None
) -> Array:
    """The Hessian power method of every curvature search: from y = start(),
    steps times y <- step(y, norm) ~ y - H y / ell, rescaled to radius after
    each step; norm is y's length before that rescaling (the start's at the
    first step).  An iterate that turns zero or not finite raises
    AlgorithmError at once.  Returns the last iterate, whose length is
    radius.  At n = 2 a given planar(y1, y2, norm), step on
    the pair's Python floats, runs in its place with step's bytes: float +,
    -, * and / round as numpy's elementwise ops do, every length comes
    from core._norm2, which gives _norm's bits, fused dot and all, on the
    floats, and each query goes to a float twin where the oracle has one.
    """
    y = start()
    norm = _norm(y)
    if planar is None or y.shape != (2,):
        for _ in range(steps):
            y = step(y, norm)
            norm = _norm(y)
            if norm == 0.0 or not math.isfinite(norm):
                raise AlgorithmError(
                    "curvature search degenerated: an iterate is zero or not finite")
            y = (radius / norm) * y
        return y
    y1, y2 = y.tolist()
    for _ in range(steps):
        y1, y2 = planar(y1, y2, norm)
        norm = _norm2(y1, y2)
        if norm == 0.0 or not math.isfinite(norm):
            raise AlgorithmError("curvature search degenerated: an iterate is zero or not finite")
        y1, y2 = (radius / norm) * y1, (radius / norm) * y2
    return np.array([y1, y2])


def _difference_step(
    oracle: GradientOracle, x: Array, g0: Array, r: float, ell: float
) -> tuple[Callable, Callable]:
    """Power step on exact gradient differences at x, whose gradient is g0,
    probed at the offset y rescaled to radius r; 1-homogeneous in y.  Returns
    the step and its planar twin, for _power_search; the twin queries
    oracle._gradient_pair, which builds no array where grad has a float twin."""

    def step(y: Array, _) -> Array:
        norm = _norm(y)
        if norm == 0.0:  # a zero start stays zero, so the search raises
            return y
        probe = oracle.gradient(x + (r / norm) * y) - g0
        return y - (norm / (ell * r)) * probe

    def planar(y1: float, y2: float, _) -> tuple[float, float]:
        norm = _norm2(y1, y2)
        if norm == 0.0:
            return y1, y2
        s = r / norm
        d1, d2 = oracle._gradient_pair(x1 + s * y1, x2 + s * y2)
        c = norm / (ell * r)
        return y1 - c * (d1 - h1), y2 - c * (d2 - h2)

    (x1, x2), (h1, h2) = (x.tolist(), g0.tolist()) if x.shape == (2,) else [(0.0, 0.0)] * 2
    return step, planar


def nc_find(
    oracle: GradientOracle,
    x_tilde: Array,
    params: NCParams,
    stream: RngStream,
    *,
    g: Array | None = None,
) -> NCOutcome:
    """Estimate the most-negative-curvature direction at x_tilde.

    Gradient differences at a fixed probe radius act as Hessian-vector
    products, so _power_search converges to the bottom eigenvector.  The
    search starts from a uniform draw in the probe ball.  g is grad f at
    x_tilde, queried here when absent; passing it or not leaves e_hat's
    bytes unchanged.  Each step queries one gradient.
    """
    x_tilde = require_vector(x_tilde, "x_tilde", oracle.dim)
    g = oracle.gradient(x_tilde) if g is None else require_vector(g, "g", oracle.dim)
    n, r = x_tilde.shape[0], params.radius
    step, planar = _difference_step(oracle, x_tilde, g, r, params.ell)
    y = _power_search(
        lambda: uniform_ball_sample(np.zeros(n), r, stream), step, r, params.steps, planar
    )
    return NCOutcome(e_hat=y / _norm(y), steps_used=params.steps)


# K of the certified decrease sqrt(eps^3 / rho) / K; the paper-mode budgets
# and failure probabilities (schedules) count escapes of that size.
_K = 384.0


def lemma_decrease_bound(eps: float, rho: float) -> float:
    """Guaranteed decrease of a certified escape step."""
    require_positive(eps=eps, rho=rho)
    return math.sqrt(eps**3 / rho) / _K


def _lower_step(value: Callable[[Array], float], x: Array, d: Array) -> tuple[Array, float]:
    """The lower of x + d and x - d, scored in that order (a tie keeps x + d),
    and its value: the two-candidate step of exploit and ancgd's reset."""
    plus, minus = x + d, x - d
    f_plus, f_minus = value(plus), value(minus)
    return (plus, f_plus) if f_plus <= f_minus else (minus, f_minus)


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
    the anchor when neither decreases f.  anchor, e_hat (of its shape) and
    anchor_f must be finite.

    With meta, the episode is logged in meta["exploits"] as ending at record
    t and certified against lemma_decrease_bound; an uncertified anchor is a
    second-order candidate.  Returns the new point and whether the loop stops
    there (stop_at_candidate and the anchor became a candidate).
    """
    require_positive(eps=eps, rho=rho, step=step)
    require_finite(anchor_f=anchor_f)
    anchor = require_vector(anchor, "anchor")
    e_hat = require_vector(e_hat, "e_hat", anchor.shape[0])
    if step is None:
        step = 0.25 * math.sqrt(eps / rho)
    cand, f_cand = _lower_step(value, anchor, step * e_hat)
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


@dataclass(frozen=True)
class NCDescentParams:
    """The descent loop of nc and snc around its curvature search.

    search (an NCParams or SNCParams) also supplies the loop's eps, ell and
    rho.  eta and grad_threshold default, when None, to what the run
    function states; outer_batch is the minibatch of snc's gradient
    estimate, and must stay 1 under an NCParams search, whose exact
    gradient takes no minibatch.
    """

    search: NCParams | SNCParams
    total_steps: int
    eta: float | None = None
    grad_threshold: float | None = None
    exploit_step: float | None = None
    cooldown: int | None = None
    outer_batch: int = 1
    stop_at_candidate: bool = False
    trust_region: float = 1e6

    def __post_init__(self):
        require_count(total_steps=self.total_steps, outer_batch=self.outer_batch)
        require_positive(eta=self.eta, exploit_step=self.exploit_step)
        require_nonnegative(grad_threshold=self.grad_threshold)
        require_count(least=0, cooldown=self.cooldown)
        require_bound(trust_region=self.trust_region)
        if isinstance(self.search, NCParams) and self.outer_batch != 1:
            raise ParameterError(f"outer_batch applies to snc only, got {self.outer_batch} for nc")


def _episode(escape, records: list, x: Array, g: Array, t: int, total: int) -> tuple | None:
    """Offer x, whose record (the last) took gradient g, to the episode hook
    escape(x, g, t, total - t) of descend or accelerate.  The hook returns
    None to decline, else (new x, tag, held, stop); each held iteration,
    up to total - t - 1 of them, is billed as an ncf-step record that repeats
    x's f, gradient norm and x.  A declined offer bills nothing and starts no
    cooldown: the loop goes on as if the trigger had not fired.  Returns the
    hook's result."""
    episode = escape(x, g, t, total - t)
    if episode is not None:
        anchor = records[-1]
        for k in range(1, min(episode[2], total - t - 1) + 1):
            records.append(TraceRecord(t + k, anchor.f, anchor.grad_norm, EVENT_NCF_STEP, anchor.x))
    return episode


def descend(
    x0: Array, params, trace: Trace, estimate: Callable[[Array, Array], Array], recorder,
    escape: Callable[[Array, Array, int, int], tuple | None], event: str, eta: float,
    threshold: float, *, record: str = "full",
) -> Trace:
    """The descent loop of nc, snc, pgd and psgd, with escape episodes.

    Each iteration takes a gradient estimate(x, g), where g is the exact
    gradient that x's record took.  When the estimate's norm is at most
    threshold and the cooldown since the last episode has passed, x is
    offered to the episode hook (see _episode).  An episode's new point
    takes the record after its held ones, under the hook's tag, and the loop
    ends there if stop is set.  Otherwise x steps against the estimate and
    the record is tagged event.  params supplies total_steps,
    cooldown and trust_region.  A CountingOracle recorder's call counts go
    into trace.meta, and at record="summary" no record keeps its iterate.
    x0 must be a finite (dim,) vector of the recorder's domain.

    Queries: each record scores its point with one
    recorder.value_and_gradient call (one value and one gradient); a held
    search step, and a closing record at the anchor's very bytes, reuse the
    anchor's record and query nothing.  Whatever estimate and escape query
    comes on top.
    """
    keep = keeps_iterates(record)
    require_positive(eta=eta)
    require_nonnegative(threshold=threshold)
    x = require_vector(x0, "x0", recorder.dim).copy()
    records = trace.records
    value_and_gradient = recorder.value_and_gradient

    def score(t: int, x: Array, tag: str) -> Array:
        f, g = value_and_gradient(x)
        records.append(TraceRecord(t, f, _norm(g), tag, x if keep else None))
        return g

    g_x = score(0, x, event)
    t = 0
    # No cooldown lets any later iteration start the next episode.
    last, cooldown = -math.inf, params.cooldown or 0
    while t < params.total_steps:
        g = estimate(x, g_x)
        g_norm = records[-1].grad_norm if g is g_x else _norm(g)
        flat = g_norm <= threshold and t - last > cooldown
        episode = _episode(escape, records, x, g_x, t, params.total_steps) if flat else None
        if episode is None:
            x = x - eta * g
            t += 1
            g_x = score(t, x, event)
        else:
            # The last record is x's, or a held one that repeats it.
            last, anchor, anchor_x = t, records[-1], x
            x, tag, _, stop = episode
            t = anchor.t + 1
            if x.tobytes() == anchor_x.tobytes():
                # The exploit fell back to the anchor: g_x is still its gradient.
                records.append(TraceRecord(t, anchor.f, anchor.grad_norm, tag, x if keep else None))
            else:
                g_x = score(t, x, tag)
            if stop:
                break
        check_iterate(x, params.trust_region, trace)
    if isinstance(recorder, CountingOracle):
        trace.meta.update(f_evals=recorder.f_evals, grad_evals=recorder.grad_evals)
    return trace


def curvature_escape(
    trace: Trace, params: NCDescentParams, value: Callable[[Array], float],
    find: Callable[[Array, Array, NCParams | SNCParams, RngStream], NCOutcome],
    stream: RngStream, tag: str,
) -> Callable[[Array, Array, int, int], tuple | None]:
    """Episode hook for descend.  The k-th episode runs find(anchor, g,
    search, substream), g being the gradient the anchor's record took, with
    params.search cut to at most budget - 1 steps (the closing record takes
    the last iteration) and the substream (tag, k) of stream; each search
    step is one held iteration.  The exploit from the anchor along the
    direction found (scored by value, its f from the anchor's record) takes
    the closing record.  Declines when fewer than two iterations remain.
    """
    meta = trace.meta
    meta["exploits"], meta["candidates"] = [], []
    search = params.search

    def escape(anchor: Array, g: Array, t: int, budget: int):
        if budget < 2:
            return None
        inner = search if search.steps < budget else replace(search, steps=budget - 1)
        outcome = find(anchor, g, inner, stream.substream((tag, len(meta["exploits"]))))
        x, stop = exploit(
            value, anchor, trace.records[-1].f, outcome.e_hat, search.eps, search.rho,
            params.exploit_step, meta=meta, t=t + outcome.steps_used + 1,
            stop_at_candidate=params.stop_at_candidate,
        )
        return x, EVENT_NCF_EXPLOIT, outcome.steps_used, stop

    return escape

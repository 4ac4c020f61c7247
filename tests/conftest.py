"""Shared builders and fixtures for the test suite, reference
implementations, and a detector of repeated oracle queries.

The library's curvature searches keep their iterates on the probe sphere.
The free-running references below run the same recursions with the
magnitude left free, on the same streams, so a test can check that pinning
never bends the direction.  Each takes one attempt (no restarts).

A noise model in src/ is only its two samplers.  LITERAL_LAWS writes out,
sample by sample, the law each model's samplers stand for, and LiteralNoise
samples a model by that law, as the reference its samplers are tested
against.
"""

import dataclasses
import functools
import math
import os
from typing import Callable

import numpy as np
import pytest

from saddlescape import (
    AdditiveNoiseOracle,
    GradientOracle,
    RandomQuadraticNoiseOracle,
    SmoothnessSpec,
    StochasticOracle,
    get_landscape,
    uniform_ball_sample,
)
from saddlescape import harness
from saddlescape.core import _norm


@pytest.fixture
def two_cpus(monkeypatch):
    """Make harness see two usable CPUs, whatever the machine has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


@pytest.fixture
def forks(monkeypatch, two_cpus):
    """The pids of the trial workers this process forks, at most two CPUs'
    worth.  After the test no child of this process is left, running or
    unreaped."""
    pids = []
    real = os.fork

    def fork():
        pid = real()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    yield pids
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def trials_run(monkeypatch):
    """The index of each trial harness._run_trial runs in this process."""
    ran = []
    real = harness._run_trial

    def run_trial(payload, trial):
        ran.append(trial)
        return real(payload, trial)

    monkeypatch.setattr(harness, "_run_trial", run_trial)
    return ran


def make_quadratic(diag, rho=1.0, ell=None):
    """f(x) = 0.5 x' diag(d) x with exact declared constants."""
    d = np.asarray(diag, dtype=float)
    if ell is None:
        ell = float(np.max(np.abs(d)))

    def f(x):
        return 0.5 * float(np.dot(x, d * x))

    def grad(x):
        return d * x

    return GradientOracle(f=f, grad=grad, spec=SmoothnessSpec(ell, rho), dim=d.shape[0])


def trace_events(trace):
    """The event tag of each record, in order."""
    return [rec.event for rec in trace.records]


def trace_decrease(trace):
    """f at the first record minus f at the last."""
    return trace.initial_f() - trace.final_f()


def relabel(oracle, ell, rho):
    """The same oracle declaring other constants (e.g. a saddle's local ones)."""
    return dataclasses.replace(oracle, spec=SmoothnessSpec(ell, rho))


def free_nc_direction(oracle, x_tilde, params, stream):
    """nc_find without the renormalization: same start draw and queries,
    unit direction of the free iterate."""
    x_tilde = np.asarray(x_tilde, dtype=float)
    ell, r = params.ell, params.radius
    g0 = oracle.gradient(x_tilde)
    y = uniform_ball_sample(np.zeros(x_tilde.shape[0]), r, stream)
    for _ in range(params.steps):
        norm = _norm(y)
        assert norm > 0.0 and math.isfinite(norm), "free search degenerated"
        probe = oracle.gradient(x_tilde + (r / norm) * y) - g0
        y = y - (norm / (ell * r)) * probe
    return y / _norm(y)


def free_snc_direction(oracle, x_tilde, params, stream):
    """snc_find without the renormalization: the same sample and noise draws,
    every gradient difference taken on the probe sphere and scaled back up,
    so the direction sequence matches while the magnitude grows freely."""
    x_tilde = np.asarray(x_tilde, dtype=float)
    n = x_tilde.shape[0]
    r_s, ell = params.radius, params.ell
    g0 = oracle.mean.gradient(x_tilde)
    diff = oracle.diff_sampler(x_tilde, g0, params.batch, stream.substream("theta"))
    xi_stream = stream.substream("xi")
    z = np.zeros(n)
    for _ in range(params.steps):
        zn = _norm(z)
        # From zero the shared-sample difference is zero, and neither
        # search queries it.
        g_est = (zn / r_s) * diff(x_tilde + (r_s / zn) * z) if zn > 0.0 else np.zeros(n)
        xi = xi_stream.gen.standard_normal(n) * (r_s / math.sqrt(n))
        z = z - (1.0 / ell) * (g_est + xi)
        assert np.isfinite(z).all(), "free search degenerated"
    zn = _norm(z)
    assert zn > 0.0, "free search collapsed to zero"
    return z / zn


def free_anc_window(oracle, x_tilde, params, x_off):
    """Free-space twin of ancgd_run's pinned search window from the initial
    offset x_off: the momentum iterate runs unconstrained while every
    gradient is taken on the probe sphere and scaled by the offset norm over
    the probe radius.  Returns (unit direction, the z offset of each step,
    where the pinned window queries its gradient)."""
    x_tilde = np.asarray(x_tilde, dtype=float)
    r = params.perturb_radius
    x_off = np.asarray(x_off, dtype=float).copy()
    g_anchor = oracle.gradient(x_tilde)
    z_off = x_off.copy()
    path = []
    for _ in range(params.ncf_steps):
        path.append(z_off.copy())
        zn = _norm(z_off)
        if zn > 0.0:
            g_scaled = (zn / r) * oracle.gradient(x_tilde + (r / zn) * z_off)
        else:
            g_scaled = np.zeros_like(z_off)
        x_next = z_off - params.eta * (g_scaled - g_anchor)
        v = x_next - x_off
        z_off = x_next + (1.0 - params.theta) * v
        x_off = x_next
    norm = _norm(x_off)
    assert norm > 0.0, "search collapsed to the anchor"
    return x_off / norm, path


@dataclasses.dataclass(frozen=True)
class NoiseLaw:
    """The per-sample law of a noise model.

    build(mean) makes the model over a mean oracle; draw(model, stream, m)
    draws m thetas; grad_at(model, x, thetas) stacks the m per-sample
    gradients g(x; theta_j).  exact says whether the model's samplers draw
    those very thetas (and must match the law bit for bit) or use a closed
    form that matches it in distribution only.
    """

    build: Callable
    draw: Callable
    grad_at: Callable
    exact: bool


def _additive_draw(model, stream, m):
    return model.sigma * stream.gen.standard_normal((m, model.dim))


def _additive_grad_at(model, x, thetas):
    return model.mean.gradient(x)[None, :] + thetas


def _quadratic_draw(model, stream, m):
    # b for all m samples first, then the symmetrised A.
    n = model.dim
    b = model.sigma_b * stream.gen.standard_normal((m, n))
    raw = model.sigma_a * stream.gen.standard_normal((m, n, n))
    return b, (raw + np.swapaxes(raw, 1, 2)) / 2


def _quadratic_grad_at(model, x, thetas):
    b, a = thetas
    return model.mean.gradient(x)[None, :] + b + a @ x


LITERAL_LAWS = {
    AdditiveNoiseOracle: NoiseLaw(
        lambda mean: AdditiveNoiseOracle(mean, 0.5), _additive_draw, _additive_grad_at,
        exact=False,
    ),
    RandomQuadraticNoiseOracle: NoiseLaw(
        lambda mean: RandomQuadraticNoiseOracle(mean, 0.3, 0.2), _quadratic_draw,
        _quadratic_grad_at, exact=False,
    ),
}


class LiteralNoise(StochasticOracle):
    """A noise model sampled by its literal law: every call draws its m
    thetas and averages m per-sample gradients, queried afresh."""

    def __init__(self, model):
        super().__init__(model.mean, model.ell_tilde)
        law = LITERAL_LAWS[type(model)]
        self.draw_theta = functools.partial(law.draw, model)
        self.grad_at = functools.partial(law.grad_at, model)

    def mean_sampler(self, m, stream, calls):
        return lambda x, g: self.grad_at(x, self.draw_theta(stream, m)).mean(axis=0)

    def diff_sampler(self, x0, g0, m, stream):
        def diff(x1):
            thetas = self.draw_theta(stream, m)
            return (self.grad_at(x1, thetas) - self.grad_at(x0, thetas)).mean(axis=0)

        return diff


def repeated_queries(algorithm, landscape, trials, seed=0):
    """The oracle queries of a recipe's trials, and how many of them are at
    an x that the same trial already queried the same way (value or
    gradient), byte for byte.  Each trial runs as the harness runs it
    (harness._trial_trace), on a payload built over a wrapped landscape
    oracle, whose queries while the payload is built are not counted; a
    fused value_and_gradient call is one query of each kind.  Returns
    {"gradient": (repeated, total), "value": (repeated, total)}."""
    land = get_landscape(landscape)
    oracle = land.oracle
    counts = {"gradient": [0, 0], "value": [0, 0]}
    seen = {kind: set() for kind in counts}

    def logged(fn, *kinds):
        def query(x):
            key = np.asarray(x, dtype=float).tobytes()
            for kind in kinds:
                counts[kind][0] += key in seen[kind]
                counts[kind][1] += 1
                seen[kind].add(key)
            return fn(x)

        return query

    logged_land = dataclasses.replace(land, oracle=dataclasses.replace(
        oracle, f=logged(oracle.f, "value"), grad=logged(oracle.grad, "gradient"),
        f_and_grad=oracle.f_and_grad and logged(oracle.f_and_grad, "value", "gradient"),
    ))
    cfg = harness.ExperimentConfig(algorithm, landscape, trials=trials, seed=seed)
    payload = harness.build_payload(cfg, logged_land)
    for count in counts.values():
        count[:] = [0, 0]
    for trial in range(trials):
        for points in seen.values():
            points.clear()
        harness._trial_trace(payload, trial)
    return {kind: tuple(c) for kind, c in counts.items()}


def angular_gap(a, b):
    """Angle-insensitive direction mismatch: 1 - |cos(a, b)|."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    denom = float(np.linalg.norm(a) * np.linalg.norm(b))
    if denom == 0.0:
        return 1.0
    return 1.0 - abs(float(np.dot(a, b)) / denom)


@pytest.fixture
def quad2():
    """Indefinite 2-D quadratic: bottom eigenpair (-1, e0)."""
    return make_quadratic([-1.0, 2.0])


@pytest.fixture
def quad5():
    """Indefinite 5-D quadratic with a clear spectral gap at the bottom."""
    return make_quadratic([-2.0, -0.5, 0.3, 1.0, 3.0])

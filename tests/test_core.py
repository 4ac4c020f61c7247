"""Streams, samplers, oracles, and trace plumbing."""

import argparse
import dataclasses
import inspect
import math
import numbers
import re
import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import stats

import saddlescape
from saddlescape import (
    ANCParams,
    AdditiveNoiseOracle,
    BaselineParams,
    CountingOracle,
    DivergenceError,
    ExperimentConfig,
    GradientOracle,
    NCDescentParams,
    ParameterError,
    RngStream,
    SmoothnessSpec,
    StochasticOracle,
    Trace,
    TraceRecord,
    ancgd_run,
    classify,
    dense_hessian,
    dense_hessian_eig,
    derive_anc_params,
    derive_nc_params,
    derive_params_for,
    derive_snc_params,
    fd_quadform,
    gaussian_sample,
    get_landscape,
    grad_power_lambda_min,
    lemma_decrease_bound,
    nc_find,
    pagd_run,
    pgd_nc_run,
    pgd_run,
    psgd_run,
    sgd_nc_run,
    snc_find,
    run_verify,
    uniform_ball_sample,
)
from saddlescape.core import (
    _BLOCK_FLOATS,
    EVENT_AGD,
    EVENT_GD,
    EVENT_NCE,
    EVENT_NCF_EXPLOIT,
    EVENT_NCF_STEP,
    EVENT_PERTURB,
    EVENT_SGD,
    _is_number,
    _norm,
    _normal_rows,
    check_iterate,
)
from saddlescape import harness
from saddlescape.cli import build_parser, main
from saddlescape.harness import ALGORITHMS, RECIPES, build_payload
from saddlescape.ancgd import accelerate
from saddlescape.ncfind import NCParams, descend, exploit
from saddlescape.stochastic import SNCParams
from saddlescape.testbed import make_highdim

from conftest import LiteralNoise, make_quadratic, relabel, trace_decrease, trace_events


class _BlockSpy:
    """A generator stand-in that logs the shape of every normal draw."""

    def __init__(self, gen):
        self.gen, self.shapes = gen, []

    def standard_normal(self, shape):
        self.shapes.append(shape)
        return self.gen.standard_normal(shape)


class TestNormalRows:
    @pytest.mark.parametrize("n", [2, 10, 1000])
    def test_rows_match_one_draw_per_row(self, n):
        block = max(1, _BLOCK_FLOATS // n)
        rows = 2 * block + 3  # three blocks, the last one short
        stream = RngStream(5, 1)
        spy = stream._gen = _BlockSpy(stream.gen)
        got = list(_normal_rows(stream, n, 0.3, rows))
        ref = RngStream(5, 1).gen
        want = [ref.standard_normal(n) * 0.3 for _ in range(rows)]
        assert len(got) == rows
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
        # Every block holds at most _BLOCK_FLOATS floats, and none is drawn
        # past the last row: the stream stands where the row-by-row one does.
        assert spy.shapes == [(block, n), (block, n), (3, n)]
        assert block * n <= _BLOCK_FLOATS
        assert np.array_equal(spy.gen.standard_normal(4), ref.standard_normal(4))

    def test_draws_nothing_before_the_first_row(self):
        stream = RngStream(5, 1)
        spy = stream._gen = _BlockSpy(stream.gen)
        rows = _normal_rows(stream, 2, 1.0, 10)
        assert spy.shapes == []
        next(rows)
        assert spy.shapes == [(10, 2)]


class TestRngStream:
    def test_same_key_reproduces(self):
        a = RngStream(7, 3).gen.standard_normal(16)
        b = RngStream(7, 3).gen.standard_normal(16)
        assert np.array_equal(a, b)

    def test_stream_id_separates(self):
        a = RngStream(7, 0).gen.standard_normal(16)
        b = RngStream(7, 1).gen.standard_normal(16)
        assert not np.array_equal(a, b)

    def test_seed_separates(self):
        a = RngStream(0, 5).gen.standard_normal(16)
        b = RngStream(1, 5).gen.standard_normal(16)
        assert not np.array_equal(a, b)

    def test_generator_draws_no_os_entropy(self, monkeypatch):
        # The stream is Philox keyed by (seed, stream_id), built without the
        # entropy-drawn SeedSequence that Philox(key=...) makes and drops.
        cases = [(0, 0), (7, 3), (2**64 - 1, 5), (-1, 2**63), (-12345, 9)]
        keys = [np.array([s & (2**64 - 1), i & (2**64 - 1)], dtype=np.uint64) for s, i in cases]
        refs = [np.random.Philox(key=key) for key in keys]

        def no_entropy(*args, **kwargs):
            raise AssertionError("OS entropy drawn")

        monkeypatch.setattr(np.random.bit_generator, "randbits", no_entropy)
        for (seed, stream_id), ref in zip(cases, refs):
            gen = RngStream(seed, stream_id).gen
            state, want = gen.bit_generator.state, ref.state
            assert state["state"]["key"].tobytes() == want["state"]["key"].tobytes()
            assert state["state"]["counter"].tobytes() == want["state"]["counter"].tobytes()
            draws = gen.standard_normal(8)
            assert draws.tobytes() == np.random.Generator(ref).standard_normal(8).tobytes()

    def test_substream_deterministic(self):
        a = RngStream(11, 2).substream("theta").gen.standard_normal(8)
        b = RngStream(11, 2).substream("theta").gen.standard_normal(8)
        assert np.array_equal(a, b)

    def test_substream_labels_distinct(self):
        base = RngStream(11, 2)
        a = base.substream("theta").gen.standard_normal(8)
        b = base.substream("xi").gen.standard_normal(8)
        c = base.substream(("snc", 0)).gen.standard_normal(8)
        d = base.substream(("snc", 1)).gen.standard_normal(8)
        assert not np.array_equal(a, b)
        assert not np.array_equal(c, d)

    def test_substream_independent_of_parent_consumption(self):
        base = RngStream(3, 0)
        fresh = base.substream("x").gen.standard_normal(4)
        base.gen.standard_normal(100)
        again = RngStream(3, 0).substream("x").gen.standard_normal(4)
        assert np.array_equal(fresh, again)

    def test_gen_is_stateful_per_instance(self):
        s = RngStream(4, 0)
        first = s.gen.standard_normal(4)
        second = s.gen.standard_normal(4)
        assert not np.array_equal(first, second)


class TestSamplers:
    def test_ball_sample_inside_and_centered(self):
        stream = RngStream(0, 0)
        center = np.array([1.0, -2.0, 0.5])
        draws = np.array([uniform_ball_sample(center, 0.3, stream) for _ in range(4000)])
        radii = np.linalg.norm(draws - center, axis=1)
        assert float(radii.max()) <= 0.3 + 1e-12
        assert np.allclose(draws.mean(axis=0), center, atol=0.02)

    def test_ball_sample_radial_moment(self):
        # E ||p||^2 = r^2 * n / (n + 2) for the uniform ball.
        n, r = 4, 2.0
        stream = RngStream(1, 0)
        draws = np.array(
            [uniform_ball_sample(np.zeros(n), r, stream) for _ in range(20000)]
        )
        m2 = float(np.mean(np.sum(draws**2, axis=1)))
        expected = r**2 * n / (n + 2)
        assert abs(m2 - expected) / expected < 0.03

    def test_ball_sample_radial_distribution(self):
        # P(||p|| <= t r) = t^n; KS against that CDF.
        n, r = 3, 1.5
        stream = RngStream(2, 0)
        radii = np.array(
            [
                np.linalg.norm(uniform_ball_sample(np.zeros(n), r, stream))
                for _ in range(3000)
            ]
        )
        ks = stats.kstest(radii / r, lambda t: np.clip(t, 0, 1) ** n)
        assert ks.pvalue > 1e-3

    def test_gaussian_sample_moments(self):
        stream = RngStream(3, 0)
        center = np.array([2.0, -1.0])
        var = 0.04
        draws = np.array([gaussian_sample(center, var, stream) for _ in range(20000)])
        assert np.allclose(draws.mean(axis=0), center, atol=0.01)
        assert np.allclose(draws.var(axis=0), var, rtol=0.05)


class TestOracles:
    def test_spec_validation(self):
        with pytest.raises(ParameterError):
            SmoothnessSpec(0.0, 1.0)
        with pytest.raises(ParameterError):
            SmoothnessSpec(1.0, -1.0)

    def test_gradient_oracle_roundtrip(self, quad2):
        x = np.array([1.0, 2.0])
        assert quad2.value(x) == pytest.approx(0.5 * (-1.0 + 8.0))
        assert np.allclose(quad2.gradient(x), [-1.0, 4.0])
        relabeled = relabel(quad2, 5.0, 2.0)
        assert relabeled.spec.ell == 5.0
        assert relabeled.value(x) == quad2.value(x)

    def test_counting_oracle(self, quad2):
        counted = CountingOracle(quad2)
        x = np.zeros(2)
        counted.value(x)
        counted.gradient(x)
        counted.gradient(x)
        assert counted.f_evals == 1
        assert counted.grad_evals == 2
        assert counted.dim == 2
        assert counted.spec.ell == quad2.spec.ell

    def test_additive_mean_sampler_distribution(self, quad2):
        oracle = AdditiveNoiseOracle(quad2, sigma=0.5)
        x = np.array([1.0, -1.0])
        m = 16
        sample = oracle.mean_sampler(m, RngStream(0, 9), 8000)
        draws = np.array([sample(x, quad2.gradient(x)) for _ in range(8000)])
        assert np.allclose(draws.mean(axis=0), quad2.gradient(x), atol=0.02)
        assert np.allclose(draws.var(axis=0), 0.5**2 / m, rtol=0.08)

    def test_additive_shared_theta_diff_is_exact(self, quad2):
        # Noise is x-independent, so a shared-draw difference cancels it.
        oracle = AdditiveNoiseOracle(quad2, sigma=3.0)
        x0 = np.array([0.2, 0.1])
        x1 = np.array([-0.4, 0.5])
        diff = oracle.diff_sampler(x0, quad2.gradient(x0), 7, RngStream(1, 4))(x1)
        assert np.allclose(diff, quad2.gradient(x1) - quad2.gradient(x0), atol=1e-14)

    def test_additive_exact_batches_matches_literal_sampling_law(self, quad2):
        # The additive oracle collapses an m-mean to one scaled draw; the
        # literal law averages m draws.  Same law, checked through the
        # variance.
        m = 9
        x = np.zeros(2)
        g = quad2.gradient(x)
        oracle = AdditiveNoiseOracle(quad2, sigma=1.0)
        literal = LiteralNoise(oracle)
        fast_draws = np.array(
            [oracle.mean_sampler(m, RngStream(0, i), 1)(x, g) for i in range(4000)]
        )
        slow_draws = np.array(
            [literal.mean_sampler(m, RngStream(10**6, i), 1)(x, g) for i in range(4000)]
        )
        assert np.allclose(fast_draws.var(axis=0), 1.0 / m, rtol=0.1)
        assert np.allclose(slow_draws.var(axis=0), 1.0 / m, rtol=0.1)

    def test_stochastic_oracle_validation(self, quad2):
        with pytest.raises(ParameterError):
            AdditiveNoiseOracle(quad2, sigma=-0.5)

    def test_stochastic_oracle_is_its_two_samplers(self, quad2):
        oracle = StochasticOracle(quad2, ell_tilde=2.0)
        public = {name for name in dir(oracle) if not name.startswith("_")}
        assert public == {"mean", "ell_tilde", "dim", "mean_sampler", "diff_sampler"}
        with pytest.raises(NotImplementedError):
            oracle.mean_sampler(1, RngStream(0, 0), 1)
        with pytest.raises(NotImplementedError):
            oracle.diff_sampler(np.zeros(2), np.zeros(2), 1, RngStream(0, 0))


class TestTrace:
    def test_decrease_and_events(self):
        records = [
            TraceRecord(t=0, f=3.0, grad_norm=1.0, event=EVENT_GD),
            TraceRecord(t=1, f=2.5, grad_norm=0.5, event=EVENT_NCE),
        ]
        trace = Trace(records=list(records), meta={})
        assert trace.initial_f() == 3.0
        assert trace.final_f() == 2.5
        assert trace_decrease(trace) == pytest.approx(0.5)
        assert trace_events(trace) == [EVENT_GD, EVENT_NCE]
        trace.records.append(TraceRecord(t=2, f=2.0, grad_norm=0.1, event=EVENT_GD))
        assert len(trace.records) == 3
        assert trace.final_f() == 2.0

    def test_event_vocabulary(self):
        assert (EVENT_GD, EVENT_AGD, EVENT_PERTURB, EVENT_NCF_STEP) == (
            "gd", "agd", "perturb-uniform", "ncf-step"
        )
        assert (EVENT_NCF_EXPLOIT, EVENT_NCE, EVENT_SGD) == ("ncf-exploit", "nce", "sgd")


@pytest.mark.parametrize(
    "value, real, integral",
    [
        (1, True, True), (1.0, True, False), (True, False, False),
        (np.float64(1), True, False), (np.int64(1), True, True),
        (Fraction(1, 2), True, False), ("1", False, False),
    ],
    ids=repr,
)
def test_is_number_verdicts(value, real, integral):
    """Plain ints and floats skip the ABC check; bools, numpy scalars and
    other numbers get the isinstance test's verdict."""
    assert _is_number(value) is real
    assert _is_number(value, numbers.Integral) is integral


class TestGuards:
    def test_check_iterate_nan_raises_with_trace(self):
        trace = Trace(records=[], meta={})
        with pytest.raises(DivergenceError, match="non-finite iterate") as err:
            check_iterate(np.array([1.0, math.nan]), math.inf, trace)
        assert err.value.trace is trace

    def test_check_iterate_trust_region(self):
        ok = check_iterate(np.array([3.0, 4.0]), 5.0 + 1e-9)
        assert np.allclose(ok, [3.0, 4.0])
        with pytest.raises(DivergenceError, match="trust region bound 4.99"):
            check_iterate(np.array([3.0, 4.0]), 4.99)

    def test_check_iterate_passthrough(self):
        x = np.array([0.0, 1.0])
        assert check_iterate(x, 1e6) is x

    def test_check_iterate_rejects_inf(self):
        with pytest.raises(DivergenceError, match="non-finite iterate"):
            check_iterate(np.array([0.0, -math.inf]), math.inf)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_check_iterate_overflowing_norm_fails_trust_region(self):
        # Every element is finite, but the sum of squares overflows to inf.
        x = np.array([1e200, 1e200])
        with pytest.raises(DivergenceError, match="trust region"):
            check_iterate(x, 1e300)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_check_iterate_overflowing_norm_passes_infinite_bound(self):
        x = np.array([1e200, 1e200])
        assert check_iterate(x, math.inf) is x

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_check_iterate_nan_beats_large_norm(self):
        with pytest.raises(DivergenceError, match="non-finite iterate"):
            check_iterate(np.array([1e200, math.nan]), 1.0)


_SADDLE = make_quadratic([-1.0, 2.0])
_ORIGIN = np.zeros(2)
_AXIS = np.array([1.0, 0.0])
_NAN, _INF = math.nan, math.inf
_NOISY = AdditiveNoiseOracle(_SADDLE, 0.1)
_NC = NCParams(steps=5, radius=1e-3, eps=0.1, delta0=0.1, ell=2.0, rho=1.0)
_SNC = SNCParams(
    steps=5, radius=1e-3, batch=1, log_term=10.0, eps=0.1, delta=0.1, ell=2.0, rho=1.0,
    ell_tilde=2.0,
)
_ANC = dict(
    eta=0.05, theta=0.042, gamma=0.0355, nce_radius=0.0089, ncf_steps=5,
    perturb_radius=0.08, total_steps=5, eps=0.02, delta0=0.1, ell=5.0, rho=1.0,
)
_PAGD = BaselineParams(
    eta=0.05, radius=0.08, grad_threshold=0.02, total_steps=5, theta=0.042,
    gamma=0.0355, nce_radius=0.0089,
)
# (helper, argument, call with the argument set to v, bad values of v)
_BAD_INPUTS = [
    # A non-finite center would return a non-finite draw.
    ("uniform_ball_sample", "center",
     lambda v: uniform_ball_sample(np.array([v, 0.0]), 0.1, RngStream(0, 0)), (_NAN, _INF)),
    ("gaussian_sample", "center",
     lambda v: gaussian_sample(np.array([v, 0.0]), 0.1, RngStream(0, 0)), (_NAN, _INF)),
    # A center that is no vector: a 0-d one, or a column that would draw a matrix.
    ("uniform_ball_sample", "^center must",
     lambda v: uniform_ball_sample(np.zeros(v), 0.1, RngStream(0, 0)), ((), (2, 1))),
    ("gaussian_sample", "^center must",
     lambda v: gaussian_sample(np.zeros(v), 0.1, RngStream(0, 0)), ((), (2, 1))),
    ("fd_quadform", "h", lambda v: fd_quadform(_SADDLE, _ORIGIN, _AXIS, v), (-1e-4,)),
    ("grad_power_lambda_min", "radius",
     lambda v: grad_power_lambda_min(_SADDLE, _ORIGIN, 5, RngStream(0, 0), v), (-1e-4,)),
    ("fd_quadform", "direction",
     lambda v: fd_quadform(_SADDLE, _ORIGIN, np.array([v, 0.0])), (_NAN, _INF, "a")),
    ("fd_quadform", "^x must",
     lambda v: fd_quadform(_SADDLE, np.array([v, 0.0]), _AXIS), (_NAN, _INF)),
    ("fd_quadform", "direction",
     lambda v: fd_quadform(_SADDLE, _ORIGIN, np.ones(v)), (1, 3, (2, 1))),
    ("dense_hessian", "^x must",
     lambda v: dense_hessian(_SADDLE, np.array([v, 0.0])), (_NAN, _INF)),
    # Checked before its difference step is taken from x.
    ("dense_hessian_eig", "^x must",
     lambda v: dense_hessian_eig(_SADDLE, np.array([v, 0.0])), (_NAN,)),
    ("classify", "^x must", lambda v: classify(_SADDLE, np.zeros(v), 0.1), (1, 3)),
    # The finders' anchor: a non-finite or non-number entry (the latter once
    # numpy's bare ValueError), or a shape other than (dim,).
    ("nc_find", "^x_tilde must",
     lambda v: nc_find(_SADDLE, np.array([v, 0.0]), _NC, RngStream(0, 0)), (_NAN, _INF, "a")),
    ("nc_find", "^x_tilde must",
     lambda v: nc_find(_SADDLE, np.zeros(v), _NC, RngStream(0, 0)), (1, 3, (2, 1))),
    # A ragged nesting, which numpy refuses to make an array of.
    ("nc_find", "^x_tilde must",
     lambda v: nc_find(_SADDLE, v, _NC, RngStream(0, 0)), ([[1.0], [2.0, 3.0]],)),
    ("snc_find", "^x_tilde must",
     lambda v: snc_find(_NOISY, np.array([v, 0.0]), _SNC, RngStream(0, 0)), (_NAN, _INF)),
    ("snc_find", "^x_tilde must",
     lambda v: snc_find(_NOISY, np.zeros(v), _SNC, RngStream(0, 0)), (1, 3, (2, 1))),
    # The anchor gradient a caller hands the finders, checked like the anchor.
    ("nc_find", "^g must",
     lambda v: nc_find(_SADDLE, _ORIGIN, _NC, RngStream(0, 0), g=np.array([v, 0.0])),
     (_NAN, _INF)),
    ("nc_find", "^g must",
     lambda v: nc_find(_SADDLE, _ORIGIN, _NC, RngStream(0, 0), g=np.zeros(v)), (1, 3, (2, 1))),
    ("snc_find", "^g must",
     lambda v: snc_find(_NOISY, _ORIGIN, _SNC, RngStream(0, 0), g=np.array([v, 0.0])),
     (_NAN, _INF)),
    ("snc_find", "^g must",
     lambda v: snc_find(_NOISY, _ORIGIN, _SNC, RngStream(0, 0), g=np.zeros(v)), (1, 3, (2, 1))),
    ("grad_power_lambda_min", "^x must",
     lambda v: grad_power_lambda_min(_SADDLE, np.array([v, 0.0]), 5, RngStream(0, 0)),
     (_NAN, _INF)),
    ("grad_power_lambda_min", "^x must",
     lambda v: grad_power_lambda_min(_SADDLE, np.zeros(v), 5, RngStream(0, 0)),
     (1, 3, (2, 1))),
    # The momentum loop's start point, through both of its entry points.
    ("ancgd_run", "x0",
     lambda v: ancgd_run(_SADDLE, np.array([v, 0.0]), ANCParams(**_ANC), RngStream(0, 0)),
     (_NAN, _INF)),
    ("ancgd_run", "x0",
     lambda v: ancgd_run(_SADDLE, np.zeros(v), ANCParams(**_ANC), RngStream(0, 0)),
     (1, 3, (2, 1))),
    ("pagd_run", "x0",
     lambda v: pagd_run(_SADDLE, np.array([v, 0.0]), _PAGD, RngStream(0, 0)), (_NAN, _INF)),
    ("pagd_run", "x0",
     lambda v: pagd_run(_SADDLE, np.zeros(v), _PAGD, RngStream(0, 0)), (1, 3, (2, 1))),
    ("run_verify", "unknown landscape id", lambda v: run_verify(ids=[v]), (5,)),
    ("make_highdim", "n <=", lambda v: make_highdim(v), (10.5,)),
    ("make_highdim", "eps_h", lambda v: make_highdim(10, eps_h=v), (_NAN, _INF)),
    # The README's exploit call, with meta=None.
    ("exploit", "eps", lambda v: exploit(_SADDLE.value, _ORIGIN, 0.0, _AXIS, v, 1.0), (_NAN, -1.0)),
    ("exploit", "rho", lambda v: exploit(_SADDLE.value, _ORIGIN, 0.0, _AXIS, 0.1, v), (_NAN, 0.0)),
    ("exploit", "step",
     lambda v: exploit(_SADDLE.value, _ORIGIN, 0.0, _AXIS, 0.1, 1.0, v), (0.0, -1.0, _NAN)),
    # Either would make the anchor look like a candidate that nothing lowers.
    ("exploit", "e_hat",
     lambda v: exploit(_SADDLE.value, _ORIGIN, 0.0, np.array([v, 0.0]), 0.1, 1.0), (_NAN, _INF)),
    ("exploit", "anchor_f",
     lambda v: exploit(_SADDLE.value, _ORIGIN, v, _AXIS, 0.1, 1.0), (_NAN, _INF, -_INF)),
    ("exploit", "^anchor must",
     lambda v: exploit(_SADDLE.value, np.array([v, 0.0]), 0.0, _AXIS, 0.1, 1.0), (_NAN,)),
    ("exploit", "^anchor must",
     lambda v: exploit(_SADDLE.value, np.zeros(v), 0.0, _AXIS, 0.1, 1.0), ((2, 1),)),
    # A direction of another shape than the anchor's, against a (2,) anchor.
    ("exploit", "^e_hat must",
     lambda v: exploit(_SADDLE.value, _ORIGIN, 0.0, np.ones(v), 0.1, 1.0), (3, (2, 1))),
    # Every fraction goes through one check, so a non-number is named too;
    # the census feeds each fraction below its range, these feed it above.
    ("ANCParams", "theta", lambda v: ANCParams(**{**_ANC, "theta": v}), (1.0,)),
    ("BaselineParams", "theta", lambda v: dataclasses.replace(_PAGD, theta=v), (1.0,)),
    ("NCParams", "delta0", lambda v: dataclasses.replace(_NC, delta0=v), (1.5,)),
    ("derive_nc_params", "delta0",
     lambda v: derive_nc_params(SmoothnessSpec(2.0, 1.0), 0.1, v, 2), (1.5,)),
    ("derive_anc_params", "delta0",
     lambda v: derive_anc_params(SmoothnessSpec(2.0, 1.0), 0.1, v, 2, 1.0), (1.5,)),
    ("derive_snc_params", "delta",
     lambda v: derive_snc_params(SmoothnessSpec(2.0, 1.0), 2.0, 0.1, v, 2), (1.0,)),
    ("derive_params_for", "delta",
     lambda v: derive_params_for("ncf", 2.0, 1.0, 0.1, v, 2), ("a", 0.0, 1.5)),
    ("derive_params_for", "delta",
     lambda v: derive_params_for("nc", 2.0, 1.0, 0.1, v, 2), (1.0,)),
]


def _no_query(x):
    raise AssertionError("the oracle was queried")


# The six run functions refuse a recording level other than "full" and
# "summary" before their first oracle query: this oracle fails any query.
_MUTE = GradientOracle(_no_query, _no_query, SmoothnessSpec(2.0, 1.0), 2)
_MUTE_NOISY = AdditiveNoiseOracle(_MUTE, 0.1)
_BAD_INPUTS += [
    (run.__name__, "record", lambda v, run=run, args=args: run(*args, RngStream(0, 0), record=v),
     ("none", "", None))
    for run, args in [
        (pgd_nc_run, (_MUTE, _ORIGIN, NCDescentParams(_NC, 5))),
        (sgd_nc_run, (_MUTE_NOISY, _ORIGIN, NCDescentParams(_SNC, 5))),
        (pgd_run, (_MUTE, _ORIGIN, _PAGD)),
        (psgd_run, (_MUTE_NOISY, _ORIGIN, _PAGD)),
        (ancgd_run, (_MUTE, _ORIGIN, ANCParams(**_ANC))),
        (pagd_run, (_MUTE, _ORIGIN, _PAGD)),
    ]
]
# The descent loop's start point, through its four entry points, also
# refused before the first query.
_BAD_INPUTS += [
    (run.__name__, "x0", lambda v, run=run, oracle=oracle, params=params: run(
        oracle, np.array([v, 0.0]) if isinstance(v, float) else np.zeros(v), params,
        RngStream(0, 0),
    ), (_NAN, _INF, 1, 3, (2, 1)))
    for run, oracle, params in [
        (pgd_nc_run, _MUTE, NCDescentParams(_NC, 5)),
        (sgd_nc_run, _MUTE_NOISY, NCDescentParams(_SNC, 5)),
        (pgd_run, _MUTE, _PAGD),
        (psgd_run, _MUTE_NOISY, _PAGD),
    ]
]


@pytest.mark.parametrize(
    "call, name, value",
    [
        pytest.param(call, name, v, id=f"{helper}-{name}-{v}")
        for helper, name, call, values in _BAD_INPUTS
        for v in values
    ],
)
def test_public_helpers_reject_bad_inputs(call, name, value):
    """NaN, inf and out-of-range inputs raise ParameterError naming the input,
    instead of returning NaN or a bare ValueError or ZeroDivisionError."""
    with pytest.raises(ParameterError, match=name):
        call(value)


# The census: every numeric field of the params dataclasses (int or float,
# alone or with None, by annotation) is set to each of these values.
_CENSUS_VALUES = (_NAN, _INF, -_INF, -1, 0, "a")
# The values a field takes on purpose, each with its reason; every other
# census value must be refused with a ParameterError naming the field.  A
# key "owner.field" exempts the value for that class or callable only.
_CENSUS_EXEMPT = {
    ("trust_region", _INF): "inf means no trust region",
    ("grad_threshold", 0): "a zero trigger starts episodes at exact stationary points only",
    ("cooldown", 0): "no cooldown lets any flat iteration start an episode",
    ("batch_raw", 0): "experiment mode, which derives no batch, carries 0.0",
    ("sigma", 0): "sigma = 0 is the noiseless oracle",
    ("seed", 0): "any integer keys a stream",
    ("RngStream.seed", -1): "RngStream keys Philox with any integer, modulo 2**64",
    ("ExperimentConfig.threshold", -1): "any finite escape bar is valid",
    ("ExperimentConfig.threshold", 0): "any finite escape bar is valid",
    ("accelerate.threshold", 0): "a zero trigger starts episodes at exact stationary points only",
    ("descend.threshold", 0): "a zero trigger starts episodes at exact stationary points only",
}
_MOMENTUM_KNOBS = ("theta", "gamma", "nce_radius")


def _exempt(owner: str, name: str, v) -> bool:
    """Whether census value v of owner's parameter name is in _CENSUS_EXEMPT."""
    return (name, v) in _CENSUS_EXEMPT or (f"{owner}.{name}", v) in _CENSUS_EXEMPT


def _census_subjects(kind: str, alg: str, land_id: str) -> list:
    """The dataclass instances one census case probes."""
    if kind == "spec":
        return [SmoothnessSpec(2.0, 1.0)]
    if kind == "config":
        # Paper mode reads every knob the algorithm reads; ancgd reads the
        # momentum knobs, snc every other one.
        return [ExperimentConfig(alg, land_id, mode="paper")]
    # Paper mode's derived budgets can exceed what a run takes unasked.
    steps = 200 if kind == "paper" else None
    cfg = ExperimentConfig(alg, land_id, mode=kind, trials=1, steps=steps)
    params = build_payload(cfg, get_landscape(land_id))["params"]
    return [params, params.search] if isinstance(params, NCDescentParams) else [params]


@pytest.mark.parametrize(
    "kind, alg, land_id",
    [("experiment", alg, fam if fam != "highdim" else "highdim-10") for alg, fam in RECIPES]
    + [("paper", alg, "quartic") for alg in ALGORITHMS]
    + [("spec", "", ""), ("config", "snc", "cubic"), ("config", "ancgd", "quartic")],
)
def test_params_census(kind, alg, land_id):
    """Each census value is refused with a ParameterError naming the field,
    or is in _CENSUS_EXEMPT and accepted."""
    wrong = []
    for subject in _census_subjects(kind, alg, land_id):
        for f in dataclasses.fields(subject):
            annotation = f.type.removesuffix(" | None")
            if annotation not in ("int", "float"):
                continue
            if kind == "config" and (f.name in _MOMENTUM_KNOBS) != (alg == "ancgd"):
                continue
            for v in _CENSUS_VALUES + ((1.5,) if annotation == "int" else ()):
                probe = f"{type(subject).__name__}.{f.name}={v!r}"
                exempt = _exempt(type(subject).__name__, f.name, v)
                try:
                    dataclasses.replace(subject, **{f.name: v})
                except ParameterError as exc:
                    if exempt:
                        wrong.append(f"{probe} refused though exempt: {exc}")
                    elif not re.search(rf"\b{f.name}\b", str(exc)):
                        wrong.append(f"{probe} refused under another name: {exc}")
                else:
                    if not exempt:
                        wrong.append(f"{probe} accepted")
    assert wrong == []


# Valid keyword arguments for each public callable of saddlescape.__all__
# that takes a numeric parameter, and for each public method, keyed
# "Class.method", that does (its instance is built from the class's row).
_CENSUS_CALLS = {
    "AdditiveNoiseOracle": dict(mean=_SADDLE, sigma=0.1),
    "AdditiveNoiseOracle.mean_sampler": dict(m=1, stream=RngStream(0, 0), calls=1),
    "AdditiveNoiseOracle.diff_sampler": dict(x0=_ORIGIN, g0=_ORIGIN, m=1, stream=RngStream(0, 0)),
    "ANCParams": _ANC,
    "BaselineParams": dataclasses.asdict(_PAGD),
    "ExperimentConfig": dict(algorithm="snc", landscape="cubic", mode="paper"),
    "GradientOracle": dict(f=_SADDLE.f, grad=_SADDLE.grad, spec=_SADDLE.spec, dim=2),
    "NCDescentParams": dict(search=_NC, total_steps=5),
    "NCParams": dataclasses.asdict(_NC),
    "RandomQuadraticNoiseOracle": dict(mean=_SADDLE, sigma_b=0.1, sigma_a=0.1),
    "RandomQuadraticNoiseOracle.mean_sampler": dict(m=1, stream=RngStream(0, 0), calls=1),
    "RandomQuadraticNoiseOracle.diff_sampler":
        dict(x0=_ORIGIN, g0=_ORIGIN, m=1, stream=RngStream(0, 0)),
    "RngStream": dict(seed=0),
    "SmoothnessSpec": dict(ell=2.0, rho=1.0),
    "SNCParams": dataclasses.asdict(_SNC),
    "StochasticOracle": dict(mean=_SADDLE, ell_tilde=2.0),
    "accelerate": dict(
        oracle=CountingOracle(_SADDLE), x0=_ORIGIN, params=ANCParams(**_ANC), trace=Trace(),
        escape=lambda *a: None, threshold=0.02, cooldown=0,
    ),
    "classify": dict(oracle=_SADDLE, x=_ORIGIN, eps=0.1),
    "dense_hessian": dict(oracle=_SADDLE, x=_ORIGIN),
    "dense_hessian_eig": dict(oracle=_SADDLE, x=_ORIGIN),
    "derive_anc_params":
        dict(spec=_SADDLE.spec, eps=0.1, delta0=0.1, n=2, delta_f_bound=1.0),
    "derive_nc_params": dict(spec=_SADDLE.spec, eps=0.1, delta0=0.1, n=2),
    "derive_snc_params": dict(spec=_SADDLE.spec, ell_tilde=2.0, eps=0.1, delta=0.1, n=2),
    "derive_params_for": dict(alg="snc", ell=2.0, rho=1.0, eps=0.1, delta=0.1, n=2),
    "descend": dict(
        x0=_ORIGIN, params=_PAGD, trace=Trace(), estimate=lambda x, g: g, recorder=_SADDLE,
        escape=lambda *a: None, event=EVENT_GD, eta=0.05, threshold=0.02,
    ),
    "fd_quadform": dict(oracle=_SADDLE, x=_ORIGIN, e=_AXIS),
    "gaussian_sample": dict(center=_ORIGIN, variance_per_coord=0.1, stream=RngStream(0, 0)),
    "grad_power_lambda_min": dict(oracle=_SADDLE, x=_ORIGIN, iters=5, stream=RngStream(0, 0)),
    "lemma_decrease_bound": dict(eps=0.1, rho=1.0),
    "run_dimension_scaling": dict(ps=[1], trials=1),
    "uniform_ball_sample": dict(center=_ORIGIN, radius=0.1, stream=RngStream(0, 0)),
    "with_noise": dict(landscape=_SADDLE, sigma=0.1),
}
_RECORD = "a record the library builds and returns, not an input"
_CENSUS_EXEMPT.update({
    "CurvatureReport": _RECORD,
    "ExperimentResult": _RECORD,
    "NCOutcome": _RECORD,
    "SaddleInfo": _RECORD,
    "StationarityVerdict": _RECORD,
    "TraceRecord": _RECORD,
    "TrialResult": _RECORD,
    "StochasticOracle.mean_sampler": "abstract; each noise model's own sampler is probed",
    "StochasticOracle.diff_sampler": "abstract; each noise model's own sampler is probed",
    ("stream_id", -1): "any integer keys a stream",
    ("stream_id", 0): "any integer keys a stream",
    ("sigma_a", 0): "sigma_a = 0 leaves the additive noise alone",
    ("sigma_b", 0): "sigma_b = 0 leaves the random quadratic alone",
    ("variance_per_coord", 0): "zero variance draws the center itself",
    ("uniform_ball_sample.radius", 0): "the ball of radius 0 is the center itself",
})


def _numeric(func) -> dict:
    """The parameters of func annotated int or float (alone or with None),
    each with its census values."""
    numeric = {}
    for name, param in inspect.signature(func).parameters.items():
        annotation = str(param.annotation).removesuffix(" | None")
        if annotation in ("int", "float"):
            numeric[name] = _CENSUS_VALUES + ((1.5,) if annotation == "int" else ())
    return numeric


def _public_callables() -> list[tuple[str, object]]:
    """Every callable of saddlescape.__all__ but the exceptions, every public
    method that a class of it defines, and the two escape loops, by name."""
    found = [("accelerate", accelerate), ("descend", descend)]
    for name in saddlescape.__all__:
        obj = getattr(saddlescape, name)
        if not callable(obj) or isinstance(obj, type) and issubclass(obj, Exception):
            continue
        found.append((name, obj))
        if isinstance(obj, type) and obj.__module__.startswith("saddlescape."):
            found += [
                (f"{name}.{attr}", func) for attr, func in vars(obj).items()
                if inspect.isfunction(func) and not attr.startswith("_")
            ]
    return found


@pytest.mark.parametrize(
    "label, func",
    [pytest.param(label, func, id=label) for label, func in _public_callables() if _numeric(func)],
)
def test_callable_census(label, func):
    """Each census value of each numeric parameter is refused with a
    ParameterError naming the parameter, or is in _CENSUS_EXEMPT and
    accepted; a callable with no row in _CENSUS_CALLS must be exempt."""
    if label in _CENSUS_EXEMPT:
        return
    base = _CENSUS_CALLS[label]
    if "." in label:
        owner, method = label.split(".")
        func = getattr(getattr(saddlescape, owner)(**_CENSUS_CALLS[owner]), method)
    wrong = []
    for name, values in _numeric(func).items():
        for v in values:
            probe = f"{label}({name}={v!r})"
            exempt = _exempt(label, name, v)
            try:
                func(**{**base, name: v})
            except ParameterError as exc:
                if exempt:
                    wrong.append(f"{probe} refused though exempt: {exc}")
                elif not re.search(rf"\b{name}\b", str(exc)):
                    wrong.append(f"{probe} refused under another name: {exc}")
            except Exception as exc:
                wrong.append(f"{probe} raised {type(exc).__name__}: {exc}")
            else:
                if not exempt:
                    wrong.append(f"{probe} accepted")
    assert wrong == []


def _census_argv(command: str, dest: str) -> list[str]:
    """A cheap valid command line to append one probed flag to.  A run flag
    is probed on the recipe of an algorithm that reads it, in paper mode
    where that algorithm reads it in paper mode only."""
    if command == "dimscale":
        return ["dimscale", "--p", "1", "--trials", "1"]
    if command == "params":
        return ["params", "--alg", "snc", "--ell", "2", "--rho", "1", "--eps", "0.1", "--n", "2"]
    rows = harness._ALGORITHMS
    alg, family = next(
        (alg, family) for alg, family in RECIPES
        if dest in harness._PLAN_FIELDS or dest in rows[alg].reads
    )
    mode = "paper" if dest in rows[alg].paper_only else "experiment"
    return ["run", "--alg", alg, "--fn", family, "--mode", mode, "--trials", "1", "--steps", "5"]


def _numeric_flags() -> list:
    """(subcommand, action) for each flag of build_parser() typed int or float."""
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return [
        (command, action) for command, parser in sub.choices.items()
        for action in parser._actions if action.type in (int, float)
    ]


@pytest.mark.parametrize(
    "command, action",
    [pytest.param(c, a, id=f"{c}{a.option_strings[0]}") for c, a in _numeric_flags()],
)
def test_cli_census(command, action, capsys):
    """The callable census through the CLI: each census value of each
    numeric flag exits 1, or is in _CENSUS_EXEMPT (by the flag's dest, as an
    ExperimentConfig field) and runs (exit 0)."""
    wrong = []
    for v in _CENSUS_VALUES + ((1.5,) if action.type is int else ()):
        argv = [*_census_argv(command, action.dest), f"{action.option_strings[0]}={v}"]
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's refusal
            code = exc.code
        if code != (0 if _exempt("ExperimentConfig", action.dest, v) else 1):
            wrong.append(f"{' '.join(argv)} exited {code}")
    assert wrong == []


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(
            lambda: ExperimentConfig("nc", "quartic", seed=1.5),
            "seed must be an integer from 0 to 18446744073709551615, got 1.5",
            id="ExperimentConfig-seed",
        ),
        pytest.param(
            lambda: build_payload(
                ExperimentConfig("nc", "quartic"),
                dataclasses.replace(get_landscape("quartic"), saddles=[]),
            ),
            "landscape quartic declares no saddle to start from", id="build_payload-no-saddle",
        ),
        pytest.param(
            lambda: dataclasses.replace(_NC, delta0=0.0),
            r"delta0 must be in \(0, 1\], got 0.0", id="NCParams-delta0",
        ),
        pytest.param(
            lambda: derive_anc_params(SmoothnessSpec(5.75, 4.5), 0.04, 0.0, 2, 1.0),
            r"delta0 must be in \(0, 1\], got 0.0", id="derive_anc_params-delta0",
        ),
        pytest.param(
            lambda: make_highdim(10, eps_h=0.0),
            "eps_h must be positive and finite, got 0.0", id="make_highdim-eps_h",
        ),
        pytest.param(
            lambda: get_landscape("highdim-abc"),
            "bad highdim landscape id: 'highdim-abc'", id="get_landscape-highdim-id",
        ),
    ],
)
def test_refusals_no_run_reaches(call, message):
    """Refusals that no run through the harness or the CLI reaches, each
    with its own message."""
    with pytest.raises(ParameterError, match=f"^{message}$"):
        call()


_EDGE_FLOATS = st.sampled_from(
    [0.0, -0.0, 1e300, -1e300, 1e-300, -1e-300, math.inf, -math.inf, math.nan]
)


class TestNorm:
    @settings(max_examples=300, deadline=None)
    @given(arrays(np.float64, st.integers(1, 1000), elements=st.floats() | _EDGE_FLOATS))
    def test_bit_identical_to_numpy(self, x):
        with np.errstate(over="ignore", invalid="ignore"):
            got = _norm(x)
            want = float(np.linalg.norm(x))
        if math.isnan(want):
            assert math.isnan(got)
        else:
            assert struct.pack("<d", got) == struct.pack("<d", want)

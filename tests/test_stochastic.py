"""Stochastic curvature search and the SGD escape loop."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from saddlescape import stochastic
from saddlescape import (
    AdditiveNoiseOracle,
    BaselineParams,
    CountingOracle,
    NCDescentParams,
    ParameterError,
    RngStream,
    SmoothnessSpec,
    StochasticOracle,
    derive_params_for,
    derive_snc_params,
    get_landscape,
    psgd_run,
    sgd_nc_run,
    snc_find,
    with_noise,
)
from saddlescape.core import _BLOCK_FLOATS, EVENT_NCF_EXPLOIT, EVENT_NCF_STEP, EVENT_SGD
from saddlescape.stochastic import SNCParams
from saddlescape.testbed import RandomQuadraticNoiseOracle

from conftest import (
    LITERAL_LAWS,
    LiteralNoise,
    angular_gap,
    free_snc_direction,
    make_quadratic,
    relabel,
    trace_decrease,
    trace_events,
)


def _search_params(**overrides):
    base = dict(
        steps=45, radius=0.01, batch=1, log_term=10.0, eps=0.5, delta=0.1,
        ell=50.0, rho=5.0, ell_tilde=50.0,
    )
    base.update(overrides)
    return SNCParams(**base)


class TestDerivedSchedule:
    def test_frozen_reference_values(self):
        # ell = rho = 1, ell_tilde = 1, eps = 0.1, delta = 0.1, n = 2.
        p = derive_snc_params(SmoothnessSpec(1.0, 1.0), 1.0, 0.1, 0.1, 2)
        assert p.steps == 105
        assert p.radius == pytest.approx(2.5458715217826227e-08, rel=1e-12)
        assert p.log_term == pytest.approx(151.8469138337941, rel=1e-12)
        assert p.batch == 1277756

    def test_concentration_exponent_is_a_fixed_point(self):
        p = derive_snc_params(SmoothnessSpec(2.0, 3.0), 1.5, 0.05, 0.2, 4)
        eta = 1.0 / 2.0
        inner = math.sqrt(4) / (eta * p.radius)
        recomputed = 10.0 * math.log((4 * p.steps**2 / 0.2) * math.log(inner))
        assert p.log_term == pytest.approx(recomputed, rel=1e-9)
        assert p.radius == pytest.approx(
            0.2 / (480.0 * 3.0 * 4 * p.steps) * math.sqrt(3.0 * 0.05 / p.log_term)
        )

    def test_batch_ceiling_kept_with_raw(self):
        p = derive_snc_params(SmoothnessSpec(1.0, 1.0), 1.0, 0.1, 0.1, 2)
        assert p.batch == math.ceil(p.batch_raw)
        thr = math.sqrt(0.1)
        assert p.batch_raw == pytest.approx(
            160.0 * 2.0 / (0.1 * thr) * math.sqrt(p.steps * p.log_term), rel=1e-12
        )

    def test_validation(self):
        spec = SmoothnessSpec(1.0, 1.0)
        with pytest.raises(ParameterError):
            derive_snc_params(spec, 1.0, 4.0, 0.1, 2)
        with pytest.raises(ParameterError):
            derive_snc_params(spec, 1.0, 0.1, 1.5, 2)
        with pytest.raises(ParameterError):
            derive_snc_params(spec, -1.0, 0.1, 0.1, 2)
        with pytest.raises(ParameterError):
            _search_params(batch=0)


class TestSearchTwins:
    def test_shared_stream_directions_match(self):
        land = get_landscape("cubic")
        sad = land.saddles[0]
        oracle = with_noise(relabel(land.oracle, sad.ell_local, sad.rho_local), 0.01)
        params = _search_params()
        a = snc_find(oracle, sad.point, params, RngStream(0, 0))
        b = free_snc_direction(oracle, sad.point, params, RngStream(0, 0))
        assert angular_gap(a.e_hat, b) <= 1e-6

    def test_direction_aligns_with_negative_curvature(self):
        land = get_landscape("cubic")
        sad = land.saddles[0]
        oracle = with_noise(relabel(land.oracle, sad.ell_local, sad.rho_local), 0.01)
        # Alignment has heavy tails (the transverse/aligned ratio is a noise
        # quotient), so the useful-alignment region |cos| >= 0.7 is the right
        # bar, not near-perfect alignment.
        hits = 0
        for trial in range(20):
            out = snc_find(oracle, sad.point, _search_params(), RngStream(trial, 1))
            if angular_gap(out.e_hat, sad.direction) <= 0.3:
                hits += 1
        assert hits >= 17

    def test_output_is_unit_norm(self):
        land = get_landscape("cubic")
        oracle = with_noise(land, 0.01)
        out = snc_find(oracle, np.zeros(2), _search_params(), RngStream(3, 0))
        assert np.linalg.norm(out.e_hat) == pytest.approx(1.0, abs=1e-12)

    def test_every_step_matches_free_reference(self):
        # scale must carry the free iterate's magnitude at every step, or the
        # noise-to-signal schedule drifts from the free recursion: a search
        # cut after t steps points where the free reference does after t.
        land = get_landscape("cubic")
        sad = land.saddles[0]
        oracle = with_noise(relabel(land.oracle, sad.ell_local, sad.rho_local), 0.01)
        for t in range(1, 31):
            params = _search_params(steps=t)
            out = snc_find(oracle, sad.point, params, RngStream(4, 0))
            free = free_snc_direction(oracle, sad.point, params, RngStream(4, 0))
            assert angular_gap(out.e_hat, free) <= 1e-12, f"step {t}"

    def test_seeded_determinism(self):
        land = get_landscape("cubic")
        oracle = with_noise(land, 0.01)
        a = snc_find(oracle, np.zeros(2), _search_params(), RngStream(7, 2))
        b = snc_find(oracle, np.zeros(2), _search_params(), RngStream(7, 2))
        assert np.array_equal(a.e_hat, b.e_hat)


class TestOuterLoopSchedule:
    def test_frozen_reference_values(self):
        # ell = rho = 1, ell_tilde = 1, eps = 0.1, overall delta = 0.1, gap 1.
        p = derive_params_for("snc", 1.0, 1.0, 0.1, 0.1, 2, 1.0, ell_tilde=1.0)
        assert p.outer_batch == 1600
        assert p.total_steps == 24287
        assert p.search.delta == pytest.approx(
            0.1 / 2304.0 * math.sqrt(0.1**3), rel=1e-12
        )

    def test_unset_step_and_trigger_default_to_one_over_ell_and_three_quarters_eps(
        self, monkeypatch
    ):
        seen = []
        real = stochastic.descend

        def spy(*args, **kwargs):
            seen.append(args[-2:])
            return real(*args, **kwargs)

        monkeypatch.setattr(stochastic, "descend", spy)
        oracle = with_noise(get_landscape("cubic"), 0.01)
        unset = _run_params(eta=None, grad_threshold=None)
        explicit = _run_params(eta=1.0 / 50.0, grad_threshold=0.75 * 0.5)
        traces = [
            sgd_nc_run(oracle, np.zeros(2), p, RngStream(5, 0))
            for p in (unset, explicit, _run_params(eta=0.01, grad_threshold=0.02))
        ]
        assert seen == [(1.0 / 50.0, 0.75 * 0.5), (1.0 / 50.0, 0.75 * 0.5), (0.01, 0.02)]
        a, b = traces[0].records, traces[1].records
        assert len(a) == len(b)
        for ra, rb in zip(a, b):
            assert (ra.t, ra.f, ra.grad_norm, ra.event) == (rb.t, rb.f, rb.grad_norm, rb.event)
            assert np.array_equal(ra.x, rb.x)

    def test_validation(self):
        with pytest.raises(ParameterError):
            NCDescentParams(_search_params(), outer_batch=0, total_steps=10)
        with pytest.raises(ParameterError):
            derive_params_for("snc", 1.0, 1.0, 0.1, 0.1, 2, -1.0, ell_tilde=1.0)


def _run_params(**overrides):
    base = dict(
        search=_search_params(), outer_batch=10, total_steps=60, eta=0.02, exploit_step=0.5,
    )
    base.update(overrides)
    return NCDescentParams(**base)


def _bowl_run_params(**overrides):
    # A convex bowl: at its minimum every exploit fails and the search re-runs.
    search = _search_params(steps=5, batch=2, ell=2.0, rho=1.0, ell_tilde=2.0)
    return _run_params(search=search, eta=0.1, outer_batch=3, **overrides)


class TestSgdNcRun:
    def test_episode_billing_and_events(self):
        land = get_landscape("cubic")
        oracle = with_noise(land, 0.01)
        trace = sgd_nc_run(oracle, np.zeros(2), _run_params(), RngStream(0, 0))
        events = trace_events(trace)
        assert len(trace.records) == 61
        assert [r.t for r in trace.records] == list(range(61))
        assert events[0] == EVENT_SGD
        # Flat start: the search window fills the first 45 iterations.
        assert events[1:46] == [EVENT_NCF_STEP] * 45
        assert events[46] == EVENT_NCF_EXPLOIT
        assert set(events[47:]) <= {EVENT_SGD, EVENT_NCF_STEP, EVENT_NCF_EXPLOIT}

    def test_inner_params_copy_outer_search_except_steps(self, monkeypatch):
        seen = []
        real = stochastic.snc_find

        def spy(oracle, x, params, stream, *args, **kwargs):
            seen.append(params)
            return real(oracle, x, params, stream, *args, **kwargs)

        monkeypatch.setattr(stochastic, "snc_find", spy)
        outer = _search_params(batch_raw=1.7)
        oracle = with_noise(get_landscape("cubic"), 0.01)
        sgd_nc_run(oracle, np.zeros(2), _run_params(search=outer, total_steps=10), RngStream(1, 0))
        assert seen
        for inner in seen:
            assert inner.steps <= outer.steps
            assert inner == dataclasses.replace(outer, steps=inner.steps)

    def test_untruncated_search_reuses_params(self, monkeypatch):
        seen = []
        real = stochastic.snc_find

        def spy(oracle, x, params, stream, *, g):
            seen.append(params)
            return real(oracle, x, params, stream, g=g)

        monkeypatch.setattr(stochastic, "snc_find", spy)
        outer = _bowl_run_params(total_steps=28)
        oracle = AdditiveNoiseOracle(make_quadratic([1.0, 2.0], rho=1.0), sigma=1e-4)
        sgd_nc_run(oracle, np.zeros(2), outer, RngStream(3, 0))
        # Failed exploits at the minimum re-enter the search until the
        # budget truncates the last one.
        assert [p.steps for p in seen] == [5, 5, 5, 5, 3]
        assert all(p is outer.search for p in seen[:4])

    def test_budget_clips_inner_steps(self):
        land = get_landscape("cubic")
        oracle = with_noise(land, 0.01)
        trace = sgd_nc_run(
            oracle, np.zeros(2), _run_params(total_steps=10), RngStream(1, 0)
        )
        events = trace_events(trace)
        assert len(trace.records) == 11
        assert events[1:10] == [EVENT_NCF_STEP] * 9
        assert events[10] == EVENT_NCF_EXPLOIT

    def test_exploit_scores_noiseless_values(self):
        land = get_landscape("cubic")
        oracle = with_noise(land, 5.0)
        trace = sgd_nc_run(oracle, np.zeros(2), _run_params(), RngStream(2, 0))
        exploit = trace.meta["exploits"][0]
        anchor, e_hat = exploit["anchor"], exploit["e_hat"]
        step = 0.5
        best = min(
            land.oracle.value(anchor + step * e_hat),
            land.oracle.value(anchor - step * e_hat),
        )
        expected = max(land.oracle.value(anchor) - best, 0.0)
        assert exploit["decrease"] == pytest.approx(expected, abs=1e-12)

    def test_cooldown_blocks_repeat_search(self):
        bowl = make_quadratic([1.0, 2.0], rho=1.0)
        oracle = AdditiveNoiseOracle(bowl, sigma=1e-4)
        blocked = sgd_nc_run(
            oracle,
            np.zeros(2),
            _run_params(
                search=_search_params(steps=5, ell=2.0, rho=1.0, ell_tilde=2.0),
                eta=0.1, total_steps=30, cooldown=10**9,
            ),
            RngStream(3, 0),
        )
        assert len(blocked.meta["exploits"]) == 1
        free = sgd_nc_run(
            oracle,
            np.zeros(2),
            _run_params(
                search=_search_params(steps=5, ell=2.0, rho=1.0, ell_tilde=2.0),
                eta=0.1, total_steps=30,
            ),
            RngStream(3, 0),
        )
        assert len(free.meta["exploits"]) >= 2

    def test_stop_at_candidate_at_minimum(self):
        bowl = make_quadratic([1.0, 2.0], rho=1.0)
        oracle = AdditiveNoiseOracle(bowl, sigma=1e-4)
        trace = sgd_nc_run(
            oracle,
            np.zeros(2),
            _run_params(
                search=_search_params(steps=5, ell=2.0, rho=1.0, ell_tilde=2.0),
                eta=0.1, total_steps=50, stop_at_candidate=True,
            ),
            RngStream(4, 0),
        )
        assert "stopped_at_candidate" in trace.meta
        assert np.allclose(trace.meta["stopped_at_candidate"], np.zeros(2), atol=1e-6)
        assert len(trace.records) < 51
        assert trace.meta["exploits"][0]["decrease"] == 0.0

    def test_sample_accounting(self):
        bowl = make_quadratic([1.0, 2.0], rho=1.0)
        oracle = AdditiveNoiseOracle(bowl, sigma=1e-4)
        trace = sgd_nc_run(
            oracle,
            np.zeros(2),
            _run_params(
                search=_search_params(steps=5, batch=2, ell=2.0, rho=1.0, ell_tilde=2.0),
                outer_batch=3, eta=0.1, total_steps=50,
                stop_at_candidate=True,
            ),
            RngStream(5, 0),
        )
        # One outer estimate plus one 5-step batch-2 shared-draw search,
        # whose first step draws nothing.
        assert trace.meta["samples"] == 3 + (5 - 1) * 2 * 2

    def test_escapes_cubic_saddle(self):
        land = get_landscape("cubic")
        oracle = with_noise(land, 0.01)
        escaped = 0
        for trial in range(20):
            trace = sgd_nc_run(
                oracle, np.zeros(2), _run_params(), RngStream(trial, 2)
            )
            if trace_decrease(trace) >= 0.6:
                escaped += 1
        assert escaped >= 17


class TestAdditiveQueryCounts:
    """Under additive noise the samplers reuse the exact gradients their
    caller holds, while samples are billed as for full minibatches."""

    def test_search_queries_the_anchor_once(self):
        land = get_landscape("cubic")
        sad = land.saddles[0]
        counted = CountingOracle(relabel(land.oracle, sad.ell_local, sad.rho_local))
        oracle = AdditiveNoiseOracle(counted, 0.01)
        params = _search_params(batch=3)
        snc_find(oracle, sad.point, params, RngStream(0, 0))
        # grad f(x_tilde) once, then one probe per step but the first, which
        # starts from zero, where the shared-sample difference is zero.
        assert counted.grad_evals == params.steps == 45
        # Handed grad f(x_tilde), the search queries only its probes.
        g = land.oracle.gradient(sad.point)
        snc_find(oracle, sad.point, params, RngStream(0, 0), g=g)
        assert counted.grad_evals - 45 == params.steps - 1 == 44
        assert counted.f_evals == 0

    def test_sgd_nc_run_one_gradient_per_record(self):
        counted = CountingOracle(make_quadratic([1.0, 2.0], rho=1.0))
        oracle = AdditiveNoiseOracle(counted, sigma=1e-4)
        params = _bowl_run_params(total_steps=28)
        trace = sgd_nc_run(oracle, np.zeros(2), params, RngStream(3, 0))
        events = trace_events(trace)
        records, search_steps = len(events), events.count(EVENT_NCF_STEP)
        episodes = len(trace.meta["exploits"])
        # At the bowl's minimum every exploit falls back to its anchor.
        fallbacks = sum(e["decrease"] == 0.0 for e in trace.meta["exploits"])
        assert (records, search_steps, episodes, fallbacks) == (29, 23, 5, 5)
        # Gradients: one per record that is neither a search step nor a
        # closing record at the anchor, and per search one probe per step
        # but the first.  The estimates and the anchors query nothing.
        scored = records - search_steps - fallbacks
        probes = search_steps - episodes
        assert counted.grad_evals == scored + probes == 19
        # Values: one per such record, two per exploit.
        assert counted.f_evals == scored + 2 * episodes
        # Samples: outer_batch per loop iteration, 2 * batch per search step
        # that draws (all but each search's first).
        estimates = records - 1 - search_steps
        expected = params.outer_batch * estimates + 2 * params.search.batch * probes
        assert trace.meta["samples"] == expected


class _RowByRowNoise(AdditiveNoiseOracle):
    """The additive model with one noise draw and fresh gradients at every
    query: the reference that the block-drawn samplers must reproduce."""

    def mean_sampler(self, m, stream, calls):
        def sample(x, g):
            noise = self.sigma / math.sqrt(m) * stream.gen.standard_normal(self.dim)
            return self.mean.gradient(x) + noise

        return sample

    def diff_sampler(self, x0, g0, m, stream):
        return lambda x1: self.mean.gradient(x1) - self.mean.gradient(x0)


def _one_row_per_call(stream, n, scale, rows):
    for _ in range(rows):
        yield stream.gen.standard_normal(n) * scale


def _assert_same_trace(a, b):
    assert [(r.t, r.f, r.grad_norm, r.event) for r in a.records] == [
        (r.t, r.f, r.grad_norm, r.event) for r in b.records
    ]
    assert all(np.array_equal(ra.x, rb.x) for ra, rb in zip(a.records, b.records))
    assert a.meta["samples"] == b.meta["samples"]


@settings(max_examples=20, deadline=None)
@given(
    n=st.sampled_from([1, 2, 3, 10, 1000]),
    steps=st.integers(1, 40),
    seed=st.integers(0, 2**32),
)
@example(n=1000, steps=40, seed=0)
def test_block_draws_match_row_by_row_draws(n, steps, seed):
    # At n = 1000 the noise of more than four steps crosses _BLOCK_FLOATS.
    assert 5 * 1000 > _BLOCK_FLOATS
    quad = make_quadratic(np.linspace(-1.0, 2.0, n))
    search = _search_params(steps=steps, batch=3, ell=2.0, rho=1.0, ell_tilde=2.0)
    loop = _run_params(search=search, total_steps=2 * steps + 5, outer_batch=4, eta=0.1)
    base = BaselineParams(
        eta=0.1, radius=0.01, grad_threshold=0.05, total_steps=steps, cooldown=3, batch=2,
    )
    x0 = np.zeros(n)

    def run_all(noise):
        oracle = noise(quad, 0.01)
        e_hat = snc_find(oracle, x0, search, RngStream(seed, 1)).e_hat
        traces = [
            sgd_nc_run(oracle, x0, loop, RngStream(seed, 2)),
            psgd_run(oracle, x0, base, RngStream(seed, 3)),
        ]
        return e_hat, traces

    e_hat, traces = run_all(AdditiveNoiseOracle)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stochastic, "_normal_rows", _one_row_per_call)
        ref_e_hat, ref_traces = run_all(_RowByRowNoise)
    assert np.array_equal(e_hat, ref_e_hat)
    for trace, ref in zip(traces, ref_traces):
        _assert_same_trace(trace, ref)


def _noise_models():
    """Every StochasticOracle subclass defined in src/, found recursively
    through __subclasses__()."""
    found, todo = {}, [StochasticOracle]
    while todo:
        for sub in todo.pop().__subclasses__():
            todo.append(sub)
            if sub.__module__.startswith("saddlescape."):
                found[sub.__qualname__] = sub
    return [found[name] for name in sorted(found)]


def test_noise_models_are_found():
    assert {AdditiveNoiseOracle, RandomQuadraticNoiseOracle} <= set(_noise_models())


def _same_law(a, b):
    """Two stacks of draws agree in mean (within five standard errors) and
    in per-coordinate variance (within 15%)."""
    se = np.sqrt((a.var(axis=0) + b.var(axis=0)) / len(a))
    assert np.all(np.abs(a.mean(axis=0) - b.mean(axis=0)) <= 5 * se + 1e-12)
    assert np.allclose(a.var(axis=0), b.var(axis=0), rtol=0.15, atol=1e-20)


@pytest.mark.parametrize("model_cls", _noise_models(), ids=lambda cls: cls.__name__)
def test_samplers_follow_the_literal_law(model_cls):
    # A noise model added to src/ must bring its literal law to conftest.
    assert model_cls in LITERAL_LAWS, f"tests/conftest.py has no literal law for {model_cls}"
    law = LITERAL_LAWS[model_cls]
    mean = make_quadratic([-1.0, 0.5, 2.0])
    model = law.build(mean)
    x0 = np.array([0.3, -0.2, 0.1])
    x1 = np.array([-0.4, 0.6, 0.2])
    m, calls = 4, 2000

    def draws(noise, seed):
        sample = noise.mean_sampler(m, RngStream(seed, 0), calls)
        diff = noise.diff_sampler(x0, mean.gradient(x0), m, RngStream(seed, 1))
        means = np.array([sample(x1, mean.gradient(x1)) for _ in range(calls)])
        return means, np.array([diff(x1) for _ in range(calls)])

    if law.exact:
        for got, want in zip(draws(model, 0), draws(LiteralNoise(model), 0)):
            assert np.array_equal(got, want)
    else:
        for got, want in zip(draws(model, 0), draws(LiteralNoise(model), 1)):
            _same_law(got, want)

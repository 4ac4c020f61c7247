"""Stochastic curvature search and the SGD escape loop."""

import dataclasses
import math

import numpy as np
import pytest

from saddlescape import stochastic
from saddlescape import (
    AdditiveNoiseOracle,
    NCDescentParams,
    ParameterError,
    RngStream,
    SmoothnessSpec,
    derive_sgdnc_params,
    derive_snc_params,
    get_landscape,
    sgd_nc_run,
    snc_find,
    with_noise,
)
from saddlescape.core import EVENT_NCF_EXPLOIT, EVENT_NCF_STEP, EVENT_SGD
from saddlescape.stochastic import SNCParams

from conftest import angular_gap, free_snc_direction, make_quadratic, relabel


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
        p = derive_sgdnc_params(SmoothnessSpec(1.0, 1.0), 1.0, 0.1, 0.1, 2, 1.0)
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

        def spy(*args):
            seen.append(args[-2:])
            return real(*args)

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
            derive_sgdnc_params(SmoothnessSpec(1.0, 1.0), 1.0, 0.1, 0.1, 2, -1.0)


def _run_params(**overrides):
    base = dict(
        search=_search_params(), outer_batch=10, total_steps=60, eta=0.02, exploit_step=0.5,
    )
    base.update(overrides)
    return NCDescentParams(**base)


class TestSgdNcRun:
    def test_episode_billing_and_events(self):
        land = get_landscape("cubic")
        oracle = with_noise(land, 0.01)
        trace = sgd_nc_run(oracle, np.zeros(2), _run_params(), RngStream(0, 0))
        events = trace.events()
        assert len(trace) == 61
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

    def test_budget_clips_inner_steps(self):
        land = get_landscape("cubic")
        oracle = with_noise(land, 0.01)
        trace = sgd_nc_run(
            oracle, np.zeros(2), _run_params(total_steps=10), RngStream(1, 0)
        )
        events = trace.events()
        assert len(trace) == 11
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
        assert len(trace) < 51
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
        # One outer estimate plus one 5-step batch-2 shared-draw search.
        assert trace.meta["samples"] == 3 + 5 * 2 * 2
        assert oracle.sample_count == trace.meta["samples"]

    def test_escapes_cubic_saddle(self):
        land = get_landscape("cubic")
        oracle = with_noise(land, 0.01)
        escaped = 0
        for trial in range(20):
            trace = sgd_nc_run(
                oracle, np.zeros(2), _run_params(), RngStream(trial, 2)
            )
            if trace.decrease() >= 0.6:
                escaped += 1
        assert escaped >= 17

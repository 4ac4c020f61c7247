"""Escape drivers and perturbation baselines."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
    ancgd_run,
    classify,
    derive_params_for,
    drivers,
    get_landscape,
    lemma_decrease_bound,
    pagd_run,
    pgd_nc_run,
    pgd_run,
    psgd_run,
    sgd_nc_run,
    with_noise,
)
from saddlescape.core import (
    EVENT_AGD,
    EVENT_GD,
    EVENT_NCE,
    EVENT_NCF_EXPLOIT,
    EVENT_NCF_STEP,
    EVENT_PERTURB,
    EVENT_SGD,
)
from saddlescape.harness import build_payload
from saddlescape.ncfind import NCParams

from conftest import make_quadratic, repeated_queries, trace_decrease, trace_events


def _nc_run_params(**overrides):
    # The calibrated quartic comparison settings.
    nc = NCParams(steps=30, radius=0.1, eps=0.05, delta0=0.1, ell=20.0, rho=1.0)
    base = dict(search=nc, total_steps=90, eta=0.05, grad_threshold=0.05, exploit_step=1.0)
    base.update(overrides)
    return NCDescentParams(**base)


class TestDerivedSchedule:
    def test_frozen_reference_values(self):
        # ell = rho = 1, eps = 0.1, overall delta = 0.1, n = 2, gap 1.
        p = derive_params_for("nc", 1.0, 1.0, 0.1, 0.1, 2, 1.0)
        assert p.total_steps == 24287
        assert p.search.steps == 320
        assert p.search.delta0 == pytest.approx(8.235098073355155e-06, rel=1e-12)

    def test_delta_capped_at_one(self):
        p = derive_params_for("nc", 1.0, 1.0, 0.9, 0.9, 2, 1e-6)
        assert p.search.delta0 == 1.0

    def test_unset_step_and_trigger_default_to_one_over_ell_and_eps(self, monkeypatch):
        seen = []
        real = drivers.descend

        def spy(*args, **kwargs):
            seen.append(args[-2:])
            return real(*args, **kwargs)

        monkeypatch.setattr(drivers, "descend", spy)
        land = get_landscape("quartic")
        unset = _nc_run_params(eta=None, grad_threshold=None)
        explicit = _nc_run_params(eta=1.0 / 20.0, grad_threshold=0.05)
        traces = [
            pgd_nc_run(land.oracle, np.zeros(2), p, RngStream(5, 0))
            for p in (unset, explicit, _nc_run_params(eta=0.04, grad_threshold=0.02))
        ]
        assert seen == [(1.0 / 20.0, 0.05), (1.0 / 20.0, 0.05), (0.04, 0.02)]
        a, b = traces[0].records, traces[1].records
        assert len(a) == len(b)
        for ra, rb in zip(a, b):
            assert (ra.t, ra.f, ra.grad_norm, ra.event) == (rb.t, rb.f, rb.grad_norm, rb.event)
            assert np.array_equal(ra.x, rb.x)

    def test_validation(self):
        with pytest.raises(ParameterError):
            derive_params_for("nc", 1.0, 1.0, 0.1, 1.5, 2, 1.0)
        with pytest.raises(ParameterError):
            _nc_run_params(total_steps=0)

    def test_nc_search_takes_no_outer_batch(self):
        assert _nc_run_params().outer_batch == 1
        with pytest.raises(ParameterError, match="outer_batch applies to snc only"):
            _nc_run_params(outer_batch=50)


class TestPgdNcRun:
    def test_escapes_quartic_saddle_reliably(self):
        land = get_landscape("quartic")
        escaped = 0
        for trial in range(50):
            trace = pgd_nc_run(
                land.oracle, np.zeros(2), _nc_run_params(), RngStream(0, trial)
            )
            if trace_decrease(trace) >= 0.9:
                escaped += 1
        assert escaped >= 48

    def test_budget_is_exact(self):
        land = get_landscape("quartic")
        trace = pgd_nc_run(
            land.oracle, np.zeros(2), _nc_run_params(), RngStream(1, 0)
        )
        assert len(trace.records) == 91
        assert [r.t for r in trace.records] == list(range(91))

    def test_search_fills_flat_start(self):
        land = get_landscape("quartic")
        trace = pgd_nc_run(
            land.oracle, np.zeros(2), _nc_run_params(), RngStream(2, 0)
        )
        events = trace_events(trace)
        assert events[0] == EVENT_GD
        assert events[1:31] == [EVENT_NCF_STEP] * 30
        assert events[31] == EVENT_NCF_EXPLOIT
        exploit = trace.meta["exploits"][0]
        assert exploit["certified"]
        assert exploit["decrease"] >= lemma_decrease_bound(0.05, 1.0)

    def test_minimum_yields_candidate_not_decrease(self):
        land = get_landscape("quartic")
        x_min = np.array([2.0, 0.0])
        trace = pgd_nc_run(
            land.oracle, x_min, _nc_run_params(stop_at_candidate=True), RngStream(3, 0)
        )
        assert "stopped_at_candidate" in trace.meta
        assert np.allclose(trace.meta["stopped_at_candidate"], x_min)
        assert all(e["decrease"] == 0.0 for e in trace.meta["exploits"])
        # Independent classification agrees the candidate is second-order.
        verdict = classify(land.oracle, trace.meta["stopped_at_candidate"], eps=0.05, rho=1.0)
        assert verdict.is_sosp

    def test_no_cooldown_reenters_search(self):
        land = get_landscape("quartic")
        x_min = np.array([2.0, 0.0])
        trace = pgd_nc_run(
            land.oracle, x_min, _nc_run_params(total_steps=93), RngStream(4, 0)
        )
        # 3 episodes of 30 search steps + 1 exploit each fill 93 iterations.
        assert len(trace.meta["exploits"]) == 3

    def test_untruncated_search_reuses_params(self, monkeypatch):
        seen = []
        real = drivers.nc_find

        def spy(oracle, x, params, stream, *, g):
            seen.append(params)
            return real(oracle, x, params, stream, g=g)

        monkeypatch.setattr(drivers, "nc_find", spy)
        outer = _nc_run_params(total_steps=80)
        pgd_nc_run(get_landscape("quartic").oracle, np.array([2.0, 0.0]), outer, RngStream(4, 0))
        # Two full episodes of 31 iterations leave 18: a 17-step search.
        assert [p.steps for p in seen] == [30, 30, 17]
        assert seen[0] is seen[1] is outer.search
        assert seen[2] == dataclasses.replace(outer.search, steps=17)

    def test_cooldown_blocks_reentry(self):
        land = get_landscape("quartic")
        x_min = np.array([2.0, 0.0])
        trace = pgd_nc_run(
            land.oracle, x_min, _nc_run_params(total_steps=93, cooldown=10**9),
            RngStream(5, 0),
        )
        assert len(trace.meta["exploits"]) == 1
        assert EVENT_GD in trace_events(trace)[32:]

    def test_divergence_guard(self):
        land = get_landscape("quartic")
        params = _nc_run_params(eta=200.0, grad_threshold=1e-12, trust_region=1e3)
        with pytest.raises(DivergenceError) as err:
            pgd_nc_run(land.oracle, np.array([1.0, 1.0]), params, RngStream(6, 0))
        assert err.value.trace is not None

    def test_counts_oracle_calls(self):
        land = get_landscape("quartic")
        trace = pgd_nc_run(land.oracle, np.zeros(2), _nc_run_params(), RngStream(7, 0))
        assert trace.meta["grad_evals"] > 88
        assert trace.meta["f_evals"] > 0


class TestPgdBaseline:
    def test_perturbation_replaces_step(self):
        land = get_landscape("quartic")
        params = BaselineParams(
            eta=0.05, radius=0.1, grad_threshold=0.05, total_steps=90, cooldown=10**9
        )
        trace = pgd_run(land.oracle, np.zeros(2), params, RngStream(0, 0))
        events = trace_events(trace)
        assert events[0] == EVENT_GD
        assert events[1] == EVENT_PERTURB
        assert events.count(EVENT_PERTURB) == 1
        assert len(trace.meta["perturbs"]) == 1
        draw = trace.meta["perturbs"][0]["x"]
        assert np.linalg.norm(draw) <= 0.1 + 1e-12
        # The perturb-tagged record holds the drawn point itself: the draw
        # replaced the gradient step for that iteration.
        assert np.array_equal(trace.records[1].x, draw)

    def test_cooldown_none_reperturbs(self):
        land = get_landscape("quartic")
        params = BaselineParams(
            eta=0.05, radius=1e-4, grad_threshold=0.05, total_steps=30
        )
        trace = pgd_run(land.oracle, np.zeros(2), params, RngStream(1, 0))
        # A tiny ball keeps the gradient flat, so it re-perturbs repeatedly.
        assert len(trace.meta["perturbs"]) >= 10

    def test_descends_when_gradient_large(self):
        land = get_landscape("quartic")
        params = BaselineParams(
            eta=0.05, radius=0.1, grad_threshold=1e-9, total_steps=50
        )
        trace = pgd_run(land.oracle, np.array([1.0, 1.0]), params, RngStream(2, 0))
        assert EVENT_PERTURB not in trace_events(trace)
        assert trace_decrease(trace) > 0

    def test_matches_pgd_nc_run_when_trigger_never_fires(self):
        # With a zero trigger threshold neither arm starts an episode, so
        # both run the same descent loop step for step.
        land = get_landscape("quartic")
        x0 = np.array([1.0, 1.0])
        base = pgd_run(
            land.oracle, x0,
            BaselineParams(eta=0.05, radius=0.1, grad_threshold=0.0, total_steps=40),
            RngStream(0, 0),
        )
        nc = pgd_nc_run(land.oracle, x0, _nc_run_params(grad_threshold=0.0, total_steps=40),
                        RngStream(0, 0))
        assert len(base.records) == len(nc.records) == 41
        for a, b in zip(base.records, nc.records):
            assert (a.t, a.f, a.grad_norm, a.event) == (b.t, b.f, b.grad_norm, b.event)
            assert np.array_equal(a.x, b.x)
        assert "exploits" not in base.meta and "candidates" not in base.meta

    def test_some_trials_stay_stuck_at_budget(self):
        # With a single perturbation and the calibrated budget, a sizable
        # fraction fails to clear the escape threshold.
        land = get_landscape("quartic")
        params = BaselineParams(
            eta=0.05, radius=0.1, grad_threshold=0.05, total_steps=90, cooldown=10**9
        )
        stuck = 0
        for trial in range(50):
            trace = pgd_run(land.oracle, np.zeros(2), params, RngStream(0, trial))
            if trace_decrease(trace) < 0.9:
                stuck += 1
        assert 10 <= stuck <= 40


class TestPagdBaseline:
    def _params(self, **overrides):
        base = dict(
            eta=0.05, radius=0.08, grad_threshold=0.02, total_steps=40,
            cooldown=10**9, theta=0.042, gamma=0.0355, nce_radius=0.0089,
        )
        base.update(overrides)
        return BaselineParams(**base)

    def test_requires_momentum_constants(self):
        land = get_landscape("quartic")
        bare = BaselineParams(
            eta=0.05, radius=0.08, grad_threshold=0.02, total_steps=40
        )
        with pytest.raises(ParameterError):
            pagd_run(land.oracle, np.zeros(2), bare, RngStream(0, 0))

    def test_perturb_reseeds_momentum(self):
        land = get_landscape("quartic")
        trace = pagd_run(land.oracle, np.zeros(2), self._params(), RngStream(1, 0))
        events = trace_events(trace)
        k = events.index(EVENT_PERTURB)
        assert len(trace.meta["perturbs"]) == 1
        # The zero gradient at the start triggers at once; the draw's own
        # record is the next one, tagged as the perturbation.
        assert k == 1 and trace.meta["perturbs"][0]["t"] == 0
        # The draw replaced x with v reset; the very next step starts from it.
        draw = trace.meta["perturbs"][0]["x"]
        assert np.linalg.norm(draw) <= 0.08 + 1e-12

    def test_draws_go_through_the_perturbation_hook(self, monkeypatch):
        # pagd takes its episodes from the hook pgd and psgd use.
        calls = []
        real = drivers._perturbation

        def spy(trace, draw):
            hook = real(trace, draw)

            def escape(x, g, t, budget):
                calls.append(t)
                return hook(x, g, t, budget)

            return escape

        monkeypatch.setattr(drivers, "_perturbation", spy)
        land = get_landscape("quartic")
        params = self._params(cooldown=5)
        trace = pagd_run(land.oracle, np.zeros(2), params, RngStream(1, 0))
        assert calls and calls == [p["t"] for p in trace.meta["perturbs"]]

    def test_mostly_fails_at_tight_budget(self):
        land = get_landscape("quartic")
        stuck = 0
        for trial in range(30):
            trace = pagd_run(
                land.oracle, np.zeros(2), self._params(), RngStream(0, trial)
            )
            if trace_decrease(trace) < 0.9:
                stuck += 1
        assert stuck >= 25

    def test_determinism(self):
        land = get_landscape("quartic")
        a = pagd_run(land.oracle, np.zeros(2), self._params(), RngStream(2, 3))
        b = pagd_run(land.oracle, np.zeros(2), self._params(), RngStream(2, 3))
        assert a.final_f() == b.final_f()


class TestOracleCounts:
    """Algorithm oracle calls per trial, derived by hand from the loop shapes.

    A record scores its iterate with one value and one gradient (one
    value_and_gradient call); pgd_nc_run steps on the record's gradient; an
    episode anchor reads f from its record; the momentum loops carry the
    certificate's f(x_next) and grad f(z_next) into the next record and
    step when those arrays become x and z, carry a momentum reset's
    winning value into the next record, and at t = 0 and after a reset
    step on the record's gradient when z equals x bit for bit.
    """

    def test_pgd_nc_run(self):
        land = get_landscape("quartic")
        trace = pgd_nc_run(land.oracle, np.zeros(2), _nc_run_params(), RngStream(0, 0))
        events = trace_events(trace)
        records = len(events)
        search_steps = events.count(EVENT_NCF_STEP)
        episodes = len(trace.meta["exploits"])
        # The second exploit falls back to its anchor.
        fallbacks = sum(e["decrease"] == 0.0 for e in trace.meta["exploits"])
        assert (records, search_steps, episodes, fallbacks) == (91, 41, 2, 1)
        scored = records - search_steps - fallbacks
        # Gradients: one per record that is neither a search step nor a
        # closing record at the anchor, plus one probe per search step; the
        # search takes the anchor's gradient from its record.
        assert trace.meta["grad_evals"] == scored + search_steps == 90
        # Values: one per such record, plus the two exploit candidates per
        # episode.
        assert trace.meta["f_evals"] == scored + 2 * episodes == 53

    @pytest.mark.parametrize(
        "x0, perturbs", [((1.5, 0.5), 0), ((0.0, 0.0), 1)], ids=["descent", "perturbed"]
    )
    def test_pgd_run(self, x0, perturbs):
        # From (1.5, 0.5) the gradient is large and every step descends; at
        # the saddle the first record triggers the one perturbation the
        # cooldown allows.  Either way each record scores its iterate with
        # one value and one gradient, the step reuses the record's gradient
        # and the draw asks the oracle nothing.
        land = get_landscape("quartic")
        T = 5
        params = BaselineParams(
            eta=0.05, radius=0.1, grad_threshold=0.05, total_steps=T, cooldown=10**9
        )
        trace = pgd_run(land.oracle, np.array(x0), params, RngStream(0, 0))
        assert len(trace.meta["perturbs"]) == trace_events(trace).count(EVENT_PERTURB) == perturbs
        assert trace.meta["grad_evals"] == T + 1 == 6
        assert trace.meta["f_evals"] == T + 1 == 6

    def test_psgd_run(self):
        # At the cubic's saddle the first record triggers a perturbation and
        # the cooldown then lets a few more through.  Each record scores its
        # iterate with one value and one gradient; the additive estimate
        # adds its noise to the record's gradient and queries nothing.
        counted = CountingOracle(get_landscape("cubic").oracle)
        oracle = AdditiveNoiseOracle(counted, sigma=0.01)
        T = 20
        params = BaselineParams(
            eta=0.02, radius=0.01, grad_threshold=0.05, total_steps=T, cooldown=3, batch=3
        )
        trace = psgd_run(oracle, np.zeros(2), params, RngStream(0, 0))
        assert trace_events(trace).count(EVENT_PERTURB) >= 1
        assert counted.grad_evals == counted.f_evals == T + 1
        # One batch-3 estimate per iteration.
        assert trace.meta["samples"] == 3 * T

    def test_pagd_run_carries_certificate_values(self):
        # From (1.5, 0.5) the quartic is convex and the gradient is large:
        # no perturbation, and the certificate never calls for a reset.
        land = get_landscape("quartic")
        T = 5
        params = BaselineParams(
            eta=0.05, radius=0.08, grad_threshold=0.02, total_steps=T,
            theta=0.042, gamma=0.0355, nce_radius=0.0089,
        )
        trace = pagd_run(land.oracle, np.array([1.5, 0.5]), params, RngStream(0, 0))
        assert trace_events(trace) == [EVENT_AGD] * (T + 1)
        # Gradients: T + 1 records (the first step reuses the first
        # record's, as z is x at t = 0; later z is the certified z_next),
        # one certificate gradient per step.
        assert trace.meta["grad_evals"] == (T + 1) + T == 11
        # Values: the first record only (later x is the certified x_next),
        # f(x_next) and f(z_next) per step.
        assert trace.meta["f_evals"] == 1 + 2 * T == 11

    def test_pagd_run_perturbed(self):
        # At the saddle the first record triggers the one draw the cooldown
        # allows.  The draw asks the oracle nothing and becomes z as well as
        # x, so grad f(z) at t = 0 is fresh (without a draw z would be x and
        # the step would reuse the record's gradient); the draw's record and
        # every later one reuse the certificate's values.
        # The certificate holds throughout (a reset of the short momentum
        # would cost two values).
        land = get_landscape("quartic")
        T = 8
        params = BaselineParams(
            eta=0.05, radius=0.08, grad_threshold=0.02, total_steps=T, cooldown=10**9,
            theta=0.042, gamma=0.0355, nce_radius=0.0089,
        )
        trace = pagd_run(land.oracle, np.zeros(2), params, RngStream(0, 0))
        assert trace_events(trace) == [EVENT_AGD, EVENT_PERTURB] + [EVENT_AGD] * (T - 1)
        assert [p["t"] for p in trace.meta["perturbs"]] == [0]
        assert trace.meta["grad_evals"] == (T + 1) + 1 + T == 18
        assert trace.meta["f_evals"] == 1 + 2 * T == 17

    def test_pagd_run_after_momentum_reset(self):
        # Near the saddle the certificate fails.  With a reset radius far
        # below the momentum norm the reset zeroes v but keeps x, so f(x)
        # still carries.  z_next is rebuilt as x + (1 - theta) * 0, the bits
        # of x, so the next step reuses the record's gradient, as the first
        # step does.  A zero trigger threshold rules out perturbations.
        land = get_landscape("quartic")
        T = 8
        params = BaselineParams(
            eta=0.05, radius=0.08, grad_threshold=0.0, total_steps=T,
            theta=0.042, gamma=0.0355, nce_radius=1e-12,
        )
        trace = pagd_run(land.oracle, np.array([0.05, 0.02]), params, RngStream(0, 0))
        events = trace_events(trace)
        assert events[1:T].count(EVENT_NCE) == 5
        assert trace.meta["grad_evals"] == (T + 1) + T == 17
        assert trace.meta["f_evals"] == 1 + 2 * T == 17

    def test_pagd_run_after_short_momentum_reset(self):
        # From (0.01, 0) every certificate fails and the momentum is always
        # shorter than the reset radius, so each reset moves x to the lower
        # of its two candidates (two values).  The winner's value carries
        # into the next record, which does not score it again; the next
        # step reuses the record's gradient, as the first step does.
        land = get_landscape("quartic")
        T = 8
        params = BaselineParams(
            eta=0.05, radius=0.08, grad_threshold=0.0, total_steps=T,
            theta=0.042, gamma=0.0355, nce_radius=0.0089,
        )
        trace = pagd_run(land.oracle, np.array([0.01, 0.0]), params, RngStream(0, 0))
        resets = trace_events(trace).count(EVENT_NCE)
        assert trace_events(trace) == [EVENT_AGD] + [EVENT_NCE] * T and resets == T
        # Every reset zeroed the momentum.
        assert all(rec.v_norm == 0.0 for rec in trace.records[1:])
        assert trace.meta["f_evals"] == 1 + 2 * T + 2 * resets == 33
        assert trace.meta["grad_evals"] == (T + 1) + T == 17

    def test_pagd_run_reset_at_negative_zero_queries_z(self):
        # f = x1^4/16 - x1^2/2 - x2^2/2 from (s, 0.05): the first certificate
        # fails along x2 and the long momentum keeps x_next, whose first
        # entry is s.  z_next = x_next + (1 - theta) * 0 turns a -0.0 into
        # +0.0, so from s = -0.0 z and x differ in their bytes and the next
        # step queries grad f(z) once more than from s = +0.0.
        def f(x):
            return x[0] ** 4 / 16 - x[0] ** 2 / 2 - x[1] ** 2 / 2

        def grad(x):
            return np.array([x[0] ** 3 / 4 - x[0], -x[1]])

        oracle = GradientOracle(f, grad, SmoothnessSpec(2.0, 2.0), 2)
        T = 8
        params = BaselineParams(
            eta=0.05, radius=0.08, grad_threshold=0.0, total_steps=T,
            theta=0.042, gamma=0.0355, nce_radius=1e-12,
        )
        counts = []
        for s in (-0.0, 0.0):
            trace = pagd_run(oracle, np.array([s, 0.05]), params, RngStream(0, 0))
            assert trace_events(trace) == [EVENT_AGD] + [EVENT_NCE] * T
            assert math.copysign(1.0, trace.records[1].x[0]) == math.copysign(1.0, s)
            counts.append(trace.meta["grad_evals"])
        assert counts == [(T + 1) + T + 1, (T + 1) + T] == [18, 17]

    def _anc(self, **overrides):
        base = dict(
            eta=0.05, theta=0.042, gamma=0.0355, nce_radius=0.0089, ncf_steps=20,
            perturb_radius=0.08, total_steps=40, eps=0.02, delta0=0.1, ell=5.0,
            rho=1.0, grad_threshold=0.02, exploit_step=1.2,
        )
        base.update(overrides)
        return ANCParams(**base)

    def test_ancgd_run_carries_certificate_values(self):
        # Same convex start as for pagd_run: no trigger, no reset.
        land = get_landscape("quartic")
        T = 5
        trace = ancgd_run(
            land.oracle, np.array([1.5, 0.5]), self._anc(total_steps=T), RngStream(0, 0)
        )
        assert trace_events(trace) == [EVENT_AGD] * (T + 1)
        assert trace.meta["grad_evals"] == (T + 1) + T == 11
        assert trace.meta["f_evals"] == 1 + 2 * T == 11

    def test_ancgd_run_window(self):
        # At the saddle the first record triggers a window of ncf_steps
        # pinned steps and the budget ends with it: the anchor's f comes from
        # its record, each pinned step takes one grad f(z) and nothing else,
        # no certificate runs, the search records hold the anchor and query
        # nothing, and the last record scores its pinned, unscored iterate.
        land = get_landscape("quartic")
        T = 20
        trace = ancgd_run(land.oracle, np.zeros(2), self._anc(total_steps=T), RngStream(0, 0))
        assert trace_events(trace) == [EVENT_PERTURB] + [EVENT_NCF_STEP] * T
        assert trace.meta["grad_evals"] == 1 + T + 1 == 22
        assert trace.meta["f_evals"] == 2

    def test_ancgd_run_budget_ends_mid_window(self):
        # As above with the budget ending halfway through the window: the
        # last record, and only it, scores its pinned point.
        land = get_landscape("quartic")
        T = 10
        params = self._anc(total_steps=T)
        trace = ancgd_run(land.oracle, np.zeros(2), params, RngStream(0, 0))
        assert trace_events(trace) == [EVENT_PERTURB] + [EVENT_NCF_STEP] * T
        assert trace.meta["grad_evals"] == 1 + T + 1 == 12
        assert trace.meta["f_evals"] == 2
        anchor, last = trace.records[0], trace.records[-1]
        assert all(rec.x is anchor.x for rec in trace.records[1:T])
        assert 0.0 < np.linalg.norm(last.x - anchor.x) <= 2 * params.perturb_radius
        assert last.f == land.oracle.value(last.x)
        assert last.grad_norm == np.linalg.norm(land.oracle.gradient(last.x))


@pytest.mark.parametrize(
    "alg, land_id, gradients, values",
    [
        # Per episode where the exploit moved, the closing record's value,
        # which exploit scored; a closing record at the anchor reuses the
        # anchor's record, and the search takes the anchor's gradient.
        ("nc", "quartic", (0, 1800), (20, 1060)),
        ("nc", "highdim-100", (0, 620), (20, 100)),
        ("snc", "cubic", (0, 1198), (20, 348)),
        # 3 gradients and 2 values repeat in 100 trials, none in these 20.
        ("ancgd", "quartic", (0, 1240), (0, 860)),
        ("pgd", "quartic", (0, 1820), (0, 1820)),
        ("psgd", "cubic", (0, 1220), (0, 1220)),
        ("pagd", "quartic", (0, 1640), (0, 1974)),
    ],
)
def test_recipe_queries_repeated_at_one_point(alg, land_id, gradients, values):
    """(repeated, total) oracle queries of 20 harness trials at seed 0; a
    repeat is a query at an x that its trial already queried the same way,
    byte for byte.  A change that removes a repeat lowers these counts."""
    counts = repeated_queries(alg, land_id, trials=20)
    assert counts == {"gradient": gradients, "value": values}


class TestPsgdBaseline:
    def _params(self, **overrides):
        base = dict(
            eta=0.02, radius=0.01, grad_threshold=0.05, total_steps=60,
            cooldown=10, batch=1,
        )
        base.update(overrides)
        return BaselineParams(**base)

    def test_records_noiseless_objective(self):
        land = get_landscape("cubic")
        oracle = AdditiveNoiseOracle(land.oracle, sigma=0.01)
        trace = psgd_run(oracle, np.zeros(2), self._params(), RngStream(0, 0))
        for rec in trace.records:
            assert rec.f == pytest.approx(land.oracle.value(rec.x), abs=1e-12)

    def test_gaussian_perturbations_logged(self):
        land = get_landscape("cubic")
        oracle = AdditiveNoiseOracle(land.oracle, sigma=0.01)
        trace = psgd_run(oracle, np.zeros(2), self._params(), RngStream(1, 0))
        assert len(trace.meta["perturbs"]) >= 1
        assert trace_events(trace).count(EVENT_PERTURB) == len(trace.meta["perturbs"])

    def test_sample_accounting(self):
        land = get_landscape("cubic")
        oracle = AdditiveNoiseOracle(land.oracle, sigma=0.01)
        trace = psgd_run(oracle, np.zeros(2), self._params(batch=3), RngStream(2, 0))
        assert trace.meta["samples"] == 3 * 60

    def test_rarely_escapes_cubic_at_budget(self):
        land = get_landscape("cubic")
        oracle = AdditiveNoiseOracle(land.oracle, sigma=0.01)
        stuck = 0
        for trial in range(30):
            trace = psgd_run(oracle, np.zeros(2), self._params(), RngStream(0, trial))
            if trace_decrease(trace) < 0.6:
                stuck += 1
        assert stuck >= 28

    def test_sgd_event_stream(self):
        land = get_landscape("cubic")
        oracle = AdditiveNoiseOracle(land.oracle, sigma=0.01)
        trace = psgd_run(
            oracle,
            np.array([0.5, 0.5]),
            self._params(grad_threshold=1e-12),
            RngStream(3, 0),
        )
        assert set(trace_events(trace)) == {EVENT_SGD}


class TestBaselineParams:
    def test_validation(self):
        with pytest.raises(ParameterError):
            BaselineParams(eta=0.0, radius=0.1, grad_threshold=0.1, total_steps=10)
        with pytest.raises(ParameterError):
            BaselineParams(eta=0.1, radius=0.1, grad_threshold=-1.0, total_steps=10)
        with pytest.raises(ParameterError):
            BaselineParams(eta=0.1, radius=0.1, grad_threshold=0.1, total_steps=0)
        with pytest.raises(ParameterError):
            BaselineParams(
                eta=0.1, radius=0.1, grad_threshold=0.1, total_steps=10, batch=0
            )


_RUNS = {
    "nc": pgd_nc_run, "pgd": pgd_run, "ancgd": ancgd_run, "pagd": pagd_run,
    "snc": sgd_nc_run, "psgd": psgd_run,
}
_SIGNED_ZEROS = [(-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0)]


def _plan(alg, land_id, reset):
    """The recipe's params; with reset, the momentum loops' trigger is off,
    so that near the saddle they run into resets of short momentum, which
    move x."""
    cfg = ExperimentConfig(algorithm=alg, landscape=land_id)
    params = build_payload(cfg, get_landscape(land_id))["params"]
    return dataclasses.replace(params, grad_threshold=0.0) if reset else params


# The calibrated recipes (highdim-10 for nc and pgd too), and the momentum
# loops with the trigger off.
_PLANS = {
    (alg, land_id, reset): _plan(alg, land_id, reset)
    for alg, land_id in [
        ("nc", "quartic"), ("pgd", "quartic"), ("ancgd", "quartic"), ("pagd", "quartic"),
        ("snc", "cubic"), ("psgd", "cubic"), ("nc", "highdim-10"), ("pgd", "highdim-10"),
    ]
    for reset in ((False, True) if alg in ("ancgd", "pagd") else (False,))
}


def _compared(trace):
    """Every record's t, f, grad_norm, v_norm, event and x bytes, and the
    exploit log; floats by repr, which tells -0.0 from 0.0."""
    records = [
        (r.t, repr(r.f), repr(r.grad_norm), repr(r.v_norm), r.event, r.x.tobytes())
        for r in trace.records
    ]
    exploits = [
        (e["t"], repr(e["decrease"]), e["certified"], e["anchor"].tobytes(), e["e_hat"].tobytes())
        for e in trace.meta.get("exploits", [])
    ]
    return records, exploits


def _fields(record):
    """A record's t, f, grad_norm, v_norm and event; floats by repr."""
    return record.t, repr(record.f), repr(record.grad_norm), repr(record.v_norm), record.event


def _exact(value):
    """value with each array as its dtype, shape and bytes and each float as
    its repr, through dicts and lists."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, dict):
        return {k: _exact(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_exact(v) for v in value]
    return repr(value) if isinstance(value, float) else value


class TestFusedOracleTraces:
    @settings(max_examples=120, deadline=None)
    @given(
        plan=st.sampled_from(sorted(_PLANS)),
        seed=st.integers(0, 2**16),
        start=st.one_of(
            st.sampled_from(_SIGNED_ZEROS + [(0.01, 0.0), (0.05, 0.02), None]),
            st.tuples(st.floats(-0.1, 0.1), st.floats(-0.1, 0.1)),
        ),
    )
    @example(plan=("pagd", "quartic", True), seed=0, start=(0.01, 0.0))
    @example(plan=("ancgd", "quartic", True), seed=0, start=(0.01, 0.0))
    @example(plan=("pagd", "quartic", False), seed=0, start=(-0.0, 0.0))
    @example(plan=("ancgd", "quartic", False), seed=0, start=(-0.0, 0.0))
    def test_fused_and_plain_oracles_give_the_same_trace(self, plan, seed, start):
        # The plain oracle has no f_and_grad, so each record queries f and
        # grad f separately: it is the reference for the fused evaluation.
        alg, land_id, _ = plan
        land = get_landscape(land_id)
        o = land.oracle
        plain = GradientOracle(o.f, o.grad, o.spec, o.dim)
        x0 = land.saddles[0].point.copy()
        if start is not None and land.dim == 2:
            x0 = np.array(start)
        traces = []
        for oracle in (o, plain):
            if alg in ("snc", "psgd"):
                oracle = with_noise(oracle, 0.01)
            traces.append(_RUNS[alg](oracle, x0, _PLANS[plan], RngStream(seed, 1)))
        assert _compared(traces[0]) == _compared(traces[1])

    @settings(max_examples=60, deadline=None)
    @given(plan=st.sampled_from(sorted(_PLANS)), seed=st.integers(0, 2**16))
    def test_summary_trace_is_the_full_trace_without_iterates(self, plan, seed):
        # record="summary" drops every record's x and changes nothing else:
        # every other field _compared reads, and all of meta.
        alg, land_id, _ = plan
        land = get_landscape(land_id)
        oracle = with_noise(land, 0.01) if alg in ("snc", "psgd") else land.oracle
        full, summary = (
            _RUNS[alg](oracle, land.saddles[0].point, _PLANS[plan], RngStream(seed, 1),
                       record=record)
            for record in ("full", "summary")
        )
        assert [r.x for r in summary.records] == [None] * len(full.records)
        assert all(isinstance(r.x, np.ndarray) for r in full.records)
        assert [_fields(r) for r in summary.records] == [_fields(r) for r in full.records]
        assert list(summary.meta) == list(full.meta)
        assert _exact(summary.meta) == _exact(full.meta)

    def test_reset_plans_move_x(self):
        # The trigger-off plans reach the short-momentum reset they exist
        # for: the first step's x_next = x0 - eta grad f(x0) moves by
        # nce_radius, and the momentum is zeroed.
        land = get_landscape("quartic")
        x0 = np.array([0.01, 0.0])
        for alg in ("ancgd", "pagd"):
            params = _PLANS[(alg, "quartic", True)]
            trace = _RUNS[alg](land.oracle, x0, params, RngStream(0, 1))
            assert trace_events(trace)[1] == EVENT_NCE
            assert trace.records[1].v_norm == 0.0
            x_next = x0 - params.eta * land.oracle.gradient(x0)
            moved = np.linalg.norm(trace.records[1].x - x_next)
            assert moved == pytest.approx(params.nce_radius, rel=1e-9)

"""Accelerated escape loop: derived constants, window mechanics, certificates,
and the episode-hook contract it shares with descend."""

import dataclasses
import math

import numpy as np
import pytest

from saddlescape import ancgd
from saddlescape import (
    ANCParams,
    BaselineParams,
    ParameterError,
    RngStream,
    SmoothnessSpec,
    ancgd_run,
    derive_anc_params,
    get_landscape,
    uniform_ball_sample,
)
from saddlescape.core import (
    EVENT_AGD,
    EVENT_GD,
    EVENT_NCE,
    EVENT_NCF_EXPLOIT,
    EVENT_NCF_STEP,
    EVENT_PERTURB,
    CountingOracle,
    Trace,
)
from saddlescape.ncfind import descend

from conftest import (
    angular_gap,
    free_anc_window,
    make_quadratic,
    trace_decrease,
    trace_events,
)


def _window_params(**overrides):
    base = dict(
        eta=0.05, theta=0.042, gamma=0.0355, nce_radius=0.0089, ncf_steps=20,
        perturb_radius=0.08, total_steps=40, eps=0.02, delta0=0.1, ell=5.0,
        rho=1.0, grad_threshold=0.02, exploit_step=1.2,
    )
    base.update(overrides)
    return ANCParams(**base)


class TestDerivedConstants:
    def test_frozen_reference_values(self):
        # ell = 4, rho = 1, eps = 0.01, delta0 = 0.1, n = 2, gap bound 1.
        p = derive_anc_params(SmoothnessSpec(4.0, 1.0), 0.01, 0.1, 2, 1.0)
        assert p.eta == pytest.approx(0.0625, rel=0, abs=0)
        assert p.theta == pytest.approx(0.03952847075210474, rel=1e-15)
        assert p.gamma == pytest.approx(0.025, rel=1e-15)
        assert p.nce_radius == pytest.approx(0.00625, rel=1e-15)
        assert p.ncf_steps == 1283
        assert p.total_steps == 11187017786853

    def test_frozen_probe_radius(self):
        p = derive_anc_params(
            SmoothnessSpec(1.0, 1.0), 1.0, 1.0, 1, 1.0, total_steps=10
        )
        assert p.perturb_radius == pytest.approx(math.sqrt(math.pi) / 32.0, rel=1e-15)
        assert p.perturb_radius == pytest.approx(0.05538918284079737, rel=1e-15)

    def test_relations_between_constants(self):
        p = derive_anc_params(SmoothnessSpec(3.0, 2.0), 0.05, 0.2, 4, 2.0, total_steps=10)
        assert p.eta == pytest.approx(1.0 / 12.0)
        assert p.gamma == pytest.approx(p.theta**2 / p.eta)
        assert p.nce_radius == pytest.approx(p.gamma / (4.0 * 2.0))

    def test_curvature_scale_must_fit_spectrum(self):
        with pytest.raises(ParameterError):
            derive_anc_params(SmoothnessSpec(1.0, 1.0), 4.0, 0.1, 2, 1.0)

    def test_params_validation(self):
        with pytest.raises(ParameterError):
            _window_params(theta=1.5)
        with pytest.raises(ParameterError):
            _window_params(eta=-0.1)
        with pytest.raises(ParameterError):
            _window_params(ncf_steps=0)

    def test_trigger_defaults_reach_the_loop(self, quad2, monkeypatch):
        # Unset, the trigger is eps and the cooldown ncf_steps; set, each
        # reaches the loop as given.
        seen = []

        def spy(oracle, x0, params, trace, escape, threshold, cooldown, **kw):
            seen.append((threshold, cooldown))
            return trace

        monkeypatch.setattr(ancgd, "accelerate", spy)
        for overrides in (
            dict(grad_threshold=None, cooldown=None), dict(grad_threshold=0.25, cooldown=77)
        ):
            ancgd_run(quad2, np.zeros(2), _window_params(**overrides), RngStream(0, 0))
        p = _window_params()
        assert seen == [(p.eps, p.ncf_steps), (0.25, 77)]


class TestNceStep:
    def test_zero_momentum_is_noop(self, quad2):
        x = np.array([1.0, 1.0])
        x2, f2 = ancgd._nce_step(quad2, x, np.zeros(2), 0.5, 1.5)
        assert x2 is x and f2 == 1.5

    def test_long_momentum_keeps_x(self, quad2):
        x = np.array([1.0, 1.0])
        v = np.array([0.8, 0.0])
        x2, f2 = ancgd._nce_step(quad2, x, v, 0.5, 1.5)
        assert x2 is x and f2 == 1.5

    def test_short_momentum_steps_downhill(self):
        # f = -x0^2: from the origin both signs tie, the positive side wins.
        hump = make_quadratic([-2.0, 1.0])
        x2, f2 = ancgd._nce_step(hump, np.zeros(2), np.array([0.1, 0.0]), 0.5, None)
        assert x2[0] == pytest.approx(0.5)
        assert f2 == hump.value(x2)

    def test_short_momentum_picks_lower_value(self):
        tilted = make_quadratic([1.0, 1.0])
        x = np.array([1.0, 0.0])
        # From x, stepping toward the origin is lower on a bowl.
        x2, _ = ancgd._nce_step(tilted, x, np.array([0.01, 0.0]), 0.5, None)
        assert x2[0] == pytest.approx(0.5)


def _gradient_spy(oracle):
    """oracle, logging a copy of each point queried by a plain gradient call
    (records query through value_and_gradient, which is not logged)."""
    points = []

    def grad(x):
        points.append(np.array(x, dtype=float))
        return oracle.grad(x)

    spy = dataclasses.replace(
        oracle, grad=grad, f_and_grad=lambda x: (oracle.f(x), oracle.grad(x))
    )
    return spy, points


class TestWindowEquivalence:
    def test_pinned_matches_free_twin_on_quadratic(self):
        saddle_quad = make_quadratic([-1.0, 2.0])
        params = _window_params(
            eta=0.1, theta=0.05, ncf_steps=25, total_steps=27,
            perturb_radius=0.05, ell=2.5, cooldown=10**6,
        )
        spy, queried = _gradient_spy(saddle_quad)
        trace = ancgd_run(spy, np.zeros(2), params, RngStream(0, 0))
        perturb = trace.meta["perturbs"][0]
        exploit = trace.meta["exploits"][0]
        free_dir, path = free_anc_window(saddle_quad, np.zeros(2), params, perturb["offset"])
        assert angular_gap(exploit["e_hat"], free_dir) <= 1e-10
        # The first ncf_steps plain gradient queries are the window's z, a
        # rigid rescaling of the free z.
        anchor = perturb["anchor"]
        for z, free_off in zip(queried[: params.ncf_steps], path, strict=True):
            assert angular_gap(z - anchor, free_off) <= 1e-10

    def test_pinned_matches_free_twin_on_quartic_saddle(self):
        # Off-quadratic the first update differs at cubic order in the probe
        # radius (in-ball draw versus sphere query), so the comparison is
        # direction-only with a loose tolerance.
        land = get_landscape("quartic")
        params = _window_params(
            ncf_steps=30, total_steps=32, perturb_radius=0.01, cooldown=10**6,
        )
        trace = ancgd_run(land.oracle, np.zeros(2), params, RngStream(5, 0))
        perturb = trace.meta["perturbs"][0]
        exploit = trace.meta["exploits"][0]
        free_dir, _ = free_anc_window(land.oracle, np.zeros(2), params, perturb["offset"])
        assert angular_gap(exploit["e_hat"], free_dir) <= 1e-3

    def test_window_finds_negative_curvature_direction(self):
        land = get_landscape("quartic")
        params = _window_params(cooldown=10**6, total_steps=22)
        trace = ancgd_run(land.oracle, np.zeros(2), params, RngStream(1, 0))
        e_hat = trace.meta["exploits"][0]["e_hat"]
        assert angular_gap(e_hat, np.array([1.0, 0.0])) <= 1e-3


class TestRunMechanics:
    def test_trigger_at_first_flat_iterate(self):
        land = get_landscape("quartic")
        params = _window_params(cooldown=10**6)
        trace = ancgd_run(land.oracle, np.zeros(2), params, RngStream(2, 0))
        assert trace.records[0].event == EVENT_PERTURB
        assert trace.meta["perturbs"][0]["t"] == 0
        offset = trace.meta["perturbs"][0]["offset"]
        assert np.linalg.norm(offset) <= params.perturb_radius + 1e-12

    def test_event_sequence_single_window(self):
        land = get_landscape("quartic")
        k = 6
        params = _window_params(ncf_steps=k, total_steps=k + 4, cooldown=10**6)
        trace = ancgd_run(land.oracle, np.zeros(2), params, RngStream(3, 0))
        events = trace_events(trace)
        assert events[0] == EVENT_PERTURB
        assert events[1 : k + 1] == [EVENT_NCF_STEP] * k
        assert events[k + 1] == EVENT_NCF_EXPLOIT
        assert set(events[k + 2 :]) <= {EVENT_AGD, EVENT_NCE}

    def test_no_trigger_while_gradient_large(self):
        land = get_landscape("quartic")
        params = _window_params(grad_threshold=1e-9)
        trace = ancgd_run(land.oracle, np.array([1.0, 1.0]), params, RngStream(4, 0))
        assert trace.meta["perturbs"] == []
        assert EVENT_PERTURB not in trace_events(trace)

    def test_window_states_pinned_to_probe_sphere(self):
        land = get_landscape("quartic")
        params = _window_params(cooldown=10**6, total_steps=22)
        spy, queried = _gradient_spy(land.oracle)
        trace = ancgd_run(spy, np.zeros(2), params, RngStream(6, 0))
        anchor = trace.meta["perturbs"][0]["anchor"]
        # The window queries grad f(z) at the draw, inside the ball, then at
        # each pinned z, on the probe sphere.
        window = queried[: params.ncf_steps]
        assert np.linalg.norm(window[0] - anchor) <= params.perturb_radius
        for z in window[1:]:
            assert np.linalg.norm(z - anchor) == pytest.approx(params.perturb_radius, rel=1e-12)

    def test_window_records_hold_the_anchor(self):
        # Each search step is recorded at the anchor with the anchor's f and
        # gradient norm and no momentum, as descend holds a search step.
        land = get_landscape("quartic")
        params = _window_params(cooldown=10**6, total_steps=30)
        trace = ancgd_run(land.oracle, np.zeros(2), params, RngStream(6, 0))
        anchor = trace.records[0]
        held = trace.records[1 : params.ncf_steps + 1]
        assert {rec.event for rec in held} == {EVENT_NCF_STEP}
        for rec in held:
            assert (rec.f, rec.grad_norm) == (anchor.f, anchor.grad_norm)
            assert rec.x is anchor.x
            assert rec.v_norm is None

    def test_short_cooldown_does_not_abort_the_window(self):
        # The trigger is not tested inside a window: a zero cooldown and a
        # probe radius too small to leave the flat region still let every
        # window reach its exploit.
        land = get_landscape("quartic")
        k = 6
        params = _window_params(
            ncf_steps=k, total_steps=k + 4, cooldown=0, perturb_radius=1e-4
        )
        trace = ancgd_run(land.oracle, np.zeros(2), params, RngStream(3, 0))
        assert [p["t"] for p in trace.meta["perturbs"]] == [0]
        assert [e["t"] for e in trace.meta["exploits"]] == [k + 1]
        assert trace_events(trace)[: k + 2] == (
            [EVENT_PERTURB] + [EVENT_NCF_STEP] * k + [EVENT_NCF_EXPLOIT]
        )

    def test_exploit_decrease_and_certificate_meta(self):
        land = get_landscape("quartic")
        params = _window_params(cooldown=10**6, total_steps=40)
        trace = ancgd_run(land.oracle, np.zeros(2), params, RngStream(7, 0))
        exploit = trace.meta["exploits"][0]
        assert exploit["decrease"] > 0
        assert exploit["certified"]
        assert trace.meta["candidates"] == []
        f_anchor = land.oracle.value(exploit["anchor"])
        cand_plus = exploit["anchor"] + 1.2 * exploit["e_hat"]
        cand_minus = exploit["anchor"] - 1.2 * exploit["e_hat"]
        best = min(land.oracle.value(cand_plus), land.oracle.value(cand_minus))
        assert exploit["decrease"] == pytest.approx(f_anchor - best)

    def test_candidate_and_stop_at_minimum(self):
        bowl = make_quadratic([1.0, 2.0])
        params = _window_params(
            ell=2.0, ncf_steps=5, total_steps=30, stop_at_candidate=True,
            exploit_step=0.05,
        )
        trace = ancgd_run(bowl, np.zeros(2), params, RngStream(8, 0))
        assert len(trace.meta["candidates"]) == 1
        assert np.allclose(trace.meta["stopped_at_candidate"], np.zeros(2), atol=1e-12)
        assert trace.meta["exploits"][0]["decrease"] == 0.0
        assert not trace.meta["exploits"][0]["certified"]
        assert len(trace.records) < params.total_steps + 1

    def test_cooldown_permits_repeat_windows(self):
        bowl = make_quadratic([1.0, 2.0])
        params = _window_params(ell=2.0, ncf_steps=4, total_steps=30, exploit_step=0.05)
        trace = ancgd_run(bowl, np.zeros(2), params, RngStream(9, 0))
        assert len(trace.meta["perturbs"]) >= 2

    def test_step_after_a_fallback_reuses_the_anchor_gradient(self):
        # From the bowl's minimum, four of the five windows fall back to the
        # anchor, and the last uses up the budget.  The step from a fallen-back
        # window reuses the gradient the anchor's record took: one query fewer
        # per window, with the same iterates.
        bowl = make_quadratic([1.0, 2.0], ell=2.0)
        params = _window_params(ncf_steps=4, total_steps=30, cooldown=6)
        trace = ancgd_run(bowl, np.zeros(2), params, RngStream(0, 0))
        after = [rec for rec in trace.records if rec.event == EVENT_NCF_EXPLOIT]
        assert len(trace.meta["perturbs"]) == 5
        assert [rec.x.tobytes() for rec in after] == [np.zeros(2).tobytes()] * 4
        assert (trace.meta["grad_evals"], trace.meta["f_evals"]) == (44, 34)
        assert trace.final_f() == 0.0040146111501148584

    def test_escapes_quartic_saddle(self):
        land = get_landscape("quartic")
        escaped = 0
        for seed in range(20):
            trace = ancgd_run(
                land.oracle, np.zeros(2), _window_params(), RngStream(seed, 0)
            )
            if trace_decrease(trace) >= 0.9:
                escaped += 1
        assert escaped >= 18

    def test_oracle_call_accounting(self):
        land = get_landscape("quartic")
        params = _window_params(total_steps=10, ncf_steps=4, cooldown=10**6)
        trace = ancgd_run(land.oracle, np.zeros(2), params, RngStream(10, 0))
        assert trace.meta["f_evals"] > 0
        assert trace.meta["grad_evals"] >= params.total_steps

    def test_seeded_determinism(self):
        land = get_landscape("quartic")
        a = ancgd_run(land.oracle, np.zeros(2), _window_params(), RngStream(11, 5))
        b = ancgd_run(land.oracle, np.zeros(2), _window_params(), RngStream(11, 5))
        assert a.final_f() == b.final_f()
        assert trace_events(a) == trace_events(b)


def _hooked(hook, total_steps, cooldown, loop="accelerate"):
    """accelerate (or descend) on a bowl with every iterate flat, so an
    episode starts whenever the cooldown allows; hook is its episode hook."""
    oracle, x0 = CountingOracle(make_quadratic([1.0, 2.0])), np.array([0.5, -0.3])
    if loop == "descend":
        params = BaselineParams(
            eta=0.05, radius=0.1, grad_threshold=0.0, total_steps=total_steps, cooldown=cooldown
        )
        return descend(x0, params, Trace(), lambda x, g: g, oracle, hook, EVENT_GD, 0.05, math.inf)
    params = _window_params(total_steps=total_steps)
    return ancgd.accelerate(oracle, x0, params, Trace(), hook, math.inf, cooldown)


class TestEpisodeHook:
    # On a bowl the certificate holds after an episode (the step from the
    # restart has momentum), so the step is plain: x = p - eta * grad f(p).

    @pytest.mark.parametrize("loop", ["accelerate", "descend"])
    def test_hook_gets_anchor_gradient_t_and_budget(self, loop):
        # Both loops call their hooks the same way.
        calls = []

        def hook(x, g, t, budget):
            calls.append((x, g, t, budget))
            return x + 0.01, EVENT_PERTURB, 0, False

        trace = _hooked(hook, total_steps=10, cooldown=3, loop=loop)
        bowl = make_quadratic([1.0, 2.0])
        assert [(t, budget) for _, _, t, budget in calls] == [(0, 10), (4, 6), (8, 2)]
        for x, g, t, _ in calls:
            rec = trace.records[t]
            assert x is rec.x
            assert g.tobytes() == bowl.gradient(rec.x).tobytes()
            assert math.sqrt(g.dot(g)) == rec.grad_norm

    def test_zero_held_steps_from_the_new_point_in_the_same_iteration(self):
        p = np.array([0.2, 0.1])
        trace = _hooked(lambda x, g, t, budget: (p, EVENT_PERTURB, 0, False), 5, 10**6)
        bowl = make_quadratic([1.0, 2.0])
        rec = trace.records[1]
        assert (rec.t, rec.event) == (1, EVENT_PERTURB)
        assert rec.x.tobytes() == (p - 0.05 * bowl.gradient(p)).tobytes()
        assert trace_events(trace)[2:] == [EVENT_AGD] * 4

    def test_held_iterations_are_records_at_the_anchor(self):
        p, k = np.array([0.2, 0.1]), 3
        trace = _hooked(lambda x, g, t, budget: (p, EVENT_NCF_EXPLOIT, k, False), 10, 10**6)
        anchor = trace.records[0]
        held = trace.records[1 : k + 1]
        assert [rec.t for rec in held] == [1, 2, 3]
        for rec in held:
            assert rec.event == EVENT_NCF_STEP and rec.x is anchor.x
            assert (rec.f, rec.grad_norm, rec.v_norm) == (anchor.f, anchor.grad_norm, None)
        bowl = make_quadratic([1.0, 2.0])
        after = trace.records[k + 1]
        assert (after.t, after.event) == (k + 1, EVENT_NCF_EXPLOIT)
        assert after.x.tobytes() == (p - 0.05 * bowl.gradient(p)).tobytes()

    @pytest.mark.parametrize("held", [5, 7])
    def test_episode_that_uses_up_the_budget_scores_its_point_last(self, held):
        p = np.array([0.2, 0.1])
        trace = _hooked(lambda x, g, t, budget: (p, EVENT_NCF_STEP, held, False), 5, 10**6)
        bowl = make_quadratic([1.0, 2.0])
        assert trace_events(trace) == [EVENT_AGD] + [EVENT_NCF_STEP] * 5
        last = trace.records[-1]
        assert last.t == 5 and last.x is p
        assert (last.f, last.grad_norm) == (bowl.value(p), np.linalg.norm(bowl.gradient(p)))


class TestHamiltonian:
    def test_energy_monotone_outside_windows(self):
        # E = f(x) + ||v||^2 / (2 eta) may only decrease across plain
        # momentum transitions; window, perturb, and exploit records are
        # excluded by their event tags.
        land = get_landscape("quartic")
        for seed in range(5):
            trace = ancgd_run(
                land.oracle, np.zeros(2), _window_params(), RngStream(seed, 1)
            )
            eta = trace.meta["eta"]
            recs = trace.records
            checked = 0
            for prev, cur in zip(recs, recs[1:]):
                if cur.event not in (EVENT_AGD, EVENT_NCE):
                    continue
                e_prev = prev.f + prev.v_norm**2 / (2 * eta)
                e_cur = cur.f + cur.v_norm**2 / (2 * eta)
                assert e_cur <= e_prev + 1e-12
                checked += 1
            assert checked > 0

    def test_energy_monotone_on_convex_quadratic(self):
        bowl = make_quadratic([0.5, 2.0])
        params = _window_params(
            ell=2.0, grad_threshold=1e-12, total_steps=60,
        )
        trace = ancgd_run(bowl, np.array([1.0, -1.5]), params, RngStream(0, 3))
        eta = trace.meta["eta"]
        energies = [r.f + r.v_norm**2 / (2 * eta) for r in trace.records]
        assert all(b <= a + 1e-12 for a, b in zip(energies, energies[1:]))


class TestFreeTwinInterface:
    def test_stream_draw_matches_run_draw(self):
        # Drawing from an identical stream state reproduces the run's offset.
        land = get_landscape("quartic")
        params = _window_params(cooldown=10**6, total_steps=22)
        trace = ancgd_run(land.oracle, np.zeros(2), params, RngStream(12, 0))
        offset = uniform_ball_sample(np.zeros(2), params.perturb_radius, RngStream(12, 0))
        direction, _ = free_anc_window(land.oracle, np.zeros(2), params, offset)
        assert angular_gap(direction, trace.meta["exploits"][0]["e_hat"]) <= 1e-3

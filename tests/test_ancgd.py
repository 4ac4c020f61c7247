"""Accelerated escape loop: derived constants, window mechanics, certificates,
and the episode-hook contract it shares with descend."""

import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from saddlescape import ancgd
from saddlescape import (
    ANCParams,
    BaselineParams,
    DivergenceError,
    GradientOracle,
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
    bits,
    free_anc_window,
    make_quadratic,
    trace_decrease,
    trace_events,
)


def _window_params(**overrides):
    base = dict(
        eta=0.05, theta=0.042, gamma=0.0355, nce_radius=0.0089, ncf_steps=20,
        perturb_radius=0.08, total_steps=40, eps=0.02, rho=1.0, grad_threshold=0.02,
        exploit_step=1.2,
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

    def test_params_refuse_a_perturb_radius_whose_square_overflows(self):
        _window_params(perturb_radius=1.3e154)
        with pytest.raises(ParameterError, match=r"^perturb_radius must have a finite square"):
            _window_params(perturb_radius=1e200)

    def test_accelerate_names_the_momentum_constants_it_lacks(self):
        # pagd's params leave theta, gamma and nce_radius unset by default.
        bare = BaselineParams(eta=0.05, radius=0.1, grad_threshold=0.0, total_steps=5)
        oracle = CountingOracle(make_quadratic([-1.0, 2.0]))
        with pytest.raises(ParameterError, match="theta, gamma, and nce_radius"):
            ancgd.accelerate(
                oracle, np.array([0.1, 0.2]), bare, Trace(), lambda *a: None, 0.0, 0
            )
        assert oracle.f_evals == oracle.grad_evals == 0

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


def _reset_run(diag, x0, nce_radius, total_steps=1, eta=0.05, theta=0.042):
    """accelerate on make_quadratic(diag) from x0 with a hook that declines
    every episode, so each iteration is a momentum step and its certificate."""
    params = _window_params(eta=eta, theta=theta, nce_radius=nce_radius, total_steps=total_steps)
    oracle = CountingOracle(make_quadratic(diag))
    return ancgd.accelerate(oracle, np.array(x0), params, Trace(), lambda *a: None, 0.0, 0)


class TestMomentumReset:
    # On the hump's concave axis the certificate fires at the first step.
    # A reset that leaves x carries f(x) into x's record, so a one-step run
    # takes 3 values: x0's record, f(x_next) and f(z_next).

    def test_zero_momentum_leaves_x_and_its_f(self):
        # At the saddle the gradient, and so the momentum, is zero.
        trace = _reset_run([-2.0, 1.0], [0.0, 0.0], 0.5)
        first, reset = trace.records
        assert reset.event == EVENT_NCE and reset.x.tobytes() == first.x.tobytes()
        assert (reset.f, reset.v_norm) == (first.f, 0.0)
        assert trace.meta["f_evals"] == 3

    def test_long_momentum_leaves_x_and_its_f(self):
        # The step's momentum, 0.05 * 0.2, is longer than nce_radius.
        hump, x0 = make_quadratic([-2.0, 1.0]), np.array([0.1, 0.0])
        trace = _reset_run([-2.0, 1.0], x0, 0.001)
        reset = trace.records[1]
        x_next = x0 - 0.05 * hump.gradient(x0)
        assert reset.event == EVENT_NCE and reset.x.tobytes() == x_next.tobytes()
        assert (reset.f, reset.v_norm) == (hump.value(x_next), 0.0)
        assert trace.meta["f_evals"] == 3

    def test_short_momentum_moves_nce_radius_to_the_lower_side(self):
        # Three plain steps, then a reset whose lower side is against the
        # momentum.  A twin whose momentum is long keeps the step's point.
        saddle = make_quadratic([-1.0, 1.0])
        short, long = (
            _reset_run([-1.0, 1.0], [0.01, 1.0], r, total_steps=4, eta=0.45, theta=0.1)
            for r in (0.5, 1e-9)
        )
        assert trace_events(short) == [EVENT_AGD] * 4 + [EVENT_NCE]
        assert _rows(short)[:4] == _rows(long)[:4]
        x_next = long.records[4].x
        v = x_next - long.records[3].x
        d = 0.5 * v / np.linalg.norm(v)
        assert np.linalg.norm(v) < 0.5
        assert saddle.value(x_next - d) < saddle.value(x_next + d)
        reset = short.records[4]
        assert reset.x == pytest.approx(x_next - d, rel=1e-12)
        assert reset.f == saddle.value(reset.x)

    def test_short_momentum_takes_the_plus_side_on_a_tie(self):
        # Momentum 1e-21 along the concave axis, stretched to 0.5: the two
        # sides round to mirror points, whose values tie.
        hump = make_quadratic([-2.0, 1.0])
        reset = _reset_run([-2.0, 1.0], [1e-20, 0.0], 0.5).records[1]
        assert reset.event == EVENT_NCE
        assert reset.x == pytest.approx([0.5, 0.0])
        assert reset.f == hump.value(-reset.x) == hump.value(reset.x)


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
            perturb_radius=0.05, cooldown=10**6,
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


def _window_outcome(pinned, oracle, anchor, params, seed):
    """ancgd_run from anchor with pinned as its 2-d window steps: the bits of
    the point each window's steps return, the records, the meta, the oracle
    counts and the divergence message (None if the run finished)."""
    points = []

    def logged(*args):
        points.append(pinned(*args))
        return points[-1]

    counted = CountingOracle(oracle)
    with mock.patch.object(ancgd, "_pinned_planar", logged):
        try:
            trace, error = ancgd_run(counted, anchor, params, RngStream(seed, 0)), None
        except DivergenceError as exc:
            trace, error = exc.trace, str(exc)
    outcome = [points, trace.records, trace.meta, counted.f_evals, counted.grad_evals]
    return bits(outcome), error


_ANCHORS = [(37.0, -81.0), (0.7, -1.3), (-0.0, 0.25), (0.0, -0.0), (1e-3, 2e-3)]


class TestPlanarWindow:
    """The 2-d window steps on Python floats against the numpy loop they
    replace at n = 2: the same bytes in every output, the same oracle calls."""

    @settings(max_examples=60, deadline=None)
    @given(
        land_id=st.sampled_from(["quartic", "cubic", "triangle", "exponential"]),
        anchor=st.sampled_from(_ANCHORS),
        radius=st.one_of(st.just(2.3e-11), st.floats(2.3e-11, 0.1)),
        total_steps=st.integers(1, 30),
        cooldown=st.sampled_from([0, 3, 10**6]),
        seed=st.integers(0, 2**16),
    )
    @example(land_id="quartic", anchor=(-0.0, 0.25), radius=0.1, total_steps=7,
             cooldown=10**6, seed=0)
    @example(land_id="cubic", anchor=(37.0, -81.0), radius=2.3e-11, total_steps=30,
             cooldown=0, seed=1)
    # Offsets and iterates either side of 1e-140, the low edge of
    # core._norm2's exact range (the trust-region cases below reach the high one).
    @example(land_id="quartic", anchor=(0.0, -0.0), radius=1.5e-140, total_steps=30,
             cooldown=0, seed=1)
    @example(land_id="cubic", anchor=(0.0, -0.0), radius=3e-140, total_steps=13,
             cooldown=10**6, seed=2)
    def test_planar_steps_match_the_numpy_loop(
        self, land_id, anchor, radius, total_steps, cooldown, seed
    ):
        # ncf_steps = 12, so budgets below 13 end inside the first window.
        params = _window_params(
            ncf_steps=12, total_steps=total_steps, perturb_radius=radius,
            grad_threshold=1e300, cooldown=cooldown,
        )
        oracle, x0 = get_landscape(land_id).oracle, np.array(anchor)
        planar = _window_outcome(ancgd._pinned_planar, oracle, x0, params, seed)
        assert planar[0][0], "no window ran"
        assert planar == _window_outcome(ancgd._pinned, oracle, x0, params, seed)

    # One record (the anchor's): a window step raised.  21 (the anchor's and
    # the window's 20): the window came back inside and the step after it raised.
    @pytest.mark.parametrize("seed, records", [(0, 1), (1, 1), (2, 21), (3, 1)])
    def test_window_leaving_the_trust_region_fails_at_the_same_step(self, seed, records):
        # The sphere around (0.7, -1.3) reaches 0.1 past the anchor's norm,
        # so a bound just above that norm is crossed where the window drifts out.
        anchor = np.array([0.7, -1.3])
        params = _window_params(
            ncf_steps=20, total_steps=40, perturb_radius=0.1, grad_threshold=1e300,
            cooldown=10**6, trust_region=float(np.linalg.norm(anchor)) + 0.02,
        )
        oracle = make_quadratic([-1.0, 2.0])
        planar, error = _window_outcome(ancgd._pinned_planar, oracle, anchor, params, seed)
        assert error is not None and "trust region" in error
        assert len(planar[1]) == records
        assert (planar, error) == _window_outcome(ancgd._pinned, oracle, anchor, params, seed)

    # A bound below the window's first iterate: at an anchor of norm 1.48,
    # and past 1e150, where core._norm2 hands the length to numpy.
    @pytest.mark.parametrize("anchor, radius, bound", [
        ((0.7, -1.3), 0.1, 1.0), ((0.0, 0.0), 1e152, 1e151), ((0.0, 0.0), 1e-139, 1e-141),
    ])
    def test_window_below_a_small_trust_region_fails_at_its_first_step(
        self, anchor, radius, bound
    ):
        params = _window_params(
            ncf_steps=20, total_steps=40, perturb_radius=radius, grad_threshold=1e300,
            trust_region=bound,
        )
        oracle, anchor = make_quadratic([-1.0, 2.0]), np.array(anchor)
        planar, error = _window_outcome(ancgd._pinned_planar, oracle, anchor, params, 0)
        assert error == f"iterate norm exceeded trust region bound {bound}"
        assert len(planar[1]) == 1
        assert (planar, error) == _window_outcome(ancgd._pinned, oracle, anchor, params, 0)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_window_with_a_non_finite_iterate_fails_at_its_first_step(self, bad):
        # grad f is 0 at the anchor (the origin), so the window opens there,
        # and bad anywhere else, so the first step's iterate is not finite.
        oracle = GradientOracle(
            lambda x: 0.0, lambda x: np.full(2, 0.0 if not x.any() else bad),
            SmoothnessSpec(1.0, 1.0), 2,
        )
        params = _window_params(grad_threshold=1e300)
        anchor = np.zeros(2)
        planar, error = _window_outcome(ancgd._pinned_planar, oracle, anchor, params, 0)
        assert error == "non-finite iterate encountered"
        assert len(planar[1]) == 1
        assert (planar, error) == _window_outcome(ancgd._pinned, oracle, anchor, params, 0)


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
            ncf_steps=5, total_steps=30, stop_at_candidate=True, exploit_step=0.05,
        )
        trace = ancgd_run(bowl, np.zeros(2), params, RngStream(8, 0))
        assert len(trace.meta["candidates"]) == 1
        assert np.allclose(trace.meta["stopped_at_candidate"], np.zeros(2), atol=1e-12)
        assert trace.meta["exploits"][0]["decrease"] == 0.0
        assert not trace.meta["exploits"][0]["certified"]
        assert len(trace.records) < params.total_steps + 1

    def test_cooldown_permits_repeat_windows(self):
        bowl = make_quadratic([1.0, 2.0])
        params = _window_params(ncf_steps=4, total_steps=30, exploit_step=0.05)
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


def _hooked(hook, total_steps, cooldown, loop="accelerate", threshold=1e300):
    """accelerate (or descend) on a bowl with every iterate flat, so an
    episode starts whenever the cooldown allows; hook is its episode hook.
    A threshold of 0 keeps every iterate from triggering: none is stationary."""
    oracle, x0 = CountingOracle(make_quadratic([1.0, 2.0])), np.array([0.5, -0.3])
    if loop == "descend":
        params = BaselineParams(
            eta=0.05, radius=0.1, grad_threshold=0.0, total_steps=total_steps, cooldown=cooldown
        )
        return descend(x0, params, Trace(), lambda x, g: g, oracle, hook, EVENT_GD, 0.05, threshold)
    params = _window_params(total_steps=total_steps)
    return ancgd.accelerate(oracle, x0, params, Trace(), hook, threshold, cooldown)


def _rows(trace):
    """Each record as a tuple of its fields, the iterate by its bytes."""
    return [
        (r.t, r.f, r.grad_norm, r.event, None if r.x is None else r.x.tobytes(), r.v_norm)
        for r in trace.records
    ]


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

    @pytest.mark.parametrize("loop", ["accelerate", "descend"])
    @pytest.mark.parametrize("held", [5, 7])
    def test_episode_that_uses_up_the_budget_scores_its_point_last(self, held, loop):
        # Both loops hold at most budget - 1 records, so the hook's point
        # takes the record at total_steps.
        p = np.array([0.2, 0.1])
        trace = _hooked(lambda x, g, t, budget: (p, EVENT_NCF_STEP, held, False), 5, 10**6, loop)
        bowl = make_quadratic([1.0, 2.0])
        first = EVENT_AGD if loop == "accelerate" else EVENT_GD
        assert trace_events(trace) == [first] + [EVENT_NCF_STEP] * 5
        last = trace.records[-1]
        assert last.t == 5 and last.x is p
        assert (last.f, last.grad_norm) == (bowl.value(p), np.linalg.norm(bowl.gradient(p)))


    @pytest.mark.parametrize("loop", ["accelerate", "descend"])
    def test_declining_hook_runs_as_if_the_trigger_never_fired(self, loop):
        # A decline starts no cooldown: the hook is offered every flat x.
        calls = []

        def hook(x, g, t, budget):
            calls.append(t)

        declined = _hooked(hook, total_steps=10, cooldown=3, loop=loop)
        assert calls == list(range(10))
        never = _hooked(hook, total_steps=10, cooldown=3, loop=loop, threshold=0.0)
        assert calls == list(range(10))
        assert _rows(declined) == _rows(never)


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
        params = _window_params(grad_threshold=1e-12, total_steps=60)
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

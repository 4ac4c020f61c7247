"""Gradient-difference curvature search: schedule, dynamics, exploit step."""

import contextlib
import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from saddlescape import (
    ANCParams,
    AdditiveNoiseOracle,
    AlgorithmError,
    CountingOracle,
    DivergenceError,
    GradientOracle,
    NCDescentParams,
    ParameterError,
    RandomQuadraticNoiseOracle,
    RngStream,
    SmoothnessSpec,
    ancgd_run,
    derive_anc_params,
    derive_nc_params,
    derive_snc_params,
    get_landscape,
    lemma_decrease_bound,
    nc_find,
    pgd_nc_run,
    sgd_nc_run,
    snc_find,
    uniform_ball_sample,
    with_noise,
)
from saddlescape import ncfind, stochastic
from saddlescape.cli import main
from saddlescape.ncfind import NCParams, exploit
from saddlescape.stochastic import SNCParams
from saddlescape.testbed import VERIFY_IDS
from saddlescape.verify import fd_quadform

from conftest import angular_gap, bits, free_nc_direction, make_quadratic, relabel


class TestDerivedSchedule:
    def test_frozen_reference_values(self):
        # ell = rho = 1, eps = 0.01, delta0 = 0.1, n = 2.
        params = derive_nc_params(SmoothnessSpec(1.0, 1.0), 0.01, 0.1, 2)
        assert params.steps == 351
        assert params.radius == pytest.approx(1.5666426716443754e-4, rel=0, abs=1e-19)

    def test_formula_reproduction(self):
        ell, rho, eps, delta0, n = 4.0, 2.0, 0.05, 0.2, 7
        params = derive_nc_params(SmoothnessSpec(ell, rho), eps, delta0, n)
        thr = math.sqrt(rho * eps)
        steps = max(
            1,
            math.ceil(8 * ell / thr * math.log(ell / delta0 * math.sqrt(n / (math.pi * rho * eps)))),
        )
        assert params.steps == steps
        assert params.radius == pytest.approx(
            eps / (8 * ell) * math.sqrt(math.pi / n) * delta0
        )

    def test_curvature_scale_must_fit_spectrum(self):
        with pytest.raises(ParameterError):
            derive_nc_params(SmoothnessSpec(1.0, 1.0), 2.0, 0.1, 2)

    @pytest.mark.parametrize(
        "derive",
        [
            lambda spec, eps: derive_nc_params(spec, eps, 0.1, 2),
            lambda spec, eps: derive_snc_params(spec, 1.0, eps, 0.1, 2),
            lambda spec, eps: derive_anc_params(spec, eps, 0.1, 2, 1.0),
        ],
        ids=["nc", "snc", "anc"],
    )
    def test_every_derivation_guards_the_curvature_scale(self, derive):
        # sqrt(rho * eps) = sqrt(2) lies outside the spectrum [-1, 1].
        with pytest.raises(ParameterError, match="exceeds ell"):
            derive(SmoothnessSpec(1.0, 1.0), 2.0)

    def test_input_validation(self):
        spec = SmoothnessSpec(1.0, 1.0)
        with pytest.raises(ParameterError):
            derive_nc_params(spec, -1.0, 0.1, 2)
        with pytest.raises(ParameterError):
            derive_nc_params(spec, 0.01, 0.0, 2)
        with pytest.raises(ParameterError):
            derive_nc_params(spec, 0.01, 0.1, 0)

    def test_params_validation(self):
        with pytest.raises(ParameterError):
            NCParams(steps=0, radius=0.1, eps=0.1, ell=1.0, rho=1.0)
        with pytest.raises(ParameterError):
            NCParams(steps=5, radius=-0.1, eps=0.1, ell=1.0, rho=1.0)

    def test_params_refuse_a_probe_scale_that_underflows(self):
        # The search divides by radius * ell; here that product is 0 in floats.
        with pytest.raises(ParameterError, match=r"^radius 1e-100 times ell 1e-250 underflows"):
            NCParams(steps=5, radius=1e-100, eps=0.1, ell=1e-250, rho=1.0)

    def test_params_refuse_a_radius_whose_square_overflows(self):
        # Every length of the search squares the radius: 1.3e154 squares to
        # about 1.7e308, 1.4e154 to inf.
        NCParams(steps=5, radius=1.3e154, eps=0.1, ell=1.0, rho=1.0)
        with pytest.raises(ParameterError, match=r"^radius must have a finite square.*1\.4e\+154$"):
            NCParams(steps=5, radius=1.4e154, eps=0.1, ell=1.0, rho=1.0)


def _pinned_vs_free_gap(land_id, steps):
    """Angular gap between nc_find and its free-running reference at the
    landscape's first saddle, declared with the saddle's local constants."""
    land = get_landscape(land_id)
    sad = land.saddles[0]
    oracle = relabel(land.oracle, sad.ell_local, sad.rho_local)
    params = NCParams(steps=steps, radius=1e-3, eps=0.04, ell=sad.ell_local, rho=sad.rho_local)
    pinned = nc_find(oracle, sad.point, params, RngStream(3, 0))
    free = free_nc_direction(oracle, sad.point, params, RngStream(3, 0))
    return angular_gap(pinned.e_hat, free)


def _degenerate_oracle():
    """An oracle whose gradient is finite at its first call and NaN after."""
    calls = []

    def grad(x):
        calls.append(x)
        return np.zeros(2) if len(calls) == 1 else np.full(2, math.nan)

    return GradientOracle(f=lambda x: 0.0, grad=grad, spec=SmoothnessSpec(1.0, 1.0), dim=2)


_NC = NCParams(steps=5, radius=1e-3, eps=0.1, ell=1.0, rho=1.0)
_SNC = SNCParams(steps=5, radius=1e-3, batch=1, eps=0.1, ell=1.0, rho=1.0)
# Each finder's module (whose _power_search it calls) and a run of it whose
# gradient differences are NaN from the first search step on.
_DEGENERATE_RUNS = {
    "nc_find": (ncfind, lambda: nc_find(_degenerate_oracle(), np.zeros(2), _NC, RngStream(0, 0))),
    "snc_find": (stochastic, lambda: snc_find(
        AdditiveNoiseOracle(_degenerate_oracle(), 0.1), np.zeros(2), _SNC, RngStream(0, 0))),
}


def _start_draws_before_raise(monkeypatch, finder):
    """Run the finder on its degenerate oracle, expect AlgorithmError, and
    return how many start draws the shared kernel made before it raised."""
    module, run = _DEGENERATE_RUNS[finder]
    search, draws = module._power_search, []

    def counted(start, *args):
        def draw():
            draws.append(None)
            return start()
        return search(draw, *args)

    monkeypatch.setattr(module, "_power_search", counted)
    with pytest.raises(AlgorithmError, match="degenerated"):
        run()
    return len(draws)


class TestSearchDynamics:
    def test_aligns_with_bottom_eigenvector(self, quad5):
        params = NCParams(steps=80, radius=1e-4, eps=0.1, ell=3.0, rho=1.0)
        out = nc_find(quad5, np.zeros(5), params, RngStream(0, 0))
        assert np.linalg.norm(out.e_hat) == pytest.approx(1.0, abs=1e-12)
        assert angular_gap(out.e_hat, np.array([1, 0, 0, 0, 0.0])) <= 1e-10
        assert out.steps_used == 80

    def test_matches_explicit_power_iteration_on_quadratic(self, quad5):
        # On a quadratic the update is exactly y <- (I - H/ell) y, so the
        # direction after k steps must match the explicit matrix iteration.
        d = np.array([-2.0, -0.5, 0.3, 1.0, 3.0])
        ell = 3.0
        params = NCParams(steps=23, radius=1e-3, eps=0.1, ell=ell, rho=1.0)
        # The search starts from its stream's first draw.
        y0 = uniform_ball_sample(np.zeros(5), params.radius, RngStream(42, 0))
        out = nc_find(quad5, np.zeros(5), params, RngStream(42, 0))
        ref = y0.copy()
        for _ in range(23):
            ref = ref - (d * ref) / ell
        assert angular_gap(out.e_hat, ref) <= 1e-10

    def test_renormalization_is_direction_neutral(self):
        # The update is 1-homogeneous in y even off-quadratic, since queries
        # sit on the probe sphere; nc_find and the free reference must agree.
        assert _pinned_vs_free_gap("quartic", 60) <= 1e-8

    @pytest.mark.parametrize("steps", [1, 2, 5, 30, 60])
    @pytest.mark.parametrize("land_id", VERIFY_IDS)
    def test_renormalization_is_direction_neutral_at_every_saddle(self, land_id, steps):
        assert _pinned_vs_free_gap(land_id, steps) <= 1e-8

    def test_seeded_determinism(self, quad5):
        params = NCParams(steps=40, radius=1e-4, eps=0.1, ell=3.0, rho=1.0)
        a = nc_find(quad5, np.zeros(5), params, RngStream(9, 4))
        b = nc_find(quad5, np.zeros(5), params, RngStream(9, 4))
        assert np.array_equal(a.e_hat, b.e_hat)

    def test_degenerate_oracle_raises_at_once(self, monkeypatch):
        assert _start_draws_before_raise(monkeypatch, "nc_find") == 1

    @pytest.mark.parametrize("finder", ["snc_find"])
    def test_degenerate_oracle_raises_in_other_finders(self, monkeypatch, finder):
        assert _start_draws_before_raise(monkeypatch, finder) == 1

    def test_zero_start_raises(self, quad5, monkeypatch):
        # A uniform-ball draw is exactly zero when its radial draw is 0.0;
        # the search takes one start, so it raises rather than redraw.
        draws = []

        def draw(center, radius, stream):
            draws.append(None)
            return np.zeros(5)

        monkeypatch.setattr(ncfind, "uniform_ball_sample", draw)
        params = NCParams(steps=80, radius=1e-4, eps=0.1, ell=3.0, rho=1.0)
        with pytest.raises(AlgorithmError, match="degenerated"):
            nc_find(quad5, np.zeros(5), params, RngStream(0, 0))
        assert len(draws) == 1

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, 1e200])
    @pytest.mark.parametrize("n", [2, 3])
    def test_non_finite_start_raises(self, n, bad):
        # n = 2 takes the planar branch, n = 3 the numpy loop.  A start of
        # non-finite length (inf at 1e200, whose square overflows) leaves the
        # first real difference step nothing finite, so the search raises there.
        oracle = make_quadratic([-1.0] + [1.0] * (n - 1))
        x = np.zeros(n)
        step, planar = ncfind._difference_step(oracle, x, oracle.gradient(x), 1.0, 1.0)
        start = np.full(n, bad)
        start[0] = 0.5
        with pytest.raises(AlgorithmError, match="an iterate is zero or not finite"):
            ncfind._power_search(lambda: start.copy(), step, 1.0, 5, planar)

    def test_certified_direction_on_every_landscape_saddle(self):
        for land_id in ("quartic", "cubic", "triangle", "exponential"):
            land = get_landscape(land_id)
            sad = land.saddles[0]
            oracle = relabel(land.oracle, sad.ell_local, sad.rho_local)
            spec = SmoothnessSpec(sad.ell_local, sad.rho_local)
            params = derive_nc_params(spec, 0.04, 0.1, land.dim)
            out = nc_find(oracle, sad.point, params, RngStream(17, 0))
            quad = fd_quadform(land.oracle, sad.point, out.e_hat)
            assert quad <= -0.25 * math.sqrt(sad.rho_local * 0.04)


_POWER_SEARCH = ncfind._power_search


def _searched(runs: dict, planar: bool) -> dict:
    """Each of runs() with the finders' curvature searches on the planar
    kernel, as they run at n = 2, or on _power_search's numpy loop (the
    planar step withheld): the bits of its result, or the message of its
    AlgorithmError or DivergenceError.  Asserts that every search was
    offered a planar step, so the planar side does run it."""
    offered = []

    def search(start, step, radius, steps, planar_step=None):
        offered.append(planar_step is not None)
        return _POWER_SEARCH(start, step, radius, steps, planar_step if planar else None)

    outcomes = {}
    with contextlib.ExitStack() as stack:
        for module in (ncfind, stochastic):
            stack.enter_context(mock.patch.object(module, "_power_search", search))
        for name, run in runs.items():
            try:
                outcomes[name] = bits(run())
            except (AlgorithmError, DivergenceError) as exc:
                outcomes[name] = str(exc)
    assert offered and all(offered)
    return outcomes


def _finder_runs(land_id: str, anchor, radius: float, steps: int, seed: int) -> dict:
    """Every 2-d finder, and the loops around them, from anchor on a counting
    oracle of the landscape: each returns its direction, or its records and
    meta, with the oracle's counts."""
    oracle = get_landscape(land_id).oracle
    ell, rho, x = oracle.spec.ell, oracle.spec.rho, np.array(anchor)
    nc = NCParams(steps=steps, radius=radius, eps=0.1, ell=ell, rho=rho)
    snc = SNCParams(steps=steps, radius=radius, batch=2, eps=0.1, ell=ell, rho=rho)
    noises = {
        "additive": lambda mean: AdditiveNoiseOracle(mean, 0.1),
        "quadratic": lambda mean: RandomQuadraticNoiseOracle(mean, 0.1, 0.05),
    }

    def counted(run):
        def outcome():
            mean = CountingOracle(oracle)
            return run(mean), mean.f_evals, mean.grad_evals

        return outcome

    def loop(search):
        return NCDescentParams(search, total_steps=2 * steps + 3, grad_threshold=1e300)

    def kept(trace):
        return [trace.records, trace.meta]

    runs = {
        "nc_find": lambda o: nc_find(o, x, nc, RngStream(seed, 0)).e_hat,
        "pgd_nc_run": lambda o: kept(
            pgd_nc_run(o, x, loop(nc), RngStream(seed, 0), record="full")),
    }
    for name, noise in noises.items():
        runs[f"snc_find/{name}"] = lambda o, noise=noise: snc_find(
            noise(o), x, snc, RngStream(seed, 0)).e_hat
        runs[f"sgd_nc_run/{name}"] = lambda o, noise=noise: kept(sgd_nc_run(
            noise(o), x, loop(snc), RngStream(seed, 0), record="full"))
    return {name: counted(run) for name, run in runs.items()}


class TestPlanarSearch:
    """The 2-d curvature searches on Python floats against the numpy loop
    they replace at n = 2: the same bytes in every output, the same oracle
    calls, for nc_find and snc_find and the loops around them."""

    @settings(max_examples=60, deadline=None)
    @given(
        land_id=st.sampled_from(["quartic", "cubic", "triangle", "exponential"]),
        anchor=st.sampled_from([(0.0, 0.0), (37.0, -81.0), (0.7, -1.3), (-0.0, 0.25)]),
        radius=st.one_of(st.just(3.3e-16), st.floats(3.3e-16, 0.1)),
        steps=st.integers(1, 30),
        seed=st.integers(0, 2**16),
    )
    @example(land_id="quartic", anchor=(-0.0, 0.25), radius=0.1, steps=30, seed=0)
    @example(land_id="cubic", anchor=(37.0, -81.0), radius=3.3e-16, steps=12, seed=1)
    # Offsets either side of core._norm2's exact range: an iterate's second
    # coordinate crosses 1e-140 as it turns, or its lengths pass 1e150 (the
    # cubic's then overflow, and both paths raise alike).
    @example(land_id="quartic", anchor=(0.7, -1.3), radius=1.5e-140, steps=30, seed=0)
    @example(land_id="exponential", anchor=(0.0, 0.0), radius=3e-140, steps=12, seed=1)
    @example(land_id="triangle", anchor=(0.0, 0.0), radius=1.2e150, steps=12, seed=2)
    @example(land_id="cubic", anchor=(0.0, 0.0), radius=1.2e150, steps=12, seed=3)
    def test_planar_searches_match_the_numpy_loop(self, land_id, anchor, radius, steps, seed):
        runs = _finder_runs(land_id, anchor, radius, steps, seed)
        assert _searched(runs, planar=True) == _searched(runs, planar=False)


def _spied(oracle):
    """oracle with grad replaced by a spy, and no fused pair, so that every
    gradient query goes through the spy; and the points the spy saw."""
    points = []

    def grad(x):
        points.append(np.array(x, dtype=float))
        return oracle.grad(x)

    return dataclasses.replace(oracle, grad=grad, f_and_grad=None), points


def _three_finders(oracle, seed):
    """nc_find, snc_find under additive noise and one ancgd_run window from
    (0.7, -1.3) at n = 2: the bits of each output and the gradient queries
    each billed."""
    ell, rho, x = oracle.spec.ell, oracle.spec.rho, np.array([0.7, -1.3])
    nc = NCParams(steps=9, radius=0.01, eps=0.1, ell=ell, rho=rho)
    snc = SNCParams(steps=9, radius=0.01, batch=2, eps=0.1, ell=ell, rho=rho)
    anc = ANCParams(eta=0.05, theta=0.04, gamma=0.04, nce_radius=0.01, ncf_steps=9,
                    perturb_radius=0.01, total_steps=12, eps=0.1, rho=rho,
                    grad_threshold=1e300, cooldown=10**6)
    nc_counted, snc_counted = CountingOracle(oracle), CountingOracle(oracle)
    trace = ancgd_run(oracle, x, anc, RngStream(seed, 0))
    return bits([
        nc_find(nc_counted, x, nc, RngStream(seed, 0)).e_hat, nc_counted.grad_evals,
        snc_find(with_noise(snc_counted, 0.1), x, snc, RngStream(seed, 0)).e_hat,
        snc_counted.grad_evals, trace.records, trace.meta,
    ])


class TestWrappedGradient:
    """A spy that replaces grad carries no float twin, so the wrapped oracle
    takes the array path: the spy sees every gradient query the finders
    bill, and every output keeps its bytes."""

    @pytest.mark.parametrize("land_id", ["quartic", "cubic", "triangle", "exponential"])
    def test_spy_sees_every_billed_query(self, land_id):
        land = get_landscape(land_id)
        twin, twin_calls = land.oracle.grad.twin, []

        def counted_twin(x1, x2):
            twin_calls.append(None)
            return twin(x1, x2)

        land.oracle.grad.twin = counted_twin
        plain = _three_finders(land.oracle, seed=4)
        # The twin answered each search step but snc_find's first, and each
        # window step.
        assert len(twin_calls) == 9 + 8 + 9
        spy, points = _spied(land.oracle)
        wrapped = _three_finders(spy, seed=4)
        assert wrapped == plain
        assert len(twin_calls) == 26
        # nc_find and snc_find each bill g and their steps' queries (snc_find's
        # first step queries nothing); ancgd_run bills its own in its meta.
        nc_queries, snc_queries, meta = wrapped[1], wrapped[3], wrapped[5]
        assert (nc_queries, snc_queries) == (10, 9)
        assert len(points) == nc_queries + snc_queries + meta["grad_evals"]


def _vanishing_noise(stream, n, scale, rows):
    """_normal_rows for snc_find with no noise after the first row."""
    yield np.array([1.0, 0.5])
    yield from (np.zeros(n) for _ in range(rows - 1))


def _underflowing_scale():
    """snc_find where I - H/ell shrinks each iterate by 2^-52 and the noise
    vanishes after its first row, so scale underflows to 0: the numpy step's
    0 / 0 is NaN where a float 0 / 0 would raise ZeroDivisionError."""
    oracle = AdditiveNoiseOracle(make_quadratic([1.0 - 2.0**-52] * 2), 0.0)
    params = SNCParams(steps=40, radius=1.0, batch=1, eps=0.1, ell=1.0, rho=1.0)
    with mock.patch.object(stochastic, "_normal_rows", _vanishing_noise):
        return snc_find(oracle, np.zeros(2), params, RngStream(0, 0))


# Library searches that degenerate at n = 2: the finders on an oracle whose
# gradient turns NaN, an iterate whose squared length overflows (I - H/ell
# triples every offset, and the radius is just under the square root of the
# largest float), and a scale that underflows.
_DEGENERATE_SEARCHES = {
    **{name: run for name, (_, run) in _DEGENERATE_RUNS.items()},
    "overflowing iterate": lambda: nc_find(
        make_quadratic([-1.0, 2.0]), np.zeros(2),
        NCParams(steps=5, radius=1.3e154, eps=0.1, ell=0.5, rho=1.0),
        RngStream(0, 0),
    ),
    "underflowing scale": _underflowing_scale,
}


class TestDegenerateSearches:
    """A degenerate 2-d search raises the same AlgorithmError on the planar
    kernel as on the numpy loop, never ZeroDivisionError or OverflowError."""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("case", sorted(_DEGENERATE_SEARCHES))
    def test_library_searches_raise_alike(self, case):
        runs = {case: _DEGENERATE_SEARCHES[case]}
        planar = _searched(runs, planar=True)
        assert planar == _searched(runs, planar=False)
        assert planar[case].startswith("curvature search degenerated")

    @pytest.mark.parametrize("argv", [
        ["--alg", "nc", "--fn", "quartic", "--r", "1e-310"],
        ["--alg", "snc", "--fn", "cubic", "--r", "1e150"],
    ])
    def test_runs_exit_three_alike(self, argv, capsys):
        runs = {"run": lambda: main(["run", *argv, "--trials", "3"])}
        outputs = []
        for planar in (True, False):
            outputs.append((_searched(runs, planar), capsys.readouterr()))
        assert outputs[0] == outputs[1]
        assert outputs[0][0]["run"] == 3
        assert outputs[0][1].err == (
            "error: curvature search degenerated: an iterate is zero or not finite\n"
        )


class TestExploit:
    def test_decrease_bound_frozen_value(self):
        assert lemma_decrease_bound(0.01, 1.0) == pytest.approx(
            2.604166666666667e-06, rel=1e-15
        )
        assert lemma_decrease_bound(0.1, 1.0) == pytest.approx(
            math.sqrt(1e-3) / 384.0
        )

    def test_two_candidate_decreases_from_saddle(self):
        land = get_landscape("quartic")
        sad = land.saddles[0]
        eps, rho = 0.04, sad.rho_local
        f0 = land.oracle.value(sad.point)
        x, stop = exploit(land.oracle.value, sad.point, f0, sad.direction, eps, rho)
        assert not stop
        assert f0 - land.oracle.value(x) >= lemma_decrease_bound(eps, rho)
        assert np.linalg.norm(x - sad.point) == pytest.approx(
            0.25 * math.sqrt(eps / rho)
        )

    def test_two_candidate_picks_better_sign(self):
        # f = x^3 - x on [direction e0]: stepping +d from 0 decreases f.
        f = lambda x: float(x[0] ** 3 - x[0])
        x, _ = exploit(f, np.zeros(2), 0.0, np.array([1.0, 0.0]), 0.1, 10.0)
        assert x[0] > 0

    def test_fallback_at_minimum(self):
        land = get_landscape("quartic")
        x0 = np.array([2.0, 0.0])
        f0 = land.oracle.value(x0)
        x, _ = exploit(land.oracle.value, x0, f0, np.array([1.0, 0.0]), 0.04, 1.0)
        assert np.array_equal(x, x0) and x is not x0

    def test_tie_keeps_positive_side(self):
        # -x^2 decreases equally both ways, so the tie keeps +d; x^4 - 1
        # rises both ways, so the anchor stays.
        x, _ = exploit(lambda x: -float(x[0] ** 2), np.zeros(1), 0.0, np.array([1.0]), 0.1, 1.0)
        assert x[0] > 0
        y, _ = exploit(
            lambda x: float(x[0] ** 4) - 1.0, np.zeros(1), -1.0, np.array([1.0]), 0.1, 1.0
        )
        assert y[0] == 0.0

    def test_explicit_step_override(self):
        land = get_landscape("quartic")
        x, _ = exploit(
            land.oracle.value, np.zeros(2), 0.0, np.array([1.0, 0.0]), 0.04, 1.0, step=1.5
        )
        assert abs(x[0]) == pytest.approx(1.5)

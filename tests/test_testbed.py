"""Analytic landscapes: declared structure versus independent numerics."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from saddlescape import (
    AdditiveNoiseOracle,
    CountingOracle,
    ExperimentConfig,
    Landscape,
    ParameterError,
    RandomQuadraticNoiseOracle,
    RngStream,
    get_landscape,
    run_experiment,
    run_verify,
    with_noise,
)
from saddlescape.core import GradientOracle
from saddlescape.testbed import _FACTORIES, MAX_HIGHDIM, VERIFY_IDS
from saddlescape.verify import dense_hessian


def _fd_grad(oracle, x, h=1e-6):
    g = np.empty_like(x)
    for i in range(len(x)):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (oracle.value(x + e) - oracle.value(x - e)) / (2 * h)
    return g


# Every factory plus highdim ids of several sizes, both curvature settings.
ALL_IDS = [*_FACTORIES, "highdim-2", "highdim-10", "highdim-25", "highdim-25-soft", "highdim-1000"]


@pytest.fixture(params=VERIFY_IDS)
def landscape(request):
    return get_landscape(request.param)


class TestRegistry:
    def test_verify_ids_registered(self):
        for land_id in VERIFY_IDS:
            assert get_landscape(land_id).id == land_id

    def test_get_landscape_unknown(self):
        with pytest.raises(ParameterError):
            get_landscape("nonexistent")

    def test_highdim_parameterized_ids(self):
        land = get_landscape("highdim-25")
        assert land.dim == 25
        soft = get_landscape("highdim-25-soft")
        assert soft.dim == 25
        assert soft.saddles[0].lambda_min == pytest.approx(-0.01)
        with pytest.raises(ParameterError):
            get_landscape("highdim-1")

    @pytest.mark.parametrize(
        "land_id", ["highdim-010", "highdim-1_0", "highdim- 10", "highdim-+10", "highdim-\u0663"]
    )
    def test_highdim_id_names_its_dimension_one_way(self, land_id):
        # int() reads each of these (the last is an Arabic-Indic 3), and a
        # run's summary would name the id it was given, not the one that ran.
        with pytest.raises(ParameterError, match="bad highdim landscape id"):
            get_landscape(land_id)
        with pytest.raises(ParameterError, match="bad highdim landscape id"):
            run_experiment(ExperimentConfig("nc", land_id, trials=2))

    def test_highdim_dimension_is_capped_before_any_allocation(self, monkeypatch):
        class Allocated(Exception):
            pass

        def refuse(*args, **kwargs):
            raise Allocated

        monkeypatch.setattr(np, "ones", refuse)
        with pytest.raises(Allocated):
            get_landscape(f"highdim-{MAX_HIGHDIM}")
        with pytest.raises(ParameterError, match="n <= 1000000, got 1000001"):
            get_landscape("highdim-1000001")

    def test_construction_makes_no_oracle_calls(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("oracle called during construction")

        monkeypatch.setattr(GradientOracle, "value", refuse)
        monkeypatch.setattr(GradientOracle, "gradient", refuse)
        for land_id in ALL_IDS:
            assert get_landscape(land_id).id == land_id

    def test_instances_are_fresh(self):
        a = get_landscape("quartic")
        b = get_landscape("quartic")
        assert a is not b

    def test_landscape_needs_a_hessian(self):
        # verify reads it above DENSE_CAP, where no dense difference is taken.
        land = get_landscape("quartic")
        with pytest.raises(TypeError, match="hessian"):
            Landscape(land.id, land.oracle, land.box, land.saddles, land.minima)


class TestDeclaredStructure:
    @pytest.mark.parametrize("land_id", ALL_IDS)
    def test_self_check_passes(self, land_id):
        report = run_verify(ids=[land_id])
        assert report.ok, report.failures

    def test_gradient_matches_fd(self, landscape):
        stream = RngStream(5, 0).substream(landscape.id)
        lo, hi = landscape.box
        for _ in range(10):
            x = stream.gen.uniform(lo, hi, size=landscape.dim)
            g = landscape.oracle.gradient(x)
            fd = _fd_grad(landscape.oracle, x)
            assert np.linalg.norm(g - fd) <= 1e-4 * max(1.0, np.linalg.norm(g))

    def test_analytic_hessian_matches_fd(self, landscape):
        stream = RngStream(6, 0).substream(landscape.id)
        lo, hi = landscape.box
        for _ in range(5):
            x = stream.gen.uniform(lo, hi, size=landscape.dim)
            H = landscape.hessian(x)
            H_fd = dense_hessian(landscape.oracle, x)
            assert np.linalg.norm(H - H_fd) <= 1e-4 * max(1.0, np.linalg.norm(H))

    def test_saddle_eigenpair(self, landscape):
        for sad in landscape.saddles:
            assert np.linalg.norm(landscape.oracle.gradient(sad.point)) <= 1e-9
            vals, vecs = np.linalg.eigh(dense_hessian(landscape.oracle, sad.point))
            assert vals[0] == pytest.approx(sad.lambda_min, rel=1e-3)
            gap = 1.0 - abs(
                float(np.dot(vecs[:, 0], sad.direction)) / np.linalg.norm(sad.direction)
            )
            assert gap <= 1e-4

    def test_minima_are_minima(self, landscape):
        for point, value in landscape.minima:
            assert landscape.oracle.value(point) == pytest.approx(value, abs=1e-9)
            assert np.linalg.norm(landscape.oracle.gradient(point)) <= 1e-7
            H = landscape.hessian(point)
            assert float(np.linalg.eigvalsh(H)[0]) >= -1e-6

    def test_global_smoothness_bound_sampled(self, landscape):
        stream = RngStream(7, 0).substream(landscape.id)
        lo, hi = landscape.box
        ell = landscape.oracle.spec.ell
        for _ in range(25):
            x = stream.gen.uniform(lo, hi, size=landscape.dim)
            H = landscape.hessian(x)
            assert float(np.max(np.abs(np.linalg.eigvalsh(H)))) <= ell * 1.001

    def test_hessian_lipschitz_bound_sampled(self, landscape):
        stream = RngStream(8, 0).substream(landscape.id)
        lo, hi = landscape.box
        rho = landscape.oracle.spec.rho
        hess = landscape.hessian
        for _ in range(25):
            x = stream.gen.uniform(lo, hi, size=landscape.dim)
            y = stream.gen.uniform(lo, hi, size=landscape.dim)
            gap = np.linalg.norm(x - y)
            if gap < 1e-9:
                continue
            diff = float(np.linalg.norm(hess(x) - hess(y), ord=2))
            assert diff <= rho * gap * 1.001

    def test_local_constants_near_saddle(self, landscape):
        # ell_local/rho_local are what the escape routines get; check the
        # spectral bound on a small ball around each saddle.
        stream = RngStream(9, 0).substream(landscape.id)
        for sad in landscape.saddles:
            for _ in range(10):
                off = stream.gen.standard_normal(landscape.dim)
                off *= 0.005 / np.linalg.norm(off)
                x = sad.point + off
                H = landscape.hessian(x)
                top = float(np.max(np.abs(np.linalg.eigvalsh(H))))
                assert top <= sad.ell_local * 1.01


class TestSpecificValues:
    def test_quartic_numbers(self):
        land = get_landscape("quartic")
        assert land.oracle.value(np.array([2.0, 0.0])) == pytest.approx(-1.0)
        assert land.saddles[0].lambda_min == -1.0
        assert land.oracle.spec.ell == 5.75

    def test_cubic_minimum_value(self):
        land = get_landscape("cubic")
        for point, value in land.minima:
            assert value == pytest.approx(-1.3641479081703338, abs=1e-12)
        # The two minima are mirror images under (x1, x2) -> (-x2, -x1).
        a, b = land.minima[0][0], land.minima[1][0]
        assert np.allclose(b, [-a[1], -a[0]])

    def test_triangle_curvature(self):
        land = get_landscape("triangle")
        assert land.saddles[0].lambda_min == pytest.approx(-math.pi**2 / 2)

    def test_exponential_has_no_minima(self):
        land = get_landscape("exponential")
        assert land.minima == []
        # The infimum -1 is approached along the ridge.
        x = np.array([4.0, 4.0**2 * math.exp(-16.0)])
        assert land.oracle.value(x) < -0.99

    def test_highdim_minima(self):
        land = get_landscape("highdim-10")
        point, value = land.minima[0]
        assert value == pytest.approx(-1.0)
        assert point[0] == pytest.approx(2.0)
        assert np.allclose(point[1:], 0.0)


class TestNoiseWrappers:
    def test_with_noise_accepts_landscape_and_oracle(self):
        land = get_landscape("quartic")
        a = with_noise(land, 0.1)
        b = with_noise(land.oracle, 0.1)
        assert isinstance(a, AdditiveNoiseOracle)
        assert isinstance(b, AdditiveNoiseOracle)
        assert a.sigma == b.sigma == 0.1
        x = np.array([0.5, 0.5])
        assert a.mean.gradient(x) == pytest.approx(b.mean.gradient(x))

    def test_random_quadratic_noise_is_unbiased(self):
        land = get_landscape("cubic")
        oracle = RandomQuadraticNoiseOracle(land.oracle, sigma_b=0.3, sigma_a=0.2)
        x = np.array([0.4, -0.2])
        sample = oracle.mean_sampler(1, RngStream(0, 0), 20000)
        draws = np.array([sample(x, oracle.mean.gradient(x)) for _ in range(20000)])
        assert np.allclose(
            draws.mean(axis=0), oracle.mean.gradient(x), atol=0.02
        )

    def test_random_quadratic_noise_depends_on_x(self):
        # Unlike additive noise, shared-draw differences keep a residual here.
        land = get_landscape("cubic")
        oracle = RandomQuadraticNoiseOracle(land.oracle, sigma_b=0.0, sigma_a=1.0)
        x0 = np.zeros(2)
        x1 = np.array([0.5, 0.0])
        g0 = oracle.mean.gradient(x0)
        diff = oracle.diff_sampler(x0, g0, 1, RngStream(1, 1))(x1)
        exact = oracle.mean.gradient(x1) - g0
        assert not np.allclose(diff, exact, atol=1e-6)

    def test_random_quadratic_noise_entry_variances(self):
        # A = (R + R^T) / 2: the diagonal keeps sigma_a^2, the off-diagonal
        # entries have sigma_a^2 / 2.  With b = 0, x0 = 0 and x1 = e0 the
        # difference sampler's residual is A's first column.
        oracle = RandomQuadraticNoiseOracle(get_landscape("cubic").oracle, 0.0, 1.0)
        x0, x1 = np.zeros(2), np.array([1.0, 0.0])
        exact = oracle.mean.gradient(x1) - oracle.mean.gradient(x0)
        diff = oracle.diff_sampler(x0, oracle.mean.gradient(x0), 1, RngStream(3, 0))
        column = np.array([diff(x1) - exact for _ in range(20000)])
        assert column.var(axis=0) == pytest.approx([1.0, 0.5], rel=0.05)

    def test_random_quadratic_noise_memory_does_not_grow_with_m(self):
        # The mean of m thetas is drawn in closed form, n + n^2 floats per
        # call, not as m thetas (m (n + n^2) floats: about 24 MB here).
        oracle = RandomQuadraticNoiseOracle(get_landscape("highdim-5").oracle, 0.3, 0.2)
        x0, x1 = np.zeros(5), np.full(5, 0.1)
        g0, g1 = oracle.mean.gradient(x0), oracle.mean.gradient(x1)
        m = 10**5
        # numpy allocates about 1 MB the first time a Philox generator draws.
        RngStream(0, 2).gen.standard_normal(1)
        tracemalloc.start()
        try:
            oracle.diff_sampler(x0, g0, m, RngStream(0, 0))(x1)
            oracle.mean_sampler(m, RngStream(0, 1), 1)(x1, g1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    @pytest.mark.parametrize("name", ["sigma_b", "sigma_a"])
    @pytest.mark.parametrize("bad", [-0.1, math.nan, math.inf])
    def test_random_quadratic_noise_rejects_bad_scales(self, name, bad):
        # Each scale is checked by name, before anything is derived from it.
        scales = {"sigma_b": 1.0, "sigma_a": 1.0, name: bad}
        with pytest.raises(ParameterError, match=f"^{name} must be"):
            RandomQuadraticNoiseOracle(get_landscape("cubic").oracle, **scales)


# The 2-d formulas as they read before the landscapes evaluated on Python
# floats: unpacking x gives numpy scalars, so every operation is numpy scalar
# arithmetic.  They are the reference for the float path.
def _ref_quartic_f(x):
    x1, x2 = x
    return x1**4 / 16 - x1**2 / 2 + 9 / 8 * x2**2


def _ref_quartic_grad(x):
    x1, x2 = x
    return np.array([x1**3 / 4 - x1, 9 / 4 * x2])


def _ref_quartic_hess(x):
    x1, _ = x
    return np.diag([3 * x1**2 / 4 - 1, 9 / 4])


def _ref_cubic_f(x):
    x1, x2 = x
    return (x1**3 - x2**3) / 2 - 3 * x1 * x2 + (x1**2 + x2**2) ** 2 / 2


def _ref_cubic_grad(x):
    x1, x2 = x
    sq = x1**2 + x2**2
    return np.array([1.5 * x1**2 - 3 * x2 + 2 * x1 * sq, -1.5 * x2**2 - 3 * x1 + 2 * x2 * sq])


def _ref_cubic_hess(x):
    x1, x2 = x
    return np.array(
        [
            [3 * x1 + 6 * x1**2 + 2 * x2**2, -3 + 4 * x1 * x2],
            [-3 + 4 * x1 * x2, -3 * x2 + 2 * x1**2 + 6 * x2**2],
        ]
    )


def _ref_w(x1, x2):
    return x2 + (math.cos(2 * math.pi * x1) - 1) / 2


def _ref_triangle_f(x):
    x1, x2 = x
    return 0.5 * math.cos(math.pi * x1) + 0.5 * _ref_w(x1, x2) ** 2 - 0.5


def _ref_triangle_grad(x):
    x1, x2 = x
    pi = math.pi
    w = _ref_w(x1, x2)
    return np.array([-0.5 * pi * math.sin(pi * x1) - w * pi * math.sin(2 * pi * x1), w])


def _ref_triangle_hess(x):
    x1, x2 = x
    pi = math.pi
    w = _ref_w(x1, x2)
    s2 = math.sin(2 * pi * x1)
    c2 = math.cos(2 * pi * x1)
    h11 = -0.5 * pi**2 * math.cos(pi * x1) + pi**2 * s2**2 - 2 * pi**2 * w * c2
    h12 = -pi * s2
    return np.array([[h11, h12], [h12, 1.0]])


def _ref_exp_parts(x1):
    # These formulas hold only where hess's largest product of e^u, 4 u e^u,
    # is finite; past it the landscape takes the overflow pair (e^-u, 1).  At
    # u = inf (numpy scalars past Python's ** overflow) both give NaN.
    u = x1**2
    if math.isfinite(u) and 4 * u * math.exp(u) == math.inf:
        raise OverflowError("4 u e^u overflows")
    s = 1.0 / (1.0 + math.exp(u))
    p = u * math.exp(-u)
    return u, s, p


def _ref_exponential_f(x):
    x1, x2 = x
    u, s, p = _ref_exp_parts(x1)
    return s + 0.5 * (x2 - p) ** 2 - 1.0


def _ref_exponential_grad(x):
    x1, x2 = x
    u, s, p = _ref_exp_parts(x1)
    w = x2 - p
    eu = math.exp(u)
    dp = 2 * x1 * math.exp(-u) * (1 - u)
    return np.array([-2 * x1 * eu * s**2 - w * dp, w])


def _ref_exponential_hess(x):
    x1, x2 = x
    u, s, p = _ref_exp_parts(x1)
    w = x2 - p
    eu = math.exp(u)
    emu = math.exp(-u)
    h11 = (
        -2 * eu * s**2
        - 4 * x1**2 * eu * s**2 * (2 * s - 1)
        - 2 * (1 - u) * emu * w
        - 4 * x1**2 * w * emu * (u - 2)
        + 4 * x1**2 * (1 - u) ** 2 * emu**2
    )
    h12 = -2 * x1 * emu * (1 - u)
    return np.array([[h11, h12], [h12, 1.0]])


_REFERENCE = {
    "quartic": (_ref_quartic_f, _ref_quartic_grad, _ref_quartic_hess),
    "cubic": (_ref_cubic_f, _ref_cubic_grad, _ref_cubic_hess),
    "triangle": (_ref_triangle_f, _ref_triangle_grad, _ref_triangle_hess),
    "exponential": (_ref_exponential_f, _ref_exponential_grad, _ref_exponential_hess),
}
_LANDS = {name: get_landscape(name) for name in _REFERENCE}

# Coordinates from the saddle region out to magnitudes 1e-300 .. 1e300.
_COORD = st.one_of(
    st.floats(-40.0, 40.0),
    st.builds(
        lambda sign, m, e: sign * m * 10.0**e,
        st.sampled_from([-1.0, 1.0]),
        st.floats(1.0, 9.99),
        st.integers(-300, 299),
    ),
)


def _same_bits(a, b) -> bool:
    """Equal bit for bit (so -0.0 differs from 0.0), with NaN matching NaN."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    nan = np.isnan(a)
    return np.array_equal(nan, np.isnan(b)) and a[~nan].tobytes() == b[~nan].tobytes()


class TestFloatPath:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @settings(max_examples=400, deadline=None)
    @given(name=st.sampled_from(sorted(_REFERENCE)), x1=_COORD, x2=_COORD)
    def test_matches_numpy_scalar_formulas(self, name, x1, x2):
        land = _LANDS[name]
        x = np.array([x1, x2])
        for new, ref in zip((land.oracle.f, land.oracle.grad, land.hessian), _REFERENCE[name]):
            try:
                expected = ref(x)
            except OverflowError:
                # e^(x1^2), or 4 x1^2 e^(x1^2), overflowed; only exponential
                # computes it.
                assert name == "exponential"
                continue
            assert _same_bits(new(x), expected)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("name", sorted(_REFERENCE))
    def test_overflow_falls_back_to_numpy(self, name):
        # A square of 1e300 overflows: Python floats raise, numpy gives inf.
        land = _LANDS[name]
        x = np.array([1e300, 1e300])
        assert not math.isfinite(land.oracle.f(x))
        for new, ref in zip((land.oracle.f, land.oracle.grad, land.hessian), _REFERENCE[name]):
            assert _same_bits(new(x), ref(x))

    @pytest.mark.parametrize("x1", [26.7, -30.0, 1e3, 1e40])
    def test_exponential_evaluates_where_exp_overflows(self, x1):
        land = _LANDS["exponential"]
        x = np.array([x1, 0.3])
        with pytest.raises(OverflowError):
            _ref_exponential_f(x)
        # e^(-x1^2) is below the smallest normal double here, so the sigmoid
        # and ridge terms vanish: f = x2^2 / 2 - 1 and grad f = (0, x2).
        assert land.oracle.value(x) == pytest.approx(0.5 * 0.3**2 - 1.0, rel=1e-15)
        assert land.oracle.gradient(x) == pytest.approx([0.0, 0.3], abs=1e-300)
        assert land.hessian(x) == pytest.approx(np.diag([0.0, 1.0]), abs=1e-290)


def test_exponential_derivatives_are_finite_wherever_f_is():
    # Before the overflow pair took over at 4 u e^u, grad was NaN on
    # [26.568, 26.641] and hess on [26.493, 26.641] (x2 = 0.3).
    land = _LANDS["exponential"]
    bad = []
    for x1 in np.arange(20000, 60001) / 1000.0:
        x = np.array([x1, 0.3])
        if math.isfinite(land.oracle.value(x)) and not (
            np.isfinite(land.oracle.gradient(x)).all() and np.isfinite(land.hessian(x)).all()
        ):
            bad.append(x1)
    assert bad == []


_FUSED_IDS = sorted(_FACTORIES) + ["highdim-10", "highdim-1000"]
_FUSED_LANDS = {land_id: get_landscape(land_id) for land_id in _FUSED_IDS}
_SIGN = st.sampled_from([-1.0, 1.0])


@st.composite
def _fused_points(draw):
    """A landscape and a point: x1 in the box, -0.0, in exponential's band
    where 4 x1^2 e^(x1^2), then e^(x1^2), overflows (|x1| in [26.4, 27]), or
    beyond 30, out to where Python's ** overflows and the formulas fall back
    to numpy; the other entries in the box with some of them -0.0."""
    land_id = draw(st.sampled_from(_FUSED_IDS))
    land = _FUSED_LANDS[land_id]
    lo, hi = land.box
    x1 = draw(st.one_of(
        st.floats(lo, hi),
        st.just(-0.0),
        st.builds(lambda s, m: s * m, _SIGN, st.floats(26.4, 27.0)),
        st.builds(lambda s, m: s * m, _SIGN, st.floats(30.0, 1e3)),
        st.builds(lambda s, m, e: s * m * 10.0**e, _SIGN, st.floats(1.0, 9.99),
                  st.integers(2, 299)),
    ))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.uniform(lo, hi, land.dim)
    x[0] = x1
    x[1:][rng.random(land.dim - 1) < draw(st.sampled_from([0.0, 0.5, 1.0]))] = -0.0
    return land_id, x


class TestFusedPath:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @settings(max_examples=300, deadline=None)
    @given(case=_fused_points())
    def test_value_and_gradient_is_value_then_gradient(self, case):
        land_id, x = case
        oracle = _FUSED_LANDS[land_id].oracle
        assert oracle.f_and_grad is not None
        f, g = oracle.value_and_gradient(x)
        assert type(f) is float and g.dtype == float
        assert _same_bits(f, oracle.value(x))
        assert _same_bits(g, oracle.gradient(x))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("name, point", [
        ("quartic", [1e80, 0.5]), ("cubic", [1e80, 0.5]),
        ("triangle", [0.5, 1e200]), ("exponential", [0.5, 1e200]),
    ])
    def test_pair_falls_back_where_only_f_overflows(self, name, point):
        # On Python floats f's ** overflows here and grad's does not, so the
        # fused pair runs again on numpy scalars, grad included.
        ref_f, ref_grad, _ = _REFERENCE[name]
        with pytest.raises(OverflowError):
            ref_f(point)
        ref_grad(point)
        oracle = _LANDS[name].oracle
        x = np.array(point)
        f, g = oracle.value_and_gradient(x)
        assert _same_bits(f, oracle.value(x)) and _same_bits(g, oracle.gradient(x))
        assert _same_bits(f, ref_f(x)) and _same_bits(g, ref_grad(x))
        assert not math.isfinite(f)

    def test_plain_oracle_and_counting_oracle(self):
        land = get_landscape("quartic")
        o = land.oracle
        plain = GradientOracle(o.f, o.grad, o.spec, o.dim)
        counted = CountingOracle(plain)
        x = np.array([0.3, -0.0])
        f, g = counted.value_and_gradient(x)
        assert _same_bits(f, o.value(x)) and _same_bits(g, o.gradient(x))
        assert (counted.f_evals, counted.grad_evals) == (1, 1)


def _pair_outcome(query, x1, x2):
    """query(x1, x2) as a float array, or the type and message of the error
    it raised."""
    try:
        return np.asarray(query(x1, x2), dtype=float)
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)


def _same_outcome(a, b) -> bool:
    if isinstance(a, np.ndarray) and isinstance(b, np.ndarray):
        return _same_bits(a, b)
    return a == b


class TestFloatTwins:
    """Each float twin the planar steps query, against the array path it
    stands for: the same bits, NaN matching NaN, or the same error."""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @settings(max_examples=400, deadline=None)
    @given(name=st.sampled_from(sorted(_REFERENCE)), x1=st.floats(), x2=st.floats(),
           h1=st.floats(), h2=st.floats())
    # quartic's x1**3 overflows on Python floats, so the array path answers
    # with numpy's inf; exponential's e^(x1^2) overflows inside the formula
    # (|x1| > 26.5), which answers on floats; math.sin(inf) raises alike.
    @example(name="quartic", x1=1e103, x2=0.5, h1=0.0, h2=0.0)
    @example(name="exponential", x1=-27.0, x2=0.3, h1=1.0, h2=-0.0)
    @example(name="triangle", x1=math.inf, x2=0.0, h1=0.0, h2=0.0)
    def test_twins_match_the_array_path(self, name, x1, x2, h1, h2):
        oracle = _LANDS[name].oracle
        assert hasattr(oracle.grad, "twin")
        pair = _pair_outcome(oracle._gradient_pair, x1, x2)
        array = _pair_outcome(lambda a, b: oracle.gradient(np.array([a, b])), x1, x2)
        assert _same_outcome(pair, array)
        diff = with_noise(oracle, 0.5).diff_sampler(
            np.zeros(2), np.array([h1, h2]), 3, RngStream(0, 0))
        twin = _pair_outcome(diff.twin, x1, x2)
        assert _same_outcome(twin, _pair_outcome(lambda a, b: diff(np.array([a, b])), x1, x2))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_twin_falls_back_to_numpy(self):
        oracle = _LANDS["quartic"].oracle
        with pytest.raises(OverflowError):
            oracle.grad.twin(1e103, 0.5)
        assert oracle._gradient_pair(1e103, 0.5) == [math.inf, 1.125]

    def test_counting_oracle_bills_one_gradient_per_pair(self):
        counted = CountingOracle(_LANDS["cubic"].oracle)
        pair = counted._gradient_pair(0.3, -0.0)
        assert _same_bits(pair, counted.inner.gradient(np.array([0.3, -0.0])))
        assert (counted.f_evals, counted.grad_evals) == (0, 1)

    def test_twinless_difference_samplers(self):
        # Only the additive model's difference, over a g0 of two floats,
        # carries a twin.
        oracle = _LANDS["cubic"].oracle
        x0, g0 = np.zeros(2), oracle.gradient(np.zeros(2))
        stream = RngStream(0, 0)
        assert not hasattr(
            RandomQuadraticNoiseOracle(oracle, 0.1, 0.1).diff_sampler(x0, g0, 1, stream), "twin")
        assert not hasattr(with_noise(oracle, 0.1).diff_sampler(x0, list(g0), 1, stream), "twin")
        highdim = get_landscape("highdim-3").oracle
        assert not hasattr(highdim.grad, "twin")
        assert not hasattr(
            with_noise(highdim, 0.1).diff_sampler(np.zeros(3), np.zeros(3), 1, stream), "twin")

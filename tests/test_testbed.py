"""Analytic landscapes: declared structure versus independent numerics."""

import math

import numpy as np
import pytest

from saddlescape import (
    AdditiveNoiseOracle,
    ParameterError,
    RngStream,
    get_landscape,
    registry_ids,
    with_noise,
    with_random_quadratic_noise,
)
from saddlescape.core import GradientOracle
from saddlescape.testbed import _FACTORIES, VERIFY_IDS, Landscape
from saddlescape.verify import dense_hessian, dense_hessian_eig


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
        ids = registry_ids()
        for land_id in VERIFY_IDS:
            assert land_id in ids or land_id.startswith("highdim")

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

    def test_construction_makes_no_oracle_calls(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("oracle or self_check called during construction")

        monkeypatch.setattr(Landscape, "self_check", refuse)
        monkeypatch.setattr(GradientOracle, "value", refuse)
        monkeypatch.setattr(GradientOracle, "gradient", refuse)
        for land_id in ALL_IDS:
            assert get_landscape(land_id).id == land_id

    def test_instances_are_fresh(self):
        a = get_landscape("quartic")
        b = get_landscape("quartic")
        assert a is not b


class TestDeclaredStructure:
    @pytest.mark.parametrize("land_id", ALL_IDS)
    def test_self_check_passes(self, land_id):
        get_landscape(land_id).self_check()

    def test_gradient_matches_fd(self, landscape):
        stream = RngStream(5, 0).substream(landscape.id)
        lo, hi = landscape.box
        for _ in range(10):
            x = stream.gen.uniform(lo, hi, size=landscape.dim)
            g = landscape.oracle.gradient(x)
            fd = _fd_grad(landscape.oracle, x)
            assert np.linalg.norm(g - fd) <= 1e-4 * max(1.0, np.linalg.norm(g))

    def test_analytic_hessian_matches_fd(self, landscape):
        if landscape.hessian is None:
            pytest.skip("no analytic Hessian declared")
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
            report = dense_hessian_eig(landscape.oracle, sad.point)
            assert report.lambda_min == pytest.approx(sad.lambda_min, rel=1e-3)
            gap = 1.0 - abs(
                float(np.dot(report.direction, sad.direction))
                / np.linalg.norm(sad.direction)
            )
            assert gap <= 1e-4

    def test_minima_are_minima(self, landscape):
        for point, value in landscape.minima:
            assert landscape.oracle.value(point) == pytest.approx(value, abs=1e-9)
            assert np.linalg.norm(landscape.oracle.gradient(point)) <= 1e-7
            H = (
                landscape.hessian(point)
                if landscape.hessian is not None
                else dense_hessian(landscape.oracle, point)
            )
            assert float(np.linalg.eigvalsh(H)[0]) >= -1e-6

    def test_global_smoothness_bound_sampled(self, landscape):
        stream = RngStream(7, 0).substream(landscape.id)
        lo, hi = landscape.box
        ell = landscape.oracle.spec.ell
        for _ in range(25):
            x = stream.gen.uniform(lo, hi, size=landscape.dim)
            H = (
                landscape.hessian(x)
                if landscape.hessian is not None
                else dense_hessian(landscape.oracle, x)
            )
            assert float(np.max(np.abs(np.linalg.eigvalsh(H)))) <= ell * 1.001

    def test_hessian_lipschitz_bound_sampled(self, landscape):
        stream = RngStream(8, 0).substream(landscape.id)
        lo, hi = landscape.box
        rho = landscape.oracle.spec.rho
        hess = landscape.hessian
        if hess is None:
            pytest.skip("no analytic Hessian declared")
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
                H = (
                    landscape.hessian(x)
                    if landscape.hessian is not None
                    else dense_hessian(landscape.oracle, x)
                )
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
        assert a.mean_gradient(x) == pytest.approx(b.mean_gradient(x))

    def test_random_quadratic_noise_is_unbiased(self):
        land = get_landscape("cubic")
        oracle = with_random_quadratic_noise(land, sigma_b=0.3, sigma_a=0.2)
        x = np.array([0.4, -0.2])
        stream = RngStream(0, 0)
        draws = np.array([oracle.sample(x, stream) for _ in range(20000)])
        assert np.allclose(
            draws.mean(axis=0), oracle.mean_gradient(x), atol=0.02
        )

    def test_random_quadratic_noise_depends_on_x(self):
        # Unlike additive noise, shared-draw differences keep a residual here.
        land = get_landscape("cubic")
        oracle = with_random_quadratic_noise(land, sigma_b=0.0, sigma_a=1.0)
        x0 = np.zeros(2)
        x1 = np.array([0.5, 0.0])
        diff = oracle.minibatch_diff(x0, x1, 1, RngStream(1, 1))
        exact = oracle.mean_gradient(x1) - oracle.mean_gradient(x0)
        assert not np.allclose(diff, exact, atol=1e-6)

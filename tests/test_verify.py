"""Independent curvature verification: finite differences, the stationarity
test, and the gradient-only power method checked against them."""

import dataclasses
import math

import numpy as np
import pytest

from saddlescape import (
    CountingOracle,
    GradientOracle,
    NCParams,
    ParameterError,
    RngStream,
    SmoothnessSpec,
    classify,
    dense_hessian,
    fd_quadform,
    get_landscape,
    nc_find,
    run_verify,
)
from saddlescape import verify
from saddlescape.verify import DENSE_CAP, MAX_VERIFY_DIM, default_step

from conftest import bits, make_quadratic, relabel


class TestFdQuadform:
    def test_exact_on_quadratic(self, quad5):
        e = np.array([1.0, 1.0, 0.0, -1.0, 0.5])
        e_unit = e / np.linalg.norm(e)
        exact = float(np.dot(e_unit, np.array([-2.0, -0.5, 0.3, 1.0, 3.0]) * e_unit))
        for h in (1e-2, 1e-4, 1e-6):
            assert fd_quadform(quad5, np.zeros(5), e, h=h) == pytest.approx(
                exact, abs=1e-9
            )

    def test_direction_is_normalized_internally(self, quad2):
        x = np.zeros(2)
        small = fd_quadform(quad2, x, np.array([1e-3, 0.0]))
        large = fd_quadform(quad2, x, np.array([1e3, 0.0]))
        assert small == pytest.approx(large, abs=1e-9)
        assert small == pytest.approx(-1.0, abs=1e-9)

    def test_zero_direction_rejected(self, quad2):
        with pytest.raises(ParameterError):
            fd_quadform(quad2, np.zeros(2), np.zeros(2))

    def test_error_shrinks_at_least_linearly(self):
        # On a Hessian-Lipschitz landscape the quadform error is O(h); halving
        # h should at least halve the error, up to a small absolute floor.
        land = get_landscape("cubic")
        x = np.array([0.3, 0.2])
        e = np.array([1.0, 1.0]) / math.sqrt(2.0)
        exact = float(e @ land.hessian(x) @ e)
        errs = [abs(fd_quadform(land.oracle, x, e, h=h) - exact) for h in (0.2, 0.1, 0.05)]
        for big, small in zip(errs, errs[1:]):
            assert small <= 0.55 * big + 1e-9


class TestDenseHessian:
    def test_matches_analytic(self):
        for land_id in ("quartic", "cubic", "triangle", "exponential"):
            land = get_landscape(land_id)
            stream = RngStream(3, 0).substream(land_id)
            lo, hi = land.box
            for _ in range(3):
                x = stream.gen.uniform(lo, hi, size=2)
                H = dense_hessian(land.oracle, x)
                assert np.allclose(H, land.hessian(x), atol=1e-5, rtol=1e-5)

    def test_symmetric_output(self, quad5):
        H = dense_hessian(quad5, np.ones(5))
        assert np.array_equal(H, H.T)

    def test_dimension_cap(self):
        n = DENSE_CAP + 1
        big = GradientOracle(
            f=lambda x: 0.5 * float(x @ x),
            grad=lambda x: np.asarray(x, dtype=float),
            spec=SmoothnessSpec(1.0, 1.0),
            dim=n,
        )
        with pytest.raises(ParameterError):
            dense_hessian(big, np.zeros(n))


def _bottom_eigenvalue(oracle, x):
    return float(np.linalg.eigvalsh(dense_hessian(oracle, x))[0])


class TestEigpair:
    def test_known_spectrum(self, quad5):
        eigs = np.linalg.eigvalsh(dense_hessian(quad5, np.zeros(5)))
        assert eigs == pytest.approx([-2.0, -0.5, 0.3, 1.0, 3.0], abs=1e-6)

    def test_triangle_saddle(self):
        land = get_landscape("triangle")
        lam = _bottom_eigenvalue(land.oracle, land.saddles[0].point)
        assert lam == pytest.approx(-math.pi**2 / 2, rel=1e-3)

    def test_repeated_bottom_eigenvalue(self):
        eigs = np.linalg.eigvalsh(dense_hessian(make_quadratic([-1.0, -1.0, 2.0]), np.zeros(3)))
        assert eigs == pytest.approx([-1.0, -1.0, 2.0], abs=1e-6)


class TestClassify:
    def test_minimum_is_sosp(self):
        land = get_landscape("quartic")
        verdict = classify(land.oracle, np.array([2.0, 0.0]), eps=1e-3, rho=4.5)
        assert verdict.is_sosp
        assert verdict.grad_ok and verdict.curv_ok
        assert verdict.threshold == pytest.approx(-math.sqrt(4.5e-3))

    def test_saddle_is_not_sosp(self):
        land = get_landscape("quartic")
        verdict = classify(land.oracle, np.zeros(2), eps=1e-3, rho=1.0)
        assert verdict.grad_ok
        assert not verdict.curv_ok
        assert not verdict.is_sosp
        assert verdict.lambda_min == pytest.approx(-1.0, abs=1e-5)

    def test_nonstationary_point(self):
        land = get_landscape("quartic")
        verdict = classify(land.oracle, np.array([1.0, 1.0]), eps=1e-3)
        assert not verdict.grad_ok
        assert not verdict.is_sosp

    def test_eps_validation(self, quad2):
        with pytest.raises(ParameterError):
            classify(quad2, np.zeros(2), eps=0.0)

    @pytest.mark.parametrize(
        "x", [[0.0, 0.0], [2.0, 0.0], [1.0, 1.0]], ids=["saddle", "minimum", "slope"]
    )
    def test_one_gradient_and_one_pair_per_axis(self, x):
        # The gradient at x and the dense Hessian's 2n differences, and no
        # more; every field is the bits of the verdict on eigh's spectrum.
        land = get_landscape("quartic")
        x, counted = np.array(x), CountingOracle(land.oracle)
        verdict = classify(counted, x, eps=1e-3)
        assert (counted.grad_evals, counted.f_evals) == (1 + 2 * land.dim, 0)
        h = default_step(x)
        lam = float(np.linalg.eigh(dense_hessian(land.oracle, x, h))[0][0])
        grad_norm = float(np.linalg.norm(land.oracle.gradient(x)))
        ref = verify._verdict(grad_norm, lam, h, 1e-3, land.oracle.spec.rho)
        assert bits(dataclasses.astuple(verdict)) == bits(dataclasses.astuple(ref))


def _power_estimate(oracle, x, steps, seed):
    """nc_find's direction from x at a vanishing probe radius, scored by
    fd_quadform: the gradient-only estimate of the bottom eigenpair."""
    radius = 1e-5 * max(1.0, float(np.linalg.norm(x)))
    params = NCParams(
        steps=steps, radius=radius, eps=0.1, ell=oracle.spec.ell, rho=oracle.spec.rho
    )
    e_hat = nc_find(oracle, x, params, RngStream(seed, 0)).e_hat
    return fd_quadform(oracle, x, e_hat), e_hat


class TestGradPower:
    def test_quartic_saddle(self):
        land = get_landscape("quartic")
        oracle = relabel(land.oracle, land.saddles[0].ell_local, land.saddles[0].rho_local)
        lam, e_hat = _power_estimate(oracle, land.saddles[0].point, 300, 0)
        assert lam == pytest.approx(-1.0, abs=0.05)
        assert abs(e_hat[0]) >= 0.99

    def test_agrees_with_dense_on_quadratic(self, quad5):
        lam, _ = _power_estimate(quad5, np.zeros(5), 400, 1)
        assert lam == pytest.approx(_bottom_eigenvalue(quad5, np.zeros(5)), abs=1e-6)

    def test_works_beyond_dense_cap(self):
        land = get_landscape("highdim-300")
        sad = land.saddles[0]
        oracle = relabel(land.oracle, sad.ell_local, sad.rho_local)
        lam, _ = _power_estimate(oracle, sad.point, 400, 2)
        assert lam == pytest.approx(-1.0, abs=0.05)

    def test_refuses_a_probe_scale_that_underflows(self):
        # The search divides by radius * ell, which is 0 in floats here even
        # though the subnormal radius itself is positive; the estimate's
        # params refuse it before any gradient is queried.
        oracle = make_quadratic([-1.0, 1.0], ell=1e-10)
        with pytest.raises(ParameterError, match=r"^radius 1e-320 times ell 1e-10 underflows"):
            NCParams(steps=3, radius=1e-320, eps=0.1, ell=oracle.spec.ell, rho=oracle.spec.rho)


class TestDefaultStep:
    def test_scales_with_norm(self):
        base = default_step(np.zeros(3))
        scaled = default_step(1e4 * np.ones(3))
        assert base > 0
        assert scaled > base
        assert base == pytest.approx(np.finfo(float).eps ** (1 / 3), rel=1e-12)


class TestVerifyCap:
    def test_dimension_above_the_cap_is_refused_before_any_audit(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a landscape was audited")

        monkeypatch.setattr(verify, "_fd_gradient", refuse)
        with pytest.raises(ParameterError, match=rf"\bn={MAX_VERIFY_DIM + 1}\b"):
            run_verify(ids=["quartic", f"highdim-{MAX_VERIFY_DIM + 1}"])

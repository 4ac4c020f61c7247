"""Analytic test landscapes with known saddles, minima, and smoothness bounds."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .core import (
    AdditiveNoiseOracle,
    Array,
    GradientOracle,
    ParameterError,
    SmoothnessSpec,
    StochasticOracle,
)

__all__ = [
    "SaddleInfo",
    "Landscape",
    "make_quartic",
    "make_cubic_stochastic",
    "make_triangle",
    "make_exponential",
    "make_highdim",
    "with_noise",
    "RandomQuadraticNoiseOracle",
    "with_random_quadratic_noise",
    "get_landscape",
    "registry_ids",
    "VERIFY_IDS",
]


@dataclass(frozen=True)
class SaddleInfo:
    """A strict saddle: location, most-negative eigenpair, local constants.

    ell_local/rho_local are valid on a small ball around the point and are
    the bounds negative-curvature routines should be parameterized with.
    """

    point: Array
    lambda_min: float
    direction: Array
    ell_local: float
    rho_local: float


@dataclass
class Landscape:
    """An analytic test function with documented structure on a box."""

    id: str
    oracle: GradientOracle
    box: tuple[float, float]
    saddles: list[SaddleInfo]
    minima: list[tuple[Array, float]]
    hessian: Callable[[Array], Array] | None = None
    notes: str = ""

    @property
    def dim(self) -> int:
        return self.oracle.dim

    def self_check(self) -> None:
        """Cheap construction-time sanity: critical points and FD gradient."""
        for sad in self.saddles:
            g = self.oracle.gradient(sad.point)
            if float(np.linalg.norm(g)) > 1e-9:
                raise AssertionError(f"{self.id}: saddle gradient not zero: {g}")
        for point, value in self.minima:
            g = self.oracle.gradient(point)
            if float(np.linalg.norm(g)) > 1e-7:
                raise AssertionError(f"{self.id}: minimum gradient not zero: {g}")
            if abs(self.oracle.value(point) - value) > 1e-9:
                raise AssertionError(f"{self.id}: minimum value mismatch")
        rng = np.random.default_rng(0)
        lo, hi = self.box
        h = 1e-6
        for _ in range(3):
            x = rng.uniform(lo, hi, size=self.dim)
            g = self.oracle.gradient(x)
            fd = np.empty_like(g)
            for i in range(self.dim):
                e = np.zeros(self.dim)
                e[i] = h
                fd[i] = (self.oracle.value(x + e) - self.oracle.value(x - e)) / (2 * h)
            if float(np.linalg.norm(fd - g)) > 1e-4 * max(1.0, float(np.linalg.norm(g))):
                raise AssertionError(f"{self.id}: gradient/value mismatch at {x}")


def make_quartic() -> Landscape:
    """Even 2-d quartic: saddle at the origin, minima at (+-2, 0)."""

    def f(x: Array) -> float:
        x1, x2 = x
        return x1**4 / 16 - x1**2 / 2 + 9 / 8 * x2**2

    def grad(x: Array) -> Array:
        x1, x2 = x
        return np.array([x1**3 / 4 - x1, 9 / 4 * x2])

    def hess(x: Array) -> Array:
        x1, _ = x
        return np.diag([3 * x1**2 / 4 - 1, 9 / 4])

    oracle = GradientOracle(f, grad, SmoothnessSpec(ell=5.75, rho=4.5), dim=2, name="quartic")
    land = Landscape(
        id="quartic",
        oracle=oracle,
        box=(-3.0, 3.0),
        saddles=[
            SaddleInfo(
                point=np.zeros(2),
                lambda_min=-1.0,
                direction=np.array([1.0, 0.0]),
                ell_local=3.0,
                rho_local=1.0,
            )
        ],
        minima=[(np.array([2.0, 0.0]), -1.0), (np.array([-2.0, 0.0]), -1.0)],
        hessian=hess,
        notes="ell/rho hold on the box; local constants hold within 0.5 of the saddle",
    )
    land.self_check()
    return land


# Interior minimum of the cubic landscape, found by damped Newton and polished
# to machine precision; its mirror image under (x1, x2) -> (-x2, -x1) is the
# other minimum.
_CUBIC_MIN = np.array([0.7233516518512052, 1.1332042263636684])
_CUBIC_MIN_F = -1.3641479081703338


def make_cubic_stochastic() -> Landscape:
    """Cubic-plus-quartic 2-d landscape whose saddle has off-axis curvature."""

    def f(x: Array) -> float:
        x1, x2 = x
        return (x1**3 - x2**3) / 2 - 3 * x1 * x2 + (x1**2 + x2**2) ** 2 / 2

    def grad(x: Array) -> Array:
        x1, x2 = x
        sq = x1**2 + x2**2
        return np.array(
            [1.5 * x1**2 - 3 * x2 + 2 * x1 * sq, -1.5 * x2**2 - 3 * x1 + 2 * x2 * sq]
        )

    def hess(x: Array) -> Array:
        x1, x2 = x
        return np.array(
            [
                [3 * x1 + 6 * x1**2 + 2 * x2**2, -3 + 4 * x1 * x2],
                [-3 + 4 * x1 * x2, -3 * x2 + 2 * x1**2 + 6 * x2**2],
            ]
        )

    oracle = GradientOracle(f, grad, SmoothnessSpec(ell=35.0, rho=30.0), dim=2, name="cubic")
    inv2 = 1.0 / math.sqrt(2.0)
    mirror = np.array([-_CUBIC_MIN[1], -_CUBIC_MIN[0]])
    land = Landscape(
        id="cubic",
        oracle=oracle,
        box=(-1.5, 1.5),
        saddles=[
            SaddleInfo(
                point=np.zeros(2),
                lambda_min=-3.0,
                direction=np.array([inv2, inv2]),
                ell_local=4.0,
                rho_local=5.0,
            )
        ],
        minima=[(_CUBIC_MIN.copy(), _CUBIC_MIN_F), (mirror, _CUBIC_MIN_F)],
        hessian=hess,
        notes="local constants hold within 0.1 of the saddle",
    )
    land.self_check()
    return land


def make_triangle() -> Landscape:
    """Cosine ridge landscape: deep negative curvature at the origin saddle."""

    pi = math.pi

    def _w(x1: float, x2: float) -> float:
        return x2 + (math.cos(2 * pi * x1) - 1) / 2

    def f(x: Array) -> float:
        x1, x2 = x
        return 0.5 * math.cos(pi * x1) + 0.5 * _w(x1, x2) ** 2 - 0.5

    def grad(x: Array) -> Array:
        x1, x2 = x
        w = _w(x1, x2)
        return np.array(
            [-0.5 * pi * math.sin(pi * x1) - w * pi * math.sin(2 * pi * x1), w]
        )

    def hess(x: Array) -> Array:
        x1, x2 = x
        w = _w(x1, x2)
        s2 = math.sin(2 * pi * x1)
        c2 = math.cos(2 * pi * x1)
        h11 = -0.5 * pi**2 * math.cos(pi * x1) + pi**2 * s2**2 - 2 * pi**2 * w * c2
        h12 = -pi * s2
        return np.array([[h11, h12], [h12, 1.0]])

    oracle = GradientOracle(f, grad, SmoothnessSpec(ell=55.0, rho=380.0), dim=2, name="triangle")
    land = Landscape(
        id="triangle",
        oracle=oracle,
        box=(-1.5, 1.5),
        saddles=[
            SaddleInfo(
                point=np.zeros(2),
                lambda_min=-pi**2 / 2,
                direction=np.array([1.0, 0.0]),
                ell_local=7.0,
                rho_local=40.0,
            )
        ],
        minima=[(np.array([1.0, 0.0]), -1.0), (np.array([-1.0, 0.0]), -1.0)],
        hessian=hess,
        notes="local constants hold within 0.01 of the saddle",
    )
    land.self_check()
    return land


def make_exponential() -> Landscape:
    """Sigmoid-plus-ridge landscape: weak curvature, no finite minimum."""

    def _parts(x1: float):
        u = x1**2
        s = 1.0 / (1.0 + math.exp(u))
        p = u * math.exp(-u)
        return u, s, p

    def f(x: Array) -> float:
        x1, x2 = x
        u, s, p = _parts(x1)
        return s + 0.5 * (x2 - p) ** 2 - 1.0

    def grad(x: Array) -> Array:
        x1, x2 = x
        u, s, p = _parts(x1)
        w = x2 - p
        eu = math.exp(u)
        dp = 2 * x1 * math.exp(-u) * (1 - u)
        return np.array([-2 * x1 * eu * s**2 - w * dp, w])

    def hess(x: Array) -> Array:
        x1, x2 = x
        u, s, p = _parts(x1)
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

    oracle = GradientOracle(f, grad, SmoothnessSpec(ell=8.0, rho=16.0), dim=2, name="exponential")
    land = Landscape(
        id="exponential",
        oracle=oracle,
        box=(-2.0, 2.0),
        saddles=[
            SaddleInfo(
                point=np.zeros(2),
                lambda_min=-0.5,
                direction=np.array([1.0, 0.0]),
                ell_local=2.0,
                rho_local=4.0,
            )
        ],
        minima=[],
        hessian=hess,
        notes="infimum -1 approached as |x1| grows along the ridge x2 = x1^2 exp(-x1^2)",
    )
    land.self_check()
    return land


def make_highdim(n: int, eps_h: float = 1.0) -> Landscape:
    """Quadratic with one negative direction plus a quartic bowl along it.

    eps_h is the magnitude of the single negative eigenvalue.  The reference
    setting uses eps_h = 1.0; a nearly flat variant (eps_h = 0.01) is exposed
    as the '-soft' preset because both settings appear in accounts of this
    family.
    """

    if n < 2:
        raise ParameterError(f"highdim landscape needs n >= 2, got {n}")
    if eps_h <= 0:
        raise ParameterError(f"eps_h must be positive, got {eps_h}")

    diag = np.ones(n)
    diag[0] = -eps_h

    def f(x: Array) -> float:
        return 0.5 * float(np.dot(x, diag * x)) + x[0] ** 4 / 16

    def grad(x: Array) -> Array:
        g = diag * x
        g[0] += x[0] ** 3 / 4
        return g

    def hess(x: Array) -> Array:
        h = np.diag(diag.copy())
        h[0, 0] += 3 * x[0] ** 2 / 4
        return h

    ell = max(1.0, 6.75 - eps_h)
    x_min = 2 * math.sqrt(eps_h)
    oracle = GradientOracle(
        f, grad, SmoothnessSpec(ell=ell, rho=4.5), dim=n, name=f"highdim-{n}"
    )
    e1 = np.zeros(n)
    e1[0] = 1.0
    land = Landscape(
        id=f"highdim-{n}" + ("" if eps_h == 1.0 else "-soft"),
        oracle=oracle,
        box=(-3.0, 3.0),
        saddles=[
            SaddleInfo(
                point=np.zeros(n),
                lambda_min=-eps_h,
                direction=e1.copy(),
                ell_local=max(1.0, eps_h) + 1.0,
                rho_local=1.0,
            )
        ],
        minima=[
            (x_min * e1, -eps_h**2),
            (-x_min * e1, -eps_h**2),
        ],
        hessian=hess,
        notes="analytic Hessian supplied for dimensions beyond the dense verification cap",
    )
    land.self_check()
    return land


def with_noise(landscape: Landscape | GradientOracle, sigma: float, exact_batches: bool = True) -> AdditiveNoiseOracle:
    """Additive-Gaussian stochastic oracle over a landscape's gradient."""
    oracle = landscape.oracle if isinstance(landscape, Landscape) else landscape
    return AdditiveNoiseOracle(oracle, sigma, exact_batches=exact_batches)


class RandomQuadraticNoiseOracle(StochasticOracle):
    """Finite-sum-style noise: g(x; theta) = grad f(x) + b + A x.

    b has i.i.d. N(0, sigma_b^2) coordinates and A is a symmetric matrix with
    N(0, sigma_a^2) entries, so each realized sample is the gradient of a
    random quadratic perturbation of f.  Unlike the additive model, batch
    size genuinely matters here.
    """

    def __init__(self, mean: GradientOracle, sigma_b: float, sigma_a: float):
        n = mean.dim
        sigma = sigma_b + 3 * sigma_a * math.sqrt(n)  # valid near the origin box
        ell_tilde = mean.spec.ell + 3 * sigma_a * n
        super().__init__(mean, sigma, ell_tilde)
        self.sigma_b = float(sigma_b)
        self.sigma_a = float(sigma_a)

    def draw_theta(self, stream, m: int) -> Array:
        n = self.dim
        b = self.sigma_b * stream.gen.standard_normal((m, n))
        raw = self.sigma_a * stream.gen.standard_normal((m, n, n))
        a = (raw + np.swapaxes(raw, 1, 2)) / 2
        return np.concatenate([b[:, :, None], a], axis=2)  # (m, n, 1 + n)

    def grad_at(self, x: Array, thetas: Array) -> Array:
        b = thetas[:, :, 0]
        a = thetas[:, :, 1:]
        return self.mean.gradient(x)[None, :] + b + a @ x


def with_random_quadratic_noise(
    landscape: Landscape | GradientOracle, sigma_b: float, sigma_a: float
) -> RandomQuadraticNoiseOracle:
    oracle = landscape.oracle if isinstance(landscape, Landscape) else landscape
    return RandomQuadraticNoiseOracle(oracle, sigma_b, sigma_a)


_FACTORIES: dict[str, Callable[[], Landscape]] = {
    "quartic": make_quartic,
    "cubic": make_cubic_stochastic,
    "triangle": make_triangle,
    "exponential": make_exponential,
}

# Landscapes covered by the certification suite (dense Hessian path).
VERIFY_IDS = ["quartic", "cubic", "triangle", "exponential", "highdim-10"]


def get_landscape(land_id: str) -> Landscape:
    """Look up a landscape by id; highdim ids encode the dimension."""
    if land_id in _FACTORIES:
        return _FACTORIES[land_id]()
    if land_id.startswith("highdim-"):
        rest = land_id[len("highdim-") :]
        soft = rest.endswith("-soft")
        if soft:
            rest = rest[: -len("-soft")]
        try:
            n = int(rest)
        except ValueError:
            raise ParameterError(f"bad highdim landscape id: {land_id!r}")
        return make_highdim(n, eps_h=0.01 if soft else 1.0)
    raise ParameterError(f"unknown landscape id: {land_id!r}")


def registry_ids() -> list[str]:
    return sorted(_FACTORIES) + ["highdim-<n>", "highdim-<n>-soft"]

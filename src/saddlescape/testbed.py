"""Analytic test landscapes with known saddles, minima, and smoothness bounds."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import (
    AdditiveNoiseOracle,
    Array,
    GradientOracle,
    ParameterError,
    SmoothnessSpec,
    StochasticOracle,
    _is_number,
    require_count,
    require_nonnegative,
    require_positive,
)


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
    """An analytic test function, its Hessian and its documented structure on a box."""

    id: str
    oracle: GradientOracle
    box: tuple[float, float]
    saddles: list[SaddleInfo]
    minima: list[tuple[Array, float]]
    hessian: Callable[[Array], Array]

    @property
    def dim(self) -> int:
        return self.oracle.dim


def _on_floats(formula: Callable[[float, float], object]) -> Callable[[Array], object]:
    """Evaluate formula(x1, x2) at a 2-d point on its Python floats.

    Python float arithmetic rounds exactly as numpy scalar arithmetic does,
    at a fraction of the cost, but ``**`` raises OverflowError where numpy
    returns inf or nan.  The formula then runs again on numpy scalars, so an
    overflowing point gets the same non-finite result (and warnings) as it
    would without the float path.
    """

    def evaluate(x: Array):
        x1, x2 = x.tolist()
        try:
            return formula(x1, x2)
        except OverflowError:
            return formula(x[0], x[1])

    return evaluate


def _planar(
    land_id: str, f: Callable[[float, float], float], grad: Callable[[float, float], Array],
    hess: Callable[[float, float], Array], spec: SmoothnessSpec, box: tuple[float, float],
    saddle: dict, minima: list[tuple[Array, float]],
) -> Landscape:
    """A 2-d landscape from its formulas on Python floats and its declared
    structure: one saddle at the origin (the SaddleInfo fields other than
    point), the minima and the box.  f, grad, hess and the fused pair
    f_and_grad, which unpacks the point once for both, each run through
    _on_floats, so the pair is bit for bit the two separate calls."""

    def f_and_grad(x1: float, x2: float) -> tuple:
        return f(x1, x2), grad(x1, x2)

    oracle = GradientOracle(_on_floats(f), _on_floats(grad), spec, 2, _on_floats(f_and_grad))
    return Landscape(
        id=land_id, oracle=oracle, box=box, saddles=[SaddleInfo(point=np.zeros(2), **saddle)],
        minima=minima, hessian=_on_floats(hess),
    )


def make_quartic() -> Landscape:
    """Even 2-d quartic: saddle at the origin, minima at (+-2, 0).  ell and
    rho hold on the box; the local constants hold within 0.5 of the saddle."""

    def f(x1: float, x2: float) -> float:
        return x1**4 / 16 - x1**2 / 2 + 9 / 8 * x2**2

    def grad(x1: float, x2: float) -> Array:
        return np.array([x1**3 / 4 - x1, 9 / 4 * x2])

    def hess(x1: float, x2: float) -> Array:
        return np.diag([3 * x1**2 / 4 - 1, 9 / 4])

    return _planar(
        "quartic", f, grad, hess, SmoothnessSpec(ell=5.75, rho=4.5), box=(-3.0, 3.0),
        saddle=dict(lambda_min=-1.0, direction=np.array([1.0, 0.0]), ell_local=3.0, rho_local=1.0),
        minima=[(np.array([2.0, 0.0]), -1.0), (np.array([-2.0, 0.0]), -1.0)],
    )


# Interior minimum of the cubic landscape, found by damped Newton and polished
# to machine precision; its mirror image under (x1, x2) -> (-x2, -x1) is the
# other minimum.
_CUBIC_MIN = np.array([0.7233516518512052, 1.1332042263636684])
_CUBIC_MIN_F = -1.3641479081703338


def make_cubic_stochastic() -> Landscape:
    """Cubic-plus-quartic 2-d landscape whose saddle has off-axis curvature;
    the local constants hold within 0.1 of the saddle."""

    def f(x1: float, x2: float) -> float:
        return (x1**3 - x2**3) / 2 - 3 * x1 * x2 + (x1**2 + x2**2) ** 2 / 2

    def grad(x1: float, x2: float) -> Array:
        sq = x1**2 + x2**2
        return np.array(
            [1.5 * x1**2 - 3 * x2 + 2 * x1 * sq, -1.5 * x2**2 - 3 * x1 + 2 * x2 * sq]
        )

    def hess(x1: float, x2: float) -> Array:
        return np.array(
            [
                [3 * x1 + 6 * x1**2 + 2 * x2**2, -3 + 4 * x1 * x2],
                [-3 + 4 * x1 * x2, -3 * x2 + 2 * x1**2 + 6 * x2**2],
            ]
        )

    inv2 = 1.0 / math.sqrt(2.0)
    mirror = np.array([-_CUBIC_MIN[1], -_CUBIC_MIN[0]])
    return _planar(
        "cubic", f, grad, hess, SmoothnessSpec(ell=35.0, rho=30.0), box=(-1.5, 1.5),
        saddle=dict(lambda_min=-3.0, direction=np.array([inv2, inv2]), ell_local=4.0,
                    rho_local=5.0),
        minima=[(_CUBIC_MIN.copy(), _CUBIC_MIN_F), (mirror, _CUBIC_MIN_F)],
    )


def make_triangle() -> Landscape:
    """Cosine ridge landscape: deep negative curvature at the origin saddle;
    the local constants hold within 0.01 of the saddle."""

    pi = math.pi

    def _w(x1: float, x2: float) -> float:
        return x2 + (math.cos(2 * pi * x1) - 1) / 2

    def f(x1: float, x2: float) -> float:
        return 0.5 * math.cos(pi * x1) + 0.5 * _w(x1, x2) ** 2 - 0.5

    def grad(x1: float, x2: float) -> Array:
        w = _w(x1, x2)
        return np.array(
            [-0.5 * pi * math.sin(pi * x1) - w * pi * math.sin(2 * pi * x1), w]
        )

    def hess(x1: float, x2: float) -> Array:
        w = _w(x1, x2)
        s2 = math.sin(2 * pi * x1)
        c2 = math.cos(2 * pi * x1)
        h11 = -0.5 * pi**2 * math.cos(pi * x1) + pi**2 * s2**2 - 2 * pi**2 * w * c2
        h12 = -pi * s2
        return np.array([[h11, h12], [h12, 1.0]])

    return _planar(
        "triangle", f, grad, hess, SmoothnessSpec(ell=55.0, rho=380.0), box=(-1.5, 1.5),
        saddle=dict(lambda_min=-pi**2 / 2, direction=np.array([1.0, 0.0]), ell_local=7.0,
                    rho_local=40.0),
        minima=[(np.array([1.0, 0.0]), -1.0), (np.array([-1.0, 0.0]), -1.0)],
    )


def make_exponential() -> Landscape:
    """Sigmoid-plus-ridge landscape: weak curvature, no finite minimum.  The
    infimum -1 is approached as |x1| grows along the ridge x2 = x1^2 exp(-x1^2)."""

    def _parts(x1: float):
        """u = x1^2, s = 1/(1 + e^u), a pair (eu, s2) whose product is
        e^u s^2, e^-u and p = u e^-u.  Where 4 u e^u, the largest product of
        e^u in hess, overflows (|x1| > 26.49), 1 + e^-u rounds to 1, so s is
        e^-u and the pair is (e^-u, 1)."""
        u = x1**2
        emu = math.exp(-u)
        try:
            eu = math.exp(u)
        except OverflowError:
            eu = math.inf
        if 4 * u * eu == math.inf:
            return u, emu, emu, 1.0, emu, u * emu
        s = 1.0 / (1.0 + eu)
        return u, s, eu, s**2, emu, u * emu

    def f(x1: float, x2: float) -> float:
        u, s, eu, s2, emu, p = _parts(x1)
        return s + 0.5 * (x2 - p) ** 2 - 1.0

    def grad(x1: float, x2: float) -> Array:
        u, s, eu, s2, emu, p = _parts(x1)
        w = x2 - p
        dp = 2 * x1 * emu * (1 - u)
        return np.array([-2 * x1 * eu * s2 - w * dp, w])

    def hess(x1: float, x2: float) -> Array:
        u, s, eu, s2, emu, p = _parts(x1)
        w = x2 - p
        h11 = (
            -2 * eu * s2
            - 4 * x1**2 * eu * s2 * (2 * s - 1)
            - 2 * (1 - u) * emu * w
            - 4 * x1**2 * w * emu * (u - 2)
            + 4 * x1**2 * (1 - u) ** 2 * emu**2
        )
        h12 = -2 * x1 * emu * (1 - u)
        return np.array([[h11, h12], [h12, 1.0]])

    return _planar(
        "exponential", f, grad, hess, SmoothnessSpec(ell=8.0, rho=16.0), box=(-2.0, 2.0),
        saddle=dict(lambda_min=-0.5, direction=np.array([1.0, 0.0]), ell_local=2.0, rho_local=4.0),
        minima=[],
    )


# The largest highdim dimension; every vector of the landscape holds n floats.
MAX_HIGHDIM = 10**6


def make_highdim(n: int, eps_h: float = 1.0) -> Landscape:
    """Quadratic with one negative direction plus a quartic bowl along it.

    eps_h is the magnitude of the single negative eigenvalue.  The reference
    setting uses eps_h = 1.0; a nearly flat variant (eps_h = 0.01) is exposed
    as the '-soft' preset because both settings appear in accounts of this
    family.  The analytic Hessian serves dimensions beyond the dense
    verification cap.
    """

    if not (_is_number(n, numbers.Integral) and 2 <= n <= MAX_HIGHDIM):
        raise ParameterError(f"highdim landscape needs 2 <= n <= {MAX_HIGHDIM}, got {n}")
    require_positive(eps_h=eps_h)

    diag = np.ones(n)
    diag[0] = -eps_h

    # f and grad take dx = diag * x from a caller that already has it.
    def f(x: Array, dx: Array | None = None) -> float:
        if dx is None:
            dx = diag * x
        return 0.5 * float(np.dot(x, dx)) + x[0] ** 4 / 16

    def grad(x: Array, dx: Array | None = None) -> Array:
        g = diag * x if dx is None else dx
        g[0] += x[0] ** 3 / 4
        return g

    def f_and_grad(x: Array) -> tuple:
        dx = diag * x
        # f reads dx before grad adds the quartic term to it in place.
        return f(x, dx), grad(x, dx)

    def hess(x: Array) -> Array:
        h = np.diag(diag.copy())
        h[0, 0] += 3 * x[0] ** 2 / 4
        return h

    ell = max(1.0, 6.75 - eps_h)
    x_min = 2 * math.sqrt(eps_h)
    oracle = GradientOracle(f, grad, SmoothnessSpec(ell=ell, rho=4.5), n, f_and_grad)
    e1 = np.zeros(n)
    e1[0] = 1.0
    return Landscape(
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
    )


def with_noise(landscape: Landscape | GradientOracle, sigma: float) -> AdditiveNoiseOracle:
    """Additive-Gaussian stochastic oracle over a landscape's gradient."""
    oracle = landscape.oracle if isinstance(landscape, Landscape) else landscape
    return AdditiveNoiseOracle(oracle, sigma)


class RandomQuadraticNoiseOracle(StochasticOracle):
    """Finite-sum-style noise: g(x; theta) = grad f(x) + b + A x.

    b has i.i.d. N(0, sigma_b^2) coordinates and A = (R + R^T) / 2 for R with
    i.i.d. N(0, sigma_a^2) entries, so A is symmetric with diagonal entries of
    variance sigma_a^2 and off-diagonal entries of variance sigma_a^2 / 2, and
    each realized sample is the gradient of a random quadratic perturbation
    of f.  Unlike the additive model, batch size genuinely matters here.
    The samplers draw the mean of m thetas in closed form, which is exact in
    distribution: b_bar ~ N(0, sigma_b^2 / m I), and A_bar = (R + R^T) / 2
    for R with i.i.d. N(0, sigma_a^2 / m) entries.  The mean sampler adds
    b_bar + A_bar x to the g its caller holds (n + n^2 floats per call); the
    difference sampler subtracts the g0 its caller holds and adds
    A_bar (x1 - x0), since b_bar cancels (n^2 floats and one gradient query
    per call).
    """

    def __init__(self, mean: GradientOracle, sigma_b: float, sigma_a: float):
        require_nonnegative(sigma_b=sigma_b, sigma_a=sigma_a)
        super().__init__(mean, ell_tilde=mean.spec.ell + 3 * sigma_a * mean.dim)
        self.sigma_b = float(sigma_b)
        self.sigma_a = float(sigma_a)

    def _mean_a(self, stream, m: int) -> Array:
        """A_bar, the mean of m draws of A."""
        raw = self.sigma_a / math.sqrt(m) * stream.gen.standard_normal((self.dim, self.dim))
        return (raw + raw.T) / 2

    def mean_sampler(self, m: int, stream, calls: int) -> Callable:
        require_count(m=m, calls=calls)
        scale_b = self.sigma_b / math.sqrt(m)

        def sample(x: Array, g: Array) -> Array:
            b = scale_b * stream.gen.standard_normal(self.dim)
            return g + b + self._mean_a(stream, m) @ x

        return sample

    def diff_sampler(self, x0: Array, g0: Array, m: int, stream) -> Callable:
        require_count(m=m)
        return lambda x1: self.mean.gradient(x1) - g0 + self._mean_a(stream, m) @ (x1 - x0)


_FACTORIES: dict[str, Callable[[], Landscape]] = {
    "quartic": make_quartic,
    "cubic": make_cubic_stochastic,
    "triangle": make_triangle,
    "exponential": make_exponential,
}

# Landscapes covered by the certification suite (dense Hessian path).
VERIFY_IDS = [*_FACTORIES, "highdim-10"]


def get_landscape(land_id: str) -> Landscape:
    """Look up a landscape by id; highdim ids encode the dimension."""
    if not isinstance(land_id, str):
        raise ParameterError(f"unknown landscape id: {land_id!r}")
    if land_id in _FACTORIES:
        return _FACTORIES[land_id]()
    if land_id.startswith("highdim-"):
        rest = land_id[len("highdim-") :]
        soft = rest.endswith("-soft")
        if soft:
            rest = rest[: -len("-soft")]
        try:
            n = int(rest)
            if rest != str(n):  # 010, 1_0, " 10", +10 or non-ASCII digits
                raise ValueError(rest)
        except ValueError:
            raise ParameterError(f"bad highdim landscape id: {land_id!r}")
        return make_highdim(n, eps_h=0.01 if soft else 1.0)
    raise ParameterError(f"unknown landscape id: {land_id!r}")

"""Shared primitives: oracles, smoothness constants, RNG streams, traces, samplers."""

from __future__ import annotations

import functools
import hashlib
import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

import numpy as np

Array = np.ndarray


# Event vocabulary for trace records.
EVENT_GD = "gd"
EVENT_AGD = "agd"
EVENT_PERTURB = "perturb-uniform"
EVENT_NCF_STEP = "ncf-step"
EVENT_NCF_EXPLOIT = "ncf-exploit"
EVENT_NCE = "nce"
EVENT_SGD = "sgd"


class ParameterError(ValueError):
    """Raised when a parameter derivation receives out-of-range inputs."""


class AlgorithmError(RuntimeError):
    """Raised when an iteration reaches a state the algorithm cannot recover from."""


def _is_number(value, kind=numbers.Real) -> bool:
    """True for an instance of the numeric kind that is not a bool."""
    if type(value) is int or (type(value) is float and kind is numbers.Real):
        return True  # the common case, without the ABC check
    return isinstance(value, kind) and not isinstance(value, bool)


def require_positive(**values) -> None:
    """Reject any given value that is not positive and finite; None is skipped."""
    for name, value in values.items():
        if value is not None and not (_is_number(value) and value > 0 and math.isfinite(value)):
            raise ParameterError(f"{name} must be positive and finite, got {value}")


def require_nonnegative(**values) -> None:
    """Reject any given value that is negative or not finite; None is skipped."""
    for name, value in values.items():
        if value is not None and not (_is_number(value) and value >= 0 and math.isfinite(value)):
            raise ParameterError(f"{name} must be nonnegative and finite, got {value}")


def require_count(least: int = 1, **values) -> None:
    """Reject any given value that is not an integer >= least; None is skipped."""
    for name, value in values.items():
        if value is not None and not (_is_number(value, numbers.Integral) and value >= least):
            raise ParameterError(f"{name} must be an integer >= {least}, got {value}")


def require_fraction(closed: bool = False, **values) -> None:
    """Reject any given value outside (0, 1), or (0, 1] when closed; None is skipped."""
    for name, value in values.items():
        inside = _is_number(value) and (0 < value < 1 or closed and value == 1)
        if value is not None and not inside:
            raise ParameterError(f"{name} must be in (0, 1{']' if closed else ')'}, got {value}")


def keeps_iterates(record) -> bool:
    """True at recording level "full", False at "summary"; others are refused."""
    if record not in ("full", "summary"):
        raise ParameterError(f"record must be 'full' or 'summary', got {record!r}")
    return record == "full"


def require_bound(**values) -> None:
    """Reject any given bound that is NaN or not positive; inf means no bound."""
    for name, value in values.items():
        if not (_is_number(value) and value > 0):
            raise ParameterError(f"{name} must be positive (inf for no bound), got {value}")


def require_finite(**values) -> None:
    """Reject any given value that is not a finite number; None is skipped."""
    for name, value in values.items():
        if value is not None and not (_is_number(value) and math.isfinite(value)):
            raise ParameterError(f"{name} must be finite, got {value}")


def require_square(**values) -> None:
    """Reject any given finite value whose square overflows."""
    for name, value in values.items():
        if math.isinf(value * value):
            raise ParameterError(f"{name} must have a finite square, got {value}")


def require_vector(x, name: str, dim: int | None = None) -> Array:
    """x as a float array: the one check of a caller's vector.  Anything but a
    finite, numeric (not bool) 1-d vector, of length dim if given, is refused."""
    try:
        a = np.asarray(x)
    except ValueError:  # a ragged nesting
        a = np.asarray(None)
    if isinstance(x, (list, tuple)) and any(isinstance(v, (bool, np.bool_)) for v in x):
        a = np.asarray(None)  # numpy promotes a bool beside a float to a number
    if a.dtype.kind in "iuf" and a.ndim == 1 and (dim is None or a.shape[0] == dim):
        a = a.astype(float, copy=False)
        if np.isfinite(a).all():
            return a
    of_dim = "" if dim is None else f" of length {dim}"
    raise ParameterError(f"{name} must be a finite numeric vector{of_dim}")


def require_list(items, name: str, what: str) -> list:
    """items as a list; a string (read one character at a time) or a non-iterable is refused."""
    if isinstance(items, str) or not isinstance(items, Iterable):
        got = f"the string {items!r}" if isinstance(items, str) else repr(items)
        raise ParameterError(f"{name} must be a list of {what}, got {got}")
    return list(items)


class DivergenceError(RuntimeError):
    """Raised when an iterate leaves the trust region; carries the partial trace."""

    def __init__(self, message: str, trace: "Trace | None" = None):
        super().__init__(message)
        self.trace = trace


@dataclass(frozen=True)
class SmoothnessSpec:
    """Declared gradient-Lipschitz (ell) and Hessian-Lipschitz (rho) constants."""

    ell: float
    rho: float

    def __post_init__(self):
        require_positive(ell=self.ell, rho=self.rho)


@dataclass(frozen=True)
class GradientOracle:
    """Deterministic first-order oracle: function value, exact gradient, constants.

    f_and_grad, when given, evaluates f and grad at one point in one call and
    must return exactly (f(x), grad(x)); value_and_gradient uses it.  At
    dim 2 grad may carry a float twin grad.twin(x1, x2), its two floats at
    [x1, x2] or OverflowError, for _gradient_pair.  A grad replaced (by a
    spy, say) has no twin, so every query then reaches it as an array.
    """

    f: Callable[[Array], float]
    grad: Callable[[Array], Array]
    spec: SmoothnessSpec
    dim: int
    f_and_grad: Callable[[Array], tuple] | None = None

    def __post_init__(self):
        require_count(dim=self.dim)

    def value(self, x: Array) -> float:
        return float(self.f(x))

    def gradient(self, x: Array) -> Array:
        return np.asarray(self.grad(x), dtype=float)

    def value_and_gradient(self, x: Array) -> tuple[float, Array]:
        """(value(x), gradient(x)), bit for bit, from one call where the
        oracle has f_and_grad."""
        if self.f_and_grad is None:
            return self.value(x), self.gradient(x)
        f, g = self.f_and_grad(x)
        return float(f), np.asarray(g, dtype=float)

    def _gradient_pair(self, x1: float, x2: float):
        """The gradient at [x1, x2] on two Python floats (see _float_pair)."""
        return _float_pair(self.grad, x1, x2, self.gradient)


def _float_pair(fn: Callable, x1: float, x2: float, call: Callable | None = None):
    """call(np.array([x1, x2])).tolist() (call is fn by default), bit for bit:
    fn's float twin fn.twin(x1, x2) answers where fn has one, and the array
    where it has none or the twin overflows, so numpy's inf or NaN comes back."""
    twin = getattr(fn, "twin", None)
    if twin is not None:
        try:
            return twin(x1, x2)
        except OverflowError:
            pass
    return (fn if call is None else call)(np.array([x1, x2])).tolist()


class CountingOracle:
    """Wraps an oracle and counts value/gradient calls for run metadata; a
    value_and_gradient call counts one of each."""

    def __init__(self, inner: GradientOracle):
        self.inner = inner
        self.f_evals = 0
        self.grad_evals = 0

    @property
    def spec(self) -> SmoothnessSpec:
        return self.inner.spec

    @property
    def dim(self) -> int:
        return self.inner.dim

    def value(self, x: Array) -> float:
        self.f_evals += 1
        return self.inner.value(x)

    def gradient(self, x: Array) -> Array:
        self.grad_evals += 1
        return self.inner.gradient(x)

    def value_and_gradient(self, x: Array) -> tuple[float, Array]:
        self.f_evals += 1
        self.grad_evals += 1
        return self.inner.value_and_gradient(x)

    def _gradient_pair(self, x1: float, x2: float):
        self.grad_evals += 1
        return self.inner._gradient_pair(x1, x2)


class StochasticOracle:
    """Sampled first-order oracle g(x; theta) whose mean over theta is the
    gradient of the mean oracle.

    A noise model is its two samplers; the loops make no other call (at
    n = 2 a sampler's float twin may answer in its place).  Each draws its
    thetas from the stream it is given, and the caller bills the samples
    they stand for (meta["samples"]).
    """

    def __init__(self, mean: GradientOracle, ell_tilde: float):
        require_positive(ell_tilde=ell_tilde)
        self.mean = mean
        self.ell_tilde = float(ell_tilde)

    @property
    def dim(self) -> int:
        return self.mean.dim

    def mean_sampler(self, m: int, stream: "RngStream", calls: int) -> Callable:
        """sample(x, g): the mean of g(x; theta) over m fresh draws of theta,
        for at most calls calls; g is the caller's exact grad f(x)."""
        raise NotImplementedError

    def diff_sampler(self, x0: Array, g0: Array, m: int, stream: "RngStream") -> Callable:
        """diff(x1): the mean over m fresh draws of theta, shared by both
        points, of g(x1; theta) - g(x0; theta), for many x1 around one x0;
        g0 is the caller's exact grad f(x0)."""
        raise NotImplementedError


class AdditiveNoiseOracle(StochasticOracle):
    """g(x; theta) = grad f(x) + theta with theta ~ N(0, sigma^2 I).

    The noise does not depend on x, so shared-theta differences cancel it
    exactly and an m-sample mean collapses to a single scaled draw.  The
    closed forms below are distributionally exact for every m and keep
    theoretically derived batch sizes affordable.  Both take the exact
    gradients their caller holds: a mean sampler adds its noise to the g
    passed in (no gradient query) and draws that noise in blocks, and a
    difference sampler subtracts the g0 passed in, so each difference costs
    one gradient query, at x1; over a g0 of two floats its float twin is
    the mean oracle's _gradient_pair minus g0's floats.
    """

    def __init__(self, mean: GradientOracle, sigma: float):
        require_nonnegative(sigma=sigma)
        super().__init__(mean, ell_tilde=mean.spec.ell)
        self.sigma = float(sigma)

    def mean_sampler(self, m: int, stream: "RngStream", calls: int) -> Callable:
        require_count(m=m, calls=calls)
        noise = _normal_rows(stream, self.dim, self.sigma / math.sqrt(m), calls)
        return lambda x, g: g + next(noise)

    def diff_sampler(self, x0: Array, g0: Array, m: int, stream: "RngStream") -> Callable:
        # theta is x-independent, so it cancels for any batch size.
        require_count(m=m)

        def diff(x1: Array) -> Array:
            return self.mean.gradient(x1) - g0

        if isinstance(g0, np.ndarray) and g0.shape == (2,):
            h1, h2 = g0.tolist()

            def twin(x1: float, x2: float) -> tuple[float, float]:
                d1, d2 = self.mean._gradient_pair(x1, x2)
                return d1 - h1, d2 - h2

            diff.twin = twin
        return diff


def _mix64(a: int, b: int) -> int:
    """Deterministic 64-bit mix of two integers (splitmix64 finalizer)."""
    z = (a * 0x9E3779B97F4A7C15 + b) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return (z ^ (z >> 31)) & 0xFFFFFFFFFFFFFFFF


def _label_to_int(label) -> int:
    if isinstance(label, int):
        return label & 0xFFFFFFFFFFFFFFFF
    digest = hashlib.blake2b(str(label).encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little")


@functools.cache
def _key_seed() -> type:
    """Seed-sequence class that hands Philox its key as it is, without the
    OS-entropy SeedSequence that Philox(key=...) builds and drops; made on
    first use, so importing the package does not import numpy.random."""

    class KeySeed(np.random.bit_generator.ISeedSequence):
        def __init__(self, key: Array):
            self.key = key

        def generate_state(self, n_words, dtype=np.uint32):
            return self.key

    return KeySeed


@dataclass(eq=False)
class RngStream:
    """Counter-based random stream keyed by (seed, stream_id).

    Streams with distinct ids are statistically independent and their draws
    do not depend on scheduling, so parallel trials reproduce exactly.
    """

    seed: int
    stream_id: int = 0
    _gen: np.random.Generator | None = field(default=None, repr=False)

    def __post_init__(self):
        for name in ("seed", "stream_id"):
            if not _is_number(getattr(self, name), numbers.Integral):
                raise ParameterError(f"{name} must be an integer, got {getattr(self, name)!r}")

    @property
    def gen(self) -> np.random.Generator:
        if self._gen is None:
            key = np.array(
                [self.seed & 0xFFFFFFFFFFFFFFFF, self.stream_id & 0xFFFFFFFFFFFFFFFF],
                dtype=np.uint64,
            )
            self._gen = np.random.Generator(np.random.Philox(_key_seed()(key)))
        return self._gen

    def substream(self, label) -> "RngStream":
        """Fresh independent stream derived deterministically from a label."""
        return RngStream(self.seed, _mix64(self.stream_id, _label_to_int(label)))


def _norm(x: Array) -> float:
    """Euclidean norm of a 1-d float array.

    np.linalg.norm computes exactly sqrt(x.dot(x)) for this case, so the
    result is bit-identical; calling it directly skips the dispatch overhead
    that dominates on the short vectors of the escape loops.  _norm2 gives
    these bits for a pair of Python floats without an array.
    """
    return math.sqrt(x.dot(x))


def _square_sum(a: float, b: float) -> float:
    """fma(b, b, a*a), numpy's 2-d x.dot(x): Dekker's exact b*b (b split by
    Veltkamp's 2^27 + 1) plus a*a, rounded once by math.fsum.  Exact for
    1e-140 < |b| < 1e150 and |a| < 1e150, where no part of b*b overflows or
    loses bits below the subnormals."""
    p, t = b * b, 134217729.0 * b
    h = t - (t - b)
    low = b - h
    return math.fsum((a * a, p, ((h * h - p) + 2.0 * h * low) + low * low))


def _numpy_square_sum(a: float, b: float) -> float:
    x = np.array([a, b])
    return x.dot(x)


def _dot_is_fused(dot: Callable[[float, float], float]) -> bool:
    """True when the reference dot(a, b) for a*a + b*b is _square_sum on pairs
    that tell it from a*a + b*b, fma(a, a, b*b) and the exact sum rounded once."""
    return all(dot(a, b) == _square_sum(a, b) for a, b in ((1.5, 2 / 3), (2 / 3, 1.5), (0.1, 0.3)))


# _norm2 skips numpy only where this machine's 2-d dot is the fused one.
_FUSED = _dot_is_fused(_numpy_square_sum)


def _norm2(a: float, b: float) -> float:
    """The length of [a, b], bit for bit as _norm gives it, on Python floats
    where _square_sum is exact, or where |b| <= 1e-140 and |a| >= 1e-100, so
    that b*b <= 1e-280 is below half an ulp of a*a and the dot is a*a; other
    pairs (inf, NaN, subnormal or huge values), and every pair where the dot
    is not fused, take numpy's dot."""
    if _FUSED:
        if b == 0.0:
            return math.sqrt(a * a)
        if 1e-140 < abs(b) < 1e150 and abs(a) < 1e150:
            return math.sqrt(_square_sum(a, b))
        if abs(b) <= 1e-140 and abs(a) >= 1e-100:
            return math.sqrt(a * a)
    return math.sqrt(_numpy_square_sum(a, b))


# The most floats _normal_rows draws from a stream at once (32 KiB).
_BLOCK_FLOATS = 4096


def _normal_rows(stream: RngStream, n: int, scale: float, rows: int) -> Iterator[Array]:
    """rows rows of scale * N(0, I_n), bit for bit the rows that as many
    calls of scale * stream.gen.standard_normal(n) give.  They are drawn in
    blocks of at most _BLOCK_FLOATS floats (one row at least), and no block
    reaches past rows, so the stream is never drawn further than the caller
    can use.  For a stream that draws nothing else."""
    block = max(1, _BLOCK_FLOATS // n)
    while rows > 0:
        k = min(block, rows)
        yield from scale * stream.gen.standard_normal((k, n))
        rows -= k


def uniform_ball_sample(center: Array, radius: float, stream: RngStream) -> Array:
    """Uniform draw from the closed ball of given radius around center."""
    require_nonnegative(radius=radius)
    center = require_vector(center, "center")
    n = center.shape[0]
    direction = stream.gen.standard_normal(n)
    norm = _norm(direction)
    while norm == 0.0:  # probability-zero guard
        direction = stream.gen.standard_normal(n)
        norm = _norm(direction)
    # radius * U^(1/n) is the radial law that makes the ball density uniform
    scale = radius * stream.gen.random() ** (1.0 / n)
    return center + scale / norm * direction


def gaussian_sample(center: Array, variance_per_coord: float, stream: RngStream) -> Array:
    """Isotropic Gaussian draw N(center, variance_per_coord * I)."""
    require_nonnegative(variance_per_coord=variance_per_coord)
    center = require_vector(center, "center")
    return center + math.sqrt(variance_per_coord) * stream.gen.standard_normal(center.shape[0])


@dataclass
class TraceRecord:
    """State after one counted iteration: step index, value, gradient norm, event.

    x is the iterate itself at recording level "full", not a copy: records may
    share one array (an episode's search steps all hold the anchor) with each
    other and the run's meta, so treat it as read-only.  At "summary" it is
    None, and every other field, and the trace's meta, is as at "full".
    """

    t: int
    f: float
    grad_norm: float
    event: str
    x: Array | None = None
    v_norm: float | None = None


@dataclass
class Trace:
    """Per-iteration run record plus run-level metadata."""

    records: list[TraceRecord] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    @classmethod
    def start(cls, algorithm: str, stream: RngStream, **meta) -> "Trace":
        """Empty trace whose meta names the algorithm and the trial's stream."""
        return cls(meta={"algorithm": algorithm, "seed": stream.seed,
                         "stream_id": stream.stream_id, **meta})

    def final_f(self) -> float:
        return self.records[-1].f

    def initial_f(self) -> float:
        return self.records[0].f


# The two messages of check_iterate and _check_planar.
_NON_FINITE = "non-finite iterate encountered"
_OUTSIDE = "iterate norm exceeded trust region bound {}"


def check_iterate(x: Array, bound: float, trace: Trace | None = None) -> Array:
    """Reject a non-finite iterate, then one outside the trust region.

    One dot product serves both checks: a finite sum of squares means every
    element is finite, so the elementwise scan runs only when it is not.  A
    sum that overflows from finite elements fails the trust region (unless
    bound is inf), exactly as the norm it stands for would.
    """
    s = x.dot(x)
    if not math.isfinite(s) and not np.isfinite(x).all():
        raise DivergenceError(_NON_FINITE, trace)
    if math.sqrt(s) > bound:
        raise DivergenceError(_OUTSIDE.format(bound), trace)
    return x


def _check_planar(x1: float, x2: float, bound: float, trace: Trace | None = None) -> None:
    """check_iterate of np.array([x1, x2]) on the pair's Python floats: the
    same checks in the same order, with the same messages and trace."""
    length = _norm2(x1, x2)
    if not math.isfinite(length) and not (math.isfinite(x1) and math.isfinite(x2)):
        raise DivergenceError(_NON_FINITE, trace)
    if length > bound:
        raise DivergenceError(_OUTSIDE.format(bound), trace)

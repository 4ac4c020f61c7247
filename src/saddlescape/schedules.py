"""Paper-mode schedules: each formula the analysis derives for a run, stated
once, and the builders that lay an experiment's knobs over them (in
experiment mode, over the local constants)."""

from __future__ import annotations

import dataclasses
import functools
import inspect
import math
from dataclasses import dataclass

from .ancgd import ANCParams
from .core import ParameterError, SmoothnessSpec, require_count, require_fraction, require_positive
from .drivers import BaselineParams
from .ncfind import _K, NCDescentParams, NCParams
from .stochastic import SNCParams


# The free constant in ancgd's episode length.  c_a**7 >= K keeps the
# per-episode decrease target below the certified decrease.
_C_A = 8.0


def _refusal(name: str, value: float) -> ParameterError:
    """The error for an input that takes a derived quantity out of the floats."""
    return ParameterError(
        f"{name} {value} is too {'small' if value < 1 else 'large'}: a quantity "
        "derived from it is zero or not finite"
    )


def _checked(formula):
    """The one checked path of every formula here.  An OverflowError,
    ZeroDivisionError or math ValueError raised while formula runs, and the
    ArithmeticError of a zero or non-finite quantity passed to _q with no
    input to blame, become a ParameterError naming the eps that formula was
    called with."""
    signature = inspect.signature(formula)

    @functools.wraps(formula)
    def checked(*args, **kwargs):
        try:
            return formula(*args, **kwargs)
        except ParameterError:
            raise
        except (ArithmeticError, ValueError):
            raise _refusal("eps", signature.bind(*args, **kwargs).arguments["eps"]) from None

    return checked


def _q(value: float, **blame: float) -> float:
    """A derived quantity, which must be nonzero and finite.  A failure names
    the one input given as blame, if any, or else (through _checked) eps."""
    if value == 0.0 or not math.isfinite(value):
        raise _refusal(*blame.popitem()) if blame else ArithmeticError(value)
    return value


def _count(value: float) -> int:
    """A derived count: ceil(value), at least 1 (inf and NaN raise)."""
    return max(1, math.ceil(value))


@_checked
def _curvature_threshold(ell: float, rho: float, eps: float) -> float:
    """sqrt(rho * eps), the curvature scale the searches resolve; it must fit
    inside the representable spectrum [-ell, ell]."""
    threshold = math.sqrt(rho * eps)
    if threshold > ell:
        raise ParameterError(f"sqrt(rho*eps)={threshold:g} exceeds ell={ell:g}; shrink eps")
    return _q(threshold)


@_checked
def derive_nc_params(spec: SmoothnessSpec, eps: float, delta0: float, n: int) -> NCParams:
    """The curvature search at failure probability delta0 in dimension n:
    8 ell / sqrt(rho eps) * log(ell / delta0 * sqrt(n / (pi rho eps))) steps
    at probe radius eps / (8 ell) * sqrt(pi / n) * delta0.  Requires
    sqrt(rho eps) <= ell (_curvature_threshold)."""
    require_positive(eps=eps)
    require_fraction(closed=True, delta0=delta0)
    require_count(n=n)
    ell, rho = spec.ell, spec.rho
    threshold = _curvature_threshold(ell, rho, eps)
    log_arg = (ell / delta0) * math.sqrt(n / (math.pi * rho * eps))
    steps = _count(8 * ell / threshold * math.log(log_arg))
    radius = _q(eps / (8 * ell) * math.sqrt(math.pi / n) * delta0)
    return NCParams(steps=steps, radius=radius, eps=eps, ell=ell, rho=rho)


@_checked
def derive_anc_params(
    spec: SmoothnessSpec, eps: float, delta0: float, n: int, delta_f_bound: float,
    total_steps: int | None = None,
) -> ANCParams:
    """The accelerated loop at per-episode failure probability delta0: step
    size 1 / (4 ell), _momentum's constants, search windows of 32 sqrt(ell) /
    (rho eps)^(1/4) * log(ell / delta0 * sqrt(n / (rho eps))) steps, the
    perturbation radius delta0 eps / 32 * sqrt(pi / (rho n)) and, unless
    total_steps is given, the budget that would use up the gap
    delta_f_bound >= f(x0) - inf f."""
    require_positive(eps=eps, delta_f_bound=delta_f_bound)
    require_fraction(closed=True, delta0=delta0)
    require_count(n=n)
    ell, rho = spec.ell, spec.rho
    threshold = _curvature_threshold(ell, rho, eps)
    eta = _q(1.0 / (4.0 * ell))
    momentum = _momentum(ell, rho, eps, eta)
    log_arg = (ell / delta0) * math.sqrt(n / (rho * eps))
    ncf_steps = _count(32.0 * math.sqrt(ell) / (rho * eps) ** 0.25 * math.log(log_arg))
    r_prime = _q((delta0 * eps / 32.0) * math.sqrt(math.pi / (rho * n)))
    if total_steps is None:
        episode = math.sqrt(ell / threshold) * _C_A
        decrease = math.sqrt(eps**3 / rho) / _C_A**7
        total_steps = _count(max(
            4.0 * delta_f_bound * (episode + ncf_steps) / decrease,
            2.0 * _K * delta_f_bound * ncf_steps * math.sqrt(rho / eps**3),
        ))
    return ANCParams(
        eta=eta, **momentum, ncf_steps=ncf_steps, perturb_radius=r_prime,
        total_steps=total_steps, eps=eps, rho=rho,
    )


@_checked
def derive_snc_params(
    spec: SmoothnessSpec, ell_tilde: float, eps: float, delta: float, n: int
) -> SNCParams:
    """The stochastic curvature search at failure probability delta:
    8 ell / sqrt(rho eps) * log(ell n / (delta sqrt(rho eps))) steps, probe
    radius delta / (480 rho n steps) * sqrt(rho eps / iota) and minibatch
    160 (ell + ell_tilde) / (delta sqrt(rho eps)) * sqrt(steps iota).

    The concentration exponent iota appears on both sides of its defining
    equation (the radius depends on iota, iota depends on the radius through
    a log), so it is resolved by fixed-point iteration from iota = 10.
    """
    require_positive(eps=eps, ell_tilde=ell_tilde)
    require_fraction(delta=delta)
    require_count(n=n)
    ell, rho = spec.ell, spec.rho
    threshold = _curvature_threshold(ell, rho, eps)
    # threshold <= ell, n >= 1 and delta < 1 make the log argument exceed 1.
    steps = _count(8 * ell / threshold * math.log(ell * n / (delta * threshold)))
    eta = 1.0 / ell

    def radius_of(iota: float) -> float:
        return _q(delta / (480.0 * rho * n * steps) * math.sqrt(rho * eps / iota))

    iota = 10.0
    for _ in range(100):
        outer = (n * steps**2 / delta) * math.log(math.sqrt(n) / (eta * radius_of(iota)))
        if outer <= 1.0:
            raise ParameterError(
                "concentration log argument must exceed 1 at "
                f"ell={ell}, rho={rho}, eps={eps}, delta={delta}, n={n}"
            )
        iota, last = 10.0 * math.log(outer), iota
        if abs(iota - last) <= 1e-12 * max(1.0, abs(last)):
            break
    else:
        raise ParameterError("concentration exponent iteration did not converge")
    batch_raw = _q(160.0 * (ell + ell_tilde) / (delta * threshold) * math.sqrt(steps * iota))
    return SNCParams(
        steps=steps, radius=radius_of(iota), batch=_count(batch_raw), eps=eps, ell=ell, rho=rho
    )


@_checked
def _momentum(ell: float, rho: float, eps: float, eta: float, **given: float) -> dict:
    """The momentum loop's constants, each unless given (as a positive
    number): momentum theta = (rho eps)^(1/4) / (4 sqrt(ell)), capped at
    0.999; certificate curvature gamma = theta^2 / eta; momentum-reset step
    nce_radius = gamma / (4 rho)."""
    theta = given.get("theta") or _q(min(0.999, (rho * eps) ** 0.25 / (4.0 * math.sqrt(ell))))
    gamma = given.get("gamma") or _q(_q(theta**2, theta=theta) / eta, eta=eta)
    nce_radius = given.get("nce_radius") or _q(gamma / (4.0 * rho))
    return dict(theta=theta, gamma=gamma, nce_radius=nce_radius)


@_checked
def _episode_delta0(
    delta: float, delta_f_bound: float, eps: float, rho: float, k: float, cap: float
) -> float:
    """Per-episode failure probability delta / (k delta_f_bound) * sqrt(eps^3 /
    rho), at most cap: the overall delta split over the episodes that would use
    up the gap delta_f_bound if each certified a decrease of sqrt(eps^3 / rho) /
    k.  nc and ancgd take k = K and cap 1, snc k = 6 K and no cap."""
    share = delta / (k * delta_f_bound) * math.sqrt(eps**3 / rho)
    return _q(cap if share >= cap else share)


def _episode_search(s: _Setting, derive, *head, k: float = _K, cap: float = 1.0, **tail):
    """derive(*head, delta0, **tail) at _episode_delta0; a refusal also names delta and delta_f."""
    try:
        return derive(*head, _episode_delta0(s.delta, s.delta_f, s.eps, s.spec.rho, k, cap), **tail)
    except ParameterError as exc:
        raise ParameterError(f"{exc} (given delta={s.delta}, delta_f={s.delta_f})") from None


@_checked
def _gradient_count(c: float, ell: float, eps: float, delta_f_bound: float) -> int:
    """ceil(c ell delta_f_bound / eps^2): at c = 8 the gradient steps that use
    up the gap delta_f_bound (pgd's budget), at c = 16 snc's outer minibatch."""
    return _count(c * ell * delta_f_bound / eps**2)


@_checked
def _descent_budget(ell: float, rho: float, eps: float, delta_f_bound: float) -> int:
    """Step budget of nc and snc: the larger of the gradient-step count and
    the certified-escape count 2 K delta_f_bound * sqrt(rho / eps^3)."""
    escapes = _count(2.0 * _K * delta_f_bound * math.sqrt(rho / eps**3))
    return max(_gradient_count(8.0, ell, eps, delta_f_bound), escapes)


@dataclass(frozen=True)
class _Setting:
    """What an experiment's params are built from: the mode, the landscape's
    constants and the resolved knobs, with the defaults the builders share."""

    paper: bool
    spec: SmoothnessSpec
    n: int
    knobs: dict
    eps: float
    delta: float
    delta_f: float | None
    rho_loc: float
    ell_tilde: float


def _fields(knobs: dict, **names) -> dict:
    """Each params field mapped to the knob named for it, where that is set."""
    return {f: knobs[name] for f, name in names.items() if name in knobs}


# Each builder lays the knobs over a base that only the mode chooses: paper
# mode derives it at the declared (ell, rho), experiment mode takes the local
# constants ell = 1/eta and rho_local (ancgd only checks eta by 1/(4 eta)).
_OUTER_KNOBS = dict(
    total_steps="steps", eta="eta", grad_threshold="grad_threshold",
    exploit_step="exploit_step", cooldown="cooldown", trust_region="trust_region",
)
_MOMENTUM_KNOBS = dict(theta="theta", gamma="gamma", nce_radius="nce_radius")


def _local_ell(eta: float, c: float = 1.0) -> float:
    """Experiment mode's local ell = 1 / (c eta), refused unless positive and finite."""
    ell = 1.0 / (c * eta)
    if not 0.0 < ell < math.inf:
        raise ParameterError(f"eta {eta} is out of range: the local ell it sets is {ell}")
    return ell


def _descent(s: _Setting, noisy: bool = False) -> NCDescentParams:
    """nc, or snc when noisy: a curvature search and its descent loop."""
    k = {"batch": 1, "outer_batch": 10, **s.knobs} if noisy and not s.paper else s.knobs
    search = _fields(k, steps="ncf_steps", radius="radius", batch="batch")
    outer = _fields(k, outer_batch="outer_batch", **_OUTER_KNOBS)
    ell, rho, eps = s.spec.ell, s.spec.rho, s.eps
    if not s.paper:
        local = dict(**search, eps=eps, ell=_local_ell(k["eta"]), rho=s.rho_loc)
        return NCDescentParams((SNCParams if noisy else NCParams)(**local), **outer)
    if noisy:
        base = _episode_search(
            s, derive_snc_params, s.spec, s.ell_tilde, eps, n=s.n, k=6.0 * _K, cap=math.inf
        )
        outer = {"outer_batch": _gradient_count(16.0, ell, eps, s.delta_f), **outer}
    else:
        base = _episode_search(s, derive_nc_params, s.spec, eps, n=s.n)
    budget = _descent_budget(ell, rho, eps, s.delta_f)
    return NCDescentParams(dataclasses.replace(base, **search), **{"total_steps": budget, **outer})


def _ancgd(s: _Setting) -> ANCParams:
    """ancgd; paper mode re-derives the momentum constants no knob sets at the run's eta."""
    k = s.knobs
    fields = _fields(
        k, perturb_radius="radius", ncf_steps="ncf_steps", **_MOMENTUM_KNOBS, **_OUTER_KNOBS
    )
    if s.paper:
        rest = dict(n=s.n, delta_f_bound=s.delta_f, total_steps=k.get("steps"))
        params = _episode_search(s, derive_anc_params, s.spec, s.eps, **rest)
        eta, given = k.get("eta", params.eta), _fields(k, **_MOMENTUM_KNOBS)
        fields.update(_momentum(s.spec.ell, s.spec.rho, s.eps, eta, **given))
        return dataclasses.replace(params, **fields)
    _local_ell(k["eta"], 4.0)  # eta's range check; ancgd keeps no ell
    return ANCParams(**fields, eps=s.eps, rho=s.rho_loc)


def _baseline(s: _Setting, momentum: bool = False) -> BaselineParams:
    """PGD and PSGD, or PAGD with momentum.  Paper mode's defaults come from
    the search schedule and the gap bound; momentum constants that no knob
    sets are derived from the smoothness constants in either mode."""
    k = s.knobs
    if s.paper:
        nc = derive_nc_params(s.spec, s.eps, s.delta, s.n)
        defaults = dict(
            eta=1.0 / s.spec.ell, radius=nc.radius, grad_threshold=s.eps, cooldown=nc.steps
        )
        if "steps" not in k:
            defaults["steps"] = _gradient_count(8.0, s.spec.ell, s.eps, s.delta_f)
        k = {**defaults, **k}
    if momentum:
        given = _fields(k, **_MOMENTUM_KNOBS)
        k = {**k, **_momentum(s.spec.ell, s.spec.rho, s.eps, k["eta"], **given)}
    return BaselineParams(**_fields(
        k, eta="eta", radius="radius", grad_threshold="grad_threshold", total_steps="steps",
        cooldown="cooldown", batch="batch", trust_region="trust_region", **_MOMENTUM_KNOBS,
    ))

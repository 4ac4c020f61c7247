"""Paper-mode schedules: every derivation returns params or refuses with a
ParameterError, however extreme its constants."""

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from saddlescape import ParameterError, derive_params_for
from saddlescape.harness import ALGORITHMS
from saddlescape.schedules import _curvature_threshold

# Log-uniform on [1e-300, 1e300].
_CONSTANT = st.floats(-300.0, 300.0).map(lambda p: 10.0**p)


@settings(max_examples=500, deadline=None)
@given(
    alg=st.sampled_from(("ncf", *ALGORITHMS)),
    ell=_CONSTANT,
    rho=_CONSTANT,
    eps=_CONSTANT,
    delta=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    n=st.sampled_from((1, 2, 10, 10**6, 10**12)),
    delta_f=_CONSTANT,
    ell_tilde=_CONSTANT,
)
# A probe radius and a curvature threshold that underflow to 0, and an eps**3
# that overflows: each is refused, not raised as an arithmetic error.
@example(alg="snc", ell=5.75, rho=4.5, eps=5e-93, delta=0.9, n=2, delta_f=1e116, ell_tilde=5.75)
@example(alg="ncf", ell=1e-55, rho=1e-66, eps=1e-298, delta=0.1, n=2, delta_f=1.0, ell_tilde=1.0)
@example(alg="nc", ell=1.0, rho=1.0, eps=1e150, delta=0.1, n=2, delta_f=1.0, ell_tilde=1.0)
def test_derive_params_for_returns_params_or_refuses(
    alg, ell, rho, eps, delta, n, delta_f, ell_tilde
):
    # Each algorithm gets only the inputs it reads.
    given_inputs = {}
    if alg != "ncf":
        given_inputs["delta_f"] = delta_f
    if alg == "snc":
        given_inputs["ell_tilde"] = ell_tilde
    try:
        derive_params_for(alg, ell, rho, eps, delta, n, **given_inputs)
    except ParameterError:
        pass


@settings(max_examples=500, deadline=None)
@given(
    ell=_CONSTANT,
    rho=_CONSTANT,
    eps=_CONSTANT,
    delta=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    n=st.integers(1, 2**53),
)
# The edge: the threshold at ell, the largest delta below 1 and n = 1.
@example(ell=3.0, rho=3.0, eps=3.0, delta=1 - 2**-53, n=1)
def test_snc_step_count_log_argument_exceeds_one(ell, rho, eps, delta, n):
    # derive_snc_params takes log(ell n / (delta threshold)) unchecked: the
    # checks before it (threshold <= ell, n >= 1, 0 < delta < 1) keep the
    # argument above 1 wherever delta threshold does not underflow to 0.
    try:
        threshold = _curvature_threshold(ell, rho, eps)
    except ParameterError:
        assume(False)
    assume(delta * threshold > 0.0)
    assert ell * n / (delta * threshold) > 1.0

"""The shared escape-episode kernel, parameter validation, and the way the
harness reaches its run functions and searches."""

import functools
import math

import numpy as np
import pytest

from saddlescape import (
    ANCParams,
    BaselineParams,
    ExperimentConfig,
    GradientOracle,
    NCDescentParams,
    NCParams,
    ParameterError,
    RngStream,
    SmoothnessSpec,
    SNCParams,
    VERIFY_IDS,
    derive_anc_params,
    derive_nc_params,
    derive_snc_params,
    drivers,
    get_landscape,
    harness,
    lemma_decrease_bound,
    nc_find,
    run_experiment,
    snc_find,
    stochastic,
    with_noise,
)
from saddlescape.cli import main
from saddlescape.core import EVENT_NCF_EXPLOIT, EVENT_NCF_STEP
from saddlescape.harness import ALGORITHMS, _trial_trace, build_payload
from saddlescape.ncfind import exploit

from conftest import make_quadratic

RUN_FUNCTIONS = {
    "nc": "pgd_nc_run",
    "pgd": "pgd_run",
    "pagd": "pagd_run",
    "psgd": "psgd_run",
    "ancgd": "ancgd_run",
    "snc": "sgd_nc_run",
}
NOISY = ("snc", "psgd")


def _recipe_traces(alg, land_id, trials=3):
    land = get_landscape(land_id)
    payload = build_payload(ExperimentConfig(algorithm=alg, landscape=land_id), land)
    return [_trial_trace(payload, trial) for trial in range(trials)]


class TestExploit:
    def test_logs_certified_decrease(self, quad2):
        meta = {"exploits": [], "candidates": []}
        anchor = np.zeros(2)
        x, stop = exploit(
            quad2.value, anchor, 0.0, np.array([1.0, 0.0]), 0.04, 1.0,
            meta=meta, t=7, stop_at_candidate=True,
        )
        assert not stop
        assert x[0] == pytest.approx(0.05)
        (entry,) = meta["exploits"]
        assert entry["t"] == 7
        assert entry["decrease"] == pytest.approx(0.5 * 0.05**2)
        assert entry["certified"] == (entry["decrease"] >= lemma_decrease_bound(0.04, 1.0))
        assert meta["candidates"] == []

    def test_fallback_marks_candidate_and_stops(self, quad2):
        meta = {"exploits": [], "candidates": []}
        anchor = np.zeros(2)
        x, stop = exploit(
            quad2.value, anchor, 0.0, np.array([0.0, 1.0]), 0.04, 1.0,
            meta=meta, t=3, stop_at_candidate=True,
        )
        assert stop
        assert np.array_equal(x, anchor) and x is not anchor
        assert meta["exploits"][0]["decrease"] == 0.0
        assert meta["candidates"] == [anchor]
        assert meta["stopped_at_candidate"] is anchor


@pytest.mark.parametrize("record", ["full", "summary"])
def test_fallback_closing_record_reuses_the_anchor(record):
    # At a bowl's minimum every exploit falls back to a copy of its anchor,
    # whose closing record repeats the anchor's f and gradient norm without
    # a query: only the first record scores its point.
    bowl = make_quadratic([1.0, 2.0])
    params = NCDescentParams(NCParams(**_NC), total_steps=10)
    trace = drivers.pgd_nc_run(bowl, np.zeros(2), params, RngStream(0, 0), record=record)
    exploits = trace.meta["exploits"]
    assert [e["t"] for e in exploits] == [6, 10]
    assert all(e["decrease"] == 0.0 for e in exploits)
    # The second episode anchors at the first one's closing record.
    for anchor_t, e in zip([0, 6], exploits):
        anchor, closing = trace.records[anchor_t], trace.records[e["t"]]
        assert closing.event == EVENT_NCF_EXPLOIT
        assert (closing.f, closing.grad_norm) == (anchor.f, anchor.grad_norm)
        if record == "full":
            assert np.array_equal(closing.x, anchor.x) and closing.x is not anchor.x
        else:
            assert closing.x is None
    # Per episode one probe per search step and the two exploit candidates;
    # the search takes the anchor's gradient from the anchor's record.
    assert trace.meta["grad_evals"] == 1 + 5 + 3
    assert trace.meta["f_evals"] == 1 + 2 * len(exploits)


@pytest.mark.parametrize(
    "alg, land_id", [("nc", "quartic"), ("snc", "cubic"), ("ancgd", "quartic")]
)
def test_exploit_logged_at_its_record(alg, land_id):
    for trace in _recipe_traces(alg, land_id):
        assert trace.meta["exploits"]
        for entry in trace.meta["exploits"]:
            assert trace.records[entry["t"]].event == EVENT_NCF_EXPLOIT
            assert trace.records[entry["t"]].t == entry["t"]


@pytest.mark.parametrize("alg, land_id", [("nc", "quartic"), ("snc", "cubic")])
def test_held_records_repeat_the_anchor_record(alg, land_id):
    # A held search step repeats its anchor's f and gradient norm, also where
    # the loop's gradient estimate is a minibatch mean (snc), not grad f.
    for trace in _recipe_traces(alg, land_id):
        held = 0
        for rec in trace.records:
            if rec.event != EVENT_NCF_STEP:
                anchor = rec
                continue
            held += 1
            assert (rec.f, rec.grad_norm) == (anchor.f, anchor.grad_norm)
        assert held


_NC = dict(steps=5, radius=0.1, eps=0.05, ell=1.0, rho=1.0)
_SNC = dict(steps=5, radius=0.01, batch=1, eps=0.5, ell=50.0, rho=5.0)


# Builders of valid params, keyed by test id; keywords override fields.
_BUILD = {
    "NCParams": lambda **kw: NCParams(**{**_NC, **kw}),
    "SNCParams": lambda **kw: SNCParams(**{**_SNC, **kw}),
    "NCDescentParams-nc": lambda **kw: NCDescentParams(
        NCParams(**_NC), **{"total_steps": 10, **kw}
    ),
    "NCDescentParams-snc": lambda **kw: NCDescentParams(
        SNCParams(**_SNC), **{"outer_batch": 2, "total_steps": 10, **kw}
    ),
}


@pytest.mark.parametrize(
    "cls, name",
    [(cls, name) for cls in ("NCParams", "SNCParams") for name in ("ell", "rho")]
    + [(cls, "eta") for cls in ("NCDescentParams-nc", "NCDescentParams-snc")],
)
@pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
def test_params_reject_nonpositive_or_nonfinite(cls, name, value):
    _BUILD[cls]()
    with pytest.raises(ParameterError, match=f"{name} must be positive and finite"):
        _BUILD[cls](**{name: value})


_ANC = dict(
    eta=0.1, theta=0.1, gamma=0.1, nce_radius=0.1, ncf_steps=3,
    perturb_radius=0.1, total_steps=10, eps=0.1, rho=1.0,
)
_BASELINE = dict(
    eta=0.05, radius=0.08, grad_threshold=0.02, total_steps=10,
    theta=0.042, gamma=0.0355, nce_radius=0.0089,
)
_WITH_TRUST_REGION = {
    "NCDescentParams-nc": _BUILD["NCDescentParams-nc"],
    "NCDescentParams-snc": _BUILD["NCDescentParams-snc"],
    "ANCParams": lambda **kw: ANCParams(**{**_ANC, **kw}),
    "BaselineParams": lambda **kw: BaselineParams(**{**_BASELINE, **kw}),
    "ExperimentConfig": lambda **kw: ExperimentConfig("nc", "quartic", **kw),
}


@pytest.mark.parametrize("name", sorted(_WITH_TRUST_REGION))
@pytest.mark.parametrize("value", [math.nan, 0.0, -5.0])
def test_trust_region_rejects_nan_and_nonpositive(name, value):
    build = _WITH_TRUST_REGION[name]
    assert build(trust_region=math.inf).trust_region == math.inf
    with pytest.raises(ParameterError, match="trust_region must be positive"):
        build(trust_region=value)


@pytest.mark.parametrize(
    "name, value",
    [("theta", v) for v in (0.0, 1.0, 2.0, math.nan)]
    + [(name, v) for name in ("gamma", "nce_radius") for v in (0.0, -1.0, math.nan, math.inf)],
)
def test_baseline_params_check_momentum_constants(name, value):
    BaselineParams(**{**_BASELINE, name: None})
    with pytest.raises(ParameterError, match=name):
        BaselineParams(**{**_BASELINE, name: value})


def test_accelerated_params_reject_nan_eta():
    with pytest.raises(ParameterError, match="eta"):
        ANCParams(
            eta=math.nan, theta=0.1, gamma=0.1, nce_radius=0.1, ncf_steps=3,
            perturb_radius=0.1, total_steps=10, eps=0.1, rho=1.0,
        )


@pytest.mark.parametrize("mode", ["experiment", "paper"])
@pytest.mark.parametrize("alg", ALGORITHMS)
def test_harness_calls_run_functions_through_module_globals(monkeypatch, alg, mode):
    """The benchmark reads every trial by wrapping the run functions where
    the harness binds them, so the harness must look them up at call time
    and pass (oracle, x0, params, stream) positionally; the recording level
    is the one keyword."""
    calls = []
    for name in RUN_FUNCTIONS.values():
        real = getattr(harness, name)

        def spy(*args, _name=name, _real=real, **kwargs):
            calls.append((_name, args, kwargs))
            return _real(*args, **kwargs)

        monkeypatch.setattr(harness, name, spy)
    land_id = "cubic" if alg in NOISY else "quartic"
    cfg = ExperimentConfig(algorithm=alg, landscape=land_id, mode=mode, trials=2, steps=12)
    run_experiment(cfg)
    assert [c[0] for c in calls] == [RUN_FUNCTIONS[alg]] * 2
    for _, args, kwargs in calls:
        assert kwargs == {"record": "summary"} and len(args) == 4
        assert args[2].total_steps == 12


@pytest.mark.parametrize(
    "alg, land_id, module, name",
    [("nc", "quartic", drivers, "nc_find"), ("snc", "cubic", stochastic, "snc_find")],
)
def test_loops_search_through_module_bindings(monkeypatch, alg, land_id, module, name):
    calls = []
    real = getattr(module, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    traces = _recipe_traces(alg, land_id)
    episodes = sum(len(trace.meta["exploits"]) for trace in traces)
    assert episodes > 0
    assert len(calls) == episodes


@pytest.mark.parametrize(
    "alg, land_id, module, name",
    [("nc", "quartic", drivers, "nc_find"), ("snc", "cubic", stochastic, "snc_find")],
)
def test_search_takes_the_anchor_records_gradient(monkeypatch, alg, land_id, module, name):
    """Each search is handed the very gradient array that its anchor's
    record took (the last record scored, whose x has the anchor's bytes)."""
    scored, handed = [], []
    real_score, real_find = GradientOracle.value_and_gradient, getattr(module, name)

    def score(self, x):
        f, g = real_score(self, x)
        scored.append((x.tobytes(), g))
        return f, g

    def find(oracle, x, params, stream, *, g):
        handed.append((x.tobytes(), g, scored[-1]))
        return real_find(oracle, x, params, stream, g=g)

    monkeypatch.setattr(GradientOracle, "value_and_gradient", score)
    monkeypatch.setattr(module, name, find)
    _recipe_traces(alg, land_id)
    assert handed
    for x, g, (record_x, record_g) in handed:
        assert g is record_g and x == record_x


@pytest.mark.parametrize("land_id", VERIFY_IDS)
def test_finders_handed_the_anchor_gradient_find_the_same_direction(land_id):
    """Handed grad f(x_tilde), both finders return the bytes they return
    when they query it themselves."""
    land = get_landscape(land_id)
    saddle = land.saddles[0]
    x, spec = saddle.point, SmoothnessSpec(saddle.ell_local, saddle.rho_local)
    nc_params = derive_nc_params(spec, 0.04, 0.1, land.dim)
    snc_params = derive_snc_params(spec, spec.ell, 0.04, 0.1, land.dim)
    noisy = with_noise(land, 0.01)
    g = land.oracle.gradient(x)
    for find, oracle, params in [(nc_find, land.oracle, nc_params), (snc_find, noisy, snc_params)]:
        for k in range(3):
            plain = find(oracle, x, params, RngStream(101, k)).e_hat
            handed = find(oracle, x, params, RngStream(101, k), g=g).e_hat
            assert handed.tobytes() == plain.tobytes()


@pytest.mark.parametrize("alg", ALGORITHMS)
def test_records_score_their_own_iterate(alg):
    """At record="full" records hold the iterate itself, not a copy, so a
    loop that wrote into an array after recording it would change a
    recorded point; every record's value must still be the objective at its
    x."""
    land_id = "cubic" if alg in NOISY else "quartic"
    land = get_landscape(land_id)
    payload = build_payload(ExperimentConfig(algorithm=alg, landscape=land_id), land)
    run = getattr(harness, RUN_FUNCTIONS[alg])
    trace = run(payload["oracle"], payload["x0"], payload["params"], RngStream(0, 0))
    for rec in trace.records:
        assert rec.f == land.oracle.value(rec.x)


# Every (algorithm, flag) pair that reaches a params field, with the field
# it sets; a dotted field lives on the inner search's params.
_SEARCH_FLAGS = [
    ("--steps", 9, "total_steps"),
    ("--eta", 0.07, "eta"),
    ("--pert", 0.5, "exploit_step"),
    ("--t-thresh", 3, "cooldown"),
    ("--trust-region", 1e5, "trust_region"),
]
_BASELINE_FLAGS = [
    ("--steps", 9, "total_steps"),
    ("--eta", 0.07, "eta"),
    ("--r", 0.02, "radius"),
    ("--g-thresh", 0.3, "grad_threshold"),
    ("--t-thresh", 3, "cooldown"),
    ("--trust-region", 1e5, "trust_region"),
]
_MOMENTUM_FLAGS = [
    ("--theta", 0.3, "theta"),
    ("--gamma", 0.05, "gamma"),
    ("--nce-radius", 0.01, "nce_radius"),
]
_FLAG_ROWS = (
    [("nc", "quartic", *row) for row in _SEARCH_FLAGS]
    + [
        ("nc", "quartic", "--eps", 0.03, "search.eps"),
        ("nc", "quartic", "--g-thresh", 0.3, "grad_threshold"),
        ("nc", "quartic", "--ncf-steps", 7, "search.steps"),
        ("nc", "quartic", "--r", 0.02, "search.radius"),
    ]
    + [("snc", "cubic", *row) for row in _SEARCH_FLAGS]
    + [
        ("snc", "cubic", "--eps", 0.03, "search.eps"),
        ("snc", "cubic", "--g-thresh", 100.0, "grad_threshold"),
        ("snc", "cubic", "--ncf-steps", 7, "search.steps"),
        ("snc", "cubic", "--r", 0.005, "search.radius"),
        ("snc", "cubic", "--m", 3, "search.batch"),
        ("snc", "cubic", "--M", 4, "outer_batch"),
    ]
    + [("ancgd", "quartic", *row) for row in _SEARCH_FLAGS + _MOMENTUM_FLAGS]
    + [
        ("ancgd", "quartic", "--eps", 0.03, "eps"),
        ("ancgd", "quartic", "--g-thresh", 0.3, "grad_threshold"),
        ("ancgd", "quartic", "--ncf-steps", 7, "ncf_steps"),
        ("ancgd", "quartic", "--r", 0.02, "perturb_radius"),
    ]
    + [("pgd", "quartic", *row) for row in _BASELINE_FLAGS]
    + [("pagd", "quartic", *row) for row in _BASELINE_FLAGS]
    + [("psgd", "cubic", *row) for row in _BASELINE_FLAGS]
    + [("psgd", "cubic", "--m", 3, "batch")]
)


def _spy_params(monkeypatch, alg):
    """Patch alg's run function to record the params of every trial."""
    seen = []
    real = getattr(harness, RUN_FUNCTIONS[alg])

    def spy(oracle, x0, params, stream, **kwargs):
        seen.append(params)
        return real(oracle, x0, params, stream, **kwargs)

    monkeypatch.setattr(harness, RUN_FUNCTIONS[alg], spy)
    return seen


@pytest.mark.parametrize(
    "mode, alg, fn, flag, value, field",
    [
        pytest.param(
            mode, *row,
            id="-".join(map(str, row)) + ("" if mode == "paper" else "-experiment"),
        )
        for mode in ("paper", "experiment")
        for row in _FLAG_ROWS
    ],
)
def test_paper_mode_applies_flags(monkeypatch, mode, alg, fn, flag, value, field):
    """Each flag lands on its params field in both modes."""
    seen = _spy_params(monkeypatch, alg)
    code = main([
        "run", "--alg", alg, "--fn", fn, "--mode", mode, "--steps", "12",
        "--trials", "2", flag, str(value),
    ])
    assert code == 0
    assert [functools.reduce(getattr, field.split("."), p) for p in seen] == [value, value]


# Each algorithm's probe radius at failure probability d, with spec s, eps e and n.
_RADIUS_AT = {
    "nc": lambda s, e, d, n: derive_nc_params(s, e, d, n).radius,
    "snc": lambda s, e, d, n: derive_snc_params(s, s.ell, e, d, n).radius,
    "ancgd": lambda s, e, d, n: derive_anc_params(s, e, d, n, 1.0, total_steps=1).perturb_radius,
}


@pytest.mark.parametrize("mode", ["paper", "experiment"])
@pytest.mark.parametrize(
    "alg, fn, search",
    [("nc", "quartic", "search"), ("snc", "cubic", "search"), ("ancgd", "quartic", None)],
)
def test_search_constants_follow_mode(monkeypatch, mode, alg, fn, search):
    """Paper mode searches with the declared (ell, rho) and a per-episode
    failure probability derived from delta; experiment mode with
    ell = 1/eta and the saddle's local rho (delta is paper-only).  ancgd
    keeps no ell."""
    seen = _spy_params(monkeypatch, alg)
    delta = ["--delta", "0.2"] if mode == "paper" else []
    code = main([
        "run", "--alg", alg, "--fn", fn, "--mode", mode, "--steps", "12",
        "--trials", "1", "--eta", "0.04", *delta,
    ])
    assert code == 0
    land = get_landscape(fn)
    if mode == "paper":
        ell, rho = land.oracle.spec.ell, land.oracle.spec.rho
    else:
        ell, rho = 1.0 / 0.04, land.saddles[0].rho_local
    (params,) = seen
    inner = getattr(params, search) if search else params
    assert inner.rho == rho
    assert alg == "ancgd" or inner.ell == ell
    if mode == "paper":
        # The probe radius grows with the search's failure probability, which
        # is delta's per-episode share, so it lies below its value at delta.
        r = inner.radius if search else inner.perturb_radius
        assert r < _RADIUS_AT[alg](land.oracle.spec, inner.eps, 0.2, land.dim)

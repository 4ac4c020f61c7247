"""The shared escape-episode kernel, parameter validation, and the way the
harness reaches its run functions and searches."""

import math

import numpy as np
import pytest

from saddlescape import (
    ANCParams,
    ExperimentConfig,
    NCParams,
    ParameterError,
    PGDNCParams,
    SGDNCParams,
    SNCParams,
    drivers,
    get_landscape,
    harness,
    lemma_decrease_bound,
    run_experiment,
    stochastic,
)
from saddlescape.core import EVENT_NCF_EXPLOIT
from saddlescape.harness import ALGORITHMS, _trial_trace, build_payload
from saddlescape.ncfind import exploit

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
    return [_trial_trace(payload, land, trial) for trial in range(trials)]


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


@pytest.mark.parametrize(
    "alg, land_id", [("nc", "quartic"), ("snc", "cubic"), ("ancgd", "quartic")]
)
def test_exploit_logged_at_its_record(alg, land_id):
    for trace in _recipe_traces(alg, land_id):
        assert trace.meta["exploits"]
        for entry in trace.meta["exploits"]:
            assert trace.records[entry["t"]].event == EVENT_NCF_EXPLOIT
            assert trace.records[entry["t"]].t == entry["t"]


_NC = dict(steps=5, radius=0.1, eps=0.05, delta0=0.1, ell=1.0, rho=1.0)
_SNC = dict(
    steps=5, radius=0.01, batch=1, log_term=10.0, eps=0.5, delta=0.1,
    ell=50.0, rho=5.0, ell_tilde=50.0,
)


def _build(cls, **bad):
    if cls is NCParams:
        return NCParams(**{**_NC, **bad})
    if cls is SNCParams:
        return SNCParams(**{**_SNC, **bad})
    if cls is PGDNCParams:
        base = dict(nc=NCParams(**_NC), total_steps=10, eps=0.05, ell=1.0, rho=1.0)
        return PGDNCParams(**{**base, **bad})
    base = dict(
        snc=SNCParams(**_SNC), outer_batch=2, total_steps=10, eps=0.5, ell=50.0, rho=5.0
    )
    return SGDNCParams(**{**base, **bad})


@pytest.mark.parametrize(
    "cls, name",
    [(cls, name) for cls in (NCParams, SNCParams) for name in ("ell", "rho")]
    + [(cls, name) for cls in (PGDNCParams, SGDNCParams) for name in ("ell", "rho", "eta")],
)
@pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
def test_params_reject_nonpositive_or_nonfinite(cls, name, value):
    _build(cls)
    with pytest.raises(ParameterError, match=f"{name} must be positive and finite"):
        _build(cls, **{name: value})


def test_accelerated_params_reject_nan_eta():
    with pytest.raises(ParameterError, match="eta"):
        ANCParams(
            eta=math.nan, theta=0.1, gamma=0.1, nce_radius=0.1, ncf_steps=3,
            perturb_radius=0.1, total_steps=10, eps=0.1, delta0=0.1, ell=1.0, rho=1.0,
        )


@pytest.mark.parametrize("mode", ["experiment", "paper"])
@pytest.mark.parametrize("alg", ALGORITHMS)
def test_harness_calls_run_functions_through_module_globals(monkeypatch, alg, mode):
    """The benchmark reads every trial by wrapping the run functions where
    the harness binds them, so the harness must look them up at call time
    and pass (oracle, x0, params, stream) positionally."""
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
        assert kwargs == {} and len(args) == 4
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

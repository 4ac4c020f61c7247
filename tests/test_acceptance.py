"""Acceptance gate: the seven headline claims, one printed verdict each.

Each test prints a single [PASS]/[FAIL] line (outside pytest capture) so the
gate can be read off the run log, then asserts the same condition.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from saddlescape import (
    ExperimentConfig,
    RngStream,
    SmoothnessSpec,
    VERIFY_IDS,
    ancgd_run,
    derive_anc_params,
    derive_nc_params,
    derive_snc_params,
    fd_quadform,
    get_landscape,
    lemma_decrease_bound,
    nc_find,
    run_dimension_scaling,
    run_experiment,
    snc_find,
    uniform_ball_sample,
    with_noise,
)
from saddlescape.ncfind import exploit
from saddlescape.verify import _fd_gradient

from conftest import (
    angular_gap,
    free_nc_direction,
    free_snc_direction,
    make_quadratic,
)

_EPS = 0.04
_TRIALS = 200


def _verdict(capsys, name: str, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"\n[{'PASS' if ok else 'FAIL'}] {name}: {detail}")


def test_criterion_1_quartic_escape_fractions(capsys):
    t0 = time.perf_counter()
    nc = run_experiment(
        ExperimentConfig(algorithm="nc", landscape="quartic", trials=100, seed=0)
    )
    pgd = run_experiment(
        ExperimentConfig(algorithm="pgd", landscape="quartic", trials=100, seed=0)
    )
    elapsed = time.perf_counter() - t0
    ok = nc.fail_rate < 0.10 and pgd.fail_rate > 0.30 and elapsed < 60.0
    _verdict(
        capsys,
        "criterion 1 (quartic, equal budgets)",
        ok,
        f"nc fail {nc.fail_rate:.4f} < 0.10, pgd fail {pgd.fail_rate:.4f} > 0.30, "
        f"{elapsed:.1f}s < 60s",
    )
    assert nc.fail_rate < 0.10
    assert pgd.fail_rate > 0.30
    assert elapsed < 60.0


def test_criterion_2_stochastic_escape_fractions(capsys):
    t0 = time.perf_counter()
    snc = run_experiment(
        ExperimentConfig(algorithm="snc", landscape="cubic", trials=100, seed=0)
    )
    psgd = run_experiment(
        ExperimentConfig(algorithm="psgd", landscape="cubic", trials=100, seed=0)
    )
    elapsed = time.perf_counter() - t0
    ok = snc.fail_rate < 0.15 and psgd.fail_rate > 0.40 and elapsed < 120.0
    _verdict(
        capsys,
        "criterion 2 (cubic, stochastic gradients)",
        ok,
        f"snc fail {snc.fail_rate:.4f} < 0.15, psgd fail {psgd.fail_rate:.4f} > 0.40, "
        f"{elapsed:.1f}s < 120s",
    )
    assert snc.fail_rate < 0.15
    assert psgd.fail_rate > 0.40
    assert elapsed < 120.0


def test_criterion_3_accelerated_escape_fractions(capsys):
    ancgd = run_experiment(
        ExperimentConfig(algorithm="ancgd", landscape="quartic", trials=100, seed=0)
    )
    pagd = run_experiment(
        ExperimentConfig(algorithm="pagd", landscape="quartic", trials=100, seed=0)
    )
    ok = ancgd.fail_rate < 0.10 and pagd.fail_rate > 0.15
    _verdict(
        capsys,
        "criterion 3 (quartic, accelerated)",
        ok,
        f"ancgd fail {ancgd.fail_rate:.4f} < 0.10, pagd fail {pagd.fail_rate:.4f} > 0.15",
    )
    assert ancgd.fail_rate < 0.10
    assert pagd.fail_rate > 0.15


def test_criterion_4_dimension_scaling(capsys):
    rows = run_dimension_scaling([1, 2, 3], trials=100, seed=0)
    ok = all(r["nc_escape_rate"] >= r["pgd_escape_rate"] - 0.05 for r in rows)
    detail = ", ".join(
        f"p={r['p']}: nc {r['nc_escape_rate']:.2f} vs pgd {r['pgd_escape_rate']:.2f}"
        for r in rows
    )
    _verdict(capsys, "criterion 4 (linear vs quadratic budgets)", ok, detail)
    for r in rows:
        assert r["nc_escape_rate"] >= r["pgd_escape_rate"] - 0.05


@pytest.fixture(scope="module")
def certification_sweep():
    """200 curvature searches per finder per catalog saddle at eps = 0.04.

    Directions are certified with the independent finite-difference quadratic
    form against the noiseless oracle: <e, H e> <= -sqrt(rho * eps) / 4.
    """
    sweep = {}
    for land_id in VERIFY_IDS:
        land = get_landscape(land_id)
        saddle = land.saddles[0]
        spec = SmoothnessSpec(saddle.ell_local, saddle.rho_local)
        gate = -math.sqrt(saddle.rho_local * _EPS) / 4.0

        directions: dict[str, list] = {"nc": [], "ancgd": [], "snc": []}

        nc_params = derive_nc_params(spec, _EPS, 0.1, land.dim)
        for trial in range(_TRIALS):
            out = nc_find(land.oracle, saddle.point, nc_params, RngStream(101, trial))
            directions["nc"].append(out.e_hat)

        base = derive_anc_params(spec, _EPS, 0.1, land.dim, 1.0, total_steps=1)
        anc_params = dataclasses.replace(base, total_steps=base.ncf_steps + 1)
        for trial in range(_TRIALS):
            trace = ancgd_run(land.oracle, saddle.point, anc_params, RngStream(103, trial))
            directions["ancgd"].append(np.asarray(trace.meta["exploits"][0]["e_hat"]))

        noisy = with_noise(land, 0.01)
        snc_params = derive_snc_params(spec, spec.ell, _EPS, 0.1, land.dim)
        for trial in range(_TRIALS):
            out = snc_find(noisy, saddle.point, snc_params, RngStream(107, trial))
            directions["snc"].append(out.e_hat)

        certified = {
            alg: [
                fd_quadform(land.oracle, saddle.point, e) <= gate for e in dirs
            ]
            for alg, dirs in directions.items()
        }
        sweep[land_id] = {
            "saddle": saddle,
            "directions": directions,
            "certified": certified,
        }
    return sweep


def test_criterion_5_certified_curvature_rate(capsys, certification_sweep):
    worst = (1.0, "none")
    for land_id, entry in certification_sweep.items():
        for alg, flags in entry["certified"].items():
            rate = sum(flags) / len(flags)
            if rate < worst[0]:
                worst = (rate, f"{alg}/{land_id}")
    ok = worst[0] >= 0.85
    _verdict(
        capsys,
        "criterion 5 (independent curvature certificates)",
        ok,
        f"worst certification rate {worst[0]:.3f} at {worst[1]} "
        f"over {_TRIALS} trials x 3 finders x {len(VERIFY_IDS)} saddles (bar 0.85)",
    )
    for land_id, entry in certification_sweep.items():
        for alg, flags in entry["certified"].items():
            assert sum(flags) / len(flags) >= 0.85, f"{alg} on {land_id}"


def test_criterion_6_certified_exploits_decrease(capsys, certification_sweep):
    violations = 0
    checked = 0
    for land_id, entry in certification_sweep.items():
        land = get_landscape(land_id)
        saddle = entry["saddle"]
        f0 = land.oracle.value(saddle.point)
        bound = lemma_decrease_bound(_EPS, saddle.rho_local)
        for alg, dirs in entry["directions"].items():
            for e, is_certified in zip(dirs, entry["certified"][alg]):
                if not is_certified:
                    continue
                e_hat = e / np.linalg.norm(e)
                x_new, _ = exploit(
                    land.oracle.value, saddle.point, f0, e_hat, _EPS, saddle.rho_local
                )
                checked += 1
                if f0 - land.oracle.value(x_new) < bound:
                    violations += 1
    ok = violations == 0 and checked > 0
    _verdict(
        capsys,
        "criterion 6 (certified exploits beat the decrease bound)",
        ok,
        f"{violations} violations among {checked} certified exploits",
    )
    assert checked > 0
    assert violations == 0


def test_criterion_7_structural_properties(capsys):
    results = []

    # (a) On a quadratic the search is exactly power iteration on I - H/ell.
    quad = make_quadratic([-2.0, -0.5, 0.3, 1.0, 3.0], ell=3.0)
    params = derive_nc_params(SmoothnessSpec(3.0, 1.0), 0.05, 0.1, 5)
    params = dataclasses.replace(params, steps=40)
    # nc_find's first draw from its stream is the start vector.
    y0 = uniform_ball_sample(np.zeros(5), params.radius, RngStream(70, 0))
    out = nc_find(quad, np.zeros(5), params, RngStream(70, 0))
    ref = y0.copy()
    for _ in range(params.steps):
        ref = ref - np.array([-2.0, -0.5, 0.3, 1.0, 3.0]) * ref / 3.0
    gap_a = angular_gap(out.e_hat, ref)
    results.append(("power-method", gap_a <= 1e-10, f"{gap_a:.2e}"))

    # (b) Pinned and free stochastic searches agree on a shared stream.
    noisy = with_noise(make_quadratic([-1.0, 2.0], ell=2.0), 0.05)
    sparams = derive_snc_params(SmoothnessSpec(2.0, 1.0), 2.0, 0.1, 0.1, 2)
    pinned = snc_find(noisy, np.zeros(2), sparams, RngStream(71, 0))
    free = free_snc_direction(noisy, np.zeros(2), sparams, RngStream(71, 0))
    gap_b = angular_gap(pinned.e_hat, free)
    results.append(("pinned-vs-free", gap_b <= 1e-6, f"{gap_b:.2e}"))

    # (c) The momentum energy f + |v|^2/(2 eta) never rises on plain steps.
    anc = derive_anc_params(SmoothnessSpec(5.75, 4.5), 0.02, 0.1, 2, 1.0, total_steps=60)
    trace = ancgd_run(
        get_landscape("quartic").oracle, np.array([1.0, 0.5]), anc, RngStream(72, 0)
    )
    worst_rise = -np.inf
    pairs = 0
    for prev, cur in zip(trace.records, trace.records[1:]):
        if cur.event not in ("agd", "nce"):
            continue
        e_prev = prev.f + prev.v_norm**2 / (2 * anc.eta)
        e_cur = cur.f + cur.v_norm**2 / (2 * anc.eta)
        worst_rise = max(worst_rise, e_cur - e_prev)
        pairs += 1
    ok_c = pairs > 0 and worst_rise <= 1e-12
    results.append(("hamiltonian", ok_c, f"max rise {worst_rise:.2e} over {pairs} steps"))

    # (d) Renormalization does not bend the search direction.
    land = get_landscape("quartic")
    nparams = derive_nc_params(SmoothnessSpec(3.0, 1.0), _EPS, 0.1, 2)
    pinned = nc_find(land.oracle, np.zeros(2), nparams, RngStream(73, 0))
    free = free_nc_direction(land.oracle, np.zeros(2), nparams, RngStream(73, 0))
    gap_d = angular_gap(pinned.e_hat, free)
    results.append(("renormalization", gap_d <= 1e-8, f"{gap_d:.2e}"))

    # (e) Declared gradients match finite differences everywhere sampled.
    worst_e = 0.0
    for land_id in VERIFY_IDS:
        land = get_landscape(land_id)
        gen = RngStream(74, 0).gen
        lo, hi = land.box
        for _ in range(20):
            x = gen.uniform(lo, hi, size=land.dim)
            g = land.oracle.gradient(x)
            g_fd = _fd_gradient(land.oracle, x)
            rel = float(np.linalg.norm(g - g_fd) / max(1.0, np.linalg.norm(g)))
            worst_e = max(worst_e, rel)
    results.append(("fd-gradient", worst_e <= 1e-5, f"{worst_e:.2e}"))

    ok = all(flag for _, flag, _ in results)
    detail = ", ".join(f"{name} {'ok' if flag else 'FAIL'} ({d})" for name, flag, d in results)
    _verdict(capsys, "criterion 7 (structural invariants)", ok, detail)
    for name, flag, d in results:
        assert flag, f"{name}: {d}"

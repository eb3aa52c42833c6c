"""Acceptance suite: one test per criterion, one printed pass/fail line each.

The sweep-based criteria share two deterministic experiment runs (device
sweep and server sweep, 30 replications each at theta=200); the validation
criterion runs the reference risk parameters (alpha=0.01, epsilon=0.005,
theta=1850) with fresh 20000-scenario checks.
"""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dtplace import (
    ExperimentConfig,
    GenConfig,
    Placement,
    SaaParams,
    StageConfig,
    approx_success_prob,
    draw_samples,
    evaluate,
    exact_solve,
    generate_instance,
    hill_climb,
    overload_profile,
    random_feasible_state,
    run_experiment_full,
    stage_search,
    validate_p1_feasibility,
    write_outputs,
)
from dtplace.seeding import child_seed
from dtplace.stage import fit_value_model

from test_costs import explicit_pair_costs
from test_search import reference_climb
from test_stage import GRID, make_trajectories

MASTER_SEED = 2024
REPLICATIONS = 30
DESK_THETA = 200


def report(number: int, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}"
    # bypass pytest capture so the line shows in a plain `pytest` run
    print(line, file=sys.__stdout__)
    assert ok, f"criterion {number} failed: {detail}"


def spearman(xs, ys) -> float:
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    rx = np.argsort(np.argsort(xs)).astype(float)
    ry = np.argsort(np.argsort(ys)).astype(float)
    rx -= rx.mean()
    ry -= ry.mean()
    return float((rx * ry).sum() / np.sqrt((rx * rx).sum() * (ry * ry).sum()))


@pytest.fixture(scope="module")
def device_sweep():
    cfg = ExperimentConfig(
        axis="devices",
        axis_values=tuple(range(5, 11)),
        num_servers=6,
        num_devices=5,
        components_range=(1, 3),
        replications=REPLICATIONS,
        master_seed=MASTER_SEED,
        saa=SaaParams(alpha=0.01, epsilon=0.005, theta=DESK_THETA),
    )
    return cfg, run_experiment_full(cfg)


@pytest.fixture(scope="module")
def server_sweep():
    cfg = ExperimentConfig(
        axis="servers",
        axis_values=tuple(range(2, 11)),
        num_servers=6,
        num_devices=5,
        components_range=(1, 3),
        replications=REPLICATIONS,
        master_seed=MASTER_SEED,
        saa=SaaParams(alpha=0.01, epsilon=0.005, theta=DESK_THETA),
    )
    return cfg, run_experiment_full(cfg)


# sha256 of (sweep.csv, convergence.csv) for each acceptance sweep: seeded
# outputs must not move unless a change means to move them.
ACCEPTANCE_DIGESTS = {
    "devices": (
        "6b5d7b64b3965eab84857a77794292545fca63f6ded18eb06ff9a3c02d6bbeed",
        "7976881469138dbdf63f0c8232671ac53e1fd17d4c61f8bf6785edafbe2608c9",
    ),
    "servers": (
        "8d14fb51bea571e99451e0981c6a9cdb9fe88f9981e460328f7782bf4ea17038",
        "59d28e96a7e538a66aeddb4699f9270b3703fa2b17d560d70abd01f15ea8ad50",
    ),
}


@pytest.mark.parametrize("sweep", ["device_sweep", "server_sweep"])
def test_acceptance_outputs_match_pinned_digests(sweep, request, tmp_path):
    cfg, data = request.getfixturevalue(sweep)
    paths = write_outputs(data.rows, data.convergence, tmp_path)
    digests = tuple(hashlib.sha256(path.read_bytes()).hexdigest() for path in paths)
    assert digests == ACCEPTANCE_DIGESTS[cfg.axis]


PINNED_OUTPUT_TESTS = (
    "tests/test_acceptance.py::test_acceptance_outputs_match_pinned_digests",
    "tests/test_harness.py::test_golden_checksum",
    "tests/test_stage.py::test_stage_golden_output",
)


def openblas_dynamic_arch() -> bool:
    """Whether numpy's BLAS is an OpenBLAS that picks its kernel by CPU."""
    blas = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    return "openblas" in blas.get("name", "").lower() and "DYNAMIC_ARCH" in blas.get(
        "openblas configuration", ""
    )


@pytest.mark.skipif(
    not openblas_dynamic_arch() or platform.machine().lower() not in ("x86_64", "amd64"),
    reason="needs an x86-64 OpenBLAS DYNAMIC_ARCH build to force a kernel",
)
def test_pinned_outputs_do_not_depend_on_the_blas_kernel():
    # Sandybridge's kernels round a Gram-matrix product differently from the
    # default ones; the pinned outputs must not move with them.
    env = {**os.environ, "OPENBLAS_CORETYPE": "Sandybridge"}
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *PINNED_OUTPUT_TESTS],
        cwd=Path(__file__).resolve().parent.parent,
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert result.returncode == 0, result.stdout + result.stderr


def paired(records, algorithm_a, algorithm_b):
    """Matched feasible (a, b) record pairs across (cell, replication)."""
    index = {}
    for rec in records:
        index[(rec.axis_value, rec.rep, rec.algorithm)] = rec
    pairs = []
    for (value, rep, alg), rec in index.items():
        if alg != algorithm_a:
            continue
        other = index.get((value, rep, algorithm_b))
        if other is not None and rec.feasible and other.feasible:
            pairs.append((rec, other))
    return pairs


def test_criterion_1_success_probability_formula():
    value = approx_success_prob(SaaParams(alpha=0.01, epsilon=0.005, theta=1850))
    ok = abs(value - 0.990) <= 0.001
    report(1, ok, f"approx_success_prob(theta=1850, 0.01, 0.005) = {value:.4f} (target 0.990 +/- 0.001)")


def test_criterion_2_oracle_equivalence_on_tiny_instances():
    params = SaaParams(alpha=0.01, epsilon=0.005, theta=50)
    within = 0
    total = 0
    below = 0
    for i in range(20):
        cfg = GenConfig(num_servers=2 + i % 2, num_devices=2, components_range=(1, 2))
        seed = 4000 + i
        inst = generate_instance(cfg, seed)
        samples = draw_samples(inst, params, seed + 17)
        oracle = exact_solve(inst, samples, params)
        if not oracle.feasible:
            continue
        total += 1
        result = stage_search(inst, samples, params, StageConfig(), seed + 3)
        rho = evaluate(inst, result.best_state.placement).total
        if rho < oracle.optimum - 1e-9 * max(1.0, abs(oracle.optimum)):
            below += 1
        if rho <= 1.05 * oracle.optimum:
            within += 1
    ok = total >= 18 and below == 0 and within >= 0.9 * total
    report(
        2,
        ok,
        f"{within}/{total} tiny instances within 5% of the exact optimum, {below} below it",
    )


def test_criterion_3_dominance_ordering(device_sweep):
    _, data = device_sweep
    margins = {}
    for a, b in (("random", "restart"), ("restart", "stage"), ("nearest", "stage")):
        pairs = paired(data.records, a, b)
        diffs = [x.cost_per_server - y.cost_per_server for x, y in pairs]
        margins[f"{a}-{b}"] = (float(np.mean(diffs)), len(diffs))
    ok = all(mean >= 0 for mean, _ in margins.values())
    detail = ", ".join(
        f"mean({name}) = {mean:+.1f} over {n} pairs" for name, (mean, n) in margins.items()
    )
    report(3, ok, detail)


def test_criterion_4_trend_shapes(device_sweep, server_sweep):
    results = []
    for (cfg, data), expected_sign in ((device_sweep, 1.0), (server_sweep, -1.0)):
        for alg in ("stage", "random", "restart", "nearest"):
            cells = {}
            for rec in data.records:
                if rec.algorithm == alg and rec.feasible:
                    cells.setdefault(rec.axis_value, []).append(rec.cost_per_server)
            values = sorted(cells)
            means = [float(np.mean(cells[v])) for v in values]
            rho = spearman(values, means)
            results.append((cfg.axis, alg, rho, expected_sign))
    ok = all(sign * rho >= 0.9 for _, _, rho, sign in results)
    detail = "; ".join(f"{axis}/{alg}: rank corr {rho:+.3f}" for axis, alg, rho, _ in results)
    report(4, ok, detail)


def test_criterion_5_searched_states(device_sweep):
    _, data = device_sweep
    pairs = paired(data.records, "stage", "restart")
    wins = sum(1 for stage, restart in pairs if stage.states <= restart.states)
    frac = wins / len(pairs)
    ok = frac >= 0.70
    report(5, ok, f"stage visited <= restart states in {wins}/{len(pairs)} runs ({frac:.0%})")


def test_criterion_6_convergence_rate(device_sweep):
    _, data = device_sweep
    runs = [r for r in data.records if r.algorithm == "stage" and r.feasible]
    converged_runs = sum(1 for r in runs if r.converged)
    frac = converged_runs / len(runs)
    ok = frac >= 0.90
    report(6, ok, f"stopping rule fired before the iteration cap in {converged_runs}/{len(runs)} runs ({frac:.0%})")


def test_criterion_7_fresh_sample_validation():
    params = SaaParams(alpha=0.01, epsilon=0.005, theta=1850)
    passes = 0
    total = 40
    for i in range(total):
        devices = 5 + i % 6
        cfg = GenConfig(num_servers=6, num_devices=devices, components_range=(1, 3))
        inst = generate_instance(cfg, child_seed(1850, f"c7/{i}/instance"))
        samples = draw_samples(inst, params, child_seed(1850, f"c7/{i}/samples"))
        result = stage_search(inst, samples, params, StageConfig(), child_seed(1850, f"c7/{i}/solve"))
        proportion = validate_p1_feasibility(
            inst,
            result.best_state.placement,
            alpha=0.01,
            validation_theta=20000,
            seed=child_seed(1850, f"c7/{i}/validate"),
        )
        if proportion <= 0.01:
            passes += 1
    ok = passes >= 0.95 * total
    report(7, ok, f"fresh-sample overload proportion <= alpha in {passes}/{total} runs")


def test_criterion_8_mechanical_invariants(tmp_path):
    checks = []

    # strict descent and restart identity
    cfg = GenConfig(num_servers=3, num_devices=2, components_range=(1, 2))
    inst = generate_instance(cfg, 3141)
    params = SaaParams(alpha=0.05, epsilon=0.025, theta=60)
    samples = draw_samples(inst, params, 59)
    start = random_feasible_state(inst, samples, params, 26)
    visited = []
    endpoint, _, _ = hill_climb(inst, samples, params, start, on_visit=visited.append)
    values = [s.eval.total for s in visited]
    descent_ok = all(b < a for a, b in zip(values, values[1:]))
    restart_ok = all(
        hill_climb(inst, samples, params, s)[0].placement.servers == endpoint.placement.servers
        for s in reference_climb(inst, samples, params, start)
    )
    checks.append(("descent+restart", descent_ok and restart_ok))

    # evaluate equals the explicit pair-indicator oracle
    rng = np.random.default_rng(0)
    eval_ok = True
    for _ in range(10):
        pl = Placement(servers=tuple(int(s) for s in rng.integers(0, 3, inst.total_components)))
        cost = evaluate(inst, pl)
        off, com = explicit_pair_costs(inst, pl)
        eval_ok &= abs(cost.offload - off) <= 1e-9 * max(1.0, off)
        eval_ok &= abs(cost.communication - com) <= 1e-9 * max(1.0, com)
    checks.append(("evaluate-oracle", eval_ok))

    # overload counting equals a brute-force scan
    profile_ok = True
    pl = Placement(servers=tuple(int(s) for s in rng.integers(0, 3, inst.total_components)))
    profile = overload_profile(inst, samples, pl, params)
    for s in range(inst.num_servers):
        count = 0
        for theta in range(params.theta):
            load = sum(
                inst.cost_rates[s] * samples.cycles[k, theta]
                for k in range(inst.total_components)
                if pl.servers[k] == s
            )
            if load - inst.capacities[s] > 0:
                count += 1
        profile_ok &= int(profile.overload_count[s]) == count
    checks.append(("overload-bruteforce", profile_ok))

    # regression recovers a planted quadratic
    pts = []
    rng = np.random.default_rng(8)
    for _ in range(25):
        f1, f2 = rng.uniform(0, 10, 2)
        pts.append((((f1, f2),), 2 + 3 * f1 - f2 + 0.5 * f1 * f1))
    model = fit_value_model(make_trajectories(pts))
    recovered = all(
        abs(model.predict_pair(f1, f2) - (2 + 3 * f1 - f2 + 0.5 * f1 * f1)) <= 1e-6
        for f1, f2 in GRID
    )
    checks.append(("regression-recovery", recovered))

    # byte-identical outputs under a fixed master seed
    exp = ExperimentConfig(
        axis="devices",
        axis_values=(2, 3),
        num_servers=3,
        num_devices=2,
        components_range=(1, 2),
        replications=2,
        master_seed=4096,
        saa=SaaParams(alpha=0.05, epsilon=0.025, theta=40),
        stage=StageConfig(max_iterations=4),
        baseline_trials=3,
    )
    digests = []
    for label in ("x", "y"):
        data = run_experiment_full(exp)
        sweep, conv = write_outputs(data.rows, data.convergence, tmp_path / label)
        digests.append(hashlib.sha256(sweep.read_bytes() + conv.read_bytes()).hexdigest())
    checks.append(("byte-identical", digests[0] == digests[1]))

    ok = all(flag for _, flag in checks)
    detail = ", ".join(f"{name}={'ok' if flag else 'FAIL'}" for name, flag in checks)
    report(8, ok, detail)

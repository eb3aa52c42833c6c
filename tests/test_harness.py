from __future__ import annotations

import csv
import hashlib
import os
from pathlib import Path

import numpy as np
import pytest

from dtplace import (
    ConfigurationError,
    ExperimentConfig,
    Placement,
    SaaParams,
    StageConfig,
    draw_samples,
    run_experiment_full,
    validate_p1_feasibility,
    write_outputs,
)
from dtplace.harness import SWEEP_COLUMNS, run_algorithm

from conftest import build_instance


def tiny_config(**overrides):
    base = dict(
        axis="devices",
        axis_values=(2, 3),
        num_servers=3,
        num_devices=2,
        components_range=(1, 2),
        replications=2,
        master_seed=606,
        saa=SaaParams(alpha=0.05, epsilon=0.025, theta=40),
        stage=StageConfig(max_iterations=4),
        baseline_trials=3,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_row_and_record_counts():
    cfg = tiny_config()
    data = run_experiment_full(cfg)
    assert len(data.rows) == 2 * 4  # cells x algorithms
    assert len(data.records) == 2 * 2 * 4  # cells x reps x algorithms
    for row in data.rows:
        assert row.replications == 2
        assert row.seed == 606


def test_all_algorithms_share_instance_and_samples():
    # identical cost scale across algorithms implies the same instance; the
    # dominance relations pin the shared draw
    cfg = tiny_config()
    data = run_experiment_full(cfg)
    by = {}
    for r in data.records:
        by[(r.axis_value, r.rep, r.algorithm)] = r
    for value in (2, 3):
        for rep in range(2):
            random = by[(value, rep, "random")]
            restart = by[(value, rep, "restart")]
            stage = by[(value, rep, "stage")]
            if random.feasible and restart.feasible:
                assert restart.cost_per_server <= random.cost_per_server + 1e-9
            if stage.feasible:
                assert stage.per_iteration_rho
                assert stage.iterations <= 4


def test_searched_state_accounting():
    cfg = tiny_config()
    data = run_experiment_full(cfg)
    for r in data.records:
        if not r.feasible:
            continue
        if r.algorithm == "random":
            assert r.states == cfg.baseline_trials
        elif r.algorithm == "nearest":
            # non-searching baseline reported at the shared trial budget
            assert r.states == cfg.baseline_trials
        elif r.algorithm == "stage":
            assert r.states >= r.iterations


def test_outputs_are_deterministic(tmp_path):
    cfg = tiny_config()
    first = run_experiment_full(cfg)
    second = run_experiment_full(cfg)
    a = tmp_path / "a"
    b = tmp_path / "b"
    write_outputs(first.rows, first.convergence, a)
    write_outputs(second.rows, second.convergence, b)
    assert (a / "sweep.csv").read_bytes() == (b / "sweep.csv").read_bytes()
    assert (a / "convergence.csv").read_bytes() == (b / "convergence.csv").read_bytes()


def test_worker_parallelism_does_not_change_results(tmp_path):
    cfg = tiny_config()
    sequential = run_experiment_full(cfg)
    os.environ["DTPLACE_THREADS"] = "2"
    try:
        parallel = run_experiment_full(cfg)
    finally:
        del os.environ["DTPLACE_THREADS"]
    assert sequential.rows == parallel.rows
    assert sequential.records == parallel.records


def test_sweep_csv_layout(tmp_path):
    cfg = tiny_config()
    data = run_experiment_full(cfg)
    sweep, conv = write_outputs(data.rows, data.convergence, tmp_path / "out")
    with open(sweep) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(SWEEP_COLUMNS)
    assert len(rows) == 1 + len(data.rows)
    algs = [r[6] for r in rows[1:]]
    assert algs == sorted(algs[:4]) * 2
    with open(conv) as fh:
        conv_rows = list(csv.reader(fh))
    assert conv_rows[0] == ["run_id", "t", "rho_t"]
    assert len(conv_rows) > 1


def test_empty_convergence_writes_header_only(tmp_path):
    cfg = tiny_config()
    data = run_experiment_full(cfg)
    _, conv = write_outputs(data.rows, [], tmp_path / "empty")
    assert Path(conv).read_text().strip() == "run_id,t,rho_t"


def test_write_outputs_requires_rows(tmp_path):
    with pytest.raises(ValueError):
        write_outputs([], [], tmp_path)


def test_write_outputs_surfaces_path_errors(tmp_path):
    cfg = tiny_config()
    data = run_experiment_full(cfg)
    blocker = tmp_path / "blocked"
    blocker.write_text("file, not a directory")
    with pytest.raises(OSError) as err:
        write_outputs(data.rows, data.convergence, blocker)
    assert "blocked" in str(err.value)


def test_infeasible_cells_are_recorded_not_dropped():
    # a single server cannot host ten busy devices within the overload budget
    cfg = tiny_config(
        axis="servers",
        axis_values=(1,),
        num_devices=10,
        components_range=(3, 3),
        saa=SaaParams(alpha=0.05, epsilon=0.025, theta=40),
    )
    data = run_experiment_full(cfg)
    assert len(data.rows) == 4
    for row in data.rows:
        assert row.infeasible_count == row.replications == 2
        assert np.isnan(row.mean_cost_per_server)


def test_run_algorithm_rejects_an_unknown_name():
    inst = build_instance(
        servers=[(0.0, 0.0, 1.0, 1e9)],
        devices=[(1.0, 0.0, [(5.0, 200.0, (0.0,))])],
        unit_cost=0.5,
    )
    params = SaaParams(alpha=0.05, epsilon=0.025, theta=10)
    samples = draw_samples(inst, params, 1)
    with pytest.raises(ConfigurationError, match="unknown algorithm 'oracle'"):
        run_algorithm("oracle", inst, samples, params, 1)


def test_config_validation():
    with pytest.raises(ConfigurationError):
        tiny_config(axis="widgets")
    with pytest.raises(ConfigurationError):
        tiny_config(axis_values=())
    with pytest.raises(ConfigurationError):
        tiny_config(replications=0)
    with pytest.raises(ConfigurationError, match="axis values must be >= 1"):
        tiny_config(axis_values=(0, 2))
    with pytest.raises(ConfigurationError, match="baseline_trials"):
        tiny_config(baseline_trials=0)
    with pytest.raises(ConfigurationError, match="master_seed"):
        tiny_config(master_seed=-1)
    with pytest.raises(ConfigurationError):
        tiny_config(components_range=(2, 1))
    # The fixed counts and the component range are GenConfig's rules.
    with pytest.raises(ConfigurationError, match="num_servers and num_devices"):
        tiny_config(num_servers=0)
    with pytest.raises(ConfigurationError, match="components_range"):
        tiny_config(components_range=(0, 1))


def test_validate_p1_feasibility_zero_load():
    inst = build_instance(
        servers=[(0, 0, 1.0, 1e18), (10, 0, 1.0, 1e18)],
        devices=[(5, 0, [(5e6, 200.0, (0.0,))])],
        unit_cost=0.5,
    )
    proportion = validate_p1_feasibility(inst, Placement(servers=(0,)), 0.01, 500, seed=3)
    assert proportion == 0.0


def test_validate_p1_feasibility_detects_overload():
    inst = build_instance(
        servers=[(0, 0, 1.0, 1.0), (10, 0, 1.0, 1e18)],
        devices=[(5, 0, [(5e6, 200.0, (0.0,))])],
        unit_cost=0.5,
    )
    proportion = validate_p1_feasibility(inst, Placement(servers=(0,)), 0.01, 200, seed=3)
    assert proportion == 1.0


def test_golden_checksum(tmp_path):
    cfg = tiny_config()
    data = run_experiment_full(cfg)
    sweep, conv = write_outputs(data.rows, data.convergence, tmp_path / "golden")
    digest = hashlib.sha256(sweep.read_bytes() + conv.read_bytes()).hexdigest()
    assert digest == "0ff3fb8d7f210491a8c05f6c43f4b551f31627086b97e7ddf3f235abefdd1125"


def test_duplicate_axis_values_rejected():
    with pytest.raises(ConfigurationError, match="distinct"):
        tiny_config(axis_values=(3, 3))


def test_from_dict_defaults_and_conversions():
    required = {"axis": "devices", "axis_values": [2, 3], "replications": 2, "master_seed": 606}
    cfg = ExperimentConfig.from_dict(required)
    assert cfg == ExperimentConfig(
        axis="devices",
        axis_values=(2, 3),
        replications=2,
        master_seed=606,
        num_servers=6,
        num_devices=5,
        components_range=(1, 3),
        saa=SaaParams(alpha=0.01, epsilon=0.005, theta=1850),
        stage=StageConfig(delta=0.015, max_iterations=10),
        baseline_trials=10,
    )
    full = {
        **required,
        "num_servers": 3.0,
        "num_devices": 2,
        "components_range": [1.0, 2],
        "alpha": 0.05,
        "epsilon": 0.025,
        "theta": 40.0,
        "max_iterations": 4,
        "baseline_trials": 3,
    }
    assert ExperimentConfig.from_dict(full) == tiny_config()
    for key, text, refusal in (
        ("num_servers", "3", "expected a whole number, got '3'"),
        ("components_range", ["1", 2], "expected a whole number, got '1'"),
        ("alpha", "0.05", "expected a number, got '0.05'"),
    ):
        with pytest.raises(ConfigurationError, match=f"^{refusal}$"):
            ExperimentConfig.from_dict({**full, key: text})
    with pytest.raises(ConfigurationError, match="missing key 'master_seed'"):
        ExperimentConfig.from_dict({k: v for k, v in required.items() if k != "master_seed"})
    with pytest.raises(ConfigurationError, match="distinct"):
        ExperimentConfig.from_dict({**required, "axis_values": [3, 3]})


@pytest.mark.parametrize(
    "extra, named",
    [
        ({"thetaa": 50}, "thetaa"),  # a typo would run at the default theta
        ({"saa": {"theta": 5}}, "saa"),  # nested fields are not read
        ({"stage": {"delta": 0.1}}, "stage"),
        ({"phase2_step_cap": 500}, "phase2_step_cap"),  # a removed setting
        ({"zeta": 1, "beta": 2}, "beta, zeta"),
    ],
)
def test_from_dict_rejects_keys_it_does_not_read(extra, named):
    required = {"axis": "devices", "axis_values": [2, 3], "replications": 2, "master_seed": 606}
    with pytest.raises(ConfigurationError, match=f"unknown experiment config keys: {named}$"):
        ExperimentConfig.from_dict({**required, **extra})

"""Experiment driver: scenario sweeps, replications, aggregation, CSV output.

A sweep fixes one axis (server count or device count) and runs every
algorithm on the same generated instance and sample set per (cell,
replication). Sub-seeds derive from the master seed through named streams,
so adding an algorithm or a cell never perturbs existing draws. Everything
in the output files is a pure function of the config.
"""

from __future__ import annotations

import csv
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .baselines import baseline_nearest, baseline_random_best, baseline_restart_hillclimb
from .costs import Placement
from .domain import GenConfig, Instance, generate_instance
from .errors import ConfigurationError, NoFeasibleState
from .saa import SaaParams, draw_samples, overload_profile
from .seeding import child_seed
from .stage import StageConfig, stage_search

ALGORITHMS = ("nearest", "random", "restart", "stage")

AXIS_SERVERS = "servers"
AXIS_DEVICES = "devices"

SWEEP_COLUMNS = (
    "axis",
    "axis_value",
    "servers",
    "devices",
    "components_lo",
    "components_hi",
    "algorithm",
    "mean_cost_per_server",
    "sd_cost_per_server",
    "mean_states",
    "sd_states",
    "mean_iterations",
    "sd_iterations",
    "replications",
    "infeasible_count",
    "seed",
)


@dataclass(frozen=True)
class ExperimentConfig:
    axis: str  # "servers" or "devices"
    axis_values: tuple[int, ...]
    num_servers: int  # fixed value when sweeping devices
    num_devices: int  # fixed value when sweeping servers
    components_range: tuple[int, int]
    replications: int
    master_seed: int
    saa: SaaParams
    stage: StageConfig = StageConfig()
    baseline_trials: int = 10

    def validate(self) -> None:
        if self.axis not in (AXIS_SERVERS, AXIS_DEVICES):
            raise ConfigurationError(f"axis must be 'servers' or 'devices', got {self.axis!r}")
        if not self.axis_values:
            raise ConfigurationError("axis_values must not be empty")
        if any(v < 1 for v in self.axis_values):
            raise ConfigurationError("axis values must be >= 1")
        if len(set(self.axis_values)) != len(self.axis_values):
            raise ConfigurationError(f"axis_values must be distinct, got {list(self.axis_values)}")
        if self.num_servers < 1 or self.num_devices < 1:
            raise ConfigurationError("fixed entity counts must be >= 1")
        if self.replications < 1:
            raise ConfigurationError("replications must be >= 1")
        if self.baseline_trials < 1:
            raise ConfigurationError("baseline_trials must be >= 1")
        if self.master_seed < 0:
            raise ConfigurationError("master_seed must be non-negative")
        lo, hi = self.components_range
        if lo < 1 or hi < lo:
            raise ConfigurationError("components_range must satisfy 1 <= lo <= hi")


@dataclass(frozen=True)
class RunRecord:
    """One algorithm on one (cell, replication)."""

    axis_value: int
    rep: int
    algorithm: str
    feasible: bool
    rho: float
    cost_per_server: float
    states: int
    iterations: int
    converged: bool
    per_iteration_rho: tuple[float, ...]


@dataclass(frozen=True)
class MetricsRow:
    """Per-(cell, algorithm) aggregate over replications."""

    axis: str
    axis_value: int
    servers: int
    devices: int
    components_lo: int
    components_hi: int
    algorithm: str
    mean_cost_per_server: float
    sd_cost_per_server: float
    mean_states: float
    sd_states: float
    mean_iterations: float
    sd_iterations: float
    replications: int
    infeasible_count: int
    seed: int


@dataclass(frozen=True)
class ExperimentData:
    rows: tuple[MetricsRow, ...]
    convergence: tuple[tuple[str, int, float], ...]  # (run_id, t, rho_t)
    records: tuple[RunRecord, ...]


def _cell_shape(cfg: ExperimentConfig, value: int) -> tuple[int, int]:
    if cfg.axis == AXIS_SERVERS:
        return value, cfg.num_devices
    return cfg.num_servers, value


def _cell_seed(cfg: ExperimentConfig, value: int, rep: int, *labels: str) -> int:
    return child_seed(cfg.master_seed, f"cell={cfg.axis}:{value}", f"rep={rep}", *labels)


def _infeasible_record(value: int, rep: int, alg: str) -> RunRecord:
    return RunRecord(
        axis_value=value,
        rep=rep,
        algorithm=alg,
        feasible=False,
        rho=math.nan,
        cost_per_server=math.nan,
        states=0,
        iterations=0,
        converged=False,
        per_iteration_rho=(),
    )


def run_cell_rep(cfg: ExperimentConfig, value: int, rep: int) -> list[RunRecord]:
    """All four algorithms on one shared (instance, samples) draw."""
    servers, devices = _cell_shape(cfg, value)
    gen = GenConfig(
        num_servers=servers, num_devices=devices, components_range=cfg.components_range
    )
    inst = generate_instance(gen, _cell_seed(cfg, value, rep, "instance"))
    samples = draw_samples(inst, cfg.saa, _cell_seed(cfg, value, rep, "samples"))
    records: list[RunRecord] = []

    def cps(rho: float) -> float:
        return rho / servers

    try:
        result = stage_search(
            inst, samples, cfg.saa, cfg.stage, _cell_seed(cfg, value, rep, "alg=stage")
        )
        records.append(
            RunRecord(
                axis_value=value,
                rep=rep,
                algorithm="stage",
                feasible=True,
                rho=result.best_state.eval.total,
                cost_per_server=cps(result.best_state.eval.total),
                states=result.total_states_visited,
                iterations=result.iterations,
                converged=result.converged,
                per_iteration_rho=result.per_iteration_optima,
            )
        )
    except NoFeasibleState:
        records.append(_infeasible_record(value, rep, "stage"))

    # Baselines draw the same feasible starts: the random baseline's states
    # are exactly the restart baseline's starting points.
    trial_seed = _cell_seed(cfg, value, rep, "baseline-starts")

    try:
        res = baseline_random_best(inst, samples, cfg.saa, cfg.baseline_trials, trial_seed)
        records.append(
            RunRecord(
                axis_value=value,
                rep=rep,
                algorithm="random",
                feasible=True,
                rho=res.best_state.eval.total,
                cost_per_server=cps(res.best_state.eval.total),
                states=res.states_visited,
                iterations=cfg.baseline_trials,
                converged=False,
                per_iteration_rho=(),
            )
        )
    except NoFeasibleState:
        records.append(_infeasible_record(value, rep, "random"))

    try:
        res = baseline_restart_hillclimb(inst, samples, cfg.saa, cfg.baseline_trials, trial_seed)
        records.append(
            RunRecord(
                axis_value=value,
                rep=rep,
                algorithm="restart",
                feasible=True,
                rho=res.best_state.eval.total,
                cost_per_server=cps(res.best_state.eval.total),
                states=res.states_visited,
                iterations=cfg.baseline_trials,
                converged=False,
                per_iteration_rho=(),
            )
        )
    except NoFeasibleState:
        records.append(_infeasible_record(value, rep, "restart"))

    try:
        res = baseline_nearest(inst, samples, cfg.saa)
        records.append(
            RunRecord(
                axis_value=value,
                rep=rep,
                algorithm="nearest",
                feasible=True,
                rho=res.best_state.eval.total,
                cost_per_server=cps(res.best_state.eval.total),
                # Non-searching baseline: reported exploration stays fixed at
                # the trial budget shared by the sampling baselines.
                states=cfg.baseline_trials,
                iterations=1,
                converged=False,
                per_iteration_rho=(),
            )
        )
    except NoFeasibleState:
        records.append(_infeasible_record(value, rep, "nearest"))

    return records


def _worker(task: tuple[ExperimentConfig, int, int]) -> list[RunRecord]:
    cfg, value, rep = task
    return run_cell_rep(cfg, value, rep)


def _num_workers() -> int:
    raw = os.environ.get("DTPLACE_THREADS", "1")
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ConfigurationError(f"DTPLACE_THREADS must be a positive integer, got {raw!r}")
    return workers


def run_experiment_full(cfg: ExperimentConfig) -> ExperimentData:
    cfg.validate()
    tasks = [(cfg, value, rep) for value in cfg.axis_values for rep in range(cfg.replications)]
    workers = min(_num_workers(), len(tasks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(_worker, tasks))
    else:
        chunks = [_worker(t) for t in tasks]
    records = [rec for chunk in chunks for rec in chunk]

    rows: list[MetricsRow] = []
    servers_by_value = {}
    for value in cfg.axis_values:
        servers_by_value[value] = _cell_shape(cfg, value)
    for value in sorted(set(cfg.axis_values)):
        servers, devices = servers_by_value[value]
        for alg in sorted(ALGORITHMS):
            cell = [r for r in records if r.axis_value == value and r.algorithm == alg]
            ok = [r for r in cell if r.feasible]
            if ok:
                costs = np.array([r.cost_per_server for r in ok])
                states = np.array([r.states for r in ok], dtype=np.float64)
                iters = np.array([r.iterations for r in ok], dtype=np.float64)
                stats = (
                    float(costs.mean()),
                    float(costs.std()),
                    float(states.mean()),
                    float(states.std()),
                    float(iters.mean()),
                    float(iters.std()),
                )
            else:
                stats = (math.nan,) * 6
            rows.append(
                MetricsRow(
                    axis=cfg.axis,
                    axis_value=value,
                    servers=servers,
                    devices=devices,
                    components_lo=cfg.components_range[0],
                    components_hi=cfg.components_range[1],
                    algorithm=alg,
                    mean_cost_per_server=stats[0],
                    sd_cost_per_server=stats[1],
                    mean_states=stats[2],
                    sd_states=stats[3],
                    mean_iterations=stats[4],
                    sd_iterations=stats[5],
                    replications=len(cell),
                    infeasible_count=len(cell) - len(ok),
                    seed=cfg.master_seed,
                )
            )

    convergence: list[tuple[str, int, float]] = []
    for rec in records:
        if rec.algorithm == "stage" and rec.feasible:
            run_id = f"{cfg.axis}={rec.axis_value},rep={rec.rep}"
            for t, rho in enumerate(rec.per_iteration_rho, start=1):
                convergence.append((run_id, t, rho))

    return ExperimentData(
        rows=tuple(rows), convergence=tuple(convergence), records=tuple(records)
    )


def run_experiment(cfg: ExperimentConfig) -> list[MetricsRow]:
    return list(run_experiment_full(cfg).rows)


def _fmt(value: float) -> str:
    return f"{value:.6f}"


def write_outputs(rows, convergence_logs, out_dir) -> tuple[Path, Path]:
    """Write sweep.csv and convergence.csv with a stable column order."""
    if not rows:
        raise ValueError("no metrics rows to write")
    out = Path(out_dir)
    sweep_path = out / "sweep.csv"
    conv_path = out / "convergence.csv"
    try:
        out.mkdir(parents=True, exist_ok=True)
        with open(sweep_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(SWEEP_COLUMNS)
            for row in rows:
                writer.writerow(
                    [
                        row.axis,
                        row.axis_value,
                        row.servers,
                        row.devices,
                        row.components_lo,
                        row.components_hi,
                        row.algorithm,
                        _fmt(row.mean_cost_per_server),
                        _fmt(row.sd_cost_per_server),
                        _fmt(row.mean_states),
                        _fmt(row.sd_states),
                        _fmt(row.mean_iterations),
                        _fmt(row.sd_iterations),
                        row.replications,
                        row.infeasible_count,
                        row.seed,
                    ]
                )
        with open(conv_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["run_id", "t", "rho_t"])
            for run_id, t, rho in convergence_logs:
                writer.writerow([run_id, t, _fmt(rho)])
    except OSError as exc:
        raise OSError(f"failed writing experiment outputs under {out}: {exc}") from exc
    return sweep_path, conv_path


def validate_p1_feasibility(
    inst: Instance,
    placement: Placement,
    alpha: float,
    validation_theta: int,
    seed: int,
) -> float:
    """Empirical overload check on fresh scenarios.

    Draws an independent validation sample set and returns the maximum
    per-server overload proportion; the placement passes the original
    probabilistic constraint empirically when the result is <= alpha.
    """
    params = SaaParams(alpha=alpha, epsilon=alpha, theta=validation_theta)
    samples = draw_samples(inst, params, child_seed(seed, "validation"))
    profile = overload_profile(inst, samples, placement, params)
    return float(profile.proportion.max())

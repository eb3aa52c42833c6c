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
from dataclasses import astuple, dataclass, fields
from pathlib import Path

import numpy as np

from .baselines import baseline_nearest, baseline_random_best, baseline_restart_hillclimb
from .costs import Placement
from .domain import GenConfig, Instance, generate_instance, listed, member, real, whole
from .errors import ConfigurationError, NoFeasibleState
from .saa import SaaParams, SampleSet, draw_samples, overload_profile
from .search import RunSummary
from .seeding import child_seed
from .stage import StageConfig, stage_search

AXIS_SERVERS = "servers"
AXIS_DEVICES = "devices"


@dataclass(frozen=True)
class ExperimentConfig:
    axis: str  # "servers" or "devices"
    axis_values: tuple[int, ...]
    replications: int
    master_seed: int
    num_servers: int = 6  # fixed value when sweeping devices
    num_devices: int = 5  # fixed value when sweeping servers
    components_range: tuple[int, int] = (1, 3)
    saa: SaaParams = SaaParams()
    stage: StageConfig = StageConfig()
    baseline_trials: int = 10

    @classmethod
    def from_dict(cls, raw) -> ExperimentConfig:
        """Build and validate a config from a parsed JSON object.

        ``axis``, ``axis_values``, ``replications`` and ``master_seed`` are
        required. The optional keys are the other fields plus the fields of
        :class:`SaaParams` and :class:`StageConfig`, flattened; an absent key
        keeps its dataclass default, which the CLI flags read as well. Every
        value goes through the readers of :mod:`dtplace.domain`, so nothing
        is truncated. Every refusal raises :class:`ConfigurationError`: a
        value a reader refuses, a key that is none of the above (a typo would
        otherwise run at the default) and an invalid value.
        """
        axis = member(raw, "axis")
        known = {f.name for c in (cls, SaaParams, StageConfig) for f in fields(c)}
        unknown = sorted(set(raw) - (known - {"saa", "stage"}))
        if unknown:
            raise ConfigurationError(f"unknown experiment config keys: {', '.join(unknown)}")

        def present(**converters):
            return {key: conv(raw[key]) for key, conv in converters.items() if key in raw}

        lo, hi = (whole(v) for v in listed(raw.get("components_range", cls.components_range), 2))
        return cls(
            axis=axis,
            axis_values=tuple(whole(v) for v in listed(member(raw, "axis_values"))),
            replications=whole(member(raw, "replications")),
            master_seed=whole(member(raw, "master_seed")),
            components_range=(lo, hi),
            saa=SaaParams(**present(alpha=real, epsilon=real, theta=whole)),
            stage=StageConfig(**present(delta=real, max_iterations=whole)),
            **present(num_servers=whole, num_devices=whole, baseline_trials=whole),
        )

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        if self.axis not in (AXIS_SERVERS, AXIS_DEVICES):
            raise ConfigurationError(f"axis must be 'servers' or 'devices', got {self.axis!r}")
        if not self.axis_values:
            raise ConfigurationError("axis_values must not be empty")
        if any(v < 1 for v in self.axis_values):
            raise ConfigurationError("axis values must be >= 1")
        if len(set(self.axis_values)) != len(self.axis_values):
            raise ConfigurationError(f"axis_values must be distinct, got {list(self.axis_values)}")
        if self.replications < 1:
            raise ConfigurationError("replications must be >= 1")
        if self.baseline_trials < 1:
            raise ConfigurationError("baseline_trials must be >= 1")
        if self.master_seed < 0:
            raise ConfigurationError("master_seed must be non-negative")
        # The fixed counts and the component range follow GenConfig's rules.
        GenConfig(self.num_servers, self.num_devices, self.components_range)


@dataclass(frozen=True)
class RunRecord:
    """One algorithm on one (cell, replication); an infeasible run keeps the
    defaults: no cost and no search effort."""

    axis_value: int
    rep: int
    algorithm: str
    feasible: bool
    rho: float = math.nan
    cost_per_server: float = math.nan
    states: int = 0
    iterations: int = 0
    converged: bool = False
    per_iteration_rho: tuple[float, ...] = ()


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


SWEEP_COLUMNS = tuple(f.name for f in fields(MetricsRow))


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


_ALGORITHMS = ("stage", "random", "restart", "nearest")  # in run order


def run_algorithm(
    name: str,
    inst: Instance,
    samples: SampleSet,
    params: SaaParams,
    seed: int,
    stage: StageConfig = StageConfig(),
    trials: int = ExperimentConfig.baseline_trials,
) -> RunSummary:
    """Run ``stage``, ``random``, ``restart`` or ``nearest`` on one draw.

    ``stage`` configures only the learned-restart search and ``trials`` only
    the random and restart baselines. Raises :class:`NoFeasibleState` when
    the algorithm finds no placement within the overload budget, and
    :class:`ConfigurationError` for an unknown name. The algorithms are
    looked up as module globals at call time, so rebinding one of those
    names (as a tracer does) reaches every run.
    """
    if name == "stage":
        return stage_search(inst, samples, params, stage, seed)
    if name == "random":
        return baseline_random_best(inst, samples, params, trials, seed)
    if name == "restart":
        return baseline_restart_hillclimb(inst, samples, params, trials, seed)
    if name == "nearest":
        return baseline_nearest(inst, samples, params)
    raise ConfigurationError(
        f"unknown algorithm {name!r}; expected one of {', '.join(_ALGORITHMS)}"
    )


def run_cell_rep(cfg: ExperimentConfig, value: int, rep: int) -> list[RunRecord]:
    """All four algorithms on one shared (instance, samples) draw."""
    servers, devices = _cell_shape(cfg, value)
    gen = GenConfig(
        num_servers=servers, num_devices=devices, components_range=cfg.components_range
    )
    inst = generate_instance(gen, _cell_seed(cfg, value, rep, "instance"))
    samples = draw_samples(inst, cfg.saa, _cell_seed(cfg, value, rep, "samples"))
    # Baselines draw the same feasible starts: the random baseline's states
    # are exactly the restart baseline's starting points.
    baseline_seed = _cell_seed(cfg, value, rep, "baseline-starts")
    records: list[RunRecord] = []
    for alg in _ALGORITHMS:
        seed = _cell_seed(cfg, value, rep, "alg=stage") if alg == "stage" else baseline_seed
        try:
            run = run_algorithm(alg, inst, samples, cfg.saa, seed, cfg.stage, cfg.baseline_trials)
        except NoFeasibleState:
            records.append(RunRecord(value, rep, alg, feasible=False))
            continue
        rho = run.best_state.eval.total
        records.append(
            RunRecord(
                axis_value=value,
                rep=rep,
                algorithm=alg,
                feasible=True,
                rho=rho,
                cost_per_server=rho / servers,
                # nearest builds one placement without searching. Sweep rows
                # report it at the trial budget the sampling baselines share;
                # the solve/baseline JSON reports the one state it built.
                states=cfg.baseline_trials if alg == "nearest" else run.total_states_visited,
                iterations=run.iterations,
                converged=run.converged,
                per_iteration_rho=run.per_iteration_optima,
            )
        )
    return records


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
    tasks = [(cfg, value, rep) for value in cfg.axis_values for rep in range(cfg.replications)]
    workers = min(_num_workers(), len(tasks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(run_cell_rep, *zip(*tasks)))
    else:
        chunks = [run_cell_rep(*t) for t in tasks]
    records = [rec for chunk in chunks for rec in chunk]

    rows: list[MetricsRow] = []
    for value in sorted(set(cfg.axis_values)):
        servers, devices = _cell_shape(cfg, value)
        for alg in sorted(_ALGORITHMS):
            cell = [r for r in records if r.axis_value == value and r.algorithm == alg]
            ok = [r for r in cell if r.feasible]
            stats = {}
            for name in ("cost_per_server", "states", "iterations"):
                column = np.array([getattr(r, name) for r in ok], dtype=np.float64)
                stats[f"mean_{name}"] = float(column.mean()) if ok else math.nan
                stats[f"sd_{name}"] = float(column.std()) if ok else math.nan
            rows.append(
                MetricsRow(
                    axis=cfg.axis,
                    axis_value=value,
                    servers=servers,
                    devices=devices,
                    components_lo=cfg.components_range[0],
                    components_hi=cfg.components_range[1],
                    algorithm=alg,
                    replications=len(cell),
                    infeasible_count=len(cell) - len(ok),
                    seed=cfg.master_seed,
                    **stats,
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


def _fmt(value: float) -> str:
    return f"{value:.6f}"


def write_outputs(rows, convergence_logs, out_dir) -> tuple[Path, Path]:
    """Write sweep.csv and convergence.csv with a stable column order."""
    if not rows:
        raise ValueError("no metrics rows to write")
    out = Path(out_dir)
    sweep_path = out / "sweep.csv"
    conv_path = out / "convergence.csv"
    out.mkdir(parents=True, exist_ok=True)
    with open(sweep_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SWEEP_COLUMNS)
        for row in rows:
            writer.writerow(_fmt(v) if isinstance(v, float) else v for v in astuple(row))
    with open(conv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["run_id", "t", "rho_t"])
        for run_id, t, rho in convergence_logs:
            writer.writerow([run_id, t, _fmt(rho)])
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

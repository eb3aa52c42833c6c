"""The benchmark's workloads, their op outcomes and the correctness gate.

A workload turns the workload seed into a plan: a fixed tuple of op inputs
and a function that runs one op and returns an ``Outcome``. Every instance,
sample and solver sub-seed derives from the workload seed, and the library
receives only the generated inputs. Outcomes hold the results that must
repeat exactly when the same op runs again, traced or not.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

# Library entry points are called through their modules, so the tracer's
# rebinding of module attributes reaches the benchmark's own calls too.
from dtplace import baselines, domain, harness, oracle, saa, stage
from dtplace import ExperimentConfig, GenConfig, NoFeasibleState, SaaParams, StageConfig
from dtplace.costs import evaluate
from dtplace.saa import overload_profile
from dtplace.seeding import child_seed

import tracer

REL_TOL = 1e-9


@dataclass(frozen=True)
class Outcome:
    """What one op returned.

    ``costs`` lists (algorithm, best cost) per algorithm run, with None for a
    run that raised ``NoFeasibleState``. ``detail`` holds everything else
    that must repeat exactly: placements, counts, validation proportions.
    """

    servers: int
    costs: tuple[tuple[str, float | None], ...]
    detail: tuple = ()


@dataclass(frozen=True)
class Plan:
    ops: tuple
    run: Callable[[object], Outcome]


@dataclass(frozen=True)
class Workload:
    prepare: Callable[[int], Plan]
    expected: tuple[str, ...]  # span names that must record calls
    absent: tuple[str, ...]  # span names that must record none


def _attempt(fn, *args):
    try:
        return fn(*args)
    except NoFeasibleState:
        return None


# --- sweep: the paper's experiment loop, many small solves -----------------

SWEEP_DEVICES = (5, 6, 7, 8, 9, 10)
SWEEP_REPS = 10


def prepare_sweep(seed: int) -> Plan:
    cfg = ExperimentConfig(
        axis="devices",
        axis_values=SWEEP_DEVICES,
        num_servers=6,
        num_devices=SWEEP_DEVICES[0],
        components_range=(1, 3),
        replications=SWEEP_REPS,
        master_seed=seed,
        saa=SaaParams(alpha=0.01, epsilon=0.005, theta=200),
        stage=StageConfig(),
        baseline_trials=10,
    )
    cfg.validate()
    ops = tuple((cfg, value, rep) for rep in range(SWEEP_REPS) for value in SWEEP_DEVICES)
    return Plan(ops=ops, run=run_sweep_op)


def run_sweep_op(op) -> Outcome:
    cfg, value, rep = op
    records = harness.run_cell_rep(cfg, value, rep)
    return Outcome(
        servers=cfg.num_servers,
        costs=tuple((r.algorithm, r.rho if r.feasible else None) for r in records),
        detail=tuple((r.algorithm, r.states, r.iterations, r.converged) for r in records),
    )


# --- solve-large: solves at the paper's large theta ------------------------

# The (20 servers, 60 devices) shape takes 4 to 25 s per solve, too few ops
# per run to take a median on a shared machine; (10, 30) keeps theta, the
# devices-per-server ratio and the random-start rejections at 0.5 to 2.7 s.
# Four instances per pass average out what one instance's mix of descents
# and rejections does to the work rate.
LARGE_SHAPE = GenConfig(num_servers=10, num_devices=30, components_range=(1, 3))
LARGE_INSTANCES = 4


def prepare_solve_large(seed: int) -> Plan:
    params = SaaParams(alpha=0.01, epsilon=0.005, theta=1850)
    ops = []
    for i in range(LARGE_INSTANCES):
        label = f"solve-large/{i}"
        inst = domain.generate_instance(LARGE_SHAPE, child_seed(seed, label, "instance"))
        samples = saa.draw_samples(inst, params, child_seed(seed, label, "samples"))
        ops.append((inst, samples, params, StageConfig(), child_seed(seed, label, "stage")))
    return Plan(ops=tuple(ops), run=run_solve_large_op)


def run_solve_large_op(op) -> Outcome:
    inst, samples, params, cfg, solver_seed = op
    result = _attempt(stage.stage_search, inst, samples, params, cfg, solver_seed)
    if result is None:
        return Outcome(servers=inst.num_servers, costs=(("stage", None),))
    best = result.best_state
    return Outcome(
        servers=inst.num_servers,
        costs=(("stage", best.eval.total),),
        detail=(best.placement.servers, result.per_iteration_optima),
    )


# --- verify: exact oracle as ground truth on a tiny instance ---------------

VERIFY_INSTANCES = 4
VERIFY_VALIDATION_THETA = 20000


def prepare_verify(seed: int) -> Plan:
    params = SaaParams(alpha=0.05, epsilon=0.025, theta=50)
    ops = []
    for i in range(VERIFY_INSTANCES):
        label = f"verify/{i}"
        inst = domain.generate_instance(
            GenConfig(num_servers=4, num_devices=4, components_range=(2, 2)),
            child_seed(seed, label, "instance"),
        )
        samples = saa.draw_samples(inst, params, child_seed(seed, label, "samples"))
        ops.append(
            (
                inst,
                samples,
                params,
                child_seed(seed, label, "stage"),
                child_seed(seed, label, "validation"),
            )
        )
    return Plan(ops=tuple(ops), run=run_verify_op)


def run_verify_op(op) -> Outcome:
    inst, samples, params, solver_seed, validation_seed = op
    exact = oracle.exact_solve(inst, samples, params)
    solved = _attempt(stage.stage_search, inst, samples, params, StageConfig(), solver_seed)
    nearest = _attempt(baselines.baseline_nearest, inst, samples, params)
    proportion = None
    if exact.feasible:
        proportion = harness.validate_p1_feasibility(
            inst, exact.argmin, params.alpha, VERIFY_VALIDATION_THETA, validation_seed
        )
    stage_state = solved.best_state if solved else None
    nearest_state = nearest.best_state if nearest else None
    return Outcome(
        servers=inst.num_servers,
        costs=(
            ("oracle", exact.optimum),
            ("stage", stage_state.eval.total if stage_state else None),
            ("nearest", nearest_state.eval.total if nearest_state else None),
        ),
        detail=(
            exact.argmin.servers if exact.argmin else None,
            stage_state.placement.servers if stage_state else None,
            nearest_state.placement.servers if nearest_state else None,
            proportion,
        ),
    )


# --- registry --------------------------------------------------------------

_SEARCH = (
    "search.hill_climb.cost",
    "search.hill_climb.predict",
    "search.random_feasible_state",
    "search.make_state",
    "saa.load_matrix",
    "saa.draw_samples",
    "costs.evaluate",
    "costs.features",
    "stage.stage_search",
    "stage.fit_value_model",
    "domain.generate_instance",
)
_BASELINES = (
    "baselines.baseline_random_best",
    "baselines.baseline_restart_hillclimb",
    "baselines.baseline_nearest",
)

WORKLOADS = {
    "sweep": Workload(
        prepare=prepare_sweep,
        expected=_SEARCH + _BASELINES + ("saa.overload_profile", "harness.run_cell_rep"),
        absent=("oracle.exact_solve", "harness.validate_p1_feasibility"),
    ),
    "solve-large": Workload(
        prepare=prepare_solve_large,
        expected=_SEARCH,
        absent=_BASELINES + ("oracle.exact_solve", "harness.run_cell_rep"),
    ),
    "verify": Workload(
        prepare=prepare_verify,
        expected=_SEARCH
        + (
            "baselines.baseline_nearest",
            "saa.overload_profile",
            "oracle.exact_solve",
            "harness.validate_p1_feasibility",
        ),
        absent=(
            "baselines.baseline_random_best",
            "baselines.baseline_restart_hillclimb",
            "harness.run_cell_rep",
        ),
    ),
}


def check_layers(workload: Workload, spans) -> list[str]:
    """Layers the workload claims to exercise but did not, or the reverse."""
    seen = {span.name for span in spans}
    problems = [f"{name} recorded no calls" for name in workload.expected if name not in seen]
    problems += [f"{name} recorded calls" for name in workload.absent if name in seen]
    return problems


# --- correctness gate ------------------------------------------------------


def overload_budget(params: SaaParams) -> int:
    """floor(epsilon * theta), with epsilon read as the decimal it was written as."""
    return math.floor(Fraction(repr(params.epsilon)) * params.theta)


def check_placement(inst, samples, params, placement, reported: float) -> list[str]:
    """From-scratch cost and overload check of one returned placement."""
    problems = []
    total = evaluate(inst, placement).total
    if not math.isclose(total, reported, rel_tol=REL_TOL, abs_tol=0.0):
        problems.append(f"reported cost {reported!r} but evaluate gives {total!r}")
    counts = overload_profile(inst, samples, placement, params).overload_count
    budget = overload_budget(params)
    over = [int(s) for s in range(len(counts)) if counts[s] > budget]
    if over:
        problems.append(f"servers {over} exceed the overload budget {budget}")
    return problems


def returned_placements(name: str, result):
    """(label, placement, reported cost) for each placement an algorithm returned."""
    if name == "oracle.exact_solve":
        if result.feasible:
            yield "argmin", result.argmin, result.optimum
    elif name == "stage.stage_search":
        yield "best", result.best_state.placement, result.best_state.eval.total
        yield "final", result.final_state.placement, result.final_state.eval.total
    else:
        yield "best", result.best_state.placement, result.best_state.eval.total


_RECORD_SOURCE = {
    "stage": "stage.stage_search",
    "random": "baselines.baseline_random_best",
    "restart": "baselines.baseline_restart_hillclimb",
    "nearest": "baselines.baseline_nearest",
}


def _check_records(records, children: dict) -> list[str]:
    """run_cell_rep's records against the algorithm calls it made."""
    problems = []
    for record in records:
        child = children.get(_RECORD_SOURCE.get(record.algorithm))
        if child is None:
            problems.append(f"record {record.algorithm} has no matching algorithm call")
            continue
        if not record.feasible:
            if child.error != "NoFeasibleState":
                problems.append(f"record {record.algorithm} infeasible but the call returned")
            continue
        (inst, _, _), result = child.facts["call"]
        cost = result.best_state.eval.total
        if record.rho != cost or record.cost_per_server != cost / inst.num_servers:
            problems.append(f"record {record.algorithm} reports {record.rho!r}, call returned {cost!r}")
    return problems


def gate(spans) -> dict[int | None, list[str]]:
    """Problems found in a traced pass, keyed by op id."""
    problems: dict[int | None, list[str]] = {}
    calls_by_parent: dict[int, dict] = {}
    for span in spans:
        if span.name in tracer.ALGORITHMS and span.parent is not None:
            calls_by_parent.setdefault(span.parent, {})[span.name] = span
    for i, span in enumerate(spans):
        found: list[str] = []
        if span.name in tracer.ALGORITHMS and span.facts is not None:
            (inst, samples, params), result = span.facts["call"]
            for label, placement, cost in returned_placements(span.name, result):
                found += [
                    f"{span.name} {label}: {p}"
                    for p in check_placement(inst, samples, params, placement, cost)
                ]
        elif span.name == "harness.run_cell_rep" and span.facts is not None:
            found = _check_records(span.facts["records"], calls_by_parent.get(i, {}))
        if found:
            problems.setdefault(span.op, []).extend(found)
    return problems


def check_outcome(outcome: Outcome) -> list[str]:
    """No heuristic may beat the exact optimum of the same inputs."""
    costs = dict(outcome.costs)
    optimum = costs.get("oracle")
    if optimum is None:
        return []
    return [
        f"{alg} cost {cost!r} is below the exact optimum {optimum!r}"
        for alg, cost in outcome.costs
        if alg != "oracle" and cost is not None and cost < optimum * (1.0 - REL_TOL)
    ]


def placement_digest(spans) -> str:
    """sha256 over every placement the algorithms returned, in call order."""
    digest = hashlib.sha256()
    for span in spans:
        if span.name in tracer.ALGORITHMS and span.facts is not None:
            _, result = span.facts["call"]
            for label, placement, _ in returned_placements(span.name, result):
                digest.update(f"{span.op}:{span.name}:{label}:{placement.servers}\n".encode())
    return digest.hexdigest()


# --- deterministic end-to-end figures --------------------------------------


def cost_metrics(outcomes: list[Outcome]) -> dict[str, float]:
    """Mean best cost per server per algorithm, shares and the oracle gap."""
    per_alg: dict[str, list[float]] = {}
    runs = infeasible = 0
    gaps = []
    for outcome in outcomes:
        costs = dict(outcome.costs)
        for alg, cost in outcome.costs:
            if alg == "oracle":
                continue
            runs += 1
            if cost is None:
                infeasible += 1
                continue
            per_alg.setdefault(alg, []).append(cost / outcome.servers)
            if alg == "stage" and costs.get("oracle"):
                gaps.append((cost - costs["oracle"]) / costs["oracle"])
    out = {f"cost_per_server.{alg}": sum(v) / len(v) for alg, v in sorted(per_alg.items())}
    if gaps:
        out["gap_to_exact.stage"] = sum(gaps) / len(gaps)
    out["infeasible_share"] = infeasible / runs if runs else 0.0
    return out

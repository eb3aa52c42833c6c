"""Command-line interface.

Subcommands: gen, solve, baseline, oracle, experiment, validate. Instances,
sample sets, and solve results are JSON files; experiments emit CSV. Exit
codes: 0 success, 2 configuration error, 3 no feasible placement exists,
141 stdout closed by its reader.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict
from pathlib import Path

from .costs import placement_from_triples, placement_to_triples
from .domain import (
    GenConfig,
    Instance,
    generate_instance,
    instance_from_dict,
    instance_to_dict,
    member,
    real,
)
from .errors import ConfigurationError, NoFeasibleState, SizeCapExceeded
from .harness import (
    ExperimentConfig,
    run_algorithm,
    run_experiment_full,
    validate_p1_feasibility,
    write_outputs,
)
from .oracle import DEFAULT_SIZE_CAP, exact_solve
from .saa import SaaParams, SampleSet, draw_samples, samples_from_dict, samples_to_dict
from .search import RunSummary, make_state
from .stage import StageConfig


def _parse_components(text: str) -> tuple[int, int]:
    try:
        lo, hi = text.split("..")
        return int(lo), int(hi)
    except ValueError as exc:
        raise ConfigurationError(f"components must look like LO..HI, got {text!r}") from exc


def _dump_json(data, path: str | None) -> None:
    text = json.dumps(data, indent=2)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _read(path: str, what: str, parse):
    """``parse`` of the JSON file at ``path``. An unreadable file, text that is
    not JSON and every :class:`ConfigurationError` of ``parse``, the one type
    the parsers raise, raise a one-line :class:`ConfigurationError` naming ``path``."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigurationError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except ValueError as exc:  # bad JSON or bytes that are not text
        raise ConfigurationError(f"{path} is not valid JSON: {exc}") from exc
    try:
        return parse(data)
    except ConfigurationError as exc:
        raise ConfigurationError(f"malformed {what} {path}: {exc}") from exc


def _load_instance(path: str) -> Instance:
    def parse(data):  # a gen output file or a bare instance
        wrapped = isinstance(data, dict) and "instance" in data
        return instance_from_dict(data["instance"] if wrapped else data)

    return _read(path, "instance", parse)


def _load_problem(args) -> tuple[Instance, SaaParams, SampleSet]:
    """The instance, risk parameters and scenarios a solving command runs on.

    Scenarios come from ``--samples`` when given, and then theta is the
    file's: the overload budget floor(epsilon * theta) must count the
    scenarios the placement is checked against. Otherwise ``--theta``
    scenarios are drawn from ``--seed``.
    """
    inst = _load_instance(args.instance)
    if not args.samples:
        theta = SaaParams.theta if args.theta is None else args.theta
        params = SaaParams(alpha=args.alpha, epsilon=args.epsilon, theta=theta)
        return inst, params, draw_samples(inst, params, args.seed)
    samples = _read(args.samples, "sample file", samples_from_dict)
    if samples.cycles.shape[0] != inst.total_components:
        raise ConfigurationError("sample file was drawn for a different number of components")
    if args.theta is not None and args.theta != samples.theta:
        raise ConfigurationError(
            f"--theta {args.theta} disagrees with the {samples.theta} scenarios in {args.samples}"
        )
    return inst, SaaParams(alpha=args.alpha, epsilon=args.epsilon, theta=samples.theta), samples


def _result_record(
    algorithm: str, inst: Instance, params: SaaParams, run: RunSummary, seed: int
) -> dict:
    state = run.best_state
    return {
        "algorithm": algorithm,
        "seed": seed,
        "alpha": params.alpha,
        "epsilon": params.epsilon,
        "theta": params.theta,
        "rho": state.eval.total,
        "offload": state.eval.offload,
        "communication": state.eval.communication,
        "cost_per_server": state.eval.total / inst.num_servers,
        "states_visited": run.total_states_visited,
        "iterations": run.iterations,
        "converged": run.converged,
        "per_iteration_rho": list(run.per_iteration_optima),
        "per_iteration_states": list(run.per_iteration_lengths),
        "max_overload_proportion": float(state.profile.proportion.max()),
        "placement": [list(t) for t in placement_to_triples(inst, state.placement)],
    }


def _cmd_gen(args) -> int:
    cfg = GenConfig(
        num_servers=args.servers,
        num_devices=args.devices,
        components_range=_parse_components(args.components),
        area_side=args.area_side,
    )
    inst = generate_instance(cfg, args.seed)
    _dump_json(
        {"seed": args.seed, "gen_config": asdict(cfg), "instance": instance_to_dict(inst)},
        args.out,
    )
    return 0


def _cmd_solve(args) -> int:
    inst, params, samples = _load_problem(args)
    if args.samples_out:
        _dump_json(samples_to_dict(samples, seed=args.seed), args.samples_out)
    cfg = StageConfig(delta=args.delta, max_iterations=args.max_iterations)
    run = run_algorithm("stage", inst, samples, params, args.seed, stage=cfg)
    record = _result_record("stage", inst, params, run, args.seed)
    record["final_rho"] = run.final_state.eval.total
    _dump_json(record, args.out)
    return 0


def _cmd_baseline(args) -> int:
    inst, params, samples = _load_problem(args)
    run = run_algorithm(args.which, inst, samples, params, args.seed, trials=args.trials)
    _dump_json(_result_record(args.which, inst, params, run, args.seed), args.out)
    return 0


def _cmd_oracle(args) -> int:
    inst, params, samples = _load_problem(args)
    result = exact_solve(inst, samples, params, size_cap=args.size_cap)
    if not result.feasible:
        raise NoFeasibleState(f"enumerated all {result.states_enumerated} placements")
    run = RunSummary(
        best_state=make_state(inst, samples, params, result.argmin),
        total_states_visited=result.states_enumerated,
        iterations=1,
    )
    _dump_json(_result_record("oracle", inst, params, run, args.seed), args.out)
    return 0


def _cmd_experiment(args) -> int:
    def parse(raw):
        if isinstance(raw, dict):  # from_dict rejects anything else
            for key, value in (("master_seed", args.seed), ("replications", args.replications)):
                if value is not None:
                    raw[key] = value
        return ExperimentConfig.from_dict(raw)

    cfg = _read(args.config, "experiment config", parse)
    # Fail on an output path that cannot be made before the sweep runs.
    Path(args.out).mkdir(parents=True, exist_ok=True)
    data = run_experiment_full(cfg)
    sweep, conv = write_outputs(data.rows, data.convergence, args.out)
    print(f"wrote {sweep}")
    print(f"wrote {conv}")
    return 0


def _cmd_validate(args) -> int:
    inst = _load_instance(args.instance)

    def parse(data):
        """The placement of a record or a bare triple list, and the alpha to
        judge it at: ``--alpha``, else the record's, else the default."""
        if not isinstance(data, dict):
            data = {"placement": data}
        alpha = args.alpha
        if alpha is None:
            alpha = real(data["alpha"]) if "alpha" in data else SaaParams.alpha
            SaaParams(alpha=alpha, epsilon=alpha)  # refuses the record's alpha here, with the file
        return placement_from_triples(inst, member(data, "placement")), alpha

    placement, alpha = _read(args.placement, "placement", parse)
    proportion = validate_p1_feasibility(inst, placement, alpha, args.validation_theta, args.seed)
    verdict = "pass" if proportion <= alpha else "fail"
    print(f"max_overload_proportion: {proportion:.6f}")
    print(f"alpha: {alpha}")
    print(f"verdict: {verdict}")
    return 0


def _add_saa_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--alpha", type=float, default=SaaParams.alpha)
    p.add_argument("--epsilon", type=float, default=SaaParams.epsilon)
    p.add_argument(
        "--theta",
        type=int,
        help=f"scenario count (default {SaaParams.theta}; with --samples, the file's)",
    )
    p.add_argument("--samples", help="JSON sample-set file (drawn from --seed when omitted)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dtplace",
        description="Sustainability-aware digital-twin component placement",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a random instance")
    p.add_argument("--servers", type=int, required=True)
    p.add_argument("--devices", type=int, required=True)
    p.add_argument("--components", required=True, help="range LO..HI, e.g. 1..3")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--area-side", type=float, default=GenConfig.area_side)
    p.add_argument("--out", help="output file (stdout when omitted)")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("solve", help="run the learned-restart search")
    p.add_argument("--instance", required=True)
    p.add_argument("--seed", type=int, required=True)
    _add_saa_flags(p)
    p.add_argument("--delta", type=float, default=StageConfig.delta)
    p.add_argument("--max-iterations", type=int, default=StageConfig.max_iterations)
    p.add_argument("--samples-out", help="persist the drawn sample set for replay")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("baseline", help="run a comparison strategy")
    p.add_argument("--which", choices=("random", "restart", "nearest"), required=True)
    p.add_argument("--instance", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trials", type=int, default=ExperimentConfig.baseline_trials)
    _add_saa_flags(p)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_baseline)

    p = sub.add_parser("oracle", help="exhaustive optimum for tiny instances")
    p.add_argument("--instance", required=True)
    p.add_argument("--seed", type=int, default=0)
    _add_saa_flags(p)
    p.add_argument("--size-cap", type=int, default=DEFAULT_SIZE_CAP)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("experiment", help="run a sweep from a JSON config")
    p.add_argument("config")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, help="override master_seed")
    p.add_argument("--replications", type=int, help="override replications")
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("validate", help="fresh-sample overload check of a placement")
    p.add_argument("--instance", required=True)
    p.add_argument("--placement", required=True, help="solve, baseline or oracle result JSON")
    p.add_argument(
        "--alpha",
        type=float,
        help=f"overload probability to judge at (default: the record's, else {SaaParams.alpha})",
    )
    p.add_argument("--validation-theta", type=int, default=20000)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=_cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        rc = args.func(args)
        sys.stdout.flush()  # a closed stdout fails here, whatever the buffering
        return rc
    except BrokenPipeError:
        # Nobody reads stdout: send what is still buffered to devnull, so the
        # interpreter's final flush cannot fail again. 141 = 128 + SIGPIPE.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except SizeCapExceeded as exc:
        print(f"instance too large: {exc}", file=sys.stderr)
        return 2
    except NoFeasibleState as exc:
        print(f"no feasible placement: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        if exc.filename is None:  # reads fail as ConfigurationError; this is an output path
            raise
        print(f"configuration error: cannot write {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

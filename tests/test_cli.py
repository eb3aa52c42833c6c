from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from dtplace import GenConfig, generate_instance, instance_to_dict
from dtplace import cli
from dtplace.cli import main

from conftest import build_instance, rounding_boundary_case


@pytest.fixture
def instance_file(tmp_path):
    path = tmp_path / "instance.json"
    rc = main(
        [
            "gen",
            "--servers",
            "3",
            "--devices",
            "2",
            "--components",
            "1..2",
            "--seed",
            "5",
            "--out",
            str(path),
        ]
    )
    assert rc == 0
    return path


def test_gen_writes_instance(instance_file):
    data = json.loads(instance_file.read_text())
    assert data["seed"] == 5
    assert len(data["instance"]["servers"]) == 3
    assert len(data["instance"]["devices"]) == 2
    assert not any(key.startswith("dist_") for key in data["instance"])


def test_gen_output_is_pinned(capsys):
    """``gen`` output is pinned byte for byte, so instance files written
    before the entities dropped their stored ids still match; each ``id`` is
    the entry's 1-based position."""
    argv = ["gen", "--servers", "3", "--devices", "4", "--components", "1..3", "--seed", "5"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "477b864a903054a475c5d354f4ea952d7fa2616635d5f1b5cb06f0f1d42428cc"
    )
    data = instance_to_dict(generate_instance(GenConfig(3, 4, (1, 3)), 5))
    assert [s["id"] for s in data["servers"]] == [1, 2, 3]
    assert [d["id"] for d in data["devices"]] == [1, 2, 3, 4]
    for d in data["devices"]:
        assert [c["id"] for c in d["components"]] == list(range(1, len(d["components"]) + 1))


def test_gen_is_deterministic(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for path in (a, b):
        main(["gen", "--servers", "2", "--devices", "2", "--components", "1..1",
              "--seed", "9", "--out", str(path)])
    assert a.read_bytes() == b.read_bytes()


def test_gen_file_regenerates_its_instance(tmp_path):
    path = tmp_path / "inst.json"
    assert main(["gen", "--servers", "3", "--devices", "4", "--components", "1..3",
                 "--seed", "11", "--area-side", "80", "--out", str(path)]) == 0
    data = json.loads(path.read_text())
    # Every generator setting is recorded, so the file's config and seed
    # rebuild its instance exactly.
    assert set(data["gen_config"]) == {f.name for f in fields(GenConfig)}
    again = generate_instance(GenConfig(**data["gen_config"]), data["seed"])
    assert json.dumps(instance_to_dict(again), indent=2) == json.dumps(data["instance"], indent=2)


# A 400-digit integer: json.dumps writes it as a raw JSON literal, which
# float() cannot convert.
HUGE = int("9" * 400)


def one_line_error(capsys) -> str:
    """The captured stderr, asserted to be one ``configuration error:`` line."""
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and err.count("\n") == 1, err
    return err


def common_flags(instance_file):
    return [
        "--instance",
        str(instance_file),
        "--seed",
        "3",
        "--alpha",
        "0.05",
        "--epsilon",
        "0.025",
        "--theta",
        "50",
    ]


def test_solve_emits_result_record(tmp_path, instance_file):
    out = tmp_path / "solve.json"
    rc = main(["solve", *common_flags(instance_file), "--out", str(out)])
    assert rc == 0
    record = json.loads(out.read_text())
    for key in (
        "algorithm",
        "rho",
        "offload",
        "communication",
        "cost_per_server",
        "states_visited",
        "iterations",
        "converged",
        "per_iteration_rho",
        "placement",
    ):
        assert key in record
    assert record["algorithm"] == "stage"
    assert record["rho"] > 0
    assert len(record["placement"]) == sum(
        len(d["components"]) for d in json.loads(instance_file.read_text())["instance"]["devices"]
    )


@pytest.mark.parametrize("which", ["random", "restart", "nearest"])
def test_baseline_commands(tmp_path, instance_file, which):
    out = tmp_path / f"{which}.json"
    rc = main(
        ["baseline", "--which", which, "--trials", "4", *common_flags(instance_file),
         "--out", str(out)]
    )
    assert rc == 0
    record = json.loads(out.read_text())
    assert record["algorithm"] == which
    assert record["per_iteration_rho"] == []


def test_oracle_command(tmp_path, instance_file, capsys):
    """The oracle writes the solve record of the library's argmin."""
    from dtplace import SaaParams, draw_samples, exact_solve, instance_from_dict
    from dtplace.costs import placement_to_triples

    out = tmp_path / "oracle.json"
    rc = main(["oracle", *common_flags(instance_file), "--out", str(out)])
    assert rc == 0
    assert capsys.readouterr().out == ""
    record = json.loads(out.read_text())
    inst = instance_from_dict(json.loads(instance_file.read_text())["instance"])
    params = SaaParams(alpha=0.05, epsilon=0.025, theta=50)
    result = exact_solve(inst, draw_samples(inst, params, 3), params)
    assert record["algorithm"] == "oracle"
    assert record["rho"] == result.optimum
    assert record["placement"] == [list(t) for t in placement_to_triples(inst, result.argmin)]
    assert record["states_visited"] == inst.num_servers ** inst.total_components
    assert record["iterations"] == 1
    rc = main(["validate", "--instance", str(instance_file), "--placement", str(out),
               "--validation-theta", "200", "--seed", "1"])
    assert rc == 0
    assert "verdict:" in capsys.readouterr().out


def test_validate_reads_the_alpha_a_record_was_solved_at(tmp_path, instance_file, capsys):
    """Without ``--alpha``, ``validate`` judges a record at the alpha it names;
    an explicit ``--alpha`` wins, and a bare triple list is judged at 0.01."""
    out = tmp_path / "oracle.json"
    assert main(["oracle", *common_flags(instance_file), "--out", str(out)]) == 0
    record = json.loads(out.read_text())
    assert (record["alpha"], record["epsilon"], record["theta"]) == (0.05, 0.025, 50)
    bare = tmp_path / "triples.json"
    bare.write_text(json.dumps(record["placement"]))
    validate = ["validate", "--instance", str(instance_file), "--validation-theta", "200",
                "--seed", "1"]
    for placement, extra, alpha in ((out, [], "0.05"), (out, ["--alpha", "0.2"], "0.2"),
                                    (bare, [], "0.01")):
        capsys.readouterr()
        assert main([*validate, "--placement", str(placement), *extra]) == 0
        assert f"alpha: {alpha}\n" in capsys.readouterr().out


@pytest.mark.parametrize("alpha", ["2", "nan", "0"])
def test_validate_refuses_an_alpha_flag_outside_0_1(tmp_path, instance_file, alpha, capsys):
    """A bad ``--alpha`` gets a line about alpha only, not about an epsilon
    the user never gave."""
    out = tmp_path / "oracle.json"
    assert main(["oracle", *common_flags(instance_file), "--out", str(out)]) == 0
    capsys.readouterr()
    argv = ["validate", "--instance", str(instance_file), "--placement", str(out),
            "--alpha", alpha, "--seed", "1"]
    assert main(argv) == 2
    assert one_line_error(capsys) == (
        f"configuration error: need 0 < alpha < 1, got alpha={float(alpha)}\n"
    )


def test_oracle_proving_infeasibility_exits_3(tmp_path, instance_file, capsys):
    data = json.loads(instance_file.read_text())
    for server in data["instance"]["servers"]:
        server["capacity"] = 1.0
    path = tmp_path / "tight.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "oracle.json"
    rc = main(["oracle", *common_flags(path), "--out", str(out)])
    assert rc == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("no feasible placement: ") and captured.err.count("\n") == 1
    assert not out.exists()


def solving_argvs(instance_file):
    flags = common_flags(instance_file)
    return {
        "solve": ["solve", *flags],
        **{which: ["baseline", "--which", which, "--trials", "4", *flags]
           for which in ("random", "restart", "nearest")},
        "oracle": ["oracle", *flags],
    }


def test_solving_commands_write_one_record_schema(tmp_path, instance_file):
    keys = {}
    for name, argv in solving_argvs(instance_file).items():
        out = tmp_path / f"{name}.json"
        assert main([*argv, "--out", str(out)]) == 0
        keys[name] = set(json.loads(out.read_text()))
    assert keys.pop("solve") == keys["oracle"] | {"final_rho"}
    assert all(k == keys["oracle"] for k in keys.values()), keys


def test_solve_record_lists_the_states_of_each_iteration(tmp_path, instance_file):
    out = tmp_path / "solve.json"
    assert main(["solve", *common_flags(instance_file), "--out", str(out)]) == 0
    record = json.loads(out.read_text())
    assert record["iterations"] > 1
    assert len(record["per_iteration_states"]) == record["iterations"]
    assert sum(record["per_iteration_states"]) == record["states_visited"]
    assert all(q >= 1 for q in record["per_iteration_states"])


@pytest.mark.parametrize("command", ["oracle", "solve"])
def test_closed_stdout_exits_141_quietly(instance_file, command):
    """A reader that closed stdout ends the command with 141 (128 + SIGPIPE)
    and no traceback, buffered or not."""
    argv = solving_argvs(instance_file)[command]
    src = str(Path(cli.__file__).resolve().parents[1])
    for unbuffered in ("", "1"):
        env = {**os.environ, "PYTHONPATH": src, "PYTHONUNBUFFERED": unbuffered}
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run([sys.executable, "-m", "dtplace.cli", *argv], stdout=write,
                                  stderr=subprocess.PIPE, text=True, env=env, timeout=120)
        finally:
            os.close(write)
        assert (proc.returncode, proc.stderr) == (141, ""), unbuffered


def test_oracle_respects_size_cap(instance_file, capsys):
    rc = main(["oracle", *common_flags(instance_file), "--size-cap", "2"])
    assert rc == 2


def test_oracle_size_cap_counts_the_leading_subset_masks(tmp_path, capsys):
    # 40 placements fit the cap; the 40 x 40 subset-mask entries do not.
    path = tmp_path / "wide.json"
    gen = ["gen", "--servers", "40", "--devices", "1", "--components", "1..1", "--seed", "7"]
    assert main([*gen, "--out", str(path)]) == 0
    capsys.readouterr()
    rc = main(["oracle", *common_flags(path), "--size-cap", "1000"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "1600 subset-mask entries" in captured.err


def test_validate_command(tmp_path, instance_file, capsys):
    solve_out = tmp_path / "solve.json"
    main(["solve", *common_flags(instance_file), "--out", str(solve_out)])
    rc = main(
        [
            "validate",
            "--instance",
            str(instance_file),
            "--placement",
            str(solve_out),
            "--alpha",
            "0.05",
            "--validation-theta",
            "500",
            "--seed",
            "11",
        ]
    )
    assert rc == 0
    printed = capsys.readouterr().out
    assert "max_overload_proportion:" in printed
    assert "verdict:" in printed


def test_experiment_command(tmp_path):
    config = {
        "axis": "devices",
        "axis_values": [2, 3],
        "num_servers": 3,
        "components_range": [1, 2],
        "replications": 2,
        "master_seed": 77,
        "alpha": 0.05,
        "epsilon": 0.025,
        "theta": 40,
        "max_iterations": 3,
        "baseline_trials": 3,
    }
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(config))
    out_dir = tmp_path / "out"
    rc = main(["experiment", str(cfg_path), "--out", str(out_dir)])
    assert rc == 0
    sweep = (out_dir / "sweep.csv").read_text().strip().splitlines()
    assert len(sweep) == 1 + 2 * 4
    assert (out_dir / "convergence.csv").exists()


def test_experiment_seed_override(tmp_path):
    config = {
        "axis": "devices",
        "axis_values": [2],
        "num_servers": 2,
        "components_range": [1, 1],
        "replications": 1,
        "master_seed": 1,
        "alpha": 0.05,
        "epsilon": 0.025,
        "theta": 30,
        "max_iterations": 2,
        "baseline_trials": 2,
    }
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(config))
    a = tmp_path / "a"
    b = tmp_path / "b"
    main(["experiment", str(cfg_path), "--out", str(a), "--seed", "5"])
    main(["experiment", str(cfg_path), "--out", str(b), "--seed", "5"])
    assert (a / "sweep.csv").read_bytes() == (b / "sweep.csv").read_bytes()


def test_bad_components_exits_2(tmp_path):
    rc = main(
        ["gen", "--servers", "2", "--devices", "2", "--components", "3",
         "--seed", "1", "--out", str(tmp_path / "x.json")]
    )
    assert rc == 2


def test_invalid_risk_params_exit_2(instance_file):
    rc = main(
        ["solve", "--instance", str(instance_file), "--seed", "1",
         "--alpha", "0.01", "--epsilon", "0.5", "--theta", "10"]
    )
    assert rc == 2


def test_infeasible_instance_exits_3(tmp_path):
    inst = build_instance(
        servers=[(0.0, 0.0, 1.0, 4.0)],
        devices=[(5.0, 0.0, [(5.0, 200.0, (0.0,))])],
        unit_cost=0.5,
    )
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps({"instance": instance_to_dict(inst)}))
    rc = main(
        ["solve", "--instance", str(path), "--seed", "1",
         "--alpha", "0.1", "--epsilon", "0.1", "--theta", "10"]
    )
    assert rc == 3


def test_solve_side_outputs(tmp_path, instance_file):
    samples_out = tmp_path / "samples.json"
    rc = main(["solve", *common_flags(instance_file), "--samples-out", str(samples_out)])
    assert rc == 0
    payload = json.loads(samples_out.read_text())
    assert payload["theta"] == 50
    assert payload["seed"] == 3
    # replaying the persisted samples reproduces the run
    reuse = tmp_path / "reuse.json"
    rc = main(["solve", *common_flags(instance_file), "--samples", str(samples_out),
               "--out", str(reuse)])
    assert rc == 0


def test_samples_replay_equals_original_run(tmp_path, capsys):
    # Server 0 is closer but overloaded in about half of the scenarios: it
    # fits the budget floor(0.025 * 1850) = 46 of the default theta, but not
    # the 1 of the 50 scenarios the file holds. Placed on server 1 instead,
    # 25 distance units away, the component costs 2500.
    inst = build_instance(
        servers=[(0.0, 0.0, 1.0, 5.0), (30.0, 0.0, 1.0, 1e9)],
        devices=[(5.0, 0.0, [(5.0, 200.0, (0.0,))])],
        unit_cost=0.5,
    )
    path = tmp_path / "tight.json"
    path.write_text(json.dumps({"instance": instance_to_dict(inst)}))
    risk = ["--instance", str(path), "--seed", "3", "--alpha", "0.05", "--epsilon", "0.025"]
    samples = tmp_path / "samples.json"
    assert main(["solve", *risk, "--theta", "50", "--samples-out", str(samples)]) == 0
    capsys.readouterr()
    for command in (["solve"], ["baseline", "--which", "nearest"], ["oracle"]):
        assert main([*command, *risk, "--theta", "50"]) == 0
        drawn = capsys.readouterr().out
        assert "2500.0" in drawn
        for theta in ([], ["--theta", "50"]):
            assert main([*command, *risk, *theta, "--samples", str(samples)]) == 0
            assert capsys.readouterr().out == drawn, command
        assert main([*command, *risk, "--theta", "60", "--samples", str(samples)]) == 2
        assert "--theta 60 disagrees with the 50 scenarios" in capsys.readouterr().err


def rounding_boundary_flags(tmp_path):
    """Files and flags of ``rounding_boundary_case`` for a solving command;
    returns (inst, samples, params, flags)."""
    from dtplace import samples_to_dict

    inst, samples, params = rounding_boundary_case()
    path = tmp_path / "boundary.json"
    path.write_text(json.dumps({"instance": instance_to_dict(inst)}))
    samples_path = tmp_path / "samples.json"
    samples_path.write_text(json.dumps(samples_to_dict(samples, seed=0)))
    flags = ["--instance", str(path), "--seed", "1", "--alpha", "0.5", "--epsilon", "0.5",
             "--samples", str(samples_path)]
    return inst, samples, params, flags


def test_solve_stays_within_budget_at_a_rounding_boundary(tmp_path):
    from dtplace import is_feasible, overload_profile, placement_from_triples

    inst, samples, params, flags = rounding_boundary_flags(tmp_path)
    out = tmp_path / "solve.json"
    rc = main(["solve", *flags, "--out", str(out)])
    assert rc == 0
    placement = placement_from_triples(inst, json.loads(out.read_text())["placement"])
    assert is_feasible(overload_profile(inst, samples, placement, params), params)


@pytest.mark.parametrize(
    "command", [["oracle"], ["baseline", "--which", "nearest"]], ids=["oracle", "nearest"]
)
def test_oracle_and_nearest_stay_within_budget_at_a_rounding_boundary(tmp_path, command):
    from dtplace import is_feasible, overload_profile, placement_from_triples

    inst, samples, params, flags = rounding_boundary_flags(tmp_path)
    out = tmp_path / "result.json"
    rc = main([*command, *flags, "--out", str(out)])
    assert rc == 0
    placement = placement_from_triples(inst, json.loads(out.read_text())["placement"])
    assert is_feasible(overload_profile(inst, samples, placement, params), params)


def test_samples_file_roundtrip(tmp_path, instance_file):
    from dtplace import (
        SaaParams, draw_samples, instance_from_dict, samples_from_dict, samples_to_dict,
    )

    inst = instance_from_dict(json.loads(instance_file.read_text())["instance"])
    params = SaaParams(alpha=0.05, epsilon=0.025, theta=25)
    samples = draw_samples(inst, params, 4)
    payload = samples_to_dict(samples, seed=4)
    path = tmp_path / "samples.json"
    path.write_text(json.dumps(payload))
    again = samples_from_dict(json.loads(path.read_text()))
    assert again.cycles.shape == samples.cycles.shape
    assert (again.cycles == samples.cycles).all()

    out = tmp_path / "solve.json"
    rc = main(
        ["solve", "--instance", str(instance_file), "--seed", "2",
         "--alpha", "0.05", "--epsilon", "0.025", "--theta", "25",
         "--samples", str(path), "--out", str(out)]
    )
    assert rc == 0


@pytest.mark.parametrize(
    "command", [["oracle"], ["solve"], ["baseline", "--which", "nearest"]]
)
def test_invalid_instance_exits_2(tmp_path, command, capsys):
    inst = build_instance(
        servers=[(0.0, 0.0, 1.0, 1e9), (30.0, 0.0, 1.0, -1.0)],
        devices=[(5.0, 0.0, [(5.0, 200.0, (0.0,))])],
        unit_cost=0.5,
    )
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"instance": instance_to_dict(inst)}))
    rc = main(
        [*command, "--instance", str(path), "--seed", "1",
         "--alpha", "0.1", "--epsilon", "0.1", "--theta", "10"]
    )
    assert rc == 2
    assert "capacity not positive" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["solve", "baseline", "oracle", "validate"])
def test_overflowing_distances_exit_2(tmp_path, command, capsys):
    # Every coordinate is finite, but |dx| + |dy| between the two corners
    # overflows to inf, which would solve to an infinite cost.
    inst = build_instance(
        servers=[(0.0, 0.0, 1.0, 1e9), (1e308, 1e308, 1.0, 1e9)],
        devices=[(0.0, 0.0, [(5.0, 200.0, (0.0,))])],
        unit_cost=0.5,
    )
    path = tmp_path / "far.json"
    path.write_text(json.dumps({"instance": instance_to_dict(inst)}))
    argv = {
        "solve": ["solve", *common_flags(path)],
        "baseline": ["baseline", "--which", "nearest", *common_flags(path)],
        "oracle": ["oracle", *common_flags(path)],
        "validate": ["validate", "--instance", str(path), "--placement", str(tmp_path / "p.json"),
                     "--seed", "1"],
    }[command]
    rc = main(argv)
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "dist_server_device has a non-finite entry" in err
    assert "dist_server_server has a non-finite entry" in err


@pytest.mark.parametrize(
    "side, problem",
    [(1e306, "costs can overflow"), (1e160, "distance features can overflow when squared")],
)
@pytest.mark.parametrize("command", ["gen", "solve", "baseline", "oracle", "validate"])
def test_overflowing_costs_exit_2(tmp_path, command, side, problem, capsys):
    # Every distance is finite, but a cost bound (side 1e306) or a squared
    # distance feature (side 1e160) is not: solve printed "rho": Infinity
    # and the oracle called a solvable instance infeasible.
    inst = build_instance(
        servers=[(0.0, 0.0, 1.0, 1e9), (side, 0.0, 1.0, 1e9)],
        devices=[(0.0, 0.0, [(5.0, 200.0, (0.0,))])],
        unit_cost=0.5,
    )
    path = tmp_path / "far.json"
    path.write_text(json.dumps({"instance": instance_to_dict(inst)}))
    out = tmp_path / "out.json"
    argv = {
        "gen": ["gen", "--servers", "3", "--devices", "3", "--components", "1..2", "--seed", "5",
                "--area-side", str(side)],
        "solve": ["solve", *common_flags(path)],
        "baseline": ["baseline", "--which", "nearest", *common_flags(path)],
        "oracle": ["oracle", *common_flags(path)],
        "validate": ["validate", "--instance", str(path), "--placement", str(tmp_path / "p.json"),
                     "--seed", "1"],
    }[command]
    rc = main([*argv, "--out", str(out)] if command != "validate" else argv)
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and problem in captured.err
    assert not out.exists()


@pytest.mark.parametrize("command", ["gen", "solve", "baseline", "oracle", "validate"])
def test_negative_seed_exits_2(tmp_path, instance_file, command, capsys):
    solve_out = tmp_path / "solve.json"
    if command == "validate":
        assert main(["solve", *common_flags(instance_file), "--out", str(solve_out)]) == 0
    flags = ["--instance", str(instance_file), "--seed", "-1"]
    argv = {
        "gen": ["gen", "--servers", "2", "--devices", "2", "--components", "1..1", "--seed", "-1",
                "--out", str(tmp_path / "x.json")],
        "solve": ["solve", *flags],
        "baseline": ["baseline", "--which", "random", *flags],
        "oracle": ["oracle", *flags],
        "validate": ["validate", *flags, "--placement", str(solve_out)],
    }[command]
    capsys.readouterr()
    rc = main(argv)
    assert rc == 2
    err = capsys.readouterr().err
    assert err == "configuration error: seed must be non-negative, got -1\n"


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.pop("components"),
        lambda d: d.pop("theta"),
        lambda d: d.pop("cycles"),
        lambda d: d["cycles"][0].__setitem__(0, float("nan")),
        lambda d: d["cycles"][0].__setitem__(0, float("inf")),
        lambda d: d["cycles"][0].__setitem__(0, 0.0),
        lambda d: d["cycles"][1].__setitem__(2, -5.0),
        lambda d: d["cycles"][1].pop(),
        lambda d: d["cycles"][0].__setitem__(0, HUGE),
        lambda d: d.__setitem__("theta", "50"),
        lambda d: d["cycles"][0].__setitem__(0, True),
        lambda d: d["cycles"][0].__setitem__(0, "1.5e6"),
        lambda d: d.__setitem__("cycles", [[True] * 50, *d["cycles"][1:]]),
        lambda d: d.__setitem__("cycles", [row[0] for row in d["cycles"]]),
        lambda d: d.__setitem__("theta", 49),
        lambda d: d.update(components=3, cycles=[d["cycles"][0]] * 3),
    ],
    ids=["no-components", "no-theta", "no-cycles", "nan", "inf", "zero", "negative", "ragged",
         "huge", "theta-string", "bool-cycle", "string-cycle", "bool-row", "flat-cycles",
         "theta-header-mismatch", "other-component-count"],
)
def test_malformed_samples_file_exits_2(tmp_path, instance_file, mutate, capsys):
    from dtplace import SaaParams, draw_samples, instance_from_dict, samples_to_dict

    inst = instance_from_dict(json.loads(instance_file.read_text())["instance"])
    payload = samples_to_dict(draw_samples(inst, SaaParams(0.05, 0.025, 50), 4))
    mutate(payload)
    path = tmp_path / "samples.json"
    path.write_text(json.dumps(payload))
    rc = main(["oracle", *common_flags(instance_file), "--samples", str(path)])
    assert rc == 2
    assert one_line_error(capsys)


NON_OBJECTS = {"number": "5", "null": "null", "string": '"x"', "list": "[1, 2]"}


@pytest.mark.parametrize(
    "role, text",
    [(role, text) for role in ("samples", "instance", "experiment")
     for text in NON_OBJECTS.values()],
    ids=[f"{role}{name}" for role in ("", "instance-", "experiment-") for name in NON_OBJECTS],
)
def test_non_object_samples_file_exits_2(tmp_path, instance_file, role, text, capsys):
    """A sample, instance or experiment file that holds no JSON object exits
    2 with one line naming the file."""
    path = tmp_path / f"{role}.json"
    path.write_text(text)
    argv = {
        "samples": ["solve", *common_flags(instance_file), "--samples", str(path)],
        "instance": ["solve", *common_flags(path)],
        "experiment": ["experiment", str(path), "--out", str(tmp_path / "out")],
    }[role]
    assert main(argv) == 2
    assert f"{path}: expected an object, got {json.loads(text)!r}" in one_line_error(capsys)


@pytest.mark.parametrize("value", ["abc", "0", "-2"])
def test_bad_thread_count_exits_2(tmp_path, monkeypatch, value, capsys):
    config = {
        "axis": "devices",
        "axis_values": [2],
        "num_servers": 2,
        "components_range": [1, 1],
        "replications": 1,
        "master_seed": 1,
        "theta": 30,
    }
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(config))
    monkeypatch.setenv("DTPLACE_THREADS", value)
    rc = main(["experiment", str(cfg_path), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "DTPLACE_THREADS" in capsys.readouterr().err


def swap_server_ids(d):
    d["servers"][0]["id"], d["servers"][1]["id"] = 2, 1


def set_exchange(value):
    """Set both entries of device 1's exchange pair (1, 2), keeping it symmetric."""

    def mutate(d):
        comps = d["devices"][0]["components"]
        comps[0]["exchange_kb"][1] = comps[1]["exchange_kb"][0] = value

    return mutate


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda d: d["servers"][0].pop("capacity"), "malformed instance"),
        (lambda d: d["devices"][0].__setitem__("x", "far"), "malformed instance"),
        (lambda d: d["devices"][0]["components"][0]["exchange_kb"].append(1.0),
         "exchange vector length"),
        (set_exchange(-500.0), "exchange_kb negative or not finite"),
        (set_exchange(float("inf")), "exchange_kb negative or not finite"),
        (lambda d: d["devices"][0]["components"][0].__setitem__("offload_kb", float("inf")),
         "offload_kb not positive and finite"),
        (lambda d: d.__setitem__("unit_transport_cost", float("nan")),
         "unit_transport_cost negative or not finite"),
        (lambda d: d.__setitem__("unit_transport_cost", -1.0),
         "unit_transport_cost negative or not finite"),
        (lambda d: d["servers"][1].__setitem__("y", float("nan")),
         "server 2 has a negative or non-finite coordinate"),
        (lambda d: d["servers"][0].__setitem__("id", float("inf")), "whole number"),
        (lambda d: d["servers"][0].__setitem__("id", 1.7), "whole number"),
        (lambda d: d["servers"][0].__setitem__("id", True), "whole number"),
        (swap_server_ids, "server at position 0 has id 2, expected 1"),
        (lambda d: d["servers"][0].__setitem__("capacity", True), "expected a number"),
        (lambda d: d["servers"][0].__setitem__("capacity", HUGE), "too large for a float"),
        (lambda d: [c.__setitem__("exchange_kb", "00") for c in d["devices"][0]["components"]],
         "expected a list, got '00'"),
        (lambda d: d["servers"][0].__setitem__("capacity", str(d["servers"][0]["capacity"])),
         "expected a number, got '"),
    ],
    ids=[
        "missing-key",
        "not-a-number",
        "exchange-row-length",
        "exchange-negative",
        "exchange-inf",
        "offload-inf",
        "unit-cost-nan",
        "unit-cost-negative",
        "coordinate-nan",
        "id-inf",
        "id-fraction",
        "id-bool",
        "ids-swapped",
        "capacity-bool",
        "capacity-huge",
        "exchange-string",
        "capacity-string",
    ],
)
def test_malformed_instance_file_exits_2(tmp_path, instance_file, mutate, message, capsys):
    data = json.loads(instance_file.read_text())["instance"]
    mutate(data)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    rc = main(["oracle", *common_flags(path)])
    assert rc == 2
    assert message in one_line_error(capsys)


def test_instance_file_distance_matrices_are_ignored(tmp_path, instance_file):
    """Files written when the instance carried its distance matrices solve
    exactly as the same file without them."""
    data = json.loads(instance_file.read_text())
    inst = data["instance"]
    servers, devices = inst["servers"], inst["devices"]
    inst["dist_server_device"] = [
        [abs(s["x"] - d["x"]) + abs(s["y"] - d["y"]) for d in devices] for s in servers
    ]
    inst["dist_server_server"] = [
        [abs(a["x"] - b["x"]) + abs(a["y"] - b["y"]) for b in servers] for a in servers
    ]
    old = tmp_path / "with_distances.json"
    old.write_text(json.dumps(data))
    outputs = []
    for path in (instance_file, old):
        out = tmp_path / f"solve_{path.stem}.json"
        assert main(["solve", *common_flags(path), "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize(
    "payload",
    [
        {"placement": [[1, 1, 1], [2, 1]]},
        {"result": []},
        {"placement": [[1, 1, 1], [2, 1, 9]]},
        *({"placement": [[1, 1, label], [1, 2, 1], [2, 1, 1], [2, 2, 1]]}
          for label in (float("inf"), 1.9, True, HUGE)),
        {"placement": ["111", "121", "211", "221"]},
        *({"placement": [[1, 1, 1], [1, 2, 1], [2, 1, 1], [2, 2, 1]], "alpha": alpha}
          for alpha in ("high", True, "0.05", 2.0, float("nan"))),
        {"placement": [["1", "1", "1"], ["1", "2", "1"], ["2", "1", "1"], ["2", "2", "1"]]},
        {"placement": [[1, 1, 1, 1], [1, 2, 1], [2, 1, 1], [2, 2, 1]]},
    ],
    ids=["two-entry-triple", "no-placement-key", "unknown-server", "server-inf",
         "server-fraction", "server-bool", "server-huge", "digit-string-triples",
         "alpha-string", "alpha-bool", "alpha-numeric-string", "alpha-two", "alpha-nan",
         "string-triples", "four-entry-triple"],
)
def test_malformed_placement_file_exits_2(tmp_path, instance_file, payload, capsys):
    path = tmp_path / "placement.json"
    path.write_text(json.dumps(payload))
    rc = main(["validate", "--instance", str(instance_file), "--placement", str(path), "--seed", "1"])
    assert rc == 2
    err = one_line_error(capsys)
    assert "malformed placement" in err
    assert str(path) in err


def scalar_paths(node, path=()):
    """Paths to every scalar of a parsed JSON document."""
    if isinstance(node, (dict, list)):
        keys = node.keys() if isinstance(node, dict) else range(len(node))
        return [p for key in keys for p in scalar_paths(node[key], (*path, key))]
    return [path]


@pytest.fixture(scope="module")
def fuzz_files():
    """A valid instance (2 servers, 2 devices of 1 or 2 components) and a
    placement of it, as parsed JSON."""
    inst = generate_instance(GenConfig(2, 2, (1, 2)), 8)
    placement = [[d, c, 1] for d, dev in enumerate(inst.devices, 1)
                 for c in range(1, len(dev.components) + 1)]
    return {"instance": instance_to_dict(inst), "placement": {"placement": placement}}


@settings(max_examples=60, deadline=None)
@given(
    target=st.sampled_from(["instance", "placement"]),
    index=st.integers(min_value=0),
    value=st.sampled_from([True, 1.5, float("inf"), float("nan"), HUGE, "x", None]),
    command=st.sampled_from(["oracle", "validate"]),
)
def test_one_bad_scalar_exits_cleanly(fuzz_files, target, index, value, command):
    """Any one scalar of a valid instance or placement file replaced by a
    bool, a fraction, a non-finite or huge number, a string or null: the
    command succeeds, or exits 2 or 3 with one line on stderr; it never raises."""
    paths = scalar_paths(fuzz_files[target])
    exits_cleanly(fuzz_files, target, paths[index % len(paths)], value, command)


def list_paths(node, path=()):
    """Paths to every list of a parsed JSON document."""
    if not isinstance(node, (dict, list)):
        return []
    keys = node.keys() if isinstance(node, dict) else range(len(node))
    inner = [p for key in keys for p in list_paths(node[key], (*path, key))]
    return [path, *inner] if isinstance(node, list) else inner


@settings(max_examples=40, deadline=None)
@given(
    target=st.sampled_from(["instance", "placement"]),
    index=st.integers(min_value=0),
    value=st.sampled_from(["x", "111", "00", {}, {"id": 1}, 0, 2, 1.5]),
    command=st.sampled_from(["oracle", "validate"]),
)
# The first triple, [1, 1, 1], written as its digits.
@example(target="placement", index=1, value="111", command="validate")
def test_one_bad_list_exits_cleanly(fuzz_files, target, index, value, command):
    """Any one list of a valid instance or placement file (the servers,
    devices, components, an exchange row, the placement or a triple)
    replaced by a string, an object or a number exits 2 with one line: a
    string of digits is not read as a list of them."""
    paths = list_paths(fuzz_files[target])
    assert exits_cleanly(fuzz_files, target, paths[index % len(paths)], value, command) == 2


def exits_cleanly(fuzz_files, target, path, value, command):
    """Exit code of ``command`` on the fuzz files with the node at ``path``
    of ``target`` replaced by ``value``, asserted to be 0 with a quiet
    stderr, or 2 or 3 with one stderr line."""
    docs = json.loads(json.dumps(fuzz_files))
    *parents, last = path
    node = docs[target]
    for key in parents:
        node = node[key]
    node[last] = value
    with tempfile.TemporaryDirectory() as tmp:
        for name, doc in docs.items():
            Path(tmp, f"{name}.json").write_text(json.dumps(doc))
        flags = ["--instance", str(Path(tmp, "instance.json")), "--seed", "1"]
        if command == "validate" or target == "placement":
            argv = ["validate", *flags, "--placement", str(Path(tmp, "placement.json")),
                    "--validation-theta", "20"]
        else:
            argv = ["oracle", *flags, "--alpha", "0.1", "--epsilon", "0.1", "--theta", "20"]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = main(argv)
    assert rc in (0, 2, 3)
    assert err.getvalue().count("\n") == (rc != 0), err.getvalue()
    return rc


MINIMAL_EXPERIMENT = {
    "axis": "devices",
    "axis_values": [2],
    "num_servers": 2,
    "components_range": [1, 1],
    "replications": 1,
    "master_seed": 1,
    "theta": 30,
}


@pytest.mark.parametrize(
    "change",
    [
        {"axis_values": ["x"]},
        {"axis_values": 5},
        {"components_range": ["a", "b"]},
        {"components_range": [1]},
        {"theta": "abc"},
        None,
        {"axis_values": "56"},
        {"axis_values": [2.7]},
        {"replications": 2.5},
        {"replications": True},
        {"delta": True},
        {"components_range": "13"},
        {"alpha": HUGE},
        {"theta": "30"},
        {"components_range": [1, 2, 3]},
    ],
    ids=["axis-values-not-int", "axis-values-not-list", "range-not-int", "range-one-entry",
         "theta-not-number", "top-level-list", "axis-values-string", "axis-value-fraction",
         "replications-fraction", "replications-bool", "delta-bool", "range-string",
         "alpha-huge", "theta-numeric-string", "range-three-entries"],
)
def test_malformed_experiment_config_exits_2(tmp_path, change, capsys):
    config = [MINIMAL_EXPERIMENT] if change is None else {**MINIMAL_EXPERIMENT, **change}
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(config))
    rc = main(["experiment", str(cfg_path), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert one_line_error(capsys)
    assert not (tmp_path / "out").exists()


def test_unknown_experiment_key_exits_2(tmp_path, capsys):
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps({**MINIMAL_EXPERIMENT, "thetaa": 50}))
    rc = main(["experiment", str(cfg_path), "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == (
        f"configuration error: malformed experiment config {cfg_path}: "
        "unknown experiment config keys: thetaa\n"
    )
    assert not (tmp_path / "out").exists()


def test_experiment_checks_its_output_directory_before_the_sweep(tmp_path, monkeypatch, capsys):
    def sweep_must_not_run(cfg):
        raise AssertionError("the sweep ran before --out was made")

    monkeypatch.setattr(cli, "run_experiment_full", sweep_must_not_run)
    blocker = tmp_path / "regular-file"
    blocker.write_text("not a directory")
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(MINIMAL_EXPERIMENT))
    rc = main(["experiment", str(cfg_path), "--out", str(blocker / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: cannot write")
    assert err.count("\n") == 1 and str(blocker / "out") in err


@pytest.mark.parametrize("problem", ["missing", "bad-json", "not-text"])
@pytest.mark.parametrize("role", ["instance", "samples", "placement", "experiment"])
def test_unreadable_input_file_exits_2(tmp_path, instance_file, role, problem, capsys):
    bad = tmp_path / f"bad-{role}.json"
    if problem == "bad-json":
        bad.write_text("{not json")
    elif problem == "not-text":
        bad.write_bytes(b"\xff\xfe\x00{")
    solve_out = tmp_path / "solve.json"
    assert main(["solve", *common_flags(instance_file), "--out", str(solve_out)]) == 0
    argv = {
        "instance": ["solve", *common_flags(bad)],
        "samples": ["solve", *common_flags(instance_file), "--samples", str(bad)],
        "placement": ["validate", "--instance", str(instance_file), "--placement", str(bad),
                      "--seed", "1"],
        "experiment": ["experiment", str(bad), "--out", str(tmp_path / "out")],
    }[role]
    capsys.readouterr()
    rc = main(argv)
    assert rc == 2
    err = capsys.readouterr().err
    assert "configuration error" in err
    assert str(bad) in err


@pytest.mark.parametrize(
    "output, where",
    [(output, where) for output in ("gen", "solve", "samples-out", "baseline", "oracle")
     for where in ("missing-dir", "under-a-file")]
    # experiment makes missing directories, so only a path under a file fails
    + [("experiment", "under-a-file")],
)
def test_unwritable_output_path_exits_2(tmp_path, instance_file, output, where, capsys):
    blocker = tmp_path / "regular-file"
    blocker.write_text("not a directory")
    bad = (tmp_path / "missing" if where == "missing-dir" else blocker) / "out"
    config = tmp_path / "exp.json"
    config.write_text(json.dumps(MINIMAL_EXPERIMENT))
    flags = common_flags(instance_file)
    argv = {
        "gen": ["gen", "--servers", "2", "--devices", "2", "--components", "1..1",
                "--seed", "1", "--out", str(bad)],
        "solve": ["solve", *flags, "--out", str(bad)],
        "samples-out": ["solve", *flags, "--samples-out", str(bad)],
        "baseline": ["baseline", "--which", "nearest", *flags, "--out", str(bad)],
        "oracle": ["oracle", *flags, "--out", str(bad)],
        "experiment": ["experiment", str(config), "--out", str(bad)],
    }[output]
    capsys.readouterr()
    rc = main(argv)
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: cannot write")
    assert err.count("\n") == 1 and str(bad) in err


@pytest.mark.parametrize("side", ["inf", "nan", "1e308"])
def test_gen_refuses_a_non_finite_area_side(tmp_path, side, capsys):
    rc = main(["gen", "--servers", "2", "--devices", "2", "--components", "1..1",
               "--seed", "1", "--area-side", side, "--out", str(tmp_path / "x.json")])
    assert rc == 2
    assert "area_side" in capsys.readouterr().err
    assert not (tmp_path / "x.json").exists()

"""dtplace benchmark: one workload per process, end-to-end or traced.

    python3 benchmarks/run.py --workload sweep --seed 1 --seconds 25 --trace 0

Each run times whole ops of the workload with the library unwrapped until
the next op would end past ``--seconds`` (at least one pass over the plan),
then runs one traced pass over the same plan. The traced pass feeds the
correctness gate, the work counts and, with ``--trace 1``, the per-layer
metrics. The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; lines before it print every
metric by name and unit, the run metadata and the placement digest. The
exit code is 0 when every op passed the gate, 1 when one did not, 2 when the
library cannot be found and 3 when a traced layer is missing or misbehaves.
See README.md in this directory.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "dtplace"
OUT_DIR = ROOT / ".bench_out"
WORKLOAD_NAMES = ("sweep", "solve-large", "verify")
SETUP_PROBES = 4  # extra fresh processes that only time set-up
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def _import_library():
    if not (PACKAGE / "__init__.py").is_file():
        print(f"benchmark: no dtplace sources at {PACKAGE}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(PACKAGE.parent))
    sys.path.insert(0, str(HERE))
    import dtplace

    if Path(dtplace.__file__).resolve().parent != PACKAGE.resolve():
        print(f"benchmark: imported dtplace from {dtplace.__file__}", file=sys.stderr)
        sys.exit(2)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe", action="store_true", help="time set-up only and print it (internal)"
    )
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


# --- measurement -----------------------------------------------------------


def timed_loop(plan, seconds: float):
    """Whole ops, unwrapped, until the next one would end past ``seconds``.

    Returns per-op (slot, seconds, outcome or None, error text or None).
    """
    runs = []
    n = len(plan.ops)
    start = time.perf_counter()
    i = 0
    while True:
        slot = i % n
        t = time.perf_counter()
        try:
            outcome, error = plan.run(plan.ops[slot]), None
        except Exception:
            outcome, error = None, traceback.format_exc()
        runs.append((slot, time.perf_counter() - t, outcome, error))
        i += 1
        elapsed = time.perf_counter() - start
        typical = statistics.median(r[1] for r in runs)
        if i >= n and elapsed + typical > seconds:
            return runs


def traced_pass(workload, seed: int):
    """Prepare and run the plan once under the tracer."""
    import tracer as tracing  # importable only once _import_library has run

    outcomes, errors = [], {}
    with tracing.Tracer() as tr:
        plan = workload.prepare(seed)
        start = time.perf_counter()
        for slot, op in enumerate(plan.ops):
            tr.op = slot
            try:
                outcomes.append(plan.run(op))
            except Exception:
                outcomes.append(None)
                errors[slot] = traceback.format_exc()
        wall = time.perf_counter() - start
    return tr, outcomes, errors, wall


def setup_probes(args) -> list[float]:
    """Set-up time of fresh processes doing only this workload's set-up."""
    cmd = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--setup-probe",
    ]
    values = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        values.append(float(proc.stdout.strip().splitlines()[-1]))
    return values


def tail(times_ms: list[float]):
    """Highest listed percentile with at least ten ops beyond it."""
    n = len(times_ms)
    for p in TAIL_PERCENTILES:
        if n * (1.0 - p / 100.0) >= 10:
            ordered = sorted(times_ms)
            rank = min(n - 1, max(0, round(p / 100.0 * n) - 1))
            return p, ordered[rank]
    return None


# --- metadata --------------------------------------------------------------


def _git_sha():
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def metadata(args) -> dict:
    import numpy

    sources = hashlib.sha256()
    for path in sorted(PACKAGE.glob("*.py")):
        sources.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except Exception as exc:  # the config layout differs between numpy releases
        blas = f"unavailable: {exc}"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": _git_sha(),
        "source_sha256": sources.hexdigest(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
    }


# --- main ------------------------------------------------------------------


def _emit(name, value, unit, note=""):
    print(f"metric {name} = {value!r} {unit}{note}")


def main(argv=None) -> int:
    args = _parse(argv)
    _import_library()
    import tracer as tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    plan = workload.prepare(args.seed)
    setup_main = time.perf_counter() - T0
    if args.setup_probe:
        print(setup_main)
        return 0

    runs = timed_loop(plan, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tr, traced_outcomes, traced_errors, traced_wall = traced_pass(workload, args.seed)
    layer_problems = workloads.check_layers(workload, tr.spans)
    if layer_problems:
        for problem in layer_problems:
            print(f"benchmark: layer check on {args.workload}: {problem}", file=sys.stderr)
        return 3

    # Gate: from-scratch checks on the traced pass, then every timed op must
    # repeat its slot's traced outcome exactly.
    slot_problems = workloads.gate(tr.spans)
    for slot, error in traced_errors.items():
        slot_problems.setdefault(slot, []).append(f"traced op raised:\n{error}")
    for slot, outcome in enumerate(traced_outcomes):
        if outcome is not None:
            for problem in workloads.check_outcome(outcome):
                slot_problems.setdefault(slot, []).append(problem)
    failed = 0
    for slot, seconds, outcome, error in runs:
        problems = list(slot_problems.get(slot, []))
        if error is not None:
            problems.append(f"timed op raised:\n{error}")
        elif outcome != traced_outcomes[slot]:
            problems.append("timed outcome differs from the traced outcome of the same op")
        if problems:
            failed += 1
    for slot, problems in sorted(slot_problems.items(), key=lambda kv: str(kv[0])):
        for problem in problems:
            print(f"benchmark: op {slot}: {problem}", file=sys.stderr)

    setups = [setup_main] + setup_probes(args)
    times_ms = [r[1] * 1e3 for r in runs]
    work = tracing.scenario_values(tr.spans)

    # Each op's rate is its slot's deterministic work over its wall time; the
    # median over ops keeps a burst of host contention out of the figure.
    rates = [work.get(slot, 0.0) / seconds for slot, seconds, *_ in runs]
    e2e = {
        "scenario_values_per_s": (statistics.median(rates), "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    report = dict(e2e)
    report["ops_per_s"] = (len(runs) / (sum(times_ms) / 1e3), "1/s")
    report["op_ms_p50"] = (statistics.median(times_ms), "ms")
    # Traced outcomes equal the timed ones wherever the gate passed.
    outcomes = [o for o in traced_outcomes if o is not None]
    for name, value in workloads.cost_metrics(outcomes).items():
        report[name] = (value, "cost/server" if name.startswith("cost_") else "ratio")
    report["failed_share"] = (failed / len(runs), "ratio")

    per_layer = {}
    if args.trace:
        per_slot = {}
        for slot, seconds, _, _ in runs:
            per_slot.setdefault(slot, []).append(seconds)
        untraced_pass = sum(statistics.median(v) for v in per_slot.values())
        for name, value in tracing.layer_metrics(tr.spans).items():
            per_layer[name] = (value, tracing.layer_unit(name))
        per_layer["trace.overhead_ratio"] = (traced_wall / untraced_pass, "ratio")

    print(f"meta {json.dumps(metadata(args), sort_keys=True)}")
    print(f"ops {len(runs)} timed, {len(plan.ops)} per pass, {failed} failed")
    print(f"digest {workloads.placement_digest(tr.spans)}")
    for name, (value, unit) in report.items():
        _emit(name, value, unit)
    found_tail = tail(times_ms)
    if found_tail:
        _emit("op_ms_tail", found_tail[1], "ms", f" (p{found_tail[0]:g} of {len(runs)} ops)")
    else:
        print(f"metric op_ms_tail not reported: {len(runs)} ops, need 11")
    if args.trace:
        for name, (value, unit) in per_layer.items():
            _emit(name, value, unit)
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tr.write(spans_path)
        print(f"spans {len(tr.spans)} written to {spans_path.relative_to(ROOT)}")

    chosen = per_layer if args.trace else e2e
    result = {
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in chosen.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

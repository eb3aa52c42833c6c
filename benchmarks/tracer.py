"""Span tracer that wraps dtplace's public functions from outside the package.

Wrapping is by identity: every attribute of every loaded ``dtplace.*`` module
that *is* one of the listed functions is rebound to its wrapper. Call sites
that bound a function through ``from .x import f`` are traced as well as the
defining module's own callers. ``uninstall`` puts every original binding back,
so code that runs outside a ``with tracer:`` block is the unwrapped library.

Spans carry a name, start, end, parent span and op id, and stay in memory.
A few functions also store facts read from their public return values
(``SearchStats``, ``StageResult``, ``OracleResult``, ``QuadraticModel``) and
the algorithm entry points keep their inputs and results for the correctness
gate. Nothing here reads a private name of the library.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

# Public functions traced per dtplace module. A name missing from the
# library is an error, not a silent gap in the trace.
LAYERS: dict[str, tuple[str, ...]] = {
    "domain": ("generate_instance",),
    "costs": ("evaluate", "features"),
    "saa": ("draw_samples", "load_matrix", "overload_profile"),
    "search": ("hill_climb", "random_feasible_state", "make_state"),
    "stage": ("stage_search", "fit_value_model"),
    "baselines": ("baseline_random_best", "baseline_restart_hillclimb", "baseline_nearest"),
    "oracle": ("exact_solve",),
    "harness": ("run_cell_rep", "validate_p1_feasibility"),
}

# Entry points whose (instance, samples, params) inputs and results the gate
# re-checks from scratch.
ALGORITHMS = (
    "stage.stage_search",
    "baselines.baseline_random_best",
    "baselines.baseline_restart_hillclimb",
    "baselines.baseline_nearest",
    "oracle.exact_solve",
)


class TracerError(RuntimeError):
    """The library no longer matches the layer list the benchmark wraps."""


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "error", "facts")

    def __init__(self, name: str, start: float, parent: int | None, op: int | None):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.error: str | None = None
        self.facts: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


# Facts read from a call's bound arguments and public return value.


def _hill_climb_facts(a, result):
    _, _, stats = result
    return {
        "neighbors": stats.neighbors_evaluated,
        "states": stats.states_visited,
        "theta": a["samples"].theta,
    }


def _scale_facts(a):
    inst = a["inst"]
    return {
        "servers": inst.num_servers,
        "components": inst.total_components,
        "theta": a["samples"].theta,
    }


def _call(a, result):
    return (a["inst"], a["samples"], a["params"]), result


def _stage_facts(a, result):
    return {
        "iterations": result.iterations,
        "states": result.total_states_visited,
        "converged": result.converged,
        "call": _call(a, result),
    }


def _fit_facts(a, result):
    return {"constant": not result.coefficients[1:].any()}


def _oracle_facts(a, result):
    return {
        "states": result.states_enumerated,
        "theta": a["samples"].theta,
        "call": _call(a, result),
    }


def _call_facts(a, result):
    return {"call": _call(a, result)}


def _records_facts(a, result):
    return {"records": tuple(result)}


# Read from the arguments before the call, so a call that raises has them too.
ARGUMENT_FACTS = {"search.random_feasible_state": _scale_facts}

FACTS = {
    "search.hill_climb": _hill_climb_facts,
    "stage.stage_search": _stage_facts,
    "stage.fit_value_model": _fit_facts,
    "oracle.exact_solve": _oracle_facts,
    "baselines.baseline_random_best": _call_facts,
    "baselines.baseline_restart_hillclimb": _call_facts,
    "baselines.baseline_nearest": _call_facts,
    "harness.run_cell_rep": _records_facts,
}


class Tracer:
    """Context manager: wraps the listed functions on entry, restores on exit."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op: int | None = None
        self._stack: list[int] = []
        self._rebound: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def install(self) -> None:
        wrappers: dict[int, tuple[object, object]] = {}
        for module_name, names in LAYERS.items():
            module = importlib.import_module(f"dtplace.{module_name}")
            for name in names:
                fn = getattr(module, name, None)
                if not inspect.isfunction(fn):
                    raise TracerError(f"dtplace.{module_name}.{name} is not a function any more")
                wrappers[id(fn)] = (fn, self._wrap(f"{module_name}.{name}", fn))
        for module_name, module in list(sys.modules.items()):
            if module_name != "dtplace" and not module_name.startswith("dtplace."):
                continue
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])
                    self._rebound.append((module, attr, value))

    def uninstall(self) -> None:
        while self._rebound:
            module, attr, original = self._rebound.pop()
            setattr(module, attr, original)

    def _wrap(self, qualname: str, fn):
        facts = FACTS.get(qualname)
        argument_facts = ARGUMENT_FACTS.get(qualname)
        signature = inspect.signature(fn)
        split = None
        if qualname == "search.hill_climb":
            params = list(signature.parameters)
            if "objective" not in params:
                raise TracerError("search.hill_climb has no 'objective' parameter any more")
            position = params.index("objective")

            def split(args, kwargs):
                passed = len(args) > position or "objective" in kwargs
                return "search.hill_climb.predict" if passed else "search.hill_climb.cost"

        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = split(args, kwargs) if split else qualname
            known = None
            if argument_facts is not None:
                known = argument_facts(signature.bind(*args, **kwargs).arguments)
            span = Span(name, clock(), stack[-1] if stack else None, self.op)
            span.facts = known
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = clock()
                stack.pop()
            if facts is not None:
                span.facts = facts(signature.bind(*args, **kwargs).arguments, result)
            return result

        return wrapper

    def write(self, path) -> None:
        """One JSON object per span, in start order."""
        with open(path, "w") as fh:
            for i, span in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": span.name,
                            "start": span.start,
                            "end": span.end,
                            "parent": span.parent,
                            "op": span.op,
                            "error": span.error,
                        }
                    )
                    + "\n"
                )


# Span names reported with .calls and .busy_s; those in SELF_TIMED also get
# .self_s (duration minus the time covered by direct child spans).
TIMED = (
    "search.hill_climb.cost",
    "search.hill_climb.predict",
    "search.random_feasible_state",
    "search.make_state",
    "saa.load_matrix",
    "saa.overload_profile",
    "saa.draw_samples",
    "costs.evaluate",
    "costs.features",
    "stage.stage_search",
    "stage.fit_value_model",
    "baselines.baseline_random_best",
    "baselines.baseline_restart_hillclimb",
    "baselines.baseline_nearest",
    "oracle.exact_solve",
    "domain.generate_instance",
    "harness.run_cell_rep",
    "harness.validate_p1_feasibility",
)
SELF_TIMED = (
    "search.hill_climb.cost",
    "search.hill_climb.predict",
    "stage.stage_search",
    "harness.run_cell_rep",
)
CLIMBS = ("search.hill_climb.cost", "search.hill_climb.predict")


def layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_share", "_ratio")):
        return "ratio"
    return "count"


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _is_draw(spans: list[Span], span: Span) -> bool:
    """A load_matrix call made directly by random_feasible_state: one rejection draw."""
    return (
        span.name == "saa.load_matrix"
        and span.parent is not None
        and spans[span.parent].name == "search.random_feasible_state"
    )


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer counts and times; every key is present even when zero."""
    calls: dict[str, int] = {}
    busy: dict[str, float] = {}
    own: dict[str, float] = {}
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.duration
    for i, span in enumerate(spans):
        calls[span.name] = calls.get(span.name, 0) + 1
        busy[span.name] = busy.get(span.name, 0.0) + span.duration
        own[span.name] = own.get(span.name, 0.0) + span.duration - covered[i]

    out: dict[str, float] = {}
    for name in TIMED:
        out[f"{name}.calls"] = calls.get(name, 0)
        out[f"{name}.busy_s"] = busy.get(name, 0.0)
        if name in SELF_TIMED:
            out[f"{name}.self_s"] = own.get(name, 0.0)

    def facts(name):
        return [s.facts for s in spans if s.name == name and s.facts is not None]

    climbs = [f for name in CLIMBS for f in facts(name)]
    neighbors = sum(f["neighbors"] for f in climbs)
    out["search.neighbors_evaluated"] = neighbors
    out["search.neighbors_per_s"] = _ratio(neighbors, sum(busy.get(n, 0.0) for n in CLIMBS))
    out["search.steps"] = sum(f["states"] - 1 for f in climbs)

    starts = calls.get("search.random_feasible_state", 0)
    draws = sum(1 for span in spans if _is_draw(spans, span))
    out["search.random_feasible_state.draws"] = draws
    out["search.random_feasible_state.accept_ratio"] = _ratio(starts, draws)

    solves = facts("stage.stage_search")
    starts_per_solve: dict[int, int] = {}
    for span in spans:
        if span.name == "search.random_feasible_state" and span.parent is not None:
            if spans[span.parent].name == "stage.stage_search":
                starts_per_solve[span.parent] = starts_per_solve.get(span.parent, 0) + 1
    out["stage.iterations"] = sum(f["iterations"] for f in solves)
    out["stage.states_visited"] = sum(f["states"] for f in solves)
    out["stage.converged_share"] = _ratio(sum(f["converged"] for f in solves), len(solves))
    out["stage.stall_restarts"] = sum(n - 1 for n in starts_per_solve.values())
    fits = facts("stage.fit_value_model")
    out["stage.fit_value_model.constant_share"] = _ratio(
        sum(f["constant"] for f in fits), len(fits)
    )

    states = sum(f["states"] for f in facts("oracle.exact_solve"))
    out["oracle.states_enumerated"] = states
    out["oracle.states_per_s"] = _ratio(states, busy.get("oracle.exact_solve", 0.0))
    return out


def scenario_values(spans: list[Span]) -> dict[int | None, float]:
    """Nominal scenario values each op adds or compares, keyed by op id.

    The count weighs each unit of search work by the rows of theta scenario
    values it touches: a neighbour adds one component's demand to a server
    and compares the result with capacity (2 rows), a rejection draw sums K
    components into S server loads and compares S of them (K + S rows), an
    enumerated oracle state adds and compares once (2 rows). It is a fixed
    model of the work, not a measurement, so it repeats exactly per seed.
    """
    out: dict[int | None, float] = {}
    for span in spans:
        if span.facts is None and not _is_draw(spans, span):
            continue
        if span.name in CLIMBS:
            value = 2.0 * span.facts["neighbors"] * span.facts["theta"]
        elif span.name == "oracle.exact_solve":
            value = 2.0 * span.facts["states"] * span.facts["theta"]
        elif _is_draw(spans, span):
            f = spans[span.parent].facts
            value = float((f["components"] + f["servers"]) * f["theta"])
        else:
            continue
        out[span.op] = out.get(span.op, 0.0) + value
    return out

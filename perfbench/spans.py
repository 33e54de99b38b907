"""Spans around numax's public functions, recorded from the benchmark's side.

A hook replaces one module attribute (the name a numax module calls) with a
wrapper and puts the original back afterwards; nothing under ``src/`` is
edited. Each call becomes a span (name, start, end, parent), kept in flat
arrays in memory and written out once the run ends. Per-layer metrics are
computed from the spans: a span's self time is its duration minus the
durations of its direct children.

Hook targets that no longer exist are skipped, and the metrics that need
them are reported as absent.
"""

from __future__ import annotations

import dataclasses
import importlib
import os
import time
from array import array

# The problem's five callables, as fields of numax.core.ConstrainedProblem.
PROBLEM_FIELDS = {
    "eval_objective": "problems.objective",
    "eval_objective_grad": "problems.objective_grad",
    "eval_ineq": "problems.ineq",
    "eval_eq": "problems.eq",
    "eval_constraint_jacobian": "problems.jacobian",
}

# (span name, module whose attribute is replaced, attribute)
SPAN_HOOKS = [
    ("dual_optimizers.dual_step", "numax.loop", "dual_step"),
    ("dual_optimizers.replace_theta", "numax.loop", "replace_theta"),
    ("dual_optimizers.apply_dual_restarts", "numax.loop", "apply_dual_restarts"),
    ("loop.run", "numax.cli", "run"),
    ("loop.write_trajectory_csv", "numax.cli", "write_trajectory_csv"),
    ("problems.svm_dual_oracle", "numax.cli", "svm_dual_oracle"),
    ("analysis.simulate_flow", "numax", "simulate_flow"),
    ("cli.main", "numax.cli", "main"),
]
# Builders whose returned problem gets its five callables wrapped.
BUILDER_HOOKS = [("numax.cli", "build_svm_problem"), ("numax.cli", "build_2d_benchmark")]


class Patches:
    """Module attributes replaced for the length of a ``with`` block."""

    def __init__(self):
        self.saved = []
        self.missing = []

    def replace(self, module_name, attr, make_wrapper):
        module = importlib.import_module(module_name)
        original = getattr(module, attr, None)
        if not callable(original):
            self.missing.append(f"{module_name}.{attr}")
            return
        self.saved.append((module, attr, original))
        setattr(module, attr, make_wrapper(original))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self.saved):
            setattr(module, attr, original)
        self.saved.clear()


def wrap_builders(patches, wrap_callable):
    """Hook the problem builders so that each of the returned problem's
    five callables is replaced by ``wrap_callable(span_name, fn)``."""

    def make_wrapper(builder):
        def traced_builder(*args, **kwargs):
            problem = builder(*args, **kwargs)
            try:
                return dataclasses.replace(problem, **{
                    field: wrap_callable(name, getattr(problem, field))
                    for field, name in PROBLEM_FIELDS.items()})
            except (TypeError, AttributeError):
                patches.missing.append("ConstrainedProblem callables")
                return problem
        return traced_builder

    for module_name, attr in BUILDER_HOOKS:
        patches.replace(module_name, attr, make_wrapper)


class FirstStep(BaseException):
    """Raised where solving begins in a set-up probe.

    A BaseException, so that the grid's per-cell ``except Exception`` does
    not swallow it.
    """


def install_first_step_stop(patches):
    """Stop the workload where solving begins: at its first problem
    evaluation, dual-oracle call or flow step."""

    def stop(*_args, **_kwargs):
        raise FirstStep

    wrap_builders(patches, lambda _name, _fn: stop)
    patches.replace("numax.cli", "svm_dual_oracle", lambda _fn: stop)
    patches.replace("numax", "simulate_flow", lambda _fn: stop)


class Tracer:
    """Flat in-memory span store plus the per-call facts the hooks note."""

    def __init__(self):
        self.names = []
        self.name_id = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.stack = []
        self.notes = {}  # span index -> dict of facts taken from the call

    def clear(self):
        for arr in (self.name_id, self.start, self.end, self.parent):
            del arr[:]
        self.stack.clear()
        self.notes.clear()

    def _id(self, name):
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name, fn, note=None):
        nid = self._id(name)
        name_id, start, end, parent, stack = (self.name_id, self.start, self.end,
                                              self.parent, self.stack)
        clock = time.perf_counter
        notes = self.notes

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if note is not None:
                notes[idx] = note(args, kwargs, result)
            return result

        return traced

    def install(self, patches):
        notes = {"loop.run": _note_run, "loop.write_trajectory_csv": _note_csv,
                 "cli.main": _note_cli}
        wrap_builders(patches, self.wrap)
        for module_name, attr in BUILDER_HOOKS:
            patches.replace(module_name, attr, lambda fn: self.wrap("problems.build", fn))
        for name, module_name, attr in SPAN_HOOKS:
            patches.replace(module_name, attr,
                            lambda fn, name=name: self.wrap(name, fn, notes.get(name)))

    def save(self, path):
        import numpy as np
        np.savez(path, names=np.array(self.names), name_id=np.asarray(self.name_id),
                 start=np.asarray(self.start), end=np.asarray(self.end),
                 parent=np.asarray(self.parent))


def _note_run(_args, _kwargs, trajectory):
    steps = getattr(trajectory, "steps", None)
    if not steps:
        return {}
    return {"steps": int(steps[-1].t), "records": len(steps)}


def _note_csv(args, kwargs, _result):
    path = args[1] if len(args) > 1 else kwargs.get("path")
    return {"bytes": os.path.getsize(path)} if path is not None else {}


def _note_cli(args, kwargs, _result):
    argv = args[0] if args else kwargs.get("argv") or []
    return {"command": argv[0] if argv else ""}


# Per-layer metrics: name -> (unit, better, span names it needs).
LAYER_METRICS = {
    "problems.eval_calls": ("count", "lower", ["problems.*"]),
    "problems.evals_per_step": ("evals/step", "lower", ["problems.*", "loop.run"]),
    "problems.eval_s": ("s", "lower", ["problems.*"]),
    "problems.oracle_s": ("s", "lower", ["problems.svm_dual_oracle"]),
    "problems.build_s": ("s", "lower", ["problems.*"]),
    "dual_optimizers.step_calls": ("count", "lower", ["dual_optimizers.dual_step"]),
    "dual_optimizers.step_s": ("s", "lower", ["dual_optimizers.dual_step"]),
    "dual_optimizers.state_rebuilds": ("count", "lower", ["dual_optimizers.replace_theta",
                                                          "dual_optimizers.apply_dual_restarts"]),
    "dual_optimizers.rebuild_s": ("s", "lower", ["dual_optimizers.replace_theta",
                                                 "dual_optimizers.apply_dual_restarts"]),
    "loop.steps": ("count", "lower", ["loop.run"]),
    "loop.run_s": ("s", "lower", ["loop.run"]),
    "loop.self_s": ("s", "lower", ["loop.run", "problems.*", "dual_optimizers.dual_step",
                                   "dual_optimizers.replace_theta",
                                   "dual_optimizers.apply_dual_restarts"]),
    "loop.self_us_per_step": ("us", "lower", ["loop.run", "problems.*",
                                              "dual_optimizers.dual_step",
                                              "dual_optimizers.replace_theta",
                                              "dual_optimizers.apply_dual_restarts"]),
    "loop.steps_per_s": ("1/s", "higher", ["loop.run"]),
    "loop.records": ("count", "lower", ["loop.run"]),
    "loop.csv_write_s": ("s", "lower", ["loop.write_trajectory_csv"]),
    "loop.csv_bytes": ("bytes", "lower", ["loop.write_trajectory_csv"]),
    "cli.self_s": ("s", "lower", ["cli.main"]),
    "cli.grid_dispatch_s": ("s", "lower", ["cli.main", "loop.run"]),
    "cli.runtime_warnings": ("count", "lower", ["cli.main"]),
    "analysis.flow_s": ("s", "lower", ["analysis.simulate_flow"]),
    "analysis.rk4_steps": ("count", "lower", ["analysis.simulate_flow"]),
    "analysis.flow_us_per_step": ("us", "lower", ["analysis.simulate_flow"]),
    "analysis.sweep_s": ("s", "lower", ["cli.main"]),
    "trace.overhead_ratio": ("ratio", "lower", []),
}

# Exact counts, which must repeat across iterations of one run.
DETERMINISTIC = {name for name, (unit, _b, _n) in LAYER_METRICS.items()
                 if unit in ("count", "bytes")}


def absent_metrics(missing):
    """Metrics whose spans could not be hooked."""
    gone = set()
    for target in missing:
        if target == "ConstrainedProblem callables" or "build_" in target:
            gone.add("problems.*")
        for name, module_name, attr in SPAN_HOOKS:
            if target == f"{module_name}.{attr}":
                gone.add(name)
    return {metric for metric, (_u, _b, needs) in LAYER_METRICS.items()
            if any(n in gone for n in needs)}


def iteration_metrics(tracer, rk4_steps=0, runtime_warnings=0):
    """Per-layer metrics of the spans recorded in one traced iteration."""
    names = tracer.names
    n = len(tracer.start)
    dur = [tracer.end[i] - tracer.start[i] for i in range(n)]
    child = [0.0] * n
    for i in range(n):
        p = tracer.parent[i]
        if p >= 0:
            child[p] += dur[i]
    total, count, self_total = {}, {}, {}
    for i in range(n):
        name = names[tracer.name_id[i]]
        total[name] = total.get(name, 0.0) + dur[i]
        count[name] = count.get(name, 0) + 1
        self_total[name] = self_total.get(name, 0.0) + dur[i] - child[i]

    def note_sum(span, key):
        return sum(note.get(key, 0) for idx, note in tracer.notes.items()
                   if names[tracer.name_id[idx]] == span)

    problem_spans = list(PROBLEM_FIELDS.values())
    eval_calls = sum(count.get(s, 0) for s in problem_spans)
    steps = note_sum("loop.run", "steps")
    run_s = total.get("loop.run", 0.0)
    loop_self = self_total.get("loop.run", 0.0)
    flow_s = total.get("analysis.simulate_flow", 0.0)
    sweep_s = sum(dur[idx] for idx, note in tracer.notes.items()
                  if note.get("command") == "sweep-regime")
    rebuild_spans = ("dual_optimizers.replace_theta", "dual_optimizers.apply_dual_restarts")
    return {
        "problems.eval_calls": eval_calls,
        "problems.evals_per_step": eval_calls / steps if steps else 0.0,
        "problems.eval_s": sum(total.get(s, 0.0) for s in problem_spans),
        "problems.oracle_s": total.get("problems.svm_dual_oracle", 0.0),
        "problems.build_s": total.get("problems.build", 0.0),
        "dual_optimizers.step_calls": count.get("dual_optimizers.dual_step", 0),
        "dual_optimizers.step_s": total.get("dual_optimizers.dual_step", 0.0),
        "dual_optimizers.state_rebuilds": sum(count.get(s, 0) for s in rebuild_spans),
        "dual_optimizers.rebuild_s": sum(total.get(s, 0.0) for s in rebuild_spans),
        "loop.steps": steps,
        "loop.run_s": run_s,
        "loop.self_s": loop_self,
        "loop.self_us_per_step": 1e6 * loop_self / steps if steps else 0.0,
        "loop.steps_per_s": steps / run_s if run_s else 0.0,
        "loop.records": note_sum("loop.run", "records"),
        "loop.csv_write_s": total.get("loop.write_trajectory_csv", 0.0),
        "loop.csv_bytes": note_sum("loop.write_trajectory_csv", "bytes"),
        "cli.self_s": self_total.get("cli.main", 0.0),
        "cli.runtime_warnings": runtime_warnings,
        "analysis.flow_s": flow_s,
        "analysis.rk4_steps": rk4_steps,
        "analysis.flow_us_per_step": 1e6 * flow_s / rk4_steps if rk4_steps else 0.0,
        "analysis.sweep_s": sweep_s,
    }

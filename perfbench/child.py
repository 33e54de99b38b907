"""One process of a benchmark run: a set-up probe or the measuring process.

    python3 perfbench/child.py setup   WORKLOAD SEED VARIANT
    python3 perfbench/child.py measure WORKLOAD SEED SECONDS TRACE

A set-up probe times, from its own first line, the import of numax and
numax.cli plus building the workload's inputs, and stops where solving
begins: the first problem evaluation, dual-oracle call or flow step. The
measuring process runs the workload for SECONDS and checks its outputs.
Either prints one JSON object as the last line of its standard output.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(1, str(ROOT / "src"))

import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def workdir(name):
    return ROOT / ".perfbench_work" / name


def setup_probe(name, seed, variant):
    workload = WORKLOADS[name](seed, workdir(name))
    workload.prepare()
    ops = workload.ops()
    _label, op = ops[variant % len(ops)]
    stopped = False
    with spans.Patches() as patches:
        spans.install_first_step_stop(patches)
        try:
            op()
        except spans.FirstStep:
            stopped = True
    return {"setup_s": time.perf_counter() - T0, "stopped_at_first_step": stopped}


def peak_rss_kb():
    """Peak resident set of this process or of its largest waited-for child."""
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)


class Phase:
    """Iterations of one workload under one setting, with their fingerprints."""

    def __init__(self, workload, budget, min_iterations, tracer=None):
        self.times, self.layers, self.fingerprints, self.errors = [], [], [], []
        self.first_peak_kb = None
        start = time.perf_counter()
        while len(self.times) < min_iterations or (
                time.perf_counter() - start + self.times[-1] <= budget):
            if tracer is not None:
                tracer.clear()
            t = time.perf_counter()
            error = workload.iteration()
            self.times.append(time.perf_counter() - t)
            if self.first_peak_kb is None:
                # Later repeats only add allocator fragmentation.
                self.first_peak_kb = peak_rss_kb()
            stderr = workload.stderr_text()
            sys.stderr.write(stderr)
            if error is not None:
                self.errors.append(error)
                self.fingerprints.append(None)
                continue
            self.fingerprints.append(workload.fingerprint())
            if tracer is not None:
                self.layers.append(spans.iteration_metrics(
                    tracer, workload.rk4_steps(), stderr.count("RuntimeWarning:")))

    @property
    def median(self):
        return statistics.median(self.times)


def tally(workload, phases):
    """(attempted, failed, messages): every iteration's operations are checked
    through the last iteration's outputs plus byte-identical repeats."""
    labels = workload.labels()
    fingerprints = [fp for phase in phases for fp in phase.fingerprints]
    messages = [e for phase in phases for e in phase.errors]
    last = fingerprints[-1]
    failures = workload.check() if last is not None else {}
    messages.extend(f"{label}: {text}" for label, text in failures.items())
    failed = 0
    for fp in fingerprints:
        for label in labels:
            if fp is None or last is None or fp.get(label) != last.get(label) or label in failures:
                failed += 1
    if any(fp is not None and fp != last for fp in fingerprints):
        messages.append("outputs differ between repeats of the same inputs")
    return len(labels) * len(fingerprints), failed, messages


def layer_summary(phase):
    """Median of each per-layer time; exact counts must repeat."""
    metrics, nondeterministic = {}, []
    for key in phase.layers[0]:
        values = [layer[key] for layer in phase.layers]
        if key in spans.DETERMINISTIC:
            if len(set(values)) > 1:
                nondeterministic.append(f"{key} varies across repeats: {values}")
            metrics[key] = values[0]
        else:
            metrics[key] = statistics.median(values)
    return metrics, nondeterministic


def measure(name, seed, seconds, trace):
    jobs = os.cpu_count() or 1
    workload = WORKLOADS[name](seed, workdir(name), jobs=jobs)
    workload.prepare()
    result = {"metrics": {}, "absent": [], "nondeterministic": []}
    if not trace:
        phases = [Phase(workload, seconds, 3)]
        result["metrics"] = {"wall_s": phases[0].median,
                             "peak_rss_mb": phases[0].first_peak_kb / 1024.0}
        result["iterations"] = len(phases[0].times)
    else:
        phases = []
        share = seconds / (3 if name == "svm-grid" else 2)
        if name == "svm-grid":
            # Cell spans are only visible in this process, so the traced grid
            # runs its cells in-process; the --jobs run prices dispatch.
            phases.append(Phase(workload, share, 2))
            workload.jobs = 1
        phases.append(Phase(workload, share, 2))
        tracer = spans.Tracer()
        with spans.Patches() as patches:
            tracer.install(patches)
            phases.append(Phase(workload, share, 2, tracer))
        tracer.save(workload.workdir / "trace.npz")
        traced, untraced = phases[-1], phases[-2]
        if traced.layers:
            metrics, result["nondeterministic"] = layer_summary(traced)
        else:
            metrics = {}
        metrics["trace.overhead_ratio"] = traced.median / untraced.median - 1.0
        metrics["cli.grid_dispatch_s"] = 0.0
        if name == "svm-grid" and traced.layers:
            # Time outside the cells (each cell rebuilds its problem, then
            # runs), then the cells' serial cost spread over the workers.
            outside = statistics.median(t - layer["loop.run_s"] - layer["problems.build_s"]
                                        for t, layer in zip(traced.times, traced.layers))
            cells = untraced.median - outside
            metrics["cli.grid_dispatch_s"] = phases[0].median - (outside + cells / jobs)
        absent = spans.absent_metrics(patches.missing)
        result["absent"] = sorted(absent)
        result["metrics"] = {k: v for k, v in metrics.items() if k not in absent}
    attempted, failed, messages = tally(workload, phases)
    result.update(attempted=attempted, failed=failed, messages=messages)
    return result


def main(argv):
    role, name, seed = argv[0], argv[1], int(argv[2])
    if role == "setup":
        result = setup_probe(name, seed, int(argv[3]))
    else:
        result = measure(name, seed, float(argv[3]), argv[4] == "1")
    import numpy
    result["numpy"] = numpy.__version__
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])

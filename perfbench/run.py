"""numax benchmark: time one workload end to end, or layer by layer.

    python3 perfbench/run.py --workload svm-run --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

Run from the root of a source checkout; numax is imported from ``src/``.
With ``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` the
per-layer ones, each as ``name = value unit``, and then one JSON line with
``correct``, ``attempted``, ``failed`` and ``metrics``. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import LAYER_METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("svm-run", "svm-grid", "bench2d-run", "qp-flow")
SETUP_PROBES = 5
TIME_LIMIT_S = 170.0  # one workload's run must end within 180 s


def _child(args, deadline):
    """Run child.py; returns its JSON result, or raises RuntimeError."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RuntimeError("out of time before " + " ".join(args))
    try:
        proc = subprocess.run([sys.executable, str(HERE / "child.py"), *args], cwd=ROOT,
                              stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise RuntimeError(f"{' '.join(args)} did not end within {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(args)} exited with {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(name, seed, seconds, trace):
    deadline = time.monotonic() + TIME_LIMIT_S
    work = ROOT / ".perfbench_work" / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    setup = []
    if not trace:
        for variant in range(SETUP_PROBES):
            probe = _child(["setup", name, str(seed), str(variant)], deadline)
            if not probe["stopped_at_first_step"]:
                print(f"{name}: set-up probe {variant} ran to the end without a first step",
                      file=sys.stderr)
            setup.append(probe["setup_s"])
    result = _child(["measure", name, str(seed), repr(float(seconds)), "1" if trace else "0"],
                    deadline)
    for message in result["messages"] + result["nondeterministic"]:
        print(f"{name}: {message}", file=sys.stderr)
    if trace:
        metrics = {key: (value, LAYER_METRICS[key][0]) for key, value in result["metrics"].items()}
    else:
        raw = result["metrics"]
        metrics = {"wall_s": (raw["wall_s"], "s"),
                   "setup_s": (statistics.median(setup), "s"),
                   "peak_rss_mb": (raw["peak_rss_mb"], "MB"),
                   "ok_ratio": (1.0 - result["failed"] / result["attempted"], "ratio")}
    correct = result["failed"] == 0 and not result["nondeterministic"]
    return {"correct": correct, "attempted": result["attempted"], "failed": result["failed"],
            "metrics": metrics, "absent": result["absent"], "numpy": result["numpy"],
            "iterations": result.get("iterations")}


def machine_facts(numpy_version):
    model = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"cores": os.cpu_count(), "cpu": model, "python": platform.python_version(),
            "numpy": numpy_version}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "numax" / "__init__.py").is_file():
        print(f"no numax source under {ROOT / 'src'}; run from a numax checkout",
              file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, args.trace)
    except RuntimeError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    facts = machine_facts(next(iter(results.values()))["numpy"])
    print("machine: " + ", ".join(f"{k} {v}" for k, v in facts.items()))
    for name, res in results.items():
        iterations = f", {res['iterations']} timed iterations" if res["iterations"] else ""
        print(f"[{name}] seed {args.seed}, trace {args.trace}{iterations}: "
              f"{res['failed']} of {res['attempted']} operations failed")
        for key, (value, unit) in res["metrics"].items():
            print(f"  {key} = {value:.6g} {unit}")
        for key in res["absent"]:
            print(f"  {key} absent (its hook target no longer exists)")

    def metric_key(name, key):
        return key if len(results) == 1 else f"{name}.{key}"

    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {metric_key(name, key): {"value": value, "unit": unit}
                    for name, res in results.items()
                    for key, (value, unit) in res["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

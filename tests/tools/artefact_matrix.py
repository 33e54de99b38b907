"""Compare what the numax CLI writes under two source trees, byte for byte.

    python tests/tools/artefact_matrix.py --parent <src> --change <src> \
        [--expect-diff <id>]... [--only <id>]...

Each command of `TABLE` runs as `python -B -m numax.cli <argv>` in a fresh
temporary directory outside the checkout, once with each `src` directory on
PYTHONPATH, and its stdout, stderr, exit code and every file it leaves in that
directory are compared. The inputs a command reads (`INPUTS`) are written
into its directory first, and every argument path is relative to it, so the
two runs see the same bytes. Before comparing, the absolute path of each
side's `src` and of its temporary directory are replaced by `<src>` and
`<tmp>`.

One line per command (its status, the change's exit code and its id, then
one line per differing artefact), then a summary with the wall time. The
exit code is 1 when a command differs without being named by
`--expect-diff`, or when a named command does not differ, and 0 otherwise.
Only the standard library is used.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

_QP = '{"H": [[2.0, 0.5], [0.5, 1.0]], "A": [[1.0, 1.0]], "b": [1.0], "c": [0.1, -0.2]}\n'
# The README's default `numax run` and the 50 000-step 2D benchmark run
_SVM_INI = """[problem]
kind = svm
[loop]
scheme = alternating
max_steps = 5000
record_every = 1
primal_kind = gd-momentum
primal_step_size = 1e-3
primal_momentum = 0.9
[dual]
kind = nupi
nu = 0.0
kp = 1.0
ki = 0.1
[run]
metric = dist_to_lambda_star
"""
_BENCH2D_INI = """[problem]
kind = benchmark2d
x0 = -0.5,-2.0
[loop]
max_steps = 50000
primal_kind = gd
primal_step_size = 0.002
[dual]
kind = nupi
kp = 3.0
ki = 0.01
"""
# File name -> contents, written into every command's directory
INPUTS = {
    "qp.json": _QP,
    "svm.ini": _SVM_INI,
    "bench2d.ini": _BENCH2D_INI,
    "nonfinite.csv": "1.0,2.0,1\nnan,0.5,-1\n3.0,1.0,1\n0.0,0.0,0\n",
    "ragged.json": '{"H": [[1.0, 0.0], [0.0]], "A": [[1.0, 0.0]], "b": [1.0]}\n',
    "nan_b.json": '{"H": [[1.0]], "A": [[1.0]], "b": [NaN]}\n',
    "words.json": '{"H": [["a"]], "A": [[1.0]], "b": [1.0]}\n',
    "b_length.json": '{"H": [[1.0]], "A": [[1.0]], "b": [1.0, 2.0]}\n',
    "bad.json": "{H: [[1]]",
}

_PROBLEM = {"svm": ["--problem.kind", "svm", "--loop.primal_kind", "gd-momentum",
                    "--loop.primal_step_size", "1e-3"],
            "benchmark2d": ["--problem.kind", "benchmark2d", "--loop.primal_step_size", "0.002"],
            "qp": ["--problem.kind", "qp", "--problem.path", "qp.json",
                   "--loop.primal_step_size", "0.05"]}
_DUAL = {"nupi": ["--dual.kind", "nupi", "--dual.kp", "1", "--dual.ki", "0.1"],
         "ga": ["--dual.kind", "ga", "--dual.alpha", "0.05"],
         "um": ["--dual.kind", "um", "--dual.alpha", "0.05", "--dual.beta", "0.5",
                "--dual.gamma", "0.5"],
         "adam": ["--dual.kind", "adam", "--dual.step_size", "0.01"]}
_OUT = ["--output-dir", "out"]


def _table() -> list:
    """(command id, the argv after `numax`) pairs, in the order they run."""
    table = []
    for kind, problem in _PROBLEM.items():
        for dual, gains in _DUAL.items():
            for scheme in ("alternating", "simultaneous"):
                for restarts in ("false", "true"):
                    table.append((f"run-{kind}-{dual}-{scheme}-restarts-{restarts}", [
                        "run", *problem, *gains, "--loop.scheme", scheme,
                        "--loop.dual_restarts", restarts, "--loop.max_steps", "300", *_OUT]))
    table += [(f"svm-run-split-{split}",
               ["run", "--config", "svm.ini", "--run.seed", str(split), *_OUT])
              for split in range(16)]
    table += [
        ("bench2d-run", ["run", "--config", "bench2d.ini", *_OUT]),
        ("run-stop-tolerance", ["run", *_PROBLEM["qp"], "--dual.kp", "1", "--dual.ki", "0.5",
                                "--loop.max_steps", "20000", "--loop.stop_tolerance", "1e-6",
                                "--loop.record_every", "3", *_OUT]),
        ("run-non-finite", ["run", "--problem.kind", "benchmark2d",
                            "--loop.primal_step_size", "1e3", *_OUT]),
        ("run-warning", ["run", *_PROBLEM["benchmark2d"], "--dual.ki", "-0.01",
                         "--loop.max_steps", "50", *_OUT]),
    ]
    for kind, metrics in (("svm", ("dist_to_lambda_star", "max_violation", "overshoot")),
                          ("benchmark2d", ("max_violation", "overshoot")),
                          ("qp", ("max_violation", "overshoot"))):
        table += [(f"grid-{kind}-{metric}", [
            "grid", *_PROBLEM[kind], "--grid.kp", "0,1,10", "--grid.ki", "0.01,0.5",
            "--grid.nu", "0,0.5", "--loop.max_steps", "300", "--run.metric", metric, *_OUT])
            for metric in metrics]
    table += [
        ("grid-jobs", ["grid", *_PROBLEM["benchmark2d"], "--jobs", "2", "--grid.kp", "3",
                       "--grid.ki", "0.01", "--loop.max_steps", "100", *_OUT]),
        ("sweep-regime", ["sweep-regime", "--h", "1", "--a", "-1", "--ki", "1",
                          "--samples", "51", "--out", "sweep.csv"]),
        ("sweep-regime-default-path", ["sweep-regime", "--h", "0.5", "--a", "2", "--ki", "0.3"]),
        ("sweep-huge-h", ["sweep-regime", "--h", "1e200", "--a", "1", "--ki", "1"]),
        ("validate-gradients-svm", ["validate-gradients", "--problem", "svm"]),
        ("validate-gradients-benchmark2d", ["validate-gradients", "--problem", "benchmark2d"]),
        ("validate-gradients-qp", ["validate-gradients", "--problem", "qp", "--data", "qp.json"]),
        ("oracle-svm", ["oracle-svm"]),
        ("oracle-svm-no-split", ["oracle-svm", "--no-split"]),
        ("oracle-svm-split-3", ["oracle-svm", "--seed", "3", "--train-fraction", "0.6",
                                "--out", "oracle.json"]),
    ]
    malformed = [
        ("max-steps-zero", ["run", "--loop.max_steps", "0"]),
        ("record-every-zero", ["run", "--loop.record_every", "0"]),
        ("primal-step-zero", ["run", "--loop.primal_step_size", "0"]),
        ("primal-step-negative", ["run", "--loop.primal_step_size", "-1"]),
        ("stop-tolerance-negative", ["run", "--loop.stop_tolerance", "-1"]),
        ("points-zero", ["validate-gradients", "--problem", "benchmark2d", "--points", "0"]),
        ("train-fraction-range", ["run", "--problem.train_fraction", "1.5"]),
        ("oracle-train-fraction-range", ["oracle-svm", "--train-fraction", "1.5"]),
        ("seed-negative-svm", ["run", "--run.seed", "-1"]),
        ("seed-negative-benchmark2d", ["run", "--problem.kind", "benchmark2d",
                                       "--run.seed", "-1", "--loop.max_steps", "20"]),
        ("seed-negative-qp", ["run", *_PROBLEM["qp"], "--run.seed", "-1",
                              "--loop.max_steps", "20"]),
        ("grid-seed-negative-benchmark2d", ["grid", "--problem.kind", "benchmark2d",
                                            "--run.seed", "-1", "--grid.kp", "1",
                                            "--grid.ki", "0.1", "--loop.max_steps", "20"]),
        ("oracle-seed-negative", ["oracle-svm", "--seed", "-1"]),
        ("oracle-seed-negative-no-split", ["oracle-svm", "--no-split", "--seed", "-1"]),
        ("oracle-non-finite-data", ["oracle-svm", "--data", "nonfinite.csv", "--no-split"]),
        ("run-non-finite-data", ["run", "--problem.path", "nonfinite.csv",
                                 "--problem.split", "false"]),
        ("unknown-scheme", ["run", "--loop.scheme", "bogus"]),
        ("non-numeric-tolerance", ["run", "--loop.stop_tolerance", "abc"]),
        ("nan-primal-step", ["run", "--loop.primal_step_size", "nan"]),
        ("fractional-record-every", ["run", "--loop.record_every", "1.5"]),
        ("inf-ki", ["run", "--dual.ki", "inf"]),
        ("x0-wrong-length", ["run", "--problem.x0", "0,0"]),
        ("qp-ragged", ["run", "--problem.kind", "qp", "--problem.path", "ragged.json"]),
        ("qp-nan-b", ["run", "--problem.kind", "qp", "--problem.path", "nan_b.json"]),
        ("qp-words", ["run", "--problem.kind", "qp", "--problem.path", "words.json"]),
        ("qp-b-length", ["run", "--problem.kind", "qp", "--problem.path", "b_length.json"]),
        ("qp-not-json", ["run", "--problem.kind", "qp", "--problem.path", "bad.json"]),
        ("missing-data", ["run", "--problem.path", "missing.csv"]),
        ("unknown-override", ["run", "--loop.bogus", "1"]),
        ("grid-jobs-zero", ["grid", "--jobs", "0"]),
        ("grid-nan-kp", ["grid", "--grid.kp", "0,nan", "--grid.ki", "0.1"]),
        ("sweep-samples-one", ["sweep-regime", "--h", "1", "--a", "-1", "--ki", "1",
                               "--samples", "1"]),
        ("sweep-nan-h", ["sweep-regime", "--h", "nan", "--a", "-1", "--ki", "1"]),
        ("unknown-subcommand", ["bogus"]),
    ]
    table += [(f"bad-{name}", argv + _OUT if argv[0] in ("run", "grid") else argv)
              for name, argv in malformed]
    return table


TABLE = _table()
COMMANDS = dict(TABLE)


def run_command(src: Path, argv: list) -> dict:
    """stdout, stderr, the exit code and the files of one run of `numax argv`
    with `src` on PYTHONPATH, in a new temporary directory, with both paths
    replaced by placeholders."""
    env = {key: value for key, value in os.environ.items() if key != "NUMAX_OUTPUT_DIR"}
    env.update(PYTHONPATH=str(src), PYTHONHASHSEED="0")
    with tempfile.TemporaryDirectory(prefix="artefact-matrix-") as tmp:
        work = Path(tmp).resolve()
        for name, text in INPUTS.items():
            (work / name).write_text(text)
        proc = subprocess.run([sys.executable, "-B", "-m", "numax.cli", *argv], cwd=work,
                              env=env, capture_output=True, timeout=900)

        def clean(data: bytes) -> bytes:
            return (data.replace(str(src).encode(), b"<src>")
                    .replace(str(work).encode(), b"<tmp>"))

        files = {str(path.relative_to(work)): clean(path.read_bytes())
                 for path in sorted(work.rglob("*")) if path.is_file()}
    return {"exit": proc.returncode, "stdout": clean(proc.stdout),
            "stderr": clean(proc.stderr), "files": files}


def _first_difference(a: bytes, b: bytes) -> str:
    """The first line on which `a` and `b` differ, from each side."""
    lines_a, lines_b = a.splitlines(), b.splitlines()
    for i in range(max(len(lines_a), len(lines_b))):
        left = lines_a[i] if i < len(lines_a) else b"<none>"
        right = lines_b[i] if i < len(lines_b) else b"<none>"
        if left != right:
            return f"line {i + 1}: {left[:160]!r} -> {right[:160]!r}"
    return ""


def differences(parent: dict, change: dict) -> list:
    """One text per artefact that differs between two `run_command` results."""
    found = []
    if parent["exit"] != change["exit"]:
        found.append(f"exit {parent['exit']} -> {change['exit']}")
    for stream in ("stdout", "stderr"):
        if parent[stream] != change[stream]:
            found.append(f"{stream} {_first_difference(parent[stream], change[stream])}")
    for name in sorted(set(parent["files"]) | set(change["files"])):
        left, right = parent["files"].get(name), change["files"].get(name)
        if left is None or right is None:
            found.append(f"file {name} only in {'change' if left is None else 'parent'}")
        elif left != right:
            found.append(f"file {name} {_first_difference(left, right)}")
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, help="the parent's src directory")
    parser.add_argument("--change", type=Path, help="the change's src directory")
    parser.add_argument("--expect-diff", action="append", default=[], metavar="ID",
                        help="a command whose artefacts are declared to differ")
    parser.add_argument("--only", action="append", default=[], metavar="ID",
                        help="run only these commands")
    args = parser.parse_args(argv)
    if args.parent is None or args.change is None:
        parser.error("--parent and --change are required")
    unknown = sorted(set(args.expect_diff + args.only) - set(COMMANDS))
    if unknown:
        parser.error(f"unknown command ids: {', '.join(unknown)}")
    parent, change = args.parent.resolve(), args.change.resolve()
    selected = [name for name in COMMANDS if not args.only or name in args.only]
    start = time.perf_counter()
    counts = {"identical": 0, "declared": 0, "undeclared": 0, "unchanged-declared": 0}
    for name in selected:
        result = run_command(change, COMMANDS[name])
        found = differences(run_command(parent, COMMANDS[name]), result)
        declared = name in args.expect_diff
        status = ("declared" if declared else "undeclared") if found else (
            "unchanged-declared" if declared else "identical")
        counts[status] += 1
        print(f"{status:18} exit {result['exit']}  {name}", flush=True)
        for text in found:
            print(f"{'':18}   {text}", flush=True)
    wall = time.perf_counter() - start
    print(f"{len(selected)} commands: {counts['identical']} identical, {counts['declared']} "
          f"declared differences, {counts['undeclared']} undeclared differences, "
          f"{counts['unchanged-declared']} declared but identical; wall time {wall:.1f} s")
    return 1 if counts["undeclared"] or counts["unchanged-declared"] else 0


if __name__ == "__main__":
    sys.exit(main())

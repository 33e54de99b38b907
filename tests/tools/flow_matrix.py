"""Compare what `numax.simulate_flow` returns under two source trees, bit for bit.

    python tests/tools/flow_matrix.py --parent <src> --change <src> \
        [--expect-diff <id>]... [--only <id>]...

The CLI does not reach `simulate_flow`, so the artefact matrix cannot guard
it. Each side runs the fixed, seeded catalogue of flows (`catalogue`) in one
`python -B` subprocess with its `src` directory on PYTHONPATH, and prints one
sha256 per flow and field: `times`, `x`, `mu`, `xdot` and `mudot` (shape and
float64 bytes) and `flagged`. A flow that raises is recorded by its exception
type and message. The catalogue holds flows like those of the `qp-flow`
benchmark workload, diverging flows, flows from a tiny start (1e-300) whose
powers of R overflow first, huge entries, horizons that end with a shorter
step, max_samples 2 and 3, seeded random flows, and copies of the fixed flow
inputs in `tests/test_analysis.py`.

One line per flow (its status and id, then one line per differing field),
then a summary with the wall time. The exit code is 1 when a flow differs
without being named by `--expect-diff`, or when a named flow does not
differ, and 0 otherwise. Only the standard library and numpy are used.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

FIELDS = ("times", "x", "mu", "xdot", "mudot", "flagged")


def _qp(an, H, A, b, c_lin, kp, ki):
    return an.QPSystem(H=H, A=A, b=b, c_lin=c_lin, kp=kp, ki=ki)


def catalogue(an) -> dict:
    """Flow id -> a call of `an.simulate_flow`, where `an` is one side's
    `numax.analysis`. A call that takes `steps` runs that many steps of the
    default dt, as the `qp-flow` workload does."""
    flows = {}

    def add(name, qp, x0, mu0, steps=None, **kwargs):
        def run():
            system = _qp(an, *qp)
            if steps is None:
                return an.simulate_flow(system, x0, mu0, **kwargs)
            dt = an.default_flow_dt(system)
            return an.simulate_flow(system, x0, mu0, dt=dt, t_end=steps * dt)
        assert name not in flows, name
        flows[name] = run

    # The qp-flow workload's family (seeds 1 and 2) and its bilinear flow
    for seed in (1, 2):
        rng = np.random.default_rng(seed)
        for i in range(10):
            n = 1 if i < 5 else 2
            stable = []
            while not stable:  # redrawn until some kp gives a stable, not too stiff flow
                mat = rng.standard_normal((n, n))
                H = mat @ mat.T + 0.5 * np.eye(n)
                A, b = rng.standard_normal((1, n)), rng.standard_normal(1)
                c_lin = rng.standard_normal(n)
                ki = float(rng.uniform(0.5, 2.0))
                stable = [(H, A, b, c_lin, kp, ki) for kp in (1.0, 2.0, 4.0, 8.0)
                          if _stable(an.qp_system_matrix(_qp(an, H, A, b, c_lin, kp, ki)))]
            add(f"qp-flow-{seed}-{i}", stable[0], rng.standard_normal(n),
                rng.standard_normal(1), steps=20000)
        add(f"qp-flow-{seed}-bilinear", ([[0.0]], [[1.0]], [0.0], [0.0], 0.0, 1.0),
            rng.standard_normal(1), rng.standard_normal(1), dt=0.01, t_end=1000.0)

    # Diverging flows, huge dt and huge entries
    stiff = ([[1e4 + 1]], [[1.0]], [0.3], [0.1], 1.0, 1.0)
    add("diverging", stiff, [1.0], [0.0], dt=0.05, t_end=120 * 0.05)
    add("diverging-huge-dt", stiff, [1.0], [0.0], dt=1e100, t_end=1e101)
    add("huge-dt-unused", stiff, [1.0], [0.0], dt=1e308, t_end=1.0)
    huge = ([[1e308]], [[1.0]], [1.0], [0.0], 10.0, 1.0)
    for x0, t_end in ((0.0, 1.0), (1.0, 1.0), (10.0, 1.0), (10.0, 0.1), (10.0, 0.0)):
        add(f"huge-entry-x0-{x0:g}-t-{t_end:g}", huge, [x0], [0.0], dt=0.1, t_end=t_end)
    add("huge-entry-default-dt", huge, [0.0], [0.0])

    # Tiny starts: powers of R overflow before the state does
    tiny40 = ([[-40.0]], [[1.0]], [0.0], [0.0], 1.0, 1.0)
    tiny80 = ([[-80.0]], [[1.0]], [0.0], [0.0], 0.0, 1.0)
    add("tiny-start-first-block", tiny40, [1e-300], [0.0], dt=0.01, t_end=200.0)
    for t_end, max_samples in ((15.0, 2), (30.0, 3), (15.5, 2), (45.25, 4)):
        add(f"tiny-start-stepped-again-{t_end:g}-{max_samples}", tiny80, [1e-300], [0.0],
            dt=0.01, t_end=t_end, max_samples=max_samples)
    for h in (-40.0, 40.0):  # an equilibrium start, unstable and stable
        add(f"equilibrium-h-{h:g}", ([[h]], [[1.0]], [0.0], [0.0], 1.0, 1.0), [0.0], [0.0],
            dt=0.01, t_end=2000.0, max_samples=2001)

    # Long flows, with the tail and R_rem, and few samples
    two = ([[2.0, 0.3], [0.3, 1.0]], [[1.0, -0.5]], [0.2], [0.1, -0.2], 2.0, 1.0)
    for steps, remainder, max_samples in ((2950, 0.0, 20001), (2950, 0.5, 20001),
                                          (8850, 0.0, 2951), (5901, 0.5, 2952),
                                          (5901, 0.0, 2952), (1001, 0.9, 2), (1001, 0.9, 3),
                                          (1000, 0.0, 2), (1000, 0.0, 3), (1, 0.5, 2),
                                          (0, 0.5, 2), (20000, 0.25, 20001)):
        add(f"long-{steps}-{remainder:g}-{max_samples}", two, [1.5, -0.7], [0.4],
            dt=0.01, t_end=(steps + remainder) * 0.01, max_samples=max_samples)

    # The fixed flow inputs of tests/test_analysis.py
    for x0, mu0 in (([2.0], [1.0]), ([2.0, 0.0, 1.0], [1.0]), ([2.0, 0.0], []),
                    ([2.0, 0.0], [1.0, 0.5])):
        add(f"start-length-{len(x0)}-{len(mu0)}", (np.eye(2), [[1.0, 0.0]], [0.0], [0.0, 0.0],
                                                   0.0, 1.0), x0, mu0, t_end=1.0)
    add("critical-damping", ([[1.0]], [[-1.0]], [0.5], [0.2],
                             an.critical_kp(1.0, -1.0, 1.0).convergent, 1.0),
        [2.0], [1.5], t_end=30.0)
    bilinear = ([[0.0]], [[1.0]], [0.0], [0.0], 0.0, 1.0)
    add("bilinear-norm", bilinear, [1.0], [0.5], t_end=100.0)
    add("bilinear-benchmark", bilinear, [0.3], [-1.2], dt=0.01, t_end=1000.0)
    for dt in (0.05, 0.025):
        add(f"dt-halving-{dt:g}", ([[1.0]], [[-1.0]], [0.3], [0.1], 1.0, 1.0), [2.0], [1.0],
            dt=dt, t_end=5.0)
    rng = np.random.default_rng(2)
    add("matrix-exponential", two, rng.standard_normal(2), rng.standard_normal(1), t_end=12.0)
    rng = np.random.default_rng(14)
    for i in range(5):
        h = float(rng.uniform(0.3, 2.0))
        a = float(rng.uniform(0.3, 2.0) * rng.choice([-1, 1]))
        ki = float(rng.uniform(0.3, 2.0))
        kp = an.critical_kp(h, a, ki).convergent + float(rng.uniform(0.0, 1.0))
        qp = ([[h]], [[a]], [rng.uniform(-1, 1)], [rng.uniform(-1, 1)], kp, ki)
        eigs = np.linalg.eigvals(-an.qp_system_matrix(_qp(an, *qp)))
        add(f"convergent-{i}", qp, [rng.uniform(-2, 2)], [rng.uniform(-2, 2)],
            t_end=float(np.log(1e8) / -np.max(eigs.real)))
    zero = ([[1.0]], [[1.0]], [0.3], [0.1], 1.0, 1.0)
    add("zero-horizon", zero, [1.0], [0.5], dt=0.1, t_end=0.0)
    add("nan-dt", zero, [1.0], [0.0], dt=float("nan"))
    add("huge-step-count", zero, [1.0], [0.0], dt=1.0, t_end=1e9 + 1.0)

    # Seeded random flows, as tests/test_analysis.py's `_flow_cases` draws them
    rng = np.random.default_rng(35)
    for i in range(160):
        n = int(rng.integers(1, 3))
        diverge = bool(rng.integers(2))
        exponent = int(rng.integers(0, 301)) if diverge else 0
        scale = 10.0 ** -exponent
        L = rng.uniform(-2.0, 2.0, (n, n))
        H = 0.5 * (L @ L.T + (L @ L.T).T) + (1e4 if diverge else 0.0) * np.eye(n)
        qp = (H, rng.uniform(-2.0, 2.0, (1, n)), [scale * rng.uniform(-2.0, 2.0)],
              scale * rng.uniform(-2.0, 2.0, n), float(rng.uniform(0.0, 4.0)),
              float(rng.uniform(0.1, 2.0)))
        x0 = rng.uniform(-2.0, 2.0, n)
        if diverge:
            x0[0] = 1.0
        mu0 = [scale * rng.uniform(-2.0, 2.0)]
        dt = float(rng.uniform(0.005, 0.1))
        low = 120 + exponent // 2 if diverge else 4
        steps = int(rng.integers(low, 300 + exponent // 2 + 1))
        remainder = float(rng.choice([0.0, 0.25, 0.5, 0.9]))
        max_samples = int(rng.integers(2, steps // 2 + 1))
        add(f"random-{i}{'-diverging' if diverge else ''}", qp, scale * x0, mu0, dt=dt,
            t_end=(steps + remainder) * dt, max_samples=max_samples)
    return flows


def _stable(U) -> bool:
    eigs = np.linalg.eigvals(-U)
    return bool(np.max(eigs.real) <= -0.15 and np.max(np.abs(eigs)) <= 30.0)


def _digest(value) -> str:
    if isinstance(value, np.ndarray):
        data = f"{value.shape}".encode() + np.ascontiguousarray(value, np.float64).tobytes()
    else:
        data = repr(value).encode()
    return hashlib.sha256(data).hexdigest()


def digests(names) -> dict:
    """Flow id -> field -> sha256 for the flows `names` (all when empty), under
    the numax that this process imports."""
    from numax import analysis

    flows = catalogue(analysis)
    unknown = sorted(set(names) - set(flows))
    if unknown:
        raise SystemExit(f"unknown flow ids: {', '.join(unknown)}")
    found = {}
    for name in names or flows:
        try:
            result = flows[name]()
        except Exception as exc:  # an error is a result to compare like any other
            found[name] = {"error": _digest(f"{type(exc).__name__}: {exc}")}
        else:
            found[name] = {field: _digest(getattr(result, field)) for field in FIELDS}
    return found


def run_side(src: Path, names) -> dict:
    """`digests(names)` in a fresh `python -B` process with `src` on PYTHONPATH."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED="0")
    proc = subprocess.run([sys.executable, "-B", __file__, "--digests", *names], env=env,
                          capture_output=True, text=True, timeout=900)
    if proc.returncode:
        raise SystemExit(f"the flows under {src} failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def differences(parent: dict, change: dict) -> list:
    """The fields of one flow whose digests differ between the two sides."""
    return [field for field in sorted(set(parent) | set(change))
            if parent.get(field) != change.get(field)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, help="the parent's src directory")
    parser.add_argument("--change", type=Path, help="the change's src directory")
    parser.add_argument("--expect-diff", action="append", default=[], metavar="ID",
                        help="a flow whose results are declared to differ")
    parser.add_argument("--only", action="append", default=[], metavar="ID",
                        help="run only these flows")
    parser.add_argument("--digests", nargs="*", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.digests is not None:  # one side's subprocess
        print(json.dumps(digests(args.digests)))
        return 0
    if args.parent is None or args.change is None:
        parser.error("--parent and --change are required")
    start = time.perf_counter()
    parent = run_side(args.parent.resolve(), args.only)
    change = run_side(args.change.resolve(), args.only)
    unknown = sorted(set(args.expect_diff) - set(parent) - set(change))
    if unknown:
        parser.error(f"unknown flow ids: {', '.join(unknown)}")
    counts = {"identical": 0, "declared": 0, "undeclared": 0, "unchanged-declared": 0}
    names = list(change) + [name for name in parent if name not in change]
    for name in names:
        found = differences(parent.get(name, {}), change.get(name, {}))
        declared = name in args.expect_diff
        status = ("declared" if declared else "undeclared") if found else (
            "unchanged-declared" if declared else "identical")
        counts[status] += 1
        print(f"{status:18} {name}")
        if found:
            side = "" if name in parent and name in change else (
                " (only in change)" if name in change else " (only in parent)")
            print(f"{'':18}   differs: {', '.join(found)}{side}")
    wall = time.perf_counter() - start
    print(f"{len(names)} flows: {counts['identical']} identical, {counts['declared']} "
          f"declared differences, {counts['undeclared']} undeclared differences, "
          f"{counts['unchanged-declared']} declared but identical; wall time {wall:.1f} s")
    return 1 if counts["undeclared"] or counts["unchanged-declared"] else 0


if __name__ == "__main__":
    sys.exit(main())

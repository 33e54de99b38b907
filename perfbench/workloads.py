"""The benchmark's workloads: inputs made from a seed, the calls into numax
that one iteration makes, and the checks on what those calls wrote.

Every workload goes through the public entry points a user runs:
``numax.cli.main`` for the commands and ``numax.simulate_flow`` for the flow.
An operation is one run, one grid cell, one flow or one sweep; ``fingerprint``
gives one digest per operation so that repeats can be compared, and
``check`` names the operations whose output is wrong.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

import numax
import numax.cli
from numax.analysis import default_flow_dt, flow_initial_state, flow_state_matrix

REFERENCE_PATH = Path(__file__).with_name("reference.json")
# Iris split seeds with stored reference outputs; a benchmark seed picks from these.
SPLIT_POOL = 16
# Acceptance criterion 4: a cell recovers lambda* when within this share of max(1, |lambda*|).
HIT_SHARE = 1e-2
RTOL = 1e-6  # agreement with the stored per-split reference values


def call_cli(argv):
    """Run one numax command in this process; returns (exit code, stderr text).

    Each call gets a fresh warnings registry, as a new process would, so a
    warning shows once per command rather than once per benchmark run.
    """
    err = io.StringIO()
    with warnings.catch_warnings(), redirect_stdout(io.StringIO()), redirect_stderr(err):
        rc = numax.cli.main(argv)
    return rc, err.getvalue()


def _digest(*parts):
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


def _write_ini(path, sections):
    lines = []
    for section, values in sections.items():
        lines.append(f"[{section}]")
        lines.extend(f"{key} = {value}" for key, value in values.items())
    Path(path).write_text("\n".join(lines) + "\n")


def _iris_split(split):
    data = numax.load_dataset_csv(numax.iris_csv_path())
    return numax.train_validation_split(data, seed=split)


def _svm_oracle(train):
    """lambda* from the package's dual oracle, with the acceptance-8 KKT
    residual recomputed here (tolerance 1e-6)."""
    sol = numax.svm_dual_oracle(train)
    g = 1.0 - train.labels * (train.points @ sol.w + sol.b)
    residual = max(float(np.max(-sol.lam, initial=0.0)),
                   float(np.max(np.abs(sol.lam * g), initial=0.0)),
                   float(np.max(g, initial=0.0)),
                   float(np.max(np.abs(sol.w - (sol.lam * train.labels) @ train.points))))
    return sol.lam, residual


def _close(value, ref):
    return abs(value - ref) <= RTOL * abs(ref) + 1e-12


def load_reference(name):
    return json.loads(REFERENCE_PATH.read_text())[name]


class Workload:
    name = ""

    def __init__(self, seed, workdir, jobs=1):
        self.seed = seed
        self.workdir = Path(workdir)
        self.jobs = jobs
        self.results = {}

    def prepare(self):
        """Write or build the inputs; part of set-up time."""

    def ops(self):
        """[(label, zero-argument callable)] for one iteration."""
        raise NotImplementedError

    def labels(self):
        """The operations one iteration counts, as keys of ``fingerprint``."""
        return [label for label, _ in self.ops()]

    def iteration(self):
        """Run every operation once. Returns the error text if one raised."""
        self.results = {}
        for label, op in self.ops():
            try:
                self.results[label] = op()
            except Exception as exc:  # counted as failed operations
                return f"{label} raised {type(exc).__name__}: {exc}"
        return None

    def stderr_text(self):
        """What the commands of the last iteration wrote to stderr."""
        return "".join(r[1] for r in self.results.values() if isinstance(r, tuple))

    def rk4_steps(self):
        return 0

    def fingerprint(self):
        raise NotImplementedError

    def check(self):
        raise NotImplementedError


_SVM_LOOP = {"scheme": "alternating", "max_steps": 5000, "record_every": 1,
             "primal_kind": "gd-momentum", "primal_step_size": "1e-3", "primal_momentum": 0.9}


class SvmRun(Workload):
    """The README's default command on four Iris splits chosen by the seed."""

    name = "svm-run"
    panel_size = 4

    def __init__(self, seed, workdir, jobs=1):
        super().__init__(seed, workdir, jobs)
        self.splits = random.Random(seed).sample(range(SPLIT_POOL), self.panel_size)

    def _paths(self, split):
        return self.workdir / f"svm-run-{split}.ini", self.workdir / f"svm-run-{split}"

    def prepare(self):
        for split in self.splits:
            ini, _ = self._paths(split)
            _write_ini(ini, {
                "problem": {"kind": "svm"},
                "loop": _SVM_LOOP,
                "dual": {"kind": "nupi", "nu": 0.0, "kp": 1.0, "ki": 0.1},
                "run": {"seed": split, "metric": "dist_to_lambda_star"},
            })

    def ops(self):
        ops = []
        for split in self.splits:
            ini, out = self._paths(split)
            argv = ["run", "--config", str(ini), "--output-dir", str(out)]
            ops.append((f"run split={split}", lambda argv=argv: call_cli(argv)))
        return ops

    def fingerprint(self):
        digests = {}
        for split in self.splits:
            _, out = self._paths(split)
            rc = self.results[f"run split={split}"][0]
            digests[f"run split={split}"] = _digest(
                rc, (out / "summary.json").read_bytes(), (out / "trajectory.csv").read_bytes())
        return digests

    def check(self):
        reference = load_reference(self.name)
        failures = {}
        for split in self.splits:
            label = f"run split={split}"
            problems = self._check_split(split, reference[str(split)])
            if problems:
                failures[label] = "; ".join(problems)
        return failures

    def _check_split(self, split, ref):
        rc = self.results[f"run split={split}"][0]
        if rc != 0:
            return [f"exit code {rc}"]
        _, out = self._paths(split)
        summary = json.loads((out / "summary.json").read_text())
        table = numax.read_trajectory_csv(out / "trajectory.csv")
        train, _ = _iris_split(split)
        lam_star, kkt = _svm_oracle(train)
        dist = float(np.linalg.norm(table.lam[-1] - lam_star))
        hit = dist <= HIT_SHARE * max(1.0, float(np.linalg.norm(lam_star)))
        problems = []
        if kkt > 1e-6:
            problems.append(f"oracle KKT residual {kkt:.2e}")
        if summary["steps"] != 5000 or summary["terminated_reason"] != "max-steps":
            problems.append(f"stopped at {summary['steps']} ({summary['terminated_reason']})")
        if not np.array_equal(table.t, np.arange(5001)):
            problems.append("trajectory rows are not t = 0..5000")
        if not abs(dist - summary["dist_to_lambda_star"]) <= 1e-12 * max(1.0, dist):
            problems.append("summary distance disagrees with the trajectory")
        if not _close(dist, ref["dist_to_lambda_star"]) or hit != ref["hit"]:
            problems.append(f"distance to lambda* {dist:.6e}, reference "
                            f"{ref['dist_to_lambda_star']:.6e}")
        for key in ("train_accuracy", "validation_accuracy"):
            if summary.get(key) != ref[key]:
                problems.append(f"{key} {summary.get(key)} != {ref[key]}")
        return problems


class SvmGrid(Workload):
    """The acceptance-4 gain grid on the Iris split chosen by the seed."""

    name = "svm-grid"
    kp_values = (0.0, 1.0, 10.0, 100.0)
    ki_values = tuple(float(v) for v in np.logspace(-3.5, 0.0, 8))

    def __init__(self, seed, workdir, jobs=1):
        super().__init__(seed, workdir, jobs)
        self.split = random.Random(seed).randrange(SPLIT_POOL)
        self.ini = self.workdir / "svm-grid.ini"
        self.out = self.workdir / "svm-grid"

    def prepare(self):
        _write_ini(self.ini, {
            "problem": {"kind": "svm"},
            "loop": {**_SVM_LOOP, "record_every": 5000},
            "dual": {"kind": "nupi"},
            "grid": {"kp": ",".join(repr(v) for v in self.kp_values),
                     "ki": ",".join(repr(v) for v in self.ki_values)},
            "run": {"seed": self.split, "metric": "dist_to_lambda_star"},
        })

    def ops(self):
        argv = ["grid", "--config", str(self.ini), "--output-dir", str(self.out),
                "--jobs", str(self.jobs)]
        return [("grid", lambda: call_cli(argv))]

    def cells(self):
        return [(kp, ki) for kp in self.kp_values for ki in self.ki_values]

    def labels(self):
        return [f"cell kp={kp:g} ki={ki:.4g}" for kp, ki in self.cells()]

    def _rows(self):
        rc = self.results["grid"][0]
        path = self.out / "grid.csv"
        return numax.cli.read_grid_csv(path) if rc == 0 and path.exists() else []

    @staticmethod
    def _raised(err, kp, ki):
        """Whether the grid reported that this cell's run raised."""
        return f"cell kp={kp} ki={ki} nu=0.0 failed" in err

    def fingerprint(self):
        rc, err = self.results["grid"]
        rows = self._rows()
        return {label: _digest(rc, rows[i] if i < len(rows) else None, self._raised(err, kp, ki))
                for i, (label, (kp, ki)) in enumerate(zip(self.labels(), self.cells()))}

    def check(self):
        rc, err = self.results["grid"]
        ref = load_reference(self.name)[str(self.split)]
        rows = self._rows()
        train, _ = _iris_split(self.split)
        lam_star, kkt = _svm_oracle(train)
        threshold = HIT_SHARE * max(1.0, float(np.linalg.norm(lam_star)))
        failures = {}
        for i, (label, (kp, ki)) in enumerate(zip(self.labels(), self.cells())):
            if rc != 0 or i >= len(rows):
                failures[label] = f"exit code {rc}, {len(rows)} rows"
                continue
            row_kp, row_ki, nu, value, flag = rows[i]
            ref_flag, ref_value = ref[i]
            problems = []
            if (row_kp, row_ki, nu) != (kp, ki, 0.0):
                problems.append(f"row {i} is ({row_kp}, {row_ki}, {nu})")
            if self._raised(err, kp, ki):
                problems.append("the cell raised")
            if kkt > 1e-6:
                problems.append(f"oracle KKT residual {kkt:.2e}")
            if flag != ref_flag:
                problems.append(f"diverged flag {flag}, reference {ref_flag}")
            elif ref_value is not None and (not _close(value, ref_value)
                                            or (value <= threshold) != (ref_value <= threshold)):
                problems.append(f"distance to lambda* {value:.6e}, reference {ref_value:.6e}")
            if problems:
                failures[label] = "; ".join(problems)
        return failures


class Bench2dRun(Workload):
    """One long run on the 2D benchmark from a start point chosen by the seed."""

    name = "bench2d-run"
    max_steps = 50000

    def __init__(self, seed, workdir, jobs=1):
        super().__init__(seed, workdir, jobs)
        rng = random.Random(seed)
        base = numax.cli.BENCHMARK2D_DEFAULT_X0
        self.x0 = tuple(v + rng.uniform(-0.25, 0.25) for v in base)
        self.ini = self.workdir / "bench2d-run.ini"
        self.out = self.workdir / "bench2d-run"

    def prepare(self):
        _write_ini(self.ini, {
            "problem": {"kind": "benchmark2d", "x0": ",".join(repr(v) for v in self.x0)},
            "loop": {"scheme": "alternating", "max_steps": self.max_steps, "record_every": 1,
                     "primal_kind": "gd", "primal_step_size": 0.002},
            "dual": {"kind": "nupi", "nu": 0.0, "kp": 3.0, "ki": 0.01},
            "run": {"metric": "max_violation"},
        })

    def ops(self):
        argv = ["run", "--config", str(self.ini), "--output-dir", str(self.out)]
        return [("run", lambda: call_cli(argv))]

    def fingerprint(self):
        return {"run": _digest(self.results["run"][0], (self.out / "summary.json").read_bytes(),
                               (self.out / "trajectory.csv").read_bytes())}

    def check(self):
        rc = self.results["run"][0]
        if rc != 0:
            return {"run": f"exit code {rc}"}
        summary = json.loads((self.out / "summary.json").read_text())
        table = numax.read_trajectory_csv(self.out / "trajectory.csv")
        x_star = numax.benchmark2d_constrained_optimum()
        dist = float(np.linalg.norm(table.x[-1] - x_star))
        problems = []
        if summary["steps"] != self.max_steps or summary["terminated_reason"] != "max-steps":
            problems.append(f"stopped at {summary['steps']} ({summary['terminated_reason']})")
        if not np.array_equal(table.t, np.arange(self.max_steps + 1)):
            problems.append("trajectory rows are not one per step")
        if not np.array_equal(table.x[0], np.array(self.x0)):
            problems.append(f"starts at {table.x[0]}, not {self.x0}")
        if dist > 1e-3:  # acceptance criterion 7
            problems.append(f"final point {dist:.2e} from the constrained optimum")
        return {"run": "; ".join(problems)} if problems else {}


class QpFlow(Workload):
    """The acceptance-6 QP family and a long bilinear flow through
    simulate_flow, then one sweep-regime command."""

    name = "qp-flow"
    family_size = 10
    # Each family flow runs this many RK4 steps, so cost does not depend on the seed.
    family_steps = 20000
    bilinear_dt = 0.01
    bilinear_t_end = 1000.0

    def __init__(self, seed, workdir, jobs=1):
        super().__init__(seed, workdir, jobs)
        self.flows = []
        self.sweep_out = self.workdir / "regime_sweep.csv"

    def prepare(self):
        rng = np.random.default_rng(self.seed)
        while len(self.flows) < self.family_size:
            n = 1 if len(self.flows) < self.family_size // 2 else 2
            mat = rng.standard_normal((n, n))
            H = mat @ mat.T + 0.5 * np.eye(n)
            A, b = rng.standard_normal((1, n)), rng.standard_normal(1)
            c_lin = rng.standard_normal(n)
            ki = float(rng.uniform(0.5, 2.0))
            for kp in (1.0, 2.0, 4.0, 8.0):
                sys = numax.QPSystem(H=H, A=A, b=b, c_lin=c_lin, kp=kp, ki=ki)
                eigs = np.linalg.eigvals(-numax.qp_system_matrix(sys))
                if np.max(eigs.real) <= -0.15 and np.max(np.abs(eigs)) <= 30.0:
                    dt = default_flow_dt(sys)
                    self.flows.append((sys, rng.standard_normal(n), rng.standard_normal(1),
                                       dt, self.family_steps * dt))
                    break
        bilinear = numax.QPSystem(H=[[0.0]], A=[[1.0]], b=[0.0], c_lin=[0.0], kp=0.0, ki=1.0)
        self.flows.append((bilinear, rng.standard_normal(1), rng.standard_normal(1),
                           self.bilinear_dt, self.bilinear_t_end))
        self.sweep = (float(rng.uniform(0.5, 2.0)),
                      float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0)),
                      float(rng.uniform(0.25, 2.0)))

    def ops(self):
        ops = [(f"flow {i}", lambda f=f: numax.simulate_flow(*f[:3], dt=f[3], t_end=f[4]))
               for i, f in enumerate(self.flows)]
        h, a, ki = self.sweep
        argv = ["sweep-regime", "--h", repr(h), "--a", repr(a), "--ki", repr(ki),
                "--out", str(self.sweep_out)]
        ops.append(("sweep", lambda: call_cli(argv)))
        return ops

    def rk4_steps(self):
        return self.family_size * self.family_steps + round(self.bilinear_t_end / self.bilinear_dt)

    def fingerprint(self):
        digests = {}
        for i in range(len(self.flows)):
            res = self.results[f"flow {i}"]
            digests[f"flow {i}"] = _digest(res.flagged, res.times.tobytes(), res.x.tobytes(),
                                           res.mu.tobytes(), res.xdot.tobytes(),
                                           res.mudot.tobytes())
        digests["sweep"] = _digest(self.results["sweep"][0], self.sweep_out.read_bytes())
        return digests

    def check(self):
        from scipy.linalg import expm
        failures = {}
        for i, (sys, x0, mu0, _dt, t_end) in enumerate(self.flows):
            res = self.results[f"flow {i}"]
            z0 = flow_initial_state(sys, x0, mu0)
            ref = expm(flow_state_matrix(sys) * res.times[-1]) @ z0
            z = np.concatenate([res.x[-1], res.mu[-1], res.xdot[-1], res.mudot[-1]])
            problems = []
            if res.flagged or abs(res.times[-1] - t_end) > 1e-9 * t_end:
                problems.append(f"stopped at t = {res.times[-1]} of {t_end}")
            # acceptance criterion 6: 1e-6 against the matrix exponential
            err = float(np.max(np.abs(z - ref)))
            if err > 1e-6 * max(1.0, float(np.max(np.abs(ref)))):
                problems.append(f"differs from expm by {err:.2e}")
            if i == len(self.flows) - 1:  # bilinear flow conserves the norm
                norms = np.linalg.norm(np.hstack([res.x, res.mu, res.xdot, res.mudot]), axis=1)
                drift = float(np.max(np.abs(norms - norms[0])))
                if drift > 1e-6 * max(1.0, float(norms[0])):
                    problems.append(f"norm drift {drift:.2e}")
            if problems:
                failures[f"flow {i}"] = "; ".join(problems)
        problems = self._check_sweep()
        if problems:
            failures["sweep"] = "; ".join(problems)
        return failures

    def _check_sweep(self):
        rc = self.results["sweep"][0]
        if rc != 0:
            return [f"exit code {rc}"]
        h, a, ki = self.sweep
        rows = numax.cli.read_regime_sweep_csv(self.sweep_out)
        critical = ((-h + 2 * abs(a) * ki ** 0.5) / a ** 2, (-h - 2 * abs(a) * ki ** 0.5) / a ** 2)
        expected_kp = sorted(set(np.linspace(-5.0, 5.0, 201).tolist() + list(critical)))
        problems = []
        if len(rows) != len(expected_kp) or any(
                abs(r[0] - kp) > 1e-12 * max(1.0, abs(kp)) for r, kp in zip(rows, expected_kp)):
            problems.append("kp rows differ from the requested range plus the critical gains")
        for kp, lam1, lam2, regime in rows:
            sys = numax.QPSystem(H=[[h]], A=[[a]], b=[0.0], c_lin=[0.0], kp=kp, ki=ki)
            numeric = np.linalg.eigvals(-numax.qp_system_matrix(sys))
            order = lambda z: (z.real, z.imag)  # noqa: E731
            pairs = zip(sorted([lam1, lam2], key=order), sorted(numeric, key=order))
            # Near a double root the numeric eigenvalues split by ~sqrt(eps).
            if any(abs(c - n) > 1e-7 * max(1.0, abs(n)) for c, n in pairs):
                problems.append(f"eigenvalues at kp = {kp} differ from numpy")
                break
            if min(abs(kp - c) for c in critical) > 1e-6 and \
                    numax.classify_regime(numeric).kind.value != regime:
                problems.append(f"regime at kp = {kp} is {regime}")
                break
        return problems


WORKLOADS = {w.name: w for w in (SvmRun, SvmGrid, Bench2dRun, QpFlow)}

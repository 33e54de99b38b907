"""Acceptance suite: every criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion.
"""

import time

import numpy as np
import pytest
from scipy.linalg import expm

import numax as nx
from numax.analysis import flow_initial_state, flow_state_matrix

SPLIT_SEED = 4  # documented split choice; see README (dataset section)


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {num}: {status} - {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def iris_split():
    data = nx.load_dataset_csv(nx.iris_csv_path())
    return nx.train_validation_split(data, seed=SPLIT_SEED)


@pytest.fixture(scope="module")
def iris_oracle(iris_split):
    train, _ = iris_split
    return nx.svm_dual_oracle(train)


def random_separable_dataset(rng, m=24, d=3, margin=0.4):
    w = rng.standard_normal(d)
    w /= np.linalg.norm(w)
    b = float(rng.uniform(-0.5, 0.5))
    points, labels = [], []
    while len(points) < m:
        x = rng.uniform(-3, 3, size=d)
        score = float(w @ x + b)
        if abs(score) >= margin:
            points.append(x)
            labels.append(np.sign(score))
    labels = np.array(labels)
    if not (np.any(labels > 0) and np.any(labels < 0)):
        return random_separable_dataset(rng, m, d, margin)
    return nx.SvmDataset(points=np.array(points), labels=labels)


def test_criterion_1_unified_momentum_equivalence():
    start = time.monotonic()
    rng = np.random.default_rng(20240201)
    worst = 0.0
    for _ in range(200):
        alpha = float(rng.uniform(1e-6, 2.0))
        beta = float(rng.uniform(-0.9, 0.9))
        gamma = float(rng.choice([0.0, 1.0]))
        errors = rng.uniform(-10.0, 10.0, size=1000)
        um_cfg = nx.UMConfig(alpha=alpha, beta=beta, gamma=gamma)
        pi_cfg = nx.map_um_to_nupi(um_cfg)
        um_state, pi_state = nx.init_um([0.0]), nx.init_nupi([0.0])
        for e in errors:
            um_state = nx.um_step(um_state, um_cfg, [e])
            pi_state = nx.nupi_step(pi_state, pi_cfg, [e])
            worst = max(worst, abs(um_state.theta[0] - pi_state.theta[0]))
    elapsed = time.monotonic() - start
    _report(1, "unified-momentum / nuPI iterate equivalence", worst <= 1e-9 and elapsed < 10.0,
            f"max |diff| = {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_table_embeddings():
    rng = np.random.default_rng(7)
    # gradient ascent embedding, bit-exact
    ga_exact = True
    for _ in range(5):
        alpha = float(rng.uniform(0.01, 2.0))
        errors = rng.uniform(-10.0, 10.0, size=1000)
        ga = nx.init_ga([0.0])
        pi = nx.init_nupi([0.0])
        cfg = nx.NuPIConfig(nu=0.0, kp=0.0, ki=alpha)
        for e in errors:
            ga = nx.ga_step(ga, alpha, [e])
            pi = nx.nupi_step(pi, cfg, [e])
            if not np.array_equal(ga.theta, pi.theta):
                ga_exact = False
                break
    # optimistic-gradient recurrence, 1e-12 over 1000 steps
    og_worst = 0.0
    for _ in range(5):
        alpha = float(rng.uniform(0.01, 2.0))
        errors = rng.uniform(-10.0, 10.0, size=1000)
        cfg = nx.NuPIConfig(nu=0.0, kp=alpha, ki=alpha)  # xi0 = e0 default
        pi = nx.init_nupi([0.0])
        thetas = []
        for e in errors:
            pi = nx.nupi_step(pi, cfg, [e])
            thetas.append(pi.theta[0])
        oracle = [0.0, 2.0 * alpha * errors[0]]  # theta0 and theta1
        for t in range(1, len(errors)):
            oracle.append(oracle[-1] + alpha * errors[t] + alpha * (errors[t] - errors[t - 1]))
        og_worst = max(og_worst, float(np.max(np.abs(np.array(thetas) - oracle[1:]))))
    _report(2, "Table-1 embeddings (GA bit-exact, OG recurrence)",
            ga_exact and og_worst <= 1e-12, f"OG max |diff| = {og_worst:.2e}")


def test_criterion_3_cumulative_vs_recursive():
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(100):
        nu = float(rng.uniform(-0.95, 0.95))
        kp = float(rng.uniform(-5.0, 5.0))
        ki = float(rng.uniform(1e-3, 2.0))
        errors = rng.uniform(-10.0, 10.0, size=1000)
        cfg = nx.NuPIConfig(nu=nu, kp=kp, ki=ki)
        state = nx.init_nupi([0.0])
        xi = errors[0]
        running = 0.0
        for t, e in enumerate(errors):
            state = nx.nupi_step(state, cfg, [e])
            if t >= 1:
                xi = nu * xi + (1.0 - nu) * e
            running += e
            cumulative = kp * xi + ki * running
            worst = max(worst, abs(state.theta[0] - cumulative))
    _report(3, "cumulative vs recursive nuPI forms", worst <= 1e-9,
            f"max |diff| = {worst:.2e}")


def test_criterion_4_svm_grid(iris_split, iris_oracle):
    start = time.monotonic()
    train, _ = iris_split
    lam_star = iris_oracle.lam
    threshold = 1e-2 * max(1.0, float(np.linalg.norm(lam_star)))
    problem = nx.build_svm_problem(train)
    primal = nx.PrimalOptimizerConfig(kind=nx.PrimalKind.GRADIENT_DESCENT_MOMENTUM,
                                      step_size=1e-3, momentum=0.9)
    ki_values = np.logspace(-3.5, 0.0, 8)
    kp_values = [0.0, 1.0, 10.0, 100.0]

    nupi_hits = 0
    ga_hits = 0
    accuracy_ok = True
    for kp in kp_values:
        for ki in ki_values:
            config = nx.LoopConfig(scheme=nx.Scheme.ALTERNATING, max_steps=5000,
                                   dual_optimizer=nx.NuPIConfig(nu=0.0, kp=kp, ki=float(ki)),
                                   primal_optimizer=primal, record_every=5000)
            traj = nx.run(problem, np.zeros(problem.dim_primal),
                          nx.DualVector.zeros(problem.num_ineq, 0), config)
            with np.errstate(over="ignore", invalid="ignore"):  # divergent cells -> inf
                dist = float(np.linalg.norm(traj.final.lam - lam_star))
            hit = np.isfinite(dist) and dist <= threshold
            if kp == 0.0:
                ga_hits += hit
            else:
                nupi_hits += hit
            diverged = (not np.isfinite(dist)) or dist > 1e3
            if not diverged:
                acc = nx.svm_train_accuracy(train, traj.final.x[:-1], float(traj.final.x[-1]))
                if acc < 1.0:
                    accuracy_ok = False
    elapsed = time.monotonic() - start
    _report(4, "SVM grid: nuPI recovers lambda*, GA row does not",
            nupi_hits >= 1 and ga_hits == 0 and accuracy_ok and elapsed < 300.0,
            f"nuPI hits = {nupi_hits}, GA hits = {ga_hits}, {elapsed:.1f}s")


def test_criterion_5_qp_spectral_analysis():
    start = time.monotonic()
    gains = nx.critical_kp(1.0, -1.0, 1.0)
    roots_ok = (abs(gains.kp_plus - 1.0) < 1e-12 and abs(gains.kp_minus + 3.0) < 1e-12
                and gains.convergent == gains.kp_plus)
    lam1, lam2 = nx.eigen_1d(1.0, -1.0, 1.0, 1.0)
    double_ok = abs(lam1 + 1.0) <= 1e-10 and abs(lam2 + 1.0) <= 1e-10

    def kind_at(kp):
        return nx.classify_regime(nx.eigen_1d(1.0, -1.0, kp, 1.0)).kind

    def bisect(lo, hi, crossed):
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if crossed(kind_at(mid)):
                hi = mid
            else:
                lo = mid
        return 0.5 * (lo + hi)

    K = nx.RegimeKind
    convergent = (K.MARGINAL, K.UNDERDAMPED, K.CRITICALLY_DAMPED, K.OVERDAMPED)
    b1 = bisect(-5.0, -2.0, lambda k: k is not K.DIVERGENT_MONOTONE)
    b2 = bisect(-2.5, 0.0, lambda k: k in convergent)
    b3 = bisect(0.0, 5.0, lambda k: k in (K.CRITICALLY_DAMPED, K.OVERDAMPED))
    boundaries_ok = (abs(b1 + 3.0) <= 1e-6 and abs(b2 + 1.0) <= 1e-6 and abs(b3 - 1.0) <= 1e-6)

    spectrum_ok = True
    for kp in np.linspace(-5.0, 5.0, 501):
        sys = nx.QPSystem(H=[[1.0]], A=[[-1.0]], b=[0.0], c_lin=[0.0], kp=float(kp), ki=1.0)
        closed = sorted(nx.eigen_1d(1.0, -1.0, float(kp), 1.0), key=lambda z: (z.real, z.imag))
        numeric = sorted(np.linalg.eigvals(-nx.qp_system_matrix(sys)),
                         key=lambda z: (z.real, z.imag))
        if max(abs(c - n) for c, n in zip(closed, numeric)) > 1e-10:
            spectrum_ok = False
            break
    elapsed = time.monotonic() - start
    _report(5, "QP spectral analysis (critical gains, boundaries, spectra)",
            roots_ok and double_ok and boundaries_ok and spectrum_ok and elapsed < 1.0,
            f"boundaries = ({b1:.8f}, {b2:.8f}, {b3:.8f}), {elapsed:.2f}s")


def test_criterion_6_flow_integration_fidelity():
    start = time.monotonic()
    rng = np.random.default_rng(7)
    worst = 0.0
    made = 0
    while made < 10:
        n = 1 if made < 5 else 2
        mat = rng.standard_normal((n, n))
        H = mat @ mat.T + 0.5 * np.eye(n)
        A = rng.standard_normal((1, n))
        b = rng.standard_normal(1)
        c_lin = rng.standard_normal(n)
        ki = float(rng.uniform(0.5, 2.0))
        sys = None
        for kp in (1.0, 2.0, 4.0, 8.0):
            cand = nx.QPSystem(H=H, A=A, b=b, c_lin=c_lin, kp=kp, ki=ki)
            eigs = np.linalg.eigvals(-nx.qp_system_matrix(cand))
            if np.max(eigs.real) <= -0.15 and np.max(np.abs(eigs)) <= 30.0:
                sys = cand
                break
        if sys is None:
            continue
        made += 1
        t_end = float(np.log(1e8) / -np.max(eigs.real))
        x0 = rng.standard_normal(n)
        mu0 = rng.standard_normal(1)
        res = nx.simulate_flow(sys, x0, mu0, t_end=t_end)
        ref = expm(flow_state_matrix(sys) * res.times[-1]) @ flow_initial_state(sys, x0, mu0)
        z = np.concatenate([res.x[-1], res.mu[-1], res.xdot[-1], res.mudot[-1]])
        worst = max(worst, float(np.max(np.abs(z - ref))))

    bilinear = nx.QPSystem(H=[[0.0]], A=[[1.0]], b=[0.0], c_lin=[0.0], kp=0.0, ki=1.0)
    res = nx.simulate_flow(bilinear, [1.0], [0.5], t_end=100.0)
    norms = np.linalg.norm(np.hstack([res.x, res.mu, res.xdot, res.mudot]), axis=1)
    drift = float(np.max(np.abs(norms - norms[0])))
    elapsed = time.monotonic() - start
    _report(6, "flow integration vs matrix exponential + norm conservation",
            worst <= 1e-6 and drift <= 1e-6 and elapsed < 10.0,
            f"max err = {worst:.2e}, drift = {drift:.2e}, {elapsed:.1f}s")


def test_criterion_7_benchmark2d_damping_ordering():
    start = time.monotonic()
    problem = nx.build_2d_benchmark()
    x_star = nx.benchmark2d_constrained_optimum()
    x0 = np.array([-0.5, -2.0])
    results = {}
    for kp in (1.0, 3.0, 5.0):
        config = nx.LoopConfig(
            scheme=nx.Scheme.ALTERNATING, max_steps=50000,
            dual_optimizer=nx.NuPIConfig(nu=0.0, kp=kp, ki=0.01),
            primal_optimizer=nx.PrimalOptimizerConfig(kind=nx.PrimalKind.GRADIENT_DESCENT,
                                                      step_size=0.002))
        traj = nx.run(problem, x0, nx.DualVector.zeros(0, 1), config)
        dist = float(np.linalg.norm(traj.final.x - x_star))
        signs = np.sign(traj.column("h")[:, 0])
        signs = signs[signs != 0.0]
        flips = int(np.sum(signs[1:] != signs[:-1]))
        results[kp] = (dist, flips)
    dist_ok = all(d <= 1e-3 for d, _ in results.values())
    flips = [results[kp][1] for kp in (1.0, 3.0, 5.0)]
    order_ok = flips[0] > flips[1] >= flips[2]
    elapsed = time.monotonic() - start
    _report(7, "2D benchmark damping ordering",
            dist_ok and order_ok and elapsed < 30.0,
            f"sign changes {flips[0]} > {flips[1]} >= {flips[2]}, {elapsed:.1f}s")


def test_criterion_8_kkt_and_oracle_self_consistency(iris_split, iris_oracle):
    train, _ = iris_split
    datasets = [(train, iris_oracle)]
    rng = np.random.default_rng(2024)
    for _ in range(20):
        data = random_separable_dataset(rng, m=int(rng.integers(10, 40)),
                                        d=int(rng.integers(2, 6)))
        datasets.append((data, nx.svm_dual_oracle(data)))
    oracle_ok = True
    worst = 0.0
    for data, sol in datasets:
        g = 1.0 - data.labels * (data.points @ sol.w + sol.b)
        residual = max(
            float(np.max(-sol.lam, initial=0.0)),
            float(np.max(np.abs(sol.lam * g), initial=0.0)),
            float(np.max(g, initial=0.0)),
            float(np.max(np.abs(sol.w - (sol.lam * data.labels) @ data.points))),
        )
        worst = max(worst, residual)
        if residual > 1e-6:
            oracle_ok = False

    kkt_ok = True
    for _ in range(50):
        n = int(rng.integers(2, 6))
        c = int(rng.integers(1, n))
        mat = rng.standard_normal((n, n))
        sys = nx.QPSystem(H=mat @ mat.T + np.eye(n), A=rng.standard_normal((c, n)),
                          b=rng.standard_normal(c), c_lin=rng.standard_normal(n),
                          kp=0.0, ki=1.0)
        x_star, mu_star = nx.kkt_solve_qp(sys)
        stat = float(np.max(np.abs(sys.H @ x_star + sys.c_lin + sys.A.T @ mu_star)))
        feas = float(np.max(np.abs(sys.A @ x_star - sys.b)))
        if stat > 1e-9 or feas > 1e-9:
            kkt_ok = False
    _report(8, "oracle KKT self-consistency (SVM dual + QP solves)",
            oracle_ok and kkt_ok, f"worst SVM KKT residual = {worst:.2e}")


def test_criterion_9_ratio_and_mode_consistency():
    rng = np.random.default_rng(31)
    ratio_ok = True
    mode_ok = True
    checked = 0
    worst = 0.0
    while checked < 1000:
        kp = float(rng.uniform(0.05, 3.0))
        ki = float(rng.uniform(0.05, 3.0))
        nu = float(rng.uniform(-0.9, 0.9))
        xi = float(rng.uniform(0.01, 5.0))
        e = float(rng.uniform(-5.0, 5.0))
        psi_denom = ki + kp * (1.0 - nu)
        if e == 0.0 or abs(psi_denom) < 1e-9:
            continue
        checked += 1
        inputs = nx.RatioInputs(kp=kp, ki=ki, nu=nu, xi_prev=xi, e_t=e)
        ratio = nx.relative_update_ratio(inputs)
        # literal one-step increments from the dual_optimizers module
        state = nx.NuPIState(theta=np.array([0.0]), xi=np.array([xi]),
                             prev_initialized=True, step_count=1)
        nupi_inc = nx.nupi_step(state, nx.NuPIConfig(nu=nu, kp=kp, ki=ki), [e]).theta[0]
        ga_inc = nx.ga_step(nx.init_ga([0.0]), ki, [e]).theta[0]
        diff = abs(ratio - nupi_inc / ga_inc)
        worst = max(worst, diff)
        if diff > 1e-12 * max(1.0, abs(ratio)):
            ratio_ok = False
        psi = kp * (1.0 - nu) / psi_denom
        if 0.0 < psi < 1.0 and xi > 0.0:
            mode = nx.classify_mode(inputs)
            if mode is nx.Mode.A and not ratio > 1.0:
                mode_ok = False
            if mode is nx.Mode.B and not 0.0 <= ratio <= 1.0 + 1e-12:
                mode_ok = False
            if mode is nx.Mode.C and e != psi * xi and not ratio < 0.0:
                mode_ok = False
    _report(9, "relative update ratio matches optimizer increments; modes consistent",
            ratio_ok and mode_ok, f"worst quotient diff = {worst:.2e}")

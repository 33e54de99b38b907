"""Built-in benchmark problems and their ground-truth oracles.

- Hard-margin linear SVM on labeled points: min ||w||^2/2 subject to
  y_i (w'x_i + b) >= 1, stored in violation form g_i = 1 - y_i(w'x_i + b)
  so that positive means violated. The dual oracle runs projected gradient
  on the dual QP and stops at the first exact active-set polish, tried every
  200 iterations, that meets its tolerance; it is independent of any loop.
- A 2D nonconvex equality-constrained benchmark with a brute-force optimum
  found by searching along the feasibility curve.
- Equality-constrained QPs built from a QPSystem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .analysis import QPSystem
from .core import ConfigurationError, ConstrainedProblem, read_csv, seeded_rng


@dataclass(frozen=True)
class SvmDataset:
    """Feature matrix (m x d) with labels in {-1, +1}; both classes present."""

    points: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        points = np.atleast_2d(np.asarray(self.points, dtype=np.float64))
        labels = np.atleast_1d(np.asarray(self.labels, dtype=np.float64))
        if points.shape[0] != labels.size:
            raise ConfigurationError(
                f"{points.shape[0]} points but {labels.size} labels")
        if points.shape[0] < 2:
            raise ConfigurationError("dataset needs at least two points")
        if not np.all(np.isin(labels, (-1.0, 1.0))):
            raise ConfigurationError("labels must be -1 or +1")
        if not (np.any(labels == 1.0) and np.any(labels == -1.0)):
            raise ConfigurationError("both classes must be present")
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "labels", labels)

    @property
    def num_points(self) -> int:
        return self.points.shape[0]

    @property
    def num_features(self) -> int:
        return self.points.shape[1]


def iris_csv_path() -> Path:
    """Vendored Iris setosa-vs-versicolor subset (100 rows, 4 features,
    public-domain data)."""
    return Path(__file__).parent / "data" / "iris_binary.csv"


def load_dataset_csv(path) -> SvmDataset:
    """Read a dataset CSV: d feature columns then one label column with
    values in {-1, +1} or {0, 1}; a 0 label is remapped to -1. Lines starting
    with '#' are ignored. Row order is preserved."""
    _, _, rows = read_csv(path, "dataset")
    if not rows:
        raise ConfigurationError(f"{path}: empty dataset")
    if len(rows[0][1]) < 2:
        raise ConfigurationError(
            f"{path}:{rows[0][0]}: need at least one feature column and a label")
    labels = []
    for lineno, values in rows:
        label = -1.0 if values[-1] == 0.0 else values[-1]
        if label not in (-1.0, 1.0):
            raise ConfigurationError(
                f"{path}:{lineno}: label must be in {{-1, 0, +1}}, got {values[-1]}")
        labels.append(label)
    points = np.array([values[:-1] for _, values in rows])
    try:
        return SvmDataset(points=points, labels=np.array(labels))
    except ConfigurationError as exc:
        raise ConfigurationError(f"{path}: {exc}") from exc


def train_validation_split(data: SvmDataset, seed: int,
                           train_fraction: float = 0.7) -> tuple:
    """Seeded shuffle, then the first ceil(train_fraction * m) rows train."""
    if not 0.0 < train_fraction < 1.0:
        raise ConfigurationError("train_fraction must be in (0, 1)")
    rng = seeded_rng(seed)
    order = rng.permutation(data.num_points)
    n_train = math.ceil(train_fraction * data.num_points)
    if n_train >= data.num_points:
        raise ConfigurationError("split leaves no validation rows")
    train_idx, valid_idx = order[:n_train], order[n_train:]
    return (
        SvmDataset(points=data.points[train_idx], labels=data.labels[train_idx]),
        SvmDataset(points=data.points[valid_idx], labels=data.labels[valid_idx]),
    )


def build_svm_problem(data: SvmDataset) -> ConstrainedProblem:
    """Hard-margin SVM over the primal variable [w, b] (dimension d + 1),
    with one inequality constraint per point: g_i = 1 - y_i(w'x_i + b)."""
    X = data.points
    y = data.labels
    d = data.num_features
    # Constraints are affine, so the Jacobian is constant:
    # column i = -y_i [x_i, 1].
    jac = -np.vstack([X.T * y, y])

    def objective(xvec):
        w = xvec[:d]
        return 0.5 * float(w @ w)

    def objective_grad(xvec):
        grad = np.zeros(d + 1)
        grad[:d] = xvec[:d]
        return grad

    def ineq(xvec):
        return 1.0 - y * (X @ xvec[:d] + xvec[d])

    def eq(_xvec):
        return np.zeros(0)

    return ConstrainedProblem(
        dim_primal=d + 1,
        num_ineq=data.num_points,
        num_eq=0,
        eval_objective=objective,
        eval_objective_grad=objective_grad,
        eval_ineq=ineq,
        eval_eq=eq,
        eval_constraint_jacobian=lambda _xvec: jac,
    )


def svm_train_accuracy(data: SvmDataset, w: np.ndarray, b: float) -> float:
    """Fraction of points with strictly positive margin y_i (w'x_i + b)."""
    margins = data.labels * (data.points @ np.asarray(w, dtype=np.float64) + b)
    return float(np.mean(margins > 0.0))


@dataclass(frozen=True)
class SvmSolution:
    w: np.ndarray
    b: float
    lam: np.ndarray
    kkt_residual: float


def _project_dual_feasible(v: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Euclidean projection onto {lam >= 0, y'lam = 0}: lam = max(0, v - t y)
    with the shift t solving y'lam(t) = 0.

    The balance y'lam(t) is piecewise linear and nonincreasing in t with
    breakpoints at t = v_i y_i, positive below the smallest breakpoint and
    negative above the largest (both classes present), so interpolating the
    breakpoint values locates the root exactly.
    """
    bps = np.sort(v * y)
    balances = np.maximum(0.0, v[None, :] - bps[:, None] * y[None, :]) @ y
    t = float(np.interp(0.0, balances[::-1], bps[::-1]))
    return np.maximum(0.0, v - t * y)


def _svm_kkt_residual(X, y, lam, w, b) -> float:
    margins = y * (X @ w + b)
    viol = 1.0 - margins
    return max(
        float(np.max(viol, initial=0.0)),                 # primal feasibility
        float(np.max(-lam, initial=0.0)),                 # dual feasibility
        float(np.max(np.abs(lam * viol), initial=0.0)),   # complementary slackness
        abs(float(y @ lam)),                              # equality y'lam = 0
        float(np.max(np.abs(w - (lam * y) @ X))),         # stationarity
    )


def svm_dual_oracle(data: SvmDataset, tol: float = 1e-8,
                    max_pgd_iters: int = 20000) -> SvmSolution:
    """Reference solution of the SVM dual QP

        max  sum(lam) - 1/2 || sum_i lam_i y_i x_i ||^2
        s.t. lam >= 0,  y'lam = 0,

    via accelerated projected gradient and an active-set polish that solves
    the support-vector KKT system exactly. The polish is tried every 200
    iterations; the first one whose KKT residual is at most tol is returned.
    Independent of the descent-ascent loop. Raises if the data is not
    linearly separable (the dual is unbounded) or the polish after the last
    iteration cannot drive the KKT residual below tol.
    """
    X, y = data.points, data.labels
    Q = (y[:, None] * y[None, :]) * (X @ X.T)
    lipschitz = float(np.max(np.linalg.eigvalsh(Q)))
    step = 1.0 / max(lipschitz, 1e-12)

    lam = np.zeros(data.num_points)
    z = lam.copy()
    t_acc = 1.0
    tried = None  # the last support set whose polish failed
    for it in range(max_pgd_iters):
        grad = Q @ z - 1.0
        lam_next = _project_dual_feasible(z - step * grad, y)
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_acc * t_acc))
        z = lam_next + ((t_acc - 1.0) / t_next) * (lam_next - lam)
        lam, t_acc = lam_next, t_next
        if np.max(lam) > 1e10:
            raise ConfigurationError(
                "data is not linearly separable: dual objective is unbounded")
        if it % 200 == 199:
            support = lam > 1e-6 * max(1.0, float(np.max(lam)))
            if np.array_equal(support, tried):
                continue  # the polish depends only on the start set: it would fail again
            tried = support
            try:
                return _polish_support(X, y, Q, support, tol)
            except ConfigurationError:
                pass  # the iterates are not yet close enough to lambda*
    return _polish_support(X, y, Q, lam > 1e-6 * max(1.0, float(np.max(lam))), tol)


def _polish_support(X, y, Q, support, tol) -> SvmSolution:
    """Active-set polish from the boolean start set `support`: on the support
    set S, margins are exactly 1 and y'lam = 0, giving the linear system
    [[Q_SS, y_S], [y_S', 0]]. Raises ConfigurationError when no valid S is
    found, the system is degenerate or the KKT residual exceeds tol."""
    support, m = support.copy(), support.size
    for _ in range(4 * m):
        S = np.flatnonzero(support)
        if S.size == 0 or len(set(y[S])) < 2:
            raise ConfigurationError(
                "data is not linearly separable: no valid support set found")
        k = S.size
        K = np.zeros((k + 1, k + 1))
        K[:k, :k] = Q[np.ix_(S, S)]
        K[:k, k] = y[S]
        K[k, :k] = y[S]
        rhs = np.concatenate([np.ones(k), [0.0]])
        try:
            sol = np.linalg.lstsq(K, rhs, rcond=None)[0]
        except np.linalg.LinAlgError as exc:
            raise ConfigurationError(f"degenerate support-vector system: {exc}") from exc
        lam_S, b = sol[:k], float(sol[k])
        lam = np.zeros(m)
        lam[S] = lam_S
        w = (lam * y) @ X
        margins = y * (X @ w + b)
        if np.min(lam_S) < -1e-12:
            support[S[int(np.argmin(lam_S))]] = False
            continue
        violated = (margins < 1.0 - 1e-10) & ~support
        if np.any(violated):
            support[int(np.argmin(np.where(violated, margins, np.inf)))] = True
            continue
        break

    residual = _svm_kkt_residual(X, y, lam, w, b)
    if residual > tol:
        raise ConfigurationError(
            f"SVM dual oracle did not reach KKT residual {tol:g} (got {residual:.3e}); "
            "the data may not be linearly separable")
    return SvmSolution(w=w, b=b, lam=lam, kkt_residual=residual)


def build_2d_benchmark() -> ConstrainedProblem:
    """Nonconvex 2D benchmark:

        f(x) = (x1 + exp(-x2))^2 + (x1^2 + 2 x2 + 1)^2
        h(x) = x1 + x1^3 + x2 + x2^2 - 2   (equality, violation form)
    """

    def objective(x):
        r1 = x[0] + np.exp(-x[1])
        r2 = x[0] * x[0] + 2.0 * x[1] + 1.0
        return float(r1 * r1 + r2 * r2)

    def objective_grad(x):
        r1 = x[0] + np.exp(-x[1])
        r2 = x[0] * x[0] + 2.0 * x[1] + 1.0
        return np.array([
            2.0 * r1 + 4.0 * x[0] * r2,
            -2.0 * r1 * np.exp(-x[1]) + 4.0 * r2,
        ])

    def eq(x):
        return np.array([x[0] + x[0] ** 3 + x[1] + x[1] * x[1] - 2.0])

    def jacobian(x):
        return np.array([[1.0 + 3.0 * x[0] * x[0]], [1.0 + 2.0 * x[1]]])

    return ConstrainedProblem(
        dim_primal=2,
        num_ineq=0,
        num_eq=1,
        eval_objective=objective,
        eval_objective_grad=objective_grad,
        eval_ineq=lambda _x: np.zeros(0),
        eval_eq=eq,
        eval_constraint_jacobian=jacobian,
    )


def benchmark2d_constrained_optimum() -> np.ndarray:
    """Brute-force constrained optimum of the 2D benchmark.

    The feasibility curve h(x) = 0 is parametrized by x1: x2 solves
    x2^2 + x2 + (x1 + x1^3 - 2) = 0, giving two branches where the
    discriminant 9 - 4 x1 - 4 x1^3 is nonnegative. f is sampled densely
    along both branches and the best point refined by repeated grid zoom.
    """
    problem = build_2d_benchmark()

    def branch_points(x1, sign):
        disc = 9.0 - 4.0 * x1 - 4.0 * x1 ** 3
        valid = disc >= 0.0
        x1 = x1[valid]
        x2 = (-1.0 + sign * np.sqrt(disc[valid])) / 2.0
        return np.column_stack([x1, x2])

    def f_values(pts):
        r1 = pts[:, 0] + np.exp(-pts[:, 1])
        r2 = pts[:, 0] ** 2 + 2.0 * pts[:, 1] + 1.0
        return r1 * r1 + r2 * r2

    # x1 is bounded above by the real root of 4 x^3 + 4 x - 9 = 0.
    roots = np.roots([4.0, 0.0, 4.0, -9.0])
    x1_max = float(np.max(roots[np.abs(roots.imag) < 1e-12].real))

    best = None
    best_val = np.inf
    best_sign = 1.0
    for sign in (1.0, -1.0):
        grid = np.linspace(-3.0, x1_max, 20001)
        pts = branch_points(grid, sign)
        vals = f_values(pts)
        i = int(np.argmin(vals))
        if vals[i] < best_val:
            best_val = float(vals[i])
            best = pts[i]
            best_sign = sign

    # Zoom refinement on the winning branch.
    center = best[0]
    width = (x1_max + 3.0) / 20000.0
    for _ in range(10):
        lo = max(center - 2.0 * width, -3.0)
        hi = min(center + 2.0 * width, x1_max)
        grid = np.linspace(lo, hi, 2001)
        pts = branch_points(grid, best_sign)
        vals = f_values(pts)
        i = int(np.argmin(vals))
        center = pts[i, 0]
        best = pts[i]
        width = (hi - lo) / 2000.0

    assert abs(problem.eval_eq(best)[0]) < 1e-9
    return best


def build_qp_problem(sys: QPSystem) -> ConstrainedProblem:
    """Equality-constrained QP as a ConstrainedProblem:
    f = 1/2 x'Hx + c'x, h(x) = Ax - b."""
    H, A, b, c_lin = sys.H, sys.A, sys.b, sys.c_lin
    jac = A.T.copy()

    return ConstrainedProblem(
        dim_primal=sys.dim_primal,
        num_ineq=0,
        num_eq=sys.num_constraints,
        eval_objective=lambda x: 0.5 * float(x @ H @ x) + float(c_lin @ x),
        eval_objective_grad=lambda x: H @ x + c_lin,
        eval_ineq=lambda _x: np.zeros(0),
        eval_eq=lambda x: A @ x - b,
        eval_constraint_jacobian=lambda _x: jac,
    )

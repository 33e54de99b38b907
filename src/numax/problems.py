"""Built-in benchmark problems and their ground-truth oracles.

- Hard-margin linear SVM on labeled points: min ||w||^2/2 subject to
  y_i (w'x_i + b) >= 1, stored in violation form g_i = 1 - y_i(w'x_i + b)
  so that positive means violated. The dual oracle runs projected gradient
  on the dual QP and stops at the first exact active-set polish, tried every
  200 iterations, that meets its tolerance; it is independent of any loop.
- A 2D nonconvex equality-constrained benchmark with a brute-force optimum
  found by searching along the feasibility curve.
- Equality-constrained QPs built from a QPSystem.

Every built-in problem's callables take one point x of shape (n,) or a stack
of points (K, n), and row k of a stacked result is bit for bit the result at
point k (a constant Jacobian is returned once for the whole stack). So the
products are `np.vecdot`, `np.matvec` and `np.vecmat`, whose rows match the
one-point product bit for bit, and no callable uses an integer power, which
numpy rounds differently for a scalar and for an array.

Each built-in problem writes its math once, as `values(x) -> (f, c)` and
`derivatives(x) -> (grad f, Jc)`, and `ConstrainedProblem.from_values` makes
its five callables and the fused pair that the loop calls at every step
views of these two, so the pair gives bit for bit what the five give.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .analysis import QPSystem
from .core import (ConfigurationError, ConstrainedProblem, NumericalError, as_floats, as_int,
                   as_real, as_vector, read_csv, seeded_rng)


@dataclass(frozen=True)
class SvmDataset:
    """Feature matrix (m x d) of finite numbers with labels in {-1, +1};
    both classes present."""

    points: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        points = as_floats(self.points, "points", finite=True)
        if points.ndim != 2:
            raise ConfigurationError(f"points must have shape (m, d), got {points.shape}")
        labels = as_vector(self.labels, len(points), "labels")
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
    with '#' are ignored. Row order is preserved. A non-finite feature is
    refused with the line that holds it."""
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
        if not all(map(math.isfinite, values[:-1])):
            raise ConfigurationError(f"{path}:{lineno}: features must be finite")
        labels.append(label)
    points = np.array([values[:-1] for _, values in rows])
    try:
        return SvmDataset(points=points, labels=np.array(labels))
    except ConfigurationError as exc:
        raise ConfigurationError(f"{path}: {exc}") from exc


def train_validation_split(data: SvmDataset, seed: int,
                           train_fraction: float = 0.7) -> tuple:
    """Seeded shuffle, then the first ceil(train_fraction * m) rows train;
    train_fraction is a real in (0, 1)."""
    train_fraction = as_real(train_fraction, "train_fraction")
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

    def values(xvec):
        w = xvec[..., :d]
        return 0.5 * np.vecdot(w, w), 1.0 - y * (np.matvec(X, w) + xvec[..., d:])

    def derivatives(xvec):
        grad = np.zeros(xvec.shape)
        grad[..., :d] = xvec[..., :d]
        return grad, jac

    return ConstrainedProblem.from_values(d + 1, data.num_points, 0, values, derivatives)


def svm_train_accuracy(data: SvmDataset, w: np.ndarray, b: float) -> float:
    """Fraction of points with strictly positive margin y_i (w'x_i + b); w
    has one entry per feature and b is a finite number. A margin that
    overflows to +-inf counts by its sign, and a NaN margin (inf - inf) is
    not positive."""
    w, b = as_vector(w, data.num_features, "w"), as_real(b, "b")
    with np.errstate(over="ignore", invalid="ignore"):
        margins = data.labels * (data.points @ w + b)
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


_SVM_KKT_TOL = 1e-8  # the KKT residual the SVM dual oracle's polish must reach


def svm_dual_oracle(data: SvmDataset, max_pgd_iters: int = 20000) -> SvmSolution:
    """Reference solution of the SVM dual QP

        max  sum(lam) - 1/2 || sum_i lam_i y_i x_i ||^2
        s.t. lam >= 0,  y'lam = 0,

    via accelerated projected gradient and an active-set polish that solves
    the support-vector KKT system exactly. The polish is tried every 200
    iterations, and the first one within `_SVM_KKT_TOL` is returned.
    Independent of the descent-ascent loop. Raises if the data is not
    linearly separable (the dual is unbounded) or the polish after the last
    iteration cannot drive the KKT residual below it; max_pgd_iters >= 1.
    """
    max_pgd_iters = as_int(max_pgd_iters, "max_pgd_iters", 1)
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
                return _polish_support(X, y, Q, support, _SVM_KKT_TOL)
            except ConfigurationError:
                pass  # the iterates are not yet close enough to lambda*
    return _polish_support(X, y, Q, lam > 1e-6 * max(1.0, float(np.max(lam))), _SVM_KKT_TOL)


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

    Its math is written once: `values` gives (f, h) and `partials` the
    coordinates of grad f and of the Jacobian column, which `derivatives`
    and `primal_gradient` (without building Jc) turn into arrays.
    """

    def terms(x):
        """x1, x2, x1 * x1, exp(-x2) and f's residuals r1 and r2."""
        x0, x1 = _coordinates(x)
        square, decay = x0 * x0, np.exp(-x1)
        return x0, x1, square, decay, x0 + decay, square + 2.0 * x1 + 1.0

    def values(x):
        x0, x1, square, _, r1, r2 = terms(x)
        return r1 * r1 + r2 * r2, (x0 + square * x0 + x1 + x1 * x1 - 2.0)[..., None]

    def partials(x):
        """(grad f, the Jacobian column), each as its two coordinates."""
        x0, x1, _, decay, r1, r2 = terms(x)
        # 3.0 * x0 * x0, not 3.0 * square: the two round differently.
        return ((2.0 * r1 + 4.0 * x0 * r2, -2.0 * r1 * decay + 4.0 * r2),
                (1.0 + 3.0 * x0 * x0, 1.0 + 2.0 * x1))

    def derivatives(x):
        grad, column = partials(x)
        return _from_coordinates(x, *grad), _from_coordinates(x, *column)[..., None]

    def primal_gradient(x, theta):
        (df0, df1), (dh0, dh1) = partials(x)
        mu = theta.T[0]
        # np.matvec sums its one product onto 0.0, so a -0.0 product reaches
        # grad f as +0.0. Adding the product directly is the same: neither
        # entry of grad f can be -0.0, as exp(-x2) >= +0.0 and r2 ends in + 1.0.
        return _from_coordinates(x, df0 + dh0 * mu, df1 + dh1 * mu)

    return ConstrainedProblem.from_values(2, 0, 1, values, derivatives, primal_gradient)


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

    # x1 is bounded above by the real root of 4 x^3 + 4 x - 9 = 0.
    roots = np.roots([4.0, 0.0, 4.0, -9.0])
    x1_max = float(np.max(roots[np.abs(roots.imag) < 1e-12].real))

    best = None
    best_val = np.inf
    best_sign = 1.0
    for sign in (1.0, -1.0):
        grid = np.linspace(-3.0, x1_max, 20001)
        pts = branch_points(grid, sign)
        vals = problem.values(pts)[0]
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
        vals = problem.values(pts)[0]
        i = int(np.argmin(vals))
        center = pts[i, 0]
        best = pts[i]
        width = (hi - lo) / 2000.0

    residual = abs(problem.values(best)[1][0])
    if not residual < 1e-9:
        raise NumericalError(f"2D benchmark optimum misses h(x) = 0 by {residual:.3g}")
    return best


def build_qp_problem(sys: QPSystem) -> ConstrainedProblem:
    """Equality-constrained QP as a ConstrainedProblem:
    f = 1/2 x'Hx + c'x, h(x) = Ax - b."""
    H, A, b, c_lin = sys.H, sys.A, sys.b, sys.c_lin
    jac = A.T.copy()

    def values(x):
        return (0.5 * np.vecdot(np.vecmat(x, H), x) + np.vecdot(c_lin, x),
                np.matvec(A, x) - b)

    return ConstrainedProblem.from_values(sys.dim_primal, 0, sys.num_constraints, values,
                                          lambda x: (np.matvec(H, x) + c_lin, jac))


def _coordinates(x):
    """The coordinates of x as numpy scalars for one point, or as the
    columns of a stack of points."""
    xt = x.T
    return xt[0], xt[1]


def _from_coordinates(x, first, second):
    """The inverse of `_coordinates`: a new array shaped like x."""
    out = np.empty(x.shape)
    out.T[0], out.T[1] = first, second
    return out

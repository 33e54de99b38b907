"""The SVM dual oracle as it was when projected gradient ran until a loose
KKT estimate fell below 1e-4 and the active-set polish ran once after it.

`svm_dual_oracle` is kept verbatim apart from its interface: it takes the
points and labels as arrays, returns `(lam, w, b, kkt_residual)` and raises
`ValueError` where the package raises its configuration error. It imports
nothing from numax, so a change to the package's helpers cannot move it.
Test-only code.
"""

from __future__ import annotations

import numpy as np


def _project_dual_feasible(v, y):
    """Euclidean projection onto {lam >= 0, y'lam = 0} by interpolating the
    balance y'lam(t) between its breakpoints t = v_i y_i."""
    bps = np.sort(v * y)
    balances = np.maximum(0.0, v[None, :] - bps[:, None] * y[None, :]) @ y
    t = float(np.interp(0.0, balances[::-1], bps[::-1]))
    return np.maximum(0.0, v - t * y)


def _estimate_bias(X, y, lam, w):
    """Average y_i - w'x_i over the points with the largest multipliers."""
    if np.max(lam) <= 0.0:
        return 0.0
    heavy = lam > 0.5 * np.max(lam)
    return float(np.mean(y[heavy] - X[heavy] @ w))


def _svm_kkt_residual(X, y, lam, w, b):
    margins = y * (X @ w + b)
    viol = 1.0 - margins
    return max(
        float(np.max(viol, initial=0.0)),
        float(np.max(-lam, initial=0.0)),
        float(np.max(np.abs(lam * viol), initial=0.0)),
        abs(float(y @ lam)),
        float(np.max(np.abs(w - (lam * y) @ X))),
    )


def svm_dual_oracle(points, labels, tol=1e-8, max_pgd_iters=20000):
    """Accelerated projected gradient on the SVM dual, stopped once the KKT
    residual with an estimated bias is below 1e-4, then an active-set polish
    that solves the support-vector KKT system exactly."""
    X = np.atleast_2d(np.asarray(points, dtype=np.float64))
    y = np.atleast_1d(np.asarray(labels, dtype=np.float64))
    m = X.shape[0]
    G = X @ X.T
    Q = (y[:, None] * y[None, :]) * G
    lipschitz = float(np.max(np.linalg.eigvalsh(Q)))
    step = 1.0 / max(lipschitz, 1e-12)

    lam = np.zeros(m)
    z = lam.copy()
    t_acc = 1.0
    for it in range(max_pgd_iters):
        grad = Q @ z - 1.0
        lam_next = _project_dual_feasible(z - step * grad, y)
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_acc * t_acc))
        z = lam_next + ((t_acc - 1.0) / t_next) * (lam_next - lam)
        lam, t_acc = lam_next, t_next
        if np.max(lam) > 1e10:
            raise ValueError("data is not linearly separable: dual objective is unbounded")
        if it % 200 == 199:
            w = (lam * y) @ X
            b_est = _estimate_bias(X, y, lam, w)
            if _svm_kkt_residual(X, y, lam, w, b_est) < 1e-4:
                break

    w = (lam * y) @ X
    support = lam > 1e-6 * max(1.0, float(np.max(lam)))

    for _ in range(4 * m):
        S = np.flatnonzero(support)
        if S.size == 0 or len(set(y[S])) < 2:
            raise ValueError("data is not linearly separable: no valid support set found")
        k = S.size
        K = np.zeros((k + 1, k + 1))
        K[:k, :k] = Q[np.ix_(S, S)]
        K[:k, k] = y[S]
        K[k, :k] = y[S]
        rhs = np.concatenate([np.ones(k), [0.0]])
        sol = np.linalg.lstsq(K, rhs, rcond=None)[0]
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
        raise ValueError(f"KKT residual {residual:.3e} above {tol:g}")
    return lam, w, b, residual

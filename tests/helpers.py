"""Shared independent oracles for the test suite."""

import math

import numpy as np

from ufmlab.closed_form import global_minimizer, optimal_loss
from ufmlab.config import ProblemConfig, one_hot_labels, smooth_labels
from ufmlab.core import ModelState, loss_and_grad, softmax_cols
from ufmlab.nc_metrics import NC1_UNDEFINED, PINV_RCOND
from ufmlab.spectral import probability_laplacian


# The acceptance grid of problem configs, shared by the suites that sweep it.
CONFIG_GRID = [
    ProblemConfig(K=K, n=n, d=d, delta=delta, lambda_w=lam, lambda_h=lam)
    for K in (2, 3, 4, 10)
    for n in (1, 2, 5)
    for d in (K, K + 3)
    for delta in (0.0, 0.05, 0.1, 0.3)
    for lam in (1e-3, 5e-3)
]


def pack(state: ModelState) -> np.ndarray:
    return np.concatenate([state.W.ravel(), state.H.ravel(), state.b])


def unpack(x: np.ndarray, cfg: ProblemConfig) -> ModelState:
    d, K, N = cfg.d, cfg.K, cfg.N
    W = x[: d * K].reshape(d, K)
    H = x[d * K : d * K + d * N].reshape(d, N)
    b = x[d * K + d * N :]
    return ModelState(W.copy(), H.copy(), b.copy())


def fd_gradient(cfg: ProblemConfig, state: ModelState, step: float = 1e-5) -> np.ndarray:
    """Central finite differences of the loss over all parameters."""
    x0 = pack(state)
    g = np.zeros_like(x0)
    for i in range(len(x0)):
        xp, xm = x0.copy(), x0.copy()
        xp[i] += step
        xm[i] -= step
        g[i] = (loss_and_grad(unpack(xp, cfg), cfg)[0]
                - loss_and_grad(unpack(xm, cfg), cfg)[0]) / (2 * step)
    return g


def random_state(cfg: ProblemConfig, rng, scale: float = 1.0) -> ModelState:
    return ModelState(
        W=scale * rng.standard_normal((cfg.d, cfg.K)),
        H=scale * rng.standard_normal((cfg.d, cfg.N)),
        b=scale * rng.standard_normal(cfg.K),
    )


def phi_unregularized(state: ModelState, cfg: ProblemConfig) -> float:
    """Cross-entropy part of the loss only (no L2 terms)."""
    reg = (
        0.5 * cfg.lambda_w * np.sum(state.W**2)
        + 0.5 * cfg.lambda_h * np.sum(state.H**2)
        + 0.5 * cfg.lambda_b * np.sum(state.b**2)
    )
    return loss_and_grad(state, cfg)[0] - reg


def rotated_minimizer(cfg: ProblemConfig, seed: int) -> ModelState:
    """The closed-form minimizer (QW, QH, b) turned by a seeded d x d orthogonal Q,
    which is a minimizer too: the loss sees W and H only through W^T H."""
    Q, R = np.linalg.qr(np.random.default_rng(seed).standard_normal((cfg.d, cfg.d)))
    Q *= np.sign(np.diag(R))
    state = global_minimizer(cfg)
    return ModelState(Q @ state.W, Q @ state.H, state.b)


def dense_classifier_hessian(state: ModelState, cfg: ProblemConfig, f=lambda x: x) -> np.ndarray:
    """The Kd x Kd classifier Hessian (1/N) sum_j kron(D_j, h_j h_j^T) as a plain
    kron sum; f is applied to D_j and h_j first (np.abs gives the sum's magnitude)."""
    P = softmax_cols(state.logits())
    ref = np.zeros((cfg.K * cfg.d, cfg.K * cfg.d))
    for j in range(cfg.N):
        h = f(state.H[:, j])
        ref += np.kron(f(probability_laplacian(P[:, j])), np.outer(h, h))
    return ref / cfg.N


def reference_loss_and_grad(state: ModelState, cfg: ProblemConfig):
    """The one-problem kernel written with fresh temporaries: the arithmetic,
    in the same order, that core.loss_and_grad does in place on a flat stack
    (the bias as a row of the matrix products, Z = [W; b^T]^T [H; 1^T] and
    [G_W; g_b^T] = [H; 1^T] dZ^T; the cross-entropy as the K+1 row dots of
    [-Y/N; 1/N] with [S; log s], added in order; the weight decay as
    1/2 <lambda theta, theta> over the layout of ModelState.ravel)."""
    N = cfg.N
    Yn = smooth_labels(one_hot_labels(cfg.K, cfg.n), cfg.delta) / N
    Wb, Hb = np.vstack([state.W, state.b]), np.vstack([state.H, np.ones(N)])
    Z = Wb.T @ Hb
    S = Z - Z.max(axis=0, keepdims=True)
    e = np.exp(S)
    s = e.sum(axis=0)
    theta = state.ravel()
    lam = np.concatenate([np.full(state.W.size, cfg.lambda_w), np.full(cfg.K, cfg.lambda_b),
                          np.full(state.H.size, cfg.lambda_h), np.zeros(N)])
    t = lam * theta
    rows = zip(np.vstack([-Yn, np.full(N, 1.0 / N)]), np.vstack([S, np.log(s)]))
    data = 0.0
    for w, x in rows:
        data += np.dot(w, x)
    loss = data + 0.5 * np.dot(t, theta)
    dZ = e * ((1.0 / N) / s) - Yn
    G_Wb = Hb @ dZ.T
    G_W = G_Wb[:-1] + cfg.lambda_w * state.W
    G_H = state.W @ dZ + cfg.lambda_h * state.H
    g_b = G_Wb[-1] + cfg.lambda_b * state.b
    return float(loss), (G_W, G_H, g_b)


def product_form_loss_and_grad(state: ModelState, cfg: ProblemConfig):
    """The loss as sum(Y * -(Z - max - log s)) / N plus three squared norms, and
    dL/dZ as (softmax - Y) / N: the textbook form, for the rounding comparison."""
    Yd = smooth_labels(one_hot_labels(cfg.K, cfg.n), cfg.delta)
    Z = state.W.T @ state.H + state.b[:, None]
    shifted = Z - Z.max(axis=0, keepdims=True)
    e = np.exp(shifted)
    s = e.sum(axis=0, keepdims=True)
    ce = (Yd * -(shifted - np.log(s))).sum(axis=0).sum() / cfg.N
    reg = (
        0.5 * cfg.lambda_w * np.sum(state.W**2)
        + 0.5 * cfg.lambda_h * np.sum(state.H**2)
        + 0.5 * cfg.lambda_b * np.sum(state.b**2)
    )
    dZ = (e / s - Yd) / cfg.N
    G_W = state.H @ dZ.T + cfg.lambda_w * state.W
    G_H = state.W @ dZ + cfg.lambda_h * state.H
    g_b = dZ.sum(axis=1) + cfg.lambda_b * state.b
    return float(ce + reg), (G_W, G_H, g_b)


def reference_losses(cfg: ProblemConfig, opt, state: ModelState) -> np.ndarray:
    """Loss history of heavy-ball descent written as a plain per-problem loop."""
    state = state.copy()
    L_star = optimal_loss(cfg)
    vel = [np.zeros_like(x) for x in (state.W, state.H, state.b)]
    losses = []
    for it in range(opt.max_iters + 1):
        loss, grads = reference_loss_and_grad(state, cfg)
        losses.append(loss)
        if loss - L_star < opt.loss_tol:
            break
        for x, v, g in zip((state.W, state.H, state.b), vel, grads):
            v[...] = opt.momentum * v - opt.learning_rate * g
            x += v
    return np.array(losses)


def iterations_to_epsilon(traj, eps: float):
    """First iteration with loss - L* < eps in traj.loss_history (L* = traj.optimal_value),
    or None if never reached: a scan of the whole history, against run_stack's own stop."""
    hits = np.nonzero(traj.loss_history - traj.optimal_value < eps)[0]
    return int(hits[0]) if len(hits) else None


def balancedness_step(state: ModelState, cfg: ProblemConfig, eta: float) -> np.ndarray:
    """W'W'^T - H'H'^T after one plain gradient step of size eta from state, by the
    weight-decayed balancedness law (Du, Hu and Lee 2018) for D = W W^T - H H^T:

    D' = (1 - eta l_W)^2 W W^T - (1 - eta l_H)^2 H H^T + eta^2 (l_W - l_H) (X + X^T)
         + eta^2 (H G_Z^T G_Z H^T - W G_Z G_Z^T W^T),  X = W G_Z H^T,

    with G_Z = dL/dZ = (softmax(Z) - Y_delta) / N taken from softmax_cols, not the kernel.
    The bias enters through Z only."""
    W, H = state.W, state.H
    Yd = smooth_labels(one_hot_labels(cfg.K, cfg.n), cfg.delta)
    G_Z = (softmax_cols(state.logits()) - Yd) / cfg.N
    X, A, B = W @ G_Z @ H.T, H @ G_Z.T, W @ G_Z
    return ((1 - eta * cfg.lambda_w) ** 2 * (W @ W.T) - (1 - eta * cfg.lambda_h) ** 2 * (H @ H.T)
            + eta**2 * (cfg.lambda_w - cfg.lambda_h) * (X + X.T) + eta**2 * (A @ A.T - B @ B.T))


def reference_class_covariances(H: np.ndarray, labels: np.ndarray, K: int):
    """Within- and between-class covariances (d x d, or B x d x d) of the
    columns of H with class labels in [0, K), built by a loop over the classes."""
    *batch, d, M = H.shape
    h_G = H.mean(axis=-1)
    class_means = np.zeros((*batch, d, K))
    Sigma_W = np.zeros((*batch, d, d))
    for k in range(K):
        cols = H[..., labels == k]
        if cols.shape[-1] == 0:
            raise ValueError(f"class {k} has no samples")
        mu = cols.mean(axis=-1)
        class_means[..., k] = mu
        dev = cols - mu[..., None]
        Sigma_W += dev @ np.swapaxes(dev, -1, -2)
    Sigma_W /= M
    centered = class_means - h_G[..., None]
    Sigma_B = centered @ np.swapaxes(centered, -1, -2) / K
    return Sigma_W, Sigma_B


def reference_nc1(H: np.ndarray, labels: np.ndarray, K: int):
    """trace(Sigma_W pinv(Sigma_B)) / K from the d x d covariances, with the
    sentinels of nc_metrics.nc1."""
    Sigma_W, Sigma_B = reference_class_covariances(H, labels, K)
    scale_B = np.abs(Sigma_B).max(axis=(-2, -1))
    scale_W = np.abs(Sigma_W).max(axis=(-2, -1))
    ratio = np.trace(Sigma_W @ np.linalg.pinv(Sigma_B, rcond=PINV_RCOND),
                     axis1=-2, axis2=-1) / K
    return np.where(scale_B == 0.0, np.where(scale_W == 0.0, 0.0, NC1_UNDEFINED), ratio)[()]


def solve_logit_scale_by_bisection(cfg: ProblemConfig, tol: float = 1e-14) -> float:
    """Independent check of logit_scale via the scalar optimality equation.

    Solves K / (K - 1 + e^{aK}) - delta = sqrt(NK) * lambda_z for a >= 0
    by bisection; returns 0 when no positive root exists.
    """
    K = cfg.K
    rhs = math.sqrt(cfg.N * K) * cfg.lambda_z

    def f(a):
        return K / (K - 1.0 + math.exp(a * K)) - cfg.delta - rhs

    if f(0.0) <= 0.0:
        return 0.0
    lo, hi = 0.0, 1.0
    while f(hi) > 0.0:
        hi *= 2.0
        if hi > 1e6:
            raise RuntimeError("bisection bracket failed")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# Stand-in for an infinite cross-entropy term (exact zero probability
# against a positive target).
SATURATION_VALUE = 1e30


def ls_equalization_gap(p: np.ndarray, target: int, delta: float, with_flag: bool = False):
    """Excess smoothed-label loss of p over its non-target-equalized version.

    The comparison point keeps p[target] and spreads the remaining mass
    uniformly over the other classes; by Jensen the gap is nonnegative and
    vanishes exactly when the non-target entries are already equal.  Every
    smoothed target is positive, so a zero probability saturates its loss at
    SATURATION_VALUE and sets the flag.
    """
    p = np.asarray(p, dtype=float)
    K = p.shape[0]
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    if not (0 <= target < K):
        raise ValueError(f"target {target} out of range for K={K}")
    if abs(p.sum() - 1.0) > 1e-9 or np.any(p < -1e-12):
        raise ValueError("p must be a probability vector")

    # not (1 - p[target]) / (K - 1), which rounds to 0 for a tiny non-target mass
    p_eq = np.full(K, np.delete(p, target).mean())
    p_eq[target] = p[target]
    t = np.full(K, delta / K)
    t[target] += 1.0 - delta

    def loss(q):
        return SATURATION_VALUE if np.any(q <= 0.0) else float(-(t * np.log(q)).sum())

    gap = loss(p) - loss(p_eq)
    flag = bool(np.any(p <= 0.0) or np.any(p_eq <= 0.0))
    return (gap, flag) if with_flag else gap

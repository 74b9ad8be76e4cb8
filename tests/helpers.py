"""Shared independent oracles for the test suite."""

import numpy as np

from ufmlab.closed_form import optimal_loss
from ufmlab.config import ProblemConfig, one_hot_labels, smooth_labels
from ufmlab.core import ModelState, softmax_cols, ufm_loss
from ufmlab.nc_metrics import NC1_UNDEFINED, PINV_RCOND, FeatureSet
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
    """Central finite differences of ufm_loss over all parameters."""
    x0 = pack(state)
    g = np.zeros_like(x0)
    for i in range(len(x0)):
        xp, xm = x0.copy(), x0.copy()
        xp[i] += step
        xm[i] -= step
        g[i] = (ufm_loss(unpack(xp, cfg), cfg) - ufm_loss(unpack(xm, cfg), cfg)) / (2 * step)
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
    return ufm_loss(state, cfg) - reg


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
    in the same order, that core.loss_and_grad does in place on a stack."""
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


def reference_class_covariances(fs: FeatureSet):
    """Within- and between-class covariances (d x d, or B x d x d) of a
    feature set, built by a loop over the classes."""
    H = fs.H
    *batch, d, M = H.shape
    h_G = H.mean(axis=-1)
    class_means = np.zeros((*batch, d, fs.K))
    Sigma_W = np.zeros((*batch, d, d))
    for k in range(fs.K):
        cols = H[..., fs.labels == k]
        if cols.shape[-1] == 0:
            raise ValueError(f"class {k} has no samples")
        mu = cols.mean(axis=-1)
        class_means[..., k] = mu
        dev = cols - mu[..., None]
        Sigma_W += dev @ np.swapaxes(dev, -1, -2)
    Sigma_W /= M
    centered = class_means - h_G[..., None]
    Sigma_B = centered @ np.swapaxes(centered, -1, -2) / fs.K
    return Sigma_W, Sigma_B


def reference_nc1(fs: FeatureSet):
    """trace(Sigma_W pinv(Sigma_B)) / K from the d x d covariances, with the
    sentinels of nc_metrics.nc1."""
    Sigma_W, Sigma_B = reference_class_covariances(fs)
    scale_B = np.abs(Sigma_B).max(axis=(-2, -1))
    scale_W = np.abs(Sigma_W).max(axis=(-2, -1))
    ratio = np.trace(Sigma_W @ np.linalg.pinv(Sigma_B, rcond=PINV_RCOND),
                     axis1=-2, axis2=-1) / fs.K
    return np.where(scale_B == 0.0, np.where(scale_W == 0.0, 0.0, NC1_UNDEFINED), ratio)[()]

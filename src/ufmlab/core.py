"""Smoothed-label risk of the unconstrained feature model and its gradients.

Matrix conventions: the classifier W is d x K, the feature matrix H is
d x N with column (k*n + i) holding sample i of class k (classes are
0-based), and the bias b is a K-vector.  Labels are stored one-hot as a
K x N matrix Y; a Workspace smooths one Y into the targets of each of its
problems.  B problems that share K, n and d can be stacked as one B x P
array whose rows are their W, H and b raveled (see Workspace).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ProblemConfig, one_hot_labels, smooth_labels


@dataclass
class ModelState:
    """Optimization variables (W: d x K, H: d x N, b: K), or B of each on a leading axis."""

    W: np.ndarray
    H: np.ndarray
    b: np.ndarray

    def copy(self) -> "ModelState":
        return ModelState(self.W.copy(), self.H.copy(), self.b.copy())

    def ravel(self) -> np.ndarray:
        """W, H and b raveled into one P-vector, in that order (P = dK + dN + K)."""
        return np.concatenate([self.W.ravel(), self.H.ravel(), self.b])

    def logits(self) -> np.ndarray:
        """Z = W^T H + b 1^T, shape K x N."""
        return self.W.T @ self.H + self.b[:, None]


def softmax_cols(Z: np.ndarray) -> np.ndarray:
    """Column-wise softmax of finite logits, with per-column max subtraction."""
    e = np.exp(Z - Z.max(axis=0, keepdims=True))
    return e / e.sum(axis=0, keepdims=True)


class Workspace:
    """Targets, weight decays and reused buffers of B problems that share K, n and d.

    A pass reuses them, so descent allocates no K x N or d x N temporaries:
    Z, E (B x K x N) shifted logits and exponentials; m, s (B x 1 x N) column
    maxima, then log sums, and sums, then 1 / (N sums); G, t (B x P,
    P = dK + dN + K) flat gradient and lambda * theta.  targets_n holds the
    smoothed targets divided by N.  The views a pass reads are built once per
    stack (take) and once per flat array (_bind), not on every pass.
    """

    def __init__(self, cfgs):
        K, N, d, B = cfgs[0].K, cfgs[0].N, cfgs[0].d, len(cfgs)
        self.dims = d, K, N
        Y = one_hot_labels(K, cfgs[0].n)
        self.targets_n = np.stack([smooth_labels(Y, c.delta) for c in cfgs])
        self.targets_n /= N
        # Y goes before the buffers below are allocated, so they can reuse its heap
        # space; kept to the end of __init__, it raised peak RSS by 1.4 MB at
        # K=100, n=20, d=128.
        del Y
        self.lambdas = np.array([[c.lambda_w, c.lambda_h, c.lambda_b] for c in cfgs])
        self._buffers = [np.empty((B, *shape)) for shape in
                         ((K, N), (1, N), (d * (K + N) + K,)) for _ in range(2)]
        self.take(np.ones(B, dtype=bool))

    def blocks(self, flat: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Views of the W, H and b blocks of a B x P array of flattened problems."""
        (d, K, N), B = self.dims, len(flat)
        return (flat[:, : d * K].reshape(B, d, K), flat[:, d * K : -K].reshape(B, d, N),
                flat[:, -K:])

    def take(self, keep: np.ndarray):
        """Keep the problems where keep is True, in order, at the front of the stack."""
        if not keep.all():
            self.targets_n, self.lambdas = self.targets_n[keep], self.lambdas[keep]
        lam, B = self.lambdas, len(self.lambdas)
        self.Z, self.E, self.m, self.s, self.G, self.t = (a[:B] for a in self._buffers)
        self.ET, self.log_s = np.swapaxes(self.E, -1, -2), self.m[:, 0]
        self.G_blocks, self.t_blocks = self.blocks(self.G), self.blocks(self.t)
        # The batched dots <Y/N, S> and <t, theta>: B products of a 1 x KN row and a KN x 1 column.
        self.targets_row = self.targets_n.reshape(B, 1, -1)
        self.S_col, self.t_row = self.Z.reshape(B, -1, 1), self.t[:, None]
        self.decay = lam[:, 0, None, None], lam[:, 1, None, None], lam[:, 2, None]
        self.flat = None

    def _bind(self, flat: np.ndarray):
        """Build the views of flat that a pass reads; flat must stay the same array."""
        self.flat, self.flat_col = flat, flat[..., None]
        self.W, self.H, self.b = self.blocks(flat)
        self.WT, self.b_col = np.swapaxes(self.W, -1, -2), self.b[..., None]


def _pass(flat: np.ndarray, ws: Workspace) -> np.ndarray:
    """Loss of each stacked problem; leaves its gradient in ws.G.

    Classes run along axis -2 and samples along axis -1.  Every column of
    the targets sums to 1, so the cross-entropy is mean_j log s_j - <Y/N, S>
    for the shifted logits S = Z - max and s the column sums of exp(S), and
    dL/dZ is exp(S) / (N s) - Y/N.  Non-finite logits are not rejected here;
    they make the loss non-finite, which callers treat as divergence.  (The
    ufunc methods skip the np.sum wrappers, whose dispatch costs more than
    the arithmetic at paper scale.)
    """
    if flat is not ws.flat:
        ws._bind(flat)
    Z, E, s, N = ws.Z, ws.E, ws.s, ws.dims[2]
    np.matmul(ws.WT, ws.H, out=Z)
    Z += ws.b_col
    Z -= np.maximum.reduce(Z, axis=-2, keepdims=True, out=ws.m)
    np.add.reduce(np.exp(Z, out=E), axis=-2, keepdims=True, out=s)
    for x, lam, t in zip((ws.W, ws.H, ws.b), ws.decay, ws.t_blocks):
        np.multiply(x, lam, out=t)
    np.log(s, out=ws.m)
    loss = np.add.reduce(ws.log_s, axis=-1)
    loss /= N
    loss -= np.matmul(ws.targets_row, ws.S_col)[:, 0, 0]
    # The weight decay 1/2 <lambda theta, theta> reuses the lambda theta of the gradient.
    loss += 0.5 * np.matmul(ws.t_row, ws.flat_col)[:, 0, 0]
    E *= np.divide(1.0 / N, s, out=s)
    E -= ws.targets_n
    G = ws.G_blocks
    np.matmul(ws.H, ws.ET, out=G[0])
    np.matmul(ws.W, E, out=G[1])
    np.add.reduce(E, axis=-1, out=G[2])
    ws.G += ws.t
    return loss


def loss_and_grad(params, cfg):
    """Risk L(W, H, b) and its exact gradient blocks (G_W, G_H, g_b) from one forward pass.

    For B stacked problems, params is their B x P array (each row is W, H
    and b raveled in that order) and cfg is their Workspace; the loss is
    then a B-vector and the gradient blocks (B x d x K, B x d x N, B x K)
    are views of the flat buffer ws.G, overwritten by the next pass.  For
    one problem, params is its ModelState and cfg its ProblemConfig: the
    state is packed into a 1 x P row and runs through the same pass.
    """
    if isinstance(cfg, Workspace):
        return _pass(params, cfg), cfg.G_blocks
    ws = Workspace([cfg])
    loss = _pass(params.ravel()[None], ws)
    return float(loss[0]), tuple(g[0] for g in ws.G_blocks)


def gradient_norm(state: ModelState, cfg: ProblemConfig) -> float:
    """Euclidean norm of the gradient blocks (G_W, G_H, g_b) taken together."""
    return float(np.sqrt(sum(np.sum(g**2) for g in loss_and_grad(state, cfg)[1])))

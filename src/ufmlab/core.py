"""Smoothed-label risk of the unconstrained feature model and its gradients.

Matrix conventions: the classifier W is d x K, the feature matrix H is
d x N with column (k*n + i) holding sample i of class k (classes are
0-based), and the bias b is a K-vector.  Labels are stored one-hot as a
K x N matrix Y; a Workspace smooths one Y into the targets of each of its
problems.  B problems that share K, n and d can be stacked: every array
then carries a leading batch axis (see Workspace).
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

    def check_shapes(self, cfg: ProblemConfig):
        d, K, N = cfg.d, cfg.K, cfg.N
        if self.W.shape != (d, K):
            raise ValueError(f"W has shape {self.W.shape}, expected {(d, K)}")
        if self.H.shape != (d, N):
            raise ValueError(f"H has shape {self.H.shape}, expected {(d, N)}")
        if self.b.shape != (K,):
            raise ValueError(f"b has shape {self.b.shape}, expected {(K,)}")

    def logits(self) -> np.ndarray:
        """Z = W^T H + b 1^T, shape K x N."""
        return self.W.T @ self.H + self.b[:, None]


def softmax_cols(Z: np.ndarray) -> np.ndarray:
    """Column-wise softmax with per-column max subtraction."""
    Z = np.asarray(Z, dtype=float)
    if not np.all(np.isfinite(Z)):
        raise ValueError("softmax_cols: input contains non-finite entries")
    e = np.exp(Z - Z.max(axis=0, keepdims=True))
    return e / e.sum(axis=0, keepdims=True)


class Workspace:
    """Targets, weight decays and reused buffers of B problems that share K, n and d.

    A pass reuses them, so descent allocates no K x N or d x N temporaries:
    Z, E (B x K x N) logits and exponentials; m, s (B x 1 x N) column maxima
    or logs and sums; G, t (B x P, P = dK + dN + K) flat gradient and scratch.
    """

    def __init__(self, cfgs):
        K, N, d, B = cfgs[0].K, cfgs[0].N, cfgs[0].d, len(cfgs)
        self.dims = d, K, N
        Y = one_hot_labels(K, cfgs[0].n)
        self.targets = np.stack([smooth_labels(Y, c.delta) for c in cfgs])
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
            self.targets, self.lambdas = self.targets[keep], self.lambdas[keep]
        lam = self.lambdas
        self.Z, self.E, self.m, self.s, self.G, self.t = (a[: len(lam)] for a in self._buffers)
        self.G_blocks, self.t_blocks = self.blocks(self.G), self.blocks(self.t)
        self.half = 0.5 * lam.T
        self.decay = lam[:, 0, None, None], lam[:, 1, None, None], lam[:, 2, None]


def _stacked(state: ModelState, cfg):
    """(state, workspace, one problem?) with state's arrays stacked on a leading axis."""
    if isinstance(cfg, Workspace):
        return state, cfg, False
    state.check_shapes(cfg)
    return ModelState(state.W[None], state.H[None], state.b[None]), Workspace([cfg]), True


def _forward(state: ModelState, ws: Workspace) -> np.ndarray:
    """Loss of each stacked problem; leaves exp(Z - max) in ws.E and its column sums in ws.s.

    Classes run along axis -2 and samples along axis -1.  Non-finite logits
    are not rejected here; they make the loss non-finite, which callers
    treat as divergence.  (The ufunc methods skip the np.sum wrappers, whose
    dispatch costs more than the arithmetic at paper scale.)
    """
    W, H, b, Z, m, s = state.W, state.H, state.b, ws.Z, ws.m, ws.s
    np.matmul(np.swapaxes(W, -1, -2), H, out=Z)
    Z += b[..., None]
    Z -= np.maximum.reduce(Z, axis=-2, keepdims=True, out=m)
    np.add.reduce(np.exp(Z, out=ws.E), axis=-2, keepdims=True, out=s)
    Z -= np.log(s, out=m)
    Z *= ws.targets
    # sum(Y * -(Z - log s)) / N, with the sign moved to the divisor.
    ce = np.add.reduce(np.add.reduce(Z, axis=-2, out=m[:, 0]), axis=-1) / -ws.dims[2]
    sq = [np.add.reduce(np.square(x, out=t).reshape(len(t), -1), axis=1)
          for x, t in zip((W, H, b), ws.t_blocks)]
    half = ws.half
    return ce + (half[0] * sq[0] + half[1] * sq[1] + half[2] * sq[2])


def loss_and_grad(state: ModelState, cfg):
    """Risk L(W, H, b) and its exact gradient blocks (G_W, G_H, g_b) from one forward pass.

    For one problem, cfg is its ProblemConfig.  For B problems, the arrays
    of state carry a leading batch axis (W: B x d x K, H: B x d x N, b: B x K)
    and cfg is their Workspace; the loss is then a B-vector and the gradient
    blocks are views of the flat buffer ws.G, overwritten by the next pass.
    """
    state, ws, single = _stacked(state, cfg)
    loss, dZ, G = _forward(state, ws), ws.E, ws.G_blocks
    dZ /= ws.s
    dZ -= ws.targets
    dZ /= ws.dims[2]
    np.matmul(state.H, np.swapaxes(dZ, -1, -2), out=G[0])
    np.matmul(state.W, dZ, out=G[1])
    np.add.reduce(dZ, axis=-1, out=G[2])
    for x, lam, t in zip((state.W, state.H, state.b), ws.decay, ws.t_blocks):
        np.multiply(x, lam, out=t)
    ws.G += ws.t
    return (float(loss[0]), tuple(g[0] for g in G)) if single else (loss, G)


def gradient_norm(state: ModelState, cfg: ProblemConfig) -> float:
    """Euclidean norm of the gradient blocks (G_W, G_H, g_b) taken together."""
    return float(np.sqrt(sum(np.sum(g**2) for g in loss_and_grad(state, cfg)[1])))

"""Smoothed-label risk of the unconstrained feature model and its gradients.

Matrix conventions: the classifier W is d x K, the feature matrix H is
d x N with column (k*n + i) holding sample i of class k (classes are
0-based), and the bias b is a K-vector.  Labels are stored one-hot as a
K x N matrix Y; a Workspace smooths one Y into the targets of each of its
problems.  B problems that share K, n and d can be stacked as one B x P
array whose rows are their [W; b^T] and [H; 1^T] raveled (see ModelState.ravel).
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
        """[W; b^T] ((d+1) x K) then [H; 1^T] ((d+1) x N) raveled: one P-vector,
        P = (d+1)(K+N).  The last N entries, the ones row, are a constant coordinate."""
        return np.concatenate([self.W.ravel(), self.b, self.H.ravel(), np.ones(self.H.shape[-1])])

    def logits(self) -> np.ndarray:
        """Z = W^T H + b 1^T, shape K x N."""
        return self.W.T @ self.H + self.b[:, None]


def softmax_cols(Z: np.ndarray) -> np.ndarray:
    """Column-wise softmax of finite logits, with per-column max subtraction."""
    e = np.exp(Z - Z.max(axis=0, keepdims=True))
    return e / e.sum(axis=0, keepdims=True)


class Workspace:
    """Targets, weight decays and reused buffers of B problems that share K, n and d.

    A pass reuses them, so descent allocates no K x N or d x N temporaries.
    Classes go outermost, so each elementwise step and class reduction runs
    over one K x BN block: L ((K+1) x B x N) shifted logits S in rows :K, the
    column maxima, then log sums, in row K; E (K x B x N) exp(S), then dL/dZ;
    s (1 x B x N) sums, then 1 / (N sums); weights, laid out as L, -Y/N over a
    row of 1/N.  G, t (B x P): flat gradient and lambda * theta; lam: lambda
    rows, 0 on the ones row.  Views are built per stack (take) and array (_bind).
    """

    def __init__(self, cfgs):
        K, N, d, B = cfgs[0].K, cfgs[0].N, cfgs[0].d, len(cfgs)
        self.dims = d, K, N
        Y = one_hot_labels(K, cfgs[0].n)
        self.weights = np.full((K + 1, B, N), 1.0 / N)
        for i, c in enumerate(cfgs):
            np.divide(smooth_labels(Y, c.delta), -N, out=self.weights[:K, i])
        # Y goes before the buffers below are allocated, so they can reuse its heap
        # space; kept to the end of __init__, it raised peak RSS by 1.4 MB at
        # K=100, n=20, d=128.
        del Y
        self.lam = np.zeros((B, (d + 1) * (K + N)))
        for x, name in zip(self.blocks(self.lam), ("lambda_w", "lambda_h", "lambda_b")):
            x.T[...] = [getattr(c, name) for c in cfgs]  # x.T puts the member axis last
        # L, E and s are flat, so that the blocks of the first B members stay contiguous.
        self._buffers = [np.empty(rows * B * N) for rows in (K + 1, K, 1)]
        self._buffers += [np.zeros(self.lam.shape), np.empty(self.lam.shape)]
        self.take(np.ones(B, dtype=bool))

    def _homogeneous(self, flat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Views of the [W; b^T] and [H; 1^T] blocks of a B x P array of flattened problems."""
        (d, K, N), B = self.dims, len(flat)
        i = (d + 1) * K  # slices: np.hsplit's Python wrapper costs more than the views
        return flat[:, :i].reshape(B, d + 1, K), flat[:, i:].reshape(B, d + 1, N)

    def blocks(self, flat: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Views of the W, H and b blocks of a B x P array of flattened problems."""
        Wb, Hb = self._homogeneous(flat)
        return Wb[:, :-1], Hb[:, :-1], Wb[:, -1]

    def take(self, keep: np.ndarray):
        """Keep the problems where keep is True, in order, at the front of the stack."""
        if not keep.all():
            self.weights, self.lam = self.weights[:, keep], self.lam[keep]
        (_, K, N), B = self.dims, len(self.lam)
        L, E, s = (a[: r * B * N].reshape(r, B, N) for a, r in zip(self._buffers, (K + 1, K, 1)))
        self.G, self.t = (a[:B] for a in self._buffers[3:])
        self.S, self.log_s, self.E, self.s = (x.reshape(len(x), -1) for x in (L[:K], L[K:], E, s))
        self.Z, self.dZ = L[:K].transpose(1, 0, 2), E.transpose(1, 0, 2)  # each member's K x N
        self.dZT, self.neg_targets = np.swapaxes(self.dZ, -1, -2), self.weights[:K].reshape(K, -1)
        self.G_blocks, self.G_Wb = self.blocks(self.G), self._homogeneous(self.G)[0]
        # <weights, L> as K+1 row-by-column dots per member; <t, theta> as one.
        self.weight_rows, self.L_cols = self.weights[:, :, None], L[..., None]
        self.t_row, self.flat = self.t[:, None], None

    def _bind(self, flat: np.ndarray):
        """Build the views of flat that a pass reads; flat must stay the same array."""
        self.flat, self.flat_col = flat, flat[..., None]
        (Wb, self.Hb), (self.W, self.H, self.b) = self._homogeneous(flat), self.blocks(flat)
        self.WbT = np.swapaxes(Wb, -1, -2)


def _pass(flat: np.ndarray, ws: Workspace) -> np.ndarray:
    """Loss of each stacked problem; leaves its gradient in ws.G.

    The bias rides in the matrix products: Z = [W; b^T]^T [H; 1^T] and
    [G_W; g_b^T] = [H; 1^T] (dL/dZ)^T.  Every target column sums to 1, so the
    cross-entropy is mean_j log s_j - <Y/N, S> = <[-Y/N; 1/N], [S; log s]> for
    S = Z - max and s the column sums of exp(S); its K+1 row dots accumulate
    in order, so a member's loss does not depend on its stack.  dL/dZ is
    exp(S) / (N s) - Y/N.  Non-finite logits make the loss non-finite, which
    callers treat as divergence.  (The ufunc methods skip the np.sum wrappers,
    whose dispatch costs more than the arithmetic at paper scale.)
    """
    if flat is not ws.flat:
        ws._bind(flat)
    S, E, s, N = ws.S, ws.E, ws.s, ws.dims[2]
    np.matmul(ws.WbT, ws.Hb, out=ws.Z)
    S -= np.maximum.reduce(S, axis=0, keepdims=True, out=ws.log_s)
    np.add.reduce(np.exp(S, out=E), axis=0, keepdims=True, out=s)
    np.multiply(flat, ws.lam, out=ws.t)
    np.log(s, out=ws.log_s)
    loss = np.add.accumulate(np.matmul(ws.weight_rows, ws.L_cols), axis=0)[-1, :, 0, 0]
    # The weight decay 1/2 <lambda theta, theta> reuses the lambda theta of the gradient.
    loss += 0.5 * np.matmul(ws.t_row, ws.flat_col)[:, 0, 0]
    E *= np.divide(1.0 / N, s, out=s)
    E += ws.neg_targets
    np.matmul(ws.Hb, ws.dZT, out=ws.G_Wb)
    np.matmul(ws.W, ws.dZ, out=ws.G_blocks[1])
    ws.G += ws.t
    return loss


def loss_and_grad(params, cfg):
    """Risk L(W, H, b) and its exact gradient blocks (G_W, G_H, g_b) from one forward pass.

    For B stacked problems, params is their B x P array (each row laid out
    as ModelState.ravel lays it) and cfg is their Workspace; the loss is
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

"""Hot numeric kernels of the block-diagonal bilinear model, in numpy.

Training spends nearly all of its time in two places: the blockwise bilinear
form over a minibatch, and the scatter-accumulation of per-triple gradients
into shared embedding rows (entities and relations repeat within a batch, so
this is an indexed reduction, done with ``np.add.at``).  Ranking and the
entity gradients both apply a relation matrix, or its transpose, to a batch
of vectors; ``relation_matvec`` is that product.

Entity vectors are laid out to match the dense block pattern: coordinates
``[0, n_scalars)`` align with the scalar diagonal, then block j occupies the
coordinate pair ``(n_scalars + 2j, n_scalars + 2j + 1)``.

Batch-gathered inputs share one naming:
  vs, vo : (B, d) subject / object vectors
  msc    : (B, n_scalars) relation scalar diagonals
  ma, mb : (B, n_blocks) relation rotation components
"""

from __future__ import annotations

import numpy as np

# Benchmark host records carry this flag; the kernels have no numba variant.
NUMBA_ACTIVE = False


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def bilinear_scores(vs, vo, msc, ma, mb) -> np.ndarray:
    """f_i = vs[i]^T M_r[i] vo[i], computed blockwise in one fused pass."""
    ns = msc.shape[1]
    sx, sy = vs[:, ns::2], vs[:, ns + 1 :: 2]
    ox, oy = vo[:, ns::2], vo[:, ns + 1 :: 2]
    f = np.einsum("ij,ij,ij->i", vs[:, :ns], msc, vo[:, :ns])
    f += np.sum(ma * (sx * ox + sy * oy) + mb * (sy * ox - sx * oy), axis=1)
    return f


def relation_matvec(msc, ma, mb, v, transpose: bool = False) -> np.ndarray:
    """M_r v (or M_r^T v) for rows of ``v`` of shape (..., d).

    Each 2x2 block is [[a, -b], [b, a]], so its transpose is the same
    block with b negated.  Relation arrays broadcast against ``v``: one
    relation for many vectors, or one per row.
    """
    ns = msc.shape[-1]
    b = -mb if transpose else mb
    vx, vy = v[..., ns::2], v[..., ns + 1 :: 2]
    out = np.empty_like(v)
    out[..., :ns] = msc * v[..., :ns]
    out[..., ns::2] = ma * vx - b * vy
    out[..., ns + 1 :: 2] = b * vx + ma * vy
    return out


def accumulate_grads(vs, vo, msc, ma, mb, rho, es, eo, rr, n_ent: int, n_rel: int):
    """Scatter d(loss)/d(params) into compacted per-batch gradient rows.

    ``rho`` (B,) is each example's residual (phi - label) / B; ``es``/``eo``
    index rows of the (n_ent, d) entity gradient and ``rr`` rows of the
    relation gradients.  Returns ``(grad_ent, grad_sc, grad_rot)`` with
    ``grad_rot`` of shape (n_rel, n_blocks, 2), the layout of ``rel_rot``.
    """
    ns = msc.shape[1]
    r = rho[:, None]
    sx, sy = vs[:, ns::2], vs[:, ns + 1 :: 2]
    ox, oy = vo[:, ns::2], vo[:, ns + 1 :: 2]

    # d(rho v_s^T M v_o) is (rho M) v_o for v_s and (rho M)^T v_s for v_o
    rm = (r * msc, r * ma, r * mb)
    grad_ent = np.zeros((n_ent, vs.shape[1]))
    np.add.at(grad_ent, es, relation_matvec(*rm, vo))
    np.add.at(grad_ent, eo, relation_matvec(*rm, vs, transpose=True))

    grad_sc = np.zeros((n_rel, ns))
    np.add.at(grad_sc, rr, r * vs[:, :ns] * vo[:, :ns])

    grad_rot = np.zeros((n_rel, ma.shape[1], 2))
    np.add.at(grad_rot[..., 0], rr, r * (sx * ox + sy * oy))
    np.add.at(grad_rot[..., 1], rr, r * (sy * ox - sx * oy))
    return grad_ent, grad_sc, grad_rot

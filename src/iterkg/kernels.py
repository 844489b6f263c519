"""Hot numeric kernels of the block-diagonal bilinear model, in numpy.

Training spends most of its time in two places: the blockwise bilinear form
over a minibatch, and the scatter-accumulation of per-triple gradients into
shared embedding rows (entities and relations repeat within a batch, so this
is an indexed reduction, done with one ``np.bincount`` per gradient column).
Ranking and the entity gradients both apply a relation matrix, or its
transpose, to a batch of vectors; ``relation_matvec`` is that product.

Entity vectors are laid out to match the dense block pattern: coordinates
``[0, n_scalars)`` align with the scalar diagonal, then block j occupies the
coordinate pair ``(n_scalars + 2j, n_scalars + 2j + 1)``.

Batch-gathered inputs share one naming:
  vs, vo : (B, d) subject / object vectors
  msc    : (B, n_scalars) relation scalar diagonals
  ma, mb : (B, n_blocks) relation rotation components

Work buffers.  ``bilinear_scores``, ``relation_matvec`` and
``accumulate_grads`` take an optional keyword ``work``: a flat, contiguous
float64 array that the caller owns and the kernel carves its per-example
intermediates from, front to back (``carve``; ``work_size`` elements for
a batch).  ``relation_matvec`` also takes ``out`` for its product, and
``accumulate_grads`` builds its example rows and its gradients in
``work`` and returns views of them.  A kernel keeps no reference to a
buffer, and the next call overwrites what it left there.  Training
allocates one set of buffers per epoch (``embedding.StepBuffers``) and
every minibatch reuses their front, so a view of a buffer is valid only
until the next minibatch.  Without buffers each call allocates fresh
arrays; the arithmetic, and so every bit of every result, is the same
either way.
"""

from __future__ import annotations

import math

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


def work_size(rows: int, dim: int, n_blocks: int, ent_rows: int, rel_rows: int) -> int:
    """Elements of ``work`` the kernels need for ``rows`` examples touching
    ``ent_rows`` entities and ``rel_rows`` relations: ``accumulate_grads``'
    (rows, dim) example rows, two (rows, n_blocks) product planes and the
    gradient rows.  ``bilinear_scores``' three (rows, n_blocks) planes fit
    in the first two parts."""
    return rows * (dim + 2 * n_blocks) + (ent_rows + rel_rows) * dim


def carve(work, *shapes) -> list[np.ndarray]:
    """Contiguous float64 arrays of ``shapes``, laid end to end from the
    front of the flat buffer ``work``; new arrays when ``work`` is None."""
    if work is None:
        return [np.empty(shape) for shape in shapes]
    flat, arrays, at = work.reshape(-1), [], 0
    for shape in shapes:
        n = math.prod(shape)
        arrays.append(flat[at : at + n].reshape(shape))
        at += n
    return arrays


def bilinear_scores(vs, vo, msc, ma, mb, *, work=None) -> np.ndarray:
    """f_i = vs[i]^T M_r[i] vo[i], computed blockwise in one fused pass:
    the scalar slots' sum of products, plus the sum over blocks of
    ma * (sx*ox + sy*oy) + mb * (sy*ox - sx*oy)."""
    ns = msc.shape[1]
    sx, sy = vs[:, ns::2], vs[:, ns + 1 :: 2]
    ox, oy = vo[:, ns::2], vo[:, ns + 1 :: 2]
    f = np.einsum("ij,ij,ij->i", vs[:, :ns], msc, vo[:, :ns])
    t, u, p = carve(work, ma.shape, ma.shape, ma.shape)
    np.multiply(sx, ox, out=t)
    np.multiply(sy, oy, out=u)
    t += u
    t *= ma
    np.multiply(sy, ox, out=u)
    np.multiply(sx, oy, out=p)
    u -= p
    u *= mb
    t += u
    f += np.sum(t, axis=1)
    return f


def relation_matvec(msc, ma, mb, v, transpose: bool = False, out=None, *, work=None) -> np.ndarray:
    """M_r v (or M_r^T v) for rows of ``v`` of shape (..., d).

    Each 2x2 block is [[a, -b], [b, a]], so its transpose is the same
    block with b negated: (a*x + b*y, a*y - b*x) in place of
    (a*x - b*y, a*y + b*x).  Relation arrays broadcast against ``v``: one
    relation for many vectors, or one per row.  The product goes to ``out``
    (the shape of ``v``, not overlapping it) when given, else to a new
    array; ``out`` is returned.  ``work`` holds two product planes of
    B * n_blocks elements each.
    """
    ns = msc.shape[-1]
    vx, vy = v[..., ns::2], v[..., ns + 1 :: 2]
    if out is None:
        out = np.empty_like(v)
    ox, oy = out[..., ns::2], out[..., ns + 1 :: 2]
    # products go to contiguous planes; each strided output plane is
    # written once, never read
    p, q = carve(work, ox.shape, ox.shape)
    np.multiply(msc, v[..., :ns], out=out[..., :ns])
    x_op, y_op = (np.add, np.subtract) if transpose else (np.subtract, np.add)
    x_op(np.multiply(ma, vx, out=p), np.multiply(mb, vy, out=q), out=ox)
    y_op(np.multiply(ma, vy, out=p), np.multiply(mb, vx, out=q), out=oy)
    return out


def _scatter_rows(out: np.ndarray, idx: np.ndarray, rows: np.ndarray, scale: np.ndarray) -> None:
    """out[idx[i]] += scale[i] * rows[i] for every i, one ``np.bincount`` per
    column.  Columns of ``rows`` are read where they lie, strided or not; no
    array of the size of ``rows`` is built."""
    n = out.shape[0]
    for j in range(rows.shape[1]):
        out[:, j] += np.bincount(idx, rows[:, j] * scale, n)


def accumulate_grads(vs, vo, msc, ma, mb, rho, es, eo, rr, n_ent: int, n_rel: int, *, work=None):
    """Scatter d(loss)/d(params) into compacted per-batch gradient rows.

    ``rho`` (B,) is each example's residual (phi - label) / B; ``es``/``eo``
    index rows of the (n_ent, d) entity gradient and ``rr`` rows of the
    relation gradients.  The per-example rows and the gradients are built
    in ``work`` (at least ``work_size(B, d, n_blocks, n_ent, n_rel)``
    elements) when given.  Returns ``(grad_ent, grad_sc, grad_rot)`` with
    ``grad_rot`` of shape (n_rel, n_blocks, 2), the layout of ``rel_rot``;
    ``grad_sc`` and ``grad_rot`` are views of one (n_rel, d) array.
    """
    ns, (B, d) = msc.shape[1], vs.shape
    rows, pq, grad_ent, grad_rel = carve(work, (B, d), (2, *ma.shape), (n_ent, d), (n_rel, d))
    grad_ent.fill(0.0)
    grad_rel.fill(0.0)
    # d(rho v_s^T M v_o) is rho M v_o for v_s and rho M^T v_s for v_o
    _scatter_rows(grad_ent, es, relation_matvec(msc, ma, mb, vo, out=rows, work=pq), rho)
    _scatter_rows(grad_ent, eo, relation_matvec(msc, ma, mb, vs, transpose=True, out=rows, work=pq), rho)

    # one row per example in the layout of (scalars, rot): the scalar
    # slots' v_s * v_o, then each block's a and b components
    sx, sy = vs[:, ns::2], vs[:, ns + 1 :: 2]
    ox, oy = vo[:, ns::2], vo[:, ns + 1 :: 2]
    np.multiply(vs, vo, out=rows)
    rows[:, ns::2] += rows[:, ns + 1 :: 2]  # a: sx*ox + sy*oy
    np.subtract(np.multiply(sy, ox, out=pq[0]), np.multiply(sx, oy, out=pq[1]),
                out=rows[:, ns + 1 :: 2])  # b: sy*ox - sx*oy
    _scatter_rows(grad_rel, rr, rows, rho)
    return grad_ent, grad_rel[:, :ns], grad_rel[:, ns:].reshape(n_rel, ma.shape[1], 2)

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

Complex views.  A block [[a, -b], [b, a]] maps the pair (x, y) as a + ib
multiplies x + iy, and interleaved pairs are numpy's complex128 layout: the
kernels read a vector's blocks as the zero-copy view
``v[..., n_scalars:].view(np.complex128)``, and relations' (a, b) pairs as
``EmbeddingModel.rel_blocks``, so a block product is one complex multiply,
and M^T multiplies by the conjugate a - ib.  numpy may fuse its
multiply-adds (FMA): last bits can differ from ``a*x - b*y`` (``blocks.py``,
the reference) and between hosts, as BLAS products do, but not between
runs on one host.

Batch-gathered inputs share one naming:
  vs, vo : (B, d) subject / object vectors
  msc    : (B, n_scalars) relation scalar diagonals
  m      : (B, n_blocks) complex128 relation blocks a + ib

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
    (rows, dim) example rows, (rows, n_blocks) complex conjugates and the
    gradient rows; ``bilinear_scores`` needs less."""
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


def bilinear_scores(vs, vo, msc, m, *, work=None) -> np.ndarray:
    """f_i = vs[i]^T M_r[i] vo[i]: the scalar slots' sum of products, plus
    the real dot of the subject's block coordinates with the blocks of
    M_r vo, the complex product m * vo."""
    ns = msc.shape[1]
    f = np.einsum("ij,ij,ij->i", vs[:, :ns], msc, vo[:, :ns])
    (p,) = carve(work, vo[:, ns:].shape)
    np.multiply(m, vo[:, ns:].view(np.complex128), out=p.view(np.complex128))
    f += np.einsum("ij,ij->i", vs[:, ns:], p)
    return f


def relation_matvec(msc, m, v, transpose: bool = False, out=None, *, work=None) -> np.ndarray:
    """M_r v (or M_r^T v) for rows of ``v`` of shape (..., d).

    The blocks of M_r v are ``m * v_c`` over the complex view v_c of the
    block coordinates, those of M_r^T v ``conj(m) * v_c``, with the
    conjugate in ``work`` (2 * m.size elements).  Relation arrays broadcast
    against ``v``: one relation for many vectors, or one per row.  The
    product goes to ``out`` (the shape of ``v``, not overlapping it) when
    given, else to a new array; ``out`` is returned.
    """
    ns = msc.shape[-1]
    if out is None:
        out = np.empty_like(v)
    np.multiply(msc, v[..., :ns], out=out[..., :ns])
    if transpose:
        (conj,) = carve(work, (*m.shape, 2))
        m = np.conjugate(m, out=conj.view(np.complex128)[..., 0])
    np.multiply(m, v[..., ns:].view(np.complex128), out=out[..., ns:].view(np.complex128))
    return out


def _scatter_rows(out: np.ndarray, idx: np.ndarray, rows: np.ndarray, scale: np.ndarray) -> None:
    """out[idx[i]] += scale[i] * rows[i] for every i, one ``np.bincount`` per
    column.  Columns of ``rows`` are read where they lie, strided or not; no
    array of the size of ``rows`` is built."""
    n = out.shape[0]
    for j in range(rows.shape[1]):
        out[:, j] += np.bincount(idx, rows[:, j] * scale, n)


def accumulate_grads(vs, vo, msc, m, rho, es, eo, rr, n_ent: int, n_rel: int, *, work=None):
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
    rows, conj, grad_ent, grad_rel = carve(work, (B, d), (*m.shape, 2), (n_ent, d), (n_rel, d))
    grad_ent.fill(0.0)
    grad_rel.fill(0.0)
    # d(rho v_s^T M v_o) is rho M v_o for v_s and rho M^T v_s for v_o
    _scatter_rows(grad_ent, es, relation_matvec(msc, m, vo, out=rows), rho)
    _scatter_rows(grad_ent, eo, relation_matvec(msc, m, vs, transpose=True, out=rows, work=conj), rho)

    # one row per example in the layout of (scalars, rot): the scalar slots'
    # v_s * v_o, then each block's (a, b), the complex vs_c * conj(vo_c)
    np.multiply(vs[:, :ns], vo[:, :ns], out=rows[:, :ns])
    blocks = np.conjugate(vo[:, ns:].view(np.complex128), out=rows[:, ns:].view(np.complex128))
    blocks *= vs[:, ns:].view(np.complex128)
    _scatter_rows(grad_rel, rr, rows, rho)
    return grad_ent, grad_rel[:, :ns], grad_rel[:, ns:].reshape(n_rel, m.shape[1], 2)

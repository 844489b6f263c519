"""Hot numeric kernels of the block-diagonal bilinear model, in numpy.

Training spends most of its time in two places: the blockwise bilinear form
over a minibatch, and the scatter-accumulation of per-triple gradients into
shared embedding rows (entities and relations repeat within a batch, so this
is an indexed reduction, done with one ``np.bincount`` per gradient column).
Ranking applies a relation matrix, or its transpose, to a batch of vectors;
``relation_matvec`` is that product.

Entity vectors are laid out to match the dense block pattern: coordinates
``[0, n_scalars)`` align with the scalar diagonal, then block j occupies the
coordinate pair ``(n_scalars + 2j, n_scalars + 2j + 1)``.

Column-major planes.  Every parameter table (``EmbeddingModel``) is
Fortran-ordered, and so are the gradients ``accumulate_grads`` returns.
Training hands the kernels its per-example arrays as (B, ·) views of
C-ordered (·, B) arrays (Fortran order), gathered column by column from
the entity table and the relations' scalar diagonals, and the kernels take
each relation block column, a contiguous column of the relation table,
per example.  The kernels work one column at a time:
``accumulate_grads`` computes each of the 3·dim gradient columns of the
batch into a (B,) temporary, multiplies it by ``rho`` and sums it into its
rows with one ``np.bincount``.  Every operand is then a contiguous column,
and the temporaries stay in cache, where a C-ordered (B, dim) plane gives
each ``np.bincount`` a strided column and every pass over a plane goes to
memory.  Any layout gives the same values; this one is faster.

Blocks.  A block [[a, -b], [b, a]] maps the pair (x, y) to
(a x - b y, a y + b x), and its transpose to (a x + b y, a y - b x): the
formulas of ``blocks.py``, in real arithmetic on arrays of any layout
(``block_product``).  Training and ranking apply it to the columns
``v[:, ns::2]`` and ``v[:, ns+1::2]`` one block column at a time; axiom
scoring applies it to a block's (a, b) in place of (x, y), which multiplies
two blocks.  ``relation_parts`` splits relation rows into scalars, a and b.
All-scalar layouts do the diagonal model's arithmetic bit for bit.

The training kernels' inputs share one naming:
  vs, vo : (B, d) subject / object vectors of the examples
  msc    : (B, n_scalars) the examples' relation scalar diagonals
  ma, mb : (n, n_blocks) block components a and b of every relation
           (``relation_parts`` of a relation table), not per example
  r      : (B,) the examples' relation ids, rows of ``ma`` and ``mb``
The blocks are read per relation: for block column k the kernels take
``ma[r, k]`` and ``mb[r, k]`` into two (B,) temporaries with one
``np.take`` each, so no (B, n_blocks) copy of the relations exists.  The
ids must be in range: the takes use ``mode="wrap"``, which writes straight
into its output where the default ``"raise"`` buffers it.

Work buffers.  ``bilinear_scores`` and ``accumulate_grads`` take an
optional keyword ``work``: a flat, contiguous float64 array that the caller
owns and the kernel carves its temporaries from, front to back (``carve``,
which lays them out Fortran-ordered like the tables; ``work_size`` elements
for a batch).  ``accumulate_grads`` builds its gradients in ``work`` and
returns views of them.  A kernel keeps no reference to a buffer, and the
next call overwrites what it left there.  Each ``embedding.train_epoch``
call builds one set of buffers (``embedding.StepBuffers``) and every
minibatch of the epoch reuses their front, so a view of a buffer is valid
only until the next minibatch.  Without buffers each call
allocates fresh arrays; the arithmetic, and so every bit of every result,
is the same either way.
"""

from __future__ import annotations

import math

import numpy as np

# Benchmark host records carry this flag; the kernels have no numba variant.
NUMBA_ACTIVE = False


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function, from ``e = exp(-|x|)``, which
    never overflows: ``1 / (1 + e)`` where x >= 0, else ``e / (1 + e)``."""
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def work_size(rows: int, dim: int, ent_rows: int, rel_rows: int) -> int:
    """Elements of ``work`` the kernels need for ``rows`` examples touching
    ``ent_rows`` entities and ``rel_rows`` relations: six (rows,) columns,
    then ``accumulate_grads``' gradient rows."""
    return 6 * rows + (ent_rows + rel_rows) * dim


def carve(work, *shapes) -> list[np.ndarray]:
    """Fortran-ordered float64 arrays of ``shapes``, like every parameter
    table (the transposes of C arrays of the reversed shapes), laid end to
    end from the front of the flat buffer ``work``; new arrays when
    ``work`` is None."""
    if work is None:
        return [np.empty(shape[::-1]).T for shape in shapes]
    flat, arrays, at = work.reshape(-1), [], 0
    for shape in shapes:
        n = math.prod(shape)
        arrays.append(flat[at : at + n].reshape(shape[::-1]).T)
        at += n
    return arrays


def relation_parts(rel, n_scalars: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(scalars, a, b): views of the relation rows ``rel`` (..., d), laid
    out like ``EmbeddingModel.rel``."""
    return rel[..., :n_scalars], rel[..., n_scalars::2], rel[..., n_scalars + 1 :: 2]


def block_product(a, b, x, y, ox, oy, transpose: bool, t) -> None:
    """(ox, oy) = the blocks [[a, -b], [b, a]] applied to the pairs (x, y),
    or their transposes: ``blocks.py``'s product formulas, elementwise over
    broadcast arrays.  ``t`` is a temporary of the broadcast shape; the
    outputs must not overlap the inputs."""
    first, second = (np.add, np.subtract) if transpose else (np.subtract, np.add)
    first(np.multiply(a, x, out=ox), np.multiply(b, y, out=t), out=ox)
    second(np.multiply(a, y, out=oy), np.multiply(b, x, out=t), out=oy)


def bilinear_scores(vs, vo, msc, ma, mb, r, *, work=None) -> np.ndarray:
    """f_i = vs[i]^T M_r[i] vo[i]: the scalar slots' sum of products, plus
    the subject's block coordinates times those of M_r vo, summed block
    column by block column."""
    ns = msc.shape[1]
    f = np.einsum("ij,ij,ij->i", vs[:, :ns], msc, vo[:, :ns])
    a, b, px, py, t, blocks = carve(work, *[f.shape] * 6)
    blocks.fill(0.0)
    for k in range(ma.shape[1]):
        x, y = ns + 2 * k, ns + 2 * k + 1
        np.take(ma[:, k], r, out=a, mode="wrap")
        np.take(mb[:, k], r, out=b, mode="wrap")
        block_product(a, b, vo[:, x], vo[:, y], px, py, False, t)
        blocks += np.multiply(vs[:, x], px, out=px)
        blocks += np.multiply(vs[:, y], py, out=py)
    f += blocks
    return f


def relation_matvec(msc, ma, mb, v, transpose: bool = False) -> np.ndarray:
    """M_r v (or M_r^T v) for rows of ``v`` of shape (..., d), as a new
    array.  Relation arrays broadcast against ``v``: one relation for many
    vectors, or one per row."""
    ns = msc.shape[-1]
    out = np.empty_like(v)
    np.multiply(msc, v[..., :ns], out=out[..., :ns])
    t = np.empty(np.broadcast_shapes(ma.shape, v[..., ns::2].shape)[:-1])
    for k in range(ma.shape[-1]):
        x, y = ns + 2 * k, ns + 2 * k + 1
        block_product(ma[..., k], mb[..., k], v[..., x], v[..., y], out[..., x], out[..., y], transpose, t)
    return out


def accumulate_grads(vs, vo, msc, ma, mb, r, rho, es, eo, rr, n_ent: int, n_rel: int, *, work=None):
    """Scatter d(loss)/d(params) into compacted per-batch gradient rows.

    ``rho`` (B,) is each example's residual (phi - label) / B; ``es``/``eo``
    index rows of the (n_ent, d) entity gradient and ``rr`` rows of the
    relation gradients; ``r`` indexes the relation tables ``ma`` and ``mb``.
    Each gradient column is computed for the whole batch into a (B,)
    temporary, multiplied by ``rho`` and summed into its rows by one
    ``np.bincount``: for each column the subject's, then the object's, then
    the relation's.  The temporaries and the gradients are carved from
    ``work`` (at least ``work_size(B, d, n_ent, n_rel)`` elements) when
    given.  Returns ``(grad_ent, grad_rel)``, (n_ent, d) and (n_rel, d),
    Fortran-ordered like the tables; a row of ``grad_rel`` is laid out like
    one of ``EmbeddingModel.rel``: the scalar slots, then each block's
    (a, b).
    """
    ns, (B, d) = msc.shape[1], vs.shape
    a, b, cx, cy, t, grad_ent, grad_rel = carve(work, *[(B,)] * 5, (n_ent, d), (n_rel, d))
    grad_ent.fill(0.0)
    grad_rel.fill(0.0)

    def scatter(grad, idx, j, col):
        col *= rho
        grad[:, j] += np.bincount(idx, col, len(grad))

    # d(rho v_s^T M v_o) is rho M v_o for v_s, rho M^T v_s for v_o, and for
    # M the scalar slots' rho v_s * v_o and each block's rho (a, b) with
    # (a, b) = (sx ox + sy oy, sy ox - sx oy), the transposed block product
    # with v_o's pair in the relation's place
    for j in range(ns):
        scatter(grad_ent, es, j, np.multiply(msc[:, j], vo[:, j], out=t))
        scatter(grad_ent, eo, j, np.multiply(msc[:, j], vs[:, j], out=t))
        scatter(grad_rel, rr, j, np.multiply(vs[:, j], vo[:, j], out=t))
    for k in range(ma.shape[1]):
        x, y = ns + 2 * k, ns + 2 * k + 1
        np.take(ma[:, k], r, out=a, mode="wrap")
        np.take(mb[:, k], r, out=b, mode="wrap")
        for p, q, v, grad, idx, transpose in ((a, b, vo, grad_ent, es, False),
                                              (a, b, vs, grad_ent, eo, True),
                                              (vo[:, x], vo[:, y], vs, grad_rel, rr, True)):
            block_product(p, q, v[:, x], v[:, y], cx, cy, transpose, t)
            scatter(grad, idx, x, cx)
            scatter(grad, idx, y, cy)
    return grad_ent, grad_rel

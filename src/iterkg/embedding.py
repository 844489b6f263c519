"""Block-diagonal bilinear embedding model and its training loop.

A triple (s, r, o) is scored as sigmoid(v_s^T M_r v_o) where M_r is
block-diagonal: reals, then 2x2 rotation-scale blocks.  Training minimizes
the mean cross-entropy between triple scores and soft labels: 1 for graph
triples, 0 for negatives, and the axiom score for injected triples.  An L1
subgradient on batch-touched parameters and sparse Adam updates complete
the step.  Examples travel as int64 id arrays with a label array
(``TripleBatch``), and negatives are drawn for a whole minibatch at once.
All randomness flows through explicit numpy Generators.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence

import numpy as np

from . import kernels
from .kg import KnowledgeGraph, Triple, compact_ids

log = logging.getLogger(__name__)

LOG_CLAMP = 1e-12  # floor for log arguments in the cross-entropy
# Adam writes a table this many columns at a time
# (_put_rows): fewer cost more numpy calls per write, and more stride across
# too much memory per row at (14,541 x 200)
COLUMN_BLOCK = 16
# Adam's moment decay rates and the epsilon of its denominator
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class LabeledTriple(NamedTuple):
    triple: Triple
    label: float


@dataclass(frozen=True)
class TripleBatch:
    """Labeled training examples as arrays: ``ids`` (B, 3) int64 rows of
    (subject, relation, object) and ``labels`` (B,) float64."""

    ids: np.ndarray
    labels: np.ndarray

    def __len__(self) -> int:
        return len(self.labels)

    def __add__(self, other: "TripleBatch") -> "TripleBatch":
        return TripleBatch(np.concatenate([self.ids, other.ids]),
                           np.concatenate([self.labels, other.labels]))

    @classmethod
    def of(cls, triples, labels) -> "TripleBatch":
        """From any (B, 3) id sequence and B labels."""
        return cls(np.asarray(triples, dtype=np.int64).reshape(-1, 3),
                   np.asarray(labels, dtype=np.float64).reshape(-1))


def as_batch(examples: TripleBatch | Sequence[LabeledTriple]) -> TripleBatch:
    """``examples`` as a TripleBatch; a TripleBatch is returned as is."""
    if isinstance(examples, TripleBatch):
        return examples
    return TripleBatch.of([lt.triple for lt in examples], [lt.label for lt in examples])


@dataclass
class TrainConfig:
    dim: int = 200
    n_negatives: int = 6
    l1_weight: float = 1e-5
    learning_rate: float = 0.001
    batch_size: int = 1024
    epochs_per_iteration: int = 10
    seed: int = 0
    n_scalars: Optional[int] = None  # defaults to dim / 2

    def __post_init__(self):
        if self.dim <= 0 or self.dim % 2 != 0:
            raise ValueError(f"embedding dimension must be a positive even number, got {self.dim}")
        if self.n_scalars is None:
            self.n_scalars = self.dim // 2
        if not 0 <= self.n_scalars <= self.dim or (self.dim - self.n_scalars) % 2 != 0:
            raise ValueError(
                f"invalid layout: dim={self.dim}, n_scalars={self.n_scalars} "
                "(dim - n_scalars must be even; the default n_scalars=dim/2 needs dim % 4 == 0)"
            )
        for name in ("learning_rate", "l1_weight"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be at least 1, got {self.batch_size}")
        if self.n_negatives < 0:
            raise ValueError(f"n_negatives must be at least 0, got {self.n_negatives}")
        if self.l1_weight < 0:
            raise ValueError("l1_weight must be non-negative")
        if self.epochs_per_iteration < 1:
            raise ValueError("epochs_per_iteration must be >= 1")

    @property
    def n_blocks(self) -> int:
        return (self.dim - self.n_scalars) // 2


@dataclass
class AdamState:
    m_ent: np.ndarray
    v_ent: np.ndarray
    m_rel: np.ndarray
    v_rel: np.ndarray
    step: int = 0


@dataclass
class EmbeddingModel:
    """Entity vectors plus one block-diagonal matrix per relation.

    Every table (``ent``, ``rel`` and their Adam moments) is stored
    Fortran-ordered, so training gathers and writes it column by column
    (see ``kernels``).  A row of ``rel`` holds relation r's scalar
    diagonal, then each block's (a, b).  Every constructor here keeps this
    layout; others give the same values, only slower.  ``rel_scalars`` and
    ``rel_rot`` (the (n_blocks, 2) pairs) are writable views of ``rel``.
    Training is the single writer; scoring reads only.
    """

    ent: np.ndarray  # (n_entities, dim), Fortran-ordered
    rel: np.ndarray  # (n_relations, dim), Fortran-ordered
    n_scalars: int
    opt: AdamState = field(repr=False, default=None)

    @property
    def n_entities(self) -> int:
        return self.ent.shape[0]

    @property
    def n_relations(self) -> int:
        return self.rel.shape[0]

    @property
    def dim(self) -> int:
        return self.ent.shape[1]

    @property
    def n_blocks(self) -> int:
        return (self.rel.shape[1] - self.n_scalars) // 2

    @property
    def rel_scalars(self) -> np.ndarray:
        return self.rel[:, : self.n_scalars]

    @property
    def rel_rot(self) -> np.ndarray:
        return self.rel[:, self.n_scalars :].reshape(self.n_relations, -1, 2)

    def copy(self) -> "EmbeddingModel":
        o = self.opt
        ent, rel, m_ent, v_ent, m_rel, v_rel = (np.array(a, order="F") for a in
                                                (self.ent, self.rel, o.m_ent, o.v_ent, o.m_rel, o.v_rel))
        return EmbeddingModel(ent, rel, self.n_scalars, AdamState(m_ent, v_ent, m_rel, v_rel, o.step))


def all_finite(table: np.ndarray) -> bool:
    """Whether every value of ``table`` is finite, read from its min and max
    (both propagate NaN), so no boolean temporary of its size is built."""
    return bool(np.isfinite(table.min()) and np.isfinite(table.max()))


def init_model(n_entities: int, n_relations: int, config: TrainConfig) -> EmbeddingModel:
    """Initialize all parameters i.i.d. uniform on (-0.1, 0.1), seeded;
    every table is Fortran-ordered."""
    if n_entities < 1 or n_relations < 1:
        raise ValueError("need at least one entity and one relation")
    rng = np.random.default_rng(config.seed)
    ns, nb = config.n_scalars, config.n_blocks
    ent = np.asfortranarray(rng.uniform(-0.1, 0.1, size=(n_entities, config.dim)))
    rel = np.asfortranarray(np.concatenate([rng.uniform(-0.1, 0.1, size=(n_relations, ns)),
                                            rng.uniform(-0.1, 0.1, size=(n_relations, 2 * nb))], axis=1))
    opt = AdamState(m_ent=np.zeros_like(ent), v_ent=np.zeros_like(ent),
                    m_rel=np.zeros_like(rel), v_rel=np.zeros_like(rel))
    return EmbeddingModel(ent, rel, ns, opt)


class StepBuffers(NamedTuple):
    """Work arrays of training steps, for minibatches of up to ``rows``
    examples of one model's shape.

    ``train_epoch`` builds one set per call, which every minibatch of the
    epoch reuses and which is freed when it returns: ``_gather`` carves
    the examples' (dim, B) subject and object columns and (n_scalars, B)
    relation scalars from the front of ``planes``, and the kernels carve
    their intermediates, the relations' block columns and the gradients
    from ``work``.  The gathered columns are dead once
    ``kernels.accumulate_grads`` returns, so the L1 term and Adam carve
    their parameter rows, column-major like every table, from the front of
    ``planes`` too, which is sized for whichever of the two uses is
    larger.  A table whose every row the minibatch touches is read and
    updated in place instead of through gathered rows; its intermediates
    still come from ``planes``.  A view of a buffer is valid until the
    next minibatch.
    """

    rows: int
    planes: np.ndarray  # flat: gathered subject, object and scalar columns, later L1/Adam rows
    work: np.ndarray    # flat: kernel intermediates, then the gradients

    @classmethod
    def empty(cls, model: EmbeddingModel, rows: int) -> StepBuffers:
        """Buffers for minibatches of up to ``rows`` examples."""
        d = model.dim
        ent_rows, rel_rows = min(model.n_entities, 2 * rows), min(model.n_relations, rows)
        return cls(rows, np.empty(max((2 * d + model.n_scalars) * rows, 3 * max(ent_rows, rel_rows) * d)),
                   np.empty(kernels.work_size(rows, d, ent_rows, rel_rows)))


def _check_ids(model: EmbeddingModel, s: np.ndarray, r: np.ndarray, o: np.ndarray) -> None:
    """Raise ValueError unless every subject and object id names an entity
    of ``model`` and every relation id one of its relations."""
    for ids, n, what in ((s, model.n_entities, "entities"), (o, model.n_entities, "entities"),
                         (r, model.n_relations, "relations")):
        if len(ids) and (ids.min() < 0 or ids.max() >= n):
            raise ValueError(f"id outside the model's {n} {what}: {ids.min()}..{ids.max()}")


def _gather(model: EmbeddingModel, s: np.ndarray, r: np.ndarray, o: np.ndarray,
            planes: Optional[np.ndarray] = None):
    """The kernels' inputs ``(vs, vo, msc, ma, mb, r)`` for the examples,
    after ``_check_ids``.

    ``vs``, ``vo`` and ``msc`` are column-major (B, ·) views of (·, B)
    arrays gathered column by column from the transposed entity table and
    relation scalars, new or carved from the front of the flat ``planes``.
    ``ma`` and ``mb`` are the blocks of the whole relation table
    (``kernels.relation_parts``), which the kernels read per relation
    through ``r``: no block is copied per example.
    """
    _check_ids(model, s, r, o)
    msc_table, ma, mb = kernels.relation_parts(model.rel, model.n_scalars)
    vs, vo, msc = kernels.carve(planes, (len(s), model.dim), (len(s), model.dim), (len(s), model.n_scalars))
    # the ids are in range, and "wrap" (unlike "raise") takes straight into
    # ``out``; it measured a little faster than "clip"
    for table, ids, out in ((model.ent, s, vs), (model.ent, o, vo), (msc_table, r, msc)):
        np.take(table.T, ids, axis=1, out=out.T, mode="wrap")
    return vs, vo, msc, ma, mb, r


def raw_scores(model: EmbeddingModel, s: np.ndarray, r: np.ndarray, o: np.ndarray) -> np.ndarray:
    """Pre-sigmoid bilinear scores for index arrays."""
    return kernels.bilinear_scores(*_gather(model, s, r, o))


def sample_negatives(
    kg: KnowledgeGraph, triples: np.ndarray, n: int, rng: np.random.Generator,
    max_retries: int = 100,
) -> tuple[np.ndarray, int]:
    """Corrupt each row of ``triples`` (m, 3), in-range id triples, into
    ``n`` negatives.

    Each negative corrupts one position drawn uniformly from those that have
    an alternative id (the relation only when the graph has more than one,
    subject and object only when it has more than one entity); the
    replacement is uniform over that vocabulary.  A candidate equal to its
    source or present in the graph keeps its position and redraws its
    replacement, together with every other such candidate, for at most
    ``max_retries`` rounds; candidates still rejected then are dropped.

    RNG contract: one ``rng.integers(len(positions), size=m * n)`` for the
    positions (skipped when ``m * n`` is 0 or no position has an
    alternative), then one ``rng.integers(high[pending])`` per round while
    candidates are pending, where ``high`` is each candidate's vocabulary
    size and ``pending`` lists the candidates still rejected, ascending
    (every candidate in the first round).

    Candidates are tested as packed keys (``kg.pack``): a source's key is
    packed once, and a candidate's key is its source's plus
    ``(new - old) * w`` for the corrupted position's weight ``w`` in
    ``kg.key_weights``.

    Returns ``(negatives, n_exhausted)``: the (k, 3) corruptions, grouped by
    source row in input order, and the number of source rows that got fewer
    than ``n``.
    """
    triples = np.asarray(triples, dtype=np.int64).reshape(-1, 3)
    cand = np.repeat(triples, n, axis=0)
    if len(cand) == 0:
        return cand, 0
    n_ent, n_rel = kg.n_entities, kg.n_relations
    positions = [p for p, size in ((0, n_ent), (1, n_rel), (2, n_ent)) if size > 1]
    if not positions:
        return cand[:0], len(triples)
    pos = np.asarray(positions)[rng.integers(len(positions), size=len(cand))]
    if max_retries < 1:
        return cand[:0], len(triples)
    # each candidate's key is `base + repl * weight`: its source's key with
    # the corrupted position's id taken out
    flat = cand.reshape(-1)
    cell = np.arange(0, len(flat), 3) + pos
    old = flat[cell]
    base = np.repeat(kg.pack(*triples.T), n)
    weight = kg.key_weights[pos]
    base -= old * weight
    high = np.array([n_ent, n_rel, n_ent])[pos]
    repl = rng.integers(high)
    pending = np.flatnonzero((repl == old) | kg.contains_keys(base + repl * weight))
    for _ in range(max_retries - 1):
        if len(pending) == 0:
            break
        redraw = rng.integers(high[pending])
        repl[pending] = redraw
        rejected = (redraw == old[pending]) | kg.contains_keys(base[pending] + redraw * weight[pending])
        pending = pending[rejected]
    flat[cell] = repl
    if len(pending) == 0:
        return cand, 0
    keep = np.ones(len(cand), dtype=bool)
    keep[pending] = False
    source = pending // n
    return cand[keep], 1 + int(np.count_nonzero(source[1:] != source[:-1]))


@dataclass
class SparseGrads:
    """Gradients for the parameters touched by one batch, Fortran-ordered
    like the tables; ``rel_grad`` rows are laid out like
    ``EmbeddingModel.rel``, and ``scalar_grad`` (nr, n_scalars) and
    ``rot_grad`` (nr, n_blocks, 2) are views of them."""

    ent_ids: np.ndarray   # (ne,) unique entity ids
    ent_grad: np.ndarray  # (ne, dim)
    rel_ids: np.ndarray   # (nr,) unique relation ids
    rel_grad: np.ndarray  # (nr, dim)
    n_scalars: int

    @property
    def scalar_grad(self) -> np.ndarray:
        return self.rel_grad[:, : self.n_scalars]

    @property
    def rot_grad(self) -> np.ndarray:
        return self.rel_grad[:, self.n_scalars :].reshape(len(self.rel_grad), -1, 2)


def _take_rows(table: np.ndarray, ids: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``table[ids]`` for ascending, distinct, in-range ``ids``: ``table``
    itself when they name every row, else a copy into ``out`` (returned),
    taken column by column."""
    if len(ids) == len(table):
        return table
    np.take(table.T, ids, axis=1, out=out.T, mode="wrap")
    return out


def _put_rows(table: np.ndarray, ids: np.ndarray, rows: np.ndarray) -> None:
    """``table[ids] = rows``; nothing to do when ``rows`` is ``table``
    (``_take_rows`` of every row).  The table is written ``COLUMN_BLOCK``
    of its columns at a time, with no index array."""
    if rows is table:
        return
    columns, values = table.T, rows.T
    for j in range(0, len(columns), COLUMN_BLOCK):
        columns[j : j + COLUMN_BLOCK, ids] = values[j : j + COLUMN_BLOCK]


def compute_loss_and_gradients(
    model: EmbeddingModel, batch: TripleBatch | Sequence[LabeledTriple], l1_weight: float,
    *, buffers: Optional[StepBuffers] = None,
) -> tuple[float, SparseGrads]:
    """Mean cross-entropy over the batch plus L1 on touched parameters.

    Gradients are analytic; the L1 term contributes a sign subgradient on
    every parameter touched by the batch (full entity rows and full
    relation matrices), read from the table itself when the batch touches
    every row of it, else from gathered rows.  An id outside the model
    raises ValueError.  With ``buffers`` the step's arrays are written
    there instead of allocated, and the returned gradients are views of
    them, valid until the buffers' next use; every value is the same.
    Buffers for fewer than len(batch) examples raise ValueError.
    """
    if len(batch) == 0:
        raise ValueError("batch must be non-empty")
    batch = as_batch(batch)
    labels = batch.labels
    s, r, o = batch.ids.T
    B = len(batch)
    if buffers is not None and buffers.rows < B:
        raise ValueError(f"step buffers for {buffers.rows} examples; the batch has {B}")

    gathered = _gather(model, s, r, o, None if buffers is None else buffers.planes)
    work = None if buffers is None else buffers.work
    phi = kernels.sigmoid(kernels.bilinear_scores(*gathered, work=work))
    ce = -labels * np.log(np.maximum(phi, LOG_CLAMP)) \
         - (1.0 - labels) * np.log(np.maximum(1.0 - phi, LOG_CLAMP))
    loss = float(np.mean(ce))
    rho = (phi - labels) / B

    ent_ids, ent_inv = compact_ids(np.concatenate([s, o]), model.n_entities)
    rel_ids, rel_inv = compact_ids(r, model.n_relations)
    es, eo = ent_inv[:B], ent_inv[B:]

    grad_ent, grad_rel = kernels.accumulate_grads(
        *gathered, rho, es, eo, rel_inv, len(ent_ids), len(rel_ids), work=work)

    if l1_weight > 0:
        scratch = None if buffers is None else buffers.planes  # the gathered columns are dead
        norm = 0.0
        for param, ids, grad in ((model.ent, ent_ids, grad_ent), (model.rel, rel_ids, grad_rel)):
            rows, sign = kernels.carve(scratch, *[(len(ids), model.dim)] * 2)
            rows = _take_rows(param, ids, rows)
            np.sign(rows, out=sign)
            sign *= l1_weight
            grad += sign
            norm += np.abs(rows, out=sign).sum()
        loss += l1_weight * float(norm)

    return loss, SparseGrads(ent_ids, grad_ent, rel_ids, grad_rel, model.n_scalars)


def adam_update(model: EmbeddingModel, grads: SparseGrads, config: TrainConfig,
                *, scratch: Optional[np.ndarray] = None) -> None:
    """One sparse Adam step in place; only touched parameters move.

    Moment accumulators of untouched parameters are left as-is; bias
    correction uses the global step counter, incremented once per call.
    The row intermediates are carved from the flat ``scratch`` (three
    planes of the largest gradient) when given, else allocated.  Tables
    are read and written column by column.  A table
    whose every row has a gradient (the relations of most minibatches) is
    updated in place, with no gather or write-back; each element gets the
    same operations in the same order either way.  Gradient rows must be
    ascending and distinct, as ``compute_loss_and_gradients`` gives them.
    """
    for g in (grads.ent_grad, grads.rel_grad):
        if not np.all(np.isfinite(g)):
            raise ValueError("non-finite gradient: refusing to update")
    for ids, n in ((grads.ent_ids, model.n_entities), (grads.rel_ids, model.n_relations)):
        if not (ids[1:] > ids[:-1]).all():
            raise ValueError("gradient rows must be ascending and distinct")
        if len(ids) and (ids[0] < 0 or ids[-1] >= n):
            raise ValueError(f"gradient rows outside the model's {n} rows")
    b1, b2, eps, lr = ADAM_BETA1, ADAM_BETA2, ADAM_EPS, config.learning_rate
    opt = model.opt
    opt.step += 1
    c1 = 1.0 - b1 ** opt.step
    c2 = 1.0 - b2 ** opt.step

    def _apply(param, m, v, ids, grad):
        # m' = b1*m + (1-b1)*g, v' = b2*v + (1-b2)*g*g, and
        # param -= lr * (m'/c1) / (sqrt(v'/c2) + eps), one operation at a
        # time.  When ids name every row the rows are the tables themselves,
        # so sqrt(v'/c2) goes to the v buffer, not over the moments
        m_buf, v_buf, t = kernels.carve(scratch, *[(len(ids), model.dim)] * 3)
        m_rows = _take_rows(m, ids, m_buf)
        m_rows *= b1
        m_rows += np.multiply(grad, 1 - b1, out=t)
        v_rows = _take_rows(v, ids, v_buf)
        v_rows *= b2
        np.multiply(grad, 1 - b2, out=t)
        v_rows += np.multiply(t, grad, out=t)
        _put_rows(m, ids, m_rows)
        _put_rows(v, ids, v_rows)
        np.divide(m_rows, c1, out=t)
        t *= lr
        den = np.divide(v_rows, c2, out=v_buf)
        np.sqrt(den, out=den)
        den += eps
        t /= den
        rows = _take_rows(param, ids, m_buf)
        rows -= t
        _put_rows(param, ids, rows)

    _apply(model.ent, opt.m_ent, opt.v_ent, grads.ent_ids, grads.ent_grad)
    _apply(model.rel, opt.m_rel, opt.v_rel, grads.rel_ids, grads.rel_grad)


def train_epoch(
    model: EmbeddingModel,
    inputs: TripleBatch | Sequence[LabeledTriple],
    kg: KnowledgeGraph,
    config: TrainConfig,
    rng: np.random.Generator,
) -> float:
    """One pass over the labeled inputs; returns the mean batch loss.

    Inputs are the graph triples (label 1) plus any injected triples (label
    = axiom score).  Each minibatch draws ``n_negatives`` negatives per
    graph triple in one ``sample_negatives`` call; injected triples train on
    their soft label alone.  Graph triples whose retry budget ran out before
    ``n_negatives`` were found are counted and logged as a warning.  An
    input id outside the model, or a graph with more entities or relations
    than the model, raises ValueError before any parameter moves.  The
    minibatches share one ``StepBuffers``, sized for a full minibatch with
    its negatives, allocated for this call and freed when it returns.
    """
    if len(inputs) == 0:
        raise ValueError("no training inputs")
    inputs = as_batch(inputs)
    if kg.n_entities > model.n_entities or kg.n_relations > model.n_relations:
        raise ValueError(f"graph of {kg.n_entities} entities and {kg.n_relations} relations "
                         f"is larger than the model's {model.n_entities} and {model.n_relations}")
    _check_ids(model, *inputs.ids.T)
    buffers = StepBuffers.empty(model, min(len(inputs), config.batch_size) * (1 + config.n_negatives))
    order = rng.permutation(len(inputs))
    in_graph = kg.contains_many(*inputs.ids.T)
    total, count = 0.0, 0
    n_exhausted = 0
    for start in range(0, len(inputs), config.batch_size):
        idx = order[start : start + config.batch_size]
        chunk = TripleBatch(inputs.ids[idx], inputs.labels[idx])
        negs, short = sample_negatives(kg, chunk.ids[in_graph[idx]], config.n_negatives, rng)
        expanded = chunk + TripleBatch(negs, np.zeros(len(negs)))
        n_exhausted += short
        loss, grads = compute_loss_and_gradients(model, expanded, config.l1_weight, buffers=buffers)
        adam_update(model, grads, config, scratch=buffers.planes)
        total += loss * len(expanded)
        count += len(expanded)
    if n_exhausted:
        log.warning("negative sampling ran out of retries for %d graph triples this epoch; "
                    "they trained on fewer than %d negatives", n_exhausted, config.n_negatives)
    return total / count

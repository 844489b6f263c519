"""Block-diagonal bilinear embedding model and its training loop.

A triple (s, r, o) is scored as sigmoid(v_s^T M_r v_o) where M_r is a
block-diagonal matrix (see blocks.py).  Training minimizes the mean
cross-entropy between triple scores and soft labels: 1 for graph triples,
0 for sampled negatives, and the axiom score for injected triples.  An L1
subgradient on batch-touched parameters and sparse Adam updates complete
the step.  All randomness flows through explicit numpy Generators.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence

import numpy as np

from . import kernels
from .blocks import BlockDiagMatrix
from .kg import KnowledgeGraph, Triple

log = logging.getLogger(__name__)

LOG_CLAMP = 1e-12  # floor for log arguments in the cross-entropy


class LabeledTriple(NamedTuple):
    triple: Triple
    label: float


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
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8

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
        if self.learning_rate <= 0 or self.batch_size < 1 or self.n_negatives < 0:
            raise ValueError("learning rate, batch size and negative count must be positive")
        if self.l1_weight < 0:
            raise ValueError("l1_weight must be non-negative")

    @property
    def n_blocks(self) -> int:
        return (self.dim - self.n_scalars) // 2


@dataclass
class AdamState:
    m_ent: np.ndarray
    v_ent: np.ndarray
    m_sc: np.ndarray
    v_sc: np.ndarray
    m_rot: np.ndarray
    v_rot: np.ndarray
    step: int = 0


@dataclass
class EmbeddingModel:
    """Entity vectors plus one block-diagonal matrix per relation.

    Relation matrices are stored stacked: ``rel_scalars[r]`` is the scalar
    diagonal and ``rel_rot[r]`` the (n_blocks, 2) rotation components of
    relation r.  Training is the single writer; scoring reads only.
    """

    ent: np.ndarray        # (n_entities, dim)
    rel_scalars: np.ndarray  # (n_relations, n_scalars)
    rel_rot: np.ndarray      # (n_relations, n_blocks, 2)
    opt: AdamState = field(repr=False, default=None)

    @property
    def n_entities(self) -> int:
        return self.ent.shape[0]

    @property
    def n_relations(self) -> int:
        return self.rel_scalars.shape[0]

    @property
    def dim(self) -> int:
        return self.ent.shape[1]

    @property
    def n_scalars(self) -> int:
        return self.rel_scalars.shape[1]

    @property
    def n_blocks(self) -> int:
        return self.rel_rot.shape[1]

    @property
    def layout(self) -> tuple[int, int]:
        return (self.n_scalars, self.n_blocks)

    def relation_matrix(self, r: int) -> BlockDiagMatrix:
        return BlockDiagMatrix(self.rel_scalars[r].copy(), self.rel_rot[r].copy())

    def copy(self) -> "EmbeddingModel":
        o = self.opt
        return EmbeddingModel(
            self.ent.copy(), self.rel_scalars.copy(), self.rel_rot.copy(),
            AdamState(o.m_ent.copy(), o.v_ent.copy(), o.m_sc.copy(), o.v_sc.copy(),
                      o.m_rot.copy(), o.v_rot.copy(), o.step),
        )


def init_model(n_entities: int, n_relations: int, config: TrainConfig) -> EmbeddingModel:
    """Initialize all parameters i.i.d. uniform on (-0.1, 0.1), seeded."""
    if n_entities < 1 or n_relations < 1:
        raise ValueError("need at least one entity and one relation")
    rng = np.random.default_rng(config.seed)
    ns, nb = config.n_scalars, config.n_blocks
    ent = rng.uniform(-0.1, 0.1, size=(n_entities, config.dim))
    sc = rng.uniform(-0.1, 0.1, size=(n_relations, ns))
    rot = rng.uniform(-0.1, 0.1, size=(n_relations, nb, 2))
    opt = AdamState(
        m_ent=np.zeros_like(ent), v_ent=np.zeros_like(ent),
        m_sc=np.zeros_like(sc), v_sc=np.zeros_like(sc),
        m_rot=np.zeros_like(rot), v_rot=np.zeros_like(rot),
    )
    return EmbeddingModel(ent, sc, rot, opt)


def _gather(model: EmbeddingModel, s: np.ndarray, r: np.ndarray, o: np.ndarray):
    vs = model.ent[s]
    vo = model.ent[o]
    msc = model.rel_scalars[r]
    ma = model.rel_rot[r, :, 0]
    mb = model.rel_rot[r, :, 1]
    return vs, vo, msc, ma, mb


def raw_scores(model: EmbeddingModel, s: np.ndarray, r: np.ndarray, o: np.ndarray) -> np.ndarray:
    """Pre-sigmoid bilinear scores for index arrays."""
    return kernels.bilinear_scores(*_gather(model, s, r, o))


def score_triples(model: EmbeddingModel, triples: Sequence[Triple]) -> np.ndarray:
    arr = np.asarray(triples, dtype=np.int64).reshape(-1, 3)
    return kernels.sigmoid(raw_scores(model, arr[:, 0], arr[:, 1], arr[:, 2]))


def score_triple(model: EmbeddingModel, t: Triple) -> float:
    return float(score_triples(model, [t])[0])


def sample_negatives(
    kg: KnowledgeGraph, t: Triple, n: int, rng: np.random.Generator, max_retries: int = 100
) -> tuple[list[LabeledTriple], bool]:
    """Corrupt ``t`` into ``n`` negatives labeled 0.

    Each negative corrupts one position chosen uniformly from
    {subject, relation, object}; replacements are uniform over the full
    vocabulary.  Corruptions that land back in the graph (false negatives)
    or reproduce ``t`` are resampled up to ``max_retries`` times.  Returns
    the negatives plus a flag that is True when the retry budget ran out
    and fewer than ``n`` were produced (pathological tiny graphs).
    """
    n_ent, n_rel = kg.n_entities, kg.n_relations
    negatives: list[LabeledTriple] = []
    exhausted = False
    for _ in range(n):
        pos = int(rng.integers(3))
        for _ in range(max_retries):
            if pos == 0:
                cand = Triple(int(rng.integers(n_ent)), t.relation, t.object)
            elif pos == 1:
                cand = Triple(t.subject, int(rng.integers(n_rel)), t.object)
            else:
                cand = Triple(t.subject, t.relation, int(rng.integers(n_ent)))
            if cand != t and not kg.contains(*cand):
                negatives.append(LabeledTriple(cand, 0.0))
                break
        else:
            exhausted = True
    return negatives, exhausted


@dataclass
class SparseGrads:
    """Gradients for the parameters touched by one batch."""

    ent_ids: np.ndarray    # (ne,) unique entity ids
    ent_grad: np.ndarray   # (ne, dim)
    rel_ids: np.ndarray    # (nr,) unique relation ids
    scalar_grad: np.ndarray  # (nr, n_scalars)
    rot_grad: np.ndarray     # (nr, n_blocks, 2)


def compute_loss_and_gradients(
    model: EmbeddingModel, batch: Sequence[LabeledTriple], l1_weight: float
) -> tuple[float, SparseGrads]:
    """Mean cross-entropy over the batch plus L1 on touched parameters.

    Gradients are analytic; the L1 term contributes a sign subgradient on
    every parameter gathered by the batch (full entity rows and full
    relation matrices).
    """
    if len(batch) == 0:
        raise ValueError("batch must be non-empty")
    arr = np.asarray([lt.triple for lt in batch], dtype=np.int64)
    labels = np.asarray([lt.label for lt in batch], dtype=np.float64)
    s, r, o = arr[:, 0], arr[:, 1], arr[:, 2]
    B = len(batch)

    vs, vo, msc, ma, mb = _gather(model, s, r, o)
    phi = kernels.sigmoid(kernels.bilinear_scores(vs, vo, msc, ma, mb))
    ce = -labels * np.log(np.maximum(phi, LOG_CLAMP)) \
         - (1.0 - labels) * np.log(np.maximum(1.0 - phi, LOG_CLAMP))
    loss = float(np.mean(ce))
    rho = (phi - labels) / B

    ent_ids, ent_inv = np.unique(np.concatenate([s, o]), return_inverse=True)
    rel_ids, rel_inv = np.unique(r, return_inverse=True)
    es, eo = ent_inv[:B], ent_inv[B:]

    grad_ent, grad_sc, grad_rot = kernels.accumulate_grads(
        vs, vo, msc, ma, mb, rho, es, eo, rel_inv, len(ent_ids), len(rel_ids))

    if l1_weight > 0:
        ent_rows = model.ent[ent_ids]
        sc_rows = model.rel_scalars[rel_ids]
        rot_rows = model.rel_rot[rel_ids]
        grad_ent += l1_weight * np.sign(ent_rows)
        grad_sc += l1_weight * np.sign(sc_rows)
        grad_rot += l1_weight * np.sign(rot_rows)
        loss += l1_weight * float(
            np.abs(ent_rows).sum() + np.abs(sc_rows).sum() + np.abs(rot_rows).sum()
        )

    return loss, SparseGrads(ent_ids, grad_ent, rel_ids, grad_sc, grad_rot)


def adam_update(model: EmbeddingModel, grads: SparseGrads, config: TrainConfig) -> None:
    """One sparse Adam step in place; only touched parameters move.

    Moment accumulators of untouched parameters are left as-is; bias
    correction uses the global step counter, incremented once per call.
    """
    for g in (grads.ent_grad, grads.scalar_grad, grads.rot_grad):
        if not np.all(np.isfinite(g)):
            raise ValueError("non-finite gradient: refusing to update")
    b1, b2, eps, lr = config.adam_beta1, config.adam_beta2, config.adam_eps, config.learning_rate
    opt = model.opt
    opt.step += 1
    c1 = 1.0 - b1 ** opt.step
    c2 = 1.0 - b2 ** opt.step

    def _apply(param, m, v, ids, grad):
        m_rows = b1 * m[ids] + (1 - b1) * grad
        v_rows = b2 * v[ids] + (1 - b2) * grad * grad
        m[ids] = m_rows
        v[ids] = v_rows
        param[ids] -= lr * (m_rows / c1) / (np.sqrt(v_rows / c2) + eps)

    _apply(model.ent, opt.m_ent, opt.v_ent, grads.ent_ids, grads.ent_grad)
    _apply(model.rel_scalars, opt.m_sc, opt.v_sc, grads.rel_ids, grads.scalar_grad)
    _apply(model.rel_rot, opt.m_rot, opt.v_rot, grads.rel_ids, grads.rot_grad)


def train_epoch(
    model: EmbeddingModel,
    inputs: Sequence[LabeledTriple],
    kg: KnowledgeGraph,
    config: TrainConfig,
    rng: np.random.Generator,
) -> float:
    """One pass over the labeled inputs; returns the mean batch loss.

    Inputs are the graph triples (label 1) plus any injected triples (label
    = axiom score).  Negatives are drawn on the fly for graph triples only;
    injected triples train on their soft label alone.  Graph triples whose
    retry budget ran out before ``n_negatives`` were found are counted and
    logged as a warning.
    """
    if len(inputs) == 0:
        raise ValueError("no training inputs")
    order = rng.permutation(len(inputs))
    total, count = 0.0, 0
    n_exhausted = 0
    for start in range(0, len(inputs), config.batch_size):
        chunk = [inputs[i] for i in order[start : start + config.batch_size]]
        expanded = list(chunk)
        for lt in chunk:
            if kg.contains(*lt.triple):
                negs, exhausted = sample_negatives(kg, lt.triple, config.n_negatives, rng)
                expanded.extend(negs)
                n_exhausted += exhausted
        loss, grads = compute_loss_and_gradients(model, expanded, config.l1_weight)
        adam_update(model, grads, config)
        total += loss * len(expanded)
        count += len(expanded)
    if n_exhausted:
        log.warning("negative sampling ran out of retries for %d graph triples this epoch; "
                    "they trained on fewer than %d negatives", n_exhausted, config.n_negatives)
    return total / count

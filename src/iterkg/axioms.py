"""Axiom pool generation and embedding-based axiom scoring.

Seven OWL2 object-property axiom kinds are treated as inference rules over
graph triples.  Candidate axioms are proposed by sampling a bounded number
of head triples per relation and completing the rule body from relations
incident to the sampled entities; candidates with at least two supporting
groundings enter the pool.  Under the linear-map reading each axiom kind
implies a matrix equation between relation embeddings, so a pooled axiom is
scored by the Frobenius distance between the two sides, then min-max
normalized within its kind (raw magnitudes differ wildly across kinds).
"""

from __future__ import annotations

import csv
import enum
import json
import logging
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .blocks import BlockDiagMatrix
from .embedding import EmbeddingModel
from .kg import KnowledgeGraph, Vocabulary

log = logging.getLogger(__name__)


class AxiomType(enum.Enum):
    REFLEXIVE = "reflexive"
    SYMMETRIC = "symmetric"
    TRANSITIVE = "transitive"
    EQUIVALENT = "equivalent"
    SUB_PROPERTY = "sub_property"
    INVERSE = "inverse"
    SUB_PROPERTY_CHAIN = "sub_property_chain"

    @property
    def arity(self) -> int:
        return _ARITY[self]


_ARITY = {
    AxiomType.REFLEXIVE: 1,
    AxiomType.SYMMETRIC: 1,
    AxiomType.TRANSITIVE: 1,
    AxiomType.EQUIVALENT: 2,
    AxiomType.SUB_PROPERTY: 2,
    AxiomType.INVERSE: 2,
    AxiomType.SUB_PROPERTY_CHAIN: 3,
}

_TYPE_ORDER = {t: i for i, t in enumerate(AxiomType)}


class Axiom(tuple):
    """An axiom kind applied to concrete relations.

    Relation slot conventions:
      equivalent / sub_property: (body, head) -- rule (x, head, y) <- (x, body, y)
      inverse:                   (head, body) -- rule (x, head, y) <- (y, body, x)
      sub_property_chain:        (body1, body2, head)
                                 -- rule (y0, head, y2) <- (y0, body1, y1), (y1, body2, y2)
    """

    def __new__(cls, type: AxiomType, relations: Sequence[int]):
        relations = tuple(int(r) for r in relations)
        if len(relations) != type.arity:
            raise ValueError(f"{type.value} expects {type.arity} relations, got {relations}")
        if type is AxiomType.EQUIVALENT and relations[0] == relations[1]:
            raise ValueError("equivalence of a relation with itself is vacuous")
        return super().__new__(cls, (type, relations))

    @property
    def type(self) -> AxiomType:
        return self[0]

    @property
    def relations(self) -> tuple[int, ...]:
        return self[1]

    def head_relation(self) -> int:
        t = self.type
        if t in (AxiomType.EQUIVALENT, AxiomType.SUB_PROPERTY):
            return self.relations[1]
        if t is AxiomType.INVERSE:
            return self.relations[0]
        if t is AxiomType.SUB_PROPERTY_CHAIN:
            return self.relations[2]
        return self.relations[0]

    def sort_key(self) -> tuple:
        return (_TYPE_ORDER[self.type], self.relations)


@dataclass(frozen=True)
class PooledAxiom:
    axiom: Axiom
    support: int    # groundings fully present in the graph
    head_size: int  # triples of the head relation


@dataclass(frozen=True)
class ScoredAxiom:
    axiom: Axiom
    support: int
    head_size: int
    raw: float    # Frobenius distance of the rule-conclusion sides
    score: float  # min-max normalized within the axiom's type, in [0, 1]


@dataclass
class PoolConfig:
    min_axiom_prob: float = 0.5   # lower bound on support/head_size for target axioms
    include_prob: float = 0.95    # required probability of covering all such axioms
    samples_per_relation: int | None = None  # override the derived bound
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.min_axiom_prob <= 1:
            raise ValueError("min_axiom_prob must lie in (0, 1]")
        if not 0 < self.include_prob < 1:
            raise ValueError("include_prob must lie in (0, 1)")
        if self.samples_per_relation is not None and self.samples_per_relation < 1:
            raise ValueError("samples_per_relation must be >= 1")

    def resolved_samples(self) -> int:
        if self.samples_per_relation is not None:
            return self.samples_per_relation
        return min_sample_size(self.min_axiom_prob, self.include_prob)


def min_sample_size(min_axiom_prob: float, include_prob: float) -> int:
    """Smallest per-relation sample count that covers target axioms.

    Sampling k of the N head triples of a relation misses an axiom whose
    support fraction is at least p with probability C((1-p)N, k) / C(N, k);
    requiring coverage probability above t for every N yields
    k > N - N (1-t)^(1/(pN)), whose supremum over N is -ln(1-t)/p.
    """
    if not 0 < min_axiom_prob <= 1:
        raise ValueError("min_axiom_prob must lie in (0, 1]")
    if not 0 < include_prob < 1:
        raise ValueError("include_prob must lie in (0, 1)")
    return math.ceil(-math.log(1.0 - include_prob) / min_axiom_prob)


def sample_size_grid_sup(
    min_axiom_prob: float, include_prob: float, grid_points: int = 2000, n_max: float = 1e15
) -> float:
    """Numeric supremum of N - N (1-t)^(1/(pN)) over a log grid of N.

    The function increases monotonically toward -ln(1-t)/p, so the grid
    maximum sits at the largest N; expm1 keeps it accurate there.
    """
    if not 0 < min_axiom_prob <= 1 or not 0 < include_prob < 1:
        raise ValueError("parameters out of range")
    n = np.logspace(0.0, math.log10(n_max), grid_points)
    f = -n * np.expm1(math.log(1.0 - include_prob) / (min_axiom_prob * n))
    return float(f.max())


# ---------------------------------------------------------------------------
# support counting
# ---------------------------------------------------------------------------


def count_support_and_head(kg: KnowledgeGraph, axiom: Axiom) -> tuple[int, int]:
    """(number of supports, number of head-relation triples).

    Supports count complete variable assignments, so a transitive or chain
    axiom counts every intermediate path and a symmetric axiom counts both
    ordered directions of a mutual pair.
    """
    t = axiom.type
    rels = axiom.relations
    head_n = kg.relation_size(axiom.head_relation())

    if t is AxiomType.REFLEXIVE:
        r = rels[0]
        n = sum(1 for (s, _, o) in kg.triples_of(r) if s == o)
    elif t is AxiomType.SYMMETRIC:
        r = rels[0]
        n = sum(1 for (s, _, o) in kg.triples_of(r) if kg.contains(o, r, s))
    elif t is AxiomType.TRANSITIVE:
        r = rels[0]
        n = 0
        for (x, _, y) in kg.triples_of(r):
            n += len(kg.objects_set(y, r) & kg.objects_set(x, r))
    elif t in (AxiomType.EQUIVALENT, AxiomType.SUB_PROPERTY):
        body, head = rels
        small = body if kg.relation_size(body) <= kg.relation_size(head) else head
        other = head if small == body else body
        n = sum(1 for (x, _, y) in kg.triples_of(small) if kg.contains(x, other, y))
    elif t is AxiomType.INVERSE:
        head, body = rels
        if kg.relation_size(body) <= kg.relation_size(head):
            n = sum(1 for (y, _, x) in kg.triples_of(body) if kg.contains(x, head, y))
        else:
            n = sum(1 for (x, _, y) in kg.triples_of(head) if kg.contains(y, body, x))
    elif t is AxiomType.SUB_PROPERTY_CHAIN:
        b1, b2, head = rels
        sizes = {head: kg.relation_size(head), b1: kg.relation_size(b1), b2: kg.relation_size(b2)}
        pivot = min((sizes[head], 0), (sizes[b1], 1), (sizes[b2], 2))[1]
        n = 0
        if pivot == 0:
            for (y0, _, y2) in kg.triples_of(head):
                n += len(kg.objects_set(y0, b1) & kg.subjects_set(b2, y2))
        elif pivot == 1:
            for (y0, _, y1) in kg.triples_of(b1):
                n += len(kg.objects_set(y1, b2) & kg.objects_set(y0, head))
        else:
            for (y1, _, y2) in kg.triples_of(b2):
                n += len(kg.subjects_set(b1, y1) & kg.subjects_set(head, y2))
    else:  # pragma: no cover
        raise ValueError(f"unhandled axiom type {t}")
    return n, head_n


# ---------------------------------------------------------------------------
# pool generation
# ---------------------------------------------------------------------------


def generate_pool(kg: KnowledgeGraph, config: PoolConfig, rng: np.random.Generator) -> list[PooledAxiom]:
    """Propose candidate axioms per relation and keep those with support >= 2.

    Unary candidates (reflexive, symmetric, transitive) are always proposed.
    Binary and ternary candidates are completed around sampled head triples:
    for a sampled (e1, r, e2), body relations are those already linking e1
    and e2 (equivalent / sub-property), linking e2 to e1 (inverse), or
    forming a two-step path e1 -> y -> e2 (chain).  The pool depends only on
    the seed and the graph, not on input file ordering.
    """
    k = config.resolved_samples()
    candidates: set[Axiom] = set()
    for r in range(kg.n_relations):
        triples_r = kg.triples_of(r)
        if not triples_r:
            continue
        candidates.add(Axiom(AxiomType.REFLEXIVE, (r,)))
        candidates.add(Axiom(AxiomType.SYMMETRIC, (r,)))
        candidates.add(Axiom(AxiomType.TRANSITIVE, (r,)))
        if len(triples_r) <= k:
            sampled = triples_r
        else:
            idx = rng.choice(len(triples_r), size=k, replace=False)
            sampled = [triples_r[i] for i in np.sort(idx)]
        for (e1, _, e2) in sampled:
            for body in kg.pair_relations(e1, e2):
                if body != r:
                    candidates.add(Axiom(AxiomType.EQUIVALENT, (body, r)))
                    candidates.add(Axiom(AxiomType.SUB_PROPERTY, (body, r)))
            for body in kg.pair_relations(e2, e1):
                candidates.add(Axiom(AxiomType.INVERSE, (r, body)))
            for (b1, mid) in kg.out_edges(e1):
                for b2 in kg.pair_relations(mid, e2):
                    candidates.add(Axiom(AxiomType.SUB_PROPERTY_CHAIN, (b1, b2, r)))

    pool: list[PooledAxiom] = []
    for ax in sorted(candidates, key=Axiom.sort_key):
        n, head_n = count_support_and_head(kg, ax)
        if n >= 2:
            pool.append(PooledAxiom(ax, n, head_n))
    return pool


# ---------------------------------------------------------------------------
# scoring
# ---------------------------------------------------------------------------


def score_axiom_raw(model: EmbeddingModel, axiom: Axiom) -> float:
    """Frobenius distance between the two sides of the axiom's matrix equation."""
    t = axiom.type
    rels = axiom.relations
    mats = [model.relation_matrix(r) for r in rels]
    identity = BlockDiagMatrix.identity(model.n_scalars, model.n_blocks)
    if t is AxiomType.REFLEXIVE:
        lhs, rhs = mats[0], identity
    elif t is AxiomType.SYMMETRIC:
        lhs, rhs = mats[0].multiply(mats[0]), identity
    elif t is AxiomType.TRANSITIVE:
        lhs, rhs = mats[0].multiply(mats[0]), mats[0]
    elif t in (AxiomType.EQUIVALENT, AxiomType.SUB_PROPERTY):
        lhs, rhs = mats[0], mats[1]
    elif t is AxiomType.INVERSE:
        lhs, rhs = mats[0].multiply(mats[1]), identity
    else:
        lhs, rhs = mats[0].multiply(mats[1]), mats[2]
    return lhs.frobenius_diff(rhs)


def normalize_scores(pool_raws: Sequence[tuple[PooledAxiom, float]]) -> list[ScoredAxiom]:
    """Min-max normalize raw distances within each axiom type.

    The smallest distance of a type maps to score 1, the largest to 0.  A
    type with fewer than two distinct raw values is uncalibrated and scores
    0.5 across the board (below any injection threshold in practical use,
    but still visible in reports); those types are logged at INFO level.
    """
    by_type: dict[AxiomType, list[float]] = {}
    for pa, raw in pool_raws:
        if not math.isfinite(raw):
            raise ValueError(f"non-finite raw score for {pa.axiom}")
        by_type.setdefault(pa.axiom.type, []).append(raw)
    bounds = {}
    for t, raws in by_type.items():
        lo, hi = min(raws), max(raws)
        bounds[t] = (lo, hi) if hi > lo else None
    uncalibrated = sorted(t.value for t, b in bounds.items() if b is None)
    if uncalibrated:
        log.info("uncalibrated axiom types score 0.5: %s", ", ".join(uncalibrated))
    out = []
    for pa, raw in pool_raws:
        b = bounds[pa.axiom.type]
        score = 0.5 if b is None else (b[1] - raw) / (b[1] - b[0])
        out.append(ScoredAxiom(pa.axiom, pa.support, pa.head_size, raw, score))
    return out


def induce_axioms(model: EmbeddingModel, pool: Sequence[PooledAxiom]) -> list[ScoredAxiom]:
    """Score the fixed pool against the current model, best first.

    Ties are broken by (type, relation ids) so repeated runs on an
    unchanged model produce identical output.
    """
    scored = normalize_scores([(pa, score_axiom_raw(model, pa.axiom)) for pa in pool])
    scored.sort(key=lambda sa: (-sa.score, sa.axiom.sort_key()))
    return scored


# ---------------------------------------------------------------------------
# dumps
# ---------------------------------------------------------------------------


def axiom_record(sa: ScoredAxiom, relations: Vocabulary, hc: float | None = None) -> dict:
    rec = {
        "type": sa.axiom.type.value,
        "relations": [relations.name_of(r) for r in sa.axiom.relations],
        "support": sa.support,
        "head_size": sa.head_size,
        "raw": sa.raw,
        "score": sa.score,
    }
    if hc is not None:
        rec["hc"] = hc
    return rec


def write_axioms(
    path: str,
    scored: Sequence[ScoredAxiom],
    relations: Vocabulary,
    hc_values: Sequence[float] | None = None,
) -> None:
    """Write one JSON object per axiom, plus a CSV mirror next to it."""
    records = [
        axiom_record(sa, relations, hc_values[i] if hc_values is not None else None)
        for i, sa in enumerate(scored)
    ]
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
    csv_path = str(path).rsplit(".", 1)[0] + ".csv"
    cols = ["type", "relations", "support", "head_size", "raw", "score"]
    if hc_values is not None:
        cols.append("hc")
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(cols)
        for rec in records:
            row = dict(rec, relations="|".join(rec["relations"]))
            writer.writerow([row[c] for c in cols])

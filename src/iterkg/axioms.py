"""Axiom rules, their joins over the graph, pool generation and scoring.

Seven OWL2 object-property axiom kinds are treated as inference rules over
graph triples.  ``RULES`` writes each kind's rule once, as atoms over the
variables x, m, y, and two functions join it with the graph: ``rule_join``
counts supports per triple of one atom (support counting pivots on the
smallest relation, head coverage on the head), and ``body_assignments``
enumerates the body instantiations that grounding and injection read.

Candidate axioms are proposed by sampling a bounded number of head triples
per relation and completing the rule body from relations incident to the
sampled entities; candidates with at least two supports enter the pool.
Under the linear-map reading each axiom kind implies a matrix equation
between relation embeddings (``EQUATIONS``), so a pooled axiom is scored by
the Frobenius distance between the two sides, over the stacked relation
arrays, then min-max normalized within its kind (raw magnitudes differ
wildly across kinds).
"""

from __future__ import annotations

import csv
import enum
import json
import logging
import math
import os
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

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
        """Number of relations the axiom names."""
        return _ARITY[self]


_TYPE_ORDER = {t: i for i, t in enumerate(AxiomType)}

# variables of a rule atom, as indices into an assignment (x, m, y)
X, M, Y = 0, 1, 2

# The rule each axiom type encodes, as atoms (slot, u, v) that read
# (u, relations[slot], v): the head (x, h, y) first, then the body, which
# links x and y in either direction through one atom, or leads from x to y
# through a middle entity m in two atoms, the first reading (x, b1, m).
# The reflexive rule has no body: its head (x, r, x) ranges over the
# entities of r.
RULES = {
    AxiomType.REFLEXIVE: ((0, X, X),),
    AxiomType.SYMMETRIC: ((0, X, Y), (0, Y, X)),
    AxiomType.TRANSITIVE: ((0, X, Y), (0, X, M), (0, M, Y)),
    AxiomType.EQUIVALENT: ((1, X, Y), (0, X, Y)),
    AxiomType.SUB_PROPERTY: ((1, X, Y), (0, X, Y)),
    AxiomType.INVERSE: ((0, X, Y), (1, Y, X)),
    AxiomType.SUB_PROPERTY_CHAIN: ((2, X, Y), (0, X, M), (1, M, Y)),
}

_ARITY = {t: 1 + max(slot for slot, _, _ in atoms) for t, atoms in RULES.items()}

# The matrix equation each rule implies, as relation slots (a, b, c) that
# read M_a . M_b = M_c; None stands for the identity.
EQUATIONS = {
    AxiomType.REFLEXIVE: (0, None, None),
    AxiomType.SYMMETRIC: (0, 0, None),
    AxiomType.TRANSITIVE: (0, 0, 0),
    AxiomType.EQUIVALENT: (0, None, 1),
    AxiomType.SUB_PROPERTY: (0, None, 1),
    AxiomType.INVERSE: (0, 1, None),
    AxiomType.SUB_PROPERTY_CHAIN: (0, 1, 2),
}

SCORE_BLOCK = 512  # axioms scored per array pass; bounds the gathered rows


class Axiom(tuple):
    """An axiom kind applied to concrete relations, in the slot order of
    ``RULES``: equivalent / sub_property (body, head), inverse (head, body),
    sub_property_chain (body1, body2, head)."""

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
        return self.relations[RULES[self.type][0][0]]

    def atoms(self) -> list[tuple[int, int, int]]:
        """The rule as atoms ``(relation, u, v)`` over the variables X, M, Y,
        each read ``(u, relation, v)``: the head first, then the body."""
        rels = self.relations
        return [(rels[slot], u, v) for slot, u, v in RULES[self.type]]

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


def _view(kg: KnowledgeGraph, atom: tuple[int, int, int], w: int) -> Callable[[int, int], set[int]]:
    """The set view, called as ``view(entity, relation)``, that gives the
    values of variable ``w`` allowed by ``atom`` from its other variable."""
    return kg.subjects_set if atom[1] == w else kg.objects_set


def rule_join(kg: KnowledgeGraph, axiom: Axiom, pivot: int | None = None) -> Iterator[int]:
    """Supports of the axiom's rule, per triple of one of its atoms.

    A support is an assignment of the rule's variables under which every
    atom, head included, is a graph triple.  For each triple of the pivot
    atom (an index into ``axiom.atoms()``, 0 being the head; by default the
    atom of the smallest relation) this yields the number of supports that
    extend it: a one-atom body is an edge overlap tested with ``contains``, a
    two-atom body a triangle whose third variable is the intersection of
    two set views.
    """
    atoms = axiom.atoms()
    if pivot is None:
        sizes = [kg.relation_size(rel) for rel, _, _ in atoms]
        pivot = sizes.index(min(sizes))
    rel, u, v = atoms.pop(pivot)
    triples = kg.triples_of(rel)
    if not atoms:  # reflexive: the head (x, r, x) alone
        return (s == o for s, _, o in triples)
    contains = kg.contains
    if len(atoms) == 1:  # the other atom links the same two variables
        other, u2, _ = atoms[0]
        if u2 == u:
            return (contains(s, other, o) for s, _, o in triples)
        return (contains(o, other, s) for s, _, o in triples)
    w = X + M + Y - u - v
    at_u, at_v = atoms if u in atoms[0][1:] else atoms[::-1]
    view_u, view_v = _view(kg, at_u, w), _view(kg, at_v, w)
    rel_u, rel_v = at_u[0], at_v[0]
    return (len(view_u(s, rel_u) & view_v(o, rel_v)) for s, _, o in triples)


def body_assignments(kg: KnowledgeGraph, axiom: Axiom) -> Iterator[tuple[int, int | None, int]]:
    """Every assignment ``(x, m, y)`` under which the rule's body lies in the graph.

    ``m`` is None for bodies of one atom; the reflexive rule yields
    ``(e, None, e)`` for every entity e of its relation.  The head
    ``(x, axiom.head_relation(), y)`` may or may not be in the graph.
    """
    body = axiom.atoms()[1:]
    if not body:
        for e in kg.entity_occurs_with(axiom.relations[0]):
            yield e, None, e
    elif len(body) == 1:
        rel, u, _ = body[0]
        for s, _, o in kg.triples_of(rel):
            yield (s, None, o) if u == X else (o, None, s)
    else:
        (rel, _, _), second = body  # the first atom reads (x, rel, m)
        view, rel2 = _view(kg, second, Y), second[0]
        for x, _, m in kg.triples_of(rel):
            for y in view(m, rel2):
                yield x, m, y


def count_support_and_head(kg: KnowledgeGraph, axiom: Axiom) -> tuple[int, int]:
    """(number of supports, number of head-relation triples).

    Supports count complete variable assignments, so a transitive or chain
    axiom counts every intermediate path and a symmetric axiom counts both
    ordered directions of a mutual pair.
    """
    return sum(rule_join(kg, axiom)), kg.relation_size(axiom.head_relation())


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
    the seed and the graph, not on input file ordering.  A DEBUG line counts
    the candidates and the pool per type.
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
    per_type = Counter(pa.axiom.type for pa in pool)
    log.debug("pool: %d candidates proposed, %d pooled (%s)", len(candidates), len(pool),
              ", ".join(f"{t.value} {per_type[t]}" for t in AxiomType))
    return pool


# ---------------------------------------------------------------------------
# scoring
# ---------------------------------------------------------------------------


def axiom_residuals(model: EmbeddingModel, axioms: Sequence[Axiom]) -> np.ndarray:
    """Frobenius distance between the two sides of each axiom's matrix equation.

    Reads ``EQUATIONS`` over the stacked relation arrays plus one identity
    row, ``SCORE_BLOCK`` axioms at a time: scalars multiply, 2x2 blocks
    compose like complex numbers, and each block's (a, b) deltas count
    twice, as in its dense form [[a, -b], [b, a]].
    """
    n_rel, nb = model.n_relations, model.n_blocks
    sc = np.concatenate([model.rel_scalars, np.ones((1, model.n_scalars))])
    rot = np.concatenate([model.rel_rot, np.broadcast_to([1.0, 0.0], (1, nb, 2))])
    slots = np.array([[n_rel if i is None else ax.relations[i] for i in EQUATIONS[ax.type]]
                      for ax in axioms], dtype=np.int64).reshape(-1, 3)
    out = np.empty(len(slots))
    for lo in range(0, len(slots), SCORE_BLOCK):
        a, b, c = slots[lo : lo + SCORE_BLOCK].T
        ds = sc[a] * sc[b] - sc[c]
        a1, b1, a2, b2 = rot[a, :, 0], rot[a, :, 1], rot[b, :, 0], rot[b, :, 1]
        dr = np.stack([a1 * a2 - b1 * b2, a1 * b2 + b1 * a2], axis=-1) - rot[c]
        out[lo : lo + SCORE_BLOCK] = np.sqrt(np.sum(ds * ds, axis=1) + 2.0 * np.sum(dr * dr, axis=(1, 2)))
    return out


def score_axiom_raw(model: EmbeddingModel, axiom: Axiom) -> float:
    """Frobenius distance between the two sides of one axiom's matrix equation."""
    return float(axiom_residuals(model, [axiom])[0])


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
    raws = axiom_residuals(model, [pa.axiom for pa in pool])
    scored = normalize_scores([(pa, float(raw)) for pa, raw in zip(pool, raws)])
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
    csv_path = os.path.splitext(path)[0] + ".csv"
    cols = ["type", "relations", "support", "head_size", "raw", "score"]
    if hc_values is not None:
        cols.append("hc")
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(cols)
        for rec in records:
            row = dict(rec, relations="|".join(rec["relations"]))
            writer.writerow([row[c] for c in cols])

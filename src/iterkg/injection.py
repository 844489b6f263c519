"""Grounding high-scoring axioms and labeling the inferred triples.

An axiom whose normalized score clears the threshold is grounded over the
graph: every body instantiation found in the triple set proposes a head
triple not yet present.  Injection joins all such axioms at once
(``axioms.join_rules``), which counts each axiom's distinct heads before it
lists any, lists only heads touching at least one sparse entity, and builds
no ``Grounding``; ``ground_axiom`` lists every instantiation of one axiom
with its body, for audits.  Duplicates across axioms merge onto the
best contributing score, and each surviving triple receives a truth value
derived through product t-norm fuzzy logic: solving
pi(body => head) = s_axiom with unit body truths gives pi(head) = s_axiom
exactly.  ``inject_triples`` returns them as one ``Injection`` of arrays.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Iterator, Sequence, Union

import numpy as np

from .axioms import Axiom, ScoredPool, body_assignments, head_relations, join_rules
from .kg import KnowledgeGraph, Triple, Vocabulary, _read_ids

log = logging.getLogger(__name__)

Expr = Union["Atom", "Not", "And", "Or", "Implies"]


@dataclass(frozen=True)
class Atom:
    value: float

    def __post_init__(self):
        if not 0.0 <= self.value <= 1.0:
            raise ValueError(f"truth value {self.value} outside [0, 1]")


@dataclass(frozen=True)
class Not:
    a: Expr


@dataclass(frozen=True)
class And:
    a: Expr
    b: Expr


@dataclass(frozen=True)
class Or:
    a: Expr
    b: Expr


@dataclass(frozen=True)
class Implies:
    a: Expr
    b: Expr


def truth_value(expr: Expr) -> float:
    """Recursive product/probabilistic-sum truth composition.

    and: a*b; or: a + b - a*b; not: 1 - a; implication: not-a or b.
    """
    if isinstance(expr, Atom):
        return expr.value
    if isinstance(expr, Not):
        return 1.0 - truth_value(expr.a)
    if isinstance(expr, And):
        return truth_value(expr.a) * truth_value(expr.b)
    if isinstance(expr, Or):
        a, b = truth_value(expr.a), truth_value(expr.b)
        return a + b - a * b
    if isinstance(expr, Implies):
        return truth_value(Or(Not(expr.a), expr.b))
    raise TypeError(f"not a truth expression: {expr!r}")


def solve_head_truth(body_truths: Sequence[float], grounding_truth: float) -> float:
    """Invert pi(body => head) = grounding_truth for the head truth.

    With product conjunction over the body (truth P) the implication equals
    1 - P + P * head, so head = (grounding_truth - (1 - P)) / P, clamped to
    [0, 1].  Graph triples have truth 1, making the head truth equal the
    grounding truth exactly: 1 - P is then 0, where the order
    (grounding_truth - 1 + P) would round (0.1 - 1 + 1 is not 0.1).
    """
    p = 1.0
    for bt in body_truths:
        if not 0.0 <= bt <= 1.0:
            raise ValueError(f"body truth {bt} outside [0, 1]")
        p *= bt
    if not 0.0 <= grounding_truth <= 1.0:
        raise ValueError(f"grounding truth {grounding_truth} outside [0, 1]")
    if p == 0.0:
        raise ValueError("head truth undefined: body truth product is zero")
    return min(1.0, max(0.0, (grounding_truth - (1.0 - p)) / p))


@dataclass(frozen=True)
class Grounding:
    head: Triple               # proposed triple, absent from the graph
    body: tuple[Triple, ...]   # instantiated rule body, all present
    axiom: Axiom


@dataclass(frozen=True)
class InferredTriple:
    triple: Triple
    truth: float
    sources: tuple[Axiom, ...]


@dataclass(frozen=True, eq=False)
class Injection:
    """Injected triples as arrays, sorted by (subject, relation, object).

    ``ids`` holds the (n, 3) int64 rows and ``truth`` their (n,) float64
    truth values.  The source axioms of row i are the rows ``table[j]`` for
    ``j`` in ``sources[source_start[i]:source_start[i + 1]]``, in input
    order; ``table`` holds the grounded axioms as candidate-table rows
    (``axioms.axiom_table``).  Iterating yields one ``InferredTriple`` per
    row, built on demand, for tests and audits.
    """

    ids: np.ndarray
    truth: np.ndarray
    sources: np.ndarray
    source_start: np.ndarray
    table: np.ndarray

    def __len__(self) -> int:
        return len(self.truth)

    def __iter__(self) -> Iterator[InferredTriple]:
        start, sources = self.source_start.tolist(), self.sources.tolist()
        axioms = [Axiom.from_row(row) for row in self.table.tolist()]
        for i, (row, truth) in enumerate(zip(self.ids.tolist(), self.truth.tolist())):
            yield InferredTriple(Triple(*row), truth,
                                 tuple(axioms[j] for j in sources[start[i] : start[i + 1]]))


@dataclass
class InjectionConfig:
    score_threshold: float = 0.9       # axioms must score strictly above this
    max_inferred_per_axiom: int = 1000  # skip axioms inferring more heads than this
    sparsity_threshold: float = 0.995

    def __post_init__(self):
        if not 0.0 <= self.score_threshold <= 1.0:
            raise ValueError(f"score_threshold must lie in [0, 1], got {self.score_threshold}")
        if self.max_inferred_per_axiom < 1:
            raise ValueError(f"max_inferred_per_axiom must be at least 1, got {self.max_inferred_per_axiom}")
        if not 0.0 <= self.sparsity_threshold <= 1.0:
            raise ValueError(f"sparsity_threshold must lie in [0, 1], got {self.sparsity_threshold}")


def ground_axiom(kg: KnowledgeGraph, axiom: Axiom) -> list[Grounding]:
    """All rule instantiations whose body lies in the graph and head does not.

    One grounding per variable assignment: a transitive or chain head
    reachable through several intermediates appears once per path.  Bodies
    range over original graph triples only; inferred triples are never
    chained within one injection round.  This is the audit form of the
    join whose distinct heads ``inject_triples`` reads.
    """
    (head_rel, _, _), *body = axiom.atoms()
    x, m, y = body_assignments(kg, axiom)
    absent = ~kg.contains_many(x, np.full(len(x), head_rel), y)
    out: list[Grounding] = []
    for assignment in zip(x[absent].tolist(), m[absent].tolist(), y[absent].tolist()):
        atoms = tuple(Triple(assignment[u], r, assignment[v]) for r, u, v in body)
        out.append(Grounding(Triple(assignment[0], head_rel, assignment[2]), atoms, axiom))
    return out


def inject_triples(
    kg: KnowledgeGraph,
    scored: ScoredPool,
    sparse: np.ndarray,
    config: InjectionConfig,
) -> Injection:
    """Infer soft-labeled triples from axioms above the score threshold.

    ``sparse`` is a boolean mask over the graph's entities
    (``kg.sparse_entities``); any other array raises ValueError.

    Reads the table and score arrays of ``scored`` (``induce_axioms``'
    result): the axioms above the threshold are joined with the graph
    together (``axioms.join_rules``), which counts each one's distinct new
    heads first.  An axiom that proposes more than
    ``max_inferred_per_axiom`` of them is skipped outright rather than
    truncated: a single axiom flooding the input would skew the training
    distribution.  Its heads are never listed, and the number of axioms
    skipped this way is logged at INFO level.  Every new head counts toward
    the cap, but the join lists only those touching a sparse entity.  They
    are merged across axioms: a triple is labeled with the highest score
    among its source axioms (every contributing axiom, in input order),
    and that score is its truth itself: ``solve_head_truth``'s value for
    body triples of the graph (truth 1) and a score in [0, 1], as
    ``normalize_scores`` makes it.
    One DEBUG line per call counts the axioms grounded, the heads proposed
    by the axioms within the cap, those listed (with a sparse end) and the
    axioms over the cap.  The result holds arrays sorted by triple ids and
    builds no ``Triple``.
    """
    sparse = np.asarray(sparse)
    if sparse.dtype != bool or sparse.shape != (kg.n_entities,):
        raise ValueError(f"sparse must be a boolean mask over the graph's {kg.n_entities} entities, "
                         f"got {sparse.dtype} of shape {sparse.shape}")
    grounded = scored.score > config.score_threshold
    table, score = scored.table[grounded], scored.score[grounded]
    cap = config.max_inferred_per_axiom
    join = join_rules(kg, table, cap, sparse)
    over = join.n_heads > cap
    cand, x, y = join.heads.T
    if over.any():
        log.info("skipped %d axioms inferring more than max_inferred_per_axiom=%d heads",
                 int(over.sum()), cap)
    log.debug("axioms_grounded=%d heads_proposed=%d heads_kept=%d axioms_over_cap=%d",
              len(table), int(join.n_heads[~over].sum()), len(cand), int(over.sum()))

    # one run of rows per triple, runs sorted like (s, r, o) tuples and
    # axioms in input order within a run; the run's top score labels the triple
    r = head_relations(table)[cand]
    key = (x * kg.n_relations + r) * kg.n_entities + y
    order = np.lexsort((cand, key))
    cand = cand[order]
    first = np.flatnonzero(np.diff(key[order], prepend=-1))
    ids = np.stack([x, r, y], axis=1)[order[first]]
    return Injection(ids, np.maximum.reduceat(score[cand], first), cand, np.append(first, len(cand)), table)


def write_injected_tsv(path: str, inferred: Injection, entities: Vocabulary, relations: Vocabulary) -> None:
    """Audit dump: subject, relation, object, truth, source-axiom-count."""
    ent, rel = entities.names, relations.names
    counts = np.diff(inferred.source_start).tolist()
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{ent[s]}\t{rel[r]}\t{ent[o]}\t{truth!r}\t{n}\n"
                      for (s, r, o), truth, n in zip(inferred.ids.tolist(), inferred.truth.tolist(), counts))


def read_injected_tsv(path: str, entities: Vocabulary, relations: Vocabulary) -> np.ndarray:
    """The (n, 3) int64 ids of a ``write_injected_tsv`` dump, in file order."""
    return _read_ids(path, 5, entities.id_of, relations.id_of)

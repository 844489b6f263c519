"""Grounding high-scoring axioms and labeling the inferred triples.

An axiom whose normalized score clears the threshold is grounded over the
graph: every body instantiation found in the triple set
(``axioms.body_assignments``) proposes a head triple not yet present.
Injection keeps only the distinct heads and builds no ``Grounding``;
``ground_axiom`` lists every instantiation with its body, for audits.
Heads touching at least one sparse entity survive, duplicates across axioms
merge onto the best contributing score, and each surviving triple receives
a truth value derived through product t-norm fuzzy logic: solving
pi(body => head) = s_axiom with unit body truths gives pi(head) = s_axiom
exactly.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Sequence, Union

from .axioms import RULES, Axiom, ScoredAxiom, body_assignments
from .kg import KnowledgeGraph, Triple, Vocabulary

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
    1 - P + P * head, so head = (grounding_truth - 1 + P) / P, clamped to
    [0, 1].  Graph triples have truth 1, making the head truth equal the
    grounding truth exactly.
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
    return min(1.0, max(0.0, (grounding_truth - 1.0 + p) / p))


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


@dataclass
class InjectionConfig:
    score_threshold: float = 0.9       # axioms must score strictly above this
    max_inferred_per_axiom: int = 1000  # skip axioms inferring more heads than this
    sparsity_threshold: float = 0.995

    def __post_init__(self):
        if not 0.0 <= self.score_threshold <= 1.0:
            raise ValueError("score_threshold must lie in [0, 1]")
        if self.max_inferred_per_axiom < 1:
            raise ValueError("max_inferred_per_axiom must be >= 1")
        if not 0.0 <= self.sparsity_threshold <= 1.0:
            raise ValueError("sparsity_threshold must lie in [0, 1]")


def ground_axiom(kg: KnowledgeGraph, axiom: Axiom) -> list[Grounding]:
    """All rule instantiations whose body lies in the graph and head does not.

    One grounding per variable assignment: a transitive or chain head
    reachable through several intermediates appears once per path.  Bodies
    range over original graph triples only; inferred triples are never
    chained within one injection round.  This is the audit form of the
    enumeration ``inject_triples`` reads only the heads of.
    """
    (head_rel, _, _), *body = axiom.atoms()
    out: list[Grounding] = []
    for assignment in body_assignments(kg, axiom):
        x, _, y = assignment
        if not kg.contains(x, head_rel, y):
            atoms = tuple(Triple(assignment[u], r, assignment[v]) for r, u, v in body)
            out.append(Grounding(Triple(x, head_rel, y), atoms, axiom))
    return out


def _new_heads(kg: KnowledgeGraph, axiom: Axiom, cap: int) -> set[tuple[int, int, int]] | None:
    """Distinct heads the axiom infers, absent from the graph; None as soon
    as there are more than ``cap`` of them."""
    head_rel = axiom.head_relation()
    heads: set[tuple[int, int, int]] = set()
    for x, _, y in body_assignments(kg, axiom):
        if not kg.contains(x, head_rel, y):
            heads.add((x, head_rel, y))
            if len(heads) > cap:
                return None
    return heads


def inject_triples(
    kg: KnowledgeGraph,
    scored_axioms: Sequence[ScoredAxiom],
    sparse: set[int],
    config: InjectionConfig,
    restrict_sparse: bool = True,
) -> list[InferredTriple]:
    """Infer soft-labeled triples from axioms above the score threshold.

    An axiom that proposes more than ``max_inferred_per_axiom`` distinct
    heads is skipped outright rather than truncated: a single axiom flooding
    the input would skew the training distribution.  Its enumeration stops
    at the first head over the cap; the number of axioms skipped this way is
    logged at INFO level.  Heads are then filtered to those touching a
    sparse entity (disable via ``restrict_sparse`` to inspect the unfiltered
    inference), merged across axioms keeping the maximum score, and labeled
    through solve_head_truth.  One DEBUG line per call counts the axioms
    grounded, the heads proposed and kept by the sparse filter (per axiom)
    and the axioms over the cap.  Output is sorted by triple ids.
    """
    best: dict[tuple[int, int, int], ScoredAxiom] = {}
    sources: dict[tuple[int, int, int], list[Axiom]] = {}
    grounded = proposed = kept = over_cap = 0
    for sa in scored_axioms:
        if sa.score <= config.score_threshold:
            continue
        grounded += 1
        heads = _new_heads(kg, sa.axiom, config.max_inferred_per_axiom)
        if heads is None:
            over_cap += 1
            continue
        proposed += len(heads)
        if restrict_sparse:
            heads = {h for h in heads if h[0] in sparse or h[2] in sparse}
        kept += len(heads)
        for h in heads:
            if h not in best or sa.score > best[h].score:
                best[h] = sa
            sources.setdefault(h, []).append(sa.axiom)
    if over_cap:
        log.info("skipped %d axioms inferring more than max_inferred_per_axiom=%d heads",
                 over_cap, config.max_inferred_per_axiom)
    log.debug("axioms_grounded=%d heads_proposed=%d heads_kept=%d axioms_over_cap=%d",
              grounded, proposed, kept, over_cap)
    out = []
    for triple in sorted(best):
        sa = best[triple]
        truth = solve_head_truth([1.0] * (len(RULES[sa.axiom.type]) - 1), sa.score)
        out.append(InferredTriple(Triple(*triple), truth, tuple(sources[triple])))
    return out


def write_injected_tsv(
    path: str,
    inferred: Sequence[InferredTriple],
    entities: Vocabulary,
    relations: Vocabulary,
) -> None:
    """Audit dump: subject, relation, object, truth, source-axiom-count."""
    with open(path, "w", encoding="utf-8") as fh:
        for it in inferred:
            s, r, o = it.triple
            fh.write(
                f"{entities.name_of(s)}\t{relations.name_of(r)}\t{entities.name_of(o)}"
                f"\t{it.truth!r}\t{len(it.sources)}\n"
            )


def read_injected_tsv(
    path: str, entities: Vocabulary, relations: Vocabulary
) -> list[tuple[Triple, float, int]]:
    out = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            fields = line.rstrip("\n").split("\t")
            if len(fields) != 5:
                raise ValueError(f"{path}:{lineno}: expected 5 fields, got {len(fields)}")
            s, r, o = entities.id_of(fields[0]), relations.id_of(fields[1]), entities.id_of(fields[2])
            out.append((Triple(s, r, o), float(fields[3]), int(fields[4])))
    return out

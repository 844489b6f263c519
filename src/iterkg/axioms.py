"""Axiom rules, their joins over the graph, pool generation and scoring.

Seven OWL2 object-property axiom kinds are treated as inference rules over
graph triples.  ``RULES`` writes each kind's rule once, as atoms over the
variables x, m, y.  Candidate axioms travel as an integer table of rows
(type, r0, r1, r2), and ``join_rules`` joins a whole table with the sorted
graph arrays in a few array passes per body shape: it counts supports and
covered head triples (head coverage), and lists the distinct new heads
that injection reads, stopping at a per-axiom cap.  ``body_assignments``
enumerates the body instantiations of one axiom for the audit grounding.

Candidate axioms are proposed by sampling a bounded number of head triples
per relation and completing the rule body from relations incident to the
sampled entities; candidates with at least two supports enter the pool,
one ``Pool`` of arrays that keeps the counts of that one join, head
coverage included.  Under the linear-map reading each axiom kind implies a
matrix equation between relation embeddings (``EQUATIONS``), so a pooled
axiom is scored by the Frobenius distance between the two sides, over the
stacked relation arrays, then min-max normalized within its kind (raw
magnitudes differ wildly across kinds).
"""

from __future__ import annotations

import csv
import enum
import json
import logging
import math
import os
from dataclasses import dataclass, field, fields
from typing import Iterator, Sequence

import numpy as np

from . import kernels
from .embedding import EmbeddingModel
from .kg import KnowledgeGraph, Vocabulary, distinct_rows, expand_ranges, lookup_sorted, sorted_distinct

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


TYPES = tuple(AxiomType)  # the type codes of a candidate table
_TYPE_ORDER = {t: i for i, t in enumerate(TYPES)}

# variables of a rule atom, as indices into an assignment (x, m, y)
X, M, Y = 0, 1, 2

# The rule each axiom type encodes, as atoms (slot, u, v) that read
# (u, relations[slot], v): the head (x, h, y) first, then the body, which
# links x and y in either direction through one atom, or leads from x to y
# through a middle entity m in two atoms read (x, b1, m), (m, b2, y).
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

# per type code: the relation slots of the head and body atoms, and of the
# sides of EQUATIONS (-1: none, or the identity), and whether a one-atom
# body reads (y, b1, x)
_RULE_SLOTS = np.array([[slot for slot, _, _ in RULES[t]] + [-1] * (3 - len(RULES[t])) for t in TYPES])
_EQUATION_SLOTS = np.array([[-1 if i is None else i for i in EQUATIONS[t]] for t in TYPES])
_FLIP = np.array([len(RULES[t]) == 2 and RULES[t][1][1] == Y for t in TYPES])

SCORE_BLOCK = 512  # axioms scored per array pass; bounds the gathered rows
ROW_BUDGET = 1 << 17  # body rows per join pass; bounds the arrays of a rule join


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

    @classmethod
    def from_row(cls, row: Sequence[int]) -> "Axiom":
        """The axiom of one candidate-table row (``axiom_table``)."""
        t = TYPES[row[0]]
        return cls(t, row[1 : 1 + t.arity])


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


@dataclass(frozen=True, eq=False)
class Pool:
    """Pooled axioms as arrays, one entry per row of ``table``.

    ``table`` holds candidate-table rows ``(type, r0, r1, r2)``
    (``axiom_table``); ``support`` and ``covered`` are their counts from the
    pool's ``join_rules`` call, and ``head_size`` counts the triples of each
    head relation.  Indexing and iteration build ``PooledAxiom`` objects on
    demand.
    """

    table: np.ndarray
    support: np.ndarray
    head_size: np.ndarray
    covered: np.ndarray

    _item, _item_fields = PooledAxiom, ("support", "head_size")

    def __len__(self) -> int:
        return len(self.table)

    def __getitem__(self, i: int):
        return self._item(Axiom.from_row(self.table[i].tolist()),
                          *(getattr(self, f)[i].item() for f in self._item_fields))

    def __iter__(self) -> Iterator:
        columns = [getattr(self, f).tolist() for f in self._item_fields]
        for row, *values in zip(self.table.tolist(), *columns):
            yield self._item(Axiom.from_row(row), *values)

    def head_coverage(self) -> np.ndarray:
        """Per axiom, the fraction of head-relation triples that some support
        extends: AMIE+'s head coverage."""
        return self.covered / self.head_size


@dataclass(frozen=True, eq=False)
class ScoredPool(Pool):
    """A scored pool, best first: ``raw`` and ``score`` as in ``ScoredAxiom``.
    Indexing and iteration build ``ScoredAxiom`` objects on demand."""

    raw: np.ndarray
    score: np.ndarray

    _item, _item_fields = ScoredAxiom, ("support", "head_size", "raw", "score")


@dataclass
class PoolConfig:
    min_axiom_prob: float = 0.5   # lower bound on support/head_size for target axioms
    include_prob: float = 0.95    # required probability of covering all such axioms
    samples_per_relation: int | None = None  # override the derived bound
    seed: int = 0

    def __post_init__(self):
        min_sample_size(self.min_axiom_prob, self.include_prob)  # range checks
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
    Raises ValueError for p outside (0, 1], t outside (0, 1), or a p so
    small that the bound overflows a float.
    """
    if not 0 < min_axiom_prob <= 1:
        raise ValueError("min_axiom_prob must lie in (0, 1]")
    if not 0 < include_prob < 1:
        raise ValueError("include_prob must lie in (0, 1)")
    bound = -math.log(1.0 - include_prob) / min_axiom_prob
    if math.isinf(bound):
        raise ValueError(f"min_axiom_prob {min_axiom_prob} is too small: the sample bound overflows")
    return math.ceil(bound)


def sample_size_grid_sup(
    min_axiom_prob: float, include_prob: float, grid_points: int = 2000, n_max: float = 1e15
) -> float:
    """Numeric supremum of N - N (1-t)^(1/(pN)) over a log grid of N.

    The function increases monotonically toward -ln(1-t)/p, so the grid
    maximum sits at the largest N; expm1 keeps it accurate there.
    """
    min_sample_size(min_axiom_prob, include_prob)  # range checks
    n = np.logspace(0.0, math.log10(n_max), grid_points)
    f = -n * np.expm1(math.log(1.0 - include_prob) / (min_axiom_prob * n))
    return float(f.max())


# ---------------------------------------------------------------------------
# rule joins over candidate tables
# ---------------------------------------------------------------------------


def axiom_table(axioms: Sequence[Axiom]) -> np.ndarray:
    """Axioms as a candidate table: int64 rows ``(type, r0, r1, r2)`` with
    ``type`` an index into ``TYPES`` and unused relation slots -1.  Sorting
    the rows sorts the axioms by ``Axiom.sort_key``."""
    rows = [(_TYPE_ORDER[t], *rels, *(-1,) * (3 - len(rels))) for t, rels in axioms]
    return np.array(rows, dtype=np.int64).reshape(-1, 4)


def _rows(t: AxiomType, *rels: np.ndarray) -> np.ndarray:
    """Candidate-table rows of type ``t`` over columns of relation ids."""
    n = len(rels[0])
    return np.stack([np.full(n, _TYPE_ORDER[t]), *rels, *[np.full(n, -1)] * (3 - len(rels))], axis=1)


def _read_slots(table: np.ndarray, slots: np.ndarray) -> np.ndarray:
    """Per candidate, the relations in the three slots ``slots[type]``
    names, as an (n, 3) array; -1 where a slot code is -1."""
    codes = slots[table[:, 0]]
    return np.where(codes < 0, -1, np.take_along_axis(table[:, 1:], np.maximum(codes, 0), axis=1))


def _rule_columns(table: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per candidate, read from ``RULES``: the head relation, the body
    relations b1 and b2 (-1 where the body is shorter), and whether a
    one-atom body reads (y, b1, x)."""
    head, b1, b2 = _read_slots(table, _RULE_SLOTS).T
    return head, b1, b2, _FLIP[table[:, 0]]


def head_relations(table: np.ndarray) -> np.ndarray:
    """The head relation of every candidate of ``table``."""
    return _rule_columns(table)[0]


def _slices(weights: np.ndarray, cuts: np.ndarray | None = None) -> list[slice]:
    """Consecutive slices of ``range(len(weights))``, cut only where
    ``cuts`` is True (everywhere by default), each weighing ``ROW_BUDGET``
    or less unless its last uncut unit takes it over."""
    starts = np.arange(len(weights)) if cuts is None else np.flatnonzero(cuts)
    if len(starts) == 0:
        return []
    unit = np.add.reduceat(weights, starts)
    window = (np.cumsum(unit) - unit) // ROW_BUDGET
    bounds = np.append(starts[np.flatnonzero(np.diff(window, prepend=-1))], len(weights)).tolist()
    return [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:])]


@dataclass
class RuleJoin:
    """The rule joins of a candidate table, one entry per row.

    ``support`` counts supports (assignments under which head and body are
    graph triples) and ``covered`` the head triples some support extends.
    When a cap was given, ``n_heads`` counts the distinct heads the body
    proposes that are absent from the graph, and ``heads`` lists those with
    a sparse end (subject or object) as rows ``(candidate, x, y)``, for the
    candidates with at most ``cap``.
    """

    support: np.ndarray
    covered: np.ndarray
    n_heads: np.ndarray | None = None
    heads: list[np.ndarray] | np.ndarray = field(default_factory=list)

    def count_heads(self, cands: np.ndarray, counts: np.ndarray, cap: int) -> np.ndarray:
        """Add ``counts`` new heads to ``cands``; True where one is still
        within the cap."""
        self.n_heads[cands] += counts
        return self.n_heads[cands] <= cap

    def list_heads(self, cand: np.ndarray, x: np.ndarray, y: np.ndarray) -> None:
        self.heads.append(np.stack([cand, x, y], axis=1))

    def add_heads(self, cands: np.ndarray, own: np.ndarray, x: np.ndarray, y: np.ndarray,
                  cap: int, sparse: np.ndarray) -> None:
        """Count the distinct new heads ``(x, y)`` of ``cands[own]`` and list
        those with a ``sparse`` end, of candidates still within the cap."""
        keep = self.count_heads(cands, np.bincount(own, minlength=len(cands)), cap)[own]
        keep &= sparse[x] | sparse[y]
        self.list_heads(cands[own[keep]], x[keep], y[keep])


def join_rules(kg: KnowledgeGraph, table: np.ndarray, cap: int | None = None,
               sparse: np.ndarray | None = None) -> RuleJoin:
    """Support, head coverage and (given ``cap`` and ``sparse``) new heads of
    every candidate of ``table``, in array passes over the sorted graph.

    ``sparse`` is a boolean mask over the graph's entities: every distinct
    new head counts toward the cap, but only heads with a sparse subject or
    object are listed.  ``cap`` and ``sparse`` come together or not at all.

    Each pass builds at most about ``ROW_BUDGET`` body rows:

    - the reflexive rule counts ``s == o`` in its relation, and proposes
      (e, r, e) for every entity e of r;
    - a one-atom body is a key lookup of one relation's triples in the
      other: from the smaller of head and body when only supports are
      wanted, from the body when heads are;
    - a two-atom body (x, b1, m), (m, b2, y) enumerates the paths of each
      body pair once for every candidate sharing it, keyed by their end
      pair and counted with ``np.unique``, and looks each candidate's head
      triples up in them (pivoting on the head).  Passes split only between
      first-atom subjects x, so every count adds up across passes.  Heads
      are listed from the distinct path ends: all of them when x is sparse,
      else only the sparse ones.

    A candidate whose new heads exceed ``cap`` keeps counting but stops
    listing them; its earlier rows are dropped at the end.
    """
    if (cap is None) != (sparse is None):
        raise ValueError("cap and sparse come together")
    n = len(table)
    head, b1, b2, flip = _rule_columns(table)
    out = RuleJoin(np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64),
                   None if cap is None else np.zeros(n, dtype=np.int64))
    _join_loops(kg, np.flatnonzero(b1 < 0), head, out, cap, sparse)
    _join_edges(kg, np.flatnonzero((b1 >= 0) & (b2 < 0)), head, b1, flip, out, cap, sparse)
    _join_paths(kg, np.flatnonzero(b2 >= 0), head, b1, b2, out, cap, sparse)
    if cap is not None:
        heads = np.concatenate(out.heads) if out.heads else np.zeros((0, 3), dtype=np.int64)
        out.heads = heads[out.n_heads[heads[:, 0]] <= cap]
    return out


def _join_loops(kg: KnowledgeGraph, rows: np.ndarray, rel: np.ndarray, out: RuleJoin,
                cap: int | None, sparse: np.ndarray | None) -> None:
    n_ent = kg.n_entities
    for part in _slices(kg.relation_sizes(rel[rows])):
        cands, r = rows[part], rel[rows[part]]
        own, pos = expand_ranges(kg.rel_start[r], kg.rel_start[r + 1])
        s, o = kg.rel_s[pos], kg.rel_o[pos]
        out.support[cands] = out.covered[cands] = np.bincount(own[s == o], minlength=len(cands))
        if cap is not None:
            own, e = np.divmod(sorted_distinct(np.concatenate([own * n_ent + s, own * n_ent + o])), n_ent)
            new = ~kg.contains_many(e, r[own], e)
            out.add_heads(cands, own[new], e[new], e[new], cap, sparse)


def _join_edges(kg: KnowledgeGraph, rows: np.ndarray, head: np.ndarray, body: np.ndarray,
                flip: np.ndarray, out: RuleJoin, cap: int | None, sparse: np.ndarray | None) -> None:
    src, dst = body[rows], head[rows]
    if cap is None:  # supports are the pairs of both relations: read the smaller
        swap = kg.relation_sizes(dst) < kg.relation_sizes(src)
        src, dst = np.where(swap, dst, src), np.where(swap, src, dst)
    for part in _slices(kg.relation_sizes(src)):
        cands = rows[part]
        own, pos = expand_ranges(kg.rel_start[src[part]], kg.rel_start[src[part] + 1])
        s, o, f = kg.rel_s[pos], kg.rel_o[pos], flip[cands][own]
        x, y = np.where(f, o, s), np.where(f, s, o)
        present = kg.contains_many(x, dst[part][own], y)
        out.support[cands] = out.covered[cands] = np.bincount(own[present], minlength=len(cands))
        if cap is not None:
            out.add_heads(cands, own[~present], x[~present], y[~present], cap, sparse)


def _join_paths(kg: KnowledgeGraph, rows: np.ndarray, head: np.ndarray, b1: np.ndarray,
                b2: np.ndarray, out: RuleJoin, cap: int | None, sparse: np.ndarray | None) -> None:
    n_ent = kg.n_entities
    # group the candidates by body pair: each group's paths are built once
    rows = rows[np.lexsort((b2[rows], b1[rows]))]
    group_start = np.flatnonzero(np.diff(b1[rows] * kg.n_relations + b2[rows], prepend=-1))
    group_end = np.append(group_start[1:], len(rows))
    g_b1, g_b2 = b1[rows[group_start]], b2[rows[group_start]]
    for groups in _slices(kg.relation_sizes(g_b1)):
        # first atoms (x, b1, m) of these groups, in (group, x, m) order
        grp, pos = expand_ranges(kg.rel_start[g_b1[groups]], kg.rel_start[g_b1[groups] + 1])
        grp += groups.start
        lo, hi = kg.object_ranges(g_b2[grp], kg.rel_o[pos])
        some = hi > lo  # first atoms that continue into a path
        grp, x, lo, hi = grp[some], kg.rel_s[pos[some]], lo[some], hi[some]
        new_seg = np.diff(grp * n_ent + x, prepend=-1) != 0
        for part in _slices(hi - lo, new_seg):
            own, pos2 = expand_ranges(lo[part], hi[part])
            # segments: the (group, x) runs of this pass
            seg_of = np.cumsum(new_seg[part]) - 1
            seg_first = np.flatnonzero(new_seg[part]) + part.start
            seg_x, seg_g = x[seg_first], grp[seg_first]
            ends, n_paths = np.unique(seg_of[own] * n_ent + kg.rel_o[pos2], return_counts=True)
            del own, pos2  # one entry per path: dead once the ends are counted
            # every candidate of a segment's group probes its head triples (x, h, *)
            pair_seg, at = expand_ranges(group_start[seg_g], group_end[seg_g])
            probe, hpos = expand_ranges(*kg.object_ranges(head[rows[at]], seg_x[pair_seg]))
            where, hit = lookup_sorted(ends, pair_seg[probe] * n_ent + kg.rel_o[hpos])
            where, hit_pair = where[hit], probe[hit]
            support = np.bincount(at[hit_pair], weights=n_paths[where], minlength=len(rows))
            out.support[rows] += support.astype(np.int64)
            out.covered[rows] += np.bincount(at[hit_pair], minlength=len(rows))
            if cap is None:
                continue
            # distinct path ends per pair, less those the head relation holds
            n_seg_ends = np.bincount(ends // n_ent, minlength=len(seg_first))
            n_new = n_seg_ends[pair_seg] - np.bincount(hit_pair, minlength=len(pair_seg))
            counts = np.bincount(at, weights=n_new, minlength=len(rows)).astype(np.int64)
            emit = np.flatnonzero(out.count_heads(rows, counts, cap)[at] & (n_new > 0))
            # list the ends of the emitted pairs that no head triple hit, from
            # a CSR of each emitting segment's listable ends: all of them when
            # its x is sparse, else the sparse ones.  Both codes ascend (pairs
            # in order, ends ascending within a pair)
            seg = pair_seg[emit]  # ascending
            need = sorted_distinct(seg)
            seg_end0 = np.cumsum(n_seg_ends) - n_seg_ends
            of_need, at_end = expand_ranges(seg_end0[need], seg_end0[need] + n_seg_ends[need])
            keep = sparse[seg_x[need]][of_need] | sparse[ends[at_end] % n_ent]
            n_listable = np.zeros(len(seg_first), dtype=np.int64)
            n_listable[need] = np.bincount(of_need[keep], minlength=len(need))
            listable, list_start = at_end[keep], np.cumsum(n_listable) - n_listable
            e_own, k = expand_ranges(list_start[seg], list_start[seg] + n_listable[seg])
            pairs, upos = emit[e_own], listable[k]
            new = ~lookup_sorted(hit_pair * len(ends) + where, pairs * len(ends) + upos)[1]
            pairs, upos = pairs[new], upos[new]
            out.list_heads(rows[at[pairs]], seg_x[pair_seg[pairs]], ends[upos] % n_ent)


def body_assignments(kg: KnowledgeGraph, axiom: Axiom) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every assignment ``(x, m, y)`` under which the rule's body lies in
    the graph, as three arrays, in the order of the first body atom's
    sorted triples.

    ``m`` is -1 for bodies of one atom; the reflexive rule yields
    ``(e, -1, e)`` for every entity e of its relation.  The head
    ``(x, axiom.head_relation(), y)`` may or may not be in the graph.
    """
    head, b1, b2, flip = (int(v[0]) for v in _rule_columns(axiom_table([axiom])))
    if b1 < 0:
        e = np.array(kg.entity_occurs_with(head), dtype=np.int64)
        return e, np.full(len(e), -1), e
    block = slice(kg.rel_start[b1], kg.rel_start[b1 + 1])
    s, o = kg.rel_s[block], kg.rel_o[block]
    if b2 < 0:
        x, y = (o, s) if flip else (s, o)
        return x, np.full(len(x), -1), y
    own, pos = expand_ranges(*kg.object_ranges(np.full(len(o), b2), o))
    return s[own], o[own], kg.rel_o[pos]


def count_support_and_head(kg: KnowledgeGraph, axiom: Axiom) -> tuple[int, int]:
    """(number of supports, number of head-relation triples).

    Supports count complete variable assignments, so a transitive or chain
    axiom counts every intermediate path and a symmetric axiom counts both
    ordered directions of a mutual pair.
    """
    return int(join_rules(kg, axiom_table([axiom])).support[0]), kg.relation_size(axiom.head_relation())


# ---------------------------------------------------------------------------
# pool generation
# ---------------------------------------------------------------------------


def candidate_table(kg: KnowledgeGraph, k: int, rng: np.random.Generator) -> np.ndarray:
    """The distinct candidate axioms proposed around at most ``k`` sampled
    triples per relation, as a sorted candidate table (see ``generate_pool``)."""
    sizes = kg.relation_sizes(np.arange(kg.n_relations))
    nonempty = np.flatnonzero(sizes)
    picks = [np.arange(sizes[r]) if sizes[r] <= k
             else np.sort(rng.choice(int(sizes[r]), size=k, replace=False))
             for r in nonempty.tolist()]
    rel = np.repeat(nonempty, [len(p) for p in picks])
    pos = kg.rel_start[rel] + (np.concatenate(picks) if picks else np.zeros(0, dtype=np.int64))
    parts = [_rows(t, nonempty) for t in (AxiomType.REFLEXIVE, AxiomType.SYMMETRIC, AxiomType.TRANSITIVE)]
    lo, hi = kg.out_ranges(kg.rel_s[pos])
    for part in _slices(hi - lo):
        e1, r, e2 = kg.rel_s[pos[part]], rel[part], kg.rel_o[pos[part]]
        # relations linking e1 to e2: equivalent and sub-property bodies
        own, p = expand_ranges(*kg.pair_ranges(e1, e2))
        b = kg.pair_key(p)[1]
        own, b = own[b != r[own]], b[b != r[own]]
        parts += [_rows(AxiomType.EQUIVALENT, b, r[own]), _rows(AxiomType.SUB_PROPERTY, b, r[own])]
        # relations linking e2 to e1: inverse bodies
        own, p = expand_ranges(*kg.pair_ranges(e2, e1))
        b = kg.pair_key(p)[1]
        parts.append(_rows(AxiomType.INVERSE, r[own], b))
        # paths e1 -b1-> mid -b2-> e2: chain bodies
        own, p = expand_ranges(lo[part], hi[part])
        mid, first = kg.pair_key(p)
        own2, p2 = expand_ranges(*kg.pair_ranges(mid, e2[own]))
        parts.append(distinct_rows(_rows(AxiomType.SUB_PROPERTY_CHAIN, first[own2], kg.pair_key(p2)[1],
                                         r[own[own2]])))
    return distinct_rows(np.concatenate(parts))


def generate_pool(kg: KnowledgeGraph, config: PoolConfig, rng: np.random.Generator) -> Pool:
    """Propose candidate axioms per relation and keep those with support >= 2.

    Unary candidates (reflexive, symmetric, transitive) are always proposed.
    Binary and ternary candidates are completed around sampled head triples:
    for a sampled (e1, r, e2), body relations are those already linking e1
    and e2 (equivalent / sub-property), linking e2 to e1 (inverse), or
    forming a two-step path e1 -> y -> e2 (chain).  The candidates are an
    integer table; one ``join_rules`` call counts their supports and covered
    head triples, and the pool keeps both, in table order.  The pool depends
    only on the seed and the graph, not on input file ordering.  A DEBUG
    line counts the candidates and the pool per type.
    """
    table = candidate_table(kg, config.resolved_samples(), rng)
    join = join_rules(kg, table)
    keep = join.support >= 2
    pooled = table[keep]
    pool = Pool(pooled, join.support[keep], kg.relation_sizes(head_relations(pooled)), join.covered[keep])
    per_type = np.bincount(pooled[:, 0], minlength=len(TYPES)).tolist()
    log.debug("pool: %d candidates proposed, %d pooled (%s)", len(table), len(pool),
              ", ".join(f"{t.value} {n}" for t, n in zip(TYPES, per_type)))
    return pool


# ---------------------------------------------------------------------------
# scoring
# ---------------------------------------------------------------------------


def axiom_residuals(model: EmbeddingModel, table: np.ndarray) -> np.ndarray:
    """Frobenius distance between the two sides of each axiom's matrix
    equation, per row of a candidate table.

    Reads the ``EQUATIONS`` slots of each row over the relation table's
    scalars, a and b (``kernels.relation_parts``), each copied once, in row
    order, with an identity row appended, ``SCORE_BLOCK`` axioms at a
    time.  Scalars multiply, blocks multiply by ``kernels.block_product``,
    and each block's (a, b) deltas count twice, as in its dense form
    [[a, -b], [b, a]]: the arithmetic of ``blocks.BlockDiagMatrix``, bit
    for bit.
    """
    ns, nb = model.n_scalars, model.n_blocks
    # row order, since the slots gather rows (the relation table is column-major)
    sc, ra, rb = (np.concatenate([part, np.full((1, part.shape[1]), one)],
                                 out=np.empty((model.n_relations + 1, part.shape[1])))
                  for part, one in zip(kernels.relation_parts(model.rel, ns), (1.0, 1.0, 0.0)))
    slots = _read_slots(table, _EQUATION_SLOTS)
    slots[slots < 0] = model.n_relations
    out = np.empty(len(slots))
    for lo in range(0, len(slots), SCORE_BLOCK):
        a, b, c = slots[lo : lo + SCORE_BLOCK].T
        ds = sc[a] * sc[b] - sc[c]
        pa, pb, t = (np.empty((len(a), nb)) for _ in range(3))
        kernels.block_product(ra[a], rb[a], ra[b], rb[b], pa, pb, False, t)
        dr = np.stack([pa - ra[c], pb - rb[c]], axis=2).reshape(len(a), -1)  # (a, b) deltas in row layout
        out[lo : lo + SCORE_BLOCK] = np.sqrt(np.sum(ds * ds, axis=1) + 2.0 * np.sum(dr * dr, axis=1))
    return out


def score_axiom_raw(model: EmbeddingModel, axiom: Axiom) -> float:
    """Frobenius distance between the two sides of one axiom's matrix equation."""
    return float(axiom_residuals(model, axiom_table([axiom]))[0])


def normalize_scores(types: np.ndarray, raw: np.ndarray) -> np.ndarray:
    """Min-max normalize raw distances within each axiom type; ``types``
    holds the type codes (indices into ``TYPES``).

    The smallest distance of a type maps to score 1, the largest to 0.  A
    type with fewer than two distinct raw values is uncalibrated and scores
    0.5 across the board (below any injection threshold in practical use,
    but still visible in reports); those types are logged at INFO level.
    """
    bad = ~np.isfinite(raw)
    if bad.any():
        raise ValueError(f"non-finite raw score for a {TYPES[types[bad][0]].value} axiom")
    score = np.full(len(raw), 0.5)
    uncalibrated = []
    for code in sorted_distinct(types).tolist():
        rows = types == code
        lo, hi = raw[rows].min(), raw[rows].max()
        if hi > lo:
            score[rows] = (hi - raw[rows]) / (hi - lo)
        else:
            uncalibrated.append(TYPES[code].value)
    if uncalibrated:
        log.info("uncalibrated axiom types score 0.5: %s", ", ".join(sorted(uncalibrated)))
    return score


def induce_axioms(model: EmbeddingModel, pool: Pool) -> ScoredPool:
    """Score the fixed pool against the current model, best first.

    Ties are broken by (type, relation ids), the order of ``Axiom.sort_key``,
    so repeated runs on an unchanged model produce identical output.
    """
    raw = axiom_residuals(model, pool.table)
    score = normalize_scores(pool.table[:, 0], raw)
    type_, r0, r1, r2 = pool.table.T
    order = np.lexsort((r2, r1, r0, type_, -score))
    return ScoredPool(*(getattr(pool, f.name)[order] for f in fields(Pool)), raw[order], score[order])


# ---------------------------------------------------------------------------
# dumps
# ---------------------------------------------------------------------------


def csv_mirror_path(path: str) -> str:
    """Where ``write_axioms`` puts the CSV mirror of ``path``: its extension
    replaced by ``.csv``.  A ``.csv`` path would be its own mirror, and the
    mirror would overwrite the JSONL, so it is refused."""
    csv_path = os.path.splitext(path)[0] + ".csv"
    if csv_path == path:
        raise ValueError(f"{path}: the axiom dump needs a path whose CSV mirror is another file; "
                         "use a .jsonl extension")
    return csv_path


def write_axioms(path: str, scored: ScoredPool, relations: Vocabulary) -> None:
    """Write one JSON object per axiom, its head coverage ``hc`` included,
    plus a CSV mirror next to it."""
    csv_path = csv_mirror_path(path)
    names = relations.names
    cols = ["type", "relations", "support", "head_size", "raw", "score", "hc"]
    rows = list(zip([TYPES[code].value for code in scored.table[:, 0].tolist()],
                    [[names[r] for r in row if r >= 0] for row in scored.table[:, 1:].tolist()],
                    *(v.tolist() for v in (scored.support, scored.head_size, scored.raw, scored.score,
                                           scored.head_coverage()))))
    encode = json.JSONEncoder(sort_keys=True).encode
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(encode(dict(zip(cols, row))) + "\n" for row in rows)
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(cols)
        writer.writerows((kind, "|".join(rels), *rest) for kind, rels, *rest in rows)

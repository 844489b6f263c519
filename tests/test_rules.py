"""The rule table and its joins against exhaustive enumeration.

Support counting, head coverage, the audit grounding and the heads that
injection keeps all read one rule per axiom type; each must agree with the
oracles on small random graphs with self-loops and repeated relations,
one axiom at a time and many axioms in one batched join, whatever the
row budget of a join pass.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iterkg import axioms as axioms_mod
from iterkg.axioms import (
    Axiom, AxiomType, PoolConfig, PooledAxiom, ScoredPool, axiom_table,
    count_support_and_head, generate_pool, join_rules,
)
from iterkg.evaluation import head_coverage
from iterkg.injection import InjectionConfig, ground_axiom, inject_triples
from iterkg.kg import KnowledgeGraph, Triple, Vocabulary, distinct_rows
from iterkg.pipeline import _injected_per_type

from oracles import (
    entity_mask, enumerate_groundings, enumerate_head_coverage, enumerate_supports,
    inject_by_enumeration, random_graph,
)


@st.composite
def small_graphs(draw):
    n_ent = draw(st.integers(1, 6))
    n_rel = draw(st.integers(1, 3))
    ent, rel = st.integers(0, n_ent - 1), st.integers(0, n_rel - 1)
    edges = st.tuples(ent, rel, ent)
    loops = st.tuples(ent, rel).map(lambda er: (er[0], er[1], er[0]))
    triples = draw(st.lists(st.one_of(edges, loops), max_size=30))
    return KnowledgeGraph([Triple(*t) for t in triples],
                          Vocabulary(f"e{i}" for i in range(n_ent)),
                          Vocabulary(f"r{i}" for i in range(n_rel)))


def every_axiom(n_rel):
    for t in AxiomType:
        for rels in itertools.product(range(n_rel), repeat=t.arity):
            if t is AxiomType.EQUIVALENT and rels[0] == rels[1]:
                continue  # vacuous, refused by Axiom
            yield Axiom(t, rels)


@st.composite
def graphs_and_axioms(draw):
    kg = draw(small_graphs())
    rel = st.integers(0, kg.n_relations - 1)
    axioms = []
    for t in AxiomType:
        rels = draw(st.tuples(*[rel] * t.arity))
        if t is AxiomType.EQUIVALENT and rels[0] == rels[1]:
            continue  # vacuous, refused by Axiom
        axioms.append(Axiom(t, rels))
    return kg, axioms, draw(st.integers(1, 8))


# row budgets of a join pass: one unit per pass up to everything in one
budgets = st.sampled_from([1, 2, 3, 7, 1 << 20])


def with_budget(budget, f, *args, **kwargs):
    saved, axioms_mod.ROW_BUDGET = axioms_mod.ROW_BUDGET, budget
    try:
        return f(*args, **kwargs)
    finally:
        axioms_mod.ROW_BUDGET = saved


@settings(max_examples=300, deadline=None)
@given(graphs_and_axioms())
def test_joins_match_enumeration(case):
    kg, axioms, cap = case
    for ax in axioms:
        assert count_support_and_head(kg, ax) == enumerate_supports(kg.triples, ax, kg.n_entities), ax
        if kg.relation_size(ax.head_relation()):
            want = enumerate_head_coverage(kg.triples, ax, kg.n_entities)
            assert head_coverage(kg, ax) == want, ax

        oracle_heads = {h for h, _ in enumerate_groundings(kg.triples, ax, kg.n_entities)}
        assert {tuple(g.head) for g in ground_axiom(kg, ax)} == oracle_heads, ax
        config = InjectionConfig(score_threshold=0.5, max_inferred_per_axiom=cap)
        one = ScoredPool(axiom_table([ax]), *np.zeros((4, 1)), np.ones(1))
        injected = inject_triples(kg, one, entity_mask(kg.n_entities, range(kg.n_entities)), config)
        want_heads = oracle_heads if len(oracle_heads) <= cap else set()
        assert {tuple(it.triple) for it in injected} == want_heads, ax


@st.composite
def scored_batches(draw):
    """A graph and many scored axioms in one pool: repeats, shuffled order
    and tied scores included, with a threshold, cap and sparse set."""
    kg = draw(small_graphs())
    pool = list(every_axiom(kg.n_relations))
    picked = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=25))
    scores = draw(st.lists(st.sampled_from([0.2, 0.6, 0.75, 0.9, 1.0]),
                           min_size=len(picked), max_size=len(picked)))
    scored = ScoredPool(axiom_table(picked), *np.zeros((4, len(picked))), np.array(scores))
    sparse = draw(st.sets(st.integers(0, kg.n_entities - 1)))
    return (kg, scored, sparse, draw(st.sampled_from([0.0, 0.5, 0.8])), draw(st.integers(1, 10)),
            draw(st.booleans()), draw(budgets))


@settings(max_examples=300, deadline=None)
@given(scored_batches())
def test_batched_joins_match_per_axiom_enumeration(case):
    kg, scored, sparse, threshold, cap, restrict, budget = case
    axs = [sa.axiom for sa in scored]
    n_ent = kg.n_entities
    join = with_budget(budget, join_rules, kg, axiom_table(axs))
    assert join.support.tolist() == [enumerate_supports(kg.triples, ax, n_ent)[0] for ax in axs]
    # head coverage from the same join, under the same row budget
    for ax, covered in zip(axs, join.covered.tolist()):
        if kg.relation_size(ax.head_relation()):
            assert covered / kg.relation_size(ax.head_relation()) == enumerate_head_coverage(
                kg.triples, ax, n_ent), ax

    config = InjectionConfig(score_threshold=threshold, max_inferred_per_axiom=cap)
    # every entity counts as sparse when the filter is off
    mask = entity_mask(n_ent, sparse if restrict else range(n_ent))
    got = with_budget(budget, inject_triples, kg, scored, mask, config)
    want = inject_by_enumeration(kg.triples, list(scored), sparse, threshold, cap, n_ent, restrict)
    assert list(got) == want
    # the pipeline's per-type counts and union read the arrays alone
    assert _injected_per_type(got) == {
        t.value: sum(any(ax.type is t for ax in it.sources) for it in want) for t in AxiomType}
    doubled = np.concatenate([got.ids[::-1], got.ids])
    assert distinct_rows(doubled).tolist() == [list(it.triple) for it in want]


@settings(max_examples=300, deadline=None)
@given(scored_batches())
def test_join_lists_only_new_heads_with_a_sparse_end(case):
    # the cap counts every distinct new head; the listing keeps those with
    # a masked subject or object, of the axioms within the cap (the drawn
    # cap, and one no axiom exceeds)
    kg, scored, sparse, _, cap, _, budget = case
    axs = [sa.axiom for sa in scored]
    n_ent = kg.n_entities
    new = [{head for head, _ in enumerate_groundings(kg.triples, ax, n_ent)} for ax in axs]
    drawn = entity_mask(n_ent, sparse)
    masks = np.ones(n_ent, dtype=bool), np.zeros(n_ent, dtype=bool), drawn, ~drawn
    for mask, limit in itertools.product(masks, (cap, n_ent * n_ent)):
        join = with_budget(budget, join_rules, kg, axiom_table(axs), limit, mask)
        assert join.n_heads.tolist() == [len(heads) for heads in new]
        want = sorted((i, x, y) for i, heads in enumerate(new) if len(heads) <= limit
                      for x, _, y in heads if mask[x] or mask[y])
        assert sorted(map(tuple, join.heads.tolist())) == want
    with pytest.raises(ValueError, match="together"):
        join_rules(kg, axiom_table(axs), cap)


@settings(max_examples=200, deadline=None)
@given(small_graphs(), st.integers(0, 2**32 - 1), budgets)
def test_pool_of_every_sampled_triple_is_every_axiom_with_two_supports(kg, seed, budget):
    # with every head triple sampled, the walk proposes every axiom with a
    # support, except a relation's equivalence or sub-property with itself
    config = PoolConfig(samples_per_relation=max(1, len(kg)))
    pool = with_budget(budget, generate_pool, kg, config, np.random.default_rng(seed))
    want = []
    for ax in every_axiom(kg.n_relations):
        if ax.type is AxiomType.SUB_PROPERTY and ax.relations[0] == ax.relations[1]:
            continue
        n, head_n = enumerate_supports(kg.triples, ax, kg.n_entities)
        if n >= 2:
            want.append(PooledAxiom(ax, n, head_n))
    assert list(pool) == want


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 25), st.integers(1, 4), st.integers(0, 150), st.integers(0, 2**32 - 1), budgets)
def test_pool_counts_and_head_coverage_match_enumeration(n_ent, n_rel, n_triples, seed, budget):
    # every pooled axiom carries the counts of the pool's one join: support
    # and head size, and head coverage as covered / head_size
    rng = np.random.default_rng(seed)
    kg = KnowledgeGraph(random_graph(rng, n_ent, n_rel, n_triples),
                        Vocabulary(f"e{i}" for i in range(n_ent)),
                        Vocabulary(f"r{i}" for i in range(n_rel)))
    pool = with_budget(budget, generate_pool, kg, PoolConfig(), rng)
    hc = pool.head_coverage().tolist()
    for i, pa in enumerate(pool):
        assert pool[i] == pa
        assert (pa.support, pa.head_size) == enumerate_supports(kg.triples, pa.axiom, n_ent), pa
        assert hc[i] == enumerate_head_coverage(kg.triples, pa.axiom, n_ent), pa

"""The rule table and its joins against exhaustive enumeration.

Support counting, head coverage, the audit grounding and the heads that
injection keeps all read one rule per axiom type; each must agree with the
oracles on small random graphs with self-loops and repeated relations.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from iterkg.axioms import Axiom, AxiomType, ScoredAxiom, count_support_and_head
from iterkg.evaluation import head_coverage
from iterkg.injection import InjectionConfig, ground_axiom, inject_triples
from iterkg.kg import KnowledgeGraph, Triple, Vocabulary

from oracles import enumerate_groundings, enumerate_head_coverage, enumerate_supports


@st.composite
def graphs_and_axioms(draw):
    n_ent = draw(st.integers(1, 6))
    n_rel = draw(st.integers(1, 3))
    ent, rel = st.integers(0, n_ent - 1), st.integers(0, n_rel - 1)
    edges = st.tuples(ent, rel, ent)
    loops = st.tuples(ent, rel).map(lambda er: (er[0], er[1], er[0]))
    triples = draw(st.lists(st.one_of(edges, loops), max_size=30))
    axioms = []
    for t in AxiomType:
        rels = draw(st.tuples(*[rel] * t.arity))
        if t is AxiomType.EQUIVALENT and rels[0] == rels[1]:
            continue  # vacuous, refused by Axiom
        axioms.append(Axiom(t, rels))
    kg = KnowledgeGraph([Triple(*t) for t in triples],
                        Vocabulary(f"e{i}" for i in range(n_ent)),
                        Vocabulary(f"r{i}" for i in range(n_rel)))
    return kg, axioms, draw(st.integers(1, 8))


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
        injected = inject_triples(kg, [ScoredAxiom(ax, 0, 0, 0.0, 1.0)], set(), config,
                                  restrict_sparse=False)
        want_heads = oracle_heads if len(oracle_heads) <= cap else set()
        assert {tuple(it.triple) for it in injected} == want_heads, ax

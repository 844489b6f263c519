"""Fuzzy-truth composition, grounding, and soft-labeled triple injection."""

import json
import os
import re
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iterkg import axioms, injection
from iterkg.axioms import Axiom, AxiomType, ScoredAxiom, ScoredPool, axiom_table
from iterkg.injection import (
    And, Atom, Implies, InjectionConfig, Not, Or, ground_axiom, inject_triples,
    read_injected_tsv, solve_head_truth, truth_value, write_injected_tsv,
)
from iterkg.kg import KnowledgeGraph, ParseError, Triple, Vocabulary, VocabularyError

from oracles import entity_mask, enumerate_groundings, inject_by_enumeration, random_graph

unit = st.floats(0.0, 1.0)


def graph(triples, n_ent=None, n_rel=None):
    n_ent = n_ent or (max(max(t[0], t[2]) for t in triples) + 1)
    n_rel = n_rel or (max(t[1] for t in triples) + 1)
    ents = Vocabulary(f"e{i}" for i in range(n_ent))
    rels = Vocabulary(f"r{i}" for i in range(n_rel))
    return KnowledgeGraph([Triple(*t) for t in triples], ents, rels)


class TestTruthComposition:
    def test_classical_limits(self):
        assert truth_value(Implies(Atom(1.0), Atom(0.0))) == 0.0
        assert truth_value(Implies(Atom(0.0), Atom(0.3))) == 1.0

    def test_disjunction_arithmetic(self):
        assert truth_value(Or(Atom(0.5), Atom(0.5))) == pytest.approx(0.75)

    def test_atom_validates(self):
        with pytest.raises(ValueError):
            Atom(1.5)

    @settings(max_examples=300, deadline=None)
    @given(a=unit, b=unit)
    def test_de_morgan(self, a, b):
        lhs = truth_value(Not(And(Atom(a), Atom(b))))
        rhs = truth_value(Or(Not(Atom(a)), Not(Atom(b))))
        assert lhs == pytest.approx(rhs, abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(a=unit, b=unit)
    def test_results_stay_in_unit_interval(self, a, b):
        for expr in (And(Atom(a), Atom(b)), Or(Atom(a), Atom(b)), Implies(Atom(a), Atom(b))):
            assert 0.0 <= truth_value(expr) <= 1.0


class TestSolveHeadTruth:
    def test_unit_bodies_return_grounding_truth(self):
        assert solve_head_truth([1.0, 1.0], 0.8) == pytest.approx(0.8)
        assert solve_head_truth([1.0], 1.0) == 1.0
        assert solve_head_truth([1.0, 1.0], 0.1) == 0.1  # bit for bit

    def test_soft_bodies_example(self):
        head = solve_head_truth([0.9, 0.9], 0.9)
        assert head == pytest.approx((0.9 - 1 + 0.81) / 0.81)

    @settings(max_examples=300, deadline=None)
    @given(b1=st.floats(0.05, 1.0), b2=st.floats(0.05, 1.0), g=unit)
    def test_forward_substitution_roundtrip(self, b1, b2, g):
        head = solve_head_truth([b1, b2], g)
        forward = truth_value(Implies(And(Atom(b1), Atom(b2)), Atom(head)))
        # the inversion is exact whenever the head lands strictly inside [0, 1]
        if 0.0 < head < 1.0:
            assert forward == pytest.approx(g, abs=1e-9)

    def test_zero_body_product_rejected(self):
        with pytest.raises(ValueError):
            solve_head_truth([0.0, 1.0], 0.5)


class TestGrounding:
    def test_symmetric_single(self):
        kg = graph([(0, 0, 1)])
        gs = ground_axiom(kg, Axiom(AxiomType.SYMMETRIC, (0,)))
        assert len(gs) == 1
        assert gs[0].head == Triple(1, 0, 0)
        assert gs[0].body == (Triple(0, 0, 1),)

    def test_transitive_existing_head_dropped(self):
        kg = graph([(0, 0, 1), (1, 0, 2), (0, 0, 2)])
        assert ground_axiom(kg, Axiom(AxiomType.TRANSITIVE, (0,))) == []

    def test_reflexive_domain_is_entities_of_relation(self):
        kg = graph([(0, 0, 1), (2, 1, 3)])
        heads = {g.head for g in ground_axiom(kg, Axiom(AxiomType.REFLEXIVE, (0,)))}
        assert heads == {Triple(0, 0, 0), Triple(1, 0, 1)}

    def test_matches_exhaustive_enumeration(self):
        rng = np.random.default_rng(0)
        for _ in range(12):
            n_ent = int(rng.integers(8, 22))
            kg = graph(random_graph(rng, n_ent, 4, int(rng.integers(30, 110))), n_ent, 4)
            axioms = [Axiom(AxiomType.REFLEXIVE, (0,)), Axiom(AxiomType.SYMMETRIC, (1,)),
                      Axiom(AxiomType.TRANSITIVE, (2,)), Axiom(AxiomType.EQUIVALENT, (0, 3)),
                      Axiom(AxiomType.SUB_PROPERTY, (1, 2)), Axiom(AxiomType.INVERSE, (3, 0)),
                      Axiom(AxiomType.SUB_PROPERTY_CHAIN, (1, 2, 3))]
            for ax in axioms:
                got = {(tuple(g.head), tuple(map(tuple, g.body))) for g in ground_axiom(kg, ax)}
                want = enumerate_groundings(kg.triples, ax, n_ent)
                assert got == want, ax

    def test_bodies_in_graph_heads_not(self):
        rng = np.random.default_rng(3)
        kg = graph(random_graph(rng, 15, 3, 60), 15, 3)
        for ax in (Axiom(AxiomType.TRANSITIVE, (0,)), Axiom(AxiomType.SUB_PROPERTY_CHAIN, (0, 1, 2))):
            for g in ground_axiom(kg, ax):
                assert not kg.contains(*g.head)
                assert all(kg.contains(*b) for b in g.body)

    def test_symmetric_grounding_count_complements_support(self):
        # each edge either has its mirror (support) or proposes it (grounding)
        rng = np.random.default_rng(4)
        triples = [t for t in random_graph(rng, 12, 1, 60) if t.subject != t.object]
        kg = graph(triples, 12, 1)
        from iterkg.axioms import count_support_and_head
        n, head_n = count_support_and_head(kg, Axiom(AxiomType.SYMMETRIC, (0,)))
        gs = ground_axiom(kg, Axiom(AxiomType.SYMMETRIC, (0,)))
        assert len(gs) + n == head_n


def scored(ax, score, support=5, head=10, raw=0.0):
    return ScoredAxiom(ax, support, head, raw, score)


def scored_pool(scored):
    """``ScoredAxiom`` objects, in order, as the ``ScoredPool`` that
    ``inject_triples`` reads; no covered counts."""
    support, head, raw, score = (np.array([getattr(sa, f) for sa in scored])
                                 for f in ("support", "head_size", "raw", "score"))
    table = axiom_table([sa.axiom for sa in scored])
    return ScoredPool(table, support, head, np.zeros(len(scored)), raw, score)


class TestInjection:
    def config(self, threshold=0.9, cap=1000):
        return InjectionConfig(score_threshold=threshold, max_inferred_per_axiom=cap,
                               sparsity_threshold=0.9)

    def test_below_threshold_contributes_nothing(self):
        kg = graph([(0, 0, 1)])
        ax = scored(Axiom(AxiomType.SYMMETRIC, (0,)), 0.5)
        out = inject_triples(kg, scored_pool([ax]), entity_mask(kg.n_entities, [0, 1]), self.config())
        assert len(out) == 0 and list(out) == []

    def test_duplicate_heads_merge_on_max_score(self):
        kg = graph([(0, 0, 1), (0, 1, 1)])
        # two rules inferring the same head (1, 0, 0): symmetric of r0 and
        # inverse of (r0 <- r1)
        axioms = [scored(Axiom(AxiomType.SYMMETRIC, (0,)), 0.92),
                  scored(Axiom(AxiomType.INVERSE, (0, 1)), 0.96)]
        out = inject_triples(kg, scored_pool(axioms), entity_mask(kg.n_entities, [0, 1]), self.config())
        merged = [it for it in out if it.triple == Triple(1, 0, 0)]
        assert len(merged) == 1
        assert merged[0].truth == pytest.approx(0.96)
        assert len(merged[0].sources) == 2

    @pytest.mark.parametrize("scores", [(0.95, 0.95, 0.93), (0.92, 0.96, 0.93)], ids=["tie", "later-higher"])
    def test_merged_heads_match_enumeration(self, scores):
        # symmetric r0 and inverse (r0 <- r1) both infer (1, 0, 0) and (3, 0, 2),
        # the inverse alone (5, 0, 4); symmetric r1 infers heads of r1 only
        kg = graph([(0, 0, 1), (0, 1, 1), (2, 0, 3), (2, 1, 3), (4, 1, 5)])
        axs = [Axiom(AxiomType.SYMMETRIC, (0,)), Axiom(AxiomType.INVERSE, (0, 1)),
               Axiom(AxiomType.SYMMETRIC, (1,))]
        pool = scored_pool([scored(ax, score) for ax, score in zip(axs, scores)])
        every = range(kg.n_entities)
        out = inject_triples(kg, pool, entity_mask(kg.n_entities, every), self.config())
        want = inject_by_enumeration(kg.triples, list(pool), set(every), 0.9, 1000, kg.n_entities)
        assert list(out) == want
        merged = [it for it in out if len(it.sources) == 2]
        assert [it.triple for it in merged] == [Triple(1, 0, 0), Triple(3, 0, 2)]
        assert all(it.sources == tuple(axs[:2]) and it.truth == max(scores[:2]) for it in merged)

    def test_truth_is_the_pooled_score_bit_for_bit(self):
        # (0.1 - 1 + 1) is 0.09999999999999998 in float64; the head is labeled 0.1
        kg = graph([(0, 0, 1)])
        ax = scored(Axiom(AxiomType.SYMMETRIC, (0,)), 0.1)
        out = inject_triples(kg, scored_pool([ax]), entity_mask(kg.n_entities, [0, 1]), self.config(0.0))
        assert out.ids.tolist() == [[1, 0, 0]] and out.truth.tolist() == [0.1]

    def test_cap_skips_whole_axiom(self):
        triples = [(i, 0, i + 1) for i in range(10)]
        kg = graph(triples)
        ax = scored(Axiom(AxiomType.SYMMETRIC, (0,)), 0.95)
        every = entity_mask(kg.n_entities, range(11))
        assert len(inject_triples(kg, scored_pool([ax]), every, self.config(cap=5))) == 0
        assert len(inject_triples(kg, scored_pool([ax]), every, self.config(cap=10))) == 10

    def test_cap_skips_are_logged_once_per_call(self, caplog):
        kg = graph([(i, 0, i + 1) for i in range(10)] + [(0, 1, 1)])
        axioms = [scored(Axiom(AxiomType.SYMMETRIC, (0,)), 0.95),       # 10 heads: over
                  scored(Axiom(AxiomType.TRANSITIVE, (0,)), 0.95),      # 9 heads: over
                  scored(Axiom(AxiomType.SYMMETRIC, (1,)), 0.95)]       # 1 head: kept
        every = entity_mask(kg.n_entities, range(11))
        with caplog.at_level("INFO", logger="iterkg.injection"):
            out = inject_triples(kg, scored_pool(axioms), every, self.config(cap=5))
        assert [it.triple for it in out] == [Triple(1, 1, 0)]
        assert [r.getMessage() for r in caplog.records] == [
            "skipped 2 axioms inferring more than max_inferred_per_axiom=5 heads"]
        caplog.clear()
        with caplog.at_level("INFO", logger="iterkg.injection"):
            inject_triples(kg, scored_pool(axioms), every, self.config(cap=10))
        assert not caplog.records

    def test_cap_applies_before_heads_are_materialized(self, monkeypatch):
        # a 200-node path: the transitive rule proposes 198 heads, joined in
        # passes of a few paths each; the join stops listing them once the
        # count passes the cap; inject_triples builds no Triple or
        # InferredTriple, iterating its result builds one of each per head
        monkeypatch.setattr(axioms, "ROW_BUDGET", 4)
        kg = graph([(i, 0, i + 1) for i in range(199)])
        listed, built = [], []
        list_heads = axioms.RuleJoin.list_heads
        monkeypatch.setattr(axioms.RuleJoin, "list_heads",
                            lambda self, c, x, y: listed.append(len(c)) or list_heads(self, c, x, y))
        for name in ("Triple", "InferredTriple"):
            cls = getattr(injection, name)
            monkeypatch.setattr(injection, name, lambda *a, cls=cls: built.append(cls) or cls(*a))
        ax, every = scored(Axiom(AxiomType.TRANSITIVE, (0,)), 0.95), entity_mask(kg.n_entities, range(200))
        assert len(inject_triples(kg, scored_pool([ax]), every, self.config(cap=5))) == 0
        assert len(listed) > 1 and sum(listed) <= 5
        listed.clear()
        out = inject_triples(kg, scored_pool([ax]), every, self.config(cap=198))
        assert len(out) == 198 and sum(listed) == 198
        assert built == []
        assert len(list(out)) == 198
        assert len(built) == 2 * 198

    def test_debug_line_counts_grounding(self, caplog):
        kg = graph([(i, 0, i + 1) for i in range(10)] + [(0, 1, 1)])
        axioms = [scored(Axiom(AxiomType.SYMMETRIC, (0,)), 0.95),       # 10 heads: over
                  scored(Axiom(AxiomType.TRANSITIVE, (0,)), 0.95),      # 9 heads, 1 sparse
                  scored(Axiom(AxiomType.SYMMETRIC, (1,)), 0.95),       # 1 head, sparse
                  scored(Axiom(AxiomType.INVERSE, (1, 0)), 0.5)]        # below threshold
        with caplog.at_level("DEBUG", logger="iterkg.injection"):
            out = inject_triples(kg, scored_pool(axioms), entity_mask(kg.n_entities, [0]), self.config(cap=9))
        assert [it.triple for it in out] == [Triple(0, 0, 2), Triple(1, 1, 0)]
        debug = [r.getMessage() for r in caplog.records if r.levelname == "DEBUG"]
        assert debug == ["axioms_grounded=3 heads_proposed=10 heads_kept=2 axioms_over_cap=1"]

    def test_sparse_filter(self):
        kg = graph([(0, 0, 1), (2, 0, 3)])
        ax = scored(Axiom(AxiomType.SYMMETRIC, (0,)), 0.95)
        out = inject_triples(kg, scored_pool([ax]), entity_mask(kg.n_entities, [0]), self.config())
        assert [it.triple for it in out] == [Triple(1, 0, 0)]
        unfiltered = inject_triples(kg, scored_pool([ax]), entity_mask(kg.n_entities, range(kg.n_entities)),
                                    self.config())
        assert len(unfiltered) == 2

    def test_sparse_must_be_a_mask_over_the_graphs_entities(self):
        # an id set, an id array or a mask of another length is refused,
        # not read as far as it fits
        kg = graph([(0, 0, 1)])
        ax = scored(Axiom(AxiomType.SYMMETRIC, (0,)), 0.95)
        for sparse in (entity_mask(3, [0, 2]), entity_mask(1, [0]), {0, 1}, np.array([0, 1])):
            with pytest.raises(ValueError, match="boolean mask over the graph's 2 entities"):
                inject_triples(kg, scored_pool([ax]), sparse, self.config())

    def test_planted_inverse_recovers_ten_held_out_pairs(self):
        pairs = [(i, 20 + i) for i in range(20)]
        train = [(a, 0, b) for a, b in pairs]          # base edges
        train += [(b, 1, a) for a, b in pairs[:10]]    # half the mirrors present
        kg = graph(train)
        ax = scored(Axiom(AxiomType.INVERSE, (1, 0)), 0.93)
        out = inject_triples(kg, scored_pool([ax]), entity_mask(kg.n_entities, range(40)), self.config())
        assert {it.triple for it in out} == {Triple(b, 1, a) for a, b in pairs[10:]}
        assert len(out) == 10
        assert all(it.truth == 0.93 for it in out)

    def test_injection_disjoint_from_graph_and_idempotent(self):
        rng = np.random.default_rng(5)
        kg = graph(random_graph(rng, 15, 3, 70), 15, 3)
        axioms = [scored(Axiom(AxiomType.SYMMETRIC, (0,)), 0.95),
                  scored(Axiom(AxiomType.TRANSITIVE, (1,)), 0.97)]
        every = entity_mask(kg.n_entities, range(15))
        out1 = inject_triples(kg, scored_pool(axioms), every, self.config())
        out2 = inject_triples(kg, scored_pool(axioms), every, self.config())
        assert list(out1) == list(out2)
        for it in out1:
            assert not kg.contains(*it.triple)
            assert it.truth > 0.9

    def test_tsv_round_trip(self, tmp_path):
        kg = graph([(0, 0, 1)])
        ax = scored(Axiom(AxiomType.SYMMETRIC, (0,)), 0.95)
        out = inject_triples(kg, scored_pool([ax]), entity_mask(kg.n_entities, [0, 1]), self.config())
        path = tmp_path / "injected.tsv"
        write_injected_tsv(path, out, kg.entities, kg.relations)
        assert path.read_text() == "e1\tr0\te0\t0.95\t1\n"
        back = read_injected_tsv(path, kg.entities, kg.relations)
        assert back.dtype == np.int64 and back.tolist() == out.ids.tolist() == [[1, 0, 0]]

    @pytest.mark.parametrize("line, error, message", [
        ("e0\tr0\tnobody\t0.9\t1\n", VocabularyError, "unknown name: 'nobody'"),
        ("e0\tr9\te1\t0.9\t1\n", VocabularyError, "unknown name: 'r9'"),
        ("e0\tr0\te1\t0.9\n", ParseError, "expected 5 tab-separated fields, got 4"),
    ], ids=["unknown-entity", "unknown-relation", "four-fields"])
    def test_bad_dump_line_names_path_and_line(self, tmp_path, line, error, message):
        kg = graph([(0, 0, 1)])
        path = tmp_path / "injected.tsv"
        path.write_text("e1\tr0\te0\t0.95\t1\n" + line)
        with pytest.raises(error, match=f"^{re.escape(str(path))}:2: {re.escape(message)}$"):
            read_injected_tsv(path, kg.entities, kg.relations)


def test_grounding_imports_no_numpy_ma():
    """Grounding an axiom of every type, reflexive first, loads no
    ``numpy.ma``: under numpy 2.4 a plain ``np.unique`` (behind
    ``np.union1d``) imports it, which costs a process milliseconds and
    about a megabyte."""
    script = textwrap.dedent("""
        import json, sys
        from iterkg.axioms import Axiom, AxiomType
        from iterkg.injection import ground_axiom
        from iterkg.kg import KnowledgeGraph, Triple, Vocabulary

        kg = KnowledgeGraph([Triple(0, 0, 1), Triple(1, 0, 2), Triple(2, 1, 0), Triple(1, 1, 1)],
                            Vocabulary(["e0", "e1", "e2"]), Vocabulary(["r0", "r1"]))
        loaded = []
        for t in AxiomType:
            ground_axiom(kg, Axiom(t, [0, 1, 1][: t.arity]))
            loaded.append("numpy.ma" in sys.modules)
        print(json.dumps(loaded))
    """)
    src = os.path.dirname(os.path.dirname(injection.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    assert json.loads(done.stdout) == [False] * len(AxiomType)

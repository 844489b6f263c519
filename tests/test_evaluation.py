"""Ranking against a sort oracle, MRR/Hit arithmetic, and rule quality."""

import logging
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iterkg import evaluation
from iterkg.axioms import Axiom, AxiomType
from iterkg.embedding import TrainConfig, init_model, raw_scores
from iterkg.evaluation import (
    candidate_scores, head_coverage, link_prediction, rank_entity_side, rank_side, summarize_rules,
)
from iterkg.kg import KnowledgeGraph, Triple, Vocabulary

from oracles import dense_block_matrix, enumerate_head_coverage, rank_by_sort, random_graph


def graph(triples, n_ent=None, n_rel=None):
    n_ent = n_ent or (max(max(t[0], t[2]) for t in triples) + 1)
    n_rel = n_rel or (max(t[1] for t in triples) + 1)
    ents = Vocabulary(f"e{i}" for i in range(n_ent))
    rels = Vocabulary(f"r{i}" for i in range(n_rel))
    return KnowledgeGraph([Triple(*t) for t in triples], ents, rels)


@pytest.mark.parametrize("layout", [(8, 0), (0, 4), (2, 3)])
def test_candidate_scores_equal_scores_of_substituted_triples(layout):
    n_scalars, n_blocks = layout
    n_ent = 7
    cfg = TrainConfig(dim=n_scalars + 2 * n_blocks, n_scalars=n_scalars, seed=4)
    model = init_model(n_ent, 3, cfg)
    ents = np.arange(n_ent)
    for t in (Triple(0, 1, 5), Triple(3, 2, 3), Triple(6, 0, 2)):
        same = np.full(n_ent, t.relation)
        subject_side = raw_scores(model, ents, same, np.full(n_ent, t.object))
        object_side = raw_scores(model, np.full(n_ent, t.subject), same, ents)
        # a dot product against the fused form: equal up to summation order
        np.testing.assert_allclose(candidate_scores(model, t, "subject"), subject_side,
                                   rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(candidate_scores(model, t, "object"), object_side,
                                   rtol=1e-12, atol=1e-15)


def sort_oracle_rank(model, known, t, side, mode):
    scores = candidate_scores(model, t, side)
    true_id = t.subject if side == "subject" else t.object
    excluded = set()
    if mode == "filter":
        for e in range(len(scores)):
            cand = Triple(e, t.relation, t.object) if side == "subject" else Triple(t.subject, t.relation, e)
            if e != true_id and cand in known:
                excluded.add(e)
    return rank_by_sort(scores, true_id, excluded)


class TestRanking:
    def setup_method(self):
        rng = np.random.default_rng(0)
        self.kg = graph(random_graph(rng, 8, 3, 20), 8, 3)
        self.model = init_model(8, 3, TrainConfig(dim=8, seed=1))
        self.known = set(self.kg.triples)

    def test_top_scored_entity_ranks_first(self):
        t = self.kg.triples[0]
        scores = candidate_scores(self.model, t, "subject")
        winner = int(np.argmax(scores))
        probe = Triple(winner, t.relation, t.object)
        assert rank_entity_side(self.model, set(), probe, "subject", "raw") == 1

    def test_filter_removes_known_competitors(self):
        # make every other candidate a known triple: the rank must be 1
        t = self.kg.triples[0]
        known = {Triple(e, t.relation, t.object) for e in range(8)}
        assert rank_entity_side(self.model, known, t, "subject", "filter") == 1

    def test_matches_sort_oracle_both_modes(self):
        for t in self.kg.triples:
            for side in ("subject", "object"):
                for mode in ("raw", "filter"):
                    got = rank_entity_side(self.model, self.known, t, side, mode)
                    want = sort_oracle_rank(self.model, self.known, t, side, mode)
                    assert got == want, (t, side, mode)

    def test_filtered_never_worse_than_raw(self):
        for t in self.kg.triples:
            for side in ("subject", "object"):
                raw = rank_entity_side(self.model, self.known, t, side, "raw")
                filt = rank_entity_side(self.model, self.known, t, side, "filter")
                assert filt <= raw

    def test_invariant_under_entity_relabeling(self):
        perm = np.random.default_rng(3).permutation(8)
        model2 = self.model.copy()
        model2.ent = self.model.ent[np.argsort(perm)][:]
        # relabel: entity e becomes perm[e]
        model2.ent = np.empty_like(self.model.ent)
        model2.ent[perm] = self.model.ent
        kg2 = graph(
            [(int(perm[t.subject]), t.relation, int(perm[t.object])) for t in self.kg.triples], 8, 3
        )
        known2 = set(kg2.triples)
        for t in self.kg.triples:
            t2 = Triple(int(perm[t.subject]), t.relation, int(perm[t.object]))
            r1 = rank_entity_side(self.model, self.known, t, "object", "filter")
            r2 = rank_entity_side(model2, known2, t2, "object", "filter")
            assert r1 == r2


@st.composite
def integer_ranking_case(draw):
    """A model with small-integer parameters, so every score is an exact
    integer under any summation order and ties are real, plus a test split,
    known triples that repeat rows and hold the test triples, a set of
    triples to credit, train frequencies and a block size."""
    n_ent, n_rel = draw(st.integers(2, 7)), draw(st.integers(1, 3))
    n_scalars, n_blocks = draw(st.sampled_from([(2, 0), (0, 1), (2, 1), (2, 2)]))
    dim = n_scalars + 2 * n_blocks
    model = init_model(n_ent, n_rel, TrainConfig(dim=dim, n_scalars=n_scalars, seed=0))

    def small(*shape):
        values = draw(st.lists(st.integers(-2, 2), min_size=int(np.prod(shape)),
                               max_size=int(np.prod(shape))))
        return np.array(values, dtype=float).reshape(shape)

    model.ent[:] = small(n_ent, dim)
    model.rel_scalars[:] = small(n_rel, n_scalars)
    model.rel_rot[:] = small(n_rel, n_blocks, 2)
    triple = st.builds(Triple, st.integers(0, n_ent - 1), st.integers(0, n_rel - 1),
                       st.integers(0, n_ent - 1))
    test = draw(st.lists(triple, min_size=1, max_size=9))
    others = draw(st.lists(triple, max_size=25))
    known = others + test + draw(st.lists(st.sampled_from(others + test), max_size=10))
    credited = set(draw(st.lists(st.sampled_from(test + others), max_size=3)))
    freq = np.array(draw(st.lists(st.integers(0, 9), min_size=n_ent, max_size=n_ent)))
    block = draw(st.sampled_from([1, 2, len(test) + 1]))
    as_array = draw(st.booleans())
    return model, test, np.array(known) if as_array else known, credited, freq, block


def oracle_side_ranks(model, known, t, side):
    """(raw, filtered) rank of ``t`` on one side from dense matrices and a sort."""
    m = dense_block_matrix(model.rel_scalars[t.relation], model.rel_rot[t.relation])
    if side == "subject":
        scores, true_id = model.ent @ m @ model.ent[t.object], t.subject
        known_ids = {s for s, r, o in known if (r, o) == (t.relation, t.object)}
    else:
        scores, true_id = model.ent @ m.T @ model.ent[t.subject], t.object
        known_ids = {o for s, r, o in known if (s, r) == (t.subject, t.relation)}
    return rank_by_sort(scores, true_id, set()), rank_by_sort(scores, true_id, known_ids - {true_id})


@settings(max_examples=150, deadline=None)
@given(case=integer_ranking_case())
def test_block_ranking_matches_sort_oracle_and_report_arithmetic(case):
    model, test, known, credited, freq, block = case
    known_rows = np.asarray(known).reshape(-1, 3)
    # oracle[i][j]: (raw, filtered) rank of test[i] on side j
    oracle = [[oracle_side_ranks(model, known_rows.tolist(), t, side) for side in ("subject", "object")]
              for t in test]
    with mock.patch.object(evaluation, "BLOCK", block):
        for j, side in enumerate(("subject", "object")):
            raw_j, filt_j = rank_side(model, known_rows, np.array(test), side)
            assert raw_j.tolist() == [o[j][0] for o in oracle]
            assert filt_j.tolist() == [o[j][1] for o in oracle]
        plain = link_prediction(model, known, test, freq)
    for t, o in zip(test, oracle):
        for j, side in enumerate(("subject", "object")):
            assert rank_entity_side(model, known, t, side, "raw") == o[j][0]
            assert rank_entity_side(model, known, t, side, "filter") == o[j][1]
    # crediting ranks nothing: the report of the same ranks, credited sides set to 1
    with mock.patch.object(evaluation, "rank_side", None):
        hybrid = plain.credit(credited)
    for rep, ones in ((plain, set()), (hybrid, credited)):
        check_report_arithmetic(rep, test, oracle, ones, freq)


def check_report_arithmetic(rep, test, oracle, credited, freq):
    """``rep`` against the oracle's side ranks, both sides of each test
    triple in ``credited`` ranked 1."""
    raw, filt = [], []
    for t, ((rs, fs), (ro, fo)) in zip(test, oracle):
        raw += [1, 1] if t in credited else [rs, ro]
        filt += [1, 1] if t in credited else [fs, fo]
    assert rep.raw.ravel().tolist() == raw and rep.filtered.ravel().tolist() == filt

    def mean(xs):
        return sum(xs) / len(xs)

    pairs = [(raw[i], raw[i + 1], filt[i], filt[i + 1]) for i in range(0, len(raw), 2)]
    assert rep.n_test == len(test)
    assert rep.mrr_raw == pytest.approx(mean([1 / r for r in raw]), abs=1e-12)
    assert rep.mrr_filter == pytest.approx(mean([1 / r for r in filt]), abs=1e-12)
    assert rep.hits_raw == {n: pytest.approx(mean([r <= n for r in raw])) for n in (1, 3, 10)}
    assert rep.hits_filter == {n: pytest.approx(mean([r <= n for r in filt])) for n in (1, 3, 10)}
    assert rep.mrr_mean_rank_raw == pytest.approx(mean([2 / (a + b) for a, b, _, _ in pairs]), abs=1e-12)
    assert rep.mrr_mean_rank_filter == pytest.approx(mean([2 / (c + d) for _, _, c, d in pairs]),
                                                     abs=1e-12)
    buckets: dict = {}
    for t, (_, _, fs, fo) in zip(test, pairs):
        for ent, rank in ((t.subject, fs), (t.object, fo)):
            f = int(freq[ent])
            lo = 1 << (f.bit_length() - 1) if f else 0
            buckets.setdefault((lo, max(2 * lo, 1)), []).append(1 / rank)
    want = [{"freq_lo": lo, "freq_hi": hi, "mrr": pytest.approx(mean(v), abs=1e-12), "count": len(v)}
            for (lo, hi), v in sorted(buckets.items())]
    assert rep.buckets == want


class TestBlockRanking:
    def setup_method(self):
        # scalar model with scores e * e': on the object side of (0, r, 3)
        # the true entity 3 trails 0, 1 and 2
        self.model = init_model(4, 1, TrainConfig(dim=4, n_scalars=4, seed=0))
        self.model.rel_scalars[0] = 1.0
        self.model.ent[:] = [[4, 0, 0, 0], [3, 0, 0, 0], [2, 0, 0, 0], [1, 0, 0, 0]]

    def test_no_triple_at_a_time_scoring(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("link_prediction scored one triple at a time")

        monkeypatch.setattr(evaluation, "candidate_scores", refuse)
        monkeypatch.setattr(evaluation, "rank_entity_side", refuse)
        test = [Triple(0, 0, 3), Triple(1, 0, 2)]
        rep = link_prediction(self.model, {Triple(0, 0, 1)}, test)
        assert rep.n_test == 2
        hybrid = rep.credit(np.array([test[0]]))
        assert hybrid.mrr_filter >= rep.mrr_filter

    def test_one_debug_line_per_call(self, monkeypatch, caplog):
        monkeypatch.setattr(evaluation, "BLOCK", 2)
        known = [Triple(0, 0, 1), Triple(0, 0, 2), Triple(0, 0, 3), Triple(0, 0, 2)]
        with caplog.at_level(logging.DEBUG, logger="iterkg.evaluation"):
            rep = link_prediction(self.model, known, [Triple(0, 0, 3)] * 3 + [Triple(2, 0, 1)])
            rep.credit({Triple(2, 0, 1)})
        lines = [r.getMessage() for r in caplog.records if r.name == "iterkg.evaluation"]
        # each (0, r, 3) has 1 and 2 ahead of 3 on the object side, both
        # known; (2, r, 1) has 0 and 1 ahead of 2 on the subject side, 0 known
        assert lines == ["ranked 4 test triples on both sides in 4 blocks; filtered out 7 known candidates"]

    def test_known_ids_outside_the_model_rejected(self):
        with pytest.raises(ValueError):
            link_prediction(self.model, [Triple(0, 0, 4)], [Triple(0, 0, 3)])


class TestMetricsArithmetic:
    def test_single_top_ranked_triple(self):
        # a pure rotation maps v0 onto v1, so (0, r, 1) tops both sides
        model = init_model(2, 1, TrainConfig(dim=4, n_scalars=0, seed=0))
        model.ent[:] = [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]]
        model.rel_rot[0] = [[0.0, -1.0], [0.0, 0.0]]
        report = link_prediction(model, set(), [Triple(0, 0, 1)])
        assert report.mrr_raw == report.mrr_filter == 1.0
        assert all(v == 1.0 for v in report.hits_raw.values())

    def test_ranks_one_and_four(self):
        # handcrafted scores: subject side rank 1, object side rank 4
        model = init_model(4, 1, TrainConfig(dim=4, n_scalars=4, seed=0))
        model.rel_scalars[0] = 1.0
        model.ent[:] = [[4, 0, 0, 0], [3, 0, 0, 0], [2, 0, 0, 0], [1, 0, 0, 0]]
        # test triple (0, r, 3): subject side scores e*ent[3] -> 0 wins (rank 1);
        # object side scores ent[0]*e -> 3 is weakest (rank 4)
        report = link_prediction(model, set(), [Triple(0, 0, 3)])
        assert report.mrr_raw == pytest.approx((1 + 0.25) / 2)
        assert report.hits_raw[3] == 0.5
        assert report.hits_raw[10] == 1.0
        assert report.mrr_mean_rank_raw == pytest.approx(1 / 2.5)

    def test_spreadsheet_oracle_on_fixture(self):
        rng = np.random.default_rng(2)
        kg = graph(random_graph(rng, 8, 2, 20), 8, 2)
        test = list(kg.triples[:10])
        model = init_model(8, 2, TrainConfig(dim=8, seed=4))
        known = set(kg.triples)
        report = link_prediction(model, known, test)
        recips, mean_recips = [], []
        for t in test:
            rs = sort_oracle_rank(model, known, t, "subject", "filter")
            ro = sort_oracle_rank(model, known, t, "object", "filter")
            recips += [1 / rs, 1 / ro]
            mean_recips.append(2 / (rs + ro))
        assert report.mrr_filter == pytest.approx(np.mean(recips), abs=1e-12)
        assert report.mrr_mean_rank_filter == pytest.approx(np.mean(mean_recips), abs=1e-12)
        assert 0 < report.mrr_filter <= 1
        assert report.hits_filter[1] <= report.hits_filter[3] <= report.hits_filter[10]
        assert report.mrr_filter >= report.mrr_raw

    def test_bucket_mrrs_aggregate_to_overall(self):
        rng = np.random.default_rng(5)
        kg = graph(random_graph(rng, 10, 2, 40), 10, 2)
        model = init_model(10, 2, TrainConfig(dim=8, seed=5))
        freq = np.zeros(10, dtype=np.int64)
        for t in kg.triples:
            freq[t.subject] += 1
            freq[t.object] += 1
        report = link_prediction(model, set(kg.triples), list(kg.triples[:12]), train_freq=freq)
        weighted = sum(b["mrr"] * b["count"] for b in report.buckets)
        count = sum(b["count"] for b in report.buckets)
        assert count == 24
        assert weighted / count == pytest.approx(report.mrr_filter, abs=1e-12)

    def test_empty_test_rejected(self):
        model = init_model(3, 1, TrainConfig(dim=4, seed=0))
        with pytest.raises(ValueError):
            link_prediction(model, set(), [])


class TestHybridMode:
    def setup_method(self):
        rng = np.random.default_rng(7)
        self.kg = graph(random_graph(rng, 8, 2, 18), 8, 2)
        self.model = init_model(8, 2, TrainConfig(dim=8, seed=7))
        self.known = set(self.kg.triples)
        self.test = list(self.kg.triples[:8])

    def test_injected_test_triple_ranks_one(self):
        report = link_prediction(self.model, self.known, self.test[:1]).credit(np.array([self.test[0]]))
        assert report.mrr_filter == 1.0

    def test_empty_injection_is_plain(self):
        b = link_prediction(self.model, self.known, self.test)
        a = b.credit(np.empty((0, 3), dtype=np.int64))
        assert a.to_dict() == b.to_dict()

    def test_half_covered_never_decreases_mrr(self):
        injected = np.array(self.test[: len(self.test) // 2])
        plain = link_prediction(self.model, self.known, self.test)
        hybrid = plain.credit(injected)
        with pytest.raises(ValueError):
            plain.credit(np.array([[-1, 0, 2]]))
        assert hybrid.mrr_filter >= plain.mrr_filter
        assert hybrid.mrr_raw >= plain.mrr_raw


class TestHeadCoverage:
    def test_fully_covered(self):
        kg = graph([(0, 0, 1), (1, 0, 0)])
        assert head_coverage(kg, Axiom(AxiomType.SYMMETRIC, (0,))) == 1.0

    def test_two_of_three(self):
        kg = graph([(0, 0, 1), (1, 0, 0), (2, 0, 3)])
        assert head_coverage(kg, Axiom(AxiomType.SYMMETRIC, (0,))) == pytest.approx(2 / 3)

    def test_empty_head_relation_rejected(self):
        kg = graph([(0, 0, 1)], n_rel=2)
        with pytest.raises(ValueError):
            head_coverage(kg, Axiom(AxiomType.SYMMETRIC, (1,)))

    def test_matches_enumeration_all_types(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            n_ent = int(rng.integers(8, 20))
            kg = graph(random_graph(rng, n_ent, 4, int(rng.integers(40, 120))), n_ent, 4)
            axioms = [Axiom(AxiomType.REFLEXIVE, (0,)), Axiom(AxiomType.SYMMETRIC, (1,)),
                      Axiom(AxiomType.TRANSITIVE, (2,)), Axiom(AxiomType.EQUIVALENT, (0, 3)),
                      Axiom(AxiomType.SUB_PROPERTY, (1, 0)), Axiom(AxiomType.INVERSE, (3, 2)),
                      Axiom(AxiomType.SUB_PROPERTY_CHAIN, (0, 1, 2))]
            for ax in axioms:
                if not kg.triples_of(ax.head_relation()):
                    continue
                got = head_coverage(kg, ax)
                want = enumerate_head_coverage(kg.triples, ax, n_ent)
                assert got == pytest.approx(want), ax

    def test_support_equals_headcount_means_full_coverage(self):
        pairs = [(i, 5 + i) for i in range(5)]
        kg = graph([(a, 0, b) for a, b in pairs] + [(b, 1, a) for a, b in pairs])
        assert head_coverage(kg, Axiom(AxiomType.INVERSE, (1, 0))) == 1.0


class TestSummarizeRules:
    axioms = [Axiom(AxiomType.SYMMETRIC, (0,)), Axiom(AxiomType.SYMMETRIC, (1,))]
    scores = [1.0, 0.0]

    def hcs(self, kg):
        return [head_coverage(kg, ax) for ax in self.axioms]

    @staticmethod
    def point(summary, threshold):
        return next(p for p in summary["curve"] if p["threshold"] == threshold)

    def test_curve_thresholds_are_the_fixed_grid(self):
        kg = graph([(0, 0, 1), (1, 0, 0), (2, 1, 3), (3, 1, 2)])
        summary = summarize_rules(self.hcs(kg), self.scores)
        assert [p["threshold"] for p in summary["curve"]] == [
            0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]
        assert summary["hc_threshold"] == 0.7

    def test_all_high_quality_counted(self):
        kg = graph([(0, 0, 1), (1, 0, 0), (2, 1, 3), (3, 1, 2)])
        summary = summarize_rules(self.hcs(kg), self.scores)
        assert summary["high_quality_count"] == 2

    def test_strict_threshold_at_one_selects_nothing(self):
        kg = graph([(0, 0, 1), (1, 0, 0), (2, 1, 3), (3, 1, 2)])
        summary = summarize_rules(self.hcs(kg), self.scores)
        assert self.point(summary, 1.0)["selected_fraction"] == 0.0

    def test_curve_matches_hand_enumeration(self):
        kg = graph([(0, 0, 1), (1, 0, 0), (2, 1, 3), (3, 1, 2), (4, 1, 5)])
        # HC: symmetric(r0)=1.0 (HQ), symmetric(r1)=2/3 (not HQ at 0.7)
        summary = summarize_rules(self.hcs(kg), self.scores)
        assert summary["high_quality_count"] == 1
        point = self.point(summary, 0.5)
        assert point["selected_fraction"] == 0.5  # only the score-1.0 axiom
        assert point["hq_coverage"] == 1.0        # and it is the HQ one

    def test_head_coverage_count_must_match_pool(self):
        kg = graph([(0, 0, 1), (1, 0, 0), (2, 1, 3), (3, 1, 2)])
        with pytest.raises(ValueError):
            summarize_rules([1.0], self.scores)

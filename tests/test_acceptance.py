"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
summary.
"""

import json
import math
import os
import time

import numpy as np
import pytest

from iterkg.axioms import (
    Axiom, AxiomType, PoolConfig, generate_pool, min_sample_size, sample_size_grid_sup,
)
from iterkg.blocks import BlockDiagMatrix
from iterkg.embedding import LabeledTriple, TrainConfig, compute_loss_and_gradients, init_model
from iterkg.evaluation import candidate_scores, head_coverage, link_prediction
from iterkg.injection import And, Atom, Not, Or, ground_axiom, solve_head_truth, truth_value
from iterkg.kg import (
    KnowledgeGraph, Triple, Vocabulary, entity_sparsity, load_dataset, sparsify_eval_split,
)
from iterkg.pipeline import PipelineConfig, run_iterations
from iterkg.injection import InjectionConfig
from iterkg.synthetic import make_planted_dataset, write_dataset

from oracles import (
    dense_block_matrix, enumerate_groundings, enumerate_head_coverage,
    enumerate_supports, random_graph, rank_by_sort,
)


def report(name, elapsed, budget):
    print(f"\n[acceptance] {name}: PASS ({elapsed:.2f}s / budget {budget:.0f}s)")
    assert elapsed < budget, f"{name} exceeded its runtime budget"


def test_criterion_1_pruning_bound():
    start = time.perf_counter()
    assert min_sample_size(0.5, 0.95) == 6
    rng = np.random.default_rng(12)
    for _ in range(20):
        p = float(rng.uniform(0.05, 1.0))
        t = float(rng.uniform(0.5, 0.999))
        closed = math.ceil(-math.log(1.0 - t) / p)
        assert int(np.ceil(sample_size_grid_sup(p, t))) == closed == min_sample_size(p, t)
    report("1 pruning bound", time.perf_counter() - start, 1.0)


def test_criterion_2_block_algebra():
    start = time.perf_counter()
    rng = np.random.default_rng(2)
    for _ in range(100):
        dim = 2 * int(rng.integers(1, 9))
        nb = int(rng.integers(0, dim // 2 + 1))
        ns = dim - 2 * nb
        m1 = BlockDiagMatrix(rng.normal(size=ns), rng.normal(size=(nb, 2)))
        m2 = BlockDiagMatrix(rng.normal(size=ns), rng.normal(size=(nb, 2)))
        d1 = dense_block_matrix(m1.scalars, m1.rotations)
        d2 = dense_block_matrix(m2.scalars, m2.rotations)
        assert np.allclose(m1.multiply(m2).to_dense(), d1 @ d2, atol=1e-10)
        assert abs(m1.frobenius_diff(m2) - np.linalg.norm(d1 - d2)) < 1e-10
        v1, v2 = rng.normal(size=dim), rng.normal(size=dim)
        cfg = TrainConfig(dim=dim, n_scalars=ns, seed=0)
        model = init_model(2, 1, cfg)
        model.ent[0], model.ent[1] = v1, v2
        model.rel_scalars[0] = m1.scalars
        model.rel_rot[0] = m1.rotations
        from iterkg.embedding import raw_scores
        got = float(raw_scores(model, np.array([0]), np.array([0]), np.array([1]))[0])
        assert abs(got - v1 @ d1 @ v2) < 1e-10
    report("2 block algebra vs dense oracle", time.perf_counter() - start, 5.0)


def test_criterion_3_gradient_check():
    start = time.perf_counter()
    h, tol = 1e-5, 1e-4
    for restart in range(10):
        rng = np.random.default_rng(100 + restart)
        model = init_model(6, 3, TrainConfig(dim=8, seed=restart))
        batch = [
            LabeledTriple(Triple(int(rng.integers(6)), int(rng.integers(3)), int(rng.integers(6))),
                          float(rng.random()))
            for _ in range(20)
        ]
        l1 = 1e-4
        _, grads = compute_loss_and_gradients(model, batch, l1)

        def loss_only():
            return compute_loss_and_gradients(model, batch, l1)[0]

        def check(param, analytic):
            it = np.nditer(param, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                param[idx] += h
                up = loss_only()
                param[idx] -= 2 * h
                down = loss_only()
                param[idx] += h
                fd = (up - down) / (2 * h)
                denom = max(abs(fd), abs(analytic[idx]))
                if denom > 1e-8:
                    assert abs(fd - analytic[idx]) / denom < tol

        for pos, eid in enumerate(grads.ent_ids):
            check(model.ent[eid], grads.ent_grad[pos])
        for pos, rid in enumerate(grads.rel_ids):
            check(model.rel_scalars[rid], grads.scalar_grad[pos])
            check(model.rel_rot[rid], grads.rot_grad[pos])
    report("3 gradient vs finite differences", time.perf_counter() - start, 10.0)


def test_criterion_4_counting_oracles():
    start = time.perf_counter()
    rng = np.random.default_rng(4)
    for _ in range(50):
        n_ent = int(rng.integers(10, 31))
        n_tr = int(rng.integers(40, 130))
        triples = random_graph(rng, n_ent, 5, n_tr)
        ents = Vocabulary(f"e{i}" for i in range(n_ent))
        rels = Vocabulary(f"r{i}" for i in range(5))
        kg = KnowledgeGraph(triples, ents, rels)
        axioms = [Axiom(t, (int(rng.integers(5)),))
                  for t in (AxiomType.REFLEXIVE, AxiomType.SYMMETRIC, AxiomType.TRANSITIVE)]
        for t in (AxiomType.EQUIVALENT, AxiomType.SUB_PROPERTY, AxiomType.INVERSE):
            r1 = int(rng.integers(5))
            r2 = (r1 + 1 + int(rng.integers(4))) % 5
            axioms.append(Axiom(t, (r1, r2)))
        axioms.append(Axiom(AxiomType.SUB_PROPERTY_CHAIN, tuple(int(rng.integers(5)) for _ in range(3))))
        for ax in axioms:
            from iterkg.axioms import count_support_and_head
            assert count_support_and_head(kg, ax) == enumerate_supports(kg.triples, ax, n_ent)
            got = {(tuple(g.head), tuple(map(tuple, g.body))) for g in ground_axiom(kg, ax)}
            assert got == enumerate_groundings(kg.triples, ax, n_ent)
            if kg.triples_of(ax.head_relation()):
                assert head_coverage(kg, ax) == pytest.approx(
                    enumerate_head_coverage(kg.triples, ax, n_ent), abs=1e-12)
    report("4 support/grounding/HC enumeration", time.perf_counter() - start, 30.0)


def test_criterion_5_tnorm():
    start = time.perf_counter()
    rng = np.random.default_rng(5)
    for _ in range(1000):
        s_a = float(rng.random())
        arity = int(rng.integers(0, 3))
        assert abs(solve_head_truth([1.0] * arity, s_a) - s_a) < 1e-12
    for _ in range(1000):
        a, b = float(rng.random()), float(rng.random())
        lhs = truth_value(Not(And(Atom(a), Atom(b))))
        rhs = truth_value(Or(Not(Atom(a)), Not(Atom(b))))
        assert abs(lhs - rhs) < 1e-12
    report("5 t-norm identities", time.perf_counter() - start, 5.0)


def test_criterion_6_ranking_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    triples = random_graph(rng, 8, 3, 20)
    ents = Vocabulary(f"e{i}" for i in range(8))
    rels = Vocabulary(f"r{i}" for i in range(3))
    kg = KnowledgeGraph(triples, ents, rels)
    model = init_model(8, 3, TrainConfig(dim=8, seed=1))
    known = set(kg.triples)

    from iterkg.evaluation import rank_entity_side

    for t in kg.triples:
        for side in ("subject", "object"):
            scores = candidate_scores(model, t, side)
            true_id = t.subject if side == "subject" else t.object
            excluded_raw: set = set()
            excluded_fil = set()
            for e in range(8):
                cand = Triple(e, t.relation, t.object) if side == "subject" else Triple(t.subject, t.relation, e)
                if e != true_id and cand in known:
                    excluded_fil.add(e)
            assert rank_entity_side(model, known, t, side, "raw") == rank_by_sort(scores, true_id, excluded_raw)
            assert rank_entity_side(model, known, t, side, "filter") == rank_by_sort(scores, true_id, excluded_fil)

    # frozen expectations, derived from the sort oracle plus reciprocal
    # arithmetic done outside the library
    rep = link_prediction(model, known, list(kg.triples))
    assert rep.mrr_raw == pytest.approx(0.33693452380952377, abs=1e-12)
    assert rep.mrr_filter == pytest.approx(0.35833333333333328, abs=1e-12)
    assert rep.hits_raw[1] == pytest.approx(0.075, abs=1e-12)
    assert rep.hits_raw[3] == pytest.approx(0.425, abs=1e-12)
    assert rep.hits_raw[10] == 1.0
    assert rep.hits_filter[3] == pytest.approx(0.575, abs=1e-12)
    assert rep.mrr_mean_rank_raw == pytest.approx(0.31932650682650676, abs=1e-12)
    assert rep.mrr_mean_rank_filter == pytest.approx(0.34357864357864354, abs=1e-12)
    report("6 ranking oracle + metric table", time.perf_counter() - start, 10.0)


def _recovery_config(data_dir, out_dir, iterations=10, seed=11):
    return PipelineConfig(
        data_dir=str(data_dir), out_dir=str(out_dir), iterations=iterations, seed=seed,
        train=TrainConfig(dim=32, n_scalars=32, n_negatives=6, l1_weight=0.0,
                          learning_rate=0.02, batch_size=512, epochs_per_iteration=3, seed=seed),
        pool=PoolConfig(min_axiom_prob=0.5, include_prob=0.95, seed=seed),
        injection=InjectionConfig(score_threshold=0.9, max_inferred_per_axiom=2000,
                                  sparsity_threshold=0.9),
    )


def test_criterion_7_synthetic_recovery(tmp_path):
    start = time.perf_counter()
    dataset = make_planted_dataset(seed=7)
    data_dir = tmp_path / "data"
    write_dataset(dataset, data_dir)

    result = run_iterations(_recovery_config(data_dir, tmp_path / "out"))
    rel = {name: i for i, name in enumerate(result.kg.relations)}

    # (a) each planted axiom scores above 0.9 and sits in its type's top 10%
    for type_name, rel_names in dataset.planted:
        axiom_type = AxiomType(type_name)
        rids = tuple(rel[n] for n in rel_names)
        entries = [sa for sa in result.scored if sa.axiom.type is axiom_type]
        mine = [sa for sa in entries if sa.axiom.relations == rids]
        assert mine, f"planted {type_name} axiom missing from the pool"
        rank = 1 + sum(1 for sa in entries if sa.score > mine[0].score)
        top = max(1, math.ceil(0.1 * len(entries)))
        assert mine[0].score > 0.9, (type_name, mine[0].score)
        assert rank <= top, (type_name, rank, len(entries))

    # (b) hybrid prediction beats the first-iteration plain model by >= 0.05
    first = run_iterations(_recovery_config(data_dir, tmp_path / "out1", iterations=1))
    plain_mrr = first.report["link_prediction"]["mrr_filter"]
    hybrid_mrr = result.report["link_prediction_with_axioms"]["mrr_filter"]
    assert hybrid_mrr >= plain_mrr + 0.05, (plain_mrr, hybrid_mrr)
    report("7 synthetic recovery", time.perf_counter() - start, 300.0)


def test_criterion_8_report_determinism(tmp_path):
    start = time.perf_counter()
    dataset = make_planted_dataset(seed=7)
    data_dir = tmp_path / "data"
    write_dataset(dataset, data_dir)
    run_iterations(_recovery_config(data_dir, tmp_path / "a", iterations=2))
    run_iterations(_recovery_config(data_dir, tmp_path / "b", iterations=2))
    a = (tmp_path / "a" / "report.json").read_bytes()
    b = (tmp_path / "b" / "report.json").read_bytes()
    assert a == b
    report("8 byte-identical reports", time.perf_counter() - start, 120.0)


FB15K237 = os.environ.get("ITERKG_FB15K237", "")


@pytest.mark.skipif(
    not (FB15K237 and os.path.exists(os.path.join(FB15K237, "train.txt"))),
    reason="set ITERKG_FB15K237 to a directory with train/valid/test.txt to run",
)
def test_criterion_9_fb15k237_indicative():
    start = time.perf_counter()
    train, valid, test, ents, rels = load_dataset(FB15K237)
    kg = KnowledgeGraph(train, ents, rels)
    table = entity_sparsity(kg)
    kept = sparsify_eval_split(table, test, 0.995)
    fraction = len(kept) / len(test)
    assert 0.2 <= fraction <= 0.8, fraction

    pool_start = time.perf_counter()
    pool = generate_pool(kg, PoolConfig(min_axiom_prob=0.5, include_prob=0.95, seed=0),
                         np.random.default_rng(0))
    pool_elapsed = time.perf_counter() - pool_start
    assert pool_elapsed < 120.0
    chains = sum(1 for pa in pool if pa.axiom.type is AxiomType.SUB_PROPERTY_CHAIN)
    assert 1000 <= chains <= 50000, chains
    report("9 FB15k-237 indicative", time.perf_counter() - start, 600.0)

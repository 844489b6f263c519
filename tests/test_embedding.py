"""Model init, scoring, gradients, Adam, negatives, and the epoch loop."""

import numpy as np
import pytest

from iterkg.embedding import (
    LabeledTriple, SparseGrads, TrainConfig, adam_update, compute_loss_and_gradients,
    init_model, raw_scores, sample_negatives, score_triple, score_triples, train_epoch,
)
from iterkg.kg import KnowledgeGraph, Triple, Vocabulary

from oracles import dense_block_matrix


def tiny_kg(n_ent=5, n_rel=2):
    ents = Vocabulary(f"e{i}" for i in range(n_ent))
    rels = Vocabulary(f"r{i}" for i in range(n_rel))
    triples = [Triple(0, 0, 1), Triple(1, 0, 2), Triple(2, 0, 3), Triple(3, 0, 4),
               Triple(0, 1, 2), Triple(1, 1, 3), Triple(2, 1, 4), Triple(4, 0, 0)]
    return KnowledgeGraph(triples, ents, rels)


def complete_kg():
    # complete graph over 2 entities and 1 relation: no negative exists
    ents, rels = Vocabulary("ab"), Vocabulary("r")
    return KnowledgeGraph([Triple(a, 0, b) for a in range(2) for b in range(2)], ents, rels)


class TestConfig:
    def test_default_layout(self):
        cfg = TrainConfig(dim=200)
        assert cfg.n_scalars == 100 and cfg.n_blocks == 50

    def test_odd_dim_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(dim=7)

    def test_bad_layout_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(dim=8, n_scalars=3)


class TestInit:
    def test_deterministic(self):
        cfg = TrainConfig(dim=8, seed=5)
        m1, m2 = init_model(6, 3, cfg), init_model(6, 3, cfg)
        assert np.array_equal(m1.ent, m2.ent)
        assert np.array_equal(m1.rel_scalars, m2.rel_scalars)
        assert np.array_equal(m1.rel_rot, m2.rel_rot)

    def test_range(self):
        m = init_model(50, 10, TrainConfig(dim=16, seed=0))
        for arr in (m.ent, m.rel_scalars, m.rel_rot):
            assert np.all(arr > -0.1) and np.all(arr < 0.1)

    def test_optimizer_zeroed(self):
        m = init_model(4, 2, TrainConfig(dim=8, seed=0))
        assert m.opt.step == 0
        assert not m.opt.m_ent.any() and not m.opt.v_rot.any()


class TestScore:
    def test_zero_subject_gives_half(self):
        m = init_model(3, 1, TrainConfig(dim=8, seed=1))
        m.ent[0] = 0.0
        assert score_triple(m, Triple(0, 0, 1)) == pytest.approx(0.5)

    def test_identity_relation_unit_vector(self):
        m = init_model(2, 1, TrainConfig(dim=4, seed=1))
        m.rel_scalars[0] = 1.0
        m.rel_rot[0] = [[1.0, 0.0]]
        v = np.zeros(4)
        v[0] = 1.0
        m.ent[0] = m.ent[1] = v
        assert score_triple(m, Triple(0, 0, 1)) == pytest.approx(0.7310585786300049)

    def test_blockwise_equals_dense(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            dim = 2 * int(rng.integers(2, 9))
            nb = int(rng.integers(0, dim // 2 + 1))
            ns = dim - 2 * nb
            cfg = TrainConfig(dim=dim, n_scalars=ns, seed=int(rng.integers(1000)))
            m = init_model(6, 3, cfg)
            s, r, o = (int(rng.integers(6)), int(rng.integers(3)), int(rng.integers(6)))
            dense = dense_block_matrix(m.rel_scalars[r], m.rel_rot[r])
            want = float(m.ent[s] @ dense @ m.ent[o])
            got = float(raw_scores(m, np.array([s]), np.array([r]), np.array([o]))[0])
            assert got == pytest.approx(want, abs=1e-10)

    def test_score_strictly_inside_unit_interval(self):
        # float64 sigmoid saturates around |x| ~ 36; moderate parameters
        # keep the bilinear form well inside that range
        m = init_model(10, 4, TrainConfig(dim=12, seed=3))
        phi = score_triples(m, [Triple(i % 10, i % 4, (i * 3) % 10) for i in range(40)])
        assert np.all(phi > 0) and np.all(phi < 1)

    def test_all_scalar_layout_is_trilinear_product(self):
        cfg = TrainConfig(dim=6, n_scalars=6, seed=4)
        m = init_model(4, 2, cfg)
        s, r, o = 1, 0, 3
        want = float(np.sum(m.ent[s] * m.rel_scalars[r] * m.ent[o]))
        got = float(raw_scores(m, np.array([s]), np.array([r]), np.array([o]))[0])
        assert got == pytest.approx(want, abs=1e-12)


class TestNegatives:
    def test_count_and_membership(self):
        kg = tiny_kg()
        rng = np.random.default_rng(0)
        negs, exhausted = sample_negatives(kg, kg.triples[0], 6, rng)
        assert len(negs) == 6 and not exhausted
        for lt in negs:
            assert lt.label == 0.0
            assert not kg.contains(*lt.triple)
            assert lt.triple != kg.triples[0]

    def test_exhaustion_flag_on_pathological_graph(self):
        kg = complete_kg()
        negs, exhausted = sample_negatives(kg, Triple(0, 0, 1), 4, np.random.default_rng(0))
        assert exhausted and len(negs) < 4

    def test_epoch_warns_when_negatives_run_out(self, caplog):
        kg = complete_kg()  # every graph triple exhausts its retries
        cfg = TrainConfig(dim=4, n_negatives=2, batch_size=2, seed=0)
        model = init_model(2, 1, cfg)
        with caplog.at_level("WARNING", logger="iterkg.embedding"):
            train_epoch(model, [LabeledTriple(t, 1.0) for t in kg.triples], kg, cfg,
                        np.random.default_rng(0))
        warnings = [r for r in caplog.records if r.levelname == "WARNING"]
        assert len(warnings) == 1
        assert "for 4 graph triples" in warnings[0].getMessage()

    def test_epoch_silent_when_negatives_suffice(self, caplog):
        kg = tiny_kg()
        cfg = TrainConfig(dim=4, n_negatives=3, seed=0)
        model = init_model(kg.n_entities, kg.n_relations, cfg)
        with caplog.at_level("WARNING", logger="iterkg.embedding"):
            train_epoch(model, [LabeledTriple(t, 1.0) for t in kg.triples], kg, cfg,
                        np.random.default_rng(0))
        assert not caplog.records

    def test_corrupted_position_roughly_uniform(self):
        # chi-square against uniform thirds at the 0.001 level (crit 13.8)
        kg = tiny_kg(n_ent=30, n_rel=8)
        rng = np.random.default_rng(7)
        counts = np.zeros(3)
        t = kg.triples[0]
        for _ in range(2500):
            negs, _ = sample_negatives(kg, t, 4, rng)
            for lt in negs:
                changed = [lt.triple.subject != t.subject,
                           lt.triple.relation != t.relation,
                           lt.triple.object != t.object]
                assert sum(changed) == 1
                counts[changed.index(True)] += 1
        total = counts.sum()
        chi2 = float(np.sum((counts - total / 3) ** 2 / (total / 3)))
        assert chi2 < 13.8


def finite_difference_check(model, batch, l1, h=1e-5, tol=1e-4):
    loss, grads = compute_loss_and_gradients(model, batch, l1)

    def loss_only():
        return compute_loss_and_gradients(model, batch, l1)[0]

    worst = 0.0

    def check(param, analytic):
        nonlocal worst
        it = np.nditer(param, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            param[idx] += h
            up = loss_only()
            param[idx] -= 2 * h
            down = loss_only()
            param[idx] += h
            fd = (up - down) / (2 * h)
            an = analytic[idx]
            denom = max(abs(fd), abs(an))
            if denom > 1e-8:
                worst = max(worst, abs(fd - an) / denom)

    for pos, eid in enumerate(grads.ent_ids):
        check(model.ent[eid], grads.ent_grad[pos])
    for pos, rid in enumerate(grads.rel_ids):
        check(model.rel_scalars[rid], grads.scalar_grad[pos])
        check(model.rel_rot[rid], grads.rot_grad[pos])
    assert worst < tol, f"finite-difference mismatch {worst}"
    return loss


class TestLossAndGradients:
    def test_cross_entropy_at_label_equals_binary_entropy(self):
        m = init_model(3, 1, TrainConfig(dim=4, seed=2))
        t = Triple(0, 0, 1)
        phi = score_triple(m, t)
        loss, _ = compute_loss_and_gradients(m, [LabeledTriple(t, phi)], 0.0)
        want = -phi * np.log(phi) - (1 - phi) * np.log(1 - phi)
        assert loss == pytest.approx(want, abs=1e-12)

    def test_saturated_positive_leaves_only_l1(self):
        m = init_model(2, 1, TrainConfig(dim=4, n_scalars=4, seed=2))
        m.ent[0] = m.ent[1] = 10.0
        m.rel_scalars[0] = 1.0
        loss, _ = compute_loss_and_gradients(m, [LabeledTriple(Triple(0, 0, 1), 1.0)], 1e-3)
        l1_term = 1e-3 * (np.abs(m.ent[:2]).sum() + np.abs(m.rel_scalars[0]).sum())
        assert loss == pytest.approx(l1_term, abs=1e-9)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(0)
        m = init_model(6, 3, TrainConfig(dim=8, seed=3))
        batch = [
            LabeledTriple(Triple(int(rng.integers(6)), int(rng.integers(3)), int(rng.integers(6))),
                          float(rng.random()))
            for _ in range(20)
        ]
        finite_difference_check(m, batch, l1=1e-4)

    def test_loss_nonnegative_without_l1(self):
        rng = np.random.default_rng(4)
        m = init_model(6, 2, TrainConfig(dim=8, seed=9))
        batch = [LabeledTriple(Triple(int(rng.integers(6)), int(rng.integers(2)), int(rng.integers(6))),
                               float(rng.random())) for _ in range(30)]
        loss, _ = compute_loss_and_gradients(m, batch, 0.0)
        assert loss >= 0

    def test_empty_batch_rejected(self):
        m = init_model(2, 1, TrainConfig(dim=4, seed=0))
        with pytest.raises(ValueError):
            compute_loss_and_gradients(m, [], 0.0)


class TestAdam:
    def cfg(self, lr=0.01):
        return TrainConfig(dim=4, n_scalars=2, learning_rate=lr, seed=0)

    def grads_for(self, model, ent_g=0.0, sc_g=0.0):
        return SparseGrads(
            ent_ids=np.array([0]), ent_grad=np.full((1, model.dim), ent_g),
            rel_ids=np.array([0]), scalar_grad=np.full((1, model.n_scalars), sc_g),
            rot_grad=np.zeros((1, model.n_blocks, 2)),
        )

    def test_zero_gradient_no_move(self):
        m = init_model(3, 1, self.cfg())
        before = m.ent.copy()
        adam_update(m, self.grads_for(m), self.cfg())
        np.testing.assert_array_equal(m.ent, before)

    def test_first_step_is_signed_lr(self):
        cfg = self.cfg(lr=0.01)
        m = init_model(3, 1, cfg)
        before = float(m.rel_scalars[0, 0])
        adam_update(m, self.grads_for(m, sc_g=0.37), cfg)
        assert m.rel_scalars[0, 0] == pytest.approx(before - 0.01, rel=1e-6)

    def test_untouched_parameters_stay(self):
        cfg = self.cfg()
        m = init_model(3, 1, cfg)
        before = m.ent[1:].copy()
        adam_update(m, self.grads_for(m, ent_g=1.0), cfg)
        np.testing.assert_array_equal(m.ent[1:], before)

    def test_nan_gradient_fails_fast(self):
        cfg = self.cfg()
        m = init_model(3, 1, cfg)
        g = self.grads_for(m)
        g.ent_grad[0, 0] = np.nan
        with pytest.raises(ValueError):
            adam_update(m, g, cfg)

    def test_identical_streams_identical_trajectories(self):
        cfg = self.cfg()
        m1, m2 = init_model(3, 1, cfg), init_model(3, 1, cfg)
        rng = np.random.default_rng(1)
        for _ in range(20):
            g = self.grads_for(m1, ent_g=float(rng.normal()), sc_g=float(rng.normal()))
            adam_update(m1, g, cfg)
            adam_update(m2, g, cfg)
        assert np.array_equal(m1.ent, m2.ent)
        assert m1.opt.step == m2.opt.step == 20


class TestTrainEpoch:
    def test_deterministic_under_seed(self):
        kg = tiny_kg()
        cfg = TrainConfig(dim=8, seed=2, batch_size=16, learning_rate=0.01)
        inputs = [LabeledTriple(t, 1.0) for t in kg.triples]
        m1, m2 = init_model(5, 2, cfg), init_model(5, 2, cfg)
        for m in (m1, m2):
            rng = np.random.default_rng(9)
            for _ in range(3):
                train_epoch(m, inputs, kg, cfg, rng)
        assert np.array_equal(m1.ent, m2.ent)
        assert np.array_equal(m1.rel_rot, m2.rel_rot)

    def test_smoke_loss_halves(self):
        kg = tiny_kg()
        cfg = TrainConfig(dim=8, seed=1, batch_size=64, learning_rate=0.01)
        m = init_model(5, 2, cfg)
        rng = np.random.default_rng(0)
        inputs = [LabeledTriple(t, 1.0) for t in kg.triples]
        losses = [train_epoch(m, inputs, kg, cfg, rng) for _ in range(200)]
        assert losses[-1] <= 0.5 * losses[0]

    def test_empty_inputs_rejected(self):
        kg = tiny_kg()
        cfg = TrainConfig(dim=8, seed=1)
        with pytest.raises(ValueError):
            train_epoch(init_model(5, 2, cfg), [], kg, cfg, np.random.default_rng(0))

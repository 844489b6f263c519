"""Model init, scoring, gradients, Adam, negatives, and the epoch loop."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iterkg import embedding, kernels
from iterkg.axioms import TYPES, PoolConfig, generate_pool, induce_axioms
from iterkg.embedding import (
    LabeledTriple, SparseGrads, StepBuffers, TrainConfig, TripleBatch, adam_update,
    compute_loss_and_gradients, init_model, raw_scores, sample_negatives, train_epoch,
)
from iterkg.evaluation import rank_side
from iterkg.kg import KnowledgeGraph, Triple, Vocabulary
from iterkg.pipeline import load_checkpoint, save_checkpoint

from oracles import dense_block_matrix, sample_negatives_loop


def adam_scratch(model, grads):
    """A fresh ``scratch`` for ``adam_update``: three planes of the larger
    gradient, NaN until written."""
    return np.full(3 * max(len(grads.ent_ids), len(grads.rel_ids)) * model.dim, np.nan)


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

    @pytest.mark.parametrize("epochs", [0, -1])
    def test_fewer_than_one_epoch_rejected(self, epochs):
        # no epoch means no loss to record: the mean of none is NaN
        with pytest.raises(ValueError, match="epochs_per_iteration"):
            TrainConfig(epochs_per_iteration=epochs)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("name", ["learning_rate", "l1_weight"])
    def test_non_finite_hyperparameter_rejected(self, name, value):
        # NaN fails every comparison, so a range check alone lets it through
        with pytest.raises(ValueError, match=f"^{name} must be finite, got {value}$"):
            TrainConfig(**{name: value})

    @pytest.mark.parametrize("name, value, rule", [
        ("learning_rate", 0.0, "positive"), ("learning_rate", -0.01, "positive"),
        ("batch_size", 0, "at least 1"), ("batch_size", -3, "at least 1"),
        ("n_negatives", -1, "at least 0"),
    ])
    def test_out_of_range_hyperparameter_rejected(self, name, value, rule):
        with pytest.raises(ValueError, match=f"^{name} must be {rule}, got {value}$"):
            TrainConfig(**{name: value})

    def test_no_negatives_accepted(self):
        assert TrainConfig(n_negatives=0).n_negatives == 0


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
        assert not m.opt.m_ent.any() and not m.opt.v_rel.any()

    def test_entity_table_fortran_ordered_from_the_same_stream(self):
        cfg = TrainConfig(dim=8, n_scalars=4, seed=3)
        m = init_model(6, 3, cfg)
        rng = np.random.default_rng(3)
        for arr, shape in ((m.ent, (6, 8)), (m.rel_scalars, (3, 4)), (m.rel_rot, (3, 2, 2))):
            assert arr.tobytes() == rng.uniform(-0.1, 0.1, size=shape).tobytes()
        assert all(a.flags.f_contiguous and not a.flags.c_contiguous
                   for a in (m.ent, m.opt.m_ent, m.opt.v_ent, m.rel, m.opt.m_rel, m.opt.v_rel))

    def test_copy_is_fortran_ordered_and_independent(self):
        m = init_model(6, 3, TrainConfig(dim=8, seed=3))
        # a caller's C-ordered entity and relation tables
        m.ent, m.rel = np.ascontiguousarray(m.ent), np.ascontiguousarray(m.rel)
        for c in (m.copy(), m.copy().copy()):
            assert c.n_scalars == m.n_scalars
            for name, got, was in (("ent", c.ent, m.ent), ("m_ent", c.opt.m_ent, m.opt.m_ent),
                                   ("v_ent", c.opt.v_ent, m.opt.v_ent), ("rel", c.rel, m.rel),
                                   ("m_rel", c.opt.m_rel, m.opt.m_rel), ("v_rel", c.opt.v_rel, m.opt.v_rel)):
                assert got.flags.f_contiguous and not got.flags.c_contiguous, name
                assert np.array_equal(got, was) and not np.shares_memory(got, was), name


@pytest.mark.parametrize("source", ["init", "copy", "checkpoint"])
def test_relation_views_write_through(tmp_path, source):
    """``rel`` is Fortran-ordered in every model made here, and so is a
    gradient's ``rel_grad``; their scalar and block views are views: a
    write through one lands in the table."""
    model = init_model(6, 3, TrainConfig(dim=10, n_scalars=4, seed=1))
    if source == "copy":
        model = model.copy()
    elif source == "checkpoint":
        save_checkpoint(model, tmp_path / "m.bin")
        model = load_checkpoint(tmp_path / "m.bin")
    rel = model.rel
    assert rel.shape == (3, 10) and rel.flags.f_contiguous and not rel.flags.c_contiguous and rel.flags.writeable
    model.rel_scalars[1] = 5.0
    model.rel_rot[1, 0] = [6.0, 7.0]
    model.rel_rot[2, 1] = [8.0, 9.0]
    assert np.array_equal(rel[1, :6], [5.0] * 4 + [6.0, 7.0]) and np.array_equal(rel[2, 6:8], [8.0, 9.0])
    assert model.rel_rot.shape == (3, 3, 2)
    _, grads = compute_loss_and_gradients(model, TripleBatch.of([[0, 1, 2], [3, 2, 4]], [1.0, 0.0]), 0.0)
    assert grads.rel_grad.flags.f_contiguous and not grads.rel_grad.flags.c_contiguous
    grads.scalar_grad[0] = 1.0
    grads.rot_grad[1, 2] = [2.0, 3.0]
    assert np.array_equal(grads.rel_grad[0, :4], [1.0] * 4) and np.array_equal(grads.rel_grad[1, 8:], [2.0, 3.0])
    assert grads.scalar_grad.shape == (2, 4) and grads.rot_grad.shape == (2, 3, 2)


class TestScore:
    def test_zero_subject_gives_half(self):
        m = init_model(3, 1, TrainConfig(dim=8, seed=1))
        m.ent[0] = 0.0
        assert kernels.sigmoid(raw_scores(m, *np.array([[0], [0], [1]])))[0] == pytest.approx(0.5)

    def test_identity_relation_unit_vector(self):
        m = init_model(2, 1, TrainConfig(dim=4, seed=1))
        m.rel_scalars[0] = 1.0
        m.rel_rot[0] = [[1.0, 0.0]]
        v = np.zeros(4)
        v[0] = 1.0
        m.ent[0] = m.ent[1] = v
        assert kernels.sigmoid(raw_scores(m, *np.array([[0], [0], [1]])))[0] == pytest.approx(0.7310585786300049)

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
        i = np.arange(40)
        phi = kernels.sigmoid(raw_scores(m, i % 10, i % 4, (i * 3) % 10))
        assert np.all(phi > 0) and np.all(phi < 1)

    def test_all_scalar_layout_is_trilinear_product(self):
        cfg = TrainConfig(dim=6, n_scalars=6, seed=4)
        m = init_model(4, 2, cfg)
        s, r, o = 1, 0, 3
        want = float(np.sum(m.ent[s] * m.rel_scalars[r] * m.ent[o]))
        got = float(raw_scores(m, np.array([s]), np.array([r]), np.array([o]))[0])
        assert got == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("n_scalars", [0, 8, 32])
    def test_scoring_allocates_no_training_rows(self, n_scalars):
        """Scoring B examples allocates their gathered subject, object and
        scalar columns and at most eight (B,) columns, the kernel's six and
        the scores among them; no gradient, L1 or Adam rows, which here
        would nearly double it."""
        n_ent, dim, B = 400, 32, 400
        m = init_model(n_ent, 5, TrainConfig(dim=dim, n_scalars=n_scalars, seed=0))
        s, r, o = np.random.default_rng(0).integers((n_ent, 5, n_ent), size=(B, 3)).T
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            raw_scores(m, s, r, o)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - before <= 8 * (2 * dim + n_scalars + 8) * B + 8192


def single_relation_kg(n_ent=200, n_triples=1000, seed=3):
    rng = np.random.default_rng(seed)
    triples = [Triple(int(a), 0, int(b)) for a, b in rng.integers(n_ent, size=(n_triples, 2))]
    return KnowledgeGraph(triples, Vocabulary(f"e{i}" for i in range(n_ent)), Vocabulary("r"))


def recording(monkeypatch, name):
    """Wrap ``embedding.<name>`` so every call's (positional args, result)
    is kept; keyword arguments are passed through."""
    calls = []
    real = getattr(embedding, name)

    def wrapper(*args, **kwargs):
        result = real(*args, **kwargs)
        calls.append((args, result))
        return result

    monkeypatch.setattr(embedding, name, wrapper)
    return calls


class TestNegatives:
    def test_count_and_membership(self):
        kg = tiny_kg()
        rng = np.random.default_rng(0)
        t = kg.triples[0]
        negs, n_exhausted = sample_negatives(kg, np.array([t]), 6, rng)
        assert negs.shape == (6, 3) and n_exhausted == 0
        for row in negs:
            assert not kg.contains(*row)
            assert tuple(row) != t

    def test_exhaustion_flag_on_pathological_graph(self):
        kg = complete_kg()
        negs, n_exhausted = sample_negatives(kg, np.array([Triple(0, 0, 1)]), 4,
                                             np.random.default_rng(0))
        assert n_exhausted == 1 and len(negs) < 4

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

    def test_single_relation_graph_never_exhausts(self, caplog, monkeypatch):
        # corrupting the only relation can only reproduce the source triple
        kg = single_relation_kg()
        cfg = TrainConfig(dim=4, n_negatives=6, batch_size=256, seed=0)
        calls = recording(monkeypatch, "sample_negatives")
        with caplog.at_level("WARNING", logger="iterkg.embedding"):
            train_epoch(init_model(kg.n_entities, 1, cfg),
                        [LabeledTriple(t, 1.0) for t in kg.triples], kg, cfg,
                        np.random.default_rng(0))
        assert not caplog.records
        assert calls and all(n_exhausted == 0 for _, (_, n_exhausted) in calls)
        assert sum(len(negs) for _, (negs, _) in calls) == 6 * len(kg)
        assert all((negs[:, 1] == 0).all() for _, (negs, _) in calls)

    def test_epoch_trains_graph_triples_with_zero_labeled_negatives(self, monkeypatch):
        kg = tiny_kg()
        cfg = TrainConfig(dim=4, n_negatives=3, seed=0)
        injected = LabeledTriple(Triple(3, 1, 0), 0.8)  # not a graph triple: no negatives
        calls = recording(monkeypatch, "compute_loss_and_gradients")
        inputs = [LabeledTriple(t, 1.0) for t in kg.triples] + [injected]
        train_epoch(init_model(kg.n_entities, kg.n_relations, cfg), inputs, kg, cfg,
                    np.random.default_rng(0))
        (_, batch, _), _ = calls[0]
        assert len(calls) == 1 and len(batch) == len(inputs) + 3 * len(kg)
        inputs_seen = sorted(zip(map(tuple, batch.ids[: len(inputs)].tolist()),
                                 batch.labels[: len(inputs)]))
        assert inputs_seen == sorted((tuple(lt.triple), lt.label) for lt in inputs)
        assert not any(kg.contains(*row) for row in batch.ids[len(inputs):].tolist())
        assert np.all(batch.labels[len(inputs):] == 0.0)

    def test_corrupted_position_roughly_uniform(self):
        # chi-square against uniform thirds at the 0.001 level (crit 13.8)
        kg = tiny_kg(n_ent=30, n_rel=8)
        rng = np.random.default_rng(7)
        counts = np.zeros(3)
        t = kg.triples[0]
        for _ in range(2500):
            negs, _ = sample_negatives(kg, np.array([t]), 4, rng)
            for row in negs:
                changed = [row[0] != t.subject, row[1] != t.relation, row[2] != t.object]
                assert sum(changed) == 1
                counts[changed.index(True)] += 1
        total = counts.sum()
        chi2 = float(np.sum((counts - total / 3) ** 2 / (total / 3)))
        assert chi2 < 13.8


@st.composite
def sampler_case(draw):
    """A random graph and sources that pairwise differ in all three ids, so
    each one-position corruption has exactly one source it can come from."""
    n_ent, n_rel = draw(st.integers(1, 7)), draw(st.integers(1, 4))
    ids = st.tuples(st.integers(0, n_ent - 1), st.integers(0, n_rel - 1), st.integers(0, n_ent - 1))
    triples = draw(st.lists(ids, max_size=60))
    m = draw(st.integers(0, min(n_ent, n_rel)))

    def distinct(k):
        return draw(st.permutations(range(k)))[:m]

    sources = np.array(list(zip(distinct(n_ent), distinct(n_rel), distinct(n_ent))), dtype=np.int64)
    kg = KnowledgeGraph([Triple(*t) for t in triples],
                        Vocabulary(f"e{i}" for i in range(n_ent)),
                        Vocabulary(f"r{i}" for i in range(n_rel)))
    return kg, sources.reshape(-1, 3)


@settings(max_examples=150, deadline=None)
@given(case=sampler_case(), n=st.integers(0, 5), max_retries=st.integers(1, 30),
       seed=st.integers(0, 2**32 - 1))
def test_batched_sampler_rows_are_one_position_corruptions_outside_the_graph(
        case, n, max_retries, seed):
    kg, sources = case
    negs, n_exhausted = sample_negatives(kg, sources, n, np.random.default_rng(seed), max_retries)
    assert negs.shape[1:] == (3,) and negs.dtype == np.int64
    assert not any(kg.contains(*row) for row in negs.tolist())
    differs = negs[:, None, :] != sources[None, :, :]         # (k, m, 3)
    one_off = differs.sum(axis=2) == 1                        # (k, m)
    assert np.all(one_off.sum(axis=1) == 1), "each row corrupts exactly one source in one position"
    owner = np.nonzero(one_off)[1]
    assert np.all(np.diff(owner) >= 0), "rows are grouped by source in input order"
    per_source = np.bincount(owner, minlength=len(sources))
    assert np.all(per_source <= n)
    assert n_exhausted == int(np.sum(per_source < n))
    if kg.n_relations == 1:
        assert not np.any(differs[np.arange(len(negs)), owner, 1])


@st.composite
def oracle_case(draw):
    """A sparse or a dense graph (every possible triple but a few) and
    in-range sources, graph triples or not, repeats allowed."""
    n_ent, n_rel = draw(st.integers(1, 6)), draw(st.integers(1, 3))
    full = [(s, r, o) for s in range(n_ent) for r in range(n_rel) for o in range(n_ent)]
    if draw(st.booleans()):
        missing = draw(st.sets(st.sampled_from(full), max_size=3))
        triples = [t for t in full if t not in missing]
    else:
        triples = draw(st.lists(st.sampled_from(full), max_size=40))
    sources = np.array(draw(st.lists(st.sampled_from(full), max_size=8)), dtype=np.int64)
    kg = KnowledgeGraph([Triple(*t) for t in triples],
                        Vocabulary(f"e{i}" for i in range(n_ent)),
                        Vocabulary(f"r{i}" for i in range(n_rel)))
    return kg, sources.reshape(-1, 3)


def assert_same_as_loop(kg, sources, n, seed, max_retries=100):
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    negs, n_exhausted = sample_negatives(kg, sources, n, rng, max_retries)
    want, want_exhausted = sample_negatives_loop(kg, sources, n, oracle_rng, max_retries)
    assert negs.dtype == np.int64 and negs.shape == want.shape
    assert np.array_equal(negs, want)
    assert n_exhausted == want_exhausted
    assert rng.bit_generator.state == oracle_rng.bit_generator.state
    return n_exhausted


@settings(max_examples=300, deadline=None)
@given(case=oracle_case(), n=st.integers(0, 6), max_retries=st.integers(0, 12),
       seed=st.integers(0, 2**32 - 1))
def test_sampler_draws_as_the_loop_oracle(case, n, max_retries, seed):
    # same negatives, exhausted count and generator state, one-relation,
    # one-entity and dense graphs, small retry budgets, n = 0, no sources
    kg, sources = case
    assert_same_as_loop(kg, sources, n, seed, max_retries)


def test_sampler_draws_as_the_loop_oracle_at_minibatch_size():
    # thousands of candidates; the dense small graph exhausts some sources
    rng = np.random.default_rng(4)
    for n_ent, n_rel, n_triples, retries in ((200, 8, 2500, 100), (4, 2, 30, 3)):
        triples = [Triple(*t) for t in rng.integers((n_ent, n_rel, n_ent), size=(n_triples, 3)).tolist()]
        kg = KnowledgeGraph(triples, Vocabulary(f"e{i}" for i in range(n_ent)),
                            Vocabulary(f"r{i}" for i in range(n_rel)))
        exhausted = [assert_same_as_loop(kg, kg.ids[rng.integers(len(kg), size=512)], 6, seed, retries)
                     for seed in range(5)]
        assert all(exhausted) == (retries == 3)


def test_epochs_with_the_loop_sampler_give_the_same_model_bits(monkeypatch):
    rng = np.random.default_rng(6)
    kg = KnowledgeGraph([Triple(*t) for t in rng.integers((30, 4, 30), size=(300, 3)).tolist()],
                        Vocabulary(f"e{i}" for i in range(30)), Vocabulary(f"r{i}" for i in range(4)))
    cfg = TrainConfig(dim=8, n_scalars=4, n_negatives=3, batch_size=64, seed=2)
    inputs = [LabeledTriple(t, 1.0) for t in kg.triples]

    def two_epochs():
        model, rng = init_model(30, 4, cfg), np.random.default_rng(9)
        losses = [train_epoch(model, inputs, kg, cfg, rng) for _ in range(2)]
        return model, losses, rng.bit_generator.state

    model, losses, state = two_epochs()
    monkeypatch.setattr(embedding, "sample_negatives", sample_negatives_loop)
    want, want_losses, want_state = two_epochs()
    assert losses == want_losses and state == want_state
    for name in ("ent", "rel"):
        assert getattr(model, name).tobytes() == getattr(want, name).tobytes(), name
    for name in ("m_ent", "v_ent", "m_rel", "v_rel"):
        assert getattr(model.opt, name).tobytes() == getattr(want.opt, name).tobytes(), name


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
        phi = float(kernels.sigmoid(raw_scores(m, *np.array([t]).T))[0])
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

    @pytest.mark.parametrize("row", [[-1, 0, 1], [0, -1, 1], [1, 0, -1],
                                     [3, 0, 1], [0, 2, 1], [1, 0, 3]])
    def test_id_outside_the_model_rejected(self, row):
        # 3 entities, 2 relations; a negative id would otherwise wrap to the last row
        m = init_model(3, 2, TrainConfig(dim=4, seed=0))
        with pytest.raises(ValueError, match="outside the model"):
            compute_loss_and_gradients(m, TripleBatch.of([[0, 0, 1], row], [1.0, 1.0]), 0.0)

    def test_buffers_smaller_than_the_batch_rejected(self):
        m = init_model(5, 2, TrainConfig(dim=8, seed=1))
        batch = TripleBatch.of([[0, 0, 1], [1, 1, 2], [4, 0, 3]], [1.0, 0.0, 0.5])
        with pytest.raises(ValueError, match="step buffers for 2 examples; the batch has 3"):
            compute_loss_and_gradients(m, batch, 1e-3, buffers=StepBuffers.empty(m, 2))
        want = compute_loss_and_gradients(m, batch, 1e-3)
        buffers = StepBuffers.empty(m, 3)
        for dirty in (buffers.planes, buffers.work):
            dirty.fill(np.nan)
        got = compute_loss_and_gradients(m, batch, 1e-3, buffers=buffers)
        assert got[0] == want[0]
        assert got[1].ent_grad.tobytes() == want[1].ent_grad.tobytes()
        assert got[1].rel_grad.tobytes() == want[1].rel_grad.tobytes()


class TestAdam:
    def cfg(self, lr=0.01):
        return TrainConfig(dim=4, n_scalars=2, learning_rate=lr, seed=0)

    def grads_for(self, model, ent_g=0.0, sc_g=0.0):
        rel_grad = np.zeros((1, model.dim))
        rel_grad[:, : model.n_scalars] = sc_g
        return SparseGrads(ent_ids=np.array([0]), ent_grad=np.full((1, model.dim), ent_g),
                           rel_ids=np.array([0]), rel_grad=rel_grad, n_scalars=model.n_scalars)

    def test_zero_gradient_no_move(self):
        m = init_model(3, 1, self.cfg())
        before = m.ent.copy()
        g = self.grads_for(m)
        adam_update(m, g, self.cfg(), scratch=adam_scratch(m, g))
        np.testing.assert_array_equal(m.ent, before)

    def test_first_step_is_signed_lr(self):
        cfg = self.cfg(lr=0.01)
        m = init_model(3, 1, cfg)
        before = float(m.rel_scalars[0, 0])
        g = self.grads_for(m, sc_g=0.37)
        adam_update(m, g, cfg, scratch=adam_scratch(m, g))
        assert m.rel_scalars[0, 0] == pytest.approx(before - 0.01, rel=1e-6)

    def test_untouched_parameters_stay(self):
        cfg = self.cfg()
        m = init_model(3, 1, cfg)
        before = m.ent[1:].copy()
        g = self.grads_for(m, ent_g=1.0)
        adam_update(m, g, cfg, scratch=adam_scratch(m, g))
        np.testing.assert_array_equal(m.ent[1:], before)

    def test_nan_gradient_fails_fast(self):
        cfg = self.cfg()
        m = init_model(3, 1, cfg)
        g = self.grads_for(m)
        g.ent_grad[0, 0] = np.nan
        with pytest.raises(ValueError):
            adam_update(m, g, cfg, scratch=adam_scratch(m, g))

    @pytest.mark.parametrize("field, bad", [("ent_ids", -1), ("ent_ids", 3), ("rel_ids", 1)])
    def test_rows_outside_the_model_rejected(self, field, bad):
        cfg = self.cfg()
        m = init_model(3, 1, cfg)
        before = m.copy()
        g = self.grads_for(m, ent_g=1.0, sc_g=1.0)
        setattr(g, field, np.array([bad]))
        with pytest.raises(ValueError, match="outside the model"):
            adam_update(m, g, cfg, scratch=adam_scratch(m, g))
        assert np.array_equal(m.ent, before.ent) and np.array_equal(m.rel_scalars, before.rel_scalars)

    @pytest.mark.parametrize("ids", [[1, 0], [0, 0]])
    def test_rows_not_ascending_and_distinct_rejected(self, ids):
        # two rows of a two-row table would otherwise be read as the table itself
        cfg = self.cfg()
        m = init_model(2, 1, cfg)
        before = m.copy()
        g = SparseGrads(np.array(ids), np.ones((2, m.dim)), np.array([0]), np.ones((1, m.dim)), m.n_scalars)
        with pytest.raises(ValueError, match="ascending and distinct"):
            adam_update(m, g, cfg, scratch=adam_scratch(m, g))
        assert m.ent.tobytes() == before.ent.tobytes() and m.rel.tobytes() == before.rel.tobytes()

    def test_identical_streams_identical_trajectories(self):
        cfg = self.cfg()
        m1, m2 = init_model(3, 1, cfg), init_model(3, 1, cfg)
        rng = np.random.default_rng(1)
        for _ in range(20):
            g = self.grads_for(m1, ent_g=float(rng.normal()), sc_g=float(rng.normal()))
            adam_update(m1, g, cfg, scratch=adam_scratch(m1, g))
            adam_update(m2, g, cfg, scratch=adam_scratch(m2, g))
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

    @pytest.mark.parametrize("row", [[-1, 0, 1], [0, -1, 1], [1, 0, 5], [0, 2, 1]])
    def test_bad_id_rejected_before_any_parameter_moves(self, row):
        kg = tiny_kg()
        cfg = TrainConfig(dim=8, seed=1, batch_size=2)
        m = init_model(5, 2, cfg)
        before = m.copy()
        # batches of 2: the bad row's chunk comes after others have stepped Adam
        inputs = TripleBatch.of([list(t) for t in kg.triples] + [row], [1.0] * (len(kg) + 1))
        with pytest.raises(ValueError, match="outside the model"):
            train_epoch(m, inputs, kg, cfg, np.random.default_rng(0))
        assert m.opt.step == 0
        for a, b in ((m.ent, before.ent), (m.rel_scalars, before.rel_scalars),
                     (m.rel_rot, before.rel_rot), (m.opt.m_ent, before.opt.m_ent)):
            assert np.array_equal(a, b)

    def test_graph_larger_than_model_rejected(self):
        kg = tiny_kg()
        cfg = TrainConfig(dim=8, seed=1)
        with pytest.raises(ValueError, match="larger than the model"):
            train_epoch(init_model(4, 2, cfg), [LabeledTriple(Triple(0, 0, 1), 1.0)], kg, cfg,
                        np.random.default_rng(0))


def reference_epoch(model, inputs, kg, cfg, rng):
    """``train_epoch`` spelled out: each minibatch through
    ``compute_loss_and_gradients`` with buffers of its own and
    ``adam_update`` with a fresh scratch.  Returns the mean loss and each
    chunk's (examples, negatives)."""
    order = rng.permutation(len(inputs))
    in_graph = kg.contains_many(*inputs.ids.T)
    total, count, chunks = 0.0, 0, []
    for start in range(0, len(inputs), cfg.batch_size):
        idx = order[start : start + cfg.batch_size]
        chunk = TripleBatch(inputs.ids[idx], inputs.labels[idx])
        negs, _ = sample_negatives(kg, chunk.ids[in_graph[idx]], cfg.n_negatives, rng)
        expanded = chunk + TripleBatch(negs, np.zeros(len(negs)))
        loss, grads = compute_loss_and_gradients(model, expanded, cfg.l1_weight)
        adam_update(model, grads, cfg, scratch=adam_scratch(model, grads))
        total += loss * len(expanded)
        count += len(expanded)
        chunks.append((len(chunk), len(negs)))
    return total / count, chunks


@pytest.mark.parametrize("n_scalars", [0, 4, 8])
def test_train_epoch_bit_identical_to_unbuffered_steps(monkeypatch, n_scalars):
    steps, made = [], []
    real_adam, empty = embedding.adam_update, StepBuffers.empty.__func__

    def adam_update(model, grads, config, *, scratch):
        steps.append((len(grads.ent_ids), scratch, made[-1]))
        real_adam(model, grads, config, scratch=scratch)

    def recording(cls, model, rows):
        made.append(empty(cls, model, rows))
        return made[-1]

    monkeypatch.setattr(embedding, "adam_update", adam_update)
    monkeypatch.setattr(StepBuffers, "empty", classmethod(recording))
    # each epoch's own buffers; with 30 entities a minibatch touches more
    # entities than it has examples, and the L1 and Adam rows outgrow the
    # gathered planes
    for n_ent, n_negatives in ((7, 2), (30, 1)):
        kg = tiny_kg(n_ent=n_ent, n_rel=3)
        cfg = TrainConfig(dim=8, n_scalars=n_scalars, n_negatives=n_negatives, batch_size=3,
                          l1_weight=1e-3, learning_rate=0.05, seed=4)
        rng = np.random.default_rng(5)
        # injected triples (not in the graph) train on their soft label alone
        injected = [row for row in map(tuple, rng.integers((n_ent, 3, n_ent), size=(40, 3)).tolist())
                    if not kg.contains(*row)][:14]
        inputs = TripleBatch.of([list(t) for t in kg.triples] + [list(t) for t in injected],
                                [1.0] * len(kg) + list(rng.uniform(0.2, 0.9, len(injected))))
        model, ref = init_model(n_ent, 3, cfg), init_model(n_ent, 3, cfg)
        steps.clear()
        epochs = []
        for epoch in range(3):
            made.clear()
            loss = train_epoch(model, inputs, kg, cfg, np.random.default_rng(epoch))
            epochs.extend(made)
            want, chunks = reference_epoch(ref, inputs, kg, cfg, np.random.default_rng(epoch))
            assert loss == want
        assert len(inputs) % cfg.batch_size and chunks[-1][0] < cfg.batch_size  # a short last chunk
        assert any(n_negs == 0 for _, n_negs in chunks)  # a chunk made only of injected triples
        rows = cfg.batch_size * (1 + cfg.n_negatives)
        assert [buffers.rows for buffers in epochs] == [rows] * 3
        # the L1 term and Adam carve their rows from the epoch's gathered planes
        assert all(np.shares_memory(scratch, buffers.planes) for _, scratch, buffers in steps)
        if n_ent == 30:
            assert max(n for n, _, _ in steps) > rows
        assert model.opt.step == ref.opt.step
        for name in ("ent", "rel"):
            assert getattr(model, name).tobytes() == getattr(ref, name).tobytes()
        for name in ("m_ent", "v_ent", "m_rel", "v_rel"):
            assert getattr(model.opt, name).tobytes() == getattr(ref.opt, name).tobytes()


@pytest.mark.parametrize("n_scalars", [0, 32, 64])
def test_training_step_allocates_less_than_one_batch_plane(monkeypatch, n_scalars):
    """Inside ``train_epoch`` a full minibatch step keeps its per-example
    arrays in the epoch's buffers: what it allocates and frees on the way
    stays below one (B, dim) float64 array.  The same batch without buffers
    allocates several."""
    rng = np.random.default_rng(0)
    n_ent, n_rel, dim = 60, 4, 64
    rows = np.stack([rng.integers(n_ent, size=900), rng.integers(n_rel, size=900),
                     rng.integers(n_ent, size=900)], axis=1)
    kg = KnowledgeGraph([Triple(*t) for t in rows.tolist()], Vocabulary(f"e{i}" for i in range(n_ent)),
                        Vocabulary(f"r{i}" for i in range(n_rel)))
    cfg = TrainConfig(dim=dim, n_scalars=n_scalars, batch_size=128, n_negatives=6, l1_weight=1e-5)
    model = init_model(n_ent, n_rel, cfg)
    real = embedding.compute_loss_and_gradients
    steps = []

    def transient_peak(*args, **kwargs):
        tracemalloc.reset_peak()
        real(*args, **kwargs)
        now, peak = tracemalloc.get_traced_memory()
        return peak - now

    def measured(*args, **kwargs):
        steps.append((len(args[1]), transient_peak(*args, **kwargs),
                      transient_peak(model.copy(), args[1], args[2])))
        return real(*args, **kwargs)

    monkeypatch.setattr(embedding, "compute_loss_and_gradients", measured)
    tracemalloc.start()
    try:
        train_epoch(model, [LabeledTriple(t, 1.0) for t in kg.triples], kg, cfg,
                    np.random.default_rng(1))
    finally:
        tracemalloc.stop()
    full = [(B, buffered, fresh) for B, buffered, fresh in steps[1:] if B == 128 * 7]
    assert len(full) >= 3
    for B, buffered, fresh in full:
        plane = B * dim * 8
        assert buffered < plane, (buffered / plane, fresh / plane)
        assert fresh > 2 * plane  # the gathered (B, dim) subject and object rows alone


def random_kg(rng, n_ent, n_rel, n_triples):
    rows = np.stack([rng.integers(n_ent, size=n_triples), rng.integers(n_rel, size=n_triples),
                     rng.integers(n_ent, size=n_triples)], axis=1)
    return KnowledgeGraph([Triple(*t) for t in rows.tolist()], Vocabulary(f"e{i}" for i in range(n_ent)),
                          Vocabulary(f"r{i}" for i in range(n_rel)))


def strided(a):
    """``a``'s values in a view that is neither C- nor Fortran-ordered."""
    wide = np.zeros((a.shape[0], 2 * a.shape[1]))
    wide[:, ::2] = a
    return wide[:, ::2]


@pytest.mark.parametrize("n_scalars", [0, 4, 8])
@pytest.mark.parametrize("layout", [np.ascontiguousarray, strided], ids=["ascontiguousarray", "strided"])
def test_other_entity_table_layouts_give_the_same_results(n_scalars, layout):
    """A caller may assign C-ordered or strided entity and relation tables
    (and their moments): losses, gradients, trained parameters, ranks and
    the scored axiom pool come out the same, bit for bit, and training
    writes into the caller's arrays."""
    rng = np.random.default_rng(0)
    kg = random_kg(rng, 12, 3, 60)
    cfg = TrainConfig(dim=8, n_scalars=n_scalars, batch_size=16, n_negatives=2, l1_weight=1e-3,
                      learning_rate=0.05, seed=2)
    model, other = init_model(12, 3, cfg), init_model(12, 3, cfg)
    o = other.opt
    other.ent, o.m_ent, o.v_ent, other.rel, o.m_rel, o.v_rel = (
        layout(a) for a in (other.ent, o.m_ent, o.v_ent, other.rel, o.m_rel, o.v_rel))
    assert not other.ent.flags.f_contiguous and not other.rel.flags.f_contiguous

    def tables(m):
        return m.ent, m.opt.m_ent, m.opt.v_ent, m.rel, m.opt.m_rel, m.opt.v_rel

    before = tables(other)
    batch = TripleBatch(kg.ids, rng.uniform(size=len(kg)))
    (loss, grads), (other_loss, other_grads) = (compute_loss_and_gradients(m, batch, cfg.l1_weight)
                                                for m in (model, other))
    assert loss == other_loss
    for name in ("ent_ids", "ent_grad", "rel_ids", "rel_grad"):
        assert getattr(grads, name).tobytes() == getattr(other_grads, name).tobytes(), name
    for m in (model, other):
        for epoch in range(2):
            train_epoch(m, TripleBatch(kg.ids, np.ones(len(kg))), kg, cfg, np.random.default_rng(epoch))
    assert all(a is b for a, b in zip(before, tables(other)))
    for a, b in zip(tables(model), tables(other)):
        assert a.tobytes() == b.tobytes()
    for side in ("subject", "object"):
        for a, b in zip(rank_side(model, kg.ids, kg.ids, side), rank_side(other, kg.ids, kg.ids, side)):
            assert np.array_equal(a, b)
    pool = generate_pool(kg, PoolConfig(), np.random.default_rng(3))
    scored, other_scored = induce_axioms(model, pool), induce_axioms(other, pool)
    assert set(pool.table[:, 0].tolist()) == set(range(len(TYPES)))  # every axiom type
    for name in ("table", "raw", "score"):
        assert getattr(scored, name).tobytes() == getattr(other_scored, name).tobytes(), name


@pytest.mark.parametrize("n_scalars", [0, 4, 8])
def test_kernel_arguments_keep_the_benchmark_instrumentation_contract(monkeypatch, n_scalars):
    """perfbench wraps ``kernels.bilinear_scores`` and ``kernels.accumulate_grads``
    and counts rows and scatter operations from their positional arguments:
    argument 0's shape, (B, dim), and the ``shape[1]`` of arguments 2 and 3,
    n_scalars and n_blocks.  Nothing else of them is read, so the relation
    blocks may come as tables of any length."""
    rng = np.random.default_rng(0)
    kg = random_kg(rng, 10, 2, 40)
    cfg = TrainConfig(dim=8, n_scalars=n_scalars, batch_size=16, n_negatives=2)
    model = init_model(10, 2, cfg)
    seen = {"bilinear_scores": [], "accumulate_grads": [], "compute_loss_and_gradients": []}

    def recording(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            seen[name].append(args)
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    recording(kernels, "bilinear_scores")
    recording(kernels, "accumulate_grads")
    recording(embedding, "compute_loss_and_gradients")
    train_epoch(model, TripleBatch(kg.ids, np.ones(len(kg))), kg, cfg, rng)
    batches = [len(args[1]) for args in seen["compute_loss_and_gradients"]]
    assert len(batches) == 3
    for name in ("bilinear_scores", "accumulate_grads"):
        assert [(args[0].shape, args[2].shape[1], args[3].shape[1]) for args in seen[name]] == \
            [((B, 8), n_scalars, cfg.n_blocks) for B in batches], name


@pytest.mark.parametrize("dim", [8, 40])
def test_adam_writes_a_fortran_table_like_a_c_ordered_one(dim):
    """Adam writes a Fortran-ordered table ``COLUMN_BLOCK`` columns at a
    time; with one partial block or several blocks and a partial last one,
    every bit equals the update of a C-ordered table."""
    rng = np.random.default_rng(dim)
    cfg = TrainConfig(dim=dim, n_scalars=dim // 2, learning_rate=0.05, seed=1)
    model = init_model(30, 3, cfg)
    other = model.copy()
    other.ent, other.opt.m_ent, other.opt.v_ent = (np.ascontiguousarray(a) for a in
                                                   (other.ent, other.opt.m_ent, other.opt.v_ent))
    for _ in range(3):
        ids = np.sort(rng.choice(30, size=17, replace=False))
        grads = SparseGrads(ids, rng.normal(size=(17, dim)), np.arange(3), rng.normal(size=(3, dim)), dim // 2)
        for m in (model, other):
            adam_update(m, grads, cfg, scratch=adam_scratch(m, grads))
    assert model.ent.flags.f_contiguous and other.ent.flags.c_contiguous
    for get in (lambda m: m.ent, lambda m: m.opt.m_ent, lambda m: m.opt.v_ent):
        assert get(model).tobytes() == get(other).tobytes()
        assert not np.array_equal(get(model), get(init_model(30, 3, cfg)))


@pytest.mark.parametrize("n_scalars", [0, 4, 8])
def test_tables_a_batch_touches_whole_update_in_place_with_the_row_path_bits(monkeypatch, n_scalars):
    """When a batch touches every row of a table, the L1 term and Adam read
    and update that table in place: ``_take_rows`` hands back the table and
    ``_put_rows`` has nothing to write.  The same batches on a model padded
    with one untouched entity and relation, which gathers and writes back
    rows, give the same loss, gradient, parameter and moment bits on the
    shared rows, and leave the padding rows alone."""
    copies = []
    real_take, real_put = embedding._take_rows, embedding._put_rows

    def take(table, ids, out):
        rows = real_take(table, ids, out)
        if rows is not table:
            copies.append(len(table))
        return rows

    def put(table, ids, rows):
        if rows is not table:
            copies.append(len(table))
        real_put(table, ids, rows)

    monkeypatch.setattr(embedding, "_take_rows", take)
    monkeypatch.setattr(embedding, "_put_rows", put)
    n_ent, n_rel = 6, 3
    cfg = TrainConfig(dim=8, n_scalars=n_scalars, learning_rate=0.05, seed=1)
    model = init_model(n_ent, n_rel, cfg)
    rng = np.random.default_rng(2)
    for a in (model.opt.m_ent, model.opt.v_ent, model.opt.m_rel, model.opt.v_rel):
        a[:] = rng.uniform(0.0, 0.01, size=a.shape)

    def padded(a):
        return np.asfortranarray(np.vstack([a, rng.uniform(-0.1, 0.1, size=(1, a.shape[1]))]))

    def tables(m):
        return m.ent, m.rel, m.opt.m_ent, m.opt.v_ent, m.opt.m_rel, m.opt.v_rel

    other = embedding.EmbeddingModel(*map(padded, tables(model)[:2]), n_scalars,
                                     embedding.AdamState(*map(padded, tables(model)[2:]), model.opt.step))
    spare = [a[-1].copy() for a in tables(other)]
    buffers = {id(m): StepBuffers.empty(m, 24) for m in (model, other)}

    def step(m, batch):
        loss, grads = compute_loss_and_gradients(m, batch, 1e-3, buffers=buffers[id(m)])
        adam_update(m, grads, cfg, scratch=buffers[id(m)].planes)
        return loss, [a.tobytes() for a in (grads.ent_ids, grads.ent_grad, grads.rel_ids, grads.rel_grad)]

    for _ in range(3):
        ids = np.stack([rng.permutation(np.resize(np.arange(n_ent), 24)), rng.integers(n_rel, size=24),
                        rng.integers(n_ent, size=24)], axis=1)
        ids[:n_rel, 1] = np.arange(n_rel)
        batch = TripleBatch(ids, rng.uniform(size=24))
        copies.clear()
        want = step(model, batch)
        assert copies == []
        assert step(other, batch) == want
        assert sorted(set(copies)) == [n_rel + 1, n_ent + 1]
        for a, b in zip(tables(model), tables(other)):
            assert np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b[:-1]).tobytes()
    assert all(a[-1].tobytes() == b.tobytes() for a, b in zip(tables(other), spare))

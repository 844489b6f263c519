"""Pool pruning bound, candidate generation, support counting, and scoring."""

import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iterkg.axioms import (
    SCORE_BLOCK, TYPES, Axiom, AxiomType, Pool, PoolConfig, axiom_residuals, axiom_table,
    count_support_and_head, generate_pool, induce_axioms, min_sample_size, normalize_scores,
    sample_size_grid_sup, score_axiom_raw,
)
from iterkg.blocks import BlockDiagMatrix
from iterkg.embedding import EmbeddingModel, TrainConfig, init_model
from iterkg.kg import KnowledgeGraph, Triple, Vocabulary

from oracles import dense_block_matrix, enumerate_supports, random_graph


def graph(triples, n_ent=None, n_rel=None):
    n_ent = n_ent or (max(max(t[0], t[2]) for t in triples) + 1)
    n_rel = n_rel or (max(t[1] for t in triples) + 1)
    ents = Vocabulary(f"e{i}" for i in range(n_ent))
    rels = Vocabulary(f"r{i}" for i in range(n_rel))
    return KnowledgeGraph([Triple(*t) for t in triples], ents, rels)


class TestSampleSizeBound:
    def test_paper_operating_point(self):
        assert min_sample_size(0.5, 0.95) == 6

    def test_certain_axioms_need_three(self):
        assert min_sample_size(1.0, 0.95) == 3

    def test_tighter_coverage_needs_ten(self):
        assert min_sample_size(0.5, 0.99) == 10

    def test_grid_sup_agrees_with_closed_form(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            p = float(rng.uniform(0.05, 1.0))
            t = float(rng.uniform(0.5, 0.999))
            closed = -np.log(1 - t) / p
            sup = sample_size_grid_sup(p, t)
            assert sup <= closed + 1e-9
            assert int(np.ceil(sup)) == min_sample_size(p, t)

    def test_grid_resolution_stable(self):
        for pts in (10**3, 10**4, 10**5):
            a = sample_size_grid_sup(0.5, 0.95, grid_points=pts)
            b = sample_size_grid_sup(0.5, 0.95, grid_points=10**6)
            assert int(np.ceil(a)) == int(np.ceil(b)) == 6

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            min_sample_size(0.0, 0.95)
        with pytest.raises(ValueError):
            min_sample_size(0.5, 1.0)
        with pytest.raises(ValueError, match="bound overflows"):  # -ln(0.05) / 1e-320 is inf
            min_sample_size(1e-320, 0.95)


class TestAxiomType:
    def test_arities(self):
        arities = {t: t.arity for t in AxiomType}
        assert list(arities.values()) == [1, 1, 1, 2, 2, 2, 3]

    def test_self_equivalence_rejected(self):
        with pytest.raises(ValueError):
            Axiom(AxiomType.EQUIVALENT, (1, 1))

    def test_arity_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Axiom(AxiomType.INVERSE, (1,))


class TestSupportCounting:
    def test_reflexive(self):
        kg = graph([(0, 0, 0)])
        assert count_support_and_head(kg, Axiom(AxiomType.REFLEXIVE, (0,))) == (1, 1)

    def test_chain_single_grounding(self):
        kg = graph([(0, 0, 1), (1, 1, 2), (0, 2, 2)])
        ax = Axiom(AxiomType.SUB_PROPERTY_CHAIN, (0, 1, 2))
        assert count_support_and_head(kg, ax) == (1, 1)

    def test_symmetric_counts_ordered(self):
        kg = graph([(0, 0, 1), (1, 0, 0), (2, 0, 0)])
        assert count_support_and_head(kg, Axiom(AxiomType.SYMMETRIC, (0,))) == (2, 3)

    def test_all_types_match_exhaustive_enumeration(self):
        rng = np.random.default_rng(1)
        for _ in range(15):
            n_ent = int(rng.integers(8, 24))
            triples = random_graph(rng, n_ent, 5, int(rng.integers(40, 140)))
            kg = graph(triples, n_ent, 5)
            axioms = [Axiom(t, (0,)) for t in
                      (AxiomType.REFLEXIVE, AxiomType.SYMMETRIC, AxiomType.TRANSITIVE)]
            axioms += [Axiom(AxiomType.EQUIVALENT, (1, 2)), Axiom(AxiomType.SUB_PROPERTY, (3, 4)),
                       Axiom(AxiomType.INVERSE, (2, 3)),
                       Axiom(AxiomType.SUB_PROPERTY_CHAIN, (0, 1, 2))]
            for ax in axioms:
                assert count_support_and_head(kg, ax) == enumerate_supports(kg.triples, ax, n_ent), ax


class TestGeneratePool:
    def test_mutual_pair_gives_symmetric(self):
        kg = graph([(0, 0, 1), (1, 0, 0)])
        pool = generate_pool(kg, PoolConfig(), np.random.default_rng(0))
        sym = [pa for pa in pool if pa.axiom == Axiom(AxiomType.SYMMETRIC, (0,))]
        assert len(sym) == 1 and sym[0].support == 2

    def test_support_one_excluded(self):
        kg = graph([(0, 0, 1), (0, 1, 1)])
        pool = generate_pool(kg, PoolConfig(), np.random.default_rng(0))
        assert not any(pa.axiom.type is AxiomType.EQUIVALENT for pa in pool)

    def test_planted_inverse_found_with_full_support(self):
        pairs = [(i, 25 + i) for i in range(25)]
        triples = [(a, 0, b) for a, b in pairs] + [(b, 1, a) for a, b in pairs]
        kg = graph(triples)
        pool = generate_pool(kg, PoolConfig(), np.random.default_rng(3))
        entry = [pa for pa in pool if pa.axiom == Axiom(AxiomType.INVERSE, (1, 0))]
        assert entry and entry[0].support == 25 and entry[0].head_size == 25

    def test_admission_rule_holds_for_every_entry(self):
        rng = np.random.default_rng(4)
        triples = random_graph(rng, 20, 4, 150)
        kg = graph(triples, 20, 4)
        pool = generate_pool(kg, PoolConfig(), rng)
        for pa in pool:
            n, head_n = count_support_and_head(kg, pa.axiom)
            assert pa.support == n and pa.head_size == head_n
            assert n >= 2

    def test_pool_sizes_logged_at_debug(self, caplog):
        kg = graph([(0, 0, 1), (1, 0, 0), (2, 0, 3), (3, 0, 2), (0, 1, 1), (2, 1, 3)])
        with caplog.at_level("DEBUG", logger="iterkg.axioms"):
            pool = generate_pool(kg, PoolConfig(), np.random.default_rng(0))
        lines = [r.getMessage() for r in caplog.records if r.levelname == "DEBUG"]
        assert len(lines) == 1
        counts = {t: sum(pa.axiom.type is t for pa in pool) for t in AxiomType}
        assert counts[AxiomType.SYMMETRIC] == 1
        per_type = ", ".join(f"{t.value} {n}" for t, n in counts.items())
        assert lines[0].startswith("pool: ") and lines[0].endswith(f" pooled ({per_type})")
        assert f", {len(pool)} pooled" in lines[0]

    def test_deterministic_and_order_independent(self):
        rng_triples = np.random.default_rng(5)
        triples = random_graph(rng_triples, 15, 3, 80)
        kg1 = graph(triples, 15, 3)
        kg2 = graph(triples[::-1], 15, 3)
        p1 = generate_pool(kg1, PoolConfig(), np.random.default_rng(42))
        p2 = generate_pool(kg2, PoolConfig(), np.random.default_rng(42))
        assert list(p1) == list(p2) and p1.covered.tolist() == p2.covered.tolist()


class TestRawScores:
    def model(self, seed=0, dim=8):
        return init_model(4, 6, TrainConfig(dim=dim, seed=seed))

    def test_reflexive_identity_scores_zero(self):
        m = self.model()
        m.rel_scalars[0] = 1.0
        m.rel_rot[0, :, 0] = 1.0
        m.rel_rot[0, :, 1] = 0.0
        assert score_axiom_raw(m, Axiom(AxiomType.REFLEXIVE, (0,))) == 0.0

    def test_inverse_of_reciprocal_scores_zero(self):
        m = self.model()
        m.rel_scalars[0] = 2.0
        m.rel_rot[0, :, 0] = 0.6
        m.rel_rot[0, :, 1] = 0.8
        # conjugate over modulus inverts a rotation-scale block
        m.rel_scalars[1] = 0.5
        mod2 = 0.6**2 + 0.8**2
        m.rel_rot[1, :, 0] = 0.6 / mod2
        m.rel_rot[1, :, 1] = -0.8 / mod2
        assert score_axiom_raw(m, Axiom(AxiomType.INVERSE, (0, 1))) == pytest.approx(0.0, abs=1e-12)

    def test_matches_dense_oracle_all_types(self):
        m = self.model(seed=3)
        ident = np.eye(m.dim)

        def dense(r):
            return dense_block_matrix(m.rel_scalars[r], m.rel_rot[r])

        cases = [
            (Axiom(AxiomType.REFLEXIVE, (0,)), dense(0) - ident),
            (Axiom(AxiomType.SYMMETRIC, (1,)), dense(1) @ dense(1) - ident),
            (Axiom(AxiomType.TRANSITIVE, (2,)), dense(2) @ dense(2) - dense(2)),
            (Axiom(AxiomType.EQUIVALENT, (0, 1)), dense(0) - dense(1)),
            (Axiom(AxiomType.SUB_PROPERTY, (2, 3)), dense(2) - dense(3)),
            (Axiom(AxiomType.INVERSE, (4, 5)), dense(4) @ dense(5) - ident),
            (Axiom(AxiomType.SUB_PROPERTY_CHAIN, (0, 1, 2)), dense(0) @ dense(1) - dense(2)),
        ]
        for ax, diff in cases:
            assert score_axiom_raw(m, ax) == pytest.approx(np.linalg.norm(diff), abs=1e-10), ax

    def test_scalar_slot_permutation_invariance(self):
        m = self.model(seed=5)
        ax = Axiom(AxiomType.SUB_PROPERTY_CHAIN, (0, 1, 2))
        before = score_axiom_raw(m, ax)
        perm = np.random.default_rng(0).permutation(m.n_scalars)
        m.rel_scalars[:] = m.rel_scalars[:, perm]
        assert score_axiom_raw(m, ax) == pytest.approx(before, abs=1e-12)


def equation_sides(ax, mats, mul, identity):
    """The two sides of the axiom's matrix equation, written out per type,
    with ``mats[r]`` the matrix of relation r and ``mul`` the product."""
    t, m = ax.type, [mats[r] for r in ax.relations]
    if t is AxiomType.REFLEXIVE:
        return m[0], identity
    if t is AxiomType.SYMMETRIC:
        return mul(m[0], m[0]), identity
    if t is AxiomType.TRANSITIVE:
        return mul(m[0], m[0]), m[0]
    if t in (AxiomType.EQUIVALENT, AxiomType.SUB_PROPERTY):
        return m[0], m[1]
    if t is AxiomType.INVERSE:
        return mul(m[0], m[1]), identity
    return mul(m[0], m[1]), m[2]


def random_axiom(rng, t, n_rel):
    while True:
        rels = rng.integers(n_rel, size=t.arity)
        if t is not AxiomType.EQUIVALENT or rels[0] != rels[1]:
            return Axiom(t, rels)


@settings(max_examples=20, deadline=None)
@given(layout=st.tuples(st.integers(0, 4), st.integers(0, 3)).filter(lambda l: sum(l) > 0),
       n_rel=st.integers(2, 5), extra=st.integers(1, SCORE_BLOCK), seed=st.integers(0, 2**32 - 1))
def test_residuals_match_dense_and_block_algebra(layout, n_rel, extra, seed):
    ns, nb = layout
    rng = np.random.default_rng(seed)
    sc, rot = rng.normal(size=(n_rel, ns)), rng.normal(size=(n_rel, 2 * nb))
    m = EmbeddingModel(np.zeros((1, ns + 2 * nb)), np.concatenate([sc, rot], axis=1), ns)
    # every type, then enough more axioms to fill more than one block
    kinds = list(AxiomType)
    types = kinds + [kinds[i] for i in rng.integers(len(kinds), size=SCORE_BLOCK + extra)]
    axioms = [random_axiom(rng, t, n_rel) for t in types]

    got = axiom_residuals(m, axiom_table(axioms))
    assert got.shape == (len(axioms),)
    dense = [dense_block_matrix(m.rel_scalars[r], m.rel_rot[r]) for r in range(n_rel)]
    blocks = [BlockDiagMatrix(m.rel_scalars[r], m.rel_rot[r]) for r in range(n_rel)]
    for ax, raw in zip(axioms, got):
        lhs, rhs = equation_sides(ax, dense, operator.matmul, np.eye(m.dim))
        assert raw == pytest.approx(np.linalg.norm(lhs - rhs), abs=1e-10), ax
        lhs, rhs = equation_sides(ax, blocks, BlockDiagMatrix.multiply,
                                  BlockDiagMatrix.identity(ns, nb))
        assert raw == lhs.frobenius_diff(rhs), ax
    assert score_axiom_raw(m, axioms[-1]) == got[-1]


def test_residuals_of_empty_pool():
    m = init_model(2, 2, TrainConfig(dim=8, seed=0))
    assert axiom_residuals(m, axiom_table([])).shape == (0,)


def pool_of(axioms, support=2, head=10):
    n = len(axioms)
    return Pool(axiom_table(axioms), np.full(n, support), np.full(n, head), np.full(n, support))


def codes(*types):
    return np.array([TYPES.index(t) for t in types], dtype=np.int64)


class TestNormalization:
    def test_three_raws_map_to_unit_interval_ends(self):
        scores = normalize_scores(codes(*[AxiomType.REFLEXIVE] * 3), np.array([2.0, 4.0, 6.0]))
        assert scores.tolist() == [1.0, 0.5, 0.0]

    def test_single_axiom_gets_half(self):
        assert normalize_scores(codes(AxiomType.SYMMETRIC), np.array([3.3])).tolist() == [0.5]

    def test_uncalibrated_types_are_logged(self, caplog):
        types = codes(AxiomType.SYMMETRIC, AxiomType.INVERSE, AxiomType.INVERSE,
                      AxiomType.REFLEXIVE, AxiomType.REFLEXIVE)
        raws = np.array([3.3, 2.0, 2.0, 1.0, 2.0])
        with caplog.at_level("INFO", logger="iterkg.axioms"):
            normalize_scores(types, raws)
        assert [r.getMessage() for r in caplog.records] == [
            "uncalibrated axiom types score 0.5: inverse, symmetric"]
        caplog.clear()
        with caplog.at_level("INFO", logger="iterkg.axioms"):
            normalize_scores(types[3:], raws[3:])
        assert not caplog.records

    def test_types_normalized_independently(self):
        types = codes(AxiomType.REFLEXIVE, AxiomType.REFLEXIVE, AxiomType.INVERSE, AxiomType.INVERSE)
        a = normalize_scores(types, np.array([1.0, 3.0, 10.0, 30.0]))
        b = normalize_scores(types, np.array([1.0, 3.0, 30.0, 10.0]))
        assert a[:2].tolist() == b[:2].tolist() == [1.0, 0.0]

    def test_non_finite_raw_refused(self):
        with pytest.raises(ValueError, match="non-finite raw score for a symmetric axiom"):
            normalize_scores(codes(AxiomType.REFLEXIVE, AxiomType.SYMMETRIC), np.array([1.0, np.nan]))


def object_path_scores(pool, raws):
    """The per-axiom path the arrays replace: per-type min-max over Python
    floats, uncalibrated types at 0.5, sorted by (-score, Axiom.sort_key())."""
    by_type = {}
    for pa, raw in zip(pool, raws):
        by_type.setdefault(pa.axiom.type, []).append(raw)
    bounds = {t: (min(r), max(r)) for t, r in by_type.items()}
    out = []
    for pa, raw in zip(pool, raws):
        lo, hi = bounds[pa.axiom.type]
        out.append((pa.axiom, raw, 0.5 if hi == lo else (hi - raw) / (hi - lo)))
    return sorted(out, key=lambda e: (-e[2], e[0].sort_key()))


@settings(max_examples=100, deadline=None)
@given(n_rel=st.integers(2, 4), picks=st.lists(st.integers(0, 10**6), min_size=1, max_size=40),
       levels=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_array_scores_and_order_match_the_object_path(n_rel, picks, levels, seed):
    # distinct axioms of every type; few relation values make tied raws,
    # one-axiom and all-equal types uncalibrated, and tied scores
    rng = np.random.default_rng(seed)
    axioms = sorted({random_axiom(np.random.default_rng(p), TYPES[p % len(TYPES)], n_rel) for p in picks},
                    key=Axiom.sort_key)
    sc, rot = rng.integers(levels, size=(n_rel, 2)), rng.integers(levels, size=(n_rel, 2))
    m = EmbeddingModel(np.zeros((1, 4)), np.concatenate([sc, rot], axis=1).astype(float), 2)
    pool = pool_of(axioms)
    scored = induce_axioms(m, pool)
    want = object_path_scores(pool, axiom_residuals(m, pool.table).tolist())
    assert [(sa.axiom, sa.raw, sa.score) for sa in scored] == want
    assert scored.score.tolist() == [score for _, _, score in want]


class TestInduce:
    def test_one_axiom_per_type_all_half(self):
        m = init_model(4, 6, TrainConfig(dim=8, seed=1))
        pool = pool_of([Axiom(AxiomType.REFLEXIVE, (0,)), Axiom(AxiomType.INVERSE, (0, 1)),
                        Axiom(AxiomType.SUB_PROPERTY_CHAIN, (0, 1, 2))])
        assert all(sa.score == 0.5 for sa in induce_axioms(m, pool))

    def test_planted_matrix_ranks_first_in_type(self):
        m = init_model(4, 6, TrainConfig(dim=8, seed=2))
        m.rel_scalars[3] = 1.0
        m.rel_rot[3, :, 0] = 1.0
        m.rel_rot[3, :, 1] = 0.0
        pool = pool_of([Axiom(AxiomType.REFLEXIVE, (r,)) for r in range(6)])
        best = induce_axioms(m, pool)[0]
        assert best.axiom == Axiom(AxiomType.REFLEXIVE, (3,))
        assert best.score == 1.0

    def test_rerun_is_identical(self):
        m = init_model(4, 6, TrainConfig(dim=8, seed=3))
        pool = pool_of([Axiom(AxiomType.EQUIVALENT, (a, b)) for a in range(3) for b in range(3) if a != b])
        assert list(induce_axioms(m, pool)) == list(induce_axioms(m, pool))

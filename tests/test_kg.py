"""Triple store: loading, indexing, sparsity, and eval-split filtering."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iterkg import kg as kg_module
from iterkg.kg import (
    KnowledgeGraph, ParseError, Triple, Vocabulary, VocabularyError,
    compact_ids, distinct_rows, entity_sparsity, load_dataset, load_splits, load_triples,
    sorted_distinct, sparse_entities, sparsify_eval_split,
)
from iterkg.synthetic import make_planted_dataset, write_dataset

from oracles import entity_mask, graph_arrays, random_graph


def write(tmp_path, text, name="triples.txt"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadTriples:
    def test_single_line(self, tmp_path):
        triples, ents, rels = load_triples(write(tmp_path, "a\tr\tb\n"))
        assert triples.dtype == np.int64 and triples.tolist() == [[0, 0, 1]]
        assert len(ents) == 2 and len(rels) == 1

    def test_empty_file(self, tmp_path):
        triples, ents, rels = load_triples(write(tmp_path, ""))
        assert triples.shape == (0, 3) and triples.dtype == np.int64
        assert len(ents) == 0 and len(rels) == 0

    def test_malformed_line_reports_lineno(self, tmp_path):
        path = write(tmp_path, "a\tr\tb\na\tr\n")
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}:2: expected 3 tab-separated fields, got 2$"):
            load_triples(path)

    def test_fixed_vocabulary_rejects_unknown(self, tmp_path):
        _, ents, rels = load_triples(write(tmp_path, "a\tr\tb\n"))
        path = write(tmp_path, "b\tr\ta\na\tr\tc\n", "other.txt")
        with pytest.raises(VocabularyError, match=f"^{re.escape(str(path))}:2: unknown name: 'c'$"):
            load_triples(path, ents, rels)
        assert ents.names == ["a", "b"] and rels.names == ["r"]

    def test_fixed_vocabulary_reuses_ids(self, tmp_path):
        _, ents, rels = load_triples(write(tmp_path, "a\tr\tb\n"))
        triples, _, _ = load_triples(write(tmp_path, "b\tr\ta\n", "other.txt"), ents, rels)
        assert triples.tolist() == [[1, 0, 0]]

    def test_names_grow_the_vocabularies_in_file_order(self, tmp_path):
        triples, ents, rels = load_triples(write(tmp_path, "c\tq\ta\na\tp\tb\nb\tq\tc\n"))
        assert ents.names == ["c", "a", "b"] and rels.names == ["q", "p"]
        assert triples.tolist() == [[0, 0, 1], [1, 1, 2], [2, 0, 0]]

    def test_load_dataset_is_the_triple_view_of_load_splits(self, tmp_path):
        write_dataset(make_planted_dataset(seed=7), tmp_path)
        arrays, triples = load_splits(tmp_path), load_dataset(tmp_path)
        for ids, listed in zip(arrays[:3], triples[:3]):
            assert ids.dtype == np.int64 and ids.shape == (len(listed), 3) and len(listed)
            assert all(type(t) is Triple for t in listed)
            assert ids.tolist() == [list(t) for t in listed]
        assert [v.names for v in arrays[3:]] == [v.names for v in triples[3:]]

    def test_vocabulary_round_trip(self, tmp_path):
        _, ents, _ = load_triples(write(tmp_path, "a\tr\tb\nc\tr\ta\n"))
        for name in ("a", "b", "c"):
            assert ents.name_of(ents.id_of(name)) == name


class TestBuildGraph:
    def test_dedup(self):
        ents, rels = Vocabulary("ab"), Vocabulary("r")
        kg = KnowledgeGraph([Triple(0, 0, 1), Triple(0, 0, 1)], ents, rels)
        assert len(kg) == 1
        # an id array builds the same graph as the Triple list
        ids = KnowledgeGraph(np.array([[0, 0, 1], [0, 0, 1]]), ents, rels).ids
        assert ids.dtype == np.int64 and np.array_equal(ids, kg.ids)

    def test_out_of_range_id(self):
        ents, rels = Vocabulary("ab"), Vocabulary("r")
        for bad in ([Triple(0, 0, 5)], np.array([[0, 1, 1]]), np.array([[-1, 0, 1]])):
            with pytest.raises(ValueError, match="out of vocabulary bounds"):
                KnowledgeGraph(bad, ents, rels)

    def test_all_queries_match_linear_scan(self):
        rng = np.random.default_rng(0)
        n_ent, n_rel = 30, 4
        ents = Vocabulary(f"e{i}" for i in range(n_ent))
        rels = Vocabulary(f"r{i}" for i in range(n_rel))
        triples = random_graph(rng, n_ent, n_rel, 500)
        kg = KnowledgeGraph(triples, ents, rels)
        uniq = set(kg.triples)
        for _ in range(50):
            s, r, o = int(rng.integers(n_ent)), int(rng.integers(n_rel)), int(rng.integers(n_ent))
            assert kg.contains(s, r, o) == (Triple(s, r, o) in uniq)
        for r in range(n_rel):
            assert kg.triples_of(r) == sorted(t for t in uniq if t.relation == r)
            occurs = sorted({e for t in uniq if t.relation == r for e in (t.subject, t.object)})
            assert kg.entity_occurs_with(r) == occurs

    @settings(max_examples=150, deadline=None)
    @given(n_ent=st.integers(1, 6), n_rel=st.integers(1, 3), data=st.data())
    def test_arrays_match_np_unique(self, n_ent, n_rel, data):
        """Repeated triples, a graph of one triple repeated, and the empty
        graph."""
        ids = st.tuples(st.integers(0, n_ent - 1), st.integers(0, n_rel - 1), st.integers(0, n_ent - 1))
        drawn = data.draw(st.lists(ids, max_size=40))
        ents, rels = Vocabulary(f"e{i}" for i in range(n_ent)), Vocabulary(f"r{i}" for i in range(n_rel))
        for triples in (drawn, drawn[:1] * data.draw(st.integers(1, 5)), []):
            kg = KnowledgeGraph(np.array(triples, dtype=np.int64).reshape(-1, 3), ents, rels)
            for name, want in graph_arrays(triples, n_ent, n_rel).items():
                got = getattr(kg, name)
                assert got.dtype == np.int64 and got.tolist() == want.tolist(), name


@st.composite
def graph_and_sizes(draw):
    n_ent, n_rel = draw(st.integers(1, 6)), draw(st.integers(1, 3))
    ids = st.tuples(st.integers(0, n_ent - 1), st.integers(0, n_rel - 1), st.integers(0, n_ent - 1))
    triples = [Triple(*t) for t in draw(st.lists(ids, max_size=40))]
    kg = KnowledgeGraph(triples, Vocabulary(f"e{i}" for i in range(n_ent)),
                     Vocabulary(f"r{i}" for i in range(n_rel)))
    return kg, n_ent, n_rel


def searches(mp):
    """The list that each later ``iterkg.kg.lookup_sorted`` call (a binary
    search of sorted keys) appends to, installed with ``mp``."""
    calls, real = [], kg_module.lookup_sorted
    mp.setattr(kg_module, "lookup_sorted", lambda *args: calls.append(args) or real(*args))
    return calls


def both_paths(kg):
    """Copies of ``kg`` answering ``contains_keys`` from the bit table, then
    from the sorted keys, each forced by monkeypatching ``DENSE_KEYS``.  Once
    the caller is done with a copy, checks that it searched sorted keys on
    the sorted path only."""
    for bound, dense in ((1 << 20, True), (-1, False)):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kg_module, "DENSE_KEYS", bound)
            searched = searches(mp)
            yield KnowledgeGraph(kg.ids, kg.entities, kg.relations)
        assert bool(searched) != dense


class TestContainsMany:
    @settings(max_examples=120, deadline=None)
    @given(case=graph_and_sizes(), order_seed=st.integers(0, 2**32 - 1))
    def test_matches_contains_on_every_id_triple(self, case, order_seed):
        # every in-range id triple, so queries below the smallest and above
        # the largest graph key are included, plus ids just out of range
        case_kg, n_ent, n_rel = case
        grid = np.array([(s, r, o) for s in range(-1, n_ent + 1) for r in range(-1, n_rel + 1)
                         for o in range(-1, n_ent + 1)], dtype=np.int64)
        grid = grid[np.random.default_rng(order_seed).permutation(len(grid))]
        graph = set(map(tuple, case_kg.ids.tolist()))
        for kg in both_paths(case_kg):
            got = kg.contains_many(grid[:, 0], grid[:, 1], grid[:, 2])
            assert got.dtype == bool and got.shape == (len(grid),)
            assert got.tolist() == [kg.contains(*map(int, q)) for q in grid]
            assert got.tolist() == [tuple(q) in graph for q in grid.tolist()]

    def test_empty_query(self):
        empty = np.zeros(0, dtype=np.int64)
        for kg in both_paths(KnowledgeGraph([Triple(0, 0, 1)], Vocabulary("ab"), Vocabulary("r"))):
            assert kg.contains_many(empty, empty, empty).shape == (0,)

    def test_ids_rows_follow_triples(self):
        kg = KnowledgeGraph([Triple(1, 0, 0), Triple(0, 0, 1), Triple(1, 0, 0)],
                         Vocabulary("ab"), Vocabulary("r"))
        assert kg.ids.dtype == np.int64
        assert kg.ids.tolist() == [list(t) for t in kg.triples]

    def test_key_overflow_refused(self):
        # 2**32 entities squared times 3 relations passes int64: refused when
        # built; 2**31 squared times 1 is 2**62 keys, and answers
        with pytest.raises(OverflowError, match="^4294967296 entities x 3 relations overflow int64 triple keys$"):
            KnowledgeGraph([Triple(0, 0, 1)], range(2**32), range(3))
        kg = KnowledgeGraph([Triple(0, 0, 1)], range(2**31), range(1))
        assert kg.contains_many(np.array([0, 1]), np.array([0, 0]), np.array([1, 2**31 - 1])).tolist() == [True, False]


class TestContainsKeys:
    @settings(max_examples=150, deadline=None)
    @given(case=graph_and_sizes(), data=st.data())
    def test_matches_a_python_set(self, case, data):
        # queries as drawn, ascending or descending, with repeated keys, every
        # key in range and keys outside the key space, negative ones among them
        case_kg, n_ent, n_rel = case
        members = {(r * n_ent + s) * n_ent + o for s, r, o in case_kg.ids.tolist()}
        keys = st.integers(0, n_rel * n_ent * n_ent - 1) | st.integers(-2**40, 2**40)
        queries = data.draw(st.lists(keys, max_size=60))
        queries += queries[: data.draw(st.integers(0, len(queries)))]
        order = data.draw(st.sampled_from(["drawn", "ascending", "descending"]))
        if order != "drawn":
            queries.sort(reverse=order == "descending")
        for kg in both_paths(case_kg):
            got = kg.contains_keys(np.array(queries, dtype=np.int64))
            assert got.dtype == bool and got.tolist() == [q in members for q in queries]
            assert kg.contains_keys(kg.pack(*kg.ids.T)).all()

    @settings(max_examples=150, deadline=None)
    @given(case=graph_and_sizes(), data=st.data())
    def test_contains_many_matches_a_python_set(self, case, data):
        # out-of-range ids, which would pack onto in-range keys, are never members
        case_kg, _, _ = case
        graph = set(map(tuple, case_kg.ids.tolist()))
        ids = st.integers(-3, 8) | st.integers(-2**40, 2**40)
        queries = data.draw(st.lists(st.tuples(ids, ids, ids), max_size=40))
        q = np.array(queries, dtype=np.int64).reshape(-1, 3)
        for kg in both_paths(case_kg):
            assert kg.contains_many(*q.T).tolist() == [t in graph for t in queries]

    def test_empty_graph(self):
        for kg in both_paths(KnowledgeGraph([], Vocabulary("ab"), Vocabulary("r"))):
            assert not kg.contains_keys(np.array([3, 0, 2, 1, 0, -1, 4])).any()
            assert not kg.contains_many(np.array([0, 2]), np.array([0, 0]), np.array([1, 0])).any()
            assert kg.contains_keys(np.zeros(0, dtype=np.int64)).shape == (0,)


@settings(max_examples=100, deadline=None)
@given(n_ent=st.integers(1, 2**20), n_rel=st.integers(1, 2**10), seed=st.integers(0, 2**32 - 1))
def test_pack_is_the_key_weights_sum(n_ent, n_rel, seed):
    """``pack`` and ``embedding.sample_negatives`` read one set of position
    weights: a key is the weighted sum of its ids, ``(r*n_ent + s)*n_ent + o``."""
    kg = KnowledgeGraph([], range(n_ent), range(n_rel))
    ids = np.random.default_rng(seed).integers((n_ent, n_rel, n_ent), size=(50, 3))
    keys = kg.pack(*ids.T)
    assert keys.dtype == np.int64 and np.array_equal(keys, ids @ kg.key_weights)
    assert keys.tolist() == [(r * n_ent + s) * n_ent + o for s, r, o in ids.tolist()]


@pytest.mark.parametrize("shape, dense", [(None, True), ((600, 237), False)], ids=["planted", "600x237"])
def test_membership_path_follows_the_key_space(monkeypatch, shape, dense):
    """The planted demo graph's 320,000 keys take the bit table; a 600-entity,
    237-relation graph (85.3 million keys) binary-searches its sorted keys.
    Both answer as a set of their triples does."""
    if shape is None:
        ds = make_planted_dataset()
        ents, rels = Vocabulary(), Vocabulary()
        ids = np.array([(ents.add(s), rels.add(r), ents.add(o)) for s, r, o in ds.train])
    else:
        ents, rels = (Vocabulary(f"{p}{i}" for i in range(n)) for p, n in zip("er", shape))
        ids = random_graph(np.random.default_rng(0), *shape, 3000)
    kg = KnowledgeGraph(ids, ents, rels)
    assert (len(ents) ** 2 * len(rels) <= kg_module.DENSE_KEYS) == dense
    searched = searches(monkeypatch)
    rng = np.random.default_rng(1)
    q = np.concatenate([kg.ids, rng.integers((len(ents), len(rels), len(ents)), size=(500, 3))])
    got = kg.contains_many(*q.T)
    assert bool(searched) != dense
    graph = set(map(tuple, kg.ids.tolist()))
    assert got.tolist() == [tuple(t) in graph for t in q.tolist()]


def graph_with_pair_freqs(freqs):
    """Graph where entities 2i and 2i+1 each occur exactly freqs[i] times
    (edges within the pair, spread over distinct relations)."""
    ents = Vocabulary(f"e{i}" for i in range(2 * len(freqs)))
    rels = Vocabulary(f"r{j}" for j in range(max(freqs)))
    triples = [Triple(2 * i, j, 2 * i + 1) for i, f in enumerate(freqs) for j in range(f)]
    return KnowledgeGraph(triples, ents, rels)


class TestSparsity:
    def test_endpoints(self):
        table = entity_sparsity(graph_with_pair_freqs([1, 101]))
        assert table.freq[0] == 1 and table.freq[2] == 101
        assert table.sparsity[0] == 1.0
        assert table.sparsity[2] == 0.0

    def test_midpoint_arithmetic(self):
        table = entity_sparsity(graph_with_pair_freqs([1, 51, 101]))
        assert table.sparsity[2] == pytest.approx(0.5)

    def test_uniform_graph_all_zero(self):
        ents, rels = Vocabulary("ab"), Vocabulary("r")
        kg = KnowledgeGraph([Triple(0, 0, 1)], ents, rels)
        table = entity_sparsity(kg)
        assert np.all(table.sparsity == 0.0)

    def test_empty_graph_errors(self):
        kg = KnowledgeGraph([], Vocabulary("a"), Vocabulary("r"))
        with pytest.raises(ValueError):
            entity_sparsity(kg)

    def test_bounds_and_order_invariance(self):
        rng = np.random.default_rng(1)
        ents = Vocabulary(f"e{i}" for i in range(20))
        rels = Vocabulary(f"r{i}" for i in range(3))
        triples = random_graph(rng, 20, 3, 200)
        t1 = entity_sparsity(KnowledgeGraph(triples, ents, rels))
        t2 = entity_sparsity(KnowledgeGraph(triples[::-1], ents, rels))
        assert np.all(t1.sparsity >= 0) and np.all(t1.sparsity <= 1)
        np.testing.assert_array_equal(t1.sparsity, t2.sparsity)


class TestSparseSplit:
    # entities 0/1 have sparsity 1.0, 2/3 have 0.5, 4/5 have 0.0
    def table(self):
        return entity_sparsity(graph_with_pair_freqs([1, 51, 101]))

    def test_threshold_examples(self):
        table = self.table()
        for threshold, ids in ((0.995, [0, 1]), (1.0, []), (0.0, [0, 1, 2, 3])):
            mask = sparse_entities(table, threshold)
            assert mask.dtype == bool and np.array_equal(mask, entity_mask(6, ids)), threshold

    def test_filtering(self):
        table = self.table()
        split = np.array([[4, 0, 5], [0, 0, 4], [4, 0, 1], [2, 0, 3], [1, 0, 0]])
        kept = sparsify_eval_split(table, split, 0.995)
        assert kept.dtype == np.int64 and kept.tolist() == [[0, 0, 4], [4, 0, 1], [1, 0, 0]]
        assert np.array_equal(sparsify_eval_split(table, kept, 0.995), kept)
        assert sparsify_eval_split(table, split, 1.0).shape == (0, 3)
        assert sparsify_eval_split(table, split[:0], 0.0).shape == (0, 3)

    def test_unknown_entity_errors(self):
        for bad in ([50, 0, 0], [0, 0, 6], [-1, 0, 0]):
            with pytest.raises(VocabularyError, match="outside the train vocabulary"):
                sparsify_eval_split(self.table(), np.array([[0, 0, 1], bad]), 0.5)


@settings(max_examples=60, deadline=None)
@given(rows=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 2), st.integers(0, 5)), max_size=30),
       threshold=st.sampled_from([0.0, 0.4, 0.5, 0.995, 1.0]))
def test_sparsify_eval_split_is_the_per_triple_filter(rows, threshold):
    """Array filtering keeps, in order, exactly the triples the per-triple
    test keeps, and filtering its result again changes nothing."""
    table = entity_sparsity(graph_with_pair_freqs([1, 51, 101]))
    sparse = table.sparsity > threshold
    kept = sparsify_eval_split(table, np.array(rows, dtype=np.int64).reshape(-1, 3), threshold)
    assert kept.tolist() == [list(t) for t in rows if sparse[t[0]] or sparse[t[2]]]
    assert np.array_equal(sparsify_eval_split(table, kept, threshold), kept)


@settings(max_examples=60, deadline=None)
@given(values=st.lists(st.integers(-2**62, 2**62) | st.integers(-3, 3), max_size=40))
def test_sorted_distinct_is_np_unique(values):
    arr = np.array(values, dtype=np.int64)
    got = sorted_distinct(arr)
    assert got.dtype == np.int64 and got.tobytes() == np.unique(arr).tobytes()
    assert sorted_distinct(arr.reshape(-1, 1)).tobytes() == got.tobytes()


@settings(max_examples=60, deadline=None)
@given(rows=st.lists(st.lists(st.integers(-1, 3) | st.integers(-2**62, 2**62), min_size=4, max_size=4),
                     max_size=40))
def test_distinct_rows_is_np_unique_over_rows(rows):
    """Candidate-table rows (with -1 entries) and id triples, repeats included."""
    arr = np.array(rows, dtype=np.int64).reshape(-1, 4)
    for table in (arr, arr[:, 1:]):
        got = distinct_rows(table)
        assert got.dtype == np.int64 and got.tolist() == sorted(map(list, set(map(tuple, table.tolist()))))


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 12), data=st.data())
def test_compact_ids_is_np_unique_with_inverse(n, data):
    """Repeated ids, a batch of one id, and ids that leave most of [0, n)
    unmarked."""
    ids = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=30)), dtype=np.int64)
    for batch in (ids, ids[:1], np.repeat(ids[:1], 3)):
        got, want = compact_ids(batch, n), np.unique(batch, return_inverse=True)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes()

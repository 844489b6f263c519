"""Triple store: vocabularies, sorted id arrays, entity sparsity, eval splits.

Graphs are parsed from tab-separated files (subject TAB relation TAB object,
one triple per line) into int64 id arrays and sorted once at construction.
All query methods return results in ascending-id order so downstream
sampling and pool generation are reproducible regardless of input file
ordering.
"""

from __future__ import annotations

import logging
import os
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

log = logging.getLogger(__name__)

# A graph whose packed-key space (n_ent**2 * n_rel keys) has at most this
# many keys answers membership from one bit per key (at most 128 KB), with
# one gather; a larger one binary-searches its sorted keys.
DENSE_KEYS = 1 << 20


class ParseError(ValueError):
    """Malformed line in a triple file."""


class VocabularyError(ValueError):
    """Unknown name under a fixed vocabulary, or bad id."""


class Triple(NamedTuple):
    subject: int
    relation: int
    object: int


class Vocabulary:
    """Bidirectional string<->dense-id mapping."""

    def __init__(self, names: Iterable[str] = ()):
        self._names: list[str] = []
        self._ids: dict[str, int] = {}
        for name in names:
            self.add(name)

    def add(self, name: str) -> int:
        idx = self._ids.get(name)
        if idx is None:
            idx = len(self._names)
            self._names.append(name)
            self._ids[name] = idx
        return idx

    def id_of(self, name: str) -> int:
        try:
            return self._ids[name]
        except KeyError:
            raise VocabularyError(f"unknown name: {name!r}") from None

    @property
    def names(self) -> list[str]:
        """The names in id order; name ``i`` is ``names[i]``.  Read-only."""
        return self._names

    def name_of(self, idx: int) -> str:
        if not 0 <= idx < len(self._names):
            raise VocabularyError(f"id {idx} out of range (size {len(self._names)})")
        return self._names[idx]

    def __contains__(self, name: str) -> bool:
        return name in self._ids

    def __len__(self) -> int:
        return len(self._names)

    def __iter__(self):
        return iter(self._names)


def _read_ids(path: str | os.PathLike, n_fields: int, entity_id, relation_id) -> np.ndarray:
    """The (n, 3) int64 ids of the first three fields, subject, relation and
    object, of each line of a TSV file of ``n_fields`` fields, mapped by
    ``entity_id``/``relation_id``; errors name ``path:lineno``."""
    ids: list[int] = []
    with open(path, encoding="utf-8") as fh:
        try:
            for lineno, line in enumerate(fh, start=1):
                fields = line.rstrip("\n").split("\t")
                if len(fields) != n_fields:
                    raise ParseError(
                        f"{path}:{lineno}: expected {n_fields} tab-separated fields, got {len(fields)}")
                ids += (entity_id(fields[0]), relation_id(fields[1]), entity_id(fields[2]))
        except VocabularyError as exc:
            raise VocabularyError(f"{path}:{lineno}: {exc}") from None
    return np.array(ids, dtype=np.int64).reshape(-1, 3)


def load_triples(
    path: str | os.PathLike,
    entities: Optional[Vocabulary] = None,
    relations: Optional[Vocabulary] = None,
) -> tuple[np.ndarray, Vocabulary, Vocabulary]:
    """Parse a TSV triple file into (n, 3) int64 (s, r, o) ids, in file order.

    Without a supplied vocabulary, unseen strings extend fresh vocabularies
    in file order.  With supplied vocabularies, unseen strings raise
    VocabularyError (transductive setting: eval splits must not introduce
    new entities or relations).
    """
    if (entities is None) != (relations is None):
        raise ValueError("supply both vocabularies or neither")
    if entities is None:
        entities, relations = Vocabulary(), Vocabulary()
        ids = _read_ids(path, 3, entities.add, relations.add)
    else:
        ids = _read_ids(path, 3, entities.id_of, relations.id_of)
    return ids, entities, relations


def expand_ranges(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every position of the ranges ``[lo[i], hi[i])``, range by range:
    ``(owner, position)`` with ``owner`` the index ``i`` of its range."""
    n = hi - lo
    owner = np.repeat(np.arange(len(n)), n)
    return owner, np.arange(len(owner)) + np.repeat(lo - (np.cumsum(n) - n), n)


def sorted_distinct(values: np.ndarray) -> np.ndarray:
    """``np.unique`` of an integer array from one sort and a mask: numpy
    2.4's plain ``np.unique`` takes another path, tens of times slower."""
    values = np.sort(values, axis=None)
    return values[np.diff(values, prepend=values[:1] - 1) != 0]


def distinct_rows(rows: np.ndarray) -> np.ndarray:
    """The distinct rows of a 2-d integer array, in ascending lexicographic
    order (first column first)."""
    rows = rows[np.lexsort(rows.T[::-1])]
    first = np.ones(len(rows), dtype=bool)
    first[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    return rows[first]


def compact_ids(ids: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(ids, return_inverse=True)`` for ids in [0, n), from a
    mark table over ``n`` instead of a sort: the sorted distinct ids, and
    each id's position among them."""
    mark = np.zeros(n, dtype=bool)
    mark[ids] = True
    distinct = np.flatnonzero(mark)
    position = np.empty(n, dtype=np.int64)
    position[distinct] = np.arange(len(distinct))
    return distinct, position[ids]


def lookup_sorted(keys: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each query, a position in the sorted ``keys`` and whether the
    query is the key there."""
    if len(keys) == 0:
        return np.zeros(len(q), dtype=np.int64), np.zeros(len(q), dtype=bool)
    at = np.minimum(np.searchsorted(keys, q), len(keys) - 1)
    return at, keys[at] == q


class KnowledgeGraph:
    """Immutable triple set held as int64 arrays.

    The constructor sorts the triples' packed keys ``(r*n_ent + s)*n_ent + o``
    (``pack``) once, stably, and keeps the first key of each run of equal
    keys: duplicate triples are removed, first occurrence kept.  ``ids``
    holds the survivors in input order, ``triples`` the same as ``Triple``
    tuples.  A graph whose keys overflow int64 is refused there, with
    ``OverflowError``.  The sorted distinct keys are the store.  The rule
    joins of ``iterkg.axioms`` read the triples in their (relation, subject,
    object) order: ``rel_s``/``rel_o`` are the subject and object columns,
    and relation r's triples are the rows ``rel_start[r]:rel_start[r + 1]``.
    Membership of packed keys (``contains_keys``, and ``contains_many`` for
    id triples) is one ``np.searchsorted`` into the sorted keys, or, when
    the key space has at most ``DENSE_KEYS`` keys, one gather from a bit
    table over that space.  Built on first use are that table and

    - a CSR over (relation, subject): offsets for all ``n_rel * n_ent``
      pairs, so the objects of any (s, r) are a gather
      (``object_ranges``);
    - the sorted keys ``(s*n_ent + o)*n_rel + r``, whose runs are the
      out-edges of a subject (``out_ranges``) and the relations linking two
      entities (``pair_ranges``), for pool generation.

    ``triples_of`` and ``entity_occurs_with`` return ascending-id lists.
    Do not mutate after construction.
    """

    def __init__(self, triples: np.ndarray | Sequence[Triple], entities: Vocabulary, relations: Vocabulary):
        n_ent, n_rel = len(entities), len(relations)
        ids = np.asarray(triples, dtype=np.int64).reshape(-1, 3)
        bad = ((ids < 0) | (ids >= (n_ent, n_rel, n_ent))).any(axis=1)
        if bad.any():
            t = Triple(*ids[np.argmax(bad)].tolist())
            raise ValueError(f"triple {t} out of vocabulary bounds ({n_ent} entities, {n_rel} relations)")
        self.entities = entities
        self.relations = relations
        if self._n_keys > np.iinfo(np.int64).max:
            raise OverflowError(f"{n_ent} entities x {n_rel} relations overflow int64 triple keys")
        keys = self.pack(*ids.T)
        order = np.argsort(keys, kind="stable")  # equal keys keep input order
        keys = keys[order]
        first = np.diff(keys, prepend=keys[:1] - 1) != 0
        self._keys: np.ndarray = keys[first]
        dropped = len(ids) - len(self._keys)
        if dropped:
            log.info("dropped %d duplicate triples", dropped)

        self.ids: np.ndarray = ids[np.sort(order[first])]
        rel_sub, self.rel_o = np.divmod(self._keys, n_ent)  # r*n_ent + s, o
        rel, self.rel_s = np.divmod(rel_sub, n_ent)
        self.rel_start: np.ndarray = np.searchsorted(rel, np.arange(n_rel + 1))

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def n_entities(self) -> int:
        return len(self.entities)

    @property
    def n_relations(self) -> int:
        return len(self.relations)

    @cached_property
    def triples(self) -> tuple[Triple, ...]:
        """The triples of ``ids``, in the same order.  Only tests and audits
        read it; the pipeline, the CLI and ranking use the id arrays."""
        return tuple(map(Triple._make, self.ids.tolist()))

    def relation_sizes(self, r: np.ndarray) -> np.ndarray:
        return self.rel_start[np.asarray(r) + 1] - self.rel_start[r]

    def relation_size(self, r: int) -> int:
        return int(self.relation_sizes(r)) if 0 <= r < self.n_relations else 0

    # -- packed keys -------------------------------------------------------

    @property
    def _n_keys(self) -> int:
        return self.n_entities ** 2 * self.n_relations

    def pack(self, s, r, o):
        """Packed keys ``(r*n_ent + s)*n_ent + o`` of in-range id triples,
        ordered as the triples sort by (relation, subject, object).  The
        constructor refused a graph whose keys overflow int64, so every
        in-range triple packs into an int64 key."""
        return (r * self.n_entities + s) * self.n_entities + o

    @cached_property
    def key_weights(self) -> np.ndarray:
        """Weights of subject, relation and object in a packed key: ``pack``
        is linear, so they are the keys of the unit triples."""
        return self.pack(*np.eye(3, dtype=np.int64))

    @cached_property
    def _member_bits(self) -> Optional[np.ndarray]:
        """One bit per packed key, set for the graph's triples (key k is bit
        ``k % 8`` of byte ``k // 8``); None above ``DENSE_KEYS`` keys."""
        if self._n_keys > DENSE_KEYS:
            return None
        # set in place: a bool per key would cost eight times the table
        bits = np.zeros(self._n_keys // 8 + 1, dtype=np.uint8)
        np.bitwise_or.at(bits, self._keys >> 3, np.left_shift(1, self._keys & 7).astype(np.uint8))
        return bits

    @cached_property
    def _csr(self) -> np.ndarray:
        pair = self._keys // self.n_entities  # r*n_ent + s
        return np.concatenate([[0], np.cumsum(np.bincount(pair, minlength=self.n_relations * self.n_entities))])

    @cached_property
    def _pair_keys(self) -> np.ndarray:
        s, r, o = self.ids.T
        return np.sort((s * self.n_entities + o) * self.n_relations + r)

    # -- batched access ----------------------------------------------------

    def contains_keys(self, keys: np.ndarray) -> np.ndarray:
        """Boolean mask: which packed keys (``pack``) are graph triples;
        keys outside ``[0, n_ent**2 * n_rel)`` are never members.

        Up to ``DENSE_KEYS`` keys in the key space, one gather from the bit
        table.  Above, one ``np.searchsorted`` into the sorted key array,
        probed in ascending order through the queries' argsort: ascending
        probes walk the key array forward, and random ones miss the cache
        and the branch predictor.
        """
        keys = np.asarray(keys, dtype=np.int64)
        bits = self._member_bits
        if bits is not None:
            inside = keys.view(np.uint64) < self._n_keys  # negative keys wrap above the space
            byte = bits.take(keys >> 3, mode="clip")
            np.right_shift(byte, (keys & 7).astype(np.uint8), out=byte)
            return (byte & inside).view(bool)
        order = np.argsort(keys)
        found = np.empty(len(keys), dtype=bool)
        found[order] = lookup_sorted(self._keys, keys[order])[1]
        return found

    def contains_many(self, s: np.ndarray, r: np.ndarray, o: np.ndarray) -> np.ndarray:
        """Boolean mask: which (s[i], r[i], o[i]) are graph triples;
        out-of-range ids are never members."""
        s, r, o = (np.asarray(a, dtype=np.int64) for a in (s, r, o))
        valid = ((0 <= s) & (s < self.n_entities) & (0 <= o) & (o < self.n_entities)
                 & (0 <= r) & (r < self.n_relations))
        return valid & self.contains_keys(self.pack(s, r, o))

    def object_ranges(self, r: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Rows ``[lo, hi)`` of ``rel_s``/``rel_o`` holding the triples
        (s[i], r[i], *), for in-range ids."""
        at = r * self.n_entities + s
        return self._csr[at], self._csr[at + 1]

    def out_ranges(self, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Runs of ``pair_key`` holding the out-edges of each subject."""
        first = s * (self.n_entities * self.n_relations)
        return (np.searchsorted(self._pair_keys, first),
                np.searchsorted(self._pair_keys, first + self.n_entities * self.n_relations))

    def pair_ranges(self, s: np.ndarray, o: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Runs of ``pair_key`` holding the relations that link s[i] to o[i]."""
        first = (s * self.n_entities + o) * self.n_relations
        return (np.searchsorted(self._pair_keys, first),
                np.searchsorted(self._pair_keys, first + self.n_relations))

    def pair_key(self, pos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(object, relation) of the sorted pair keys at ``pos``."""
        k = self._pair_keys[pos]
        return k // self.n_relations % self.n_entities, k % self.n_relations

    # -- query API (sorted, set semantics) --------------------------------

    def contains(self, s: int, r: int, o: int) -> bool:
        return bool(self.contains_many([s], [r], [o])[0])

    def triples_of(self, r: int) -> list[Triple]:
        block = slice(self.rel_start[r], self.rel_start[r + 1])
        return [Triple(s, r, o) for s, o in zip(self.rel_s[block].tolist(), self.rel_o[block].tolist())]

    def entity_occurs_with(self, r: int) -> list[int]:
        block = slice(self.rel_start[r], self.rel_start[r + 1])
        return np.union1d(self.rel_s[block], self.rel_o[block]).tolist()


@dataclass(frozen=True)
class SparsityTable:
    """Per-entity train frequency and min-max-normalized sparsity.

    sparsity(e) = 1 - (freq(e) - min freq) / (max freq - min freq), so the
    rarest entity scores 1 and the most frequent scores 0.  When all
    frequencies coincide the formula is 0/0; every sparsity is defined as 0
    (a uniform graph has no sparse part).
    """

    freq: np.ndarray
    sparsity: np.ndarray


def entity_sparsity(kg: KnowledgeGraph) -> SparsityTable:
    """Compute the sparsity table over the full entity vocabulary.

    Frequencies count occurrences as subject or object in ``kg`` (pass the
    train graph: eval splits must not leak into sparsity classification).
    """
    if len(kg) == 0:
        raise ValueError("cannot compute sparsity of an empty graph")
    freq = (np.bincount(kg.ids[:, 0], minlength=kg.n_entities)
            + np.bincount(kg.ids[:, 2], minlength=kg.n_entities))
    fmin, fmax = int(freq.min()), int(freq.max())
    if fmax == fmin:
        sparsity = np.zeros(kg.n_entities, dtype=np.float64)
    else:
        sparsity = 1.0 - (freq - fmin) / float(fmax - fmin)
    return SparsityTable(freq=freq, sparsity=sparsity)


def sparse_entities(table: SparsityTable, threshold: float) -> np.ndarray:
    """Boolean mask over the entity ids: sparsity strictly above ``threshold``."""
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"sparsity threshold must lie in [0, 1], got {threshold}")
    return table.sparsity > threshold


def sparsify_eval_split(
    table: SparsityTable, split: np.ndarray | Sequence[Triple], threshold: float
) -> np.ndarray:
    """The (n, 3) int64 rows of ``split`` whose subject or object is sparse.

    Order is preserved; re-filtering the result is a no-op.
    """
    split = np.asarray(split, dtype=np.int64).reshape(-1, 3)
    ends = split[:, [0, 2]]
    outside = ((ends < 0) | (ends >= len(table.sparsity))).any(axis=1)
    if outside.any():
        raise VocabularyError(f"split triple {tuple(split[np.argmax(outside)].tolist())} "
                              "references an entity outside the train vocabulary")
    return split[sparse_entities(table, threshold)[ends].any(axis=1)]


def load_splits(
    data_dir: str | os.PathLike,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, Vocabulary, Vocabulary]:
    """Load train.txt / valid.txt / test.txt from a dataset directory as
    (n, 3) int64 id arrays.

    The train split defines the vocabularies; valid and test are parsed
    against them and error on unseen names.
    """
    train, entities, relations = load_triples(os.path.join(data_dir, "train.txt"))
    valid, _, _ = load_triples(os.path.join(data_dir, "valid.txt"), entities, relations)
    test, _, _ = load_triples(os.path.join(data_dir, "test.txt"), entities, relations)
    return train, valid, test, entities, relations


def load_dataset(
    data_dir: str | os.PathLike,
) -> tuple[list[Triple], list[Triple], list[Triple], Vocabulary, Vocabulary]:
    """``load_splits`` with each split as a list of ``Triple``, for tests
    and audits; the pipeline and the CLI use the id arrays."""
    *splits, entities, relations = load_splits(data_dir)
    train, valid, test = (list(map(Triple._make, split.tolist())) for split in splits)
    return train, valid, test, entities, relations

"""Triple store: vocabularies, adjacency indices, entity sparsity, eval splits.

Graphs are loaded from tab-separated files (subject TAB relation TAB object,
one triple per line) and indexed once at construction.  All query methods
return results in ascending-id order so downstream sampling and pool
generation are reproducible regardless of input file ordering.
"""

from __future__ import annotations

import itertools
import logging
import os
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

log = logging.getLogger(__name__)


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


def load_triples(
    path: str | os.PathLike,
    entities: Optional[Vocabulary] = None,
    relations: Optional[Vocabulary] = None,
) -> tuple[list[Triple], Vocabulary, Vocabulary]:
    """Parse a TSV triple file.

    Without a supplied vocabulary, unseen strings extend fresh vocabularies
    in file order.  With supplied vocabularies, unseen strings raise
    VocabularyError (transductive setting: eval splits must not introduce
    new entities or relations).
    """
    if (entities is None) != (relations is None):
        raise ValueError("supply both vocabularies or neither")
    fixed = entities is not None
    if not fixed:
        entities, relations = Vocabulary(), Vocabulary()
    triples: list[Triple] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            fields = line.rstrip("\n").split("\t")
            if len(fields) != 3:
                raise ParseError(
                    f"{path}:{lineno}: expected 3 tab-separated fields, got {len(fields)}"
                )
            s_name, r_name, o_name = fields
            if fixed:
                try:
                    s, r, o = entities.id_of(s_name), relations.id_of(r_name), entities.id_of(o_name)
                except VocabularyError as exc:
                    raise VocabularyError(f"{path}:{lineno}: {exc}") from None
            else:
                s = entities.add(s_name)
                r = relations.add(r_name)
                o = entities.add(o_name)
            triples.append(Triple(s, r, o))
    return triples, entities, relations


class KnowledgeGraph:
    """Immutable triple set with adjacency indices.

    Duplicate triples are removed at construction (first occurrence kept).
    The indices are plain dict-of-set structures rebuilt deterministically
    from the triple list.  The rule joins of ``iterkg.axioms`` read them
    through ``triples_of`` (the pivot atom), ``contains`` (a one-atom body
    against its head), ``objects_set``/``subjects_set`` (the middle or end
    entity of a two-atom body, both keyed ``(entity, relation)``) and
    ``entity_occurs_with`` (the reflexive rule); pool generation reads
    ``pair_relations`` and ``out_edges``.  Batched membership
    (``contains_many``) searches a sorted array of packed int64 keys, built
    on first use.  Do not mutate after construction.
    """

    def __init__(self, triples: Sequence[Triple], entities: Vocabulary, relations: Vocabulary):
        n_ent, n_rel = len(entities), len(relations)
        seen: set[Triple] = set()
        kept: list[Triple] = []
        for t in triples:
            t = Triple(*t)
            if not (0 <= t.subject < n_ent and 0 <= t.object < n_ent and 0 <= t.relation < n_rel):
                raise ValueError(f"triple {t} out of vocabulary bounds ({n_ent} entities, {n_rel} relations)")
            if t in seen:
                continue
            seen.add(t)
            kept.append(t)
        dropped = len(triples) - len(kept)
        if dropped:
            log.info("dropped %d duplicate triples", dropped)

        self.entities = entities
        self.relations = relations
        self.triples: tuple[Triple, ...] = tuple(kept)
        self._members = seen

        self._by_rel: dict[int, list[Triple]] = {}
        self._so: dict[tuple[int, int], set[int]] = {}
        self._os: dict[tuple[int, int], set[int]] = {}
        self._pair: dict[tuple[int, int], set[int]] = {}
        self._out: dict[int, set[tuple[int, int]]] = {}
        self._ents_of_rel: dict[int, set[int]] = {}
        for t in kept:
            s, r, o = t
            self._by_rel.setdefault(r, []).append(t)
            self._so.setdefault((s, r), set()).add(o)
            self._os.setdefault((o, r), set()).add(s)
            self._pair.setdefault((s, o), set()).add(r)
            self._out.setdefault(s, set()).add((r, o))
            self._ents_of_rel.setdefault(r, set()).update((s, o))
        for r in self._by_rel:
            self._by_rel[r].sort()

    def __len__(self) -> int:
        return len(self.triples)

    @property
    def n_entities(self) -> int:
        return len(self.entities)

    @property
    def n_relations(self) -> int:
        return len(self.relations)

    # -- query API (sorted, set semantics) --------------------------------

    def contains(self, s: int, r: int, o: int) -> bool:
        return (s, r, o) in self._members

    @cached_property
    def ids(self) -> np.ndarray:
        """(n, 3) int64 array of the triples, one (s, r, o) row each, in order."""
        flat = itertools.chain.from_iterable(self.triples)
        return np.fromiter(flat, dtype=np.int64, count=3 * len(self.triples)).reshape(-1, 3)

    @cached_property
    def _sorted_keys(self) -> np.ndarray:
        if self.n_entities ** 2 * self.n_relations > np.iinfo(np.int64).max:
            raise OverflowError(
                f"{self.n_entities} entities x {self.n_relations} relations overflow int64 triple keys")
        return np.sort(self._pack(*self.ids.T))

    def _pack(self, s: np.ndarray, r: np.ndarray, o: np.ndarray) -> np.ndarray:
        return (s * self.n_relations + r) * self.n_entities + o

    def contains_many(self, s: np.ndarray, r: np.ndarray, o: np.ndarray) -> np.ndarray:
        """Boolean mask: which (s[i], r[i], o[i]) are graph triples.

        One ``np.searchsorted`` of the packed keys ``(s*n_rel + r)*n_ent + o``
        into the sorted key array; out-of-range ids are never members.
        """
        s, r, o = (np.asarray(a, dtype=np.int64) for a in (s, r, o))
        keys = self._sorted_keys
        valid = ((0 <= s) & (s < self.n_entities) & (0 <= o) & (o < self.n_entities)
                 & (0 <= r) & (r < self.n_relations))
        if len(keys) == 0:
            return np.zeros(valid.shape, dtype=bool)
        q = self._pack(s, r, o)
        pos = np.minimum(np.searchsorted(keys, q), len(keys) - 1)
        return valid & (keys[pos] == q)

    def objects_of(self, s: int, r: int) -> list[int]:
        return sorted(self._so.get((s, r), ()))

    def subjects_of(self, r: int, o: int) -> list[int]:
        return sorted(self._os.get((o, r), ()))

    def relations_between(self, s: int, o: int) -> list[int]:
        return sorted(self._pair.get((s, o), ()))

    def triples_of(self, r: int) -> list[Triple]:
        return list(self._by_rel.get(r, ()))

    def entity_occurs_with(self, r: int) -> list[int]:
        return sorted(self._ents_of_rel.get(r, ()))

    # -- raw set views for hot paths (do not mutate) -----------------------

    def objects_set(self, s: int, r: int) -> set[int]:
        return self._so.get((s, r), _EMPTY_SET)

    def subjects_set(self, o: int, r: int) -> set[int]:
        return self._os.get((o, r), _EMPTY_SET)

    def pair_relations(self, s: int, o: int) -> set[int]:
        return self._pair.get((s, o), _EMPTY_SET)

    def out_edges(self, s: int) -> set[tuple[int, int]]:
        return self._out.get(s, _EMPTY_SET)

    def relation_size(self, r: int) -> int:
        return len(self._by_rel.get(r, ()))


_EMPTY_SET: set = set()


@dataclass(frozen=True)
class SparsityTable:
    """Per-entity train frequency and min-max-normalized sparsity.

    sparsity(e) = 1 - (freq(e) - freq_min) / (freq_max - freq_min), so the
    rarest entity scores 1 and the most frequent scores 0.  When all
    frequencies coincide the formula is 0/0; every sparsity is defined as 0
    (a uniform graph has no sparse part).
    """

    freq: np.ndarray
    freq_min: int
    freq_max: int
    sparsity: np.ndarray


def entity_sparsity(kg: KnowledgeGraph) -> SparsityTable:
    """Compute the sparsity table over the full entity vocabulary.

    Frequencies count occurrences as subject or object in ``kg`` (pass the
    train graph: eval splits must not leak into sparsity classification).
    """
    if len(kg) == 0:
        raise ValueError("cannot compute sparsity of an empty graph")
    freq = np.zeros(kg.n_entities, dtype=np.int64)
    for s, _, o in kg.triples:
        freq[s] += 1
        freq[o] += 1
    fmin, fmax = int(freq.min()), int(freq.max())
    if fmax == fmin:
        sparsity = np.zeros(kg.n_entities, dtype=np.float64)
    else:
        sparsity = 1.0 - (freq - fmin) / float(fmax - fmin)
    return SparsityTable(freq=freq, freq_min=fmin, freq_max=fmax, sparsity=sparsity)


def sparse_entities(table: SparsityTable, threshold: float) -> set[int]:
    """Entities with sparsity strictly above ``threshold``."""
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"sparsity threshold must lie in [0, 1], got {threshold}")
    return set(np.flatnonzero(table.sparsity > threshold).tolist())


def sparsify_eval_split(
    table: SparsityTable, split: Sequence[Triple], threshold: float
) -> list[Triple]:
    """Keep only triples whose subject or object is a sparse entity.

    Order is preserved; re-filtering the result is a no-op.
    """
    sparse = sparse_entities(table, threshold)
    n = len(table.sparsity)
    kept = []
    for t in split:
        if not (0 <= t.subject < n and 0 <= t.object < n):
            raise VocabularyError(f"split triple {t} references an entity outside the train vocabulary")
        if t.subject in sparse or t.object in sparse:
            kept.append(t)
    return kept


def load_dataset(
    data_dir: str | os.PathLike,
) -> tuple[list[Triple], list[Triple], list[Triple], Vocabulary, Vocabulary]:
    """Load train.txt / valid.txt / test.txt from a dataset directory.

    The train split defines the vocabularies; valid and test are parsed
    against them and error on unseen names.
    """
    train, entities, relations = load_triples(os.path.join(data_dir, "train.txt"))
    valid, _, _ = load_triples(os.path.join(data_dir, "valid.txt"), entities, relations)
    test, _, _ = load_triples(os.path.join(data_dir, "test.txt"), entities, relations)
    return train, valid, test, entities, relations

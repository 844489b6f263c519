"""Seeded graph generator for the benchmark workloads, cached on disk.

One generator makes both the Zipf workloads and the FB15k-237 shape.
Subjects, objects and relations follow fixed Zipf degree sequences, so a
few hub entities carry many edges and most carry a handful: the degree
skew that makes pool generation, grounding and the ranking filter
expensive on real graphs.  Every entity first receives one "spanning"
train triple, so the vocabulary has exactly ``n_entities`` entities and
every relation occurs in train; valid and test triples are drawn from the
remaining triples, which keeps the eval splits inside the train
vocabulary.

``iterkg.synthetic`` is left alone: it plants the small demo graph, these
shapes exist only to load the pipeline at scale.

Files are cached under ``<cache>/<key>/`` where the key names the
generator, its version, the seed and every size, so a changed size or
generator never reuses stale files.  Only the ``KEEP`` most recently used
entries are kept.
"""

from __future__ import annotations

import os
import shutil
import time
from dataclasses import astuple, dataclass

import numpy as np

GENERATOR_VERSION = 1
STRUCTURE_SEED = 0
KEEP = 6


@dataclass(frozen=True)
class GraphShape:
    """Sizes and Zipf exponents of one generated graph.

    The default exponents are unverified assumptions, not fits: no entity
    or relation degree statistics of FB15k-237 are at hand here, only its
    split sizes.  README.md lists the degree figures they produce.
    """

    n_entities: int
    n_relations: int
    n_train: int
    n_valid: int
    n_test: int
    entity_exponent: float = 0.75
    relation_exponent: float = 0.9

    def key(self, seed: int) -> str:
        sizes = "-".join(str(v) for v in astuple(self))
        return f"zipf-v{GENERATOR_VERSION}-s{seed}-{sizes}"


def _zipf_slots(n: int, exponent: float, m: int) -> np.ndarray:
    """``m`` ids in [0, n) where id k occurs about m * P(k) times, with
    P(k) proportional to (k + 1) ** -exponent (largest-remainder rounding).

    Fixing the degree sequence rather than drawing it keeps the hub sizes,
    and so the cost of joins over them, the same from seed to seed.
    """
    p = np.arange(1, n + 1, dtype=np.float64) ** -exponent
    want = m * p / p.sum()
    counts = np.floor(want).astype(np.int64)
    short = m - int(counts.sum())
    counts[np.argsort(counts - want, kind="stable")[:short]] += 1
    return np.repeat(np.arange(n), counts)


def generate(shape: GraphShape, seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(train, valid, test) as (n, 3) int64 arrays of distinct (s, r, o) triples.

    A configuration model: subject, object and relation slots follow fixed
    Zipf degree sequences and a shuffle pairs them up; self-loops and
    duplicates are dropped and refilled from a fresh shuffle.  The pairing
    and the split come from a fixed stream, so every seed yields the same
    graph up to isomorphism; ``seed`` picks the entity and relation ids and
    the file order.  Run-to-run differences then come from the program and
    its own seeded streams, not from the luck of the draw (pool size and
    grounding cost swing by a third between independent draws).  Sizes are
    exact.
    """
    n_ent, n_rel = shape.n_entities, shape.n_relations
    total = shape.n_train + shape.n_valid + shape.n_test
    if shape.n_train < n_ent:
        raise ValueError("n_train must be at least n_entities (one spanning triple each)")
    rng = np.random.default_rng(np.random.SeedSequence((GENERATOR_VERSION, STRUCTURE_SEED)))
    ent_slots = _zipf_slots(n_ent, shape.entity_exponent, total)
    rel_slots = _zipf_slots(n_rel, shape.relation_exponent, total)

    def pack(s, r, o):
        return (s * n_rel + r) * n_ent + o

    # every entity and relation occurs once in train before the shuffle
    span_o = rng.permutation(n_ent)
    span_o = np.where(span_o == np.arange(n_ent), np.roll(span_o, 1), span_o)
    spanning = np.unique(pack(np.arange(n_ent), np.arange(n_ent) % n_rel, span_o))
    keys = spanning
    while len(keys) < total:
        s, o, r = rng.permutation(ent_slots), rng.permutation(ent_slots), rng.permutation(rel_slots)
        fresh = pack(s, r, o)[s != o]
        # first occurrences in shuffle order, so the result is seed-stable
        _, first = np.unique(fresh, return_index=True)
        fresh = fresh[np.sort(first)]
        fresh = fresh[~np.isin(fresh, keys)]
        keys = np.concatenate([keys, fresh[: total - len(keys)]])

    extra = np.setdiff1d(keys, spanning)
    eval_keys = rng.choice(extra, size=shape.n_valid + shape.n_test, replace=False)
    train_keys = np.setdiff1d(keys, eval_keys)

    labels = np.random.default_rng(np.random.SeedSequence((GENERATOR_VERSION, seed)))
    ent_ids = labels.permutation(n_ent)
    rel_ids = labels.permutation(n_rel)

    def unpack(k):
        k = labels.permutation(k)
        o = k % n_ent
        sr = k // n_ent
        return np.stack([ent_ids[sr // n_rel], rel_ids[sr % n_rel], ent_ids[o]], axis=1)

    return unpack(train_keys), unpack(eval_keys[: shape.n_valid]), unpack(eval_keys[shape.n_valid :])


def write_split(path: str, triples: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"e{s}\tr{r}\te{o}\n" for s, r, o in triples.tolist())


def cached_dataset(cache_dir: str, shape: GraphShape, seed: int) -> tuple[str, float]:
    """Directory holding train/valid/test.txt for (shape, seed), and the
    seconds spent generating it (0.0 on a cache hit)."""
    path = os.path.join(cache_dir, shape.key(seed))
    if os.path.exists(os.path.join(path, "done")):
        os.utime(path)
        return path, 0.0
    start = time.perf_counter()
    tmp = path + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    for name, split in zip(("train.txt", "valid.txt", "test.txt"), generate(shape, seed)):
        write_split(os.path.join(tmp, name), split)
    open(os.path.join(tmp, "done"), "w").close()
    shutil.rmtree(path, ignore_errors=True)
    os.rename(tmp, path)
    elapsed = time.perf_counter() - start
    _evict(cache_dir)
    return path, elapsed


def _evict(cache_dir: str) -> None:
    entries = [
        os.path.join(cache_dir, name) for name in os.listdir(cache_dir)
        if not name.endswith(".tmp")
    ]
    entries.sort(key=os.path.getmtime, reverse=True)
    for stale in entries[KEEP:]:
        shutil.rmtree(stale, ignore_errors=True)

"""Synthetic dataset with planted axioms for demos and end-to-end tests.

The generator builds a 200-entity graph carrying two recoverable
regularities: one relation is (mostly) the exact inverse of another, and a
third closes (mostly all of) the compositions of two hop relations.  Each
structure lives on its own layered entity island with edges flowing only
between layers, so no accidental mutual pair, co-occurrence, or two-step
path exists outside the islands: the axiom pool contains exactly the
planted axioms and the decoys constructed here.

Decoys are "skew" relations sharing an island and a direction with a
planted relation but carrying shuffled pairs.  They overlap the planted
structure enough for pool admission, yet the matrices they train toward
differ from the composition they are scored against, so their conclusion
residual grows in step with the island's maturity while the planted
axiom's residual shrinks: the score gap widens as training proceeds.

A tail of rare entities participates in one or two train triples each;
the triples their island's regularity would complete are held out as
valid/test, so a model that learns the regularities and injects their
groundings can recover them.

Run ``python -m iterkg.synthetic --out DIR`` to materialize the files.
"""

from __future__ import annotations

import argparse
import os
from dataclasses import dataclass, field

import numpy as np

StrTriple = tuple[str, str, str]


@dataclass
class PlantedDataset:
    train: list[StrTriple]
    valid: list[StrTriple]
    test: list[StrTriple]
    planted: list[tuple[str, tuple[str, ...]]] = field(default_factory=list)


# entities per island layer, rare and filler entities, edges drawn per island
INVERSE_LAYER = 26
CHAIN_LAYER = 34
N_RARE = 18
N_MISC = 28
N_BASE_PAIRS = 250
N_BASE_SKEW = 100
N_CHAIN_PATHS = 700
N_CHAIN_SKEW = 400


def make_planted_dataset(seed: int = 7) -> PlantedDataset:
    rng = np.random.default_rng(seed)

    def entities(prefix, count):
        return [f"{prefix}{i:03d}" for i in range(count)]

    base_src = entities("bs", INVERSE_LAYER)
    base_dst = entities("bd", INVERSE_LAYER)
    chain_l0 = entities("c0_", CHAIN_LAYER)
    chain_l1 = entities("c1_", CHAIN_LAYER)
    chain_l2 = entities("c2_", CHAIN_LAYER)
    rare = entities("rare", N_RARE)
    misc_src = entities("ms", N_MISC // 2)
    misc_dst = entities("md", N_MISC - N_MISC // 2)

    train: set[StrTriple] = set()
    valid: list[StrTriple] = []
    test: list[StrTriple] = []

    def pick(pool):
        return pool[int(rng.integers(len(pool)))]

    # inverse island (two layers): inv_of_base mirrors ~90% of base edges;
    # base_skew carries pairs in the mirror direction that mostly avoid
    # true mirrors (decoy), with a small sliver of mirrors for pool
    # admission
    base_pairs: list[tuple[str, str]] = []
    for _ in range(N_BASE_PAIRS):
        x, y = pick(base_src), pick(base_dst)
        train.add((x, "base", y))
        base_pairs.append((x, y))
        if rng.random() < 0.9:
            train.add((y, "inv_of_base", x))
    # 40% of the skew edges mirror real base pairs so the pool sampler
    # reliably proposes the decoy; the rest contradict the inverse pattern
    for k in range(N_BASE_SKEW):
        if k % 5 < 2:
            x, y = base_pairs[int(rng.integers(len(base_pairs)))]
            train.add((y, "base_skew", x))
        else:
            train.add((pick(base_dst), "base_skew", pick(base_src)))

    # chain island (three layers): chain_head closes ~98% of the paths;
    # chain_skew mostly avoids true path endpoints (decoy), with a small
    # sliver of closures for pool admission
    endpoints: list[tuple[str, str]] = []
    for _ in range(N_CHAIN_PATHS):
        x, y, z = pick(chain_l0), pick(chain_l1), pick(chain_l2)
        train.add((x, "hop_a", y))
        train.add((y, "hop_b", z))
        endpoints.append((x, z))
        if rng.random() < 0.98:
            train.add((x, "chain_head", z))
    # shuffled endpoint pairs; enough land on real paths for discovery
    for _ in range(N_CHAIN_SKEW):
        train.add((pick(chain_l0), "chain_skew", pick(chain_l2)))

    # rare entities: one incoming regularity each, its completion held out
    for i, s in enumerate(rare):
        if i % 2 == 0:
            f = pick(base_dst)
            train.add((s, "base", f))
            held = (f, "inv_of_base", s)
        else:
            f, f2 = pick(chain_l1), pick(chain_l2)
            train.add((s, "hop_a", f))
            train.add((f, "hop_b", f2))
            held = (s, "chain_head", f2)
        if i % 5 == 4:
            valid.append(held)
        else:
            test.append(held)

    # unstructured filler island; bipartite, so it grounds no rule shape
    for _ in range(60):
        train.add((pick(misc_src), "misc", pick(misc_dst)))

    return PlantedDataset(
        train=sorted(train),
        valid=valid,
        test=test,
        planted=[
            ("inverse", ("inv_of_base", "base")),
            ("sub_property_chain", ("hop_a", "hop_b", "chain_head")),
        ],
    )


def write_dataset(dataset: PlantedDataset, out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    for name, triples in (("train.txt", dataset.train), ("valid.txt", dataset.valid), ("test.txt", dataset.test)):
        with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
            for s, r, o in triples:
                fh.write(f"{s}\t{r}\t{o}\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    dataset = make_planted_dataset(seed=args.seed)
    write_dataset(dataset, args.out)
    print(f"wrote {len(dataset.train)} train / {len(dataset.valid)} valid / "
          f"{len(dataset.test)} test triples to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

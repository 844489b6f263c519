"""Output checks: the program's results against oracles kept in the benchmark.

Every oracle works from the raw triple lists, never from
``KnowledgeGraph``'s indices or ``iterkg``'s join logic.  Ranking reuses
the program's candidate scores (the oracle is about the rank rule, not the
bilinear form, which tier-1 checks against dense matrices) and recomputes
ranks by sorting all candidates.  A failed check raises ``CheckFailed``.
"""

from __future__ import annotations

import json
import math
from collections import defaultdict

import numpy as np

from iterkg.axioms import AxiomType
from iterkg.evaluation import HIT_LEVELS, candidate_scores

ORACLE_SAMPLE = 12          # pooled axioms drawn at random per run
ORACLE_MAX_ASSIGNMENTS = 200_000  # time budget of one enumeration, in body assignments


class CheckFailed(AssertionError):
    pass


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# ranking
# ---------------------------------------------------------------------------


def sort_rank(scores: np.ndarray, true_id: int, removed: np.ndarray) -> int:
    """1 + position of ``true_id`` when candidates are sorted by score
    descending, then id ascending, after dropping ``removed`` ids."""
    ids = np.arange(len(scores))
    keep = np.ones(len(scores), dtype=bool)
    keep[removed] = False
    keep[true_id] = True
    order = np.lexsort((ids[keep], -scores[keep]))
    return int(np.flatnonzero(ids[keep][order] == true_id)[0]) + 1


def oracle_ranks(model, known, test) -> list[tuple[int, int, int, int]]:
    """(raw subject, raw object, filtered subject, filtered object) ranks."""
    subjects_of = defaultdict(list)
    objects_of = defaultdict(list)
    for s, r, o in known:
        subjects_of[(r, o)].append(s)
        objects_of[(s, r)].append(o)
    empty = np.zeros(0, dtype=np.int64)
    out = []
    for t in test:
        s, r, o = t
        sub = candidate_scores(model, t, "subject")
        obj = candidate_scores(model, t, "object")
        out.append((
            sort_rank(sub, s, empty),
            sort_rank(obj, o, empty),
            sort_rank(sub, s, np.asarray(subjects_of[(r, o)], dtype=np.int64)),
            sort_rank(obj, o, np.asarray(objects_of[(s, r)], dtype=np.int64)),
        ))
    return out


def check_report(report: dict, ranks, test, rank_one=frozenset()) -> None:
    """The report's MRR and Hit@n equal those of the oracle ranks."""
    sides = {"raw": [], "filter": []}
    for t, (rs, ro, fs, fo) in zip(test, ranks):
        if tuple(t) in rank_one:
            rs = ro = fs = fo = 1
        sides["raw"] += [rs, ro]
        sides["filter"] += [fs, fo]
    for mode, values in sides.items():
        v = np.asarray(values, dtype=float)
        require(math.isclose(report[f"mrr_{mode}"], float(np.mean(1.0 / v)), rel_tol=1e-12),
                f"mrr_{mode} {report[f'mrr_{mode}']} != oracle {np.mean(1.0 / v)}")
        for n in HIT_LEVELS:
            got = report[f"hits_{mode}"][str(n)]
            require(math.isclose(got, float(np.mean(v <= n)), rel_tol=1e-12),
                    f"hits_{mode}@{n} {got} != oracle {np.mean(v <= n)}")
    require(report["n_test"] == len(test), "report n_test differs from the ranked split")


# ---------------------------------------------------------------------------
# pool support and grounding
# ---------------------------------------------------------------------------


class TripleIndex:
    """Plain per-relation pair sets and adjacency built from a triple list."""

    def __init__(self, triples):
        self.triples = {tuple(t) for t in triples}
        self.pairs = defaultdict(set)
        self.out = defaultdict(lambda: defaultdict(list))
        self.into = defaultdict(lambda: defaultdict(list))
        for s, r, o in self.triples:
            self.pairs[r].add((s, o))
            self.out[r][s].append(o)
            self.into[r][o].append(s)

    def body_assignments(self, axiom) -> int:
        """Number of body assignments the enumeration walks."""
        t, rels = axiom.type, axiom.relations
        if t is AxiomType.TRANSITIVE:
            b1 = b2 = rels[0]
        elif t is AxiomType.SUB_PROPERTY_CHAIN:
            b1, b2 = rels[0], rels[1]
        else:
            return sum(len(self.pairs[r]) for r in rels)
        return sum(len(ins) * len(self.out[b2].get(y, ())) for y, ins in self.into[b1].items())

    def groundings(self, axiom):
        """Yield (head triple, support flag) for every body assignment,
        plus (x, r, x) candidates of a reflexive axiom."""
        t, rels = axiom.type, axiom.relations
        if t is AxiomType.REFLEXIVE:
            r = rels[0]
            for e in {e for pair in self.pairs[r] for e in pair}:
                yield (e, r, e)
        elif t is AxiomType.SYMMETRIC:
            r = rels[0]
            for x, y in self.pairs[r]:
                yield (y, r, x)
        elif t in (AxiomType.TRANSITIVE, AxiomType.SUB_PROPERTY_CHAIN):
            b1, b2, head = (rels[0],) * 3 if t is AxiomType.TRANSITIVE else rels
            for x, y in self.pairs[b1]:
                for z in self.out[b2].get(y, ()):
                    yield (x, head, z)
        elif t in (AxiomType.EQUIVALENT, AxiomType.SUB_PROPERTY):
            body, head = rels
            for x, y in self.pairs[body]:
                yield (x, head, y)
        elif t is AxiomType.INVERSE:
            head, body = rels
            for y, x in self.pairs[body]:
                yield (x, head, y)
        else:
            raise ValueError(t)

    def support_and_heads(self, axiom) -> tuple[int, int, int, set]:
        """(support, head size, groundings, distinct grounded heads)."""
        head_size = len(self.pairs[axiom.head_relation()])
        support, n_ground, heads = 0, 0, set()
        reflexive = axiom.type is AxiomType.REFLEXIVE
        for h in self.groundings(axiom):
            if h in self.triples:
                support += 0 if reflexive else 1
            else:
                n_ground += 1
                heads.add(h)
        if reflexive:
            support = sum(1 for (s, o) in self.pairs[axiom.relations[0]] if s == o)
        return support, head_size, n_ground, heads

    def head_coverage(self, axiom) -> float:
        covered = {(h[0], h[2]) for h in self.groundings(axiom) if h in self.triples}
        if axiom.type is AxiomType.REFLEXIVE:
            covered = {(s, o) for (s, o) in self.pairs[axiom.relations[0]] if s == o}
        return len(covered) / len(self.pairs[axiom.head_relation()])


def sample_axioms(index: TripleIndex, pool, seed: int) -> tuple[list, int]:
    """Pooled axioms to enumerate, and how many were left out as over budget.

    A seeded draw from the axioms whose body join fits the budget, plus
    the largest one that fits (hub joins dominate grounding time) and the
    smallest one over it, if any.
    """
    size = [index.body_assignments(pa.axiom) for pa in pool]
    fits = [i for i in range(len(pool)) if size[i] <= ORACLE_MAX_ASSIGNMENTS]
    over = [i for i in range(len(pool)) if size[i] > ORACLE_MAX_ASSIGNMENTS]
    rng = np.random.default_rng(seed)
    pick = set(rng.choice(fits, size=min(ORACLE_SAMPLE, len(fits)), replace=False).tolist())
    if fits:
        pick.add(max(fits, key=size.__getitem__))
    if over:
        pick.add(min(over, key=size.__getitem__))
    return [pool[i] for i in sorted(pick)], len(over) - (1 if over else 0)


def check_pool(index: TripleIndex, kg, pool, seed: int, hc_of=None) -> tuple[int, int]:
    """Supports, head sizes, grounded heads (and head coverage when the
    program reported it) of sampled pooled axioms equal the enumeration.
    Returns (axioms checked, axioms left out as over budget)."""
    from iterkg.injection import ground_axiom

    sample, excluded = sample_axioms(index, pool, seed)
    require(len(sample) > 0, "no pooled axiom to check")
    for pa in sample:
        support, head_size, n_ground, heads = index.support_and_heads(pa.axiom)
        require((pa.support, pa.head_size) == (support, head_size),
                f"{pa.axiom}: support/head {pa.support}/{pa.head_size} != {support}/{head_size}")
        got = ground_axiom(kg, pa.axiom)
        require(len(got) == n_ground and {tuple(g.head) for g in got} == heads,
                f"{pa.axiom}: groundings differ from the enumeration")
        if hc_of is not None:
            require(math.isclose(hc_of[pa.axiom], index.head_coverage(pa.axiom), rel_tol=1e-12),
                    f"{pa.axiom}: head coverage differs from the enumeration")
    return len(sample), excluded


# ---------------------------------------------------------------------------
# injection and records
# ---------------------------------------------------------------------------


def sparse_set(train, n_entities: int, threshold: float) -> set:
    freq = np.zeros(n_entities, dtype=np.int64)
    for s, _, o in train:
        freq[s] += 1
        freq[o] += 1
    lo, hi = freq.min(), freq.max()
    if hi == lo:
        return set()
    return set(np.flatnonzero(1.0 - (freq - lo) / float(hi - lo) > threshold).tolist())


def check_injected(injected, scored, train_set: set, sparse: set) -> None:
    score = {sa.axiom: sa.score for sa in scored}
    for it in injected:
        t = tuple(it.triple)
        require(t not in train_set, f"injected {t} is a train triple")
        require(t[0] in sparse or t[2] in sparse, f"injected {t} touches no sparse entity")
        best = max(score[ax] for ax in it.sources)
        require(math.isclose(it.truth, best, rel_tol=0.0, abs_tol=1e-12),
                f"injected {t} truth {it.truth} != best source score {best}")


def check_injected_dumps(paths, names_train: set, sparse_names: set) -> None:
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                s, r, o, truth, _ = line.rstrip("\n").split("\t")
                require((s, r, o) not in names_train, f"{path}: {s} {r} {o} is a train triple")
                require(s in sparse_names or o in sparse_names, f"{path}: {s} {r} {o} touches no sparse entity")
                require(0.0 <= float(truth) <= 1.0, f"{path}: truth {truth} outside [0, 1]")


def check_records(path: str, iterations: int) -> list[float]:
    with open(path, encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh]
    require([r["iteration"] for r in records] == list(range(1, iterations + 1)),
            f"{path}: expected one record per round 1..{iterations}")
    losses = [r["mean_loss"] for r in records]
    require(all(math.isfinite(x) for x in losses), f"{path}: non-finite loss")
    return losses

"""Link-prediction ranking, MRR/Hit@n reports, and rule-quality metrics.

For every test triple both entity positions are predicted: each candidate
substitution is scored, and the true entity's rank counts strictly better
candidates plus equal-scored candidates with a smaller id.  Ties are thus
broken by entity id, not pessimistically: the rank is the true entity's
position after sorting the candidates by (-score, id).  The filtered
setting removes candidates that form triples known true in
train/valid/test, never the test triple itself.
The headline MRR averages reciprocal ranks over all 2*|test| side
observations; the reciprocal of the per-triple averaged rank is also
reported since both conventions appear in practice.

Head coverage (AMIE+'s measure) is the fraction of head-relation triples
that some support of the rule extends; ``head_coverages`` reads it for a
whole pool from one ``axioms.join_rules`` call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import kernels
from .axioms import Axiom, ScoredAxiom, axiom_table, join_rules
from .embedding import EmbeddingModel
from .injection import InferredTriple
from .kg import KnowledgeGraph, Triple

HIT_LEVELS = (1, 3, 10)


@dataclass(frozen=True)
class RankResult:
    triple: Triple
    subject_rank: int
    object_rank: int

    @property
    def mean_rank(self) -> float:
        return (self.subject_rank + self.object_rank) / 2.0


@dataclass
class MetricsReport:
    mrr_raw: float
    mrr_filter: float
    hits_raw: dict[int, float]
    hits_filter: dict[int, float]
    mrr_mean_rank_raw: float    # reciprocal of per-triple averaged rank
    mrr_mean_rank_filter: float
    buckets: list[dict]         # per train-frequency bucket, filtered side ranks
    n_test: int

    def to_dict(self) -> dict:
        return {
            "mrr_raw": self.mrr_raw,
            "mrr_filter": self.mrr_filter,
            "hits_raw": {str(k): v for k, v in self.hits_raw.items()},
            "hits_filter": {str(k): v for k, v in self.hits_filter.items()},
            "mrr_mean_rank_raw": self.mrr_mean_rank_raw,
            "mrr_mean_rank_filter": self.mrr_mean_rank_filter,
            "buckets": self.buckets,
            "n_test": self.n_test,
        }


def candidate_scores(model: EmbeddingModel, t: Triple, side: str) -> np.ndarray:
    """Pre-sigmoid scores of substituting every entity on one side of ``t``.

    score(e, r, o) = v_e . (M_r v_o) and score(s, r, e) = v_e . (M_r^T v_s),
    so each side reduces to one matrix-vector product over the entity table.
    """
    if side == "subject":
        v, transpose = model.ent[t.object], False
    elif side == "object":
        v, transpose = model.ent[t.subject], True
    else:
        raise ValueError(f"side must be 'subject' or 'object', got {side!r}")
    rot = model.rel_rot[t.relation]
    w = kernels.relation_matvec(model.rel_scalars[t.relation], rot[:, 0], rot[:, 1], v, transpose)
    return model.ent @ w


def rank_entity_side(
    model: EmbeddingModel,
    known: set[Triple],
    t: Triple,
    side: str,
    mode: str = "filter",
) -> int:
    """Rank of the true entity among all candidate substitutions.

    rank = 1 + #(strictly better candidates) + #(equal-scored candidates
    with a smaller id).  In filter mode candidates forming a known-true
    triple are removed first; the test triple itself always competes.
    """
    if mode not in ("raw", "filter"):
        raise ValueError(f"mode must be 'raw' or 'filter', got {mode!r}")
    scores = candidate_scores(model, t, side)
    true_id = t.subject if side == "subject" else t.object
    true_score = scores[true_id]

    # Only candidates scoring at least the true score can affect the rank.
    rank = 1
    for e in np.flatnonzero(scores >= true_score):
        e = int(e)
        if e == true_id or (scores[e] == true_score and e > true_id):
            continue
        if mode == "filter":
            cand = Triple(e, t.relation, t.object) if side == "subject" else Triple(t.subject, t.relation, e)
            if cand in known:
                continue
        rank += 1
    return rank


def _freq_bucket(freq: int) -> tuple[int, int]:
    """Power-of-two bucket [lo, hi) of a train frequency; 0 maps to [0, 1)."""
    if freq <= 0:
        return (0, 1)
    lo = 1 << (freq.bit_length() - 1)
    return (lo, 2 * lo)


def _aggregate(
    results: list[RankResult],
    filt: list[RankResult],
    train_freq: np.ndarray | None,
) -> MetricsReport:
    raw_sides = np.array([r for rr in results for r in (rr.subject_rank, rr.object_rank)], dtype=float)
    fil_sides = np.array([r for rr in filt for r in (rr.subject_rank, rr.object_rank)], dtype=float)

    buckets: dict[tuple[int, int], list[float]] = {}
    if train_freq is not None:
        for rr in filt:
            for ent, rank in ((rr.triple.subject, rr.subject_rank), (rr.triple.object, rr.object_rank)):
                buckets.setdefault(_freq_bucket(int(train_freq[ent])), []).append(1.0 / rank)
    bucket_rows = [
        {"freq_lo": lo, "freq_hi": hi, "mrr": float(np.mean(vals)), "count": len(vals)}
        for (lo, hi), vals in sorted(buckets.items())
    ]

    return MetricsReport(
        mrr_raw=float(np.mean(1.0 / raw_sides)),
        mrr_filter=float(np.mean(1.0 / fil_sides)),
        hits_raw={n: float(np.mean(raw_sides <= n)) for n in HIT_LEVELS},
        hits_filter={n: float(np.mean(fil_sides <= n)) for n in HIT_LEVELS},
        mrr_mean_rank_raw=float(np.mean([1.0 / rr.mean_rank for rr in results])),
        mrr_mean_rank_filter=float(np.mean([1.0 / rr.mean_rank for rr in filt])),
        buckets=bucket_rows,
        n_test=len(results),
    )


def link_prediction(
    model: EmbeddingModel,
    known: set[Triple],
    test: Sequence[Triple],
    train_freq: np.ndarray | None = None,
    rank_one: set[Triple] | None = None,
) -> MetricsReport:
    """Rank every test triple on both sides and aggregate MRR / Hit@n.

    ``known`` is the union of train, valid and test triples used by the
    filtered setting.  Triples in ``rank_one`` (axiom-inferred) are credited
    rank 1 on both sides in both settings.
    """
    if len(test) == 0:
        raise ValueError("empty test split")
    raw_results, filter_results = [], []
    for t in test:
        if rank_one is not None and t in rank_one:
            raw_results.append(RankResult(t, 1, 1))
            filter_results.append(RankResult(t, 1, 1))
            continue
        raw_results.append(RankResult(
            t,
            rank_entity_side(model, known, t, "subject", "raw"),
            rank_entity_side(model, known, t, "object", "raw"),
        ))
        filter_results.append(RankResult(
            t,
            rank_entity_side(model, known, t, "subject", "filter"),
            rank_entity_side(model, known, t, "object", "filter"),
        ))
    return _aggregate(raw_results, filter_results, train_freq)


def link_prediction_with_axioms(
    model: EmbeddingModel,
    known: set[Triple],
    test: Sequence[Triple],
    injected: Iterable[InferredTriple | Triple],
    train_freq: np.ndarray | None = None,
) -> MetricsReport:
    """Hybrid prediction: axiom-inferred test triples rank 1, rest by embedding."""
    rank_one = {it.triple if isinstance(it, InferredTriple) else Triple(*it) for it in injected}
    return link_prediction(model, known, test, train_freq, rank_one=rank_one)


# ---------------------------------------------------------------------------
# rule quality
# ---------------------------------------------------------------------------


def head_coverages(kg: KnowledgeGraph, axioms: Sequence[Axiom]) -> list[float]:
    """Fraction of head-relation pairs that participate in some support,
    per axiom, from one batched join."""
    head_rel = np.array([ax.head_relation() for ax in axioms], dtype=np.int64)
    n_head = kg.relation_sizes(head_rel)
    if not n_head.all():
        raise ValueError(f"head coverage undefined: relation {head_rel[np.argmin(n_head)]} has no triples")
    covered = join_rules(kg, axiom_table(axioms)).covered
    return [c / n for c, n in zip(covered.tolist(), n_head.tolist())]


def head_coverage(kg: KnowledgeGraph, axiom: Axiom) -> float:
    """Fraction of head-relation pairs that participate in some support."""
    return head_coverages(kg, [axiom])[0]


def summarize_rules(
    hc_values: Sequence[float],
    scored: Sequence[ScoredAxiom],
    hc_threshold: float = 0.7,
    score_grid: Sequence[float] = tuple(np.round(np.arange(0.0, 1.01, 0.1), 2)),
) -> dict:
    """High-quality rule counts and score-threshold selection curves.

    ``hc_values[i]`` is the head coverage of ``scored[i]``.  A rule is high
    quality when its head coverage exceeds ``hc_threshold``.  For each grid
    threshold the summary reports the fraction of the pool selected (score
    strictly above) and the fraction of all high-quality rules that the
    selection contains.
    """
    if len(hc_values) != len(scored):
        raise ValueError(f"{len(hc_values)} head-coverage values for {len(scored)} axioms")
    hcs = list(hc_values)
    hq = [hc > hc_threshold for hc in hcs]
    n_hq = sum(hq)
    curve = []
    for theta in score_grid:
        sel = [sa.score > theta for sa in scored]
        n_sel = sum(sel)
        hq_cov = sum(1 for s, h in zip(sel, hq) if s and h) / n_hq if n_hq else 0.0
        curve.append({
            "threshold": float(theta),
            "selected_fraction": n_sel / len(scored) if scored else 0.0,
            "hq_coverage": hq_cov,
        })
    return {
        "pool_size": len(scored),
        "hc_threshold": hc_threshold,
        "high_quality_count": n_hq,
        "head_coverage": hcs,
        "curve": curve,
    }

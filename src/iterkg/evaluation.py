"""Link-prediction ranking, MRR/Hit@n reports, and rule-quality metrics.

For every test triple both entity positions are predicted.  ``rank_side``
scores ``BLOCK`` test triples at a time against every candidate entity as
one (block, n_entities) product, the relation applied to the fixed entity's
vector by ``kernels.relation_matvec``.  The raw rank counts strictly better
candidates plus equal-scored candidates with a smaller id: ties are broken
by entity id, not pessimistically, so the rank is the true entity's position
after sorting the candidates by (-score, id).  The filtered rank drops those
of them that form triples known true in train/valid/test, never the test
triple itself; they are a run of the sorted, distinct packed keys of the
known triples, found by ``np.searchsorted``.
The headline MRR averages reciprocal ranks over all 2*|test| side
observations; the reciprocal of the per-triple averaged rank is also
reported since both conventions appear in practice.

``link_prediction`` ranks each test triple once; its report keeps the ranks,
and ``MetricsReport.credit`` aggregates them again with both sides of each
axiom-inferred test triple set to 1, ranking nothing.

Head coverage (AMIE+'s measure) is the fraction of head-relation triples
that some support of the rule extends.  A pool carries it from the join
that built it (``axioms.Pool.head_coverage``); ``head_coverage`` reads it
for one axiom from one ``axioms.join_rules`` call.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, fields
from typing import Iterable, Sequence

import numpy as np

from . import kernels
from .axioms import Axiom, axiom_table, join_rules
from .embedding import EmbeddingModel, all_finite
from .kg import KnowledgeGraph, Triple, expand_ranges, sorted_distinct

log = logging.getLogger(__name__)

HIT_LEVELS = (1, 3, 10)
HC_THRESHOLD = 0.7  # a rule whose head coverage exceeds it is high quality
SCORE_GRID = tuple(np.round(np.arange(0.0, 1.01, 0.1), 2))  # 0.0, 0.1, ..., 1.0

# test triples per score matrix: 30 MB of float64 at 14,541 entities
BLOCK = 256


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
    # left out of to_dict: (n, 2) raw and filtered (subject, object) ranks, the
    # (n, 3) test rows and, if bucketed, the train frequencies of their entities
    raw: np.ndarray = field(repr=False, compare=False)
    filtered: np.ndarray = field(repr=False, compare=False)
    rows: np.ndarray = field(repr=False, compare=False)
    freq: np.ndarray | None = field(repr=False, compare=False)

    @classmethod
    def of(cls, raw: np.ndarray, filtered: np.ndarray, rows: np.ndarray,
           freq: np.ndarray | None) -> MetricsReport:
        """The report of (n, 2) side ranks; each mean sums in (triple, side) order, or triple order."""
        raw_sides, fil_sides = raw.ravel().astype(float), filtered.ravel().astype(float)
        buckets = []
        if freq is not None:
            # the bucket [lo, 2*lo) of a frequency f > 0 has lo = 2**(bit length of f - 1)
            floors = np.where(freq > 0, 1 << np.maximum(np.frexp(freq)[1] - 1, 0), 0).ravel()
            for lo in np.unique(floors).tolist():
                vals = 1.0 / fil_sides[floors == lo]
                buckets.append({"freq_lo": lo, "freq_hi": max(2 * lo, 1), "mrr": float(np.mean(vals)),
                                "count": len(vals)})
        return cls(
            mrr_raw=float(np.mean(1.0 / raw_sides)),
            mrr_filter=float(np.mean(1.0 / fil_sides)),
            hits_raw={n: float(np.mean(raw_sides <= n)) for n in HIT_LEVELS},
            hits_filter={n: float(np.mean(fil_sides <= n)) for n in HIT_LEVELS},
            mrr_mean_rank_raw=float(np.mean(1.0 / (raw.sum(axis=1) / 2.0))),
            mrr_mean_rank_filter=float(np.mean(1.0 / (filtered.sum(axis=1) / 2.0))),
            buckets=buckets,
            n_test=len(rows), raw=raw, filtered=filtered, rows=rows, freq=freq,
        )

    def credit(self, rows: Iterable[Triple] | np.ndarray) -> MetricsReport:
        """The report of the same ranks with both sides of every test triple
        listed in ``rows`` (axiom-inferred) set to rank 1 in both settings."""
        rows = np.asarray(rows if isinstance(rows, np.ndarray) else list(rows), np.int64).reshape(-1, 3)
        dims = np.maximum(self.rows.max(axis=0), rows.max(axis=0, initial=0)) + 1  # negative ids raise
        hit = np.isin(np.ravel_multi_index(self.rows.T, dims), np.ravel_multi_index(rows.T, dims))
        raw, filtered = self.raw.copy(), self.filtered.copy()
        raw[hit] = filtered[hit] = 1
        return MetricsReport.of(raw, filtered, self.rows, self.freq)

    def to_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self) if f.compare}
        for key in ("hits_raw", "hits_filter"):
            out[key] = {str(k): v for k, v in out[key].items()}
        return out


def candidate_scores(model: EmbeddingModel, t: Triple, side: str) -> np.ndarray:
    """Pre-sigmoid scores of substituting every entity on one side of ``t``.

    score(e, r, o) = v_e . (M_r v_o) and score(s, r, e) = v_e . (M_r^T v_s),
    so each side reduces to one matrix-vector product over the entity table.
    """
    w = kernels.relation_matvec(*kernels.relation_parts(model.rel[t.relation], model.n_scalars),
                                model.ent[t[_columns(side)[0]]], side == "object")
    return model.ent @ w


def _columns(side: str) -> tuple[int, int]:
    """(column of the entity kept fixed, column of the ranked entity)."""
    if side not in ("subject", "object"):
        raise ValueError(f"side must be 'subject' or 'object', got {side!r}")
    return (2, 0) if side == "subject" else (0, 2)


def _rows(model: EmbeddingModel, triples) -> np.ndarray:
    """(s, r, o) rows, a collection or an (n, 3) array, as an (n, 3) int64
    array; ids outside the model, or keys that overflow int64, raise."""
    rows = np.asarray(triples if isinstance(triples, np.ndarray) else list(triples), dtype=np.int64)
    rows, n_ent, n_rel = rows.reshape(-1, 3), model.n_entities, model.n_relations
    if n_ent ** 2 * n_rel > np.iinfo(np.int64).max or ((rows < 0) | (rows >= (n_ent, n_rel, n_ent))).any():
        raise ValueError(f"triple ids outside the model's {n_ent} entities and {n_rel} relations, "
                         "or a key space beyond int64")
    return rows


def _side_keys(rows: np.ndarray, side: str, n_ent: int) -> np.ndarray:
    """Keys (r*n_ent + kept)*n_ent + ranked: one side's candidate
    substitutions of a triple are the key run [base, base + n_ent)."""
    kept, ranked = _columns(side)
    return (rows[:, 1] * n_ent + rows[:, kept]) * n_ent + rows[:, ranked]


def rank_side(model: EmbeddingModel, known: np.ndarray, test: np.ndarray,
              side: str) -> tuple[np.ndarray, np.ndarray]:
    """Raw and filtered ranks of the true entity on one side of each row of
    ``test``, from one score matrix per ``BLOCK`` rows.

    ``known`` and ``test`` are (n, 3) id arrays; ``known`` may repeat rows.
    The filtered rank is the raw rank minus the known candidates scored
    ahead of the true entity, which is never ahead of itself.  A model with
    a non-finite parameter raises ``ValueError``: NaN compares neither
    higher nor equal, so every true entity would rank first.
    """
    if not (all_finite(model.ent) and all_finite(model.rel)):
        raise ValueError("model has a non-finite parameter; refusing to rank it")
    kept, ranked = _columns(side)
    n_ent = model.n_entities
    keys = sorted_distinct(_side_keys(known, side, n_ent))
    raw, filtered = np.empty(len(test), dtype=np.int64), np.empty(len(test), dtype=np.int64)
    for lo in range(0, len(test), BLOCK):
        block = test[lo : lo + BLOCK]
        r, true = block[:, 1], block[:, ranked]
        w = kernels.relation_matvec(*kernels.relation_parts(model.rel[r], model.n_scalars),
                                    model.ent[block[:, kept]], side == "object")
        scores = w @ model.ent.T
        true_score = scores[np.arange(len(block)), true]
        # a candidate is ahead when it scores higher, or the same with a smaller id
        tie_row, tie_id = np.divmod(np.flatnonzero(scores == true_score[:, None]), n_ent)
        ties = np.bincount(tie_row[tie_id < true[tie_row]], minlength=len(block))
        raw[lo : lo + BLOCK] = 1 + (scores > true_score[:, None]).sum(axis=1, dtype=np.int32) + ties
        base = _side_keys(block, side, n_ent) - true
        owner, pos = expand_ranges(np.searchsorted(keys, base), np.searchsorted(keys, base + n_ent))
        known_id = keys[pos] - base[owner]
        known_score, score = scores[owner, known_id], true_score[owner]
        dropped = owner[(known_score > score) | ((known_score == score) & (known_id < true[owner]))]
        filtered[lo : lo + BLOCK] = raw[lo : lo + BLOCK] - np.bincount(dropped, minlength=len(block))
    return raw, filtered


def rank_entity_side(model: EmbeddingModel, known: Iterable[Triple] | np.ndarray, t: Triple,
                     side: str, mode: str = "filter") -> int:
    """``rank_side`` of the one triple ``t``: its raw or filtered rank."""
    if mode not in ("raw", "filter"):
        raise ValueError(f"mode must be 'raw' or 'filter', got {mode!r}")
    raw, filtered = rank_side(model, _rows(model, known), _rows(model, [t]), side)
    return int((raw if mode == "raw" else filtered)[0])


def link_prediction(model: EmbeddingModel, known: Iterable[Triple] | np.ndarray,
                    test: Sequence[Triple] | np.ndarray, train_freq: np.ndarray | None = None) -> MetricsReport:
    """Rank every test triple on both sides once and aggregate MRR / Hit@n.

    ``known`` holds the train, valid and test triples the filtered setting
    removes, repeats allowed.  ``MetricsReport.credit`` turns the report
    into the axiom-assisted one without ranking again.
    """
    if len(test) == 0:
        raise ValueError("empty test split")
    test, known = _rows(model, test), _rows(model, known)
    raw, filt = np.stack([rank_side(model, known, test, side) for side in ("subject", "object")], axis=-1)
    log.debug("ranked %d test triples on both sides in %d blocks; filtered out %d known candidates",
              len(test), 2 * -(-len(test) // BLOCK), (raw - filt).sum())
    freq = None if train_freq is None else np.asarray(train_freq)[test[:, [0, 2]]]
    return MetricsReport.of(raw, filt, test, freq)


# ---------------------------------------------------------------------------
# rule quality
# ---------------------------------------------------------------------------


def head_coverage(kg: KnowledgeGraph, axiom: Axiom) -> float:
    """Fraction of head-relation pairs that participate in some support,
    from one ``axioms.join_rules`` call."""
    n_head = kg.relation_size(axiom.head_relation())
    if not n_head:
        raise ValueError(f"head coverage undefined: relation {axiom.head_relation()} has no triples")
    return int(join_rules(kg, axiom_table([axiom])).covered[0]) / n_head


def summarize_rules(hc_values: Sequence[float] | np.ndarray, scores: Sequence[float] | np.ndarray) -> dict:
    """High-quality rule counts and score-threshold selection curves.

    ``hc_values[i]`` is the head coverage and ``scores[i]`` the score of
    pooled axiom i.  A rule is high quality when its head coverage exceeds
    ``HC_THRESHOLD``.  For each ``SCORE_GRID`` threshold the summary reports
    the fraction of the pool selected (score strictly above) and the fraction
    of all high-quality rules that the selection contains.
    """
    if len(hc_values) != len(scores):
        raise ValueError(f"{len(hc_values)} head-coverage values for {len(scores)} axioms")
    hcs, scores = np.asarray(hc_values, dtype=np.float64), np.asarray(scores, dtype=np.float64)
    hq = hcs > HC_THRESHOLD
    n_hq = int(hq.sum())
    curve = []
    for theta in SCORE_GRID:
        sel = scores > theta
        curve.append({
            "threshold": float(theta),
            "selected_fraction": int(sel.sum()) / len(scores) if len(scores) else 0.0,
            "hq_coverage": int((sel & hq).sum()) / n_hq if n_hq else 0.0,
        })
    return {
        "pool_size": len(scores),
        "hc_threshold": HC_THRESHOLD,
        "high_quality_count": n_hq,
        "head_coverage": hcs.tolist(),
        "curve": curve,
    }

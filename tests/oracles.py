"""Independent brute-force oracles the tests check the library against.

Everything here works from first principles on dense matrices or by
exhaustive enumeration over entity tuples, deliberately avoiding the
library's indices, blockwise shortcuts, and join logic.
"""

import numpy as np

from iterkg.axioms import RULES, AxiomType
from iterkg.injection import InferredTriple, solve_head_truth
from iterkg.kg import Triple


def dense_block_matrix(scalars, rotations):
    """Dense d x d matrix built straight from the definition."""
    scalars = np.asarray(scalars, dtype=float)
    rotations = np.asarray(rotations, dtype=float).reshape(-1, 2)
    ns, nb = len(scalars), len(rotations)
    d = ns + 2 * nb
    out = np.zeros((d, d))
    for i, s in enumerate(scalars):
        out[i, i] = s
    for j, (a, b) in enumerate(rotations):
        i = ns + 2 * j
        out[i, i] = a
        out[i, i + 1] = -b
        out[i + 1, i] = b
        out[i + 1, i + 1] = a
    return out


def sigmoid_two_branch(x):
    """The logistic function as two masked branches: ``1 / (1 + exp(-x))``
    where x >= 0, ``exp(x) / (1 + exp(x))`` elsewhere."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def bilinear_scores_loops(vs, vo, msc, ma, mb):
    """vs[i]^T M_r[i] vo[i] one example and one coordinate at a time:
    the scalar slots' (vs * m) * vo summed in order, plus the block
    coordinates' vs * (M vo) summed in order."""
    B, ns, nb = len(vs), msc.shape[1], ma.shape[1]
    out = np.zeros(B)
    for i in range(B):
        scalar = 0.0
        for j in range(ns):
            scalar += vs[i, j] * msc[i, j] * vo[i, j]
        block = 0.0
        for k in range(nb):
            x, y = ns + 2 * k, ns + 2 * k + 1
            a, b = ma[i, k], mb[i, k]
            block += vs[i, x] * (a * vo[i, x] - b * vo[i, y])
            block += vs[i, y] * (a * vo[i, y] + b * vo[i, x])
        out[i] = scalar + block
    return out


def relation_matvec_loops(msc, ma, mb, v, transpose=False):
    """M_r[i] v[i] (or M_r[i]^T v[i]) one example and one coordinate at a
    time, each 2x2 block written out as [[a, -b], [b, a]]."""
    B, ns, nb = len(v), msc.shape[1], ma.shape[1]
    out = np.zeros(v.shape)
    for i in range(B):
        for j in range(ns):
            out[i, j] = msc[i, j] * v[i, j]
        for k in range(nb):
            x, y = ns + 2 * k, ns + 2 * k + 1
            a, b = ma[i, k], mb[i, k]
            if transpose:
                out[i, x] = a * v[i, x] + b * v[i, y]
                out[i, y] = a * v[i, y] - b * v[i, x]
            else:
                out[i, x] = a * v[i, x] - b * v[i, y]
                out[i, y] = a * v[i, y] + b * v[i, x]
    return out


def accumulate_grads_loops(vs, vo, msc, ma, mb, rho, es, eo, rr, n_ent, n_rel):
    """Gradient scatter one example and one coordinate at a time.

    The result of ``iterkg.kernels.accumulate_grads``, ``(grad_ent,
    grad_rel)``, with the relation blocks given per example: ``ma`` and
    ``mb`` are (B, n_blocks), the kernel's tables indexed by its relation
    ids.  Each term is the model's factors times rho, added in example
    order, and the entity gradient is the subject part plus the object
    part: the kernels' additions and multiplications, so they match bit
    for bit.
    """
    B, d = vs.shape
    ns, nb = msc.shape[1], ma.shape[1]
    grad_subj = np.zeros((n_ent, d))
    grad_obj = np.zeros((n_ent, d))
    grad_sc = np.zeros((n_rel, ns))
    grad_rot = np.zeros((n_rel, nb, 2))
    for i in range(B):
        e_s, e_r, g = es[i], rr[i], rho[i]
        for j in range(ns):
            grad_subj[e_s, j] += msc[i, j] * vo[i, j] * g
            grad_sc[e_r, j] += vs[i, j] * vo[i, j] * g
        for k in range(nb):
            x = ns + 2 * k
            y = x + 1
            a, b = ma[i, k], mb[i, k]
            sx, sy, ox, oy = vs[i, x], vs[i, y], vo[i, x], vo[i, y]
            grad_subj[e_s, x] += (a * ox - b * oy) * g
            grad_subj[e_s, y] += (a * oy + b * ox) * g
            grad_rot[e_r, k, 0] += (sx * ox + sy * oy) * g
            grad_rot[e_r, k, 1] += (sy * ox - sx * oy) * g
    for i in range(B):
        e_o, g = eo[i], rho[i]
        for j in range(ns):
            grad_obj[e_o, j] += msc[i, j] * vs[i, j] * g
        for k in range(nb):
            x = ns + 2 * k
            y = x + 1
            a, b = ma[i, k], mb[i, k]
            sx, sy = vs[i, x], vs[i, y]
            grad_obj[e_o, x] += (a * sx + b * sy) * g
            grad_obj[e_o, y] += (a * sy - b * sx) * g
    return grad_subj + grad_obj, np.concatenate([grad_sc, grad_rot.reshape(n_rel, -1)], axis=1)


def enumerate_supports(triples, axiom, n_entities):
    """Count supports by looping over every variable assignment."""
    tset = set(map(tuple, triples))
    t = axiom.type
    rels = axiom.relations
    ents = range(n_entities)
    n = 0
    if t is AxiomType.REFLEXIVE:
        r = rels[0]
        n = sum(1 for x in ents if (x, r, x) in tset)
    elif t is AxiomType.SYMMETRIC:
        r = rels[0]
        n = sum(1 for x in ents for y in ents if (x, r, y) in tset and (y, r, x) in tset)
    elif t is AxiomType.TRANSITIVE:
        r = rels[0]
        n = sum(
            1
            for x in ents for y in ents for z in ents
            if (x, r, y) in tset and (y, r, z) in tset and (x, r, z) in tset
        )
    elif t in (AxiomType.EQUIVALENT, AxiomType.SUB_PROPERTY):
        r1, r2 = rels
        n = sum(1 for x in ents for y in ents if (x, r1, y) in tset and (x, r2, y) in tset)
    elif t is AxiomType.INVERSE:
        r1, r2 = rels
        n = sum(1 for x in ents for y in ents if (y, r2, x) in tset and (x, r1, y) in tset)
    elif t is AxiomType.SUB_PROPERTY_CHAIN:
        r1, r2, r = rels
        n = sum(
            1
            for y0 in ents for y1 in ents for y2 in ents
            if (y0, r1, y1) in tset and (y1, r2, y2) in tset and (y0, r, y2) in tset
        )
    else:
        raise ValueError(t)
    head_rel = axiom.head_relation()
    head_n = sum(1 for tr in tset if tr[1] == head_rel)
    return n, head_n


def enumerate_groundings(triples, axiom, n_entities):
    """All (head, body) instantiations with the body present and head absent."""
    tset = set(map(tuple, triples))
    t = axiom.type
    rels = axiom.relations
    ents = range(n_entities)
    out = set()
    if t is AxiomType.REFLEXIVE:
        r = rels[0]
        occurs = {e for (s, rr, o) in tset if rr == r for e in (s, o)}
        for x in occurs:
            if (x, r, x) not in tset:
                out.add(((x, r, x), ()))
    elif t is AxiomType.SYMMETRIC:
        r = rels[0]
        for x in ents:
            for y in ents:
                if (x, r, y) in tset and (y, r, x) not in tset:
                    out.add(((y, r, x), ((x, r, y),)))
    elif t is AxiomType.TRANSITIVE:
        r = rels[0]
        for x in ents:
            for y in ents:
                for z in ents:
                    if (x, r, y) in tset and (y, r, z) in tset and (x, r, z) not in tset:
                        out.add(((x, r, z), ((x, r, y), (y, r, z))))
    elif t in (AxiomType.EQUIVALENT, AxiomType.SUB_PROPERTY):
        r1, r2 = rels
        for x in ents:
            for y in ents:
                if (x, r1, y) in tset and (x, r2, y) not in tset:
                    out.add(((x, r2, y), ((x, r1, y),)))
    elif t is AxiomType.INVERSE:
        r1, r2 = rels
        for x in ents:
            for y in ents:
                if (y, r2, x) in tset and (x, r1, y) not in tset:
                    out.add(((x, r1, y), ((y, r2, x),)))
    elif t is AxiomType.SUB_PROPERTY_CHAIN:
        r1, r2, r = rels
        for y0 in ents:
            for y1 in ents:
                for y2 in ents:
                    if (y0, r1, y1) in tset and (y1, r2, y2) in tset and (y0, r, y2) not in tset:
                        out.add(((y0, r, y2), ((y0, r1, y1), (y1, r2, y2))))
    else:
        raise ValueError(t)
    return out


def enumerate_head_coverage(triples, axiom, n_entities):
    """HC = covered head pairs / head pairs, by exhaustive assignment."""
    tset = set(map(tuple, triples))
    head_rel = axiom.head_relation()
    head_pairs = {(s, o) for (s, r, o) in tset if r == head_rel}
    if not head_pairs:
        raise ValueError("no head triples")
    t = axiom.type
    rels = axiom.relations
    ents = range(n_entities)
    covered = set()
    if t is AxiomType.REFLEXIVE:
        covered = {(x, y) for (x, y) in head_pairs if x == y}
    elif t is AxiomType.SYMMETRIC:
        r = rels[0]
        covered = {(x, y) for (x, y) in head_pairs if (y, r, x) in tset}
    elif t is AxiomType.TRANSITIVE:
        r = rels[0]
        covered = {
            (x, z) for (x, z) in head_pairs
            if any((x, r, y) in tset and (y, r, z) in tset for y in ents)
        }
    elif t in (AxiomType.EQUIVALENT, AxiomType.SUB_PROPERTY):
        r1 = rels[0]
        covered = {(x, y) for (x, y) in head_pairs if (x, r1, y) in tset}
    elif t is AxiomType.INVERSE:
        r2 = rels[1]
        covered = {(x, y) for (x, y) in head_pairs if (y, r2, x) in tset}
    elif t is AxiomType.SUB_PROPERTY_CHAIN:
        r1, r2, _ = rels
        covered = {
            (y0, y2) for (y0, y2) in head_pairs
            if any((y0, r1, y1) in tset and (y1, r2, y2) in tset for y1 in ents)
        }
    else:
        raise ValueError(t)
    return len(covered) / len(head_pairs)


def graph_arrays(triples, n_entities, n_relations):
    """A ``KnowledgeGraph``'s arrays from ``np.unique`` over its
    (relation, subject, object) rows: ``ids`` (each distinct triple's first
    occurrence, in input order), ``rel_s``, ``rel_o``, ``rel_start`` (the
    first row of each relation and the row count) and ``_keys``, the packed
    key ``(r*n_ent + s)*n_ent + o`` of each distinct row, from Python ints."""
    rows = np.asarray(triples, dtype=np.int64).reshape(-1, 3)
    distinct, first = np.unique(rows[:, [1, 0, 2]], axis=0, return_index=True)
    keys = [(r * n_entities + s) * n_entities + o for r, s, o in distinct.tolist()]
    return {"ids": rows[np.sort(first)], "rel_s": distinct[:, 1], "rel_o": distinct[:, 2],
            "rel_start": np.array([np.count_nonzero(distinct[:, 0] < r) for r in range(n_relations + 1)]),
            "_keys": np.array(keys, dtype=np.int64)}


def entity_mask(n_entities, ids):
    """The boolean mask over ``n_entities`` entity ids that marks ``ids``:
    a sparse-entity set as ``kg.sparse_entities`` returns it."""
    mask = np.zeros(n_entities, dtype=bool)
    mask[list(ids)] = True
    return mask


def inject_by_enumeration(triples, scored, sparse, threshold, cap, n_entities, restrict_sparse=True):
    """Injection one axiom at a time from ``enumerate_groundings``: skip an
    axiom above ``cap`` distinct heads, keep heads touching ``sparse``, and
    label each head with its first top-scoring axiom, all sources in input
    order, output sorted by triple."""
    best, sources = {}, {}
    for sa in scored:
        if sa.score <= threshold:
            continue
        heads = {h for h, _ in enumerate_groundings(triples, sa.axiom, n_entities)}
        if len(heads) > cap:
            continue
        for h in heads:
            if restrict_sparse and h[0] not in sparse and h[2] not in sparse:
                continue
            if h not in best or sa.score > best[h].score:
                best[h] = sa
            sources.setdefault(h, []).append(sa.axiom)
    return [InferredTriple(Triple(*h), solve_head_truth([1.0] * (len(RULES[best[h].axiom.type]) - 1),
                                                        best[h].score), tuple(sources[h]))
            for h in sorted(best)]


def rank_by_sort(scores, true_id, excluded):
    """Rank of true_id after sorting candidates by (-score, id)."""
    order = sorted(
        (e for e in range(len(scores)) if e == true_id or e not in excluded),
        key=lambda e: (-scores[e], e),
    )
    return order.index(true_id) + 1


def random_graph(rng, n_entities, n_relations, n_triples):
    """Random triple list (possibly with duplicates) plus Triple objects."""
    triples = []
    for _ in range(n_triples):
        triples.append(
            Triple(int(rng.integers(n_entities)), int(rng.integers(n_relations)), int(rng.integers(n_entities)))
        )
    return triples


def sample_negatives_loop(kg, triples, n, rng, max_retries=100):
    """``embedding.sample_negatives`` as a loop over id rows, with
    membership from a Python set of the graph's triples: every round writes
    the pending candidates' replacements into their rows and looks each row
    up.  Makes the same RNG draws in the same order."""
    graph = set(map(tuple, kg.ids.tolist()))
    triples = np.asarray(triples, dtype=np.int64).reshape(-1, 3)
    src = np.repeat(triples, n, axis=0)
    if len(src) == 0:
        return src, 0
    positions = [p for p, size in ((0, kg.n_entities), (1, kg.n_relations), (2, kg.n_entities))
                 if size > 1]
    if not positions:
        return src[:0], len(triples)
    pos = np.asarray(positions)[rng.integers(len(positions), size=len(src))]
    high = np.where(pos == 1, kg.n_relations, kg.n_entities)
    cand = src.copy()
    pending = np.arange(len(src))
    for _ in range(max_retries):
        p = pos[pending]
        repl = rng.integers(high[pending])
        cand[pending, p] = repl
        member = np.array([tuple(row) in graph for row in cand[pending].tolist()], dtype=bool)
        pending = pending[(repl == src[pending, p]) | member]
        if len(pending) == 0:
            break
    return np.delete(cand, pending, axis=0), len(set((pending // n).tolist()))

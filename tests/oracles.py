"""Independent brute-force oracles the tests check the library against.

Everything here works from first principles on dense matrices or by
exhaustive enumeration over entity tuples, deliberately avoiding the
library's indices, blockwise shortcuts, and join logic.
"""

import numpy as np

from iterkg.axioms import Axiom, AxiomType
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


def accumulate_grads_loops(vs, vo, msc, ma, mb, rho, es, eo, rr, n_ent, n_rel):
    """Gradient scatter one example and one coordinate at a time.

    Same signature and result as ``iterkg.kernels.accumulate_grads``:
    ``(grad_ent, grad_sc, grad_rot)``.
    """
    B, d = vs.shape
    ns, nb = msc.shape[1], ma.shape[1]
    grad_ent = np.zeros((n_ent, d))
    grad_sc = np.zeros((n_rel, ns))
    grad_rot = np.zeros((n_rel, nb, 2))
    for i in range(B):
        e_s, e_o, e_r, g = es[i], eo[i], rr[i], rho[i]
        for j in range(ns):
            grad_ent[e_s, j] += g * msc[i, j] * vo[i, j]
            grad_ent[e_o, j] += g * msc[i, j] * vs[i, j]
            grad_sc[e_r, j] += g * vs[i, j] * vo[i, j]
        for k in range(nb):
            x = ns + 2 * k
            y = x + 1
            a, b = ma[i, k], mb[i, k]
            sx, sy, ox, oy = vs[i, x], vs[i, y], vo[i, x], vo[i, y]
            grad_ent[e_s, x] += g * (a * ox - b * oy)
            grad_ent[e_s, y] += g * (a * oy + b * ox)
            grad_ent[e_o, x] += g * (a * sx + b * sy)
            grad_ent[e_o, y] += g * (a * sy - b * sx)
            grad_rot[e_r, k, 0] += g * (sx * ox + sy * oy)
            grad_rot[e_r, k, 1] += g * (sy * ox - sx * oy)
    return grad_ent, grad_sc, grad_rot


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

"""The numpy kernels against per-example loops and dense matrices."""

import json
import os
import subprocess
import sys
import textwrap

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from iterkg import kernels

from oracles import (
    accumulate_grads_loops, bilinear_scores_loops, dense_block_matrix, relation_matvec_loops,
    sigmoid_two_branch,
)

# layouts (n_scalars, n_blocks) with at least one coordinate: pure scalar
# (n_blocks == 0), pure rotation (n_scalars == 0) and mixed
layouts = st.one_of(st.tuples(st.integers(1, 4), st.just(0)), st.tuples(st.just(0), st.integers(1, 3)),
                    st.tuples(st.integers(1, 4), st.integers(1, 3)))


def columns(a):
    """``a`` Fortran-ordered, as training gathers its per-example arrays."""
    return np.asfortranarray(a)


def relation_table(rng, n_rel, d, order="F"):
    """A relation table (n_rel, d): Fortran-ordered like
    ``EmbeddingModel.rel``, C-ordered, or a strided view into a larger
    array."""
    if order == "strided":
        return rng.normal(size=(2 * n_rel, d + 3))[::2, 1 : d + 1]
    return np.asarray(rng.normal(size=(n_rel, d)), order=order)


def make_batch(rng, B, ns, nb, n_rel, order="F"):
    """(vs, vo, msc, ma, mb, r) as training hands them to the kernels:
    column-major (B, ·) vectors and relation scalars, the blocks of the
    whole relation table (``relation_parts``), and relation ids with a
    repeat."""
    d = ns + 2 * nb
    rel = relation_table(rng, n_rel, d, order)
    r = rng.integers(n_rel, size=B)
    if B > 1:
        r[1] = r[0]  # a repeated relation
    _, ma, mb = kernels.relation_parts(rel, ns)
    vs, vo = columns(rng.normal(size=(B, d))), columns(rng.normal(size=(B, d)))
    return vs, vo, columns(rel[r, :ns]), ma, mb, r


def dirty(n):
    """A buffer whose every element a kernel must overwrite before use."""
    return np.full(n, np.nan)


def work_for(B, d, n_ent=0, n_rel=0):
    """A ``work`` buffer for ``B`` examples, dirty."""
    return dirty(kernels.work_size(B, d, n_ent, n_rel))


def per_example(ma, mb, r):
    """The relation blocks of each example, as the loops take them."""
    return ma[r], mb[r]


def entity_ids(rng, B, n_ent):
    """Subject and object rows with repeats: within each side, and an
    entity on both sides."""
    es, eo = rng.integers(n_ent, size=B), rng.integers(n_ent, size=B)
    if B > 1:
        es[1], eo[1] = es[0], es[0]
    return es, eo


def assert_matches(got, want):
    """Equal bit for bit: the kernels make the loops' products and sums, in
    the same order."""
    assert got.shape == want.shape and np.ascontiguousarray(got).tobytes() == want.tobytes()


def test_sigmoid_stable_and_bounded():
    x = np.array([-1e4, -50.0, 0.0, 50.0, 1e4])
    y = kernels.sigmoid(x)
    assert np.all(np.isfinite(y))
    assert y[2] == 0.5
    assert np.all(np.diff(y) >= 0)


EDGES = [0.0, -0.0, np.inf, -np.inf, 709.8, -709.8, 745.2, -745.2, 1e-320, -1e-320, 36.0, -36.0]


@settings(max_examples=100, deadline=None)
@given(x=st.lists(st.floats(allow_nan=False, width=64), max_size=40),
       scale=st.sampled_from([0.01, 1.0, 30.0, 800.0]), seed=st.integers(0, 2**32 - 1))
def test_sigmoid_bit_identical_to_two_branch_form(x, scale, seed):
    """The mask-free form gives every bit of the two masked branches, on
    drawn floats, normal draws at several scales and the edges of exp."""
    normal = np.random.default_rng(seed).normal(scale=scale, size=64)
    x = np.concatenate([x, normal, EDGES])[:, None]
    got, want = kernels.sigmoid(x), sigmoid_two_branch(x)
    assert got.dtype == np.float64 and got.shape == x.shape
    assert got.tobytes() == want.tobytes()
    assert np.isnan(kernels.sigmoid(np.array([np.nan, -np.nan]))).all()


@settings(max_examples=60, deadline=None)
@given(layout=layouts, B=st.integers(1, 24), seed=st.integers(0, 2**32 - 1))
def test_scores_and_matvecs_match_loops(layout, B, seed):
    """Scores and both matrix-vector products against the per-example
    loops, on column-major inputs with a repeated relation, bit for bit."""
    ns, nb = layout
    rng = np.random.default_rng(seed)
    vs, vo, msc, ma, mb, r = make_batch(rng, B, ns, nb, 3)
    ea, eb = per_example(ma, mb, r)
    assert_matches(kernels.bilinear_scores(vs, vo, msc, ma, mb, r, work=work_for(B, ns + 2 * nb)),
                   bilinear_scores_loops(vs, vo, msc, ea, eb))
    for transpose in (False, True):
        got = kernels.relation_matvec(msc, ea, eb, vo, transpose)
        assert got.flags.f_contiguous
        assert_matches(got, relation_matvec_loops(msc, ea, eb, vo, transpose))


@settings(max_examples=60, deadline=None)
@given(layout=layouts, B=st.integers(1, 24), n_ent=st.integers(1, 6), n_rel=st.integers(1, 4),
       seed=st.integers(0, 2**32 - 1))
def test_accumulate_grads_matches_loops(layout, B, n_ent, n_rel, seed):
    """Both gradients against the per-example loops, on column-major
    inputs with repeated subject, object and relation ids, bit for bit."""
    ns, nb = layout
    rng = np.random.default_rng(seed)
    vs, vo, msc, ma, mb, r = make_batch(rng, B, ns, nb, n_rel)
    rho = rng.normal(size=B) / B
    es, eo = entity_ids(rng, B, n_ent)
    got = kernels.accumulate_grads(vs, vo, msc, ma, mb, r, rho, es, eo, r, n_ent, n_rel,
                                   work=work_for(B, ns + 2 * nb, n_ent, n_rel))
    want = accumulate_grads_loops(vs, vo, msc, *per_example(ma, mb, r), rho, es, eo, r, n_ent, n_rel)
    assert [g.shape for g in got] == [(n_ent, ns + 2 * nb), (n_rel, ns + 2 * nb)]
    assert all(g.flags.f_contiguous for g in got)
    for g, w in zip(got, want):
        assert_matches(g, w)


@settings(max_examples=40, deadline=None)
@given(ns=st.integers(1, 6), B=st.integers(1, 16), n_ent=st.integers(1, 6), n_rel=st.integers(1, 4),
       seed=st.integers(0, 2**32 - 1))
def test_all_scalar_layout_is_the_scalar_formula_bit_for_bit(ns, B, n_ent, n_rel, seed):
    """Without blocks the kernels do the diagonal model's arithmetic and
    nothing else: scores and gradients equal its plain formula byte for byte."""
    rng = np.random.default_rng(seed)
    vs, vo, msc, ma, mb, rr = make_batch(rng, B, ns, 0, n_rel)
    rho = rng.normal(size=B) / B
    es, eo = entity_ids(rng, B, n_ent)
    work = work_for(B, ns, n_ent, n_rel)
    scores = kernels.bilinear_scores(vs, vo, msc, ma, mb, rr, work=work)
    assert scores.tobytes() == np.einsum("ij,ij,ij->i", *map(np.ascontiguousarray, (vs, msc, vo))).tobytes()

    def scatter(idx, rows, n):
        out = np.zeros((n, ns))
        np.add.at(out, idx, rows * rho[:, None])
        return out

    grad_ent, grad_rel = kernels.accumulate_grads(vs, vo, msc, ma, mb, rr, rho, es, eo, rr, n_ent, n_rel,
                                                  work=work)
    want_ent = scatter(es, msc * vo, n_ent) + scatter(eo, msc * vs, n_ent)
    assert np.ascontiguousarray(grad_ent).tobytes() == want_ent.tobytes()
    assert grad_rel.tobytes() == scatter(rr, vs * vo, n_rel).tobytes()


@settings(max_examples=40, deadline=None)
@given(layout=layouts, B=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
def test_relation_matvec_matches_dense(layout, B, seed):
    """One relation per row, or one for all rows, or one row alone."""
    ns, nb = layout
    rng = np.random.default_rng(seed)
    _, v, msc, ma, mb, r = make_batch(rng, B, ns, nb, 3)
    ma, mb = per_example(ma, mb, r)
    for i in range(B):
        dense = dense_block_matrix(msc[i], np.stack([ma[i], mb[i]], axis=1))
        np.testing.assert_allclose(kernels.relation_matvec(msc[i], ma[i], mb[i], v[i]),
                                   dense @ v[i], rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(kernels.relation_matvec(msc[i], ma[i], mb[i], v)[i],
                                   dense @ v[i], rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(kernels.relation_matvec(msc, ma, mb, v, transpose=True)[i],
                                   dense.T @ v[i], rtol=1e-12, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(layout=layouts, B=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
def test_row_major_inputs_give_the_same_bits(layout, B, seed):
    """The layout changes where values lie, not one bit of a result."""
    ns, nb = layout
    rng = np.random.default_rng(seed)
    vs, vo, msc, ma, mb, rr = make_batch(rng, B, ns, nb, 3)
    rho = rng.normal(size=B) / B
    es, eo = entity_ids(rng, B, 4)
    args = (vs, vo, msc, ma, mb)
    rows = tuple(np.ascontiguousarray(a) for a in args)
    d = ns + 2 * nb
    assert kernels.bilinear_scores(*rows, rr, work=work_for(B, d)).tobytes() == \
        kernels.bilinear_scores(*args, rr, work=work_for(B, d)).tobytes()
    ea, eb = per_example(ma, mb, rr)
    for transpose in (False, True):
        assert (kernels.relation_matvec(rows[2], ea.copy(), eb.copy(), vo.copy(order="C"), transpose).tobytes()
                == kernels.relation_matvec(msc, columns(ea), columns(eb), vo, transpose).tobytes())
    for g, f in zip(kernels.accumulate_grads(*rows, rr, rho, es, eo, rr, 4, 3, work=work_for(B, d, 4, 3)),
                    kernels.accumulate_grads(*args, rr, rho, es, eo, rr, 4, 3, work=work_for(B, d, 4, 3))):
        assert np.ascontiguousarray(g).tobytes() == np.ascontiguousarray(f).tobytes()


# layouts (n_scalars, n_blocks) at dim 4k: no scalars, half scalars, all scalars
split_layouts = st.tuples(st.integers(1, 3), st.sampled_from([0, 1, 2])).map(
    lambda kq: (kq[1] * 2 * kq[0], (4 * kq[0] - kq[1] * 2 * kq[0]) // 2))


@settings(max_examples=60, deadline=None)
@given(layout=split_layouts, B=st.integers(1, 16), extra=st.integers(0, 5),
       n_ent=st.integers(1, 6), n_rel=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_kernels_with_work_buffer_are_bit_identical(layout, B, extra, n_ent, n_rel, seed):
    ns, nb = layout
    d = ns + 2 * nb
    rng = np.random.default_rng(seed)
    vs, vo, msc, ma, mb, r = make_batch(rng, B, ns, nb, n_rel)
    rho = rng.normal(size=B) / B
    es, eo = entity_ids(rng, B, n_ent)
    args = (vs, vo, msc, ma, mb, r, rho, es, eo, r, n_ent, n_rel)
    # a buffer sized for a longer batch, dirty from a previous use, against
    # a fresh zeroed one of the batch's size
    work = work_for(B + extra, d, n_ent + extra, n_rel + extra)

    scores = kernels.bilinear_scores(vs, vo, msc, ma, mb, r, work=work)
    fresh_scores = kernels.bilinear_scores(vs, vo, msc, ma, mb, r, work=np.zeros(kernels.work_size(B, d, 0, 0)))
    assert scores.tobytes() == fresh_scores.tobytes()

    got = kernels.accumulate_grads(*args, work=work)
    fresh = kernels.accumulate_grads(*args, work=np.zeros(kernels.work_size(B, d, n_ent, n_rel)))
    for g, f in zip(got, fresh):
        assert g.size == 0 or np.shares_memory(g, work)
        assert g.shape == f.shape and g.tobytes() == f.tobytes()


@settings(max_examples=80, deadline=None)
@given(layout=split_layouts, order=st.sampled_from(["C", "F", "strided"]), B=st.integers(1, 16),
       extra=st.integers(0, 5), n_ent=st.integers(1, 6), n_rel=st.integers(1, 6),
       seed=st.integers(0, 2**32 - 1))
def test_relation_tables_and_ids_match_the_loops_on_indexed_rows(layout, order, B, extra, n_ent, n_rel,
                                                                  seed):
    """Given the whole relation table's blocks and the examples' relation
    ids, both kernels equal the per-example loops handed the indexed
    (B, n_blocks) arrays bit for bit: with no blocks, no scalars or both,
    repeated relation ids, a C-ordered, Fortran-ordered or strided table,
    and a work buffer left dirty by a longer batch.  As in training, the
    relation gradient's rows are the compacted ids, not the table's."""
    ns, nb = layout
    d = ns + 2 * nb
    rng = np.random.default_rng(seed)
    vs, vo, msc, ma, mb, r = make_batch(rng, B, ns, nb, n_rel, order)
    rel_ids, rr = np.unique(r, return_inverse=True)
    rho = rng.normal(size=B) / B
    es, eo = entity_ids(rng, B, n_ent)
    ea, eb = per_example(ma, mb, r)
    assert ea.shape == eb.shape == (B, nb)
    args = (vs, vo, msc, ma, mb, r, rho, es, eo, rr, n_ent, len(rel_ids))
    want_scores = bilinear_scores_loops(vs, vo, msc, ea, eb)
    want_grads = accumulate_grads_loops(vs, vo, msc, ea, eb, rho, es, eo, rr, n_ent, len(rel_ids))
    for work in (np.zeros(kernels.work_size(B, d, n_ent, len(rel_ids))),
                 work_for(B + extra, d, n_ent + extra, n_rel + extra)):
        assert_matches(kernels.bilinear_scores(*args[:6], work=work), want_scores)
        for got, want in zip(kernels.accumulate_grads(*args, work=work), want_grads):
            assert_matches(got, want)


def test_carve_lays_arrays_end_to_end():
    work = np.arange(20.0)
    a, b = kernels.carve(work, (2, 3), (4,))
    assert a.tolist() == [[0, 2, 4], [1, 3, 5]] and b.tolist() == [6, 7, 8, 9]
    assert all(np.shares_memory(x, work) and x.flags.f_contiguous for x in (a, b))
    assert not a.flags.c_contiguous


def test_training_and_ranking_import_nothing_beyond_numpy():
    """A training step and link prediction load no third-party module but
    numpy: scipy is undeclared, and importing ``scipy.sparse`` alone raises
    a fresh interpreter's peak RSS from about 27 to 49 MB."""
    script = textwrap.dedent("""
        import json, sys
        before = {name.split(".")[0] for name in sys.modules}
        import numpy as np
        from iterkg.embedding import TrainConfig, TripleBatch, init_model, train_epoch
        from iterkg.evaluation import link_prediction
        from iterkg.kg import KnowledgeGraph, Triple, Vocabulary

        rng = np.random.default_rng(0)
        rows = np.stack([rng.integers(20, size=200), rng.integers(3, size=200),
                         rng.integers(20, size=200)], axis=1).tolist()
        kg = KnowledgeGraph([Triple(*t) for t in rows], Vocabulary(f"e{i}" for i in range(20)),
                            Vocabulary(f"r{i}" for i in range(3)))
        cfg = TrainConfig(dim=8, n_scalars=4, batch_size=64)
        model = init_model(20, 3, cfg)
        train_epoch(model, TripleBatch(kg.ids, np.ones(len(kg))), kg, cfg, rng)
        link_prediction(model, kg.ids, kg.ids[:10])
        loaded = {name.split(".")[0] for name in sys.modules} - before - set(sys.stdlib_module_names)
        print(json.dumps(sorted(loaded)))
    """)
    src = os.path.dirname(os.path.dirname(kernels.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    loaded = set(json.loads(done.stdout))
    assert "scipy" not in loaded
    # numpy's compiled modules bring cython's runtime modules with them
    assert {m for m in loaded if not m.startswith(("numpy", "iterkg", "_cython_", "cython_runtime"))} == set()

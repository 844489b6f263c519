"""The numpy kernels against per-example loops and dense matrices."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from iterkg import kernels

from oracles import accumulate_grads_loops, dense_block_matrix

# layouts (n_scalars, n_blocks) with at least one coordinate, pure scalar
# and pure rotation included
layouts = st.tuples(st.integers(0, 4), st.integers(0, 3)).filter(lambda l: sum(l) > 0)


def make_batch(rng, B, ns, nb, n_rel):
    d = ns + 2 * nb
    sc = rng.normal(size=(n_rel, ns))
    rot = rng.normal(size=(n_rel, nb, 2))
    r = rng.integers(n_rel, size=B)
    vs, vo = rng.normal(size=(B, d)), rng.normal(size=(B, d))
    return vs, vo, sc[r], rot[r, :, 0], rot[r, :, 1], r


def test_sigmoid_stable_and_bounded():
    x = np.array([-1e4, -50.0, 0.0, 50.0, 1e4])
    y = kernels.sigmoid(x)
    assert np.all(np.isfinite(y))
    assert y[2] == 0.5
    assert np.all(np.diff(y) >= 0)


@settings(max_examples=60, deadline=None)
@given(layout=layouts, B=st.integers(1, 24), n_ent=st.integers(1, 6), n_rel=st.integers(1, 4),
       seed=st.integers(0, 2**32 - 1))
def test_accumulate_grads_matches_loops(layout, B, n_ent, n_rel, seed):
    ns, nb = layout
    rng = np.random.default_rng(seed)
    vs, vo, msc, ma, mb, rr = make_batch(rng, B, ns, nb, n_rel)
    rho = rng.normal(size=B) / B
    es, eo = rng.integers(n_ent, size=B), rng.integers(n_ent, size=B)
    args = (vs, vo, msc, ma, mb, rho, es, eo, rr, n_ent, n_rel)
    got = kernels.accumulate_grads(*args)
    want = accumulate_grads_loops(*args)
    assert [g.shape for g in got] == [(n_ent, ns + 2 * nb), (n_rel, ns), (n_rel, nb, 2)]
    for g, w in zip(got, want):
        # same products, summed in another order: a few ulp per added term
        np.testing.assert_allclose(g, w, rtol=1e-12, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(layout=layouts, B=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
def test_relation_matvec_matches_dense(layout, B, seed):
    ns, nb = layout
    rng = np.random.default_rng(seed)
    _, v, msc, ma, mb, _ = make_batch(rng, B, ns, nb, 3)
    for i in range(B):
        dense = dense_block_matrix(msc[i], np.stack([ma[i], mb[i]], axis=1))
        np.testing.assert_allclose(kernels.relation_matvec(msc[i], ma[i], mb[i], v[i]),
                                   dense @ v[i], rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(kernels.relation_matvec(msc, ma, mb, v, transpose=True)[i],
                                   dense.T @ v[i], rtol=1e-12, atol=1e-12)


# layouts (n_scalars, n_blocks) at dim 4k: no scalars, half scalars, all scalars
split_layouts = st.tuples(st.integers(1, 3), st.sampled_from([0, 1, 2])).map(
    lambda kq: (kq[1] * 2 * kq[0], (4 * kq[0] - kq[1] * 2 * kq[0]) // 2))


def dirty(n):
    """A buffer whose every element a kernel must overwrite before use."""
    return np.full(n, np.nan)


@settings(max_examples=60, deadline=None)
@given(layout=split_layouts, B=st.integers(1, 12), extra=st.integers(0, 5),
       transpose=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_relation_matvec_into_buffers_is_bit_identical(layout, B, extra, transpose, seed):
    ns, nb = layout
    rng = np.random.default_rng(seed)
    _, v, msc, ma, mb, _ = make_batch(rng, B, ns, nb, 3)
    fresh = kernels.relation_matvec(msc, ma, mb, v, transpose)
    out = dirty((B + extra) * v.shape[1]).reshape(B + extra, -1)
    got = kernels.relation_matvec(msc, ma, mb, v, transpose, out=out[:B], work=dirty(2 * (B + extra) * nb))
    assert np.shares_memory(got, out) and got.shape == v.shape
    assert got.tobytes() == fresh.tobytes()
    for i in range(B):
        dense = dense_block_matrix(msc[i], np.stack([ma[i], mb[i]], axis=1))
        np.testing.assert_allclose(got[i], (dense.T if transpose else dense) @ v[i],
                                   rtol=1e-12, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(layout=split_layouts, B=st.integers(1, 16), extra=st.integers(0, 5),
       n_ent=st.integers(1, 6), n_rel=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_kernels_with_work_buffer_are_bit_identical(layout, B, extra, n_ent, n_rel, seed):
    ns, nb = layout
    d = ns + 2 * nb
    rng = np.random.default_rng(seed)
    vs, vo, msc, ma, mb, rr = make_batch(rng, B, ns, nb, n_rel)
    rho = rng.normal(size=B) / B
    es, eo = rng.integers(n_ent, size=B), rng.integers(n_ent, size=B)
    args = (vs, vo, msc, ma, mb, rho, es, eo, rr, n_ent, n_rel)
    # a buffer sized for a longer batch, dirty from a previous use
    work = dirty(kernels.work_size(B + extra, d, nb, n_ent + extra, n_rel + extra))

    scores = kernels.bilinear_scores(vs, vo, msc, ma, mb, work=work)
    assert scores.tobytes() == kernels.bilinear_scores(vs, vo, msc, ma, mb).tobytes()

    got = kernels.accumulate_grads(*args, work=work)
    fresh = kernels.accumulate_grads(*args)
    want = accumulate_grads_loops(*args)
    for g, f, w in zip(got, fresh, want):
        assert g.size == 0 or np.shares_memory(g, work)
        assert g.shape == f.shape and g.tobytes() == np.ascontiguousarray(f).tobytes()
        np.testing.assert_allclose(g, w, rtol=1e-12, atol=1e-12)


def test_carve_lays_arrays_end_to_end():
    work = np.arange(20.0)
    a, b = kernels.carve(work, (2, 3), (4,))
    assert a.tolist() == [[0, 1, 2], [3, 4, 5]] and b.tolist() == [6, 7, 8, 9]
    assert all(np.shares_memory(x, work) and x.flags.c_contiguous for x in (a, b))
    assert [x.shape for x in kernels.carve(None, (2, 3), (0, 4))] == [(2, 3), (0, 4)]

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

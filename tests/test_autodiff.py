"""Engine tests: primitive values, exact adjoints, tape semantics."""

import functools
import itertools
import math
import threading
import tracemalloc
import weakref

import numpy as np
import pytest

from pointfill import autodiff as ad
from pointfill import gradcheck
from pointfill.errors import ContractError, NumericsError, ShapeError
from pointfill.layers import Mlp2
from pointfill.losses import downsample_targets
from pointfill.pipeline import Adam, CompletionModel, ModelConfig, _forward_loss, run_training


def leaf(data, dtype=np.float64):
    return ad.Tensor(np.asarray(data, dtype=dtype), requires_grad=True)


def run_backward(fn, *inputs):
    with ad.Tape() as tape:
        out = fn(*inputs)
    tape.backward(out)
    return out


# --- values ----------------------------------------------------------------


def _pass_through_head(keys, k, variant="softmax", capture=None):
    """One attention head over all-ones values whose logits are minus
    column 0 of the (n, 2) ``keys``: point i has the neighbors i % (n // k)
    * k + j, q and delta are zero, and the head maps x to relu(x) - relu(-x)
    = x exactly."""
    n = keys.shape[0]
    index = np.arange(n)[:, None] % (n // k) * k + np.arange(k)
    zeros = lambda *shape: ad.Tensor(np.zeros(shape))
    return ad.upsample_attention(
        zeros(n, 3), zeros(n, 2), keys, ad.Tensor(np.ones((n, 2))), index,
        (zeros(3, 1), zeros(1), zeros(1, 2), zeros(2)),
        (ad.Tensor([[1.0, -1.0], [0.0, 0.0]]), zeros(2)), [ad.Tensor([[1.0], [-1.0]])],
        variant=variant, capture=capture)


def _head_weights(logits, variant="softmax"):
    """The weights and output of a pass-through head at (n, k, 1) ``logits``
    over all-ones values."""
    n, k, _ = logits.shape
    keys = np.zeros((n * k, 2))
    keys[:, 0] = -logits.reshape(-1)
    weights = []
    out = _pass_through_head(ad.Tensor(keys), k, variant, weights)
    return weights[0].data[:n], out.data[:n]


def test_softmax_uniform_logits():
    weights, _ = _head_weights(np.zeros((1, 3, 1)))
    np.testing.assert_allclose(weights[0, :, 0], [1 / 3, 1 / 3, 1 / 3], rtol=0, atol=1e-15)


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(0)
    weights, out = _head_weights(rng.standard_normal((6, 9, 1)) * 30)
    assert (weights >= 0).all()
    np.testing.assert_allclose(weights.sum(axis=1), np.ones((6, 1)), atol=1e-6)
    np.testing.assert_allclose(out, np.ones((6, 2)), atol=1e-6)  # sums of ones


def test_linear_identity():
    x = ad.Tensor([[1.0, 2.0], [3.0, 4.0]], dtype=np.float64)
    w = ad.Tensor(np.eye(2))
    b = ad.Tensor(np.zeros(2))
    np.testing.assert_array_equal(ad.linear(x, w, b).data, x.data)


def test_gather_rows_lookup():
    x = ad.Tensor([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    out = ad.gather_rows(x, np.array([2, 0]))
    np.testing.assert_array_equal(out.data, [[5.0, 6.0], [1.0, 2.0]])


def test_gather_rows_out_of_range():
    x = ad.Tensor(np.zeros((3, 2)))
    with pytest.raises(IndexError):
        ad.gather_rows(x, np.array([3]))


def test_elementwise_shape_mismatch():
    with pytest.raises(ShapeError):
        ad.add(ad.Tensor(np.zeros((2, 3))), ad.Tensor(np.zeros((3, 2))))
    with pytest.raises(ShapeError):
        ad.mul(ad.Tensor(np.zeros(2)), ad.Tensor(np.zeros(3)))


def test_elementwise_rejects_operands_that_are_not_tensors():
    # an array operand used to pass the forward and break backward with an
    # AttributeError; add takes no scalar either
    x = ad.Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ContractError, match="not both Tensors"):
        ad.add(x, 1.0)
    with ad.Tape():
        for op in (ad.add, ad.mul):
            with pytest.raises(ContractError, match="not both Tensors"):
                op(x, np.ones(3))
        with pytest.raises(ContractError, match="not both Tensors"):
            ad.add(np.ones(3), x)


@pytest.mark.parametrize("op, a, b", [
    ("mul", 2.0, "x"), ("mul", "x", True), ("add", "x", 1.0), ("add", 1.0, "x"),
])
def test_only_mul_takes_a_scalar_and_only_a_real_one_on_the_right(op, a, b):
    # mul(2.0, x) used to raise AttributeError and mul(x, True) scaled by 1;
    # add takes a scalar on neither side
    x = ad.Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ContractError, match="not both Tensors"):
        getattr(ad, op)(x if a == "x" else a, x if b == "x" else b)


def test_item_needs_exactly_one_element():
    # a 3-element tensor used to give its first element
    assert ad.Tensor(np.full((1, 1), 5.0)).item() == 5.0
    with pytest.raises(ContractError, match=r"one-element Tensor, got shape \(3,\)"):
        ad.Tensor(np.arange(3.0) + 5).item()


def test_dtype_mismatch_rejected():
    a = ad.Tensor(np.zeros(3), dtype=np.float32)
    b = ad.Tensor(np.zeros(3), dtype=np.float64)
    with pytest.raises(ContractError):
        ad.add(a, b)
    with pytest.raises(ContractError, match="dtypes"):
        ad.linear(ad.Tensor(np.zeros((2, 3)), dtype=np.float32),
                  ad.Tensor(np.zeros((3, 3)), dtype=np.float32), b)


def test_sqrt_negative_raises():
    with pytest.raises(NumericsError):
        ad.sqrt(ad.Tensor([-1.0]))


def test_log_softmax_is_log_of_softmax():
    rng = np.random.default_rng(1)
    logits = rng.standard_normal((4, 5, 1))
    np.testing.assert_allclose(
        _head_weights(logits, "log")[0], np.log(_head_weights(logits)[0]), atol=1e-12
    )


# --- neighbor attention: softmax over axis 1 and neighbor_sum -----------------


def _numpy_softmax_over_k(a, g, log):
    """Plain numpy over the last axis of the (n, C, k) transposed view, the
    path the attention kernels took before softmax gained an axis.
    Returns the value and the adjoint of ``g``, both as (n, k, C)."""
    t, gt = a.transpose(0, 2, 1), g.transpose(0, 2, 1)
    shifted = t - t.max(axis=-1, keepdims=True)
    if log:
        y = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
        s = np.exp(y)
        gx = gt - s * gt.sum(axis=-1, keepdims=True)
    else:
        e = np.exp(shifted)
        y = s = e / e.sum(axis=-1, keepdims=True)
        gx = s * (gt - (gt * s).sum(axis=-1, keepdims=True))
    return y.transpose(0, 2, 1), gx.transpose(0, 2, 1)


@pytest.mark.parametrize("log", [False, True], ids=["softmax", "log"])
@pytest.mark.parametrize("width", [1, 8])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_softmax_over_neighbors_is_bitwise_plain_numpy(dtype, width, log):
    # upsample_attention's normalization and its adjoint, on their own
    rng = np.random.default_rng(40)
    a = (3.0 * rng.standard_normal((5, 16, width))).astype(dtype)
    g = rng.standard_normal((5, 16, width)).astype(dtype)
    variant = "log" if log else "softmax"
    y = ad._normalize_(a.copy(), variant, dtype(1))
    gx = ad._normalize_back_(g.copy(), y, variant, dtype(1))
    want_y, want_gx = _numpy_softmax_over_k(a, g, log)
    assert y.dtype == dtype and gx.dtype == dtype
    assert np.array_equal(y, want_y)
    assert np.array_equal(gx, want_gx)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_neighbor_sum_is_bitwise_plain_numpy(dtype):
    # gather -> reshape -> (w * v).sum(axis=1), and the adjoint's scatter-add
    # in float64 in index order (as np.bincount sums); rows 4 and 0 repeat
    rng = np.random.default_rng(41)
    m, k, c = 6, 3, 5
    idx = np.array([4, 0, 4, 1, 4, 2, 0, 3, 5, 4, 0, 6, 2, 2, 1, 0, 4, 6])
    other = leaf(rng.standard_normal((7, c)), dtype)
    w = rng.uniform(0.1, 1.0, (m, k))
    g = rng.standard_normal((m, c)).astype(dtype)
    with ad.Tape() as tape:
        out = ad.neighbor_sum(other, idx, w)
        assert len(tape) == 1
        loss = ad.reduce_sum(ad.mul(out, ad.constant(g)))
    tape.backward(loss)
    w3 = w.astype(dtype)[:, :, None]
    want = (w3 * other.data[idx].reshape(m, k, c)).sum(axis=1)
    want_grad = np.zeros((7, c))
    np.add.at(want_grad, idx, (g[:, None, :] * w3).reshape(m * k, c).astype(np.float64))
    assert out.dtype == other.grad.dtype == dtype
    assert _bits(out.data, other.grad) == _bits(want, want_grad.astype(dtype))


def test_neighbor_sum_rejects_misfit_rows_index_and_weights():
    other, idx, w = ad.Tensor(np.zeros((5, 2))), np.arange(6) % 5, np.ones((3, 2))
    with pytest.raises(ContractError, match="constants"):
        ad.neighbor_sum(other, idx, ad.Tensor(w))
    for rows, weights in ((ad.Tensor(np.zeros(5)), w), (other, np.ones(6))):
        with pytest.raises(ShapeError, match="neighbor_sum"):
            ad.neighbor_sum(rows, idx, weights)
    with pytest.raises(ShapeError, match="neighbor_sum"):
        ad.neighbor_sum(other, idx[:5], w)  # not m * k indices
    for bad in (np.full(6, 5), idx.reshape(3, 2)):
        with pytest.raises((IndexError, ShapeError), match="neighbor_sum"):
            ad.neighbor_sum(other, bad, w)


# --- fused records: linear_relu and neighbor_diff ----------------------------


def _special_values(dtype):
    """-0.0, +0.0, +-NaN, +-inf, +-subnormals and ordinary values."""
    tiny = np.finfo(dtype).smallest_subnormal
    return np.array(
        [-0.0, 0.0, np.nan, -np.nan, np.inf, -np.inf, tiny, -tiny, 7 * tiny, -7 * tiny,
         1.5, -2.5], dtype=dtype,
    )


def _plain_linear_relu(x, w, b, g):
    """``np.where(x @ w + b > 0, ., 0)`` and the relu-then-linear adjoint of ``g``."""
    z = x @ w
    z += b
    gz = g * (z > 0)
    return np.where(z > 0, z, z.dtype.type(0)), gz @ w.T, x.T @ gz, gz.sum(axis=0)


def _bits(*arrays):
    return [(a.dtype, a.shape, a.tobytes()) for a in arrays]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_linear_relu_is_bitwise_plain_numpy(dtype):
    rng = np.random.default_rng(42)
    # the first 12 rows hold one special value each in column 0, which row 0
    # of w maps to z unchanged, negated and halved; the last 8 rows are generic
    x = np.zeros((20, 4), dtype=dtype)
    x[:12, 0] = _special_values(dtype)
    x[12:, 1:] = rng.standard_normal((8, 3))
    w = rng.standard_normal((4, 3)).astype(dtype)
    w[0] = [1.0, -1.0, 0.5]
    b = np.array([0.0, -0.0, 0.25], dtype=dtype)
    g = rng.standard_normal((20, 3)).astype(dtype)
    with np.errstate(invalid="ignore"):
        want = _plain_linear_relu(x, w, b, g)
        xt, wt, bt = leaf(x, dtype), leaf(w, dtype), leaf(b, dtype)
        with ad.Tape() as tape:
            y = ad.linear_relu(xt, wt, bt)
            out = ad.reduce_sum(ad.mul(y, ad.constant(g)))
        tape.backward(out)
    with np.errstate(invalid="ignore"):
        z = x @ w + b
    assert np.isnan(z).any() and np.isinf(z).any() and (z[12:] > 0).any()
    assert ((z != 0) & (np.abs(z) < np.finfo(dtype).tiny)).any()  # subnormals
    assert _bits(y.data, xt.grad, wt.grad, bt.grad) == _bits(*want)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_linear_relu_relu_step_is_bitwise_np_where(dtype, monkeypatch):
    # numpy's GEMM never yields -0.0 (its sums start at +0.0), so the
    # pre-activations are injected behind the shared affine helper
    z = np.stack([_special_values(dtype), -_special_values(dtype)], axis=1)
    g = np.random.default_rng(43).standard_normal(z.shape).astype(dtype)
    seen = {}

    def affine(x, weight, bias, op):
        def back(gz):
            seen["gz"] = gz
            return (None, None, None)

        return z.copy(), back

    monkeypatch.setattr(ad, "_affine", affine)
    x = leaf(np.zeros((12, 1)), dtype)
    with ad.Tape() as tape:
        y = ad.linear_relu(x, leaf(np.zeros((1, 2)), dtype), leaf(np.zeros(2), dtype))
        out = ad.reduce_sum(ad.mul(y, ad.constant(g)))
    tape.backward(out)
    assert np.signbit(z).any() and np.isnan(z).any()
    assert _bits(y.data) == _bits(np.where(z > 0, z, dtype(0)))
    assert _bits(seen["gz"]) == _bits(g * (z > 0))


def test_linear_relu_rejects_what_linear_rejects():
    x = ad.Tensor(np.zeros((2, 3)))
    with pytest.raises(ShapeError, match="linear_relu"):
        ad.linear_relu(x, ad.Tensor(np.zeros((4, 3))), ad.Tensor(np.zeros(3)))
    with pytest.raises(ShapeError, match="linear_relu"):
        ad.linear_relu(x, ad.Tensor(np.zeros((3, 3))), ad.Tensor(np.zeros(2)))
    with pytest.raises(ContractError, match="dtypes"):
        ad.linear_relu(x, ad.Tensor(np.zeros((3, 3)), dtype=np.float32),
                       ad.Tensor(np.zeros(3)))


def test_taped_mlp2_appends_two_records():
    mlp = Mlp2(np.random.default_rng(0), 3, 5, 4).astype(np.float32)
    with ad.Tape() as tape:
        mlp(ad.Tensor(np.ones((6, 3)), dtype=np.float32))
    assert len(tape) == 2


@pytest.mark.parametrize("shared", [False, True], ids=["distinct", "shared"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_neighbor_diff_is_bitwise_the_unfused_composition(dtype, shared):
    # magnitudes spread over six decades, so the order in which the gradient
    # contributions reach a shared input shows in the low bits
    rng = np.random.default_rng(44)
    n, m, k, c = 6, 9, 4, 5
    scale = 10.0 ** rng.uniform(-3, 3, (1, c))
    a = (scale * rng.standard_normal((n, c))).astype(dtype)
    b = a if shared else (scale * rng.standard_normal((m, c))).astype(dtype)
    idx = rng.integers(0, b.shape[0], size=n * k)
    g = (scale * rng.standard_normal((n * k, c))).astype(dtype)
    prior = (scale * rng.standard_normal((n, c))).astype(dtype)
    runs = []
    for fused in (True, False):
        center = leaf(a, dtype)
        center.grad = prior.copy()  # a gradient from an earlier pass
        other = center if shared else leaf(b, dtype)
        with ad.Tape() as tape:
            if fused:
                diff = ad.neighbor_diff(center, other, idx, k)
            else:
                diff = ad.add(ad.repeat_rows(center, k),
                              ad.mul(ad.gather_rows(other, idx), -1.0))
            out = ad.add(
                ad.reduce_sum(ad.mul(diff, ad.constant(g))),
                ad.reduce_sum(ad.mul(center, center)),
            )
        tape.backward(out)
        runs.append(_bits(diff.data, center.grad, other.grad))
    assert runs[0] == runs[1]


def test_neighbor_diff_rejects_misfit_index_shape_and_dtype():
    center, other = ad.Tensor(np.zeros((3, 2))), ad.Tensor(np.zeros((5, 2)))
    idx = np.arange(6) % 5
    for bad in (np.full(6, 5), np.full(6, -1)):
        with pytest.raises(IndexError, match="neighbor_diff"):
            ad.neighbor_diff(center, other, bad, 2)
    for bad in (idx.reshape(3, 2), idx.astype(np.float64)):
        with pytest.raises(ShapeError, match="neighbor_diff"):
            ad.neighbor_diff(center, other, bad, 2)
    with pytest.raises(ShapeError):
        ad.neighbor_diff(center, other, idx[:5], 2)  # not n * k rows
    with pytest.raises(ShapeError):
        ad.neighbor_diff(center, other, idx, 0)
    with pytest.raises(ShapeError):
        ad.neighbor_diff(center, ad.Tensor(np.zeros((5, 3))), idx, 2)
    with pytest.raises(ContractError, match="dtypes"):
        ad.neighbor_diff(center, ad.Tensor(np.zeros((5, 2)), dtype=np.float32), idx, 2)


# --- upsample_attention: one tiled record per upsample transformer ---------


def _relu(z):
    return np.where(z > 0, z, z.dtype.type(0))


def _plain_pair_rows(arrays, index, rate):
    """Today's unfused forward chain in plain numpy, with the seed layer
    hoisted, up to the shared hidden rows: neighbor_diff, linear_relu and
    linear for the position term; u's neighbor_diff, its bias and relu, and
    linear for the seed term; add; neighbor_diff and add for x; gather_rows
    and add for the value rows; linear_relu for the hidden rows. ``arrays``
    is what _attention_arrays returns, with or without the seed term.
    Returns the named blocks."""
    cloud, q, keys, values, p0, c0, p1, c1, w0, b0, *rest = arrays
    heads, seed = rest[:rate], rest[rate:] or None
    (n, k), c, nb = index.shape, q.shape[1], index.reshape(-1)
    rel = np.repeat(cloud, k, axis=0) - cloud[nb]
    zp = rel @ p0
    zp += c0
    hp = _relu(zp)
    delta = hp @ p1
    delta += c1
    hs = None
    if seed is not None:
        u, d0, s1, d1 = seed
        zs = np.repeat(u, k, axis=0) - u[nb]
        zs += d0
        hs = _relu(zs)
        term = hs @ s1
        term += d1
        delta = delta + term
    x = (np.repeat(q, k, axis=0) - keys[nb]) + delta
    v = (values[nb] + delta).reshape(n, k, c)
    z = x @ w0
    z += b0
    return dict(rel=rel, hp=hp, hs=hs, x=x, v=v, h=_relu(z), heads=heads, seed=seed)


def _plain_attention(arrays, index, rate, variant, lam, g, order=None):
    """The record's forward (_plain_pair_rows, then the heads) and its
    adjoint of ``g`` in plain numpy.

    Full-size GEMMs stand for the primitive's row tiles, which give the same
    rows (test_row_tiles_of_the_head_gemms_are_rows_of_the_full_gemms). The
    sums run in the primitive's order: the heads' value-row and hidden
    gradients over ``order`` (last head first by default); each weight and
    bias gradient over ad._tiles, first tile first; each scatter as one
    float64 bincount per tile, first tile first. Returns each head's
    weights, the (n*rate, C) output and the gradient of each array."""
    cloud, q, keys, values, p0, c0, p1, c1, w0, b0, *_ = arrays
    (n, k), c, dtype, nb = index.shape, q.shape[1], q.dtype, index.reshape(-1)
    rows = _plain_pair_rows(arrays, index, rate)
    rel, hp, hs, x, v, h, heads, seed = rows.values()
    lam = dtype.type(lam)
    g = g.reshape(n, rate, c)
    weights, outs, grs = [None] * rate, [None] * rate, [None] * rate
    gv = gh = None
    for m in reversed(range(rate)) if order is None else order:
        r = (h @ heads[m]).reshape(n, k, -1)
        if variant == "scaled":
            r = r * lam
        if variant == "none":
            y = s = r
        elif variant == "log":
            y = r - r.max(axis=1, keepdims=True)
            y -= np.log(np.exp(y).sum(axis=1, keepdims=True))
            s = np.exp(y)
        else:
            e = r - r.max(axis=1, keepdims=True)
            np.exp(e, out=e)
            y = s = e / e.sum(axis=1, keepdims=True)
        g3 = g[:, m, None, :]
        gy = g3 * v
        if y.shape[2] == 1:
            gy = gy.sum(axis=2, keepdims=True)
        if variant == "none":
            gr = gy
        elif variant == "log":
            gr = gy - s * gy.sum(axis=1, keepdims=True)
        else:
            gr = s * (gy - (gy * s).sum(axis=1, keepdims=True))
            if variant == "scaled":
                gr = gr * lam
        weights[m], outs[m], grs[m] = y, (y * v).sum(axis=1), gr.reshape(n * k, -1)
        gv = g3 * y if gv is None else gv + g3 * y
        gh = grs[m] @ heads[m].T if gh is None else gh + grs[m] @ heads[m].T
    gz = gh * (h > 0)
    gx = gz @ w0.T
    gv = gv.reshape(n * k, c)
    gd = gx + gv
    tiles = [slice(a * k, b * k) for a, b in ad._tiles(n, k)]

    def over_tiles(part):
        total = part(tiles[0])
        for rows in tiles[1:]:
            total = total + part(rows)
        return total

    def scatter(rows):
        w = rows.shape[1]
        return over_tiles(lambda t: np.bincount((nb[t, None] * w + np.arange(w)).ravel(),
                                                weights=rows[t].ravel(), minlength=n * w)
                          ).reshape(n, w)

    def own_minus_scattered(rows):
        out = (-scatter(rows)).astype(dtype)
        out += rows.reshape(n, k, -1).sum(axis=1)
        return out

    ghp = gd @ p1.T
    ghp *= hp > 0
    grads = [own_minus_scattered(ghp @ p0.T), gx.reshape(n, k, c).sum(axis=1),
             (-scatter(gx)).astype(dtype), scatter(gv).astype(dtype),
             over_tiles(lambda t: rel[t].T @ ghp[t]), over_tiles(lambda t: ghp[t].sum(axis=0)),
             over_tiles(lambda t: hp[t].T @ gd[t]), over_tiles(lambda t: gd[t].sum(axis=0)),
             over_tiles(lambda t: x[t].T @ gz[t]), over_tiles(lambda t: gz[t].sum(axis=0))]
    grads += [over_tiles(lambda t: h[t].T @ gr[t]) for gr in grs]
    if seed is not None:
        s1 = seed[2]
        ghs = gd @ s1.T
        ghs *= hs > 0
        grads += [own_minus_scattered(ghs), over_tiles(lambda t: ghs[t].sum(axis=0)),
                  over_tiles(lambda t: hs[t].T @ gd[t]), over_tiles(lambda t: gd[t].sum(axis=0))]
    return weights, np.stack(outs, axis=1).reshape(n * rate, c), grads


def _attention_arrays(rng, rate, n, k, c, width, dtype, seeded=True):
    """The neighbor table, then the cloud, q, keys, values, the position
    encoder's four arrays, w0, b0, ``rate`` heads and (``seeded``) u, d0, S1
    and d1, every width C as in the model."""
    shapes = [(n, 3), (n, c), (n, c), (n, c), (3, c), (c,), (c, c), (c,), (c, c), (c,),
              *[(c, width)] * rate, *([(n, c), (c,), (c, c), (c,)] if seeded else [])]
    index = rng.integers(0, n, (n, k))
    return index, [(0.5 * rng.standard_normal(s)).astype(dtype) for s in shapes]


def _attention(index, leaves, rate, variant, lam=1.0, capture=None):
    """upsample_attention of the _attention_arrays layout."""
    cloud, q, keys, values, *rest = leaves
    heads, seed = rest[6:6 + rate], rest[6 + rate:] or None
    return ad.upsample_attention(cloud, q, keys, values, index, rest[:4], rest[4:6], heads,
                                 seed, variant, lam, capture=capture)


# n, k, C and the rates run; "stage3" is benchmark_16k's last stage, 16 tiles
_TILINGS = {"real": (330, 16, 16, (1, 3)), "small": (50, 3, 5, (1, 3)),
            "stage3": (2048, 16, 128, (2,))}


@pytest.mark.parametrize("dtype, variant, width, tiling", [
    *itertools.product([np.float32, np.float64], ad.ATTENTION_VARIANTS,
                       ["channel", "point"], ["real", "small"]),
    (np.float32, "softmax", "channel", "stage3"),
])
def test_attention_head_is_bitwise_the_unfused_records(dtype, variant, width, tiling,
                                                       monkeypatch):
    # upsample_attention at rate 1 without the seed term, as in the encoder,
    # and at rate 3 (2 at the stage-3 shape) with it, against the plain
    # unfused chain: the weights, the output rows stacked head-fastest and
    # every gradient, bit for bit, taped and untaped
    n, k, c, rates = _TILINGS[tiling]
    if tiling == "small":
        monkeypatch.setattr(ad, "_TILE_ROWS", 48)
    tiles = [b - a for a, b in ad._tiles(n, k)]
    assert len(tiles) >= 3  # several tiles, the last ragged but at the stage-3 shape
    assert tiles[-1] != tiles[0] or tiling == "stage3"
    for rate in rates:
        rng = np.random.default_rng(45)
        index, arrays = _attention_arrays(rng, rate, n, k, c, c if width == "channel" else 1,
                                          dtype, seeded=rate > 1)
        g = rng.standard_normal((n * rate, c)).astype(dtype)
        want_weights, want_out, want_grads = _plain_attention(arrays, index, rate, variant,
                                                              1.7, g)
        leaves = [leaf(a, dtype) for a in arrays]
        captured = []
        with ad.Tape() as tape:
            out = _attention(index, leaves, rate, variant, 1.7, captured)
            assert len(tape) == 1
            loss = ad.reduce_sum(ad.mul(out, ad.constant(g)))
        tape.backward(loss)
        got = [w.data for w in captured] + [out.data] + [t.grad for t in leaves]
        assert _bits(*got) == _bits(*want_weights, want_out, *want_grads)
        untaped = _attention(index, [ad.Tensor(a) for a in arrays], rate, variant, 1.7)
        assert _bits(untaped.data) == _bits(want_out)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_attention_heads_sharing_inputs_accumulate_in_reverse_order(dtype, monkeypatch):
    # three heads of one record read the same value and hidden rows, and q
    # and values carry gradients from an earlier pass; magnitudes over six
    # decades make the order of the sums show. The record sums its heads'
    # value-row and hidden gradients from the last head to the first, and
    # the tape adds the q and values gradients to the earlier ones
    monkeypatch.setattr(ad, "_TILE_ROWS", 48)
    rng = np.random.default_rng(46)
    n, k, c, rate = 50, 3, 5, 3
    scale = 10.0 ** rng.uniform(-3, 3, c)
    index, arrays = _attention_arrays(rng, rate, n, k, c, c, dtype)
    g = (scale * rng.standard_normal((n * rate, c))).astype(dtype)
    prior = {i: (scale * rng.standard_normal(arrays[i].shape)).astype(dtype) for i in (1, 3)}
    leaves = [leaf(a, dtype) for a in arrays]
    for i, p in prior.items():
        leaves[i].grad = p.copy()
    with ad.Tape() as tape:
        loss = ad.reduce_sum(ad.mul(_attention(index, leaves, rate, "softmax"), ad.constant(g)))
    tape.backward(loss)
    plain = functools.partial(_plain_attention, arrays, index, rate, "softmax", 1.0, g)
    reverse = plain()[2]
    forward = plain(order=range(rate))[2]
    for i in prior:  # q, values
        assert not np.array_equal(reverse[i], forward[i])
        assert _bits(leaves[i].grad) == _bits(prior[i] + reverse[i])


@pytest.mark.parametrize("tile_rows", [2048, 48])
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 16, 17, 40])
def test_attention_tiles_cover_the_points_on_16_row_boundaries(k, tile_rows, monkeypatch):
    monkeypatch.setattr(ad, "_TILE_ROWS", tile_rows)
    (_, size), *_ = ad._tiles(10**6, k)
    assert size * k <= max(tile_rows, 16 * k)
    for n in (1, 5, size - 1, size, size + 1, 3 * size + 1, 3 * size + size // 2):
        bounds = list(ad._tiles(n, k))
        assert [a for a, _ in bounds[1:]] == [b for _, b in bounds[:-1]]
        assert bounds[0][0] == 0 and bounds[-1][1] == n
        assert all(a * k % 16 == 0 for a, _ in bounds)
        assert len(bounds) == 1 or all((b - a) * k > 1 for a, b in bounds)  # no one-row GEMM


@pytest.mark.parametrize("width", ["channel", "point"])
@pytest.mark.parametrize("k", [16, 4])
@pytest.mark.parametrize("c, dtype", [
    (128, np.float32), (64, np.float32), (64, np.float64), (6, np.float64),
], ids=["16k", "desk", "desk-float64", "micro"])
def test_row_tiles_of_the_head_gemms_are_rows_of_the_full_gemms(c, dtype, k, width):
    # what makes upsample_attention bitwise: each GEMM it runs per tile gives
    # the bits of the same rows of the GEMM over all n*k rows
    rng = np.random.default_rng(47)
    n = 4800 // k
    w = c if width == "channel" else 1
    w0 = rng.standard_normal((c, c)).astype(dtype)
    w1 = rng.standard_normal((c, w)).astype(dtype)
    p0 = rng.standard_normal((3, c)).astype(dtype)
    pairs = [
        (rng.standard_normal((n * k, c)).astype(dtype), w0),  # x @ w0, and the C-wide layers
        (rng.standard_normal((n * k, c)).astype(dtype), w1),  # h @ w1
        (rng.standard_normal((n * k, w)).astype(dtype), w1.T),  # gr @ w1.T
        (rng.standard_normal((n * k, c)).astype(dtype), w0.T),  # gz @ w0.T
        (rng.standard_normal((n * k, 3)).astype(dtype), p0),  # rel @ p0
        (rng.standard_normal((n * k, c)).astype(dtype), p0.T),  # ghp @ p0.T
    ]
    bounds = list(ad._tiles(n, k))
    assert len(bounds) >= 2
    for rows, weight in pairs:
        tiles = [rows[a * k:b * k] @ weight for a, b in bounds]
        assert _bits(np.concatenate(tiles)) == _bits(rows @ weight)


def test_attention_head_rejects_misfit_shapes_dtypes_and_modes():
    index, arrays = _attention_arrays(np.random.default_rng(48), 1, 4, 3, 4, 4, np.float64)
    fits = [ad.Tensor(a) for a in arrays]
    head = fits[10]

    def call(at=None, misfit=None, variant="softmax", lam=1.0, table=index):
        # the misfit head second, after one that fits
        t = list(fits)
        if at is not None:
            t[at] = misfit
        return ad.upsample_attention(*t[:4], table, t[4:8], t[8:10], [head, t[10]], t[11:],
                                     variant, lam)

    call()  # fits
    zeros = lambda *shape: ad.Tensor(np.zeros(shape))
    misfits = [
        (0, zeros(4, 2)),  # cloud not (n, 3)
        (2, zeros(5, 4)),  # keys not n rows
        (3, zeros(4, 3)),  # values not C wide
        (4, zeros(2, 4)),  # position encoder not on 3 coordinates
        (6, zeros(4, 3)),  # position term not C wide
        (7, zeros(5)),  # its bias misfits its weight
        (8, zeros(3, 4)),  # w0 rows != C
        (9, zeros(5)),  # b0 != hidden width
        (10, zeros(5, 4)),  # head rows != hidden width
        (10, zeros(4)),  # head not a matrix
        (10, zeros(4, 2)),  # W not C or 1
        (11, zeros(3, 4)),  # u not n rows
        (12, zeros(3)),  # d0 does not fit u
        (13, zeros(4, 2)),  # seed term not C wide
    ]
    for at, misfit in misfits:
        with pytest.raises(ShapeError, match="upsample_attention"):
            call(at, misfit)
    for table in (index[:, :0], index[:3], index.reshape(-1), index.astype(np.float64)):
        with pytest.raises(ShapeError, match="upsample_attention"):
            call(table=table)
    for bad in (4, -1):
        with pytest.raises(IndexError, match="upsample_attention"):
            call(table=np.full_like(index, bad))
    with pytest.raises(ShapeError, match="0 heads"):
        ad.upsample_attention(*fits[:4], index, fits[4:8], fits[8:10], [])
    for at in (0, 3, 4, 9, 10, 11, 12, 13):
        f32 = ad.Tensor(fits[at].data, dtype=np.float32)
        with pytest.raises(ContractError, match="dtypes"):
            call(at, f32)
    with pytest.raises(ContractError, match="variant"):
        call(variant="hardmax")
    for lam in (math.inf, math.nan, 0.0):
        with pytest.raises(ContractError, match="finite lam"):
            call(variant="scaled", lam=lam)


def _kept_arrays(fn):
    """Every numpy array an adjoint closure holds, by id: in its cells, in the
    closures of the functions it holds and in the lists and tuples it holds."""
    kept, seen, todo = {}, set(), [fn]
    while todo:
        obj = todo.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            kept[id(obj)] = obj
        elif isinstance(obj, (list, tuple)):
            todo.extend(obj)
        elif callable(obj) and getattr(obj, "__closure__", None):
            todo.extend(cell.cell_contents for cell in obj.__closure__)
        assert not isinstance(obj, ad.Tensor)  # no Tensor: its grad would live on
    return list(kept.values())


@pytest.mark.parametrize("variant", ad.ATTENTION_VARIANTS)
def test_taped_attention_keeps_point_rows_and_statistics(variant):
    # the record keeps what its adjoint rebuilds the pair rows from: the
    # inputs' own (n, ·) and weight arrays, the neighbor table, and each
    # head's max and sum (log-sum for log) over the neighbors
    rate, n, k, c = 2, 40, 16, 8
    index, arrays = _attention_arrays(np.random.default_rng(49), rate, n, k, c, c, np.float32)
    with ad.Tape() as tape:
        _attention(index, [leaf(a, np.float32) for a in arrays], rate, variant, 2.0)
    (record,) = tape.records
    kept = _kept_arrays(record.backfn)
    assert all(any(a is b for b in kept) for a in arrays)
    assert [a.base for a in kept if a.dtype.kind != "f"] == [index]
    closure = dict(zip(record.backfn.__code__.co_freevars,
                       (cell.cell_contents for cell in record.backfn.__closure__)))
    stats = closure["stats"]
    others = [a for a in kept if not any(a is b for b in [*arrays, *sum(stats, [])])]
    assert [a.base for a in others] == [index]  # nothing else
    per_head = [] if variant == "none" else [(n, 1, c)] * 2
    assert [[a.shape for a in s] for s in stats] == [per_head] * rate
    rows = _plain_pair_rows(arrays, index, rate)
    for head, s in zip(rows["heads"], stats):
        if variant != "none":
            r = (rows["h"] @ head).reshape(n, k, c) * (2.0 if variant == "scaled" else 1.0)
            top = r.max(axis=1, keepdims=True)
            total = np.exp(r - top).sum(axis=1, keepdims=True)
            np.testing.assert_allclose(s[0], top, rtol=1e-6)
            np.testing.assert_allclose(s[1], np.log(total) if variant == "log" else total,
                                       rtol=1e-5, atol=1e-6)


def test_stage3_attention_record_keeps_no_pair_rows():
    # the memory property at benchmark_16k's stage 3 (n 2,048, k 16, C 128,
    # rate 8): no float array the record keeps has n*k rows, and the only
    # array with n*k entries is the integer neighbor table. What it keeps,
    # 21.0 MiB (five (n, ·) inputs, 16 (n, 1, C) statistics, the table and
    # the weights), is less than two (n*k, C) float32 blocks
    rate, n, k, c = 8, 2048, 16, 128
    index, arrays = _attention_arrays(np.random.default_rng(52), rate, n, k, c, c, np.float32)
    with ad.Tape() as tape:
        _attention(index, [leaf(a, np.float32) for a in arrays], rate, "softmax")
    kept = _kept_arrays(tape.records[0].backfn)
    assert all(a.shape[0] != n * k for a in kept if a.dtype.kind == "f")
    assert [(a.size, a.base is index) for a in kept if a.dtype.kind != "f"] == [(n * k, True)]
    assert sum(a.nbytes for a in kept) < 2 * n * k * c * 4


# --- backward --------------------------------------------------------------


def test_backward_sum_of_squares():
    x = leaf([1.0, 2.0, 3.0])
    run_backward(lambda x: ad.reduce_sum(ad.mul(x, x)), x)
    np.testing.assert_allclose(x.grad, [2.0, 4.0, 6.0], atol=1e-15)


def test_backward_mean():
    x = leaf(np.arange(4.0))
    run_backward(ad.reduce_mean, x)
    np.testing.assert_allclose(x.grad, [0.25] * 4, atol=1e-15)


def test_backward_requires_scalar():
    x = leaf(np.ones(3))
    with ad.Tape() as tape:
        y = ad.mul(x, 2.0)
    with pytest.raises(ContractError):
        tape.backward(y)


def test_backward_repeated_operand():
    # the same tensor feeding both slots of mul must accumulate both terms
    x = leaf([3.0])
    run_backward(lambda x: ad.reduce_sum(ad.mul(x, x)), x)
    np.testing.assert_allclose(x.grad, [6.0])


def test_backward_unreachable_gets_zeros():
    x = leaf(np.ones(3))
    y = leaf(np.ones(3))
    with ad.Tape() as tape:
        out = ad.reduce_sum(ad.mul(x, 2.0))
        ad.mul(y, 3.0)  # recorded but not reachable from out
    tape.backward(out)
    np.testing.assert_array_equal(y.grad, np.zeros(3))


def test_leaf_grads_accumulate_across_backwards():
    x = leaf([1.0, 2.0])
    for _ in range(2):
        with ad.Tape() as tape:
            out = ad.reduce_sum(ad.mul(x, x))
        tape.backward(out)
    np.testing.assert_allclose(x.grad, [4.0, 8.0])


def test_backward_bitwise_deterministic():
    rng = np.random.default_rng(7)
    data = rng.standard_normal((8, 5))
    grads = []
    for _ in range(2):
        x = leaf(data.copy())
        w = leaf(rng.standard_normal((5, 4)))  # same stream restart below
        rng = np.random.default_rng(7)
        rng.standard_normal((8, 5))
        values = ad.Tensor(np.linspace(-1.0, 1.0, 32).reshape(8, 4))
        eye, zeros = ad.Tensor(np.eye(4)), ad.Tensor(np.zeros(4))
        pos = (ad.Tensor(np.ones((3, 4))), zeros, eye, zeros)
        index = (np.arange(8)[:, None] + np.arange(3)) % 8

        def attend(x, w):
            q = ad.linear(x, w)
            return ad.upsample_attention(ad.Tensor(np.zeros((8, 3))), q, q, values, index,
                                         pos, (eye, zeros), [eye])

        run_backward(lambda x, w: ad.reduce_sum(attend(x, w)), x, w)
        grads.append(x.grad.copy())
    assert np.array_equal(grads[0], grads[1])


# --- the tape is consumed by backward ---------------------------------------


def test_backward_consumes_the_tape():
    x = leaf([1.0, 2.0, 3.0])
    with ad.Tape() as tape:
        squares = ad.mul(x, x)
        out = ad.reduce_sum(squares)
    tape.backward(out)
    assert len(tape) == 0
    assert squares.grad is None and out.grad is None  # intermediates released
    np.testing.assert_array_equal(x.grad, [2.0, 4.0, 6.0])
    with pytest.raises(ContractError, match="empty tape"):
        tape.backward(out)


@pytest.mark.parametrize(
    "op", [ad.add, lambda a, b: ad.concat([a, b])], ids=["add", "concat"]
)
def test_inputs_of_one_record_get_grads_that_do_not_share_memory(op):
    # both adjoints hand back views of one gradient; only one input may own it
    a, b = leaf(np.ones(3)), leaf(np.ones(3))
    with ad.Tape() as tape:
        joined = op(a, b)
        out = ad.reduce_sum(ad.mul(joined, 3.0))
    tape.backward(out)
    assert joined.grad is None
    assert not np.shares_memory(a.grad, b.grad)
    np.testing.assert_array_equal(a.grad, [3.0, 3.0, 3.0])
    np.testing.assert_array_equal(b.grad, [3.0, 3.0, 3.0])


def test_add_of_a_tensor_to_itself_gives_exactly_two():
    x = leaf([0.1, -2.5, 7.0])
    with ad.Tape() as tape:
        doubled = ad.add(x, x)
        out = ad.reduce_sum(doubled)
    tape.backward(out)
    assert doubled.grad is None
    np.testing.assert_array_equal(x.grad, [2.0, 2.0, 2.0])


def _rule_case(name, rng):
    """The op of case ``name`` as a function of its inputs, the input arrays
    and the positions of the inputs made constants."""
    if name.startswith("attention"):
        rate, seeded, constants = {
            "attention_cloud": (1, False, {0}),  # the encoder's constant cloud
            "attention_q": (2, True, {1}),
            "attention_unseeded": (2, False, {3}),
        }[name]
        index, arrays = _attention_arrays(rng, rate, 40, 3, 4, 4, np.float64, seeded)
        return (lambda *xs: _attention(index, xs, rate, "softmax")), arrays, constants
    x, y, z = (rng.standard_normal(shape) for shape in ((6, 4), (6, 4), (6, 2)))
    w, b, index = rng.standard_normal((4, 3)), rng.standard_normal(3), rng.integers(0, 6, 12)
    return {
        "add": (ad.add, [x, y], {1}),
        "mul": (ad.mul, [x, y], {0}),
        "linear": (ad.linear, [x, w, b], {0}),  # set abstraction 1's constant rows
        "linear_relu": (ad.linear_relu, [x, w, b], {0}),
        "concat": (lambda *xs: ad.concat(xs, axis=1), [x, y, z], {1}),
        "neighbor_diff": (lambda c, o: ad.neighbor_diff(c, o, index, 2), [x, y], {1}),
    }[name]


@pytest.mark.parametrize("name", [
    "add", "mul", "linear", "linear_relu", "concat", "neighbor_diff",
    "attention_cloud", "attention_q", "attention_unseeded",
])
def test_a_constant_input_gets_no_grad_and_changes_no_other(name):
    # every adjoint returns a gradient for every input; backward drops a
    # constant's, and the other inputs get the bits of an all-leaf run
    fn, arrays, constants = _rule_case(name, np.random.default_rng(7))
    runs = []
    for made_constant in (set(), constants):
        inputs = [ad.Tensor(a) if i in made_constant else leaf(a) for i, a in enumerate(arrays)]
        with ad.Tape() as tape:
            out = fn(*inputs)
            probe = ad.constant(np.random.default_rng(8).standard_normal(out.shape))
            loss = ad.reduce_sum(ad.mul(out, probe))
        tape.backward(loss)
        runs.append([t.grad for t in inputs])
    for i, (want, got) in enumerate(zip(*runs)):
        if i in constants:
            assert got is None
        else:
            assert _bits(got) == _bits(want)


def test_view_adjoints_accumulate_exactly_over_two_passes():
    # reshape and concat both hand back views: x's first grad is a slice of
    # the gradient of the joined tensor, which the second pass adds into
    x = leaf(np.arange(6.0).reshape(2, 3))
    pad = ad.Tensor(np.zeros((1, 2)))
    weights = ad.Tensor(np.linspace(-1.0, 1.5, 8).reshape(4, 2))
    expected = weights.data[:3].reshape(2, 3)
    for passes in (1, 2):
        with ad.Tape() as tape:
            joined = ad.concat([ad.reshape(x, (3, 2)), pad], axis=0)
            out = ad.reduce_sum(ad.mul(joined, weights))
        tape.backward(out)
        assert len(tape) == 0 and joined.grad is None
        np.testing.assert_array_equal(x.grad, passes * expected)


def test_train_step_backward_frees_memory_as_it_goes(monkeypatch):
    # tracemalloc bytes on a desk step. The start is what the tape keeps of
    # the forward pass: 52.2 MB when records held every output and closures
    # their input Tensors, 32.9 MB when attention kept its weights, 27.9 MB
    # with a hidden block per head, 26.0 MB with one (n*k, C) hidden block
    # per transformer, 6.9 MB now that each transformer keeps per-point
    # rows only. Backward's own overhead, its peak above the start, stays
    # within 5 MB (3.5 MB now, with the adjoint's tile blocks; 4.6 MB with
    # 2048-row tiles and the full x and values gradients). When its last
    # adjoint has run, it holds little more than the leaf grads (4.5 MB, of
    # which 2.3 MB are the grads); keeping every record to the end would
    # hold the start on top, and every intermediate grad more. The start
    # was 26 MB, so this bound read 0.25 * start (6.5 MB) until the tape
    # shrank below the leaf grads' size.
    config = ModelConfig.desk()
    rng = np.random.default_rng(0)
    partial = rng.standard_normal((config.input_points, 3))
    gt = rng.standard_normal((config.final_points, 3))
    model = CompletionModel(config)
    optimizer = Adam(model)
    traced = {}
    real_backward = ad.Tape.backward

    def measured_backward(self, loss):
        for rec in self.records:
            def traced_adjoint(g, back=rec.backfn):
                grads = back(g)
                traced["after_last"] = tracemalloc.get_traced_memory()[0]
                return grads

            rec.backfn = traced_adjoint
        tracemalloc.reset_peak()
        traced["start"] = tracemalloc.get_traced_memory()[0]
        real_backward(self, loss)
        traced["peak"] = tracemalloc.get_traced_memory()[1]

    monkeypatch.setattr(ad.Tape, "backward", measured_backward)
    tracemalloc.start()
    try:
        run_training(model, [(partial, gt)], 1, optimizer)
    finally:
        tracemalloc.stop()
    assert traced["start"] <= 40e6, traced
    assert traced["peak"] - traced["start"] <= 5e6, traced
    assert traced["after_last"] <= 5e6, traced


def test_desk_tape_counts_the_records_and_bytes_it_computed():
    # perfbench's autodiff.tape_records and tape_mb read len(tape.records)
    # and the sum of r.output.data.nbytes: a record no longer holds its
    # output, yet its node still answers with the bytes the op computed
    config = ModelConfig.desk()
    rng = np.random.default_rng(0)
    partial = rng.standard_normal((config.input_points, 3))
    gt = rng.standard_normal((config.final_points, 3))
    targets = downsample_targets(gt.astype(config.dtype), [config.seed_count, *config.stage_sizes])
    with ad.Tape() as tape:
        _forward_loss(CompletionModel(config), partial, targets)
    assert len(tape.records) == 167
    assert sum(r.output.data.nbytes for r in tape.records) == 9_362_552


# --- what a record keeps ------------------------------------------------------
# a forward value lives while the caller holds it or an adjoint will read it


def _watch_adjoint(tape, refs):
    """Wrap the adjoint of the tape's last record; the list it returns
    gets, when that adjoint runs, whether every weakref in ``refs`` was
    still alive."""
    rec, seen = tape.records[-1], []
    back = rec.backfn

    def watched(g):
        seen.append(all(ref() is not None for ref in refs))
        return back(g)

    rec.backfn = watched
    return seen


@pytest.mark.parametrize("producer", ["neighbor_diff", "gather_rows"])
def test_an_intermediate_no_adjoint_reads_dies_when_the_caller_drops_it(producer):
    rng = np.random.default_rng(50)
    center, other = leaf(rng.standard_normal((4, 3))), leaf(rng.standard_normal((6, 3)))
    index = rng.integers(0, 6, 8)
    with ad.Tape() as tape:
        if producer == "neighbor_diff":
            made = ad.neighbor_diff(center, other, index, 2)
        else:
            made = ad.gather_rows(other, index)
        ref = weakref.ref(made.data)
        out = ad.reduce_sum(ad.add(made, made))  # neither adjoint reads made
        del made
        assert ref() is None
    tape.backward(out)
    # 8 rows of 3 channels, each with gradient 2 from the add
    assert other.grad.sum() == (-48.0 if producer == "neighbor_diff" else 48.0)


@pytest.mark.parametrize("op", ["linear", "linear_relu", "attention_head"])
def test_arrays_an_adjoint_reads_live_until_it_has_run(op):
    # linear keeps its input, linear_relu its input and activation, and
    # upsample_attention its q, keys and values; what no adjoint reads dies
    # at once
    rng = np.random.default_rng(51)
    n, k, c = 5, 4, 3
    base = leaf(rng.standard_normal((n * k, c)))
    w, b = leaf(rng.standard_normal((c, c))), leaf(rng.standard_normal(c))
    with ad.Tape() as tape:
        x = ad.mul(base, 2.0)  # intermediates, held only by this frame
        if op == "attention_head":
            keys, values = ad.mul(base, 3.0), ad.mul(base, 5.0)
            index = rng.integers(0, n * k, (n * k, k))
            out = ad.upsample_attention(ad.Tensor(np.zeros((n * k, 3))), x, keys, values,
                                        index, (w, b, w, b), (w, b), [w])
            kept = [weakref.ref(t.data) for t in (x, keys, values)]
            del keys, values
        else:
            out = getattr(ad, op)(x, w, b)
            kept = [weakref.ref(x.data)]
        seen = _watch_adjoint(tape, kept)
        scaled = ad.mul(out, 3.0)
        dropped = [weakref.ref(scaled.data)]
        (kept if op == "linear_relu" else dropped).append(weakref.ref(out.data))
        loss = ad.reduce_sum(scaled)
        del x, out, scaled
        assert all(ref() is not None for ref in kept)
        assert all(ref() is None for ref in dropped)
    tape.backward(loss)
    assert seen == [True]
    assert all(ref() is None for ref in kept)
    assert base.grad.shape == (n * k, c) and w.grad.shape == (c, c)


def test_a_tensor_made_under_a_closed_tape_is_a_leaf_of_the_next():
    x = leaf([1.0, -2.0, 3.0])
    with ad.Tape():
        y = ad.mul(x, 3.0)
    with ad.Tape() as tape:
        out = ad.reduce_sum(ad.mul(y, y))
    tape.backward(out)
    np.testing.assert_array_equal(y.grad, 2.0 * y.data)
    assert x.grad is None


# --- finite differences for every primitive ---------------------------------


# primitives checked inside a merged registry case: the case, the autodiff
# function, and the call (args, kwargs) that the case must make of it
_MERGED = {
    "add": ("elementwise", "add", lambda a, kw: True),
    "mul": ("elementwise", "mul", lambda a, kw: isinstance(a[1], ad.Tensor)),
    "mul_scalar": ("elementwise", "mul", lambda a, kw: np.isscalar(a[1])),
    "reduce_sum_axis": ("reductions", "reduce_sum", lambda a, kw: kw.get("axis") == 1),
    "reduce_mean_axis": ("reductions", "reduce_mean", lambda a, kw: kw.get("axis") == 0),
    "concat": ("concat_gather", "concat", lambda a, kw: kw.get("axis") == 1),
    "gather_rows": ("concat_gather", "gather_rows", lambda a, kw: len(set(a[1])) < len(a[1])),
}


# one test id per primitive, each running the shipped registry case that
# checks it; criterion 01 runs the whole registry, the composite cases included
@pytest.mark.parametrize("name", [
    "linear_relu", "attention_head_softmax", "attention_head_scaled",
    "attention_head_log", "attention_head_none", "attention_head_pointwise",
    "linear", "max_over_axis", "reshape", "sqrt", "neighbor_sum",
    "neighbor_diff", "neighbor_diff_shared", *_MERGED,
])
def test_primitive_adjoints_match_finite_differences(name, monkeypatch):
    case = name
    if name in _MERGED:
        case, op_name, wanted = _MERGED[name]
        op, calls = getattr(ad, op_name), []

        def counted(*args, **kwargs):
            calls.append(wanted(args, kwargs))
            return op(*args, **kwargs)

        monkeypatch.setattr(ad, op_name, counted)
    [(_, report)] = gradcheck.run_suite([case], tol=1e-4, eps=1e-5)
    assert report.passed, f"{name} ({case}): {report.summary()}"
    if name in _MERGED:
        assert any(calls), f"{case} makes no {name} call of ad.{op_name}"


# --- grad_check harness ------------------------------------------------------


def test_grad_check_linear_relu_positive_inputs():
    x = leaf(np.linspace(0.5, 2.0, 8).reshape(8, 1))
    w, b = leaf([[1.0]]), leaf([0.0])
    report = gradcheck.grad_check(
        lambda x, w, b: ad.reduce_sum(ad.linear_relu(x, w, b)), [x, w, b], tol=1e-6
    )
    assert report.passed
    assert report.max_rel_error < 1e-6


def test_grad_check_fails_a_nan_adjoint():
    def nan_adjoint(x):  # a finite value whose recorded adjoint is NaN
        return ad._emit(x.data * 2.0, [x], lambda g: (g * np.nan,))

    x = leaf(np.linspace(1.0, 2.0, 4))
    report = gradcheck.grad_check(lambda x: ad.reduce_sum(nan_adjoint(x)), [x])
    assert not report.passed and len(report.failures) == 4
    assert report.max_rel_error == math.inf
    assert report.worst[:2] == (0, 0) and math.isnan(report.worst[2])
    assert report.summary().endswith(
        "4 coordinate(s) over tol; worst input 0 coordinate 0: analytic nan, numeric 2"
    )


@pytest.mark.parametrize("bad", [
    {"tol": math.nan}, {"tol": math.inf}, {"tol": -1e-4},
    {"eps": math.nan}, {"eps": math.inf}, {"eps": 0.0},
])
def test_grad_check_needs_finite_tol_and_eps(bad):
    x = leaf(np.ones(3))
    with pytest.raises(ContractError, match="finite"):
        gradcheck.grad_check(lambda x: ad.reduce_sum(ad.mul(x, x)), [x], **bad)


@pytest.mark.parametrize("count", [0, -1])
def test_grad_check_needs_at_least_one_coordinate_per_input(count):
    # 0 checked nothing and passed any adjoint; -1 died inside numpy
    x = leaf(np.ones(3))
    with pytest.raises(ContractError, match=f"max_coords_per_input >= 1, got {count}"):
        gradcheck.grad_check(
            lambda x: ad.reduce_sum(ad.mul(x, x)), [x], max_coords_per_input=count
        )


def test_grad_check_softmax_sum_is_constant():
    # softmax weights sum to one, so a head over all-ones values outputs
    # ones: both the analytic and the numeric gradient vanish (to roundoff)
    x = leaf(np.random.default_rng(3).standard_normal((12, 2)) * 0.1)
    with ad.Tape() as tape:
        out = ad.reduce_sum(_pass_through_head(x, 4))
    tape.backward(out)
    assert np.abs(x.grad).max() < 1e-12
    report = gradcheck.grad_check(lambda x: ad.reduce_sum(_pass_through_head(x, 4)), [x])
    for _, _, analytic, numeric, _ in report.failures:
        assert abs(analytic) < 1e-9 and abs(numeric) < 1e-9


def test_grad_check_perturbs_a_non_contiguous_leaf_in_place():
    # a transposed leaf: reshaping it copies, so the perturbation must go
    # through an index into the leaf itself to reach fn
    x = ad.Tensor(np.random.default_rng(4).standard_normal((4, 3)).T, requires_grad=True)
    assert not x.data.flags.c_contiguous
    probe = ad.constant(np.arange(12.0).reshape(3, 4) - 5.5)
    report = gradcheck.grad_check(lambda x: ad.reduce_sum(ad.mul(ad.mul(x, x), probe)), [x])
    assert report.passed and report.checked == 12
    assert report.max_rel_error < 1e-6


def test_grad_check_flags_with_zero_tolerance():
    x = leaf(np.linspace(1.0, 2.0, 5))
    report = gradcheck.grad_check(lambda x: ad.reduce_sum(ad.mul(x, x)), [x], tol=0.0)
    assert not report.passed and report.failures


def test_grad_check_rejects_float32():
    x = ad.Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
    with pytest.raises(ContractError):
        gradcheck.grad_check(lambda x: ad.reduce_sum(x), [x])


def test_grad_check_nonfinite_raises():
    x = leaf(np.ones(3))

    def fn(x):
        out = ad.reduce_sum(x)
        out.data = np.array(np.inf)
        return out

    with pytest.raises(NumericsError):
        gradcheck.grad_check(fn, [x])


def test_grad_check_restores_the_leaf_when_fn_raises():
    # keep - eps makes the first coordinate negative and sqrt raises; the
    # leaf used to keep the perturbed value
    x = leaf(np.array([2e-6, 1.0]))
    with pytest.raises(NumericsError):
        gradcheck.grad_check(lambda x: ad.reduce_sum(ad.sqrt(x)), [x])
    assert x.data.tolist() == [2e-6, 1.0]


def test_run_suite_of_no_names_runs_no_case():
    # an empty selection used to run every case
    assert gradcheck.run_suite([]) == []


def test_tape_records_only_its_own_thread():
    # the model's parameters require gradients, so a completion running in
    # another thread would land on a tape that were shared between threads
    model = CompletionModel(ModelConfig.micro())
    partial = np.random.default_rng(0).standard_normal((24, 3))
    worker_tapes = []

    def complete_in_worker():
        model.complete(partial)
        with ad.Tape() as tape:  # no nesting error: the main thread's tape is not here
            model.forward(partial)
        worker_tapes.append(len(tape))

    with ad.Tape() as tape:
        worker = threading.Thread(target=complete_in_worker)
        worker.start()
        worker.join(timeout=60)
        with pytest.raises(ContractError, match="do not nest"):
            ad.Tape().__enter__()
    assert not worker.is_alive()
    assert len(tape) == 0
    assert worker_tapes and worker_tapes[0] > 0

"""Engine tests: primitive values, exact adjoints, tape semantics."""

import math
import threading
import tracemalloc

import numpy as np
import pytest

from pointfill import autodiff as ad
from pointfill.errors import ContractError, NumericsError, ShapeError
from pointfill.layers import Mlp2
from pointfill.pipeline import Adam, CompletionModel, ModelConfig, train_step


def leaf(data, dtype=np.float64):
    return ad.tensor(np.asarray(data, dtype=dtype), requires_grad=True)


def run_backward(fn, *inputs):
    with ad.Tape() as tape:
        out = fn(*inputs)
    tape.backward(out)
    return out


# --- values ----------------------------------------------------------------


def test_softmax_uniform_logits():
    out = ad.softmax(ad.tensor([0.0, 0.0, 0.0], dtype=np.float64))
    np.testing.assert_allclose(out.data, [1 / 3, 1 / 3, 1 / 3], rtol=0, atol=1e-15)


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(0)
    x = ad.tensor(rng.standard_normal((6, 9)) * 30)
    out = ad.softmax(x)
    assert (out.data >= 0).all()
    np.testing.assert_allclose(out.data.sum(axis=-1), np.ones(6), atol=1e-6)


def test_linear_identity():
    x = ad.tensor([[1.0, 2.0], [3.0, 4.0]], dtype=np.float64)
    w = ad.tensor(np.eye(2))
    b = ad.tensor(np.zeros(2))
    np.testing.assert_array_equal(ad.linear(x, w, b).data, x.data)


def test_gather_rows_lookup():
    x = ad.tensor([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    out = ad.gather_rows(x, np.array([2, 0]))
    np.testing.assert_array_equal(out.data, [[5.0, 6.0], [1.0, 2.0]])


def test_gather_rows_out_of_range():
    x = ad.tensor(np.zeros((3, 2)))
    with pytest.raises(IndexError):
        ad.gather_rows(x, np.array([3]))


def test_elementwise_shape_mismatch():
    with pytest.raises(ShapeError):
        ad.add(ad.tensor(np.zeros((2, 3))), ad.tensor(np.zeros((3, 2))))
    with pytest.raises(ShapeError):
        ad.mul(ad.tensor(np.zeros(2)), ad.tensor(np.zeros(3)))


def test_dtype_mismatch_rejected():
    a = ad.tensor(np.zeros(3), dtype=np.float32)
    b = ad.tensor(np.zeros(3), dtype=np.float64)
    with pytest.raises(ContractError):
        ad.add(a, b)
    with pytest.raises(ContractError, match="dtypes"):
        ad.linear(ad.tensor(np.zeros((2, 3)), dtype=np.float32),
                  ad.tensor(np.zeros((3, 3)), dtype=np.float32), b)


def test_sqrt_negative_raises():
    with pytest.raises(NumericsError):
        ad.sqrt(ad.tensor([-1.0]))


def test_log_softmax_is_log_of_softmax():
    rng = np.random.default_rng(1)
    x = ad.tensor(rng.standard_normal((4, 5)))
    np.testing.assert_allclose(
        ad.softmax(x, log=True).data, np.log(ad.softmax(x).data), atol=1e-12
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
    rng = np.random.default_rng(40)
    a = (3.0 * rng.standard_normal((5, 16, width))).astype(dtype)
    g = rng.standard_normal((5, 16, width)).astype(dtype)
    x = leaf(a, dtype=dtype)
    with ad.Tape() as tape:
        y = ad.softmax(x, axis=1, log=log)
        out = ad.reduce_sum(ad.mul(y, ad.constant(g)))
    tape.backward(out)
    want_y, want_gx = _numpy_softmax_over_k(a, g, log)
    assert y.data.dtype == dtype and x.grad.dtype == dtype
    assert np.array_equal(y.data, want_y)
    assert np.array_equal(x.grad, want_gx)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_neighbor_sum_width_one_is_bitwise_the_repeated_weights(dtype):
    rng = np.random.default_rng(41)
    w1 = rng.standard_normal((6, 16, 1)).astype(dtype)
    v = rng.standard_normal((6, 16, 5)).astype(dtype)
    g = rng.standard_normal((6, 5)).astype(dtype)
    runs = []
    for w in (w1, np.repeat(w1, 5, axis=2)):
        weights, values = leaf(w, dtype=dtype), leaf(v, dtype=dtype)
        run_backward(
            lambda a, b: ad.reduce_sum(ad.mul(ad.neighbor_sum(a, b), ad.constant(g))),
            weights, values,
        )
        runs.append((ad.neighbor_sum(weights, values).data, weights.grad, values.grad))
    (out1, gw1, gv1), (out_c, gw_c, gv_c) = runs
    assert np.array_equal(out1, out_c)
    assert np.array_equal(out_c, (np.repeat(w1, 5, axis=2) * v).sum(axis=1))
    assert gw1.shape == (6, 16, 1)
    assert np.array_equal(gw1, gw_c.sum(axis=2, keepdims=True))
    assert np.array_equal(gv1, gv_c)


def test_neighbor_sum_rejects_misfit_weights_and_mixed_dtypes():
    values = ad.tensor(np.zeros((4, 3, 5)))
    for shape in [(4, 3, 2), (4, 2, 5), (3, 3, 1), (4, 3), (12, 5)]:
        with pytest.raises(ShapeError, match="neighbor_sum"):
            ad.neighbor_sum(ad.tensor(np.zeros(shape)), values)
    with pytest.raises(ShapeError):
        ad.neighbor_sum(ad.tensor(np.zeros((4, 3, 1))), ad.tensor(np.zeros((12, 5))))
    with pytest.raises(ContractError, match="dtypes"):
        ad.neighbor_sum(ad.tensor(np.zeros((4, 3, 1)), dtype=np.float32), values)


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
    x = ad.tensor(np.zeros((2, 3)))
    with pytest.raises(ShapeError, match="linear_relu"):
        ad.linear_relu(x, ad.tensor(np.zeros((4, 3))), ad.tensor(np.zeros(3)))
    with pytest.raises(ShapeError, match="linear_relu"):
        ad.linear_relu(x, ad.tensor(np.zeros((3, 3))), ad.tensor(np.zeros(2)))
    with pytest.raises(ContractError, match="dtypes"):
        ad.linear_relu(x, ad.tensor(np.zeros((3, 3)), dtype=np.float32),
                       ad.tensor(np.zeros(3)))


def test_taped_mlp2_appends_two_records():
    mlp = Mlp2(np.random.default_rng(0), 3, 5, 4)
    with ad.Tape() as tape:
        mlp(ad.tensor(np.ones((6, 3)), dtype=np.float32))
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
                diff = ad.sub(ad.repeat_rows(center, k), ad.gather_rows(other, idx))
            out = ad.add(
                ad.reduce_sum(ad.mul(diff, ad.constant(g))),
                ad.reduce_sum(ad.mul(center, center)),
            )
        tape.backward(out)
        runs.append(_bits(diff.data, center.grad, other.grad))
    assert runs[0] == runs[1]


def test_neighbor_diff_rejects_misfit_index_shape_and_dtype():
    center, other = ad.tensor(np.zeros((3, 2))), ad.tensor(np.zeros((5, 2)))
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
        ad.neighbor_diff(center, ad.tensor(np.zeros((5, 3))), idx, 2)
    with pytest.raises(ContractError, match="dtypes"):
        ad.neighbor_diff(center, ad.tensor(np.zeros((5, 2)), dtype=np.float32), idx, 2)


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
        run_backward(
            lambda x, w: ad.reduce_sum(
                ad.softmax(ad.linear(x, w, ad.tensor(np.zeros(4))))
            ),
            x,
            w,
        )
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


def test_view_adjoints_accumulate_exactly_over_two_passes():
    # reshape and concat both hand back views: x's first grad is a slice of
    # the gradient of the joined tensor, which the second pass adds into
    x = leaf(np.arange(6.0).reshape(2, 3))
    pad = ad.tensor(np.zeros((1, 2)))
    weights = ad.tensor(np.linspace(-1.0, 1.5, 8).reshape(4, 2))
    expected = weights.data[:3].reshape(2, 3)
    for passes in (1, 2):
        with ad.Tape() as tape:
            joined = ad.concat([ad.reshape(x, (3, 2)), pad], axis=0)
            out = ad.reduce_sum(ad.mul(joined, weights))
        tape.backward(out)
        assert len(tape) == 0 and joined.grad is None
        np.testing.assert_array_equal(x.grad, passes * expected)


def test_train_step_backward_frees_memory_as_it_goes(monkeypatch):
    # the peak while backward runs stays near the memory held when it starts;
    # keeping every record and intermediate grad to the end doubles it
    config = ModelConfig.desk()
    rng = np.random.default_rng(0)
    partial = rng.standard_normal((config.input_points, 3))
    gt = rng.standard_normal((config.final_points, 3))
    model = CompletionModel(config)
    optimizer = Adam(model)
    traced = {}
    real_backward = ad.Tape.backward

    def measured_backward(self, loss):
        tracemalloc.reset_peak()
        traced["start"] = tracemalloc.get_traced_memory()[0]
        real_backward(self, loss)
        traced["peak"] = tracemalloc.get_traced_memory()[1]

    monkeypatch.setattr(ad.Tape, "backward", measured_backward)
    tracemalloc.start()
    try:
        train_step(model, partial, gt, optimizer)
    finally:
        tracemalloc.stop()
    assert traced["peak"] <= 1.1 * traced["start"], traced


# --- finite differences for every primitive ---------------------------------


def _probed(op, probe_shape, rng):
    """Scalarize ``op`` against a fixed random probe (drawn once)."""
    probe = rng.standard_normal(probe_shape)
    return lambda *args: ad.reduce_sum(
        ad.mul(op(*args), ad.constant(probe, like=args[0]))
    )


def _case_add(rng):
    return (lambda a, b: ad.reduce_sum(ad.add(a, b)),
            [leaf(rng.standard_normal((3, 4))), leaf(rng.standard_normal((3, 4)))])


def _case_sub_scalar(rng):
    return (lambda a: ad.reduce_sum(ad.sub(1.5, ad.sub(a, 0.5))),
            [leaf(rng.standard_normal(6))])


def _case_mul(rng):
    return (lambda a, b: ad.reduce_sum(ad.mul(a, b)),
            [leaf(rng.standard_normal((2, 5))), leaf(rng.standard_normal((2, 5)))])


def _case_linear_relu(rng):
    w, b = rng.standard_normal((3, 3)), rng.standard_normal(3)
    # pre-activations at least 0.05 away from the kink
    z = np.sign(rng.standard_normal((4, 3))) * (0.05 + np.abs(rng.standard_normal((4, 3))))
    x = np.linalg.solve(w.T, (z - b).T).T.copy()
    return _probed(ad.linear_relu, (4, 3), rng), [leaf(x), leaf(w), leaf(b)]


def _case_softmax(rng):
    return (_probed(lambda a: ad.softmax(a, axis=1), (3, 4, 2), rng),
            [leaf(rng.standard_normal((3, 4, 2)))])


def _case_log_softmax(rng):
    return (_probed(lambda a: ad.softmax(a, axis=1, log=True), (2, 6, 1), rng),
            [leaf(rng.standard_normal((2, 6, 1)))])


def _case_linear(rng):
    inputs = [
        leaf(rng.standard_normal((4, 2))),
        leaf(rng.standard_normal((2, 3))),
        leaf(rng.standard_normal(3)),
    ]
    return _probed(ad.linear, (4, 3), rng), inputs


def _case_reduce_sum_axis(rng):
    return (_probed(lambda a: ad.reduce_sum(a, axis=1), 3, rng),
            [leaf(rng.standard_normal((3, 5)))])


def _case_reduce_mean_axis(rng):
    return (_probed(lambda a: ad.reduce_mean(a, axis=0), 5, rng),
            [leaf(rng.standard_normal((3, 5)))])


def _case_max_over_axis(rng):
    return (_probed(lambda a: ad.max_over_axis(a, axis=1), 4, rng),
            [leaf(rng.standard_normal((4, 6)))])


def _case_concat(rng):
    return (_probed(lambda a, b: ad.concat([a, b], axis=1), (3, 5), rng),
            [leaf(rng.standard_normal((3, 2))), leaf(rng.standard_normal((3, 3)))])


def _case_gather_rows(rng):
    idx = np.array([1, 1, 0, 3])
    return (_probed(lambda a: ad.gather_rows(a, idx), (4, 2), rng),
            [leaf(rng.standard_normal((4, 2)))])


def _case_neighbor_diff(rng):
    idx = np.array([4, 0, 2, 2, 1, 3])
    return (_probed(lambda a, b: ad.neighbor_diff(a, b, idx, 2), (6, 2), rng),
            [leaf(rng.standard_normal((3, 2))), leaf(rng.standard_normal((5, 2)))])


def _case_neighbor_diff_shared(rng):
    idx = np.array([1, 0, 2, 2, 0, 1])
    return (_probed(lambda a: ad.neighbor_diff(a, a, idx, 2), (6, 2), rng),
            [leaf(rng.standard_normal((3, 2)))])


def _case_reshape(rng):
    op = lambda a: ad.reshape(a, (2, 3, 2))
    return _probed(op, (2, 3, 2), rng), [leaf(rng.standard_normal((2, 6)))]


def _case_sqrt(rng):
    return (lambda a: ad.reduce_sum(ad.sqrt(ad.add(ad.mul(a, a), 0.5))),
            [leaf(rng.standard_normal(8))])


def _case_neighbor_sum(width):
    def build(rng):
        return (_probed(ad.neighbor_sum, (5, 3), rng),
                [leaf(rng.standard_normal((5, 2, width))),
                 leaf(rng.standard_normal((5, 2, 3)))])

    return build


_PRIMITIVE_CASES = {
    "add": _case_add,
    "sub_scalar": _case_sub_scalar,
    "mul": _case_mul,
    "linear_relu": _case_linear_relu,
    "softmax": _case_softmax,
    "log_softmax": _case_log_softmax,
    "linear": _case_linear,
    "reduce_sum_axis": _case_reduce_sum_axis,
    "reduce_mean_axis": _case_reduce_mean_axis,
    "max_over_axis": _case_max_over_axis,
    "concat": _case_concat,
    "gather_rows": _case_gather_rows,
    "neighbor_diff": _case_neighbor_diff,
    "neighbor_diff_shared": _case_neighbor_diff_shared,
    "reshape": _case_reshape,
    "sqrt": _case_sqrt,
    "neighbor_sum_pointwise": _case_neighbor_sum(1),
    "neighbor_sum_channelwise": _case_neighbor_sum(3),
}


@pytest.mark.parametrize("name", sorted(_PRIMITIVE_CASES))
def test_primitive_adjoints_match_finite_differences(name):
    fn, inputs = _PRIMITIVE_CASES[name](np.random.default_rng(hash(name) % 2**32))
    report = ad.grad_check(fn, inputs, eps=1e-5, tol=1e-4)
    assert report.passed, f"{name}: {report.summary()}"


# --- grad_check harness ------------------------------------------------------


def test_grad_check_linear_relu_positive_inputs():
    x = leaf(np.linspace(0.5, 2.0, 8).reshape(8, 1))
    w, b = leaf([[1.0]]), leaf([0.0])
    report = ad.grad_check(
        lambda x, w, b: ad.reduce_sum(ad.linear_relu(x, w, b)), [x, w, b], tol=1e-6
    )
    assert report.passed
    assert report.max_rel_error < 1e-6


def test_grad_check_fails_a_nan_adjoint():
    def nan_adjoint(x):  # a finite value whose recorded adjoint is NaN
        return ad._emit(x.data * 2.0, [x], lambda g: (g * np.nan,))

    x = leaf(np.linspace(1.0, 2.0, 4))
    report = ad.grad_check(lambda x: ad.reduce_sum(nan_adjoint(x)), [x])
    assert not report.passed and len(report.failures) == 4
    assert report.max_rel_error == math.inf
    assert report.worst[:2] == (0, 0) and math.isnan(report.worst[2])


@pytest.mark.parametrize("bad", [
    {"tol": math.nan}, {"tol": math.inf}, {"tol": -1e-4},
    {"eps": math.nan}, {"eps": math.inf}, {"eps": 0.0},
])
def test_grad_check_needs_finite_tol_and_eps(bad):
    x = leaf(np.ones(3))
    with pytest.raises(ContractError, match="finite"):
        ad.grad_check(lambda x: ad.reduce_sum(ad.mul(x, x)), [x], **bad)


def test_grad_check_softmax_sum_is_constant():
    # softmax rows sum to one, so the scalarized output is constant: both
    # the analytic and the numeric gradient vanish (to roundoff)
    x = leaf(np.random.default_rng(3).standard_normal((3, 4)) * 0.1)
    with ad.Tape() as tape:
        out = ad.reduce_sum(ad.softmax(x))
    tape.backward(out)
    assert np.abs(x.grad).max() < 1e-12
    report = ad.grad_check(lambda x: ad.reduce_sum(ad.softmax(x)), [x])
    for _, _, analytic, numeric, _ in report.failures:
        assert abs(analytic) < 1e-9 and abs(numeric) < 1e-9


def test_grad_check_flags_with_zero_tolerance():
    x = leaf(np.linspace(1.0, 2.0, 5))
    report = ad.grad_check(lambda x: ad.reduce_sum(ad.mul(x, x)), [x], tol=0.0)
    assert not report.passed and report.failures


def test_grad_check_rejects_float32():
    x = ad.tensor(np.ones(3, dtype=np.float32), requires_grad=True)
    with pytest.raises(ContractError):
        ad.grad_check(lambda x: ad.reduce_sum(x), [x])


def test_grad_check_nonfinite_raises():
    x = leaf(np.ones(3))

    def fn(x):
        out = ad.reduce_sum(x)
        out.data = np.array(np.inf)
        return out

    with pytest.raises(NumericsError):
        ad.grad_check(fn, [x])


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

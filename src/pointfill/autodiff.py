"""Minimal reverse-mode automatic differentiation over numpy arrays.

The engine provides exactly the primitives the completion model needs; the
finite-difference audit of their adjoints is :mod:`pointfill.gradcheck`.
A :class:`Tensor` wraps a float32 or float64 numpy array. While a
:class:`Tape` is active (used as a context manager), every primitive whose
inputs require gradients appends a record with an exact adjoint closure;
``tape.backward(loss)`` replays the records in reverse and accumulates
``d(loss)/d(leaf)`` into the ``grad`` of every leaf tensor.

Design rules kept deliberately strict so the adjoint code stays auditable:

* elementwise ops take two Tensors of one shape and dtype, nothing else;
  only ``mul`` also takes a real scalar, not a bool, on the right;
* only the linear ops (their bias, over rows), ``neighbor_sum`` (its
  weights, over channels) and ``upsample_attention`` (its biases, over
  rows; width-1 weights, over channels) broadcast, and each owns that
  adjoint;
* an adjoint returns a gradient for every input it was given and reads no
  ``requires_grad`` flag; ``Tape.backward`` drops the gradients of inputs
  that need none. Only recording checks the flag: a primitive is recorded
  when some input needs a gradient;
* without an active tape the primitives just compute values (inference mode).

A record keeps gradient nodes, not values. Its output, and each input that
an earlier record on the same tape produced, is a small node holding a grad
slot, the shape and the dtype; the caller's Tensor points to its node. Other
inputs that need a gradient, the leaves, are kept as the Tensors themselves.
An adjoint closure keeps only the arrays it reads (a linear's input, an
activation, an upsample transformer's per-point inputs and its heads'
softmax statistics, indices), plus shapes and dtypes. So a forward value
lives only while the caller holds it or an adjoint will read it.

A tape is single-use: ``backward`` consumes it. Each record is dropped once
its adjoint has run and each intermediate's gradient once it has been passed
on, so backward frees memory as it goes instead of doubling the tape. Only
leaves, the ``requires_grad`` tensors that no record on the tape produced
(parameters, inputs, and tensors made under an earlier tape), keep a gradient
afterwards; leaf grads accumulate across backward passes until ``grad`` is
cleared. To inspect the gradient of an intermediate value, make that value a
leaf of its own tape.
"""

from __future__ import annotations

import contextvars
import math

import numpy as np

from .errors import ContractError, NumericsError, ShapeError

_ALLOWED_DTYPES = (np.float32, np.float64)


class Tensor:
    """An n-dimensional float array participating in differentiation.

    Attributes:
        data: the numpy value array (float32 or float64).
        requires_grad: whether backward should populate ``grad``.
        grad: numpy array of the same shape, filled by ``Tape.backward``
            for leaves.
        node: the tape node of the record that produced this tensor, or None.
    """

    __slots__ = ("data", "requires_grad", "grad", "node")

    def __init__(self, data, requires_grad=False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in _ALLOWED_DTYPES:
            arr = arr.astype(np.float64)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self.node = None  # set when a tape records the op that made this tensor

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self):
        if self.data.size != 1:
            raise ContractError(f"item() needs a one-element Tensor, got shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.dtype.name}, requires_grad={self.requires_grad})"


def constant(data, like=None):
    """A non-differentiable Tensor, cast to the dtype of ``like`` if given."""
    dtype = like.dtype if isinstance(like, Tensor) else None
    return Tensor(data, requires_grad=False, dtype=dtype)


# ---------------------------------------------------------------------------
# Tape


class _Node:
    """What a tape keeps of a tensor one of its records produced: the grad
    slot backward accumulates into, the shape and the dtype, not the value.

    ``data`` is a zero-stride view of the tensor's shape and dtype, built on
    demand, so ``data.nbytes`` still counts the bytes the op computed.
    """

    __slots__ = ("grad", "shape", "dtype", "key")

    def __init__(self, shape, dtype, key):
        self.grad = None
        self.shape = shape
        self.dtype = dtype
        self.key = key  # the producing tape's key, not the tape: no cycle

    @property
    def data(self):
        return np.broadcast_to(np.zeros((), self.dtype), self.shape)


class _Record:
    __slots__ = ("output", "inputs", "backfn")

    def __init__(self, output, inputs, backfn):
        self.output = output
        self.inputs = inputs
        self.backfn = backfn


# per thread (and per asyncio task): a tape never records another thread's ops
_ACTIVE_TAPE = contextvars.ContextVar("pointfill_active_tape", default=None)


class Tape:
    """Ordered record of executed primitives, in topological order.

    Use as a context manager around the forward computation, then call
    ``backward`` on the scalar result::

        with Tape() as tape:
            loss = fn(x)
        tape.backward(loss)
    """

    def __init__(self):
        self.records = []
        self.key = object()  # marks the nodes of this tape's records

    def __len__(self):
        return len(self.records)

    def __enter__(self):
        if _ACTIVE_TAPE.get() is not None:
            raise ContractError("tapes do not nest; close the active tape first")
        _ACTIVE_TAPE.set(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        _ACTIVE_TAPE.set(None)
        return False

    def backward(self, loss):
        """Accumulate ``d(loss)/d(leaf)`` into every leaf's grad; consumes the tape.

        A leaf is a requires_grad tensor that no record on this tape produced.
        Leaves recorded here but not reachable from ``loss`` get zero grads;
        leaf grads accumulate across backward passes. Each adjoint returns a
        gradient for every input of its record; that of an input which needs
        none (a None input) is dropped. Records are popped as their adjoints
        run and intermediate grads are released once passed on:
        afterwards the tape is empty, intermediates have ``grad is None``, and
        a second backward on this tape raises ContractError. Also raises
        ContractError if ``loss`` is not scalar.
        """
        if not isinstance(loss, Tensor) or loss.size != 1:
            raise ContractError("backward expects a scalar Tensor loss")
        records = self.records
        if not records:
            raise ContractError("backward on an empty tape")
        # record inputs are this tape's nodes, leaf Tensors, or None for
        # inputs that need no gradient
        leaves = {id(t): t for rec in records for t in rec.inputs if isinstance(t, Tensor)}
        seed = _ref(loss, self.key) or loss  # a loss no record produced is its own leaf
        seed.grad = np.ones_like(loss.data)
        while records:
            rec = records.pop()
            gout = rec.output.grad
            if gout is None:
                continue  # not reachable from the loss
            rec.output.grad = None  # gout now has no owner but this loop
            handed_over = False
            for inp, gin in zip(rec.inputs, rec.backfn(gout)):
                if inp is None:
                    continue  # needs no gradient: computed, dropped
                if inp.grad is not None:
                    inp.grad += gin
                elif np.may_share_memory(gin, gout):
                    # pass-through adjoints hand back gout or views of it: the
                    # first input may own that memory, later ones get copies.
                    # Safe while no adjoint gives overlapping views to more
                    # than two inputs (add gives two; add(x, x) is still 2g).
                    inp.grad = np.array(gin) if handed_over else gin
                    handed_over = True
                else:
                    inp.grad = gin
        for t in leaves.values():
            if t.grad is None:
                t.grad = np.zeros_like(t.data)


def _ref(t, key):
    """What a record of the tape with ``key`` keeps of input ``t``: its node
    if that tape produced it, else the Tensor itself (a leaf), or None when
    it needs no gradient."""
    if t.node is not None and t.node.key is key:
        return t.node
    return t if t.requires_grad else None


def _emit(out_data, inputs, backfn):
    """Finalize a primitive: build the output tensor and record the adjoint.

    The record keeps a node for the output and for each intermediate input,
    so it holds no value; ``backfn`` holds the arrays its adjoint reads.
    """
    needs = any(t.requires_grad for t in inputs)
    out = Tensor(out_data, requires_grad=needs)
    if needs and (tape := _ACTIVE_TAPE.get()) is not None:
        key = tape.key
        out.node = _Node(out.data.shape, out.data.dtype, key)
        tape.records.append(_Record(out.node, tuple(_ref(t, key) for t in inputs), backfn))
    return out


def _as_scalar(x, dtype):
    if isinstance(x, (int, float, np.floating, np.integer)) and not isinstance(x, bool):
        return dtype.type(x)
    return None


def _check_same_shape(a, b, op):
    if not (isinstance(a, Tensor) and isinstance(b, Tensor)):
        names = f"{type(a).__name__}, {type(b).__name__}"
        raise ContractError(f"{op}: operands {names} are not both Tensors")
    if a.shape != b.shape:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} differ")
    if a.dtype != b.dtype:
        raise ContractError(f"{op}: dtypes {a.dtype} and {b.dtype} differ")


# ---------------------------------------------------------------------------
# Elementwise and scalar primitives


def add(a, b):
    _check_same_shape(a, b, "add")
    return _emit(a.data + b.data, [a, b], lambda g: (g, g))


def mul(a, b):
    if isinstance(a, Tensor) and (s := _as_scalar(b, a.dtype)) is not None:
        return _emit(a.data * s, [a], lambda g: (g * s,))
    _check_same_shape(a, b, "mul")
    a_data, b_data = a.data, b.data

    def back(g):
        return (g * b_data, g * a_data)

    return _emit(a_data * b_data, [a, b], back)


def sqrt(x):
    """Elementwise square root; inputs must be nonnegative.

    The adjoint denominator is floored at 1e-12 so coincident points in the
    distance losses produce a finite (sub)gradient instead of an infinity.
    """
    if np.any(x.data < 0):
        raise NumericsError("sqrt of a negative value")
    y = np.sqrt(x.data)
    floor = x.dtype.type(1e-12)

    def back(g):
        return (g * 0.5 / np.maximum(y, floor),)

    return _emit(y, [x], back)


# ---------------------------------------------------------------------------
# Linear algebra


def _check_layer(n_in, weight, bias, dtype, op):
    """A weight:(n_in, o) and bias:(o,) (or None) of ``dtype``; returns o."""
    biases = () if bias is None else (bias,)
    if weight.ndim != 2 or any(b.ndim != 1 for b in biases):
        raise ShapeError(f"{op} expects x:(n,i), weight:(i,o), bias:(o,)")
    if weight.shape[0] != n_in or any(b.shape[0] != weight.shape[1] for b in biases):
        raise ShapeError(f"{op}: {n_in} inputs do not fit weight {weight.shape}"
                         + "".join(f", bias {b.shape}" for b in biases))
    if any(t.dtype != dtype for t in (weight, *biases)):  # the in-place bias add would cast
        raise ContractError(f"{op}: dtypes {dtype}, "
                            + ", ".join(str(t.dtype) for t in (weight, *biases)) + " differ")
    return weight.shape[1]


def _check_affine(x, weight, bias, op):
    """Shapes and dtypes of ``x @ weight + bias``: x:(n,i), weight:(i,o), bias:(o,) or None."""
    if x.ndim != 2:
        raise ShapeError(f"{op} expects x:(n,i), weight:(i,o), bias:(o,)")
    _check_layer(x.shape[1], weight, bias, x.dtype, op)


def _affine(x, weight, bias, op):
    """Checked ``x @ weight + bias`` and its adjoint, shared by the linear ops;
    without a bias the adjoint returns two gradients."""
    _check_affine(x, weight, bias, op)
    xd, wd = x.data, weight.data
    out = xd @ wd
    if bias is not None:
        out += bias.data

    def back(g):
        grads = (g @ wd.T, xd.T @ g)
        return grads if bias is None else (*grads, g.sum(axis=0))

    return out, back


def _relu_(out):
    """relu in place; maps NaN and -0.0 to +0.0, as ``np.where(z > 0, z, 0)`` does."""
    np.fmax(out, 0, out=out)  # fmax returns the non-NaN operand: NaN -> 0
    out += 0  # -0.0 -> +0.0
    return out


def linear(x, weight, bias=None):
    """Affine map ``x @ weight + bias`` over rows of a rank-2 input; with no
    bias, the product ``x @ weight``."""
    out, back = _affine(x, weight, bias, "linear")
    return _emit(out, [x, weight] if bias is None else [x, weight, bias], back)


def linear_relu(x, weight, bias):
    """``relu(x @ weight + bias)`` as one record that keeps only the activation.

    relu maps NaN and -0.0 to +0.0, as ``np.where(z > 0, z, 0)`` does. The
    adjoint recovers the mask from the output: y > 0 exactly where z > 0.
    """
    out, affine_back = _affine(x, weight, bias, "linear_relu")
    _relu_(out)

    def back(g):
        return affine_back(g * (out > 0))

    return _emit(out, [x, weight, bias], back)


# ---------------------------------------------------------------------------
# Reductions


def reduce_sum(x, axis=None):
    if axis is not None:
        axis = _check_axis(x, axis)
    out = x.data.sum(axis=axis)
    shape = x.shape

    def back(g):
        if axis is not None:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, shape).copy(),)

    return _emit(out, [x], back)


def reduce_mean(x, axis=None):
    n = x.size if axis is None else x.shape[_check_axis(x, axis)]
    scaled = reduce_sum(x, axis=axis)
    return mul(scaled, 1.0 / n)


def _weighted_sum(w, v):
    """``out[i] = sum_j w[i, j] * v[i, j]`` for (n, k, C) values and (n, k, C)
    or (n, k, 1) weights."""
    return (w * v).sum(axis=1)


def max_over_axis(x, axis):
    """Max reduction over one axis; ties route the gradient to the first max."""
    axis = _check_axis(x, axis)
    out = x.data.max(axis=axis)
    winner = x.data.argmax(axis=axis)
    shape, dtype = x.shape, x.dtype

    def back(g):
        gx = np.zeros(shape, dtype)
        idx = list(np.indices(winner.shape))
        idx.insert(axis, winner)
        gx[tuple(idx)] = g
        return (gx,)

    return _emit(out, [x], back)


def _check_axis(x, axis):
    if not isinstance(axis, int) or not (-x.ndim <= axis < x.ndim):
        raise ShapeError(f"axis {axis} invalid for rank-{x.ndim} tensor")
    return axis % x.ndim


# ---------------------------------------------------------------------------
# Structure


def concat(xs, axis=0):
    xs = list(xs)
    if not xs:
        raise ShapeError("concat of an empty sequence")
    axis = _check_axis(xs[0], axis)
    for x in xs[1:]:
        if x.ndim != xs[0].ndim:
            raise ShapeError("concat: rank mismatch")
        if x.dtype != xs[0].dtype:
            raise ContractError("concat: dtype mismatch")
        for d in range(x.ndim):
            if d != axis and x.shape[d] != xs[0].shape[d]:
                raise ShapeError(f"concat: shapes {x.shape} vs {xs[0].shape} on axis {d}")
    out = np.concatenate([x.data for x in xs], axis=axis)
    offsets = np.cumsum([0] + [x.shape[axis] for x in xs])
    lead = (slice(None),) * axis

    def back(g):
        return [g[(*lead, slice(a, b))] for a, b in zip(offsets, offsets[1:])]

    return _emit(out, xs, back)


def _row_index(index, x, op):
    """``index`` as a 1-d integer array of valid row numbers of ``x``."""
    idx = np.asarray(index)
    if idx.ndim != 1 or idx.dtype.kind not in "iu":
        raise ShapeError(f"{op} expects a 1-d integer index")
    if idx.size and (idx.min() < 0 or idx.max() >= x.shape[0]):
        raise IndexError(f"{op} index out of range for {x.shape[0]} rows")
    return idx


def _scatter_rows(g, idx, shape, dtype):
    """The adjoint of ``x[idx]`` for an array x of ``shape`` and ``dtype``:
    row ``idx[i]`` accumulates ``g[i]``."""
    # scatter-add via bincount over a flattened composite index; much
    # faster than np.add.at and deterministic (bin-order accumulation)
    stride = math.prod(shape[1:])
    flat = (idx[:, None] * stride + np.arange(stride)).ravel() if stride > 1 else idx
    gx = np.bincount(flat, weights=g.ravel(), minlength=math.prod(shape))
    return gx.reshape(shape).astype(dtype, copy=False)


def gather_rows(x, index):
    """Select rows along axis 0: ``out[i] = x[index[i]]``.

    Indices may repeat, which doubles as row duplication; the adjoint
    scatter-adds, so repeated rows accumulate their gradients.
    """
    idx = _row_index(index, x, "gather_rows")
    shape, dtype = x.shape, x.dtype

    def back(g):
        return (_scatter_rows(g, idx, shape, dtype),)

    return _emit(x.data[idx], [x], back)


def neighbor_diff(center, other, index, k):
    """Neighbor differences ``out[i*k + j] = center[i] - other[index[i*k + j]]``.

    Equals ``add(repeat_rows(center, k), mul(gather_rows(other, index), -1.0))``
    as one record, which keeps neither the repeated nor the gathered rows.
    """
    if center.ndim < 1:
        raise ShapeError("neighbor_diff expects at least one axis")
    k = int(k)
    if k < 1:
        raise ShapeError("neighbor_diff needs k >= 1")
    idx = _row_index(index, other, "neighbor_diff")
    n = center.shape[0]
    rows, picked = (n * k, *center.shape[1:]), (idx.size, *other.shape[1:])
    if rows != picked:
        raise ShapeError(f"neighbor_diff: shapes {rows} and {picked} differ")
    if center.dtype != other.dtype:
        raise ContractError(f"neighbor_diff: dtypes {center.dtype} and {other.dtype} differ")
    out = np.repeat(center.data, k, axis=0)
    out -= other.data[idx]
    shape, dtype, rest = other.shape, other.dtype, center.shape[1:]

    def back(g):
        # other first: the order in which the unfused gather and repeat
        # records accumulated, so a shared input sums in the same order
        return (_scatter_rows(-g, idx, shape, dtype), g.reshape(n, k, *rest).sum(axis=1))

    return _emit(out, [other, center], back)


def neighbor_sum(other, index, weights):
    """Weighted sum of gathered rows: ``out[i] = sum_j w[i, j] * other[index[i*k + j]]``.

    ``other`` is (N, C); ``weights`` is a constant (m, k) array, cast to
    other's dtype, and ``index`` holds m*k row numbers of ``other``. Returns
    (m, C) as one record that keeps no gathered rows; the adjoint
    scatter-adds into ``other``.
    """
    if isinstance(weights, Tensor):
        raise ContractError("neighbor_sum: weights are constants; pass an array")
    w = np.asarray(weights, dtype=other.dtype)
    if other.ndim != 2 or w.ndim != 2:
        raise ShapeError(f"neighbor_sum expects (N, C) rows and (m, k) weights, "
                         f"got {other.shape} and {w.shape}")
    idx = _row_index(index, other, "neighbor_sum")
    if idx.size != w.size:
        raise ShapeError(f"neighbor_sum: {idx.size} indices do not fit weights {w.shape}")
    (m, k), c = w.shape, other.shape[1]
    w = w[:, :, None]  # one weight per neighbor, shared by every channel
    shape, dtype = other.shape, other.dtype

    def back(g):
        return (_scatter_rows((g[:, None, :] * w).reshape(m * k, c), idx, shape, dtype),)

    return _emit(_weighted_sum(w, other.data[idx].reshape(m, k, c)), [other], back)


def reshape(x, shape):
    shape = tuple(int(s) for s in shape)
    if math.prod(shape) != x.size:
        raise ShapeError(f"cannot reshape {x.shape} to {shape}")
    before = x.shape

    def back(g):
        return (g.reshape(before),)

    return _emit(x.data.reshape(shape), [x], back)


def repeat_rows(x, r):
    """Duplicate each row ``r`` times in place order: rows i*r..i*r+r-1 copy
    row i. Equivalent to gathering with a repeated index, with a cheaper
    group-sum adjoint."""
    if x.ndim < 1:
        raise ShapeError("repeat_rows expects at least one axis")
    r = int(r)
    if r < 1:
        raise ShapeError("repeat_rows needs r >= 1")
    n, rest = x.shape[0], x.shape[1:]

    def back(g):
        return (g.reshape(n, r, *rest).sum(axis=1),)

    return _emit(np.repeat(x.data, r, axis=0), [x], back)


# ---------------------------------------------------------------------------
# Neighbor attention

#: How an attention head normalizes its logits over the k neighbors of each point.
ATTENTION_VARIANTS = ("softmax", "none", "scaled", "log")

# (Point, neighbor) rows per upsample_attention tile. A tile builds its pair
# rows from the per-point arrays: relative coordinates, position and seed
# hidden rows, x, value rows, hidden rows and each head's logits, and in
# the adjoint their gradients and a flat scatter index. A (1024, 128)
# float32 block is 0.5 MB, so a block is still in a 2 MB per-core L2 when
# the next step reads it, and the adjoint's dozen or so live tile blocks
# stay a few MB; full (n*k, C) blocks at 16k points are 16.8 MB. 2048-row
# tiles ran a stage-3 call no faster and left a desk step's backward 6.4 MB
# above the tape it started from.
_TILE_ROWS = 1024


def check_attention(variant, lam):
    """Raise ContractError unless ``variant`` is one of ATTENTION_VARIANTS and,
    for ``scaled``, ``lam`` is finite and > 0."""
    if variant not in ATTENTION_VARIANTS:
        raise ContractError(
            f"attention variant must be one of {ATTENTION_VARIANTS}, got {variant!r}"
        )
    if variant == "scaled" and not (math.isfinite(lam) and lam > 0):
        raise ContractError(f"scaled attention needs a finite lam > 0, got {lam}")


def _normalize_(r, variant, lam, stats=None, rebuild=False):
    """Normalize (p, k, W) logits over axis 1 in place and return the weights
    (log-weights for ``log``); ``lam`` is the ``scaled`` factor, of r's dtype.

    ``stats``, a pair of (p, 1, W) arrays, receives the max and the sum (the
    log-sum for ``log``) the weights divide by; ``none`` has none. With
    ``rebuild`` it supplies them instead, and the same logits give the same
    weights bit for bit.
    """
    if variant == "none":
        return r
    if variant == "scaled":
        r *= lam
    top, total = stats or (None, None)
    if not rebuild:
        top = np.max(r, axis=1, keepdims=True, out=top)
    r -= top
    if variant == "log":
        if not rebuild:
            total = np.log(np.exp(r).sum(axis=1, keepdims=True), out=total)
        r -= total
    else:
        np.exp(r, out=r)
        if not rebuild:
            total = np.sum(r, axis=1, keepdims=True, out=total)
        r /= total
    return r


def _normalize_back_(g, s, variant, lam):
    """The adjoint of ``_normalize_`` at the weights ``s`` it returned, in
    place in the weights' gradient ``g``."""
    if variant == "log":
        g -= np.exp(s) * g.sum(axis=1, keepdims=True)
    elif variant != "none":
        g -= (g * s).sum(axis=1, keepdims=True)
        g *= s
        if variant == "scaled":
            g *= lam
    return g


def _tiles(n, k):
    """``(start, stop)`` point ranges covering n points of k rows each.

    A tile holds about _TILE_ROWS rows and starts on a 16-row boundary. On
    OpenBLAS, a GEMM over such a row range gives the same bits as those rows
    of the GEMM over all rows; from a 4-row boundary, width-1 products (which
    numpy runs as a gemv) did not. A last tile under half a tile joins the
    one before, so no tile is a one-row GEMM, also a gemv.
    """
    step = 16 // math.gcd(k, 16)
    size = max(1, _TILE_ROWS // (k * step)) * step
    starts = list(range(0, n, size))
    if len(starts) > 1 and n - starts[-1] < size // 2:
        starts.pop()
    return zip(starts, starts[1:] + [n])


def upsample_attention(cloud, q, keys, values, index, pos, hidden, heads, seed=None,
                       variant="softmax", lam=1.0, capture=None):
    """An upsample transformer's neighbourhood terms, shared hidden layer and
    ``rate`` attention heads as one record, computed in point tiles.

    Point i has row p_i of the (n, 3) ``cloud`` and rows q_i, key_i and v_i
    of the (n, C) ``q``, ``keys`` and ``values``; row i of the (n, k)
    integer table ``index`` holds its k neighbours. For a neighbour j of i,

        delta_ij = relu((p_i - p_j) P0 + c0) P1 + c1 + relu(u_i - u_j + d0) S1 + d1
        x_ij = q_i - key_j + delta_ij
        a_hat[i, j, m] = relu(x_ij W0 + b0) H_m

    and row ``i * rate + m`` of the (n * rate, C) output is
    ``sum_j a[i, j, m] * (v_j + delta_ij)``. ``pos = (P0, c0, P1, c1)`` is the
    position encoder, on relative coordinates. ``seed = (u, d0, S1, d1)`` is
    the seed encoder with its first layer hoisted: ``u = s S0`` holds (n, ·)
    rows of the seed features s, as (s_i - s_j) S0 = s_i S0 - s_j S0; without
    ``seed`` there is no seed term. ``hidden = (W0, b0)`` is the layer all
    heads share, and H_m, the m-th (hidden, W) matrix of ``heads``, has
    W = C (one weight per channel) or W = 1 (one per neighbour). Head m's
    logits are normalized over the k neighbours by ``variant`` (``scaled``
    multiplies by ``lam`` before the softmax; ``log`` gives log-weights;
    ``none`` keeps the logits). The heads have no bias: a logit shift that
    every neighbour shares leaves softmax, scaled and log weights unchanged,
    so it would get no gradient, and under ``none`` the model held it at zero.

    Each tile of about _TILE_ROWS (point, neighbour) rows builds its delta,
    x, value and hidden rows from the per-point arrays and runs every head
    on them while they are in cache. Recorded, the op keeps the per-point
    inputs, the neighbour table and each head's (n, 1, W) max and sum (the
    max and log-sum for ``log``, nothing for ``none``), and no (n * k, ·)
    block: the adjoint rebuilds each tile's rows and weights just before it
    reads them, by the forward's GEMMs and in-place steps, so they are the
    forward's bits (as FlashAttention keeps softmax statistics, Dao et al.,
    arXiv 2205.14135). Unrecorded, the op keeps nothing. ``capture``, an
    optional list, receives each head's (n, k, W) weights as a constant Tensor.

    The adjoint works tile by tile, tiles in order. In a tile it runs the
    heads from the last to the first, so the value-row and hidden gradients
    sum in that order; one relu mask and one ``@ W0.T`` give the x gradient
    gx, and delta's is ``gx + gv``. A weight or bias gradient is the sum of
    its per-tile GEMMs or column sums, first tile first. So is each scatter
    of row gradients into the key, value, u and cloud rows: a float64
    ``np.bincount`` per tile, over one flat index per tile and row width.
    A scattered sum is then cast to the dtype, negated for keys, u and the
    cloud, and u and the cloud add the sums over each point's own rows.
    """
    check_attention(variant, lam)
    op = "upsample_attention"
    idx = np.asarray(index)
    if q.ndim != 2 or idx.ndim != 2 or idx.dtype.kind not in "iu" or idx.shape[1] < 1:
        raise ShapeError(f"{op} expects (n, C) queries and an (n, k) integer index, "
                         f"got {q.shape} and {idx.shape}")
    (n, c), k = q.shape, idx.shape[1]
    u = None if seed is None else seed[0]
    shapes = [cloud.shape, keys.shape, values.shape, idx.shape[:1]]
    if shapes != [(n, 3), (n, c), (n, c), (n,)] or (u is not None and u.shape[:1] != (n,)):
        raise ShapeError(f"{op}: cloud, keys, values, index and u rows {shapes} do not "
                         f"fit (n, C) = {(n, c)} queries")
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise IndexError(f"{op} index out of range for {n} rows")
    dtype = q.dtype
    if any(t.dtype != dtype for t in (cloud, keys, values, *(seed or ())[:2])):
        raise ContractError(f"{op}: dtypes of the point rows and seed bias differ")
    widths = [_check_layer(3, *pos[:2], dtype, op), _check_layer(c, *hidden, dtype, op)]
    if seed is not None:
        if u.ndim != 2 or seed[1].shape != u.shape[1:]:
            raise ShapeError(f"{op} expects (n, i) seed rows and an (i,) bias, "
                             f"got {u.shape} and {seed[1].shape}")
        widths.append(_check_layer(u.shape[1], seed[2], seed[3], dtype, op))
    if _check_layer(widths[0], *pos[2:], dtype, op) != c or widths[2:] not in ([], [c]):
        raise ShapeError(f"{op}: the position and seed terms are not {c} wide")
    if not heads:
        raise ShapeError(f"{op}: 0 heads")
    for w1 in heads:
        if _check_layer(widths[1], w1, None, dtype, op) not in (1, c):
            raise ShapeError(f"{op}: head {w1.shape} does not fit {c} channels")
    inputs = [cloud, q, keys, values, *pos, *hidden, *heads, *(seed or ())]
    record = any(t.requires_grad for t in inputs) and _ACTIVE_TAPE.get() is not None
    p, qd, kd, vd = cloud.data, q.data, keys.data, values.data
    p0, c0, p1, c1, w0, b0 = (t.data for t in (*pos, *hidden))
    u, d0, s1, d1 = (None,) * 4 if seed is None else (t.data for t in seed)
    heads = [w1.data for w1 in heads]
    rate, nbrs, lam = len(heads), idx.reshape(-1), dtype.type(lam)

    def tile_rows(a, b):
        """The neighbour indices of points a..b and their (point, neighbour)
        rows: relative coordinates, position and seed hidden rows (after the
        relu), x, the value rows as (b - a, k, C) and the shared hidden rows."""
        nb = nbrs[a * k:b * k]
        rel = np.repeat(p[a:b], k, axis=0)
        rel -= p[nb]
        hp = rel @ p0
        hp += c0
        delta = _relu_(hp) @ p1
        delta += c1
        hs = None
        if u is not None:
            hs = np.repeat(u[a:b], k, axis=0)
            hs -= u[nb]
            hs += d0
            term = _relu_(hs) @ s1
            term += d1
            delta += term
        x = np.repeat(qd[a:b], k, axis=0)
        x -= kd[nb]
        x += delta
        v = vd[nb]
        v += delta
        h = x @ w0
        h += b0
        return nb, rel, hp, hs, x, v.reshape(b - a, k, c), _relu_(h)

    out = np.empty((n, rate, c), dtype)
    # each head's max and sum (log-sum for log) over the neighbours
    stats = [[np.empty((n, 1, w1.shape[1]), dtype) for _ in range(2)]
             if record and variant != "none" else [] for w1 in heads]
    weights = [None if capture is None else np.empty((n, k, w1.shape[1]), dtype)
               for w1 in heads]
    for a, b in _tiles(n, k):
        v, h = tile_rows(a, b)[-2:]
        for m, w1 in enumerate(heads):
            kept = None if weights[m] is None else weights[m][a:b].reshape(len(h), -1)
            r = np.matmul(h, w1, out=kept).reshape(b - a, k, -1)
            s = _normalize_(r, variant, lam, [t[a:b] for t in stats[m]])
            out[a:b, m] = _weighted_sum(s, v)
    if capture is not None:
        capture.extend(Tensor(w) for w in weights)

    # input positions: cloud 0, q 1, keys 2, values 3, pos 4-7, hidden 8-9,
    # heads from 10, then u, d0, S1 and d1
    heads_at, u_at, count = 10, 10 + rate, len(inputs)  # the closure keeps no input

    def back(g):
        nonlocal stats
        g = g.reshape(n, rate, c)
        grads = [None] * count
        grads[1] = np.empty_like(qd)
        scattered, own = {}, {}  # float64 scatter sums; per-point sums of cloud and u

        def add(i, part):  # a weight or bias gradient sums its tiles' parts
            if grads[i] is None:
                grads[i] = part
            else:
                grads[i] += part

        def head_back(m, a, b, h, v, gv):
            # head m's adjoint on the tile of points a..b: writes its value-row
            # gradient (the last head) or adds it, adds its head gradient and
            # returns its hidden gradient; a function of its own so its blocks
            # die before the next head's are made
            gm = g[a:b, m][:, None, :]  # broadcast over the neighbours, no copy
            s = _normalize_((h @ heads[m]).reshape(b - a, k, -1), variant, lam,
                            [t[a:b] for t in stats[m]], rebuild=True)
            if m == rate - 1:
                np.multiply(gm, s, out=gv)
            else:
                gv += gm * s
            gs = gm * v  # the weights' gradient; one weight per neighbour sums it
            if s.shape[2] == 1:
                gs = gs.sum(axis=2, keepdims=True)
            gr = _normalize_back_(gs, s, variant, lam).reshape(len(h), -1)
            add(heads_at + m, h.T @ gr)
            return gr @ heads[m].T

        def tile_back(a, b):
            nb, rel, hp, hs, x, v, h = tile_rows(a, b)
            flat = {}

            def scatter(i, rows, center=False):
                # row nb[r] of input i gets row r of ``rows``; for the cloud
                # and u, point a + r // k also gets it, as the pair's centre
                width = rows.shape[1]
                if width not in flat:
                    flat[width] = (nb[:, None] * width + np.arange(width)).ravel()
                part = np.bincount(flat[width], weights=rows.ravel(), minlength=n * width)
                if i in scattered:
                    scattered[i] += part
                else:
                    scattered[i] = part
                if center:
                    if i not in own:
                        own[i] = np.empty((n, width), dtype)
                    np.sum(rows.reshape(b - a, k, width), axis=1, out=own[i][a:b])

            gv = np.empty_like(v)
            gh = head_back(rate - 1, a, b, h, v, gv)
            for m in reversed(range(rate - 1)):  # the last head first
                gh += head_back(m, a, b, h, v, gv)
            del v
            gv = gv.reshape(len(nb), c)
            scatter(3, gv)
            gh *= h > 0  # the one relu mask
            del h
            add(8, x.T @ gh)
            add(9, gh.sum(axis=0))
            del x
            gx = gh @ w0.T
            del gh
            np.sum(gx.reshape(b - a, k, c), axis=1, out=grads[1][a:b])
            scatter(2, gx)
            gd = gx
            gd += gv
            del gv
            add(6, hp.T @ gd)
            add(7, gd.sum(axis=0))
            ghp = gd @ p1.T
            ghp *= hp > 0
            add(4, rel.T @ ghp)
            add(5, ghp.sum(axis=0))
            scatter(0, ghp @ p0.T, center=True)
            del ghp
            if u is None:
                return
            add(u_at + 2, hs.T @ gd)
            add(u_at + 3, gd.sum(axis=0))
            ghs = gd @ s1.T
            ghs *= hs > 0
            add(u_at + 1, ghs.sum(axis=0))
            scatter(u_at, ghs, center=True)

        for a, b in _tiles(n, k):
            tile_back(a, b)
        for i, total in scattered.items():
            grads[i] = (total if i == 3 else -total).reshape(n, -1).astype(dtype, copy=False)
            if i in own:
                grads[i] += own[i]
        stats = None  # the tape is single-use: drop what it kept
        return grads

    return _emit(out.reshape(n * rate, c), inputs, back)

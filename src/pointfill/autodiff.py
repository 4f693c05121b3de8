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
  weights, over channels) and ``upsample_attention`` (width-1 weights,
  over channels) broadcast, and each owns that adjoint;
* without an active tape the primitives just compute values (inference mode).

A record keeps gradient nodes, not values. Its output, and each input that
an earlier record on the same tape produced, is a small node holding a grad
slot, the shape and the dtype; the caller's Tensor points to its node. Other
inputs that need a gradient, the leaves, are kept as the Tensors themselves.
An adjoint closure keeps only the arrays it reads (a linear's input, an
activation, each attention kernel's hidden block and weights, indices), plus shapes, dtypes
and ``requires_grad`` flags. So a forward value lives only while the caller
holds it or an adjoint will read it.

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
        leaf grads accumulate across backward passes. Records are popped as
        their adjoints run and intermediate grads are released once passed on:
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
                if gin is None:
                    continue
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


# A single-input op is recorded only when its input needs a gradient, so its
# adjoint need not check the flag.


def add(a, b):
    _check_same_shape(a, b, "add")
    needs_a, needs_b = a.requires_grad, b.requires_grad

    def back(g):
        return (g if needs_a else None, g if needs_b else None)

    return _emit(a.data + b.data, [a, b], back)


def sub(a, b):
    _check_same_shape(a, b, "sub")
    needs_a, needs_b = a.requires_grad, b.requires_grad

    def back(g):
        return (g if needs_a else None, -g if needs_b else None)

    return _emit(a.data - b.data, [a, b], back)


def mul(a, b):
    if isinstance(a, Tensor) and (s := _as_scalar(b, a.dtype)) is not None:
        return _emit(a.data * s, [a], lambda g: (g * s,))
    _check_same_shape(a, b, "mul")
    a_data, b_data = a.data, b.data
    needs_a, needs_b = a.requires_grad, b.requires_grad

    def back(g):
        return (g * b_data if needs_a else None, g * a_data if needs_b else None)

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


def _check_affine(x, weight, bias, op):
    """Shapes and dtypes of ``x @ weight + bias``: x:(n,i), weight:(i,o), bias:(o,)."""
    if x.ndim != 2 or weight.ndim != 2 or bias.ndim != 1:
        raise ShapeError(f"{op} expects x:(n,i), weight:(i,o), bias:(o,)")
    if x.shape[1] != weight.shape[0] or weight.shape[1] != bias.shape[0]:
        raise ShapeError(
            f"{op}: x {x.shape} incompatible with weight {weight.shape}, bias {bias.shape}"
        )
    if not x.dtype == weight.dtype == bias.dtype:  # the in-place bias add would cast
        raise ContractError(f"{op}: dtypes {x.dtype}, {weight.dtype}, {bias.dtype} differ")


def _affine(x, weight, bias, op):
    """Checked ``x @ weight + bias`` and its adjoint, shared by the linear ops."""
    _check_affine(x, weight, bias, op)
    xd, wd = x.data, weight.data
    needs_x, needs_w, needs_b = x.requires_grad, weight.requires_grad, bias.requires_grad
    out = xd @ wd
    out += bias.data

    def back(g):
        gx = g @ wd.T if needs_x else None
        gw = xd.T @ g if needs_w else None
        gb = g.sum(axis=0) if needs_b else None
        return (gx, gw, gb)

    return out, back


def _relu_(out):
    """relu in place; maps NaN and -0.0 to +0.0, as ``np.where(z > 0, z, 0)`` does."""
    np.fmax(out, 0, out=out)  # fmax returns the non-NaN operand: NaN -> 0
    out += 0  # -0.0 -> +0.0
    return out


def linear(x, weight, bias):
    """Affine map ``x @ weight + bias`` over rows of a rank-2 input."""
    out, back = _affine(x, weight, bias, "linear")
    return _emit(out, [x, weight, bias], back)


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


def _weighted_sum_back(g, w, v, gw_out, gv_out=None):
    """The adjoint of ``_weighted_sum``, written into ``gw_out`` and, when
    given, ``gv_out``; returns ``gw_out``."""
    g = g[:, None, :]  # broadcast over the neighbors, no copy
    if w.shape[2] == 1:
        np.sum(g * v, axis=2, keepdims=True, out=gw_out)
    else:
        np.multiply(g, v, out=gw_out)
    if gv_out is not None:
        np.multiply(g, w, out=gv_out)
    return gw_out


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
    needs = [x.requires_grad for x in xs]

    def back(g):
        grads = []
        sl = [slice(None)] * g.ndim
        for i, need in enumerate(needs):
            if need:
                sl[axis] = slice(offsets[i], offsets[i + 1])
                grads.append(g[tuple(sl)])
            else:
                grads.append(None)
        return tuple(grads)

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

    Equals ``sub(repeat_rows(center, k), gather_rows(other, index))`` as one
    record, which keeps neither the repeated nor the gathered rows.
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
    needs_other, needs_center = other.requires_grad, center.requires_grad

    def back(g):
        # other first: the order in which the unfused gather and repeat
        # records accumulated, so a shared input sums in the same order
        go = _scatter_rows(-g, idx, shape, dtype) if needs_other else None
        gc = g.reshape(n, k, *rest).sum(axis=1) if needs_center else None
        return (go, gc)

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

#: How an attention kernel normalizes its logits over the k neighbors of each point.
ATTENTION_VARIANTS = ("softmax", "none", "scaled", "log")

# Rows per upsample_attention tile. A (2048, 128) float32 block is 1 MB, so each
# block a tile makes (hidden activation, logits, weighted values) is still in
# a 2 MB per-core L2 when the next step reads it; full (n*k, C) blocks at
# 16k points are 16.8 MB and go through memory between steps.
_TILE_ROWS = 2048


def check_attention(variant, lam):
    """Raise ContractError unless ``variant`` is one of ATTENTION_VARIANTS and,
    for ``scaled``, ``lam`` is finite and > 0."""
    if variant not in ATTENTION_VARIANTS:
        raise ContractError(
            f"attention variant must be one of {ATTENTION_VARIANTS}, got {variant!r}"
        )
    if variant == "scaled" and not (math.isfinite(lam) and lam > 0):
        raise ContractError(f"scaled attention needs a finite lam > 0, got {lam}")


def _normalize_(r, variant, lam):
    """Normalize (p, k, W) logits over axis 1 in place and return the weights
    (log-weights for ``log``); ``lam`` is the ``scaled`` factor, of r's dtype."""
    if variant == "none":
        return r
    if variant == "scaled":
        r *= lam
    r -= r.max(axis=1, keepdims=True)
    if variant == "log":
        r -= np.log(np.exp(r).sum(axis=1, keepdims=True))
    else:
        np.exp(r, out=r)
        r /= r.sum(axis=1, keepdims=True)
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


def upsample_attention(x, values, kernels, variant="softmax", lam=1.0, capture=None):
    """The ``rate`` attention kernels of an upsample transformer as one
    record, computed in point tiles.

    For (n*k, i) rows ``x`` (row ``i*k + j`` pairs point i with neighbor j)
    and (n, k, C) ``values``, kernel m, the m-th ``(w0, b0, w1)`` of
    ``kernels``, has the logits ``relu(x @ w0 + b0) @ w1`` reshaped to
    (n, k, W), with W = C (one weight per channel) or W = 1 (one weight per
    neighbor). They are normalized over the k neighbors by ``variant``
    (``scaled`` multiplies by ``lam`` before the softmax; ``log`` gives
    log-weights; ``none`` keeps the logits), and row ``i*rate + m`` of the
    (n*rate, C) output is ``sum_j weights[i, j] * values[i, j]``. ``w1`` has
    no bias: a logit shift that every neighbor shares leaves softmax, scaled
    and log weights unchanged, so it would get no gradient, and under
    ``none`` the model held it at zero.

    Each tile of about _TILE_ROWS rows runs every kernel's whole chain while
    its blocks are in cache. Every step but the GEMMs works per point, and
    the weight and bias gradients are full-size GEMMs and sums, so each
    kernel gives the bits of ``linear_relu``, ``linear``, a reshape, the
    normalization and the weighted sum over all rows, gradients included,
    wherever a GEMM over a tile's rows gives the bits of those rows of the
    full GEMM. OpenBLAS does at the model's shapes (hidden width C), not at
    every shape (float64 with an 18-wide hidden layer, for one). The adjoint
    sums the kernels' ``x`` and ``values`` gradients from the last to the first.

    Recorded, the op keeps only each kernel's hidden activation (n*k, hidden)
    and weights (n, k, W), and its adjoint recomputes nothing; unrecorded, it
    keeps nothing. ``capture``, an optional list, receives each kernel's
    weights as a constant Tensor.
    """
    check_attention(variant, lam)
    if values.ndim != 3:
        raise ShapeError(f"upsample_attention expects (n, k, C) values, got {values.shape}")
    n, k, c = values.shape
    for w0, b0, w1 in kernels:
        _check_affine(x, w0, b0, "upsample_attention")
        if (x.shape[0] != n * k or w1.ndim != 2 or w1.shape[0] != w0.shape[1]
                or w1.shape[1] not in (1, c)):
            raise ShapeError(f"upsample_attention: x {x.shape}, hidden width {w0.shape[1]} "
                             f"and weight {w1.shape} do not fit values {values.shape}")
        if not x.dtype == values.dtype == w1.dtype:
            raise ContractError(
                f"upsample_attention: dtypes {x.dtype}, {values.dtype}, {w1.dtype} differ")
    inputs = [x, values, *(t for kernel in kernels for t in kernel)]
    needs = [t.requires_grad for t in inputs]
    record = any(needs) and _ACTIVE_TAPE.get() is not None
    xd, v, lam = x.data, values.data, x.dtype.type(lam)
    arrays = [[t.data for t in kernel] for kernel in kernels]  # each kernel's w0, b0, w1
    rate = len(arrays)
    out = np.empty((n, rate, c), dtype=x.dtype)
    hidden = [np.empty((n * k, w0.shape[1]), x.dtype) if record else None for w0, _, _ in arrays]
    weights = [np.empty((n, k, w1.shape[1]), x.dtype) if record or capture is not None
               else None for _, _, w1 in arrays]
    for a, b in _tiles(n, k):
        rows = slice(a * k, b * k)
        for m, (w0d, b0d, w1d) in enumerate(arrays):
            h = np.matmul(xd[rows], w0d, out=None if hidden[m] is None else hidden[m][rows])
            h += b0d
            _relu_(h)
            kept = None if weights[m] is None else weights[m][a:b].reshape(len(h), -1)
            r = np.matmul(h, w1d, out=kept).reshape(b - a, k, -1)
            out[a:b, m] = _weighted_sum(_normalize_(r, variant, lam), v[a:b])
    if capture is not None:
        capture.extend(Tensor(w) for w in weights)

    def back(g):
        def kernel_back(m, g):
            # the adjoint of kernel m's (n, C) output; a function of its own so
            # its tile views die before the next kernel's blocks are made
            (w0d, _, w1d), width = arrays[m], arrays[m][2].shape[1]
            needs_w0, needs_b0, needs_w1 = needs[2 + 3 * m: 5 + 3 * m]
            gv = np.empty_like(v) if needs[1] else None
            gr = np.empty((n, k, width), xd.dtype)
            for a, b in _tiles(n, k):  # the weighted sum's and the normalization's adjoints
                s = weights[m][a:b]
                gs = _weighted_sum_back(g[a:b], s, v[a:b], gr[a:b],
                                        None if gv is None else gv[a:b])
                _normalize_back_(gs, s, variant, lam)
            weights[m] = None  # the tape is single-use: drop each block once read
            gr = gr.reshape(n * k, width)
            # weight and bias gradients sum over all n*k rows: one full-size
            # call each, as the unfused linear adjoints make
            gw1 = hidden[m].T @ gr if needs_w1 else None
            gx = gw0 = gb0 = None
            if needs[0] or needs_w0 or needs_b0:
                # gz takes gr's rows
                gz = gr if width == hidden[m].shape[1] else np.empty_like(hidden[m])
                gx = np.empty_like(xd) if needs[0] else None
                for a, b in _tiles(n, k):  # the kernel's adjoints
                    rows = slice(a * k, b * k)
                    np.multiply(gr[rows] @ w1d.T, hidden[m][rows] > 0, out=gz[rows])
                    if gx is not None:
                        np.matmul(gz[rows], w0d.T, out=gx[rows])
                gw0 = xd.T @ gz if needs_w0 else None
                gb0 = gz.sum(axis=0) if needs_b0 else None
            hidden[m] = None
            return gx, gv, gw0, gb0, gw1

        g = g.reshape(n, rate, c)
        grads = [None] * (2 + 3 * rate)
        for m in reversed(range(rate)):  # the x and values sums run last kernel first
            gx, gv, *grads[2 + 3 * m: 5 + 3 * m] = kernel_back(m, g[:, m])
            for i, gin in ((0, gx), (1, gv)):  # None for every kernel or for none
                grads[i] = gin if grads[i] is None else np.add(grads[i], gin, out=grads[i])
        return grads

    return _emit(out.reshape(n * rate, c), inputs, back)

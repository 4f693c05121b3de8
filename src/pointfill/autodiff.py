"""Minimal reverse-mode automatic differentiation over numpy arrays.

The engine provides exactly the primitives the completion model needs.
A :class:`Tensor` wraps a float32 or float64 numpy array. While a
:class:`Tape` is active (used as a context manager), every primitive whose
inputs require gradients appends a record with an exact adjoint closure;
``tape.backward(loss)`` replays the records in reverse and accumulates
``d(loss)/d(leaf)`` into the ``grad`` of every leaf tensor.

Design rules kept deliberately strict so the adjoint code stays auditable:

* elementwise ops take two Tensors of one shape and dtype, nothing else;
  ``sub`` and ``mul`` also take a python scalar on either side, ``add``
  does not;
* only the linear ops (their bias, over rows), ``neighbor_sum`` (its
  weights, over channels) and ``attention_head`` (width-1 weights, over
  channels) broadcast, and each owns that adjoint;
* without an active tape the primitives just compute values (inference mode).

A tape is single-use: ``backward`` consumes it. Each record is dropped once
its adjoint has run and each intermediate's gradient once it has been passed
on, so backward frees memory as it goes instead of doubling the tape. Only
leaves, the ``requires_grad`` tensors that no record on the tape produced
(parameters, inputs), keep a gradient afterwards; leaf grads accumulate across
backward passes until ``grad`` is cleared. To inspect the gradient of an
intermediate value, make that value a leaf of its own tape.
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
        grad: numpy array of the same shape, filled by ``Tape.backward``.
    """

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad=False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in _ALLOWED_DTYPES:
            arr = arr.astype(np.float64)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None

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
        return float(self.data.reshape(-1)[0])

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.dtype.name}, requires_grad={self.requires_grad})"


def tensor(data, requires_grad=False, dtype=None):
    """Wrap ``data`` in a Tensor (convenience constructor)."""
    return Tensor(data, requires_grad=requires_grad, dtype=dtype)


def constant(data, like=None):
    """A non-differentiable Tensor, cast to the dtype of ``like`` if given."""
    dtype = like.dtype if isinstance(like, Tensor) else None
    return Tensor(data, requires_grad=False, dtype=dtype)


# ---------------------------------------------------------------------------
# Tape


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
        produced = set()
        leaves = {}
        for rec in records:  # in topological order: inputs before outputs
            for t in rec.inputs:
                if t.requires_grad and id(t) not in produced:
                    leaves[id(t)] = t
            rec.output.grad = None  # reset intermediates, keep leaf grads
            produced.add(id(rec.output))
        loss.grad = np.ones_like(loss.data)
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


def _emit(out_data, inputs, backfn):
    """Finalize a primitive: build the output tensor and record the adjoint."""
    needs = any(t.requires_grad for t in inputs)
    out = Tensor(out_data, requires_grad=needs)
    if needs and (tape := _ACTIVE_TAPE.get()) is not None:
        tape.records.append(_Record(out, tuple(inputs), backfn))
    return out


def _as_scalar(x, dtype):
    if isinstance(x, (int, float, np.floating, np.integer)):
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

    def back(g):
        return (g if a.requires_grad else None, g if b.requires_grad else None)

    return _emit(a.data + b.data, [a, b], back)


def sub(a, b):
    if isinstance(a, Tensor):
        s = _as_scalar(b, a.dtype)
        if s is not None:
            return _emit(a.data - s, [a], lambda g: (g if a.requires_grad else None,))
    else:
        s = _as_scalar(a, b.dtype)
        return _emit(s - b.data, [b], lambda g: (-g if b.requires_grad else None,))
    _check_same_shape(a, b, "sub")

    def back(g):
        return (g if a.requires_grad else None, -g if b.requires_grad else None)

    return _emit(a.data - b.data, [a, b], back)


def mul(a, b):
    if not isinstance(a, Tensor):
        a, b = b, a
    s = _as_scalar(b, a.dtype)
    if s is not None:
        return _emit(a.data * s, [a], lambda g: (g * s if a.requires_grad else None,))
    _check_same_shape(a, b, "mul")

    def back(g):
        ga = g * b.data if a.requires_grad else None
        gb = g * a.data if b.requires_grad else None
        return (ga, gb)

    return _emit(a.data * b.data, [a, b], back)


def sqrt(x):
    """Elementwise square root; inputs must be nonnegative.

    The adjoint denominator is floored at 1e-12 so coincident points in the
    distance losses produce a finite (sub)gradient instead of an infinity.
    """
    if np.any(x.data < 0):
        raise NumericsError("sqrt of a negative value")
    y = np.sqrt(x.data)

    def back(g):
        if not x.requires_grad:
            return (None,)
        return (g * 0.5 / np.maximum(y, x.dtype.type(1e-12)),)

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
    out = x.data @ weight.data
    out += bias.data

    def back(g):
        gx = g @ weight.data.T if x.requires_grad else None
        gw = x.data.T @ g if weight.requires_grad else None
        gb = g.sum(axis=0) if bias.requires_grad else None
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

    def back(g):
        if not x.requires_grad:
            return (None,)
        if axis is not None:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, x.shape).copy(),)

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

    def back(g):
        if not x.requires_grad:
            return (None,)
        gx = np.zeros_like(x.data)
        idx = list(np.indices(out.shape))
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

    def back(g):
        grads = []
        sl = [slice(None)] * g.ndim
        for i, x in enumerate(xs):
            if x.requires_grad:
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


def _scatter_rows(g, idx, x):
    """The adjoint of ``x.data[idx]``: row ``idx[i]`` accumulates ``g[i]``."""
    # scatter-add via bincount over a flattened composite index; much
    # faster than np.add.at and deterministic (bin-order accumulation)
    stride = int(np.prod(x.shape[1:], dtype=np.int64)) if x.ndim > 1 else 1
    flat = (idx[:, None] * stride + np.arange(stride)).ravel() if stride > 1 else idx
    gx = np.bincount(flat, weights=g.ravel(), minlength=x.size)
    return gx.reshape(x.shape).astype(x.dtype, copy=False)


def gather_rows(x, index):
    """Select rows along axis 0: ``out[i] = x[index[i]]``.

    Indices may repeat, which doubles as row duplication; the adjoint
    scatter-adds, so repeated rows accumulate their gradients.
    """
    idx = _row_index(index, x, "gather_rows")

    def back(g):
        return (_scatter_rows(g, idx, x) if x.requires_grad else None,)

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

    def back(g):
        # other first: the order in which the unfused gather and repeat
        # records accumulated, so a shared input sums in the same order
        go = _scatter_rows(-g, idx, other) if other.requires_grad else None
        gc = g.reshape(n, k, *center.shape[1:]).sum(axis=1) if center.requires_grad else None
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

    def back(g):
        return (_scatter_rows((g[:, None, :] * w).reshape(m * k, c), idx, other),)

    return _emit(_weighted_sum(w, other.data[idx].reshape(m, k, c)), [other], back)


def reshape(x, shape):
    shape = tuple(int(s) for s in shape)
    if math.prod(shape) != x.size:
        raise ShapeError(f"cannot reshape {x.shape} to {shape}")

    def back(g):
        return (g.reshape(x.shape) if x.requires_grad else None,)

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
    n = x.shape[0]

    def back(g):
        if not x.requires_grad:
            return (None,)
        return (g.reshape(n, r, *x.shape[1:]).sum(axis=1),)

    return _emit(np.repeat(x.data, r, axis=0), [x], back)


# ---------------------------------------------------------------------------
# Neighbor attention

#: How a head normalizes its logits over the k neighbors of each point.
ATTENTION_VARIANTS = ("softmax", "none", "scaled", "log")

# Rows per attention_head tile. A (2048, 128) float32 block is 1 MB, so each
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


def attention_head(x, values, w0, b0, w1, b1, variant="softmax", lam=1.0, capture=None):
    """One attention kernel head as one record, computed in point tiles.

    For (n*k, i) rows ``x`` (row ``i*k + j`` pairs point i with neighbor j)
    and (n, k, C) ``values``, the kernel's logits are
    ``relu(x @ w0 + b0) @ w1 + b1`` reshaped to (n, k, W), with W = C (one
    weight per channel) or W = 1 (one weight per neighbor). They are
    normalized over the k neighbors by ``variant`` (``scaled`` multiplies
    by ``lam`` before the softmax; ``log`` gives log-weights; ``none`` keeps
    the logits), and the result is ``sum_j weights[i, j] * values[i, j]``,
    (n, C).

    Each tile of about _TILE_ROWS rows runs the whole chain while its blocks
    are in cache. Every step but the GEMMs works per point, and the weight
    and bias gradients are full-size GEMMs and sums, so the op gives the bits
    of ``linear_relu``, ``linear``, a reshape, the normalization and the
    weighted sum over all rows, gradients included, wherever a GEMM over
    a tile's rows gives the bits of those rows of the full GEMM. OpenBLAS
    does at the model's shapes (hidden width C), not at every shape: with
    float64 and an 18-wide hidden layer, a 2,048-row tile rounds differently
    from the same rows of a product over 4,096 rows.

    Recorded, the op keeps only the hidden activation (n*k, hidden) and the
    weights (n, k, W), and its adjoint recomputes nothing; unrecorded, it
    keeps nothing. ``capture``, an optional list, receives the weights as a
    constant Tensor.
    """
    check_attention(variant, lam)
    if values.ndim != 3:
        raise ShapeError(f"attention_head expects (n, k, C) values, got {values.shape}")
    n, k, c = values.shape
    _check_affine(x, w0, b0, "attention_head")
    _check_affine(w0, w1, b1, "attention_head")  # the hidden width is w0's columns
    width = w1.shape[1]
    if x.shape[0] != n * k or width not in (1, c):
        raise ShapeError(
            f"attention_head: x {x.shape} and weight {w1.shape} do not fit values {values.shape}"
        )
    if values.dtype != x.dtype:
        raise ContractError(f"attention_head: dtypes {x.dtype} and {values.dtype} differ")
    inputs = [x, values, w0, b0, w1, b1]
    record = any(t.requires_grad for t in inputs) and _ACTIVE_TAPE.get() is not None
    xd, v, lam = x.data, values.data, x.dtype.type(lam)
    out = np.empty((n, c), dtype=x.dtype)
    hidden = np.empty((n * k, w0.shape[1]), x.dtype) if record else None
    weights = np.empty((n, k, width), x.dtype) if record or capture is not None else None
    for a, b in _tiles(n, k):
        rows = slice(a * k, b * k)
        h = np.matmul(xd[rows], w0.data, out=None if hidden is None else hidden[rows])
        h += b0.data
        _relu_(h)
        kept = None if weights is None else weights[a:b].reshape(-1, width)
        r = np.matmul(h, w1.data, out=kept).reshape(b - a, k, width)
        r += b1.data
        out[a:b] = _weighted_sum(_normalize_(r, variant, lam), v[a:b])
    if capture is not None:
        capture.append(Tensor(weights))

    def back(g):
        nonlocal hidden, weights  # the tape is single-use: drop each block once read
        gv = np.empty_like(v) if values.requires_grad else None
        gr = np.empty((n, k, width), x.dtype)
        for a, b in _tiles(n, k):  # the weighted sum's and the normalization's adjoints
            s = weights[a:b]
            gs = _weighted_sum_back(g[a:b], s, v[a:b], gr[a:b], None if gv is None else gv[a:b])
            _normalize_back_(gs, s, variant, lam)
        weights = None
        gr = gr.reshape(n * k, width)
        # weight and bias gradients sum over all n*k rows: one full-size call
        # each, as the unfused linear adjoints make
        gw1 = hidden.T @ gr if w1.requires_grad else None
        gb1 = gr.sum(axis=0) if b1.requires_grad else None
        gx = gw0 = gb0 = None
        if x.requires_grad or w0.requires_grad or b0.requires_grad:
            gz = gr if width == hidden.shape[1] else np.empty_like(hidden)  # gz takes gr's rows
            gx = np.empty_like(xd) if x.requires_grad else None
            for a, b in _tiles(n, k):  # the kernel's adjoints
                rows = slice(a * k, b * k)
                np.multiply(gr[rows] @ w1.data.T, hidden[rows] > 0, out=gz[rows])
                if gx is not None:
                    np.matmul(gz[rows], w0.data.T, out=gx[rows])
            hidden = None
            gw0 = xd.T @ gz if w0.requires_grad else None
            gb0 = gz.sum(axis=0) if b0.requires_grad else None
        return (gx, gv, gw0, gb0, gw1, gb1)

    return _emit(out, inputs, back)


# ---------------------------------------------------------------------------
# Gradient checking


class GradCheckReport:
    """Per-coordinate comparison of analytic and central-difference gradients."""

    def __init__(self, tol):
        self.tol = tol
        self.checked = 0
        self.max_rel_error = 0.0
        self.worst = None  # (input_index, flat_coord, analytic, numeric)
        self.failures = []

    @property
    def passed(self):
        return not self.failures

    def record(self, input_index, coord, analytic, numeric):
        rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-8)
        if not (math.isfinite(analytic) and math.isfinite(rel)):
            rel = math.inf  # a NaN would pass every ``rel > bound`` test
        self.checked += 1
        if rel > self.max_rel_error:
            self.max_rel_error = rel
            self.worst = (input_index, coord, analytic, numeric)
        if rel > self.tol:
            self.failures.append((input_index, coord, analytic, numeric, rel))

    def summary(self):
        status = "ok" if self.passed else f"{len(self.failures)} coordinate(s) over tol"
        return (
            f"checked {self.checked} coordinates, max rel err "
            f"{self.max_rel_error:.3e} (tol {self.tol:.1e}): {status}"
        )


def grad_check(fn, inputs, eps=1e-5, tol=1e-4, max_coords_per_input=None, seed=0):
    """Compare analytic gradients of ``fn`` against central differences.

    Args:
        fn: callable mapping the given Tensors to a scalar Tensor.
        inputs: sequence of float64 leaf Tensors with requires_grad set.
        eps: central-difference step.
        tol: relative-error threshold for flagging a coordinate.
        max_coords_per_input: if given, check only this many coordinates per
            input, chosen by a seeded rng (still touching every input).

    Returns a GradCheckReport. Raises NumericsError if ``fn`` produces a
    non-finite value and ContractError on misuse (non-scalar output, wrong
    precision, an eps that is not finite and > 0, a tol that is not finite
    and >= 0).
    """
    if not (math.isfinite(eps) and eps > 0):
        raise ContractError(f"grad_check needs a finite eps > 0, got {eps}")
    if not (math.isfinite(tol) and tol >= 0):
        raise ContractError(f"grad_check needs a finite tol >= 0, got {tol}")
    inputs = list(inputs)
    for t in inputs:
        if t.dtype != np.float64:
            raise ContractError("grad_check requires float64 inputs")
        t.zero_grad()

    with Tape() as tape:
        out = fn(*inputs)
    if not isinstance(out, Tensor) or out.size != 1:
        raise ContractError("grad_check expects fn to return a scalar Tensor")
    if not np.isfinite(out.data).all():
        raise NumericsError("grad_check: fn returned a non-finite value")
    tape.backward(out)
    analytic = [
        t.grad.copy() if t.grad is not None else np.zeros_like(t.data) for t in inputs
    ]

    def evaluate():
        val = fn(*inputs)
        v = float(val.data.reshape(-1)[0])
        if not np.isfinite(v):
            raise NumericsError("grad_check: fn returned a non-finite value")
        return v

    rng = np.random.default_rng(seed)
    report = GradCheckReport(tol)
    for i, t in enumerate(inputs):
        coords = np.arange(t.size)
        if max_coords_per_input is not None and t.size > max_coords_per_input:
            coords = rng.choice(t.size, size=max_coords_per_input, replace=False)
            coords.sort()
        ga = analytic[i].reshape(-1)
        for c in coords:
            # an index into the leaf itself: reshaping a non-contiguous
            # leaf would perturb a copy that fn never reads
            at = np.unravel_index(c, t.shape)
            keep = t.data[at]
            t.data[at] = keep + eps
            up = evaluate()
            t.data[at] = keep - eps
            down = evaluate()
            t.data[at] = keep
            report.record(i, int(c), float(ga[c]), (up - down) / (2.0 * eps))
    return report

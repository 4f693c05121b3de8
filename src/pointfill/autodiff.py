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
  weights, over channels) and :func:`pointfill.attention.upsample_attention`
  (its biases, over rows; width-1 weights, over channels) broadcast, and
  each owns that adjoint;
* an adjoint returns a gradient for every input it was given and reads no
  ``requires_grad`` flag; ``Tape.backward`` drops the gradients of inputs
  that need none. Only recording checks the flag: a primitive is recorded
  when some input needs a gradient;
* without an active tape the primitives just compute values (inference mode).

The attention op lives in :mod:`pointfill.attention` and its tile runner in
:mod:`pointfill.tiles`; both keep these rules.

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


def _recording(inputs):
    """The active tape when some of ``inputs`` needs a gradient, else None:
    the one test of whether a primitive is recorded. A primitive that only
    keeps something for its record (an index, statistics) asks it too."""
    return _ACTIVE_TAPE.get() if any(t.requires_grad for t in inputs) else None


def _emit(out_data, inputs, backfn):
    """Finalize a primitive: build the output tensor and record the adjoint.

    The record keeps a node for the output and for each intermediate input,
    so it holds no value; ``backfn`` holds the arrays its adjoint reads.
    """
    out = Tensor(out_data, requires_grad=any(t.requires_grad for t in inputs))
    if (tape := _recording(inputs)) is not None:
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


def _affine(x, weight, bias, op):
    """Checked ``x @ weight + bias`` and its adjoint, shared by the linear ops:
    x:(n,i), weight:(i,o), bias:(o,) or None; without a bias the adjoint
    returns two gradients."""
    if x.ndim != 2:
        raise ShapeError(f"{op} expects x:(n,i), weight:(i,o), bias:(o,)")
    _check_layer(x.shape[1], weight, bias, x.dtype, op)
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
    if _recording([x]) is not None:  # the winners only serve a record
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

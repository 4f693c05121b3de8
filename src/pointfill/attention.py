"""The Upsample Transformer as one autodiff record: ``upsample_attention``.

It owns the op, its four normalizations (``ATTENTION_VARIANTS``, checked by
``check_attention``) and their adjoints. The rule it keeps: recorded, the op
holds the per-point inputs and each head's statistics, never an (n * k, ·)
block of pair rows; the adjoint rebuilds each tile's rows and weights by the
forward's own steps, so they are the forward's bits. Its tiles run on
:mod:`pointfill.tiles`; recording follows the rules of
:mod:`pointfill.autodiff`.
"""

import math

import numpy as np

from .autodiff import Tensor, _check_layer, _emit, _recording, _relu_, _weighted_sum
from .errors import ContractError, ShapeError
from .tiles import _each_tile

#: How an attention head normalizes its logits over the k neighbors of each point.
ATTENTION_VARIANTS = ("softmax", "none", "scaled", "log")


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

    The adjoint works tile by tile. In a tile it runs the heads from the
    last to the first, so the value-row and hidden gradients sum in that
    order; one relu mask and one ``@ W0.T`` give the x gradient gx, and
    delta's is ``gx + gv``. A weight or bias gradient is the sum of its
    per-tile GEMMs or column sums, first tile first. So is each scatter of
    row gradients into the key, value, u and cloud rows: a float64
    ``np.bincount`` per tile over the tile's distinct neighbours, one flat
    index per tile and row width, added to those rows only, so a tile's
    merge costs its rows, not n. A scattered sum is then cast to the dtype,
    negated for keys, u and the cloud, and u and the cloud add the sums
    over each point's own rows.

    Forward and adjoint tiles may run on several threads (``_each_tile``):
    each tile returns its rows and sums, and the calling thread puts the
    rows in place and merges the sums in tile order, so every output and
    gradient has the same bits at any thread count.
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
    record = _recording(inputs) is not None
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

    def tile_forward(a, b):
        # rows a..b of out and, per head, of stats and weights, for place()
        v, h = tile_rows(a, b)[-2:]
        rows, per_head = np.empty((b - a, rate, c), dtype), []
        for m, w1 in enumerate(heads):
            r = (h @ w1).reshape(b - a, k, -1)
            head_stats = [np.empty((b - a, 1, w1.shape[1]), dtype) for _ in stats[m]]
            s = _normalize_(r, variant, lam, head_stats)
            rows[:, m] = _weighted_sum(s, v)
            per_head.append((head_stats, None if weights[m] is None else s))
        return a, b, rows, per_head

    def place(tile):
        a, b, rows, per_head = tile
        out[a:b] = rows
        for m, (head_stats, s) in enumerate(per_head):
            for whole, part in zip(stats[m], head_stats):
                whole[a:b] = part
            if s is not None:
                weights[m][a:b] = s

    _each_tile(n, k, tile_forward, place)
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
        scattered = {}  # float64 scatter sums
        # the sums over each point's own rows, for the cloud and u
        own = {0: np.empty((n, 3), dtype)} | ({} if u is None else {u_at: np.empty_like(u)})

        def add(i, part):  # a weight or bias gradient sums its tiles' parts
            if grads[i] is None:
                grads[i] = part
            else:
                grads[i] += part

        def merge(tile):
            # row nb[r] of a scattered input i gets row r of its rows: one
            # float64 bincount per input over the tile's distinct neighbours
            # (nb[r] is touched[inverse[r]]), added to their rows of the
            # (n, width) sum. A bincount over all n rows would add 0.0 to
            # the others, and x + 0.0 is x for any sum a bincount forms (it
            # is never -0.0), so the bits are the same and the cost is the
            # tile's, not n's
            a, b, q_rows, own_rows, touched, inverse, parts, rows_of = tile
            grads[1][a:b] = q_rows
            for i, rows in own_rows.items():
                own[i][a:b] = rows
            flat = {}
            for i, rows in rows_of.items():
                width = rows.shape[1]
                if width not in flat:
                    flat[width] = (inverse[:, None] * width + np.arange(width)).ravel()
                part = np.bincount(flat[width], weights=rows.ravel(),
                                   minlength=len(touched) * width)
                if i not in scattered:
                    scattered[i] = np.zeros((n, width))
                scattered[i][touched] += part.reshape(-1, width)
            for i, part in parts.items():
                add(i, part)

        def head_back(m, a, b, h, v, gv, parts):
            # head m's adjoint on the tile of points a..b: writes its value-row
            # gradient (the last head) or adds it, puts its head gradient in
            # ``parts`` and returns its hidden gradient; a function of its own
            # so its blocks die before the next head's are made
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
            parts[heads_at + m] = h.T @ gr
            return gr @ heads[m].T

        def tile_back(a, b):
            # for merge: rows a..b of q's gradient and of the sums over each
            # point's own rows, the tile's distinct neighbour indices and
            # each row's place among them, its weight and bias gradients and
            # the row gradients merge scatters, by input position
            nb, rel, hp, hs, x, v, h = tile_rows(a, b)
            parts, rows_of, own_rows = {}, {}, {}

            def scatter(i, rows):  # the cloud and u: point a + r // k gets row r too
                rows_of[i] = rows
                if i in own:
                    own_rows[i] = rows.reshape(b - a, k, -1).sum(axis=1)

            gv = np.empty_like(v)
            gh = head_back(rate - 1, a, b, h, v, gv, parts)
            for m in reversed(range(rate - 1)):  # the last head first
                gh += head_back(m, a, b, h, v, gv, parts)
            del v
            gv = gv.reshape(len(nb), c)
            scatter(3, gv)
            gh *= h > 0  # the one relu mask
            del h
            parts[8] = x.T @ gh
            parts[9] = gh.sum(axis=0)
            del x
            gx = gh @ w0.T
            del gh
            q_rows = gx.reshape(b - a, k, c).sum(axis=1)
            scatter(2, gx)
            gd = gx + gv  # not in place: merge scatters gx
            parts[6] = hp.T @ gd
            parts[7] = gd.sum(axis=0)
            ghp = gd @ p1.T
            ghp *= hp > 0
            parts[4] = rel.T @ ghp
            parts[5] = ghp.sum(axis=0)
            scatter(0, ghp @ p0.T)
            del ghp
            if u is not None:
                parts[u_at + 2] = hs.T @ gd
                parts[u_at + 3] = gd.sum(axis=0)
                ghs = gd @ s1.T
                ghs *= hs > 0
                parts[u_at + 1] = ghs.sum(axis=0)
                scatter(u_at, ghs)
            return (a, b, q_rows, own_rows, *np.unique(nb, return_inverse=True), parts,
                    rows_of)

        _each_tile(n, k, tile_back, merge)
        for i, total in scattered.items():
            grads[i] = (total if i == 3 else -total).astype(dtype, copy=False)
            if i in own:
                grads[i] += own[i]
        stats = None  # the tape is single-use: drop what it kept
        return grads

    return _emit(out.reshape(n * rate, c), inputs, back)

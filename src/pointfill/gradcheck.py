"""Finite-difference audit suite over every differentiable operation.

Each registered case builds a scalar-valued function and its float64 leaf
inputs; ``run_suite`` checks all of them with central differences. The full
forward case uses a micro model and samples a handful of coordinates per
parameter tensor (every tensor is still touched), which keeps the suite
fast without skipping any operation.

Every case runs inside one geometry freeze (see GeometryFreeze): neighbor
selections and interpolation weights are constants of the geometry by
contract, so finite differences must probe the same function the adjoints
differentiate. The composite cases' scalarization probes are scaled to ~1e-2
so that coordinates with structurally zero gradients (softmax shift invariance,
occasionally inactive relu units) keep their finite-difference noise below
the 1e-8 absolute floor of the relative-error formula.
"""

from __future__ import annotations

import zlib

import numpy as np

from . import autodiff as ad
from . import geometry
from .generator import AttentionMode, UpsampleStage, UpsampleTransformer, make_core
from .losses import chamfer, completion_loss, partial_matching_loss
from .pipeline import CompletionModel, ModelConfig

EPS = 1e-5
TOL = 1e-4


def _rng(seed=0):
    return np.random.default_rng(seed)


def _param(data):
    return ad.tensor(data, requires_grad=True, dtype=np.float64)


def _leaf(rng, shape, scale=1.0, offset=0.0):
    return _param(offset + scale * rng.standard_normal(shape))


def _cloud(rng, n, spread=1.0):
    return spread * rng.standard_normal((n, 3))


# --- primitive cases -------------------------------------------------------


def _case_linear_relu():
    rng = _rng(1)
    w = _leaf(rng, (4, 4))
    b = _leaf(rng, (4,))
    z = rng.standard_normal((5, 4))
    z += np.sign(z) * 0.05  # keep the pre-activations clear of the kink
    x = ad.tensor(np.linalg.solve(w.data.T, (z - b.data).T).T.copy(), requires_grad=True)
    return lambda x, w, b: ad.reduce_sum(ad.linear_relu(x, w, b)), [x, w, b]


def _case_attention_head(name, variant, width):
    def build():
        rng = _rng(zlib.crc32(name.encode()))  # not hash(): salted per process
        n, k, c = 3, 4, 3
        sign = lambda shape: rng.choice([-1.0, 1.0], shape)
        # Data clear of finite-difference roundoff: no w0 or w1 entry near 0
        # (it would scale a gradient row or column down); a diagonally
        # dominant w0 (condition number under 13), so x stays near z's scale;
        # pre-activations z 0.05 to 0.5 from the kink, each hidden unit active
        # for one neighbor of some point and inactive for another (else the
        # softmax's shift invariance zeroes b0's gradient); |relu(z) @ w1| <=
        # 1.8, so the logits lie in [0.2, 4.3] and spread by at most 3.6 per
        # point: no softmax weight is near 0, nor a logit (the none weight)
        w0 = sign((c, c)) * np.where(
            np.eye(c, dtype=bool), rng.uniform(1.2, 1.5, (c, c)), rng.uniform(0.2, 0.5, (c, c)))
        b0 = rng.uniform(-0.5, 0.5, c)
        signs = sign((n, k, c))
        point, unit = rng.integers(n, size=c), np.arange(c)
        signs[point, 0, unit], signs[point, 1, unit] = 1.0, -1.0
        z = (signs * rng.uniform(0.05, 0.5, (n, k, c))).reshape(n * k, c)
        x = np.linalg.solve(w0.T, (z - b0).T).T
        w1 = sign((c, width)) * rng.uniform(0.4, 1.2, (c, width))
        b1 = rng.uniform(2.0, 2.5, width)
        inputs = [_param(a) for a in (x, rng.standard_normal((n, k, c)), w0, b0, w1, b1)]
        probe = rng.standard_normal((n, c))

        def fn(x, values, w0, b0, w1, b1=inputs[-1]):
            out = ad.attention_head(x, values, w0, b0, w1, b1, variant, lam=1.7)
            return ad.reduce_sum(ad.mul(out, ad.constant(probe, like=x)))

        # a logit bias shared by the k neighbors cancels in the softmax
        # modes (a structurally zero gradient): it is checked under none only
        return fn, inputs if variant == "none" else inputs[:-1]

    return build


def _case_linear():
    rng = _rng(4)
    x = _leaf(rng, (6, 3))
    w = _leaf(rng, (3, 5))
    b = _leaf(rng, (5,))
    probe = rng.standard_normal((6, 5))

    def fn(x, w, b):
        return ad.reduce_sum(ad.mul(ad.linear(x, w, b), ad.constant(probe, like=x)))

    return fn, [x, w, b]


def _case_elementwise():
    rng = _rng(5)
    a = _leaf(rng, (4, 3))
    b = _leaf(rng, (4, 3))

    def fn(a, b):
        mixed = ad.mul(ad.add(a, b), ad.sub(a, ad.mul(b, 0.5)))
        # a scalar on either side of sub
        return ad.reduce_sum(ad.sub(1.5, ad.sub(mixed, 0.5)))

    return fn, [a, b]


def _case_reductions():
    rng = _rng(6)
    x = _leaf(rng, (5, 4))
    probe = rng.standard_normal(4)

    def fn(x):
        column_means = ad.mul(ad.reduce_mean(x, axis=0), ad.constant(probe, like=x))
        return ad.add(
            ad.add(ad.reduce_mean(ad.mul(x, x)), ad.reduce_sum(ad.reduce_sum(x, axis=1))),
            ad.reduce_sum(column_means),
        )

    return fn, [x]


def _case_max_over_axis():
    rng = _rng(7)
    x = _leaf(rng, (6, 5))
    probe = rng.standard_normal(6)

    def fn(x):
        return ad.reduce_sum(
            ad.mul(ad.max_over_axis(x, axis=1), ad.constant(probe, like=x))
        )

    return fn, [x]


def _case_structure():
    rng = _rng(8)
    a = _leaf(rng, (3, 4))
    b = _leaf(rng, (2, 4))
    idx = np.array([4, 0, 2, 2, 1])
    probe = rng.standard_normal((5, 4))
    c = _leaf(rng, (3, 2))
    wide_probe = rng.standard_normal((3, 6))

    def fn(a, b, c):
        merged = ad.concat([a, b], axis=0)
        rows = ad.gather_rows(merged, idx)
        wide = ad.concat([a, c], axis=1)
        return ad.add(
            ad.reduce_sum(ad.mul(rows, ad.constant(probe, like=a))),
            ad.reduce_sum(ad.mul(wide, ad.constant(wide_probe, like=a))),
        )

    return fn, [a, b, c]


def _case_reshape():
    rng = _rng(9)
    x = _leaf(rng, (4, 6))
    probe = rng.standard_normal((4, 3, 2))

    def fn(x):
        cube = ad.reshape(x, (4, 3, 2))
        return ad.reduce_sum(ad.mul(cube, ad.constant(probe, like=x)))

    return fn, [x]


def _case_sqrt():
    rng = _rng(10)
    x = _leaf(rng, (5, 3), offset=3.0)

    def fn(x):
        return ad.reduce_sum(ad.sqrt(ad.mul(x, x)))

    return fn, [x]


def _case_neighbor_sum():
    rng = _rng(11)
    other = _leaf(rng, (4, 3))
    idx = np.array([2, 0, 2, 3, 1, 2])  # row 2 is picked three times
    weights = rng.standard_normal((3, 2))
    probe = rng.standard_normal((3, 3))

    def fn(other):
        out = ad.neighbor_sum(other, idx, weights)
        return ad.reduce_sum(ad.mul(out, ad.constant(probe, like=other)))

    return fn, [other]


def _case_neighbor_diff(shared, seed):
    def build():
        rng = _rng(seed)
        center = _leaf(rng, (3, 4))
        other = center if shared else _leaf(rng, (5, 4))
        idx = rng.integers(0, other.shape[0], size=6)
        probe = rng.standard_normal((6, 4))

        def fn(center, other):
            diff = ad.neighbor_diff(center, other, idx, 2)
            return ad.reduce_sum(ad.mul(diff, ad.constant(probe, like=center)))

        if shared:
            return (lambda center: fn(center, center)), [center]
        return fn, [center, other]

    return build


# --- model-level cases -----------------------------------------------------


def _case_interpolation():
    rng = _rng(20)
    queries = _cloud(rng, 10)
    coords = _cloud(rng, 7)
    feats = _leaf(rng, (7, 5))
    probe = rng.standard_normal((10, 5))

    def fn(feats):
        seeds = geometry.PointSet(ad.tensor(coords), feats)
        out = geometry.interpolate_seed_features(queries, seeds, k=3)
        return ad.reduce_sum(ad.mul(out, ad.constant(probe, like=feats)))

    return fn, [feats]


def _case_uptrans(mode):
    def build():
        rng = _rng(30)
        n, c, cs = 8, 6, 4
        core = UpsampleTransformer(rng, c, rate=2, k=3, seed_channels=cs, dtype=np.float64)
        cloud = _cloud(rng, n)
        seeds = geometry.PointSet(
            ad.tensor(_cloud(rng, 5)), ad.tensor(rng.standard_normal((5, cs)))
        )
        queries, keys = _leaf(rng, (n, c)), _leaf(rng, (n, c))
        cloud_t = _leaf(rng, (n, 3))  # drawn, then given the cloud's data
        cloud_t.data = cloud
        params = [p.tensor for p in core.named_parameters()]
        probe = 0.01 * rng.standard_normal((n * core.rate, c))

        def fn(q, k, cloud, *params):
            s = geometry.interpolate_seed_features(cloud.data, seeds, 2)
            out = core(q, k, cloud, seed_features=s, mode=mode)
            return ad.reduce_sum(ad.mul(out, ad.constant(probe, like=q)))

        return fn, [queries, keys, cloud_t, *params]

    return build


def _ablation_case(variant, seed):
    def build():
        rng = _rng(seed)
        n, c = 8, 6
        core = make_core(variant, rng, c, 2, k=3, seed_channels=None, dtype=np.float64)
        cloud = ad.tensor(_cloud(rng, n))
        q = _leaf(rng, (n, c))
        k = _leaf(rng, (n, c))
        params = [p.tensor for p in core.named_parameters()]
        probe = 0.01 * rng.standard_normal((n * 2, c))

        def fn(q, k, *params):
            out = core(q, k, cloud, mode=AttentionMode("softmax"))
            return ad.reduce_sum(ad.mul(out, ad.constant(probe, like=q)))

        return fn, [q, k, *params]

    return build


def _case_chamfer(norm):
    def build():
        rng = _rng(40 if norm == "l1" else 41)
        a = _leaf(rng, (9, 3))
        b = _leaf(rng, (7, 3))

        def fn(a, b):
            return chamfer(a, b, norm=norm)

        return fn, [a, b]

    return build


def _case_partial_matching():
    rng = _rng(42)
    a = _leaf(rng, (8, 3))
    b = _leaf(rng, (11, 3))

    def fn(a, b):
        return partial_matching_loss(a, b)

    return fn, [a, b]


def _case_upsample_layer():
    rng = _rng(50)
    n, c, cs = 8, 6, 4
    stage = UpsampleStage(
        rng, c, cs, rate=2, k=3, interp_k=2, mode=AttentionMode("softmax"),
        dtype=np.float64,
    )
    # the offset head is zero-initialized; nudge it so its gradient is generic
    stage.offset_map.lin1.w.data += 0.05 * rng.standard_normal(
        stage.offset_map.lin1.w.shape
    )
    seeds = geometry.PointSet(
        ad.tensor(_cloud(rng, 5)), ad.tensor(rng.standard_normal((5, cs)))
    )
    cloud = _leaf(rng, (n, 3))
    feats = _leaf(rng, (n, c))
    params = [p.tensor for p in stage.named_parameters()]
    probe = 0.01 * rng.standard_normal((n * 2, 3))

    def fn(cloud, feats, *params):
        out = stage(geometry.PointSet(cloud, feats), seeds)
        return ad.reduce_sum(ad.mul(out.cloud, ad.constant(probe, like=cloud)))

    return fn, [cloud, feats, *params]


def _case_full_forward():
    rng = _rng(60)
    model = CompletionModel(ModelConfig.micro(init_seed=3))
    partial = _cloud(rng, model.config.input_points, spread=0.5)
    gt = _cloud(rng, 24, spread=0.5)
    params = [p.tensor for p in model.named_parameters()]

    def fn(*params):
        seeds, states = model.forward(partial)
        total, _ = completion_loss(seeds.cloud, [s.cloud for s in states], gt)
        return ad.mul(total, 0.01)

    return fn, params


CASES = {
    "linear_relu": _case_linear_relu,
    "attention_head_softmax": _case_attention_head("attention_head_softmax", "softmax", 3),
    "attention_head_scaled": _case_attention_head("attention_head_scaled", "scaled", 3),
    "attention_head_log": _case_attention_head("attention_head_log", "log", 3),
    "attention_head_none": _case_attention_head("attention_head_none", "none", 3),
    "attention_head_pointwise": _case_attention_head("attention_head_pointwise", "softmax", 1),
    "linear": _case_linear,
    "elementwise": _case_elementwise,
    "reductions": _case_reductions,
    "max_over_axis": _case_max_over_axis,
    "concat_gather": _case_structure,
    "reshape": _case_reshape,
    "sqrt": _case_sqrt,
    "neighbor_sum": _case_neighbor_sum,
    "neighbor_diff": _case_neighbor_diff(False, 13),
    "neighbor_diff_shared": _case_neighbor_diff(True, 14),
    "interpolation": _case_interpolation,
    "uptrans_softmax": _case_uptrans(AttentionMode("softmax")),
    "uptrans_none": _case_uptrans(AttentionMode("none")),
    "uptrans_scaled": _case_uptrans(AttentionMode("scaled", lam=1.7)),
    "uptrans_log": _case_uptrans(AttentionMode("log")),
    "generator_folding": _ablation_case("folding", 31),
    "generator_deconv": _ablation_case("deconv", 32),
    "generator_graphconv": _ablation_case("graphconv", 33),
    "generator_pointwise": _ablation_case("pointwise", 34),
    "chamfer_l1": _case_chamfer("l1"),
    "chamfer_l2": _case_chamfer("l2"),
    "partial_matching": _case_partial_matching,
    "upsample_layer": _case_upsample_layer,
    "full_forward": _case_full_forward,
}

#: cases where finite differences over every coordinate would dominate the
#: runtime; these sample a few coordinates per tensor instead (all tensors
#: are still covered).
_SAMPLED = {"full_forward": 4, "upsample_layer": 16}


def run_suite(names=None, tol=TOL, eps=EPS, report_fn=None):
    """Run the named cases (all by default); returns [(name, report)].

    Each case runs in one geometry freeze: its first, taped evaluation
    records the neighbor selections and interpolation weights, and every
    finite-difference evaluation replays them.
    """
    selected = list(CASES) if not names else list(names)
    results = []
    for name in selected:
        if name not in CASES:
            raise KeyError(f"unknown gradcheck case {name!r}")
        fn, inputs = CASES[name]()
        freezer = geometry.GeometryFreeze()

        def replay(*args):
            with freezer:
                return fn(*args)

        report = ad.grad_check(
            replay, inputs, eps=eps, tol=tol,
            max_coords_per_input=_SAMPLED.get(name), seed=0,
        )
        results.append((name, report))
        if report_fn is not None:
            report_fn(name, report)
    return results

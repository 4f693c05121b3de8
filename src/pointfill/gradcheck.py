"""Finite-difference audit of every differentiable operation.

``grad_check`` compares the adjoints a Tape records for a scalar function
with central differences, inside one geometry freeze (see GeometryFreeze):
neighbor selections and interpolation weights are constants of the geometry
by contract, so the taped evaluation records them and every
finite-difference evaluation replays them.

``CASES`` registers one case per operation, a scalar function and its
float64 leaf inputs, and ``run_suite`` checks them. The full forward case
uses a micro model and samples a handful of coordinates per parameter
tensor (every tensor is still touched), which keeps the suite fast without
skipping any operation. The composite cases' scalarization probes are scaled
to ~1e-2 so that coordinates with structurally zero gradients (softmax shift
invariance, occasionally inactive relu units) keep their finite-difference
noise below the 1e-8 absolute floor of the relative-error formula.
"""

from __future__ import annotations

import math
import zlib

import numpy as np

from . import autodiff as ad
from . import geometry
from .errors import ContractError, NumericsError
from .generator import UpsampleStage, UpsampleTransformer, make_core
from .losses import chamfer, completion_loss, downsample_targets, partial_matching_loss
from .pipeline import CompletionModel, ModelConfig

EPS = 1e-5
TOL = 1e-4


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
        status = "ok"
        if not self.passed:
            i, coord, analytic, numeric = self.worst
            status = (f"{len(self.failures)} coordinate(s) over tol; worst input {i} "
                      f"coordinate {coord}: analytic {analytic:.6g}, numeric {numeric:.6g}")
        return (
            f"checked {self.checked} coordinates, max rel err "
            f"{self.max_rel_error:.3e} (tol {self.tol:.1e}): {status}"
        )


def grad_check(fn, inputs, eps=EPS, tol=TOL, max_coords_per_input=None):
    """Compare analytic gradients of ``fn`` against central differences.

    ``fn`` runs in one geometry freeze: the taped evaluation records its
    geometric decisions and every finite-difference evaluation replays them,
    so ``fn`` must not open a freeze of its own.

    Args:
        fn: callable mapping the given Tensors to a scalar Tensor.
        inputs: sequence of float64 leaf Tensors with requires_grad set.
        eps: central-difference step.
        tol: relative-error threshold for flagging a coordinate.
        max_coords_per_input: if given, check only this many coordinates per
            input, chosen by an rng seeded with 0 (still touching every
            input).

    Returns a GradCheckReport. Raises NumericsError if ``fn`` produces a
    non-finite value (each input keeps its values, also when ``fn`` itself
    raises) and ContractError on misuse (non-scalar output, wrong
    precision, an eps that is not finite and > 0, a tol that is not finite
    and >= 0, a max_coords_per_input below 1).
    """
    if not (math.isfinite(eps) and eps > 0):
        raise ContractError(f"grad_check needs a finite eps > 0, got {eps}")
    if not (math.isfinite(tol) and tol >= 0):
        raise ContractError(f"grad_check needs a finite tol >= 0, got {tol}")
    count = max_coords_per_input
    if count is not None and count < 1:
        raise ContractError(f"grad_check needs max_coords_per_input >= 1, got {count}")
    inputs = list(inputs)
    for t in inputs:
        if t.dtype != np.float64:
            raise ContractError("grad_check requires float64 inputs")
        t.zero_grad()

    freezer = geometry.GeometryFreeze()
    with ad.Tape() as tape, freezer:
        out = fn(*inputs)
    if not isinstance(out, ad.Tensor) or out.size != 1:
        raise ContractError("grad_check expects fn to return a scalar Tensor")
    if not np.isfinite(out.data).all():
        raise NumericsError("grad_check: fn returned a non-finite value")
    tape.backward(out)
    analytic = [
        t.grad.copy() if t.grad is not None else np.zeros_like(t.data) for t in inputs
    ]

    def evaluate():
        with freezer:
            v = fn(*inputs).item()
        if not math.isfinite(v):
            raise NumericsError("grad_check: fn returned a non-finite value")
        return v

    rng = np.random.default_rng(0)
    report = GradCheckReport(tol)
    for i, t in enumerate(inputs):
        coords = np.arange(t.size)
        if count is not None and t.size > count:
            coords = rng.choice(t.size, size=count, replace=False)
            coords.sort()
        ga = analytic[i].reshape(-1)
        for c in coords:
            # an index into the leaf itself: reshaping a non-contiguous
            # leaf would perturb a copy that fn never reads
            at = np.unravel_index(c, t.shape)
            keep = t.data[at]
            try:
                t.data[at] = keep + eps
                up = evaluate()
                t.data[at] = keep - eps
                down = evaluate()
            finally:  # a raising fn must not leave the leaf perturbed
                t.data[at] = keep
            report.record(i, int(c), float(ga[c]), (up - down) / (2.0 * eps))
    return report


def _rng(seed=0):
    return np.random.default_rng(seed)


def _param(data):
    return ad.Tensor(data, requires_grad=True, dtype=np.float64)


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
    x = ad.Tensor(np.linalg.solve(w.data.T, (z - b.data).T).T.copy(), requires_grad=True)
    return lambda x, w, b: ad.reduce_sum(ad.linear_relu(x, w, b)), [x, w, b]


def _case_attention_head(name, variant, width):
    def build():
        rng = _rng(zlib.crc32(name.encode()))  # not hash(): salted per process
        n, c, rate = 3, 3, 2
        # every point's neighbors are all three points, one twice
        index = np.array([[0, 1, 2, 1], [1, 2, 0, 0], [2, 0, 1, 2]])
        sign = lambda shape: rng.choice([-1.0, 1.0], shape)
        mags = lambda lo, hi, shape: sign(shape) * rng.uniform(lo, hi, shape)
        # Data clear of finite-difference roundoff: no weight entry near 0
        # (it would scale a gradient row or column down); a diagonally
        # dominant w0 (condition number under 13); every pre-activation at
        # least 0.05 from its relu kink. The position and seed terms have
        # hidden pre-activations 0.2 or more from the kink (small coordinates
        # and u rows, biases of 0.5 to 0.8) and small second layers, so the
        # pair term delta moves the shared layer's pre-activations z by
        # under 0.06. Without it, q and keys give z_ij = A_i - B_j + b0 with
        # unit u inactive (z in [-0.7, -0.3]) exactly at neighbor point
        # u + 1 and active (z in [0.2, 0.6]) elsewhere: each unit is active
        # for one neighbor of a point and inactive for another (else the
        # softmax's shift invariance zeroes b0's gradient), and every row
        # has two active units. With both heads positive, no softmax weight
        # is near 0, nor a logit (the none weight). Two heads share the
        # hidden layer, so everything before it gets the sum of two hidden
        # gradients
        cloud = rng.uniform(-0.05, 0.05, (n, 3))
        pos = [mags(0.5, 1.0, (3, c)), mags(0.5, 0.8, c), mags(0.001, 0.003, (c, c)),
               mags(0.001, 0.002, c)]
        seed = [rng.uniform(-0.1, 0.1, (n, c)), mags(0.5, 0.8, c),
                mags(0.001, 0.003, (c, c)), mags(0.001, 0.002, c)]
        w0 = sign((c, c)) * np.where(
            np.eye(c, dtype=bool), rng.uniform(1.2, 1.5, (c, c)), rng.uniform(0.2, 0.5, (c, c)))
        b0 = rng.uniform(-0.5, 0.5, c)
        off = (np.arange(n)[:, None] == (np.arange(c) + 1) % n)  # point j switches unit j - 1 off
        a_rows = rng.uniform(0.3, 0.5, (n, c)) - b0
        b_rows = np.where(off, rng.uniform(0.8, 1.0, (n, c)), rng.uniform(-0.1, 0.1, (n, c)))
        q, keys = (np.linalg.solve(w0.T, rows.T).T for rows in (a_rows, b_rows))
        heads = [rng.uniform(0.4, 1.2, (c, width)) for _ in range(rate)]
        inputs = [_param(a) for a in (cloud, q, keys, rng.standard_normal((n, c)), *pos,
                                      w0, b0, *heads, *seed)]
        probe = rng.standard_normal((n * rate, c))

        def fn(cloud, q, keys, values, *weights):
            out = ad.upsample_attention(cloud, q, keys, values, index, weights[:4],
                                        weights[4:6], weights[6:6 + rate], weights[6 + rate:],
                                        variant, lam=1.7)
            return ad.reduce_sum(ad.mul(out, ad.constant(probe, like=q)))

        return fn, inputs

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
        mixed = ad.mul(ad.add(a, b), ad.add(a, ad.mul(b, -0.5)))
        # mul takes a scalar on the right, the one scalar form
        return ad.reduce_sum(ad.mul(ad.add(mixed, ad.mul(a, -1.0)), 1.5))

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
        seeds = geometry.PointSet(ad.Tensor(coords), feats)
        out = geometry.interpolate_seed_features(queries, seeds, k=3)
        return ad.reduce_sum(ad.mul(out, ad.constant(probe, like=feats)))

    return fn, [feats]


def _case_uptrans(attention, lam=1.0, pointwise=False):
    def build():
        rng = _rng(30)
        n, c, cs = 8, 6, 4
        core = UpsampleTransformer(rng, c, 2, k=3, seed_channels=cs, attention=attention,
                                   lam=lam, pointwise=pointwise)
        cloud = _cloud(rng, n)
        seed_cloud, seed_feats = ad.Tensor(_cloud(rng, 5)), _leaf(rng, (5, cs))
        queries, keys = _leaf(rng, (n, c)), _leaf(rng, (n, c))
        cloud_t = _leaf(rng, (n, 3))  # drawn, then given the cloud's data
        cloud_t.data = cloud
        params = [p.tensor for p in core.named_parameters()]
        probe = 0.01 * rng.standard_normal((n * core.rate, c))

        def fn(q, k, cloud, seed_feats, *params):
            seeds = geometry.PointSet(seed_cloud, seed_feats)
            s = geometry.interpolate_seed_features(cloud.data, seeds, 2)
            out = core(q, k, cloud, seed_features=s)
            return ad.reduce_sum(ad.mul(out, ad.constant(probe, like=q)))

        return fn, [queries, keys, cloud_t, seed_feats, *params]

    return build


def _ablation_case(variant, seed):
    def build():
        rng = _rng(seed)
        n, c = 8, 6
        core = make_core(variant, rng, c, 2, k=3, seed_channels=None)
        cloud = ad.Tensor(_cloud(rng, n))
        q = _leaf(rng, (n, c))
        k = _leaf(rng, (n, c))
        params = [p.tensor for p in core.named_parameters()]
        probe = 0.01 * rng.standard_normal((n * 2, c))

        def fn(q, k, *params):
            out = core(q, k, cloud)
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
    stage = UpsampleStage(rng, c, cs, rate=2, k=3, interp_k=2)
    # the offset head is zero-initialized; nudge it so its gradient is generic
    stage.offset_map.lin1.w.data += 0.05 * rng.standard_normal(
        stage.offset_map.lin1.w.shape
    )
    seed_cloud, seed_feats = ad.Tensor(_cloud(rng, 5)), _leaf(rng, (5, cs))
    cloud = _leaf(rng, (n, 3))
    feats = _leaf(rng, (n, c))
    params = [p.tensor for p in stage.named_parameters()]
    probe = 0.01 * rng.standard_normal((n * 2, 3))

    def fn(cloud, feats, seed_feats, *params):
        out = stage(geometry.PointSet(cloud, feats), geometry.PointSet(seed_cloud, seed_feats))
        return ad.reduce_sum(ad.mul(out.cloud, ad.constant(probe, like=cloud)))

    return fn, [cloud, feats, seed_feats, *params]


def _case_full_forward():
    rng = _rng(60)
    model = CompletionModel(ModelConfig.micro(init_seed=3))
    partial = _cloud(rng, model.config.input_points, spread=0.5)
    gt = _cloud(rng, 24, spread=0.5)
    sizes = [model.config.seed_count, *model.config.stage_sizes]
    params = [p.tensor for p in model.named_parameters()]

    def fn(*params):
        seeds, states = model.forward(partial)
        targets = downsample_targets(gt, sizes)
        total, _ = completion_loss(seeds.cloud, [s.cloud for s in states], targets)
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
    "uptrans_softmax": _case_uptrans("softmax"),
    "uptrans_none": _case_uptrans("none"),
    "uptrans_scaled": _case_uptrans("scaled", lam=1.7),
    "uptrans_log": _case_uptrans("log"),
    "uptrans_pointwise": _case_uptrans("softmax", pointwise=True),
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
    """Run the named cases (all when ``names`` is None); returns [(name, report)]."""
    selected = list(CASES) if names is None else list(names)
    results = []
    for name in selected:
        if name not in CASES:
            raise KeyError(f"unknown gradcheck case {name!r}")
        fn, inputs = CASES[name]()
        report = grad_check(
            fn, inputs, eps=eps, tol=tol, max_coords_per_input=_SAMPLED.get(name)
        )
        results.append((name, report))
        if report_fn is not None:
            report_fn(name, report)
    return results

"""Model assembly, config text, training loop and losses.

A :class:`CompletionModel` chains the encoder, the seed generator and a
stack of refinement stages. ``forward`` returns the seed set plus every
stage output; ``train_step`` adds the losses, runs one backward pass and
one optimizer update, and reports a :class:`LossBreakdown`.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import autodiff as ad
from . import geometry
from .encoder import Encoder
from .errors import ContractError, FormatError, NumericsError, ParseError
from .generator import AttentionMode, SeedGenerator, UpsampleStage
from .layers import Mlp2, Module
from .losses import (
    LossBreakdown,
    completion_loss,
    downsample_targets,
    partial_matching_loss,
)

_PRECISIONS = {"float32": np.float32, "float64": np.float64}


@dataclass
class ModelConfig:
    """Complete structural description of one model.

    Defaults are the desk-scale setup (512-point inputs, 512-point final
    prediction); the classmethods below give the benchmark-scale layouts.
    """

    input_points: int = 512
    stage1_points: int = 256
    stage1_channels: int = 64
    patch_points: int = 64
    patch_channels: int = 128
    encoder_k: int = 16
    seed_rate: int = 2
    seed_channels: int = 64
    coarse_points: int = 128
    channels: int = 64
    rates: tuple = (1, 2, 2)
    attention_k: int = 16
    interp_k: int = 3
    generator: str = "uptrans"
    seed_attention: str = "none"
    stage_attention: tuple = ()  # empty: softmax for every stage
    attention_scale: float = 1.0
    precision: str = "float32"
    init_seed: int = 0

    def __post_init__(self):
        self.rates = tuple(int(r) for r in self.rates)
        if isinstance(self.stage_attention, str):
            self.stage_attention = (self.stage_attention,) * len(self.rates)
        else:
            self.stage_attention = tuple(self.stage_attention)
        self.validate()

    def validate(self):
        small = [name for name in sorted(_SIZE_FIELDS) if getattr(self, name) < 1]
        if small:
            raise ContractError(f"config sizes must be >= 1: {', '.join(small)}")
        if self.init_seed < 0:
            raise ContractError("init_seed must be >= 0")
        if not self.rates:
            raise ContractError("config needs at least one upsample rate")
        if any(r < 1 for r in self.rates):
            raise ContractError("upsample rates must be >= 1")
        if self.precision not in _PRECISIONS:
            raise ContractError(f"precision must be one of {sorted(_PRECISIONS)}")
        if self.stage1_points > self.input_points:
            raise ContractError("stage1_points cannot exceed input_points")
        if self.patch_points > self.stage1_points:
            raise ContractError("patch_points cannot exceed stage1_points")
        if self.coarse_points > self.seed_count + self.input_points:
            raise ContractError("coarse_points exceeds seeds + input")
        if self.stage_attention and len(self.stage_attention) != len(self.rates):
            raise ContractError("stage_attention length must match rates")

    @property
    def seed_count(self):
        return self.seed_rate * self.patch_points

    @property
    def stage_sizes(self):
        """Point count after each refinement stage."""
        sizes = []
        n = self.coarse_points
        for r in self.rates:
            n *= r
            sizes.append(n)
        return sizes

    @property
    def final_points(self):
        return self.stage_sizes[-1]

    @property
    def dtype(self):
        return _PRECISIONS[self.precision]

    def seed_mode(self):
        return AttentionMode(self.seed_attention, lam=self.attention_scale)

    def stage_mode(self, index):
        variant = self.stage_attention[index] if self.stage_attention else "softmax"
        return AttentionMode(variant, lam=self.attention_scale)

    @classmethod
    def desk(cls, **overrides):
        return cls(**overrides)

    @classmethod
    def benchmark_16k(cls, **overrides):
        """The dense-output layout: 2048 in, 16384 out (rates 1, 4, 8)."""
        base = dict(
            input_points=2048, stage1_points=512, stage1_channels=128,
            patch_points=128, patch_channels=256, seed_rate=2, seed_channels=128,
            coarse_points=512, channels=128, rates=(1, 4, 8),
        )
        base.update(overrides)
        return cls(**base)

    @classmethod
    def benchmark_8k(cls, **overrides):
        """The medium-output layout: 2048 in, 8192 out (rates 1, 4, 4)."""
        return cls.benchmark_16k(rates=(1, 4, 4), **overrides)

    @classmethod
    def micro(cls, **overrides):
        """Tiny layout for finite-difference audits of the full model."""
        base = dict(
            input_points=24, stage1_points=12, stage1_channels=6,
            patch_points=6, patch_channels=10, encoder_k=4, seed_rate=2,
            seed_channels=6, coarse_points=12, channels=6, rates=(1, 2),
            attention_k=4, interp_k=2, precision="float64",
        )
        base.update(overrides)
        return cls(**base)

    def to_mapping(self):
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, tuple):
                value = ",".join(str(v) for v in value)
            out[f.name] = str(value)
        return out

    @classmethod
    def from_mapping(cls, mapping):
        kwargs = {}
        known = {f.name for f in fields(cls)}
        for key, raw in mapping.items():
            if key not in known:
                raise ContractError(f"unknown config key {key!r}")
            try:
                kwargs[key] = _parse_field(key, raw)
            except ValueError:
                raise ParseError(f"config key {key!r}: bad value {raw!r}") from None
        return cls(**kwargs)

    def to_text(self, extra=None):
        """The config as ``key = value`` lines, ``extra`` pairs appended."""
        items = {**self.to_mapping(), **(extra or {})}
        return "".join(f"{k} = {v}\n" for k, v in items.items())


_SIZE_FIELDS = {
    "input_points", "stage1_points", "stage1_channels", "patch_points",
    "patch_channels", "encoder_k", "seed_rate", "seed_channels",
    "coarse_points", "channels", "attention_k", "interp_k",
}
_INT_FIELDS = _SIZE_FIELDS | {"init_seed"}


def _parse_field(name, raw):
    raw = raw.strip()
    if name in _INT_FIELDS:
        return int(raw)
    if name == "attention_scale":
        return float(raw)
    if name == "rates":
        return tuple(int(v) for v in raw.split(",") if v.strip())
    if name == "stage_attention":
        return tuple(v.strip() for v in raw.split(",") if v.strip())
    return raw


def parse_config_text(text, source="config"):
    """Read ``key = value`` lines into a mapping; ``#`` starts a comment."""
    mapping = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"{source}: line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        mapping[key.strip()] = value.strip()
    return mapping


class CompletionModel(Module):
    """Encoder, seed generator and refinement stack behind one forward call."""

    def __init__(self, config):
        rng = np.random.default_rng(config.init_seed)
        dtype = config.dtype
        self.encoder = Encoder(
            rng, config.stage1_points, config.stage1_channels,
            config.patch_points, config.patch_channels, k=config.encoder_k,
            dtype=dtype,
        )
        self.seed_generator = SeedGenerator(
            rng, config.patch_channels, config.seed_channels,
            rate=config.seed_rate, k=config.attention_k, mode=config.seed_mode(),
            variant=config.generator, dtype=dtype,
        )
        self.point_lift = Mlp2(rng, 3, config.channels, config.channels, dtype=dtype)
        self.stages = [
            UpsampleStage(
                rng, config.channels, config.seed_channels, rate,
                k=config.attention_k, interp_k=config.interp_k,
                mode=config.stage_mode(i), variant=config.generator, dtype=dtype,
            )
            for i, rate in enumerate(config.rates)
        ]
        self.config = config
        names = [p.name for p in self.named_parameters()]
        if len(names) != len(set(names)):
            raise ContractError("duplicate parameter names in model")

    def forward(self, partial):
        """Complete a partial cloud.

        The encoder's patches become seeds; ``geometry.fuse_and_resample``
        fuses the seed cloud with the input into the coarse cloud, which
        ``point_lift`` gives features, and each stage refines the previous
        stage's PointSet.

        Args:
            partial: (n, 3) array with ``n >= config.input_points`` minimum
                (resample beforehand if needed).

        Returns:
            (seeds, stages): the seed PointSet and one PointSet per rate,
            the last one's cloud being the final prediction.
        """
        cfg = self.config
        partial = geometry.as_cloud(partial, "partial").astype(cfg.dtype, copy=False)
        patches = self.encoder(partial)
        seeds = self.seed_generator(patches)
        coarse = geometry.fuse_and_resample(
            seeds.cloud, ad.tensor(partial), cfg.coarse_points
        )
        points = geometry.PointSet(coarse, self.point_lift(coarse))
        stages = []
        for stage in self.stages:
            points = stage(points, seeds)
            stages.append(points)
        return seeds, stages

    def complete(self, partial):
        """Convenience: forward pass returning only the final cloud array."""
        _, states = self.forward(partial)
        return states[-1].cloud.data.copy()


class Adam:
    """First-order adaptive-moment optimizer (beta1=0.9, beta2=0.999)."""

    def __init__(self, model, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        # a NaN or infinite rate poisons every parameter; a negative one ascends
        if not (np.isfinite(lr) and lr >= 0):
            raise ContractError(f"learning rate lr must be finite and >= 0, got {lr}")
        self._params = list(model.named_parameters())
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self.moment1 = {
            name: np.zeros_like(p.data) for name, p in self._params
        }
        self.moment2 = {
            name: np.zeros_like(p.data) for name, p in self._params
        }

    def step(self):
        self.step_count += 1
        b1, b2 = self.beta1, self.beta2
        correction1 = 1.0 - b1 ** self.step_count
        correction2 = 1.0 - b2 ** self.step_count
        for name, p in self._params:
            g = p.grad
            if g is None:
                continue
            m = self.moment1[name]
            v = self.moment2[name]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            m_hat = m / correction1
            v_hat = v / correction2
            p.data -= (self.lr * m_hat / (np.sqrt(v_hat) + self.eps)).astype(
                p.dtype, copy=False
            )

    def state_arrays(self):
        """Flat view of the optimizer state for checkpointing."""
        out = {"adam.step": np.array([float(self.step_count)], dtype=np.float32)}
        for name, _ in self._params:
            out[f"adam.m.{name}"] = self.moment1[name]
            out[f"adam.v.{name}"] = self.moment2[name]
        return out

    def load_state_arrays(self, arrays):
        if "adam.step" in arrays:
            step = arrays["adam.step"]
            if step.shape != (1,) or not np.isfinite(step[0]) or step[0] < 0:
                raise FormatError(f"optimizer record 'adam.step' is not one step count: {step}")
            self.step_count = int(round(float(step[0])))
        for name, p in self._params:
            for prefix, store in (("adam.m.", self.moment1), ("adam.v.", self.moment2)):
                key = prefix + name
                if key not in arrays:
                    raise FormatError(f"optimizer state missing record {key!r}")
                stored = arrays[key]
                if stored.shape != p.shape:
                    raise FormatError(
                        f"optimizer record {key!r} has shape {stored.shape} in the "
                        f"checkpoint but {p.shape} in the model"
                    )
                store[name] = stored.astype(p.dtype, copy=False).copy()


def _forward_loss(model, partial, gt, targets=None):
    """Forward pass and training loss on one pair: ``(total, LossBreakdown)``."""
    dtype = model.config.dtype
    seeds, states = model.forward(partial)
    comp_total, terms = completion_loss(
        seeds.cloud, [s.cloud for s in states], np.asarray(gt, dtype=dtype),
        targets=targets,
    )
    matching = partial_matching_loss(
        ad.tensor(np.asarray(partial, dtype=dtype)), states[-1].cloud
    )
    total = ad.add(comp_total, matching)
    return total, LossBreakdown(
        stage_cds=tuple(float(t.item()) for t in terms),
        partial_matching=float(matching.item()),
        total=float(total.item()),
    )


def _accumulate_loss(model, partial, gt, scale=1.0, targets=None):
    """Forward + loss + backward for one cloud, scaled for accumulation.

    Gradients add onto whatever is already in the parameter grads; the
    caller owns zeroing and the optimizer update. ``targets`` optionally
    carries precomputed per-output loss targets. Returns the (unscaled)
    LossBreakdown for this pair.
    """
    with ad.Tape() as tape:
        total, breakdown = _forward_loss(model, partial, gt, targets=targets)
        scaled = total if scale == 1.0 else ad.mul(total, float(scale))
    if not np.isfinite(breakdown.total):
        raise NumericsError(
            "non-finite training loss: "
            f"stage_cds={breakdown.stage_cds} partial={breakdown.partial_matching}"
        )
    tape.backward(scaled)
    return breakdown


def evaluate_loss(model, partial, gt):
    """Training-objective value on one pair, without gradients or updates."""
    return _forward_loss(model, partial, gt)[1]


def train_step(model, partial, gt, optimizer):
    """One optimization step on a single (partial, gt) pair.

    Runs the forward pass, sums the per-output Chamfer terms and the
    partial-matching term, backpropagates and applies one optimizer
    update. Returns the LossBreakdown. Raises NumericsError (with the
    per-term values in the message) if any term is non-finite.
    """
    model.zero_grad()
    breakdown = _accumulate_loss(model, partial, gt)
    optimizer.step()
    return breakdown


@dataclass
class TrainLogRow:
    step: int
    breakdown: LossBreakdown


def run_training(model, samples, steps, optimizer, seed=0, lr_decay_every=None,
                 lr_decay=0.1, batch_clouds=1, on_step=None):
    """Iterate training steps over a sample list.

    Each step processes ``batch_clouds`` single-cloud forward/backward
    passes with gradients accumulated (emulating a batch; the engine has no
    batch axis) and applies one optimizer update; the logged breakdown is
    the mean over the batch. Samples are visited in a per-epoch order
    shuffled by ``seed``; the learning rate decays by ``lr_decay`` every
    ``lr_decay_every`` steps when configured. ``on_step(row)`` fires after
    every step.
    """
    if not samples:
        raise ContractError("run_training needs at least one sample")
    if batch_clouds < 1:
        raise ContractError("batch_clouds must be >= 1")
    if lr_decay_every is not None and lr_decay_every < 1:
        raise ContractError(f"lr_decay_every must be >= 1 or None, got {lr_decay_every}")
    rng = np.random.default_rng(seed)
    base_lr = optimizer.lr
    sizes = [model.config.seed_count, *model.config.stage_sizes]
    target_cache = {}
    rows = []
    order = []
    for step in range(1, steps + 1):
        if lr_decay_every:
            optimizer.lr = base_lr * (lr_decay ** ((step - 1) // lr_decay_every))
        model.zero_grad()
        parts = []
        for _ in range(batch_clouds):
            if not order:
                order = list(rng.permutation(len(samples)))
            index = order.pop(0)
            partial, gt = samples[index]
            if index not in target_cache:
                target_cache[index] = downsample_targets(
                    np.asarray(gt, dtype=model.config.dtype), sizes
                )
            parts.append(
                _accumulate_loss(
                    model, partial, gt, scale=1.0 / batch_clouds,
                    targets=target_cache[index],
                )
            )
        optimizer.step()
        breakdown = LossBreakdown(
            stage_cds=tuple(
                float(np.mean([p.stage_cds[i] for p in parts]))
                for i in range(len(parts[0].stage_cds))
            ),
            partial_matching=float(np.mean([p.partial_matching for p in parts])),
            total=float(np.mean([p.total for p in parts])),
        )
        row = TrainLogRow(step=step, breakdown=breakdown)
        rows.append(row)
        if on_step is not None:
            on_step(row)
    optimizer.lr = base_lr
    return rows

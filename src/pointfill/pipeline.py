"""Model assembly, config text, training loop and losses.

:class:`ModelConfig` declares each model setting once: a field's default
gives the type its ``key = value`` text parses to, every int field but
``init_seed`` is a size of at least 1, and no neighborhood size may exceed
the points it searches. A :class:`CompletionModel` chains the encoder, the
seed generator and a stack of refinement stages. ``forward`` returns the
seed set plus every stage output. ``run_training`` is the one training
loop: per step it zeroes the gradients, runs each cloud's forward, loss and
backward pass, applies one :class:`Adam` update and reports a
:class:`LossBreakdown`. :class:`Adam` is the update rule only; its
checkpoint records are written and checked in ``checkpoint``.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, fields

import numpy as np

from . import autodiff as ad
from . import geometry
from .encoder import Encoder
from .errors import ContractError, NumericsError, ParseError
from .generator import (
    GENERATOR_VARIANTS,
    NEIGHBORHOOD_VARIANTS,
    SeedGenerator,
    UpsampleStage,
)
from .layers import Mlp2, Module
from .losses import (
    LossBreakdown,
    completion_loss,
    downsample_targets,
    partial_matching_loss,
)

_PRECISIONS = {"float32": np.float32, "float64": np.float64}

# what a field whose default has this type accepts, and its name in errors
_TYPES = {int: numbers.Integral, float: numbers.Real, str: str}
_TYPE_NAMES = {int: "an integer", float: "a real number", str: "a string",
               tuple: "a tuple of integers"}

# Adam's moment decays and denominator guard, and the learning-rate factor
# applied every ``lr_decay_every`` steps
_BETA1 = 0.9
_BETA2 = 0.999
_EPS = 1e-8
_LR_DECAY = 0.1


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
    seed_attention: str = "none"  # the stages always use softmax
    attention_scale: float = 1.0
    precision: str = "float32"
    init_seed: int = 0

    def __post_init__(self):
        self.validate()

    def validate(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not _fits(f.default, value):
                raise ContractError(
                    f"config field {f.name} must be {_TYPE_NAMES[type(f.default)]}, "
                    f"got {value!r}"
                )
        # every int field but the seed is a count, width or k
        small = sorted(
            f.name for f in fields(self) if type(f.default) is int
            and f.name != "init_seed" and getattr(self, f.name) < 1
        )
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
        if self.generator not in GENERATOR_VARIANTS:
            raise ContractError(
                f"generator must be one of {GENERATOR_VARIANTS}, got {self.generator!r}"
            )
        try:
            ad.check_attention(self.seed_attention, self.attention_scale)
        except ContractError as exc:
            raise ContractError(
                f"seed_attention={self.seed_attention!r}, "
                f"attention_scale={self.attention_scale}: {exc}"
            ) from None
        if self.stage1_points > self.input_points:
            raise ContractError("stage1_points cannot exceed input_points")
        if self.patch_points > self.stage1_points:
            raise ContractError("patch_points cannot exceed stage1_points")
        if self.coarse_points > self.seed_count + self.input_points:
            raise ContractError("coarse_points exceeds seeds + input")
        # each neighborhood size against the fewest points it is searched in
        searched = {"encoder_k": self.patch_points, "interp_k": self.seed_count}
        if self.generator in NEIGHBORHOOD_VARIANTS:
            searched["attention_k"] = min(self.patch_points, self.coarse_points)
        for name, n in searched.items():
            k = getattr(self, name)
            if k > n:
                raise ContractError(f"{name}={k} exceeds the {n} points it searches")

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
        """A config from ``key: text`` pairs, each parsed as its default's type.

        Older files carry ``stage_attention``; it is accepted only when empty
        or all ``softmax``, the model that gets built."""
        kwargs = {}
        defaults = {f.name: f.default for f in fields(cls)}
        for key, raw in mapping.items():
            if key == "stage_attention":
                if {v.strip() for v in raw.split(",")} - {"", "softmax"}:
                    raise ContractError(
                        f"config key 'stage_attention' = {raw!r}: the stages "
                        "always use softmax"
                    )
                continue
            if key not in defaults:
                raise ContractError(f"unknown config key {key!r}")
            try:
                kwargs[key] = _parse_field(defaults[key], raw)
            except ValueError:
                raise ParseError(f"config key {key!r}: bad value {raw!r}") from None
        return cls(**kwargs)

    def to_text(self, extra=None):
        """The config as ``key = value`` lines, ``extra`` pairs appended."""
        items = {**self.to_mapping(), **(extra or {})}
        return "".join(f"{k} = {v}\n" for k, v in items.items())


def _fits(default, value):
    """Whether ``value`` has the type of a field whose default is ``default``;
    a bool is not an integer here, nor a real number."""
    if isinstance(default, tuple):
        return isinstance(value, tuple) and all(_fits(0, v) for v in value)
    return isinstance(value, _TYPES[type(default)]) and not isinstance(value, bool)


def _parse_field(default, raw):
    """``raw`` as the type of ``default``: int, float, str, or an int tuple."""
    raw = raw.strip()
    if isinstance(default, tuple):
        return tuple(int(v) for v in raw.split(",") if v.strip())
    return type(default)(raw)


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
    """Encoder, seed generator and refinement stack behind one forward call.

    The parts build in float64 and the whole model is cast once to
    ``config.dtype``, the one precision setting.
    """

    def __init__(self, config):
        rng = np.random.default_rng(config.init_seed)
        self.encoder = Encoder(
            rng, config.stage1_points, config.stage1_channels,
            config.patch_points, config.patch_channels, k=config.encoder_k,
        )
        self.seed_generator = SeedGenerator(
            rng, config.patch_channels, config.seed_channels,
            rate=config.seed_rate, k=config.attention_k, variant=config.generator,
            attention=config.seed_attention, lam=config.attention_scale,
        )
        self.point_lift = Mlp2(rng, 3, config.channels, config.channels)
        self.stages = [
            UpsampleStage(
                rng, config.channels, config.seed_channels, rate,
                k=config.attention_k, interp_k=config.interp_k,
                variant=config.generator,
            )
            for rate in config.rates
        ]
        self.config = config
        self.astype(config.dtype)
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
            seeds.cloud, ad.Tensor(partial), cfg.coarse_points
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
    """First-order adaptive-moment optimizer (β1 = 0.9, β2 = 0.999, ε = 1e-8)."""

    def __init__(self, model, lr=1e-3):
        # a NaN or infinite rate poisons every parameter; a negative one ascends
        if not (np.isfinite(lr) and lr >= 0):
            raise ContractError(f"learning rate lr must be finite and >= 0, got {lr}")
        self._params = list(model.named_parameters())
        self.lr = lr
        self.step_count = 0
        self.moment1 = {
            name: np.zeros_like(p.data) for name, p in self._params
        }
        self.moment2 = {
            name: np.zeros_like(p.data) for name, p in self._params
        }

    def step(self):
        self.step_count += 1
        correction1 = 1.0 - _BETA1 ** self.step_count
        correction2 = 1.0 - _BETA2 ** self.step_count
        for name, p in self._params:
            g = p.grad
            if g is None:
                continue
            m = self.moment1[name]
            v = self.moment2[name]
            m *= _BETA1
            m += (1.0 - _BETA1) * g
            v *= _BETA2
            v += (1.0 - _BETA2) * g * g
            m_hat = m / correction1
            v_hat = v / correction2
            p.data -= (self.lr * m_hat / (np.sqrt(v_hat) + _EPS)).astype(
                p.dtype, copy=False
            )


def _forward_loss(model, partial, targets):
    """Forward pass and training loss on one input against its per-output
    loss targets (``downsample_targets``): ``(total, LossBreakdown)``."""
    seeds, states = model.forward(partial)
    comp_total, terms = completion_loss(seeds.cloud, [s.cloud for s in states], targets)
    matching = partial_matching_loss(
        ad.Tensor(np.asarray(partial, dtype=model.config.dtype)), states[-1].cloud
    )
    total = ad.add(comp_total, matching)
    return total, LossBreakdown(
        stage_cds=tuple(float(t.item()) for t in terms),
        partial_matching=float(matching.item()),
        total=float(total.item()),
    )


def _accumulate_loss(model, partial, scale, targets):
    """Forward + loss + backward for one cloud, scaled for accumulation.

    Gradients add onto whatever is already in the parameter grads; the
    caller owns zeroing and the optimizer update. ``targets`` carries the
    precomputed per-output loss targets. Returns the (unscaled)
    LossBreakdown for this pair. Raises NumericsError (with the per-term
    values in the message) if any term is non-finite.
    """
    with ad.Tape() as tape:
        total, breakdown = _forward_loss(model, partial, targets)
        scaled = total if scale == 1.0 else ad.mul(total, float(scale))
    if not np.isfinite(breakdown.total):
        raise NumericsError(
            "non-finite training loss: "
            f"stage_cds={breakdown.stage_cds} partial={breakdown.partial_matching}"
        )
    tape.backward(scaled)
    return breakdown


def _sample_order(rng, n):
    """Sample indices without end: one ``rng`` permutation of ``n`` per epoch."""
    while True:
        yield from rng.permutation(n)


@dataclass
class TrainLogRow:
    step: int
    breakdown: LossBreakdown


def run_training(model, samples, steps, optimizer, seed=0, lr_decay_every=None,
                 batch_clouds=1, on_step=None):
    """Iterate training steps over a sample list.

    Each step processes ``batch_clouds`` single-cloud forward/backward
    passes with gradients accumulated (emulating a batch; the engine has no
    batch axis) and applies one optimizer update; the logged breakdown is
    the mean over the batch. Samples are visited in a per-epoch order
    shuffled by ``seed``; the learning rate decays by 0.1 every
    ``lr_decay_every`` steps when configured. ``on_step(row)`` fires after
    every step.
    """
    if not samples:
        raise ContractError("run_training needs at least one sample")
    if batch_clouds < 1:
        raise ContractError("batch_clouds must be >= 1")
    if lr_decay_every is not None and lr_decay_every < 1:
        raise ContractError(f"lr_decay_every must be >= 1 or None, got {lr_decay_every}")
    order = _sample_order(np.random.default_rng(seed), len(samples))
    base_lr = optimizer.lr
    sizes = [model.config.seed_count, *model.config.stage_sizes]
    target_cache = {}
    rows = []
    try:
        for step in range(1, steps + 1):
            if lr_decay_every:
                optimizer.lr = base_lr * (_LR_DECAY ** ((step - 1) // lr_decay_every))
            model.zero_grad()
            parts = []
            for _ in range(batch_clouds):
                index = next(order)
                partial, gt = samples[index]
                if index not in target_cache:
                    target_cache[index] = downsample_targets(
                        np.asarray(gt, dtype=model.config.dtype), sizes
                    )
                parts.append(
                    _accumulate_loss(model, partial, 1.0 / batch_clouds, target_cache[index])
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
    finally:
        optimizer.lr = base_lr
    return rows

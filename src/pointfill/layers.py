"""Small parameterized building blocks shared by the encoder and generators.

Every module builds its tensors in float64, the precision the init draws
come in. A model's precision is decided once, by casting the built module
with :meth:`Module.astype`; ``CompletionModel`` does so with its config's
dtype.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

import numpy as np

from . import autodiff as ad


class Parameter(NamedTuple):
    """A named tensor of a module, e.g. ('encoder.abstract1.lift.lin0.w', Tensor)."""

    name: str
    tensor: ad.Tensor


class Module:
    """Base with recursive parameter discovery over instance attributes.

    Every Tensor a module holds is a parameter. Attribute insertion order
    fixes the parameter order, so construction order is the single source
    of determinism for init, optimizers and checkpoints.
    """

    def named_parameters(self, prefix="") -> Iterator[Parameter]:
        for attr, value in vars(self).items():
            name = f"{prefix}{attr}" if not prefix else f"{prefix}.{attr}"
            if isinstance(value, ad.Tensor):
                yield Parameter(name, value)
            elif isinstance(value, Module):
                yield from value.named_parameters(name)
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        yield from item.named_parameters(f"{name}{i}")

    def parameters(self):
        return [p.tensor for p in self.named_parameters()]

    def astype(self, dtype):
        """Cast every parameter to ``dtype`` in place; returns the module."""
        for t in self.parameters():
            t.data = t.data.astype(dtype, copy=False)
        return self

    def zero_grad(self):
        for p in self.parameters():
            p.zero_grad()

    def parameter_count(self):
        return sum(p.size for p in self.parameters())


def _init_weight(rng, n_in, n_out):
    bound = 1.0 / np.sqrt(n_in)
    return rng.uniform(-bound, bound, size=(n_in, n_out))


class Linear(Module):
    """Affine row map.

    ``zero_init`` starts the layer at the zero function. With ``bias=False``
    the layer holds only ``w`` and is not callable: an upsample transformer's
    attention heads have no bias, and ``ad.upsample_attention`` reads each
    head's ``w`` itself.
    """

    def __init__(self, rng, n_in, n_out, zero_init=False, bias=True):
        w = np.zeros((n_in, n_out)) if zero_init else _init_weight(rng, n_in, n_out)
        self.w = ad.Tensor(w, requires_grad=True)
        if bias:
            bound = 1.0 / np.sqrt(n_in)
            b = np.zeros(n_out) if zero_init else rng.uniform(-bound, bound, size=n_out)
            self.b = ad.Tensor(b, requires_grad=True)

    def __call__(self, x):
        return ad.linear(x, self.w, self.b)


class Mlp2(Module):
    """Two affine layers with a relu between (the shared per-point map).

    The first layer and the relu run as one ``linear_relu`` record, so a
    taped call appends two records and keeps no pre-activation. An upsample
    transformer's position and seed encoders are not called: their weights
    go into its ``ad.upsample_attention`` record, which runs them per tile.
    """

    def __init__(self, rng, n_in, n_hidden, n_out, zero_last=False):
        self.lin0 = Linear(rng, n_in, n_hidden)
        self.lin1 = Linear(rng, n_hidden, n_out, zero_init=zero_last)

    def __call__(self, x):
        return self.lin1(ad.linear_relu(x, self.lin0.w, self.lin0.b))

"""Tour of the reverse-mode engine: tensors, the tape, gradient checking.

Run: python3 demos/01_autodiff_engine.py
"""

import numpy as np

from pointfill import autodiff as ad
from pointfill import gradcheck

# Tensors wrap numpy arrays; leaves that should receive gradients are
# created with requires_grad=True.
x = ad.Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)

# While a Tape is active, primitives record their adjoints.
with ad.Tape() as tape:
    loss = ad.reduce_sum(ad.mul(x, x))  # sum of squares
print(f"loss = {loss.item():.1f} (tape holds {len(tape)} primitive records)")

tape.backward(loss)
print("d(sum x^2)/dx =", x.grad, "(expected 2x)")

# A less trivial composite: upsample attention with one kernel. A two-layer
# kernel turns each (point, neighbor) row into logits, a softmax over the 6
# neighbors of each of 4 points makes them weights, and the weights sum the
# values. With more kernels, each gives its own output row per point.
rng = np.random.default_rng(0)
n, k, c = 4, 6, 3
rows = ad.Tensor(rng.standard_normal((n * k, c)), requires_grad=True)
values = ad.Tensor(rng.standard_normal((n, k, c)))
w0, b0 = ad.Tensor(rng.standard_normal((c, c))), ad.Tensor(np.zeros(c))
w1 = ad.Tensor(rng.standard_normal((c, c)))
weights = []
with ad.Tape() as tape:
    head = ad.upsample_attention(rows, values, [(w0, b0, w1)], "softmax", capture=weights)
    score = ad.reduce_sum(ad.mul(head, ad.constant(rng.standard_normal((n, c)))))
tape.backward(score)
print("softmax weights sum over the neighbors to", weights[0].data.sum(axis=1)[0].round(12))
print("max |d score / d rows| =", float(np.abs(rows.grad).max()).__round__(4))

# gradcheck.grad_check compares the recorded adjoints against central
# differences. It runs fn in a geometry freeze, so any neighbor choices the
# taped evaluation makes are replayed by every perturbed one.
probe = rng.standard_normal((5, 3))


def fn(a):
    return ad.reduce_sum(ad.mul(ad.linear_relu(a, w, b), ad.constant(probe)))


w = ad.Tensor(rng.standard_normal((4, 3)), requires_grad=True)
b = ad.Tensor(rng.standard_normal(3), requires_grad=True)
a = ad.Tensor(rng.standard_normal((5, 4)) + 0.5, requires_grad=True)
report = gradcheck.grad_check(fn, [a], eps=1e-5, tol=1e-4)
print("grad_check:", report.summary())

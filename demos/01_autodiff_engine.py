"""Tour of the reverse-mode engine: tensors, the tape, gradient checking.

Run: python3 demos/01_autodiff_engine.py
"""

import numpy as np

from pointfill import attention
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

# A less trivial composite: an upsample transformer's attention with one
# head, as one record (pointfill.attention). Each of 4 points has 6 neighbors (rows of the index
# table); a (point, neighbor) row is q_i - key_j plus a term of the pair's
# relative position. A hidden layer turns each row into hidden features and
# the head maps them to logits, a softmax over the 6 neighbors of each point
# makes them weights, and the weights sum the neighbors' values (plus the
# position term). With more heads, each maps the same hidden rows to its
# own output row per point.
rng = np.random.default_rng(0)
n, k, c = 4, 6, 3
q = ad.Tensor(rng.standard_normal((n, c)), requires_grad=True)
keys, values = (ad.Tensor(rng.standard_normal((n, c))) for _ in range(2))
cloud = ad.Tensor(rng.standard_normal((n, 3)))
index = np.array([rng.permutation(n)[[0, 1, 2, 3, 0, 1]] for _ in range(n)])
pos = [ad.Tensor(rng.standard_normal(shape)) for shape in ((3, c), (c,), (c, c), (c,))]
w0, b0 = ad.Tensor(rng.standard_normal((c, c))), ad.Tensor(np.zeros(c))
head_w = ad.Tensor(rng.standard_normal((c, c)))
weights = []
with ad.Tape() as tape:
    head = attention.upsample_attention(cloud, q, keys, values, index, pos, (w0, b0),
                                        [head_w], capture=weights)
    score = ad.reduce_sum(ad.mul(head, ad.constant(rng.standard_normal((n, c)))))
tape.backward(score)
print("softmax weights sum over the neighbors to", weights[0].data.sum(axis=1)[0].round(12))
print("max |d score / d q| =", float(np.abs(q.grad).max()).__round__(4))

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

#!/usr/bin/env python3
"""Recurrent approximation of an open dynamical system.

The target is a two-dimensional linear system h_t = P x_t + Q h_{t-1} with a
linear readout, observed over eight steps.  A recurrent complex net learns
to reproduce its outputs by backpropagation through the unrolled recurrence.
"""

import numpy as np

from ftnetlab.activations import HOLSIN
from ftnetlab.losses import Dataset, squared_loss
from ftnetlab.models import dods_linear, eval_dods, eval_rftnet_many
from ftnetlab.optimize import TrainConfig, random_rftnet, train_rftnet

print(__doc__)

dods = dods_linear(P=[[0.8, 0.0], [0.2, 0.5]], Q=[[0.3, -0.2], [0.1, 0.4]],
                   readout=[1.0, -0.7], h0=[0.0, 0.0])
t_len, n_seq, width = 8, 48, 16

rng = np.random.default_rng(0)
xs = rng.uniform(-1, 1, size=(n_seq, t_len, dods.I))
ys = np.stack([eval_dods(dods, xs[b])[0] for b in range(n_seq)])

p0 = random_rftnet(dods.I, width, HOLSIN, 0.2, rng)
cfg = TrainConfig(step_size=1e-3, max_iters=20_000, target_loss=1e-2 * n_seq * t_len)
print(f"training: H={width}, {n_seq} sequences of length {t_len}, "
      f"target per-step MSE 1e-2")
trained, trace = train_rftnet(p0, Dataset(xs, ys), squared_loss(), cfg)
print(f"reached per-step MSE {trace[-1] / (n_seq * t_len):.2e} after "
      f"{len(trace) - 1} accepted steps")

print("\none held-out sequence, step by step:")
x_new = np.random.default_rng(99).uniform(-1, 1, size=(t_len, dods.I))
truth = eval_dods(dods, x_new)[0]
pred = eval_rftnet_many(trained, x_new[None])[0]
for t in range(t_len):
    print(f"  t={t + 1}: target {truth[t]:+.4f}   model {pred[t]:+.4f}   "
          f"|err| {abs(truth[t] - pred[t]):.4f}")

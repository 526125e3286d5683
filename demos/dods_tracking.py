#!/usr/bin/env python3
"""Recurrent approximation of an open dynamical system.

The target is a two-dimensional linear system h_t = P x_t + Q h_{t-1} with a
linear readout, observed over eight steps.  A recurrent complex net learns
to reproduce its outputs by backpropagation through the unrolled recurrence.
"""

import numpy as np

from ftnetlab.cli import resolve_config
from ftnetlab.models import eval_rftnet_many
from ftnetlab.optimize import training_fit

print(__doc__)

cfg = resolve_config("train", {"demo": "dods_linear"})
fit = training_fit(cfg)
n_seq, t_len, i = fit.data.xs.shape
target_mse = np.format_float_scientific(cfg["target_mse"], trim="-", exp_digits=1)

print(f"training: H={cfg['H']}, {n_seq} sequences of length {t_len}, "
      f"target per-step MSE {target_mse}")
trained, trace = fit.train(fit.draw_p0())
print(f"reached per-step MSE {trace[-1] / fit.data.ys.size:.2e} after "
      f"{len(trace) - 1} accepted steps")

print("\none held-out sequence, step by step:")
x_new = np.random.default_rng(99).uniform(-1, 1, size=(1, t_len, i))
truth = fit.target(x_new)[0]
pred = eval_rftnet_many(trained, x_new)[0]
for t in range(t_len):
    print(f"  t={t + 1}: target {truth[t]:+.4f}   model {pred[t]:+.4f}   "
          f"|err| {abs(truth[t] - pred[t]):.4f}")

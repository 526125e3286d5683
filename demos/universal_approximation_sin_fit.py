#!/usr/bin/env python3
"""Universal approximation at desk scale: fit sin(3x) with 32 hidden units.

A one-hidden-layer network with complex weights and the sin activation is
trained by gradient descent with backtracking on 256 grid points.  The
existence of a good approximant is guaranteed; this demo shows that plain
local search actually finds one.
"""

import numpy as np

from ftnetlab.cli import resolve_config
from ftnetlab.models import eval_fftnet_many
from ftnetlab.optimize import training_fit

print(__doc__)

cfg = resolve_config("train", {"demo": "sin_fit"})
fit = training_fit(cfg)
n = fit.data.ys.size
target_mse = np.format_float_scientific(cfg["target_mse"], trim="-", exp_digits=1)

print(f"training: H={cfg['H']}, {n} samples, {cfg['loss']['loss']} loss, "
      f"target MSE {target_mse}")
trained, trace = fit.train(fit.draw_p0())

milestones = sorted({0, 1, 10, 100, len(trace) - 1} & set(range(len(trace))))
for it in milestones:
    print(f"  iter {it:5d}: loss {trace[it]:.6f} (MSE {trace[it] / n:.2e})")
print(f"converged after {len(trace) - 1} accepted steps, final MSE {trace[-1] / n:.2e}")

print("\nsample predictions:")
points = np.array([[-1.0], [-0.5], [0.0], [0.5], [1.0]])
for x, y, truth in zip(points[:, 0], eval_fftnet_many(trained, points), fit.target(points)):
    print(f"  f({x:+.1f}) = {y:+.4f}   sin(3x) = {truth:+.4f}")

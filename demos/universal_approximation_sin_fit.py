#!/usr/bin/env python3
"""Universal approximation at desk scale: fit sin(3x) with 32 hidden units.

A one-hidden-layer network with complex weights and the sin activation is
trained by gradient descent with backtracking on 256 grid points.  The
existence of a good approximant is guaranteed; this demo shows that plain
local search actually finds one.
"""

import numpy as np

from ftnetlab.activations import HOLSIN
from ftnetlab.losses import Dataset, squared_loss
from ftnetlab.models import eval_fftnet_many
from ftnetlab.optimize import TrainConfig, random_fftnet, train_fftnet

print(__doc__)

n, width = 256, 32
xs = np.linspace(-1.0, 1.0, n)[:, None]
data = Dataset(xs, np.sin(3.0 * xs[:, 0]))

rng = np.random.default_rng(0)
p0 = random_fftnet(1, width, HOLSIN, 0.3, rng)
cfg = TrainConfig(step_size=3e-3, max_iters=50_000, target_loss=1e-3 * n)

print(f"training: H={width}, {n} samples, squared loss, target MSE 1e-3")
trained, trace = train_fftnet(p0, data, squared_loss(), cfg)

milestones = sorted({0, 1, 10, 100, len(trace) - 1} & set(range(len(trace))))
for it in milestones:
    print(f"  iter {it:5d}: loss {trace[it]:.6f} (MSE {trace[it] / n:.2e})")
print(f"converged after {len(trace) - 1} accepted steps, "
      f"final MSE {trace[-1] / n:.2e}")

print("\nsample predictions:")
points = np.array([[-1.0], [-0.5], [0.0], [0.5], [1.0]])
for x, y in zip(points[:, 0], eval_fftnet_many(trained, points)):
    print(f"  f({x:+.1f}) = {y:+.4f}   "
          f"sin(3x) = {np.sin(3 * x):+.4f}")

#!/usr/bin/env python3
"""The descent probe: any positive loss can be strictly reduced nearby.

For a feedforward net with a holomorphic non-polynomial activation, a
well-posed loss, and linearly independent padded samples, there is always a
perturbation of (Z, alpha) inside any delta-ball that strictly lowers the
empirical loss.  The probe constructs one:

  case 1 (some readout weight nonzero): a rank-one row update c*v that only
    moves the worst sample's output, with v orthogonal to every other
    padded sample;
  case 2 (readout identically zero): first nudge a hidden row so the
    readout direction has nonzero slope, then backtrack on one readout
    weight.
"""

import numpy as np

from ftnetlab.activations import HOLEXPM1
from ftnetlab.errors import ContractViolationError
from ftnetlab.losses import Dataset, squared_loss
from ftnetlab.models import FFTNetParams, eval_fftnet_many
from ftnetlab.optimize import descent_probe, holomorphic_bidirectional_search, random_fftnet

print(__doc__)
delta = 0.1
spec = squared_loss()
rng = np.random.default_rng(4)

p = random_fftnet(4, 5, HOLEXPM1, 0.4, rng)
data = Dataset(rng.standard_normal((3, 4)), rng.standard_normal(3))
res = descent_probe(p, data, spec, delta=delta, seed=0)
print(f"case 1: loss {res.old_loss:.6f} -> {res.new_loss:.6f} "
      f"(norm {res.perturbation_norm:.4f} <= {delta}, tag {res.case_tag})")

silent = FFTNetParams(p.I, p.H, p.W, p.V, np.zeros(p.H), p.activation)
res2 = descent_probe(silent, data, spec, delta=delta, seed=0)
print(f"case 2: loss {res2.old_loss:.6f} -> {res2.new_loss:.6f} "
      f"(norm {res2.perturbation_norm:.4f} <= {delta}, tag {res2.case_tag})")

print("\nzero loss is refused (descent is only claimed for positive loss):")
xs = rng.standard_normal((2, 4))
interpolated = Dataset(xs, eval_fftnet_many(p, xs))
try:
    descent_probe(p, interpolated, spec, delta=delta, seed=0)
except ContractViolationError as exc:
    print(f"  refused: {exc}")

print("\nbidirectional neighborhood search on g(z) = z0^2 at the flat point 0:")
up, down = holomorphic_bidirectional_search(lambda z: z[0] ** 2, np.zeros(1), 0.01)
print(f"  raising step {up[0]:+.4f} -> Re[g] = {complex(up[0] ** 2).real:+.2e}")
print(f"  lowering step {down[0]:+.4f} -> Re[g] = {complex(down[0] ** 2).real:+.2e}")

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

Both cases rest on the open-mapping step: near any point, the real part of a
non-constant holomorphic function takes values both above and below its value
there.  This script holds a bidirectional search that finds such a pair of
steps, on the probe's radii and phases, and checks that it finds them.
"""

import math

import numpy as np

from ftnetlab.activations import HOLEXPM1
from ftnetlab.errors import ContractViolationError
from ftnetlab.losses import Dataset, squared_loss
from ftnetlab.models import FFTNetParams, eval_fftnet_many
from ftnetlab.optimize import PROBE_PHASES, PROBE_RADIUS_MARGIN, descent_probe, random_fftnet


def holomorphic_bidirectional_search(g, z0, delta: float, max_levels: int = 20):
    """Perturbations raising and lowering Re[g] with squared norm <= delta.

    Returns (dz_up, dz_down); either entry is None when the search budget is
    exhausted (e.g. g locally constant).
    """
    z0 = np.asarray(z0, dtype=np.complex128)
    m = z0.shape[0]
    base = complex(g(z0)).real
    directions = [np.eye(m, dtype=np.complex128)[j] for j in range(m)]
    directions.append(np.ones(m, dtype=np.complex128) / math.sqrt(m))
    up = down = None
    for level in range(max_levels):
        r = PROBE_RADIUS_MARGIN * math.sqrt(delta) * 2.0**-level
        for d in directions:
            for ph in PROBE_PHASES:
                dz = r * ph * d
                val = complex(g(z0 + dz)).real
                if up is None and val > base:
                    up = dz
                if down is None and val < base:
                    down = dz
                if up is not None and down is not None:
                    return up, down
    return up, down


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
square = lambda z: z[0] ** 2
up, down = holomorphic_bidirectional_search(square, np.zeros(1), 0.01)
assert up is not None and down is not None
assert complex(square(up)).real > 0 and complex(square(down)).real < 0
print(f"  raising step {up[0]:+.4f} -> Re[g] = {complex(up[0] ** 2).real:+.2e}")
print(f"  lowering step {down[0]:+.4f} -> Re[g] = {complex(down[0] ** 2).real:+.2e}")

# a linear g: both steps are found, nonzero, inside the delta ball
up, down = holomorphic_bidirectional_search(lambda z: z[0], np.zeros(1), 0.01)
assert up is not None and down is not None and up[0] != 0
assert np.sum(np.abs(up) ** 2) <= 0.01 and np.sum(np.abs(down) ** 2) <= 0.01

# several variables at a random point: each step moves Re[g] the way it says
draw = np.random.default_rng(20240817)
z0 = draw.standard_normal(3) + 1j * draw.standard_normal(3)
g = lambda z: np.exp(z[0]) + np.sin(z[2])
up, down = holomorphic_bidirectional_search(g, z0, 0.04)
base = complex(g(z0)).real
assert complex(g(z0 + up)).real > base and complex(g(z0 + down)).real < base

# a constant g: nothing raises or lowers it, so both entries stay None
up, down = holomorphic_bidirectional_search(lambda z: 3.0 + 0j, np.zeros(2), 0.01, max_levels=3)
assert up is None and down is None
print("  also found for a linear g and for exp(z0) + sin(z2) at a random point;"
      " refused for a constant g")

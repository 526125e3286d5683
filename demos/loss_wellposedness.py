#!/usr/bin/env python3
"""Well-posed regression losses and a checker that keeps them honest.

Well posed means: analytic, zero at zero, strictly decreasing left of zero
and strictly increasing right of it.  The squared loss qualifies; the
smooth-cosh family l(x) = (1/c)[ln(e^{ax} + e^{-bx}) - ln 2] qualifies
exactly when a == b.  Asymmetric variants have their minimum at
ln(b/a)/(a+b), strictly off the origin, and the checker catches this.
"""

import numpy as np

from ftnetlab.activations import ZRELU
from ftnetlab.losses import (
    Dataset,
    LossSpec,
    check_well_posed,
    empirical_loss,
    param_cosh_loss,
    squared_loss,
)
from ftnetlab.models import FFTNetParams

print(__doc__)

cases = [
    ("squared", squared_loss()),
    ("smooth cosh a=b=1, c=1", param_cosh_loss(1, 1, 1)),
    ("smooth cosh a=b=2.5, c=0.4", param_cosh_loss(2.5, 2.5, 0.4)),
    ("smooth cosh a=2, b=3, c=1 (asymmetric)", param_cosh_loss(2, 3, 1)),
    ("x^3 probe", LossSpec("cubic", value=lambda x: np.asarray(x, float) ** 3,
                           deriv=lambda x: 3.0 * np.asarray(x, float) ** 2)),
]

for name, spec in cases:
    violations = check_well_posed(spec)
    print(f"{name:42s} -> {'REJECTED' if violations else 'well posed'}")
    for v in violations:
        print(f"    {v}")

a, b = 2.0, 3.0
x_star = np.log(b / a) / (a + b)
spec = param_cosh_loss(a, b, 1.0)
print(f"\nasymmetric minimum: l({x_star:.4f}) = {spec.value(x_star):+.5f} "
      f"< l(0) = {spec.value(0.0):+.5f}")

print("\nthe empirical loss is a plain sum of per-sample terms:")
h = 3
net = FFTNetParams(2, h, np.zeros((h, h)), np.zeros((h, h)), np.zeros(h), ZRELU)
data = Dataset(np.zeros((2, 2)), np.array([1.0, -1.0]))
print(f"  zero network on labels (1, -1), squared: "
      f"{empirical_loss(net, data, squared_loss())} (= l(-1) + l(1))")

#!/usr/bin/env python3
"""Exact embeddings tour: every baseline model reproduced by a complex net.

Each construction below is a block rearrangement of the source weights, so
the two models agree to floating-point rounding on every input, not just on
average.  The script walks the table of embedding families, checks three
random instances of each, and prints the width and parameter bookkeeping with
the worst gap.  Recurrent gaps include the state mirrors each construction
claims: the receptor carries the RNN memory or the additive q-state exactly.
"""

import numpy as np

from ftnetlab.constructions import rnn_timepoint_to_fnn
from ftnetlab.embeddings import (
    FAMILIES,
    SEQUENCE_LENGTH,
    random_relu_rnn,
    run_embedding_sweep,
)
from ftnetlab.models import eval_fnn_many, eval_rnn_many

print(__doc__)

for name, fam in FAMILIES.items():
    reports, _ = run_embedding_sweep(name, seed=7, instances=3, probes=100)
    formula = f"  (H -> {fam.report[2]})" if fam.report else ""
    print(f"{name}: {fam.source} -> {fam.target}{formula}")
    for r in reports:
        print(f"  I={r.I} T={r.T:2d}  width {r.source_hidden:2d} -> {r.target_hidden:2d}, "
              f"params {r.source_params:4d} -> {r.target_params:4d}, "
              f"worst gap {r.max_abs_output_gap:.2e}")
print(f"(recurrent families run {SEQUENCE_LENGTH} steps; the induced FNN route "
      "uses a random offset c, and the DODS assembly checks one sequence)")

# --- freezing a recurrent step into a feedforward network --------------------
rng = np.random.default_rng(7)
rnn = random_relu_rnn(rng)
prefix = rng.uniform(-1, 1, size=(5, rnn.I))
frozen = rnn_timepoint_to_fnn(rnn, prefix, t0=4)
probe = rng.uniform(-1, 1, size=rnn.I)
seq = prefix[:4].copy()
seq[3] = probe
rerun = eval_rnn_many(rnn, seq[None])[0][0, 3]
print(f"Frozen time step t0=4: feedforward value {eval_fnn_many(frozen, probe[None])[0]:+.6f} "
      f"vs rerun {rerun:+.6f}")

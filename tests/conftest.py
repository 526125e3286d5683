import numpy as np
import pytest

from ftnetlab.activations import HOLSIN
from ftnetlab.embeddings import random_additive, random_crnet, random_relu_fnn, random_relu_rnn
from ftnetlab.models import MODEL_SPECS, RFTNetParams, eval_rftnet_many, model_to_dict
from ftnetlab.optimize import random_fftnet, random_rftnet


def tame_rftnet(p: RFTNetParams, xs: np.ndarray, bound: float = 50.0) -> RFTNetParams:
    """Deterministically damp W, V until the unrolled forward stays in range.

    Random recurrent instances with holomorphic activations can blow up
    through sinh/exp feedback; gradient checks need values finite-difference
    arithmetic can resolve.
    """
    for _ in range(8):
        with np.errstate(over="ignore", invalid="ignore"):
            out = eval_rftnet_many(p, xs)
        if np.all(np.isfinite(out)) and np.max(np.abs(out)) < bound:
            return p
        p = RFTNetParams(p.I, p.H, 0.5 * p.W, 0.5 * p.V, p.alpha, p.activation, p.r0)
    return p


def sample_models(seed: int = 3) -> dict:
    """One small model of each of the six kinds, as a model-file dict."""
    rng = np.random.default_rng(seed)
    models = [random_relu_fnn(rng, 3, 3), random_relu_rnn(rng, 3, 3), random_crnet(rng),
              random_additive(rng, 3, 3), random_fftnet(2, 3, HOLSIN, 0.3, rng),
              random_rftnet(2, 3, HOLSIN, 0.3, rng)]
    return {MODEL_SPECS[type(m)].kind: model_to_dict(m) for m in models}


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)

import ctypes
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from ftnetlab.activations import HOLSIN
from ftnetlab.embeddings import random_additive, random_crnet, random_relu_fnn, random_relu_rnn
from ftnetlab.errors import ContractViolationError
from ftnetlab.losses import Dataset, LossSpec, empirical_loss
from ftnetlab.models import (FFTNetParams, RFTNetParams, eval_rftnet_many, model_to_dict,
                             save_model)
from ftnetlab.optimize import GradientBundle, random_fftnet, random_rftnet


def finite_diff_grad(p: FFTNetParams | RFTNetParams, data: Dataset, spec: LossSpec,
                     step: float = 1e-5) -> GradientBundle:
    """Central differences per real coordinate of either FTNet; the oracle for
    grad_fftnet and grad_rftnet."""
    if not 1e-7 <= step <= 1e-3:
        raise ContractViolationError("step must lie in [1e-7, 1e-3]")
    w, v, a = p.W.copy(), p.V.copy(), p.alpha.copy()

    def diff_array(arr):
        g = np.zeros_like(arr)
        flat = arr.ravel()
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + step
            hi = empirical_loss(replace(p, W=w, V=v, alpha=a), data, spec)
            flat[idx] = orig - step
            lo = empirical_loss(replace(p, W=w, V=v, alpha=a), data, spec)
            flat[idx] = orig
            g.ravel()[idx] = (hi - lo) / (2 * step)
        return g

    return GradientBundle(dW=diff_array(w), dV=diff_array(v), dAlpha=diff_array(a))


def gradient_relative_error(g1: GradientBundle, g2: GradientBundle) -> float:
    num = max(np.max(np.abs(g1.dW - g2.dW)), np.max(np.abs(g1.dV - g2.dV)),
              np.max(np.abs(g1.dAlpha - g2.dAlpha)))
    den = max(*(np.max(np.abs(a)) for g in (g1, g2) for a in (g.dW, g.dV, g.dAlpha)), 1e-12)
    return float(num / den)


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
        p = replace(p, W=0.5 * p.W, V=0.5 * p.V)
    return p


def sample_models(seed: int = 3) -> dict:
    """One small model of each of the six kinds, as a model-file dict."""
    rng = np.random.default_rng(seed)
    models = [random_relu_fnn(rng), random_relu_rnn(rng), random_crnet(rng),
              random_additive(rng), random_fftnet(2, 3, HOLSIN, 0.3, rng),
              random_rftnet(2, 3, HOLSIN, 0.3, rng)]
    return {m.kind: model_to_dict(m) for m in models}


def write_model(path, p) -> None:
    """Saves ``p`` as a model file at ``path``, through ``models.save_model``."""
    with open(path, "w", encoding="utf-8") as fh:
        save_model(fh, p)


def openblas_kernel() -> str:
    """The kernel numpy's bundled OpenBLAS picked when it loaded, such as "SkylakeX"."""
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas64_*"))
    if not libs:
        return "unknown (numpy bundles no libscipy_openblas64_)"
    corename = ctypes.CDLL(str(libs[0])).scipy_openblas_get_corename64_
    corename.argtypes = []
    corename.restype = ctypes.c_char_p
    return corename().decode()


def pinned_for_kernel(by_kernel: dict):
    """The digest, or the digests, pinned for the loaded OpenBLAS kernel.

    Some outputs differ in their low bits between kernels, so each kernel has
    its own pins and a digest taken under one is never accepted under another.
    """
    kernel = openblas_kernel()
    if kernel not in by_kernel:
        pytest.fail(f"no golden digests for OpenBLAS kernel {kernel}; pinned kernels: "
                    f"{', '.join(by_kernel)} (OPENBLAS_CORETYPE=Haswell loads Haswell on any "
                    "AVX2 machine)", pytrace=False)
    return by_kernel[kernel]


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)

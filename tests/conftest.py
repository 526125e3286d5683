import ctypes
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from ftnetlab.activations import HOLSIN
from ftnetlab.embeddings import random_additive, random_crnet, random_relu_fnn, random_relu_rnn
from ftnetlab.models import RFTNetParams, eval_rftnet_many, model_to_dict, save_model
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


def pinned_for_kernel(by_kernel: dict) -> dict:
    """The digests pinned for the loaded OpenBLAS kernel.

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

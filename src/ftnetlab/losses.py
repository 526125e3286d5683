"""Regression losses, the well-posedness checker, and the summed empirical loss.

A loss is well posed when it is analytic, vanishes at 0, and is strictly
decreasing left of 0 and strictly increasing right of it.  The empirical
loss is a plain sum over samples (no 1/n).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import ContractViolationError
from .models import FFTNetParams, RFTNetParams, Tape, forward, preactivation_parts


@dataclass(frozen=True)
class LossSpec:
    kind: str
    value: Callable[[np.ndarray], np.ndarray]
    deriv: Callable[[np.ndarray], np.ndarray]

    @cached_property
    def well_posedness(self) -> tuple[str, ...]:
        """:func:`check_well_posed` of this spec, run once per spec."""
        return check_well_posed(self)


def squared_loss() -> LossSpec:
    return LossSpec("squared",
                    value=lambda x: np.square(np.asarray(x, dtype=np.float64)),
                    deriv=lambda x: 2.0 * np.asarray(x, dtype=np.float64))


def param_cosh_loss(a: float, b: float, c: float) -> LossSpec:
    """l(x) = (1/c) [ln(e^{ax} + e^{-bx}) - ln 2], via log-sum-exp.

    Well posed only for a == b; asymmetric choices shift the minimum to
    ln(b/a)/(a+b), which check_well_posed reports.
    """
    # NaN fails every comparison; inf and ints past the largest double fail the upper one
    if not all(0 < v <= sys.float_info.max for v in (a, b, c)):
        raise ContractViolationError(
            f"loss: param_cosh a, b and c must be positive and finite, got {a!r}, {b!r}, {c!r}")

    def value(x):
        x = np.asarray(x, dtype=np.float64)
        return (np.logaddexp(a * x, -b * x) - np.log(2.0)) / c

    def deriv(x):
        x = np.asarray(x, dtype=np.float64)
        # e^{ax} / (e^{ax} + e^{-bx}) = sigmoid((a+b) x), computed stably
        s = 0.5 * (1.0 + np.tanh(0.5 * (a + b) * x))
        return ((a + b) * s - b) / c

    return LossSpec(f"param_cosh({a},{b},{c})", value=value, deriv=deriv)


def check_well_posed(spec: LossSpec) -> tuple[str, ...]:
    """The violations found by a scan of [-10, 10] in steps of 0.01 for l(0) = 0
    and sign(l'(x)) = sign(x) off 0: empty when the loss is well posed."""
    grid_max, grid_step = 10.0, 1e-2
    violations = []
    l0 = float(spec.value(np.asarray(0.0)))
    # written as "not ok" so that a NaN value or derivative is a violation
    if not abs(l0) <= 1e-12:
        violations.append(f"l(0) = {l0!r} is not 0")
    xs = np.arange(grid_step, grid_max + grid_step / 2, grid_step)
    for side, trend in ((1.0, "increasing"), (-1.0, "decreasing")):
        with np.errstate(over="ignore", invalid="ignore"):  # a NaN l' is a violation below
            d = spec.deriv(side * xs)
        bad = np.flatnonzero(~(side * d > 0.0))
        if bad.size:
            x = side * xs[bad[0]]
            violations.append(f"not strictly {trend} at x = {x:.4g} (l' = {d[bad[0]]:.4g})")
    return tuple(violations)


@dataclass(frozen=True)
class Dataset:
    """Regression targets: samples xs (n, I) with ys (n,) for the feedforward
    net, or sequences xs (B, T, I) with ys (B, T) for the recurrent one."""

    xs: np.ndarray
    ys: np.ndarray

    def __post_init__(self):
        xs = np.asarray(self.xs, dtype=np.float64)
        ys = np.asarray(self.ys, dtype=np.float64)
        if xs.ndim not in (2, 3) or ys.shape != xs.shape[:-1]:
            raise ContractViolationError("xs must be (n, I) and ys (n,), or (B, T, I) and (B, T)")
        if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
            raise ContractViolationError("dataset entries must be finite")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)

    @property
    def n(self) -> int:
        return self.xs.shape[0]


def empirical_loss(p: FFTNetParams | RFTNetParams, data: Dataset, spec: LossSpec,
                   tape: Tape | None = None) -> float:
    """The summed loss of either FTNet.  ``tape`` records the forward pass for a
    gradient, or supplies it when it already recorded this very p on data.xs."""
    return float(np.sum(spec.value(forward(p, data.xs, tape).out - data.ys)))


_U = 2.0**-53  # the unit roundoff of float64


def squared_loss_lower_bound(p: FFTNetParams, k: np.ndarray, ys: np.ndarray) -> float:
    """A lower bound on the summed squared loss of the feedforward net p at
    padded inputs k (``kappa_many(xs, p.H)``) and targets ys, or -inf where
    it cannot vouch for one.  It needs the ``real_envelope`` of p's
    activation, and runs no complex activation.

    Derivation.  Let a, b be the pre-activations from
    :func:`models.preactivation_parts`, the same doubles that
    :func:`empirical_loss` reads, and (s~, c) the activation's
    ``real_envelope`` of them.  Let u = 2^-53, gamma_n = n u / (1 - n u),
    A = c @ |alpha| in real arithmetic and A^ its computed value.

    1. The exact pass takes the real parts s^ of the complex activation.
       s^ and s~ each lie within 2^-32 c of the true Re act(a + ib), so
       |s^ - s~| <= 2^-31 c, and |s^| and |s~| are <= (1 + 2^-31) c.
    2. The outputs o^ = s^ @ alpha and o~ = s~ @ alpha are sums of H
       products, so in any order, with or without FMA, each lies within
       gamma_H (|s| @ |alpha|) <= gamma_H (1 + 2^-31) A of its real sum, and
       A <= A^ / (1 - gamma_H).  Any H x H array that fits in memory has
       H <= 2^20, so 2 gamma_H <= 2^-32 (1 + 2^-32) and
       |o^ - o~| <= (2^-31 + 2^-32) (1 + 2^-29) A^ <= (4/5) 2^-30 A^.
    3. r~ = fl(o~ - y) = (o~ - y)(1 + d) with |d| <= u, so
       |o^ - y| >= |r~| (1 - u) - (4/5) 2^-30 A^.
    4. e = fl(2^-30 A^ + 4u |r~|) >= (1 - u)(2^-30 A^ + 4u |r~|), and
       m = max(fl(|r~| - e), 0) <= max((|r~| - e)(1 + u), 0)
       <= max(|r~| (1 - u) - (4/5) 2^-30 A^, 0) <= |o^ - y|.
    5. The exact loss is L = fl(sum fl(fl(o^ - y)^2)) >= (1 - g) sum (o^ - y)^2
       with g = gamma_{N+2}, in any summation order.  The computed m . m is
       <= (1 + gamma_N) sum m^2, and forming 1 - kappa and the product adds
       two roundings, so the result is <= (1 - kappa)(1 + g) sum m^2 <= L
       whenever kappa >= 2g / (1 + g) = 2 (N + 2) u; kappa is twice that.

    The slack 2^-30 is about 8e6 ulps: the bound rests on numpy's functions
    being accurate to 2^-32, not to a few ulps.  Underflow adds absolute
    errors near 2^-1074 per operation, outside steps 1-5; a sum m . m below
    2^-900 gives -inf, and above it they are below a relative 2^-170, inside
    kappa's slack.  Any non-finite value gives -inf too.
    """
    envelope = p.activation.real_envelope
    with np.errstate(over="ignore", invalid="ignore"):
        parts = envelope(*preactivation_parts(p, k))
        if parts is None:
            return -math.inf
        s, c = parts
        envelope_sum = c @ np.abs(p.alpha)  # A^
        r = np.abs(s @ p.alpha - ys)
        m = np.maximum(r - (2.0**-30 * envelope_sum + 4.0 * _U * r), 0.0)
        total = float(m @ m)
    # an infinite A^ would make its rows' m 0 rather than spoil the total
    if not (2.0**-900 <= total <= sys.float_info.max
            and np.max(envelope_sum) <= sys.float_info.max):
        return -math.inf
    return (1.0 - 4.0 * (len(ys) + 2) * _U) * total


LOSSES = {"squared": squared_loss, "param_cosh": param_cosh_loss}


def loss_spec_from_config(cfg: dict) -> LossSpec:
    """The loss a resolved ``loss`` config object names, built from its other keys."""
    params = dict(cfg)
    return LOSSES[params.pop("loss")](**params)

"""Regression losses, the well-posedness checker, and the summed empirical loss.

A loss is well posed when it is analytic, vanishes at 0, and is strictly
decreasing left of 0 and strictly increasing right of it.  The empirical
loss is a plain sum over samples (no 1/n).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import ContractViolationError
from .models import FFTNetParams, RFTNetParams, Tape, forward


@dataclass(frozen=True)
class LossSpec:
    kind: str
    value: Callable[[np.ndarray], np.ndarray]
    deriv: Callable[[np.ndarray], np.ndarray]

    @cached_property
    def well_posedness(self) -> WellPosednessReport:
        """:func:`check_well_posed` on the default grid, run once per spec."""
        return check_well_posed(self)


def squared_loss() -> LossSpec:
    return LossSpec("squared",
                    value=lambda x: np.square(np.asarray(x, dtype=np.float64)),
                    deriv=lambda x: 2.0 * np.asarray(x, dtype=np.float64))


def param_cosh_loss(a: float = 1.0, b: float = 1.0, c: float = 1.0) -> LossSpec:
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


@dataclass(frozen=True)
class WellPosednessReport:
    passed: bool
    violations: tuple[str, ...]


def check_well_posed(spec: LossSpec, grid_max: float = 10.0,
                     grid_step: float = 1e-2) -> WellPosednessReport:
    """Scan [-grid_max, grid_max]: l(0) = 0 and sign(l'(x)) = sign(x) off 0."""
    if grid_max < 10.0 or grid_step > 1e-2:
        raise ContractViolationError("grid must cover [-10, 10] with step <= 1e-2")
    violations = []
    l0 = float(spec.value(np.asarray(0.0)))
    # written as "not ok" so that a NaN value or derivative is a violation
    if not abs(l0) <= 1e-12:
        violations.append(f"l(0) = {l0!r} is not 0")
    xs = np.arange(grid_step, grid_max + grid_step / 2, grid_step)
    dpos = spec.deriv(xs)
    dneg = spec.deriv(-xs)
    bad_pos = np.flatnonzero(~(dpos > 0.0))
    bad_neg = np.flatnonzero(~(dneg < 0.0))
    if bad_pos.size:
        x = xs[bad_pos[0]]
        violations.append(f"not strictly increasing at x = {x:.4g} (l' = {dpos[bad_pos[0]]:.4g})")
    if bad_neg.size:
        x = -xs[bad_neg[0]]
        violations.append(f"not strictly decreasing at x = {x:.4g} (l' = {dneg[bad_neg[0]]:.4g})")
    return WellPosednessReport(passed=not violations, violations=tuple(violations))


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
    gradient, or supplies it when it already recorded these very arrays."""
    return float(np.sum(spec.value(forward(p, data.xs, tape).out - data.ys)))


# the keys each loss takes beside "loss"; a, b and c default to 1
_LOSS_KEYS = {"squared": (), "param_cosh": ("a", "b", "c")}


def loss_spec_from_config(cfg: dict) -> LossSpec:
    """{"loss": "squared"} or {"loss": "param_cosh", "a":..., "b":..., "c":...};
    any other key is rejected, and every error names the ``loss`` config key."""
    kind = cfg.get("loss")
    if not isinstance(kind, str) or kind not in _LOSS_KEYS:
        raise ContractViolationError(f"loss: unknown loss {kind!r}")
    extra = sorted(set(cfg) - {"loss", *_LOSS_KEYS[kind]})
    if extra:
        raise ContractViolationError(f"loss: {kind} takes no key {extra[0]!r}")
    if kind == "squared":
        return squared_loss()
    abc = [cfg.get(key, 1.0) for key in "abc"]
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in abc):
        raise ContractViolationError(f"loss: param_cosh a, b and c must be numbers, got {abc}")
    return param_cosh_loss(*abc)

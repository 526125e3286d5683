"""Regression losses, the well-posedness checker, and the summed empirical loss.

A loss is well posed when it is analytic, vanishes at 0, and is strictly
decreasing left of 0 and strictly increasing right of it.  The empirical
loss is a plain sum over samples (no 1/n).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ContractViolationError
from .models import FFTNetParams, Tape, eval_fftnet_many


@dataclass(frozen=True)
class LossSpec:
    kind: str
    value: Callable[[np.ndarray], np.ndarray]
    deriv: Callable[[np.ndarray], np.ndarray]


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
            f"param_cosh parameters must be positive and finite, got {a!r}, {b!r}, {c!r}")

    def value(x):
        x = np.asarray(x, dtype=np.float64)
        return (np.logaddexp(a * x, -b * x) - np.log(2.0)) / c

    def deriv(x):
        x = np.asarray(x, dtype=np.float64)
        # e^{ax} / (e^{ax} + e^{-bx}) = sigmoid((a+b) x), computed stably
        s = 0.5 * (1.0 + np.tanh(0.5 * (a + b) * x))
        return ((a + b) * s - b) / c

    return LossSpec(f"param_cosh({a},{b},{c})", value=value, deriv=deriv)


def loss_value(spec: LossSpec, x) -> float:
    return float(spec.value(np.asarray(x, dtype=np.float64)))


def loss_deriv(spec: LossSpec, x) -> float:
    return float(spec.deriv(np.asarray(x, dtype=np.float64)))


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
    l0 = loss_value(spec, 0.0)
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
    """Regression samples; xs has shape (n, I), ys shape (n,)."""

    xs: np.ndarray
    ys: np.ndarray

    def __post_init__(self):
        xs = np.asarray(self.xs, dtype=np.float64)
        ys = np.asarray(self.ys, dtype=np.float64)
        if xs.ndim != 2 or ys.ndim != 1 or xs.shape[0] != ys.shape[0]:
            raise ContractViolationError("xs must be (n, I) and ys (n,)")
        if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
            raise ContractViolationError("dataset entries must be finite")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)

    @property
    def n(self) -> int:
        return self.xs.shape[0]

    @property
    def I(self) -> int:
        return self.xs.shape[1]


def empirical_loss(p: FFTNetParams, data: Dataset, spec: LossSpec,
                   tape: Tape | None = None) -> float:
    """The summed loss; ``tape`` records the forward pass for a gradient."""
    return float(np.sum(spec.value(eval_fftnet_many(p, data.xs, tape=tape) - data.ys)))


def loss_spec_from_config(cfg: dict) -> LossSpec:
    """{"loss": "squared"} or {"loss": "param_cosh", "a":..., "b":..., "c":...}."""
    kind = cfg.get("loss")
    if kind == "squared":
        return squared_loss()
    if kind == "param_cosh":
        abc = [cfg.get(key, 1.0) for key in "abc"]
        if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in abc):
            raise ContractViolationError(f"param_cosh: a, b and c must be numbers, got {abc}")
        return param_cosh_loss(*abc)
    raise ContractViolationError(f"unknown loss {kind!r}")

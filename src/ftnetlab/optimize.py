"""Gradients over the real parameters (W, V, alpha), plain gradient-descent
training with backtracking, the two fits of ``train``, and the two-case
descent probe for positive losses on holomorphic networks.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from functools import lru_cache, partial
from typing import Callable

import numpy as np

from .activations import Activation, activation_from_tag, apply, jacobian_parts
from .errors import ContractViolationError, NonFiniteInitialLossError
from .losses import (Dataset, LossSpec, empirical_loss, loss_spec_from_config,
                     squared_loss_lower_bound)
from .models import FFTNetParams, RFTNetParams, Tape, _padded, eval_linear_dods, forward
from .numerics import null_vector_against, numerical_rank


@dataclass(frozen=True)
class GradientBundle:
    dW: np.ndarray
    dV: np.ndarray
    dAlpha: np.ndarray

    def __post_init__(self):
        for a in (self.dW, self.dV, self.dAlpha):
            if not np.all(np.isfinite(a)):
                raise ContractViolationError("gradient has non-finite entries")

    def sq_norm(self) -> float:
        return float(np.sum(self.dW**2) + np.sum(self.dV**2) + np.sum(self.dAlpha**2))


@dataclass(frozen=True)
class TrainConfig:
    step_size: float = 0.05
    max_iters: int = 10000
    target_loss: float = 0.0

    def __post_init__(self):
        # negated, so that NaN, for which every comparison is False, fails too
        if not 0 < self.step_size < math.inf:
            raise ContractViolationError("step_size must be positive and finite")
        if not self.max_iters >= 0:
            raise ContractViolationError("max_iters must be >= 0")


# ---------------------------------------------------------------------------
# analytic gradients
# ---------------------------------------------------------------------------

def grad_fftnet(p: FFTNetParams, data: Dataset, spec: LossSpec,
                tape: Tape | None = None) -> GradientBundle:
    """d/d(W, V, alpha) of the summed loss, real and imaginary parts as
    independent real coordinates.  Reuses ``tape`` when it recorded the
    forward pass of this very p on data.xs, and runs that pass otherwise."""
    tape = forward(p, data.xs, tape)
    k, s = tape.K, tape.acts.real
    lp = spec.deriv(tape.out - data.ys)
    j11, j12, _, _ = jacobian_parts(p.activation, tape.Z, tape.D)
    gs = lp[:, None] * p.alpha[None, :]
    g = np.multiply(gs, j11)
    dW = g.T @ k
    dV = np.multiply(gs, j12, out=g).T @ k
    return GradientBundle(dW=dW, dV=dV, dAlpha=s.T @ lp)


def grad_rftnet(p: RFTNetParams, data: Dataset, spec: LossSpec,
                tape: Tape | None = None) -> GradientBundle:
    """Reverse-mode gradient through the unrolled recurrence (r0 kept fixed),
    reading the forward pass from ``tape`` as :func:`grad_fftnet` does."""
    tape = forward(p, data.xs, tape)
    lp = spec.deriv(tape.out - data.ys)
    j11, j12, j21, j22 = jacobian_parts(p.activation, tape.Z)

    dw = np.zeros_like(p.W)
    dv = np.zeros_like(p.V)
    da = np.zeros(p.H)
    gr = np.zeros((data.xs.shape[0], p.H))
    for t in range(len(tape.acts) - 1, -1, -1):
        kt, s = tape.K[t], tape.acts[t].real
        r_prev = tape.acts[t - 1].imag if t else np.broadcast_to(p.r0, gr.shape).copy()
        gy = lp[:, t]
        gs = gy[:, None] * p.alpha[None, :]
        da += s.T @ gy
        ga = gs * j11[t] + gr * j21[t]
        gb = gs * j12[t] + gr * j22[t]
        dw += ga.T @ kt + gb.T @ r_prev
        dv += gb.T @ kt - ga.T @ r_prev
        gr = gb @ p.W - ga @ p.V
    return GradientBundle(dW=dw, dV=dv, dAlpha=da)


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

def random_fftnet(I: int, H: int, activation: Activation, scale: float,
                  rng: np.random.Generator) -> FFTNetParams:
    return FFTNetParams(I, H, scale * rng.standard_normal((H, H)),
                        scale * rng.standard_normal((H, H)),
                        scale * rng.standard_normal(H), activation)


def random_rftnet(I: int, H: int, activation: Activation, scale: float,
                  rng: np.random.Generator) -> RFTNetParams:
    f = random_fftnet(I, H, activation, scale, rng)
    return RFTNetParams(I, H, f.W, f.V, f.alpha, activation, np.zeros(H))


def _descend(p0, loss_of, grad_of, cfg: TrainConfig, bound_of=None):
    """Shared GD loop over (W, V, alpha) of either FTNet: the start's loss must
    be finite, and a step is accepted only when its loss is finite and below
    the current one, so every loss in the trace is finite.  ``loss_of`` and
    ``grad_of`` take a params object; each candidate is ``p0``'s kind with the
    stepped arrays.

    Overshooting candidates may overflow to inf/nan, in their stepped arrays
    or in their loss; either way they are rejected by a finiteness check and
    the step is halved, so IEEE overflow is silenced within this loop.

    ``bound_of``, when given, takes a candidate and returns a lower bound on
    its ``loss_of``, or -inf or NaN where it has none.  A candidate whose
    bound is already >= the current loss is rejected without ``loss_of``:
    the exact loss would have rejected it too, so every step, loss and
    ``loss_of`` tape is the same as without ``bound_of``.

    A bound only pays off on a candidate it rejects.  After a rejection at
    step 2h, a quadratic through the current loss, its slope -|g|^2 along
    -g and the rejected value at 2h predicts descent at h when that value
    exceeded the current loss by less than 2 |g|^2 h; such a candidate goes
    straight to ``loss_of``.
    """
    p = p0
    with np.errstate(over="ignore", invalid="ignore"):
        cur = loss_of(p)
        if not math.isfinite(cur):
            raise NonFiniteInitialLossError(f"initial loss is not finite: {cur}")
        trace = [cur]
        step = cfg.step_size
        for _ in range(cfg.max_iters):
            if cur <= cfg.target_loss:
                break
            g = grad_of(p)
            slope = g.sq_norm()  # the loss falls at this rate per unit step along -g
            above = math.inf  # how far the last rejected candidate lay above cur
            for _ in range(31):
                try:
                    cand = replace(p, W=p.W - step * g.dW, V=p.V - step * g.dV,
                                   alpha=p.alpha - step * g.dAlpha)
                except ContractViolationError:  # a stepped array overflowed
                    cand_loss, above = math.nan, math.inf
                else:
                    bound = -math.inf
                    # NaN or inf: no rejection to predict from; else the quadratic above
                    if bound_of is not None and not above < 2.0 * slope * step:
                        bound = bound_of(cand)
                    # a bound >= cur certifies that the exact loss would reject cand
                    cand_loss = math.nan if bound >= cur else loss_of(cand)
                    above = (bound if bound >= cur else cand_loss) - cur
                if math.isfinite(cand_loss) and cand_loss < cur:
                    break
                step *= 0.5
            else:
                break  # no descent step at any scale; stationary for our purposes
            p, cur = cand, cand_loss
            trace.append(cur)
            step *= 2.0
    return p, trace


def train_fftnet(p0: FFTNetParams, data: Dataset, spec: LossSpec,
                 cfg: TrainConfig):
    """Gradient descent with backtracking; returns (params, loss trace).

    Every loss evaluation records its forward pass on one tape, so the
    gradient at an accepted step reuses that step's pass.  For the squared
    loss and an activation with a ``real_envelope`` (holsin), a candidate
    that :func:`squared_loss_lower_bound` certifies is no better skips its
    exact forward pass; the trajectory is that of the exact loss alone.
    """
    tape = Tape()
    bound_of = None
    if spec.kind == "squared" and p0.activation.real_envelope is not None:
        # the padded inputs of the pass loss_of has taped, so a fit pads them once
        def bound_of(p):
            return squared_loss_lower_bound(p, _padded(data.xs, p.H, tape), data.ys)
    return _descend(p0, loss_of=lambda p: empirical_loss(p, data, spec, tape),
                    grad_of=lambda p: grad_fftnet(p, data, spec, tape), cfg=cfg,
                    bound_of=bound_of)


def train_rftnet(p0: RFTNetParams, data: Dataset, spec: LossSpec,
                 cfg: TrainConfig):
    """Backpropagation through time on the unrolled recurrence, sharing one
    tape between loss and gradient as :func:`train_fftnet` does."""
    tape = Tape()
    return _descend(p0, loss_of=lambda p: empirical_loss(p, data, spec, tape),
                    grad_of=lambda p: grad_rftnet(p, data, spec, tape), cfg=cfg)


# ---------------------------------------------------------------------------
# the fits of `train`
# ---------------------------------------------------------------------------

# the system dods_linear learns: h_t = P x_t + Q h_{t-1} from h0, y_t = readout . h_t
DODS_LINEAR = {"P": [[0.8, 0.0], [0.2, 0.5]], "Q": [[0.3, -0.2], [0.1, 0.4]],
               "readout": [1.0, -0.7], "h0": [0.0, 0.0]}


@dataclass(frozen=True)
class Fit:
    """One fit of ``train``: ``train(draw_p0())`` descends from the seeded generator's
    next start, drawn after the data, to (trained params, loss trace)."""

    target: Callable[[np.ndarray], np.ndarray]  # inputs -> the outputs to learn
    data: Dataset                               # inputs and the target's outputs
    draw_p0: Callable[[], FFTNetParams]
    train: Callable                             # p0 -> (trained params, loss trace)
    target_loss: float                          # the summed loss at which descent stops


def _sin_3x(xs: np.ndarray) -> np.ndarray:
    return np.sin(3.0 * xs[:, 0])


def training_fit(cfg: dict) -> Fit:
    """The fit of a config from ``resolve_config("train", ...)``: sin(3x) on ``samples``
    evenly spaced points of [-1, 1] for ``sin_fit``, and DODS_LINEAR on ``sequences``
    sequences of ``T`` inputs from U(-1, 1) for the recurrent ``dods_linear``."""
    rng = np.random.default_rng(cfg["seed"])
    # looked up per call, not kept in a table, so a patched trainer is the one that runs
    if cfg["demo"] == "dods_linear":
        i = len(DODS_LINEAR["P"][0])
        xs = rng.uniform(-1.0, 1.0, size=(cfg["sequences"], cfg["T"], i))
        target = partial(eval_linear_dods, **DODS_LINEAR)
        random_net, trainer = random_rftnet, train_rftnet
    else:
        xs = np.linspace(-1.0, 1.0, cfg["samples"])[:, None]
        target, random_net, trainer = _sin_3x, random_fftnet, train_fftnet
    data = Dataset(xs, target(xs))
    # the summed loss at a per-sample loss of target_mse, multiplied one size of ys at a time
    target_loss = math.prod(data.ys.shape, start=cfg["target_mse"])
    tc = TrainConfig(step_size=cfg["step_size"], max_iters=cfg["iters"], target_loss=target_loss)
    return Fit(target, data,
               partial(random_net, xs.shape[-1], cfg["H"], activation_from_tag(cfg["activation"]),
                       cfg["init_scale"], rng),
               partial(trainer, data=data, spec=loss_spec_from_config(cfg["loss"]), cfg=tc),
               target_loss)


# ---------------------------------------------------------------------------
# descent probe
# ---------------------------------------------------------------------------

PROBE_RADIUS_LEVELS = 40
PROBE_PHASES = np.exp(2j * np.pi * np.arange(64) / 64)  # the 64th roots of unity
PROBE_C1_SAMPLES = 200
PROBE_C1_FLOOR = 1e-10
# keeps the reconstructed perturbation norm strictly inside the delta ball
# after rounding of |c| * ||v||
PROBE_RADIUS_MARGIN = 1.0 - 1e-9
PROBE_CSV_HEADER = "instance_id,case_tag,old_loss,new_loss,perturbation_norm,found"


@dataclass(frozen=True)
class ProbeResult:
    found: bool
    deltaZ: np.ndarray                 # complex (H, H)
    deltaAlpha: np.ndarray
    old_loss: float
    new_loss: float
    case_tag: str
    perturbation_norm: float

    def __post_init__(self):
        if self.found:
            if not self.new_loss < self.old_loss:
                raise ContractViolationError("found probe must strictly decrease loss")

    def csv_row(self, instance_id: int) -> str:
        """The result as one row under :data:`PROBE_CSV_HEADER`."""
        return (f"{instance_id},{self.case_tag},{self.old_loss!r},{self.new_loss!r},"
                f"{self.perturbation_norm!r},{str(self.found).lower()}")

    def json_line(self, instance_id: int) -> str:
        """The result as one JSON object with sorted keys: the bytes of
        ``json.dumps`` of its fields plus ``instance_id``, ``sort_keys=True``.

        Only rows that are not all +0.0 go through ``json.dumps``; the probe
        perturbs one row of ``deltaZ``, so the other rows share one encoding.
        """
        fields = (
            ("case_tag", json.dumps(self.case_tag)),
            ("deltaAlpha", _rows_json(self.deltaAlpha[None, :])[0]),
            ("deltaZ_im", "[" + ", ".join(_rows_json(self.deltaZ.imag)) + "]"),
            ("deltaZ_re", "[" + ", ".join(_rows_json(self.deltaZ.real)) + "]"),
            ("found", json.dumps(self.found)),
            ("instance_id", json.dumps(instance_id)),
            ("new_loss", json.dumps(self.new_loss)),
            ("old_loss", json.dumps(self.old_loss)),
            ("perturbation_norm", json.dumps(self.perturbation_norm)),
        )
        return "{" + ", ".join(f'"{key}": {value}' for key, value in fields) + "}"


@lru_cache(maxsize=8)
def _zero_row_json(h: int) -> str:
    return json.dumps([0.0] * h)


def _rows_json(m: np.ndarray) -> list[str]:
    """``json.dumps(row.tolist())`` for each row of the 2-d float array ``m``."""
    rows = [_zero_row_json(m.shape[1])] * m.shape[0]
    # +0.0 is the one double whose bits are all zero, so a row holding -0.0 stays live
    for r in np.flatnonzero(m.view(np.uint64).any(axis=1)):
        rows[r] = json.dumps(m[r].tolist())
    return rows


def _perturbation_norm(dz: np.ndarray, dalpha: np.ndarray) -> float:
    fro = math.sqrt(float(np.sum(dz.real**2 + dz.imag**2)))
    return fro + float(np.linalg.norm(dalpha))


def descent_probe(p: FFTNetParams, data: Dataset, spec: LossSpec,
                  delta: float = 0.1, seed: int = 0,
                  tape: Tape | None = None) -> ProbeResult:
    """Find a strict loss decrease within a delta-ball of (Z, alpha).

    Case 1 (some alpha_k nonzero): a rank-one row update c*v that moves only
    the worst sample's output, with c searched over geometric radii and 64
    phases.  Case 2 (alpha identically zero): sample a row perturbation
    until the readout's directional derivative is nonzero, then backtrack on
    the first readout weight.  Each case proposes only the perturbations its
    surrogate loss predicts will descend; the first whose exact loss is
    below the current one is the result.  A start whose loss is not finite
    and positive is refused: the claim covers no other.

    A ``tape`` that recorded the forward pass of p on data.xs saves running
    it again (see :func:`empirical_loss`); otherwise it records that pass.
    """
    if not 0 < delta < math.inf:  # NaN fails too
        raise ContractViolationError("delta must be positive and finite")
    if not p.activation.holomorphic_nonpolynomial:
        raise ContractViolationError(
            "descent probe needs a holomorphic non-polynomial activation")
    if spec.well_posedness:
        raise ContractViolationError(f"loss: not well posed: {'; '.join(spec.well_posedness)}")
    if tape is None:
        tape = Tape()
    old_loss = empirical_loss(p, data, spec, tape)
    # the probe's one independence test: case 1's null_vector_against relies on it
    if numerical_rank(tape.K) < data.n:
        raise ContractViolationError("padded samples are not linearly independent")
    if not math.isfinite(old_loss):
        raise ContractViolationError(
            f"descent is only claimed for finite loss; the loss is {old_loss!r}")
    if not old_loss > 0.0:
        raise ContractViolationError(
            "descent is only claimed for positive loss; nothing to improve")

    if np.max(np.abs(p.alpha)) > 0.0:
        case = "alpha_nonzero"
        proposals = _alpha_nonzero_proposals(p, spec, delta, old_loss, tape.K,
                                             tape.out - data.ys)
    else:
        case = "alpha_zero"
        proposals = _alpha_zero_proposals(p, data, spec, delta, seed, old_loss, tape.K)
    for row, dz, dalpha in proposals:
        dzm = np.zeros((p.H, p.H), dtype=np.complex128)
        dzm[row] = dz
        cand = replace(p, W=p.W + dzm.real, V=p.V + dzm.imag, alpha=p.alpha + dalpha)
        cand_loss = empirical_loss(cand, data, spec)
        if cand_loss < old_loss:
            return ProbeResult(True, dzm, dalpha, old_loss, cand_loss, case,
                               _perturbation_norm(dzm, dalpha))
    return ProbeResult(False, np.zeros((p.H, p.H), dtype=np.complex128), np.zeros(p.H),
                       old_loss, old_loss, case, 0.0)


def _alpha_nonzero_proposals(p, spec, delta, old_loss, k, res):
    """Case 1: (row k0, c*v, no readout change) per radius level whose best
    phase lowers the loss when only the worst sample's residual moves."""
    j0 = int(np.argmax(np.abs(res)))
    k0 = int(np.argmax(np.abs(p.alpha)))
    v = null_vector_against(k, keep=j0)
    beta = complex(v @ k[j0])
    w0 = complex((p.W[k0] + 1j * p.V[k0]) @ k[j0])
    base = p.alpha[k0] * complex(apply(p.activation, w0)).real
    vnorm = float(np.linalg.norm(v))

    for level in range(PROBE_RADIUS_LEVELS):
        radius = PROBE_RADIUS_MARGIN * delta * 2.0**-level / vnorm
        cs = radius * PROBE_PHASES
        terms = p.alpha[k0] * apply(p.activation, w0 + cs * beta).real
        new_res_j0 = res[j0] - base + terms
        new_losses = old_loss - float(spec.value(res[j0])) + spec.value(new_res_j0)
        best = int(np.argmin(new_losses))
        if new_losses[best] < old_loss:
            yield k0, cs[best] * v, np.zeros(p.H)


def _alpha_zero_proposals(p, data, spec, delta, seed, old_loss, k):
    """Case 2: (row 0, a sampled dz, a step on alpha_0) per halving of that
    step whose loss, with the readout's other weights still zero, is lower."""
    rng = np.random.default_rng(seed)
    lp = spec.deriv(-data.ys)
    z1 = p.W[0] + 1j * p.V[0]
    for _ in range(PROBE_C1_SAMPLES):
        direction = rng.standard_normal(p.H) + 1j * rng.standard_normal(p.H)
        direction /= np.linalg.norm(direction)
        dz = (delta / 2.0) * rng.uniform(0.2, 1.0) * direction
        vals = apply(p.activation, k @ (z1 + dz)).real
        c1 = float(lp @ vals)
        if abs(c1) > PROBE_C1_FLOOR:
            break
    else:
        return  # the readout's derivative vanished along every sampled direction

    eta = PROBE_RADIUS_MARGIN * delta / 2.0
    for _ in range(PROBE_RADIUS_LEVELS + 1):
        da1 = -np.sign(c1) * eta
        if float(np.sum(spec.value(da1 * vals - data.ys))) < old_loss:
            dalpha = np.zeros(p.H)
            dalpha[0] = da1
            yield 0, dz, dalpha
        eta /= 2.0


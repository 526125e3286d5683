"""Exact weight-assembly operators embedding one model family into another.

Every operator here is a permutation / block rearrangement of its input's
weights, so source and target agree to rounding (a few ulps); the paired
tests check |gap| <= 1e-12 relative.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .activations import ZRELU, Activation, apply, apply_real
from .errors import ContractViolationError
from .models import (
    AdditiveFTNetParams,
    CRNetParams,
    FFTNetParams,
    FNNParams,
    RFTNetParams,
    RNNParams,
    _batch,
    additive_activation,
    eval_rnn_many,
)
from .numerics import numerical_rank


@dataclass(frozen=True)
class EmbeddingReport:
    """One row of the verify CSV: its fields, in order, are the CSV's columns."""

    source_kind: str
    target_kind: str
    I: int
    T: int
    source_hidden: int
    target_hidden: int
    source_params: int
    target_params: int
    max_abs_output_gap: float | None = None

    def __post_init__(self):
        # written "not >= 0" so that a NaN gap is rejected too
        if self.max_abs_output_gap is not None and not self.max_abs_output_gap >= 0:
            raise ContractViolationError(f"gap must be >= 0, got {self.max_abs_output_gap!r}")

    def csv_row(self) -> str:
        *head, gap = (getattr(self, f.name) for f in fields(self))
        return ",".join([*map(str, head), "" if gap is None else repr(gap)])

    @classmethod
    def from_csv_row(cls, line: str) -> EmbeddingReport:
        """The report a :meth:`csv_row` line holds.  Raises ContractViolationError
        on a wrong column count, a count that is not an integer, or a gap that
        is neither blank nor a number >= 0."""
        parts = line.split(",")
        columns = len(fields(cls))
        if len(parts) != columns:
            raise ContractViolationError(f"expected {columns} columns, got {len(parts)}")
        try:
            return cls(*parts[:2], *map(int, parts[2:-1]),
                       float(parts[-1]) if parts[-1] else None)
        except ValueError as exc:
            raise ContractViolationError(str(exc)) from None


EMBEDDING_CSV_HEADER = ",".join(f.name for f in fields(EmbeddingReport))


def _require_restriction(source_activation: Activation, c: float) -> None:
    """Refuse a source activation that is not zrelu's real restriction at offset c.

    A functional precondition, checked on a probe grid.  The FNN and RNN
    embeddings need the offset c in the imaginary part, on the line x + ci;
    the additive net puts it in the real part (models.additive_activation).
    """
    xs = np.linspace(-4.0, 4.0, 81)
    lhs = apply_real(source_activation, xs)
    rhs = apply(ZRELU, xs + 1j * c).real
    if not np.max(np.abs(lhs - rhs)) <= 1e-12:
        raise ContractViolationError(
            f"{source_activation.tag} is not the real restriction of zrelu at c={c}")


def fnn_to_fftnet(f: FNNParams, c: float = 1.0) -> FFTNetParams:
    """Embed a one-hidden-layer FNN into a feedforward zrelu net.

    The source activation must be the real restriction of zrelu at height c,
    which the target writes as a constant imaginary bias.
    """
    _require_restriction(f.activation, c)

    h = max(f.H, f.I + 1)
    w = np.zeros((h, h))
    v = np.zeros((h, h))
    w[: f.H, : f.I] = f.W
    w[: f.H, h - 1] = f.b
    v[: f.H, h - 1] = c
    alpha = np.zeros(h)
    alpha[: f.H] = f.alpha
    return FFTNetParams(f.I, h, w, v, alpha, ZRELU)


def additive_to_rftnet(a: AdditiveFTNetParams) -> RFTNetParams:
    """Embed the two-recurrence additive network into a recurrent complex net.

    Block layout (rows/cols I | H+ | 1): W carries B and the +c bias column,
    V carries A and -zeta; the receptor starts at (0; q0; 0) and stays of
    that shape, mirroring q_t at every step.
    """
    if abs(complex(apply(a.activation, 0.0 + 0.0j))) != 0.0:
        raise ContractViolationError("base activation must map 0 to 0")
    i, hp = a.I, a.H
    h = i + hp + 1
    w = np.zeros((h, h))
    v = np.zeros((h, h))
    w[i : i + hp, i : i + hp] = a.B
    w[i : i + hp, h - 1] = a.c  # proof uses +c*1 (displayed sign is a typo)
    v[i : i + hp, :i] = a.A
    v[i : i + hp, h - 1] = -a.zeta
    r0 = np.zeros(h)
    r0[i : i + hp] = a.q0
    alpha = np.zeros(h)
    alpha[i : i + hp] = a.alpha
    return RFTNetParams(i, h, w, v, alpha, a.activation, r0)


def _crnet_host(cr: CRNetParams, h: int, row0: int):
    """W, V, alpha of an H-wide gate net with the unit pairs from row row0 on:
    H_C rows for the units z, then H_C rows for their partners conj(z) i, each
    reading the two input halves and the bias slot h - 1."""
    # the gate identity Re[act(x+yi)] = Im[act(conj(x+yi) i)] is zrelu-specific
    if cr.activation != ZRELU:
        raise ContractViolationError("CRNet embeddings require the zrelu activation")
    wr, wi, br, bi = cr.W.real, cr.W.imag, cr.b.real, cr.b.imag
    half, i, hc = cr.I // 2, cr.I, cr.H
    z, zc = slice(row0, row0 + hc), slice(row0 + hc, row0 + 2 * hc)
    w = np.zeros((h, h))
    v = np.zeros((h, h))
    w[z, :half], w[z, half:i], w[z, h - 1] = wr, -wi, br
    w[zc, :half], w[zc, half:i], w[zc, h - 1] = wi, wr, bi
    v[z, :half], v[z, half:i], v[z, h - 1] = wi, wr, bi
    v[zc, :half], v[zc, half:i], v[zc, h - 1] = wr, -wi, br
    alpha = np.zeros(h)
    alpha[z], alpha[zc] = cr.alpha.real, -cr.alpha.imag
    return w, v, alpha


def crnet_to_fftnet(cr: CRNetParams) -> FFTNetParams:
    """Duplicate each complex unit into a (z, conj(z) i) pair of gate units."""
    h = max(2 * cr.H, cr.I + 1)
    return FFTNetParams(cr.I, h, *_crnet_host(cr, h, 0), ZRELU)


def crnet_to_rftnet(cr: CRNetParams) -> RFTNetParams:
    """Recurrent wrapper of crnet_to_fftnet; the receptor columns are zero,
    so the recurrence is inert and every step reproduces the CRNet."""
    h = 2 * cr.H + cr.I + 1
    return RFTNetParams(cr.I, h, *_crnet_host(cr, h, cr.I), ZRELU, np.zeros(h))


def rnn_to_rftnet(r: RNNParams) -> RFTNetParams:
    """Embed an RNN whose activation is zrelu's real restriction at 1 (ReLU);
    receptor block 3 carries the memory m_t exactly.

    Row/col blocks are I | H_R | H_R | 1.  Block 2 computes the memory update
    in its real part, reading zrelu at x + i; block 3 recomputes it in its
    imaginary part, reading zrelu at 1 + xi, so the receptor feeds it back.
    Both readings are ReLU, the source's activation on the reals.
    """
    _require_restriction(r.activation, 1.0)
    i, hr = r.I, r.H
    h = 2 * hr + i + 1
    b2 = slice(i, i + hr)
    b3 = slice(i + hr, i + 2 * hr)
    w = np.zeros((h, h))
    v = np.zeros((h, h))
    w[b2, :i] = r.W
    w[b2, h - 1] = r.b
    w[b3, b3] = r.V
    w[b3, h - 1] = 1.0
    v[b2, b3] = -r.V
    v[b2, h - 1] = 1.0
    v[b3, :i] = r.W
    v[b3, h - 1] = r.b
    r0 = np.zeros(h)
    r0[b3] = r.m0
    alpha = np.zeros(h)
    alpha[b2] = r.alpha
    return RFTNetParams(i, h, w, v, alpha, ZRELU, r0)


def rnn_timepoint_to_fnn(r: RNNParams, xs_prefix, t0: int) -> FNNParams:
    """Freeze an RNN's history before time t0 into a feedforward bias.

    The result maps any substituted input at time t0 to the output the RNN
    would produce there; b_F = V m_{t0-1} + b.
    """
    xs_prefix = _batch(xs_prefix, 2, r.I)
    if not 1 <= t0 <= xs_prefix.shape[0] + 1:
        raise ContractViolationError(
            f"t0={t0} out of range for a prefix of length {xs_prefix.shape[0]}")
    if t0 == 1:
        m_prev = r.m0
    else:
        _, ms = eval_rnn_many(r, xs_prefix[None, : t0 - 1])
        m_prev = ms[0, -1]
    return FNNParams(r.I, r.H, r.W, r.V @ m_prev + r.b, r.alpha, r.activation)


def pad_row_independent(U1) -> np.ndarray:
    """[U1 | I]: a readout made row independent by appending an identity block.

    The O padded hidden units get zero weights and zero bias; for activations
    with act(0) = 0 they contribute nothing, so outputs are unchanged.
    """
    U1 = np.asarray(U1, dtype=np.float64)
    if U1.ndim != 2:
        raise ContractViolationError("U1 must be a matrix")
    return np.hstack([U1, np.eye(U1.shape[0])])


# ---------------------------------------------------------------------------
# DODS assembly (additive network built from trained sub-approximators)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Stage:
    """One stage of the chain: its units sigma(A x + B h + b), read out by C.

    A state stage's C maps its units to the hd-dimensional state and must be
    row independent (use pad_row_independent when it is not); the readout
    stage's C is one row, its readout weights.  Bias is stored in added form.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    b: np.ndarray

    @property
    def hidden(self) -> int:
        return self.A.shape[0]


def _solve_row_independent(C: np.ndarray, target: np.ndarray, name: str) -> np.ndarray:
    """The least-squares solution of C x = target, for a row-independent C only."""
    if numerical_rank(C) < C.shape[0]:
        raise ContractViolationError(f"{name} is not row independent")
    return np.linalg.lstsq(C, target, rcond=None)[0]


def assemble_dods_additive(stage1: Stage, stage2: Stage, readout: Stage,
                           base_activation: Activation, c: float, h0) -> AdditiveFTNetParams:
    """Assemble the final additive network from the three sub-approximators.

    Structurally (independent of approximation quality): the first state
    stage is mirrored by the p side, the q side's tail block reproduces the
    second stage's recurrence, and the assembled states are the
    concatenation of the stage states.
    """
    h0 = np.asarray(h0, dtype=np.float64)
    h1, h2, h5 = stage1.hidden, stage2.hidden, readout.hidden
    hd = stage1.C.shape[0]
    i = stage1.A.shape[1]
    if stage2.C.shape[0] != hd or stage2.A.shape[1] != i or readout.A.shape[1] != i:
        raise ContractViolationError("stage dimensions are inconsistent")
    if readout.B.shape[1] != h2:
        raise ContractViolationError("readout stage must consume the q-side state")
    _solve_row_independent(stage1.C, h0, "stage1 readout")  # the check only: p starts at 0
    q0_2 = _solve_row_independent(stage2.C, h0, "stage2 readout")

    h3 = h1 + h2
    hp = h3 + h5
    a = np.vstack([stage1.A, stage2.A, readout.A])
    b = np.zeros((hp, hp))
    b[0:h1, h1:h3] = stage1.B @ stage2.C
    b[h1:h3, h1:h3] = stage2.B @ stage2.C
    b[h3:hp, h1:h3] = readout.B
    zeta = -np.concatenate([stage1.b, stage2.b, readout.b])
    alpha = np.concatenate([np.zeros(h3), readout.C.ravel()])
    q0 = np.concatenate([np.zeros(h1), q0_2, np.zeros(h5)])
    return AdditiveFTNetParams(i, hp, a, b, zeta, alpha, q0, base_activation, c)


def dods_stage_trajectories(stage1: Stage, stage2: Stage, readout: Stage,
                            base_activation: Activation, c: float, h0, xs) -> dict:
    """Simulate every intermediate recurrence of the assembly chain.

    Returns arrays keyed p1, q1, p2, q2, p3, q3, p5, q5 with time along
    axis 0 (step t at index t-1).
    """
    xs = np.asarray(xs, dtype=np.float64)
    h0 = np.asarray(h0, dtype=np.float64)
    sigma = additive_activation(base_activation, c)
    t_len = xs.shape[0]
    h1, h2, h5 = stage1.hidden, stage2.hidden, readout.hidden
    p1 = np.zeros((t_len, h0.size))
    q1 = np.zeros((t_len, h0.size))
    p2 = np.zeros((t_len, h1))
    q2 = np.zeros((t_len, h2))
    p3 = np.zeros((t_len, h1 + h2))
    q3 = np.zeros((t_len, h1 + h2))
    p5 = np.zeros((t_len, h5))
    q5 = np.zeros((t_len, h5))

    p1_prev, q1_prev = h0, h0
    p2_prev = _solve_row_independent(stage1.C, h0, "stage1 readout")
    q2_prev = _solve_row_independent(stage2.C, h0, "stage2 readout")
    q3_prev = np.concatenate([np.zeros(h1), q2_prev])
    a3 = np.vstack([stage1.A, stage2.A])
    b3 = np.zeros((h1 + h2, h1 + h2))
    b3[0:h1, h1:] = stage1.B @ stage2.C
    b3[h1:, h1:] = stage2.B @ stage2.C
    bias3 = np.concatenate([stage1.b, stage2.b])

    for t in range(t_len):
        x = xs[t]
        p1[t] = stage1.C @ sigma(stage1.A @ x + stage1.B @ p1_prev + stage1.b).real
        q1[t] = stage2.C @ sigma(stage2.A @ x + stage2.B @ q1_prev + stage2.b).imag
        p2[t] = sigma(stage1.A @ x + stage1.B @ (stage1.C @ p2_prev) + stage1.b).real
        q2_new = sigma(stage2.A @ x + stage2.B @ (stage2.C @ q2_prev) + stage2.b).imag
        z3 = sigma(a3 @ x + b3 @ q3_prev + bias3)
        p3[t], q3[t] = z3.real, z3.imag
        z5 = sigma(readout.A @ x + readout.B @ q2_prev + readout.b)
        p5[t], q5[t] = z5.real, z5.imag
        p1_prev, q1_prev = p1[t], q1[t]
        p2_prev, q2_prev = p2[t], q2_new
        q2[t] = q2_new
        q3_prev = q3[t]

    return {"p1": p1, "q1": q1, "p2": p2, "q2": q2, "p3": p3, "q3": q3,
            "p5": p5, "q5": q5}

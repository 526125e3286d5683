"""Forward evaluation of every model family and the padding map kappa.

Conventions used throughout:

* biases are stored in ADDED form for FNN / RNN / CRNet (``b = -theta``);
  the additive network keeps its subtracted ``zeta`` exactly as defined;
* the recurrent readout uses the stimulus (real part) only;
* outputs are scalar per time step.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .activations import (
    IMAG_ARG_REAL_BIAS,
    TABLE,
    ActivationKind,
    activation_from_tag,
    apply,
    apply_real,
    induced_complex,
)
from .errors import ContractViolationError


def _check_finite(name: str, *arrays) -> None:
    for a in arrays:
        if not np.all(np.isfinite(a)):
            raise ContractViolationError(f"{name}: non-finite entries")


def _floats(x, name: str, dtype=np.float64) -> np.ndarray:
    try:
        return np.asarray(x, dtype=dtype)
    except (TypeError, ValueError, OverflowError):  # strings, ragged, objects, huge ints
        raise ContractViolationError(
            f"{name}: expected a number or a rectangular array of numbers") from None


def _scalar(x, name: str) -> float:
    a = _floats(x, name)
    if a.ndim != 0:
        raise ContractViolationError(f"{name}: expected a number, got shape {a.shape}")
    return float(a)


def _vec(x, n: int, name: str, dtype=np.float64) -> np.ndarray:
    a = _floats(x, name, dtype)
    if a.shape != (n,):
        raise ContractViolationError(f"{name}: expected shape ({n},), got {a.shape}")
    return a


def _mat(x, rows: int, cols: int, name: str, dtype=np.float64) -> np.ndarray:
    a = _floats(x, name, dtype)
    if a.shape != (rows, cols):
        raise ContractViolationError(
            f"{name}: expected shape ({rows}, {cols}), got {a.shape}"
        )
    return a


# ---------------------------------------------------------------------------
# parameter containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FFTNetParams:
    """One-hidden-layer feedforward network with complex weight W + Vi."""

    I: int
    H: int
    W: np.ndarray
    V: np.ndarray
    alpha: np.ndarray
    activation: ActivationKind

    def __post_init__(self):
        if self.H < self.I + 1:
            raise ContractViolationError(f"H={self.H} must be >= I+1={self.I + 1}")
        object.__setattr__(self, "W", _mat(self.W, self.H, self.H, "W"))
        object.__setattr__(self, "V", _mat(self.V, self.H, self.H, "V"))
        object.__setattr__(self, "alpha", _vec(self.alpha, self.H, "alpha"))
        _check_finite("FFTNetParams", self.W, self.V, self.alpha)


@dataclass(frozen=True)
class RFTNetParams:
    """Recurrent variant; the receptor r0 seeds the imaginary feedback."""

    I: int
    H: int
    W: np.ndarray
    V: np.ndarray
    alpha: np.ndarray
    activation: ActivationKind
    r0: np.ndarray

    def __post_init__(self):
        if self.H < self.I + 1:
            raise ContractViolationError(f"H={self.H} must be >= I+1={self.I + 1}")
        object.__setattr__(self, "W", _mat(self.W, self.H, self.H, "W"))
        object.__setattr__(self, "V", _mat(self.V, self.H, self.H, "V"))
        object.__setattr__(self, "alpha", _vec(self.alpha, self.H, "alpha"))
        object.__setattr__(self, "r0", _vec(self.r0, self.H, "r0"))
        _check_finite("RFTNetParams", self.W, self.V, self.alpha, self.r0)


@dataclass(frozen=True)
class AdditiveFTNetParams:
    """Two-recurrence network with shared pre-activation.

    p_t = sigma1(A x_t + B q_{t-1} - zeta), q_t = sigma2(same), y_t = alphaplus . p_t,
    where sigma1/sigma2 are the real/imaginary restrictions of
    ``base_activation`` at the complex point (c + u i).
    """

    I: int
    Hplus: int
    A: np.ndarray
    B: np.ndarray
    zeta: np.ndarray
    alphaplus: np.ndarray
    q0: np.ndarray
    base_activation: ActivationKind
    c: float

    def __post_init__(self):
        object.__setattr__(self, "A", _mat(self.A, self.Hplus, self.I, "A"))
        object.__setattr__(self, "B", _mat(self.B, self.Hplus, self.Hplus, "B"))
        object.__setattr__(self, "zeta", _vec(self.zeta, self.Hplus, "zeta"))
        object.__setattr__(self, "alphaplus", _vec(self.alphaplus, self.Hplus, "alphaplus"))
        object.__setattr__(self, "q0", _vec(self.q0, self.Hplus, "q0"))
        _check_finite("AdditiveFTNetParams", self.A, self.B, self.zeta,
                      self.alphaplus, self.q0, np.array([self.c]))


@dataclass(frozen=True)
class FNNParams:
    """f(x) = alphaF . sigma(WF x + bF) with bias already added."""

    I: int
    HF: int
    WF: np.ndarray
    bF: np.ndarray
    alphaF: np.ndarray
    activation: ActivationKind

    def __post_init__(self):
        object.__setattr__(self, "WF", _mat(self.WF, self.HF, self.I, "WF"))
        object.__setattr__(self, "bF", _vec(self.bF, self.HF, "bF"))
        object.__setattr__(self, "alphaF", _vec(self.alphaF, self.HF, "alphaF"))
        _check_finite("FNNParams", self.WF, self.bF, self.alphaF)


@dataclass(frozen=True)
class RNNParams:
    """m_t = sigma(WR x_t + VR m_{t-1} + bR), y_t = alphaR . m_t."""

    I: int
    HR: int
    WR: np.ndarray
    VR: np.ndarray
    bR: np.ndarray
    alphaR: np.ndarray
    m0: np.ndarray
    activation: ActivationKind

    def __post_init__(self):
        object.__setattr__(self, "WR", _mat(self.WR, self.HR, self.I, "WR"))
        object.__setattr__(self, "VR", _mat(self.VR, self.HR, self.HR, "VR"))
        object.__setattr__(self, "bR", _vec(self.bR, self.HR, "bR"))
        object.__setattr__(self, "alphaR", _vec(self.alphaR, self.HR, "alphaR"))
        object.__setattr__(self, "m0", _vec(self.m0, self.HR, "m0"))
        _check_finite("RNNParams", self.WR, self.VR, self.bR, self.alphaR, self.m0)


@dataclass(frozen=True)
class CRNetParams:
    """Complex-reaction network; the input is folded into C^{I/2}."""

    I: int
    HC: int
    WC: np.ndarray                     # complex (HC, I/2)
    bC: np.ndarray                     # complex (HC,)
    alphaC: np.ndarray                 # complex (HC,)
    activation: ActivationKind

    def __post_init__(self):
        if self.I % 2 != 0:
            raise ContractViolationError(f"CRNet input dimension must be even, got {self.I}")
        c = np.complex128
        object.__setattr__(self, "WC", _mat(self.WC, self.HC, self.I // 2, "WC", c))
        object.__setattr__(self, "bC", _vec(self.bC, self.HC, "bC", c))
        object.__setattr__(self, "alphaC", _vec(self.alphaC, self.HC, "alphaC", c))
        _check_finite("CRNetParams", self.WC, self.bC, self.alphaC)


@dataclass(frozen=True)
class DODSSpec:
    """Discrete-time open dynamical system h_t = phi(x_t, h_{t-1}), y_t = psi(h_t)."""

    I: int
    HD: int
    h0: np.ndarray
    phi: Callable[[np.ndarray, np.ndarray], np.ndarray]
    psi: Callable[[np.ndarray], float]

    def __post_init__(self):
        object.__setattr__(self, "h0", _vec(self.h0, self.HD, "h0"))


def dods_linear(P, Q, readout, h0) -> DODSSpec:
    """h_t = P x_t + Q h_{t-1}, y_t = readout . h_t."""
    P = np.asarray(P, dtype=np.float64)
    Q = np.asarray(Q, dtype=np.float64)
    readout = np.asarray(readout, dtype=np.float64)
    hd, i = P.shape
    return DODSSpec(i, hd, np.asarray(h0, dtype=np.float64),
                    phi=lambda x, h: P @ x + Q @ h,
                    psi=lambda h: float(readout @ h))


# ---------------------------------------------------------------------------
# kappa and evaluators
# ---------------------------------------------------------------------------

def kappa_many(X: np.ndarray, H: int) -> np.ndarray:
    """Lift each row x in R^I to (x; 0; ...; 0; 1) in R^H: (..., I) -> (..., H)."""
    X = np.asarray(X, dtype=np.float64)
    i = X.shape[-1]
    if H < i + 1:
        raise ContractViolationError(f"kappa needs H >= I+1 ({H} < {i + 1})")
    out = np.zeros((*X.shape[:-1], H))
    out[..., :i] = X
    out[..., -1] = 1.0
    return out


class Tape:
    """The intermediates of one FTNet forward pass, kept for its gradient.

    Pass an empty Tape as ``tape=`` to :func:`eval_fftnet_many` or
    :func:`eval_rftnet_many`, or let :func:`forward` pick the evaluator.  It
    then holds the outputs ``out``, the padded inputs ``K``, the
    pre-activations ``Z`` and the activations ``acts``: one (N, H) array each
    for the feedforward net.  For the recurrent net, ``K`` and ``Z`` are
    stacked as (T, B, H), and ``acts`` and ``R`` (the receptor each step
    read) are lists of T arrays of shape (B, H).
    """

    __slots__ = ("source", "out", "K", "Z", "acts", "R")

    def __init__(self):
        self.source = ()

    @staticmethod
    def _source(p, X) -> tuple:
        return (p.W, p.V, p.alpha, getattr(p, "r0", None), p.activation, X)

    def record(self, p, X, out, K, Z, acts, R=None) -> None:
        self.source = self._source(p, X)
        self.out, self.K, self.Z, self.acts, self.R = out, K, Z, acts, R

    def matches(self, p, X) -> bool:
        """True when the recorded pass ran on these very parameter and input arrays."""
        return bool(self.source) and all(
            a is b for a, b in zip(self.source, self._source(p, X)))


def eval_fftnet_many(p: FFTNetParams, X: np.ndarray, tape: Tape | None = None) -> np.ndarray:
    """Batch of inputs, shape (N, I) -> outputs (N,); fills ``tape`` when given."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != p.I:
        raise ContractViolationError(f"expected inputs of shape (N, {p.I})")
    k = kappa_many(X, p.H)
    pre = np.empty((X.shape[0], p.H), dtype=np.complex128)
    pre.real = k @ p.W.T
    pre.imag = k @ p.V.T
    act = np.asarray(apply(p.activation, pre))
    out = act.real @ p.alpha
    if tape is not None:
        tape.record(p, X, out, k, pre, act)
    return out


def eval_rftnet_many(p: RFTNetParams, XS: np.ndarray, tape: Tape | None = None):
    """Batch of sequences, shape (B, T, I) -> outputs (B, T); fills ``tape`` when given.

    The receptor after step t is the imaginary part of ``tape.acts[t]``.
    """
    XS = np.asarray(XS, dtype=np.float64)
    if XS.ndim != 3 or XS.shape[2] != p.I:
        raise ContractViolationError(f"expected sequences of shape (B, T, {p.I})")
    b, t_len, _ = XS.shape
    if t_len < 1:
        raise ContractViolationError("need at least one time step")
    r = np.broadcast_to(p.r0, (b, p.H)).copy()
    ys = np.zeros((b, t_len))
    rs, acts = [], []
    # time-major, so each ks[t] is a contiguous (B, H) block
    ks = kappa_many(XS.transpose(1, 0, 2), p.H)
    zs = np.empty((t_len, b, p.H), dtype=np.complex128)
    for t in range(t_len):
        pre = zs[t]
        pre.real = ks[t] @ p.W.T - r @ p.V.T
        pre.imag = ks[t] @ p.V.T + r @ p.W.T
        act = np.asarray(apply(p.activation, pre))
        rs.append(r)
        acts.append(act)
        s, r = act.real, act.imag
        ys[:, t] = s @ p.alpha
    if tape is not None:
        tape.record(p, XS, ys, ks, zs, acts, rs)
    return ys


def forward(p: FFTNetParams | RFTNetParams, X: np.ndarray, tape: Tape | None = None) -> Tape:
    """``tape`` when it recorded the pass of either FTNet p on X (``Tape.matches``);
    otherwise that pass, recorded into ``tape`` or into a new Tape."""
    if tape is not None and tape.matches(p, X):
        return tape
    tape = Tape() if tape is None else tape
    # looked up at call time, so a patched evaluator is the one that runs
    evaluate = eval_rftnet_many if isinstance(p, RFTNetParams) else eval_fftnet_many
    evaluate(p, X, tape=tape)
    return tape


def additive_activation(base_activation: ActivationKind, c: float):
    """The complex map an additive network with this base iterates with: the base
    at c + u i, whose real part is sigma1(u) and imaginary part sigma2(u)."""
    return partial(induced_complex, base_activation, c, convention=IMAG_ARG_REAL_BIAS)


def eval_additive_many(p: AdditiveFTNetParams, XS: np.ndarray):
    """Batch of sequences (B, T, I) -> outputs (B, T) and the (p_t, q_t)
    stacks, each (B, T, Hplus)."""
    XS = np.asarray(XS, dtype=np.float64)
    if XS.ndim != 3 or XS.shape[2] != p.I:
        raise ContractViolationError(f"expected sequences of shape (B, T, {p.I})")
    sigma = additive_activation(p.base_activation, p.c)
    b, t_len, _ = XS.shape
    q = np.broadcast_to(p.q0, (b, p.Hplus)).copy()
    ys = np.zeros((b, t_len))
    ps = np.zeros((b, t_len, p.Hplus))
    qs = np.zeros((b, t_len, p.Hplus))
    for t in range(t_len):
        u = XS[:, t, :] @ p.A.T + q @ p.B.T - p.zeta
        z = sigma(u)
        pt, q = z.real, z.imag
        ys[:, t] = pt @ p.alphaplus
        ps[:, t, :] = pt
        qs[:, t, :] = q
    return ys, ps, qs


def eval_fnn_many(p: FNNParams, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != p.I:
        raise ContractViolationError(f"expected inputs of shape (N, {p.I})")
    return apply_real(p.activation, X @ p.WF.T + p.bF) @ p.alphaF


def eval_rnn_many(p: RNNParams, XS: np.ndarray):
    """Batch of sequences (B, T, I) -> outputs (B, T) and memories (B, T, HR)."""
    XS = np.asarray(XS, dtype=np.float64)
    if XS.ndim != 3 or XS.shape[2] != p.I:
        raise ContractViolationError(f"expected sequences of shape (B, T, {p.I})")
    b, t_len, _ = XS.shape
    m = np.broadcast_to(p.m0, (b, p.HR)).copy()
    ys = np.zeros((b, t_len))
    ms = np.zeros((b, t_len, p.HR))
    for t in range(t_len):
        m = apply_real(p.activation, XS[:, t, :] @ p.WR.T + m @ p.VR.T + p.bR)
        ys[:, t] = m @ p.alphaR
        ms[:, t, :] = m
    return ys, ms


def eval_crnet_many(p: CRNetParams, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != p.I:
        raise ContractViolationError(f"expected inputs of shape (N, {p.I})")
    half = p.I // 2
    # tau folds (x1; x2) in R^I into x1 + x2 i in C^{I/2}; CRNetParams keeps I even
    pre = (X[:, :half] + 1j * X[:, half:]) @ p.WC.T + p.bC
    act = np.asarray(apply(p.activation, pre))
    return (act @ p.alphaC).real


def eval_dods(spec: DODSSpec, xs):
    """One sequence (T, I) -> outputs (T,) and hidden states (T, HD)."""
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim != 2 or xs.shape[1] != spec.I:
        raise ContractViolationError(f"expected a sequence of shape (T, {spec.I})")
    h = spec.h0
    ys = np.zeros(xs.shape[0])
    hs = np.zeros((xs.shape[0], spec.HD))
    for t in range(xs.shape[0]):
        h = np.asarray(spec.phi(xs[t], h), dtype=np.float64)
        ys[t] = spec.psi(h)
        hs[t] = h
    return ys, hs


# ---------------------------------------------------------------------------
# model kinds: names, sizes and JSON model files
# ---------------------------------------------------------------------------

def _ftnet_params(h: int, i: int) -> int:
    return 2 * h * h + h


@dataclass(frozen=True)
class ModelSpec:
    """How one parameter class is named, sized and stored in a model file.

    A file stores each array under its attribute name less the hidden-size
    suffix: WF of an FNN (hidden HF) is "W", alphaplus (Hplus) is "alpha".
    """

    kind: str                          # the "kind" value of its model files
    cls: type
    hidden: str                        # attribute stored as "H"
    arrays: tuple                      # array attributes, in file order
    params: Callable[[int, int], int]  # parameter count from (hidden, I)
    state: str | None = None           # initial state; zeros when a file omits it
    scalars: tuple = ()                # float attributes stored as they are
    activation: str = "activation"     # attribute holding the ActivationKind
    complex: bool = False              # arrays stored as "<key>_re", "<key>_im"

    def file_keys(self):
        """(file key, attribute) of each array."""
        suffix = self.hidden[1:]
        return [(attr.removesuffix(suffix), attr) for attr in self.arrays]


MODEL_SPECS = {spec.cls: spec for spec in (
    ModelSpec("fftnet", FFTNetParams, "H", ("W", "V", "alpha"), _ftnet_params),
    ModelSpec("rftnet", RFTNetParams, "H", ("W", "V", "alpha"), _ftnet_params, state="r0"),
    ModelSpec("additive", AdditiveFTNetParams, "Hplus", ("A", "B", "zeta", "alphaplus"),
              lambda h, i: h * (i + h + 3),  # A, B, zeta, alpha, q0
              state="q0", scalars=("c",), activation="base_activation"),
    ModelSpec("fnn", FNNParams, "HF", ("WF", "bF", "alphaF"), lambda h, i: 2 * h * (i + 1)),
    ModelSpec("rnn", RNNParams, "HR", ("WR", "VR", "bR", "alphaR"),
              lambda h, i: h * (i + h + 2), state="m0"),
    ModelSpec("crnet", CRNetParams, "HC", ("WC", "bC", "alphaC"),
              lambda h, i: 2 * h * (i + 2), complex=True),
)}

# "ftnet" counts either FTNet variant, as the width bounds do
_PARAM_COUNTS = {"ftnet": _ftnet_params,
                 **{spec.kind: spec.params for spec in MODEL_SPECS.values()}}


def _spec_of(p) -> ModelSpec:
    spec = MODEL_SPECS.get(type(p))
    if spec is None:
        raise ContractViolationError(f"unsupported model object {type(p).__name__}")
    return spec


def model_kind(p) -> str:
    return _spec_of(p).kind


def hidden_size(p) -> int:
    return getattr(p, _spec_of(p).hidden)


def param_count(model_kind: str, hidden: int, I: int = 0) -> int:
    """Parameter totals as reported alongside the width bounds."""
    if hidden < 1:
        raise ContractViolationError("hidden size must be >= 1")
    try:
        return int(_PARAM_COUNTS[model_kind](hidden, I))
    except KeyError:
        raise ContractViolationError(f"unknown model kind {model_kind!r}") from None


def model_to_dict(p) -> dict:
    spec = _spec_of(p)
    d = {"kind": spec.kind, "I": p.I, "H": getattr(p, spec.hidden)}
    for key, attr in spec.file_keys():
        value = getattr(p, attr)
        if spec.complex:
            d[f"{key}_re"] = value.real.tolist()
            d[f"{key}_im"] = value.imag.tolist()
        else:
            d[key] = value.tolist()
    if spec.state is not None:
        d[spec.state] = getattr(p, spec.state).tolist()
    for key in spec.scalars:
        d[key] = getattr(p, key)
    act = getattr(p, spec.activation)
    d["activation"] = act.tag
    if TABLE[act.tag].default_bias is not None:
        d["activation_bias"] = act.bias
    return d


def _complex_parts(d: dict, key: str) -> np.ndarray:
    """The complex array a model file stores as "<key>_re" and "<key>_im"."""
    re, im = (_floats(d[k], k) for k in (f"{key}_re", f"{key}_im"))
    if re.shape != im.shape:
        raise ContractViolationError(
            f"{key}_im: expected the shape {re.shape} of {key}_re, got {im.shape}")
    # one part at a time: re + 1j*im would turn a -0.0 real part into 0.0
    z = np.empty(re.shape, dtype=np.complex128)
    z.real = re
    z.imag = im
    return z


class _ModelFile(dict):
    """A model file's fields; reading a missing one names it as a broken contract."""

    def __missing__(self, key):
        raise ContractViolationError(f"{key}: missing required field")


def model_from_dict(d: dict):
    if not isinstance(d, dict):
        raise ContractViolationError(f"a model must be a JSON object, got {type(d).__name__}")
    d = _ModelFile(d)
    spec = next((s for s in MODEL_SPECS.values() if s.kind == d["kind"]), None)
    if spec is None:
        raise ContractViolationError(f"unknown model kind {d['kind']!r}")
    for key in ("I", "H"):
        # bool is an int subclass, and "5" or 5.0 would pass the shape checks
        if not isinstance(d[key], int) or isinstance(d[key], bool):
            raise ContractViolationError(f"{key}: expected an integer, got {d[key]!r}")
    bias = d.get("activation_bias")
    if bias is not None:
        bias = _scalar(bias, "activation_bias")
    fields = {"I": d["I"], spec.hidden: d["H"],
              spec.activation: activation_from_tag(d["activation"], bias)}
    for key, attr in spec.file_keys():
        fields[attr] = _complex_parts(d, key) if spec.complex else _floats(d[key], key)
    if spec.state is not None:  # zeros by default, one per readout weight (the last array)
        zeros = np.zeros_like(fields[spec.arrays[-1]])
        fields[spec.state] = _floats(d.get(spec.state, zeros), spec.state)
    for key in spec.scalars:
        fields[key] = _scalar(d[key], key)
    return spec.cls(**fields)


def save_model(path, p) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_dict(p), fh, sort_keys=True, indent=1)
        fh.write("\n")


def load_model(path):
    with open(path, encoding="utf-8") as fh:
        return model_from_dict(json.load(fh))

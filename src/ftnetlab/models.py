"""Forward evaluation of every model family and the padding map kappa.

Conventions used throughout:

* biases are stored in ADDED form for FNN / RNN / CRNet (``b = -theta``);
  the additive network keeps its subtracted ``zeta`` exactly as defined;
* the recurrent readout uses the stimulus (real part) only;
* outputs are scalar per time step.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from functools import cache

import numpy as np

from .activations import Activation, activation_from_tag, apply, apply_real
from .errors import ContractViolationError


# ---------------------------------------------------------------------------
# parameter containers
# ---------------------------------------------------------------------------

def _checked(x, key: str, shape: tuple, dtype=np.float64) -> np.ndarray:
    """``x`` as a finite array of this dtype and shape; otherwise a broken
    contract naming ``key``."""
    try:
        a = np.asarray(x, dtype=dtype)
    except (TypeError, ValueError, OverflowError):  # strings, ragged, objects, huge ints
        raise ContractViolationError(
            f"{key}: expected a number or a rectangular array of numbers") from None
    if a.shape != shape:
        raise ContractViolationError(f"{key}: expected shape {shape}, got {a.shape}")
    if not np.isfinite(a).all():
        raise ContractViolationError(f"{key}: non-finite entries")
    return a


def _array(*shape: str, dtype=np.float64, state: bool = False):
    """Declare an array field, named in model files and in errors by its field
    name; ``shape`` lists the sizes that give its shape (see :func:`_sizes`).  A
    ``state`` array given as None is zeros; a field without a shape is a number."""
    return field(metadata={"shape": shape, "dtype": dtype, "state": state})


def _sizes(i: int, h: int) -> dict:
    """The sizes a shape may name: I, the hidden size H and half of I."""
    return {"I": i, "H": h, "I/2": i // 2}


@cache  # every descent candidate is checked through this list
def _arrays(cls) -> tuple:
    """(name, shape, dtype, state) of each declared array, in field order."""
    return tuple((f.name, f.metadata["shape"], f.metadata["dtype"], f.metadata["state"])
                 for f in fields(cls) if "shape" in f.metadata)


class _Params:
    """Checks every declared array of a parameter class when it is built.

    Every class has the input size ``I`` and the hidden size ``H``; one stored
    in model files also names its ``kind`` and the paper's parameter-count
    formula ``params(H, I)``, which ``verify`` and ``convert`` report.
    """

    def __post_init__(self):
        sizes = _sizes(self.I, self.H)
        for name, names, dtype, state in _arrays(type(self)):
            shape = tuple(sizes[n] for n in names)
            value = getattr(self, name)
            if state and value is None:
                value = np.zeros(shape)
            a = _checked(value, name, shape, dtype)
            object.__setattr__(self, name, a if shape else float(a))


@dataclass(frozen=True)
class FFTNetParams(_Params):
    """One-hidden-layer feedforward network with complex weight W + Vi."""

    kind = "fftnet"
    params = staticmethod(lambda h, i: 2 * h * h + h)  # W, V, alpha

    I: int
    H: int
    W: np.ndarray = _array("H", "H")
    V: np.ndarray = _array("H", "H")
    alpha: np.ndarray = _array("H")
    activation: Activation

    def __post_init__(self):
        if self.H < self.I + 1:
            raise ContractViolationError(f"H: expected a value >= I+1 = {self.I+1}, got {self.H}")
        super().__post_init__()


@dataclass(frozen=True)
class RFTNetParams(FFTNetParams):
    """Recurrent variant; the receptor r0 seeds the imaginary feedback."""

    kind = "rftnet"

    r0: np.ndarray = _array("H", state=True)


@dataclass(frozen=True)
class AdditiveFTNetParams(_Params):
    """Two-recurrence network with shared pre-activation.

    p_t = sigma1(A x_t + B q_{t-1} - zeta), q_t = sigma2(same), y_t = alpha . p_t,
    where sigma1/sigma2 are the real/imaginary restrictions of
    ``activation`` at the complex point (c + u i).
    """

    kind = "additive"
    params = staticmethod(lambda h, i: h * (i + h + 3))  # A, B, zeta, alpha, q0

    I: int
    H: int
    A: np.ndarray = _array("H", "I")
    B: np.ndarray = _array("H", "H")
    zeta: np.ndarray = _array("H")
    alpha: np.ndarray = _array("H")
    q0: np.ndarray = _array("H", state=True)
    activation: Activation
    c: float = _array()


@dataclass(frozen=True)
class FNNParams(_Params):
    """f(x) = alpha . sigma(W x + b) with bias already added."""

    kind = "fnn"
    params = staticmethod(lambda h, i: 2 * h * (i + 1))

    I: int
    H: int
    W: np.ndarray = _array("H", "I")
    b: np.ndarray = _array("H")
    alpha: np.ndarray = _array("H")
    activation: Activation


@dataclass(frozen=True)
class RNNParams(_Params):
    """m_t = sigma(W x_t + V m_{t-1} + b), y_t = alpha . m_t."""

    kind = "rnn"
    params = staticmethod(lambda h, i: h * (i + h + 2))

    I: int
    H: int
    W: np.ndarray = _array("H", "I")
    V: np.ndarray = _array("H", "H")
    b: np.ndarray = _array("H")
    alpha: np.ndarray = _array("H")
    m0: np.ndarray = _array("H", state=True)
    activation: Activation


@dataclass(frozen=True)
class CRNetParams(_Params):
    """Complex-reaction network; the input is folded into C^{I/2}."""

    kind = "crnet"
    params = staticmethod(lambda h, i: 2 * h * (i + 2))

    I: int
    H: int
    W: np.ndarray = _array("H", "I/2", dtype=np.complex128)
    b: np.ndarray = _array("H", dtype=np.complex128)
    alpha: np.ndarray = _array("H", dtype=np.complex128)
    activation: Activation

    def __post_init__(self):
        if self.I % 2 != 0:
            raise ContractViolationError(f"I: expected an even number, got {self.I}")
        super().__post_init__()


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
    for the feedforward net, which also keeps in ``D`` the derivative that
    ``apply(..., derivative=True)`` returned with ``acts`` (None for a kind
    without a shared form).  For the recurrent net, ``K`` and ``Z`` are
    stacked as (T, B, H), ``acts`` is a list of T arrays of shape (B, H)
    (step t > 0 read the receptor ``acts[t - 1].imag``), and ``D`` is None.

    A pass is keyed by the params object ``p`` and the input array ``X`` it
    ran on, compared with ``is``: a params object is frozen, so the same
    object still holds the arrays its pass read.
    A new pass allocates its arrays before the tape drops the old ones:
    freeing them first lets glibc trim the heap and fault the pages back in.

    The pinned bytes rest on the readout ``act.real @ alpha`` and the gradients'
    ``s.T @ lp`` and ``s.T @ gy``: numpy multiplies a strided view of a complex
    array by a vector with its own loop, not BLAS gemv, and a contiguous copy of
    the view gives other bytes, so real activation arrays move every pinned digest.
    """

    __slots__ = ("p", "X", "out", "K", "Z", "acts", "D")

    def __init__(self):
        self.p = self.X = None

    def record(self, p, X, out, K, Z, acts, D=None) -> None:
        self.p, self.X = p, X
        self.out, self.K, self.Z, self.acts, self.D = out, K, Z, acts, D

    def matches(self, p, X) -> bool:
        """True when the recorded pass ran on this very params object and input array."""
        return self.p is p and self.X is X


def _padded(X: np.ndarray, H: int, tape: Tape | None) -> np.ndarray:
    """``kappa_many(X, H)``, time-major (T, B, H) for sequences X (B, T, I), or
    the ``K`` of a tape that last read this very X array at width H."""
    if tape is not None and tape.X is X and tape.K.shape[-1] == H:
        return tape.K
    return kappa_many(X if X.ndim == 2 else X.transpose(1, 0, 2), H)


def _batch(X, ndim: int, I: int) -> np.ndarray:
    """X as a float64 array of ``ndim`` axes whose last has length I: inputs
    (N, I) or sequences (B, T, I)."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != ndim or X.shape[-1] != I:
        raise ContractViolationError(
            f"expected a {ndim}-d array of shape (..., {I}), got shape {X.shape}")
    return X


def preactivation_parts(p: FFTNetParams, k: np.ndarray) -> tuple:
    """(k @ W.T, k @ V.T): the real and imaginary parts of a feedforward net's
    pre-activations at padded inputs k.  Every caller gets them from these two
    matmuls, so equal inputs give equal doubles."""
    return k @ p.W.T, k @ p.V.T


def eval_fftnet_many(p: FFTNetParams, X: np.ndarray, tape: Tape | None = None) -> np.ndarray:
    """Batch of inputs, shape (N, I) -> outputs (N,); fills ``tape`` when given.

    A taped pass feeds a gradient, so it also takes the activation's
    derivative where that comes from the same evaluation.
    """
    X = _batch(X, 2, p.I)
    k = _padded(X, p.H, tape)
    pre = np.empty((X.shape[0], p.H), dtype=np.complex128)
    pre.real, pre.imag = preactivation_parts(p, k)
    if tape is None:
        return apply(p.activation, pre).real @ p.alpha
    act, d = apply(p.activation, pre, derivative=True)
    out = act.real @ p.alpha
    tape.record(p, X, out, k, pre, act, D=d)
    return out


def eval_rftnet_many(p: RFTNetParams, XS: np.ndarray, tape: Tape | None = None):
    """Batch of sequences, shape (B, T, I) -> outputs (B, T); fills ``tape`` when given."""
    XS = _batch(XS, 3, p.I)
    b, t_len, _ = XS.shape
    if t_len < 1:
        raise ContractViolationError("need at least one time step")
    r = np.broadcast_to(p.r0, (b, p.H)).copy()
    ys = np.zeros((b, t_len))
    acts = []
    ks = _padded(XS, p.H, tape)
    zs = np.empty((t_len, b, p.H), dtype=np.complex128)
    for t in range(t_len):
        pre = zs[t]
        pre.real = ks[t] @ p.W.T - r @ p.V.T
        pre.imag = ks[t] @ p.V.T + r @ p.W.T
        act = apply(p.activation, pre)
        acts.append(act)
        s, r = act.real, act.imag
        ys[:, t] = s @ p.alpha
    if tape is not None:
        tape.record(p, XS, ys, ks, zs, acts)
    return ys


def forward(p: FFTNetParams | RFTNetParams, X: np.ndarray, tape: Tape | None = None) -> Tape:
    """``tape`` when it recorded the pass of this very FTNet p on X (``Tape.matches``);
    otherwise that pass, recorded into ``tape`` or into a new Tape."""
    if tape is not None and tape.matches(p, X):
        return tape
    tape = Tape() if tape is None else tape
    # looked up at call time, so a patched evaluator is the one that runs
    evaluate = eval_rftnet_many if isinstance(p, RFTNetParams) else eval_fftnet_many
    evaluate(p, X, tape=tape)
    return tape


def additive_activation(base_activation: Activation, c: float):
    """The complex map an additive network with this base iterates with: the base
    at c + u i, whose real part is sigma1(u) and imaginary part sigma2(u)."""
    # the additive net needs the offset c in the real part; the FNN and RNN
    # embeddings check theirs in the imaginary part (constructions._require_restriction)
    return lambda u: apply(base_activation, c + 1j * u)


def eval_additive_many(p: AdditiveFTNetParams, XS: np.ndarray):
    """Batch of sequences (B, T, I) -> outputs (B, T) and the (p_t, q_t)
    stacks, each (B, T, H)."""
    XS = _batch(XS, 3, p.I)
    sigma = additive_activation(p.activation, p.c)
    b, t_len, _ = XS.shape
    q = np.broadcast_to(p.q0, (b, p.H)).copy()
    ys = np.zeros((b, t_len))
    ps = np.zeros((b, t_len, p.H))
    qs = np.zeros((b, t_len, p.H))
    for t in range(t_len):
        u = XS[:, t, :] @ p.A.T + q @ p.B.T - p.zeta
        z = sigma(u)
        pt, q = z.real, z.imag
        ys[:, t] = pt @ p.alpha
        ps[:, t, :] = pt
        qs[:, t, :] = q
    return ys, ps, qs


def eval_fnn_many(p: FNNParams, X: np.ndarray) -> np.ndarray:
    X = _batch(X, 2, p.I)
    return apply_real(p.activation, X @ p.W.T + p.b) @ p.alpha


def eval_rnn_many(p: RNNParams, XS: np.ndarray):
    """Batch of sequences (B, T, I) -> outputs (B, T) and memories (B, T, H)."""
    XS = _batch(XS, 3, p.I)
    b, t_len, _ = XS.shape
    m = np.broadcast_to(p.m0, (b, p.H)).copy()
    ys = np.zeros((b, t_len))
    ms = np.zeros((b, t_len, p.H))
    for t in range(t_len):
        m = apply_real(p.activation, XS[:, t, :] @ p.W.T + m @ p.V.T + p.b)
        ys[:, t] = m @ p.alpha
        ms[:, t, :] = m
    return ys, ms


def eval_crnet_many(p: CRNetParams, X: np.ndarray) -> np.ndarray:
    X = _batch(X, 2, p.I)
    half = p.I // 2
    # tau folds (x1; x2) in R^I into x1 + x2 i in C^{I/2}; CRNetParams keeps I even
    pre = (X[:, :half] + 1j * X[:, half:]) @ p.W.T + p.b
    act = apply(p.activation, pre)
    return (act @ p.alpha).real


def eval_linear_dods(xs, P, Q, readout, h0) -> np.ndarray:
    """Outputs (B, T) on sequences xs (B, T, I) of h_t = P x_t + Q h_{t-1} from h0,
    y_t = readout . h_t; each step is a matrix-vector product on one sequence."""
    P, Q, readout, h0 = (np.asarray(a, dtype=np.float64) for a in (P, Q, readout, h0))
    xs = _batch(xs, 3, P.shape[1])
    ys = np.zeros(xs.shape[:2])
    for b, seq in enumerate(xs):
        h = h0
        for t, x in enumerate(seq):
            h = P @ x + Q @ h
            ys[b, t] = float(readout @ h)
    return ys


# ---------------------------------------------------------------------------
# model kinds and JSON model files
# ---------------------------------------------------------------------------

_KINDS = {cls.kind: cls for cls in (FFTNetParams, RFTNetParams, AdditiveFTNetParams,
                                     FNNParams, RNNParams, CRNetParams)}


def model_to_dict(p) -> dict:
    """The model file of p: each declared array under its name, a complex one as
    "<name>_re" and "<name>_im" lists."""
    d = {"kind": p.kind, "I": p.I, "H": p.H}
    for name, shape, dtype, _ in _arrays(type(p)):
        value = getattr(p, name)
        if dtype is np.complex128:
            d[f"{name}_re"] = value.real.tolist()
            d[f"{name}_im"] = value.imag.tolist()
        else:
            d[name] = value.tolist() if shape else value
    d["activation"] = p.activation.tag
    return d


def _complex_parts(d: dict, name: str, shape: tuple) -> np.ndarray:
    """The complex array a model file stores as "<name>_re" and "<name>_im"."""
    re, im = (_checked(d[k], k, shape) for k in (f"{name}_re", f"{name}_im"))
    # one part at a time: re + 1j*im would turn a -0.0 real part into 0.0
    z = np.empty(shape, dtype=np.complex128)
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
    # a kind read from a file may be any JSON value, lists included
    cls = _KINDS.get(d["kind"]) if isinstance(d["kind"], str) else None
    if cls is None:
        raise ContractViolationError(f"unknown model kind {d['kind']!r}")
    for key in ("I", "H"):
        # bool is an int subclass, and "5" or 5.0 would pass the shape checks
        if not isinstance(d[key], int) or isinstance(d[key], bool):
            raise ContractViolationError(f"{key}: expected an integer, got {d[key]!r}")
    kwargs = {"I": d["I"], "H": d["H"], "activation": activation_from_tag(d["activation"])}
    sizes = _sizes(d["I"], d["H"])
    for name, names, dtype, state in _arrays(cls):
        if dtype is np.complex128:
            kwargs[name] = _complex_parts(d, name, tuple(sizes[n] for n in names))
        else:  # checked by the constructor, which makes a missing state zeros
            kwargs[name] = d.get(name) if state else d[name]
    p = cls(**kwargs)
    # a key model_to_dict would not write for this kind, such as a misspelt state,
    # an activation parameter or a field of another kind, would be dropped silently
    unexpected = sorted(d.keys() - model_to_dict(p).keys())
    if unexpected:
        raise ContractViolationError(f"{unexpected[0]}: unexpected field")
    return p


def save_model(fh, p) -> None:
    """Writes ``p`` as a model file to the open text handle ``fh``."""
    json.dump(model_to_dict(p), fh, sort_keys=True, indent=1)
    fh.write("\n")


# what read_json raises: ValueError for a file that is not UTF-8 or not JSON, or
# holds an integer past Python's digit limit; RecursionError for one nested too deep
READ_ERRORS = (OSError, ValueError, RecursionError)


def read_json(path):
    """The JSON value in the file at ``path``: the one reader of model and config files."""
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)

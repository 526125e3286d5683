"""Complex activation functions, their induced real restrictions, and subgradients.

The gate activation passes z exactly when Re(z) * Im(z) >= 0, which is the
closed phase set [0, pi/2] u [pi, 3pi/2]; the sign-product form is the
implementation rule.  Every kind maps 0 to 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError

# Induced-restriction conventions.  The two placements of the scalar offset c
# are not interchangeable; recurrent constructions need the offset in the
# real part, feedforward ones in the imaginary part.
REAL_ARG_IMAG_BIAS = "real_arg_imag_bias"  # sigma(x) = Re/Im of act(x + c i)
IMAG_ARG_REAL_BIAS = "imag_arg_real_bias"  # sigma(x) = Re/Im of act(c + x i)

_TAGS = ("zrelu", "modrelu", "crelu", "holexpm1", "holsin", "relu", "identity")
_HOLOMORPHIC_NONPOLY = ("holexpm1", "holsin")


@dataclass(frozen=True)
class ActivationKind:
    """Tagged activation; ``bias`` is used by modrelu only."""

    tag: str
    bias: float = 0.0

    def __post_init__(self):
        if self.tag not in _TAGS:
            raise ContractViolationError(f"unknown activation tag {self.tag!r}")

    @property
    def is_holomorphic_nonpolynomial(self) -> bool:
        return self.tag in _HOLOMORPHIC_NONPOLY


ZRELU = ActivationKind("zrelu")
CRELU = ActivationKind("crelu")
HOLEXPM1 = ActivationKind("holexpm1")
HOLSIN = ActivationKind("holsin")
RELU = ActivationKind("relu")
IDENTITY = ActivationKind("identity")


def modrelu(bias: float = -0.5) -> ActivationKind:
    return ActivationKind("modrelu", bias=float(bias))


def activation_from_tag(tag: str, bias: float | None = None) -> ActivationKind:
    if tag == "modrelu":
        return modrelu(-0.5 if bias is None else bias)
    return ActivationKind(tag)


def apply(kind: ActivationKind, z):
    """Evaluate the activation at complex z (scalar or ndarray).

    Real kinds (relu, identity on the real axis) act on Re(z); the complex
    identity keeps z whole.  zrelu at z = 0 returns 0 (undefined phase).
    """
    z = np.asarray(z, dtype=np.complex128)
    t = kind.tag
    if t == "zrelu":
        gate = (z.real * z.imag) >= 0.0
        out = np.where(gate, z, 0.0 + 0.0j)
    elif t == "modrelu":
        m = np.abs(z)
        scale = np.where((m > 0.0) & (m + kind.bias >= 0.0),
                         (m + kind.bias) / np.where(m > 0.0, m, 1.0), 0.0)
        out = scale * z
    elif t == "crelu":
        out = np.maximum(z.real, 0.0) + 1j * np.maximum(z.imag, 0.0)
    elif t == "holexpm1":
        out = np.exp(z) - 1.0
    elif t == "holsin":
        out = np.sin(z)
    elif t == "relu":
        out = np.maximum(z.real, 0.0) + 0.0j
    else:  # identity
        out = z
    if out.ndim == 0:
        return complex(out)
    return out


def apply_real(kind: ActivationKind, x):
    """The activation restricted to the real axis, Re[act(x + 0i)]."""
    x = np.asarray(x, dtype=np.float64)
    return np.asarray(apply(kind, x + 0.0j)).real


def induced_real(kind: ActivationKind, c: float, x, convention: str):
    """Re of the activation along a line through the complex plane."""
    x = np.asarray(x, dtype=np.float64)
    if convention == REAL_ARG_IMAG_BIAS:
        return np.asarray(apply(kind, x + 1j * c)).real
    if convention == IMAG_ARG_REAL_BIAS:
        return np.asarray(apply(kind, c + 1j * x)).real
    raise ContractViolationError(f"unknown convention {convention!r}")


def induced_imag(kind: ActivationKind, c: float, x, convention: str):
    """Im counterpart of :func:`induced_real`."""
    x = np.asarray(x, dtype=np.float64)
    if convention == REAL_ARG_IMAG_BIAS:
        return np.asarray(apply(kind, x + 1j * c)).imag
    if convention == IMAG_ARG_REAL_BIAS:
        return np.asarray(apply(kind, c + 1j * x)).imag
    raise ContractViolationError(f"unknown convention {convention!r}")


def _complex_derivative(kind: ActivationKind, z: np.ndarray) -> np.ndarray:
    if kind.tag == "holexpm1":
        return np.exp(z)
    if kind.tag == "holsin":
        return np.cos(z)
    if kind.tag == "identity":
        return np.ones_like(z)
    raise ContractViolationError(f"{kind.tag} has no complex derivative")


def jacobian_parts(kind: ActivationKind, z):
    """(J11, J12, J21, J22) of (Re act, Im act) w.r.t. (Re z, Im z), elementwise.

    Boundary points of piecewise kinds take the pass-region value.
    """
    z = np.asarray(z, dtype=np.complex128)
    t = kind.tag
    if t == "zrelu":
        g = ((z.real * z.imag) >= 0.0).astype(np.float64)
        zero = np.zeros_like(g)
        return g, zero, zero, g
    if t == "crelu":
        ga = (z.real >= 0.0).astype(np.float64)
        gb = (z.imag >= 0.0).astype(np.float64)
        zero = np.zeros_like(ga)
        return ga, zero, zero, gb
    if t == "relu":
        ga = (z.real >= 0.0).astype(np.float64)
        zero = np.zeros_like(ga)
        return ga, zero, zero, zero
    if t == "modrelu":
        a, b = z.real, z.imag
        m = np.abs(z)
        on = (m > 0.0) & (m + kind.bias >= 0.0)
        safe = np.where(m > 0.0, m, 1.0)
        k = kind.bias / safe**3
        j11 = np.where(on, 1.0 + k * b * b, 0.0)
        j12 = np.where(on, -k * a * b, 0.0)
        j22 = np.where(on, 1.0 + k * a * a, 0.0)
        return j11, j12, j12.copy(), j22
    d = _complex_derivative(kind, z)
    u, v = d.real, d.imag
    return u, -v, v.copy(), u.copy()


def subgradient(kind: ActivationKind, z: complex) -> np.ndarray:
    """2x2 real Jacobian at a single point; Cauchy-Riemann block for holomorphic kinds."""
    j11, j12, j21, j22 = jacobian_parts(kind, np.asarray(z, dtype=np.complex128))
    return np.array([[float(j11), float(j12)], [float(j21), float(j22)]])

"""Complex activation functions and their Jacobians.

``TABLE`` holds one record per tag, and that record is the kind a model
holds: :func:`activation_from_tag` looks it up.  Every kind is a function of z
alone and maps 0 to 0.  The gate activation passes z exactly when Re(z) Im(z)
>= 0 in exact arithmetic, the closed phase set [0, pi/2] u [pi, 3pi/2].
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ContractViolationError

@dataclass(frozen=True)
class Activation:
    """One tag's record: its value at complex z and the real Jacobian there.

    Both take z, a complex128 array; ``jacobian`` returns
    (J11, J12, J21, J22) of (Re act, Im act) w.r.t. (Re z, Im z), elementwise.

    ``real_envelope``, where set, takes the real and imaginary parts (a, b)
    of z as float64 arrays and returns (s, env) or None.  Elementwise,
    |Re act(a + ib)| <= (1 + 2^-32) env, and both s and the real part of
    ``value`` lie within 2^-32 env of the true Re act(a + ib).  None means it
    cannot vouch for these arrays.  ``losses.squared_loss_lower_bound`` reads it.

    ``value_and_derivative``, set only for holsin, whose sin z and cos z share
    their libm work, takes z and returns (act(z), act'(z)), each the same
    bytes as ``value`` and as the derivative ``jacobian`` is built from.
    """

    tag: str
    value: Callable
    jacobian: Callable
    holomorphic_nonpolynomial: bool = False
    real_envelope: Callable | None = None
    value_and_derivative: Callable | None = None


def _step(x):
    """1.0 where x >= 0, else 0.0: boundary points take the pass-region value."""
    return (x >= 0.0).astype(np.float64)


def _diagonal(j11, j22=None):
    """A Jacobian with no cross terms; J22 is J11 unless given."""
    zero = np.zeros_like(j11)
    return j11, zero, zero, j11 if j22 is None else j22


def _cauchy_riemann(d):
    """The Jacobian of a holomorphic map whose complex derivative is d."""
    u, v = d.real, d.imag
    return u, -v, v, u


# holsin's real_envelope vouches only for |a| up to here, so that its accuracy
# never rests on how tan reduces a huge argument
_HOLSIN_ENVELOPE_MAX_ARG = 2.0**20


def _holsin_real_envelope(a, b):
    """(sin a cosh b, cosh b) through the real tan and cosh: sin a = 2t / (1 + t^2)
    with t = tan(a/2).  numpy's float64 tan is much faster than its sin, so
    this takes about half the time of sin at 256 x 32 (x86-64 Xeon VM).

    Where t^2 overflows, sin a is below 1e-154 and the quotient gives 0.
    """
    if not (a.max(initial=0.0) <= _HOLSIN_ENVELOPE_MAX_ARG
            and a.min(initial=0.0) >= -_HOLSIN_ENVELOPE_MAX_ARG):  # NaN fails too
        return None
    t = np.multiply(a, 0.5)
    np.tan(t, out=t)
    c = np.cosh(b)
    q = t * t
    q += 1.0
    t *= 2.0
    t /= q
    t *= c
    return t, c


# glibc's csin(x + iy) takes sin x = x and cos x = 1 where |x| <= DBL_MIN, so
# at x = DBL_MIN it returns cosh(y) DBL_MIN + i sinh(y), both exact
_DBL_MIN = 2.0**-1022
# above |y| = 709 csin leaves its cosh(y) sin x + i sinh(y) cos x branch
_SPLIT_MAX_IMAG = 700.0


def _sin_and_cos(z):
    """(sin z, cos z) with the bytes of np.sin(z) and np.cos(z).  It takes
    0.65 to 0.86 of their summed time at 256 x 32, and about 0.9 at 48 x 16
    (x86-64 Xeon VM, 2 vCPUs).

    glibc forms csin(a + ib) as cosh b sin a + i sinh b cos a, and ccos as
    cosh b cos a - i sinh b sin a, from its real sin, cos, cosh and sinh.
    numpy's float64 sin and cos give libm's bytes, but its SIMD cosh and sinh
    differ from libm's in the last bit on about a fifth of arguments, so
    cosh b and sinh b are read from one csin at DBL_MIN + ib.  Non-finite a,
    or |b| near overflow, takes np.sin and np.cos.

    The four products are written into the two returned arrays; s holds
    cosh b + i sinh b until its own products overwrite it.
    """
    a, b = z.real, z.imag
    # sa holds |a| and then |b| for the range checks, and then sin a: a
    # reduction over the strided z.real or z.imag itself is twice as slow
    sa = np.empty(a.shape)
    if not (np.abs(a, out=sa).max(initial=0.0) < np.inf
            and np.abs(b, out=sa).max(initial=0.0) <= _SPLIT_MAX_IMAG):  # NaN fails too
        return np.sin(z), np.cos(z)
    s = np.empty_like(z)
    s.real, s.imag = _DBL_MIN, b
    np.sin(s, out=s)
    ch, sh = s.real, s.imag
    ch *= 2.0**1022
    np.sin(a, out=sa)
    ca = np.cos(a)
    c = np.empty_like(z)
    np.multiply(ch, ca, out=c.real)
    np.negative(np.multiply(sh, sa, out=c.imag), out=c.imag)
    np.multiply(sh, ca, out=s.imag)
    np.multiply(ch, sa, out=s.real)
    return s, c


# modrelu keeps the phase of z and adds this to |z|
_MODRELU_BIAS = -0.5


def _modrelu_pass(z):
    """|z|, where modrelu passes, and |z| with its zeros made 1 (a safe divisor)."""
    m = np.abs(z)
    return m, (m > 0.0) & (m + _MODRELU_BIAS >= 0.0), np.where(m > 0.0, m, 1.0)


def _modrelu(z):
    m, on, safe = _modrelu_pass(z)
    return np.where(on, (m + _MODRELU_BIAS) / safe, 0.0) * z


def _modrelu_jacobian(z):
    a, b = z.real, z.imag
    _, on, safe = _modrelu_pass(z)
    k = _MODRELU_BIAS / safe**3
    j11 = np.where(on, 1.0 + k * b * b, 0.0)
    j12 = np.where(on, -k * a * b, 0.0)
    j22 = np.where(on, 1.0 + k * a * a, 0.0)
    return j11, j12, j12, j22


def _zrelu_pass(z):
    """Where zrelu passes: sign(Re z) Im z >= 0 is exact and cannot overflow, where
    the rounded Re z Im z is -0.0 at 1e-200 - 1e-200i.  NaN closes the gate."""
    return np.sign(z.real) * z.imag >= 0.0


ZRELU = Activation(
    "zrelu",
    lambda z: np.where(_zrelu_pass(z), z, 0.0 + 0.0j),
    lambda z: _diagonal(_zrelu_pass(z).astype(np.float64)))
CRELU = Activation(
    "crelu",
    lambda z: np.maximum(z.real, 0.0) + 1j * np.maximum(z.imag, 0.0),
    lambda z: _diagonal(_step(z.real), _step(z.imag)))
HOLEXPM1 = Activation(
    "holexpm1",
    lambda z: np.exp(z) - 1.0,
    lambda z: _cauchy_riemann(np.exp(z)),
    holomorphic_nonpolynomial=True)
HOLSIN = Activation(
    "holsin",
    lambda z: np.sin(z),
    lambda z: _cauchy_riemann(np.cos(z)),
    holomorphic_nonpolynomial=True, real_envelope=_holsin_real_envelope,
    value_and_derivative=_sin_and_cos)
# real kinds act on Re(z); the complex identity keeps z whole
RELU = Activation(
    "relu",
    lambda z: np.maximum(z.real, 0.0) + 0.0j,
    lambda z: _diagonal(_step(z.real), np.zeros(z.shape)))
IDENTITY = Activation(
    "identity",
    lambda z: z,
    lambda z: _cauchy_riemann(np.ones_like(z)))

TABLE = {act.tag: act for act in (
    ZRELU, Activation("modrelu", _modrelu, _modrelu_jacobian),
    CRELU, HOLEXPM1, HOLSIN, RELU, IDENTITY)}


def activation_from_tag(tag: str) -> Activation:
    """The record ``tag`` names."""
    # a tag read from a model file may be any JSON value, lists included
    if not isinstance(tag, str) or tag not in TABLE:
        raise ContractViolationError(f"unknown activation tag {tag!r}")
    return TABLE[tag]


def apply(kind: Activation, z, derivative: bool = False):
    """Evaluate the activation at complex z (scalar or ndarray).

    zrelu at z = 0 returns 0 (undefined phase).  With ``derivative``, return
    (act(z), d): d is act'(z) as an array for a kind with a
    ``value_and_derivative``, from the same evaluation, and None otherwise;
    :func:`jacobian_parts` takes it.
    """
    z = np.asarray(z, dtype=np.complex128)
    if derivative and kind.value_and_derivative is not None:
        out, d = kind.value_and_derivative(z)
    else:
        out, d = kind.value(z), None
    if out.ndim == 0:
        out = complex(out)
    return (out, d) if derivative else out


def jacobian_parts(kind: Activation, z, derivative=None):
    """(J11, J12, J21, J22) of (Re act, Im act) w.r.t. (Re z, Im z), elementwise.

    ``derivative``, when not None, is the d that ``apply(kind, z,
    derivative=True)`` returned; the parts are then built from it, with the
    same bytes and no second evaluation.  Boundary points of piecewise kinds
    take the pass-region value.  Parts may be one shared array (J22 is J11
    for a holomorphic kind), so read only.
    """
    if derivative is not None:
        return _cauchy_riemann(derivative)
    return kind.jacobian(np.asarray(z, dtype=np.complex128))


def apply_real(kind: Activation, x):
    """The activation restricted to the real axis, Re[act(x + 0i)]."""
    x = np.asarray(x, dtype=np.float64)
    return apply(kind, x + 0.0j).real

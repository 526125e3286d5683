"""The recurrent constructions are exact in real arithmetic, not only to rounding.

The evaluators here read the same doubles as the float64 ones (every model array
and input converts to a 160-bit number exactly) and run the RNN, additive and
RFTNet recurrences with mpmath at 160 bits.  A construction that is right only
up to rounding, say with a constant off in its last bits, leaves a gap near
2^-53 there, which the 1e-12 float gate lets through and 2^-100 does not.
"""

import mpmath
import numpy as np
import pytest

from ftnetlab.activations import HOLSIN, RELU, ZRELU
from ftnetlab.embeddings import FAMILIES, SEQUENCE_LENGTH, instance_rng
from ftnetlab.models import eval_additive_many, eval_rftnet_many, eval_rnn_many

PREC = 160
EXACT = mpmath.mpf(2) ** -100
INSTANCES, SEQUENCES, STEPS = 12, 3, SEQUENCE_LENGTH


def _mp(a) -> list:
    """A float64 array as nested lists of mpf, each the same number."""
    return np.vectorize(mpmath.mpf, otypes=[object])(np.asarray(a, dtype=np.float64)).tolist()


def _act(kind, z):
    if kind is ZRELU:  # sign(Re z) Im z >= 0, decided exactly
        return z if mpmath.sign(z.real) * z.imag >= 0 else mpmath.mpc(0)
    if kind is HOLSIN:
        return mpmath.sin(z)
    raise ValueError(f"no 160-bit form of {kind.tag}")


def _dot(rows, v) -> list:
    return [mpmath.fdot(row, v) for row in rows]


def rnn_160(r, seq):
    """Outputs and memories of a ReLU RNN on one sequence (T, I)."""
    assert r.activation is RELU
    W, V, b, alpha, m = (_mp(a) for a in (r.W, r.V, r.b, r.alpha, r.m0))
    ys, ms = [], []
    for x in _mp(seq):
        m = [max(wx + vm + bi, 0) for wx, vm, bi in zip(_dot(W, x), _dot(V, m), b)]
        ys.append(mpmath.fdot(alpha, m))
        ms.append(m)
    return ys, ms


def additive_160(a, seq):
    """Outputs and q states of an additive net on one sequence (T, I)."""
    A, B, zeta, alpha, q = (_mp(v) for v in (a.A, a.B, a.zeta, a.alpha, a.q0))
    c = mpmath.mpf(a.c)
    ys, qs = [], []
    for x in _mp(seq):
        z = [_act(a.activation, mpmath.mpc(c, ax + bq - zi))
             for ax, bq, zi in zip(_dot(A, x), _dot(B, q), zeta)]
        q = [zj.imag for zj in z]
        ys.append(mpmath.fdot(alpha, [zj.real for zj in z]))
        qs.append(q)
    return ys, qs


def rftnet_160(g, seq):
    """Outputs and receptors of a recurrent FTNet on one sequence (T, I): the
    pre-activation is (W + Vi)(k + ri) with k = (x; 0; ...; 0; 1)."""
    W, V, alpha, r = (_mp(v) for v in (g.W, g.V, g.alpha, g.r0))
    pad = [mpmath.mpf(0)] * (g.H - g.I - 1) + [mpmath.mpf(1)]
    ys, rs = [], []
    for x in _mp(seq):
        k = x + pad
        z = [_act(g.activation, mpmath.mpc(wk - vr, vk + wr))
             for wk, vr, vk, wr in zip(_dot(W, k), _dot(V, r), _dot(V, k), _dot(W, r))]
        r = [zj.imag for zj in z]
        ys.append(mpmath.fdot(alpha, [zj.real for zj in z]))
        rs.append(r)
    return ys, rs


def _gap(target, source):
    """max |target - source| / (1 + |source|) over two equal nested lists."""
    if isinstance(source, list):
        return max((_gap(t, s) for t, s in zip(target, source, strict=True)), default=0)
    return abs(target - source) / (1 + abs(source))


def _instances(pair):
    """(source, target, sequences) of the first instances of ``pair`` at seed 0,
    drawn from each instance's stream as the verify sweep draws them."""
    fam = FAMILIES[pair]
    for idx in range(INSTANCES):
        rng = instance_rng(0, idx)
        src = fam.random(rng)
        xs = rng.uniform(-fam.input_bound, fam.input_bound, (SEQUENCES, STEPS, src.I))
        yield src, fam.convert(src, 1.0), xs


# the source's 160-bit and float64 evaluators, and the receptor block that mirrors its state
_SOURCES = {
    "rnn_to_rftnet": (rnn_160, eval_rnn_many, lambda s: slice(s.I + s.H, s.I + 2 * s.H)),
    "additive_to_rftnet": (additive_160, eval_additive_many, lambda s: slice(s.I, s.I + s.H)),
}


@pytest.mark.parametrize("pair", list(_SOURCES))
def test_construction_is_exact_at_160_bits(pair):
    evaluate, _, block = _SOURCES[pair]
    bases = set()
    with mpmath.workprec(PREC):
        for src, tgt, xs in _instances(pair):
            bases.add(tgt.activation.tag)
            mirror = block(src)
            for seq in xs:
                ys, states = evaluate(src, seq)
                tys, rs = rftnet_160(tgt, seq)
                assert _gap(tys, ys) <= EXACT
                assert _gap([r[mirror] for r in rs], states) <= EXACT
                # the input block and the bias slot stay 0 at every step
                assert all(v == 0 for r in rs for v in r[: tgt.I] + r[-1:])
    assert bases == ({"zrelu"} if pair == "rnn_to_rftnet" else {"zrelu", "holsin"})


@pytest.mark.parametrize("pair", list(_SOURCES))
def test_evaluators_read_the_float_models(pair):
    """The 160-bit evaluators agree with the float64 ones to rounding, so the
    test above compares the models that the sweep compares."""
    evaluate, evaluate_float, _ = _SOURCES[pair]
    src, tgt, xs = next(_instances(pair))
    float_src, float_tgt = evaluate_float(src, xs)[0], eval_rftnet_many(tgt, xs)
    with mpmath.workprec(PREC):
        for seq, want_src, want_tgt in zip(xs, _mp(float_src), _mp(float_tgt)):
            assert _gap(evaluate(src, seq)[0], want_src) < 1e-12
            assert _gap(rftnet_160(tgt, seq)[0], want_tgt) < 1e-12

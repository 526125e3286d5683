import itertools
import json
import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import sample_models, write_model
from ftnetlab.activations import (
    HOLEXPM1,
    HOLSIN,
    RELU,
    ZRELU,
    activation_from_tag,
    apply,
)
from ftnetlab.errors import ContractViolationError
from ftnetlab.models import (
    _KINDS,
    AdditiveFTNetParams,
    CRNetParams,
    FFTNetParams,
    FNNParams,
    RFTNetParams,
    RNNParams,
    Tape,
    _arrays,
    _sizes,
    eval_additive_many,
    eval_crnet_many,
    eval_fftnet_many,
    eval_fnn_many,
    eval_linear_dods,
    eval_rftnet_many,
    eval_rnn_many,
    kappa_many,
    model_from_dict,
    model_to_dict,
    read_json,
)


class TestKappa:
    def test_basic(self):
        np.testing.assert_array_equal(kappa_many([[1.0, 2.0]], 4), [[1.0, 2.0, 0.0, 1.0]])

    def test_empty_input(self):
        np.testing.assert_array_equal(kappa_many(np.zeros((1, 0)), 1), [[1.0]])

    def test_no_zero_block(self):
        np.testing.assert_array_equal(kappa_many([[3.0]], 2), [[3.0, 1.0]])

    def test_too_small_target(self):
        with pytest.raises(ContractViolationError):
            kappa_many([[1.0, 2.0]], 2)

    def test_batch_agrees(self, rng):
        # each row is lifted on its own, whatever else the batch holds
        x = rng.standard_normal((5, 3))
        k = kappa_many(x, 7)
        for i in range(5):
            np.testing.assert_array_equal(k[i], kappa_many(x[i : i + 1], 7)[0])


def _hand_fftnet():
    w = np.array([[1.0, 0.0], [0.0, 0.0]])
    v = np.array([[0.0, 1.0], [0.0, 0.0]])
    return FFTNetParams(1, 2, w, v, np.array([1.0, 0.0]), ZRELU)


class TestFeedforward:
    def test_zero_weights(self, rng):
        p = FFTNetParams(2, 4, np.zeros((4, 4)), np.zeros((4, 4)), np.zeros(4), ZRELU)
        np.testing.assert_array_equal(eval_fftnet_many(p, rng.standard_normal((5, 2))),
                                      np.zeros(5))

    def test_hand_example_pass(self):
        # pre-activation 0.5 + 1i passes the gate
        assert eval_fftnet_many(_hand_fftnet(), [[0.5]])[0] == pytest.approx(0.5)

    def test_hand_example_gated(self):
        # pre-activation -0.5 + 1i is gated
        assert eval_fftnet_many(_hand_fftnet(), [[-0.5]])[0] == 0.0

    def test_width_invariant(self):
        with pytest.raises(ContractViolationError):
            FFTNetParams(3, 3, np.zeros((3, 3)), np.zeros((3, 3)), np.zeros(3), ZRELU)

    def test_readout_homogeneity(self, rng):
        p = FFTNetParams(2, 4, rng.standard_normal((4, 4)), rng.standard_normal((4, 4)),
                         rng.standard_normal(4), HOLSIN)
        lam = 2.75
        scaled = FFTNetParams(p.I, p.H, p.W, p.V, lam * p.alpha, p.activation)
        x = rng.standard_normal((10, 2))
        np.testing.assert_allclose(eval_fftnet_many(scaled, x), lam * eval_fftnet_many(p, x),
                                   rtol=1e-6)

    def test_row_sign_flip_invariance(self, rng):
        # the gate set is closed under z -> -z, so negating a row of (W, V)
        # and its readout weight leaves the output unchanged
        p = FFTNetParams(2, 4, rng.standard_normal((4, 4)), rng.standard_normal((4, 4)),
                         rng.standard_normal(4), ZRELU)
        w, v, a = p.W.copy(), p.V.copy(), p.alpha.copy()
        w[1] *= -1.0
        v[1] *= -1.0
        a[1] *= -1.0
        q = FFTNetParams(p.I, p.H, w, v, a, ZRELU)
        x = rng.standard_normal((20, 2))
        np.testing.assert_allclose(eval_fftnet_many(q, x), eval_fftnet_many(p, x),
                                   rtol=0, atol=1e-12)

    def test_dimension_check(self, rng):
        p = _hand_fftnet()
        with pytest.raises(ContractViolationError):
            eval_fftnet_many(p, rng.standard_normal((3, 2)))


def _unrolled_oracle(p: RFTNetParams, xs: np.ndarray) -> np.ndarray:
    # explicit complex arithmetic, one step at a time
    r = p.r0.astype(np.float64)
    ys = []
    for t in range(xs.shape[0]):
        u = kappa_many(xs[t : t + 1], p.H)[0] + 1j * r
        z = (p.W + 1j * p.V) @ u
        act = np.asarray(apply(p.activation, z))
        r = act.imag
        ys.append(float(act.real @ p.alpha))
    return np.array(ys)


class TestRecurrent:
    def test_zero_weights(self):
        p = RFTNetParams(1, 3, np.zeros((3, 3)), np.zeros((3, 3)), np.zeros(3),
                         ZRELU, np.zeros(3))
        np.testing.assert_array_equal(eval_rftnet_many(p, np.ones((1, 4, 1))), np.zeros((1, 4)))

    def test_single_step_equals_feedforward(self, rng):
        for _ in range(10):
            h = int(rng.integers(2, 7))
            i = h - 1
            p = RFTNetParams(i, h, rng.standard_normal((h, h)),
                             rng.standard_normal((h, h)), rng.standard_normal(h),
                             ZRELU, np.zeros(h))
            f = FFTNetParams(i, h, p.W, p.V, p.alpha, p.activation)
            x = rng.standard_normal((1, i))
            assert eval_rftnet_many(p, x[None])[0, 0] == pytest.approx(
                eval_fftnet_many(f, x)[0], rel=1e-12)

    def test_matches_unrolled_oracle(self, rng):
        for _ in range(10):
            h = int(rng.integers(2, 6))
            i = h - 1
            p = RFTNetParams(i, h, 0.5 * rng.standard_normal((h, h)),
                             0.5 * rng.standard_normal((h, h)), rng.standard_normal(h),
                             ZRELU, 0.3 * rng.standard_normal(h))
            xs = rng.standard_normal((3, i))
            np.testing.assert_allclose(eval_rftnet_many(p, xs[None])[0], _unrolled_oracle(p, xs),
                                       rtol=1e-12, atol=1e-12)

    def test_trajectory_shapes(self, rng):
        p = RFTNetParams(1, 2, 0.3 * rng.standard_normal((2, 2)),
                         0.3 * rng.standard_normal((2, 2)), rng.standard_normal(2), HOLSIN,
                         0.5 * rng.standard_normal(2))
        tape = Tape()
        ys = eval_rftnet_many(p, rng.standard_normal((3, 5, 1)), tape=tape)
        assert ys.shape == (3, 5) and tape.Z.shape == (5, 3, 2)
        assert [a.shape for a in tape.acts] == [(3, 2)] * 5
        # each step reads the receptor the step before it left, r0 at the first
        for t in range(5):
            r = tape.acts[t - 1].imag if t else np.broadcast_to(p.r0, (3, 2)).copy()
            assert np.array_equal(tape.Z[t].real, tape.K[t] @ p.W.T - r @ p.V.T)
            assert np.array_equal(tape.Z[t].imag, tape.K[t] @ p.V.T + r @ p.W.T)

    def test_batch_agrees_with_loop(self, rng):
        p = RFTNetParams(2, 4, 0.4 * rng.standard_normal((4, 4)),
                         0.4 * rng.standard_normal((4, 4)), rng.standard_normal(4),
                         ZRELU, np.zeros(4))
        xs = rng.standard_normal((6, 4, 2))
        batched = eval_rftnet_many(p, xs)
        for b in range(6):
            np.testing.assert_allclose(batched[b], eval_rftnet_many(p, xs[b : b + 1])[0],
                                       rtol=1e-14)

    def test_empty_sequence_rejected(self):
        p = RFTNetParams(1, 2, np.zeros((2, 2)), np.zeros((2, 2)), np.zeros(2),
                         ZRELU, np.zeros(2))
        with pytest.raises(ContractViolationError):
            eval_rftnet_many(p, np.zeros((1, 0, 1)))


def _additive_oracle(p: AdditiveFTNetParams, xs: np.ndarray) -> np.ndarray:
    q = p.q0
    ys = []
    for t in range(xs.shape[0]):
        u = p.A @ xs[t] + p.B @ q - p.zeta
        z = apply(p.activation, p.c + 1j * u)
        ys.append(float(p.alpha @ z.real))
        q = z.imag
    return np.array(ys)


class TestAdditive:
    def test_zero_weights(self):
        h = 3
        p = AdditiveFTNetParams(2, h, np.zeros((h, 2)), np.zeros((h, h)), np.zeros(h),
                                np.zeros(h), np.zeros(h), ZRELU, 1.0)
        np.testing.assert_array_equal(eval_additive_many(p, np.ones((1, 4, 2)))[0],
                                      np.zeros((1, 4)))

    def test_memoryless_when_feedback_zero(self, rng):
        h = 4
        p = AdditiveFTNetParams(2, h, rng.standard_normal((h, 2)), np.zeros((h, h)),
                                rng.standard_normal(h), rng.standard_normal(h),
                                rng.standard_normal(h), ZRELU, 1.0)
        xs = rng.standard_normal((1, 3, 2))
        ys = eval_additive_many(p, xs)[0]
        shuffled = eval_additive_many(p, xs[:, ::-1].copy())[0]
        np.testing.assert_allclose(ys, shuffled[:, ::-1], rtol=1e-14)

    def test_matches_two_recurrence_oracle(self, rng):
        for _ in range(10):
            h = int(rng.integers(1, 6))
            i = int(rng.integers(1, 4))
            p = AdditiveFTNetParams(i, h, rng.standard_normal((h, i)),
                                    0.3 * rng.standard_normal((h, h)),
                                    rng.standard_normal(h), rng.standard_normal(h),
                                    0.3 * rng.standard_normal(h), ZRELU,
                                    float(rng.uniform(0.5, 1.5)))
            xs = rng.standard_normal((4, i))
            ys = eval_additive_many(p, xs[None])[0]
            np.testing.assert_allclose(ys[0], _additive_oracle(p, xs), rtol=1e-12, atol=1e-14)


class TestBaselines:
    def test_fnn_identity(self):
        p = FNNParams(1, 1, [[1.0]], [0.0], [1.0], RELU)
        np.testing.assert_allclose(eval_fnn_many(p, [[0.5], [-0.5]]), [0.5, 0.0])

    def test_rnn_memory(self, rng):
        p = RNNParams(1, 2, rng.standard_normal((2, 1)), 0.4 * rng.standard_normal((2, 2)),
                      rng.standard_normal(2), rng.standard_normal(2),
                      rng.standard_normal(2), RELU)
        xs = rng.standard_normal((4, 1))
        ys, ms = eval_rnn_many(p, xs[None])
        m = p.m0
        for t in range(4):
            m = np.maximum(p.W @ xs[t] + p.V @ m + p.b, 0.0)
            np.testing.assert_allclose(ms[0, t], m, rtol=1e-14)
            assert ys[0, t] == pytest.approx(p.alpha @ m)

    def test_crnet_hand_example(self):
        p = CRNetParams(2, 1, [[1.0 + 0.0j]], [0.0j], [1.0 + 0.0j], ZRELU)
        # tau((1, 1)) = 1 + 1i, gate passes, Re = 1
        assert eval_crnet_many(p, [[1.0, 1.0]])[0] == pytest.approx(1.0)

    def test_crnet_odd_input_rejected(self):
        with pytest.raises(ContractViolationError):
            CRNetParams(3, 1, [[1.0 + 0.0j]], [0.0j], [1.0 + 0.0j], ZRELU)

    def test_dods_linear(self, rng):
        xs = rng.standard_normal((3, 4, 2))
        ys = eval_linear_dods(xs, P=[[0.5, 0.1], [0.0, 0.3]], Q=[[0.2, 0.0], [0.1, 0.1]],
                              readout=[1.0, -1.0], h0=[0.1, -0.2])
        assert ys.shape == (3, 4)
        for b in range(3):
            h1, h2 = 0.1, -0.2
            for t in range(4):
                x1, x2 = xs[b, t]
                h1, h2 = 0.5 * x1 + 0.1 * x2 + 0.2 * h1, 0.3 * x2 + 0.1 * h1 + 0.1 * h2
                assert ys[b, t] == pytest.approx(h1 - h2)


class TestParamCount:
    def test_ftnet(self):
        assert FFTNetParams.params(2, 0) == 10

    def test_crnet(self):
        assert CRNetParams.params(3, 4) == 36

    def test_rnn(self):
        assert RNNParams.params(2, 3) == 14

    def test_fnn(self):
        assert FNNParams.params(2, 3) == 16

    def test_dominance(self):
        # 2H^2 + H <= 3H^2 for every admissible width
        for h in range(1, 65):
            assert FFTNetParams.params(h, 0) <= 3 * h * h

    @pytest.mark.parametrize("kind", list(_KINDS))
    def test_formula_against_stored_count(self, kind):
        """params(H, I) minus the real coordinates a model stores, a complex
        entry counted twice and the state arrays and the scalar c counted too:
        the formulas leave out rftnet's r0, rnn's m0 and additive's c, and
        fnn's and crnet's count H*I more than the model holds."""
        excess = {"fftnet": lambda h, i: 0, "rftnet": lambda h, i: -h,
                  "rnn": lambda h, i: -h, "additive": lambda h, i: -1,
                  "fnn": lambda h, i: h * i, "crnet": lambda h, i: h * i}[kind]
        cls = _KINDS[kind]
        for i, h in itertools.product((2, 4, 10), (1, 9, 16)):
            sizes = _sizes(i, h)
            stored = sum(math.prod(sizes[n] for n in shape) * (1 + (dtype is np.complex128))
                         for _, shape, dtype, _ in _arrays(cls))
            assert cls.params(h, i) - stored == excess(h, i), (i, h)


def _sample_models(rng):
    h = 3
    yield FFTNetParams(2, h, rng.standard_normal((h, h)), rng.standard_normal((h, h)),
                       rng.standard_normal(h), ZRELU)
    yield RFTNetParams(2, h, rng.standard_normal((h, h)), rng.standard_normal((h, h)),
                       rng.standard_normal(h), HOLSIN, rng.standard_normal(h))
    yield AdditiveFTNetParams(2, h, rng.standard_normal((h, 2)),
                              rng.standard_normal((h, h)), rng.standard_normal(h),
                              rng.standard_normal(h), rng.standard_normal(h),
                              HOLEXPM1, 0.75)
    yield FNNParams(2, h, rng.standard_normal((h, 2)), rng.standard_normal(h),
                    rng.standard_normal(h), RELU)
    yield RNNParams(2, h, rng.standard_normal((h, 2)), rng.standard_normal((h, h)),
                    rng.standard_normal(h), rng.standard_normal(h),
                    rng.standard_normal(h), activation_from_tag("modrelu"))
    yield CRNetParams(2, h, rng.standard_normal((h, 1)) + 1j * rng.standard_normal((h, 1)),
                      rng.standard_normal(h) + 1j * rng.standard_normal(h),
                      rng.standard_normal(h) + 1j * rng.standard_normal(h),
                      ZRELU)


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _any_model(draw):
    """A random instance of one of the six parameter classes."""
    i = draw(st.integers(1, 3))
    h = draw(st.integers(1, 4))
    act = draw(st.sampled_from([ZRELU, HOLSIN, HOLEXPM1, RELU,
                                activation_from_tag("modrelu")]))

    def arr(*shape):
        return draw(hnp.arrays(np.float64, shape, elements=_FINITE))

    def carr(*shape):
        # part by part, so that a -0.0 real part survives
        z = np.empty(shape, dtype=np.complex128)
        z.real, z.imag = arr(*shape), arr(*shape)
        return z

    hf = i + h  # the FTNet variants need H >= I + 1
    build = {
        "fftnet": lambda: FFTNetParams(i, hf, arr(hf, hf), arr(hf, hf), arr(hf), act),
        "rftnet": lambda: RFTNetParams(i, hf, arr(hf, hf), arr(hf, hf), arr(hf), act,
                                       arr(hf)),
        "additive": lambda: AdditiveFTNetParams(i, h, arr(h, i), arr(h, h), arr(h),
                                                arr(h), arr(h), act, draw(_FINITE)),
        "fnn": lambda: FNNParams(i, h, arr(h, i), arr(h), arr(h), act),
        "rnn": lambda: RNNParams(i, h, arr(h, i), arr(h, h), arr(h), arr(h), arr(h), act),
        "crnet": lambda: CRNetParams(2 * i, h, carr(h, i), carr(h), carr(h), act),
    }
    return build[draw(st.sampled_from(sorted(build)))]()


class TestSerialization:
    def test_dict_round_trip_is_exact(self, rng):
        for model in _sample_models(rng):
            again = model_from_dict(model_to_dict(model))
            assert model_to_dict(again) == model_to_dict(model)

    def test_file_round_trip_bit_stable(self, tmp_path, rng):
        for idx, model in enumerate(_sample_models(rng)):
            path = tmp_path / f"m{idx}.json"
            write_model(path, model)
            again = model_from_dict(read_json(path))
            for key, val in model_to_dict(model).items():
                assert model_to_dict(again)[key] == val
            # a second save is byte-identical
            path2 = tmp_path / f"m{idx}_again.json"
            write_model(path2, again)
            assert path.read_bytes() == path2.read_bytes()

    @pytest.mark.parametrize("key,value", [("I", "2"), ("H", "3"), ("I", True), ("H", 3.0)])
    def test_non_integer_sizes_rejected(self, rng, key, value):
        for model in _sample_models(rng):
            with pytest.raises(ContractViolationError, match=f"^{key}: expected an integer"):
                model_from_dict({**model_to_dict(model), key: value})

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_json_round_trip_is_bit_exact(self, data):
        model = data.draw(_any_model())
        again = model_from_dict(json.loads(json.dumps(model_to_dict(model))))
        assert type(again) is type(model)
        # repr of a double round-trips exactly and tells -0.0 from 0.0
        assert (json.dumps(model_to_dict(again), sort_keys=True)
                == json.dumps(model_to_dict(model), sort_keys=True))

    def test_crnet_signed_zeros_round_trip(self):
        z = np.empty((1, 1), dtype=np.complex128)
        z.real, z.imag = -0.0, 2.0  # re + 1j*im would give a real part of +0.0
        model = CRNetParams(2, 1, z, z[0], z[0].conj(), ZRELU)
        again = model_from_dict(json.loads(json.dumps(model_to_dict(model))))
        for attr in ("W", "b", "alpha"):
            got, want = getattr(again, attr), getattr(model, attr)
            np.testing.assert_array_equal(np.signbit(got.real), np.signbit(want.real))
            np.testing.assert_array_equal(got.imag, want.imag)

    def test_malformed_fields_rejected_by_name(self, rng):
        """Every array, state and scalar field of every kind, made non-numeric, ragged,
        of the wrong shape or non-finite, is rejected naming its model-file key."""
        checked = 0
        for model in _sample_models(rng):
            d = model_to_dict(model)
            for key, value in d.items():
                if key in ("kind", "I", "H", "activation"):
                    continue
                bads = ["x", {"a": 1}, [value, value],  # one dimension too many
                        np.full(np.shape(value), np.nan).tolist()]
                if isinstance(value, list):
                    bads += [[value[0]] + [[value[0]]] * (len(value) - 1),  # ragged
                             value + value[:1]]  # one row too many
                    inf = np.array(value)
                    inf.flat[-1] = -np.inf
                    bads.append(inf.tolist())
                for bad in bads:
                    with pytest.raises(ContractViolationError, match=f"^{key}: "):
                        model_from_dict({**d, key: bad})
                    checked += 1
        assert checked > 150

    @pytest.mark.parametrize("kind,state", [("rftnet", "r0"), ("rnn", "m0"),
                                            ("additive", "q0")])
    def test_missing_state_is_zeros(self, kind, state):
        d = sample_models()[kind]
        model = model_from_dict({key: v for key, v in d.items() if key != state})
        zeros = getattr(model, state)
        assert zeros.shape == (d["H"],) and not zeros.any()

    def test_non_object_rejected(self):
        with pytest.raises(ContractViolationError, match="JSON object"):
            model_from_dict([1, 2])

    def test_unknown_kind_rejected(self):
        with pytest.raises(ContractViolationError):
            model_from_dict({"kind": "mlp", "activation": "relu"})

    def test_written_fields_are_the_declared_fields(self, rng):
        """A model file holds kind, I, H, the activation and each declared array
        under its field name: nothing is renamed on the way to the file."""
        written = {}
        for model in _sample_models(rng):
            cls = type(model)
            declared = set()
            for f in fields(cls):
                if f.name in ("I", "H", "activation"):
                    continue
                complex_ = np.iscomplexobj(getattr(model, f.name))
                declared |= {f"{f.name}_re", f"{f.name}_im"} if complex_ else {f.name}
            assert (set(model_to_dict(model))
                    == {"kind", "I", "H", "activation"} | declared), cls.kind
            written[cls.kind] = cls
        assert written == _KINDS

    def test_unexpected_field_rejected_for_every_kind(self):
        for d in sample_models().values():
            with pytest.raises(ContractViolationError, match="^extra: unexpected field$"):
                model_from_dict({**d, "extra": 1.0})

    def test_activation_tags(self, rng):
        kinds = {model_to_dict(m)["activation"] for m in _sample_models(rng)}
        assert kinds <= {"zrelu", "modrelu", "crelu", "holexpm1", "holsin",
                         "relu", "identity"}


def test_non_finite_weights_rejected():
    with pytest.raises(ContractViolationError):
        FNNParams(1, 1, [[np.inf]], [0.0], [1.0], RELU)

import json
import math
import sys
import weakref
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import finite_diff_grad, gradient_relative_error, tame_rftnet
from ftnetlab.activations import (
    HOLEXPM1,
    HOLSIN,
    TABLE,
    ZRELU,
    activation_from_tag,
    apply,
    jacobian_parts,
)
from ftnetlab.errors import ContractViolationError
from ftnetlab.losses import (
    Dataset,
    empirical_loss,
    param_cosh_loss,
    squared_loss,
    squared_loss_lower_bound,
)
from ftnetlab.models import (
    FFTNetParams,
    RFTNetParams,
    Tape,
    eval_fftnet_many,
    eval_rftnet_many,
    kappa_many,
)
import ftnetlab.models as models
from ftnetlab.numerics import RANK_TOLERANCE, numerical_rank
import ftnetlab.optimize as optimize
from ftnetlab.optimize import (
    GradientBundle,
    ProbeResult,
    TrainConfig,
    descent_probe,
    grad_fftnet,
    grad_rftnet,
    random_fftnet,
    random_rftnet,
    train_fftnet,
    train_rftnet,
)


class TestFeedforwardGradient:
    def test_zero_residuals_give_zero_gradient(self, rng):
        p = random_fftnet(2, 4, HOLEXPM1, 0.4, rng)
        xs = rng.standard_normal((3, 2))
        data = Dataset(xs, eval_fftnet_many(p, xs))
        g = grad_fftnet(p, data, squared_loss())
        assert max(np.max(np.abs(g.dW)), np.max(np.abs(g.dV)),
                   np.max(np.abs(g.dAlpha))) <= 1e-12

    def test_zero_readout_case_by_hand(self, rng):
        # with alpha = 0 only the readout gradient survives:
        # dAlpha_h = sum_i l'(-y_i) Re[act(z_h . kappa_i)]
        h, i, n = 4, 2, 3
        p0 = random_fftnet(i, h, HOLEXPM1, 0.4, rng)
        p = FFTNetParams(i, h, p0.W, p0.V, np.zeros(h), HOLEXPM1)
        data = Dataset(rng.standard_normal((n, i)), rng.standard_normal(n))
        g = grad_fftnet(p, data, squared_loss())
        assert np.max(np.abs(g.dW)) == 0.0
        assert np.max(np.abs(g.dV)) == 0.0
        k = kappa_many(data.xs, h)
        z = k @ p.W.T + 1j * (k @ p.V.T)
        s = np.asarray(apply(HOLEXPM1, z)).real
        expected = s.T @ (2.0 * -data.ys)
        np.testing.assert_allclose(g.dAlpha, expected, rtol=1e-12)

    def test_matches_finite_differences(self, rng):
        worst = 0.0
        for idx in range(10):
            i = int(rng.integers(1, 5))
            h = i + 1 + int(rng.integers(0, 3))
            n = int(rng.integers(1, 6))
            act = HOLEXPM1 if idx % 2 else HOLSIN
            spec = squared_loss() if idx % 3 else param_cosh_loss(1.3, 1.3, 0.8)
            p = random_fftnet(i, h, act, 0.4, rng)
            data = Dataset(rng.standard_normal((n, i)), rng.standard_normal(n))
            worst = max(worst, gradient_relative_error(
                grad_fftnet(p, data, spec), finite_diff_grad(p, data, spec)))
        assert worst <= 1e-5

    def test_gate_gradient_off_boundary(self, rng):
        checked = 0
        while checked < 5:
            p = random_fftnet(2, 3, ZRELU, 0.5, rng)
            data = Dataset(rng.standard_normal((4, 2)), rng.standard_normal(4))
            k = kappa_many(data.xs, 3)
            z = k @ p.W.T + 1j * (k @ p.V.T)
            if np.min(np.abs(z.real * z.imag)) < 1e-3:
                continue  # too close to a gate boundary for finite differences
            err = gradient_relative_error(
                grad_fftnet(p, data, squared_loss()),
                finite_diff_grad(p, data, squared_loss(), 1e-6))
            assert err <= 1e-5
            checked += 1

    def test_fd_step_contract(self, rng):
        p = random_fftnet(1, 2, HOLEXPM1, 0.3, rng)
        data = Dataset(np.zeros((1, 1)), np.ones(1))
        with pytest.raises(ContractViolationError):
            finite_diff_grad(p, data, squared_loss(), step=1e-8)


class TestRecurrentGradient:
    def test_matches_finite_differences(self, rng):
        worst = 0.0
        for idx in range(10):
            i = int(rng.integers(1, 4))
            h = i + 1 + int(rng.integers(0, 3))
            b, t_len = int(rng.integers(1, 4)), int(rng.integers(1, 6))
            act = HOLSIN if idx % 2 else HOLEXPM1
            p = random_rftnet(i, h, act, 0.3, rng)
            xs = rng.uniform(-1, 1, (b, t_len, i))
            p = tame_rftnet(p, xs)
            data = Dataset(xs, rng.standard_normal((b, t_len)))
            worst = max(worst, gradient_relative_error(
                grad_rftnet(p, data, squared_loss()),
                finite_diff_grad(p, data, squared_loss())))
        assert worst <= 1e-4

    def test_single_step_agrees_with_feedforward(self, rng):
        i, h = 2, 4
        p = random_rftnet(i, h, HOLEXPM1, 0.3, rng)
        xs = rng.standard_normal((3, 1, i))
        ys = rng.standard_normal((3, 1))
        g_r = grad_rftnet(p, Dataset(xs, ys), squared_loss())
        f = FFTNetParams(i, h, p.W, p.V, p.alpha, p.activation)
        g_f = grad_fftnet(f, Dataset(xs[:, 0, :], ys[:, 0]), squared_loss())
        np.testing.assert_allclose(g_r.dW, g_f.dW, rtol=1e-12)
        np.testing.assert_allclose(g_r.dV, g_f.dV, rtol=1e-12)
        np.testing.assert_allclose(g_r.dAlpha, g_f.dAlpha, rtol=1e-12)


class TestTraining:
    def test_zero_problem_terminates_immediately(self):
        h = 3
        p = FFTNetParams(2, h, np.zeros((h, h)), np.zeros((h, h)), np.zeros(h),
                         HOLEXPM1)
        data = Dataset(np.zeros((3, 2)), np.zeros(3))
        trained, trace = train_fftnet(p, data, squared_loss(),
                                      TrainConfig(max_iters=100))
        assert trace == [0.0]

    def test_trace_is_monotone(self, rng):
        p = random_fftnet(2, 4, HOLSIN, 0.4, rng)
        data = Dataset(rng.standard_normal((6, 2)), rng.standard_normal(6))
        _, trace = train_fftnet(p, data, squared_loss(),
                                TrainConfig(step_size=0.05, max_iters=200))
        diffs = np.diff(np.array(trace))
        assert np.all(diffs < 0)

    def test_interpolation_regime(self, rng):
        i, n = 6, 4
        data = Dataset(rng.standard_normal((n, i)), rng.standard_normal(n))
        p0 = random_fftnet(i, i + 1, HOLEXPM1, 0.3, rng)
        _, trace = train_fftnet(p0, data, squared_loss(),
                                TrainConfig(step_size=0.02, max_iters=20000,
                                            target_loss=1e-8))
        assert trace[-1] <= 1e-8

    def test_recurrent_zero_targets(self, rng):
        p0 = random_rftnet(2, 4, HOLSIN, 0.1, rng)
        xs = rng.uniform(-1, 1, (4, 3, 2))
        data = Dataset(xs, np.zeros((4, 3)))
        _, trace = train_rftnet(p0, data, squared_loss(),
                                TrainConfig(step_size=0.05, max_iters=5000,
                                            target_loss=1e-10))
        assert trace[-1] <= 1e-10

    def test_step_size_contract(self):
        # NaN passes a "<= 0" test, and _descend would halve a NaN or infinite step 31
        # times and return the start as if it were stationary
        for step_size in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ContractViolationError, match="step_size"):
                TrainConfig(step_size=step_size)

    def test_negative_max_iters_is_refused(self):
        with pytest.raises(ContractViolationError, match="max_iters"):
            TrainConfig(max_iters=-1)
        assert TrainConfig(max_iters=0).max_iters == 0


def _assert_same_descent(got, ref):
    (p, trace), (p_ref, trace_ref) = got, ref
    assert len(trace) > 2 and trace == trace_ref
    for name in ("W", "V", "alpha"):
        assert np.array_equal(getattr(p, name), getattr(p_ref, name))


class TestTape:
    """The trainers share one taped forward pass between loss and gradient;
    the steps they take must be those of an untaped loss and gradient."""

    @pytest.mark.parametrize("act", [HOLSIN, HOLEXPM1, ZRELU,
                                     activation_from_tag("modrelu")])
    def test_train_fftnet_matches_untaped_descent(self, rng, act):
        p0 = random_fftnet(2, 5, act, 0.5, rng)
        data = Dataset(rng.standard_normal((12, 2)), rng.standard_normal(12))
        spec, cfg = squared_loss(), TrainConfig(step_size=0.5, max_iters=40)
        ref = optimize._descend(p0, loss_of=lambda p: empirical_loss(p, data, spec),
                                grad_of=lambda p: grad_fftnet(p, data, spec), cfg=cfg)
        _assert_same_descent(train_fftnet(p0, data, spec, cfg), ref)

    @pytest.mark.parametrize("act", [HOLSIN, HOLEXPM1, ZRELU])
    def test_train_rftnet_matches_untaped_descent(self, rng, act):
        p0 = random_rftnet(2, 5, act, 0.3, rng)
        p0 = RFTNetParams(p0.I, p0.H, p0.W, p0.V, p0.alpha, act,
                          0.1 * rng.standard_normal(p0.H))
        xs = rng.uniform(-1, 1, (4, 3, 2))
        data = Dataset(xs, rng.standard_normal((4, 3)))
        spec, cfg = squared_loss(), TrainConfig(step_size=0.2, max_iters=40)
        ref = optimize._descend(p0, loss_of=lambda p: empirical_loss(p, data, spec),
                                grad_of=lambda p: grad_rftnet(p, data, spec), cfg=cfg)
        _assert_same_descent(train_rftnet(p0, data, spec, cfg), ref)

    def test_gradient_ignores_a_tape_of_other_arrays(self, rng):
        spec = squared_loss()
        p = random_fftnet(2, 4, HOLSIN, 0.4, rng)
        data = Dataset(rng.standard_normal((5, 2)), rng.standard_normal(5))
        want = grad_fftnet(p, data, spec)
        same_values = FFTNetParams(p.I, p.H, p.W.copy(), p.V, p.alpha, p.activation)
        other_data = Dataset(data.xs.copy(), data.ys)
        for q, d in ((random_fftnet(2, 4, HOLSIN, 0.4, rng), data), (same_values, data),
                     (p, other_data)):
            tape = Tape()
            empirical_loss(q, d, spec, tape)
            assert not tape.matches(p, data.xs)
            got = grad_fftnet(p, data, spec, tape)
            for name in ("dW", "dV", "dAlpha"):
                assert np.array_equal(getattr(got, name), getattr(want, name))

    def test_probe_ignores_a_tape_of_other_arrays(self, rng):
        spec = squared_loss()
        p = random_fftnet(3, 4, HOLEXPM1, 0.4, rng)
        data = Dataset(rng.standard_normal((2, 3)), rng.standard_normal(2))
        want = descent_probe(p, data, spec, delta=0.1, seed=1)
        same_values = FFTNetParams(p.I, p.H, p.W.copy(), p.V, p.alpha, p.activation)
        other_data = Dataset(data.xs.copy(), data.ys)
        for q, d in ((random_fftnet(3, 4, HOLEXPM1, 0.4, rng), data), (same_values, data),
                     (p, other_data)):
            tape = Tape()
            empirical_loss(q, d, spec, tape)
            assert not tape.matches(p, data.xs)
            got = descent_probe(p, data, spec, delta=0.1, seed=1, tape=tape)
            assert got.json_line(0) == want.json_line(0)
            assert tape.matches(p, data.xs)  # re-recorded for p

    @pytest.mark.parametrize("kind", ["fftnet", "rftnet"])
    def test_loss_reuses_a_matching_tape(self, rng, monkeypatch, kind):
        spec = squared_loss()
        if kind == "fftnet":
            p = random_fftnet(2, 4, HOLSIN, 0.4, rng)
            data = Dataset(rng.standard_normal((5, 2)), rng.standard_normal(5))
        else:
            p = random_rftnet(2, 4, HOLSIN, 0.3, rng)
            data = Dataset(rng.uniform(-1, 1, (3, 4, 2)), rng.standard_normal((3, 4)))
        tape = Tape()
        want = empirical_loss(p, data, spec, tape)

        def no_forward(*args, **kwargs):
            raise AssertionError("the loss ran a second forward pass")

        monkeypatch.setattr(models, f"eval_{kind}_many", no_forward)
        assert empirical_loss(p, data, spec, tape) == want
        with pytest.raises(AssertionError):  # the patch is on the path a new pass takes
            empirical_loss(p, data, spec, Tape())

    def test_recurrent_gradient_ignores_a_tape_of_other_arrays(self, rng):
        spec = squared_loss()
        p = random_rftnet(2, 4, HOLSIN, 0.3, rng)
        data = Dataset(rng.uniform(-1, 1, (3, 4, 2)), rng.standard_normal((3, 4)))
        want = grad_rftnet(p, data, spec)
        other_r0 = RFTNetParams(p.I, p.H, p.W, p.V, p.alpha, p.activation, p.r0 + 0.5)
        for q in (random_rftnet(2, 4, HOLSIN, 0.3, rng), other_r0):
            tape = Tape()
            empirical_loss(q, data, spec, tape)
            got = grad_rftnet(p, data, spec, tape)
            for name in ("dW", "dV", "dAlpha"):
                assert np.array_equal(getattr(got, name), getattr(want, name))

    def test_matching_tape_is_reused(self, rng, monkeypatch):
        spec = squared_loss()
        p = random_fftnet(2, 4, HOLSIN, 0.4, rng)
        data = Dataset(rng.standard_normal((5, 2)), rng.standard_normal(5))
        r = random_rftnet(2, 4, HOLSIN, 0.3, rng)
        seqs = Dataset(rng.uniform(-1, 1, (3, 4, 2)), rng.standard_normal((3, 4)))
        tape, rtape = Tape(), Tape()
        empirical_loss(p, data, spec, tape)
        empirical_loss(r, seqs, spec, rtape)
        want = grad_fftnet(p, data, spec), grad_rftnet(r, seqs, spec)

        def no_forward(*args, **kwargs):
            raise AssertionError("the gradient ran a second forward pass")

        monkeypatch.setattr(models, "eval_fftnet_many", no_forward)
        monkeypatch.setattr(models, "eval_rftnet_many", no_forward)
        got = grad_fftnet(p, data, spec, tape), grad_rftnet(r, seqs, spec, rtape)
        for g, w in zip(got, want):
            for name in ("dW", "dV", "dAlpha"):
                assert np.array_equal(getattr(g, name), getattr(w, name))


    @pytest.mark.parametrize("tag", list(TABLE))
    def test_gradient_reads_the_recorded_derivative(self, rng, tag):
        """The gradient of a taped pass has the bytes of one that evaluates
        the Jacobian at the tape's pre-activations afresh."""
        spec = squared_loss()
        p = random_fftnet(3, 8, activation_from_tag(tag), 0.7, rng)
        data = Dataset(rng.standard_normal((30, 3)), rng.standard_normal(30))
        tape = Tape()
        empirical_loss(p, data, spec, tape)
        assert (tape.D is None) == (TABLE[tag].value_and_derivative is None)
        got = grad_fftnet(p, data, spec, tape)
        lp = spec.deriv(tape.out - data.ys)
        j11, j12, _, _ = jacobian_parts(p.activation, tape.Z)
        gs = lp[:, None] * p.alpha[None, :]
        want = ((gs * j11).T @ tape.K, (gs * j12).T @ tape.K, tape.acts.real.T @ lp)
        for name, w in zip(("dW", "dV", "dAlpha"), want):
            assert np.array_equal(getattr(got, name), w)

    @pytest.mark.parametrize("model, evaluate, shape", [
        (random_fftnet, eval_fftnet_many, (6, 2)),
        (random_rftnet, eval_rftnet_many, (3, 5, 2)),
    ], ids=["feedforward", "recurrent"])
    def test_taped_pass_pads_its_inputs_once(self, rng, monkeypatch, model, evaluate, shape):
        p = model(2, 4, HOLSIN, 0.2, rng)
        q = model(2, 4, HOLSIN, 0.2, rng)
        xs = rng.standard_normal(shape)
        tape = Tape()
        evaluate(p, xs, tape=tape)
        calls = []
        monkeypatch.setattr(models, "kappa_many",
                            lambda *a: calls.append(a) or kappa_many(*a))
        want = evaluate(q, xs)
        assert len(calls) == 1  # an untaped pass pads
        assert np.array_equal(evaluate(q, xs, tape=tape), want)
        assert len(calls) == 1 and tape.matches(q, xs)
        evaluate(q, xs.copy(), tape=tape)  # equal values, another array
        assert len(calls) == 2
        wide = model(2, 5, HOLSIN, 0.2, rng)
        evaluate(wide, tape.X, tape=tape)  # another width
        # sequences are padded time-major: (T, B, H)
        assert len(calls) == 3 and tape.K.shape == (*shape[-2::-1], 5)

    @pytest.mark.parametrize("model, evaluate, shape", [
        (random_fftnet, eval_fftnet_many, (6, 2)),
        (random_rftnet, eval_rftnet_many, (3, 5, 2)),
    ], ids=["feedforward", "recurrent"])
    def test_a_tape_holds_one_pass(self, rng, model, evaluate, shape):
        """Once a second pass is recorded, nothing keeps the first one alive."""
        p, q = model(2, 4, HOLSIN, 0.2, rng), model(2, 4, HOLSIN, 0.2, rng)
        xs = rng.standard_normal(shape)
        tape = Tape()
        evaluate(p, xs, tape=tape)
        acts = tape.acts if isinstance(tape.acts, list) else [tape.acts]
        refs = [weakref.ref(a) for a in (tape.Z, *acts)]
        del acts
        evaluate(q, xs, tape=tape)
        assert tape.matches(q, xs) and all(r() is None for r in refs)

    @pytest.mark.parametrize("model, evaluate, shape", [
        (random_fftnet, eval_fftnet_many, (6, 2)),
        (random_rftnet, eval_rftnet_many, (3, 5, 2)),
    ], ids=["feedforward", "recurrent"])
    def test_a_tape_is_keyed_by_the_params_object(self, rng, model, evaluate, shape):
        """A tape matches the params object its pass ran on, not another object
        that holds the very same arrays."""
        p = model(2, 4, HOLSIN, 0.2, rng)
        xs = rng.standard_normal(shape)
        tape = Tape()
        evaluate(p, xs, tape=tape)
        same_arrays = replace(p, W=p.W)
        assert all(getattr(same_arrays, f) is getattr(p, f) for f in ("W", "V", "alpha"))
        assert tape.matches(p, xs) and not tape.matches(same_arrays, xs)

    def test_bounded_fit_pads_its_inputs_once(self, rng, monkeypatch):
        """A holsin fit to the squared loss bounds its candidates with the
        padded inputs of its taped pass, so it pads them once in all."""
        calls, bound_calls = [], []

        def counted(*args):
            calls.append(args)
            return kappa_many(*args)

        for name, mod in list(sys.modules.items()):  # every binding of kappa_many
            if name.startswith("ftnetlab") and getattr(mod, "kappa_many", None) is kappa_many:
                monkeypatch.setattr(mod, "kappa_many", counted)
        monkeypatch.setattr(optimize, "squared_loss_lower_bound",
                            lambda p, k, ys: bound_calls.append(k)
                            or squared_loss_lower_bound(p, k, ys))
        xs = np.linspace(-1.0, 1.0, 32)[:, None]
        data = Dataset(xs, np.sin(3.0 * xs[:, 0]))
        _, trace = train_fftnet(random_fftnet(1, 8, HOLSIN, 0.3, rng), data, squared_loss(),
                                TrainConfig(step_size=3e-3, max_iters=40))
        assert len(trace) > 1 and bound_calls
        assert len(calls) == 1


def _ball_search_oracle(p, data, spec, delta, tries=4000, seed=99):
    """Independent check that an improving point exists in the delta ball."""
    from ftnetlab.losses import empirical_loss

    rng = np.random.default_rng(seed)
    base = empirical_loss(p, data, spec)
    for _ in range(tries):
        dw = rng.standard_normal((p.H, p.H))
        dv = rng.standard_normal((p.H, p.H))
        da = rng.standard_normal(p.H)
        fro = np.sqrt(np.sum(dw**2 + dv**2))
        scale = rng.uniform(0, delta) / (fro + np.linalg.norm(da))
        cand = FFTNetParams(p.I, p.H, p.W + scale * dw, p.V + scale * dv,
                            p.alpha + scale * da, p.activation)
        if empirical_loss(cand, data, spec) < base:
            return True
    return False


# the arguments holsin's real_envelope vouches for: |a| <= 2^20, with draws within
# a few thousand ulps of the odd multiples of pi (up to 333,771 pi < 2^20), where
# tan(a/2) nears its poles, and |b| <= 700
_ENVELOPE_A = st.floats(-2.0**20, 2.0**20) | st.builds(
    lambda odd, ulps: odd * math.pi + ulps * math.ulp(odd * math.pi),
    st.integers(-166_886, 166_885).map(lambda k: 2 * k + 1), st.integers(-4096, 4096))
_ENVELOPE_B = st.floats(-700.0, 700.0)


class TestLossBound:
    """``squared_loss_lower_bound`` lets ``train_fftnet`` reject a holsin
    candidate without its exact forward pass, so it must never exceed the
    exact loss, and the descent must be the one the exact loss alone takes."""

    @settings(max_examples=300, deadline=None)
    @given(h=st.integers(2, 40), i=st.integers(1, 8), n=st.integers(1, 60),
           init_scale=st.floats(1e-3, 30.0), x_scale=st.floats(1e-3, 10.0),
           y_scale=st.floats(0.0, 1e3), near_fit=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_never_exceeds_the_loss(self, h, i, n, init_scale, x_scale, y_scale,
                                    near_fit, seed):
        i = min(i, h - 1)
        rng = np.random.default_rng(seed)
        p = random_fftnet(i, h, HOLSIN, init_scale, rng)
        xs = x_scale * rng.standard_normal((n, i))
        ys = y_scale * rng.standard_normal(n)
        with np.errstate(over="ignore", invalid="ignore"):
            if near_fit:  # residuals near rounding level, where the bound is tightest
                ys = 1e-12 * ys + eval_fftnet_many(p, xs)
            ys = np.where(np.isfinite(ys), ys, 0.0)
            loss = empirical_loss(p, Dataset(xs, ys), squared_loss())
        bound = squared_loss_lower_bound(p, kappa_many(xs, h), ys)
        assert not math.isfinite(bound) or bound <= loss

    @settings(max_examples=200, deadline=None)
    @given(h=st.integers(2, 40), n=st.integers(1, 60), init_scale=st.floats(0.05, 3.0),
           ulps=st.integers(0, 4), seed=st.integers(0, 2**32 - 1))
    def test_sound_at_the_edge_of_its_premise(self, h, n, init_scale, ulps, seed):
        """The premise lets both the exact pass's Re act and real_envelope's s~ lie
        2^-32 env from the true value.  Here each lies that far from numpy's value
        (itself about 3e-16 env from the true one), on opposite sides: the exact
        output o^ moves toward its target and o~ away from it.  Each target is a
        few ulp from o^, so the bound's slack is all that keeps it at or below
        the exact loss."""
        rng = np.random.default_rng(seed)
        p = random_fftnet(min(4, h - 1), h, HOLSIN, init_scale, rng)
        xs = rng.standard_normal((n, p.I))
        ulp_offsets = rng.integers(-ulps, ulps + 1, n)
        # +1 where o^ moves up (its target lies above it), per sample and unit
        up = np.where(ulp_offsets < 0, -1.0, 1.0)[:, None] * np.sign(p.alpha)

        def value(z):
            return np.sin(z) + 2.0**-32 * np.cosh(z.imag) * up

        def real_envelope(a, b):
            s, env = HOLSIN.real_envelope(a, b)
            return s - 2.0**-32 * env * up, env

        # with no value_and_derivative, the exact loss's taped pass runs this value too
        p = replace(p, activation=replace(HOLSIN, value=value, value_and_derivative=None,
                                          real_envelope=real_envelope))
        out = eval_fftnet_many(p, xs)
        ys = out + ulp_offsets * np.spacing(out)
        loss = empirical_loss(p, Dataset(xs, ys), squared_loss())
        assert squared_loss_lower_bound(p, kappa_many(xs, h), ys) <= loss

    @settings(max_examples=200, deadline=None)
    @given(a=_ENVELOPE_A, b=_ENVELOPE_B)
    def test_premise_holds_at_160_bits(self, a, b):
        """Against sin a cosh b at 160 bits, real_envelope's s~ and the exact
        pass's Re sin(a + ib) each lie within 2^-32 env, and |Re sin(a + ib)| is
        at most (1 + 2^-32) env."""
        s, env = HOLSIN.real_envelope(np.array([a]), np.array([b]))
        exact = np.sin(np.array([complex(a, b)])).real[0]
        with mpmath.workprec(160):
            true = mpmath.sin(a) * mpmath.cosh(b)
            slack = mpmath.ldexp(float(env[0]), -32)
            assert abs(float(s[0]) - true) <= slack
            assert abs(float(exact) - true) <= slack
            assert abs(true) <= float(env[0]) + slack

    def test_tight_on_a_sin_fit_start(self):
        p = random_fftnet(1, 32, HOLSIN, 0.3, np.random.default_rng(0))
        xs = np.linspace(-1.0, 1.0, 256)[:, None]
        data = Dataset(xs, np.sin(3.0 * xs[:, 0]))
        loss = empirical_loss(p, data, squared_loss())
        bound = squared_loss_lower_bound(p, kappa_many(xs, 32), data.ys)
        assert loss * (1 - 1e-7) <= bound <= loss

    @pytest.mark.parametrize("w, v", [(2.0**21, 0.0), (1.0, 1e3)], ids=["huge", "overflow"])
    def test_no_bound_for_huge_or_overflowing_pre_activations(self, w, v):
        p = FFTNetParams(1, 2, np.full((2, 2), w), np.full((2, 2), v), np.ones(2), HOLSIN)
        k = kappa_many(np.ones((1, 1)), 2)
        assert squared_loss_lower_bound(p, k, np.zeros(1)) == -math.inf

    def test_empty_batch(self, rng):
        """An empty batch has no bound to give, and a fit on it stops at once
        with the loss 0, whether or not its activation has a bound."""
        p = random_fftnet(1, 4, HOLSIN, 0.3, rng)
        assert squared_loss_lower_bound(p, np.zeros((0, p.H)), np.zeros(0)) == -math.inf
        data = Dataset(np.zeros((0, 1)), np.zeros(0))
        for act in (HOLSIN, ZRELU):
            _, trace = train_fftnet(random_fftnet(1, 4, act, 0.3, rng), data,
                                    squared_loss(), TrainConfig(target_loss=-1.0))
            assert trace == [0.0]

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("step_size", [1e308, 1e3])
    def test_sin_fit_descent_is_unchanged(self, seed, step_size, monkeypatch):
        xs = np.linspace(-1.0, 1.0, 256)[:, None]
        data = Dataset(xs, np.sin(3.0 * xs[:, 0]))
        p0 = random_fftnet(1, 32, HOLSIN, 1.0, np.random.default_rng(seed))
        spec, cfg = squared_loss(), TrainConfig(step_size=step_size, max_iters=30)
        tape, exact_calls = Tape(), []

        def loss_of(p):
            exact_calls.append(p)
            return empirical_loss(p, data, spec, tape)

        ref = optimize._descend(p0, loss_of=loss_of, cfg=cfg,
                                grad_of=lambda p: grad_fftnet(p, data, spec, tape))
        bounded_calls = []
        monkeypatch.setattr(optimize, "empirical_loss",
                            lambda *a: bounded_calls.append(a) or empirical_loss(*a))
        got = train_fftnet(p0, data, spec, cfg)
        (p, trace), (p_ref, trace_ref) = got, ref
        assert trace == trace_ref
        for name in ("W", "V", "alpha"):
            assert np.array_equal(getattr(p, name), getattr(p_ref, name))
        if step_size == 1e308:  # no step from 1e308 down to 1e299 descends
            assert len(trace) == 1 and len(bounded_calls) == len(exact_calls)
        else:  # the bound rejected candidates without their exact pass
            assert len(trace) > 2 and len(bounded_calls) < len(exact_calls)


class TestDescentProbe:
    def _case1_instance(self, rng):
        w = rng.standard_normal((3, 3)) * 0.4
        v = rng.standard_normal((3, 3)) * 0.4
        p = FFTNetParams(2, 3, w, v, np.array([1.0, 0.0, 0.0]), HOLEXPM1)
        data = Dataset(rng.standard_normal((1, 2)), np.array([2.0]))
        return p, data

    def _case2_instance(self, rng):
        p0 = random_fftnet(3, 4, HOLEXPM1, 0.4, rng)
        p = FFTNetParams(3, 4, p0.W, p0.V, np.zeros(4), HOLEXPM1)
        return p, Dataset(rng.standard_normal((2, 3)), np.array([1.0, -0.5]))

    def _instance(self, case, rng):
        return (self._case1_instance if case == "alpha_nonzero" else self._case2_instance)(rng)

    def test_single_sample_case1(self, rng):
        p, data = self._case1_instance(rng)
        res = descent_probe(p, data, squared_loss(), delta=0.1, seed=0)
        assert res.found
        assert res.case_tag == "alpha_nonzero"
        assert res.new_loss < res.old_loss
        assert res.perturbation_norm <= 0.1
        assert _ball_search_oracle(p, data, squared_loss(), 0.1)

    def test_case2_when_readout_zero(self, rng):
        p, data = self._case2_instance(rng)
        res = descent_probe(p, data, squared_loss(), delta=0.1, seed=1)
        assert res.found
        assert res.case_tag == "alpha_zero"
        assert res.new_loss < res.old_loss
        assert res.perturbation_norm <= 0.1
        assert _ball_search_oracle(p, data, squared_loss(), 0.1)

    @pytest.mark.parametrize("case", ["alpha_nonzero", "alpha_zero"])
    def test_perturbation_actually_achieves_new_loss(self, rng, case):
        p, data = self._instance(case, rng)
        res = descent_probe(p, data, squared_loss(), delta=0.1, seed=1)
        assert res.found and res.case_tag == case
        moved = FFTNetParams(p.I, p.H, p.W + res.deltaZ.real, p.V + res.deltaZ.imag,
                             p.alpha + res.deltaAlpha, p.activation)
        # the reported loss is the exact loss of the reported perturbation
        assert empirical_loss(moved, data, squared_loss()) == res.new_loss

    @pytest.mark.parametrize("case", ["alpha_nonzero", "alpha_zero"])
    def test_not_found_when_nothing_is_proposed(self, rng, monkeypatch, case):
        """With no radius level and no sampled direction neither case proposes a
        perturbation, so the probe reports the unmoved net under its case tag."""
        monkeypatch.setattr(optimize, "PROBE_RADIUS_LEVELS", 0)
        monkeypatch.setattr(optimize, "PROBE_C1_SAMPLES", 0)
        p, data = self._instance(case, rng)
        res = descent_probe(p, data, squared_loss(), delta=0.1, seed=1)
        assert not res.found and res.case_tag == case
        assert res.deltaZ.shape == (p.H, p.H) and not res.deltaZ.any()
        assert res.deltaAlpha.shape == (p.H,) and not res.deltaAlpha.any()
        assert res.new_loss == res.old_loss == empirical_loss(p, data, squared_loss())
        assert res.perturbation_norm == 0.0

    def test_zero_loss_refused(self, rng):
        p = random_fftnet(2, 3, HOLEXPM1, 0.4, rng)
        xs = rng.standard_normal((2, 2))
        data = Dataset(xs, eval_fftnet_many(p, xs))
        with pytest.raises(ContractViolationError):
            descent_probe(p, data, squared_loss(), delta=0.1, seed=0)

    def test_gate_activation_refused(self, rng):
        p = random_fftnet(2, 3, ZRELU, 0.4, rng)
        data = Dataset(rng.standard_normal((2, 2)), rng.standard_normal(2))
        with pytest.raises(ContractViolationError):
            descent_probe(p, data, squared_loss(), delta=0.1, seed=0)

    def test_dependent_samples_refused(self, rng):
        p = random_fftnet(2, 3, HOLEXPM1, 0.4, rng)
        x = rng.standard_normal(2)
        data = Dataset(np.vstack([x, x]), np.array([1.0, 2.0]))
        with pytest.raises(ContractViolationError):
            descent_probe(p, data, squared_loss(), delta=0.1, seed=0)

    @pytest.mark.parametrize("scale,dependent", [(1 - 1e-3, True), (1 + 1e-3, False)])
    def test_independence_decided_at_rank_tolerance(self, rng, scale, dependent):
        """The probe refuses exactly when numerical_rank finds the padded samples
        dependent, here with sigma_min just below or just above RANK_TOLERANCE *
        sigma_max: the padded rows (0, 1) and (e, 1) have sigma_min / sigma_max
        close to e / 2."""
        p = random_fftnet(1, 2, HOLEXPM1, 0.4, rng)
        data = Dataset(np.array([[0.0], [2.0 * RANK_TOLERANCE * scale]]), np.array([1.0, -1.0]))
        assert (numerical_rank(kappa_many(data.xs, p.H)) < data.n) == dependent
        if dependent:
            with pytest.raises(ContractViolationError, match="not linearly independent"):
                descent_probe(p, data, squared_loss(), delta=0.1, seed=0)
        else:
            res = descent_probe(p, data, squared_loss(), delta=0.1, seed=0)
            assert res.case_tag == "alpha_nonzero"

    @pytest.mark.parametrize("delta", [math.nan, math.inf])
    def test_non_finite_delta_refused(self, delta):
        """Over a NaN or infinite radius the probe would report found=False, a false
        counterexample to claim iii, so it refuses both, as TrainConfig refuses
        such a step size."""
        rng = np.random.default_rng(4)
        p = random_fftnet(4, 5, HOLEXPM1, 0.4, rng)
        data = Dataset(rng.standard_normal((3, 4)), rng.standard_normal(3))
        with pytest.raises(ContractViolationError, match="delta must be positive and finite"):
            descent_probe(p, data, squared_loss(), delta=delta, seed=0)

    def test_ill_posed_loss_refused(self, rng):
        p, data = self._case1_instance(rng)
        with pytest.raises(ContractViolationError):
            descent_probe(p, data, param_cosh_loss(2, 3, 1), delta=0.1, seed=0)

    def test_deterministic_given_seed(self, rng):
        p, data = self._case2_instance(rng)
        r1 = descent_probe(p, data, squared_loss(), delta=0.1, seed=7)
        r2 = descent_probe(p, data, squared_loss(), delta=0.1, seed=7)
        np.testing.assert_array_equal(r1.deltaZ, r2.deltaZ)
        np.testing.assert_array_equal(r1.deltaAlpha, r2.deltaAlpha)
        assert r1.new_loss == r2.new_loss

    def test_result_invariant_enforced(self):
        with pytest.raises(ContractViolationError):
            ProbeResult(True, np.zeros((2, 2), dtype=np.complex128), np.zeros(2),
                        old_loss=1.0, new_loss=1.5, case_tag="alpha_nonzero",
                        perturbation_norm=0.05)

    def test_json_line_round_trip_fields(self, rng):
        p, data = self._case1_instance(rng)
        res = descent_probe(p, data, squared_loss(), delta=0.1, seed=0)
        d = json.loads(res.json_line(7))
        assert d["found"] and d["case_tag"] == "alpha_nonzero"
        assert d["new_loss"] < d["old_loss"]
        assert d["instance_id"] == 7
        assert np.array_equal(np.array(d["deltaZ_re"]) + 1j * np.array(d["deltaZ_im"]),
                              res.deltaZ)


def _to_dict(res: ProbeResult) -> dict:
    """The reference layout of a ``probe_results.jsonl`` line, less its instance_id."""
    return {
        "found": res.found,
        "case_tag": res.case_tag,
        "old_loss": res.old_loss,
        "new_loss": res.new_loss,
        "perturbation_norm": res.perturbation_norm,
        "deltaZ_re": res.deltaZ.real.tolist(),
        "deltaZ_im": res.deltaZ.imag.tolist(),
        "deltaAlpha": res.deltaAlpha.tolist(),
    }


# signed zeros and subnormals first: the encoder must tell -0.0 from +0.0
_ENTRY = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308]) | st.floats()


@st.composite
def _probe_results(draw):
    h = draw(st.integers(1, 40))
    dz = np.zeros((h, h), dtype=np.complex128)
    live = draw(st.none() | st.integers(0, h - 1))
    if live is not None:
        # part by part: re + 1j*im would turn a -0.0 real part into +0.0
        entries = draw(st.sampled_from([st.sampled_from([0.0, -0.0]), _ENTRY]))
        dz.real[live] = draw(st.lists(entries, min_size=h, max_size=h))
        dz.imag[live] = draw(st.lists(entries, min_size=h, max_size=h))
    dalpha = np.zeros(h)
    if draw(st.booleans()):
        dalpha[draw(st.integers(0, h - 1))] = draw(_ENTRY.filter(lambda x: x != 0))
    found = draw(st.booleans())
    old = draw(st.floats(allow_nan=False, allow_infinity=False))
    new = draw(st.floats(max_value=old, exclude_max=True) if found else st.floats())
    return ProbeResult(found, dz, dalpha, old, new,
                       draw(st.sampled_from(["alpha_nonzero", "alpha_zero"])),
                       draw(st.floats(min_value=0.0)))


_SIGNED_ZERO_ROW = ProbeResult(False, np.array([[0.0, 0.0], [-0.0, 0.0]], dtype=np.complex128),
                               np.zeros(2), 1.0, 1.0, "alpha_zero", 0.0)


class TestProbeJsonLine:
    @settings(max_examples=300, deadline=None)
    @given(res=_probe_results(), instance_id=st.integers(0, 10**6))
    @example(res=_SIGNED_ZERO_ROW, instance_id=0)
    def test_matches_json_dumps(self, res, instance_id):
        want = json.dumps({"instance_id": instance_id, **_to_dict(res)}, sort_keys=True)
        assert res.json_line(instance_id) == want


def test_gradient_bundle_rejects_non_finite():
    with pytest.raises(ContractViolationError):
        GradientBundle(np.array([[np.nan]]), np.zeros((1, 1)), np.zeros(1))

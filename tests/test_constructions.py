import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ftnetlab.activations import HOLSIN, IDENTITY, RELU, ZRELU, apply, apply_real
import ftnetlab.constructions as cons
from ftnetlab.embeddings import (
    FAMILIES,
    _random_assembly,
    _recurrent_gap,
    _worst,
    assembly_structural_gap,
    outputs_and_receptors,
    random_additive,
    random_crnet,
    random_relu_fnn,
    random_relu_rnn,
    relative_gap,
    run_embedding_sweep,
)
from ftnetlab.constructions import (
    EMBEDDING_CSV_HEADER,
    EmbeddingReport,
    Stage,
    additive_to_rftnet,
    assemble_dods_additive,
    crnet_to_fftnet,
    crnet_to_rftnet,
    dods_stage_trajectories,
    fnn_to_fftnet,
    pad_row_independent,
    rnn_timepoint_to_fnn,
    rnn_to_rftnet,
)
from ftnetlab.errors import ContractViolationError
from ftnetlab.models import (
    AdditiveFTNetParams,
    CRNetParams,
    FNNParams,
    RFTNetParams,
    RNNParams,
    eval_additive_many,
    eval_crnet_many,
    eval_fftnet_many,
    eval_fnn_many,
    eval_rftnet_many,
    eval_rnn_many,
)
from ftnetlab.numerics import numerical_rank

EXACT = 1e-12


class TestFnnEmbedding:
    def test_identity_fnn_pass_region(self):
        f = FNNParams(1, 1, [[1.0]], [0.0], [1.0], RELU)
        g = fnn_to_fftnet(f)
        assert eval_fftnet_many(g, [[0.5]])[0] == pytest.approx(0.5)
        assert eval_fnn_many(f, [[0.5]])[0] == pytest.approx(0.5)

    def test_identity_fnn_gated_region(self):
        f = FNNParams(1, 1, [[1.0]], [0.0], [1.0], RELU)
        g = fnn_to_fftnet(f)
        assert eval_fftnet_many(g, [[-0.5]])[0] == 0.0
        assert eval_fnn_many(f, [[-0.5]])[0] == 0.0

    def test_width_formula(self, rng):
        for _ in range(20):
            f = random_relu_fnn(rng)
            g = fnn_to_fftnet(f)
            assert g.H == max(f.H, f.I + 1)

    @pytest.mark.parametrize("drawn_c", [False, True], ids=["c_default", "c_drawn"])
    def test_randomized_exactness(self, drawn_c, rng):
        worst = 0.0
        for _ in range(25):
            f = random_relu_fnn(rng)
            c = float(rng.uniform(0.25, 2.0))
            g = fnn_to_fftnet(f, c) if drawn_c else fnn_to_fftnet(f)
            x = rng.uniform(-2, 2, size=(100, f.I))
            worst = max(worst, relative_gap(eval_fftnet_many(g, x), eval_fnn_many(f, x)))
        assert worst <= EXACT

    def test_activation_mismatch_rejected(self):
        f = FNNParams(1, 1, [[1.0]], [0.0], [1.0], IDENTITY)
        with pytest.raises(ContractViolationError,
                           match=r"^identity is not the real restriction of zrelu at c=1\.0$"):
            fnn_to_fftnet(f)

    def test_near_miss_activation_rejected(self):
        # ReLU + 1e-10 misses the restriction by 1e-10 everywhere; no pair of the
        # activation table comes this close, so this pins the check's tolerance
        near = replace(RELU, tag="relu_near",
                       value=lambda z: np.maximum(z.real, 0.0) + (1e-10 + 0.0j))
        f = FNNParams(1, 1, [[1.0]], [0.0], [1.0], near)
        with pytest.raises(ContractViolationError,
                           match=r"^relu_near is not the real restriction of zrelu at c=1\.0$"):
            fnn_to_fftnet(f)

    def test_identity_fnn_embeds_at_c_0(self, rng):
        # on the real line (c = 0) zrelu's gate product is 0, so every value passes
        worst = 0.0
        for _ in range(50):
            f = replace(random_relu_fnn(rng), activation=IDENTITY)
            x = rng.uniform(-2, 2, size=(100, f.I))
            g = fnn_to_fftnet(f, 0.0)
            worst = max(worst, relative_gap(eval_fftnet_many(g, x), eval_fnn_many(f, x)))
        assert worst <= EXACT
        with pytest.raises(ContractViolationError, match=r"^identity is not .* at c=1\.0$"):
            fnn_to_fftnet(f, 1.0)

    def test_outputs_do_not_depend_on_a_positive_c(self, rng):
        # the readout takes Re of each unit, and c > 0 only decides zrelu's gate as
        # c = 1 does: so the zrelu and induced families write the same rows
        for _ in range(20):
            f = random_relu_fnn(rng)
            x = rng.uniform(-2, 2, size=(100, f.I))
            outs = {eval_fftnet_many(fnn_to_fftnet(f, c), x).tobytes()
                    for c in (0.25, 1.0, 2.0, 1e300)}
            assert len(outs) == 1


class TestAdditiveEmbedding:
    def test_zero_network(self):
        h = 3
        a = AdditiveFTNetParams(2, h, np.zeros((h, 2)), np.zeros((h, h)), np.zeros(h),
                                np.zeros(h), np.zeros(h), ZRELU, 1.0)
        g = additive_to_rftnet(a)
        assert g.H == 2 + h + 1
        np.testing.assert_array_equal(eval_rftnet_many(g, np.ones((1, 5, 2))), np.zeros((1, 5)))

    def test_randomized_exactness_and_receptor(self, rng):
        worst = 0.0
        for _ in range(25):
            a = random_additive(rng)
            g = additive_to_rftnet(a)
            assert g.H == a.I + a.H + 1
            xs = rng.uniform(-1, 1, size=(10, 5, a.I))
            src, _, qs = eval_additive_many(a, xs)
            tgt, rec = outputs_and_receptors(g, xs)
            worst = max(worst, relative_gap(tgt, src),
                        float(np.max(np.abs(rec[:, :, a.I:a.I + a.H] - qs))),
                        float(np.max(np.abs(rec[:, :, :a.I]))),
                        float(np.max(np.abs(rec[:, :, -1]))))
        assert worst <= EXACT

    def test_memoryless_receptor_mirrors_per_step_restriction(self, rng):
        h, i = 4, 2
        a = AdditiveFTNetParams(i, h, rng.standard_normal((h, i)), np.zeros((h, h)),
                                rng.standard_normal(h), rng.standard_normal(h),
                                np.zeros(h), ZRELU, 1.0)
        g = additive_to_rftnet(a)
        xs = rng.standard_normal((1, 3, i))
        src = eval_additive_many(a, xs)[0]
        tgt, rec = outputs_and_receptors(g, xs)
        np.testing.assert_allclose(tgt, src, rtol=1e-12)
        for t in range(3):
            u = a.A @ xs[0, t] - a.zeta
            expected = apply(a.activation, a.c + 1j * u).imag
            np.testing.assert_allclose(rec[0, t, i:i + h], expected, atol=1e-13)


class TestCrnetEmbeddings:
    def test_single_unit_example(self):
        crn = CRNetParams(2, 1, [[0.126 - 0.132j]], [0.640 + 0.105j], [-0.536 + 0.362j], ZRELU)
        g = crnet_to_fftnet(crn)
        x = np.array([[1.0, 1.0]])
        assert eval_fftnet_many(g, x)[0] == pytest.approx(eval_crnet_many(crn, x)[0],
                                                          rel=1e-12)

    def test_gated_imaginary_readout(self):
        crn = CRNetParams(2, 1, [[1.0 + 0.0j]], [0.0j], [1.0j], ZRELU)
        g = crnet_to_fftnet(crn)
        # tau((1, -1)) = 1 - i is gated, so both paths give 0
        x = np.array([[1.0, -1.0]])
        assert eval_crnet_many(crn, x)[0] == 0.0
        assert eval_fftnet_many(g, x)[0] == 0.0

    def test_feedforward_exactness(self, rng):
        worst = 0.0
        for _ in range(25):
            crn = random_crnet(rng)
            g = crnet_to_fftnet(crn)
            assert g.H == max(2 * crn.H, crn.I + 1)
            x = rng.uniform(-2, 2, size=(100, crn.I))
            worst = max(worst, relative_gap(eval_fftnet_many(g, x),
                                            eval_crnet_many(crn, x)))
        assert worst <= EXACT

    def test_recurrent_single_step_matches_feedforward(self, rng):
        crn = random_crnet(rng)
        gf = crnet_to_fftnet(crn)
        gr = crnet_to_rftnet(crn)
        assert gr.H == 2 * crn.H + crn.I + 1
        x = rng.uniform(-2, 2, size=(20, crn.I))
        np.testing.assert_allclose(eval_rftnet_many(gr, x[:, None, :])[:, 0],
                                   eval_fftnet_many(gf, x), rtol=1e-12, atol=1e-12)

    def test_recurrent_per_step_exactness(self, rng):
        worst = 0.0
        for _ in range(15):
            crn = random_crnet(rng)
            gr = crnet_to_rftnet(crn)
            xs = rng.uniform(-2, 2, size=(10, 6, crn.I))
            tgt, rec = outputs_and_receptors(gr, xs)
            src = np.stack([eval_crnet_many(crn, xs[:, t, :]) for t in range(6)], axis=1)
            worst = max(worst, relative_gap(tgt, src),
                        float(np.max(np.abs(rec[:, :, :crn.I]))),
                        float(np.max(np.abs(rec[:, :, -1]))))
        assert worst <= EXACT

    def test_non_gate_activation_rejected(self, rng):
        crn = random_crnet(rng)
        bad = type(crn)(crn.I, crn.H, crn.W, crn.b, crn.alpha, HOLSIN)
        with pytest.raises(ContractViolationError):
            crnet_to_fftnet(bad)
        with pytest.raises(ContractViolationError):
            crnet_to_rftnet(bad)


class TestRnnEmbedding:
    def test_zero_network(self):
        r = RNNParams(2, 3, np.zeros((3, 2)), np.zeros((3, 3)), np.zeros(3),
                      np.zeros(3), np.zeros(3), RELU)
        g = rnn_to_rftnet(r)
        assert g.H == 2 * 3 + 2 + 1
        xs = np.ones((1, 4, 2))
        ys, rec = outputs_and_receptors(g, xs)
        np.testing.assert_array_equal(ys, np.zeros((1, 4)))
        b3 = slice(r.I + r.H, r.I + 2 * r.H)
        np.testing.assert_array_equal(rec[:, :, b3], np.zeros((1, 4, 3)))

    def test_randomized_exactness_and_memory(self, rng):
        worst = 0.0
        for _ in range(25):
            r = random_relu_rnn(rng)
            g = rnn_to_rftnet(r)
            assert g.H == 2 * r.H + r.I + 1
            xs = rng.uniform(-1, 1, size=(8, 10, r.I))
            src, ms = eval_rnn_many(r, xs)
            tgt, rec = outputs_and_receptors(g, xs)
            b3 = slice(r.I + r.H, r.I + 2 * r.H)
            worst = max(worst, relative_gap(tgt, src),
                        float(np.max(np.abs(rec[:, :, b3] - ms))),
                        float(np.max(np.abs(rec[:, :, :r.I]))),
                        float(np.max(np.abs(rec[:, :, -1]))))
        assert worst <= EXACT

    def test_memoryless_agrees_with_fnn_route(self, rng):
        # with V_R = 0 each step is the same feedforward map, so the
        # recurrent embedding and the per-step feedforward embedding agree
        r = RNNParams(2, 1, rng.standard_normal((1, 2)), np.zeros((1, 1)),
                      rng.standard_normal(1), rng.standard_normal(1),
                      np.zeros(1), RELU)
        g = rnn_to_rftnet(r)
        f = FNNParams(2, 1, r.W, r.b, r.alpha, RELU)
        gf = fnn_to_fftnet(f)
        xs = rng.uniform(-1, 1, size=(5, 2))
        ys = eval_rftnet_many(g, xs[None])[0]
        per_step = eval_fftnet_many(gf, xs)
        np.testing.assert_allclose(ys, per_step, rtol=1e-12, atol=1e-12)

    def test_non_relu_rejected(self, rng):
        r = random_relu_rnn(rng)
        bad = RNNParams(r.I, r.H, r.W, r.V, r.b, r.alpha, r.m0, IDENTITY)
        with pytest.raises(ContractViolationError):
            rnn_to_rftnet(bad)


class TestRnnTimepoint:
    def test_empty_history(self, rng):
        r = random_relu_rnn(rng)
        f = rnn_timepoint_to_fnn(r, np.zeros((0, r.I)), t0=1)
        np.testing.assert_allclose(f.b, r.V @ r.m0 + r.b)

    def test_zero_initial_memory_bias(self, rng):
        r = random_relu_rnn(rng)
        r = RNNParams(r.I, r.H, r.W, r.V, r.b, r.alpha, np.zeros(r.H), RELU)
        f = rnn_timepoint_to_fnn(r, np.zeros((0, r.I)), t0=1)
        np.testing.assert_array_equal(f.b, r.b)

    def test_substitution_oracle(self, rng):
        r = random_relu_rnn(rng)
        prefix = rng.uniform(-1, 1, size=(6, r.I))
        t0 = 4
        f = rnn_timepoint_to_fnn(r, prefix, t0=t0)
        worst = 0.0
        for _ in range(100):
            probe = rng.uniform(-1, 1, size=r.I)
            seq = prefix[:t0].copy()
            seq[t0 - 1] = probe
            rerun = eval_rnn_many(r, seq[None])[0][0, t0 - 1]
            frozen = eval_fnn_many(f, probe[None])[0]
            worst = max(worst, abs(frozen - rerun) / (1.0 + abs(rerun)))
        assert worst <= EXACT

    def test_memoryless_ignores_prefix(self, rng):
        r = random_relu_rnn(rng)
        r = RNNParams(r.I, r.H, r.W, np.zeros((r.H, r.H)), r.b, r.alpha,
                      r.m0, RELU)
        fa = rnn_timepoint_to_fnn(r, rng.standard_normal((5, r.I)), t0=5)
        fb = rnn_timepoint_to_fnn(r, rng.standard_normal((5, r.I)), t0=3)
        np.testing.assert_array_equal(fa.b, fb.b)

    def test_index_bounds(self, rng):
        r = random_relu_rnn(rng)
        with pytest.raises(ContractViolationError):
            rnn_timepoint_to_fnn(r, np.zeros((2, r.I)), t0=4)
        with pytest.raises(ContractViolationError):
            rnn_timepoint_to_fnn(r, np.zeros((2, r.I)), t0=0)

    @pytest.mark.parametrize("shape, t0", [((13,), 1), ((2, 7), 1), ((3, 1, 6), 2)],
                             ids=["flat", "wider_than_I", "three_axes"])
    def test_a_prefix_not_of_shape_t_by_i_is_refused(self, shape, t0):
        """The prefix is (t, I) or refused, whatever t0 reads of it."""
        r = RNNParams(6, 2, np.zeros((2, 6)), np.zeros((2, 2)), np.zeros(2), np.ones(2),
                      np.zeros(2), RELU)
        with pytest.raises(ContractViolationError, match="expected a 2-d array"):
            rnn_timepoint_to_fnn(r, np.zeros(shape), t0=t0)


class TestRowIndependentPadding:
    def test_zero_block(self):
        u = pad_row_independent(np.zeros((2, 3)))
        assert u.shape == (2, 5)
        np.testing.assert_array_equal(u[:, 3:], np.eye(2))
        assert numerical_rank(u) == 2

    def test_single_row(self):
        u = pad_row_independent(np.array([[0.37]]))
        np.testing.assert_array_equal(u, [[0.37, 1.0]])
        assert numerical_rank(u) == 1

    def test_padded_network_outputs_unchanged(self, rng):
        """The padded units, given zero weights and zero bias, add nothing."""
        u1 = rng.standard_normal((3, 5))
        w = rng.standard_normal((5, 4))
        b = rng.standard_normal(5)
        u = pad_row_independent(u1)
        assert numerical_rank(u) == 3
        w2, b2 = np.vstack([w, np.zeros((3, 4))]), np.concatenate([b, np.zeros(3)])
        for activation in (RELU, HOLSIN):
            for _ in range(50):
                x = rng.standard_normal(4)
                original = u1 @ apply_real(activation, w @ x + b)
                padded = u @ apply_real(activation, w2 @ x + b2)
                np.testing.assert_allclose(padded, original, rtol=1e-12, atol=1e-14)


class TestDodsAssembly:
    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), t_len=st.integers(1, 12))
    def test_structural_claims_drawn(self, seed, t_len):
        rng = np.random.default_rng(seed)
        stages = _random_assembly(rng)
        xs = rng.uniform(-1, 1, size=(t_len, stages[0].A.shape[1]))
        assert assembly_structural_gap(stages, assemble_dods_additive(*stages), xs) <= EXACT

    # (seed, instance) of verify sweeps whose q chain grows to ~5e4, where a
    # few ulp of rounding exceed 1e-12 as an absolute error
    @pytest.mark.parametrize("seed,instance", [(210, 35), (509, 49), (789, 13), (950, 36)])
    def test_large_states_pass_the_sweep(self, seed, instance):
        reports, _ = run_embedding_sweep("dods_assembly", seed, instance + 1)
        assert reports[instance].max_abs_output_gap <= EXACT

    def test_zero_assembly_with_zero_height(self, rng):
        # with c = 0 both induced restrictions vanish at 0, so everything is 0
        i, hd = 2, 2
        zeros = lambda *shape: np.zeros(shape)
        s1 = Stage(zeros(3, i), zeros(3, hd), pad_row_independent(zeros(hd, 1)), zeros(3))
        s2 = Stage(zeros(3, i), zeros(3, hd), pad_row_independent(zeros(hd, 1)), zeros(3))
        readout = Stage(zeros(2, i), zeros(2, 3), zeros(1, 2), zeros(2))
        addnet = assemble_dods_additive(s1, s2, readout, ZRELU, 0.0, np.zeros(hd))
        xs = rng.uniform(-1, 1, size=(1, 4, i))
        ys, ps, qs = eval_additive_many(addnet, xs)
        np.testing.assert_array_equal(ys, np.zeros((1, 4)))
        np.testing.assert_array_equal(ps, np.zeros_like(ps))
        np.testing.assert_array_equal(qs, np.zeros_like(qs))

    def test_zero_assembly_outputs_and_q_side(self, rng):
        # positive gate height: the p side saturates at c on open gates, but
        # the q side and the readout stay exactly zero
        i, hd = 2, 1
        zeros = lambda *shape: np.zeros(shape)
        s1 = Stage(zeros(2, i), zeros(2, hd), pad_row_independent(zeros(hd, 1)), zeros(2))
        s2 = Stage(zeros(2, i), zeros(2, hd), pad_row_independent(zeros(hd, 1)), zeros(2))
        readout = Stage(zeros(2, i), zeros(2, 2), zeros(1, 2), zeros(2))
        addnet = assemble_dods_additive(s1, s2, readout, ZRELU, 1.0, np.zeros(hd))
        xs = rng.uniform(-1, 1, size=(1, 4, i))
        ys, _, qs = eval_additive_many(addnet, xs)
        np.testing.assert_array_equal(ys, np.zeros((1, 4)))
        np.testing.assert_array_equal(qs, np.zeros_like(qs))

    def test_exact_linear_state_tracking_through_q_side(self, rng):
        # a linear system folds into ReLU pairs exactly, so the q side
        # reproduces the hidden state: C2 q2_t = h_t for every step
        hd, i = 2, 3
        P = rng.standard_normal((hd, i))
        Q = 0.4 * rng.standard_normal((hd, hd))
        relu_pair = Stage(
            A=np.vstack([P, -P]), B=np.vstack([Q, -Q]),
            C=np.hstack([np.eye(hd), -np.eye(hd)]), b=np.zeros(2 * hd))
        other = Stage(rng.standard_normal((3, i)), 0.2 * rng.standard_normal((3, hd)),
                      pad_row_independent(rng.standard_normal((hd, 1))), rng.standard_normal(3))
        readout = Stage(rng.standard_normal((2, i)), 0.2 * rng.standard_normal((2, 2 * hd)),
                        rng.standard_normal((1, 2)), rng.standard_normal(2))
        h0 = rng.standard_normal(hd)
        xs = rng.uniform(-1, 1, size=(8, i))
        traj = dods_stage_trajectories(other, relu_pair, readout, ZRELU, 1.0, h0, xs)
        h = h0.copy()
        for t in range(8):
            h = P @ xs[t] + Q @ h
            np.testing.assert_allclose(relu_pair.C @ traj["q2"][t], h,
                                       rtol=1e-12, atol=1e-12)
        # and the assembled network carries the same q2 block in its tail
        stages = (other, relu_pair, readout, ZRELU, 1.0, h0)
        gap = assembly_structural_gap(stages, assemble_dods_additive(*stages), xs)
        assert gap <= EXACT

    def test_rank_deficient_readout_rejected(self, rng):
        i, hd = 3, 2
        s1, s2 = (Stage(rng.standard_normal((h, i)), rng.standard_normal((h, hd)),
                        pad_row_independent(rng.standard_normal((hd, h - hd))),
                        rng.standard_normal(h)) for h in (4, 5))
        readout = Stage(rng.standard_normal((6, i)), rng.standard_normal((6, 5)),
                        rng.standard_normal((1, 6)), rng.standard_normal(6))
        broken1 = Stage(s1.A, s1.B, np.zeros_like(s1.C), s1.b)
        broken2 = Stage(s2.A, s2.B, np.zeros_like(s2.C), s2.b)
        with pytest.raises(ContractViolationError, match="stage1 readout is not row independent"):
            assemble_dods_additive(broken1, s2, readout, ZRELU, 1.0, np.zeros(hd))
        with pytest.raises(ContractViolationError, match="stage2 readout is not row independent"):
            assemble_dods_additive(s1, broken2, readout, ZRELU, 1.0, np.zeros(hd))


class TestGapMeasures:
    """The gap measures read every error they claim to, including those that
    the constructions never make."""

    def test_relative_gap_divides_by_one_plus_the_source(self):
        # |3 - 1| / (1 + 1) = 1 and |-1 - -3| / (1 + 3) = 0.5: the largest is read
        assert relative_gap([3.0, -1.0], [1.0, -3.0]) == 1.0
        assert relative_gap([[-1.0], [0.5]], [[-3.0], [0.5]]) == 0.5

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_relative_gap_is_inf_on_one_non_finite_entry(self, bad):
        assert relative_gap([1.0, bad], [1.0, 1.0]) == math.inf
        assert relative_gap([1.0, 1.0], [1.0, bad]) == math.inf

    def test_worst_reads_nan_as_inf(self):
        assert _worst(0.5, np.float64(math.nan), 0.25) == math.inf
        assert _worst(0.5, 0.25) == 0.5

    @staticmethod
    def _leaking_net(slot):
        """An identity-activation RFTNet with I = 2, H = 4 whose receptor holds
        0.25 x_0 in ``slot`` at every step and 0 elsewhere; its outputs are 0."""
        v = np.zeros((4, 4))
        v[slot, 0] = 0.25
        return RFTNetParams(2, 4, np.zeros((4, 4)), v, np.zeros(4), IDENTITY, None)

    # x_0 is 2 and then -0.5, so the receptor's error is 0.5 at its worst and 0.125 at its least
    _XS = np.array([[[2.0, 1.0], [-0.5, 1.0]]])

    @pytest.mark.parametrize("slot, gap", [(0, 0.5), (1, 0.5), (2, 0.0), (3, 0.5)])
    def test_recurrent_gap_reads_the_input_block_and_the_bias_slot(self, slot, gap):
        # slots 0 and 1 are the input block and 3 the bias slot; slot 2 is read only
        # through a mirror
        assert _recurrent_gap(self._leaking_net(slot), self._XS, np.zeros((1, 2))) == gap

    def test_recurrent_gap_reads_each_mirror_and_the_outputs(self):
        g, xs = self._leaking_net(2), self._XS
        states = 0.25 * xs[:, :, :1]
        assert _recurrent_gap(g, xs, np.zeros((1, 2)), [(slice(2, 3), states)]) == 0.0
        assert _recurrent_gap(g, xs, np.zeros((1, 2)), [(slice(2, 3), 0 * states)]) == 0.5
        assert _recurrent_gap(g, xs, np.array([[0.0, 1.0]])) == 0.5

    @pytest.mark.parametrize("claim", range(5))
    def test_assembly_gap_reads_each_chain_claim(self, monkeypatch, claim):
        """With one claim knocked off by one, the assembly's gap shows it."""
        rng = np.random.default_rng(5)
        stages = _random_assembly(rng)
        xs = rng.uniform(-1, 1, size=(4, stages[0].A.shape[1]))
        net = assemble_dods_additive(*stages)
        trajectories = cons.dods_stage_trajectories
        assert assembly_structural_gap(stages, net, xs) <= EXACT

        def one_claim_off(*args):
            traj = trajectories(*args)
            if claim == 2:  # q3's tail = q2, with q1 = C2 q2 kept
                traj["q2"][-1, 0] += 1.0
                traj["q1"][-1] += stages[1].C[:, 0]
            else:  # p1 = C1 p2, q1 = C2 q2, p = (p3; p5), q = (q3; q5)
                traj[("p1", "q1", None, "p5", "q5")[claim]][-1, 0] += 1.0
            return traj

        monkeypatch.setattr(cons, "dods_stage_trajectories", one_claim_off)
        assert assembly_structural_gap(stages, net, xs) > 1e-6


_KINDS = st.sampled_from(sorted({kind for fam in FAMILIES.values()
                                 for kind in (fam.source, fam.target)}))
_GAPS = st.none() | st.sampled_from([0.0, 5e-324, math.inf]) | st.floats(
    min_value=0.0, allow_nan=False, allow_infinity=False)


class TestEmbeddingReport:
    def test_csv_header(self):
        assert EMBEDDING_CSV_HEADER == ("source_kind,target_kind,I,T,source_hidden,"
                                        "target_hidden,source_params,target_params,"
                                        "max_abs_output_gap")
        assert EMBEDDING_CSV_HEADER.split(",") == [f.name for f in fields(EmbeddingReport)]

    @settings(max_examples=200, deadline=None)
    @given(kinds=st.tuples(_KINDS, _KINDS), counts=st.tuples(*[st.integers(0, 2**64)] * 6),
           gap=_GAPS)
    def test_csv_row_round_trip(self, kinds, counts, gap):
        rep = EmbeddingReport(*kinds, *counts, gap)
        assert EmbeddingReport.from_csv_row(rep.csv_row()) == rep

    def test_csv_rows(self):
        rep = EmbeddingReport("fnn", "fftnet", 3, 1, 4, 5, 32, 55, 1.25e-15)
        assert rep.csv_row() == "fnn,fftnet,3,1,4,5,32,55,1.25e-15"
        assert len(rep.csv_row().split(",")) == len(EMBEDDING_CSV_HEADER.split(","))

    def test_empty_gap_field(self):
        rep = EmbeddingReport("rnn", "rftnet", 2, 4, 3, 9, 14, 171, None)
        assert rep.csv_row().endswith(",")

    def test_negative_gap_rejected(self):
        with pytest.raises(ContractViolationError):
            EmbeddingReport("fnn", "fftnet", 1, 1, 1, 2, 4, 10, -1.0)

"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
summary lines.
"""

import hashlib
import time

import numpy as np

from ftnetlab.activations import HOLEXPM1, HOLSIN, RELU, ZRELU
from ftnetlab.constructions import (
    additive_to_rftnet,
    assemble_dods_additive,
    crnet_to_fftnet,
    crnet_to_rftnet,
    fnn_to_fftnet,
    rnn_to_rftnet,
)
from ftnetlab.embeddings import (
    FAMILIES,
    Assembly,
    assembly_structural_gap,
    _random_assembly,
    outputs_and_receptors,
    random_additive,
    random_relu_rnn,
    run_embedding_sweep,
)
from ftnetlab.losses import (
    Dataset,
    LossSpec,
    check_well_posed,
    empirical_loss,
    param_cosh_loss,
    squared_loss,
)
from ftnetlab.models import (
    CRNetParams,
    FFTNetParams,
    FNNParams,
    RNNParams,
    eval_additive_many,
    eval_linear_dods,
    eval_rnn_many,
)
from ftnetlab.optimize import (
    TrainConfig,
    descent_probe,
    grad_fftnet,
    grad_rftnet,
    random_fftnet,
    random_rftnet,
    train_fftnet,
    train_rftnet,
)
from conftest import (finite_diff_grad, gradient_relative_error, pinned_for_kernel,
                      tame_rftnet, write_model)

EXACT = 1e-12
EMBEDDING_PAIRS = tuple(name for name, fam in FAMILIES.items()
                        if not isinstance(fam, Assembly))


def test_criterion_1_embedding_exactness():
    start = time.time()
    worst = {}
    for pair in EMBEDDING_PAIRS:
        reports, _ = run_embedding_sweep(pair, seed=101, instances=200,
                                         probes=100, t_len=10)
        worst[pair] = max(r.max_abs_output_gap for r in reports)
        assert worst[pair] <= EXACT, (pair, worst[pair])
    elapsed = time.time() - start
    assert elapsed < 120.0, f"sweep took {elapsed:.1f}s"
    overall = max(worst.values())
    print(f"\nACCEPTANCE 1 PASS: embedding exactness, 200 instances x 100 probes "
          f"per pair, worst relative gap {overall:.3e} <= 1e-12 in {elapsed:.1f}s")


def test_criterion_2_width_and_parameter_bookkeeping():
    rng = np.random.default_rng(202)
    checked = 0
    for _ in range(50):
        i = int(rng.integers(1, 9))
        hf = int(rng.integers(1, 17))
        fnn = FNNParams(i, hf, rng.standard_normal((hf, i)),
                        rng.standard_normal(hf), rng.standard_normal(hf), RELU)
        assert fnn_to_fftnet(fnn).H == max(hf, i + 1)

        a = random_additive(rng)
        assert additive_to_rftnet(a).H == a.I + a.H + 1

        ic = int(rng.choice([2, 4, 6, 8]))
        hc = int(rng.integers(1, 9))
        crn = CRNetParams(ic, hc,
                          rng.standard_normal((hc, ic // 2))
                          + 1j * rng.standard_normal((hc, ic // 2)),
                          rng.standard_normal(hc) + 1j * rng.standard_normal(hc),
                          rng.standard_normal(hc) + 1j * rng.standard_normal(hc),
                          ZRELU)
        assert crnet_to_fftnet(crn).H == max(2 * hc, ic + 1)
        assert crnet_to_rftnet(crn).H == 2 * hc + ic + 1

        r = random_relu_rnn(rng)
        assert rnn_to_rftnet(r).H == 2 * r.H + r.I + 1
        checked += 1

    assert FFTNetParams.params(2, 0) == 10
    assert CRNetParams.params(3, 4) == 36
    assert FNNParams.params(2, 3) == 16
    assert RNNParams.params(2, 3) == 14
    for h in range(1, 257):
        assert FFTNetParams.params(h, 0) <= 3 * h * h
    print(f"\nACCEPTANCE 2 PASS: width formulas max{{H_F,I+1}}, I+H+1, "
          f"max{{2H_C,I+1}}, 2H_C+I+1, 2H_R+I+1 asserted on {checked} conversions "
          f"per family; parameter formulas 2H^2+H, 2H_C(I+2), 2H_F(I+1), "
          f"H_R(I+H_R+2) verified")


def test_criterion_3_structural_trajectory_claims():
    rng = np.random.default_rng(303)
    worst_assembly = 0.0
    for _ in range(50):
        stages = _random_assembly(rng)
        t_len = int(rng.integers(2, 11))
        xs = rng.uniform(-1, 1, size=(t_len, stages[0].A.shape[1]))
        worst_assembly = max(worst_assembly, assembly_structural_gap(
            stages, assemble_dods_additive(*stages), xs))
    assert worst_assembly <= EXACT

    worst_receptor = 0.0
    for _ in range(50):
        a = random_additive(rng)
        g = additive_to_rftnet(a)
        xs = rng.uniform(-1, 1, size=(4, int(rng.integers(2, 11)), a.I))
        _, _, qs = eval_additive_many(a, xs)
        _, rec = outputs_and_receptors(g, xs)
        worst_receptor = max(worst_receptor,
                             float(np.max(np.abs(rec[:, :, a.I:a.I + a.H] - qs))),
                             float(np.max(np.abs(rec[:, :, :a.I]))),
                             float(np.max(np.abs(rec[:, :, -1]))))
    assert worst_receptor <= EXACT

    worst_memory = 0.0
    for _ in range(50):
        r = random_relu_rnn(rng)
        g = rnn_to_rftnet(r)
        xs = rng.uniform(-1, 1, size=(4, int(rng.integers(2, 11)), r.I))
        _, ms = eval_rnn_many(r, xs)
        _, rec = outputs_and_receptors(g, xs)
        b3 = slice(r.I + r.H, r.I + 2 * r.H)
        worst_memory = max(worst_memory,
                           float(np.max(np.abs(rec[:, :, b3] - ms))),
                           float(np.max(np.abs(rec[:, :, :r.I]))),
                           float(np.max(np.abs(rec[:, :, -1]))))
    assert worst_memory <= EXACT
    print(f"\nACCEPTANCE 3 PASS: structural trajectory claims on 50 assemblies "
          f"(worst {worst_assembly:.3e}), receptor mirror (0;q_t;0) "
          f"(worst {worst_receptor:.3e}), memory mirror r_t3 = m_t "
          f"(worst {worst_memory:.3e}), all <= 1e-12")


def test_criterion_4_gradient_correctness():
    start = time.time()
    spec_pool = (squared_loss(), param_cosh_loss(1.5, 1.5, 0.7))
    worst_ff = 0.0
    for idx in range(50):
        rng = np.random.default_rng(40_000 + idx)
        i = int(rng.integers(1, 6))
        h = i + 1 + int(rng.integers(0, 4))
        n = int(rng.integers(1, 7))
        act = HOLEXPM1 if idx % 2 else HOLSIN
        spec = spec_pool[idx % 2]
        p = random_fftnet(i, h, act, 0.4, rng)
        data = Dataset(rng.standard_normal((n, i)), rng.standard_normal(n))
        worst_ff = max(worst_ff, gradient_relative_error(
            grad_fftnet(p, data, spec), finite_diff_grad(p, data, spec)))
    assert worst_ff <= 1e-5

    worst_rec = 0.0
    for idx in range(50):
        rng = np.random.default_rng(41_000 + idx)
        i = int(rng.integers(1, 4))
        h = i + 1 + int(rng.integers(0, 3))
        b, t_len = int(rng.integers(1, 4)), int(rng.integers(1, 6))
        act = HOLSIN if idx % 2 else HOLEXPM1
        p = random_rftnet(i, h, act, 0.3, rng)
        xs = rng.uniform(-1, 1, (b, t_len, i))
        p = tame_rftnet(p, xs)
        data = Dataset(xs, rng.standard_normal((b, t_len)))
        worst_rec = max(worst_rec, gradient_relative_error(
            grad_rftnet(p, data, squared_loss()),
            finite_diff_grad(p, data, squared_loss())))
    assert worst_rec <= 1e-4
    elapsed = time.time() - start
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 4 PASS: analytic vs central differences, feedforward "
          f"worst {worst_ff:.2e} <= 1e-5, unrolled recurrent worst "
          f"{worst_rec:.2e} <= 1e-4, 50 instances each in {elapsed:.1f}s")


def test_criterion_5_descent_probe():
    start = time.time()
    delta = 0.1
    spec = squared_loss()
    stats = {"alpha_nonzero": 0, "alpha_zero": 0}
    worst_norm = 0.0
    for idx in range(100):
        rng = np.random.default_rng(50_000 + idx)
        i = int(rng.integers(2, 11))
        n = int(rng.integers(1, i + 1))
        h = i + 1
        p = random_fftnet(i, h, HOLEXPM1, 0.4, rng)
        if idx < 50:  # forced readout-zero instances
            p = FFTNetParams(p.I, p.H, p.W, p.V, np.zeros(h), p.activation)
        data = Dataset(rng.standard_normal((n, i)), rng.standard_normal(n))
        assert empirical_loss(p, data, spec) > 1e-6
        res = descent_probe(p, data, spec, delta=delta, seed=idx)
        assert res.found, f"instance {idx} not found"
        assert res.new_loss < res.old_loss
        assert res.perturbation_norm <= delta
        stats[res.case_tag] += 1
        worst_norm = max(worst_norm, res.perturbation_norm)
    elapsed = time.time() - start
    assert elapsed < 300.0
    assert stats["alpha_zero"] == 50 and stats["alpha_nonzero"] == 50
    print(f"\nACCEPTANCE 5 PASS: descent probe found=true on 100/100 "
          f"(50 per case), worst perturbation norm {worst_norm:.4f} <= {delta}, "
          f"{elapsed:.1f}s")


def test_criterion_6_sin_fit(tmp_path):
    n, h = 256, 32
    xs = np.linspace(-1.0, 1.0, n)[:, None]
    data = Dataset(xs, np.sin(3.0 * xs[:, 0]))
    rng = np.random.default_rng(0)
    p0 = random_fftnet(1, h, HOLSIN, 0.3, rng)
    cfg = TrainConfig(step_size=3e-3, max_iters=50_000, target_loss=1e-3 * n)
    trained, trace = train_fftnet(p0, data, squared_loss(), cfg)
    iters = len(trace) - 1
    mse = trace[-1] / n
    assert iters <= 50_000
    assert mse <= 1e-3
    # the bytes of `train` sin_fit at seed 0, shared by SkylakeX and Haswell, and by
    # Sandybridge and Nehalem
    newer = "e6334674802d9a42af26e9e2d49f407fe7033ce89c83f866b9095e3c9955fdc0"
    older = "b2464b50d766c9ae2cf507a66f9ee624ca2843c108a0873486eccd8e0721189a"
    write_model(tmp_path / "sin_fit_model.json", trained)
    digest = hashlib.sha256((tmp_path / "sin_fit_model.json").read_bytes()).hexdigest()
    assert digest == pinned_for_kernel({
        "SkylakeX": newer, "Haswell": newer, "Sandybridge": older, "Nehalem": older,
        "Katmai": "5f3b322c83a69d2d1b565987ea629e3d106bc3d931ad023e8cdb527166434165"})
    print(f"\nACCEPTANCE 6 PASS: H=32 network fit sin(3x) on 256 points to "
          f"MSE {mse:.2e} <= 1e-3 in {iters} iterations")


def test_criterion_7_dods_demo():
    t_len, n_seq, h, i = 8, 48, 16, 2
    assert h <= 48
    rng = np.random.default_rng(0)
    xs = rng.uniform(-1, 1, size=(n_seq, t_len, i))
    ys = eval_linear_dods(xs, P=[[0.8, 0.0], [0.2, 0.5]], Q=[[0.3, -0.2], [0.1, 0.4]],
                          readout=[1.0, -0.7], h0=[0.0, 0.0])
    data = Dataset(xs, ys)
    p0 = random_rftnet(i, h, HOLSIN, 0.2, rng)
    cfg = TrainConfig(step_size=1e-3, max_iters=20_000, target_loss=1e-2 * n_seq * t_len)
    trained, trace = train_rftnet(p0, data, squared_loss(), cfg)
    mse = trace[-1] / (n_seq * t_len)
    assert mse <= 1e-2
    print(f"\nACCEPTANCE 7 PASS: recurrent net (H={h}) tracked the linear "
          f"system (state size 2, T=8) to per-step MSE {mse:.2e} <= 1e-2 in "
          f"{len(trace) - 1} iterations")


def test_criterion_8_well_posedness_checker():
    assert check_well_posed(squared_loss()) == ()
    rng = np.random.default_rng(808)
    triples = []
    for _ in range(5):
        a = float(rng.uniform(0.3, 3.0))
        c = float(rng.uniform(0.3, 3.0))
        triples.append((a, a, c))
        assert check_well_posed(param_cosh_loss(a, a, c)) == ()
    cubic = LossSpec("cubic", value=lambda x: np.asarray(x, float) ** 3,
                     deriv=lambda x: 3.0 * np.asarray(x, float) ** 2)
    assert check_well_posed(cubic)
    # asymmetric variants shift the minimum off the origin; the checker is
    # honest about them (the symmetric a == b family is the well-posed one)
    assert check_well_posed(param_cosh_loss(2, 3, 1))
    print(f"\nACCEPTANCE 8 PASS: checker accepts squared and 5 random smooth-cosh "
          f"triples {['(%.2f,%.2f,%.2f)' % t for t in triples]}, rejects the x^3 "
          f"control (and the asymmetric variant, whose minimum is off the origin)")


def test_criterion_9_interpolation_consistency():
    n, i = 4, 6
    h = i + 1
    reached = 0
    iters = []
    for run in range(10):
        rng = np.random.default_rng(9_000 + run)
        data = Dataset(rng.standard_normal((n, i)), rng.standard_normal(n))
        from ftnetlab.models import kappa_many
        from ftnetlab.numerics import numerical_rank
        assert numerical_rank(kappa_many(data.xs, h)) == n
        p0 = random_fftnet(i, h, HOLEXPM1, 0.3, rng)
        cfg = TrainConfig(step_size=0.02, max_iters=30_000, target_loss=1e-8)
        _, trace = train_fftnet(p0, data, squared_loss(), cfg)
        reached += trace[-1] <= 1e-8
        iters.append(len(trace) - 1)
    assert reached == 10
    print(f"\nACCEPTANCE 9 PASS: 10/10 random initializations reached loss "
          f"<= 1e-8 with n={n} <= I={i}, H=I+1 (iterations: {iters})")

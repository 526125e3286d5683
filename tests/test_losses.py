import numpy as np
import pytest

from ftnetlab.activations import HOLSIN, ZRELU
from ftnetlab.errors import ContractViolationError
from ftnetlab.losses import (
    Dataset,
    LossSpec,
    check_well_posed,
    empirical_loss,
    loss_spec_from_config,
    param_cosh_loss,
    squared_loss,
)
from ftnetlab.models import FFTNetParams, eval_fftnet_many


def test_squared_at_zero():
    assert squared_loss().value(0.0) == 0.0


def test_param_cosh_at_zero():
    assert param_cosh_loss(1, 1, 1).value(0.0) == pytest.approx(0.0, abs=1e-15)


def test_param_cosh_at_one():
    expected = np.log(np.e + np.exp(-1.0)) - np.log(2.0)  # 0.433780...
    assert param_cosh_loss(1, 1, 1).value(1.0) == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(0.4337808304830271, rel=1e-12)


def test_param_cosh_requires_positive_parameters():
    for abc in [(0.0, 1.0, 1.0), (float("nan"), 1.0, 1.0), (1.0, float("inf"), 1.0),
                (1.0, 1.0, float("nan")), (1.0, 1.0, 10**400)]:
        with pytest.raises(ContractViolationError):
            param_cosh_loss(*abc)


def test_param_cosh_extreme_arguments_stable():
    spec = param_cosh_loss(1.0, 1.0, 1.0)
    assert np.isfinite(spec.value(500.0))
    assert np.isfinite(spec.value(-500.0))
    assert spec.value(500.0) == pytest.approx(500.0 - np.log(2.0), rel=1e-9)


def test_positive_off_zero():
    for spec in (squared_loss(), param_cosh_loss(1.4, 1.4, 0.6)):
        for x in (-3.0, -0.2, 0.1, 2.5):
            assert spec.value(x) > 0.0


def test_deriv_matches_finite_differences():
    step = 1e-6
    xs = np.linspace(-10, 10, 201)
    for spec in (squared_loss(), param_cosh_loss(1, 1, 1), param_cosh_loss(2.2, 2.2, 0.9)):
        fd = (spec.value(xs + step) - spec.value(xs - step)) / (2 * step)
        d = spec.deriv(xs)
        scale = np.maximum(np.abs(fd), 1.0)
        assert np.max(np.abs(d - fd) / scale) <= 1e-7


class TestWellPosedness:
    def test_squared_passes(self):
        assert check_well_posed(squared_loss()) == ()

    def test_symmetric_param_cosh_passes(self, rng):
        for _ in range(5):
            a = float(rng.uniform(0.3, 3.0))
            c = float(rng.uniform(0.3, 3.0))
            assert check_well_posed(param_cosh_loss(a, a, c)) == ()

    def test_cubic_probe_fails(self):
        cubic = LossSpec("cubic", value=lambda x: np.asarray(x, float) ** 3,
                         deriv=lambda x: 3.0 * np.asarray(x, float) ** 2)
        violations = check_well_posed(cubic)
        assert any("decreasing" in v for v in violations)

    def test_asymmetric_param_cosh_is_rejected(self):
        # the minimum of the asymmetric variant sits at ln(b/a)/(a+b) != 0,
        # so it violates strict monotonicity around the origin
        violations = check_well_posed(param_cosh_loss(2, 3, 1))
        assert any("increasing" in v for v in violations)

    def test_shifted_loss_fails_origin_check(self):
        shifted = LossSpec("shifted", value=lambda x: np.asarray(x, float) ** 2 + 1.0,
                           deriv=lambda x: 2.0 * np.asarray(x, float))
        assert check_well_posed(shifted) == ("l(0) = 1.0 is not 0",)

    def test_flat_near_zero_is_rejected(self):
        # max(|x| - 0.5, 0)^2 vanishes at 0 but is flat on |x| <= 0.5, so it is
        # only weakly monotone there: l' = 0 is not a strict increase
        def dead(x):
            return np.maximum(np.asarray(x, float) - 0.5, 0.0)

        flat = LossSpec("flat", value=lambda x: dead(x) ** 2 + dead(-x) ** 2,
                        deriv=lambda x: 2.0 * (dead(x) - dead(-x)))
        assert check_well_posed(flat) == (
            "not strictly increasing at x = 0.01 (l' = 0)",
            "not strictly decreasing at x = -0.01 (l' = 0)")

    def test_grid_reaches_ten(self):
        # l' has the wrong sign only where |x| > 9.995, so only the grid's last
        # points, x = +-10, can see it
        def deriv(x):
            x = np.asarray(x, float)
            return np.where(np.abs(x) > 9.995, -2.0 * x, 2.0 * x)

        late = LossSpec("late", value=lambda x: np.asarray(x, float) ** 2, deriv=deriv)
        assert check_well_posed(late) == (
            "not strictly increasing at x = 10 (l' = -20)",
            "not strictly decreasing at x = -10 (l' = 20)")

    def test_tiny_offset_fails_origin_check(self):
        # l(0) must be 0 to 1e-12, so an offset of 1e-11 is already rejected
        offset = LossSpec("offset", value=lambda x: np.asarray(x, float) ** 2 + 1e-11,
                          deriv=lambda x: 2.0 * np.asarray(x, float))
        assert check_well_posed(offset) == ("l(0) = 1e-11 is not 0",)

    def test_nan_loss_fails_every_check(self):
        nan = LossSpec("nan", value=lambda x: np.full(np.shape(x), np.nan),
                       deriv=lambda x: np.full(np.shape(x), np.nan))
        assert len(check_well_posed(nan)) == 3


def _zero_net(i=2, h=3):
    return FFTNetParams(i, h, np.zeros((h, h)), np.zeros((h, h)), np.zeros(h), ZRELU)


class TestEmpiricalLoss:
    def test_zero_everything(self):
        data = Dataset(np.zeros((3, 2)), np.zeros(3))
        assert empirical_loss(_zero_net(), data, squared_loss()) == 0.0

    def test_zero_net_unit_labels(self):
        data = Dataset(np.zeros((2, 2)), np.array([1.0, -1.0]))
        assert empirical_loss(_zero_net(), data, squared_loss()) == pytest.approx(2.0)

    def test_matches_per_sample_loop(self, rng):
        h = 4
        p = FFTNetParams(2, h, rng.standard_normal((h, h)), rng.standard_normal((h, h)),
                         rng.standard_normal(h), HOLSIN)
        data = Dataset(rng.standard_normal((6, 2)), rng.standard_normal(6))
        spec = param_cosh_loss(1.2, 1.2, 0.8)
        # one sample at a time, summed in Python
        total = sum(float(spec.value(eval_fftnet_many(p, data.xs[i : i + 1])[0] - data.ys[i]))
                    for i in range(6))
        assert empirical_loss(p, data, spec) == pytest.approx(total, rel=1e-12)

    def test_nonnegative_and_zero_iff_interpolating(self, rng):
        h = 4
        p = FFTNetParams(2, h, rng.standard_normal((h, h)), rng.standard_normal((h, h)),
                         rng.standard_normal(h), HOLSIN)
        xs = rng.standard_normal((5, 2))
        ys = eval_fftnet_many(p, xs)
        data = Dataset(xs, ys)
        assert empirical_loss(p, data, squared_loss()) <= 1e-12
        bumped = Dataset(xs, ys + 0.1)
        assert empirical_loss(p, bumped, squared_loss()) > 0.0


class TestDataset:
    def test_shape_validation(self):
        # samples (n, I) with ys (n,), or sequences (B, T, I) with ys (B, T)
        for xs, ys in ((np.zeros(3), np.zeros(3)), (np.zeros((3, 2)), np.zeros(4)),
                       (np.zeros((3, 2)), np.zeros((3, 1))), (np.zeros((2, 4, 3)), np.zeros(2)),
                       (np.zeros((2, 4, 3)), np.zeros((2, 3))),
                       (np.zeros((2, 4, 3, 1)), np.zeros((2, 4, 3)))):
            with pytest.raises(ContractViolationError):
                Dataset(xs, ys)
        assert Dataset(np.zeros((2, 4, 3)), np.zeros((2, 4))).xs.shape == (2, 4, 3)

    def test_finite_validation(self):
        for xs, ys in ((np.array([[np.nan, 0.0]]), np.zeros(1)),
                       (np.full((2, 4, 3), np.inf), np.zeros((2, 4))),
                       (np.zeros((2, 4, 3)), np.full((2, 4), np.nan))):
            with pytest.raises(ContractViolationError):
                Dataset(xs, ys)


def test_loss_config_parsing():
    assert loss_spec_from_config({"loss": "squared"}).kind == "squared"
    spec = loss_spec_from_config({"loss": "param_cosh", "a": 2.0, "b": 2.0, "c": 0.5})
    assert "param_cosh" in spec.kind


def test_loss_deriv_scalar_api():
    # a spec's callables take a Python scalar as well as an array
    assert squared_loss().deriv(1.5) == pytest.approx(3.0)
    assert param_cosh_loss(1, 1, 1).deriv(0.0) == 0.0

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ftnetlab.activations import (
    CRELU,
    HOLEXPM1,
    HOLSIN,
    IDENTITY,
    RELU,
    TABLE,
    ZRELU,
    activation_from_tag,
    apply,
    jacobian_parts,
)
from ftnetlab.errors import ContractViolationError

ALL_KINDS = tuple(activation_from_tag(tag) for tag in TABLE)

# distance of z from where a piecewise kind has no derivative (modrelu at its
# bias -0.5); one entry per tag, so a new tag must say where it kinks
KINK_DISTANCE = {
    "zrelu": lambda z: np.minimum(np.abs(z.real), np.abs(z.imag)),
    "modrelu": lambda z: np.minimum(np.abs(z), np.abs(np.abs(z) - 0.5)),
    "crelu": lambda z: np.minimum(np.abs(z.real), np.abs(z.imag)),
    "holexpm1": lambda z: np.full(z.shape, np.inf),
    "holsin": lambda z: np.full(z.shape, np.inf),
    "relu": lambda z: np.abs(z.real),
    "identity": lambda z: np.full(z.shape, np.inf),
}


def _jacobian(kind, z) -> np.ndarray:
    """The 2x2 real Jacobian of the activation at the single point z."""
    return np.array([float(j) for j in jacobian_parts(kind, z)]).reshape(2, 2)


class TestGateActivation:
    def test_first_quadrant_passes(self):
        assert apply(ZRELU, 1 + 1j) == 1 + 1j

    def test_fourth_quadrant_gated(self):
        assert apply(ZRELU, 1 - 1j) == 0

    def test_third_quadrant_passes(self):
        assert apply(ZRELU, -1 - 1j) == -1 - 1j

    def test_axes_are_closed(self):
        # boundary phases belong to the pass set
        for z in (1.0 + 0j, 0 + 1j, -1.0 + 0j, 0 - 1j):
            assert apply(ZRELU, z) == z

    def test_origin(self):
        assert apply(ZRELU, 0j) == 0

    @settings(max_examples=200, deadline=None)
    @given(st.complex_numbers(allow_nan=False, allow_infinity=False, max_magnitude=1e6))
    @example(1e-200 - 1e-200j)
    @example(complex(-3.37670404469886e-293, 5.32997645458269e-169))
    def test_pass_iff_product_nonnegative(self, z):
        """The exact product, not the rounded one, which underflows to -0.0 at
        the two examples; the Jacobian's J11 reads the same gate."""
        passes = not ((z.real < 0 < z.imag) or (z.imag < 0 < z.real))
        assert apply(ZRELU, z) == (z if passes else 0)
        assert _jacobian(ZRELU, z)[0, 0] == float(passes)

    @pytest.mark.parametrize("z,passes", [(complex(np.inf, 0.0), True),
                                          (complex(-np.inf, 0.0), True),
                                          (complex(np.nan, 1.0), False),
                                          (complex(1.0, np.nan), False)])
    def test_non_finite_parts(self, z, passes):
        # the phase of inf + 0i is 0, where the rounded product inf * 0 is NaN;
        # NaN closes the gate
        assert apply(ZRELU, z) == (z if passes else 0)
        np.testing.assert_array_equal(_jacobian(ZRELU, z), np.eye(2) * passes)

    @settings(max_examples=100, deadline=None)
    @given(st.complex_numbers(allow_nan=False, allow_infinity=False, max_magnitude=1e6))
    def test_odd_symmetry(self, z):
        # the phase set is closed under z -> -z
        assert apply(ZRELU, -z) == -apply(ZRELU, z)


def test_all_kinds_map_zero_to_zero():
    for kind in ALL_KINDS:
        assert apply(kind, 0j) == 0


def test_holexpm1_at_zero():
    assert apply(HOLEXPM1, 0j) == 0


def test_holexpm1_value():
    assert apply(HOLEXPM1, 1 + 0j) == pytest.approx(np.e - 1)


def test_holsin_value():
    assert apply(HOLSIN, 0.5 + 0.25j) == pytest.approx(np.sin(0.5 + 0.25j))


def test_modrelu_shrinks_magnitude():
    k = activation_from_tag("modrelu")
    z = 2.0 + 0j
    assert apply(k, z) == pytest.approx(1.5 + 0j)
    assert apply(k, 0.25 + 0j) == 0  # |z| + b < 0
    assert apply(k, 0j) == 0


def test_crelu_componentwise():
    assert apply(CRELU, -1 + 2j) == 2j
    assert apply(CRELU, 3 - 2j) == 3 + 0j


def test_vectorized_apply(rng):
    z = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    out = apply(ZRELU, z)
    expected = np.where(z.real * z.imag >= 0, z, 0)
    np.testing.assert_array_equal(out, expected)


class TestInducedRestrictions:
    """The activation read along the line x + ci, where a feedforward construction
    puts the offset c, or along c + xi, where the recurrent additive net puts it."""

    def test_gate_real_arg_positive(self):
        assert apply(ZRELU, 0.5 + 1.0j).real == pytest.approx(0.5)

    def test_gate_real_arg_negative(self):
        assert apply(ZRELU, -0.5 + 1.0j).real == 0

    def test_gate_imag_arg(self):
        # Re of (1 + 0.5i), which passes the gate
        assert apply(ZRELU, 1.0 + 0.5j).real == pytest.approx(1.0)

    def test_imag_counterparts(self):
        assert apply(ZRELU, 0.5 + 1.0j).imag == pytest.approx(1.0)
        assert apply(ZRELU, 1.0 + 0.5j).imag == pytest.approx(0.5)

    def test_relu_recovered_from_gate(self):
        xs = np.linspace(-3, 3, 41)
        np.testing.assert_allclose(apply(ZRELU, xs + 1j * 1.0).real, np.maximum(xs, 0.0))
        np.testing.assert_allclose(apply(ZRELU, 1.0 + 1j * xs).imag, np.maximum(xs, 0.0))

    def test_holsin_restrictions(self):
        xs = np.linspace(-2, 2, 21)
        c = 0.7
        np.testing.assert_allclose(apply(HOLSIN, c + 1j * xs).real,
                                   np.sin(c) * np.cosh(xs), rtol=1e-12)
        np.testing.assert_allclose(apply(HOLSIN, c + 1j * xs).imag,
                                   np.cos(c) * np.sinh(xs), rtol=1e-12)


class TestSubgradient:
    def test_gate_pass_region(self):
        np.testing.assert_array_equal(_jacobian(ZRELU, 1 + 1j), np.eye(2))

    def test_gate_blocked_region(self):
        np.testing.assert_array_equal(_jacobian(ZRELU, 1 - 1j), np.zeros((2, 2)))

    def test_gate_boundary_uses_pass_value(self):
        np.testing.assert_array_equal(_jacobian(ZRELU, 1 + 0j), np.eye(2))

    def test_holexpm1_at_zero(self):
        np.testing.assert_allclose(_jacobian(HOLEXPM1, 0j), np.eye(2))

    def test_step_boundary_uses_pass_value(self):
        assert _jacobian(RELU, 0j)[0, 0] == 1.0
        np.testing.assert_array_equal(np.diag(_jacobian(CRELU, 0j)), [1.0, 1.0])

    def test_modrelu_boundary_uses_pass_value(self):
        # |z| = 0.5 is where |z| + bias reaches 0, the pass region's closed edge
        assert _jacobian(TABLE["modrelu"], 0.5 + 0j)[0, 0] == 1.0

    def test_cauchy_riemann_structure(self, rng):
        for kind in (HOLEXPM1, HOLSIN):
            z = complex(rng.standard_normal() + 1j * rng.standard_normal())
            j = _jacobian(kind, z)
            assert j[0, 0] == pytest.approx(j[1, 1])
            assert j[0, 1] == pytest.approx(-j[1, 0])

    @pytest.mark.parametrize("tag", list(TABLE))
    def test_matches_finite_differences(self, tag, rng):
        kind = activation_from_tag(tag)
        step = 1e-5
        pts = np.concatenate([
            20.0 * (rng.standard_normal(1000) + 1j * rng.standard_normal(1000)),
            rng.standard_normal(1000) + 1j * rng.standard_normal(1000)])
        pts = pts[(np.abs(pts) <= 50.0) & (KINK_DISTANCE[tag](pts) > 1e-3)]
        j = np.stack(jacobian_parts(kind, pts), axis=-1).reshape(-1, 2, 2)
        fd = np.empty_like(j)
        for col, dz in enumerate((step, 1j * step)):
            diff = (apply(kind, pts + dz) - apply(kind, pts - dz)) / (2 * step)
            fd[:, 0, col], fd[:, 1, col] = diff.real, diff.imag
        scale = np.maximum(np.maximum(np.abs(j), np.abs(fd)).max(axis=(1, 2)), 1.0)
        assert np.max(np.abs(j - fd).max(axis=(1, 2)) / scale) <= 1e-6


_DBL_MIN = 2.0**-1022
_EDGES = (0.0, -0.0, 5e-324, -5e-324, 2e-310, _DBL_MIN, -_DBL_MIN, np.nextafter(_DBL_MIN, 1.0))
# holsin's shared form takes these: finite real parts and |imaginary part| <= 700
_SHARED_RE = st.one_of(st.sampled_from(_EDGES), st.floats(-10.0, 10.0),
                       st.floats(-1e300, 1e300))
_SHARED_IM = st.one_of(st.sampled_from(_EDGES + (700.0, -700.0)), st.floats(-10.0, 10.0),
                       st.floats(-700.0, 700.0))
# and an array with one of these falls back to np.sin and np.cos
_FALLBACK_RE = st.sampled_from([np.inf, -np.inf, np.nan])
_FALLBACK_IM = st.one_of(st.sampled_from([np.inf, -np.inf, np.nan, 1e300]),
                         st.floats(700.0, 1e4, exclude_min=True),
                         st.floats(-1e4, -700.0, exclude_max=True))


def _same_bytes(got, want) -> bool:
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and got.dtype == want.dtype and got.tobytes() == want.tobytes()


class TestSharedDerivative:
    """A taped feedforward pass takes act'(z) from ``apply(..., derivative=True)``
    and hands it to ``jacobian_parts``; the model bytes rest on both giving
    exactly what the separate evaluations give."""

    @settings(max_examples=400, deadline=None)
    @given(parts=st.lists(st.tuples(_SHARED_RE, _SHARED_IM), min_size=1, max_size=40),
           fallback=st.one_of(st.none(), st.tuples(_FALLBACK_RE, _SHARED_IM),
                              st.tuples(_SHARED_RE, _FALLBACK_IM)))
    def test_holsin_matches_np_sin_and_cos_bitwise(self, parts, fallback):
        if fallback is not None:
            parts = parts + [fallback]
        z = np.array([complex(a, b) for a, b in parts])
        with np.errstate(all="ignore"):
            s, c = apply(HOLSIN, z, derivative=True)
            assert _same_bytes(s, np.sin(z)) and _same_bytes(c, np.cos(z))

    @pytest.mark.parametrize("re_scale, im_scale", [(1.0, 1.0), (30.0, 20.0), (1e6, 700.0),
                                                    (1e300, 700.0), (1e-300, 1e-300)])
    def test_holsin_matches_np_sin_and_cos_on_dense_draws(self, re_scale, im_scale):
        rng = np.random.default_rng(7)
        z = (re_scale * rng.uniform(-1.0, 1.0, (400, 50))
             + 1j * im_scale * rng.uniform(-1.0, 1.0, (400, 50)))
        # the split writes into its outputs in place: check a strided view and
        # an empty array too
        for w in (z, z[:, ::2], z[:0]):
            s, c = apply(HOLSIN, w, derivative=True)
            assert _same_bytes(s, np.sin(w)) and _same_bytes(c, np.cos(w))

    def test_holsin_split_stops_before_csin_changes_branch(self):
        """Above |Im z| = 709 glibc's csin no longer forms cosh b sin a + i sinh b cos a,
        so the split must fall back there."""
        z = np.array([0.3, 1.0, 2.5, -2.0]) + 709.5j
        for w in (z, z.conj()):
            s, c = apply(HOLSIN, w, derivative=True)
            assert _same_bytes(s, np.sin(w)) and _same_bytes(c, np.cos(w))

    @pytest.mark.parametrize("tag", list(TABLE))
    def test_value_and_jacobian_match_the_separate_calls(self, tag, rng):
        kind = activation_from_tag(tag)
        z = 2.0 * (rng.standard_normal((9, 4)) + 1j * rng.standard_normal((9, 4)))
        z[0, :4] = [0.0, 1.0, 1j, -1.0 + 0j]  # kinks and the origin
        value, d = apply(kind, z, derivative=True)
        assert _same_bytes(value, apply(kind, z))
        assert (d is None) == (TABLE[tag].value_and_derivative is None)
        for got, want in zip(jacobian_parts(kind, z, d), jacobian_parts(kind, z)):
            assert _same_bytes(got, want)

    def test_scalar_value_stays_a_python_complex(self):
        value, d = apply(HOLSIN, 0.5 + 0.25j, derivative=True)
        assert value == apply(HOLSIN, 0.5 + 0.25j) and isinstance(value, complex)
        assert complex(d) == complex(np.cos(0.5 + 0.25j))


def test_holsin_envelope_vouches_up_to_its_bound():
    zero = np.zeros(1)
    for edge in (2.0**20, -(2.0**20)):
        assert HOLSIN.real_envelope(np.array([edge]), zero) is not None
        assert HOLSIN.real_envelope(np.array([np.nextafter(edge, 2 * edge)]), zero) is None


def test_tag_round_trip():
    for kind in ALL_KINDS:
        assert activation_from_tag(kind.tag) == kind


@pytest.mark.parametrize("tag", list(TABLE))
def test_tag_gives_the_table_record(tag):
    kind = activation_from_tag(tag)
    assert kind is TABLE[tag] and kind.tag == tag


def test_modrelu_default_bias():
    """modrelu's bias is the constant -0.5: |z| = 0.5 is its kink."""
    k = activation_from_tag("modrelu")
    z = np.array([0.5, np.nextafter(0.5, 0.0), 0.3j, 4.0j, -2.0])
    np.testing.assert_array_equal(apply(k, z), [0.0, 0.0, 0.0, 3.5j, -1.5])


def test_unknown_tag_rejected():
    # a tag read from a model file may be any JSON value
    for tag in ("swish", ["holsin"], None, 3):
        with pytest.raises(ContractViolationError, match="unknown activation tag"):
            activation_from_tag(tag)


def test_holomorphy_flags():
    assert HOLEXPM1.holomorphic_nonpolynomial
    assert HOLSIN.holomorphic_nonpolynomial
    for kind in (ZRELU, CRELU, RELU, IDENTITY, activation_from_tag("modrelu")):
        assert not kind.holomorphic_nonpolynomial

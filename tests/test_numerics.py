import numpy as np
import pytest

from ftnetlab.errors import ContractViolationError, DegenerateInputError
from ftnetlab.numerics import RANK_TOLERANCE, null_vector_against, numerical_rank


def _check_null_vector(rows, keep):
    rows = np.asarray(rows, dtype=np.complex128)
    z = null_vector_against(rows, keep)
    assert z.dtype == np.complex128
    assert np.linalg.norm(z) == pytest.approx(1.0, abs=1e-12)
    assert abs(z @ rows[keep]) > 1e-10
    for j, u in enumerate(rows):
        if j == keep:
            continue
        bound = 1e-10 * np.linalg.norm(z) * max(np.linalg.norm(u), 1e-30)
        assert abs(z @ u) <= bound
    return z


def test_null_vector_standard_basis():
    z = _check_null_vector(np.eye(2), keep=0)
    # e1 up to phase
    assert abs(z[0]) == pytest.approx(1.0, abs=1e-12)
    assert abs(z[1]) <= 1e-12


def test_null_vector_overlapping_pair():
    _check_null_vector([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]], keep=1)


def test_null_vector_dependent_inputs(rng):
    """Rejected exactly when numerical_rank finds the rows dependent."""
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    cases = [
        (np.array([[1.0, 0.0], [2.0, 0.0]]), True),
        (rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2)), True),  # 3 rows in C^2
        (np.zeros((2, 3)), True),
        # sigma_min just below, then just above, RANK_TOLERANCE * sigma_max
        (np.diag([1.0, RANK_TOLERANCE * (1 - 1e-3)]) @ q[:2], True),
        (np.diag([1.0, RANK_TOLERANCE * (1 + 1e-3)]) @ q[:2], False),
    ]
    for rows, dependent in cases:
        assert (numerical_rank(rows.astype(np.complex128)) < len(rows)) == dependent
        if dependent:
            with pytest.raises(DegenerateInputError):
                null_vector_against(rows, keep=0)
        else:
            _check_null_vector(rows, keep=0)


def test_null_vector_random_instances(rng):
    for _ in range(30):
        n = int(rng.integers(2, 9))
        count = int(rng.integers(2, n + 1))
        rows = rng.standard_normal((count, n)) + 1j * rng.standard_normal((count, n))
        keep = int(rng.integers(0, count))
        _check_null_vector(rows, keep)


def test_null_vector_real_rows_take_the_complex_path(rng):
    # the descent probe passes real padded samples; they must give the same
    # bits as their complex cast, not LAPACK's real-path singular vectors
    rows = rng.standard_normal((3, 5))
    np.testing.assert_array_equal(null_vector_against(rows, 1),
                                  null_vector_against(rows.astype(np.complex128), 1))


def test_null_vector_keep_out_of_range():
    with pytest.raises(ContractViolationError):
        null_vector_against(np.array([[1.0, 0.0]]), keep=1)


@pytest.mark.parametrize("rows", [np.zeros((0, 2)), np.ones(2), np.ones((1, 2, 2))])
def test_null_vector_needs_a_stack_of_rows(rows):
    with pytest.raises(ContractViolationError):
        null_vector_against(rows, keep=0)


def test_numerical_rank(rng):
    a = rng.standard_normal((3, 5))
    assert numerical_rank(a) == 3
    assert numerical_rank(np.vstack([a, a[0]])) == 3
    assert numerical_rank(np.zeros((2, 2))) == 0

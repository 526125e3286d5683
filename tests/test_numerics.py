import numpy as np
import pytest

from ftnetlab.errors import ContractViolationError
from ftnetlab.numerics import null_vector_against, numerical_rank


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
    """Rejected when the kept row lies in the span of the others.  Whether the
    rows are independent at RANK_TOLERANCE is the caller's decision, made with
    numerical_rank (the descent probe's edge is tested in test_optimize)."""
    cases = [
        np.array([[1.0, 0.0], [2.0, 0.0]]),
        rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2)),  # 3 rows in C^2
        np.zeros((2, 3)),
    ]
    for rows in cases:
        with pytest.raises(ContractViolationError, match="kept vector lies in the span"):
            null_vector_against(rows, keep=0)


def test_null_vector_single_row(rng):
    # no other rows: the nullspace is all of C^n
    row = rng.standard_normal((1, 4)) + 1j * rng.standard_normal((1, 4))
    z = _check_null_vector(row, keep=0)
    np.testing.assert_allclose(z, np.conj(row[0]) / np.linalg.norm(row[0]), rtol=0, atol=1e-15)


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


@pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0), (3, 5)])
def test_numerical_rank_of_empty_and_zero_matrices(shape):
    assert numerical_rank(np.zeros(shape)) == 0
    assert numerical_rank(np.zeros(shape, dtype=np.complex128)) == 0

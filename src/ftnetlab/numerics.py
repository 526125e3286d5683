"""Rank tests and the bilinear-orthogonal vector of the descent probe.

Complex weights are plain ``complex128`` arrays; the real coordinates used
for training and perturbation bookkeeping are their ``.real``/``.imag``.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractViolationError, DegenerateInputError

RANK_TOLERANCE = 1e-8  # rank-revealing threshold, relative to sigma_max


def null_vector_against(rows, keep: int) -> np.ndarray:
    """Unit vector v with v^T rows[keep] != 0 and v^T rows[j] = 0 otherwise.

    ``rows`` is a 2-d stack of vectors in C^n (a real stack is read as
    complex).  The dot products are bilinear (no conjugation).  Raises
    DegenerateInputError when the rows are numerically dependent at the
    rank tolerance, in which case no such v is guaranteed to exist.
    """
    # cast before the SVDs: a real stack would take LAPACK's real path,
    # whose singular vectors differ from the complex path's
    a = np.asarray(rows, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] == 0:
        raise ContractViolationError(f"expected a non-empty stack of rows, got shape {a.shape}")
    count, n = a.shape
    if not 0 <= keep < count:
        raise ContractViolationError(f"keep index {keep} out of range [0, {count})")
    if numerical_rank(a) < count:
        raise DegenerateInputError("input vectors are numerically linearly dependent")

    others = np.delete(a, keep, axis=0)
    if others.shape[0] == 0:
        basis = np.eye(n, dtype=np.complex128)
    else:
        # right-singular vectors spanning the nullspace of `others`
        _, s, vh = np.linalg.svd(others)
        tol = max(others.shape) * np.finfo(np.float64).eps * (s[0] if s.size else 0.0)
        rank = int(np.sum(s > tol))
        basis = vh[rank:].conj().T
    # pick the nullspace combination with nonzero bilinear product against keep
    w = basis.T @ a[keep]
    if np.linalg.norm(w) == 0.0:
        raise DegenerateInputError("kept vector lies in the span of the others")
    v = basis @ np.conj(w)
    return v / np.linalg.norm(v)


def numerical_rank(rows: np.ndarray, tol: float = RANK_TOLERANCE) -> int:
    """Rank of a real/complex matrix with singular values below tol*sigma_max dropped."""
    rows = np.asarray(rows)
    if rows.size == 0:
        return 0
    sv = np.linalg.svd(rows, compute_uv=False)
    if sv[0] == 0.0:
        return 0
    return int(np.sum(sv > tol * sv[0]))

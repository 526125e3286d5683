"""Rank tests and the bilinear-orthogonal vector of the descent probe.

Complex weights are plain ``complex128`` arrays; the real coordinates used
for training and perturbation bookkeeping are their ``.real``/``.imag``.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractViolationError

RANK_TOLERANCE = 1e-8  # rank-revealing threshold, relative to sigma_max


def null_vector_against(rows, keep: int) -> np.ndarray:
    """Unit vector v with v^T rows[keep] != 0 and v^T rows[j] = 0 otherwise.

    ``rows`` is a 2-d stack of vectors in C^n (a real stack is read as
    complex).  The dot products are bilinear (no conjugation).  Such a v
    exists when the rows are linearly independent, which the caller decides
    with :func:`numerical_rank`.  Raises ContractViolationError when
    rows[keep] lies in the span of the others.
    """
    # cast before the SVD: a real stack would take LAPACK's real path,
    # whose singular vectors differ from the complex path's
    a = np.asarray(rows, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] == 0:
        raise ContractViolationError(f"expected a non-empty stack of rows, got shape {a.shape}")
    if not 0 <= keep < a.shape[0]:
        raise ContractViolationError(f"keep index {keep} out of range [0, {a.shape[0]})")

    # right-singular vectors spanning the nullspace of the other rows; with no
    # other rows the SVD has no singular values and vh is the identity
    others = np.delete(a, keep, axis=0)
    _, s, vh = np.linalg.svd(others)
    tol = max(others.shape) * np.finfo(np.float64).eps * s.max(initial=0.0)
    basis = vh[np.sum(s > tol):].conj().T
    # pick the nullspace combination with nonzero bilinear product against keep
    w = basis.T @ a[keep]
    if np.linalg.norm(w) == 0.0:
        raise ContractViolationError("kept vector lies in the span of the others")
    v = basis @ np.conj(w)
    return v / np.linalg.norm(v)


def numerical_rank(rows: np.ndarray) -> int:
    """Rank of a real/complex matrix with singular values at or below
    RANK_TOLERANCE * sigma_max dropped; 0 for an empty or a zero matrix."""
    sv = np.linalg.svd(rows, compute_uv=False)
    return int(np.sum(sv > RANK_TOLERANCE * sv.max(initial=0.0)))

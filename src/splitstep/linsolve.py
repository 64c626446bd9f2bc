"""Linear solves used inside the time steppers.

Two regimes are kept apart on purpose.  The per-step sweeps of the triangular
schemes only ever invert diagonal blocks, so those get per-block symmetric
positive definite factorizations reused across steps.  Full-space solves with
a general SPD block operator exist for the weighted scheme and for reference
computations, with an explicit backward-error check so a silently bad
factorization cannot poison a long run.

Every factorization is a Cholesky factor held in one type, ``SpdFactor``.
``factor_spd`` picks its storage from the matrix alone: matrices of order
below ``SPARSE_MIN_ORDER`` are factored dense, larger ones in LAPACK band
storage, with the unknowns in their natural order or in reverse
Cuthill-McKee order, whichever gives the narrower band.  The coupled
operator B + sigma*tau*A of the weighted scheme has bandwidth about m in its
natural block order and a few p after the reordering, so a step costs O(N)
once the factor exists.

The per-step solves skip LAPACK's scan of the right-hand side for non-finite
values (``check_finite=False``); ``schemes.run`` checks every new level
instead, and the full solve's backward-error test fails on a NaN residual.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp
from scipy.linalg import lapack

from .blockops import SPARSE_MIN_ORDER, BlockOperator, BlockVector, DimensionMismatchError


class NotPositiveDefiniteError(ValueError):
    """Cholesky factorization hit a non-positive pivot.

    ``pivot`` is the 1-based index of the failing leading minor, counted in
    the order the factorization used (see ``SpdFactor.perm``).
    """

    def __init__(self, message: str, pivot: int):
        super().__init__(message)
        self.pivot = pivot


class BlockStructureError(ValueError):
    """Operator has blocks on the wrong side of the diagonal for this sweep."""


class SolveFailureError(RuntimeError):
    """A linear solve did not reach the requested accuracy."""


@dataclass(frozen=True)
class SpdFactor:
    """Cholesky factor of a symmetric positive definite matrix.

    With ``bandwidth`` None, ``chol_lower`` holds the dense factor in its
    lower triangle.  Otherwise it is the factor in LAPACK lower band storage
    (``bandwidth + 1`` rows) of the matrix with rows and columns reordered by
    ``perm`` (None for the natural order).
    """

    chol_lower: np.ndarray
    bandwidth: Optional[int] = None
    perm: Optional[np.ndarray] = None

    def solve(self, rhs: np.ndarray, check_finite: bool = True) -> np.ndarray:
        rhs = np.asarray_chkfinite(rhs, dtype=float) if check_finite else np.asarray(rhs, dtype=float)
        if rhs.shape[:1] != self.chol_lower.shape[1:]:
            raise DimensionMismatchError(f"rhs length {rhs.shape[0]} != order {self.chol_lower.shape[1]}")
        # the LAPACK routines directly: scipy's cho_solve wrapper costs more
        # than the solve itself at the orders of the shipped problems
        if self.bandwidth is None:
            x, info = lapack.dpotrs(self.chol_lower, rhs, lower=1)
        elif self.perm is None:
            x, info = lapack.dpbtrs(self.chol_lower, rhs, lower=1)
        else:
            y, info = lapack.dpbtrs(self.chol_lower, rhs[self.perm], lower=1)
            x = np.empty_like(y)
            x[self.perm] = y
        if info != 0:
            raise ValueError(f"invalid argument {-info} to LAPACK solve")
        return x


def _check_pivot(info: int, context: str, routine: str, order: str = ""):
    if info > 0:
        raise NotPositiveDefiniteError(
            f"{context}: not positive definite, leading minor {info}{order} is not positive", pivot=info
        )
    if info < 0:
        raise ValueError(f"{context}: invalid argument {-info} to {routine}")


def _bandwidth(rows: np.ndarray, cols: np.ndarray) -> int:
    return int(np.abs(rows - cols).max()) if rows.size else 0


def _factor_banded(matrix, context: str) -> SpdFactor:
    csr = sp.csr_array(matrix)
    csr.sum_duplicates()
    n = csr.shape[0]
    rows = np.repeat(np.arange(n), np.diff(csr.indptr))
    cols, vals = csr.indices, csr.data
    kd = _bandwidth(rows, cols)
    perm = None
    # a bandwidth of 0 or 1 cannot be narrowed by any reordering
    if kd > 1:
        # imported here: only large matrices need it, and importing csgraph
        # adds about 1 MB to every process
        from scipy.sparse.csgraph import reverse_cuthill_mckee

        order = reverse_cuthill_mckee(csr, symmetric_mode=True)
        position = np.empty(n, dtype=np.intp)
        position[order] = np.arange(n)
        kd_rcm = _bandwidth(position[rows], position[cols])
        if kd_rcm < kd:
            perm, kd = order, kd_rcm
            rows, cols = position[rows], position[cols]
    lower = rows >= cols
    band = np.zeros((kd + 1, n))
    band[rows[lower] - cols[lower], cols[lower]] = vals[lower]
    chol, info = lapack.dpbtrf(band, lower=1)
    _check_pivot(info, context, "dpbtrf", " (reverse Cuthill-McKee order)" if perm is not None else "")
    return SpdFactor(chol_lower=chol, bandwidth=kd, perm=perm)


def factor_spd(matrix, context: str = "matrix") -> SpdFactor:
    """Factor one SPD matrix for repeated solves.

    ``matrix`` may be a dense array, a sparse array, or a ``BlockOperator``.
    Only its lower triangle is read.  Orders below ``SPARSE_MIN_ORDER`` get a
    dense factor, larger ones a band factor.  A non-positive pivot raises
    ``NotPositiveDefiniteError`` with the 1-based pivot index.
    """
    if isinstance(matrix, BlockOperator):
        small = matrix.dims.total < SPARSE_MIN_ORDER
        matrix = matrix.to_dense() if small else matrix.to_sparse()
    shape = matrix.shape if sp.issparse(matrix) else np.shape(matrix)
    if len(shape) != 2 or shape[0] != shape[1]:
        raise DimensionMismatchError(f"{context}: expected a square matrix, got shape {shape}")
    if shape[0] >= SPARSE_MIN_ORDER:
        return _factor_banded(matrix, context)
    dense = matrix.toarray() if sp.issparse(matrix) else np.asarray(matrix, dtype=float)
    c, info = lapack.dpotrf(dense, lower=1)
    _check_pivot(info, context, "dpotrf")
    return SpdFactor(chol_lower=c)


@dataclass(frozen=True)
class DiagFactorization:
    """Per-component factorizations of the diagonal blocks of an operator."""

    dims: "BlockOperator.dims"
    factors: tuple[SpdFactor, ...]

    @classmethod
    def from_operator(cls, M: BlockOperator) -> "DiagFactorization":
        factors = []
        for a in range(M.dims.p):
            blk = M.block(a, a)
            if blk is None:
                raise NotPositiveDefiniteError(
                    f"diagonal block ({a + 1},{a + 1}) is absent, cannot factor", pivot=1
                )
            factors.append(factor_spd(blk, context=f"diagonal block ({a + 1},{a + 1})"))
        return cls(dims=M.dims, factors=tuple(factors))

    def solve_block(self, a: int, rhs: np.ndarray) -> np.ndarray:
        return self.factors[a].solve(rhs, check_finite=False)


def _substitute(T: BlockOperator, rhs: BlockVector, diag: DiagFactorization, order: range) -> BlockVector:
    """Block substitution in the given component order: each component's
    right-hand side loses the blocks of the components already solved."""
    if T.dims.sizes != rhs.dims.sizes:
        raise DimensionMismatchError(f"dims {T.dims.sizes} != {rhs.dims.sizes}")
    off = T.dims.offsets
    b = rhs.to_flat()
    x = np.empty_like(b)
    for i, a in enumerate(order):
        acc = b[off[a] : off[a + 1]]
        for c in order[:i]:
            blk = T.blocks.get((a, c))
            if blk is not None:
                acc = acc - blk @ x[off[c] : off[c + 1]]
        x[off[a] : off[a + 1]] = diag.solve_block(a, acc)
    return BlockVector(T.dims, x)


def solve_block_lower(L: BlockOperator, rhs: BlockVector, diag: DiagFactorization) -> BlockVector:
    """Forward substitution for a block lower triangular operator."""
    if not L.is_block_lower():
        raise BlockStructureError("operator has blocks above the diagonal, not lower triangular")
    return _substitute(L, rhs, diag, range(L.dims.p))


def solve_block_upper(U: BlockOperator, rhs: BlockVector, diag: DiagFactorization) -> BlockVector:
    """Backward substitution for a block upper triangular operator."""
    if not U.is_block_upper():
        raise BlockStructureError("operator has blocks below the diagonal, not upper triangular")
    return _substitute(U, rhs, diag, range(U.dims.p - 1, -1, -1))


def solve_spd_full(
    M: BlockOperator,
    rhs: BlockVector,
    factor: Optional[SpdFactor] = None,
    norm_inf: Optional[float] = None,
    backward_tol: float = 1e-11,
) -> BlockVector:
    """Solve M x = rhs for a full SPD block operator via one factorization.

    The solve is accepted only if its normwise backward error is small:
    |M x - rhs| <= backward_tol * (|M| |x| + |rhs|) in the infinity norm.
    Otherwise, or if the residual is not a number, it raises rather than
    returning a quietly wrong vector.  ``norm_inf`` is |M| in the infinity
    norm; pass it when solving repeatedly with one operator.
    """
    if M.dims.sizes != rhs.dims.sizes:
        raise DimensionMismatchError(f"dims {M.dims.sizes} != {rhs.dims.sizes}")
    if factor is None:
        factor = factor_spd(M, context="full operator")
    if norm_inf is None:
        norm_inf = M.norm_inf()
    b = rhs.to_flat()
    out = BlockVector(M.dims, factor.solve(b, check_finite=False))
    x = out.to_flat()
    # measure against the operator, not the factor, so a stale or mismatched
    # factorization is caught and not just LAPACK breakage
    residual = float(np.abs(M.apply(out).to_flat() - b).max())
    bound = backward_tol * (norm_inf * float(np.abs(x).max()) + float(np.abs(b).max()))
    if not residual <= bound:
        raise SolveFailureError(
            f"full solve residual {residual:.3e} exceeds {backward_tol:.1e} * (|M| |x| + |rhs|) = {bound:.3e}"
        )
    return out

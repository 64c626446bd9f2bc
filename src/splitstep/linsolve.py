"""Linear solves used inside the time steppers.

Two regimes are kept apart on purpose.  The per-step sweeps of the triangular
schemes only ever invert diagonal blocks, so those get per-block symmetric
positive definite factorizations reused across steps.  Full-space solves with
a general SPD block operator exist for the weighted scheme (and the reference
stepping built on it); they take the one factor prepared per configuration
and never factor on their own, with an explicit backward-error check so a
silently bad factorization cannot poison a long run.

Every factorization is held in one type, ``SpdFactor``: a Cholesky factor,
or an LDL^T factor when the matrix is tridiagonal.  ``factor_spd`` is the one
place that chooses it, from the structure of the matrix.  A sparse matrix of
bandwidth 0 or 1 in its natural order (every diagonal block of the 1-D
problems) gets LAPACK's tridiagonal LDL^T routines (``dpttrf``/``dpttrs``) at
every order, D and the subdiagonal read straight from its CSR arrays; LDL^T
without pivoting is backward stable for SPD tridiagonal matrices (Higham,
Accuracy and Stability of Numerical Algorithms, 2nd ed., ch. 9).  Any other
matrix of order below ``SPARSE_MIN_ORDER`` is densified and gets a dense
Cholesky factor.  From that order up it is factored in LAPACK band storage,
with the unknowns in their natural order or in reverse Cuthill-McKee order,
whichever gives the narrower band: LDL^T when that band is tridiagonal, the
band Cholesky routines (``dpbtrf``/``dpbtrs``) otherwise.  The coupled
operator B + sigma*tau*A of the weighted scheme has bandwidth about m in its
natural block order and a few p after the reordering, so a step costs O(N)
once the factor exists.  Nothing is written to the matrix factored.

Solves go through kernels bound once: a factor binds its LAPACK routine when
it is made and, called on an array, solves into a new one.  A sweep
(``DiagFactorization.sweep``, bound and checked once per run) loops over rows
of one ``blockops.Product`` with the row strip (``BlockOperator.row_strips``):
it writes each row's right-hand side into the row's slice of the result and
solves it there, so a row is one product, one subtraction and one LAPACK call.
The public solves check the right-hand side and never write it.  LAPACK's
``info`` and the backward-error test run on every call; nothing scans for
non-finite values, as ``schemes.run`` checks every new level and NaN fails
the test.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp
from scipy.linalg import lapack
from scipy.sparse import _sparsetools

from .blockops import (
    BlockDims,
    BlockOperator,
    BlockVector,
    DimensionMismatchError,
    Product,
    _canonical_copy,
    _check_same_dims,
    _csr_rows,
)

# Tridiagonal sparse matrices take LDL^T at every order: from order 31 to 127 its
# solve is 2-8 times faster than dense Cholesky's (timings in the README).  Any other
# matrix of this order and above is factored banded; a smaller one is densified and
# factored dense, which pays for itself in set-up and memory, not in solves: timeit
# minima on one core of a shared 2-core Xeon (OpenBLAS 0.3.31, scipy 1.17.1) at
# p = 2, m = 31, C = B + tau/2 A (N = 62) factors in 29 us dense against 76 us banded
# and solves in 3.5 us against 3.2 us.  Banded at every order, the weighted scheme
# ran 6-10% slower on the shipped configs (bench/run.py), took 3 MB more memory
# (scipy.sparse.csgraph) and moved at rounding level.  Above this order the band wins
# at every bandwidth (n = 1024, bandwidth n - 1: 15 ms against 22 ms to factor,
# 0.36 ms against 0.9 ms to solve).
SPARSE_MIN_ORDER = 128

# Normwise backward error that ``solve_spd_full`` accepts.
_BACKWARD_TOL = 1e-11


class NotPositiveDefiniteError(ValueError):
    """A Cholesky or LDL^T factorization hit a non-positive pivot.

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
    """Factor of a symmetric positive definite matrix.

    With ``bandwidth`` None, ``chol_lower`` holds the dense Cholesky factor in
    its lower triangle.  Otherwise it factors the matrix with rows and
    columns reordered by ``perm`` (None for the natural order): for a
    bandwidth of 0 or 1 it holds the LDL^T factor, D in row 0 and the
    subdiagonal of the unit L in row 1 (its last entry unused), and for a
    wider band the Cholesky factor in LAPACK lower band storage
    (``bandwidth + 1`` rows).  Its LAPACK solve is bound when it is made;
    called, it solves into a new array with LAPACK's checks alone.
    """

    chol_lower: np.ndarray
    bandwidth: Optional[int] = None
    perm: Optional[np.ndarray] = None
    _lapack: Callable = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # (b, overwrite_b) -> (x, info) with the factor bound and every argument
        # positional: scipy's cho_solve wrapper, or keywords, cost more than the
        # solve itself at the shipped orders
        c = self.chol_lower
        if self.bandwidth is None:
            kernel = partial(_dpotrs_lower, c)
        elif self.bandwidth <= 1:
            kernel = partial(lapack.dpttrs, c[0], _subdiagonal(c))
        else:
            kernel = partial(_dpbtrs_lower, c, c.shape[0])
        object.__setattr__(self, "_lapack", kernel)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        rhs = np.asarray_chkfinite(rhs, dtype=float)
        if rhs.shape[:1] != self.chol_lower.shape[1:]:
            raise DimensionMismatchError(f"rhs length {rhs.shape[0]} != order {self.chol_lower.shape[1]}")
        return self(rhs)

    def __call__(self, rhs: np.ndarray) -> np.ndarray:
        if self.perm is None:
            return self._run(rhs, 0)
        x = np.empty(rhs.shape)
        x[self.perm] = self._run(rhs[self.perm], 1)
        return x

    def _solve_in_place(self, b: np.ndarray) -> None:
        """Overwrite ``b``, a contiguous float64 vector of the factor's order, with the
        solution; LAPACK solves it where it lies (a permuted factor solves a gathered copy)."""
        if self.perm is not None:
            b[self.perm] = self._run(b[self.perm], 1)
        elif self._run(b, 1) is not b:
            raise SolveFailureError("LAPACK did not solve the right-hand side in place")

    def _run(self, b: np.ndarray, overwrite: int) -> np.ndarray:
        x, info = self._lapack(b, overwrite)
        if info != 0:
            raise ValueError(f"invalid argument {-info} to LAPACK solve")
        return x


def _dpotrs_lower(c, b, overwrite):
    return lapack.dpotrs(c, b, 1, overwrite)


def _dpbtrs_lower(ab, ldab, b, overwrite):
    return lapack.dpbtrs(ab, b, 1, ldab, overwrite)


def _subdiagonal(band: np.ndarray) -> np.ndarray:
    # scipy's dpttrf/dpttrs wrappers reject an empty subdiagonal, so order 1
    # passes the unused entry, which LAPACK does not read
    return band[1, : max(band.shape[1] - 1, 1)]


def _check_pivot(info: int, context: str, routine: str, order: str = ""):
    if info > 0:
        raise NotPositiveDefiniteError(
            f"{context}: not positive definite, leading minor {info}{order} is not positive", pivot=info
        )
    if info < 0:
        raise ValueError(f"{context}: invalid argument {-info} to {routine}")


def _bandwidth(rows: np.ndarray, cols: np.ndarray) -> int:
    return int(np.abs(rows - cols).max()) if rows.size else 0


def _canonical(matrix):
    """A sparse matrix as float64 CSR with sorted rows and no duplicates, never
    written to: a matrix already in that form as it is, any other as a copy."""
    if (
        matrix.format == "csr"
        and matrix.dtype == np.float64
        and _sparsetools.csr_has_canonical_format(matrix.shape[0], matrix.indptr, matrix.indices)
    ):
        return matrix
    return _canonical_copy(matrix)


def _factor_tridiagonal(csr, kd: int, context: str) -> SpdFactor:
    """LDL^T of a canonical CSR matrix of bandwidth kd <= 1 in its natural order:
    D and the subdiagonal read from its arrays by scipy's ``csr_diagonal`` kernel."""
    n = csr.shape[0]
    band = np.zeros((2, n))
    for k in (0, -1):
        _sparsetools.csr_diagonal(k, n, n, csr.indptr, csr.indices, csr.data, band[-k, : n + k])
    return _ldlt(band, kd, None, context)


def _ldlt(band: np.ndarray, kd: int, perm, context: str) -> SpdFactor:
    """LDL^T by dpttrf of D (``band[0]``) and the subdiagonal (``band[1]``), stored back in ``band``."""
    d, e, info = lapack.dpttrf(band[0], _subdiagonal(band))
    _check_pivot(info, context, "dpttrf", " (reverse Cuthill-McKee order)" if perm is not None else "")
    band[0], band[1, : e.size] = d, e
    return SpdFactor(chol_lower=band, bandwidth=kd, perm=perm)


def _factor_banded(csr, rows: np.ndarray, kd: int, context: str) -> SpdFactor:
    """The band factor of a canonical CSR matrix of natural bandwidth kd > 1, its
    unknowns in reverse Cuthill-McKee order where that gives a narrower band."""
    # imported here: only large matrices need it, and importing csgraph
    # adds about 1 MB to every process
    from scipy.sparse.csgraph import reverse_cuthill_mckee

    n, cols, vals = csr.shape[0], csr.indices, csr.data
    order = reverse_cuthill_mckee(csr, symmetric_mode=True)
    position = np.empty(n, dtype=np.intp)
    position[order] = np.arange(n)
    kd_rcm = _bandwidth(position[rows], position[cols])
    perm = None
    if kd_rcm < kd:
        perm, kd = order, kd_rcm
        rows, cols = position[rows], position[cols]
    lower = rows >= cols
    band = np.zeros((max(kd, 1) + 1, n))
    band[rows[lower] - cols[lower], cols[lower]] = vals[lower]
    # a reordering can leave a tridiagonal band
    if kd <= 1:
        return _ldlt(band, kd, perm, context)
    chol, info = lapack.dpbtrf(band, lower=1)
    _check_pivot(info, context, "dpbtrf", " (reverse Cuthill-McKee order)" if perm is not None else "")
    return SpdFactor(chol_lower=chol, bandwidth=kd, perm=perm)


def factor_spd(matrix, context: str = "matrix") -> SpdFactor:
    """Factor one SPD matrix for repeated solves.

    ``matrix`` may be a dense array, a sparse array, or a ``BlockOperator``.
    Only its lower triangle is read, and nothing of it is written.  The
    factor follows the structure: a sparse matrix of bandwidth 0 or 1 in its
    natural order gets LDL^T at every order.  Below ``SPARSE_MIN_ORDER`` any
    other matrix is densified (a ``BlockOperator`` block by block, as is every
    ``BlockOperator`` there) and gets a dense Cholesky factor.  From that order
    up it is factored banded, its unknowns in reverse Cuthill-McKee order where
    that narrows the band, LDL^T when the band is then tridiagonal.  A
    non-positive pivot raises ``NotPositiveDefiniteError`` with the 1-based
    pivot index.
    """
    if isinstance(matrix, BlockOperator):
        # the operator's own CSR matrix, which nothing here writes
        matrix = matrix.to_dense() if matrix.dims.total < SPARSE_MIN_ORDER else matrix._matrix
    shape = matrix.shape if sp.issparse(matrix) else np.shape(matrix)
    if len(shape) != 2 or shape[0] != shape[1]:
        raise DimensionMismatchError(f"{context}: expected a square matrix, got shape {shape}")
    n = shape[0]
    if not sp.issparse(matrix) and n >= SPARSE_MIN_ORDER:
        matrix = sp.csr_array(np.asarray(matrix, dtype=float))
    if sp.issparse(matrix):
        csr = _canonical(matrix)
        rows = _csr_rows(csr)
        kd = _bandwidth(rows, csr.indices)
        if kd <= 1:
            return _factor_tridiagonal(csr, kd, context)
        if n >= SPARSE_MIN_ORDER:
            return _factor_banded(csr, rows, kd, context)
        matrix = csr.toarray()
    c, info = lapack.dpotrf(np.asarray(matrix, dtype=float), lower=1)
    _check_pivot(info, context, "dpotrf")
    return SpdFactor(chol_lower=c)


@dataclass(frozen=True)
class DiagFactorization:
    """Per-component factorizations of the diagonal blocks of an operator, with the
    blocks they were made from."""

    dims: BlockDims
    factors: tuple[SpdFactor, ...]
    blocks: tuple = field(repr=False, compare=False)
    _sweeps: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @classmethod
    def from_operator(cls, M: BlockOperator) -> "DiagFactorization":
        blocks = tuple(M.block(a, a) for a in range(M.dims.p))
        factors = []
        for a, blk in enumerate(blocks):
            if blk is None:
                raise NotPositiveDefiniteError(
                    f"diagonal block ({a + 1},{a + 1}) is absent, cannot factor", pivot=1
                )
            factors.append(factor_spd(blk, context=f"diagonal block ({a + 1},{a + 1})"))
        return cls(dims=M.dims, factors=tuple(factors), blocks=blocks)

    def sweep(self, T: BlockOperator, descending: bool) -> Callable[[np.ndarray], np.ndarray]:
        """The sweep with T and these factors on flat arrays, bound on first use and kept
        (an entry holds T, so no other operator takes its id)."""
        held = self._sweeps.get((id(T), descending))
        if held is None:
            held = self._sweeps[(id(T), descending)] = (T, _bind_sweep(T, self, descending))
        return held[1]


def _same_block(block, made_from) -> bool:
    """Whether ``block`` (or None) holds the matrix of the canonical CSR ``made_from``, entry for entry."""
    return block is made_from or (
        block is not None
        and block.shape == made_from.shape
        and all(np.array_equal(getattr(block, k), getattr(made_from, k)) for k in ("indptr", "indices", "data"))
    )


def _bind_sweep(T: BlockOperator, diag: DiagFactorization, descending: bool) -> Callable[[np.ndarray], np.ndarray]:
    """Block substitution, ascending for a block lower T, descending for an upper one:
    each component's right-hand side loses one product, its row strip times the
    components already solved, and is solved where it lies in the result.  T's
    structure, and that each factor was made from T's own diagonal block (a split
    pair's halves hold equal ones), are checked here, once."""
    if not (T.is_block_upper() if descending else T.is_block_lower()):
        wrong, kind = ("below", "upper") if descending else ("above", "lower")
        raise BlockStructureError(f"operator has blocks {wrong} the diagonal, not {kind} triangular")
    if diag.dims.sizes != T.dims.sizes:
        raise DimensionMismatchError(f"diagonal factors for dims {diag.dims.sizes} != operator dims {T.dims.sizes}")
    for a, made_from in enumerate(diag.blocks):
        if not _same_block(T.block(a, a), made_from):
            raise ValueError(f"diagonal factor ({a + 1},{a + 1}) was not made from this operator's diagonal block")
    off, n, rows = T.dims.offsets, T.dims.total, []
    for a in range(T.dims.p - 1, -1, -1) if descending else range(T.dims.p):
        start, stop, strip = T.row_strips[a] or (0, 0, None)
        rows.append((off[a], off[a + 1], start, stop, None if strip is None else Product(strip), diag.factors[a]))

    def sweep(b: np.ndarray) -> np.ndarray:
        x = np.empty(n)
        for lo, hi, start, stop, product, factor in rows:
            out = x[lo:hi]
            if product is None:
                out[:] = b[lo:hi]
            else:
                np.subtract(b[lo:hi], product(x[start:stop]), out=out)
            factor._solve_in_place(out)
        return x

    return sweep


def solve_block_lower(L: BlockOperator, rhs: BlockVector, diag: DiagFactorization) -> BlockVector:
    """Forward substitution for a block lower triangular operator."""
    _check_same_dims(L.dims, rhs.dims)
    return BlockVector._own(L.dims, diag.sweep(L, False)(rhs.to_flat()))


def solve_block_upper(U: BlockOperator, rhs: BlockVector, diag: DiagFactorization) -> BlockVector:
    """Backward substitution for a block upper triangular operator."""
    _check_same_dims(U.dims, rhs.dims)
    return BlockVector._own(U.dims, diag.sweep(U, True)(rhs.to_flat()))


def solve_spd_full(M: BlockOperator, rhs: BlockVector, factor: SpdFactor) -> BlockVector:
    """Solve M x = rhs for a full SPD block operator with its factor.

    The solve is accepted only if its normwise backward error is small:
    |M x - rhs| <= 1e-11 * (|M| |x| + |rhs|) in the infinity norm, with |M|
    the norm the frozen operator caches.  Otherwise, or if the residual is
    not a number, it raises rather than returning a quietly wrong vector.
    """
    _check_same_dims(M.dims, rhs.dims)
    b = rhs.to_flat()
    if factor.chol_lower.shape[1] != b.shape[0]:
        raise DimensionMismatchError(f"rhs length {b.shape[0]} != order {factor.chol_lower.shape[1]}")
    x = factor(b)
    # measure against the operator, not the factor, so a stale or mismatched
    # factorization is caught and not just LAPACK breakage
    residual = float(np.abs(M.product(x) - b).max())
    bound = _BACKWARD_TOL * (M.norm_inf() * float(np.abs(x).max()) + float(np.abs(b).max()))
    if not residual <= bound:
        raise SolveFailureError(
            f"full solve residual {residual:.3e} exceeds {_BACKWARD_TOL:.1e} * (|M| |x| + |rhs|) = {bound:.3e}"
        )
    return BlockVector._own(M.dims, x)

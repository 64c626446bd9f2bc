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
place that chooses the storage, from the order of the matrix alone.  Blocks
and operators arrive as CSR at every order; matrices of order below
``SPARSE_MIN_ORDER`` are densified and factored dense, larger ones are
factored in LAPACK band storage, with the unknowns in their natural order or
in reverse Cuthill-McKee order, whichever gives the narrower band.  A band of
width 0 or 1 gets LAPACK's tridiagonal LDL^T routines (``dpttrf``/``dpttrs``),
wider bands the band Cholesky routines (``dpbtrf``/``dpbtrs``).  The coupled
operator B + sigma*tau*A of the weighted scheme has bandwidth about m in its
natural block order and a few p after the reordering, so a step costs O(N)
once the factor exists; the diagonal blocks of the 1-D problems are
tridiagonal.

Solves go through kernels bound once: a factor called on a flat array runs its
one LAPACK routine, and a sweep (``DiagFactorization.sweep``, bound and checked
once per run) loops over rows of one ``blockops.Product`` with the row strip
(``BlockOperator.row_strips``), one subtraction and one factor.  The public
solves check the right-hand side and call the same kernels.  LAPACK's ``info``
and the backward-error test run on every call; nothing scans for non-finite
values, as ``schemes.run`` checks every new level and NaN fails the test.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp
from scipy.linalg import lapack

from .blockops import BlockDims, BlockOperator, BlockVector, DimensionMismatchError, Product, _check_same_dims

# Matrices of this order and above are factored banded; smaller ones are
# densified and factored dense, where band storage costs more in call
# overhead than it saves.  Measured on one core of a shared 2-core Xeon
# (OpenBLAS 0.3.31, scipy 1.17.1) for tridiagonal matrices: a banded solve
# beats ``cho_solve`` at every order from 16 up (2.4 us against 15 us at
# n = 62), but building the band storage and factoring costs 50-80 us against
# 25 us for a dense factor at n = 62; the two factorizations cost the same
# near n = 127.  Above this order the band wins for every bandwidth: at
# n = 1024 with bandwidth n - 1 it still factors in 15 ms against 22 ms dense
# and solves in 0.36 ms against 0.9 ms.  So the bandwidth only chooses the
# ordering, never the dense path.  Keeping small matrices dense also keeps
# the N = 62 problems bit-for-bit on the dense LAPACK path the test oracles
# use.
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
    (``bandwidth + 1`` rows).  Called, it solves with LAPACK's checks alone.
    """

    chol_lower: np.ndarray
    bandwidth: Optional[int] = None
    perm: Optional[np.ndarray] = None

    def solve(self, rhs: np.ndarray, check_finite: bool = True) -> np.ndarray:
        rhs = np.asarray_chkfinite(rhs, dtype=float) if check_finite else np.asarray(rhs, dtype=float)
        if rhs.shape[:1] != self.chol_lower.shape[1:]:
            raise DimensionMismatchError(f"rhs length {rhs.shape[0]} != order {self.chol_lower.shape[1]}")
        return self(rhs)

    def __call__(self, rhs: np.ndarray) -> np.ndarray:
        # the LAPACK routines directly, arguments positional: scipy's cho_solve
        # wrapper costs more than the solve itself at the shipped orders
        if self.bandwidth is None:
            x, info = lapack.dpotrs(self.chol_lower, rhs, 1)
        else:
            b = rhs if self.perm is None else rhs[self.perm]
            if self.bandwidth <= 1:
                x, info = lapack.dpttrs(self.chol_lower[0], self.chol_lower[1, :-1], b)
            else:
                x, info = lapack.dpbtrs(self.chol_lower, b, 1)
            if self.perm is not None:
                y, x = x, np.empty_like(x)
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
    band = np.zeros((max(kd, 1) + 1, n))
    band[rows[lower] - cols[lower], cols[lower]] = vals[lower]
    in_order = " (reverse Cuthill-McKee order)" if perm is not None else ""
    if kd > 1:
        chol, info = lapack.dpbtrf(band, lower=1)
        _check_pivot(info, context, "dpbtrf", in_order)
        return SpdFactor(chol_lower=chol, bandwidth=kd, perm=perm)
    # tridiagonal: the LDL^T solve takes about 40% of the time of the band
    # Cholesky solve, about 9 us against 22 us at order 1000 on the machine
    # of the crossover measurements above
    d, e, info = lapack.dpttrf(band[0], band[1, :-1])
    _check_pivot(info, context, "dpttrf", in_order)
    band[0], band[1, :-1] = d, e
    return SpdFactor(chol_lower=band, bandwidth=kd, perm=perm)


def factor_spd(matrix, context: str = "matrix") -> SpdFactor:
    """Factor one SPD matrix for repeated solves.

    ``matrix`` may be a dense array, a sparse array, or a ``BlockOperator``,
    densified block by block below ``SPARSE_MIN_ORDER`` and otherwise
    factored from its whole CSR matrix.  Only its lower triangle is read.
    Orders below ``SPARSE_MIN_ORDER`` are densified and get a dense factor,
    larger ones a band factor, LDL^T when the band is tridiagonal after any
    reordering.  A non-positive pivot raises ``NotPositiveDefiniteError``
    with the 1-based pivot index.
    """
    if isinstance(matrix, BlockOperator):
        matrix = matrix.to_dense() if matrix.dims.total < SPARSE_MIN_ORDER else matrix.to_sparse()
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

    dims: BlockDims
    factors: tuple[SpdFactor, ...]
    _sweeps: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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

    def sweep(self, T: BlockOperator, descending: bool) -> Callable[[np.ndarray], np.ndarray]:
        """The sweep with T and these factors on flat arrays, bound on first use and kept
        (an entry holds T, so no other operator takes its id)."""
        held = self._sweeps.get((id(T), descending))
        if held is None:
            held = self._sweeps[(id(T), descending)] = (T, _bind_sweep(T, self, descending))
        return held[1]


def _bind_sweep(T: BlockOperator, diag: DiagFactorization, descending: bool) -> Callable[[np.ndarray], np.ndarray]:
    """Block substitution, ascending for a block lower T, descending for an upper one:
    each component's right-hand side loses one product, its row strip times the
    components already solved.  T's structure, and that the factors are T's (or a wrong
    or missing one would go unnoticed), are checked here, once."""
    if not (T.is_block_upper() if descending else T.is_block_lower()):
        wrong, kind = ("below", "upper") if descending else ("above", "lower")
        raise BlockStructureError(f"operator has blocks {wrong} the diagonal, not {kind} triangular")
    if diag.dims.sizes != T.dims.sizes:
        raise DimensionMismatchError(f"diagonal factors for dims {diag.dims.sizes} != operator dims {T.dims.sizes}")
    off, n, rows = T.dims.offsets, T.dims.total, []
    for a in range(T.dims.p - 1, -1, -1) if descending else range(T.dims.p):
        start, stop, strip = T.row_strips[a] or (0, 0, None)
        rows.append((off[a], off[a + 1], start, stop, None if strip is None else Product(strip), diag.factors[a]))

    def sweep(b: np.ndarray) -> np.ndarray:
        x = np.empty(n)
        for lo, hi, start, stop, product, solve in rows:
            acc = b[lo:hi]
            if product is not None:
                acc = acc - product(x[start:stop])
            x[lo:hi] = solve(acc)
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

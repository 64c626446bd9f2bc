"""Block vector and block operator algebra on a direct sum of component spaces.

A point in the state space is one contiguous read-only array of length
``n_1 + ... + n_p``, the components stored one after another in the order of
``sizes = (n_1, ..., n_p)``; ``BlockVector.parts`` gives per-component views
of it.  Linear operators are p-by-p grids of matrix blocks; a missing block
acts as an exact zero.  Every block is stored as a float64 CSR sparse array,
whatever it was given as.  The schemes only ever invert the diagonal blocks,
which is why the blockwise structure is kept explicit; everything that acts
on the whole space (``apply``, norms, the symmetry defect) goes through one
CSR matrix that each operator assembles once, while densification goes
block by block.  Every product goes through a ``Product``, scipy's compiled
CSR kernel bound once to its matrix (an operator keeps its own), and every block built
from others (``lincomb``, the split halves) through ``_combine``, scipy's
compiled sum kernel with one constructor per block.  Whether a matrix is
solved dense or banded is ``linsolve.factor_spd``'s choice alone.
``certify`` checks the symmetric positive definiteness the schemes assume:
a symmetry check and a Cholesky (or, when tridiagonal, LDL^T) factorization
that succeeds, at every size.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Iterable, Mapping, NamedTuple, Optional

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools


class DimensionMismatchError(ValueError):
    """Shapes of block vectors/operators do not line up."""


class CertificateError(ValueError):
    """A claimed operator property (symmetry, positive definiteness) fails."""


def _as_block(value, shape) -> sp.csr_array:
    if type(value) is sp.csr_array and value.dtype == np.float64:
        block = value
    elif sp.issparse(value):
        block = sp.csr_array(value)
        if block.dtype != np.float64:
            block = block.astype(np.float64)
    else:
        dense = np.asarray(value, dtype=float)
        if dense.ndim != 2:
            raise DimensionMismatchError(f"block must be 2-D, got ndim={dense.ndim}")
        block = sp.csr_array(dense)
    if block.shape != shape:
        raise DimensionMismatchError(f"block shape {block.shape} != expected {shape}")
    return block


class Product:
    """x -> M x for a float64 CSR matrix M, bit for bit ``M @ x``: ``csr_matvec`` of scipy's
    private ``_sparsetools``, the kernel ``@`` ends in, bound once to M's arrays, here, where the
    format is checked (about 1 us against 4-6 us for ``@`` at order 31).  The kernel reads ``x``
    by column index unchecked, so its length is checked on every call."""

    def __init__(self, csr):
        if csr.format != "csr":
            raise TypeError(f"a product needs a CSR matrix, got {csr.format}")
        self.matrix, (self._rows, self._cols) = csr, csr.shape
        self._kernel = partial(_sparsetools.csr_matvec, self._rows, self._cols, csr.indptr, csr.indices, csr.data)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        if len(x) != self._cols:
            raise DimensionMismatchError(f"vector length {len(x)} != {self._cols}")
        out = np.zeros(self._rows)
        self._kernel(x, out)
        return out


class _CsrParts(NamedTuple):
    """The three arrays of a CSR matrix, without a matrix object around them."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray


# what scipy's ``get_index_dtype`` decides for sparse arrays, without its
# cost (two ``np.iinfo`` and a ``can_cast`` per array): int64 where the
# platform's C int is not 32 bits, where maxval needs it, or where an index
# array is int64, as the index arrays of CSR arrays are int32 or int64
_INT32_MAX = int(np.iinfo(np.int32).max)
_INTC_IS_32 = np.intc().itemsize == 4


def _index_dtype(arrays=(), maxval: int = 0):
    if _INTC_IS_32 and maxval <= _INT32_MAX and all(a.dtype.itemsize == 4 for a in arrays):
        return np.int32
    return np.int64


def _identity_parts(n: int) -> _CsrParts:
    """The arrays of ``sp.eye_array(n, format="csr")``."""
    idx = _index_dtype(maxval=n)
    return _CsrParts(np.arange(n + 1, dtype=idx), np.arange(n, dtype=idx), np.ones(n))


def _combine(shape, terms) -> sp.csr_array:
    """The sum of c * M over the ``(c, M)`` terms, left to right, as one CSR array.

    Bit for bit what scipy's ``c1*M1 + c2*M2 + ...`` gives, data, indices,
    indptr and index dtype, but with one constructor where scipy makes a
    matrix for every product and every sum.  Each M's data is scaled on its
    own pattern, and each sum goes through ``csr_plus_csr`` of scipy's
    private ``_sparsetools``, the kernel that ``+`` ends in, which drops the
    entries that come out zero; the index dtype is chosen as scipy's
    ``_binopt`` chooses it.  An M is a float64 CSR matrix or ``_CsrParts``;
    a coefficient of 1 skips the scaling (x * 1.0 is x), so a one-term sum
    with coefficient 1 shares M's arrays.  ``TestCombine`` pins this against
    scipy, so a changed kernel fails there.  scipy's own arithmetic here gave the same
    bits but ran the shipped three-level configs 12-19% slower (bench/run.py).
    """
    acc = _sum_parts(shape, terms)
    return sp.csr_array((acc.data, acc.indices, acc.indptr), shape=shape)


def _scaled(data: np.ndarray, c: float) -> np.ndarray:
    return data if c == 1.0 else data * c


def _sum_parts(shape, terms) -> _CsrParts:
    """The arrays of ``_combine(shape, terms)``, with no matrix built.

    The kernel reads each operand's rows through its indptr unchecked, so
    every indptr must have one entry per row plus one.
    """
    rows, cols = shape
    for _, m in terms:
        if m.indptr.shape != (rows + 1,):
            raise DimensionMismatchError(f"operand indptr of length {m.indptr.shape[0]} for {rows} rows")
    (c, first), *rest = terms
    acc = _CsrParts(first.indptr, first.indices, _scaled(first.data, c))
    for c, m in rest:
        maxnnz = int(acc.indptr[-1]) + int(m.indptr[-1])
        idx = _index_dtype((acc.indptr, acc.indices, m.indptr, m.indices), maxval=maxnnz)
        indptr, indices, data = np.empty(rows + 1, dtype=idx), np.empty(maxnnz, dtype=idx), np.empty(maxnnz)
        _sparsetools.csr_plus_csr(
            rows, cols,
            acc.indptr.astype(idx, copy=False), acc.indices.astype(idx, copy=False), acc.data,
            m.indptr.astype(idx, copy=False), m.indices.astype(idx, copy=False), _scaled(m.data, c),
            indptr, indices, data,
        )
        nnz = int(indptr[-1])
        acc = _CsrParts(indptr, indices[:nnz], data[:nnz])
    return acc


def _transpose_parts(csr) -> _CsrParts:
    """The arrays of the CSR form of ``csr.T``, by the kernel of scipy's conversion."""
    rows, cols = csr.shape
    idx = _index_dtype((csr.indptr, csr.indices), maxval=max(csr.nnz, cols))
    parts = _CsrParts(np.empty(cols + 1, dtype=idx), np.empty(csr.nnz, dtype=idx), np.empty(csr.nnz))
    _sparsetools.csr_tocsc(
        rows, cols, csr.indptr.astype(idx, copy=False), csr.indices.astype(idx, copy=False), csr.data, *parts
    )
    return parts


def _csr_rows(csr) -> np.ndarray:
    """Row index of every stored entry of a CSR matrix."""
    return np.repeat(np.arange(csr.shape[0]), np.diff(csr.indptr))


def _largest_abs(data: np.ndarray) -> float:
    return float(np.abs(data).max()) if data.size else 0.0


@dataclass(frozen=True)
class BlockDims:
    """Component count and per-component dimensions of the product space."""

    sizes: tuple[int, ...]

    def __post_init__(self):
        sizes = tuple(int(n) for n in self.sizes)
        if len(sizes) < 1 or any(n < 1 for n in sizes):
            raise DimensionMismatchError(f"need p >= 1 components of size >= 1, got {sizes}")
        object.__setattr__(self, "sizes", sizes)

    @property
    def p(self) -> int:
        return len(self.sizes)

    @cached_property
    def total(self) -> int:
        return sum(self.sizes)

    @cached_property
    def offsets(self) -> tuple[int, ...]:
        off = np.concatenate([[0], np.cumsum(self.sizes)])
        return tuple(int(o) for o in off)


class BlockVector:
    """Element of the product space: one contiguous read-only array.

    ``BlockVector(dims, flat)`` copies ``flat``, so later writes to the
    caller's array cannot change the vector; ``from_parts`` builds one from
    per-component arrays.  ``to_flat()`` returns the stored array itself and
    ``parts`` views into it, all read-only.
    """

    __slots__ = ("dims", "_flat")

    def __init__(self, dims: BlockDims, flat):
        flat = np.array(flat, dtype=float)
        if flat.shape != (dims.total,):
            raise DimensionMismatchError(f"flat shape {flat.shape} != ({dims.total},)")
        flat.setflags(write=False)
        self.dims = dims
        self._flat = flat

    @classmethod
    def _own(cls, dims: BlockDims, flat: np.ndarray) -> "BlockVector":
        """Wrap a freshly computed array of the right shape without copying;
        the steps make several per transition, so this skips ``__init__``."""
        out = cls.__new__(cls)
        flat.setflags(write=False)
        out.dims = dims
        out._flat = flat
        return out

    @classmethod
    def zeros(cls, dims: BlockDims) -> "BlockVector":
        return cls._own(dims, np.zeros(dims.total))

    @classmethod
    def from_parts(cls, dims: BlockDims, parts) -> "BlockVector":
        parts = [np.asarray(part, dtype=float).reshape(-1) for part in parts]
        if len(parts) != dims.p:
            raise DimensionMismatchError(f"expected {dims.p} parts, got {len(parts)}")
        for part, n in zip(parts, dims.sizes):
            if part.shape != (n,):
                raise DimensionMismatchError(f"part length {part.shape[0]} != {n}")
        return cls._own(dims, np.concatenate(parts))

    @property
    def parts(self) -> tuple[np.ndarray, ...]:
        off = self.dims.offsets
        return tuple(self._flat[off[a] : off[a + 1]] for a in range(self.dims.p))

    def to_flat(self) -> np.ndarray:
        return self._flat

    def dot(self, other: "BlockVector") -> float:
        _check_same_dims(self.dims, other.dims)
        return float(self._flat @ other._flat)

    def norm(self) -> float:
        return float(np.sqrt(self.dot(self)))

    def __add__(self, other: "BlockVector") -> "BlockVector":
        _check_same_dims(self.dims, other.dims)
        return BlockVector._own(self.dims, self._flat + other._flat)

    def __sub__(self, other: "BlockVector") -> "BlockVector":
        _check_same_dims(self.dims, other.dims)
        return BlockVector._own(self.dims, self._flat - other._flat)

    def __mul__(self, scalar: float) -> "BlockVector":
        return BlockVector._own(self.dims, float(scalar) * self._flat)

    __rmul__ = __mul__

    def __neg__(self) -> "BlockVector":
        return self * -1.0


def _check_same_dims(a: BlockDims, b: BlockDims):
    if a.sizes != b.sizes:
        raise DimensionMismatchError(f"dims {a.sizes} != {b.sizes}")


@dataclass(frozen=True)
class BlockOperator:
    """p-by-p grid of matrix blocks; absent entries are exact zeros.

    Block (a, b) maps component b into component a and has shape
    (sizes[a], sizes[b]).  Indices are 0-based in code and 1-based in the
    on-disk manifest format.
    """

    dims: BlockDims
    blocks: Mapping[tuple[int, int], sp.csr_array]

    def __post_init__(self):
        p = self.dims.p
        normalized = {}
        for (a, b), value in self.blocks.items():
            if not (0 <= a < p and 0 <= b < p):
                raise DimensionMismatchError(f"block index {(a, b)} out of range for p={p}")
            normalized[(a, b)] = _as_block(value, (self.dims.sizes[a], self.dims.sizes[b]))
        object.__setattr__(self, "blocks", normalized)

    @classmethod
    def identity(cls, dims: BlockDims, scale: float = 1.0) -> "BlockOperator":
        """Scaled identity."""
        return cls(dims, {(a, a): scale * sp.eye_array(n, format="csr") for a, n in enumerate(dims.sizes)})

    @classmethod
    def from_dense(cls, dims: BlockDims, dense: np.ndarray) -> "BlockOperator":
        """The operator of a dense matrix; blocks that are exactly zero are dropped."""
        dense = np.asarray(dense, dtype=float)
        if dense.shape != (dims.total, dims.total):
            raise DimensionMismatchError(f"dense shape {dense.shape} != {(dims.total, dims.total)}")
        off = dims.offsets
        blocks = {}
        for a in range(dims.p):
            for b in range(dims.p):
                blk = dense[off[a] : off[a + 1], off[b] : off[b + 1]]
                if blk.any():
                    blocks[(a, b)] = blk
        return cls(dims, blocks)

    def block(self, a: int, b: int):
        return self.blocks.get((a, b))

    def apply(self, x: BlockVector) -> BlockVector:
        _check_same_dims(self.dims, x.dims)
        return BlockVector._own(self.dims, self.product(x.to_flat()))

    def product(self, x: np.ndarray) -> np.ndarray:
        """M x for a flat float64 x, its length checked but not its dims, as ``apply`` makes it."""
        return self._product(x)

    @cached_property
    def _product(self) -> Product:
        return Product(self._matrix)

    def transpose(self) -> "BlockOperator":
        return BlockOperator(self.dims, {(b, a): blk.T for (a, b), blk in self.blocks.items()})

    def to_dense(self) -> np.ndarray:
        """The operator as one dense array, filled block by block, so no whole
        CSR matrix is built for an operator that is only densified."""
        off = self.dims.offsets
        dense = np.zeros((self.dims.total, self.dims.total))
        for (a, b), blk in self.blocks.items():
            dense[off[a] : off[a + 1], off[b] : off[b + 1]] = blk.toarray()
        return dense

    def to_sparse(self) -> sp.csr_array:
        """A CSR matrix of the whole operator, the caller's own copy."""
        return self._matrix.copy()

    @cached_property
    def _matrix(self) -> sp.csr_array:
        """The CSR matrix of the whole operator; private, since callers may
        change what ``to_sparse`` hands out.

        Built from the blocks' coordinates: ``sp.bmat`` drops a block row that
        holds no block, and its format conversions cost several times more at
        small orders.
        """
        off = self.dims.offsets
        n = self.dims.total
        rows, cols, vals = [np.empty(0, dtype=np.intp)], [np.empty(0, dtype=np.intp)], [np.empty(0)]
        for (a, b), blk in self.blocks.items():
            rows.append(_csr_rows(blk) + off[a])
            cols.append(blk.indices + off[b])
            vals.append(blk.data)
        r, c = np.concatenate(rows), np.concatenate(cols)
        order = np.lexsort((c, r))
        indptr = np.concatenate(([0], np.cumsum(np.bincount(r, minlength=n))))
        return sp.csr_array((np.concatenate(vals)[order], c[order], indptr), shape=(n, n))

    # the operator is frozen, so values derived from its entries are cached
    @cached_property
    def _norm_inf(self) -> float:
        csr = self._matrix
        return float(np.bincount(_csr_rows(csr), weights=np.abs(csr.data), minlength=csr.shape[0]).max())

    @cached_property
    def _absmax(self) -> float:
        return _largest_abs(self._matrix.data)

    @cached_property
    def _symmetry_defect(self) -> float:
        """max |M - M^T|: the entries of scipy's ``M - M.T`` (a - b equals
        a + (-1) b), from the kernels alone."""
        csr = self._matrix
        diff = _sum_parts(csr.shape, ((1.0, csr), (-1.0, _transpose_parts(csr))))
        return _largest_abs(diff.data)

    @cached_property
    def _triangular_pair(self) -> "TriangularPair":
        return _halves(self)

    def norm_inf(self) -> float:
        """Infinity norm (largest absolute row sum)."""
        return self._norm_inf

    def absmax(self) -> float:
        return self._absmax

    def is_block_diagonal(self) -> bool:
        return all(a == b for (a, b) in self.blocks)

    def is_block_lower(self) -> bool:
        return self._triangularity[0]

    def is_block_upper(self) -> bool:
        return self._triangularity[1]

    @cached_property
    def _triangularity(self) -> tuple[bool, bool]:
        return all(a >= b for (a, b) in self.blocks), all(a <= b for (a, b) in self.blocks)

    @cached_property
    def row_strips(self) -> tuple[Optional[tuple[int, int, sp.csr_array]], ...]:
        """Per block row, None without off-diagonal blocks, else (start, stop, strip):
        those blocks side by side as one CSR matrix on the flat columns [start, stop),
        gaps stored empty, a lone block as it is.  A sweep's one product per row."""
        off, sizes, strips = self.dims.offsets, self.dims.sizes, [None] * self.dims.p
        for a in range(self.dims.p):
            cols = sorted(c for r, c in self.blocks if r == a != c)
            if cols:
                lo, hi = cols[0], cols[-1] + 1
                parts = [self.blocks[(a, c)] if c in cols else sp.csr_array((sizes[a], sizes[c]))
                         for c in range(lo, hi)]
                strips[a] = (off[lo], off[hi], sp.hstack(parts, format="csr") if parts[1:] else parts[0])
        return tuple(strips)


@dataclass(frozen=True)
class TriangularPair:
    """Two-part splitting M = lower + upper with transpose(lower) = upper.

    ``lower`` carries the blocks below the diagonal plus half of every
    diagonal block, ``upper`` the mirror image.
    """

    lower: BlockOperator
    upper: BlockOperator


def weighted_inner(D: BlockOperator, x: BlockVector, y: BlockVector) -> float:
    """Inner product (D x, y) over the whole product space."""
    _check_same_dims(D.dims, x.dims)
    _check_same_dims(D.dims, y.dims)
    return D.apply(x).dot(y)


def weighted_norm(D: BlockOperator, x: BlockVector, d_x: Optional[BlockVector] = None) -> float:
    """Norm sqrt((D x, x)) for symmetric positive definite D.

    ``d_x`` is the product D x, when the caller already has it.  A quadratic
    form that comes out negative beyond rounding noise means the claimed
    definiteness of D is wrong, which is reported instead of silently
    returning nan.  One that overflows is inf with no warning: ``np.vdot`` checks no FP flags.
    """
    if d_x is None:
        d_x = D.apply(x)
    else:
        _check_same_dims(D.dims, d_x.dims)
        _check_same_dims(D.dims, x.dims)
    q = float(np.vdot(d_x.to_flat(), x.to_flat()))
    # the scale, a second product, matters only to a negative form
    if q < 0.0 and q < -1e-12 * max(D.absmax() * max(x.dot(x), 1.0), 1e-300):
        raise CertificateError(f"quadratic form (Dx,x) = {q:.3e} negative for claimed-SPD operator")
    return math.sqrt(max(q, 0.0))


def lincomb(a: float, M: BlockOperator, b: float, N: BlockOperator, shift: float = 0.0) -> BlockOperator:
    """Blockwise a*M + b*N + shift*I, each block with one CSR constructor (``_combine``).

    The result carries the union of the sparsity patterns of the terms whose
    coefficient is nonzero, plus the diagonal blocks when ``shift`` is nonzero:
    a zero coefficient or shift adds nothing, so B + 0*A has B's pattern.
    """
    _check_same_dims(M.dims, N.dims)
    ops = [(coef, op) for coef, op in ((a, M), (b, N)) if coef]
    keys = set().union(*(op.blocks for _, op in ops))
    if shift:
        keys |= {(r, r) for r in range(M.dims.p)}
    blocks = {}
    for r, c in sorted(keys):
        terms = [(coef, op.blocks[(r, c)]) for coef, op in ops if (r, c) in op.blocks]
        if shift and r == c:
            terms.append((shift, _identity_parts(M.dims.sizes[r])))
        blocks[(r, c)] = _combine((M.dims.sizes[r], M.dims.sizes[c]), terms)
    return BlockOperator(M.dims, blocks)


# the symmetry defect, relative to the largest entry, that certify and triangular_split accept
_TOL_SYM = 1e-12


def symmetry_defect(M: BlockOperator) -> float:
    """max |M - M^T| over all entries; cached, since the operator is frozen."""
    return M._symmetry_defect


def _require_symmetric(M: BlockOperator, context: str):
    defect = symmetry_defect(M)
    scale = M.absmax()
    # written so that a NaN defect or scale fails the check too
    if not defect <= _TOL_SYM * max(scale, 1e-300):
        raise CertificateError(
            f"{context}: operator is not symmetric (defect {defect:.3e}, scale {scale:.3e})"
        )


def triangular_split(M: BlockOperator) -> TriangularPair:
    """Split a symmetric block operator into mutually adjoint lower/upper parts.

    The lower part takes every block strictly below the diagonal and half of
    each diagonal block; the upper part is its transpose.  Their sum restores
    M exactly.  The pair is cached on the frozen operator, so a problem's A
    and B are split once however many workspaces and observers ask.
    """
    _require_symmetric(M, "triangular_split")
    return M._triangular_pair


def _halves(M: BlockOperator) -> TriangularPair:
    """The pair of ``triangular_split``; lower and upper share each halved diagonal block."""
    lower = {}
    upper = {}
    for (a, b), blk in M.blocks.items():
        if a > b:
            lower[(a, b)] = blk
        elif a < b:
            upper[(a, b)] = blk
        else:
            lower[(a, a)] = upper[(a, a)] = _combine(blk.shape, ((0.5, blk),))
    return TriangularPair(BlockOperator(M.dims, lower), BlockOperator(M.dims, upper))


def certify(M: BlockOperator, context: str = "operator") -> None:
    """Certify that M is symmetric positive definite, or raise ``CertificateError``.

    Symmetry is checked against 1e-12 times the largest entry.
    Positive definiteness is certified by a Cholesky (or, for a tridiagonal
    band, LDL^T) factorization with positive pivots, the same
    ``linsolve.factor_spd`` the schemes use, so the check costs O(N) for
    banded operators at every size.  A failure names
    ``context`` and gives either the symmetry defect or the first
    non-positive leading minor.
    """
    # imported here: linsolve imports this module
    from .linsolve import NotPositiveDefiniteError, factor_spd

    _require_symmetric(M, context)
    try:
        factor_spd(M, context=context)
    except NotPositiveDefiniteError as err:
        raise CertificateError(str(err)) from err


# ---------------------------------------------------------------------------
# Coordinate-format matrix and manifest I/O.
#
# Block file: a header line "rows cols nnz" followed by nnz lines
# "i j value" with 1-based indices.  Blank lines and lines starting with '#'
# are skipped; duplicate entries are summed.
# Manifest file: "p = ...", "sizes = n1 n2 ...", then one
# "block a b = relative/path" line per stored block (1-based a, b).
# ---------------------------------------------------------------------------


def _data_lines(path: str) -> Iterable[tuple[int, str]]:
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            yield lineno, line


def _parse(convert, token: str, path: str, lineno: int):
    """``convert(token)``, with a malformed token reported by file and line."""
    try:
        return convert(token)
    except ValueError:
        kind = "an integer" if convert is int else "a number"
        raise ValueError(f"{path}:{lineno}: {token!r} is not {kind}") from None


def read_coo_matrix(path: str) -> sp.csr_array:
    """Read one block from a coordinate-format text file."""
    lines = iter(_data_lines(path))
    try:
        lineno, header = next(lines)
    except StopIteration:
        raise ValueError(f"{path}: empty matrix file") from None
    fields = header.split()
    if len(fields) != 3:
        raise ValueError(f"{path}:{lineno}: header must be 'rows cols nnz', got {header!r}")
    rows, cols, nnz = (_parse(int, f, path, lineno) for f in fields)
    ii, jj, vv = [], [], []
    for lineno, line in lines:
        fields = line.split()
        if len(fields) != 3:
            raise ValueError(f"{path}:{lineno}: expected 'i j value', got {line!r}")
        i, j = (_parse(int, f, path, lineno) for f in fields[:2])
        if not (1 <= i <= rows and 1 <= j <= cols):
            raise ValueError(f"{path}:{lineno}: index ({i},{j}) outside {rows}x{cols}")
        ii.append(i - 1)
        jj.append(j - 1)
        vv.append(_parse(float, fields[2], path, lineno))
    if len(vv) != nnz:
        raise ValueError(f"{path}: header promises {nnz} entries, file has {len(vv)}")
    return sp.csr_array(sp.coo_array((vv, (ii, jj)), shape=(rows, cols)))


def write_coo_matrix(path: str, block) -> None:
    coo = sp.coo_array(block)
    order = np.lexsort((coo.col, coo.row))
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"{coo.shape[0]} {coo.shape[1]} {coo.nnz}\n")
        for idx in order:
            handle.write(f"{coo.row[idx] + 1} {coo.col[idx] + 1} {coo.data[idx]:.17g}\n")


def read_block_operator(manifest_path: str) -> BlockOperator:
    """Load a block operator described by a manifest file."""
    base = os.path.dirname(os.path.abspath(manifest_path))
    p = None
    sizes = None
    block_paths: dict[tuple[int, int], str] = {}
    for lineno, line in _data_lines(manifest_path):
        if "=" not in line:
            raise ValueError(f"{manifest_path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key_fields = key.split()
        value = value.strip()
        if key_fields == ["p"]:
            repeated = p is not None
            p = _parse(int, value, manifest_path, lineno)
        elif key_fields == ["sizes"]:
            repeated = sizes is not None
            sizes = tuple(_parse(int, tok, manifest_path, lineno) for tok in value.split())
        elif len(key_fields) == 3 and key_fields[0] == "block":
            a, b = (_parse(int, f, manifest_path, lineno) - 1 for f in key_fields[1:])
            repeated = (a, b) in block_paths
            block_paths[(a, b)] = value
        else:
            raise ValueError(f"{manifest_path}:{lineno}: unknown key {key.strip()!r}")
        if repeated:
            raise ValueError(f"{manifest_path}:{lineno}: repeated key {key.strip()!r}")
    if p is None or sizes is None:
        raise ValueError(f"{manifest_path}: manifest must define both 'p' and 'sizes'")
    if len(sizes) != p:
        raise ValueError(f"{manifest_path}: p={p} but {len(sizes)} sizes given")
    dims = BlockDims(sizes)
    blocks = {}
    for (a, b), rel in block_paths.items():
        if not (0 <= a < p and 0 <= b < p):
            raise ValueError(f"{manifest_path}: block ({a + 1},{b + 1}) outside p={p}")
        blocks[(a, b)] = read_coo_matrix(os.path.join(base, rel))
    return BlockOperator(dims, blocks)


def write_block_operator(M: BlockOperator, manifest_path: str) -> None:
    base = os.path.dirname(os.path.abspath(manifest_path))
    os.makedirs(base, exist_ok=True)
    stem = os.path.splitext(os.path.basename(manifest_path))[0]
    lines = [f"p = {M.dims.p}", "sizes = " + " ".join(str(n) for n in M.dims.sizes)]
    for (a, b) in sorted(M.blocks):
        rel = f"{stem}_block_{a + 1}_{b + 1}.coo"
        write_coo_matrix(os.path.join(base, rel), M.blocks[(a, b)])
        lines.append(f"block {a + 1} {b + 1} = {rel}")
    with open(manifest_path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")


def read_block_vector(path: str, dims: BlockDims) -> BlockVector:
    """Read a block vector stored as one value per line, components concatenated.

    A NaN or infinite entry raises ``ValueError`` naming the file and line.
    """
    values = []
    for lineno, line in _data_lines(path):
        for tok in line.split():
            values.append(_parse(float, tok, path, lineno))
            if not np.isfinite(values[-1]):
                raise ValueError(f"{path}:{lineno}: entry {tok!r} is not a finite number")
    if len(values) != dims.total:
        raise ValueError(f"{path}: expected {dims.total} values, got {len(values)}")
    return BlockVector(dims, values)


def write_block_vector(path: str, x: BlockVector) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for value in x.to_flat():
            handle.write(f"{value:.17g}\n")

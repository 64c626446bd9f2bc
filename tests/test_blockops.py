import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, strategies as st

from splitstep import (
    BlockDims,
    BlockOperator,
    BlockVector,
    CertificateError,
    DimensionMismatchError,
    certify,
    example_coupled_spec,
    laplacian_1d,
    laplacian_min_eig,
    lincomb,
    symmetry_defect,
    triangular_split,
    weighted_inner,
    weighted_norm,
)
from splitstep.blockops import (
    read_block_operator,
    read_block_vector,
    read_coo_matrix,
    write_block_operator,
    write_block_vector,
    write_coo_matrix,
)
from splitstep.linsolve import SPARSE_MIN_ORDER
from splitstep.problems import assemble_operators

from helpers import random_dims, random_spd, random_symmetric, random_vector

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def _dense_oracle(M: BlockOperator) -> np.ndarray:
    """The operator as one dense matrix, filled block by block."""
    off = M.dims.offsets
    dense = np.zeros((M.dims.total, M.dims.total))
    for (a, b), blk in M.blocks.items():
        dense[off[a] : off[a + 1], off[b] : off[b + 1]] = blk.toarray() if sp.issparse(blk) else blk
    return dense


def _oracle_cases(rng, sparse_fraction=0.3):
    """Random grids, plus the shapes that a whole-space assembly can get
    wrong: p = 1, all blocks dense and of one shape, and a block row that
    holds no block."""
    cases = [random_symmetric(rng, random_dims(rng), sparse_fraction=sparse_fraction) for _ in range(10)]
    for sizes in ((5,), (4, 4), (3, 3, 3)):
        dims = BlockDims(sizes)
        cases.append(BlockOperator.from_dense(dims, rng.standard_normal((dims.total, dims.total))))
    cases.append(BlockOperator(BlockDims((6,)), {(0, 0): sp.csr_array(rng.standard_normal((6, 6)))}))
    top_row = {(0, 0): rng.standard_normal((2, 2)), (0, 1): rng.standard_normal((2, 3))}
    cases.append(BlockOperator(BlockDims((2, 3)), top_row))
    return cases


class TestBlockDims:
    def test_basic_accessors(self):
        dims = BlockDims((2, 3, 1))
        assert dims.p == 3
        assert dims.total == 6
        assert dims.offsets == (0, 2, 5, 6)

    def test_rejects_empty_and_nonpositive(self):
        with pytest.raises(DimensionMismatchError):
            BlockDims(())
        with pytest.raises(DimensionMismatchError):
            BlockDims((2, 0))


class TestBlockVector:
    def test_zeros_and_flat_roundtrip(self):
        dims = BlockDims((2, 3))
        z = BlockVector.zeros(dims)
        assert z.norm() == 0.0
        flat = np.arange(5.0)
        v = BlockVector(dims, flat)
        np.testing.assert_array_equal(v.parts[0], [0.0, 1.0])
        np.testing.assert_array_equal(v.parts[1], [2.0, 3.0, 4.0])
        np.testing.assert_array_equal(v.to_flat(), flat)
        np.testing.assert_array_equal(BlockVector.from_parts(dims, v.parts).to_flat(), flat)

    def test_flat_is_read_only_and_shared_with_parts(self):
        dims = BlockDims((2, 3))
        source = np.arange(5.0)
        v = BlockVector(dims, source)
        source[0] = 7.0  # the constructor copied
        flat = v.to_flat()
        assert flat[0] == 0.0 and v.to_flat() is flat
        assert all(np.shares_memory(part, flat) for part in v.parts)
        with pytest.raises(ValueError):
            flat[0] = 1.0
        with pytest.raises(ValueError):
            v.parts[1][0] = 1.0
        with pytest.raises(ValueError):
            (v + v).to_flat()[:] += 1.0

    def test_dot_and_norm(self):
        dims = BlockDims((2, 1))
        x = BlockVector.from_parts(dims, ([1.0, 2.0], [3.0]))
        y = BlockVector.from_parts(dims, ([4.0, 5.0], [6.0]))
        assert x.dot(y) == 32.0
        assert x.norm() == pytest.approx(np.sqrt(14.0), rel=0, abs=1e-15)

    def test_arithmetic_matches_flat(self):
        rng = np.random.default_rng(3)
        dims = BlockDims((3, 2, 4))
        x = random_vector(rng, dims)
        y = random_vector(rng, dims)
        np.testing.assert_array_equal((x + y).to_flat(), x.to_flat() + y.to_flat())
        np.testing.assert_array_equal((x - y).to_flat(), x.to_flat() - y.to_flat())
        np.testing.assert_array_equal((2.5 * x).to_flat(), 2.5 * x.to_flat())
        np.testing.assert_array_equal((-x).to_flat(), -x.to_flat())

    def test_shape_validation(self):
        dims = BlockDims((2, 1))
        with pytest.raises(DimensionMismatchError):
            BlockVector.from_parts(dims, ([1.0, 2.0],))
        with pytest.raises(DimensionMismatchError):
            BlockVector.from_parts(dims, ([1.0, 2.0, 3.0], [4.0]))
        with pytest.raises(DimensionMismatchError):
            BlockVector(dims, np.zeros(4))
        with pytest.raises(DimensionMismatchError):
            x = BlockVector.from_parts(dims, ([1.0, 2.0], [3.0]))
            y = BlockVector.from_parts(BlockDims((1, 2)), ([1.0], [2.0, 3.0]))
            x.dot(y)


class TestBlockOperator:
    def test_identity_apply(self):
        dims = BlockDims((2, 1))
        I = BlockOperator.identity(dims)
        x = BlockVector.from_parts(dims, ([1.0, -2.0], [3.0]))
        np.testing.assert_array_equal(I.apply(x).to_flat(), x.to_flat())
        twoI = BlockOperator.identity(dims, scale=2.0)
        np.testing.assert_array_equal(twoI.apply(x).to_flat(), 2.0 * x.to_flat())

    def test_identity_blocks_sparse_from_crossover(self):
        I = BlockOperator.identity(BlockDims((SPARSE_MIN_ORDER - 1, SPARSE_MIN_ORDER)), scale=3.0)
        assert all(isinstance(I.block(a, a), sp.csr_array) for a in range(2))
        np.testing.assert_array_equal(I.to_dense(), 3.0 * np.eye(2 * SPARSE_MIN_ORDER - 1))

    def test_norm_inf_matches_dense(self):
        rng = np.random.default_rng(33)
        for M in _oracle_cases(rng, sparse_fraction=0.5):
            dense = _dense_oracle(M)
            assert M.norm_inf() == pytest.approx(np.abs(dense).sum(axis=1).max(), rel=1e-14)
            assert M.absmax() == np.abs(dense).max()
        # a sparse block with an empty row
        M = BlockOperator(BlockDims((3,)), {(0, 0): sp.csr_array(np.array([[0.0, 0, 0], [1, -2, 0], [0, 0, 0.5]]))})
        assert M.norm_inf() == 3.0

    def test_from_dense_roundtrip_and_zero_dropping(self):
        dims = BlockDims((1, 2))
        dense = np.array([[2.0, 0.0, 0.0], [0.0, 1.0, 0.5], [0.0, 0.5, 1.0]])
        M = BlockOperator.from_dense(dims, dense)
        assert set(M.blocks) == {(0, 0), (1, 1)}
        np.testing.assert_array_equal(M.to_dense(), dense)

    def test_apply_matches_dense(self):
        rng = np.random.default_rng(11)
        for M in _oracle_cases(rng):
            dense = _dense_oracle(M)
            np.testing.assert_array_equal(M.to_dense(), dense)
            np.testing.assert_array_equal(M.to_sparse().toarray(), dense)
            x = random_vector(rng, M.dims)
            got = M.apply(x).to_flat()
            want = dense @ x.to_flat()
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * max(1.0, np.abs(want).max()))

    def test_transpose_and_sparse_agree_with_dense(self):
        rng = np.random.default_rng(12)
        dims = random_dims(rng)
        M = random_symmetric(rng, dims, drop_fraction=0.5, sparse_fraction=0.6)
        np.testing.assert_array_equal(M.transpose().to_dense(), M.to_dense().T)
        np.testing.assert_array_equal(M.to_sparse().toarray(), M.to_dense())

    def test_empty_operator_to_sparse(self):
        dims = BlockDims((2, 2))
        Z = BlockOperator(dims, {})
        assert Z.to_sparse().shape == (4, 4)
        assert Z.absmax() == 0.0

    def test_structure_predicates(self):
        dims = BlockDims((1, 1))
        lower = BlockOperator(dims, {(0, 0): [[1.0]], (1, 0): [[2.0]]})
        upper = BlockOperator(dims, {(0, 0): [[1.0]], (0, 1): [[2.0]]})
        diag = BlockOperator(dims, {(0, 0): [[1.0]], (1, 1): [[2.0]]})
        assert lower.is_block_lower() and not lower.is_block_upper()
        assert upper.is_block_upper() and not upper.is_block_lower()
        assert diag.is_block_diagonal() and diag.is_block_lower() and diag.is_block_upper()
        assert not lower.is_block_diagonal()

    def test_validation(self):
        dims = BlockDims((2, 1))
        with pytest.raises(DimensionMismatchError):
            BlockOperator(dims, {(0, 2): np.zeros((2, 1))})
        with pytest.raises(DimensionMismatchError):
            BlockOperator(dims, {(0, 0): np.zeros((1, 1))})
        with pytest.raises(DimensionMismatchError):
            BlockOperator(dims, {(0, 0): np.zeros(2)})
        with pytest.raises(DimensionMismatchError):
            BlockOperator.from_dense(dims, np.zeros((2, 2)))
        with pytest.raises(DimensionMismatchError):
            M = BlockOperator.identity(dims)
            M.apply(BlockVector.from_parts(BlockDims((3,)), (np.zeros(3),)))


class TestWeightedForms:
    def test_identity_weight_is_plain_dot(self):
        dims = BlockDims((2, 1))
        ones = BlockVector.from_parts(dims, ([1.0, 1.0], [1.0]))
        assert weighted_inner(BlockOperator.identity(dims), ones, ones) == 3.0
        assert weighted_inner(BlockOperator.identity(dims, 2.0), ones, ones) == 6.0

    def test_matches_dense_quadratic_form(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            dims = random_dims(rng)
            D = random_spd(rng, dims)
            x = random_vector(rng, dims)
            y = random_vector(rng, dims)
            want = x.to_flat() @ D.to_dense() @ y.to_flat()
            assert weighted_inner(D, x, y) == pytest.approx(want, rel=1e-13, abs=1e-13)

    def test_norm_of_zero_vector(self):
        dims = BlockDims((3,))
        D = BlockOperator.identity(dims, 5.0)
        assert weighted_norm(D, BlockVector.zeros(dims)) == 0.0

    def test_negative_form_raises(self):
        dims = BlockDims((2,))
        D = BlockOperator.identity(dims, -1.0)
        x = BlockVector.from_parts(dims, ([1.0, 0.0],))
        with pytest.raises(CertificateError):
            weighted_norm(D, x)


class TestLincomb:
    def test_union_of_patterns(self):
        dims = BlockDims((1, 1))
        M = BlockOperator(dims, {(0, 0): [[1.0]], (0, 1): [[2.0]]})
        N = BlockOperator(dims, {(0, 0): [[3.0]], (1, 1): [[4.0]]})
        out = lincomb(2.0, M, -1.0, N)
        assert set(out.blocks) == {(0, 0), (0, 1), (1, 1)}
        np.testing.assert_array_equal(
            out.to_dense(), 2.0 * M.to_dense() - 1.0 * N.to_dense()
        )

    def test_mixed_sparse_dense(self):
        dims = BlockDims((2,))
        M = BlockOperator(dims, {(0, 0): sp.csr_array(np.array([[1.0, 0.0], [0.0, 2.0]]))})
        N = BlockOperator(dims, {(0, 0): np.array([[0.5, 1.0], [1.0, 0.5]])})
        out = lincomb(1.0, M, 3.0, N)
        np.testing.assert_allclose(out.to_dense(), M.to_dense() + 3.0 * N.to_dense(), atol=1e-15)

    def test_dims_must_match(self):
        with pytest.raises(DimensionMismatchError):
            lincomb(1.0, BlockOperator.identity(BlockDims((2,))), 1.0,
                    BlockOperator.identity(BlockDims((3,))))


class TestSymmetryDefect:
    def test_zero_for_symmetric(self):
        rng = np.random.default_rng(31)
        M = random_symmetric(rng, random_dims(rng))
        assert symmetry_defect(M) <= 1e-14 * max(M.absmax(), 1.0)

    def test_exact_value_for_known_asymmetry(self):
        dims = BlockDims((1, 1))
        M = BlockOperator(dims, {(0, 1): [[1.0]], (1, 0): [[3.0]]})
        assert symmetry_defect(M) == 2.0
        # one-sided block counts fully against the absent mirror
        N = BlockOperator(dims, {(0, 1): [[1.0]]})
        assert symmetry_defect(N) == 1.0

    def test_asymmetric_diagonal_block(self):
        dims = BlockDims((2,))
        M = BlockOperator(dims, {(0, 0): [[0.0, 1.0], [0.0, 0.0]]})
        assert symmetry_defect(M) == 1.0

    def test_matches_dense_for_mixed_blocks(self):
        rng = np.random.default_rng(32)
        for _ in range(10):
            dims = random_dims(rng)
            M = random_symmetric(rng, dims, sparse_fraction=0.5)
            noise = BlockOperator.from_dense(dims, 1e-3 * rng.standard_normal((dims.total, dims.total)))
            noisy = BlockOperator(dims, {**M.blocks, (0, 0): lincomb(1.0, M, 1.0, noise).block(0, 0)})
            dense = noisy.to_dense()
            assert symmetry_defect(noisy) == np.abs(dense - dense.T).max()

    @pytest.mark.parametrize("n", [SPARSE_MIN_ORDER - 1, SPARSE_MIN_ORDER])
    def test_matches_dense_on_both_sides_of_128(self, n):
        rng = np.random.default_rng(52 + n)
        dims = BlockDims((n, n))
        dense = rng.standard_normal((2 * n, 2 * n))
        dense[rng.random(dense.shape) < 0.9] = 0.0
        assert symmetry_defect(BlockOperator.from_dense(dims, dense)) == np.abs(dense - dense.T).max()
        # a NaN above the diagonal only, in a diagonal and in an off-diagonal block
        for i, j in ((0, 1), (1, 2 * n - 1)):
            marked = dense.copy()
            marked[i, j] = np.nan
            assert np.isnan(np.abs(marked - marked.T).max())
            assert np.isnan(symmetry_defect(BlockOperator.from_dense(dims, marked)))

    def test_sparse_blocks_are_not_densified(self, monkeypatch):
        m = 65_535
        lap = laplacian_1d(m)
        coupling = sp.csr_array(sp.diags_array([np.arange(m - 1.0)], offsets=[1]))
        M = BlockOperator(BlockDims((m, m)), {(0, 0): lap, (1, 1): lap, (0, 1): coupling, (1, 0): 2.0 * coupling.T})

        def refuse(self, *args, **kwargs):
            raise AssertionError("sparse block densified")

        monkeypatch.setattr(sp.csr_array, "toarray", refuse)
        assert symmetry_defect(M) == m - 2.0
        triangular_split(lincomb(1.0, M, 1.0, M.transpose()))


class TestSingleStorage:
    """Every block is a CSR array, however the operator was built."""

    def test_every_constructor_stores_csr(self, tmp_path):
        rng = np.random.default_rng(51)
        dims = BlockDims((3, 4))
        x = rng.standard_normal((dims.total, dims.total))
        S = x + x.T
        M = BlockOperator.from_dense(dims, S)
        orders = (1, SPARSE_MIN_ORDER - 1, SPARSE_MIN_ORDER)
        ops = {f"identity {n}": BlockOperator.identity(BlockDims((n,))) for n in orders}
        ops["ndarray dict"] = BlockOperator(dims, {(0, 0): S[:3, :3], (1, 0): S[3:, :3], (1, 1): S[3:, 3:]})
        ops["from_dense"] = M
        ops["lincomb"] = lincomb(1.0, M, 2.0, BlockOperator.identity(dims))
        ops["transpose"] = M.transpose()
        split = triangular_split(M)
        ops["split lower"], ops["split upper"] = split.lower, split.upper
        ops["assembled A"], ops["assembled B"] = assemble_operators(example_coupled_spec(p=2, m=31))
        write_block_operator(M, str(tmp_path / "m.manifest"))
        ops["manifest"] = read_block_operator(str(tmp_path / "m.manifest"))
        for name, op in ops.items():
            assert op.blocks, name
            assert all(type(blk) is sp.csr_array for blk in op.blocks.values()), name


class TestTriangularSplit:
    def test_two_by_two_scalar_blocks(self):
        dims = BlockDims((1, 1))
        M = BlockOperator.from_dense(dims, np.array([[2.0, 1.0], [1.0, 2.0]]))
        pair = triangular_split(M)
        np.testing.assert_array_equal(pair.lower.to_dense(), [[1.0, 0.0], [1.0, 1.0]])
        np.testing.assert_array_equal(pair.upper.to_dense(), [[1.0, 1.0], [0.0, 1.0]])
        assert pair.lower.is_block_lower()
        assert pair.upper.is_block_upper()

    def test_identity_splits_into_halves(self):
        dims = BlockDims((2, 2))
        pair = triangular_split(BlockOperator.identity(dims))
        np.testing.assert_array_equal(pair.lower.to_dense(), 0.5 * np.eye(4))
        np.testing.assert_array_equal(pair.upper.to_dense(), 0.5 * np.eye(4))

    def test_rejects_asymmetric(self):
        dims = BlockDims((1, 1))
        M = BlockOperator(dims, {(0, 1): [[1.0]], (1, 0): [[2.0]]})
        with pytest.raises(CertificateError):
            triangular_split(M)

    @given(seeds)
    def test_reconstruction_and_adjointness(self, seed):
        rng = np.random.default_rng(seed)
        M = random_symmetric(rng, random_dims(rng))
        pair = triangular_split(M)
        dense = M.to_dense()
        scale = max(np.abs(dense).max(), 1.0)
        recon = pair.lower.to_dense() + pair.upper.to_dense()
        assert np.abs(recon - dense).max() <= 1e-14 * scale
        adj = pair.lower.to_dense().T - pair.upper.to_dense()
        assert np.abs(adj).max() <= 1e-14 * scale


def _shifted_to_min_eig(M: BlockOperator, target: float) -> BlockOperator:
    """M plus a multiple of the identity that moves its smallest eigenvalue to target."""
    shift = target - np.linalg.eigvalsh(M.to_dense())[0]
    return lincomb(1.0, M, shift, BlockOperator.identity(M.dims))


class TestCertify:
    def test_diagonal_example(self):
        dims = BlockDims((3,))
        assert certify(BlockOperator(dims, {(0, 0): np.diag([1.0, 2.0, 3.0])})) is None

    def test_antisymmetric_is_flagged(self):
        dims = BlockDims((1, 1))
        M = BlockOperator(dims, {(0, 1): [[1.0]], (1, 0): [[-1.0]]})
        with pytest.raises(CertificateError, match=r"^M: operator is not symmetric \(defect 2\.000e\+00"):
            certify(M, context="M")

    def test_nan_entry_is_rejected(self):
        dims = BlockDims((2,))
        M = BlockOperator(dims, {(0, 0): [[1.0, np.nan], [0.0, 1.0]]})
        with pytest.raises(CertificateError, match="not symmetric"):
            certify(M)

    def test_indefinite_min_eig(self):
        # smallest eigenvalue -1: the second leading minor is the first negative one
        dims = BlockDims((2,))
        M = BlockOperator(dims, {(0, 0): np.diag([1.0, -1.0])})
        with pytest.raises(CertificateError, match="^operator: not positive definite, leading minor 2 "):
            certify(M)

    @pytest.mark.parametrize("n, negative", [(4, 2), (SPARSE_MIN_ORDER + 72, 150)])
    def test_indefinite_names_leading_minor(self, n, negative):
        # dense below the crossover, banded above it
        diag = np.ones(n)
        diag[negative] = -1.0
        M = BlockOperator(BlockDims((n,)), {(0, 0): sp.csr_array(sp.diags_array(diag))})
        with pytest.raises(CertificateError, match=rf"^B: not positive definite, leading minor {negative + 1} ") as info:
            certify(M, context="B")
        assert info.value.__cause__.pivot == negative + 1

    def test_laplacian_matches_closed_form(self):
        # L - s I is certified exactly when s is below the smallest
        # eigenvalue; dense at m = 9, banded at m = 2000
        for m in (9, 2000):
            lap = BlockOperator(BlockDims((m,)), {(0, 0): laplacian_1d(m)})
            lam = laplacian_min_eig(m)
            certify(lap)
            certify(lincomb(1.0, lap, -0.99 * lam, BlockOperator.identity(lap.dims)))
            with pytest.raises(CertificateError, match="leading minor"):
                certify(lincomb(1.0, lap, -1.01 * lam, BlockOperator.identity(lap.dims)))

    def test_large_system_is_certified(self):
        # banded, and the negative shift first bites at the second component
        m = 1999
        dims = BlockDims((m, 2))
        M = BlockOperator(dims, {(0, 0): laplacian_1d(m), (1, 1): 2.0 * np.eye(2)})
        assert dims.total > 2000
        certify(M)
        with pytest.raises(CertificateError, match=f"leading minor {m + 1} "):
            certify(lincomb(1.0, M, -2.5, BlockOperator.identity(dims)))

    @given(seeds, st.booleans(), st.booleans())
    def test_accepts_exactly_the_positive_definite(self, seed, large, positive):
        # dense eigvalsh is the oracle; the smallest eigenvalue is put at
        # +-1e-3 of the spectral radius, well clear of rounding
        rng = np.random.default_rng(seed)
        if large:
            dims = random_dims(rng, p_choices=(2, 3), size_range=(SPARSE_MIN_ORDER // 2, SPARSE_MIN_ORDER + 40))
            assert dims.total >= SPARSE_MIN_ORDER
        else:
            dims = random_dims(rng)
        M = random_symmetric(rng, dims)
        radius = max(float(np.abs(np.linalg.eigvalsh(M.to_dense())).max()), 1.0)
        M = _shifted_to_min_eig(M, (1e-3 if positive else -1e-3) * radius)
        assert (np.linalg.eigvalsh(M.to_dense())[0] > 0.0) == positive
        if positive:
            certify(M)
        else:
            with pytest.raises(CertificateError, match="leading minor"):
                certify(M)


class TestPropertyIdentities:
    @given(seeds)
    def test_quadratic_form_identity(self, seed):
        rng = np.random.default_rng(seed)
        dims = random_dims(rng)
        M = random_symmetric(rng, dims)
        x = random_vector(rng, dims)
        y = random_vector(rng, dims)
        want = x.to_flat() @ M.to_dense() @ y.to_flat()
        scale = max(1.0, M.absmax() * x.norm() * y.norm())
        assert abs(weighted_inner(M, x, y) - want) <= 1e-12 * scale

    @given(seeds)
    def test_lincomb_acts_linearly(self, seed):
        rng = np.random.default_rng(seed)
        dims = random_dims(rng)
        M = random_symmetric(rng, dims)
        N = random_symmetric(rng, dims)
        x = random_vector(rng, dims)
        a, b = rng.uniform(-2, 2, size=2)
        got = lincomb(a, M, b, N).apply(x)
        want = a * M.apply(x) + b * N.apply(x)
        scale = max(1.0, np.abs(want.to_flat()).max())
        assert (got - want).norm() <= 1e-12 * scale

    @given(seeds)
    def test_flat_roundtrip(self, seed):
        rng = np.random.default_rng(seed)
        dims = random_dims(rng)
        flat = rng.standard_normal(dims.total)
        v = BlockVector(dims, flat)
        np.testing.assert_array_equal(v.to_flat(), flat)


class TestCooIO:
    def test_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(41)
        block = rng.standard_normal((4, 3))
        block[1, 2] = 0.0
        path = tmp_path / "block.coo"
        write_coo_matrix(str(path), block)
        back = read_coo_matrix(str(path))
        np.testing.assert_array_equal(back.toarray(), block * (block != 0.0))

    def test_sparse_roundtrip(self, tmp_path):
        block = sp.csr_array(np.array([[0.0, 1.5], [-2.25, 0.0]]))
        path = tmp_path / "block.coo"
        write_coo_matrix(str(path), block)
        np.testing.assert_array_equal(read_coo_matrix(str(path)).toarray(), block.toarray())

    def test_comments_blanks_and_duplicates(self, tmp_path):
        path = tmp_path / "dup.coo"
        path.write_text("# header comment\n2 2 3\n\n1 1 1.0\n1 1 2.0\n2 2 -1.0\n")
        back = read_coo_matrix(str(path))
        np.testing.assert_array_equal(back.toarray(), [[3.0, 0.0], [0.0, -1.0]])

    @pytest.mark.parametrize(
        "content, fragment",
        [
            ("", "empty"),
            ("2 2\n", "header"),
            ("2 2 1\n1 1\n", "expected"),
            ("2 2 1\n3 1 1.0\n", "outside"),
            ("2 2 2\n1 1 1.0\n", "promises"),
        ],
    )
    def test_malformed_files(self, tmp_path, content, fragment):
        path = tmp_path / "bad.coo"
        path.write_text(content)
        with pytest.raises(ValueError, match=fragment):
            read_coo_matrix(str(path))


class TestManifestIO:
    def test_operator_roundtrip(self, tmp_path):
        rng = np.random.default_rng(42)
        dims = random_dims(rng)
        M = random_symmetric(rng, dims, drop_fraction=0.4, sparse_fraction=0.5)
        manifest = tmp_path / "op.manifest"
        write_block_operator(M, str(manifest))
        back = read_block_operator(str(manifest))
        assert back.dims == M.dims
        assert set(back.blocks) == set(M.blocks)
        np.testing.assert_array_equal(back.to_dense(), M.to_dense())

    def test_manifest_errors(self, tmp_path):
        manifest = tmp_path / "op.manifest"

        manifest.write_text("sizes = 1 1\n")
        with pytest.raises(ValueError, match="both 'p' and 'sizes'"):
            read_block_operator(str(manifest))

        manifest.write_text("p = 2\nsizes = 1\n")
        with pytest.raises(ValueError, match="sizes"):
            read_block_operator(str(manifest))

        manifest.write_text("p = 1\nsizes = 1\nmystery = 3\n")
        with pytest.raises(ValueError, match="unknown key"):
            read_block_operator(str(manifest))

        manifest.write_text("p = 1\nsizes = 1\nno equals here\n")
        with pytest.raises(ValueError, match="key = value"):
            read_block_operator(str(manifest))

        (tmp_path / "b.coo").write_text("1 1 1\n1 1 1.0\n")
        manifest.write_text("p = 1\nsizes = 1\nblock 2 2 = b.coo\n")
        with pytest.raises(ValueError, match="outside"):
            read_block_operator(str(manifest))

    def test_vector_roundtrip(self, tmp_path):
        rng = np.random.default_rng(43)
        dims = BlockDims((3, 2))
        x = random_vector(rng, dims)
        path = tmp_path / "v.txt"
        write_block_vector(str(path), x)
        back = read_block_vector(str(path), dims)
        np.testing.assert_array_equal(back.to_flat(), x.to_flat())

    def test_vector_length_mismatch(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("1.0\n2.0\n")
        with pytest.raises(ValueError, match="expected 3"):
            read_block_vector(str(path), BlockDims((3,)))

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "NaN"])
    def test_vector_rejects_non_finite_entries(self, tmp_path, token):
        path = tmp_path / "v.txt"
        path.write_text(f"# header\n1.0\n{token}\n3.0\n")
        with pytest.raises(ValueError, match=rf"v\.txt:3: entry '{token}' is not a finite number"):
            read_block_vector(str(path), BlockDims((3,)))

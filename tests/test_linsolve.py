import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, strategies as st
from scipy.linalg import lapack

from splitstep import (
    BlockDims,
    build_coupled_diffusion,
    example_coupled_spec,
    lincomb,
    BlockOperator,
    BlockVector,
    DiagFactorization,
    EvolutionProblem,
    NotPositiveDefiniteError,
    SchemeConfig,
    SolveFailureError,
    SpdFactor,
    factor_spd,
    laplacian_1d,
    prepare,
    run,
    solve_block_lower,
    solve_block_upper,
    solve_spd_full,
    triangular_split,
    zero_forcing,
)
from splitstep.blockops import DimensionMismatchError, Product, matvec
from splitstep.linsolve import SPARSE_MIN_ORDER, BlockStructureError

from helpers import full_spec, random_block_diag_spd, random_dims, random_spd, random_vector

seeds = st.integers(min_value=0, max_value=2**32 - 1)


class TestFactorSpd:
    def test_scalar_cholesky(self):
        factor = factor_spd(np.array([[4.0]]))
        assert isinstance(factor, SpdFactor)
        assert factor.chol_lower[0, 0] == 2.0
        assert factor.solve(np.array([8.0]))[0] == pytest.approx(2.0, abs=1e-15)

    def test_two_by_two_solve(self):
        factor = factor_spd(np.array([[2.0, 1.0], [1.0, 2.0]]))
        x = factor.solve(np.array([1.0, 1.0]))
        np.testing.assert_allclose(x, [1.0 / 3.0, 1.0 / 3.0], rtol=0, atol=1e-15)

    def test_stiff_band_residual(self):
        m = 16
        G = laplacian_1d(m).toarray() + np.eye(m)
        factor = factor_spd(G)
        rhs = np.linspace(-1.0, 1.0, m)
        x = factor.solve(rhs)
        assert np.linalg.norm(G @ x - rhs) <= 1e-12 * np.linalg.norm(rhs)

    def test_reconstruction_invariant(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            n = int(rng.integers(1, 9))
            x = rng.standard_normal((n, n))
            G = x.T @ x + (0.2 + rng.random()) * np.eye(n)
            factor = factor_spd(G)
            L = np.tril(factor.chol_lower)
            assert np.abs(L @ L.T - G).max() <= 1e-12 * np.abs(G).max()

    def test_pivot_index_on_failure(self):
        with pytest.raises(NotPositiveDefiniteError) as exc_info:
            factor_spd(np.diag([1.0, -1.0]))
        assert exc_info.value.pivot == 2

        with pytest.raises(NotPositiveDefiniteError) as exc_info:
            factor_spd(np.array([[-1.0]]))
        assert exc_info.value.pivot == 1

    def test_context_appears_in_message(self):
        with pytest.raises(NotPositiveDefiniteError, match="mass block"):
            factor_spd(np.array([[0.0]]), context="mass block")

    def test_rejects_nonsquare(self):
        with pytest.raises(DimensionMismatchError):
            factor_spd(np.zeros((2, 3)))

    def test_accepts_sparse_input(self):
        G = sp.csr_array(np.array([[3.0, 1.0], [1.0, 3.0]]))
        factor = factor_spd(G)
        x = factor.solve(np.array([4.0, 4.0]))
        np.testing.assert_allclose(x, [1.0, 1.0], atol=1e-14)


class TestDiagFactorization:
    def test_solves_each_block(self):
        rng = np.random.default_rng(7)
        dims = random_dims(rng)
        B = random_block_diag_spd(rng, dims)
        diag = DiagFactorization.from_operator(B)
        for a in range(dims.p):
            rhs = rng.standard_normal(dims.sizes[a])
            x = diag.factors[a].solve(rhs)
            np.testing.assert_allclose(B.block(a, a) @ x, rhs, rtol=0, atol=1e-10)

    def test_missing_diagonal_block(self):
        dims = BlockDims((1, 1))
        M = BlockOperator(dims, {(0, 0): [[1.0]]})
        with pytest.raises(NotPositiveDefiniteError, match=r"\(2,2\) is absent"):
            DiagFactorization.from_operator(M)

    def test_indefinite_block_names_its_position(self):
        dims = BlockDims((1, 1))
        M = BlockOperator(dims, {(0, 0): [[1.0]], (1, 1): [[-2.0]]})
        with pytest.raises(NotPositiveDefiniteError, match=r"\(2,2\)"):
            DiagFactorization.from_operator(M)


class TestTriangularSweeps:
    def test_lower_hand_example(self):
        dims = BlockDims((1, 1))
        L = BlockOperator(dims, {(0, 0): [[1.0]], (1, 0): [[1.0]], (1, 1): [[1.0]]})
        diag = DiagFactorization.from_operator(L)
        rhs = BlockVector.from_parts(dims, ([1.0], [1.0]))
        x = solve_block_lower(L, rhs, diag)
        np.testing.assert_allclose(x.to_flat(), [1.0, 0.0], atol=1e-15)

    def test_upper_hand_example(self):
        dims = BlockDims((1, 1))
        U = BlockOperator(dims, {(0, 0): [[1.0]], (0, 1): [[1.0]], (1, 1): [[1.0]]})
        diag = DiagFactorization.from_operator(U)
        rhs = BlockVector.from_parts(dims, ([1.0], [1.0]))
        x = solve_block_upper(U, rhs, diag)
        np.testing.assert_allclose(x.to_flat(), [0.0, 1.0], atol=1e-15)

    def test_structure_is_enforced(self):
        dims = BlockDims((1, 1))
        L = BlockOperator(dims, {(0, 0): [[1.0]], (1, 0): [[1.0]], (1, 1): [[1.0]]})
        U = L.transpose()
        diag = DiagFactorization.from_operator(L)
        rhs = BlockVector.from_parts(dims, ([1.0], [1.0]))
        with pytest.raises(BlockStructureError):
            solve_block_lower(U, rhs, diag)
        with pytest.raises(BlockStructureError):
            solve_block_upper(L, rhs, diag)

    def test_dims_mismatch(self):
        dims = BlockDims((1, 1))
        L = BlockOperator.identity(dims)
        diag = DiagFactorization.from_operator(L)
        bad = BlockVector.from_parts(BlockDims((2, 1)), ([1.0, 2.0], [3.0]))
        with pytest.raises(DimensionMismatchError):
            solve_block_lower(L, bad, diag)
        with pytest.raises(DimensionMismatchError):
            solve_block_upper(L, bad, diag)

    @pytest.mark.parametrize("factor_sizes", [(2, 2, 2, 2), (2, 2), (2, 3, 2)])
    def test_factors_must_match_components(self, factor_sizes):
        # more factors than components once returned all ones, fewer an IndexError
        dims = BlockDims((2, 2, 2))
        T = BlockOperator.identity(dims)
        diag = DiagFactorization.from_operator(BlockOperator.identity(BlockDims(factor_sizes)))
        rhs = BlockVector.from_parts(dims, ([1.0, 1.0], [1.0, 1.0], [1.0, 1.0]))
        for sweep in (solve_block_lower, solve_block_upper):
            with pytest.raises(DimensionMismatchError, match="diagonal factors"):
                sweep(T, rhs, diag)

    @given(seeds)
    def test_sweeps_match_dense_oracle(self, seed):
        rng = np.random.default_rng(seed)
        dims = random_dims(rng)
        M = random_spd(rng, dims)
        pair = triangular_split(M)
        # shift the half-diagonals so the sweep blocks stay definite
        shift = BlockOperator.identity(dims, 0.5 * M.absmax() + 1.0)
        L = _add(pair.lower, shift)
        U = _add(pair.upper, shift)
        diag = DiagFactorization.from_operator(L)
        rhs = random_vector(rng, dims)

        x_lower = solve_block_lower(L, rhs, diag)
        want = np.linalg.solve(L.to_dense(), rhs.to_flat())
        np.testing.assert_allclose(x_lower.to_flat(), want, rtol=0,
                                   atol=1e-11 * max(1.0, np.abs(want).max()))

        x_upper = solve_block_upper(U, rhs, diag)
        want = np.linalg.solve(U.to_dense(), rhs.to_flat())
        np.testing.assert_allclose(x_upper.to_flat(), want, rtol=0,
                                   atol=1e-11 * max(1.0, np.abs(want).max()))


def _add(M, N):
    return lincomb(1.0, M, 1.0, N)


def _sweep_operator(M, upper, keep):
    """The block upper or lower triangle of M, off-diagonal block (a, c) kept where ``keep(a, c)``."""
    inside = (lambda a, c: c >= a) if upper else (lambda a, c: c <= a)
    return BlockOperator(M.dims, {(a, c): blk for (a, c), blk in M.blocks.items() if inside(a, c) and (a == c or keep(a, c))})


class TestRowStrips:
    """A sweep makes one product per block row, with the operator's row strip."""

    def test_one_product_per_block_row(self, monkeypatch):
        # full tables at p = 4: six blocks below the diagonal, three strips
        prob = build_coupled_diffusion(full_spec(p=4, m=15))
        ws = prepare(prob, SchemeConfig("factorized", sigma=0.5, tau=1 / 64, n_steps=1))
        rhs = random_vector(np.random.default_rng(3), prob.dims)
        calls = []

        def counted(product, x, real=Product.__call__):
            calls.append(product.matrix.shape)
            return real(product, x)

        monkeypatch.setattr(Product, "__call__", counted)
        for sweep, T in ((solve_block_lower, ws.lower), (solve_block_upper, ws.upper)):
            assert len(T.blocks) == 10
            calls.clear()
            sweep(T, rhs, ws.diag)
            assert len(calls) == 3

    @pytest.mark.parametrize("upper", [False, True])
    @pytest.mark.parametrize("p", [5, 8])
    @pytest.mark.parametrize("seed", range(3))
    def test_sweeps_with_gaps_match_dense(self, seed, p, upper):
        # block (a, c) kept at distance 1 or a multiple of 3, or in the first
        # (upper: last) block column, so from p = 5 some row holds absent
        # blocks between present ones, which the strip stores empty
        rng = np.random.default_rng(10 * p + seed)
        dims = random_dims(rng, p_choices=(p,))
        end = p - 1 if upper else 0
        T = _sweep_operator(random_spd(rng, dims), upper, lambda a, c: abs(a - c) in (1, 3, 6) or c == end)
        held = [sum(dims.sizes[c] for r, c in T.blocks if r == a != c) for a in range(p)]
        assert any(s is not None and s[1] - s[0] > n for s, n in zip(T.row_strips, held))
        diag = DiagFactorization.from_operator(T)
        rhs = random_vector(rng, dims)
        x = (solve_block_upper if upper else solve_block_lower)(T, rhs, diag)
        want = np.linalg.solve(T.to_dense(), rhs.to_flat())
        np.testing.assert_allclose(x.to_flat(), want, rtol=0, atol=1e-11 * max(1.0, np.abs(want).max()))

    @pytest.mark.parametrize("upper", [False, True])
    def test_one_block_per_row_is_the_per_block_formula(self, upper):
        # each row's strip is its one block's CSR, so the sweep is
        # x_a = D_a^{-1} (b_a - T_ac x_c) bit for bit
        rng = np.random.default_rng(31)
        dims = random_dims(rng, p_choices=(5,))
        p, off = dims.p, dims.offsets
        end = p - 1 if upper else 0
        partner = {a: (a + 1 if upper else a - 1) if a % 2 else end for a in range(p) if a != end}
        T = _sweep_operator(random_spd(rng, dims), upper, lambda a, c: partner.get(a) == c)
        assert T.row_strips[end] is None
        for a, c in partner.items():
            start, stop, strip = T.row_strips[a]
            assert (start, stop) == (off[c], off[c + 1]) and strip is T.block(a, c)
        diag = DiagFactorization.from_operator(T)
        rhs = random_vector(rng, dims)
        b, want = rhs.to_flat(), np.zeros(dims.total)
        for a in range(p - 1, -1, -1) if upper else range(p):
            acc = b[off[a] : off[a + 1]]
            if a in partner:
                c = partner[a]
                acc = acc - matvec(T.block(a, c), want[off[c] : off[c + 1]])
            want[off[a] : off[a + 1]] = diag.factors[a].solve(acc)
        got = (solve_block_upper if upper else solve_block_lower)(T, rhs, diag)
        np.testing.assert_array_equal(got.to_flat(), want)


def _banded_spd(rng, n, kd, shift=1.0):
    """Sparse symmetric matrix of bandwidth kd, diagonally dominant up to shift."""
    diags = [rng.standard_normal(n - k) for k in range(1, kd + 1)]
    offsets = [0] + [-k for k in range(1, kd + 1)] + list(range(1, kd + 1))
    M = sp.diags_array([np.zeros(n)] + diags + diags, offsets=offsets)
    dominance = np.abs(M).sum(axis=1)
    return sp.csr_array(M + sp.diags_array(dominance + shift))


class TestBandedPath:
    def test_small_orders_stay_dense(self):
        G = laplacian_1d(SPARSE_MIN_ORDER - 1) + sp.identity(SPARSE_MIN_ORDER - 1)
        assert factor_spd(G).bandwidth is None
        assert factor_spd(laplacian_1d(SPARSE_MIN_ORDER)).bandwidth == 1

    @pytest.mark.parametrize("kd", [0, 1, 4])
    def test_matches_dense_solve(self, kd):
        rng = np.random.default_rng(11 + kd)
        n = 300
        G = _banded_spd(rng, n, kd)
        factor = factor_spd(G)
        assert factor.bandwidth == kd and factor.perm is None
        # bandwidth 0 and 1 take the tridiagonal LDL^T route: D and the
        # subdiagonal of L in two rows; wider bands kd + 1 rows of Cholesky
        assert factor.chol_lower.shape == (max(kd, 1) + 1, n)
        for rhs in (rng.standard_normal(n), rng.standard_normal((n, 3))):
            want = np.linalg.solve(G.toarray(), rhs)
            got = factor.solve(rhs)
            assert got.shape == rhs.shape
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_dense_input_above_crossover(self):
        rng = np.random.default_rng(12)
        G = _banded_spd(rng, 200, 2)
        rhs = rng.standard_normal(200)
        np.testing.assert_array_equal(factor_spd(G.toarray()).solve(rhs), factor_spd(G).solve(rhs))

    def test_pivot_index_matches_dense(self):
        rng = np.random.default_rng(13)
        n = 400
        G = _banded_spd(rng, n, 3).tolil()
        G[257, 257] = -5.0
        G = sp.csr_array(G)
        _, dense_info = lapack.dpotrf(G.toarray(), lower=1)
        assert dense_info > 0
        with pytest.raises(NotPositiveDefiniteError, match="band block") as exc_info:
            factor_spd(G, context="band block")
        assert exc_info.value.pivot == dense_info

    def test_tridiagonal_route_after_reordering(self):
        # a tridiagonal matrix with its unknowns shuffled: reverse
        # Cuthill-McKee finds the path again and the LDL^T route takes it
        rng = np.random.default_rng(23)
        n = 300
        shuffle = rng.permutation(n)
        G = _banded_spd(rng, n, 1)[shuffle][:, shuffle]
        factor = factor_spd(G)
        assert factor.perm is not None and factor.bandwidth == 1
        dense = G.toarray()
        for rhs in (rng.standard_normal(n), rng.standard_normal((n, 2))):
            want = np.linalg.solve(dense, rhs)
            assert np.abs(factor.solve(rhs) - want).max() <= 1e-12 * np.abs(want).max()

    def test_tridiagonal_pivot_index_matches_dense(self):
        rng = np.random.default_rng(24)
        G = _banded_spd(rng, 400, 1).tolil()
        G[257, 257] = -5.0
        G = sp.csr_array(G)
        _, dense_info = lapack.dpotrf(G.toarray(), lower=1)
        assert dense_info > 0
        with pytest.raises(NotPositiveDefiniteError, match="tridiagonal block") as exc_info:
            factor_spd(G, context="tridiagonal block")
        assert exc_info.value.pivot == dense_info

    @pytest.mark.parametrize("sizes", [(200,), (64, 64)])
    def test_all_dense_equal_shaped_blocks(self, sizes):
        # a grid of equal-shaped dense blocks once broke the sparse assembly
        rng = np.random.default_rng(15)
        dims = BlockDims(sizes)
        S = _banded_spd(rng, dims.total, 2).toarray()
        A = BlockOperator.from_dense(dims, S)
        assert len(A.blocks) == dims.p**2 and all(isinstance(blk, sp.csr_array) for blk in A.blocks.values())
        rhs = rng.standard_normal(dims.total)
        want = np.linalg.solve(S, rhs)
        assert np.abs(factor_spd(A).solve(rhs) - want).max() <= 1e-12 * np.abs(want).max()

        # the weighted scheme factors B + sigma*tau*A through the same path
        cfg = SchemeConfig("weighted", sigma=0.5, tau=0.1, n_steps=3)
        v0 = random_vector(rng, dims)
        B = BlockOperator.identity(dims)
        problem = EvolutionProblem(A=A, B=B, forcing=zero_forcing(dims), v0=v0, T=0.3)
        y = v0.to_flat()
        step = np.linalg.inv(np.eye(dims.total) + 0.05 * S) @ (np.eye(dims.total) - 0.05 * S)
        for _ in range(3):
            y = step @ y
        got = run(problem, cfg).final_state.to_flat()
        assert np.abs(got - y).max() <= 1e-12 * np.abs(y).max()

    def test_check_finite(self):
        factor = factor_spd(laplacian_1d(SPARSE_MIN_ORDER))
        rhs = np.ones(SPARSE_MIN_ORDER)
        rhs[3] = np.nan
        with pytest.raises(ValueError, match="infs or NaNs"):
            factor.solve(rhs)
        assert np.isnan(factor.solve(rhs, check_finite=False)).all()

    def test_rcm_ordered_weighted_solve_matches_dense(self):
        from splitstep.problems import assemble_operators

        A, B = assemble_operators(example_coupled_spec(p=2, m=300))
        shifted = lincomb(1.0, B, 0.5 / 64, A)
        factor = factor_spd(shifted)
        # natural order: the coupling blocks sit m = 300 off the diagonal
        assert factor.perm is not None and factor.bandwidth <= 3
        rng = np.random.default_rng(14)
        rhs = random_vector(rng, shifted.dims)
        got = solve_spd_full(shifted, rhs, factor).to_flat()
        want = np.linalg.solve(shifted.to_dense(), rhs.to_flat())
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


class TestFullSolve:
    def test_identity_returns_rhs(self):
        dims = BlockDims((2, 1))
        M = BlockOperator.identity(dims)
        rhs = BlockVector.from_parts(dims, ([1.0, 2.0], [3.0]))
        x = solve_spd_full(M, rhs, factor_spd(M))
        np.testing.assert_array_equal(x.to_flat(), rhs.to_flat())

    def test_matches_numpy_solve(self):
        rng = np.random.default_rng(9)
        dims = random_dims(rng)
        M = random_spd(rng, dims)
        rhs = random_vector(rng, dims)
        x = solve_spd_full(M, rhs, factor_spd(M))
        want = np.linalg.solve(M.to_dense(), rhs.to_flat())
        np.testing.assert_allclose(x.to_flat(), want, rtol=0, atol=1e-11 * max(1.0, np.abs(want).max()))

    def test_zero_rhs_skips_residual_check(self):
        dims = BlockDims((2,))
        M = BlockOperator.identity(dims, 3.0)
        x = solve_spd_full(M, BlockVector.zeros(dims), factor_spd(M))
        assert x.norm() == 0.0

    def test_reused_factor(self):
        rng = np.random.default_rng(10)
        dims = BlockDims((3, 2))
        M = random_spd(rng, dims)
        factor = factor_spd(M.to_dense())
        rhs = random_vector(rng, dims)
        x1 = solve_spd_full(M, rhs, factor)
        x2 = solve_spd_full(M, rhs, factor_spd(M))
        np.testing.assert_allclose(x1.to_flat(), x2.to_flat(), atol=1e-14)

    def test_mismatched_factor_fails_residual_check(self):
        dims = BlockDims((2,))
        M = BlockOperator.identity(dims)
        wrong = factor_spd(2.0 * np.eye(2))
        rhs = BlockVector.from_parts(dims, ([1.0, 1.0],))
        with pytest.raises(SolveFailureError, match="residual"):
            solve_spd_full(M, rhs, wrong)

    def test_nan_fails_residual_check(self):
        dims = BlockDims((2,))
        M = BlockOperator.identity(dims)
        rhs = BlockVector.from_parts(dims, ([1.0, np.nan],))
        with pytest.raises(SolveFailureError, match="residual nan"):
            solve_spd_full(M, rhs, factor_spd(M))

    def test_backward_error_check_scales_with_operator(self):
        # |M| = 4e8 at m = 10000: the residual of a correct solve is far
        # above 1e-11 |rhs| but its backward error is at rounding level
        M = BlockOperator(BlockDims((10_000,)), {(0, 0): laplacian_1d(10_000)})
        rhs = BlockVector.from_parts(M.dims, (np.ones(10_000),))
        x = solve_spd_full(M, rhs, factor_spd(M))
        assert (M.apply(x) - rhs).norm() > 1e-11 * rhs.norm()

    @given(seeds)
    def test_solve_then_apply_roundtrip(self, seed):
        rng = np.random.default_rng(seed)
        dims = random_dims(rng)
        M = random_spd(rng, dims)
        rhs = random_vector(rng, dims)
        x = solve_spd_full(M, rhs, factor_spd(M))
        back = M.apply(x)
        assert (back - rhs).norm() <= 1e-10 * max(1.0, rhs.norm())

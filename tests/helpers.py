"""Builders for randomized block-structured instances shared across tests."""

import numpy as np
import scipy.sparse as sp

from splitstep import (
    BlockDims,
    BlockOperator,
    BlockVector,
    EvolutionProblem,
    ExponentialSumForcing,
)


def random_dims(rng, p_choices=(2, 3, 4), size_range=(1, 8)) -> BlockDims:
    p = int(rng.choice(p_choices))
    sizes = tuple(int(n) for n in rng.integers(size_range[0], size_range[1] + 1, size=p))
    return BlockDims(sizes)


def random_vector(rng, dims: BlockDims) -> BlockVector:
    return BlockVector.from_parts(dims, tuple(rng.standard_normal(n) for n in dims.sizes))


def _maybe_sparse(rng, block, sparse_fraction):
    if sparse_fraction > 0.0 and rng.random() < sparse_fraction:
        return sp.csr_array(block)
    return block


def random_symmetric(rng, dims: BlockDims, drop_fraction=0.3, sparse_fraction=0.3) -> BlockOperator:
    """Symmetric block operator, possibly indefinite, with some absent blocks."""
    p = dims.p
    blocks = {}
    for a in range(p):
        for b in range(a, p):
            if a != b and rng.random() < drop_fraction:
                continue
            blk = rng.standard_normal((dims.sizes[a], dims.sizes[b]))
            if a == b:
                blk = 0.5 * (blk + blk.T)
                blocks[(a, a)] = _maybe_sparse(rng, blk, sparse_fraction)
            else:
                blocks[(a, b)] = _maybe_sparse(rng, blk, sparse_fraction)
                blocks[(b, a)] = _maybe_sparse(rng, blk.T.copy(), sparse_fraction)
    return BlockOperator(dims, blocks)


def random_spd(rng, dims: BlockDims, sparse_fraction=0.0) -> BlockOperator:
    """Diagonally dominant symmetric positive definite block operator."""
    n = dims.total
    x = rng.standard_normal((n, n))
    s = 0.5 * (x + x.T)
    s += np.diag(np.abs(s).sum(axis=1) + 0.1 + rng.random(n))
    op = BlockOperator.from_dense(dims, s)
    if sparse_fraction > 0.0:
        blocks = {key: _maybe_sparse(rng, blk, sparse_fraction) for key, blk in op.blocks.items()}
        op = BlockOperator(dims, blocks)
    return op


def random_block_diag_spd(rng, dims: BlockDims) -> BlockOperator:
    blocks = {}
    for a, n in enumerate(dims.sizes):
        x = rng.standard_normal((n, n))
        blocks[(a, a)] = x.T @ x + (0.3 + rng.random()) * np.eye(n)
    return BlockOperator(dims, blocks)


def random_smooth_forcing(rng, dims: BlockDims, n_terms=2) -> ExponentialSumForcing:
    terms = tuple(
        (float(rng.uniform(-1.5, 0.5)), random_vector(rng, dims)) for _ in range(n_terms)
    )
    return ExponentialSumForcing(dims, terms)


def random_problem(rng, dims=None, diag_b=True, forced=True, T=1.0) -> EvolutionProblem:
    if dims is None:
        dims = random_dims(rng)
    A = random_spd(rng, dims)
    B = random_block_diag_spd(rng, dims) if diag_b else random_spd(rng, dims)
    if forced:
        forcing = random_smooth_forcing(rng, dims)
    else:
        forcing = ExponentialSumForcing(dims, ())
    return EvolutionProblem(A=A, B=B, forcing=forcing, v0=random_vector(rng, dims), T=T)


def scalar_problem(a=2.0, b=1.0, v0=1.0, forcing=None, T=1.0) -> EvolutionProblem:
    dims = BlockDims((1,))
    if forcing is None:
        forcing = ExponentialSumForcing(dims, ())
    return EvolutionProblem(
        A=BlockOperator(dims, {(0, 0): [[a]]}),
        B=BlockOperator(dims, {(0, 0): [[b]]}),
        forcing=forcing,
        v0=BlockVector.from_parts(dims, ([v0],)),
        T=T,
    )

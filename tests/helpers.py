"""Builders for randomized block-structured instances shared across tests."""

import math

import numpy as np
import scipy.sparse as sp
from scipy.linalg import lu_factor, lu_solve

from splitstep import (
    BlockDims,
    BlockOperator,
    BlockVector,
    DiffusionSpec,
    EvolutionProblem,
    ExponentialSumForcing,
    RunLog,
    SchemeConfig,
    SchemeKind,
    example_coupled_spec,
    forcing_sample,
    laplacian_min_eig,
    triangular_split,
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


def full_spec(p: int, m: int, coupled_b: bool = False) -> DiffusionSpec:
    """The example tables with every off-diagonal entry present: k_ab = 0.2/(1+|a-b|)
    and r_ab = -0.05/(1+|a-b|), and with ``coupled_b`` also b_ab = 0.1/(1+|a-b|)."""
    base = example_coupled_spec(p=p, m=m)
    index = np.arange(p)
    decay = (1.0 - np.eye(p)) / (1.0 + np.abs(index[:, None] - index[None, :]))
    k, r = np.diag(np.diag(base.k)) + 0.2 * decay, np.diag(np.diag(base.r)) - 0.05 * decay
    b = base.b + 0.1 * decay if coupled_b else base.b
    return DiffusionSpec(p=p, m=m, k=k, r=r, b=b)


def random_block_diag_spd(rng, dims: BlockDims) -> BlockOperator:
    blocks = {}
    for a, n in enumerate(dims.sizes):
        x = rng.standard_normal((n, n))
        blocks[(a, a)] = x.T @ x + (0.3 + rng.random()) * np.eye(n)
    return BlockOperator(dims, blocks)


def reversed_rows(csr) -> sp.csr_array:
    """The same matrix, each row's entries stored in reverse column order."""
    indices, data = csr.indices.copy(), csr.data.copy()
    for lo, hi in zip(csr.indptr[:-1], csr.indptr[1:]):
        indices[lo:hi], data[lo:hi] = indices[lo:hi][::-1].copy(), data[lo:hi][::-1].copy()
    return sp.csr_array((data, indices, csr.indptr.copy()), shape=csr.shape)


def csr_arrays(csr) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    return csr.indptr, csr.indices, csr.data


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


# ---------------------------------------------------------------------------
# Dense small-N oracles for the estimate observers.  They assemble every
# operator of the two estimates as a dense matrix, the route the observers
# took before they went sparse, and refine each forcing-term solve against
# the weight applied in factored form.
# ---------------------------------------------------------------------------


def factorized_operator_dense(problem: EvolutionProblem, cfg: SchemeConfig) -> tuple[np.ndarray, np.ndarray]:
    """Product and expanded dense forms of the factorized transition operator.

    Product form: (B + st A1) B^{-1} (B + st A2).  Expanded form:
    B + st A + st^2 A1 B^{-1} A2, st = sigma * tau.  Their agreement is an
    exact operator identity, so any discrepancy beyond rounding is a bug.
    """
    split = triangular_split(problem.A)
    bd = problem.B.to_dense()
    a1 = split.lower.to_dense()
    a2 = split.upper.to_dense()
    st = cfg.sigma * cfg.tau
    product = (bd + st * a1) @ np.linalg.solve(bd, bd + st * a2)
    expanded = bd + st * problem.A.to_dense() + st**2 * (a1 @ np.linalg.solve(bd, a2))
    return product, expanded


def factorized_operator_identity_error(problem: EvolutionProblem, cfg: SchemeConfig) -> float:
    """Relative entrywise gap between the product and expanded forms."""
    product, expanded = factorized_operator_dense(problem, cfg)
    scale = max(float(np.abs(expanded).max()), 1e-300)
    return float(np.abs(product - expanded).max()) / scale


def factorized_operator_psd_margin(problem: EvolutionProblem, cfg: SchemeConfig) -> float:
    """Smallest eigenvalue of (transition operator) - (B + sigma*tau*A).

    The gap equals sigma^2 tau^2 A1 B^{-1} A2, which is positive semidefinite
    because A2 is the adjoint of A1, so the margin must not dip below
    rounding level.
    """
    product, _ = factorized_operator_dense(problem, cfg)
    st = cfg.sigma * cfg.tau
    gap = product - problem.B.to_dense() - st * problem.A.to_dense()
    return float(np.linalg.eigvalsh(0.5 * (gap + gap.T))[0])


def dense_estimate_weight(problem: EvolutionProblem, cfg: SchemeConfig) -> np.ndarray:
    """W of the two-level bound: B + (sigma - 1/2) tau A, plus sigma^2 tau^2 A1 B^{-1} A2
    for the factorized scheme."""
    bd = problem.B.to_dense()
    w = bd + (cfg.sigma - 0.5) * cfg.tau * problem.A.to_dense()
    if cfg.kind is SchemeKind.FACTORIZED:
        split = triangular_split(problem.A)
        a1, a2 = split.lower.to_dense(), split.upper.to_dense()
        w = w + (cfg.sigma * cfg.tau) ** 2 * (a1 @ np.linalg.solve(bd, a2))
    return 0.5 * (w + w.T)


def dense_diff_weight(problem: EvolutionProblem, cfg: SchemeConfig) -> np.ndarray:
    """R = (tau / (2 eps)) (C1 C2 + eps^2 I) - (tau^2/4) A of the three-level energy."""
    a_split = triangular_split(problem.A)
    b_split = triangular_split(problem.B)
    st = cfg.sigma * cfg.tau
    c1 = b_split.lower.to_dense() + st * a_split.lower.to_dense()
    c2 = b_split.upper.to_dense() + st * a_split.upper.to_dense()
    n = problem.dims.total
    r = (cfg.tau / (2.0 * cfg.epsilon)) * (c1 @ c2 + cfg.epsilon**2 * np.eye(n))
    r = r - (cfg.tau**2 / 4.0) * problem.A.to_dense()
    return 0.5 * (r + r.T)


# Refinement steps of ``dense_forcing_solve``.  At p = 2, m = 255,
# tau = 1/32 one step takes the forcing term from 8e-11 to 9e-13 of the modal
# value, the rounding in the forcing vector (A - B) profile itself; the
# second is margin.
_REFINE_STEPS = 2


def dense_forcing_solve(problem: EvolutionProblem, cfg: SchemeConfig):
    """f -> M^{-1} f for the weight M of the estimate's forcing term.

    M is ``dense_estimate_weight`` for the two-level schemes and
    C = B + sigma*tau*A for the three-level one.  The assembled M is only the
    first solve: the entries of sigma^2 tau^2 A1 B^{-1} A2 drown B's digits
    (at p = 2, m = 255, tau = 1/32 the forcing term came out about 1e-10
    off), so the solution is refined against M applied in factored form,
    B x + (sigma - 1/2) tau A x + sigma^2 tau^2 A1 (B^{-1} (A2 x)).
    """
    bd, a = problem.B.to_dense(), problem.A.to_dense()
    st = cfg.sigma * cfg.tau
    if cfg.kind is SchemeKind.THREE_LEVEL:
        weight = bd + st * a

        def apply(x):
            return bd @ x + st * (a @ x)

    else:
        weight = dense_estimate_weight(problem, cfg)
        split = triangular_split(problem.A)
        a1, a2 = split.lower.to_dense(), split.upper.to_dense()
        enlarged = cfg.kind is SchemeKind.FACTORIZED

        def apply(x):
            y = bd @ x + (cfg.sigma - 0.5) * cfg.tau * (a @ x)
            return y + st**2 * (a1 @ np.linalg.solve(bd, a2 @ x)) if enlarged else y

    factor = lu_factor(weight)

    def solve(f):
        x = lu_solve(factor, f)
        for _ in range(_REFINE_STEPS):
            x = x + lu_solve(factor, f - apply(x))
        return x

    return solve


def modal_forcing_term(spec, sigma: float, tau: float, amplitudes=(1.0, 2.0)) -> float:
    """(tau/2) (W^{-1} phi, phi) of the factorized scheme at transition 0 of
    ``manufactured_problem(spec)``, p = 2, from the modal 2-by-2 reduction.

    Each component of phi = exp(-t) (A - B) profile is a multiple of the
    sine mode s, and every block acts on s as a scalar: (W^{-1} phi, phi) =
    exp(-2 t) (s, s) w^T W_m^{-1} w, with W_m = b + (sigma - 1/2) tau K
    + sigma^2 tau^2 K1 b^{-1} K1^T, K = k lambda_1 + r, K1 the lower triangle
    of K with half its diagonal, and w = (K - b) c.
    """
    K = spec.k * laplacian_min_eig(spec.m) + spec.r
    K1 = np.tril(K, -1) + 0.5 * np.diag(np.diag(K))
    w_m = spec.b + (sigma - 0.5) * tau * K + (sigma * tau) ** 2 * K1 @ np.linalg.solve(spec.b, K1.T)
    w = (K - spec.b) @ np.array(amplitudes)
    s = np.sin(np.pi * spec.grid)
    # the forcing decays at rate 1 and transition 0 samples it at sigma * tau
    return 0.5 * tau * math.exp(-2.0 * sigma * tau) * (s @ s) * float(w @ np.linalg.solve(w_m, w))


def dense_three_level_energy(problem: EvolutionProblem, cfg: SchemeConfig):
    """(y, y_prev) -> E of the three-level energy, from dense operators in
    factored form: (A y, y_prev) + (tau/(2 eps)) (||C2 r||^2 + eps^2 ||r||^2),
    r = (y - y_prev)/tau.  The assembled ``dense_diff_weight`` loses the
    energy's digits: at p = 4, m = 255, tau = 1/32 it is 2e-10 off."""
    a_split = triangular_split(problem.A)
    b_split = triangular_split(problem.B)
    a = problem.A.to_dense()
    c2 = b_split.upper.to_dense() + cfg.sigma * cfg.tau * a_split.upper.to_dense()
    tau, eps = cfg.tau, cfg.epsilon

    def energy(y, y_prev):
        rate = (y - y_prev) / tau
        c2_rate = c2 @ rate
        return float(y @ a @ y_prev) + tau / (2.0 * eps) * (float(c2_rate @ c2_rate) + eps**2 * float(rate @ rate))

    return energy


def longdouble_three_level_energy(problem: EvolutionProblem, cfg: SchemeConfig):
    """(y, y_prev) -> the three-level energy ||(y + y_prev)/2||_A^2 + ||r||_R^2 in
    ``np.longdouble``, R applied as (tau/(2 eps)) (C1 (C2 r) + eps^2 r) - (tau^2/4) A r:
    the defining form, by products with the unassembled triangular parts."""
    ld = np.longdouble
    a_split = triangular_split(problem.A)
    b_split = triangular_split(problem.B)
    st = ld(cfg.sigma) * ld(cfg.tau)
    a = problem.A.to_dense().astype(ld)
    c1 = b_split.lower.to_dense().astype(ld) + st * a_split.lower.to_dense().astype(ld)
    c2 = b_split.upper.to_dense().astype(ld) + st * a_split.upper.to_dense().astype(ld)
    tau, eps = ld(cfg.tau), ld(cfg.epsilon)

    def energy(y, y_prev):
        y, y_prev = np.asarray(y, dtype=ld), np.asarray(y_prev, dtype=ld)
        mean, rate = (y + y_prev) / 2, (y - y_prev) / tau
        r_rate = tau / (2 * eps) * (c1 @ (c2 @ rate) + eps**2 * rate) - tau**2 / 4 * (a @ rate)
        return float(mean @ (a @ mean) + rate @ r_rate)

    return energy


def modal_three_level_energy(spec, cfg: SchemeConfig, y: np.ndarray, y_prev: np.ndarray) -> float:
    """The three-level energy of two levels of ``manufactured_problem(spec)``
    that lie in the first sine mode s, from p-by-p tables.

    Every block acts on s as a scalar, so with c and c' the levels' mode
    coefficients, rho = (c - c')/tau, K = k lambda_1 + r and
    U = upper(b) + sigma tau upper(K), upper(X) the upper triangle of X with
    half its diagonal: E = (s, s) [c'^T K c + (tau/(2 eps)) (|U rho|^2 + eps^2 |rho|^2)].
    """

    def upper(x):
        return np.triu(x, 1) + 0.5 * np.diag(np.diag(x))

    K = spec.k * laplacian_min_eig(spec.m) + spec.r
    U = upper(spec.b) + cfg.sigma * cfg.tau * upper(K)
    s = np.sin(np.pi * spec.grid)
    c, c_prev = (np.reshape(v, (spec.p, spec.m)) @ s / (s @ s) for v in (y, y_prev))
    rho = (c - c_prev) / cfg.tau
    eps = cfg.epsilon
    return (s @ s) * float(c_prev @ K @ c + cfg.tau / (2.0 * eps) * (np.sum((U @ rho) ** 2) + eps**2 * rho @ rho))


def modal_diff_weight_margin(spec, cfg: SchemeConfig) -> float:
    """mu = min over j of tau/(2 eps) - lambda_max(G_j^{-1} M_j G_j^{-T}): the margin of the
    three-level difference weight R of ``build_coupled_diffusion(spec)`` against G G^T,
    G = C1 + eps E, from p-by-p tables per sine mode and numpy alone.

    The sine modes s_j diagonalize every block: the second difference acts on s_j
    as lambda_j = (4/h^2) sin^2(j pi h/2), so A acts on the coefficients of s_j as
    K_j = k lambda_j + r, B as b, G as G_j = tril(b) + sigma tau tril(K_j) + eps I,
    tril(X) the lower triangle of X with half its diagonal, and M = (tau/2) C
    + (tau^2/4) A as M_j = (tau/2) (b + sigma tau K_j) + (tau^2/4) K_j.
    """

    def tril(x):
        return np.tril(x, -1) + 0.5 * x * np.eye(spec.p)

    st, tau, eps = cfg.sigma * cfg.tau, cfg.tau, cfg.epsilon
    j = np.arange(1, spec.m + 1)
    lam = 4.0 / spec.h**2 * np.sin(j * np.pi * spec.h / 2.0) ** 2
    K = lam[:, None, None] * spec.k + spec.r
    G = tril(spec.b) + st * tril(K) + eps * np.eye(spec.p)
    M = 0.5 * tau * (spec.b + st * K) + 0.25 * tau * tau * K
    g_inv = np.linalg.inv(G)
    congruent = g_inv @ M @ np.swapaxes(g_inv, 1, 2)
    nu = np.linalg.eigvalsh(0.5 * (congruent + np.swapaxes(congruent, 1, 2)))[:, -1]
    return tau / (2.0 * eps) - float(nu.max())


def dense_run_slacks(problem: EvolutionProblem, cfg: SchemeConfig, log: RunLog) -> list[float]:
    """The estimate slack of every certified transition of a run, from dense
    operators; the same transitions ``verify.run_slacks`` covers."""
    a = problem.A.to_dense()
    tau = cfg.tau
    three_level = cfg.kind is SchemeKind.THREE_LEVEL
    solve = dense_forcing_solve(problem, cfg)
    if three_level:
        pair_energy = dense_three_level_energy(problem, cfg)

        def energy(n):
            return pair_energy(log.states[n].to_flat(), log.states[n - 1].to_flat())

    else:

        def energy(n):
            y = log.states[n].to_flat()
            return float(y @ a @ y)

    slacks = []
    for n in range(1 if three_level else 0, len(log.states) - 1):
        f = forcing_sample(problem, cfg, n).to_flat()
        bound = energy(n) + 0.5 * tau * float(f @ solve(f))
        slacks.append(bound - energy(n + 1))
    return slacks

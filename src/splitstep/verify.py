"""Stability estimate checks, reference solutions, and convergence studies.

One run observer per scheme family certifies its level-wise stability
estimate: ``EstimateObserver`` for the weighted and factorized schemes,
``EnergyObserver`` for the three-level scheme.  Each assembles exactly the
weight operators that appear in its bound from the blocks, as sparse
matrices (dense below ``SPARSE_MIN_ORDER``), factors the ones it solves with
through ``factor_spd``, evaluates one energy per level by sparse products,
and measures the slack (bound minus achieved value) per transition, so a
certified run costs O(N) per step for banded operators at every size.
``run_slacks`` recomputes the same slacks from a finished run's stored
levels.  Nonnegative slack up to rounding is what the theory promises
whenever its hypotheses hold; out of hypothesis the same quantities can
still be probed but assert nothing.

Reference solutions come from two deliberately independent routes: a
closed-form modal solution through the generalized symmetric eigenproblem,
and brute-force time stepping with a tiny step.  Tests cross-check the two
against each other rather than trusting either alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eigh

from .blockops import (
    BlockOperator,
    BlockVector,
    CertificateError,
    TriangularPair,
    triangular_split,
    weighted_norm,
)
from .linsolve import SPARSE_MIN_ORDER, DiagFactorization, NotPositiveDefiniteError, SpdFactor, factor_spd
from .schemes import (
    EvolutionProblem,
    ExponentialSumForcing,
    RunLog,
    RunObserver,
    SchemeConfig,
    SchemeInapplicableError,
    SchemeKind,
    SchemeState,
    forcing_sample,
    prepare,
    run,
    weighted_step,
)


class UnsupportedForcingError(ValueError):
    """Closed-form reference needs an exponential-sum forcing."""


class AssemblyError(RuntimeError):
    """A derived operator lost a structural property it must have."""


def _quad(mat, vec: np.ndarray) -> float:
    return float(vec @ (mat @ vec))


def _symmetrize_checked(mat, context: str, tol: float = 1e-10):
    """The symmetric part of a dense or sparse matrix that is symmetric up to ``tol``."""
    defect = float(abs(mat - mat.T).max())
    scale = max(float(abs(mat).max()), 1e-300)
    if defect > tol * scale:
        raise AssemblyError(f"{context}: expected symmetric matrix, defect {defect:.3e}")
    return 0.5 * (mat + mat.T)


def _whole(op: BlockOperator):
    """The operator as one matrix: dense below ``SPARSE_MIN_ORDER``, CSR above.

    The same crossover ``factor_spd`` uses: below it a dense product costs
    less in call overhead than a sparse one (CSR weights measured slower at
    N = 62).  The estimate weights are assembled by the same expressions in
    either storage.
    """
    return op.to_dense() if op.dims.total < SPARSE_MIN_ORDER else op.to_sparse()


def _a1_binv_a2(B: BlockOperator, split: TriangularPair):
    """A1 B^{-1} A2 for a block-diagonal B, A1 and A2 the triangular split of A.

    When B is a diagonal matrix, B^{-1} is a sparse diagonal and the product
    keeps the storage of A.  Otherwise B^{-1} A2 is formed exactly by solves
    with the factored diagonal blocks of B, and the product is dense.
    """
    if not B.is_block_diagonal():
        raise SchemeInapplicableError("factorized estimate needs a block-diagonal B")
    a1, a2, b = _whole(split.lower), _whole(split.upper), _whole(B)
    rows, cols = b.nonzero()
    if np.array_equal(rows, cols):
        return a1 @ (sp.diags_array(1.0 / b.diagonal()) @ a2)
    factors = DiagFactorization.from_operator(B)
    off = B.dims.offsets
    a2 = a2.toarray() if sp.issparse(a2) else a2
    return a1 @ np.vstack([factors.solve_block(c, a2[off[c] : off[c + 1]]) for c in range(B.dims.p)])


def _forcing_term(tau: float, factor: SpdFactor, phi: BlockVector) -> float:
    """(tau/2) (M^{-1} phi, phi) for the factored weight M; a zero phi skips the solve."""
    f = phi.to_flat()
    if not f.any():
        return 0.0
    return 0.5 * tau * float(f @ factor.solve(f))


class EstimateObserver(RunObserver):
    """Certifies the level-wise bound of the weighted and factorized schemes.

    The bound reads ||y^{n+1}||_A^2 <= ||y^n||_A^2 + (tau/2) (W^{-1} phi, phi)
    with W = B + (sigma - 1/2) tau A for the weighted scheme and the same
    plus sigma^2 tau^2 A1 B^{-1} A2 for the factorized one.  ``initial``
    assembles W from the blocks and factors it with ``factor_spd`` (banded
    above ``SPARSE_MIN_ORDER``), so an indefinite W (possible out of
    hypothesis) raises instead of producing meaningless numbers.  The energy
    of a level is the square of the A-norm ``run`` attaches to it.  The
    observer keeps the energy of the last level it saw, so a transition
    evaluates one energy: transitions must follow on from the level
    ``initial`` saw, as ``run`` calls them.
    """

    def __init__(self):
        self.min_slack = math.inf
        self.initial_energy: Optional[float] = None
        self._last: Optional[float] = None

    def assemble(self, problem: EvolutionProblem, cfg: SchemeConfig) -> None:
        """The factored weight W; ``initial`` calls this."""
        if cfg.kind not in (SchemeKind.WEIGHTED, SchemeKind.FACTORIZED):
            raise ValueError(f"two-level estimate does not apply to kind {cfg.kind.value!r}")
        self._tau = cfg.tau
        self._A = problem.A
        w = _whole(problem.B) + (cfg.sigma - 0.5) * cfg.tau * _whole(problem.A)
        if cfg.kind is SchemeKind.FACTORIZED:
            w = w + (cfg.sigma * cfg.tau) ** 2 * _a1_binv_a2(problem.B, triangular_split(problem.A))
        self._weight_factor = factor_spd(_symmetrize_checked(w, "estimate weight"), context="estimate weight")

    def energy(self, state: SchemeState) -> float:
        """||y^n||_A^2, from the norm ``run`` attached to the state if there is one."""
        norm_a = weighted_norm(self._A, state.y) if state.norm_a is None else state.norm_a
        return norm_a**2

    def forcing_term(self, phi: BlockVector) -> float:
        """(tau/2) (W^{-1} phi, phi)."""
        return _forcing_term(self._tau, self._weight_factor, phi)

    def initial(self, problem, cfg, state):
        self.assemble(problem, cfg)
        self.initial_energy = self._last = self.energy(state)
        return {}

    def transition(self, problem, cfg, prev, new, phi):
        bound = self._last + self.forcing_term(phi)
        self._last = self.energy(new)
        slack = bound - self._last
        self.min_slack = min(self.min_slack, slack)
        return {"slack": slack}


class EnergyObserver(RunObserver):
    """Certifies the energy bound of the three-level factorized scheme.

    With C1 = B1 + sigma*tau*A1, C2 = B2 + sigma*tau*A2, C = B + sigma*tau*A,
    D = (tau / (2 eps)) (C1 C2 + eps^2 I) and R = D - (tau^2/4) A, the energy

        E_n = ||(y^n + y^{n-1})/2||_A^2 + ||(y^n - y^{n-1})/tau||_R^2

    obeys E_{n+1} <= E_n + (tau/2) (C^{-1} phi^n, phi^n) for sigma >= 1,
    where R is positive definite.  ``initial`` assembles R from the
    triangular splits (sparse above ``SPARSE_MIN_ORDER``) for any admitted
    sigma, so out-of-hypothesis behavior can be probed: R is checked
    symmetric but not positive definite.  It also factors C.  As in ``EstimateObserver``, the energy of the last
    level seen is kept, so a transition evaluates one energy.
    """

    def __init__(self):
        self.min_slack = math.inf
        self.initial_energy: Optional[float] = None
        self._last: Optional[float] = None

    def assemble(self, problem: EvolutionProblem, cfg: SchemeConfig) -> None:
        """A and R, and the factored C; ``initial`` calls this."""
        if cfg.kind is not SchemeKind.THREE_LEVEL:
            raise ValueError(f"three-level estimate does not apply to kind {cfg.kind.value!r}")
        self._tau = cfg.tau
        self._a = _whole(problem.A)
        a_split = triangular_split(problem.A)
        b_split = triangular_split(problem.B)
        st = cfg.sigma * cfg.tau
        c1 = _whole(b_split.lower) + st * _whole(a_split.lower)
        c2 = _whole(b_split.upper) + st * _whole(a_split.upper)
        # a sparse identity added to a dense matrix gives a dense one
        eye = sp.eye_array(problem.dims.total, format="csr")
        d = (cfg.tau / (2.0 * cfg.epsilon)) * (c1 @ c2 + cfg.epsilon**2 * eye)
        self._r = _symmetrize_checked(d - (cfg.tau**2 / 4.0) * self._a, "difference weight")
        c = _whole(problem.B) + st * self._a
        self._c_factor = factor_spd(_symmetrize_checked(c, "transition operator"), context="B + sigma*tau*A")

    def energy(self, state: SchemeState) -> float:
        """E_n of the pair (y^n, y^{n-1})."""
        if state.y_prev is None:
            raise ValueError("three-level energy needs a state carrying its previous level")
        y, y_prev = state.y.to_flat(), state.y_prev.to_flat()
        return _quad(self._a, 0.5 * (y + y_prev)) + _quad(self._r, (y - y_prev) / self._tau)

    def forcing_term(self, phi: BlockVector) -> float:
        """(tau/2) (C^{-1} phi, phi)."""
        return _forcing_term(self._tau, self._c_factor, phi)

    def diff_weight(self):
        """The assembled R: dense below ``SPARSE_MIN_ORDER``, CSR above."""
        return self._r

    def diff_weight_min_eig(self) -> float:
        """Smallest eigenvalue of R.

        Dense ``eigvalsh`` below ``SPARSE_MIN_ORDER``.  Above it, Lanczos
        iteration (``eigsh``) on (R - s I)^{-1} with a shift s below the
        spectrum, certified by a Cholesky factorization of R - s I that
        succeeds: s = 0 when R is positive definite.  Otherwise s starts at
        twice a Gershgorin lower bound and is bisected towards 0 until it
        lies within 1% of the smallest eigenvalue, so the iteration does not
        crawl through a spectrum seen from far below.
        """
        r = self._r
        if not sp.issparse(r):
            return float(np.linalg.eigvalsh(r)[0])
        # imported here: only large difference weights need it
        from scipy.sparse.linalg import LinearOperator, eigsh

        eye = sp.eye_array(r.shape[0], format="csr")
        try:
            shift, factor = 0.0, factor_spd(r, context="difference weight")
        except NotPositiveDefiniteError:
            diag = r.diagonal()
            gershgorin = float((diag + abs(diag) - abs(r).sum(axis=1)).min())
            shift = 2.0 * min(gershgorin, 0.0)
            factor = factor_spd(r - shift * eye, context="difference weight below its spectrum")
            upper = 0.0
            # the bracket starts at most 2 ||R||_inf wide, and 64 halvings take it
            # below the ~1e-16 ||R|| that the Cholesky test can resolve
            for _ in range(64):
                if upper - shift <= 0.01 * abs(shift):
                    break
                trial = 0.5 * (shift + upper)
                try:
                    factor = factor_spd(r - trial * eye, context="difference weight")
                    shift = trial
                except NotPositiveDefiniteError:
                    upper = trial
        inverse = LinearOperator(r.shape, matvec=factor.solve, dtype=float)
        (lam,) = eigsh(r, k=1, sigma=shift, which="LM", OPinv=inverse, return_eigenvectors=False)
        return float(lam)

    def initial(self, problem, cfg, state):
        self.assemble(problem, cfg)
        self.initial_energy = self._last = self.energy(state)
        return {"energy": self._last}

    def transition(self, problem, cfg, prev, new, phi):
        bound = self._last + self.forcing_term(phi)
        self._last = self.energy(new)
        slack = bound - self._last
        self.min_slack = min(self.min_slack, slack)
        return {"energy": self._last, "slack": slack}


def run_slacks(problem: EvolutionProblem, cfg: SchemeConfig, log: RunLog) -> list[float]:
    """Recompute the estimate slack of every certified transition of a finished run.

    Works from the stored levels alone and evaluates both energies of each
    transition afresh, so it is an independent route to the numbers the
    streaming observers produce.  The three-level startup transition
    produces level 1 by a different recurrence and has no energy bound of
    its own, so for that scheme the first entry corresponds to the
    transition from (y^1, y^0) to (y^2, y^1).
    """
    if log.states is None:
        raise ValueError("run log carries no states; rerun with keep_states=True")
    three_level = cfg.kind is SchemeKind.THREE_LEVEL
    observer = EnergyObserver() if three_level else EstimateObserver()
    observer.assemble(problem, cfg)
    levels = log.states

    def level(n: int) -> SchemeState:
        return SchemeState(n, n * cfg.tau, levels[n], levels[n - 1] if three_level else None)

    slacks = []
    for n in range(1 if three_level else 0, len(levels) - 1):
        bound = observer.energy(level(n)) + observer.forcing_term(forcing_sample(problem, cfg, n))
        slacks.append(bound - observer.energy(level(n + 1)))
    return slacks

# ---------------------------------------------------------------------------
# Reference solutions.
# ---------------------------------------------------------------------------


def _phi1(s: np.ndarray) -> np.ndarray:
    """(exp(s) - 1) / s, continuous through s = 0."""
    out = np.ones_like(s)
    nz = s != 0.0
    out[nz] = np.expm1(s[nz]) / s[nz]
    return out


def reference_solution(problem: EvolutionProblem, t: float) -> BlockVector:
    """Exact solution at time t via the generalized modal decomposition.

    Eigenpairs of A v = lambda B v diagonalize the system; each modal
    coefficient evolves by exp(-lambda t) plus a Duhamel term per forcing
    rate.  Near-resonant rates (lambda + rate close to 0) go through a
    stabilized phi1 evaluation instead of the difference quotient.
    """
    forcing = problem.forcing
    if not isinstance(forcing, ExponentialSumForcing):
        raise UnsupportedForcingError(
            "closed-form reference requires an exponential-sum forcing; "
            f"got {type(forcing).__name__}"
        )
    ad = problem.A.to_dense()
    bd = problem.B.to_dense()
    lam, modes = eigh(ad, bd)
    if lam[0] <= 0.0:
        raise CertificateError(f"generalized spectrum must be positive, min is {lam[0]:.6e}")
    z = np.exp(-lam * t) * (modes.T @ (bd @ problem.v0.to_flat()))
    for rate, vec in forcing.terms:
        g = modes.T @ vec.to_flat()
        s = (lam + rate) * t
        duhamel = np.empty_like(lam)
        small = np.abs(s) < 0.5
        duhamel[small] = t * np.exp(-lam[small] * t) * _phi1(s[small])
        duhamel[~small] = (np.exp(rate * t) - np.exp(-lam[~small] * t)) / (lam[~small] + rate)
        z += duhamel * g
    return BlockVector(problem.dims, modes @ z)


def tiny_step_reference(problem: EvolutionProblem, t: float, tau_ref: float) -> BlockVector:
    """Brute-force reference: half-weight stepping with a very small step.

    Independent of the modal route; the two must agree to the square of the
    tiny step times the solution scale.
    """
    if not t > 0.0:
        return problem.v0
    n = max(1, round(t / tau_ref))
    cfg = SchemeConfig(SchemeKind.WEIGHTED, sigma=0.5, tau=t / n, n_steps=n)
    workspace = prepare(problem, cfg)
    state = SchemeState(0, 0.0, problem.v0)
    for k in range(n):
        state = weighted_step(problem, cfg, state, workspace, forcing_sample(problem, cfg, k))
    return state.y


# ---------------------------------------------------------------------------
# Convergence and scheme comparison studies.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConvergenceRow:
    tau: float
    n_steps: int
    error_a: float
    order: Optional[float]


@dataclass(frozen=True)
class ConvergenceReport:
    kind: SchemeKind
    sigma: float
    rows: tuple[ConvergenceRow, ...]

    @property
    def finest_order(self) -> float:
        if len(self.rows) < 2 or self.rows[-1].order is None:
            raise ValueError("need at least two step sizes to report an order")
        return self.rows[-1].order


def steps_for(T: float, tau: float) -> int:
    """Number of steps of size tau over [0, T]; ValueError unless tau divides T."""
    if not tau > 0.0:
        raise ValueError(f"tau={tau} must be positive")
    n = round(T / tau)
    if n < 1 or abs(n * tau - T) > 1e-9 * T:
        raise ValueError(f"tau={tau} does not divide the horizon T={T}")
    return n


def convergence_study(
    problem: EvolutionProblem, cfg_base: SchemeConfig, taus: Sequence[float]
) -> ConvergenceReport:
    """Final-time A-norm errors and observed orders over a ladder of steps.

    The reference is the closed-form solution when the forcing supports it,
    and otherwise tiny-step brute force well below the finest ladder step.
    """
    taus = sorted((float(t) for t in taus), reverse=True)
    try:
        reference = reference_solution(problem, problem.T)
    except UnsupportedForcingError:
        reference = tiny_step_reference(problem, problem.T, min(taus) / 1024.0)
    rows: list[ConvergenceRow] = []
    prev_tau = prev_err = None
    for tau in taus:
        n = steps_for(problem.T, tau)
        log = run(problem, replace(cfg_base, tau=tau, n_steps=n), keep_states=True)
        err = weighted_norm(problem.A, log.final_state - reference)
        order = None
        if prev_err is not None and err > 0.0 and prev_err > 0.0:
            order = math.log(prev_err / err) / math.log(prev_tau / tau)
        rows.append(ConvergenceRow(tau, n, err, order))
        prev_tau, prev_err = tau, err
    return ConvergenceReport(cfg_base.kind, cfg_base.sigma, tuple(rows))


@dataclass(frozen=True)
class CompareRow:
    tau: float
    n_steps: int
    max_diff_a: float
    final_diff_a: float


@dataclass(frozen=True)
class CompareReport:
    sigma: float
    rows: tuple[CompareRow, ...]

    @property
    def max_diff_ratios(self) -> tuple[Optional[float], ...]:
        """Coarse-to-fine ratios of the max trajectory difference."""
        out = []
        for prev, cur in zip(self.rows, self.rows[1:]):
            out.append(prev.max_diff_a / cur.max_diff_a if cur.max_diff_a > 0.0 else None)
        return tuple(out)


def compare_schemes(
    problem: EvolutionProblem, cfg_base: SchemeConfig, taus: Sequence[float]
) -> CompareReport:
    """Trajectory gap between the weighted and factorized schemes per step size.

    Both schemes run from the same data with the same sigma; the per-level
    A-norm difference is maxed over the whole horizon.
    """
    taus = sorted((float(t) for t in taus), reverse=True)
    rows: list[CompareRow] = []
    for tau in taus:
        n = steps_for(problem.T, tau)
        cfg_w = replace(cfg_base, kind=SchemeKind.WEIGHTED, tau=tau, n_steps=n)
        cfg_f = replace(cfg_base, kind=SchemeKind.FACTORIZED, tau=tau, n_steps=n)
        log_w = run(problem, cfg_w, keep_states=True)
        log_f = run(problem, cfg_f, keep_states=True)
        diffs = [
            weighted_norm(problem.A, yw - yf) for yw, yf in zip(log_w.states, log_f.states)
        ]
        rows.append(CompareRow(tau, n, max(diffs), diffs[-1]))
    return CompareReport(cfg_base.sigma, tuple(rows))

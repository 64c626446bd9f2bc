"""Stability estimate checks, reference solutions, and convergence studies.

One run observer per scheme family certifies its level-wise stability
estimate: ``EstimateObserver`` for the weighted and factorized schemes,
``EnergyObserver`` for the three-level scheme.  Each takes the operators
and factors it needs from the run's own workspace, which ``run`` hands it
through the ``prepared`` hook, and solves for its forcing term once per run,
so a transition costs one energy by sparse products and no solve: O(N) per
step for banded operators at every size.  ``run_slacks`` recomputes the
same slacks (bound minus achieved value) from a finished run's stored
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
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.linalg import eigh

from .blockops import BlockVector, CertificateError, lincomb, weighted_norm
from .linsolve import (
    SPARSE_MIN_ORDER, DiagFactorization, NotPositiveDefiniteError, SolveFailureError, factor_spd
)
from .schemes import (
    EvolutionProblem,
    ExponentialSumForcing,
    FactorizedWorkspace,
    RunLog,
    RunObserver,
    RunStepError,
    SchemeConfig,
    SchemeKind,
    SchemeState,
    _factorized_solve,
    march,
    prepare,
    run,
)


class UnsupportedForcingError(ValueError):
    """The computation needs an exponential-sum forcing."""


def _exponential_terms(problem: EvolutionProblem, purpose: str) -> tuple:
    if not isinstance(problem.forcing, ExponentialSumForcing):
        name = type(problem.forcing).__name__
        raise UnsupportedForcingError(f"{purpose} requires an exponential-sum forcing; got {name}")
    return problem.forcing.terms


# CG on the factorized weight stops once an increment of (W^{-1} v, v) is this
# small against the sum so far.  As P - 2 sigma tau A = (B - sigma*tau*A1)
# B^{-1} (B - sigma*tau*A2) >= 0, P^{-1} W has its spectrum in [1 - 1/(4 sigma), 1),
# cond <= 2 for sigma >= 1/2, so only out of hypothesis can the budget run out.
_CG_RTOL = 1e-15
_CG_BUDGET = 50


def _factorized_weight(
    problem: EvolutionProblem, cfg: SchemeConfig, ws: FactorizedWorkspace
) -> tuple[Callable, Callable]:
    """Solve and product with the factorized weight W = S B^{-1} S^T - (tau/2) A.

    S = B + sigma*tau*A1 and S^T are the run's workspace operators, B^{-1} a sweep
    on block-diagonal B; CG is preconditioned by the step's own solve with
    P = S B^{-1} S^T.  Assembled at N = 131070, the entries of sigma^2 tau^2 A1 B^{-1} A2
    (about 1e14) would drown those of B.  A curvature (d, W d) <= 0 raises ``NotPositiveDefiniteError``.
    """
    s, s_t, a = ws.lower.product, ws.upper.product, problem.A.product
    b_inverse = DiagFactorization.from_operator(problem.B).sweep(problem.B, descending=False)

    def apply_w(x):
        return s(b_inverse(s_t(x))) - (0.5 * cfg.tau) * a(x)

    def precondition(r):
        return _factorized_solve(problem.B, ws, BlockVector._own(problem.dims, r)).to_flat()

    def solve(v):
        d = z = precondition(v)
        x, r, rz, form = np.zeros_like(v), v, float(v @ z), 0.0
        for k in range(1, _CG_BUDGET + 1):
            q = apply_w(d)
            curvature = float(d @ q)
            if not curvature > 0.0:
                raise NotPositiveDefiniteError(
                    f"estimate weight: not positive definite, CG curvature {curvature:.3e} at iteration {k}", k
                )
            alpha = rz / curvature
            x, r, form = x + alpha * d, r - alpha * q, form + alpha * rz
            if alpha * rz <= _CG_RTOL * form:
                return x
            z = precondition(r)
            rz, rz_prev = float(r @ z), rz
            d = z + (rz / rz_prev) * d
        raise SolveFailureError(f"estimate weight: CG did not converge in {_CG_BUDGET} iterations")

    return solve, apply_w


class _LevelObserver(RunObserver):
    """The forcing term and the slack bookkeeping of both observers.

    For phi(t) = sum_k exp(r_k t) v_k and the weight M of the forcing term,
    (M^{-1} phi, phi) = sum_jk exp((r_j + r_k) t) G_jk.  ``assemble`` solves
    M g_k = v_k once per nonzero term; G_jk = (g_j, v_k) + (g_k, v_j) - (M g_j, g_k)
    has an error quadratic in those of the g_k, (g_j, v_k) alone a linear one.
    ``prepared`` keeps the run's problem, configuration and workspace, and
    ``initial`` assembles with them.  Transitions must follow on from the
    level ``initial`` saw, as ``run`` calls them: the last energy is kept, and
    ``prev.n`` indexes the forcing.
    """

    def __init__(self):
        self.min_slack = math.inf
        self.initial_energy: Optional[float] = None
        self._last: Optional[float] = None
        self._workspace = None

    def prepared(self, problem: EvolutionProblem, cfg: SchemeConfig, workspace) -> None:
        self._problem, self._cfg, self._workspace = problem, cfg, workspace

    def _solve_forcing(self, solve: Callable, apply: Callable):
        terms = _exponential_terms(self._problem, "estimate forcing term")
        shape = (len(terms), self._problem.dims.total)
        vecs = np.array([vec.to_flat() for _, vec in terms]).reshape(shape)
        # a term whose vector is zero costs no solve and no product
        sols = np.array([solve(v) if v.any() else v for v in vecs]).reshape(shape)
        products = np.array([apply(g) if g.any() else g for g in sols]).reshape(shape)
        gram = sols @ vecs.T + vecs @ sols.T - sols @ products.T
        rates = [rate for rate, _ in terms]
        self._terms = [(rj + rk, float(g)) for rj, row in zip(rates, gram) for rk, g in zip(rates, row)]

    def forcing_term(self, n: int) -> float:
        """(tau/2) (M^{-1} phi, phi) for the forcing sample phi of transition n."""
        t = (n + self._cfg.sigma) * self._cfg.tau
        return 0.5 * self._cfg.tau * sum(g * math.exp(rate * t) for rate, g in self._terms)

    def _start(self, problem: EvolutionProblem, cfg: SchemeConfig, state: SchemeState) -> float:
        if self._workspace is None:
            raise ValueError("the observer needs the run's workspace: prepared must come before initial")
        self.assemble(problem, cfg, self._workspace)
        self.initial_energy = self._last = self._finite_energy(state)
        return self._last

    def _finite_energy(self, state: SchemeState) -> float:
        """The level's energy; a non-finite one stops the run at the level, as ``march``'s guard does."""
        energy = self.energy(state)
        if not math.isfinite(energy):
            message = f"the estimate energy of level {state.n} is not finite ({energy})"
            raise RunStepError(message, step=max(state.n - 1, 0))
        return energy

    def _slack(self, prev: SchemeState, new: SchemeState) -> float:
        bound = self._last + self.forcing_term(prev.n)
        self._last = self._finite_energy(new)
        self.min_slack = min(self.min_slack, bound - self._last)
        return bound - self._last


class EstimateObserver(_LevelObserver):
    """Certifies the level-wise bound of the weighted and factorized schemes.

    The bound reads ||y^{n+1}||_A^2 <= ||y^n||_A^2 + (tau/2) (W^{-1} phi, phi)
    with W = B + (sigma - 1/2) tau A for the weighted scheme, factored by
    ``factor_spd``, and W = P - (tau/2) A for the factorized one, P its
    transition operator, solved by CG.  An indefinite W (possible out of
    hypothesis) raises ``NotPositiveDefiniteError``.  The energy of a level
    is the square of the A-norm ``march`` attaches to it.
    """

    def assemble(self, problem: EvolutionProblem, cfg: SchemeConfig, workspace) -> None:
        """W^{-1} v_k for every forcing term, with the workspace of ``prepare``,
        which the observer keeps; ``initial`` calls this with the run's."""
        if cfg.kind not in (SchemeKind.WEIGHTED, SchemeKind.FACTORIZED):
            raise ValueError(f"two-level estimate does not apply to kind {cfg.kind.value!r}")
        self.prepared(problem, cfg, workspace)
        if cfg.kind is SchemeKind.WEIGHTED:
            w = lincomb(1.0, problem.B, (cfg.sigma - 0.5) * cfg.tau, problem.A)
            solve, apply = factor_spd(w, context="estimate weight").solve, w.product
        else:
            solve, apply = _factorized_weight(problem, cfg, workspace)
        self._solve_forcing(solve, apply)

    def energy(self, state: SchemeState) -> float:
        """||y^n||_A^2, from the norm ``march`` attached to the state if there is one."""
        norm_a = weighted_norm(self._problem.A, state.y) if state.norm_a is None else state.norm_a
        return norm_a**2

    def initial(self, problem, cfg, state):
        self._start(problem, cfg, state)
        return {}

    def transition(self, problem, cfg, prev, new, phi):
        return {"slack": self._slack(prev, new)}


class EnergyObserver(_LevelObserver):
    """Certifies the energy bound of the three-level factorized scheme.

    With C1 = B1 + sigma*tau*A1, C2 = B2 + sigma*tau*A2 = C1^T, C = C1 + C2 and
    R = (tau / (2 eps)) (C1 C2 + eps^2 I) - (tau^2/4) A, the energy

        E_n = ||(y^n + y^{n-1})/2||_A^2 + ||(y^n - y^{n-1})/tau||_R^2

    obeys E_{n+1} <= E_n + (tau/2) (C^{-1} phi^n, phi^n) for sigma >= 1,
    where R is positive definite.  ``energy`` reads E_n off the step's own
    operators, so no run assembles R: its entries grow like (sigma tau k/h^2)^2,
    and from m = 16383 up their rounding swamped the O(1) energy.  C and its
    factor are those of the workspace's startup step.  R is not checked
    positive definite, so out-of-hypothesis sigma can be probed;
    ``diff_weight_margin`` measures it.
    """

    def assemble(self, problem: EvolutionProblem, cfg: SchemeConfig, workspace) -> None:
        """C^{-1} v_k for every forcing term, with the workspace of ``prepare``,
        which the observer keeps; ``initial`` calls this with the run's."""
        if cfg.kind is not SchemeKind.THREE_LEVEL:
            raise ValueError(f"three-level estimate does not apply to kind {cfg.kind.value!r}")
        self.prepared(problem, cfg, workspace)
        startup = workspace.startup
        self._solve_forcing(startup.factor.solve, startup.shifted.product)

    def energy(self, state: SchemeState) -> float:
        """E_n of the pair (y^n, y^{n-1}) as (A y^n, y^{n-1}) + (tau/(2 eps)) (||C2 r||^2 + eps^2 ||r||^2),
        r = (y^n - y^{n-1})/tau: for symmetric A, ||(y + y')/2||_A^2 - (tau^2/4) (A r, r) = (A y, y'),
        and (C1 C2 r, r) = ||C2 r||^2.  A y^n is the product ``march`` attached to the
        state (applied afresh for a bare one), and C2 r = (C2 + eps E) r - eps r."""
        if state.y_prev is None:
            raise ValueError("three-level energy needs a state carrying its previous level")
        upper, tau, eps = self._workspace.split.upper, self._cfg.tau, self._cfg.epsilon
        a_y = self._problem.A.apply(state.y) if state.a_y is None else state.a_y
        y, y_prev = state.y.to_flat(), state.y_prev.to_flat()
        rate = (y - y_prev) / tau
        c2_rate = upper.product(rate) - eps * rate
        squares = float(c2_rate @ c2_rate) + eps * eps * float(rate @ rate)
        return float(a_y.to_flat() @ y_prev) + (tau / (2.0 * eps)) * squares

    def diff_weight_margin(self) -> Optional[float]:
        """mu = tau/(2 eps) - lambda_max(G^{-1} M G^{-T}), or None where it is unresolved.

        With G = C1 + eps E (the workspace's lower sweep operator, G^T its upper one)
        and M = (tau/2) C + (tau^2/4) A, R = (tau/(2 eps)) G G^T - M, so mu is the largest
        number with R >= mu G G^T and, by congruence, has the sign of R's smallest
        eigenvalue.  R is never formed: its entries grow like (sigma tau k/h^2)^2 tau/eps,
        and subtracting at that scale for an eigenvalue of size tau/eps loses the digits.
        Dense ``eigvalsh`` below ``SPARSE_MIN_ORDER``; above it, Lanczos iteration
        (``eigsh``, from a seeded start, so every run gives the same digits) on the upper
        sweep, a product with M and the lower sweep.  None where G or M has a non-finite
        entry, checked before any solve, and where the iteration does not converge.
        """
        if self._workspace is None:
            raise ValueError("the difference weight needs the run's workspace: prepared must come first")
        split, c, a = self._workspace.split, self._workspace.startup.shifted, self._problem.A
        tau, eps, n = self._cfg.tau, self._cfg.epsilon, a.dims.total
        if n < SPARSE_MIN_ORDER:
            # M's entries as lincomb gives them, without its CSR blocks (about 0.2 ms at N = 62)
            g, m = split.lower.to_dense(), 0.5 * tau * c.to_dense() + 0.25 * tau * tau * a.to_dense()
            if not (np.isfinite(g).all() and np.isfinite(m).all()):
                return None
            g_inv = np.linalg.inv(g)
            return tau / (2.0 * eps) - float(np.linalg.eigvalsh(g_inv @ m @ g_inv.T)[-1])
        m = lincomb(0.5 * tau, c, 0.25 * tau * tau, a)
        if not (math.isfinite(split.lower.absmax()) and math.isfinite(m.absmax())):
            return None
        # imported here: only large problems need it, and it costs about 0.26 s
        from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

        lower, upper = split.diag.sweep(split.lower, False), split.diag.sweep(split.upper, True)
        congruent = LinearOperator((n, n), matvec=lambda x: lower(m.product(upper(x))), dtype=float)
        try:
            (nu,) = eigsh(congruent, k=1, which="LA", tol=1e-10, return_eigenvectors=False, rng=0)
        except ArpackNoConvergence:
            return None
        return tau / (2.0 * eps) - float(nu)

    def initial(self, problem, cfg, state):
        return {"energy": self._start(problem, cfg, state)}

    def transition(self, problem, cfg, prev, new, phi):
        slack = self._slack(prev, new)
        return {"energy": self._last, "slack": slack}


def run_slacks(problem: EvolutionProblem, cfg: SchemeConfig, log: RunLog) -> list[float]:
    """Recompute the estimate slack of every certified transition of a finished run.

    Works from the stored levels alone and evaluates both energies of each
    transition afresh, with the same observer class, ``energy`` and
    ``forcing_term``: it checks the streaming bookkeeping and the norms ``march``
    attaches, not the energies (``tests/helpers.dense_run_slacks`` does).  The
    three-level startup transition produces level 1 by another recurrence and
    has no energy bound of its own, so for that scheme the first entry is the
    transition from (y^1, y^0) to (y^2, y^1).
    """
    if log.states is None:
        raise ValueError("run log carries no states; rerun with keep_states=True")
    three_level = cfg.kind is SchemeKind.THREE_LEVEL
    observer = EnergyObserver() if three_level else EstimateObserver()
    observer.assemble(problem, cfg, prepare(problem, cfg))
    levels = log.states

    def level(n: int) -> SchemeState:
        return SchemeState(n, n * cfg.tau, levels[n], levels[n - 1] if three_level else None)

    return [
        observer.energy(level(n)) + observer.forcing_term(n) - observer.energy(level(n + 1))
        for n in range(1 if three_level else 0, len(levels) - 1)
    ]

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
    terms = _exponential_terms(problem, "closed-form reference")
    ad = problem.A.to_dense()
    bd = problem.B.to_dense()
    lam, modes = eigh(ad, bd)
    if lam[0] <= 0.0:
        raise CertificateError(f"generalized spectrum must be positive, min is {lam[0]:.6e}")
    z = np.exp(-lam * t) * (modes.T @ (bd @ problem.v0.to_flat()))
    for rate, vec in terms:
        g = modes.T @ vec.to_flat()
        s = (lam + rate) * t
        duhamel = np.empty_like(lam)
        small = np.abs(s) < 0.5
        duhamel[small] = t * np.exp(-lam[small] * t) * _phi1(s[small])
        duhamel[~small] = (np.exp(rate * t) - np.exp(-lam[~small] * t)) / (lam[~small] + rate)
        z += duhamel * g
    return BlockVector(problem.dims, modes @ z)


def tiny_step_reference(problem: EvolutionProblem, t: float, tau_ref: float) -> BlockVector:
    """Brute-force reference: the last level of a half-weight march with a very small step.

    Independent of the modal route; the two must agree to the square of the
    tiny step times the solution scale.  A failed or non-finite level raises
    ``RunStepError`` with its step, as ``run`` does.
    """
    if not t > 0.0:
        return problem.v0
    n = max(1, round(t / tau_ref))
    for _, state in march(problem, SchemeConfig(SchemeKind.WEIGHTED, sigma=0.5, tau=t / n, n_steps=n)):
        pass
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
    def finest_order(self) -> Optional[float]:
        """Order on the finest pair; None where an error of exactly 0 leaves it undefined."""
        if len(self.rows) < 2:
            raise ValueError("need at least two step sizes to report an order")
        return self.rows[-1].order


def steps_for(T: float, tau: float) -> int:
    """Number of steps of size tau over [0, T]; ValueError unless tau divides T below 2**63 steps."""
    if not tau > 0.0:
        raise ValueError(f"tau={tau} must be positive")
    if not T / tau < 2**63:
        raise ValueError(f"the step count T/tau={T / tau:g} of tau={tau} must be finite and at most 2**63 - 1")
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
        log = run(problem, replace(cfg_base, tau=tau, n_steps=n), keep_states=False)
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

    Both schemes march in lockstep from the same data with the same sigma,
    so only their current levels are held; the per-level A-norm difference
    is maxed over the whole horizon.
    """
    taus = sorted((float(t) for t in taus), reverse=True)
    rows: list[CompareRow] = []
    for tau in taus:
        n = steps_for(problem.T, tau)
        cfg_w = replace(cfg_base, kind=SchemeKind.WEIGHTED, tau=tau, n_steps=n)
        cfg_f = replace(cfg_base, kind=SchemeKind.FACTORIZED, tau=tau, n_steps=n)
        max_gap = 0.0  # the gap of level 0, where both march from v0
        for (_, w), (_, f) in zip(march(problem, cfg_w), march(problem, cfg_f)):
            gap = weighted_norm(problem.A, w.y - f.y)
            max_gap = max(max_gap, gap)
        rows.append(CompareRow(tau, n, max_gap, gap))
    return CompareReport(cfg_base.sigma, tuple(rows))
